//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each module's
//! public functions (the library itself is not instrumented). They stay in
//! memory until the run ends, when [`Tracer::summary`] folds them into
//! per-name totals. A span's self time is its duration minus the
//! durations of its direct children; spans nest strictly because the
//! benchmark is single-threaded.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self times (duration minus direct children), seconds.
    pub self_s: f64,
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Per-name totals over all spans recorded so far.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Fraction of the time inside spans named `root` that its direct
    /// children cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut root_ns = 0u64;
        let mut covered_ns = 0u64;
        for span in &self.spans {
            if span.name == root {
                root_ns += span.end_ns - span.start_ns;
            } else if span.parent.is_some_and(|p| self.spans[p].name == root) {
                covered_ns += span.end_ns - span.start_ns;
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            covered_ns as f64 / root_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("root", |tr| {
            tr.span("child", |_| spin(2_000_000));
            spin(1_000_000);
        });
        let s = tr.summary();
        let root = s["root"];
        let child = s["child"];
        assert_eq!(root.count, 1);
        assert!(root.total_s >= child.total_s + 0.001);
        assert!((root.self_s - (root.total_s - child.total_s)).abs() < 1e-9);
        assert!(tr.coverage("root") > 0.5 && tr.coverage("root") <= 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("root", |tr| tr.span("child", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.summary().is_empty());
        assert_eq!(tr.coverage("root"), 0.0);
    }
}
