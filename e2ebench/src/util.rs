//! Small helpers shared by the workloads: order statistics, a counting
//! allocator, peak resident memory, a result digest, pass laps, and JSON
//! output.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so the traced run can report allocations per
/// classify call. Counting is a relaxed atomic increment on every
/// allocation in both runs, so it does not skew one run against the other.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations so far in this process.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`), or `None` if it cannot be read. `getrusage`'s
/// `ru_maxrss` would not do: Linux carries it across `execve`, so a
/// process started by a larger one (`cargo run`) reports its parent's.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    (kib > 0.0).then_some(kib / 1024.0)
}

/// The `q`-quantile of `values` by nearest rank on the sorted sample
/// (`q` in `[0, 1]`); `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over 64-bit words: the decision and state digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What one lap of a pass was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LapKind {
    /// Ingest: a collection session, or `run_fleet_into`.
    Ingest,
    /// A call that emitted this many outputs (decisions, or a recovery).
    Output(usize),
    /// The traced run's twin split, which is not part of a pass.
    Twin,
    /// Everything else in the pass.
    Other,
}

/// Cuts a pass into consecutive laps that together cover its wall time.
/// Every pass of a run does the same work in the same order (the output
/// checks compare their digests), so lap `k` of every pass is the same
/// piece of work.
#[derive(Debug, Clone)]
pub struct Laps {
    last: Instant,
    laps: Vec<(LapKind, f64)>,
}

impl Default for Laps {
    fn default() -> Self {
        Laps {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }
}

impl Laps {
    /// Ends the current lap, which began where the previous one ended.
    pub fn lap(&mut self, kind: LapKind) {
        let now = Instant::now();
        self.laps.push((kind, (now - self.last).as_secs_f64()));
        self.last = now;
    }
}

/// The fastest time of each lap over `passes`, or `None` if the passes
/// were not cut into the same laps.
pub fn best_laps<'a>(mut passes: impl Iterator<Item = &'a Laps>) -> Option<Vec<(LapKind, f64)>> {
    let mut best = passes.next()?.laps.clone();
    for p in passes {
        if p.laps.len() != best.len() {
            return None;
        }
        for ((kind, secs), &(k, s)) in best.iter_mut().zip(&p.laps) {
            if *kind != k {
                return None;
            }
            *secs = secs.min(s);
        }
    }
    Some(best)
}

/// The wall time of a pass made of `laps`, leaving out twin laps.
pub fn pass_s(laps: &[(LapKind, f64)]) -> f64 {
    laps.iter()
        .filter(|(k, _)| *k != LapKind::Twin)
        .map(|(_, s)| s)
        .sum()
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts a metric.
pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_string(), Metric { value, unit });
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that round-trips the f64.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.5), 3.0);
    }

    #[test]
    fn best_laps_takes_each_laps_minimum() {
        let laps = |secs: &[f64]| Laps {
            last: Instant::now(),
            laps: secs.iter().map(|&s| (LapKind::Other, s)).collect(),
        };
        let passes = [laps(&[1.0, 5.0]), laps(&[3.0, 2.0])];
        let best = best_laps(passes.iter()).unwrap();
        assert_eq!(best, vec![(LapKind::Other, 1.0), (LapKind::Other, 2.0)]);
        assert!(best_laps([laps(&[1.0]), laps(&[1.0, 2.0])].iter()).is_none());
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::new();
        put(&mut m, "setup_s", 0.5, "s");
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
