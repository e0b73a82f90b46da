//! End-to-end sensor→decision benchmark for the DarNet workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fleet_3view --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one named workload built from `--seed`, measures passes over it
//! for `--seconds`, checks the outputs, prints a readable report, and
//! ends with one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits non-zero when an output
//! check fails. Everything runs on one thread. See `README.md` for the
//! workloads and metric definitions.

mod fleet;
mod probes;
mod session;
mod trace;
mod util;

use std::time::{Duration, Instant};

use darnet_core::MicroBatchConfig;

use fleet::{Fleet, FleetPass};
use session::{Kind, PassStats, Session};
use trace::Tracer;
use util::{
    best_laps, median, pass_s, peak_rss_mb, put, quantile, result_json, LapKind, Laps, Metrics,
};

#[global_allocator]
static GLOBAL: util::CountingAlloc = util::CountingAlloc;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Lowest accepted top-1 accuracy: three times chance over the eight
/// canonical classes.
const MIN_TOP1: f64 = 3.0 / 8.0;
/// Set-up and measurement rounds per untraced run, interleaved so the
/// measured passes spread over the whole run: few for the session
/// workloads, whose set-up trains three models, more for the fleet, whose
/// set-up is one pass, so that its median set-up time is steady.
const SESSION_ROUNDS: usize = 3;
const FLEET_ROUNDS: usize = 8;

const WORKLOADS: [&str; 3] = ["fleet_3view", "edge_front_outage", "fleet_ingest"];

/// Every per-layer metric, so that each traced run reports the full set
/// (a layer a workload does not exercise reads 0).
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.render_us_per_frame", "us"),
    ("collect.session_ms_per_driver", "ms"),
    ("collect.align_us_per_tuple", "us"),
    ("collect.gap_ratio", "ratio"),
    ("collect.duplicate_ratio", "ratio"),
    ("collect.fleet_busy_s", "s"),
    ("collect.wal.append_ms", "ms"),
    ("collect.wal.appends", "count"),
    ("collect.wal.bytes_per_reading", "B"),
    ("collect.wal.read_ms", "ms"),
    ("collect.replay_ms", "ms"),
    ("collect.transport.retransmits_per_batch", "ratio"),
    ("collect.transport.delivery_efficiency", "ratio"),
    ("collect.shard.shed", "count"),
    ("collect.tsdb.bytes_per_agent", "B"),
    ("core.batching.flushes", "count"),
    ("core.batching.mean_batch", "count"),
    ("core.batching.size_flush_frac", "ratio"),
    ("core.batching.wait_ms_p50", "ms"),
    ("core.registry.classify_ms_per_decision", "ms"),
    ("core.registry.self_ms_per_decision", "ms"),
    ("core.registry.allocs_per_flush", "count"),
    ("core.registry.ws_hit_ratio", "ratio"),
    ("core.models.cnn_front_ms_per_decision", "ms"),
    ("core.models.cnn_side_ms_per_decision", "ms"),
    ("core.models.rnn_ms_per_decision", "ms"),
    ("core.models.cnn_gflops", "GFLOP/s"),
    ("core.ensemble.fuse_us_per_decision", "us"),
    ("tensor.matmul_tb_gflops.stem_b1", "GFLOP/s"),
    ("tensor.matmul_tb_gflops.stem_b32", "GFLOP/s"),
    ("tensor.matmul_tb_gflops.inception_b1", "GFLOP/s"),
    ("tensor.matmul_tb_gflops.inception_b32", "GFLOP/s"),
    ("tensor.matmul_tb_gflops.dense_b1", "GFLOP/s"),
    ("tensor.matmul_tb_gflops.dense_b32", "GFLOP/s"),
    ("tensor.im2col_ns_per_elem.stem_b1", "ns"),
    ("tensor.im2col_ns_per_elem.stem_b32", "ns"),
    ("tensor.im2col_ns_per_elem.inception_b1", "ns"),
    ("tensor.im2col_ns_per_elem.inception_b32", "ns"),
    ("tensor.bytes_moved_per_frame", "B"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag} <value>").into())
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}").into());
    }
    let seconds: f64 = value("--seconds")?.parse()?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}").into()),
    };
    Ok(Args {
        workload,
        seed: value("--seed")?.parse()?,
        seconds,
        trace,
    })
}

/// Output checks; every failure is reported and makes the run fail.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if !ok && !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }
}

/// Runs `pass` until `seconds` of measurement have elapsed (at least
/// `min_passes` times).
fn measure<P>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<P>,
) -> Result<Vec<P>> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || start.elapsed() < budget {
        out.push(pass()?);
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<bool> {
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    let (attempted, failed) = match args.workload.as_str() {
        "fleet_3view" => run_session(Kind::Fleet3View, args, &mut metrics, &mut checks)?,
        "edge_front_outage" => run_session(Kind::EdgeFrontOutage, args, &mut metrics, &mut checks)?,
        _ => run_fleet(args, &mut metrics, &mut checks)?,
    };
    let rss = peak_rss_mb();
    checks.check(rss.is_some(), "no peak RSS in /proc/self/status");
    if !args.trace {
        put(&mut metrics, "peak_rss_mb", rss.unwrap_or(0.0), "MiB");
    } else {
        for (name, unit) in PER_LAYER {
            if !metrics.contains_key(*name) {
                put(&mut metrics, name, 0.0, unit);
            }
        }
    }
    println!(
        "--- {} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (name, m) in &metrics {
        println!("{name:44} {:>14.6} {}", m.value, m.unit);
    }
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = checks.failures.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// What the untraced rounds of a run produced.
struct Rounds<P> {
    setup_s: Vec<f64>,
    passes: Vec<P>,
}

/// Runs `n` rounds of a timed set-up followed by passes for
/// `seconds / n`. Each set-up is dropped before the next, so peak memory
/// holds one.
fn rounds<S, P>(
    n: usize,
    seconds: f64,
    mut setup: impl FnMut() -> Result<S>,
    mut pass: impl FnMut(&mut S) -> Result<P>,
) -> Result<Rounds<P>> {
    let mut out = Rounds {
        setup_s: Vec::with_capacity(n),
        passes: Vec::new(),
    };
    for _ in 0..n {
        let t = Instant::now();
        let mut state = setup()?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.passes
            .extend(measure(seconds / n as f64, 1, || pass(&mut state))?);
    }
    Ok(out)
}

/// Records the end-to-end metrics: the median set-up time, and the
/// timings of a best pass, assembled lap by lap from each lap's fastest
/// time over the run's passes. A shared host can slow a core by 1.2–1.8×
/// for seconds to minutes at a time, and its speed also changes from
/// moment to moment. A lap is one collection session, classify call or
/// recovery (microseconds to a tenth of a second), so its fastest time
/// over passes spread across the whole run comes from the run's fastest
/// moments, while a change to the code moves every lap alike. A spell that
/// covers a whole run still shows. `readings` is what one pass ingests.
fn put_timings<'a>(
    metrics: &mut Metrics,
    checks: &mut Checks,
    setup_s: &[f64],
    laps: impl Iterator<Item = &'a Laps>,
    readings: u64,
) {
    let best = best_laps(laps);
    checks.check(best.is_some(), "passes were not cut into the same laps");
    let best = best.unwrap_or_default();
    let sum = |keep: fn(LapKind) -> bool| -> f64 {
        best.iter().filter(|(k, _)| keep(*k)).map(|(_, s)| s).sum()
    };
    let outputs: Vec<f64> = best
        .iter()
        .flat_map(|&(k, s)| match k {
            LapKind::Output(n) => vec![s * 1e3; n],
            _ => Vec::new(),
        })
        .collect();
    put(metrics, "setup_s", median(setup_s), "s");
    put(metrics, "pass_s", pass_s(&best), "s");
    put(
        metrics,
        "ingest_readings_per_s",
        readings as f64 / sum(|k| k == LapKind::Ingest),
        "1/s",
    );
    put(metrics, "output_ms_p50", median(&outputs), "ms");
}

/// Prints the pooled latency distribution of a run's outputs. The tail is
/// reported, not gated: under a host's slow spells it does not repeat
/// within a tenth from run to run.
fn print_latency(what: &str, ms: &[f64]) {
    println!(
        "{what} p50 {:.4} ms p90 {:.4} ms p99 {:.4} ms over {} samples",
        quantile(ms, 0.5),
        quantile(ms, 0.9),
        quantile(ms, 0.99),
        ms.len()
    );
}

fn run_session(
    kind: Kind,
    args: &Args,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(u64, u64)> {
    let mut off = Tracer::new(false);
    let check_pass = |checks: &mut Checks, p: &PassStats, reference: u64, label: &str| {
        checks.check(
            p.digest.0 == reference,
            format!(
                "{label} pass digest {:#x} differs from {reference:#x}",
                p.digest.0
            ),
        );
        checks.check(
            p.failed == 0,
            format!("{label}: {} invalid fused score vectors", p.failed),
        );
        checks.check(
            p.statuses_ok,
            format!("{label}: unexpected stream statuses"),
        );
        checks.check(
            p.twin_equal,
            format!("{label}: twin fused scores differ from the engine's"),
        );
        let top1 = p.correct as f64 / p.attempted.max(1) as f64;
        checks.check(
            top1 >= MIN_TOP1,
            format!("{label}: top1 {top1:.3} is not well above chance"),
        );
    };
    let report_first = |p: &PassStats| {
        println!("decision_digest {:#018x}", p.digest.0);
        println!("top1 {:.4}", p.correct as f64 / p.attempted.max(1) as f64);
    };

    if !args.trace {
        // Set-up ends with one unmeasured pass, which fills the engine's
        // and models' workspaces: lazy first-call work counts as set-up.
        let mut warm = Vec::with_capacity(SESSION_ROUNDS);
        let r = rounds(
            SESSION_ROUNDS,
            args.seconds,
            || {
                let mut s = Session::setup(kind, args.seed)?;
                warm.push(s.pass(&mut Tracer::new(false))?);
                Ok(s)
            },
            |s| s.pass(&mut off),
        )?;
        let reference = warm[0].digest.0;
        report_first(&warm[0]);
        for p in &warm {
            check_pass(checks, p, reference, "warm-up");
        }
        for p in &r.passes {
            check_pass(checks, p, reference, "measured");
        }
        put_timings(
            metrics,
            checks,
            &r.setup_s,
            r.passes.iter().map(|p| &p.laps),
            warm[0].readings,
        );
        let decisions: u64 = r.passes.iter().map(|p| p.attempted).sum();
        let decide_s: f64 = r.passes.iter().map(|p| p.decide_s).sum();
        let failed: u64 = r.passes.iter().map(|p| p.failed).sum();
        let lat: Vec<f64> = r
            .passes
            .iter()
            .flat_map(|p| p.decision_ms.iter().copied())
            .collect();
        println!("passes {} decisions {decisions}", r.passes.len());
        print_latency("decision_ms", &lat);
        println!("decisions_per_s {:.3} 1/s", decisions as f64 / decide_s);
        println!("failed_frac {:.6}", failed as f64 / decisions.max(1) as f64);
        return Ok((decisions, failed));
    }

    let mut session = Session::setup(kind, args.seed)?;
    let warm = session.pass(&mut off)?;
    report_first(&warm);
    check_pass(checks, &warm, warm.digest.0, "warm-up");
    // Traced run: the same passes untraced, then traced with the twin.
    let half = args.seconds / 2.0;
    let untraced = measure(half, 2, || session.pass(&mut off))?;
    let mut tr = Tracer::new(true);
    let ws0 = session.workspace_stats();
    let traced = measure(half, 2, || session.pass(&mut tr))?;
    let ws1 = session.workspace_stats();
    for p in untraced.iter().chain(&traced) {
        check_pass(checks, p, warm.digest.0, "traced-run");
    }
    let spans = tr.summary();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let n_passes = traced.len() as f64;
    let decisions: u64 = traced.iter().map(|p| p.attempted).sum();
    let dec = decisions.max(1) as f64;
    let flushes: u64 = traced.iter().map(|p| p.flushes).sum();
    let sum = |f: fn(&PassStats) -> u64| traced.iter().map(f).sum::<u64>() as f64;

    let render_s = session.render_probe();
    let drivers_sessions = span("collect.session").count.max(1) as f64;
    put(metrics, "sim.render_us_per_frame", render_s * 1e6, "us");
    put(
        metrics,
        "collect.session_ms_per_driver",
        (span("collect.session").self_s - render_s * sum(|p| p.frames_rendered)) * 1e3
            / drivers_sessions,
        "ms",
    );
    put(
        metrics,
        "collect.align_us_per_tuple",
        span("collect.align").total_s * 1e6 / sum(|p| p.aligned).max(1.0),
        "us",
    );
    put(
        metrics,
        "collect.gap_ratio",
        sum(|p| p.gaps) / sum(|p| p.seq_space).max(1.0),
        "ratio",
    );
    put(
        metrics,
        "collect.duplicate_ratio",
        sum(|p| p.duplicates) / sum(|p| p.deliveries).max(1.0),
        "ratio",
    );
    let waits: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.wait_ms.iter().copied())
        .collect();
    put(
        metrics,
        "core.batching.flushes",
        flushes as f64 / n_passes,
        "count",
    );
    put(
        metrics,
        "core.batching.mean_batch",
        dec / flushes.max(1) as f64,
        "count",
    );
    put(
        metrics,
        "core.batching.size_flush_frac",
        sum(|p| p.size_flushes) / flushes.max(1) as f64,
        "ratio",
    );
    put(metrics, "core.batching.wait_ms_p50", median(&waits), "ms");
    let classify = span("core.registry.classify").total_s;
    let models = [
        "core.models.cnn_front",
        "core.models.cnn_side",
        "core.models.rnn",
    ];
    let model_s: f64 = models.iter().map(|m| span(m).total_s).sum();
    let fuse_s = span("core.ensemble.fuse").total_s;
    put(
        metrics,
        "core.registry.classify_ms_per_decision",
        classify * 1e3 / dec,
        "ms",
    );
    put(
        metrics,
        "core.registry.self_ms_per_decision",
        (classify - model_s - fuse_s) * 1e3 / dec,
        "ms",
    );
    put(
        metrics,
        "core.registry.allocs_per_flush",
        sum(|p| p.classify_allocs) / flushes.max(1) as f64,
        "count",
    );
    let (hits, misses) = (ws1.0 - ws0.0, ws1.1 - ws0.1);
    put(
        metrics,
        "core.registry.ws_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    for (metric, name) in [
        ("core.models.cnn_front_ms_per_decision", models[0]),
        ("core.models.cnn_side_ms_per_decision", models[1]),
        ("core.models.rnn_ms_per_decision", models[2]),
    ] {
        put(metrics, metric, span(name).total_s * 1e3 / dec, "ms");
    }
    let cnn_s = span(models[0]).total_s + span(models[1]).total_s;
    put(
        metrics,
        "core.models.cnn_gflops",
        probes::CnnShapes::new(&session::cnn_config()).flops_per_frame() * sum(|p| p.cnn_frames)
            / cnn_s.max(1e-12)
            * 1e-9,
        "GFLOP/s",
    );
    put(
        metrics,
        "core.ensemble.fuse_us_per_decision",
        fuse_s * 1e6 / dec,
        "us",
    );
    probes::kernel_probes(
        &session::cnn_config(),
        MicroBatchConfig::default().max_batch,
        metrics,
    );
    trace_metrics(
        metrics,
        &tr,
        best_pass_s(untraced.iter().map(|p| &p.laps)),
        best_pass_s(traced.iter().map(|p| &p.laps)),
    );
    Ok((decisions, sum(|p| p.failed) as u64))
}

/// The best pass assembled from each lap's fastest time, as `pass_s` is.
fn best_pass_s<'a>(laps: impl Iterator<Item = &'a Laps>) -> f64 {
    best_laps(laps).map_or(f64::NAN, |b| pass_s(&b))
}

/// Writes out the recorded spans and the trace metrics. The overhead
/// compares the best traced and untraced passes.
fn trace_metrics(metrics: &mut Metrics, tr: &Tracer, untraced_pass_s: f64, traced_pass_s: f64) {
    println!(
        "{:32} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, t) in tr.summary() {
        println!(
            "{name:32} {:>8} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s
        );
    }
    put(metrics, "trace.coverage", tr.coverage("pass"), "ratio");
    put(
        metrics,
        "trace.overhead",
        traced_pass_s / untraced_pass_s - 1.0,
        "ratio",
    );
}

fn run_fleet(args: &Args, metrics: &mut Metrics, checks: &mut Checks) -> Result<(u64, u64)> {
    let fleet = Fleet::new(args.seed);
    let mut off = Tracer::new(false);
    let check_pass = |checks: &mut Checks, p: &FleetPass, reference: u64| {
        checks.check(
            p.digest == reference,
            "fleet pass digest differs between passes",
        );
        checks.check(
            p.recovered_equal,
            "recovered TSDB digest or ingest stats differ from the live run",
        );
        checks.check(
            p.report.abandoned == 0,
            format!("{} batches abandoned", p.report.abandoned),
        );
        checks.check(p.report.readings_ingested > 0, "nothing was ingested");
    };
    let failed_of = |p: &FleetPass| p.report.abandoned + u64::from(!p.recovered_equal);

    if !args.trace {
        // Set-up: a warm-up pass over a fleet of the same size with
        // another seed.
        let warm_fleet = Fleet::new(args.seed ^ 0x3A7E);
        let r = rounds(
            FLEET_ROUNDS,
            args.seconds,
            || warm_fleet.pass(&mut Tracer::new(false)).map(|_| fleet),
            |f| f.pass(&mut off),
        )?;
        let reference = r.passes[0].digest;
        println!("state_digest {reference:#018x}");
        for p in &r.passes {
            check_pass(checks, p, reference);
        }
        put_timings(
            metrics,
            checks,
            &r.setup_s,
            r.passes.iter().map(|p| &p.laps),
            r.passes[0].report.readings_ingested,
        );
        let rec: Vec<f64> = r
            .passes
            .iter()
            .flat_map(|p| p.recovery_s.iter().map(|s| s * 1e3))
            .collect();
        let attempted: u64 = r.passes.iter().map(|p| p.report.batches_flushed).sum();
        let failed: u64 = r.passes.iter().map(failed_of).sum();
        println!("passes {}", r.passes.len());
        print_latency("recovery_ms", &rec);
        println!(
            "ack_p99_s {:.6} s (simulated) failed_frac {:.6}",
            r.passes[0].report.ack_latency_p99,
            failed as f64 / attempted.max(1) as f64
        );
        return Ok((attempted, failed));
    }

    let half = args.seconds / 2.0;
    let untraced = measure(half, 2, || fleet.pass(&mut off))?;
    let mut tr = Tracer::new(true);
    let traced = measure(half, 2, || fleet.pass(&mut tr))?;
    let reference = untraced[0].digest;
    println!("state_digest {reference:#018x}");
    for p in untraced.iter().chain(&traced) {
        check_pass(checks, p, reference);
    }
    let spans = tr.summary();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let n = traced.len() as f64;
    let sumf = |f: fn(&FleetPass) -> f64| traced.iter().map(f).sum::<f64>();
    let append_s = sumf(|p| p.ingest_storage.append_s);
    let read_s = sumf(|p| p.recovery_read_s);
    let recoveries = span("collect.recover").count.max(1) as f64;
    let readings = sumf(|p| p.report.readings_ingested as f64);
    put(
        metrics,
        "collect.fleet_busy_s",
        (span("collect.fleet").total_s - append_s) / n,
        "s",
    );
    put(metrics, "collect.wal.append_ms", append_s * 1e3 / n, "ms");
    put(
        metrics,
        "collect.wal.appends",
        sumf(|p| p.ingest_storage.appends as f64) / n,
        "count",
    );
    put(
        metrics,
        "collect.wal.bytes_per_reading",
        sumf(|p| p.ingest_storage.append_bytes as f64) / readings.max(1.0),
        "B",
    );
    put(
        metrics,
        "collect.wal.read_ms",
        read_s * 1e3 / recoveries,
        "ms",
    );
    put(
        metrics,
        "collect.replay_ms",
        (span("collect.recover").total_s - read_s) * 1e3 / recoveries,
        "ms",
    );
    put(
        metrics,
        "collect.transport.retransmits_per_batch",
        sumf(|p| p.report.retransmits as f64) / sumf(|p| p.report.batches_flushed as f64).max(1.0),
        "ratio",
    );
    put(
        metrics,
        "collect.transport.delivery_efficiency",
        sumf(|p| p.report.batches_accepted as f64) / sumf(|p| p.report.deliveries as f64).max(1.0),
        "ratio",
    );
    put(
        metrics,
        "collect.shard.shed",
        sumf(|p| (p.report.queue_shed + p.report.admission_shed) as f64) / n,
        "count",
    );
    put(
        metrics,
        "collect.tsdb.bytes_per_agent",
        traced[0].report.bytes_per_agent as f64,
        "B",
    );
    trace_metrics(
        metrics,
        &tr,
        best_pass_s(untraced.iter().map(|p| &p.laps)),
        best_pass_s(traced.iter().map(|p| &p.laps)),
    );
    let attempted = traced.iter().map(|p| p.report.batches_flushed).sum();
    let failed = traced.iter().map(failed_of).sum();
    Ok((attempted, failed))
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    const END_TO_END: &[(&str, &str)] = &[
        ("setup_s", "s"),
        ("pass_s", "s"),
        ("ingest_readings_per_s", "1/s"),
        ("output_ms_p50", "ms"),
        ("peak_rss_mb", "MiB"),
    ];

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in PER_LAYER.iter().chain(END_TO_END) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            PER_LAYER.len() + END_TO_END.len(),
            "BENCHMARK.json lists metrics the benchmark does not report"
        );
    }
}
