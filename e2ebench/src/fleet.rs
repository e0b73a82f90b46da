//! The `fleet_ingest` workload: thousands of agents through the
//! WAL-durable sharded controller, then recovery of the controller from
//! its WALs. No model runs here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use darnet_collect::{
    run_fleet_into, ControllerConfig, FleetConfig, FleetReport, MemStorage, ShardConfig,
    ShardedController, WalConfig, WalStorage,
};

use crate::trace::Tracer;
use crate::util::{LapKind, Laps};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Few enough agents that the working set stays close to one core's
/// L2: larger fleets spill into the host-shared L3, where a loaded host's
/// neighbours slowed the best laps by up to 1.7× (see README.md).
const AGENTS: usize = 100;
const SESSION_S: f64 = 10.0;
const SHARDS: usize = 4;
/// Recoveries per pass: each reopens the controller from the same WALs.
const RECOVERIES: usize = 3;

/// A `WalStorage` decorator over `MemStorage` that times appends and
/// reads from outside the WAL.
#[derive(Debug, Default)]
pub struct TimedStorage {
    inner: MemStorage,
    append_ns: AtomicU64,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    read_ns: AtomicU64,
}

/// A snapshot of a [`TimedStorage`]'s counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageTimes {
    pub append_s: f64,
    pub appends: u64,
    pub append_bytes: u64,
    pub read_s: f64,
}

impl TimedStorage {
    fn times(&self) -> StorageTimes {
        StorageTimes {
            append_s: self.append_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            appends: self.appends.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            read_s: self.read_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl WalStorage for TimedStorage {
    fn list(&self) -> darnet_collect::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, object: &str) -> darnet_collect::Result<Vec<u8>> {
        let t = Instant::now();
        let data = self.inner.read(object);
        self.read_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        data
    }

    fn append(&self, object: &str, data: &[u8]) -> darnet_collect::Result<()> {
        let t = Instant::now();
        let r = self.inner.append(object, data);
        self.append_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.append_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        r
    }

    fn truncate(&self, object: &str, len: u64) -> darnet_collect::Result<()> {
        self.inner.truncate(object, len)
    }

    fn delete(&self, object: &str) -> darnet_collect::Result<()> {
        self.inner.delete(object)
    }
}

fn sum_times(storages: &[Arc<TimedStorage>]) -> StorageTimes {
    storages.iter().fold(StorageTimes::default(), |acc, s| {
        let t = s.times();
        StorageTimes {
            append_s: acc.append_s + t.append_s,
            appends: acc.appends + t.appends,
            append_bytes: acc.append_bytes + t.append_bytes,
            read_s: acc.read_s + t.read_s,
        }
    })
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct FleetPass {
    pub report: FleetReport,
    /// Wall time of each recovery, seconds.
    pub recovery_s: Vec<f64>,
    /// Storage counters while ingesting.
    pub ingest_storage: StorageTimes,
    /// Storage read time over all recoveries, seconds.
    pub recovery_read_s: f64,
    /// Whether every recovery reproduced the live TSDB digest and ingest
    /// counts.
    pub recovered_equal: bool,
    pub digest: u64,
    /// The pass cut into laps: opening, ingest, each recovery, and the
    /// checks between them.
    pub laps: Laps,
}

/// The configured fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    config: FleetConfig,
    shards: ShardConfig,
}

impl Fleet {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Fleet {
        Fleet {
            config: FleetConfig {
                agents: AGENTS,
                session_seconds: SESSION_S,
                seed,
                parallel_drain: false,
                ..FleetConfig::default()
            },
            shards: ShardConfig {
                shards: SHARDS,
                queue_limit: 65_536,
                controller: ControllerConfig {
                    per_agent_series: true,
                    ..ControllerConfig::default()
                },
                ..ShardConfig::default()
            },
        }
    }

    fn open(&self, storages: &[Arc<TimedStorage>]) -> Result<ShardedController> {
        let dyn_storages: Vec<Arc<dyn WalStorage>> = storages
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn WalStorage>)
            .collect();
        let (ctrl, _) = ShardedController::open(self.shards, dyn_storages, WalConfig::default())?;
        Ok(ctrl)
    }

    /// Ingests the fleet into a fresh WAL-backed controller, then reopens
    /// it from the WALs `RECOVERIES` times.
    pub fn pass(&self, tr: &mut Tracer) -> Result<FleetPass> {
        let mut out = tr.span("pass", |tr| self.pass_inner(tr))?;
        out.laps.lap(LapKind::Other);
        Ok(out)
    }

    fn pass_inner(&self, tr: &mut Tracer) -> Result<FleetPass> {
        let mut laps = Laps::default();
        let storages: Vec<Arc<TimedStorage>> = (0..SHARDS)
            .map(|_| Arc::new(TimedStorage::default()))
            .collect();
        let mut ctrl = tr.span("collect.open", |_| self.open(&storages))?;
        laps.lap(LapKind::Other);
        let report = tr.span("collect.fleet", |_| run_fleet_into(&self.config, &mut ctrl))?;
        laps.lap(LapKind::Ingest);
        let ingest_storage = sum_times(&storages);
        let live = tr.span("verify", |_| (ctrl.tsdb_digest(), ctrl.ingest_stats()));
        drop(ctrl);

        let mut recovery_s = Vec::with_capacity(RECOVERIES);
        let mut recovered_equal = true;
        for _ in 0..RECOVERIES {
            laps.lap(LapKind::Other);
            let t = Instant::now();
            let ctrl = tr.span("collect.recover", |_| self.open(&storages))?;
            recovery_s.push(t.elapsed().as_secs_f64());
            laps.lap(LapKind::Output(1));
            recovered_equal &=
                tr.span("verify", |_| (ctrl.tsdb_digest(), ctrl.ingest_stats())) == live;
        }
        let recovery_read_s = sum_times(&storages).read_s - ingest_storage.read_s;
        Ok(FleetPass {
            digest: report.tsdb_digest ^ report.state_digest.rotate_left(1),
            report,
            recovery_s,
            ingest_storage,
            recovery_read_s,
            recovered_equal,
            laps,
        })
    }
}
