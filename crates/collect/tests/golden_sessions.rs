//! Golden digests of whole collection sessions.
//!
//! Every digest is FNV-1a over a fixed-order walk of one session's
//! output: the aligned IMU grid, the frames of each camera stream,
//! per-stream health, per-stream transport/link/spill counters, the
//! polled and ingested totals and the `max_clock_error` bits. Durable
//! runs also fold in every `ChaosReport` field. Each scenario is pinned
//! for 2 drivers × 3 seeds, so any change to the session event loop that
//! moves a single bit of a recording fails here.

use std::sync::Arc;

use darnet_collect::runtime::{
    run_canonical_session, run_session, run_session_durable, CampaignConfig, ChaosReport,
    CrashWindow, Durability, MultiStreamRecording,
};
use darnet_collect::{
    AdmissionConfig, AlignedImuPoint, FaultConfig, FrameRecord, LinkConfig, LinkStats, MemStorage,
    RetransmitConfig, SpillStats, StreamHealth, StreamId, TransportStats, WalConfig, WalStorage,
};
use darnet_sim::{Behavior, CanonicalBehavior, DrivingWorld, Segment, WorldConfig};

/// Pinned digests, `[driver][seed]` over [`DRIVERS`] × [`SEEDS`].
#[rustfmt::skip]
mod pinned {
    type Table = [[u64; 3]; 2];
    pub const CLEAN: Table = [[0xf4939ae3689ef77b, 0x50130ff812ee16e0, 0xcca47103472f97e9], [0x28811cf80bc14b95, 0xb67a6f0e1c91aa63, 0xeadfefb9388cfc90]];
    pub const LOSS_RETRANSMIT: Table = [[0x6486e4de0191d89a, 0x8de676c0ec52e424, 0x858d0b406f62299c], [0xd9caa5249d328297, 0x484a5958e2fa7207, 0xa9ae0c24ed9a2272]];
    pub const LOSS_FIRE_AND_FORGET: Table = [[0xedd7a5d04fbd5101, 0x859d97006395eda7, 0x0693e7539a2c2678], [0xc39f8d0fc3f854de, 0xca3a5877ea020f65, 0x3d0c4b704b7dcae4]];
    pub const DUPLICATION: Table = [[0x60c42fdd519e1583, 0x2b504e8d102bb060, 0x00ee7c65f6ef67a8], [0x9b2ab8eabc5f5054, 0x9941e42d7b6159ac, 0x539ee36caea03d74]];
    pub const SYNC_OFF: Table = [[0x6f0feb68ae543674, 0x925f9572fde0faac, 0x0af28bacc223b8e4], [0xc3045f1c6c70734d, 0x61db2bbe62775447, 0xf5a526f460d17a2a]];
    pub const WAL_CRASHES: Table = [[0x19b6ba17e01a124f, 0x4798ad0300ef49c8, 0xb8d9f249899b9370], [0x5fced45d8ed9e20f, 0xc658cb5ce45dfa6f, 0xcc69483a1ebd4783]];
    pub const NO_WAL_CRASHES: Table = [[0x737a260db9a036f2, 0x9fe6ec1a335d7402, 0x97d3ede5853be1d3], [0xb1e2c601c61c5963, 0x0edb4dcaab342cc4, 0x031a234d572d6e95]];
    pub const STARVED_ADMISSION: Table = [[0x03b08da5f645357e, 0x92fa9b912e6b2d2c, 0x9b70c1ba786449e6], [0xe5adaf3e58d9ca5b, 0x721fb470921bd1de, 0xd741b5ae0198690c]];
    pub const CANONICAL_CLEAN: Table = [[0x58cc3875607a1d7b, 0x0cd2f62db42d0bbb, 0x69d0e623030fd3c9], [0x7023f91bdc6e54c5, 0x31d9c838632a3e05, 0xd477a0be99cef97b]];
    pub const CANONICAL_FRONT_BLACKOUT: Table = [[0x1d4f1df6cefb24e3, 0xc77b6f5a78d52447, 0xc73f7e140a47dfa3], [0x6f3a31c1b750d5d3, 0x9ab9631f967101ce, 0xcb881a40c33431ae]];
}

const SEEDS: [u64; 3] = [0xC0FFEE, 7, 0x5EED_0003];
const DRIVERS: [usize; 2] = [0, 1];

/// FNV-1a, fed little-endian words (`f32` values as their 4 bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64s(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn imu(&mut self, points: &[AlignedImuPoint]) {
        self.u64s(&[points.len() as u64]);
        for p in points {
            self.u64s(&[p.t.to_bits(), p.features.len() as u64]);
            self.f32s(&p.features);
        }
    }

    fn frames(&mut self, frames: &[FrameRecord]) {
        self.u64s(&[frames.len() as u64]);
        for fr in frames {
            let (w, h) = (fr.frame.width() as u64, fr.frame.height() as u64);
            self.u64s(&[fr.t.to_bits(), w, h]);
            self.f32s(fr.frame.pixels());
        }
    }

    fn health(&mut self, health: Option<StreamHealth>) {
        match health {
            None => self.u64s(&[0]),
            Some(h) => self.u64s(&[
                1,
                h.agent_id.into(),
                h.delivered,
                h.duplicates,
                h.highest_seq.into(),
                h.gaps,
                h.last_arrival.to_bits(),
                h.shed,
            ]),
        }
    }

    fn counters(&mut self, t: &TransportStats, l: &LinkStats, s: &SpillStats) {
        self.u64s(&[t.transmitted, t.retransmits, t.acked, t.abandoned]);
        self.u64s(&[t.backpressure_events, t.duplicate_acks]);
        self.u64s(&[l.sent, l.lost, l.duplicated, l.blackout_drops]);
        self.u64s(&[s.peak_buffered as u64, s.dropped_oldest]);
    }

    fn chaos(&mut self, c: &ChaosReport) {
        self.u64s(&[
            c.recoveries,
            c.replayed_records,
            c.torn_tail_bytes_discarded,
        ]);
        self.u64s(&[
            c.deliveries_while_down,
            c.acked,
            c.acked_lost,
            c.shed_batches,
        ]);
        self.u64s(&[c.wal_appends, c.wal_bytes, c.wal_segments_rolled]);
        self.u64s(&[c.wal_snapshots, c.spill_dropped, c.spill_peak as u64]);
    }
}

/// Digest of a Table-1 session: IMU then front camera, each with its
/// health and counters.
#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn table1_digest(rec: &MultiStreamRecording) -> Fnv {
    let mut h = Fnv::new();
    let (imu, cam) = (StreamId::IMU, StreamId::CAMERA_FRONT);
    let tr = |s| rec.transport_for(s).expect("stream registered");
    h.imu(&rec.imu);
    h.frames(rec.frames_for(cam));
    h.health(rec.health_for(imu));
    h.counters(&tr(imu).agent, &tr(imu).link, &tr(imu).spill);
    h.health(rec.health_for(cam));
    h.counters(&tr(cam).agent, &tr(cam).link, &tr(cam).spill);
    h.u64s(&[rec.readings_polled, rec.readings_ingested]);
    h.u64s(&[rec.max_clock_error.to_bits()]);
    h
}

/// Digest of a canonical session: IMU, each camera stream's frames, each
/// registered stream's health.
fn canonical_digest(rec: &MultiStreamRecording) -> u64 {
    let mut h = Fnv::new();
    h.imu(&rec.imu);
    for (stream, frames) in &rec.frame_streams {
        h.u64s(&[stream.0.into()]);
        h.frames(frames);
    }
    for (stream, health) in &rec.health {
        h.u64s(&[stream.0.into()]);
        h.health(*health);
    }
    h.u64s(&[rec.max_clock_error.to_bits()]);
    h.0
}

fn world() -> Arc<DrivingWorld> {
    Arc::new(DrivingWorld::new(WorldConfig::default()))
}

/// Two drivers, each performing two classes back to back for `half`
/// seconds apiece.
fn schedule<B: Copy>(classes: [[B; 2]; 2], half: f64) -> Vec<Segment<B>> {
    let mut segments = Vec::new();
    for (driver, pair) in classes.into_iter().enumerate() {
        for (i, behavior) in pair.into_iter().enumerate() {
            segments.push(Segment {
                driver,
                behavior,
                start: i as f64 * half,
                duration: half,
            });
        }
    }
    segments
}

fn table1_schedule() -> Vec<Segment<Behavior>> {
    use Behavior::*;
    schedule([[NormalDriving, Texting], [Talking, Reaching]], 4.0)
}

fn canonical_schedule() -> Vec<Segment<CanonicalBehavior>> {
    use CanonicalBehavior::*;
    schedule([[NormalDriving, HeadDroop], [EyesClosing, Texting]], 3.0)
}

fn seeded(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        ..CampaignConfig::default()
    }
}

fn lossy(seed: u64) -> CampaignConfig {
    let mut config = seeded(seed);
    config.link.loss = 0.2;
    config
}

/// Computes one digest per `(driver, seed)` and compares the whole table,
/// so a failure prints every moved value at once.
fn check(scenario: &str, digest: impl Fn(usize, u64) -> u64, expected: [[u64; 3]; 2]) {
    let got = DRIVERS.map(|driver| SEEDS.map(|seed| digest(driver, seed)));
    assert_eq!(
        got, expected,
        "{scenario}: session digests moved; got {got:#018x?}"
    );
}

#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn table1(config: impl Fn(u64) -> CampaignConfig) -> impl Fn(usize, u64) -> u64 {
    let (world, schedule) = (world(), table1_schedule());
    move |driver, seed| {
        let rec = run_session(&world, driver, &schedule, &config(seed)).expect("session");
        table1_digest(&rec).0
    }
}

#[test]
fn golden_session_clean() {
    check("clean", table1(seeded), pinned::CLEAN);
}

#[test]
fn golden_session_loss_with_retransmission() {
    check("loss + retransmit", table1(lossy), pinned::LOSS_RETRANSMIT);
}

#[test]
fn golden_session_loss_without_retransmission() {
    let config = |seed| CampaignConfig {
        retransmit: RetransmitConfig::disabled(),
        ..lossy(seed)
    };
    check("loss", table1(config), pinned::LOSS_FIRE_AND_FORGET);
}

#[test]
fn golden_session_duplication() {
    let config = |seed| {
        let mut config = seeded(seed);
        config.link.faults.duplicate = 0.3;
        config
    };
    check("duplication", table1(config), pinned::DUPLICATION);
}

#[test]
fn golden_session_sync_off() {
    let config = |seed| CampaignConfig {
        sync_enabled: false,
        ..seeded(seed)
    };
    check("sync off", table1(config), pinned::SYNC_OFF);
}

fn crash_durability(storage: Option<Arc<MemStorage>>) -> Durability {
    let window = |kill_t, restart_t| CrashWindow { kill_t, restart_t };
    Durability {
        storage: storage.map(|s| s as Arc<dyn WalStorage>),
        wal: WalConfig {
            segment_max_records: 8,
            snapshot_every: 20,
        },
        crashes: vec![window(2.0, 3.0), window(5.0, 5.75)],
        torn_tail_bytes: 13,
    }
}

#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn durable(
    config: impl Fn(u64) -> CampaignConfig,
    durability: impl Fn() -> Durability,
) -> impl Fn(usize, u64) -> u64 {
    let (world, schedule) = (world(), table1_schedule());
    move |driver, seed| {
        let (rec, chaos) =
            run_session_durable(&world, driver, &schedule, &config(seed), &durability())
                .expect("durable session");
        let mut h = table1_digest(&rec);
        h.chaos(&chaos);
        h.0
    }
}

#[test]
fn golden_durable_wal_crashes_and_torn_tail() {
    let config = |seed| {
        let mut config = seeded(seed);
        config.link.loss = 0.05;
        config
    };
    let durability = || crash_durability(Some(Arc::new(MemStorage::new())));
    check(
        "WAL crashes",
        durable(config, durability),
        pinned::WAL_CRASHES,
    );
}

#[test]
fn golden_durable_crashes_without_wal() {
    let durability = || crash_durability(None);
    check(
        "no-WAL crashes",
        durable(seeded, durability),
        pinned::NO_WAL_CRASHES,
    );
}

#[test]
fn golden_durable_starved_admission() {
    let config = |seed| {
        let mut config = seeded(seed);
        config.controller.admission = AdmissionConfig {
            enabled: true,
            capacity: 64.0,
            drain_per_sec: 24.0,
            low_priority_reserve: 32.0,
        };
        config
    };
    let digest = durable(config, Durability::default);
    check("starved admission", digest, pinned::STARVED_ADMISSION);
}

#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn canonical(overrides: Vec<(StreamId, LinkConfig)>) -> impl Fn(usize, u64) -> u64 {
    const STREAMS: [StreamId; 3] = [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];
    let (world, schedule) = (world(), canonical_schedule());
    move |driver, seed| {
        let config = seeded(seed);
        let rec = run_canonical_session(&world, driver, &schedule, &config, &STREAMS, &overrides)
            .expect("canonical session");
        canonical_digest(&rec)
    }
}

#[test]
fn golden_canonical_three_streams_clean() {
    check("canonical", canonical(Vec::new()), pinned::CANONICAL_CLEAN);
}

#[test]
fn golden_canonical_front_camera_blackout() {
    let dead = LinkConfig {
        faults: FaultConfig {
            blackout: Some((0.0, 1e9)),
            ..FaultConfig::default()
        },
        ..LinkConfig::default()
    };
    let digest = canonical(vec![(StreamId::CAMERA_FRONT, dead)]);
    check("front blackout", digest, pinned::CANONICAL_FRONT_BLACKOUT);
}
