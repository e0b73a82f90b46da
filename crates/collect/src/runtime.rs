//! Discrete-event simulation driving full collection campaigns.
//!
//! A session registers a set of streams — any subset of {IMU, front
//! camera, side camera} — and the runtime instantiates one collection
//! agent per stream, a lossy data link and an equally faulty ack link per
//! agent, one sync link, and one controller. Events — sensor polls, batch
//! flushes, network deliveries, ack deliveries, retransmission timers,
//! periodic clock syncs, and injected controller kills and restarts — are
//! processed in timestamp order from one binary heap, so campaigns are
//! fully deterministic for a given seed.
//!
//! The paper's deployment (a phone IMU plus a dash camera, Table-1
//! behaviours) is the stream set `[IMU, CAMERA_FRONT]`: [`run_session`],
//! [`run_session_durable`] and [`run_campaign`] embed the 6-class script
//! into the canonical taxonomy and run the same loop as
//! [`run_canonical_session`]. Each entry point fixes its own per-driver
//! seed domain, so the two families never alias.
//!
//! With the reliable transport enabled (the default), every data delivery
//! is answered with an ack over the reverse link; unacked batches
//! retransmit on the agent's backoff schedule until acked or abandoned.
//! After the session ends the loop keeps running for
//! [`CampaignConfig::drain_grace`] seconds so in-flight retransmissions can
//! complete. With a [`Durability`] store, accepted batches are appended to
//! the WAL before they are acked, so a controller crash loses nothing an
//! agent was told is safe.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

use darnet_sim::{Behavior, CanonicalBehavior, DrivingWorld, Segment};
use darnet_tensor::SplitMix64;

use crate::agent::{
    AgentConfig, CollectionAgent, RetransmitConfig, SpillConfig, SpillStats, TransportStats,
};
use crate::clock::{ClockConfig, DriftClock};
use crate::controller::{
    AlignedImuPoint, Controller, ControllerConfig, FrameRecord, IngestOutcome, StreamHealth,
};
use crate::network::{Link, LinkConfig, LinkStats};
use crate::sensor::{CameraView, CanonicalCameraSensor, CanonicalImuSensor, Sensor};
use crate::stream::StreamId;
use crate::wal::{self, Wal, WalConfig, WalStorage};
use crate::wire::{decode_ack, decode_batch, encode_ack, encode_batch, Batch};
use crate::{CollectError, Result};

/// Campaign configuration: sensor cadences, batching, network, clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// IMU poll period (paper: 25 ms).
    pub imu_period: f64,
    /// Camera frame period (reproduction default: 4 fps).
    pub camera_period: f64,
    /// Batch transmit period.
    pub transmit_period: f64,
    /// Controller behaviour (grid, smoothing, sync period).
    pub controller: ControllerConfig,
    /// Network link model (applied to data, ack, and sync links).
    pub link: LinkConfig,
    /// Agent clock imperfection model.
    pub clock: ClockConfig,
    /// Reliable-delivery configuration for every agent.
    pub retransmit: RetransmitConfig,
    /// Agent-side spill-buffer bound (hold-and-resume across controller
    /// blackouts and restarts).
    pub spill: SpillConfig,
    /// Seconds past the final flush the event loop keeps draining, so
    /// retransmissions of late losses can still complete.
    pub drain_grace: f64,
    /// Master seed.
    pub seed: u64,
    /// If `false`, clock synchronization is disabled (for the ablation
    /// experiment on sync necessity).
    pub sync_enabled: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            imu_period: 0.025,
            camera_period: 0.25,
            transmit_period: 0.5,
            controller: ControllerConfig::default(),
            link: LinkConfig::default(),
            clock: ClockConfig::default(),
            retransmit: RetransmitConfig::default(),
            spill: SpillConfig::default(),
            drain_grace: 5.0,
            seed: 0xC0FFEE,
            sync_enabled: true,
        }
    }
}

/// One controller outage: the process dies at `kill_t` and a fresh
/// process recovers from the WAL at `restart_t`. Windows must be
/// disjoint and ordered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// When the controller process is killed (seconds).
    pub kill_t: f64,
    /// When the replacement process starts recovery (seconds).
    pub restart_t: f64,
}

/// Durability configuration for a session: where the controller's
/// write-ahead log lives and what chaos (crashes, torn tail writes) the
/// run injects. The default — no storage, no crashes — is the plain
/// in-memory pipeline.
#[derive(Debug, Clone, Default)]
pub struct Durability {
    /// WAL backing store shared across controller incarnations. `None`
    /// disables durability: a crash then loses all controller state (the
    /// chaos harness's negative control).
    pub storage: Option<Arc<dyn WalStorage>>,
    /// WAL tuning (segment roll and snapshot cadence).
    pub wal: WalConfig,
    /// Controller outages to inject, in time order.
    pub crashes: Vec<CrashWindow>,
    /// Garbage bytes appended to the WAL tail at each kill — the torn
    /// write a real crash leaves behind. Recovery must truncate them.
    pub torn_tail_bytes: usize,
}

/// What the chaos machinery observed over one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// Controller recoveries performed (restarts plus a final recovery if
    /// the session ended mid-outage).
    pub recoveries: u64,
    /// WAL batch records re-ingested across all recoveries.
    pub replayed_records: u64,
    /// Torn-tail garbage bytes recovery truncated away.
    pub torn_tail_bytes_discarded: u64,
    /// Batch deliveries that arrived while the controller was down
    /// (dropped on the floor; the transport retries them).
    pub deliveries_while_down: u64,
    /// Distinct `(agent, seq)` acks the agents received.
    pub acked: u64,
    /// Acked batches missing from the final controller state. The
    /// recovery invariant: **with a WAL this is zero** — an ack is only
    /// sent after the WAL append.
    pub acked_lost: u64,
    /// Batch offers shed by admission control (deferred, not acked).
    pub shed_batches: u64,
    /// Cumulative WAL appends across incarnations.
    pub wal_appends: u64,
    /// Cumulative WAL bytes appended.
    pub wal_bytes: u64,
    /// Cumulative WAL segment rolls.
    pub wal_segments_rolled: u64,
    /// Cumulative WAL snapshots taken.
    pub wal_snapshots: u64,
    /// Readings agents dropped oldest-first at the spill bound.
    pub spill_dropped: u64,
    /// High-water mark of any agent's spill buffer.
    pub spill_peak: usize,
}

/// End-of-session counters of one stream: its agent's transport, spill
/// buffer and clock, and its data link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamTransport {
    /// The agent's transport counters.
    pub agent: TransportStats,
    /// The data link's fault counters.
    pub link: LinkStats,
    /// The agent's spill-buffer counters.
    pub spill: SpillStats,
    /// Maximum absolute clock error of the agent at its poll instants.
    pub max_clock_error: f64,
}

/// The collected output of one driver's session: one aligned IMU stream
/// plus any number of camera streams, each tagged with its [`StreamId`]
/// so the analytics registry can address them generically.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStreamRecording {
    /// Driver id.
    pub driver: usize,
    /// Aligned, smoothed IMU stream (empty if the IMU stream was absent
    /// or delivered nothing).
    pub imu: Vec<AlignedImuPoint>,
    /// Per-camera-stream frames in timestamp order, keyed by stream and
    /// sorted by [`StreamId`].
    pub frame_streams: Vec<(StreamId, Vec<FrameRecord>)>,
    /// Controller-side health per registered stream (in registration
    /// order; `None` if the stream never delivered a batch).
    pub health: Vec<(StreamId, Option<StreamHealth>)>,
    /// Maximum absolute agent clock error observed at poll instants
    /// (diagnostic for the sync ablation): over every registered stream
    /// for a canonical session, the phone IMU's alone for a Table-1
    /// session.
    pub max_clock_error: f64,
    /// Transport counters per registered stream, in registration order.
    pub transport: Vec<(StreamId, StreamTransport)>,
    /// Readings polled by every agent over the session.
    pub readings_polled: u64,
    /// Distinct readings the controller accepted.
    pub readings_ingested: u64,
}

impl MultiStreamRecording {
    /// Frames of one camera stream (empty slice if not registered).
    pub fn frames_for(&self, stream: StreamId) -> &[FrameRecord] {
        self.frame_streams
            .iter()
            .find(|(s, _)| *s == stream)
            .map(|(_, frames)| frames.as_slice())
            .unwrap_or(&[])
    }

    /// Controller health of one stream, if it delivered anything.
    pub fn health_for(&self, stream: StreamId) -> Option<StreamHealth> {
        self.health
            .iter()
            .find(|(s, _)| *s == stream)
            .and_then(|(_, h)| *h)
    }

    /// Transport counters of one stream, if it was registered.
    pub fn transport_for(&self, stream: StreamId) -> Option<StreamTransport> {
        self.transport
            .iter()
            .find(|(s, _)| *s == stream)
            .map(|(_, t)| *t)
    }

    /// `true` when the controller accepted every polled reading — with
    /// retransmission on and nothing abandoned, that means zero data loss.
    pub fn lossless(&self) -> bool {
        self.readings_ingested == self.readings_polled
    }

    /// Pairs one camera stream's frames with trailing IMU windows of
    /// `window_len` grid points (see [`pair_frames_with_windows`]).
    pub fn aligned_tuples_for(&self, stream: StreamId, window_len: usize) -> Vec<AlignedTuple> {
        pair_frames_with_windows(self.frames_for(stream), &self.imu, window_len)
    }
}

/// One frame paired with the IMU window ending at its timestamp — the
/// aligned multimodal unit the analytics engine consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedTuple {
    /// Frame timestamp, seconds (controller time base).
    pub t: f64,
    /// The camera frame.
    pub frame: darnet_sim::Frame,
    /// Flattened `[window_len × features]` IMU window, time-major: the
    /// last `window_len` aligned grid points not after `t`, front-padded
    /// with the earliest included point when the session is younger than
    /// the window.
    pub window: Vec<f32>,
}

/// Pairs every frame with its trailing IMU window of `window_len` grid
/// points — the alignment applied to every camera stream of a recording.
/// Frames that precede all IMU data are skipped (no context to classify
/// from yet).
pub fn pair_frames_with_windows(
    frames: &[FrameRecord],
    imu: &[AlignedImuPoint],
    window_len: usize,
) -> Vec<AlignedTuple> {
    let mut tuples = Vec::with_capacity(frames.len());
    if imu.is_empty() || window_len == 0 {
        return tuples;
    }
    let features = imu[0].features.len();
    for fr in frames {
        let hi = imu.partition_point(|p| p.t <= fr.t);
        if hi == 0 {
            continue;
        }
        let lo = hi.saturating_sub(window_len);
        let mut window = Vec::with_capacity(window_len * features);
        for _ in 0..window_len - (hi - lo) {
            window.extend_from_slice(&imu[lo].features);
        }
        for p in &imu[lo..hi] {
            window.extend_from_slice(&p.features);
        }
        tuples.push(AlignedTuple {
            t: fr.t,
            frame: fr.frame.clone(),
            window,
        });
    }
    tuples
}

/// A timestamped discrete event with a deterministic tie-break, generic
/// over the event vocabulary — shared by the session runtime and the
/// fleet load generator ([`crate::loadgen`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimedEvent<K> {
    pub(crate) time: f64,
    // Tie-break so heap order is deterministic.
    pub(crate) seq: u64,
    pub(crate) kind: K,
}

impl<K> PartialEq for TimedEvent<K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<K> Eq for TimedEvent<K> {}
impl<K> PartialOrd for TimedEvent<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for TimedEvent<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first. total_cmp
        // keeps the ordering panic-free even if a NaN timestamp ever
        // slipped in (it would sort last instead of aborting the loop).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The paper's deployment: the phone IMU and the dash camera.
const TABLE1_STREAMS: [StreamId; 2] = [StreamId::IMU, StreamId::CAMERA_FRONT];

/// Extra seed salt of the canonical entry points, so a canonical session
/// never replays the random draws of the Table-1 session with the same
/// driver and seed.
const CANONICAL_SEED_SALT: u64 = 0xCA40_0515_0A11_ED00;

/// The per-driver seed of a Table-1 session.
fn driver_seed(config: &CampaignConfig, driver: usize) -> u64 {
    config.seed ^ (driver as u64).wrapping_mul(0x9E37_79B9)
}

/// Embeds a Table-1 script into the canonical taxonomy (same class
/// indices; the canonical sensors render the six base classes bitwise
/// like the paper's).
pub(crate) fn lift_script(segments: &[Segment<Behavior>]) -> Vec<Segment<CanonicalBehavior>> {
    segments
        .iter()
        .map(|s| Segment {
            driver: s.driver,
            behavior: CanonicalBehavior::from_behavior(s.behavior),
            start: s.start,
            duration: s.duration,
        })
        .collect()
}

/// The distinct drivers of a schedule, ascending.
fn drivers_of<B>(segments: &[Segment<B>]) -> Vec<usize> {
    let mut drivers: Vec<usize> = segments.iter().map(|s| s.driver).collect();
    drivers.sort_unstable();
    drivers.dedup();
    drivers
}

/// Runs one driver's Table-1 session over the stream set
/// `[IMU, CAMERA_FRONT]` and returns its recording.
///
/// # Errors
///
/// Propagates alignment errors and, in strict transport mode,
/// [`crate::CollectError::Transport`] failures.
pub fn run_session(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    config: &CampaignConfig,
) -> Result<MultiStreamRecording> {
    run_session_durable(world, driver, segments, config, &Durability::default()).map(|(rec, _)| rec)
}

/// Like [`run_session`], with durability and chaos: accepted batches are
/// appended to the WAL *before* being acked, controller kills/restarts
/// from `durability.crashes` are injected as events (recovery replays the
/// log into a fresh controller), and the returned [`ChaosReport`] carries
/// the recovery invariants — most importantly `acked_lost`, which must be
/// zero whenever a WAL is configured.
///
/// # Errors
///
/// Everything [`run_session`] returns, plus [`crate::CollectError::Wal`]
/// and [`crate::CollectError::Recovery`] from the durability layer, and
/// [`crate::CollectError::Overload`] if an agent's spill buffer hits its
/// bound in strict (non-`drop_oldest`) mode.
pub fn run_session_durable(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    config: &CampaignConfig,
    durability: &Durability,
) -> Result<(MultiStreamRecording, ChaosReport)> {
    let (mut rec, chaos) = run_streams(
        world,
        driver,
        &lift_script(segments),
        config,
        &TABLE1_STREAMS,
        &[],
        durability,
        driver_seed(config, driver),
    )?;
    // The sync ablation times the phone against the controller; the dash
    // camera runs on the controller's own tablet.
    rec.max_clock_error = rec
        .transport_for(StreamId::IMU)
        .map_or(0.0, |t| t.max_clock_error);
    Ok((rec, chaos))
}

/// Runs the full Table-1 campaign (every driver session in the schedule).
///
/// # Errors
///
/// Propagates per-session errors.
pub fn run_campaign(
    world: &Arc<DrivingWorld>,
    segments: &[Segment<Behavior>],
    config: &CampaignConfig,
) -> Result<Vec<MultiStreamRecording>> {
    drivers_of(segments)
        .into_iter()
        .map(|d| run_session(world, d, segments, config))
        .collect()
}

/// Runs one driver's canonical multi-stream session: any subset of
/// {IMU, front camera, side camera} over the 8-class script, with an
/// optional per-stream [`LinkConfig`] override (fault injection on one
/// stream while the others run clean — the multi-view ablation's knob).
///
/// # Errors
///
/// [`crate::CollectError::InvalidConfig`] for an unknown or repeated
/// stream id, or a link override naming an unregistered stream, plus
/// everything the transport/alignment layers return.
pub fn run_canonical_session(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
) -> Result<MultiStreamRecording> {
    run_streams(
        world,
        driver,
        segments,
        config,
        streams,
        link_overrides,
        &Durability::default(),
        driver_seed(config, driver) ^ CANONICAL_SEED_SALT,
    )
    .map(|(rec, _)| rec)
}

/// Runs a canonical multi-stream campaign: one
/// [`run_canonical_session`] per driver in the schedule.
///
/// # Errors
///
/// Propagates per-session errors.
pub fn run_canonical_campaign(
    world: &Arc<DrivingWorld>,
    segments: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
) -> Result<Vec<MultiStreamRecording>> {
    drivers_of(segments)
        .into_iter()
        .map(|d| run_canonical_session(world, d, segments, config, streams, link_overrides))
        .collect()
}

/// Event vocabulary of the session loop. Agents are addressed by index
/// into the session's stream registration order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SessionEvent {
    Poll(usize),
    Flush(usize),
    Sync,
    Deliver(u32),                          // delivery id into pending batch storage
    DeliverAck { agent: usize, seq: u32 }, // controller ack reaching an agent
    Retry(usize),                          // ack-timeout check for one agent
    Crash,                                 // kill the controller
    Restart,                               // recover a fresh controller from the WAL
}

/// Builds the agent (sensor, clock, transport) for one registered stream.
/// The front camera shares the controller tablet (near-perfect clock, as
/// in the paper's deployment); the IMU phone and the side camera are
/// independent devices with imperfect clocks.
fn stream_agent(
    world: &Arc<DrivingWorld>,
    driver: usize,
    script: &[Segment<CanonicalBehavior>],
    stream: StreamId,
    config: &CampaignConfig,
    rng: &mut SplitMix64,
) -> Result<CollectionAgent> {
    let (view, clock) = match stream {
        StreamId::IMU => (None, DriftClock::random(&config.clock, rng)),
        StreamId::CAMERA_FRONT => (Some(CameraView::Front), DriftClock::new(1e-6, 0.0)),
        StreamId::CAMERA_SIDE => (
            Some(CameraView::Side),
            DriftClock::random(&config.clock, rng),
        ),
        other => {
            return Err(CollectError::InvalidConfig(format!(
                "no canonical sensor registered for stream {other}"
            )))
        }
    };
    let (world, script) = (Arc::clone(world), script.to_vec());
    let sensor: Box<dyn Sensor> = match view {
        None => Box::new(CanonicalImuSensor::new(
            world,
            driver,
            script,
            config.imu_period,
        )),
        Some(view) => {
            let period = config.camera_period;
            Box::new(CanonicalCameraSensor::new(
                world, driver, script, period, view,
            ))
        }
    };
    let agent_config = AgentConfig {
        poll_period: sensor.period(),
        transmit_period: config.transmit_period,
        spill: config.spill,
    };
    Ok(
        CollectionAgent::new(stream.agent_id(), sensor, clock, agent_config)
            .with_transport(config.retransmit, rng.next_u64()),
    )
}

/// Rejects a repeated stream id and a link override naming a stream the
/// session does not register.
fn validate_streams(streams: &[StreamId], link_overrides: &[(StreamId, LinkConfig)]) -> Result<()> {
    for (i, s) in streams.iter().enumerate() {
        if streams[..i].contains(s) {
            return Err(CollectError::InvalidConfig(format!(
                "stream {s} registered twice"
            )));
        }
    }
    match link_overrides.iter().find(|(s, _)| !streams.contains(s)) {
        Some((s, _)) => Err(CollectError::InvalidConfig(format!(
            "link override for unregistered stream {s}"
        ))),
        None => Ok(()),
    }
}

/// Opens a controller on the durable store (replaying whatever a prior
/// incarnation logged), or a fresh in-memory one without a store.
fn open_controller(
    config: &CampaignConfig,
    durability: &Durability,
    chaos: &mut ChaosReport,
) -> Result<(Controller, Option<Wal>)> {
    match &durability.storage {
        Some(storage) => {
            let (controller, wal, report) =
                wal::open(config.controller, Arc::clone(storage), durability.wal)?;
            chaos.replayed_records += report.records_replayed;
            chaos.torn_tail_bytes_discarded += report.torn_tail_bytes;
            Ok((controller, Some(wal)))
        }
        None => Ok((Controller::new(config.controller), None)),
    }
}

/// Folds a dying incarnation's WAL counters into the chaos report.
fn retire_wal(chaos: &mut ChaosReport, wal: Option<Wal>) {
    if let Some(w) = wal {
        let s = w.stats();
        chaos.wal_appends += s.appends;
        chaos.wal_bytes += s.bytes_appended;
        chaos.wal_segments_rolled += s.segments_rolled;
        chaos.wal_snapshots += s.snapshots_taken;
    }
}

/// The session event loop behind every entry point: one agent per
/// registered stream, `seed` drawing every clock, transport and link.
#[allow(clippy::too_many_arguments)] // the session args plus durability and the seed domain
fn run_streams(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
    durability: &Durability,
    seed: u64,
) -> Result<(MultiStreamRecording, ChaosReport)> {
    validate_streams(streams, link_overrides)?;
    let script: Vec<Segment<CanonicalBehavior>> = segments
        .iter()
        .filter(|s| s.driver == driver)
        .copied()
        .collect();
    let session_end = script.iter().map(|s| s.end()).fold(0.0f64, f64::max);
    let link_for = |stream: StreamId| {
        link_overrides
            .iter()
            .find(|(s, _)| *s == stream)
            .map(|(_, l)| *l)
            .unwrap_or(config.link)
    };

    let mut rng = SplitMix64::new(seed);
    let mut agents = Vec::with_capacity(streams.len());
    for &stream in streams {
        agents.push(stream_agent(
            world, driver, &script, stream, config, &mut rng,
        )?);
    }
    let mut links: Vec<Link> = streams
        .iter()
        .map(|&s| Link::new(link_for(s), rng.next_u64()))
        .collect();
    let mut sync_link = Link::new(config.link, rng.next_u64());
    // Reverse (controller → agent) ack links suffer the same faults.
    let mut ack_links: Vec<Link> = streams
        .iter()
        .map(|&s| Link::new(link_for(s), rng.next_u64()))
        .collect();

    let mut chaos = ChaosReport::default();
    // A pre-populated store replays here (resuming a prior incarnation's
    // session); an empty one starts clean.
    let (mut controller, mut wal) = open_controller(config, durability, &mut chaos)?;
    // Controller liveness: while down, deliveries drop and syncs stop.
    let mut down = false;
    // Every (agent, seq) the agents saw acked — the promise the recovery
    // invariant is checked against.
    let mut acked_set: BTreeSet<(u32, u32)> = BTreeSet::new();

    // Earliest first; equal times pop in push order.
    let mut heap: BinaryHeap<TimedEvent<SessionEvent>> = BinaryHeap::new();
    let mut pushed = 0u64;
    let mut push = |heap: &mut BinaryHeap<_>, time: f64, kind: SessionEvent| {
        heap.push(TimedEvent {
            time,
            seq: pushed,
            kind,
        });
        pushed += 1;
    };
    for i in 0..agents.len() {
        push(&mut heap, 0.0, SessionEvent::Poll(i));
        push(&mut heap, config.transmit_period, SessionEvent::Flush(i));
    }
    if config.sync_enabled {
        // Startup handshake: when the controller opens the two-way channel
        // it immediately distributes its UTC, so agents begin the session
        // already synchronized (§4.1). Periodic re-syncs then follow.
        let measured = sync_link.mean_delay();
        if let Some(arrival) = sync_link.transmit(-measured) {
            for agent in &mut agents {
                agent.handle_sync(arrival, -measured, measured);
            }
        }
        push(&mut heap, config.controller.sync_period, SessionEvent::Sync);
    }
    for window in &durability.crashes {
        push(&mut heap, window.kill_t, SessionEvent::Crash);
        push(&mut heap, window.restart_t, SessionEvent::Restart);
    }

    // Batches awaiting delivery. Entries stay allocated so duplicated
    // arrivals (link-level duplication) can read them again; the
    // controller's sequence dedupe keeps re-delivery harmless.
    let mut pending: Vec<Batch> = Vec::new();
    let mut clock_errors = vec![0.0f64; agents.len()];
    let reliable = config.retransmit.enabled;

    while let Some(event) = heap.pop() {
        let t = event.time;
        if t > session_end + config.transmit_period + config.drain_grace {
            break;
        }
        match event.kind {
            SessionEvent::Poll(i) => {
                if t <= session_end {
                    agents[i].poll(t)?;
                    clock_errors[i] = clock_errors[i].max(agents[i].clock_error(t).abs());
                    let next = t + agents[i].config().poll_period;
                    push(&mut heap, next, SessionEvent::Poll(i));
                }
            }
            SessionEvent::Flush(i) => {
                if let Some(batch) = agents[i].flush_at(t)? {
                    let id = pending.len() as u32;
                    pending.push(batch);
                    for arrival in links[i].transmit_all(t) {
                        push(&mut heap, arrival, SessionEvent::Deliver(id));
                    }
                }
                if reliable {
                    if let Some(deadline) = agents[i].next_deadline() {
                        push(&mut heap, deadline, SessionEvent::Retry(i));
                    }
                }
                if t <= session_end {
                    push(
                        &mut heap,
                        t + config.transmit_period,
                        SessionEvent::Flush(i),
                    );
                }
            }
            SessionEvent::Sync => {
                // Controller (master) sends its UTC; the agent applies
                // master UTC + empirically measured delay on receipt. A
                // dead controller sends nothing (agents coast on drift).
                if !down {
                    // Delivered synchronously: sync messages are tiny and
                    // modelled without reordering against data.
                    if let Some(arrival) = sync_link.transmit(t) {
                        let measured = sync_link.mean_delay();
                        for agent in &mut agents {
                            agent.handle_sync(arrival, t, measured);
                        }
                    }
                }
                if t <= session_end {
                    push(
                        &mut heap,
                        t + config.controller.sync_period,
                        SessionEvent::Sync,
                    );
                }
            }
            SessionEvent::Deliver(id) => {
                if down {
                    // The controller process is dead: the delivery is
                    // lost and never acked — the agent's retransmission
                    // schedule will offer it again after the restart.
                    chaos.deliveries_while_down += 1;
                    continue;
                }
                // Round-trip through the wire format, as the real system
                // would.
                let decoded = decode_batch(encode_batch(&pending[id as usize]))?;
                let ack = Controller::ack_for(&decoded);
                // Durable ack ordering: admission first, then dedup, then
                // WAL append, and only then state mutation + ack.
                let outcome = controller.offer_at(t, &decoded, wal.as_mut())?;
                if outcome == IngestOutcome::Shed {
                    // Shed = deferred, not lost: no ack, so the agent's
                    // backoff schedule retries once pressure drains.
                    chaos.shed_batches += 1;
                    continue;
                }
                if let Some(w) = wal.as_mut() {
                    if w.needs_snapshot() {
                        w.snapshot(&controller)?;
                    }
                }
                if reliable {
                    // Ack every accepted or duplicate delivery —
                    // duplicates included, since a duplicate usually
                    // means the previous ack was lost.
                    let ack = decode_ack(encode_ack(&ack))?;
                    if let Some(idx) = streams.iter().position(|s| s.agent_id() == ack.agent_id) {
                        for arrival in ack_links[idx].transmit_all(t) {
                            push(
                                &mut heap,
                                arrival,
                                SessionEvent::DeliverAck {
                                    agent: idx,
                                    seq: ack.seq,
                                },
                            );
                        }
                    }
                }
            }
            SessionEvent::DeliverAck { agent, seq: acked } => {
                agents[agent].handle_ack(acked);
                // The agent now believes this batch is durable — exactly
                // the promise the recovery invariant checks.
                acked_set.insert((streams[agent].agent_id(), acked));
            }
            SessionEvent::Retry(i) => {
                for batch in agents[i].due_retransmits(t)? {
                    let id = pending.len() as u32;
                    pending.push(batch);
                    for arrival in links[i].transmit_all(t) {
                        push(&mut heap, arrival, SessionEvent::Deliver(id));
                    }
                }
                if let Some(deadline) = agents[i].next_deadline() {
                    push(&mut heap, deadline, SessionEvent::Retry(i));
                }
            }
            SessionEvent::Crash => {
                if down {
                    continue;
                }
                // A real crash can tear the tail of the segment being
                // written; model it with seeded garbage, which recovery
                // must truncate away.
                if durability.torn_tail_bytes > 0 {
                    if let Some(w) = wal.as_mut() {
                        let garbage: Vec<u8> = (0..durability.torn_tail_bytes)
                            .map(|_| (rng.next_u64() & 0xFF) as u8)
                            .collect();
                        w.simulate_torn_tail(&garbage)?;
                    }
                }
                // The process dies: all in-memory controller state is
                // gone. Only the WAL storage (held by `durability`)
                // survives.
                retire_wal(&mut chaos, wal.take());
                controller = Controller::new(config.controller);
                down = true;
            }
            SessionEvent::Restart => {
                if !down {
                    continue;
                }
                down = false;
                chaos.recoveries += 1;
                // Without storage the fresh (empty) controller from the
                // crash simply resumes — the negative control that shows
                // what the WAL is for.
                if durability.storage.is_some() {
                    (controller, wal) = open_controller(config, durability, &mut chaos)?;
                }
            }
        }
    }

    // Session ended mid-outage: run the recovery that the next controller
    // incarnation would, so the recording reflects the durable state.
    if down && durability.storage.is_some() {
        chaos.recoveries += 1;
        (controller, wal) = open_controller(config, durability, &mut chaos)?;
    }
    retire_wal(&mut chaos, wal.take());

    // The recovery invariant: every batch an agent saw acked must be in
    // the final controller state.
    chaos.acked = acked_set.len() as u64;
    chaos.acked_lost = acked_set
        .iter()
        .filter(|&&(agent, s)| !controller.has_seen(agent, s))
        .count() as u64;

    let imu = match controller.aligned_imu() {
        Ok(points) => points,
        Err(CollectError::NoData(_)) => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut frame_streams: Vec<(StreamId, Vec<FrameRecord>)> = streams
        .iter()
        .filter(|&&s| s != StreamId::IMU)
        .map(|&s| (s, controller.frames_sorted_for(s)))
        .collect();
    frame_streams.sort_by_key(|(s, _)| *s);
    let health = streams
        .iter()
        .map(|&s| (s, controller.stream_health(s.agent_id())))
        .collect();
    let transport: Vec<(StreamId, StreamTransport)> = (0..streams.len())
        .map(|i| {
            let counters = StreamTransport {
                agent: agents[i].transport_stats(),
                link: links[i].link_stats(),
                spill: agents[i].spill_stats(),
                max_clock_error: clock_errors[i],
            };
            (streams[i], counters)
        })
        .collect();
    for (_, t) in &transport {
        chaos.spill_dropped += t.spill.dropped_oldest;
        chaos.spill_peak = chaos.spill_peak.max(t.spill.peak_buffered);
    }
    let recording = MultiStreamRecording {
        driver,
        imu,
        frame_streams,
        health,
        max_clock_error: clock_errors.into_iter().fold(0.0, f64::max),
        transport,
        readings_polled: agents.iter().map(CollectionAgent::poll_count).sum(),
        readings_ingested: controller.ingest_stats().1,
    };
    Ok((recording, chaos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FaultConfig;
    use crate::wal::MemStorage;
    use darnet_sim::WorldConfig;

    const FRONT: StreamId = StreamId::CAMERA_FRONT;
    const THREE_STREAMS: [StreamId; 3] = [StreamId::IMU, FRONT, StreamId::CAMERA_SIDE];

    fn world() -> Arc<DrivingWorld> {
        Arc::new(DrivingWorld::new(WorldConfig::default()))
    }

    /// Back-to-back driver-0 segments, one per class, `len` seconds each.
    fn script<B: Copy>(classes: &[B], len: f64) -> Vec<Segment<B>> {
        (0..classes.len())
            .map(|i| Segment {
                driver: 0,
                behavior: classes[i],
                start: i as f64 * len,
                duration: len,
            })
            .collect()
    }

    fn short_schedule() -> Vec<Segment<Behavior>> {
        script(&[Behavior::NormalDriving, Behavior::Texting], 5.0)
    }

    fn session(config: &CampaignConfig) -> MultiStreamRecording {
        run_session(&world(), 0, &short_schedule(), config).unwrap()
    }

    fn durable(
        config: &CampaignConfig,
        durability: &Durability,
    ) -> (MultiStreamRecording, ChaosReport) {
        run_session_durable(&world(), 0, &short_schedule(), config, durability).unwrap()
    }

    fn canonical(overrides: &[(StreamId, LinkConfig)]) -> MultiStreamRecording {
        use darnet_sim::CanonicalBehavior::*;
        let schedule = script(&[NormalDriving, HeadDroop, Texting], 4.0);
        let config = CampaignConfig::default();
        run_canonical_session(&world(), 0, &schedule, &config, &THREE_STREAMS, overrides).unwrap()
    }

    #[test]
    fn session_produces_aligned_imu_and_frames() {
        let rec = session(&CampaignConfig::default());
        // 10 s at 4 Hz ≈ 40 grid points; 10 s at 4 fps ≈ 40 frames.
        assert!(rec.imu.len() >= 35, "imu points {}", rec.imu.len());
        let frames = rec.frames_for(FRONT);
        assert!(frames.len() >= 35, "frames {}", frames.len());
        assert_eq!(rec.driver, 0);
        // Grid is strictly increasing.
        assert!(rec.imu.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn aligned_tuples_pair_frames_with_trailing_windows() {
        let rec = session(&CampaignConfig::default());
        let window_len = 20;
        let features = rec.imu[0].features.len();
        let tuples = rec.aligned_tuples_for(FRONT, window_len);
        assert!(!tuples.is_empty());
        assert!(tuples.len() <= rec.frames_for(FRONT).len());
        for tup in &tuples {
            assert_eq!(tup.window.len(), window_len * features);
            // The window ends at the last grid point not after the frame.
            let hi = rec.imu.partition_point(|p| p.t <= tup.t);
            let last = &rec.imu[hi - 1];
            assert_eq!(
                &tup.window[(window_len - 1) * features..],
                &last.features[..]
            );
        }
        // Early frames (grid younger than the window) are front-padded
        // with a repeated earliest point, never zeros.
        let first = &tuples[0];
        assert_eq!(
            &first.window[..features],
            &first.window[features..2 * features]
        );
        // Degenerate inputs produce no tuples rather than panicking.
        assert!(rec.aligned_tuples_for(FRONT, 0).is_empty());
        assert!(pair_frames_with_windows(rec.frames_for(FRONT), &[], window_len).is_empty());
    }

    #[test]
    fn sync_keeps_clock_error_small() {
        let rec = session(&CampaignConfig::default());
        // With 5 s re-sync, error is bounded by drift × period + jitter.
        assert!(
            rec.max_clock_error < 0.02,
            "clock error {}",
            rec.max_clock_error
        );
    }

    #[test]
    fn disabling_sync_leaves_large_clock_error() {
        let rec = session(&CampaignConfig {
            sync_enabled: false,
            ..CampaignConfig::default()
        });
        // Initial offset up to 0.25 s is never corrected.
        let synced = session(&CampaignConfig::default());
        assert!(rec.max_clock_error > synced.max_clock_error);
        // A Table-1 recording reports the phone's clock; the dash camera
        // shares the controller's tablet.
        let imu = rec.transport_for(StreamId::IMU).unwrap();
        assert_eq!(rec.max_clock_error, imu.max_clock_error);
    }

    #[test]
    fn lossy_network_without_retransmission_drops_data() {
        // Fire-and-forget mode: losses become gaps the controller merely
        // accounts for.
        let mut config = CampaignConfig::default();
        config.link.loss = 0.2;
        config.retransmit = RetransmitConfig::disabled();
        let rec = session(&config);
        let lossless = session(&CampaignConfig::default());
        // Fewer frames arrive, but the pipeline interpolates through gaps.
        assert!(rec.frames_for(FRONT).len() < lossless.frames_for(FRONT).len());
        assert!(!rec.imu.is_empty());
        assert!(!rec.lossless());
        // The controller's gap accounting notices the missing batches.
        let gaps: u64 = rec
            .health
            .iter()
            .filter_map(|(_, h)| *h)
            .map(|h| h.gaps)
            .sum();
        assert!(gaps > 0, "expected accounted gaps at 20% loss");
    }

    #[test]
    fn retransmission_recovers_every_sample_at_heavy_loss() {
        // The acceptance scenario: ≥10% loss plus a 2-second blackout mid
        // session, yet every polled sample reaches the controller.
        let mut config = CampaignConfig::default();
        config.link.loss = 0.1;
        config.link.faults.blackout = Some((3.0, 5.0));
        let rec = session(&config);
        let imu = rec.transport_for(StreamId::IMU).unwrap();
        assert!(
            imu.link.lost + imu.link.blackout_drops > 0,
            "fault injection should actually drop transmissions"
        );
        assert!(
            rec.lossless(),
            "retransmission must recover all samples: polled {} ingested {}",
            rec.readings_polled,
            rec.readings_ingested
        );
        for (stream, counters) in &rec.transport {
            assert_eq!(counters.agent.abandoned, 0, "{stream}");
            assert_eq!(rec.health_for(*stream).unwrap().gaps, 0, "{stream}");
        }
        assert!(imu.agent.retransmits > 0, "blackout must force retries");
        // And the recovered recording matches a lossless run's volume.
        let lossless = session(&CampaignConfig::default());
        assert_eq!(
            rec.frames_for(FRONT).len(),
            lossless.frames_for(FRONT).len()
        );
    }

    #[test]
    fn faulty_campaign_is_deterministic() {
        let mut config = CampaignConfig::default();
        config.link.loss = 0.15;
        config.link.faults = FaultConfig::bursty(0.05, 0.3);
        config.link.faults.duplicate = 0.1;
        let a = run_campaign(&world(), &short_schedule(), &config).unwrap();
        let b = run_campaign(&world(), &short_schedule(), &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicated_deliveries_do_not_inflate_the_recording() {
        let mut config = CampaignConfig::default();
        config.link.faults.duplicate = 0.5;
        let rec = session(&config);
        let clean = session(&CampaignConfig::default());
        assert_eq!(rec.frames_for(FRONT).len(), clean.frames_for(FRONT).len());
        assert_eq!(rec.readings_ingested, clean.readings_ingested);
        let dups: u64 = rec.health.iter().map(|(_, h)| h.unwrap().duplicates).sum();
        assert!(
            dups > 0,
            "50% duplication should produce duplicate deliveries"
        );
    }

    fn chaos_durability(storage: Option<Arc<MemStorage>>) -> Durability {
        let window = |kill_t, restart_t| CrashWindow { kill_t, restart_t };
        Durability {
            storage: storage.map(|s| s as Arc<dyn WalStorage>),
            wal: WalConfig {
                segment_max_records: 8,
                snapshot_every: 20,
            },
            crashes: vec![window(3.0, 4.0), window(7.0, 7.75)],
            torn_tail_bytes: 13,
        }
    }

    #[test]
    fn crash_without_wal_loses_acked_data() {
        // Negative control: no WAL, so a controller crash erases state
        // the agents were already told was safe.
        let (rec, chaos) = durable(&CampaignConfig::default(), &chaos_durability(None));
        assert_eq!(chaos.recoveries, 2);
        assert!(chaos.deliveries_while_down > 0);
        assert!(
            chaos.acked_lost > 0,
            "without a WAL, acked pre-crash batches must be gone \
             (acked {} lost {})",
            chaos.acked,
            chaos.acked_lost
        );
        assert!(!rec.lossless());
    }

    #[test]
    fn wal_recovery_loses_no_acked_samples() {
        // The durability invariant: crashes, torn tail writes, and link
        // loss together lose nothing that was ever acked.
        let mut config = CampaignConfig::default();
        config.link.loss = 0.05;
        let run = || {
            let storage = Arc::new(MemStorage::new());
            let (rec, chaos) = durable(&config, &chaos_durability(Some(Arc::clone(&storage))));
            let (recovered, _, _) =
                crate::wal::open(config.controller, storage, WalConfig::default()).unwrap();
            (rec, chaos, recovered.state_digest())
        };
        let (rec, chaos, digest) = run();
        assert_eq!(chaos.recoveries, 2);
        assert!(chaos.replayed_records > 0, "replay must do real work");
        assert!(
            chaos.torn_tail_bytes_discarded >= 13,
            "each kill tears the tail; recovery must repair it (got {})",
            chaos.torn_tail_bytes_discarded
        );
        assert_eq!(
            chaos.acked_lost, 0,
            "WAL recovery must preserve every acked batch ({} acked)",
            chaos.acked
        );
        assert!(chaos.wal_appends > 0 && chaos.wal_snapshots > 0);
        // Hold-and-resume: with retransmission across the outages, the
        // recording ends complete.
        assert!(
            rec.lossless(),
            "polled {} ingested {}",
            rec.readings_polled,
            rec.readings_ingested
        );
        // Recovery is bitwise-deterministic: an identical re-run against
        // a fresh store leaves a log that recovers to the same digest.
        assert_eq!(run().2, digest);
    }

    #[test]
    fn admission_pressure_sheds_then_recovers() {
        let mut config = CampaignConfig::default();
        // A starved token bucket: frames (low priority) get shed under
        // pressure, IMU (high priority) keeps flowing.
        config.controller.admission = crate::controller::AdmissionConfig {
            enabled: true,
            capacity: 64.0,
            drain_per_sec: 24.0,
            low_priority_reserve: 32.0,
        };
        let (rec, chaos) = durable(&config, &Durability::default());
        assert!(chaos.shed_batches > 0, "starved bucket must shed");
        let cam = rec.health_for(FRONT).unwrap();
        assert!(cam.shed > 0 && cam.shed_ratio() > 0.0);
        // Lowest priority sheds first: the frame stream bears the brunt
        // while the IMU stream stays comparatively whole, so the aligned
        // stream the ensemble degrades onto still exists.
        let imu = rec.health_for(StreamId::IMU).unwrap();
        assert!(
            imu.shed_ratio() < cam.shed_ratio(),
            "imu {} vs cam {}",
            imu.shed_ratio(),
            cam.shed_ratio()
        );
        assert!(!rec.imu.is_empty());
    }

    #[test]
    fn canonical_session_collects_all_three_streams() {
        let rec = canonical(&[]);
        assert!(rec.imu.len() >= 40, "imu points {}", rec.imu.len());
        let front = rec.frames_for(FRONT);
        let side = rec.frames_for(StreamId::CAMERA_SIDE);
        assert!(front.len() >= 40, "front frames {}", front.len());
        assert!(side.len() >= 40, "side frames {}", side.len());
        // Views are genuinely different images of the same session.
        assert_ne!(front[10].frame, side[10].frame);
        // Per-stream health and transport exist for every registered stream.
        for s in THREE_STREAMS {
            assert!(rec.health_for(s).is_some(), "no health for {s}");
            assert!(rec.transport_for(s).is_some(), "no transport for {s}");
        }
        // Each camera stream aligns against the shared IMU grid.
        let tuples = rec.aligned_tuples_for(StreamId::CAMERA_SIDE, 20);
        assert!(!tuples.is_empty());
        assert_eq!(tuples[0].window.len(), 20 * rec.imu[0].features.len());
    }

    #[test]
    fn per_stream_blackout_silences_only_that_stream() {
        // The multi-view ablation's knob: a dead side-camera link must not
        // perturb the front camera or the IMU.
        let mut dead = LinkConfig::default();
        dead.faults.blackout = Some((0.0, 1e9));
        let rec = canonical(&[(StreamId::CAMERA_SIDE, dead)]);
        let clean = canonical(&[]);
        assert!(rec.frames_for(StreamId::CAMERA_SIDE).is_empty());
        assert!(rec.health_for(StreamId::CAMERA_SIDE).is_none());
        assert_eq!(rec.frames_for(FRONT).len(), clean.frames_for(FRONT).len());
        assert_eq!(rec.imu.len(), clean.imu.len());
    }

    #[test]
    fn canonical_session_rejects_unknown_streams() {
        let run = |streams: &[StreamId], overrides: &[(StreamId, LinkConfig)]| {
            let schedule = script(&[darnet_sim::CanonicalBehavior::Texting], 4.0);
            let config = CampaignConfig::default();
            run_canonical_session(&world(), 0, &schedule, &config, streams, overrides).unwrap_err()
        };
        // No sensor for the stream id.
        let err = run(&[StreamId(9)], &[]);
        assert!(matches!(err, CollectError::InvalidConfig(_)));
        // A repeated stream would share its agent id with the first one.
        let err = run(&[StreamId::IMU, StreamId::IMU, FRONT], &[]);
        assert!(matches!(err, CollectError::InvalidConfig(_)));
        // An override for a stream the session does not register.
        let side = (StreamId::CAMERA_SIDE, LinkConfig::default());
        let err = run(&[StreamId::IMU, FRONT], &[side]);
        assert!(matches!(err, CollectError::InvalidConfig(_)));
    }

    #[test]
    fn silent_imu_stream_yields_an_empty_grid() {
        // Every link blacked out for the whole session: nothing arrives,
        // and the recording says so with an empty IMU grid rather than
        // an error.
        let mut config = CampaignConfig::default();
        config.link.faults.blackout = Some((0.0, 1e9));
        config.retransmit = RetransmitConfig::disabled();
        let rec = session(&config);
        assert!(rec.imu.is_empty());
        assert!(rec.frames_for(FRONT).is_empty());
        assert!(rec.health.iter().all(|(_, h)| h.is_none()));
        assert_eq!(rec.readings_ingested, 0);
        assert!(rec.readings_polled > 0);
    }

    #[test]
    fn multi_driver_campaign_covers_all_drivers() {
        let mut schedule = short_schedule();
        schedule.push(Segment {
            driver: 1,
            behavior: Behavior::Talking,
            start: 0.0,
            duration: 6.0,
        });
        let recs = run_campaign(&world(), &schedule, &CampaignConfig::default()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].driver, 0);
        assert_eq!(recs[1].driver, 1);
    }
}
