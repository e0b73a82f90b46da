//! Live (threaded) collection mode: agents on real OS threads (scoped —
//! see DESIGN.md §11, scoped-threads-only) stream encoded batches to the
//! controller over crossbeam channels — the shape of the paper's deployed
//! system, useful for the example binaries and for validating that the
//! pipeline is `Send`-clean under real concurrency.
//!
//! Every driver runs the paper's device pair, a phone IMU and a dash
//! camera, on the canonical sensors over the embedded Table-1 script.
//! [`run_live_session`] streams one driver into one [`Controller`]; with
//! [`LiveFaults`] each agent sends through a seeded [`Link`]: a
//! transmission the link drops is immediately retried (the channel itself
//! is reliable, so a successful link draw doubles as the ack), and
//! duplicated transmissions are sent twice and deduplicated by the
//! controller's sequence tracking. [`run_live_session_sharded`] streams
//! many drivers into one [`ShardedController`].

use std::sync::Arc;
use std::thread;

use crossbeam::channel::{bounded, Sender};
use darnet_sim::{Behavior, DrivingWorld, Segment};

use crate::agent::{AgentConfig, CollectionAgent, RetransmitConfig, TransportStats};
use crate::clock::DriftClock;
use crate::controller::{Controller, ControllerConfig};
use crate::network::{Link, LinkConfig, LinkStats};
use crate::runtime::lift_script;
use crate::sensor::{CameraView, CanonicalCameraSensor, CanonicalImuSensor, Sensor};
use crate::shard::{ShardConfig, ShardedController};
use crate::wire::{decode_batch, encode_batch, Batch};
use crate::{CollectError, Result};

/// Output of a live run.
#[derive(Debug)]
pub struct LiveRunReport {
    /// The controller after ingesting every batch.
    pub controller: Controller,
    /// Total encoded bytes that crossed the channel (bandwidth proxy).
    pub bytes_transferred: usize,
    /// Number of batches delivered (duplicates included).
    pub batches: usize,
    /// Per-agent `(transport, link)` counters, indexed by agent id, when
    /// the session ran with [`LiveFaults`]. Empty for the plain
    /// reliable-channel mode.
    pub transports: Vec<(TransportStats, LinkStats)>,
}

/// Seeded link faults for a live session: each agent sends through its
/// own [`Link`], drawn from `seed` and its agent id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveFaults {
    /// Loss, jitter and fault model of every agent's link.
    pub link: LinkConfig,
    /// Retry budget for dropped transmissions.
    pub retransmit: RetransmitConfig,
    /// Seed of the agents' links.
    pub seed: u64,
}

/// One faulty agent's `(transport, link)` counters.
type AgentCounters = (TransportStats, LinkStats);

struct FaultySend {
    link: Link,
    retransmit: RetransmitConfig,
    stats: TransportStats,
}

impl FaultySend {
    /// Pushes one encoded batch through the faulty link into the channel.
    /// A drop is retried immediately (virtual time, real channel): with the
    /// channel reliable, "the link let it through" is the ack.
    fn send(&mut self, t: f64, encoded: &[u8], tx: &Sender<Vec<u8>>) -> bool {
        self.stats.transmitted += 1;
        let mut attempts = 0u32;
        loop {
            let arrivals = self.link.transmit_all(t);
            if !arrivals.is_empty() {
                self.stats.acked += 1;
                for _ in arrivals {
                    if tx.send(encoded.to_vec()).is_err() {
                        return false; // controller hung up
                    }
                }
                return true;
            }
            if !self.retransmit.enabled || attempts >= self.retransmit.max_retries {
                self.stats.abandoned += 1;
                return true; // dropped: becomes a controller-side gap
            }
            attempts += 1;
            self.stats.retransmits += 1;
        }
    }
}

/// Drives one collection agent to completion on the calling thread —
/// invoked from a scoped worker of a live session (the project's
/// scoped-threads-only invariant: no detached `thread::spawn`, workers
/// cannot outlive the session).
fn run_agent(
    agent_id: u32,
    sensor: Box<dyn Sensor>,
    clock: DriftClock,
    duration: f64,
    transmit_period: f64,
    mut faulty: Option<FaultySend>,
    tx: Sender<Vec<u8>>,
) -> Option<AgentCounters> {
    let poll_period = sensor.period();
    let mut agent = CollectionAgent::new(
        agent_id,
        sensor,
        clock,
        AgentConfig {
            poll_period,
            transmit_period,
            ..AgentConfig::default()
        },
    );
    let deliver = |t: f64, encoded: &[u8], faulty: &mut Option<FaultySend>| match faulty {
        Some(f) => f.send(t, encoded, &tx),
        None => tx.send(encoded.to_vec()).is_ok(),
    };
    let mut t = 0.0f64;
    let mut next_flush = transmit_period;
    while t <= duration {
        if agent.poll(t).is_err() {
            // Spill bound hit in strict mode: the agent gives up polling
            // but still drains what it holds (channel flushes below keep
            // the buffer far from the default bound in practice).
            break;
        }
        if t >= next_flush {
            if let Some(batch) = agent.flush() {
                let encoded = encode_batch(&batch);
                if !deliver(t, &encoded, &mut faulty) {
                    return faulty.map(|f| (f.stats, f.link.link_stats()));
                }
            }
            next_flush += transmit_period;
        }
        t += poll_period;
    }
    if let Some(batch) = agent.flush() {
        let _ = deliver(t, &encode_batch(&batch), &mut faulty);
    }
    faulty.map(|f| (f.stats, f.link.link_stats()))
}

/// The paper's device pair for one driver, IMU first: each agent's sensor
/// on the driver's embedded script, and its clock. The camera shares the
/// controller tablet, so its clock is nearly perfect.
fn device_pair(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
) -> [(Box<dyn Sensor>, DriftClock); 2] {
    let script: Vec<_> = lift_script(segments)
        .into_iter()
        .filter(|s| s.driver == driver)
        .collect();
    let camera = CanonicalCameraSensor::new(
        Arc::clone(world),
        driver,
        script.clone(),
        0.25,
        CameraView::Front,
    );
    let imu = CanonicalImuSensor::new(Arc::clone(world), driver, script, 0.025);
    [
        (Box::new(imu), DriftClock::new(50e-6, 0.01)),
        (Box::new(camera), DriftClock::new(1e-6, 0.0)),
    ]
}

/// Streams each listed driver's device pair from scoped worker threads
/// over one channel, handing every decoded batch and its arrival stamp to
/// `ingest` on the calling thread. `drivers` pairs each driver with its
/// IMU agent's id; the camera takes the next id. Returns the bytes and
/// batches that crossed the channel and, with `faults`, each agent's
/// `(transport, link)` counters in spawn order.
///
/// Scoped threads: the workers provably terminate before this function
/// returns. If `ingest` or decoding fails, dropping the receiver makes
/// the workers' sends fail and they exit — the scope cannot deadlock.
fn stream_live(
    world: &Arc<DrivingWorld>,
    drivers: &[(usize, u32)],
    segments: &[Segment<Behavior>],
    duration: f64,
    faults: Option<LiveFaults>,
    mut ingest: impl FnMut(f64, &Batch) -> Result<()>,
) -> Result<(usize, usize, Vec<AgentCounters>)> {
    let (tx, rx) = bounded::<Vec<u8>>(64);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(drivers.len() * 2);
        for &(driver, first_id) in drivers {
            let devices = device_pair(world, driver, segments);
            for (agent_id, (sensor, clock)) in (first_id..).zip(devices) {
                let faulty = faults.map(|f| FaultySend {
                    link: Link::new(
                        f.link,
                        f.seed ^ u64::from(agent_id).wrapping_mul(0x9E37_79B9),
                    ),
                    retransmit: f.retransmit,
                    stats: TransportStats::default(),
                });
                let tx = tx.clone();
                handles.push(
                    scope.spawn(move || {
                        run_agent(agent_id, sensor, clock, duration, 0.5, faulty, tx)
                    }),
                );
            }
        }
        // This thread's sender must drop, or `rx` never closes.
        drop(tx);

        let (mut bytes_transferred, mut batches) = (0usize, 0usize);
        for encoded in rx {
            bytes_transferred += encoded.len();
            batches += 1;
            let batch = decode_batch(bytes::Bytes::from(encoded))?;
            // Live mode's arrival time base is the batch's own newest
            // stamp (matching `Controller::ingest`).
            let arrival = batch.readings.last().map(|r| r.timestamp);
            ingest(arrival.unwrap_or_default(), &batch)?;
        }
        let mut transports = Vec::new();
        for handle in handles {
            let counters = handle
                .join()
                .map_err(|_| CollectError::InvalidConfig("agent thread panicked".into()))?;
            transports.extend(counters);
        }
        Ok((bytes_transferred, batches, transports))
    })
}

/// Runs a two-agent (IMU + front camera) session on real threads over
/// channels, simulating `duration` seconds of virtual time as fast as
/// possible. With `faults`, every agent sends through a seeded faulty
/// [`Link`]: drops are retried up to the retransmit budget (then surface
/// as controller-side gaps), duplicated transmissions really are sent
/// twice.
///
/// # Errors
///
/// Returns a decode error if a batch is corrupted in transit (which would
/// indicate a bug — the channel is reliable).
pub fn run_live_session(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    duration: f64,
    controller_config: ControllerConfig,
    faults: Option<LiveFaults>,
) -> Result<LiveRunReport> {
    let mut controller = Controller::new(controller_config);
    let (bytes_transferred, batches, transports) = stream_live(
        world,
        &[(driver, 0)],
        segments,
        duration,
        faults,
        |t, batch| controller.offer_at(t, batch, None).map(drop),
    )?;
    Ok(LiveRunReport {
        controller,
        bytes_transferred,
        batches,
        transports,
    })
}

/// Output of a sharded live run: the fleet front door after ingesting
/// every stream, plus channel-level accounting.
#[derive(Debug)]
pub struct LiveFleetReport {
    /// The sharded controller after the final drain.
    pub sharded: ShardedController,
    /// Total encoded bytes that crossed the channel.
    pub bytes_transferred: usize,
    /// Batches delivered over the channel.
    pub batches: usize,
}

/// Runs a multi-driver session on real threads — two agents (IMU +
/// front camera) per driver, all streaming over one channel into a
/// [`ShardedController`] that is drained as traffic arrives. The live
/// analogue of the event-driven fleet load generator: agent `2*d` is
/// driver `d`'s IMU, `2*d + 1` its camera, and the hash partition routes
/// both to whatever shards own them.
///
/// # Errors
///
/// Returns a decode error if a batch is corrupted in transit, and
/// propagates shard-drain errors.
pub fn run_live_session_sharded(
    world: &Arc<DrivingWorld>,
    drivers: &[usize],
    segments: &[Segment<Behavior>],
    duration: f64,
    shard_config: ShardConfig,
) -> Result<LiveFleetReport> {
    let mut sharded = ShardedController::new(shard_config)?;
    let agents: Vec<(usize, u32)> = drivers.iter().map(|&d| (d, d as u32 * 2)).collect();
    let mut offered = 0usize;
    let (bytes_transferred, batches, _) =
        stream_live(world, &agents, segments, duration, None, |t, batch| {
            // Queue-shed offers are fine here: the channel is reliable, so
            // a shed batch simply surfaces as a controller-side gap, the
            // same contract as a lossy link.
            let _ = sharded.offer_at(t, batch);
            offered += 1;
            // Drain opportunistically so queues stay shallow (acks are
            // meaningless over a reliable channel and are dropped).
            if offered.is_multiple_of(64) {
                sharded.drain()?;
            }
            Ok(())
        })?;
    sharded.drain()?;
    Ok(LiveFleetReport {
        sharded,
        bytes_transferred,
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_sim::WorldConfig;

    fn world() -> Arc<DrivingWorld> {
        Arc::new(DrivingWorld::new(WorldConfig::default()))
    }

    /// One segment per driver, all starting at 0 and lasting `duration`.
    fn segments(behaviors: &[Behavior], duration: f64) -> Vec<Segment<Behavior>> {
        let segment = |(driver, &behavior)| Segment {
            driver,
            behavior,
            start: 0.0,
            duration,
        };
        behaviors.iter().enumerate().map(segment).collect()
    }

    fn live(behavior: Behavior, duration: f64, faults: Option<LiveFaults>) -> LiveRunReport {
        let segments = segments(&[behavior], duration);
        let config = ControllerConfig::default();
        run_live_session(&world(), 0, &segments, duration, config, faults).unwrap()
    }

    #[test]
    fn live_session_collects_both_modalities() {
        let report = live(Behavior::Talking, 4.0, None);
        assert!(report.batches > 0);
        assert!(report.bytes_transferred > 1000);
        assert!(report.transports.is_empty());
        let (b, r) = report.controller.ingest_stats();
        assert!(b > 0 && r > 0);
        // Both modalities arrived.
        assert!(report.controller.imu_observation_count() > 100);
        assert!(!report.controller.frames_sorted().is_empty());
        // And the stream aligns.
        let aligned = report.controller.aligned_imu().unwrap();
        assert!(aligned.len() > 10);
    }

    #[test]
    fn live_matches_event_driven_grid_density() {
        let report = live(Behavior::Texting, 3.0, None);
        let aligned = report.controller.aligned_imu().unwrap();
        // 3 s at 4 Hz ≈ 13 points (inclusive grid, small edge effects).
        assert!((10..=14).contains(&aligned.len()), "{}", aligned.len());
    }

    #[test]
    fn sharded_live_session_collects_every_driver() {
        let segments = segments(&[Behavior::Talking, Behavior::Texting], 3.0);
        let config = ShardConfig {
            shards: 3,
            ..ShardConfig::default()
        };
        let report = run_live_session_sharded(&world(), &[0, 1], &segments, 3.0, config).unwrap();
        assert!(report.batches > 0);
        assert!(report.bytes_transferred > 1000);
        assert_eq!(report.sharded.queued(), 0, "final drain empties queues");
        // All four agents (2 drivers × IMU + camera) reached a shard.
        let healths = report.sharded.stream_healths();
        assert_eq!(healths.len(), 4);
        for h in &healths {
            assert!(h.delivered > 0, "agent {} silent", h.agent_id);
        }
        let (b, r) = report.sharded.ingest_stats();
        assert!(b > 0 && r > 0);
        assert_ne!(report.sharded.tsdb_digest(), 0);
    }

    #[test]
    fn faulty_live_session_recovers_losses_and_dedupes() {
        let mut link = LinkConfig {
            loss: 0.3,
            ..LinkConfig::default()
        };
        link.faults.duplicate = 0.3;
        let faults = LiveFaults {
            link,
            retransmit: RetransmitConfig::default(),
            seed: 0xFA11,
        };
        let report = live(Behavior::Texting, 4.0, Some(faults));
        assert_eq!(report.transports.len(), 2);
        let retransmits: u64 = report.transports.iter().map(|(t, _)| t.retransmits).sum();
        assert!(retransmits > 0, "30% loss should force retries");
        for (t, _) in &report.transports {
            assert_eq!(t.abandoned, 0, "retry budget should cover 30% loss");
        }
        // Every stream is gap-free after retries, duplicates discarded.
        for h in report.controller.stream_healths() {
            assert_eq!(h.gaps, 0, "agent {} had gaps", h.agent_id);
        }
        let clean = live(Behavior::Texting, 4.0, None);
        assert_eq!(
            report.controller.ingest_stats().1,
            clean.controller.ingest_stats().1,
            "faulty run must ingest exactly the clean run's readings"
        );
    }
}
