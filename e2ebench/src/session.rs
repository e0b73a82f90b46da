//! The two session workloads: sensor poll → collection session →
//! alignment → `MicroBatcher` → N-stream registry engine → decision.
//!
//! Both run in simulated time as fast as the code allows. Tuple arrival
//! times are the sensors' simulated timestamps and do not depend on how
//! long anything takes, so one pass is a fixed amount of work and the
//! figures are work per second at a stated input size.

use std::sync::Arc;
use std::time::Instant;

use darnet_collect::runtime::{
    run_canonical_campaign, run_canonical_session, AlignedTuple, CampaignConfig,
    MultiStreamRecording,
};
use darnet_collect::{FaultConfig, LinkConfig, StreamHealth, StreamId};
use darnet_core::batching::tuples_to_inputs;
use darnet_core::dataset::{
    canonical_label_at, frames_to_tensor_into, CanonicalDataset, WINDOW_LEN,
};
use darnet_core::experiment::canonical_imu_projection;
use darnet_core::{
    ClassMap, CnnConfig, CombinerKind, FrameCnn, HealthPolicy, ImuRnn, MicroBatchConfig,
    MicroBatcher, ModalityDescriptor, ModalityStatus, MultiModalEngine, MultiStepClassification,
    NaryBayesianCombiner, RnnConfig, StreamInput, StreamModelSlot,
};
use darnet_sim::schedule::{build_canonical_schedule, CanonicalScheduleConfig};
use darnet_sim::{CanonicalBehavior, DrivingWorld, Frame, ScheduleConfig, Segment, WorldConfig};
use darnet_tensor::{Parallelism, SplitMix64, Tensor};

use crate::trace::Tracer;
use crate::util::{allocations, Digest, LapKind, Laps};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

const STREAMS: [StreamId; 3] = [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];
const CLASSES: usize = 8;
const FRAME_SIZE: usize = 48;
/// Largest |Δt| (seconds) between a front frame and the side frame joined
/// to it, as in `CanonicalDataset`.
const SIDE_TOLERANCE: f64 = 0.3;

/// Training: a separate, clean campaign over the first drivers of the
/// world. The world, the training campaign and the model initialisation
/// use fixed seeds, so every run trains the same models and `--seed`
/// varies only the measured input. At this set-up budget the CNN trainer
/// collapses to a constant predictor for some training seeds; this seed
/// trains usable models.
const TRAIN_SEED: u64 = 0x7EA1;
const TRAIN_DRIVERS: usize = 4;
const TRAIN_SCALE: f64 = 0.004;
const TRAIN_DROWSY_S: f64 = 6.0;
const FRONT_EPOCHS: usize = 3;
const SIDE_EPOCHS: usize = 5;
const RNN_EPOCHS: usize = 3;

/// The frame CNN every camera stream runs.
pub fn cnn_config() -> CnnConfig {
    CnnConfig {
        input_size: FRAME_SIZE,
        classes: CLASSES,
        width: 0.75,
        batch_size: 16,
        ..CnnConfig::default()
    }
}

fn rnn_config() -> RnnConfig {
    RnnConfig {
        hidden: 12,
        depth: 1,
        ..RnnConfig::default()
    }
}

/// Which session workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Many drivers, clean links, IMU + front + side, size-triggered
    /// flushes of `max_batch`.
    Fleet3View,
    /// One driver whose front-camera link loses packets and then blacks
    /// out; tuples anchored on the side camera, fused from IMU + side.
    EdgeFrontOutage,
}

impl Kind {
    fn drivers(self) -> usize {
        match self {
            Kind::Fleet3View => 32,
            Kind::EdgeFrontOutage => 1,
        }
    }

    fn schedule(self) -> CanonicalScheduleConfig {
        let (scale, drowsy) = match self {
            Kind::Fleet3View => (0.005, 0.75),
            Kind::EdgeFrontOutage => (0.004, 8.0),
        };
        CanonicalScheduleConfig {
            base: ScheduleConfig {
                drivers: self.drivers(),
                scale,
                ..ScheduleConfig::default()
            },
            drowsy_seconds_per_class: drowsy,
        }
    }

    /// Fleet: the default policy, so 32 drivers at 4 Hz fill size-
    /// triggered batches of `max_batch`. Edge: a deadline shorter than
    /// the 0.25 s frame period, so every flush is deadline-triggered with
    /// one tuple. (At the default 0.25 s deadline the batch size would
    /// hinge on the sign of the side camera's clock drift: 1 or 2 tuples
    /// depending on the seed.)
    fn batching(self) -> MicroBatchConfig {
        match self {
            Kind::Fleet3View => MicroBatchConfig::default(),
            Kind::EdgeFrontOutage => MicroBatchConfig {
                max_delay: 0.2,
                ..MicroBatchConfig::default()
            },
        }
    }

    fn anchor(self) -> StreamId {
        match self {
            Kind::Fleet3View => StreamId::CAMERA_FRONT,
            Kind::EdgeFrontOutage => StreamId::CAMERA_SIDE,
        }
    }
}

/// The trained models, before they move into the engine.
struct Models {
    rnn: ImuRnn,
    front: FrameCnn,
    side: FrameCnn,
    combiner: NaryBayesianCombiner,
}

fn train(world: &Arc<DrivingWorld>) -> Result<Models> {
    let seed = TRAIN_SEED;
    let schedule = build_canonical_schedule(&CanonicalScheduleConfig {
        base: ScheduleConfig {
            drivers: TRAIN_DRIVERS,
            scale: TRAIN_SCALE,
            ..ScheduleConfig::default()
        },
        drowsy_seconds_per_class: TRAIN_DROWSY_S,
    });
    let campaign = CampaignConfig {
        seed: seed ^ 0x7EA1_0000,
        ..CampaignConfig::default()
    };
    let recordings = run_canonical_campaign(world, &schedule, &campaign, &STREAMS, &[])?;
    let data = CanonicalDataset::from_recordings(&recordings, &schedule, SIDE_TOLERANCE)?;
    if data.is_empty() {
        return Err("training campaign produced no samples".into());
    }
    let imu_map = canonical_imu_projection();
    let labels8 = data.labels8();
    let labels3: Vec<usize> = labels8.iter().map(|&c| imu_map[c]).collect();
    let imu = data.imu_tensor()?;
    let front_frames = data.front_tensor()?;
    let side_frames = data.side_tensor()?;

    let mut rnn = ImuRnn::new(rnn_config(), seed ^ 0x44);
    let mut front = FrameCnn::new(cnn_config(), seed ^ 0xC99);
    let mut side = FrameCnn::new(cnn_config(), seed ^ 0x51DE);
    rnn.set_parallelism(Parallelism::serial());
    front.set_parallelism(Parallelism::serial());
    side.set_parallelism(Parallelism::serial());
    rnn.fit(&imu, &labels3, RNN_EPOCHS)?;
    front.fit(&front_frames, &labels8, FRONT_EPOCHS)?;
    side.fit(&side_frames, &labels8, SIDE_EPOCHS)?;
    let probs = [
        rnn.predict_proba(&imu)?,
        front.predict_proba(&front_frames)?,
        side.predict_proba(&side_frames)?,
    ];
    let imu_cards = ClassMap::Projection(imu_map).native_classes(CLASSES);
    let mut combiner = NaryBayesianCombiner::new(CLASSES, vec![imu_cards, CLASSES, CLASSES], 1.0);
    combiner.fit(&[&probs[0], &probs[1], &probs[2]], &labels8)?;
    Ok(Models {
        rnn,
        front,
        side,
        combiner,
    })
}

fn descriptors() -> [ModalityDescriptor; 3] {
    [
        ModalityDescriptor::new(
            StreamId::IMU,
            ClassMap::Projection(canonical_imu_projection()),
        ),
        ModalityDescriptor::new(StreamId::CAMERA_FRONT, ClassMap::Identity),
        ModalityDescriptor::new(StreamId::CAMERA_SIDE, ClassMap::Identity),
    ]
}

/// Weight-identical copies of the engine's models and combiner, run
/// stream by stream on each flush's inputs in the traced run so that
/// classify time can be split between the models and fusion. Its fused
/// scores must equal the engine's bit for bit, or the split is void.
struct Twin {
    rnn: ImuRnn,
    front: FrameCnn,
    side: FrameCnn,
    combiner: NaryBayesianCombiner,
    imu_map: ClassMap,
    probs: [Vec<f32>; 3],
    fused: Vec<f32>,
    scores: Vec<f32>,
}

impl Twin {
    fn new(models: &mut Models) -> Result<Twin> {
        let mut rnn = ImuRnn::new(rnn_config(), 0);
        rnn.import_weights(&models.rnn.export_weights()?)?;
        let mut front = FrameCnn::new(cnn_config(), 0);
        front.import_weights(&models.front.export_weights())?;
        let mut side = FrameCnn::new(cnn_config(), 0);
        side.import_weights(&models.side.export_weights())?;
        rnn.set_parallelism(Parallelism::serial());
        front.set_parallelism(Parallelism::serial());
        side.set_parallelism(Parallelism::serial());
        Ok(Twin {
            rnn,
            front,
            side,
            combiner: models.combiner.clone(),
            imu_map: ClassMap::Projection(canonical_imu_projection()),
            probs: Default::default(),
            fused: Vec::new(),
            scores: Vec::new(),
        })
    }

    /// Runs each present stream's model and the fusion step under their
    /// own spans, then checks the fused scores against the engine's.
    fn run(
        &mut self,
        tr: &mut Tracer,
        windows: &Tensor,
        front: Option<&[Frame]>,
        side: Option<&[Frame]>,
        engine_out: &[MultiStepClassification],
    ) -> Result<bool> {
        let n = engine_out.len();
        tr.span("core.models.rnn", |_| {
            self.rnn.predict_proba_into(windows, &mut self.probs[0])
        })?;
        for (k, frames, model, name) in [
            (1, front, &mut self.front, "core.models.cnn_front"),
            (2, side, &mut self.side, "core.models.cnn_side"),
        ] {
            self.probs[k].clear();
            let Some(frames) = frames else { continue };
            let mut batch = Tensor::zeros(&[n, 1, FRAME_SIZE, FRAME_SIZE]);
            frames_to_tensor_into(frames, &mut batch)?;
            let probs = &mut self.probs[k];
            tr.span(name, |_| model.predict_proba_into(&batch, probs))?;
        }
        let native = [self.imu_map.native_classes(CLASSES), CLASSES, CLASSES];
        let present: Vec<usize> = (0..3).filter(|&k| !self.probs[k].is_empty()).collect();
        let Twin {
            combiner,
            imu_map,
            probs,
            fused,
            scores,
            ..
        } = self;
        fused.clear();
        tr.span("core.ensemble.fuse", |_| -> Result<()> {
            for i in 0..n {
                let row = |k: usize| &probs[k][i * native[k]..(i + 1) * native[k]];
                match present.as_slice() {
                    [0, 1, 2] => combiner.combine_n_into(&[row(0), row(1), row(2)], scores)?,
                    [k] => {
                        let map = if *k == 0 {
                            &*imu_map
                        } else {
                            &ClassMap::Identity
                        };
                        map.expand_into(row(*k), CLASSES, scores)?;
                    }
                    _ => {
                        let mut subset: [Option<&[f32]>; 3] = [None; 3];
                        for &k in &present {
                            subset[k] = Some(row(k));
                        }
                        combiner.combine_subset_into(&subset, scores)?;
                    }
                }
                fused.extend_from_slice(scores);
            }
            Ok(())
        })?;
        Ok(fused.len() == n * CLASSES
            && engine_out
                .iter()
                .zip(fused.chunks(CLASSES))
                .all(|(o, twin)| {
                    o.scores.len() == CLASSES
                        && o.scores
                            .iter()
                            .zip(twin)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                }))
    }
}

/// What one pass measured.
#[derive(Debug, Default, Clone)]
pub struct PassStats {
    /// Wall time from merged tuples to the last decision, seconds.
    pub decide_s: f64,
    /// Sensor readings the controllers ingested.
    pub readings: u64,
    /// Tuples handed to the engine.
    pub attempted: u64,
    /// Decisions whose scores were non-finite or did not sum to 1.
    pub failed: u64,
    /// Decisions matching the simulated ground truth.
    pub correct: u64,
    /// Per decision: wall time of the classify call that emitted it, ms.
    pub decision_ms: Vec<f64>,
    /// Digest of every decision's class and score bits, in order.
    pub digest: Digest,
    /// Flushes and how they were triggered.
    pub flushes: u64,
    pub size_flushes: u64,
    /// Per tuple: simulated wait in the batcher, ms.
    pub wait_ms: Vec<f64>,
    /// Heap allocations inside classify calls.
    pub classify_allocs: u64,
    /// Tuples produced by `aligned_tuples_for`.
    pub aligned: u64,
    /// Stream-health sums over every driver and stream.
    pub gaps: u64,
    pub seq_space: u64,
    pub duplicates: u64,
    pub deliveries: u64,
    /// Camera frames rendered by the sensors.
    pub frames_rendered: u64,
    /// Frames pushed through each CNN.
    pub cnn_frames: u64,
    /// Whether the twin reproduced every fused score bit for bit.
    pub twin_equal: bool,
    /// Whether the stream statuses were the ones the workload expects.
    pub statuses_ok: bool,
    /// The pass cut into laps: each collection session, each classify
    /// call, and the work between them.
    pub laps: Laps,
}

/// A set-up session workload, ready to run passes.
pub struct Session {
    kind: Kind,
    world: Arc<DrivingWorld>,
    schedule: Vec<Segment<CanonicalBehavior>>,
    scripts: Vec<Vec<Segment<CanonicalBehavior>>>,
    campaign: CampaignConfig,
    overrides: Vec<(StreamId, LinkConfig)>,
    session_end: f64,
    engine: MultiModalEngine,
    twin: Twin,
}

impl Session {
    /// Builds the world, runs the training campaign, trains the three
    /// stream models and fits the combiner: the workload's set-up.
    pub fn setup(kind: Kind, seed: u64) -> Result<Session> {
        let world = Arc::new(DrivingWorld::new(WorldConfig {
            drivers: kind.drivers().max(TRAIN_DRIVERS),
            frame_size: FRAME_SIZE,
            ..WorldConfig::default()
        }));
        let mut models = train(&world)?;
        let twin = Twin::new(&mut models)?;
        let [imu_desc, front_desc, side_desc] = descriptors();
        let mut engine = MultiModalEngine::new(CLASSES, CombinerKind::Bayesian);
        engine.set_parallelism(Parallelism::serial());
        engine.register(imu_desc, StreamModelSlot::Rnn(models.rnn))?;
        engine.register(front_desc, StreamModelSlot::Cnn(models.front))?;
        engine.register(side_desc, StreamModelSlot::Cnn(models.side))?;
        engine.set_combiner(models.combiner)?;

        let schedule = shuffled_schedule(&kind.schedule(), seed);
        let session_end = schedule.iter().map(|s| s.end()).fold(0.0, f64::max);
        let scripts = (0..kind.drivers())
            .map(|d| {
                let mut s: Vec<_> = schedule.iter().filter(|s| s.driver == d).copied().collect();
                s.sort_by(|a, b| a.start.total_cmp(&b.start));
                s
            })
            .collect();
        let campaign = CampaignConfig {
            seed: seed ^ 0x5E55_1011,
            ..CampaignConfig::default()
        };
        let overrides = match kind {
            Kind::Fleet3View => Vec::new(),
            // Steady loss, then from a quarter of the session on a
            // blackout that never lifts: the front camera goes stale.
            Kind::EdgeFrontOutage => vec![(
                StreamId::CAMERA_FRONT,
                LinkConfig {
                    loss: 0.35,
                    faults: FaultConfig {
                        blackout: Some((0.25 * session_end, f64::INFINITY)),
                        ..FaultConfig::default()
                    },
                    ..LinkConfig::default()
                },
            )],
        };
        Ok(Session {
            kind,
            world,
            schedule,
            scripts,
            campaign,
            overrides,
            session_end,
            engine,
            twin,
        })
    }

    /// Camera polls per driver per camera stream (every `camera_period`
    /// up to the end of the script, as the agents poll).
    fn camera_polls(&self) -> u64 {
        polls(self.campaign.camera_period, self.session_end)
    }

    /// Re-renders the frames one pass's camera sensors render, front and
    /// side, and returns the wall time per frame in seconds. Rendering
    /// happens inside the sensors, where the benchmark cannot wrap it, so
    /// its time is measured here and subtracted from the session spans.
    pub fn render_probe(&self) -> f64 {
        let start = Instant::now();
        let mut frames = 0u64;
        for (d, script) in self.scripts.iter().enumerate() {
            let mut t = 0.0;
            while t <= self.session_end {
                let class = canonical_label_at(script, t);
                std::hint::black_box(self.world.render_canonical_frame(d, class, t));
                std::hint::black_box(self.world.render_side_frame(d, class, t));
                frames += 2;
                t += self.campaign.camera_period;
            }
        }
        start.elapsed().as_secs_f64() / frames.max(1) as f64
    }

    /// Runs one full pass over the workload's input.
    pub fn pass(&mut self, tr: &mut Tracer) -> Result<PassStats> {
        let mut st = PassStats {
            twin_equal: true,
            ..PassStats::default()
        };
        st.laps = Laps::default();
        tr.span("pass", |tr| self.pass_inner(tr, &mut st))?;
        st.laps.lap(LapKind::Other);
        Ok(st)
    }

    fn pass_inner(&mut self, tr: &mut Tracer, st: &mut PassStats) -> Result<()> {
        let kind = self.kind;
        let mut recordings = Vec::with_capacity(kind.drivers());
        for d in 0..kind.drivers() {
            let rec = tr.span("collect.session", |_| {
                run_canonical_session(
                    &self.world,
                    d,
                    &self.schedule,
                    &self.campaign,
                    &STREAMS,
                    &self.overrides,
                )
            })?;
            st.laps.lap(LapKind::Ingest);
            recordings.push(rec);
        }
        let imu_polls = polls(self.campaign.imu_period, self.session_end);
        for rec in &recordings {
            let frames: usize = rec.frame_streams.iter().map(|(_, f)| f.len()).sum();
            st.readings += imu_polls + frames as u64;
            for (_, health) in &rec.health {
                if let Some(h) = health {
                    add_health(st, h);
                }
            }
        }
        st.frames_rendered = 2 * self.camera_polls() * kind.drivers() as u64;

        let decide_start = Instant::now();
        // Stream statuses from the recordings' health, worst across
        // drivers, judged at the end of the script.
        let statuses = tr.span("core.health", |_| {
            let policy = HealthPolicy::default();
            let mut worst = STREAMS.map(|id| (id, ModalityStatus::Healthy));
            for rec in &recordings {
                let healths = STREAMS.map(|id| rec.health_for(id));
                let view: Vec<_> = STREAMS
                    .iter()
                    .zip(&healths)
                    .map(|(&id, h)| (id, h.as_ref()))
                    .collect();
                let selection = policy.select_subset(&view, self.session_end);
                for (id, status) in &mut worst {
                    let s = selection.status_of(*id);
                    if severity(s) > severity(*status) {
                        *status = s;
                    }
                }
            }
            worst
        });
        let expected_front = match kind {
            Kind::Fleet3View => ModalityStatus::Healthy,
            Kind::EdgeFrontOutage => ModalityStatus::Unavailable,
        };
        st.statuses_ok = statuses.iter().all(|&(id, s)| {
            if id == StreamId::CAMERA_FRONT {
                s == expected_front
            } else {
                s == ModalityStatus::Healthy
            }
        });

        let mut per_driver: Vec<Vec<AlignedTuple>> = Vec::with_capacity(recordings.len());
        for rec in &recordings {
            let tuples = tr.span("collect.align", |_| {
                rec.aligned_tuples_for(kind.anchor(), WINDOW_LEN)
            });
            st.aligned += tuples.len() as u64;
            per_driver.push(tuples);
        }
        let arrivals = tr.span("merge", |_| {
            merge(kind, &recordings, &self.scripts, per_driver)
        });
        tr.span("core.batching", |tr| {
            self.batch_and_classify(tr, st, &recordings, arrivals, &statuses)
        })?;
        st.decide_s = decide_start.elapsed().as_secs_f64();
        Ok(())
    }

    fn batch_and_classify(
        &mut self,
        tr: &mut Tracer,
        st: &mut PassStats,
        recordings: &[MultiStreamRecording],
        arrivals: Vec<(Meta, AlignedTuple)>,
        statuses: &[(StreamId, ModalityStatus)],
    ) -> Result<()> {
        let mut batcher = MicroBatcher::new(self.kind.batching());
        let mut queued: Vec<Meta> = Vec::new();
        let mut out = Vec::new();
        let mut last_t = 0.0;
        for (meta, tuple) in arrivals {
            let now = meta.t;
            last_t = now;
            // A deadline flush falls due at the oldest tuple's deadline,
            // which is no later than this arrival.
            let deadline = batcher.next_deadline();
            if let Some(batch) = batcher.take_ready(now) {
                let flush = Flush::take(&mut queued, batch, deadline.unwrap_or(now), false);
                self.classify(tr, st, recordings, statuses, flush, &mut out)?;
            }
            queued.push(meta);
            if let Some(batch) = batcher.push(tuple, now) {
                let flush = Flush::take(&mut queued, batch, now, true);
                self.classify(tr, st, recordings, statuses, flush, &mut out)?;
            }
        }
        let at = batcher.next_deadline().unwrap_or(last_t);
        let rest = batcher.flush();
        if !rest.is_empty() {
            let flush = Flush::take(&mut queued, rest, at, false);
            self.classify(tr, st, recordings, statuses, flush, &mut out)?;
        }
        Ok(())
    }

    fn classify(
        &mut self,
        tr: &mut Tracer,
        st: &mut PassStats,
        recordings: &[MultiStreamRecording],
        statuses: &[(StreamId, ModalityStatus)],
        flush: Flush,
        out: &mut Vec<MultiStepClassification>,
    ) -> Result<()> {
        let Flush {
            batch,
            metas,
            at,
            size_triggered,
        } = flush;
        let n = batch.len();
        st.flushes += 1;
        st.size_flushes += u64::from(size_triggered);
        for m in &metas {
            st.wait_ms.push((at - m.t) * 1e3);
        }
        let (anchor_frames, windows) = tuples_to_inputs(&batch)?;
        let side_frames: Vec<Frame> = match self.kind {
            Kind::Fleet3View => metas
                .iter()
                .map(|m| {
                    let side = recordings[m.driver].frames_for(StreamId::CAMERA_SIDE);
                    side[m.side].frame.clone()
                })
                .collect(),
            Kind::EdgeFrontOutage => Vec::new(),
        };
        let (front, side): (Option<&[Frame]>, Option<&[Frame]>) = match self.kind {
            Kind::Fleet3View => (Some(&anchor_frames), Some(&side_frames)),
            Kind::EdgeFrontOutage => (None, Some(&anchor_frames)),
        };
        let mut inputs = vec![(StreamId::IMU, StreamInput::Windows(&windows))];
        if let Some(f) = front {
            inputs.push((StreamId::CAMERA_FRONT, StreamInput::Frames(f)));
        }
        if let Some(f) = side {
            inputs.push((StreamId::CAMERA_SIDE, StreamInput::Frames(f)));
        }
        st.cnn_frames += (n * inputs.len().saturating_sub(1)) as u64;

        let engine = &mut self.engine;
        st.laps.lap(LapKind::Other);
        let (call_s, allocs) = tr.span("core.registry.classify", |_| -> Result<(f64, u64)> {
            let a0 = allocations();
            let t0 = Instant::now();
            engine.classify_batch_checked_into(&inputs, statuses, out)?;
            Ok((t0.elapsed().as_secs_f64(), allocations() - a0))
        })?;
        st.laps.lap(LapKind::Output(n));
        st.classify_allocs += allocs;
        st.attempted += n as u64;
        for (o, m) in out.iter().zip(&metas) {
            st.decision_ms.push(call_s * 1e3);
            let sum: f32 = o.scores.iter().sum();
            let valid = o.scores.len() == CLASSES
                && o.scores.iter().all(|s| s.is_finite())
                && (sum - 1.0).abs() <= 1e-4;
            st.failed += u64::from(!valid);
            st.correct += u64::from(o.class == m.label);
            st.digest.word(o.class as u64);
            for s in &o.scores {
                st.digest.word(u64::from(s.to_bits()));
            }
        }
        st.failed += (n - out.len().min(n)) as u64;
        if tr.enabled() {
            st.laps.lap(LapKind::Other);
            let twin = &mut self.twin;
            let equal = tr.span("twin", |tr| twin.run(tr, &windows, front, side, out))?;
            st.laps.lap(LapKind::Twin);
            st.twin_equal &= equal;
        }
        Ok(())
    }

    /// Engine workspace `(hits, misses)`.
    pub fn workspace_stats(&self) -> (u64, u64) {
        self.engine.workspace_stats()
    }
}

/// One batch leaving the batcher.
struct Flush {
    batch: Vec<AlignedTuple>,
    metas: Vec<Meta>,
    /// Simulated time the flush falls due.
    at: f64,
    size_triggered: bool,
}

impl Flush {
    /// The batcher flushes its whole queue in arrival order, so the
    /// first `batch.len()` queued metas belong to the batch.
    fn take(
        queued: &mut Vec<Meta>,
        batch: Vec<AlignedTuple>,
        at: f64,
        size_triggered: bool,
    ) -> Flush {
        Flush {
            metas: queued.drain(..batch.len()).collect(),
            batch,
            at,
            size_triggered,
        }
    }
}

/// What the benchmark keeps about a tuple while it waits in the
/// batcher: enough to join its side frame and score its decision.
#[derive(Debug, Clone, Copy)]
struct Meta {
    t: f64,
    driver: usize,
    /// Index of the joined side frame (fleet_3view).
    side: usize,
    label: usize,
}

/// Joins side frames (fleet_3view), labels every tuple from its driver's
/// script, and merges all drivers' tuples in time order (ties by driver).
fn merge(
    kind: Kind,
    recordings: &[MultiStreamRecording],
    scripts: &[Vec<Segment<CanonicalBehavior>>],
    per_driver: Vec<Vec<AlignedTuple>>,
) -> Vec<(Meta, AlignedTuple)> {
    let mut arrivals = Vec::new();
    for (rec, tuples) in recordings.iter().zip(per_driver) {
        let side = rec.frames_for(StreamId::CAMERA_SIDE);
        for tuple in tuples {
            let mut side_idx = 0;
            if kind == Kind::Fleet3View {
                let at = side.partition_point(|f| f.t < tuple.t);
                let nearest = [at.checked_sub(1), Some(at)]
                    .into_iter()
                    .flatten()
                    .filter(|&i| i < side.len())
                    .min_by(|&a, &b| {
                        (side[a].t - tuple.t)
                            .abs()
                            .total_cmp(&(side[b].t - tuple.t).abs())
                    });
                match nearest {
                    Some(i) if (side[i].t - tuple.t).abs() <= SIDE_TOLERANCE => side_idx = i,
                    _ => continue,
                }
            }
            let meta = Meta {
                t: tuple.t,
                driver: rec.driver,
                side: side_idx,
                label: canonical_label_at(&scripts[rec.driver], tuple.t).index(),
            };
            arrivals.push((meta, tuple));
        }
    }
    arrivals.sort_by(|a, b| a.0.t.total_cmp(&b.0.t).then(a.0.driver.cmp(&b.0.driver)));
    arrivals
}

/// The canonical schedule with each driver's segments in a seeded order,
/// so every seed sees the same classes for the same time in a different
/// sequence.
fn shuffled_schedule(
    config: &CanonicalScheduleConfig,
    seed: u64,
) -> Vec<Segment<CanonicalBehavior>> {
    let base = build_canonical_schedule(config);
    let mut out = Vec::with_capacity(base.len());
    for d in 0..config.base.drivers {
        let mut segs: Vec<_> = base.iter().filter(|s| s.driver == d).copied().collect();
        SplitMix64::new(seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).shuffle(&mut segs);
        let mut t = 0.0;
        for mut s in segs {
            s.start = t;
            t += s.duration;
            out.push(s);
        }
    }
    out
}

fn add_health(st: &mut PassStats, h: &StreamHealth) {
    st.gaps += h.gaps;
    st.seq_space += u64::from(h.highest_seq) + 1;
    st.duplicates += h.duplicates;
    st.deliveries += h.delivered + h.duplicates;
}

fn severity(s: ModalityStatus) -> u8 {
    match s {
        ModalityStatus::Healthy => 0,
        ModalityStatus::Degraded => 1,
        ModalityStatus::Unavailable => 2,
    }
}

/// Polls of a sensor with `period` over `[0, end]`, accumulated the way
/// the collection agents schedule them.
fn polls(period: f64, end: f64) -> u64 {
    let mut t = 0.0;
    let mut n = 0;
    while t <= end {
        n += 1;
        t += period;
    }
    n
}
