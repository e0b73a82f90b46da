//! Sensor abstraction and the concrete DarNet sensors (front and side
//! camera, phone IMU) backed by the synthetic driving world. They follow
//! the 8-class canonical script; a Table-1 script is embedded into it
//! first (the six base classes render bitwise like the paper's).

use std::sync::Arc;

use darnet_sim::{CanonicalBehavior, DrivingWorld, Frame, ImuSample, Segment};
use serde::{Deserialize, Serialize};

/// One sensor observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SensorReading {
    /// A 12-channel IMU sample.
    Imu(ImuSample),
    /// A camera frame.
    Frame(Frame),
}

impl SensorReading {
    /// The IMU sample, if this reading is one.
    pub fn as_imu(&self) -> Option<&ImuSample> {
        match self {
            SensorReading::Imu(s) => Some(s),
            SensorReading::Frame(_) => None,
        }
    }

    /// The frame, if this reading is one.
    pub fn as_frame(&self) -> Option<&Frame> {
        match self {
            SensorReading::Frame(f) => Some(f),
            SensorReading::Imu(_) => None,
        }
    }
}

/// A pollable device sensor.
///
/// The paper's collection agent "periodically polls the device's sensor";
/// the poll period should match the sensor's own operating frequency
/// (25 ms for the Android sensor manager in the paper's setup).
pub trait Sensor: Send {
    /// Stable sensor name, used as the TSDB metric prefix.
    fn name(&self) -> &str;

    /// Native sampling period in seconds.
    fn period(&self) -> f64;

    /// Produces the reading at true time `t`.
    fn sample(&mut self, t: f64) -> SensorReading;
}

/// Looks up the scripted class at session time `t` for a sorted,
/// per-driver segment list, generic over the behaviour taxonomy. Falls
/// back to `fallback` outside the script.
pub(crate) fn scripted_at<B: Copy>(segments: &[Segment<B>], t: f64, fallback: B) -> B {
    // Segments are contiguous and sorted by start.
    let idx = segments.partition_point(|s| s.start <= t);
    if idx == 0 {
        return segments.first().map(|s| s.behavior).unwrap_or(fallback);
    }
    let seg = &segments[idx - 1];
    if seg.contains(t) {
        seg.behavior
    } else {
        fallback
    }
}

/// Which physical camera a canonical-session camera sensor models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CameraView {
    /// The dash-mounted front view (the paper's Nexus 7 placement).
    Front,
    /// The passenger-side A-pillar profile view.
    Side,
}

/// A camera over the 8-class canonical script: front or side view of the
/// same scripted session, so a multi-stream campaign can register two
/// camera streams that disagree in geometry but agree in ground truth.
pub struct CanonicalCameraSensor {
    world: Arc<DrivingWorld>,
    driver: usize,
    segments: Vec<Segment<CanonicalBehavior>>,
    period: f64,
    view: CameraView,
    name: String,
}

impl CanonicalCameraSensor {
    /// Creates a canonical camera for `driver` with the given view.
    pub fn new(
        world: Arc<DrivingWorld>,
        driver: usize,
        mut segments: Vec<Segment<CanonicalBehavior>>,
        period: f64,
        view: CameraView,
    ) -> Self {
        segments.sort_by(|a, b| a.start.total_cmp(&b.start));
        let tag = match view {
            CameraView::Front => "front",
            CameraView::Side => "side",
        };
        CanonicalCameraSensor {
            world,
            driver,
            segments,
            period,
            view,
            name: format!("camera.{tag}.driver{driver}"),
        }
    }
}

impl Sensor for CanonicalCameraSensor {
    fn name(&self) -> &str {
        &self.name
    }

    fn period(&self) -> f64 {
        self.period
    }

    fn sample(&mut self, t: f64) -> SensorReading {
        let class = scripted_at(&self.segments, t, CanonicalBehavior::NormalDriving);
        let frame = match self.view {
            CameraView::Front => self.world.render_canonical_frame(self.driver, class, t),
            CameraView::Side => self.world.render_side_frame(self.driver, class, t),
        };
        SensorReading::Frame(frame)
    }
}

/// The phone IMU over the 8-class canonical script (drowsy classes emit
/// micro-correction signatures instead of manipulation jitter).
pub struct CanonicalImuSensor {
    world: Arc<DrivingWorld>,
    driver: usize,
    segments: Vec<Segment<CanonicalBehavior>>,
    period: f64,
    name: String,
}

impl CanonicalImuSensor {
    /// Creates a canonical IMU sensor for `driver`.
    pub fn new(
        world: Arc<DrivingWorld>,
        driver: usize,
        mut segments: Vec<Segment<CanonicalBehavior>>,
        period: f64,
    ) -> Self {
        segments.sort_by(|a, b| a.start.total_cmp(&b.start));
        CanonicalImuSensor {
            world,
            driver,
            segments,
            period,
            name: format!("imu.driver{driver}"),
        }
    }
}

impl Sensor for CanonicalImuSensor {
    fn name(&self) -> &str {
        &self.name
    }

    fn period(&self) -> f64 {
        self.period
    }

    fn sample(&mut self, t: f64) -> SensorReading {
        let class = scripted_at(&self.segments, t, CanonicalBehavior::NormalDriving);
        SensorReading::Imu(self.world.imu_sample_canonical(self.driver, class, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_sim::{Behavior, WorldConfig};
    use CanonicalBehavior::{HeadDroop, NormalDriving, Talking, Texting};

    fn world() -> Arc<DrivingWorld> {
        Arc::new(DrivingWorld::new(WorldConfig::default()))
    }

    /// Back-to-back driver-0 segments, one per class, 15 s each.
    fn script(classes: &[CanonicalBehavior]) -> Vec<Segment<CanonicalBehavior>> {
        let segment = |(i, &behavior)| Segment {
            driver: 0,
            behavior,
            start: i as f64 * 15.0,
            duration: 15.0,
        };
        classes.iter().enumerate().map(segment).collect()
    }

    fn camera(
        world: &Arc<DrivingWorld>,
        script: Vec<Segment<CanonicalBehavior>>,
        view: CameraView,
    ) -> CanonicalCameraSensor {
        CanonicalCameraSensor::new(Arc::clone(world), 0, script, 0.25, view)
    }

    #[test]
    fn behavior_lookup_follows_script() {
        let s = script(&[NormalDriving, Texting, Talking]);
        let at = |t| scripted_at(&s, t, NormalDriving);
        assert_eq!(at(0.0), NormalDriving);
        assert_eq!(at(16.0), Texting);
        assert_eq!(at(44.9), Talking);
        // Past the end: normal driving.
        assert_eq!(at(45.1), NormalDriving);
    }

    #[test]
    fn camera_sensor_emits_frames() {
        let mut cam = camera(&world(), script(&[Texting]), CameraView::Front);
        assert_eq!(cam.period(), 0.25);
        assert!(cam.name().contains("camera"));
        let reading = cam.sample(1.0);
        assert!(reading.as_frame().is_some());
        assert!(reading.as_imu().is_none());
    }

    #[test]
    fn imu_sensor_emits_samples() {
        let world = world();
        let mut imu = CanonicalImuSensor::new(Arc::clone(&world), 1, script(&[Texting]), 0.025);
        let reading = imu.sample(10.0);
        assert!(reading.as_imu().is_some());
        // Base classes sample through the Table-1 IMU path bitwise.
        let table1 = world.imu_sample(1, Behavior::Texting, 10.0);
        assert_eq!(reading.as_imu().unwrap(), &table1);
    }

    #[test]
    fn sensors_are_boxable_as_trait_objects() {
        let world = world();
        let sensors: Vec<Box<dyn Sensor>> = vec![
            Box::new(camera(&world, script(&[Texting]), CameraView::Front)),
            Box::new(CanonicalImuSensor::new(world, 0, script(&[Texting]), 0.025)),
        ];
        assert_eq!(sensors.len(), 2);
    }

    #[test]
    fn canonical_sensors_follow_the_8_class_script() {
        let world = world();
        let classes = [HeadDroop, Texting];
        let mut front = camera(&world, script(&classes), CameraView::Front);
        let mut side = camera(&world, script(&classes), CameraView::Side);
        let mut imu = CanonicalImuSensor::new(Arc::clone(&world), 0, script(&classes), 0.025);
        assert!(front.name().contains("camera.front"));
        assert!(side.name().contains("camera.side"));
        let f = front.sample(2.0);
        let s = side.sample(2.0);
        // Same instant, same scripted class, different geometry.
        assert_ne!(f.as_frame().unwrap(), s.as_frame().unwrap());
        assert!(imu.sample(2.0).as_imu().is_some());
        // Base classes route through the Table-1 render path bitwise.
        let table1 = world.render_frame(0, Behavior::Texting, 17.0);
        assert_eq!(front.sample(17.0).as_frame().unwrap(), &table1);
    }

    #[test]
    fn unsorted_script_is_sorted_on_construction() {
        let world = world();
        let classes = [NormalDriving, Texting, Talking];
        let mut rev = script(&classes);
        rev.reverse();
        let mut sorted = camera(&world, script(&classes), CameraView::Front);
        let mut cam = camera(&world, rev, CameraView::Front);
        // Still resolves the right behaviour.
        for t in [5.0, 20.0, 40.0] {
            assert_eq!(cam.sample(t), sorted.sample(t));
        }
    }
}
