//! Per-client device speed processes.
//!
//! A client's instantaneous speed is `base_speed / slowdown(t)`, where
//! `slowdown(t)` is a piecewise-constant process toggling between fast mode
//! (slowdown 1) and slow mode (slowdown ~ U(1,5)), with mode durations
//! drawn from the paper's Γ(2,40) (fast) and Γ(2,6) (slow) distributions
//! (§5.1). Work is measured in *nominal seconds* — the time the job takes
//! at speed 1.0 — and integrated over the process to get virtual time.

use crate::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Gamma};
use serde::{Deserialize, Serialize};

/// Parameters of the fast/slow toggling process.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DynamicsConfig {
    /// Gamma shape/scale for fast-period durations (paper: Γ(2,40)).
    pub fast_shape: f64,
    /// Scale of the fast-period Gamma.
    pub fast_scale: f64,
    /// Gamma shape/scale for slow-period durations (paper: Γ(2,6)).
    pub slow_shape: f64,
    /// Scale of the slow-period Gamma.
    pub slow_scale: f64,
    /// Slow-mode slowdown ratio sampled from `U(lo, hi)` (paper: U(1,5)).
    pub slowdown_lo: f64,
    /// Upper bound of the slowdown ratio.
    pub slowdown_hi: f64,
}

impl DynamicsConfig {
    /// The paper's §5.1 configuration.
    pub fn paper() -> Self {
        DynamicsConfig {
            fast_shape: 2.0,
            fast_scale: 40.0,
            slow_shape: 2.0,
            slow_scale: 6.0,
            slowdown_lo: 1.0,
            slowdown_hi: 5.0,
        }
    }

    /// A static device (no toggling) — for unit tests and ablations.
    pub fn static_device() -> Self {
        DynamicsConfig {
            fast_shape: 2.0,
            fast_scale: f64::MAX / 4.0,
            slow_shape: 2.0,
            slow_scale: 1.0,
            slowdown_lo: 1.0,
            slowdown_hi: 1.0 + f64::EPSILON,
        }
    }
}

#[derive(Clone, Debug)]
struct Segment {
    /// Segment covers `[start, end)` in virtual seconds.
    end: SimTime,
    /// Instantaneous speed (nominal-work-seconds per virtual second); 0
    /// marks the fence [`DeviceSpeed::prune_before`] leaves in place of
    /// the history it dropped.
    speed: f64,
}

/// Serializable position of a [`DeviceSpeed`] process: the RNG stream
/// state plus every segment generated so far and not pruned. Restoring it
/// onto a device rebuilt from the same config resumes the identical
/// timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpeedSnapshot {
    /// Raw xoshiro256++ state of the segment-generation stream.
    pub rng: Vec<u64>,
    /// Generated segments as `(end, speed)` pairs, in order.
    pub segments: Vec<(SimTime, f64)>,
    /// Virtual time up to which segments have been generated.
    pub horizon: SimTime,
    /// Whether the next generated segment is a fast period.
    pub next_is_fast: bool,
}

/// A deterministic per-client speed process.
///
/// Segments are generated lazily from the client's own RNG stream, so two
/// runs with the same seed observe the identical timeline no matter how far
/// each round advances the clock. [`prune_before`](Self::prune_before)
/// drops the history no caller will query again, so what a client carries
/// stays bounded as virtual time grows.
#[derive(Clone, Debug)]
pub struct DeviceSpeed {
    base: f64,
    dynamics: DynamicsConfig,
    rng: StdRng,
    segments: Vec<Segment>,
    horizon: SimTime,
    next_is_fast: bool,
}

impl DeviceSpeed {
    /// Creates a device with relative `base_speed` (1.0 = nominal hardware)
    /// and the given dynamics, seeded deterministically.
    ///
    /// # Panics
    /// Panics if `base_speed <= 0`.
    pub fn new(base_speed: f64, dynamics: DynamicsConfig, seed: u64) -> Self {
        assert!(base_speed > 0.0, "base speed must be positive");
        DeviceSpeed {
            base: base_speed,
            dynamics,
            rng: StdRng::seed_from_u64(seed),
            segments: Vec::new(),
            horizon: 0.0,
            next_is_fast: true,
        }
    }

    /// Counter-derived constructor: the process's stream is keyed by
    /// `(master_seed, DOMAIN_DEVICE, id)`, so a client's speed timeline is a
    /// pure function of its id — rederivable on demand, in any hydration
    /// order, without a shared RNG to advance.
    pub fn for_client(
        base_speed: f64,
        dynamics: DynamicsConfig,
        master_seed: u64,
        id: u64,
    ) -> Self {
        DeviceSpeed::new(
            base_speed,
            dynamics,
            crate::stream::mix(master_seed, crate::stream::DOMAIN_DEVICE, id),
        )
    }

    /// The device's base speed multiplier.
    pub fn base_speed(&self) -> f64 {
        self.base
    }

    /// Captures the process position for checkpointing. Base speed and
    /// dynamics are excluded: they are config-derived and the restore
    /// target supplies them.
    pub fn snapshot(&self) -> DeviceSpeedSnapshot {
        DeviceSpeedSnapshot {
            rng: self.rng.state().to_vec(),
            segments: self.segments.iter().map(|s| (s.end, s.speed)).collect(),
            horizon: self.horizon,
            next_is_fast: self.next_is_fast,
        }
    }

    /// Restores a position captured by [`DeviceSpeed::snapshot`] onto a
    /// device rebuilt with the same base speed and dynamics.
    ///
    /// # Panics
    /// Panics if the snapshot's RNG state is not 4 words.
    pub fn restore(&mut self, snap: &DeviceSpeedSnapshot) {
        let s: [u64; 4] = snap
            .rng
            .as_slice()
            .try_into()
            .expect("device RNG state must be 4 words");
        self.rng = StdRng::from_state(s);
        self.segments = snap
            .segments
            .iter()
            .map(|&(end, speed)| Segment { end, speed })
            .collect();
        self.horizon = snap.horizon;
        self.next_is_fast = snap.next_is_fast;
    }

    /// Drops the segments that end at or before `t`, keeping the last of
    /// them as a zero-speed fence: a later query before the fence's end
    /// panics instead of reading a dropped segment. A query at or after
    /// `t` finds the same segment as before, so the timeline is unchanged;
    /// the RNG stream is untouched because segments are never regenerated.
    pub fn prune_before(&mut self, t: SimTime) {
        let dead = self.segments.partition_point(|s| s.end <= t);
        if dead > 0 {
            self.segments.drain(..dead - 1);
            self.segments[0].speed = 0.0;
        }
    }

    /// The segment covering `t`, generating segments up to it.
    fn segment_at(&mut self, t: SimTime) -> &Segment {
        self.extend_to(t);
        let idx = self.segments.partition_point(|s| s.end <= t);
        let seg = &self.segments[idx];
        assert!(seg.speed > 0.0, "query at {t} falls in pruned history");
        seg
    }

    fn extend_to(&mut self, t: SimTime) {
        while self.horizon <= t {
            let (duration, speed) = if self.next_is_fast {
                let gamma = Gamma::new(self.dynamics.fast_shape, self.dynamics.fast_scale)
                    .expect("valid gamma");
                (gamma.sample(&mut self.rng).max(1e-3), self.base)
            } else {
                let gamma = Gamma::new(self.dynamics.slow_shape, self.dynamics.slow_scale)
                    .expect("valid gamma");
                let slowdown = self
                    .rng
                    .gen_range(self.dynamics.slowdown_lo..self.dynamics.slowdown_hi);
                (gamma.sample(&mut self.rng).max(1e-3), self.base / slowdown)
            };
            self.next_is_fast = !self.next_is_fast;
            self.horizon += duration;
            self.segments.push(Segment {
                end: self.horizon,
                speed,
            });
        }
    }

    /// Instantaneous speed at virtual time `t`.
    pub fn speed_at(&mut self, t: SimTime) -> f64 {
        assert!(t >= 0.0, "negative virtual time");
        self.segment_at(t).speed
    }

    /// Executes `work` nominal seconds of compute starting at `start`,
    /// returning the virtual completion time.
    ///
    /// # Panics
    /// Panics if `work < 0` or `start < 0`.
    pub fn execute(&mut self, start: SimTime, work: f64) -> SimTime {
        assert!(work >= 0.0, "negative work");
        assert!(start >= 0.0, "negative start time");
        if work == 0.0 {
            return start;
        }
        let mut t = start;
        let mut remaining = work;
        loop {
            let seg = self.segment_at(t).clone();
            let window = seg.end - t;
            let can_do = window * seg.speed;
            if can_do >= remaining {
                return t + remaining / seg.speed;
            }
            remaining -= can_do;
            t = seg.end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_device_is_linear() {
        let mut d = DeviceSpeed::new(2.0, DynamicsConfig::static_device(), 1);
        // Speed 2: 10 nominal seconds take 5 virtual seconds.
        let end = d.execute(0.0, 10.0);
        assert!((end - 5.0).abs() < 1e-9, "end={end}");
        // Starting later just shifts.
        let end = d.execute(100.0, 4.0);
        assert!((end - 102.0).abs() < 1e-9);
    }

    #[test]
    fn execute_is_monotone_and_additive() {
        let mut d = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 42);
        let t1 = d.execute(0.0, 5.0);
        let t2 = d.execute(t1, 5.0);
        let t_both = d.execute(0.0, 10.0);
        assert!(t1 > 0.0 && t2 > t1);
        assert!(
            (t_both - t2).abs() < 1e-6,
            "split vs whole: {t_both} vs {t2}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 7);
        let mut b = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 7);
        for i in 0..20 {
            let t = i as f64 * 13.0;
            assert_eq!(a.execute(t, 3.0), b.execute(t, 3.0));
        }
        let mut c = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 8);
        assert_ne!(a.execute(0.0, 100.0), c.execute(0.0, 100.0));
    }

    #[test]
    fn dynamic_device_is_never_faster_than_base() {
        let mut d = DeviceSpeed::new(3.0, DynamicsConfig::paper(), 5);
        for i in 0..200 {
            let s = d.speed_at(i as f64 * 2.5);
            assert!((3.0 / 5.0 - 1e-9..=3.0 + 1e-12).contains(&s), "speed {s}");
        }
    }

    #[test]
    fn dynamic_device_actually_toggles() {
        let mut d = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 11);
        let speeds: Vec<f64> = (0..400).map(|i| d.speed_at(i as f64)).collect();
        let slow = speeds.iter().filter(|&&s| s < 0.999).count();
        let fast = speeds.iter().filter(|&&s| s >= 0.999).count();
        assert!(slow > 0, "never entered slow mode");
        assert!(fast > 0, "never in fast mode");
    }

    #[test]
    fn for_client_derives_identical_timelines_per_id() {
        let timeline = |id: u64| {
            let mut d = DeviceSpeed::for_client(1.0, DynamicsConfig::paper(), 42, id);
            (0..300)
                .map(|i| d.speed_at(i as f64 * 2.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(timeline(3), timeline(3), "same id, same process");
        assert_ne!(timeline(3), timeline(4), "distinct ids, distinct streams");
    }

    #[test]
    fn pruning_keeps_the_timeline_and_bounds_the_history() {
        // Round starts never decrease and every query of a round falls at
        // or after its start; a device pruned at each start must answer
        // exactly like one that keeps its whole history.
        let mut kept = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 3);
        let mut pruned = kept.clone();
        let mut start = 0.0;
        for _ in 0..400 {
            pruned.prune_before(start);
            let mut t = start;
            for work in [0.5, 2.0, 7.5] {
                let (a, b) = (kept.execute(t, work), pruned.execute(t, work));
                assert_eq!(a.to_bits(), b.to_bits(), "execute({t}, {work})");
                t = a;
            }
            assert_eq!(kept.speed_at(t).to_bits(), pruned.speed_at(t).to_bits());
            start = t + 1.0;
        }
        assert!(start > 4_000.0, "the run must span many segments");
        assert!(kept.snapshot().segments.len() > 50);
        assert!(pruned.snapshot().segments.len() <= 4);
        // A restored twin carries the fence and the same future.
        let mut restored = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 3);
        restored.restore(&pruned.snapshot());
        assert_eq!(restored.snapshot(), pruned.snapshot());
        assert_eq!(restored.execute(start, 4.0), kept.execute(start, 4.0));
    }

    #[test]
    #[should_panic(expected = "pruned history")]
    fn a_query_before_the_pruning_point_panics() {
        let mut d = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 3);
        d.execute(0.0, 500.0);
        d.prune_before(500.0);
        d.execute(1.0, 1.0);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut d = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 2);
        assert_eq!(d.execute(17.0, 0.0), 17.0);
    }
}
