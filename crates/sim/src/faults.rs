//! Deterministic fault injection for the virtual testbed.
//!
//! FedCA's value proposition is tolerating unreliable clients — dropouts,
//! stragglers, deadline misses (§5 of the paper) — yet a simulator only
//! earns the right to claim that if faults themselves are first-class,
//! seeded, and reproducible. This module defines a [`FaultPlan`]: a pure
//! function from `(round, client)` to the faults that client suffers that
//! round, derived from a dedicated fault seed so the *same* training
//! trajectory can be replayed under the *same* adversarial schedule.
//!
//! Fault classes (all independent per `(round, client)` draw):
//!
//! * **crash** — the client vanishes at a specific local iteration; its
//!   state survives but its upload never arrives. This is the simulator's
//!   one model of the paper's availability churn (§3.1);
//! * **worker panic** — the client code `panic!`s at a specific iteration,
//!   exercising the executor's `catch_unwind` / failure-reporting path and
//!   destroying the client's in-memory state;
//! * **result loss** — the round completes but the upload message is lost;
//! * **result delay** — the upload arrives late by a bounded amount;
//! * **bandwidth degradation** — the client's links run at a fraction of
//!   nominal bandwidth for the round;
//! * **deadline slip** — the client *believes* it has more time than the
//!   server granted (a stale/garbled deadline offload), so it risks missing
//!   the aggregation cut.
//!
//! Nothing here depends on wall-clock, thread scheduling, or draw *order*
//! across clients: every `(round, client)` pair seeds its own RNG, so a
//! plan queried from any number of worker threads yields identical faults.

use crate::stream::mix;
use crate::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-fault-class probabilities and intensities. All probabilities are
/// per `(round, selected client)`; `FaultConfig::none()` (the `Default`)
/// injects nothing and is behaviourally invisible.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the fault stream, independent of the experiment seed so the
    /// same training run can be replayed under different fault schedules.
    #[serde(default)]
    pub seed: u64,
    /// Probability the client crashes at a uniformly-drawn local iteration.
    #[serde(default)]
    pub crash_prob: f64,
    /// Probability the client code panics (worker-side `panic!`) at a
    /// uniformly-drawn local iteration.
    #[serde(default)]
    pub panic_prob: f64,
    /// Probability the final upload message is lost entirely.
    #[serde(default)]
    pub result_loss_prob: f64,
    /// Probability the final upload is delayed.
    #[serde(default)]
    pub result_delay_prob: f64,
    /// Maximum delay (virtual seconds) added to a delayed upload.
    #[serde(default)]
    pub result_delay_max: SimTime,
    /// Probability the client's links are degraded this round.
    #[serde(default)]
    pub bandwidth_degrade_prob: f64,
    /// Lowest bandwidth fraction a degraded link can run at, in `(0, 1]`;
    /// the factor is drawn uniformly from `[floor, 1)`. A missing/zero
    /// value is normalized to 1.0 (no degradation depth) when degradation
    /// is disabled, and rejected by validation otherwise.
    #[serde(default)]
    pub bandwidth_floor: f64,
    /// Probability the client operates under a slipped (stale) deadline.
    #[serde(default)]
    pub deadline_slip_prob: f64,
    /// Maximum extra time (virtual seconds) a slipped client believes it
    /// has beyond the server's true deadline.
    #[serde(default)]
    pub deadline_slip_max: SimTime,
    /// Probability the client's final update is corrupted in flight
    /// (NaN-poisoned payload): the upload arrives on time but the server's
    /// non-finite guard must reject it instead of aggregating it.
    #[serde(default)]
    pub corrupt_update_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// The inert configuration: no fault is ever injected.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            crash_prob: 0.0,
            panic_prob: 0.0,
            result_loss_prob: 0.0,
            result_delay_prob: 0.0,
            result_delay_max: 0.0,
            bandwidth_degrade_prob: 0.0,
            bandwidth_floor: 1.0,
            deadline_slip_prob: 0.0,
            deadline_slip_max: 0.0,
            corrupt_update_prob: 0.0,
        }
    }

    /// A moderate everything-on mix for chaos sweeps: every fault class has
    /// nonzero probability, scaled so most rounds still aggregate someone.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            crash_prob: 0.15,
            panic_prob: 0.10,
            result_loss_prob: 0.10,
            result_delay_prob: 0.25,
            result_delay_max: 5.0,
            bandwidth_degrade_prob: 0.30,
            bandwidth_floor: 0.2,
            deadline_slip_prob: 0.20,
            deadline_slip_max: 10.0,
            // Kept off in the chaos mix: the PR 2/3 golden-trace fixtures
            // pin chaos() schedules, and corruption has its own sweeps.
            corrupt_update_prob: 0.0,
        }
    }

    /// Whether this configuration can ever inject a fault.
    pub fn is_inert(&self) -> bool {
        self.crash_prob == 0.0
            && self.panic_prob == 0.0
            && self.result_loss_prob == 0.0
            && self.result_delay_prob == 0.0
            && self.bandwidth_degrade_prob == 0.0
            && self.deadline_slip_prob == 0.0
            && self.corrupt_update_prob == 0.0
    }

    fn validate(&self) {
        for (name, p) in [
            ("crash_prob", self.crash_prob),
            ("panic_prob", self.panic_prob),
            ("result_loss_prob", self.result_loss_prob),
            ("result_delay_prob", self.result_delay_prob),
            ("bandwidth_degrade_prob", self.bandwidth_degrade_prob),
            ("deadline_slip_prob", self.deadline_slip_prob),
            ("corrupt_update_prob", self.corrupt_update_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be in [0, 1], got {p}"
            );
        }
        // A floor of 0.0 only matters when degradation can actually fire;
        // serde's missing-field default is 0.0, which plan construction
        // normalizes to 1.0 for degrade-free configs.
        if self.bandwidth_degrade_prob > 0.0 {
            assert!(
                self.bandwidth_floor > 0.0 && self.bandwidth_floor <= 1.0,
                "bandwidth_floor must be in (0, 1], got {}",
                self.bandwidth_floor
            );
        }
        assert!(self.result_delay_max >= 0.0, "negative result_delay_max");
        assert!(self.deadline_slip_max >= 0.0, "negative deadline_slip_max");
    }
}

/// The faults one client suffers in one round. `ClientFaults::none()` (the
/// `Default`) is the happy path and must be behaviourally invisible.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClientFaults {
    /// Crash (state survives, upload never arrives) at this local iteration.
    pub crash_at_iter: Option<usize>,
    /// `panic!` (state destroyed on the worker) at this local iteration.
    pub panic_at_iter: Option<usize>,
    /// Extra virtual seconds added to the final upload's arrival.
    pub result_delay: SimTime,
    /// The final upload message is lost (arrival at `+inf`).
    pub lose_result: bool,
    /// Link bandwidth multiplier for the round (1.0 = nominal).
    pub bandwidth_factor: f64,
    /// Extra time the client *believes* it has beyond the true deadline.
    pub deadline_slip: SimTime,
    /// The final update payload is NaN-poisoned in flight; the server's
    /// non-finite guard must reject it.
    #[serde(default)]
    pub corrupt_update: bool,
}

impl Default for ClientFaults {
    fn default() -> Self {
        ClientFaults::none()
    }
}

impl ClientFaults {
    /// The fault-free assignment.
    pub fn none() -> Self {
        ClientFaults {
            crash_at_iter: None,
            panic_at_iter: None,
            result_delay: 0.0,
            lose_result: false,
            bandwidth_factor: 1.0,
            deadline_slip: 0.0,
            corrupt_update: false,
        }
    }

    /// Names of the armed fault classes, in a fixed canonical order (the
    /// declaration order above). Empty for the fault-free assignment; used
    /// by the trace layer to journal what a round armed before it runs.
    pub fn active_kinds(&self) -> Vec<String> {
        let mut kinds = Vec::new();
        if self.crash_at_iter.is_some() {
            kinds.push("crash".to_string());
        }
        if self.panic_at_iter.is_some() {
            kinds.push("panic".to_string());
        }
        if self.result_delay > 0.0 {
            kinds.push("result_delay".to_string());
        }
        if self.lose_result {
            kinds.push("result_loss".to_string());
        }
        if self.bandwidth_factor < 1.0 {
            kinds.push("bandwidth_degrade".to_string());
        }
        if self.deadline_slip > 0.0 {
            kinds.push("deadline_slip".to_string());
        }
        if self.corrupt_update {
            kinds.push("corrupt_update".to_string());
        }
        kinds
    }
}

/// A seeded, deterministic fault schedule: a pure function from
/// `(round, client)` to [`ClientFaults`].
///
/// Each pair seeds its own RNG, so draws are independent of query order and
/// of which thread asks — the property that makes chaos runs reproducible
/// across worker counts.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Builds a plan, validating the configuration.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]`, the bandwidth floor is
    /// outside `(0, 1]`, or an intensity is negative.
    pub fn new(mut cfg: FaultConfig) -> Self {
        cfg.validate();
        if cfg.bandwidth_degrade_prob == 0.0 && cfg.bandwidth_floor == 0.0 {
            // Serde's missing-field default; degradation never fires, so the
            // floor is only cosmetic — normalize it to the healthy value.
            cfg.bandwidth_floor = 1.0;
        }
        FaultPlan { cfg }
    }

    /// The faults `client` suffers in `round`, given its planned local
    /// iteration count. Deterministic in `(seed, round, client)`.
    pub fn draw(&self, round: usize, client: usize, planned_iters: usize) -> ClientFaults {
        if self.cfg.is_inert() {
            return ClientFaults::none();
        }
        let mut rng = StdRng::seed_from_u64(mix(self.cfg.seed, round as u64, client as u64));
        let k = planned_iters.max(1);
        // Every branch consumes the same number of draws, so toggling one
        // fault class's probability never reshuffles the others.
        let crash_roll = rng.gen_range(0.0..1.0);
        let crash_iter = rng.gen_range(1..=k);
        let panic_roll = rng.gen_range(0.0..1.0);
        let panic_iter = rng.gen_range(1..=k);
        let loss_roll = rng.gen_range(0.0..1.0);
        let delay_roll = rng.gen_range(0.0..1.0);
        let delay = rng.gen_range(0.0..1.0) * self.cfg.result_delay_max;
        let degrade_roll = rng.gen_range(0.0..1.0);
        let factor =
            self.cfg.bandwidth_floor + rng.gen_range(0.0..1.0) * (1.0 - self.cfg.bandwidth_floor);
        let slip_roll = rng.gen_range(0.0..1.0);
        let slip = rng.gen_range(0.0..1.0) * self.cfg.deadline_slip_max;
        // Appended last: adding this class must not reshuffle the draws of
        // the classes above (golden chaos schedules are seed-pinned).
        let corrupt_roll = rng.gen_range(0.0..1.0);
        ClientFaults {
            crash_at_iter: (crash_roll < self.cfg.crash_prob).then_some(crash_iter),
            panic_at_iter: (panic_roll < self.cfg.panic_prob).then_some(panic_iter),
            result_delay: if delay_roll < self.cfg.result_delay_prob {
                delay
            } else {
                0.0
            },
            lose_result: loss_roll < self.cfg.result_loss_prob,
            bandwidth_factor: if degrade_roll < self.cfg.bandwidth_degrade_prob {
                factor
            } else {
                1.0
            },
            deadline_slip: if slip_roll < self.cfg.deadline_slip_prob {
                slip
            } else {
                0.0
            },
            corrupt_update: corrupt_roll < self.cfg.corrupt_update_prob,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_kinds_names_exactly_the_armed_classes() {
        assert!(ClientFaults::none().active_kinds().is_empty());
        let mut f = ClientFaults::none();
        f.crash_at_iter = Some(3);
        f.deadline_slip = 2.0;
        assert_eq!(f.active_kinds(), vec!["crash", "deadline_slip"]);
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            result_loss_prob: 1.0,
            bandwidth_degrade_prob: 1.0,
            bandwidth_floor: 0.5,
            ..FaultConfig::none()
        });
        assert_eq!(
            plan.draw(0, 0, 5).active_kinds(),
            vec!["result_loss", "bandwidth_degrade"]
        );
    }

    #[test]
    fn inert_plan_draws_nothing() {
        assert!(FaultConfig::none().is_inert());
        let plan = FaultPlan::new(FaultConfig::none());
        for round in 0..20 {
            for client in 0..20 {
                assert_eq!(plan.draw(round, client, 10), ClientFaults::none());
            }
        }
    }

    #[test]
    fn zero_probability_draws_nothing_even_with_a_seed() {
        // A seeded plan whose probabilities are all zero must be
        // byte-identical to the inert plan's output.
        let plan = FaultPlan::new(FaultConfig {
            seed: 0xDEAD_BEEF,
            ..FaultConfig::none()
        });
        for round in 0..10 {
            for client in 0..10 {
                assert_eq!(plan.draw(round, client, 8), ClientFaults::none());
            }
        }
    }

    #[test]
    fn draws_are_deterministic_and_query_order_free() {
        let plan = FaultPlan::new(FaultConfig::chaos(7));
        let a: Vec<_> = (0..50).map(|c| plan.draw(3, c, 12)).collect();
        let b: Vec<_> = (0..50).rev().map(|c| plan.draw(3, c, 12)).collect();
        for (c, fa) in a.iter().enumerate() {
            assert_eq!(*fa, b[49 - c], "client {c} diverged across query order");
            assert_eq!(*fa, plan.draw(3, c, 12), "client {c} not deterministic");
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(FaultConfig::chaos(1));
        let b = FaultPlan::new(FaultConfig::chaos(2));
        let differs = (0..200).any(|c| a.draw(0, c, 10) != b.draw(0, c, 10));
        assert!(differs, "fault schedules must depend on the seed");
    }

    #[test]
    fn certain_faults_always_fire_within_bounds() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            crash_prob: 1.0,
            panic_prob: 1.0,
            result_loss_prob: 1.0,
            result_delay_prob: 1.0,
            result_delay_max: 2.0,
            bandwidth_degrade_prob: 1.0,
            bandwidth_floor: 0.25,
            deadline_slip_prob: 1.0,
            deadline_slip_max: 4.0,
            corrupt_update_prob: 1.0,
        });
        for client in 0..100 {
            let f = plan.draw(1, client, 6);
            let crash = f.crash_at_iter.expect("crash must fire");
            let panic = f.panic_at_iter.expect("panic must fire");
            assert!((1..=6).contains(&crash));
            assert!((1..=6).contains(&panic));
            assert!(f.lose_result);
            assert!((0.0..=2.0).contains(&f.result_delay));
            assert!((0.25..=1.0).contains(&f.bandwidth_factor));
            assert!((0.0..=4.0).contains(&f.deadline_slip));
            assert!(f.corrupt_update);
        }
    }

    #[test]
    fn fault_frequencies_track_probabilities() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 11,
            crash_prob: 0.3,
            ..FaultConfig::none()
        });
        let n = 2000;
        let crashes = (0..n)
            .filter(|&c| plan.draw(0, c, 10).crash_at_iter.is_some())
            .count();
        let rate = crashes as f64 / n as f64;
        assert!(
            (0.25..0.35).contains(&rate),
            "crash rate {rate} far from 0.3"
        );
    }

    #[test]
    fn planned_iters_zero_is_clamped() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 5,
            crash_prob: 1.0,
            ..FaultConfig::none()
        });
        assert_eq!(plan.draw(0, 0, 0).crash_at_iter, Some(1));
    }

    #[test]
    #[should_panic(expected = "crash_prob")]
    fn rejects_out_of_range_probability() {
        let _ = FaultPlan::new(FaultConfig {
            crash_prob: 1.5,
            ..FaultConfig::none()
        });
    }

    #[test]
    fn config_serializes_round_trip() {
        let cfg = FaultConfig::chaos(9);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
