//! FedBalancer-style round deadlines (context of Eq. 3).
//!
//! The server picks the round deadline `T_R` by maximizing the ratio of the
//! estimated number of clients able to finish before `T` to `T` itself
//! (§4.2 "Quantifying marginal costs", following FedBalancer's deadline
//! strategy). The optimum is always attained at one of the predicted finish
//! times, so the search is over those candidates.

use fedca_sim::SimTime;

/// Picks `T_R = argmax_T count(finish_i ≤ T) / T` over the candidate set of
/// predicted client finish times (durations relative to round start).
///
/// # Panics
/// Panics if `predicted` is empty or contains a non-positive duration.
pub fn compute_deadline(predicted: &[SimTime]) -> SimTime {
    assert!(!predicted.is_empty(), "no predicted finish times");
    assert!(
        predicted.iter().all(|&t| t > 0.0),
        "predicted durations must be positive"
    );
    let mut sorted = predicted.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
    let mut best_t = sorted[0];
    let mut best_ratio = 1.0 / sorted[0];
    for (i, &t) in sorted.iter().enumerate() {
        let ratio = (i + 1) as f64 / t;
        if ratio > best_ratio {
            best_ratio = ratio;
            best_t = t;
        }
    }
    best_t
}

/// Server-side per-client duration predictor: exponential moving average of
/// observed round durations, with an optimistic default for never-seen
/// clients.
///
/// The table is sparse: only clients that have actually been observed hold
/// an entry, so memory scales with the *participating* set, not the
/// population — a 1,000,000-client federation sampling 128/round holds at
/// most `rounds × 128` entries.
#[derive(Clone, Debug)]
pub struct DurationEstimator {
    ema: std::collections::HashMap<usize, SimTime>,
    alpha: f64,
    default: SimTime,
}

impl DurationEstimator {
    /// Creates an estimator with smoothing `alpha` and a `default`
    /// prediction for unobserved clients.
    pub fn new(alpha: f64, default: SimTime) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert!(default > 0.0, "default duration must be positive");
        DurationEstimator {
            ema: std::collections::HashMap::new(),
            alpha,
            default,
        }
    }

    /// Records an observed full-round duration for a client. The first
    /// observation seeds the EMA exactly; later ones blend with `alpha`.
    pub fn observe(&mut self, client: usize, duration: SimTime) {
        match self.ema.entry(client) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let prev = *o.get();
                *o.get_mut() = (1.0 - self.alpha) * prev + self.alpha * duration;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(duration);
            }
        }
    }

    /// Predicted duration for a client.
    pub fn predict(&self, client: usize) -> SimTime {
        self.ema.get(&client).copied().unwrap_or(self.default)
    }

    /// Observed clients in the table.
    pub fn n_observed(&self) -> usize {
        self.ema.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_deadline_is_its_finish() {
        assert_eq!(compute_deadline(&[7.5]), 7.5);
    }

    #[test]
    fn deadline_excludes_extreme_stragglers() {
        // 9 clients at ~10 s, one at 1000 s: waiting for the straggler gives
        // ratio 10/1000 = 0.01 vs 9/10 = 0.9 — the deadline lands at 10 s.
        let mut times = vec![10.0; 9];
        times.push(1000.0);
        assert_eq!(compute_deadline(&times), 10.0);
    }

    #[test]
    fn deadline_keeps_clients_when_they_are_cheap_to_wait_for() {
        // Finishes at 1, 1.05, 1.1: ratio grows with each included client,
        // so the deadline is the last one.
        let times = vec![1.0, 1.05, 1.1];
        assert_eq!(compute_deadline(&times), 1.1);
    }

    #[test]
    fn deadline_is_one_of_the_candidates() {
        let times = vec![3.0, 9.0, 4.5, 20.0, 5.0];
        let d = compute_deadline(&times);
        assert!(times.contains(&d));
    }

    #[test]
    fn estimator_defaults_then_tracks() {
        let mut e = DurationEstimator::new(0.5, 10.0);
        assert_eq!(e.predict(0), 10.0);
        e.observe(0, 20.0);
        assert_eq!(e.predict(0), 20.0);
        e.observe(0, 10.0);
        assert!((e.predict(0) - 15.0).abs() < 1e-12);
        assert_eq!(e.predict(1), 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_durations() {
        let _ = compute_deadline(&[1.0, 0.0]);
    }

    #[test]
    fn estimator_table_is_sparse() {
        let mut e = DurationEstimator::new(0.3, 10.0);
        // Only observed clients occupy memory — ids far apart cost 2 slots,
        // not max(id) slots.
        e.observe(999_983, 4.0);
        e.observe(7, 6.0);
        assert_eq!(e.n_observed(), 2);
        assert_eq!(e.predict(7), 6.0);
        assert_eq!(e.predict(999_983), 4.0);
        assert_eq!(e.predict(0), 10.0, "unseen clients keep the default");
    }
}
