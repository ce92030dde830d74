//! Round-completion arithmetic for partially-synchronous FL.
//!
//! Under the paper's setup the server waits for the earliest
//! `aggregation_fraction` (90%) of the selected clients' uploads and
//! discards the stragglers' updates (§5.1, FedAvg's partial aggregation).
//! [`round_completion_time`] is the one definition of that cut: the
//! server's aggregator calls it once per round, at close, over one arrival
//! per selected client (`+inf` for a client whose upload never counts), and
//! collects every finite arrival at or before it — ties at the cut included.

use crate::SimTime;

/// Virtual time at which the round completes: when `ceil(fraction · n)`
/// uploads (at least one) have arrived.
///
/// # Panics
/// Panics if `arrivals` is empty or `fraction` is outside `(0, 1]`.
pub fn round_completion_time(arrivals: &[SimTime], fraction: f64) -> SimTime {
    assert!(!arrivals.is_empty(), "no client arrivals");
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "aggregation fraction must be in (0, 1], got {fraction}"
    );
    let k = ((arrivals.len() as f64 * fraction).ceil() as usize).clamp(1, arrivals.len());
    let mut sorted = arrivals.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN arrival times"));
    let t = sorted[k - 1];
    if t.is_finite() {
        return t;
    }
    // Dropped clients report +inf arrivals; if the cut lands on one, fall
    // back to the last finite arrival (the server cannot wait forever).
    sorted
        .iter()
        .rev()
        .find(|t| t.is_finite())
        .copied()
        .expect("at least one client must finish the round")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sync_waits_for_slowest() {
        assert_eq!(round_completion_time(&[3.0, 1.0, 7.0], 1.0), 7.0);
    }

    #[test]
    fn ninety_percent_drops_the_straggler() {
        let arrivals: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        // ceil(10*0.9)=9 -> completes at t=9, dropping the t=10 straggler.
        assert_eq!(round_completion_time(&arrivals, 0.9), 9.0);
    }

    #[test]
    fn fraction_rounds_up() {
        // 4 clients at 50% -> ceil(2) = 2 uploads.
        assert_eq!(round_completion_time(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn tiny_fraction_still_waits_for_one() {
        assert_eq!(round_completion_time(&[5.0, 2.0], 0.01), 2.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_zero_fraction() {
        let _ = round_completion_time(&[1.0], 0.0);
    }
}
