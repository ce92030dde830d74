//! Property-based tests for the virtual-time models.

use fedca_sim::device::{DeviceSpeed, DynamicsConfig};
use fedca_sim::engine::round_completion_time;
use fedca_sim::network::Link;
use proptest::prelude::*;

proptest! {
    #[test]
    fn device_time_is_monotone_in_work(
        base in 0.2f64..5.0,
        start in 0.0f64..1000.0,
        w1 in 0.0f64..50.0,
        extra in 0.0f64..50.0,
        seed in 0u64..1000,
    ) {
        let mut d = DeviceSpeed::new(base, DynamicsConfig::paper(), seed);
        let t1 = d.execute(start, w1);
        let t2 = d.execute(start, w1 + extra);
        prop_assert!(t1 >= start);
        prop_assert!(t2 >= t1 - 1e-9, "more work finished earlier: {} vs {}", t2, t1);
        // Work takes at least work/base (device never exceeds base speed)
        // and at most work/(base/slowdown_max).
        prop_assert!(t1 - start >= w1 / base - 1e-6);
        prop_assert!(t1 - start <= w1 / (base / 5.0) + 1e-6);
    }

    #[test]
    fn device_split_work_equals_whole(
        w1 in 0.01f64..20.0,
        w2 in 0.01f64..20.0,
        seed in 0u64..1000,
    ) {
        let mut a = DeviceSpeed::new(1.0, DynamicsConfig::paper(), seed);
        let mut b = DeviceSpeed::new(1.0, DynamicsConfig::paper(), seed);
        let mid = a.execute(0.0, w1);
        let end_split = a.execute(mid, w2);
        let end_whole = b.execute(0.0, w1 + w2);
        prop_assert!((end_split - end_whole).abs() < 1e-6,
            "split {} vs whole {}", end_split, end_whole);
    }

    #[test]
    fn link_is_fifo_and_work_conserving(
        bw in 1.0f64..1e7,
        payloads in prop::collection::vec((0.0f64..1000.0, 0.0f64..1e6), 1..20),
    ) {
        let mut link = Link::new(bw);
        let mut sorted = payloads.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut prev_end = 0.0f64;
        for (ready, bytes) in sorted {
            let end = link.transmit(ready, bytes);
            prop_assert!(end >= ready + bytes / bw - 1e-9);
            prop_assert!(end >= prev_end, "FIFO violated");
            // Work conserving: starts as soon as ready and idle.
            let expected_start = ready.max(prev_end);
            prop_assert!((end - (expected_start + bytes / bw)).abs() < 1e-6);
            prev_end = end;
        }
    }

    #[test]
    fn completion_time_is_an_arrival_and_fraction_monotone(
        arrivals in prop::collection::vec(0.0f64..1e4, 1..40),
        f1 in 0.05f64..1.0,
        f2 in 0.05f64..1.0,
    ) {
        let t1 = round_completion_time(&arrivals, f1);
        prop_assert!(arrivals.contains(&t1));
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(round_completion_time(&arrivals, lo) <= round_completion_time(&arrivals, hi));
        // The cut is the earliest arrival by which ⌈f·n⌉ uploads are in:
        // the server collects every arrival ≤ the cut, so at least that
        // many, and an earlier cut would collect fewer.
        let k = ((arrivals.len() as f64 * f1).ceil() as usize).clamp(1, arrivals.len());
        prop_assert!(arrivals.iter().filter(|&&t| t <= t1).count() >= k);
        prop_assert!(arrivals.iter().filter(|&&t| t < t1).count() < k);
    }
}
