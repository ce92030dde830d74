//! Bandwidth-limited links with FIFO queuing.
//!
//! Each client has an uplink and a downlink throttled to the paper's
//! 13.7 Mbps (the FedScale average the authors configure with
//! `wondershaper`); the server's 10 Gbps side is wide enough to never be
//! the bottleneck for ≤128 clients, matching §5.1. Eager transmissions
//! enqueue on the client's uplink while compute continues — transfer
//! completion is what the FL round logic observes.

use crate::SimTime;

/// 13.7 Mbps in bytes/second (paper's per-client link).
pub const PAPER_CLIENT_BANDWIDTH_BPS: f64 = 13.7e6 / 8.0;

/// A half-duplex FIFO link with fixed bandwidth.
#[derive(Clone, Debug)]
pub struct Link {
    bandwidth_bytes_per_sec: f64,
    /// Multiplier on the nominal bandwidth (fault injection: a degraded
    /// link runs at `rate_scale` of nominal for as long as the scale is
    /// set). Always 1.0 on a healthy link.
    rate_scale: f64,
    busy_until: SimTime,
}

impl Link {
    /// Creates a link with the given bandwidth in **bytes per second**.
    ///
    /// # Panics
    /// Panics if the bandwidth is not positive.
    pub fn new(bandwidth_bytes_per_sec: f64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        Link {
            bandwidth_bytes_per_sec,
            rate_scale: 1.0,
            busy_until: 0.0,
        }
    }

    /// A client link at the paper's 13.7 Mbps.
    pub fn paper_client() -> Self {
        Link::new(PAPER_CLIENT_BANDWIDTH_BPS)
    }

    /// Seconds needed to push `bytes` through an idle link at its current
    /// (possibly degraded) rate.
    pub fn serialize_time(&self, bytes: f64) -> f64 {
        bytes / (self.bandwidth_bytes_per_sec * self.rate_scale)
    }

    /// Degrades (or restores) the link to `scale` of its nominal bandwidth.
    /// Fault-injection hook; transfers already enqueued are unaffected.
    ///
    /// # Panics
    /// Panics unless `scale` is in `(0, 1]`.
    pub fn set_rate_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "rate scale must be in (0, 1], got {scale}"
        );
        self.rate_scale = scale;
    }

    /// The current bandwidth multiplier (1.0 = healthy).
    pub fn rate_scale(&self) -> f64 {
        self.rate_scale
    }

    /// Enqueues a transfer that becomes ready at `ready`; returns the
    /// completion time. FIFO: a transfer starts at
    /// `max(ready, previous completion)`.
    ///
    /// # Panics
    /// Panics if `bytes < 0` or `ready < 0`.
    pub fn transmit(&mut self, ready: SimTime, bytes: f64) -> SimTime {
        assert!(bytes >= 0.0, "negative payload");
        assert!(ready >= 0.0, "negative time");
        let start = ready.max(self.busy_until);
        let end = start + self.serialize_time(bytes);
        self.busy_until = end;
        end
    }

    /// When the link next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Restores the FIFO queue head (eviction and shard hand-off). Rate
    /// scale is reapplied per round by fault injection.
    ///
    /// # Panics
    /// Panics if `t < 0`.
    pub fn restore_busy_until(&mut self, t: SimTime) {
        assert!(t >= 0.0, "negative time");
        self.busy_until = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_time_is_bytes_over_bandwidth() {
        let link = Link::new(1000.0);
        assert!((link.serialize_time(500.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_bandwidth_matches_eval_setup() {
        // 139.4 MB (the paper's WRN model size) at 13.7 Mbps ≈ 81 s — the
        // communication bottleneck §2.1 describes.
        let link = Link::paper_client();
        let t = link.serialize_time(139.4e6);
        assert!((75.0..90.0).contains(&t), "WRN upload time {t}");
    }

    #[test]
    fn fifo_queueing_serializes_transfers() {
        let mut link = Link::new(100.0); // 100 B/s
        let e1 = link.transmit(0.0, 100.0); // 0..1
        let e2 = link.transmit(0.5, 100.0); // queued: 1..2
        let e3 = link.transmit(5.0, 100.0); // idle gap: 5..6
        assert!((e1 - 1.0).abs() < 1e-12);
        assert!((e2 - 2.0).abs() < 1e-12);
        assert!((e3 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_completes_at_queue_head() {
        let mut link = Link::new(10.0);
        let _ = link.transmit(0.0, 100.0); // busy until 10
        let e = link.transmit(2.0, 0.0);
        assert!((e - 10.0).abs() < 1e-12);
    }

    #[test]
    fn degraded_link_slows_by_the_scale_factor() {
        let mut link = Link::new(100.0);
        link.set_rate_scale(0.25); // 25 B/s effective
        assert!((link.serialize_time(100.0) - 4.0).abs() < 1e-12);
        let e = link.transmit(0.0, 100.0);
        assert!((e - 4.0).abs() < 1e-12);
        link.set_rate_scale(1.0);
        assert!((link.serialize_time(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rate scale")]
    fn rejects_zero_rate_scale() {
        Link::new(10.0).set_rate_scale(0.0);
    }
}
