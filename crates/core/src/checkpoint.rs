//! The per-client state that crosses a residency or process boundary.
//!
//! A [`ClientSnapshot`] is one client's mutable cross-round state: the
//! store's dirty overlay when a participant is evicted (DESIGN §9), and the
//! payload a shard child receives with its work and sends back (§11).
//! Everything else about a client is a pure function of `(fl.seed, id)`.
//! The trainer itself has no snapshot API: a run's state lives in memory
//! for the run's lifetime (DESIGN §8). [`fnv1a`], the hash behind the
//! benchmark's trajectory fingerprint, lives here too.

use crate::profiler::ProfiledCurves;
use fedca_sim::device::DeviceSpeedSnapshot;
use serde::{Deserialize, Serialize};

/// One client's mutable cross-round state: the store's dirty overlay, and
/// what a shard child receives with its work. Identity-level state (shard,
/// base speed, profiler sample indices, per-round RNG seeds) is
/// config-derived and excluded.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClientSnapshot {
    /// Client id within the federation.
    pub id: usize,
    /// The epoch sampler's current shard permutation.
    pub sampler_indices: Vec<usize>,
    /// The epoch sampler's position within the permutation.
    pub sampler_cursor: usize,
    /// Device-speed process position (RNG stream + generated segments).
    pub device: DeviceSpeedSnapshot,
    /// Uplink FIFO queue head.
    pub uplink_busy_until: f64,
    /// Downlink FIFO queue head.
    pub downlink_busy_until: f64,
    /// Most recent anchor-round curves, if any (FedCA only).
    #[serde(default)]
    pub curves: Option<ProfiledCurves>,
    /// Compression error-feedback residual (empty unless compression ran).
    #[serde(default)]
    pub error_feedback: Vec<f32>,
}

/// FNV-1a 64-bit hash. Not cryptographic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
