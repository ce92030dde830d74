//! In-memory snapshot/restore of the training loop.
//!
//! A [`CheckpointEnvelope`] is a complete snapshot of the cross-round
//! training state: rounds completed, virtual clock, the selection RNG's
//! stream position, global parameters, the server's duration-estimator
//! table, and the mutable state of every client that ever *participated*
//! (epoch sampler position, device-speed process, link queues, profiled
//! curves, compression residual). Everything else a
//! [`Trainer`](crate::Trainer) holds is a pure function of the
//! configuration — the partition, device speed classes, profiler sample
//! indices, and the fault plan all derive from `fl.seed` — so a restore
//! overwrites only the state captured here on a trainer built from the same
//! config. The envelope is *sparse* over the population: clients that never
//! participated are omitted entirely, and the estimator and participation
//! tables store `(id, value)` pairs, so a snapshot of a million-client
//! federation costs memory proportional to the clients actually touched,
//! not the population. Intra-round transients (eager-transmission
//! snapshots, early-stop decisions, an anchor round's recording buffer)
//! never cross a round boundary and therefore never appear in a snapshot;
//! the fault-plan "cursor" is simply the round index, because fault draws
//! are a pure function of `(fault_seed, round, client)`.
//!
//! Nothing here touches the filesystem (DESIGN §8 says why).

use crate::metrics::RoundRecord;
use crate::profiler::ProfiledCurves;
use fedca_sim::device::DeviceSpeedSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// The full training state between two rounds.
///
/// Sparse over the population: `clients` holds only the *dirty* set —
/// clients whose mutable state diverged from its config-derived initial
/// value (i.e. they participated at least once) — and the estimator and
/// participation tables are `(id, value)` pairs sorted by id. A client
/// absent from every table is rederived from `(fl.seed, id)` on demand.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointEnvelope {
    /// Fingerprint of `(FlConfig minus its trajectory-neutral sections,
    /// scheme, workload)`; restore refuses an envelope whose fingerprint does
    /// not match the trainer's.
    pub fingerprint: u64,
    /// Population size the envelope was taken against; restore refuses a
    /// mismatch (sparse ids would silently alias otherwise).
    pub n_clients: usize,
    /// Rounds completed when the snapshot was taken (the resume point).
    pub rounds_done: usize,
    /// Virtual clock at the end of the last completed round.
    pub clock: f64,
    /// The trainer's client-selection RNG stream position.
    pub selection_rng: Vec<u64>,
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Server-side duration EMA table, `(client, ema)` sorted by client.
    pub estimator_ema: Vec<(usize, f64)>,
    /// Participation counts of clients that participated, `(client, count)`
    /// sorted by client.
    pub participations: Vec<(usize, usize)>,
    /// Mutable state of the dirty client set, sorted by id.
    pub clients: Vec<ClientSnapshot>,
    /// All completed round records, in order.
    pub records: Vec<RoundRecord>,
}

/// Why a restore was refused. A refused restore leaves the trainer as it
/// was.
#[derive(Debug)]
pub enum CheckpointError {
    /// The envelope does not fit the trainer: population size, record
    /// count, parameter count or RNG width.
    Malformed(String),
    /// The envelope was taken from a run with a different configuration.
    ConfigMismatch {
        /// Fingerprint stored in the envelope.
        expected: u64,
        /// Fingerprint of the trainer attempting the restore.
        actual: u64,
    },
    /// The trainer's client store rejected the snapshot or restore (a client
    /// was still checked out to a worker, or an id fell outside the
    /// population).
    Trainer(crate::population::TrainerError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            CheckpointError::ConfigMismatch { expected, actual } => write!(
                f,
                "snapshot belongs to a different run configuration \
                 (envelope fingerprint {expected:#018x}, trainer {actual:#018x})"
            ),
            CheckpointError::Trainer(e) => write!(f, "client store rejected the operation: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<crate::population::TrainerError> for CheckpointError {
    fn from(e: crate::population::TrainerError) -> Self {
        CheckpointError::Trainer(e)
    }
}

/// FNV-1a 64-bit hash, behind the run fingerprint. Not cryptographic.
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
