//! Experiment configuration, mirroring the paper's §5.1 hyperparameters.

use fedca_compress::Compression;
use serde::{Deserialize, Serialize};

pub use fedca_sim::faults::FaultConfig;

pub use crate::trace::TraceConfig;

/// Federation-level configuration shared by all schemes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlConfig {
    /// Total clients in the population (paper: 128).
    pub n_clients: usize,
    /// Clients selected per round.
    pub clients_per_round: usize,
    /// Local iterations per round `K` (paper: 125).
    pub local_iters: usize,
    /// Minibatch size (paper: 50).
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Fraction of earliest uploads the server waits for (paper: 0.9).
    pub aggregation_fraction: f64,
    /// Dirichlet concentration for the non-IID partition (paper: 0.1).
    pub dirichlet_alpha: f64,
    /// Master seed for everything (partition, init, device timelines).
    pub seed: u64,
    /// Enable device heterogeneity (FedScale-like base speeds).
    pub heterogeneity: bool,
    /// Enable device dynamicity (fast/slow gamma toggling).
    pub dynamicity: bool,
    /// Update compression on the upload path (§2.2 baselines: deterministic
    /// int8, QSGD-style stochastic quantization, top-k
    /// sparsification — all with error feedback). Applies to both the final
    /// payload and eager per-layer transmissions; the priced wire bytes are
    /// the exact encoded lengths. Default: none (fp32, as in the paper).
    #[serde(default)]
    pub compression: Compression,
    /// Deterministic fault injection (crashes, worker panics, result
    /// loss/delay, bandwidth degradation, deadline slip). The default is
    /// inert: no fault is ever injected and trajectories are byte-identical
    /// to a build without the fault layer.
    #[serde(default)]
    pub faults: FaultConfig,
    /// Structured tracing of the round pipeline (`core::trace`). Disabled
    /// by default; when off the journal records nothing and the hot path
    /// pays a single branch.
    #[serde(default)]
    pub trace: TraceConfig,
    /// Virtual-population residency policy (`core::population`). Purely
    /// operational — it bounds how many hydrated clients stay in memory and
    /// never affects the trajectory, so (like trace) it is excluded from the
    /// run fingerprint.
    #[serde(default)]
    pub population: PopulationConfig,
    /// Multi-process sharded execution (`core::shard`). Topology-neutral by
    /// construction — the coordinator folds reports in selection-ordinal
    /// order, so any shard/worker layout produces byte-identical records,
    /// parameters, and canonical traces. Like trace/population, this section
    /// is excluded from the run fingerprint.
    #[serde(default)]
    pub shard: ShardConfig,
}

/// Sharded-execution topology and its one watchdog.
///
/// `n_shards == 0` (the default) keeps the single-process in-memory worker
/// pool; any positive value spawns that many shard processes, and client
/// `id` runs on shard `id % n_shards`. A config written when this struct
/// still carried the retired resend protocol's, heartbeat's, placement's and
/// separate timeouts' keys loads with those keys ignored
/// (`tests/fixtures/fl_config_pr14.json`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Shard processes to spawn; 0 = in-process execution.
    #[serde(default)]
    pub n_shards: usize,
    /// The one bound on how long the coordinator waits on a shard child, in
    /// seconds: for a spawned child to connect, for its `Init`/`Hello`
    /// handshake, for each socket write to it, and for progress while it
    /// owes work. A child that overruns it ends the run: the trainer
    /// panics with an error that names the shard and the check. Zero,
    /// negative or non-finite → 30 s; capped at one day.
    #[serde(default)]
    pub io_timeout_secs: f64,
    /// Extra argv for spawned shard children. Test harnesses re-enter their
    /// own binary through libtest and need `[test_name, "--exact",
    /// "--nocapture"]`; standalone binaries leave this empty and gate on
    /// `shard::maybe_run_child()` instead.
    #[serde(default)]
    pub child_args: Vec<String>,
}

impl ShardConfig {
    /// Effective coordinator I/O timeout. The cap keeps every
    /// `Instant::now() + timeout` deadline representable.
    pub fn io_timeout(&self) -> std::time::Duration {
        let secs = self.io_timeout_secs;
        let secs = if secs > 0.0 && secs.is_finite() {
            secs.min(86_400.0)
        } else {
            30.0
        };
        std::time::Duration::from_secs_f64(secs)
    }
}

/// Residency policy for the lazy client store.
///
/// Client state is rederivable on demand from `(seed, id)` counter streams,
/// so only the selected cohort ever *needs* to be resident; this section
/// controls how much of it is cached between rounds.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Maximum hydrated clients kept resident after a round; least-recently
    /// selected clients are evicted first (their mutated state moves to a
    /// compact snapshot overlay). 0 means unbounded — every hydrated client
    /// stays resident, matching the old eager path's memory behaviour.
    #[serde(default)]
    pub cache_clients: usize,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            n_clients: 128,
            clients_per_round: 16,
            local_iters: 125,
            batch_size: 50,
            lr: 0.01,
            weight_decay: 0.01,
            aggregation_fraction: 0.9,
            dirichlet_alpha: 0.1,
            seed: 1,
            heterogeneity: true,
            dynamicity: true,
            compression: Compression::None,
            faults: FaultConfig::none(),
            trace: TraceConfig::disabled(),
            population: PopulationConfig::default(),
            shard: ShardConfig::default(),
        }
    }
}

impl FlConfig {
    /// A reduced-scale configuration for fast experiments and CI: fewer
    /// clients and iterations; every mechanism still exercises the same
    /// code paths.
    pub fn scaled() -> Self {
        FlConfig {
            n_clients: 32,
            clients_per_round: 8,
            local_iters: 40,
            batch_size: 16,
            ..Self::default()
        }
    }
}

/// FedCA-specific knobs (paper defaults from §5.1).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FedCaConfig {
    /// Profile once every this many participations of that client (paper:
    /// every 10 rounds; DESIGN.md §4). A client's first participation is
    /// always an anchor; 0 never profiles.
    pub profile_period: usize,
    /// Marginal-cost ratio β applied before the deadline (paper: 0.01).
    pub beta: f64,
    /// Eager-transmission progress threshold `T_e` (paper: 0.95).
    pub eager_threshold: f32,
    /// Retransmission cosine threshold `T_r` (paper: 0.6).
    pub retransmit_threshold: f32,
}

impl Default for FedCaConfig {
    fn default() -> Self {
        FedCaConfig {
            profile_period: 10,
            beta: 0.01,
            eager_threshold: 0.95,
            retransmit_threshold: 0.6,
        }
    }
}

/// FedProx's proximal weight (paper: recommended 0.01).
pub const FEDPROX_MU: f32 = 0.01;

/// FedAda's cost/benefit trade-off factor (paper: recommended 0.5).
pub const FEDADA_THETA: f64 = 0.5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_5_1() {
        let c = FlConfig::default();
        assert_eq!(c.n_clients, 128);
        assert_eq!(c.local_iters, 125);
        assert_eq!(c.batch_size, 50);
        assert!((c.aggregation_fraction - 0.9).abs() < 1e-12);
        assert!((c.dirichlet_alpha - 0.1).abs() < 1e-12);
        let f = FedCaConfig::default();
        assert_eq!(f.profile_period, 10);
        assert!((f.beta - 0.01).abs() < 1e-12);
        assert!((f.eager_threshold - 0.95).abs() < 1e-7);
        assert!((f.retransmit_threshold - 0.6).abs() < 1e-7);
    }

    #[test]
    fn configs_serialize_round_trip() {
        let c = FlConfig::scaled();
        let json = serde_json::to_string(&c).unwrap();
        let back: FlConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_clients, c.n_clients);
        assert_eq!(back.seed, c.seed);
        assert!(back.faults.is_inert());
    }

    #[test]
    fn shard_section_defaults_in_process_with_a_sane_bound() {
        let c = FlConfig::default();
        assert_eq!(c.shard.n_shards, 0);
        assert_eq!(c.shard.io_timeout(), std::time::Duration::from_secs(30));
        // Older configs without a "shard" key parse to the same default.
        let back: FlConfig = serde_json::from_str("{\"n_clients\":4,\"clients_per_round\":2,\"local_iters\":1,\"batch_size\":1,\"lr\":0.1,\"weight_decay\":0.0,\"aggregation_fraction\":0.9,\"dirichlet_alpha\":0.1,\"seed\":1,\"heterogeneity\":false,\"dynamicity\":false}").unwrap();
        assert_eq!(back.shard, ShardConfig::default());
    }

    #[test]
    fn io_timeout_is_finite_and_capped_for_any_setting() {
        let timeout = |io_timeout_secs| {
            ShardConfig {
                io_timeout_secs,
                ..ShardConfig::default()
            }
            .io_timeout()
        };
        let secs = std::time::Duration::from_secs;
        assert_eq!(timeout(f64::INFINITY), secs(30));
        assert_eq!(timeout(f64::NAN), secs(30));
        assert_eq!(timeout(-1.0), secs(30));
        assert_eq!(timeout(1e300), secs(86_400));
        assert_eq!(timeout(0.5), std::time::Duration::from_millis(500));
        // JSON `1e999` parses to +inf, which takes the default too.
        let cfg: ShardConfig = serde_json::from_str(r#"{"io_timeout_secs":1e999}"#).unwrap();
        assert_eq!(cfg.io_timeout(), secs(30));
        // A capped deadline is representable.
        let _ = std::time::Instant::now() + timeout(1e300);
    }

    #[test]
    fn fault_section_defaults_to_inert_and_round_trips() {
        let c = FlConfig {
            faults: FaultConfig::chaos(3),
            ..FlConfig::scaled()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: FlConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, c.faults);
        assert!(FlConfig::default().faults.is_inert());
    }
}
