//! # fedca-core
//!
//! The FedCA mechanism ([Lyu et al., ICPP '24]) and its baselines, built on
//! the workspace substrates (`fedca-nn` for real gradient computation,
//! `fedca-sim` for virtual-time system behaviour).
//!
//! ## What FedCA is
//!
//! FL clients run `K` local SGD iterations per round and upload the
//! accumulated update. FedCA grants each client **intra-round autonomy**:
//!
//! 1. **Statistical progress** ([`progress`], Eq. 1) quantifies how close
//!    the update accumulated after `i` iterations is to the full-round
//!    update: `P_i = cos(G_i, G_K) · min(‖G_i‖,‖G_K‖)/max(‖G_i‖,‖G_K‖)`.
//! 2. **Periodical sampling** ([`profiler`], §4.1) makes those curves
//!    available *a priori* and cheaply: profile only at anchor rounds (every
//!    F rounds) and only on a min(50%, 100)-parameter sample per layer.
//! 3. **Utility-guided early stopping** ([`early_stop`], §4.2, Eqs. 2–4)
//!    stops local training when the marginal cost (time, scaled by β below
//!    the FedBalancer-style deadline [`deadline`], 1 above it) exceeds the
//!    marginal statistical benefit read off the profiled curve.
//! 4. **Eager transmission with error feedback** ([`eager`], §4.3,
//!    Eqs. 5–6) uploads layers whose profiled progress crosses `T_e` before
//!    the round ends, overlapping communication with compute, and
//!    retransmits any layer whose final update diverges (cosine < `T_r`)
//!    from what was sent.
//!
//! [`algorithms::Scheme`] selects FedAvg, FedProx, FedAda, or FedCA (with
//! per-mechanism toggles for the paper's ablations), and [`runner::Trainer`]
//! drives multi-round experiments with clients running concurrently on real
//! threads while all timing flows through the deterministic virtual clock.
//!
//! [Lyu et al., ICPP '24]: https://doi.org/10.1145/3673038.3673049

pub mod algorithms;
pub mod checkpoint;
pub mod client;
pub mod config;
pub mod deadline;
pub mod eager;
pub mod early_stop;
pub mod executor;
pub mod metrics;
pub mod params;
pub mod population;
pub mod profiler;
pub mod progress;
pub mod runner;
pub mod server;
pub mod shard;
pub mod trace;
pub mod transport;
pub mod workload;

pub use algorithms::{FedCaOptions, Scheme};
pub use config::PopulationConfig;
pub use config::{FedCaConfig, FlConfig, ShardConfig};
pub use metrics::TrainerOutput;
pub use params::UpdateVec;
pub use population::{ClientFactory, ClientStore, TrainerError};
pub use progress::statistical_progress;
pub use runner::Trainer;
pub use shard::{ShardError, ShardPool};
pub use trace::{TraceConfig, TraceEvent, TraceRecord, TraceSink, Tracer};
pub use workload::{Workload, WorkloadSpec};
