//! # fedca-sim
//!
//! Virtual-time testbed standing in for the paper's 128-node EC2 cluster.
//!
//! The original evaluation runs on `c6i.large` clients throttled to
//! 13.7 Mbps with `wondershaper`, with *injected* heterogeneity (FedScale
//! speed ratios) and dynamicity (fast/slow toggling with Γ(2,40)/Γ(2,6)
//! durations and U(1,5) slowdowns — §5.1). Every one of those signals is a
//! model already, so this crate replaces wall-clock with a deterministic
//! virtual timeline while keeping the same distributions:
//!
//! * [`device`] — per-client piecewise-constant speed processes
//!   (heterogeneous base speed × dynamic fast/slow toggling) that integrate
//!   work into virtual seconds;
//! * [`network`] — bandwidth-limited links with FIFO queuing, so eager
//!   transmissions genuinely overlap with compute and contend with the
//!   final update upload;
//! * [`trace`] — FedScale-like heavy-tailed speed-ratio sampling;
//! * [`engine`] — round-completion arithmetic (partial aggregation waits
//!   for the earliest fraction of clients, §5.1's 90%);
//! * [`faults`] — seeded deterministic fault injection (crashes, worker
//!   panics, result loss/delay, bandwidth degradation, deadline slip) so
//!   chaos runs are exactly reproducible;
//! * [`stream`] — counter-based RNG stream derivation: every per-client
//!   stream is keyed by `(seed, domain, client id)`, so client state is
//!   rederivable on demand in any order.
//!
//! Virtual time is `f64` seconds ([`SimTime`]). Everything is deterministic
//! given client seeds, which is what makes the FL experiments reproducible
//! regardless of OS thread scheduling.

pub mod device;
pub mod engine;
pub mod faults;
pub mod network;
pub mod stream;
pub mod trace;

/// Virtual time in seconds since the start of the experiment.
pub type SimTime = f64;
