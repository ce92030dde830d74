//! # fedca-data
//!
//! Federated datasets for the FedCA reproduction.
//!
//! The paper trains on CIFAR-10, the Speech-Commands keyword-spotting set
//! (KWS), and CIFAR-100. None are redistributable inside this offline
//! build, so this crate generates **synthetic teacher-labelled datasets**
//! with the same shapes and class counts (see DESIGN.md, substitution 2):
//!
//! * [`synthetic::ImageTaskConfig`] — class-conditional low-frequency
//!   spatial patterns plus per-sample noise, standing in for CIFAR-10/100;
//! * [`synthetic::SequenceTaskConfig`] — class-conditional temporal motifs
//!   over feature channels, standing in for KWS spectrogram frames.
//!
//! What FedCA actually exercises is not the pixels but the *statistical
//! structure of the federation*: clients hold non-IID label distributions
//! drawn from a Dirichlet(α = 0.1) prior, exactly as in the paper
//! (§3.2.2, §5.1). [`PartitionSpec`] derives any client's shard from
//! `(seed, id)` alone, so a million-client population costs nothing until
//! a client is selected.

pub mod dataset;
pub mod partition;
pub mod sampler;
pub mod synthetic;

pub use dataset::InMemoryDataset;
pub use partition::PartitionSpec;
pub use sampler::BatchSampler;
