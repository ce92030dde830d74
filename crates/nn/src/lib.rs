//! # fedca-nn
//!
//! Neural-network substrate for the FedCA reproduction: layers with explicit,
//! hand-derived backward passes, *named* parameters, an SGD optimizer with
//! weight decay and FedProx's proximal term, and builders for the paper's
//! three model families (LeNet-5-style CNN, two-layer LSTM, and a
//! WideResNet-style residual network).
//!
//! Parameter **names** are first-class because FedCA's communication
//! optimization operates per named layer: eager transmission (paper §4.3)
//! decides layer-by-layer, and the paper's figures reference parameters like
//! `fc2.weight`, `rnn.weight_hh_l0`, and `conv3.0.residual.0.bias`. The model
//! builders in [`models`] reproduce that naming scheme.
//!
//! There is no autograd tape: every layer implements `forward` (caching what
//! its backward needs) and `backward` (accumulating parameter gradients and
//! returning the input gradient). This mirrors how the original system uses
//! PyTorch — plain SGD on feed-forward graphs — while keeping the hot path
//! allocation-light and the gradient math independently testable against
//! finite differences ([`gradcheck`]).
//!
//! The crate holds what the models run and nothing more. A layer has one
//! mode: there is no train/eval switch, and batch norm always normalizes
//! with batch statistics. Max pooling has one shape, 2×2 with stride 2.
//! Parameters are reached through two visitors in one order,
//! [`Layer::params`] and [`Layer::for_each_param`].

pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod models;
pub mod optim;
pub mod param;
pub mod workspace;

pub use layer::Layer;
pub use loss::{softmax_cross_entropy, softmax_cross_entropy_into};
pub use model::Model;
pub use optim::Sgd;
pub use param::Parameter;
pub use workspace::Workspace;
