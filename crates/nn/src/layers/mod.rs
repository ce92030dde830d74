//! Layer implementations.

pub mod activation;
pub mod batchnorm;
pub mod conv;
pub mod flatten;
pub mod linear;
pub mod lstm;
pub mod pool;
pub mod residual;
pub mod sequential;

pub use activation::Relu;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use lstm::Lstm;
pub use pool::{AvgPool2d, MaxPool2d};
pub use residual::ResidualBlock;
pub use sequential::Sequential;
