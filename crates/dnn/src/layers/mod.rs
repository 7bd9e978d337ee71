//! Neural-network layers.
//!
//! Everything the CANDLE NT3/TC1 and PtychoNN reproductions need: dense,
//! 1-D convolution, max-pooling, flatten, activations, and dropout.

mod activations;
mod batchnorm;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod pool;

pub use activations::{ReLU, Sigmoid, Softmax, Tanh};
pub use batchnorm::BatchNorm;
pub use conv::Conv1D;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::MaxPool1D;
