//! Tensor kernels: elementwise maps, reductions, matmul, 1-D convolution.

pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod reduce;
