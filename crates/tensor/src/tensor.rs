//! The dense `f32` tensor type.

use crate::{ops, Initializer, Result, Shape, TensorError};
use rand::Rng;

/// A contiguous, row-major, dense `f32` tensor.
///
/// This is the value type flowing through the whole Viper stack: layer
/// parameters, activations, gradients, and checkpoint payloads.
#[derive(Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            data: self.data.clone(),
            shape: self.shape.clone(),
        }
    }

    /// Overwrites `self` in place: the element buffer is reused whenever
    /// its capacity suffices, so cloning into a tensor of the same size
    /// allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        self.shape.clone_from(&source.shape);
    }
}

impl Tensor {
    /// Build a tensor from raw data and a shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                got: data.len(),
                expected: shape.num_elements(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// An all-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.num_elements()],
            shape,
        }
    }

    /// An all-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.num_elements()],
            shape,
        }
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A tensor initialised by `init` using the caller's RNG (deterministic
    /// when the RNG is seeded).
    pub fn init<R: Rng + ?Sized>(dims: &[usize], init: Initializer, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = init.sample(&shape, rng);
        Tensor { data, shape }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents, e.g. `[batch, features]`.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow the data as the raw bytes of the `f32` slice (native memory
    /// representation). Bit-pattern equality of two tensors is exactly
    /// byte equality of these views, which lets the delta differ run
    /// `memcmp`-class block compares instead of per-lane float compares.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: f32 has no padding or invalid bit patterns when viewed
        // as bytes; length is len * size_of::<f32>() within one allocation.
        unsafe {
            std::slice::from_raw_parts(
                self.data.as_ptr() as *const u8,
                self.data.len() * std::mem::size_of::<f32>(),
            )
        }
    }

    /// Consume the tensor, returning its raw data.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Size of the tensor payload in bytes (`4 * len`).
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Element at a multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Set the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Reinterpret the data under a new shape with the same element count.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let new_shape = Shape::new(dims);
        if !self.shape.reshape_compatible(&new_shape) {
            return Err(TensorError::LengthMismatch {
                got: self.len(),
                expected: new_shape.num_elements(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: new_shape,
        })
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        Tensor {
            data: ops::elementwise::map(&self.data, f),
            shape: self.shape.clone(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        ops::elementwise::map_inplace(&mut self.data, f);
    }

    /// Elementwise binary op against a same-shaped tensor.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
        self.check_same_shape(rhs, "zip")?;
        Ok(Tensor {
            data: ops::elementwise::zip(&self.data, &rhs.data, f),
            shape: self.shape.clone(),
        })
    }

    /// Elementwise addition.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, |a, b| a * b)
    }

    /// In-place `self += alpha * rhs` (the BLAS `axpy` primitive used by the
    /// optimizers).
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<()> {
        self.check_same_shape(rhs, "axpy")?;
        ops::elementwise::axpy(&mut self.data, alpha, &rhs.data);
        Ok(())
    }

    /// Multiply every element by a scalar, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(move |x| x * alpha)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        ops::reduce::sum(&self.data)
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        ops::reduce::max(&self.data)
    }

    /// Index of the maximum element in a flat view.
    pub fn argmax(&self) -> usize {
        ops::reduce::argmax(&self.data)
    }

    /// Dot product of two same-shaped tensors viewed flat.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32> {
        self.check_same_shape(rhs, "dot")?;
        Ok(ops::reduce::dot(&self.data, &rhs.data))
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        ops::reduce::dot(&self.data, &self.data).sqrt()
    }

    /// 2-D matrix multiplication: `self (m,k) x rhs (k,n) -> (m,n)`.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        ops::matmul::matmul(self, rhs)
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> Result<Tensor> {
        ops::matmul::transpose(self)
    }

    fn check_same_shape(&self, rhs: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn clone_from_reuses_the_element_buffer() {
        let src = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let mut dst = Tensor::zeros(&[3, 2]);
        let buffer = dst.as_slice().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_slice().as_ptr(), buffer);
        // A larger source still yields an equal tensor (the buffer grows).
        let big = Tensor::full(&[4, 4], 2.0);
        dst.clone_from(&big);
        assert_eq!(dst, big);
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[3]).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).as_slice(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
        let eye = Tensor::eye(2);
        assert_eq!(eye.as_slice(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.dims(), &[3, 2]);
        assert!(t.reshape(&[7]).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let mut r1 = ChaCha8Rng::seed_from_u64(42);
        let mut r2 = ChaCha8Rng::seed_from_u64(42);
        let a = Tensor::init(&[4, 4], Initializer::GlorotUniform, &mut r1);
        let b = Tensor::init(&[4, 4], Initializer::GlorotUniform, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn byte_len_is_four_per_element() {
        assert_eq!(Tensor::zeros(&[10, 10]).byte_len(), 400);
    }
}
