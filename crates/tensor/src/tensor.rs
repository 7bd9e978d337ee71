//! The dense `f32` tensor type.

use crate::{ops, Initializer, Result, Shape, TensorError};
use rand::Rng;
use std::sync::Arc;

/// A contiguous, row-major, dense `f32` tensor.
///
/// This is the value type flowing through the whole Viper stack: layer
/// parameters, activations, gradients, and checkpoint payloads.
///
/// The elements live in one of two storages, both reference-counted:
/// cloning a tensor is a reference-count bump, never an element copy, and
/// the first `&mut` access of a tensor whose elements another holder
/// shares copies them out into a buffer of its own (copy-on-write), so no
/// write ever reaches another holder's elements. Most tensors own a
/// `Vec<f32>`. A tensor built by [`Tensor::from_shared`] is instead a
/// read-only view of a byte buffer (a received, checksum-verified wire
/// payload).
#[derive(Clone)]
pub struct Tensor {
    data: Storage,
    shape: Shape,
}

/// Where a tensor's elements live. `clone` bumps a reference count.
#[derive(Clone)]
enum Storage {
    Owned(Arc<Vec<f32>>),
    /// `len` little-endian `f32`s at byte `offset` of `buf`. The
    /// constructor ([`Tensor::from_shared`]) checks that the range is in
    /// bounds, that its address is 4-aligned, and that the host is
    /// little-endian; nothing in this module takes a `&mut` to `buf`, and
    /// no other holder can while this one exists, so the checks hold for
    /// the view's lifetime.
    Shared {
        buf: Arc<Vec<u8>>,
        offset: usize,
        len: usize,
    },
}

impl Storage {
    fn owned(elements: Vec<f32>) -> Storage {
        Storage::Owned(Arc::new(elements))
    }

    fn as_slice(&self) -> &[f32] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared { buf, offset, len } => {
                // SAFETY: `from_shared` checked that `offset + 4 * len`
                // bytes lie inside `buf`, that `buf[offset..]` is 4-aligned,
                // and that `f32`s are little-endian in memory, so the range
                // is `len` valid `f32`s (any bit pattern is one). The `Arc`
                // keeps `buf` alive and unmoved for the borrow of `self`,
                // and no other holder can mutate it: `Arc::get_mut` and
                // `Arc::try_unwrap` fail while this view holds a reference.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().add(*offset).cast(), *len) }
            }
        }
    }

    /// An owned buffer no other holder shares, copying the elements out
    /// first when a view or another clone shares them.
    fn make_mut(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared { .. } = self {
            *self = Storage::owned(self.as_slice().to_vec());
        }
        match self {
            Storage::Owned(v) => Arc::make_mut(v),
            Storage::Shared { .. } => unreachable!("a shared view was just copied out"),
        }
    }
}

impl PartialEq for Tensor {
    /// Same shape and same elements, whichever storage holds them.
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("data", &self.as_slice())
            .field("shape", &self.shape)
            .finish()
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
        Ok(Tensor {
            data: Storage::owned(data),
            shape,
        })
    }

    /// A read-only view of `dims`' elements stored as little-endian `f32`s
    /// at byte `offset` of `buf`, sharing the buffer instead of copying it.
    /// `None` when the range does not lie inside `buf`, when its address is
    /// not 4-byte aligned, or on a big-endian host: the caller then copies.
    /// Writes through the view copy its elements out first (see the type's
    /// docs); the view keeps `buf` alive.
    pub fn from_shared(buf: Arc<Vec<u8>>, offset: usize, dims: &[usize]) -> Option<Tensor> {
        let len = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))?;
        let end = len.checked_mul(4)?.checked_add(offset)?;
        let aligned = buf.as_ptr().wrapping_add(offset).cast::<f32>().is_aligned();
        if end > buf.len() || !aligned || cfg!(target_endian = "big") {
            return None;
        }
        Some(Tensor {
            data: Storage::Shared { buf, offset, len },
            shape: Shape::new(dims),
        })
    }

    /// Whether the elements are a view of a shared byte buffer
    /// ([`from_shared`](Self::from_shared)) rather than an owned buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared { .. })
    }

    /// Whether `self` and `other` read the very same elements: clones of
    /// one owned buffer, or views of one byte buffer at the same offset and
    /// length. Such tensors are bit-identical without reading them, because
    /// a write through either copies first. Equal elements in distinct
    /// storage are not the same storage.
    pub fn same_storage(&self, other: &Tensor) -> bool {
        match (&self.data, &other.data) {
            (Storage::Owned(a), Storage::Owned(b)) => Arc::ptr_eq(a, b),
            (
                Storage::Shared { buf, offset, len },
                Storage::Shared {
                    buf: other_buf,
                    offset: other_offset,
                    len: other_len,
                },
            ) => Arc::ptr_eq(buf, other_buf) && (offset, len) == (other_offset, other_len),
            _ => false,
        }
    }

    /// An all-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: Storage::owned(vec![0.0; shape.num_elements()]),
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
            data: Storage::owned(vec![value; shape.num_elements()]),
            shape,
        }
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let data = t.as_mut_slice();
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        t
    }

    /// A tensor initialised by `init` using the caller's RNG (deterministic
    /// when the RNG is seeded).
    pub fn init<R: Rng + ?Sized>(dims: &[usize], init: Initializer, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = Storage::owned(init.sample(&shape, rng));
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
        self.as_slice().len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutably borrow the underlying row-major data. A view of a shared
    /// buffer is copied out into an owned one first.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.make_mut()
    }

    /// Borrow the data as the raw bytes of the `f32` slice (native memory
    /// representation). Bit-pattern equality of two tensors is exactly
    /// byte equality of these views, which lets the delta differ run
    /// `memcmp`-class block compares instead of per-lane float compares.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        let data = self.as_slice();
        // SAFETY: f32 has no padding or invalid bit patterns when viewed
        // as bytes; length is len * size_of::<f32>() within one allocation.
        unsafe { std::slice::from_raw_parts(data.as_ptr().cast(), size_of_val(data)) }
    }

    /// Consume the tensor, returning its raw data (a view of a shared
    /// buffer is copied out).
    #[inline]
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(self.data.make_mut())
    }

    /// Size of the tensor payload in bytes (`4 * len`).
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }

    /// Element at a multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.as_slice()[self.shape.offset(index)?])
    }

    /// Set the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.as_mut_slice()[off] = value;
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
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: Storage::owned(ops::elementwise::map(self.as_slice(), f)),
            shape: self.shape.clone(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        ops::elementwise::map_inplace(self.as_mut_slice(), f);
    }

    /// Elementwise binary op against a same-shaped tensor.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(rhs, "zip")?;
        Ok(Tensor {
            data: Storage::owned(ops::elementwise::zip(self.as_slice(), rhs.as_slice(), f)),
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
        ops::elementwise::axpy(self.as_mut_slice(), alpha, rhs.as_slice());
        Ok(())
    }

    /// Multiply every element by a scalar, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(move |x| x * alpha)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        ops::reduce::sum(self.as_slice())
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        ops::reduce::max(self.as_slice())
    }

    /// Index of the maximum element in a flat view.
    pub fn argmax(&self) -> usize {
        ops::reduce::argmax(self.as_slice())
    }

    /// Dot product of two same-shaped tensors viewed flat.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32> {
        self.check_same_shape(rhs, "dot")?;
        Ok(ops::reduce::dot(self.as_slice(), rhs.as_slice()))
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        ops::reduce::dot(self.as_slice(), self.as_slice()).sqrt()
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
    fn a_clone_shares_its_storage_until_a_write_through_either_side_copies() {
        let ptr = |t: &Tensor| t.as_slice().as_ptr();
        let original = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let mut clone = original.clone();
        assert!(clone.same_storage(&original) && !clone.is_shared());
        assert_eq!(ptr(&clone), ptr(&original), "no element copy");
        // A write through the clone copies; the original keeps its bytes.
        clone.set(&[0], 9.0).unwrap();
        assert!(!clone.same_storage(&original));
        assert_ne!(ptr(&clone), ptr(&original));
        assert_eq!(
            (original.as_slice(), clone.as_slice()),
            (&[1.0, 2.0, 3.0][..], &[9.0, 2.0, 3.0][..])
        );
        // A write through the original side copies too, leaving the clone.
        let mut original = original;
        let kept = original.clone();
        original.map_inplace(|x| -x);
        assert_eq!(kept.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(original.as_slice(), &[-1.0, -2.0, -3.0]);
        // A buffer no other holder shares is written in place.
        let before = ptr(&original);
        original.as_mut_slice()[1] = 0.0;
        assert_eq!(ptr(&original), before);
        assert_eq!(original.into_vec(), vec![-1.0, 0.0, -3.0]);
    }

    #[test]
    fn same_storage_is_identity_not_equality() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(a, b);
        assert!(!a.same_storage(&b), "equal bytes in distinct buffers");
        assert!(a.same_storage(&a.clone()) && a.same_storage(&a.reshape(&[1, 2]).unwrap()));
        let buf = wire(0, &[1.0, 2.0, 1.0, 2.0]);
        let view = |offset, n| Tensor::from_shared(Arc::clone(&buf), offset, &[n]).unwrap();
        assert!(view(0, 2).same_storage(&view(0, 2)));
        assert_eq!(view(0, 2), view(8, 2));
        assert!(
            !view(0, 2).same_storage(&view(8, 2)),
            "one buffer, two offsets"
        );
        assert!(
            !view(0, 2).same_storage(&view(0, 1)),
            "one offset, two lengths"
        );
        assert!(!view(0, 2).same_storage(&a) && !a.same_storage(&view(0, 2)));
    }

    /// `values` as little-endian bytes behind `lead` bytes of padding, in
    /// a buffer to share.
    fn wire(lead: usize, values: &[f32]) -> Arc<Vec<u8>> {
        let mut bytes = vec![0xEE; lead];
        values
            .iter()
            .for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
        Arc::new(bytes)
    }

    #[test]
    fn from_shared_views_the_buffer_in_place() {
        let buf = wire(4, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = Tensor::from_shared(Arc::clone(&buf), 4, &[2, 3]).unwrap();
        assert!(t.is_shared());
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.as_bytes().as_ptr(), buf[4..].as_ptr());
        assert_eq!(t, Tensor::from_vec(t.as_slice().to_vec(), &[2, 3]).unwrap());
        assert_eq!(
            (t.len(), t.byte_len(), t.get(&[1, 0]).unwrap()),
            (6, 24, 4.0)
        );
        // A view of nothing is in bounds anywhere, even at the very end.
        assert!(Tensor::from_shared(Arc::clone(&buf), 28, &[0, 5])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn from_shared_refuses_what_it_cannot_view() {
        let buf = wire(4, &[1.0, 2.0]);
        // Past the end, by a byte or by a wrapping length.
        assert!(Tensor::from_shared(Arc::clone(&buf), 8, &[1, 1]).is_some());
        assert!(Tensor::from_shared(Arc::clone(&buf), 8, &[2]).is_none());
        assert!(Tensor::from_shared(Arc::clone(&buf), usize::MAX - 3, &[1]).is_none());
        assert!(Tensor::from_shared(Arc::clone(&buf), 0, &[usize::MAX, 2]).is_none());
        // Not 4-aligned: whichever of two neighbouring offsets is odd.
        let odd = if buf.as_ptr().align_offset(4) == 1 {
            0
        } else {
            1
        };
        assert!(Tensor::from_shared(Arc::clone(&buf), odd, &[1]).is_none());
        assert_eq!(Arc::strong_count(&buf), 1, "refusals keep no reference");
    }

    #[test]
    fn a_write_to_a_view_copies_it_out_and_leaves_the_buffer_and_siblings_alone() {
        let buf = wire(0, &[1.0, 2.0, 3.0, 4.0]);
        let view = || Tensor::from_shared(Arc::clone(&buf), 0, &[4]).unwrap();
        let sibling = view();
        let writes: [fn(&mut Tensor); 5] = [
            |t| t.as_mut_slice()[0] = 9.0,
            |t| t.set(&[0], 9.0).unwrap(),
            |t| t.map_inplace(|x| x + 8.0),
            |t| {
                t.axpy(
                    8.0,
                    &Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[4]).unwrap(),
                )
                .unwrap()
            },
            |t| *t = Tensor::from_vec(t.clone().into_vec(), &[4]).unwrap(),
        ];
        for write in writes {
            let mut t = view();
            let before = t.as_slice().as_ptr();
            write(&mut t);
            assert!(!t.is_shared());
            assert_ne!(t.as_slice().as_ptr(), before, "the write went to a copy");
            assert_eq!(sibling.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
            assert_eq!(&buf[..4], &1.0f32.to_le_bytes());
        }
        let mut t = view();
        t.set(&[3], -1.0).unwrap();
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, -1.0]);
        assert_eq!(view().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn a_clone_of_a_view_shares_its_elements() {
        let buf = wire(0, &[1.0, 2.0, 3.0]);
        let t = Tensor::from_shared(Arc::clone(&buf), 0, &[3]).unwrap();
        let c = t.clone();
        assert!(c.is_shared());
        assert_eq!(
            c.as_slice().as_ptr(),
            t.as_slice().as_ptr(),
            "no element copy"
        );
        assert_eq!(Arc::strong_count(&buf), 3);
        let r = t.reshape(&[1, 3]).unwrap();
        assert_eq!(r.as_slice().as_ptr(), t.as_slice().as_ptr());
        drop((t, r, c));
        assert_eq!(Arc::strong_count(&buf), 1, "the views released the buffer");
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
