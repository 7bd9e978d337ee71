//! # viper-tensor
//!
//! Dense `f32` tensor substrate used by the Viper reproduction.
//!
//! The Viper paper trains and serves real DNN models (CANDLE NT3/TC1,
//! PtychoNN) through TensorFlow. This crate provides the minimal tensor
//! machinery a from-scratch training stack needs: row-major dense tensors,
//! shape/stride bookkeeping, elementwise and reduction kernels, matrix
//! multiplication, 1-D convolution/pooling (the CANDLE benchmarks are 1-D
//! convolutional networks), and deterministic random initialisation.
//!
//! [`split`] is the workspace's one fork-join. The kernels that write in
//! place (`matmul`, `conv1d`, `map_inplace`, `axpy`) fork over it once
//! their work fills two shares, bit-identically to the one-share run.
//!
//! ## Example
//!
//! ```
//! use viper_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

#![warn(missing_docs)]

mod error;
mod init;
mod shape;
mod tensor;

pub mod ops;
pub mod split;

pub use error::{Result, TensorError};
pub use init::Initializer;
pub use shape::Shape;
pub use tensor::Tensor;

#[cfg(test)]
mod tests {
    use crate::ops::{conv::conv1d, elementwise::map_inplace, fork_rows};
    use crate::split::{bounds, fork_join, tests::with_shares};
    use crate::Tensor;

    /// A map forked over balanced shares and concatenated in share order
    /// is the sequential map.
    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<i64> = (0..1000).collect();
        let want: Vec<i64> = (0..1000).map(|x| x * 2).collect();
        for shares in [1, 2, 3, 7] {
            let jobs: Vec<&[i64]> = bounds(v.len(), shares).map(|r| &v[r]).collect();
            let doubled = fork_join(jobs, |s| s.iter().map(|&x| x * 2).collect::<Vec<_>>());
            assert_eq!(doubled.concat(), want, "{shares} shares");
        }
    }

    /// Every row of a forked row pass is written once, by the share that
    /// owns it, with its index in the whole output.
    #[test]
    fn parallel_for_each_visits_every_chunk() {
        let want: Vec<f32> = (1..=600).flat_map(|i| [i as f32; 17]).collect();
        for shares in [1, 2, 3, 7] {
            let mut v = vec![0f32; 17 * 600];
            with_shares(shares, || {
                fork_rows(&mut v, 17, 0, |first, share| {
                    for (i, row) in (first + 1..).zip(share.chunks_mut(17)) {
                        row.fill(i as f32);
                    }
                })
            });
            assert_eq!(v, want, "{shares} shares");
        }
    }

    #[test]
    fn par_iter_mut_for_each_updates_in_place() {
        let want: Vec<f32> = (1..=5000).map(|x| x as f32).collect();
        for shares in [1, 2, 3, 7] {
            let mut v: Vec<f32> = (0..5000).map(|x| x as f32).collect();
            with_shares(shares, || map_inplace(&mut v, |x| x + 1.0));
            assert_eq!(v, want, "{shares} shares");
        }
    }

    /// At 2, 3 and 7 forced shares, more than rows or samples included, the
    /// kernels that fork write the bits of their one-share run.
    #[test]
    fn forked_kernels_are_bit_identical_to_one_share() {
        let wave = |dims: &[usize], f: f32| {
            let n = dims.iter().product();
            Tensor::from_vec((0..n).map(|i| (i as f32 * f).sin()).collect(), dims).unwrap()
        };
        let (x, w) = (wave(&[5, 40, 3], 0.41), wave(&[4, 3, 6], 1.7));
        let run = |a: &Tensor| {
            let (mut mapped, mut stepped) = (a.clone(), a.clone());
            mapped.map_inplace(|v| v.mul_add(1.7, -0.2).tanh());
            stepped.axpy(-0.01, &mapped).unwrap();
            let product = a.matmul(&wave(&[3, 9], 0.3)).unwrap();
            let outs = [product, conv1d(&x, &w, 3).unwrap(), mapped, stepped];
            let bits = outs.map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            bits.concat()
        };
        for a in [wave(&[7, 3], 0.9), wave(&[1, 3], 0.9)] {
            let one = with_shares(1, || run(&a));
            for shares in [2, 3, 7] {
                assert_eq!(with_shares(shares, || run(&a)), one, "{shares} shares");
            }
        }
    }
}
