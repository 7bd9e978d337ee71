//! 2-D matrix multiplication and transpose.
//!
//! The matmul kernel splits its output rows over the workspace's
//! fork-join (`crate::split`) and keeps the inner loop in `k`-major order
//! so the `rhs` row is walked contiguously — the classic cache-friendly
//! ikj loop order.

use super::fork_rows;
use crate::{Result, Tensor, TensorError};

/// `lhs (m,k) x rhs (k,n) -> (m,n)`.
pub fn matmul(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
    let (ld, rd) = (lhs.dims(), rhs.dims());
    if ld.len() != 2 || rd.len() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            got: if ld.len() != 2 { ld.len() } else { rd.len() },
            expected: 2,
        });
    }
    let (m, k) = (ld[0], ld[1]);
    let (k2, n) = (rd[0], rd[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: ld.to_vec(),
            rhs: rd.to_vec(),
        });
    }

    let a = lhs.as_slice();
    let b = rhs.as_slice();
    let mut out = vec![0.0f32; m * n];

    // Work is the bytes the inner loop streams, one 4-byte `rhs` lane per
    // multiply-add; DESIGN.md ("Dependencies") has the measured fork point.
    let work = m * k * n * size_of::<f32>();
    fork_rows(&mut out, n, work, |first, rows| {
        for (i, out_row) in (first..).zip(rows.chunks_mut(n)) {
            matmul_row(&a[i * k..(i + 1) * k], b, out_row, n);
        }
    });

    Tensor::from_vec(out, &[m, n])
}

#[inline]
fn matmul_row(a_row: &[f32], b: &[f32], out_row: &mut [f32], n: usize) {
    for (kk, &a_ik) in a_row.iter().enumerate() {
        if a_ik == 0.0 {
            continue;
        }
        let b_row = &b[kk * n..(kk + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += a_ik * bv;
        }
    }
}

/// Transpose of a 2-D tensor.
pub fn transpose(t: &Tensor) -> Result<Tensor> {
    let d = t.dims();
    if d.len() != 2 {
        return Err(TensorError::RankMismatch {
            op: "transpose",
            got: d.len(),
            expected: 2,
        });
    }
    let (m, n) = (d[0], d[1]);
    let src = t.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = src[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n, m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::tests::with_shares;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn small_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular_matmul() {
        let a = t(&[1.0, 0.0, 2.0, -1.0, 3.0, 1.0], &[2, 3]); // 2x3
        let b = t(&[2.0, 1.0, 0.0, 1.0, -1.0, 0.0], &[3, 2]); // 3x2
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[0.0, 1.0, -3.0, 2.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.5, -2.0, 0.25, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn rank_checked() {
        let a = Tensor::zeros(&[6]);
        let b = Tensor::zeros(&[6, 1]);
        assert!(matmul(&a, &b).is_err());
    }

    /// At 1, 2 and 3 forced shares, every one of them holding rows.
    #[test]
    fn parallel_path_matches_sequential() {
        let (m, k, n) = (64, 64, 64);
        let a_data: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
        let b_data: Vec<f32> = (0..k * n).map(|i| ((i % 7) as f32 - 3.0) * 0.2).collect();
        let a = t(&a_data, &[m, k]);
        let b = t(&b_data, &[k, n]);
        for shares in [1, 2, 3] {
            let c = with_shares(shares, || a.matmul(&b).unwrap());
            for &(i, j) in &[(0usize, 0usize), (m - 1, n - 1), (m / 2, n / 3)] {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a_data[i * k + kk] * b_data[kk * n + j];
                }
                let got = c.as_slice()[i * n + j];
                assert!(
                    (got - acc).abs() < 1e-3,
                    "{shares} shares, ({i},{j}): {got} vs {acc}"
                );
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(at.transpose().unwrap(), a);
    }
}
