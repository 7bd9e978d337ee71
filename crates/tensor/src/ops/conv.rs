//! 1-D convolution and max-pooling kernels (channels-last layout).
//!
//! The CANDLE NT3/TC1 benchmarks reproduced by Viper are 1-D convolutional
//! networks over RNA-seq profiles, so the only convolution the stack needs
//! is `Conv1D`. Layout follows Keras: inputs are `[batch, length, in_ch]`,
//! kernels are `[k, in_ch, out_ch]`, outputs `[batch, out_len, out_ch]`
//! with *valid* padding.

use super::fork_rows;
use crate::{Result, Tensor, TensorError};

/// Output length of a valid 1-D convolution/pool.
#[inline]
pub fn out_len(input_len: usize, window: usize, stride: usize) -> usize {
    if input_len < window || stride == 0 {
        0
    } else {
        (input_len - window) / stride + 1
    }
}

fn check_conv_shapes(
    input: &Tensor,
    kernel: &Tensor,
    stride: usize,
) -> Result<(usize, usize, usize, usize, usize, usize)> {
    let idims = input.dims();
    let kdims = kernel.dims();
    if idims.len() != 3 {
        return Err(TensorError::RankMismatch {
            op: "conv1d",
            got: idims.len(),
            expected: 3,
        });
    }
    if kdims.len() != 3 {
        return Err(TensorError::RankMismatch {
            op: "conv1d kernel",
            got: kdims.len(),
            expected: 3,
        });
    }
    if stride == 0 {
        return Err(TensorError::InvalidArgument(
            "conv1d stride must be >= 1".into(),
        ));
    }
    let (batch, length, in_ch) = (idims[0], idims[1], idims[2]);
    let (k, k_in, out_ch) = (kdims[0], kdims[1], kdims[2]);
    if k_in != in_ch {
        return Err(TensorError::ShapeMismatch {
            op: "conv1d",
            lhs: idims.to_vec(),
            rhs: kdims.to_vec(),
        });
    }
    if k > length {
        return Err(TensorError::InvalidArgument(format!(
            "conv1d kernel width {k} exceeds input length {length}"
        )));
    }
    Ok((batch, length, in_ch, k, out_ch, out_len(length, k, stride)))
}

/// Forward valid 1-D convolution.
pub fn conv1d(input: &Tensor, kernel: &Tensor, stride: usize) -> Result<Tensor> {
    let (batch, _, in_ch, k, out_ch, olen) = check_conv_shapes(input, kernel, stride)?;
    let x = input.as_slice();
    let w = kernel.as_slice();
    let ilen = input.dims()[1];
    let mut out = vec![0.0f32; batch * olen * out_ch];

    // One sample per row, of `olen * out_ch * k * in_ch` multiply-adds,
    // each streaming one 4-byte kernel lane, as `matmul` counts them.
    let per_sample = olen * out_ch;
    let work = batch * per_sample * k * in_ch * size_of::<f32>();
    let body = |b: usize, out_b: &mut [f32]| {
        let x_b = &x[b * ilen * in_ch..(b + 1) * ilen * in_ch];
        for o in 0..olen {
            let start = o * stride;
            let out_pos = &mut out_b[o * out_ch..(o + 1) * out_ch];
            for kk in 0..k {
                let x_t = &x_b[(start + kk) * in_ch..(start + kk + 1) * in_ch];
                let w_k = &w[kk * in_ch * out_ch..(kk + 1) * in_ch * out_ch];
                for (c, &xv) in x_t.iter().enumerate() {
                    if xv == 0.0 {
                        continue;
                    }
                    let w_row = &w_k[c * out_ch..(c + 1) * out_ch];
                    for (ov, &wv) in out_pos.iter_mut().zip(w_row) {
                        *ov += xv * wv;
                    }
                }
            }
        }
    };

    fork_rows(&mut out, per_sample, work, |first, samples| {
        for (b, out_b) in (first..).zip(samples.chunks_mut(per_sample)) {
            body(b, out_b);
        }
    });

    Tensor::from_vec(out, &[batch, olen, out_ch])
}

/// Gradient of a valid conv1d w.r.t. the kernel.
///
/// `grad_out` must be `[batch, out_len, out_ch]`; returns `[k, in_ch, out_ch]`.
pub fn conv1d_grad_kernel(
    input: &Tensor,
    grad_out: &Tensor,
    k: usize,
    stride: usize,
) -> Result<Tensor> {
    let idims = input.dims();
    let gdims = grad_out.dims();
    if idims.len() != 3 || gdims.len() != 3 {
        return Err(TensorError::RankMismatch {
            op: "conv1d_grad_kernel",
            got: idims.len().min(gdims.len()),
            expected: 3,
        });
    }
    let (batch, ilen, in_ch) = (idims[0], idims[1], idims[2]);
    let (gb, olen, out_ch) = (gdims[0], gdims[1], gdims[2]);
    if gb != batch || olen != out_len(ilen, k, stride) {
        return Err(TensorError::ShapeMismatch {
            op: "conv1d_grad_kernel",
            lhs: idims.to_vec(),
            rhs: gdims.to_vec(),
        });
    }
    let x = input.as_slice();
    let g = grad_out.as_slice();
    let mut gw = vec![0.0f32; k * in_ch * out_ch];
    for b in 0..batch {
        let x_b = &x[b * ilen * in_ch..(b + 1) * ilen * in_ch];
        let g_b = &g[b * olen * out_ch..(b + 1) * olen * out_ch];
        for o in 0..olen {
            let start = o * stride;
            let g_pos = &g_b[o * out_ch..(o + 1) * out_ch];
            for kk in 0..k {
                let x_t = &x_b[(start + kk) * in_ch..(start + kk + 1) * in_ch];
                let gw_k = &mut gw[kk * in_ch * out_ch..(kk + 1) * in_ch * out_ch];
                for (c, &xv) in x_t.iter().enumerate() {
                    if xv == 0.0 {
                        continue;
                    }
                    let gw_row = &mut gw_k[c * out_ch..(c + 1) * out_ch];
                    for (gwv, &gv) in gw_row.iter_mut().zip(g_pos) {
                        *gwv += xv * gv;
                    }
                }
            }
        }
    }
    Tensor::from_vec(gw, &[k, in_ch, out_ch])
}

/// Gradient of a valid conv1d w.r.t. the input.
///
/// Returns `[batch, input_len, in_ch]`.
pub fn conv1d_grad_input(
    kernel: &Tensor,
    grad_out: &Tensor,
    input_len: usize,
    stride: usize,
) -> Result<Tensor> {
    let kdims = kernel.dims();
    let gdims = grad_out.dims();
    if kdims.len() != 3 || gdims.len() != 3 {
        return Err(TensorError::RankMismatch {
            op: "conv1d_grad_input",
            got: kdims.len().min(gdims.len()),
            expected: 3,
        });
    }
    let (k, in_ch, out_ch) = (kdims[0], kdims[1], kdims[2]);
    let (batch, olen, g_out_ch) = (gdims[0], gdims[1], gdims[2]);
    if g_out_ch != out_ch || olen != out_len(input_len, k, stride) {
        return Err(TensorError::ShapeMismatch {
            op: "conv1d_grad_input",
            lhs: kdims.to_vec(),
            rhs: gdims.to_vec(),
        });
    }
    let w = kernel.as_slice();
    let g = grad_out.as_slice();
    let mut gx = vec![0.0f32; batch * input_len * in_ch];
    for b in 0..batch {
        let g_b = &g[b * olen * out_ch..(b + 1) * olen * out_ch];
        let gx_b = &mut gx[b * input_len * in_ch..(b + 1) * input_len * in_ch];
        for o in 0..olen {
            let start = o * stride;
            let g_pos = &g_b[o * out_ch..(o + 1) * out_ch];
            for kk in 0..k {
                let w_k = &w[kk * in_ch * out_ch..(kk + 1) * in_ch * out_ch];
                let gx_t = &mut gx_b[(start + kk) * in_ch..(start + kk + 1) * in_ch];
                for (c, gxv) in gx_t.iter_mut().enumerate() {
                    let w_row = &w_k[c * out_ch..(c + 1) * out_ch];
                    let mut acc = 0.0f32;
                    for (&wv, &gv) in w_row.iter().zip(g_pos) {
                        acc += wv * gv;
                    }
                    *gxv += acc;
                }
            }
        }
    }
    Tensor::from_vec(gx, &[batch, input_len, in_ch])
}

/// Forward max-pool over the length dimension.
///
/// Returns the pooled tensor `[batch, out_len, ch]` plus the flat input
/// indices of each selected maximum (for the backward pass).
pub fn maxpool1d(input: &Tensor, window: usize, stride: usize) -> Result<(Tensor, Vec<u32>)> {
    let idims = input.dims();
    if idims.len() != 3 {
        return Err(TensorError::RankMismatch {
            op: "maxpool1d",
            got: idims.len(),
            expected: 3,
        });
    }
    if window == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument(
            "maxpool1d window/stride must be >= 1".into(),
        ));
    }
    let (batch, ilen, ch) = (idims[0], idims[1], idims[2]);
    if window > ilen {
        return Err(TensorError::InvalidArgument(format!(
            "maxpool1d window {window} exceeds input length {ilen}"
        )));
    }
    let olen = out_len(ilen, window, stride);
    let x = input.as_slice();
    let mut out = vec![0.0f32; batch * olen * ch];
    let mut idx = vec![0u32; batch * olen * ch];
    for b in 0..batch {
        for o in 0..olen {
            let start = o * stride;
            for c in 0..ch {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for t in start..start + window {
                    let flat = (b * ilen + t) * ch + c;
                    if x[flat] > best {
                        best = x[flat];
                        best_i = flat;
                    }
                }
                let o_flat = (b * olen + o) * ch + c;
                out[o_flat] = best;
                idx[o_flat] = best_i as u32;
            }
        }
    }
    Ok((Tensor::from_vec(out, &[batch, olen, ch])?, idx))
}

/// Backward max-pool: scatter `grad_out` back to the argmax positions.
pub fn maxpool1d_backward(
    grad_out: &Tensor,
    indices: &[u32],
    input_dims: &[usize],
) -> Result<Tensor> {
    if grad_out.len() != indices.len() {
        return Err(TensorError::LengthMismatch {
            got: indices.len(),
            expected: grad_out.len(),
        });
    }
    let mut gx = Tensor::zeros(input_dims);
    let g = grad_out.as_slice();
    let gx_data = gx.as_mut_slice();
    for (&gv, &i) in g.iter().zip(indices) {
        gx_data[i as usize] += gv;
    }
    Ok(gx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn out_len_formula() {
        assert_eq!(out_len(10, 3, 1), 8);
        assert_eq!(out_len(10, 3, 2), 4);
        assert_eq!(out_len(3, 3, 1), 1);
        assert_eq!(out_len(2, 3, 1), 0);
        assert_eq!(out_len(4, 2, 0), 0);
    }

    #[test]
    fn conv1d_single_channel_matches_hand_computation() {
        // input length 4, 1 channel; kernel width 2 -> output length 3.
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 4, 1]);
        let w = t(&[1.0, -1.0], &[2, 1, 1]);
        let y = conv1d(&x, &w, 1).unwrap();
        // y[o] = x[o] - x[o+1]
        assert_eq!(y.as_slice(), &[-1.0, -1.0, -1.0]);
    }

    #[test]
    fn conv1d_multichannel() {
        // 1 sample, length 3, 2 in channels; kernel 1x2x2 (pointwise mix).
        let x = t(&[1.0, 10.0, 2.0, 20.0, 3.0, 30.0], &[1, 3, 2]);
        let w = t(&[1.0, 0.0, 0.0, 1.0], &[1, 2, 2]); // identity channel mix
        let y = conv1d(&x, &w, 1).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv1d_stride_two() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1, 5, 1]);
        let w = t(&[1.0, 1.0], &[2, 1, 1]);
        let y = conv1d(&x, &w, 2).unwrap();
        assert_eq!(y.dims(), &[1, 2, 1]);
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn conv1d_shape_errors() {
        let x = t(&[0.0; 8], &[1, 4, 2]);
        let w_bad_ch = t(&[0.0; 6], &[2, 3, 1]);
        assert!(conv1d(&x, &w_bad_ch, 1).is_err());
        let w_too_wide = t(&[0.0; 10], &[5, 2, 1]);
        assert!(conv1d(&x, &w_too_wide, 1).is_err());
        let w = t(&[0.0; 4], &[2, 2, 1]);
        assert!(conv1d(&x, &w, 0).is_err());
    }

    /// Finite-difference check of both conv gradients.
    #[test]
    fn conv1d_gradients_match_finite_differences() {
        let x = t(&[0.5, -0.3, 0.8, 0.1, -0.6, 0.9], &[1, 6, 1]);
        let w = t(&[0.2, -0.5, 0.7], &[3, 1, 1]);
        let stride = 1;
        // Loss = sum(conv(x, w)); dL/dy = ones.
        let y = conv1d(&x, &w, stride).unwrap();
        let gy = Tensor::ones(y.dims());
        let gw = conv1d_grad_kernel(&x, &gy, 3, stride).unwrap();
        let gx = conv1d_grad_input(&w, &gy, 6, stride).unwrap();

        let eps = 1e-3;
        // Check dL/dw numerically.
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let lp = conv1d(&x, &wp, stride).unwrap().sum();
            let lm = conv1d(&x, &wm, stride).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((gw.as_slice()[i] - num).abs() < 1e-2, "gw[{i}]");
        }
        // Check dL/dx numerically.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = conv1d(&xp, &w, stride).unwrap().sum();
            let lm = conv1d(&xm, &w, stride).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((gx.as_slice()[i] - num).abs() < 1e-2, "gx[{i}]");
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let x = t(&[1.0, 5.0, 2.0, 8.0, 3.0, 0.0], &[1, 6, 1]);
        let (y, idx) = maxpool1d(&x, 2, 2).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 8.0, 3.0]);
        assert_eq!(idx, vec![1, 3, 4]);

        let gy = t(&[1.0, 2.0, 3.0], &[1, 3, 1]);
        let gx = maxpool1d_backward(&gy, &idx, &[1, 6, 1]).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 1.0, 0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn maxpool_rejects_bad_params() {
        let x = t(&[0.0; 4], &[1, 4, 1]);
        assert!(maxpool1d(&x, 0, 1).is_err());
        assert!(maxpool1d(&x, 2, 0).is_err());
        assert!(maxpool1d(&x, 5, 1).is_err());
    }
}
