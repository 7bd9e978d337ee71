//! Tensor kernels: elementwise maps, reductions, matmul, 1-D convolution.

pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod reduce;

use crate::split::{fork_join, share_count};

/// Run `body(first_row, rows)` over `out`, `row` elements to a row, in one
/// fork-join over at most [`share_count`]`(work)` equal runs of whole rows.
/// Each element is written by the one share that holds it, with the
/// one-share run's arithmetic, so the result is bit-identical.
pub(crate) fn fork_rows(
    out: &mut [f32],
    row: usize,
    work: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    let row = row.max(1);
    let per_share = (out.len() / row).div_ceil(share_count(work)).max(1);
    let jobs: Vec<_> = out.chunks_mut(per_share * row).enumerate().collect();
    fork_join(jobs, |(i, share)| body(i * per_share, share));
}
