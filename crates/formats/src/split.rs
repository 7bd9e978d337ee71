//! The CRC half of the byte passes: a batch of byte runs is cut into the
//! workspace's byte-balanced shares (`viper_tensor::split`), the shares
//! checksum their pieces in one fork-join, and the per-share CRCs are
//! stitched back with one [`crc32_combine`] per cut.
//!
//! The two byte passes of a delivery — the producer's fused copy-and-CRC
//! encode and the consumer's per-chunk verify — each fork once per batch:
//! once per encode flush, once per receive drain. The delta compare cuts
//! its runs the same way. Every result is identical to the one-share
//! pass, whatever the share count.

use crate::crc::{crc32, crc32_combine};
use std::ops::Range;
use viper_tensor::split::{bounds, fork_join};

/// The non-empty pieces of the concatenation of runs of `lens` units that
/// fall in `range`, in order: each is the index of the run it belongs to
/// and its range within that run.
pub(crate) fn cut(
    lens: impl IntoIterator<Item = usize>,
    range: Range<usize>,
) -> Vec<(usize, Range<usize>)> {
    let mut pieces = Vec::new();
    let mut at = 0usize;
    for (i, len) in lens.into_iter().enumerate() {
        let (lo, hi) = (at, at + len);
        at = hi;
        if hi <= range.start || len == 0 {
            continue;
        }
        if lo >= range.end {
            break;
        }
        pieces.push((i, range.start.max(lo) - lo..range.end.min(hi) - lo));
    }
    pieces
}

/// CRC32 of each of `runs`, computed in `shares` contiguous, byte-balanced
/// shares of their concatenation — one fork-join, cut inside a run where
/// the balance needs it, so one large run splits too. A run cut into
/// pieces is stitched with one [`crc32_combine`] per cut. Equal to
/// `runs.map(crc32)` for every share count.
pub fn crc32_runs(runs: &[&[u8]], shares: usize) -> Vec<u32> {
    let lens = || runs.iter().map(|run| run.len());
    let jobs: Vec<_> = bounds(lens().sum(), shares)
        .map(|range| cut(lens(), range))
        .collect();
    let partials = fork_join(jobs, |pieces| {
        let partial = |(run, piece): (usize, Range<usize>)| {
            (run, crc32(&runs[run][piece.clone()]), piece.len() as u64)
        };
        pieces.into_iter().map(partial).collect::<Vec<_>>()
    });
    // An empty run keeps the CRC of nothing, 0. A run's first piece sets
    // its CRC; each later piece is a cut, stitched on.
    let mut crcs = vec![0u32; runs.len()];
    let mut last = None;
    for (run, crc, len) in partials.into_iter().flatten() {
        crcs[run] = match last.replace(run) {
            Some(prev) if prev == run => crc32_combine(crcs[run], crc, len),
            _ => crc,
        };
    }
    crcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bytes(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn empty_runs_are_reported_once_wherever_they_sit() {
        let a = bytes(10, 1);
        let runs: Vec<&[u8]> = vec![&[], &a[..5], &[], &a[5..], &[]];
        for shares in 1..=4 {
            assert_eq!(
                crc32_runs(&runs, shares),
                runs.iter().map(|r| crc32(r)).collect::<Vec<_>>(),
                "{shares} shares"
            );
        }
        assert_eq!(crc32_runs(&[], 3), Vec::<u32>::new());
        assert_eq!(crc32_runs(&[&[]], 3), vec![crc32(b"")]);
    }

    proptest! {
        /// Split CRCs equal one CRC per run, for any run layout and any
        /// share count, including cuts inside a run and on its edges.
        #[test]
        fn split_crcs_equal_per_run_crcs(
            lens in prop::collection::vec(0usize..300, 0..8),
            shares in 1usize..7,
        ) {
            let data: Vec<Vec<u8>> =
                lens.iter().enumerate().map(|(i, &n)| bytes(n, i as u8)).collect();
            let runs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let want: Vec<u32> = runs.iter().map(|r| crc32(r)).collect();
            prop_assert_eq!(crc32_runs(&runs, shares), want);
        }
    }
}
