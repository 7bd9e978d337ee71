//! One fork-join per byte pass: a batch of byte runs is cut into
//! contiguous, byte-balanced shares, the calling thread runs the first
//! share and one scoped thread runs each other, and the per-share CRCs are
//! stitched back with one [`crc32_combine`] per cut.
//!
//! The two byte passes of a delivery — the producer's fused copy-and-CRC
//! encode and the consumer's per-chunk verify — each fork once per batch
//! here: once per encode flush, once per receive drain. A share is at
//! least [`MIN_SHARE`] bytes, because a scoped spawn costs about as much
//! as checksumming 1 MiB; below two shares' worth nothing forks and the
//! caller's thread does the whole pass, exactly as a one-core host does. Helpers compute pure functions of their bytes:
//! every result is identical to the one-share pass, whatever the core
//! count, so nothing downstream can tell how a pass was split.

use crate::crc::{crc32, crc32_combine};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// The smallest share worth a thread. A scoped spawn and join costs about
/// 50 µs on the reference host, and stitching a cut a microsecond; a
/// 2 MiB share takes 120 µs to checksum from cache and about 400 µs to
/// copy and checksum from DRAM. Measured there with one run of `n` bytes
/// in two shares against one: 2 MiB broke even, 4 MiB took 0.71× the
/// time, 32 MiB 0.55×.
const MIN_SHARE: usize = 2 << 20;

/// The host's usable cores (its affinity mask), read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How many shares a pass over `bytes` splits into: one per core, each at
/// least 2 MiB, and never fewer than one.
pub fn share_count(bytes: usize) -> usize {
    cores().min(bytes / MIN_SHARE).max(1)
}

/// The byte ranges of `shares` contiguous, byte-balanced shares of
/// `total` bytes, in order; they tile `0..total`.
pub(crate) fn bounds(total: usize, shares: usize) -> impl Iterator<Item = Range<usize>> {
    let shares = shares.max(1);
    let cut = move |i: usize| (total as u128 * i as u128 / shares as u128) as usize;
    (0..shares).map(move |i| cut(i)..cut(i + 1))
}

/// The non-empty pieces of the concatenation of `runs` that fall in
/// `range`, each with the index of the run it belongs to, in order.
pub(crate) fn cut<'s>(runs: &[&'s [u8]], range: Range<usize>) -> Vec<(usize, &'s [u8])> {
    let mut pieces = Vec::new();
    let mut at = 0usize;
    for (i, run) in runs.iter().enumerate() {
        let (lo, hi) = (at, at + run.len());
        at = hi;
        if hi <= range.start || run.is_empty() {
            continue;
        }
        if lo >= range.end {
            break;
        }
        pieces.push((i, &run[range.start.max(lo) - lo..range.end.min(hi) - lo]));
    }
    pieces
}

/// Run `work` on every job: the first on the calling thread, each other
/// on a scoped thread of its own. Results come back in job order. One
/// job runs inline, with no thread at all.
pub(crate) fn fork_join<J: Send, R: Send>(jobs: Vec<J>, work: impl Fn(J) -> R + Sync) -> Vec<R> {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return Vec::new();
    };
    if jobs.len() == 0 {
        return vec![work(first)];
    }
    let work = &work;
    std::thread::scope(|scope| {
        let forked: Vec<_> = jobs.map(|job| scope.spawn(move || work(job))).collect();
        let mut results = Vec::with_capacity(forked.len() + 1);
        results.push(work(first));
        for handle in forked {
            match handle.join() {
                Ok(result) => results.push(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    })
}

/// CRC32 of each of `runs`, computed in `shares` contiguous, byte-balanced
/// shares of their concatenation — one fork-join, cut inside a run where
/// the balance needs it, so one large run splits too. A run cut into
/// pieces is stitched with one [`crc32_combine`] per cut. Equal to
/// `runs.map(crc32)` for every share count.
pub fn crc32_runs(runs: &[&[u8]], shares: usize) -> Vec<u32> {
    let total = runs.iter().map(|run| run.len()).sum();
    let jobs: Vec<_> = bounds(total, shares)
        .map(|range| cut(runs, range))
        .collect();
    let partials = fork_join(jobs, |pieces| {
        let partial = |(run, piece): (usize, &[u8])| (run, crc32(piece), piece.len() as u64);
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
    fn bounds_tile_the_total() {
        for (total, shares) in [
            (0, 1),
            (0, 3),
            (1, 2),
            (10, 3),
            (1 << 20, 2),
            (7, 7),
            (5, 9),
        ] {
            let ranges: Vec<_> = bounds(total, shares).collect();
            assert_eq!(ranges.len(), shares);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(total));
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn share_count_needs_two_minimum_shares_to_fork() {
        assert_eq!(share_count(0), 1);
        assert_eq!(share_count(2 * MIN_SHARE - 1), 1);
        assert_eq!(share_count(2 * MIN_SHARE), cores().min(2));
        assert!(share_count(usize::MAX) <= cores());
    }

    #[test]
    fn fork_join_keeps_job_order() {
        let out = fork_join((0..5).collect(), |i: u32| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert!(fork_join(Vec::<u32>::new(), |i| i).is_empty());
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
