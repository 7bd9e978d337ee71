//! The workspace's one fork-join. Every parallel pass — the tensor
//! kernels that write in place, the delta compare, and the two byte
//! passes of a delivery (the fused encode and the receive verify, whose
//! CRC half is `viper_formats::split`) — is cut into contiguous, balanced
//! shares by the bytes it works through ([`share_count`]); the calling
//! thread runs the first share and one scoped thread runs each other.
//! Below two [`MIN_SHARE`]s nothing forks, exactly as on a one-core host.
//! Callers write disjoint outputs and combine results in share order, so
//! every result is the one-share pass's, whatever the core count.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// The smallest share worth a thread. A scoped spawn and join costs about
/// 50 µs on the reference host, and stitching a cut a microsecond; a
/// 2 MiB share takes 120 µs to checksum from cache and about 400 µs to
/// copy and checksum from DRAM. Measured there with one run of `n` bytes
/// in two shares against one: 2 MiB broke even, 4 MiB took 0.71× the
/// time, 32 MiB 0.55×.
pub const MIN_SHARE: usize = 2 << 20;

/// The host's usable cores (its affinity mask), read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How many shares a pass over `bytes` splits into: one per core, each at
/// least [`MIN_SHARE`] bytes, and never fewer than one.
pub fn share_count(bytes: usize) -> usize {
    #[cfg(test)]
    if let Some(shares) = tests::FORCED_SHARES.get() {
        return shares;
    }
    cores().min(bytes / MIN_SHARE).max(1)
}

/// The ranges of `shares` contiguous, balanced shares of `total` units,
/// in order; they tile `0..total`.
pub fn bounds(total: usize, shares: usize) -> impl Iterator<Item = Range<usize>> {
    let shares = shares.max(1);
    let cut = move |i: usize| (total as u128 * i as u128 / shares as u128) as usize;
    (0..shares).map(move |i| cut(i)..cut(i + 1))
}

/// Run `work` on every job: the first on the calling thread, each other
/// on a scoped thread of its own. Results come back in job order. One
/// job runs inline, with no thread at all.
pub fn fork_join<J: Send, R: Send>(jobs: Vec<J>, work: impl Fn(J) -> R + Sync) -> Vec<R> {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// The share count [`share_count`] returns on this thread, when
        /// forced by [`with_shares`].
        pub(super) static FORCED_SHARES: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Run `f` with every pass it starts on this thread split into
    /// exactly `shares` shares, whatever the sizes and the host.
    pub(crate) fn with_shares<T>(shares: usize, f: impl FnOnce() -> T) -> T {
        FORCED_SHARES.set(Some(shares));
        let out = f();
        FORCED_SHARES.set(None);
        out
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
        assert_eq!(with_shares(7, || share_count(0)), 7);
        assert_eq!(share_count(0), 1, "the override ends with its closure");
    }

    #[test]
    fn fork_join_keeps_job_order() {
        let out = fork_join((0..5).collect(), |i: u32| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn one_job_runs_inline_and_none_runs_nothing() {
        let caller = std::thread::current().id();
        let ran = fork_join(vec![9], |x: i32| (x, std::thread::current().id()));
        assert_eq!(ran, vec![(9, caller)]);
        assert!(fork_join(Vec::<i32>::new(), |_| -> i32 { panic!("no jobs") }).is_empty());
    }
}
