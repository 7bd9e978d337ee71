//! Property tests for the collapse-to-latest coalescing queue.
//!
//! The queue is every lane's one pending send, so its contract is
//! load-bearing for delivery correctness:
//!
//! * the newest version pushed is never dropped — a push collapses the
//!   *older* pending entry, and a stale push supersedes *itself*;
//! * `pop` yields strictly increasing versions (no reordering, no
//!   duplicate delivery of a version);
//! * accounting is exact: every push is eventually popped or counted as
//!   superseded, exactly once — `pushed == popped + superseded`.

use proptest::prelude::*;
use viper_net::CoalesceQueue;

/// A workload: an interleaving of pushes (with possibly stale/duplicate
/// versions) and pops (`op == 1`).
fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..2, 0u64..40), 0..120)
}

proptest! {
    #[test]
    fn coalesce_queue_contract(script in ops()) {
        let mut q = CoalesceQueue::new();
        let mut pushed = 0u64;
        let mut dropped = 0u64;
        let mut popped = Vec::new();
        let mut newest_pushed: Option<u64> = None;
        for (op, version) in script {
            if op == 1 {
                if let Some((v, tag)) = q.pop() {
                    prop_assert_eq!(v, tag, "item travels with its version");
                    popped.push(v);
                }
            } else {
                pushed += 1;
                newest_pushed = Some(newest_pushed.map_or(version, |n| n.max(version)));
                dropped += u64::from(q.push(version, version).is_some());
            }
        }
        // Drain what's left.
        while let Some((v, _)) = q.pop() {
            popped.push(v);
        }

        // Pops are strictly increasing — never out of order, never twice.
        for pair in popped.windows(2) {
            prop_assert!(pair[0] < pair[1], "popped out of order: {:?}", popped);
        }
        // The newest version ever pushed is never lost: it was popped
        // (possibly pushed again and superseded by its own duplicate, but
        // delivered at least once).
        if let Some(newest) = newest_pushed {
            prop_assert_eq!(popped.last().copied(), Some(newest),
                "newest version {} must be delivered last", newest);
        }
        // Exact accounting: superseded() counts every drop, and every push
        // is either delivered or dropped — never both, never neither.
        prop_assert_eq!(q.superseded(), dropped, "push() returns what it counts");
        prop_assert_eq!(pushed, popped.len() as u64 + dropped,
            "pushed == popped + superseded");
    }

    #[test]
    fn monotone_pushes_never_lose_the_tail(n in 1u64..50) {
        // The delivery pattern: versions arrive in order, consumer drains
        // at the end. The queue must hold exactly the newest version and
        // have superseded the rest, each once, oldest first.
        let mut q = CoalesceQueue::new();
        let mut dropped = Vec::new();
        for v in 1..=n {
            dropped.extend(q.push(v, v).map(|(v, _)| v));
        }
        prop_assert_eq!(dropped, (1..n).collect::<Vec<_>>());
        prop_assert_eq!(q.len(), 1);
        prop_assert_eq!(q.pop(), Some((n, n)), "tail delivered through version n");
        prop_assert!(q.is_empty());
    }
}
