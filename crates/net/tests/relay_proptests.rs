//! Property tests for the relay-tree topology invariants.
//!
//! The tree is load-bearing for delivery correctness: the producer sends
//! each update once per root and trusts a group ACK to mean "the whole
//! subtree installed it", so the shape itself must guarantee that
//!
//! * every consumer is reachable from a root exactly once (no member
//!   lost, none duplicated, no subtree overlap);
//! * no node fans out beyond the configured bound;
//! * re-parenting after a relay failure preserves both properties for
//!   every surviving member — losing or duplicating a subtree member
//!   there would silently break exactly-once install at the leaves.

use proptest::prelude::*;
use std::collections::BTreeSet;
use viper_net::Topology;

fn members(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("c{i}")).collect()
}

/// All members reachable from the roots, flattened. A well-formed tree
/// yields each member exactly once.
fn reachable(t: &Topology) -> Vec<String> {
    t.roots()
        .into_iter()
        .flat_map(|r| t.subtree_of(r))
        .collect()
}

fn assert_tree_invariants(t: &Topology) {
    let reached = reachable(t);
    assert_eq!(
        reached.len(),
        t.len(),
        "every member reachable exactly once"
    );
    let unique: BTreeSet<&String> = reached.iter().collect();
    assert_eq!(unique.len(), t.len(), "no member reached twice");
    for m in t.members() {
        assert!(
            t.children_of(m).len() <= t.fanout(),
            "fan-out bound violated at {m}"
        );
        // Parent/child views agree.
        for c in t.children_of(m) {
            assert_eq!(t.parent_of(c), Some(m.as_str()));
        }
    }
}

proptest! {
    #[test]
    fn built_trees_satisfy_the_invariants(n in 0usize..300, fanout in 1usize..9) {
        let t = Topology::build(&members(n), fanout).unwrap();
        assert_tree_invariants(&t);
        // The canonical build is a single tree (one root) when non-empty.
        prop_assert_eq!(t.roots().len(), usize::from(n > 0));
    }

    #[test]
    fn reparenting_never_loses_or_duplicates_members(
        n in 1usize..200,
        fanout in 1usize..7,
        failures in prop::collection::vec(0usize..200, 1..8),
    ) {
        let mut t = Topology::build(&members(n), fanout).unwrap();
        let mut alive: BTreeSet<String> = t.members().iter().cloned().collect();
        for pick in failures {
            if t.is_empty() {
                break;
            }
            let failed = t.members()[pick % t.len()].clone();
            let moved = t.reparent(&failed).unwrap();
            alive.remove(&failed);
            prop_assert!(!t.contains(&failed));
            for m in &moved {
                prop_assert!(t.contains(m), "re-homed child {} fell out of the tree", m);
            }
            let survivors: BTreeSet<String> = t.members().iter().cloned().collect();
            prop_assert_eq!(&survivors, &alive, "membership drifted after reparent");
            assert_tree_invariants(&t);
        }
    }
}
