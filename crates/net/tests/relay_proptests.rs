//! Property tests for the relay-tree topology invariants.
//!
//! The tree is load-bearing for delivery correctness: the producer sends
//! each update once per root and trusts a group ACK to mean "the whole
//! subtree installed it", so the shape itself must guarantee that
//!
//! * every consumer is reachable from the root exactly once (no member
//!   lost, none duplicated, no subtree overlap);
//! * no node fans out beyond the configured bound.
//!
//! A relay failure is healed by building the tree again over the
//! survivors, so the built tree is the only shape there is to check.

use proptest::prelude::*;
use std::collections::BTreeSet;
use viper_net::Topology;

fn members(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("c{i}")).collect()
}

/// All members reachable from the root. A well-formed tree yields each
/// member exactly once.
fn reachable(t: &Topology) -> Vec<String> {
    t.root().map(|r| t.subtree_of(r)).unwrap_or_default()
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
        prop_assert_eq!(t.root().is_some(), n > 0);
    }
}
