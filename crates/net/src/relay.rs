//! Relay-tree fan-out topology: the shape of cache-assisted multicast.
//!
//! A producer delivering one checkpoint to a fleet point-to-point pays
//! wire time (and retransmit state) linear in the consumer count. The
//! relay tree organizes consumers into a bounded-fan-out tree instead:
//! the producer ships each flow once to the tree's root(s); every relay
//! node re-serves the already-framed bytes to its children, so a
//! checkpoint crosses each shared link exactly once and the propagation
//! makespan grows with tree *depth* (~`log_f n`) rather than with `n`.
//!
//! This module is the pure shape: deterministic construction from a
//! member list ([`Topology::build`], rejecting a zero fan-out bound and
//! duplicate members with a typed [`TopologyError`]), and failure handling
//! ([`Topology::reparent`]) that re-homes a failed relay's children
//! without ever losing or duplicating a subtree member. The runtime that
//! drives flows over the tree lives in `viper-core`; the invariants live
//! here, where they are unit- and property-testable without a fabric.

use std::collections::HashMap;
use std::fmt;

/// Why a topology could not be built (or mutated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The fan-out bound was zero; a tree needs at least one child slot.
    ZeroFanout,
    /// The same node name appeared twice in the member list.
    DuplicateMember(String),
    /// The named node is not a member of this topology.
    UnknownMember(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ZeroFanout => write!(f, "fan-out bound must be at least 1"),
            TopologyError::DuplicateMember(n) => write!(f, "duplicate member: {n}"),
            TopologyError::UnknownMember(n) => write!(f, "unknown member: {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A bounded-fan-out relay tree (in general a forest) over named nodes.
///
/// Construction is deterministic: the same member list and fan-out bound
/// always produce the same tree, so a producer and its telemetry traces
/// agree across runs, thread counts, and telemetry settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    fanout: usize,
    members: Vec<String>,
    index: HashMap<String, usize>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl Topology {
    /// Build the canonical complete `fanout`-ary tree over `members` in
    /// list order (heap layout: the parent of member `i` is member
    /// `(i - 1) / fanout`). Rejects an empty fan-out bound and duplicate
    /// membership.
    pub fn build<S: AsRef<str>>(members: &[S], fanout: usize) -> Result<Topology, TopologyError> {
        if fanout == 0 {
            return Err(TopologyError::ZeroFanout);
        }
        let members: Vec<String> = members.iter().map(|m| m.as_ref().to_string()).collect();
        let mut index = HashMap::with_capacity(members.len());
        for (i, m) in members.iter().enumerate() {
            if index.insert(m.clone(), i).is_some() {
                return Err(TopologyError::DuplicateMember(m.clone()));
            }
        }
        let mut parent = vec![None; members.len()];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        for (i, slot) in parent.iter_mut().enumerate().skip(1) {
            let p = (i - 1) / fanout;
            *slot = Some(p);
            children[p].push(i);
        }
        Ok(Topology {
            fanout,
            members,
            index,
            parent,
            children,
        })
    }

    /// The configured fan-out bound.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the topology has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// All member names, in construction order.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: &str) -> bool {
        self.index.contains_key(node)
    }

    /// The roots — nodes the producer delivers to directly.
    pub fn roots(&self) -> Vec<&str> {
        self.members
            .iter()
            .enumerate()
            .filter(|(i, _)| self.parent[*i].is_none())
            .map(|(_, m)| m.as_str())
            .collect()
    }

    /// `node`'s children, in deterministic order. Empty for leaves and
    /// non-members.
    pub fn children_of(&self, node: &str) -> Vec<&str> {
        let Some(&i) = self.index.get(node) else {
            return Vec::new();
        };
        self.children[i]
            .iter()
            .map(|&c| self.members[c].as_str())
            .collect()
    }

    /// `node`'s parent, or `None` for roots and non-members.
    pub fn parent_of(&self, node: &str) -> Option<&str> {
        let &i = self.index.get(node)?;
        self.parent[i].map(|p| self.members[p].as_str())
    }

    /// Whether `node` relays to at least one child.
    pub fn is_relay(&self, node: &str) -> bool {
        self.index
            .get(node)
            .is_some_and(|&i| !self.children[i].is_empty())
    }

    /// `node`'s whole subtree in BFS order, starting with `node` itself.
    /// Empty for non-members.
    pub fn subtree_of(&self, node: &str) -> Vec<String> {
        let Some(&start) = self.index.get(node) else {
            return Vec::new();
        };
        let mut out = vec![self.members[start].clone()];
        let mut cursor = 0;
        while cursor < out.len() {
            let i = self.index[&out[cursor]];
            for &c in &self.children[i] {
                out.push(self.members[c].clone());
            }
            cursor += 1;
        }
        out
    }

    /// Number of levels (1 for a root-only tree; 0 when empty).
    pub fn depth(&self) -> usize {
        let mut max = 0;
        for i in 0..self.members.len() {
            let mut levels = 1;
            let mut cursor = i;
            while let Some(p) = self.parent[cursor] {
                cursor = p;
                levels += 1;
            }
            max = max.max(levels);
        }
        max
    }

    /// Remove `failed` and re-home its children: a failed mid-tree relay's
    /// children are adopted by their grandparent; a failed root's first
    /// child is promoted in its place, adopting its former siblings. Any
    /// fan-out overflow this adoption causes is cascaded deterministically
    /// down the adopter's first child, so the bound holds everywhere
    /// afterward. Returns the re-homed direct children (possibly empty).
    ///
    /// No member other than `failed` is ever lost, and none is duplicated
    /// — the property test in `crates/net/tests` pins this down.
    pub fn reparent(&mut self, failed: &str) -> Result<Vec<String>, TopologyError> {
        let Some(&fi) = self.index.get(failed) else {
            return Err(TopologyError::UnknownMember(failed.to_string()));
        };
        let moved: Vec<String> = self.children[fi]
            .iter()
            .map(|&c| self.members[c].clone())
            .collect();
        // Re-home by name to survive the index compaction below.
        let adopter: Option<String> = match self.parent[fi] {
            Some(p) => Some(self.members[p].clone()),
            None => moved.first().cloned(),
        };
        let mut pairs: Vec<(String, Option<String>)> = Vec::with_capacity(self.members.len() - 1);
        for (i, m) in self.members.iter().enumerate() {
            if i == fi {
                continue;
            }
            let p = if self.parent[i] == Some(fi) {
                // The failed node's parent adopts; a promoted first child
                // becomes a root itself.
                adopter.as_deref().filter(|a| *a != m).map(str::to_string)
            } else {
                self.parent[i].map(|p| self.members[p].clone())
            };
            pairs.push((m.clone(), p));
        }
        let mut rebuilt = Topology::from_edges(&pairs, self.fanout);
        rebuilt.cascade_overflow();
        debug_assert!(rebuilt
            .members
            .iter()
            .all(|m| rebuilt.children[rebuilt.index[m]].len() <= rebuilt.fanout));
        *self = rebuilt;
        Ok(moved)
    }

    /// A topology from explicit `(member, parent)` edges (`None` = root),
    /// for [`Topology::reparent`]'s rebuild, whose edges are correct by
    /// construction: no duplicates, orphans or cycles.
    fn from_edges(pairs: &[(String, Option<String>)], fanout: usize) -> Topology {
        let members: Vec<String> = pairs.iter().map(|(m, _)| m.clone()).collect();
        let index: HashMap<String, usize> = members
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), i))
            .collect();
        let mut parent = vec![None; members.len()];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        for (i, (_, p)) in pairs.iter().enumerate() {
            if let Some(p) = p {
                let pi = index[p];
                parent[i] = Some(pi);
                children[pi].push(i);
            }
        }
        Topology {
            fanout,
            members,
            index,
            parent,
            children,
        }
    }

    /// Push fan-out overflow down: while any node has more children than
    /// the bound, its excess children (beyond the first `fanout`) are
    /// re-attached under its first child. Each move strictly deepens the
    /// moved subtree, so the cascade terminates.
    fn cascade_overflow(&mut self) {
        loop {
            let Some(over) =
                (0..self.members.len()).find(|&i| self.children[i].len() > self.fanout)
            else {
                return;
            };
            let first = self.children[over][0];
            let excess: Vec<usize> = self.children[over].split_off(self.fanout);
            for c in excess {
                self.parent[c] = Some(first);
                self.children[first].push(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("c{i}")).collect()
    }

    #[test]
    fn build_is_a_complete_heap_shaped_tree() {
        let t = Topology::build(&names(7), 2).unwrap();
        assert_eq!(t.roots(), vec!["c0"]);
        assert_eq!(t.children_of("c0"), vec!["c1", "c2"]);
        assert_eq!(t.children_of("c1"), vec!["c3", "c4"]);
        assert_eq!(t.children_of("c2"), vec!["c5", "c6"]);
        assert_eq!(t.parent_of("c5"), Some("c2"));
        assert_eq!(t.depth(), 3);
        assert!(t.is_relay("c1"));
        assert!(!t.is_relay("c6"));
        assert_eq!(t.subtree_of("c1"), vec!["c1", "c3", "c4"]);
        assert_eq!(t.subtree_of("c0").len(), 7);
    }

    #[test]
    fn build_depth_is_logarithmic() {
        let t = Topology::build(&names(1000), 8).unwrap();
        assert_eq!(t.len(), 1000);
        assert!(t.depth() <= 5, "depth {} for 1000 @ fanout 8", t.depth());
        for m in t.members() {
            assert!(t.children_of(m).len() <= 8);
        }
    }

    #[test]
    fn build_rejects_bad_input() {
        assert_eq!(
            Topology::build(&["a", "b"], 0),
            Err(TopologyError::ZeroFanout)
        );
        assert_eq!(
            Topology::build(&["a", "b", "a"], 2),
            Err(TopologyError::DuplicateMember("a".into()))
        );
        let empty = Topology::build::<&str>(&[], 2).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.depth(), 0);
    }

    #[test]
    fn reparent_mid_tree_adopts_children_to_grandparent() {
        let mut t = Topology::build(&names(7), 2).unwrap();
        let moved = t.reparent("c1").unwrap();
        assert_eq!(moved, vec!["c3", "c4"]);
        assert!(!t.contains("c1"));
        assert_eq!(t.len(), 6);
        // c0 adopted c3/c4 (overflowed past fanout 2, cascaded under c2).
        for m in t.members() {
            assert!(t.children_of(m).len() <= 2, "fan-out bound after reparent");
        }
        let all = t.subtree_of("c0");
        assert_eq!(all.len(), 6, "no member lost: {all:?}");
    }

    #[test]
    fn reparent_root_promotes_first_child() {
        let mut t = Topology::build(&names(7), 2).unwrap();
        t.reparent("c0").unwrap();
        assert_eq!(t.roots(), vec!["c1"]);
        let reachable = t.subtree_of("c1");
        assert_eq!(reachable.len(), 6);
        for m in t.members() {
            assert!(t.children_of(m).len() <= 2);
        }
    }

    #[test]
    fn reparent_leaf_and_unknown() {
        let mut t = Topology::build(&names(3), 2).unwrap();
        assert_eq!(t.reparent("c2").unwrap(), Vec::<String>::new());
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.reparent("ghost"),
            Err(TopologyError::UnknownMember("ghost".into()))
        );
    }

    #[test]
    fn reparent_sole_member_leaves_an_empty_tree() {
        let mut t = Topology::build(&["solo"], 2).unwrap();
        t.reparent("solo").unwrap();
        assert!(t.is_empty());
        assert!(t.roots().is_empty());
    }
}
