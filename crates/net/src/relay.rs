//! Relay-tree fan-out topology: the shape of cache-assisted multicast.
//!
//! A producer delivering one checkpoint to a fleet point-to-point pays
//! wire time (and retransmit state) linear in the consumer count. The
//! relay tree organizes consumers into a bounded-fan-out tree instead:
//! the producer ships each flow once to the tree's root; every relay
//! node re-serves the already-framed bytes to its children, so a
//! checkpoint crosses each shared link exactly once and the propagation
//! makespan grows with tree *depth* (~`log_f n`) rather than with `n`.
//!
//! This module is the pure shape: a tree is its ordered member list laid
//! out as a complete heap ([`Topology::build`]). Nothing repairs a tree in
//! place; a failure is healed by building again over the survivors.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Why a topology could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The fan-out bound was zero; a tree needs at least one child slot.
    ZeroFanout,
    /// The same node name appeared twice in the member list.
    DuplicateMember(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ZeroFanout => write!(f, "fan-out bound must be at least 1"),
            TopologyError::DuplicateMember(n) => write!(f, "duplicate member: {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A bounded-fan-out relay tree: the complete `fanout`-ary heap over its
/// member list. Member `i`'s parent is member `(i - 1) / fanout`, and its
/// children are members `fanout·i + 1 ..= fanout·i + fanout`, so the same
/// list always yields the same tree, across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    fanout: usize,
    members: Vec<String>,
    index: HashMap<String, usize>,
}

impl Topology {
    /// The tree over `members` in list order. Rejects an empty fan-out
    /// bound and duplicate membership.
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
        Ok(Topology {
            fanout,
            members,
            index,
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

    /// All member names, root first: the tree's breadth-first order.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: &str) -> bool {
        self.index.contains_key(node)
    }

    /// The root, which the producer delivers to directly (`None` if empty).
    pub fn root(&self) -> Option<&str> {
        self.members.first().map(String::as_str)
    }

    /// `node`'s children in member order (empty for leaves and non-members).
    pub fn children_of(&self, node: &str) -> &[String] {
        match self.index.get(node) {
            Some(&i) => &self.members[self.below(i..i + 1)],
            None => &[],
        }
    }

    /// `node`'s parent, or `None` for the root and non-members.
    pub fn parent_of(&self, node: &str) -> Option<&str> {
        let &i = self.index.get(node)?;
        (i > 0).then(|| self.members[(i - 1) / self.fanout].as_str())
    }

    /// `node`'s whole subtree in breadth-first order, starting with `node`
    /// itself. Empty for non-members.
    pub fn subtree_of(&self, node: &str) -> Vec<String> {
        let Some(&start) = self.index.get(node) else {
            return Vec::new();
        };
        // Each level of a heap subtree is one contiguous run of members.
        let mut out = Vec::new();
        let mut level = start..start + 1;
        while !level.is_empty() {
            out.extend_from_slice(&self.members[level.clone()]);
            level = self.below(level);
        }
        out
    }

    /// Number of levels (1 for a root-only tree; 0 when empty).
    pub fn depth(&self) -> usize {
        // The last member sits on the deepest level.
        let mut levels = usize::from(!self.members.is_empty());
        let mut i = self.members.len().saturating_sub(1);
        while i > 0 {
            i = (i - 1) / self.fanout;
            levels += 1;
        }
        levels
    }

    /// The children of members `level`, as one contiguous run.
    fn below(&self, level: Range<usize>) -> Range<usize> {
        let n = self.members.len();
        (self.fanout * level.start + 1).min(n)..(self.fanout * level.end + 1).min(n)
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
        assert_eq!(t.root(), Some("c0"));
        assert_eq!(t.children_of("c0"), ["c1", "c2"]);
        assert_eq!(t.children_of("c1"), ["c3", "c4"]);
        assert_eq!(t.children_of("c2"), ["c5", "c6"]);
        assert!(t.children_of("c6").is_empty());
        assert_eq!(t.parent_of("c5"), Some("c2"));
        assert_eq!(t.parent_of("c0"), None);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.subtree_of("c1"), vec!["c1", "c3", "c4"]);
        assert_eq!(t.subtree_of("c0"), names(7));
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
        assert_eq!(empty.root(), None);
        assert_eq!(empty.depth(), 0);
    }
}
