//! Producer-side distribution state: the relay tree over attached
//! consumers.
//!
//! [`Distribution`] owns the deployment's current [`Topology`] and keeps
//! it deterministic with one build rule: members sorted, relays that
//! failed (demoted) last. The tree is rebuilt only when the
//! attached-consumer set changes, so repeated saves see the same shape
//! regardless of attach order, reactor thread count, or telemetry
//! settings. A relay failure ([`Distribution::note_failed`]) rebuilds by
//! the same rule without the failed node, and demotes it, so a flaky
//! consumer can rejoin the fleet without being handed a subtree again.

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::Mutex;
use viper_net::Topology;

/// The deployment's relay-tree state. Constructed once per deployment
/// (held in the shared context); all methods are callable from any
/// thread. Empty until the first relay-tree delivery
/// [`refresh`](Distribution::refresh)es it, so every node is a leaf
/// without a relay fan-out.
#[derive(Default)]
pub(crate) struct Distribution {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    topology: Option<Topology>,
    /// Members demoted to leaf duty after failing as relays.
    demoted: HashSet<String>,
}

impl Inner {
    /// The build rule: the tree over `members` sorted, demoted members
    /// last, so failed relays land in the deep (leaf) positions.
    fn rebuild(&mut self, mut members: Vec<String>, fanout: usize) {
        members.sort();
        members.sort_by_key(|m| self.demoted.contains(m));
        self.topology = Some(Topology::build(&members, fanout).expect("unique member list"));
    }
}

impl Distribution {
    /// Bring the topology — a tree of the deployment's `fanout` — up to
    /// date with the attached-consumer set and return its one delivery
    /// group: every member, root first (breadth-first order). Returns
    /// `None` when fewer than two consumers are attached — the direct path
    /// is strictly simpler there.
    pub(crate) fn refresh(
        &self,
        consumers: &[String],
        fanout: NonZeroUsize,
    ) -> Option<Vec<String>> {
        if consumers.len() < 2 {
            return None;
        }
        let mut inner = self.inner.lock().unwrap();
        let current = inner
            .topology
            .as_ref()
            .filter(|t| t.len() == consumers.len() && consumers.iter().all(|c| t.contains(c)));
        if current.is_none() {
            inner.rebuild(consumers.to_vec(), fanout.get());
        }
        Some(inner.topology.as_ref()?.members().to_vec())
    }

    /// The nodes `node` currently relays to (empty for leaves, unknown
    /// nodes, and before any relay-tree delivery).
    pub(crate) fn children_of(&self, node: &str) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let children = inner.topology.as_ref().map(|t| t.children_of(node));
        children.unwrap_or_default().to_vec()
    }

    /// `node`'s whole current subtree, `node` first (empty for unknown
    /// nodes and before any relay-tree delivery).
    pub(crate) fn subtree_of(&self, node: &str) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let subtree = inner.topology.as_ref().map(|t| t.subtree_of(node));
        subtree.unwrap_or_default()
    }

    /// Record a relay failure: demote `node` to leaf duty and rebuild the
    /// tree over the current members without it. It rejoins the tree, as a
    /// leaf, at the next refresh that finds it attached.
    pub(crate) fn note_failed(&self, node: &str) {
        let mut inner = self.inner.lock().unwrap();
        inner.demoted.insert(node.to_string());
        if let Some(t) = inner.topology.take() {
            let survivors = t.members().iter().filter(|m| *m != node).cloned();
            inner.rebuild(survivors.collect(), t.fanout());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("c{i}")).collect()
    }

    fn fanout(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn disabled_or_tiny_fleets_take_the_direct_path() {
        // Never refreshed (no relay fan-out): every node is a leaf.
        let d = Distribution::default();
        assert!(d.children_of("c0").is_empty());
        assert!(d.refresh(&names(1), fanout(4)).is_none());
        assert!(d.refresh(&[], fanout(4)).is_none());
        assert!(d.children_of("c0").is_empty());
    }

    #[test]
    fn refresh_is_deterministic_and_stable_across_saves() {
        let d = Distribution::default();
        let mut shuffled = names(7);
        shuffled.reverse();
        let a = d.refresh(&shuffled, fanout(2)).unwrap();
        let b = d.refresh(&names(7), fanout(2)).unwrap();
        assert_eq!(a, b, "same member set, same group, any order");
        assert_eq!(a, names(7), "sorted order puts c0 at the root");
        assert_eq!(d.children_of("c0"), vec!["c1", "c2"]);
        assert_eq!(d.subtree_of("c1"), vec!["c1", "c3", "c4"]);
    }

    #[test]
    fn membership_change_rebuilds() {
        let d = Distribution::default();
        d.refresh(&names(4), fanout(2)).unwrap();
        let group = d.refresh(&names(6), fanout(2)).unwrap();
        assert_eq!(group.len(), 6);
    }

    #[test]
    fn failure_reparents_in_place_and_demotes() {
        let d = Distribution::default();
        d.refresh(&names(7), fanout(2)).unwrap();
        d.note_failed("c1");
        // The failed relay's children are re-parented at once, by a
        // rebuild over the survivors...
        assert!(d.children_of("c1").is_empty());
        assert_eq!(d.children_of("c0"), vec!["c2", "c3"]);
        // ...which a same-membership refresh keeps...
        let survivors: Vec<String> = names(7).into_iter().filter(|n| n != "c1").collect();
        let group = d.refresh(&survivors, fanout(2)).unwrap();
        assert_eq!(group, survivors);
        // ...and when c1 rejoins, the rebuild keeps it out of relay duty.
        let group = d.refresh(&names(7), fanout(2)).unwrap();
        assert_eq!(group.last().map(String::as_str), Some("c1"));
        assert!(
            d.children_of("c1").is_empty(),
            "demoted member serves as leaf"
        );
    }

    #[test]
    fn a_failed_root_still_attached_rejoins_as_the_last_leaf() {
        // The root's delivery dies while the root stays attached: the next
        // refresh finds it again and puts it last, behind the sorted
        // survivors.
        let d = Distribution::default();
        d.refresh(&names(7), fanout(2)).unwrap();
        d.note_failed("c0");
        assert_eq!(d.children_of("c1"), vec!["c2", "c3"]);
        let group = d.refresh(&names(7), fanout(2)).unwrap();
        assert_eq!(group, ["c1", "c2", "c3", "c4", "c5", "c6", "c0"]);
        assert_eq!(d.children_of("c1"), vec!["c2", "c3"]);
        assert_eq!(d.children_of("c3"), vec!["c6", "c0"]);
    }

    #[test]
    fn unknown_failures_are_ignored() {
        let d = Distribution::default();
        d.refresh(&names(3), fanout(2)).unwrap();
        d.note_failed("ghost");
        assert_eq!(d.refresh(&names(3), fanout(2)).unwrap(), names(3));
        assert_eq!(d.children_of("c0"), vec!["c1", "c2"]);
    }
}
