//! Producer-side distribution state: the relay tree over attached
//! consumers.
//!
//! [`Distribution`] owns the deployment's current [`Topology`] and keeps
//! it deterministic: the tree is rebuilt (in sorted member order) only
//! when the attached-consumer set actually changes, so repeated saves see
//! the same shape regardless of attach order, reactor thread count, or
//! telemetry settings. Relay failures reparent the live tree in place
//! ([`Distribution::note_failed`]) and demote the failed node to leaf
//! duty on subsequent rebuilds, so a flaky consumer can rejoin the fleet
//! without being handed a subtree again.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::num::NonZeroUsize;
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
    reparents: u64,
}

impl Distribution {
    /// Bring the topology — a tree of the deployment's `fanout` — up to
    /// date with the attached-consumer set and return the delivery groups:
    /// one entry per tree root, mapping it to its whole subtree (root
    /// first, BFS order). Returns `None` when fewer than two consumers are
    /// attached — the direct path is strictly simpler there.
    ///
    /// Determinism: members are sorted before building (demoted members
    /// last, so failed relays become leaves), and the tree is only
    /// rebuilt when the member *set* changed — an in-place reparent from
    /// a failure survives across saves.
    pub(crate) fn refresh(
        &self,
        consumers: &[String],
        fanout: NonZeroUsize,
    ) -> Option<BTreeMap<String, Vec<String>>> {
        if consumers.len() < 2 {
            return None;
        }
        let mut inner = self.inner.lock();
        let stale = match &inner.topology {
            Some(t) => t.len() != consumers.len() || !consumers.iter().all(|c| t.contains(c)),
            None => true,
        };
        if stale {
            let mut members: Vec<String> = consumers.to_vec();
            members.sort();
            // Stable partition: proven relays (never failed) first, so
            // demoted members land in the deep/leaf positions.
            let demoted = std::mem::take(&mut inner.demoted);
            members.sort_by_key(|m| demoted.contains(m));
            inner.demoted = demoted;
            inner.topology =
                Some(Topology::build(&members, fanout.get()).expect("sorted unique member list"));
        }
        let topology = inner.topology.as_ref().expect("built above");
        Some(
            topology
                .roots()
                .into_iter()
                .map(|r| (r.to_string(), topology.subtree_of(r)))
                .collect(),
        )
    }

    /// The nodes `node` currently relays to (empty for leaves, unknown
    /// nodes, and before any relay-tree delivery).
    pub(crate) fn children_of(&self, node: &str) -> Vec<String> {
        let inner = self.inner.lock();
        match &inner.topology {
            Some(t) => t
                .children_of(node)
                .into_iter()
                .map(str::to_string)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Record a relay failure: remove `node` from the tree (its children
    /// are re-homed deterministically) and demote it to leaf duty in
    /// future rebuilds. Returns the re-homed direct children, or `None`
    /// if the node was not in the tree.
    pub(crate) fn note_failed(&self, node: &str) -> Option<Vec<String>> {
        let mut inner = self.inner.lock();
        inner.demoted.insert(node.to_string());
        let moved = inner.topology.as_mut()?.reparent(node).ok()?;
        inner.reparents += 1;
        Some(moved)
    }

    /// How many in-place reparents failures have forced so far.
    #[cfg(test)]
    pub(crate) fn reparents(&self) -> u64 {
        self.inner.lock().reparents
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
        assert_eq!(a, b, "same member set, same groups, any order");
        assert_eq!(a.len(), 1, "single root");
        let (root, members) = a.iter().next().unwrap();
        assert_eq!(root, "c0", "sorted order puts c0 at the root");
        assert_eq!(members.len(), 7);
        assert_eq!(d.children_of("c0"), vec!["c1", "c2"]);
    }

    #[test]
    fn membership_change_rebuilds() {
        let d = Distribution::default();
        d.refresh(&names(4), fanout(2)).unwrap();
        let groups = d.refresh(&names(6), fanout(2)).unwrap();
        assert_eq!(groups.values().next().unwrap().len(), 6);
    }

    #[test]
    fn failure_reparents_in_place_and_demotes() {
        let d = Distribution::default();
        d.refresh(&names(7), fanout(2)).unwrap();
        let moved = d.note_failed("c1").unwrap();
        assert_eq!(moved, vec!["c3", "c4"]);
        assert_eq!(d.reparents(), 1);
        // The reparented tree survives a same-membership refresh minus
        // the failed node...
        let survivors: Vec<String> = names(7).into_iter().filter(|n| n != "c1").collect();
        let groups = d.refresh(&survivors, fanout(2)).unwrap();
        assert_eq!(groups.values().next().unwrap().len(), 6);
        // ...and when c1 rejoins, the rebuild keeps it out of relay duty.
        let groups = d.refresh(&names(7), fanout(2)).unwrap();
        let root = groups.keys().next().unwrap();
        assert_ne!(root, "c1");
        assert!(
            d.children_of("c1").is_empty(),
            "demoted member serves as leaf"
        );
    }

    #[test]
    fn unknown_failures_are_ignored() {
        let d = Distribution::default();
        d.refresh(&names(3), fanout(2)).unwrap();
        assert!(d.note_failed("ghost").is_none());
        assert_eq!(d.reparents(), 0);
    }
}
