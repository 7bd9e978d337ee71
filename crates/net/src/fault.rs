//! Deterministic, seed-driven fault injection for the fabric.
//!
//! A [`FaultPlan`] attaches to a [`Fabric`](crate::Fabric) and perturbs
//! chunks on their way into the destination's queue (every payload is a
//! chunked flow, a monolithic one of one chunk): a chunk can be dropped,
//! duplicated, reordered with its successor, or bit-corrupted in the body. Control messages (ACK/NACK) are
//! never faulted — the reliability layer's feedback channel is modeled as
//! out-of-band.
//!
//! All randomness comes from a SplitMix64 stream seeded by the plan, so a
//! given `(seed, send sequence)` always produces the same fault pattern:
//! failure tests are reproducible and CI can sweep seeds deterministically.

use crate::LinkKind;

/// Per-link fault probabilities (each drawn independently per message).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a message is silently dropped (wire time still charged —
    /// the bytes occupied the link before being lost).
    pub drop: f64,
    /// Probability a message is delivered twice (receive-side duplication).
    pub duplicate: f64,
    /// Probability a message swaps delivery order with its successor in the
    /// same flow.
    pub reorder: f64,
    /// Probability one bit of the message body is flipped in transit.
    pub corrupt: f64,
}

impl LinkFaults {
    /// No faults at all.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        corrupt: 0.0,
    };

    /// Whether any probability is non-zero.
    pub fn any(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0 || self.corrupt > 0.0
    }
}

/// A deterministic fault-injection plan for the whole fabric.
///
/// Built with the fluent setters, then installed via
/// [`Fabric::set_fault_plan`](crate::Fabric::set_fault_plan):
///
/// ```
/// use viper_net::{FaultPlan, LinkFaults, LinkKind};
/// let plan = FaultPlan::seeded(42)
///     .with_drop(0.2)
///     .with_reorder(0.1)
///     .for_link(LinkKind::HostRdma, LinkFaults { drop: 0.5, ..LinkFaults::NONE });
/// assert!(plan.faults_for(LinkKind::GpuDirect).drop == 0.2);
/// assert!(plan.faults_for(LinkKind::HostRdma).drop == 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Fault probabilities applied to links without an override.
    pub default: LinkFaults,
    overrides: Vec<(LinkKind, LinkFaults)>,
    node_overrides: Vec<(String, LinkFaults)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults (probabilities all zero).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            default: LinkFaults::NONE,
            overrides: Vec::new(),
            node_overrides: Vec::new(),
        }
    }

    /// Set the default drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.default.drop = p;
        self
    }

    /// Set the default duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.default.duplicate = p;
        self
    }

    /// Set the default reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.default.reorder = p;
        self
    }

    /// Set the default bit-corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.default.corrupt = p;
        self
    }

    /// Override the fault probabilities for one link kind.
    pub fn for_link(mut self, link: LinkKind, faults: LinkFaults) -> Self {
        self.overrides.retain(|(l, _)| *l != link);
        self.overrides.push((link, faults));
        self
    }

    /// Override the fault probabilities for every message *destined to* one
    /// named node, regardless of link kind. The straggler knob: a single
    /// lossy consumer on an otherwise healthy fabric. Node overrides take
    /// precedence over link overrides.
    pub fn for_node(mut self, node: &str, faults: LinkFaults) -> Self {
        self.node_overrides.retain(|(n, _)| n != node);
        self.node_overrides.push((node.to_string(), faults));
        self
    }

    /// The fault probabilities in effect for `link`.
    pub fn faults_for(&self, link: LinkKind) -> LinkFaults {
        self.overrides
            .iter()
            .find(|(l, _)| *l == link)
            .map(|(_, f)| *f)
            .unwrap_or(self.default)
    }

    /// The fault probabilities for a message to node `to` over `link`:
    /// node override first, then link override, then the default.
    pub fn faults_for_node(&self, to: &str, link: LinkKind) -> LinkFaults {
        self.node_overrides
            .iter()
            .find(|(n, _)| n == to)
            .map(|(_, f)| *f)
            .unwrap_or_else(|| self.faults_for(link))
    }

    /// Whether the plan can actually perturb any link.
    pub fn any(&self) -> bool {
        self.default.any()
            || self.overrides.iter().any(|(_, f)| f.any())
            || self.node_overrides.iter().any(|(_, f)| f.any())
    }
}

/// SplitMix64: a tiny, high-quality deterministic stream — enough for fault
/// draws without pulling a rand dependency into the fabric.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`. Always consumes one draw so the
    /// stream position is independent of the probabilities configured.
    pub fn chance(&mut self, p: f64) -> bool {
        let x = self.next_f64();
        p > 0.0 && x < p
    }

    /// Uniform draw in `[0, n)` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_stream_is_deterministic() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FaultRng::new(8);
        assert_ne!(FaultRng::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn chance_consumes_stream_regardless_of_probability() {
        // Two streams drawing with different probabilities stay in lockstep:
        // a plan with zero probabilities perturbs nothing *and* leaves the
        // stream identical to a plan that was never consulted differently.
        let mut a = FaultRng::new(3);
        let mut b = FaultRng::new(3);
        for _ in 0..50 {
            a.chance(0.0);
            b.chance(0.9);
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_probability_never_fires() {
        let mut rng = FaultRng::new(1);
        assert!((0..1000).all(|_| !rng.chance(0.0)));
    }

    #[test]
    fn full_probability_always_fires() {
        let mut rng = FaultRng::new(1);
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn chance_tracks_probability_roughly() {
        let mut rng = FaultRng::new(99);
        let hits = (0..10_000).filter(|_| rng.chance(0.2)).count();
        assert!((1600..2400).contains(&hits), "{hits}");
    }

    #[test]
    fn link_overrides_apply() {
        let plan = FaultPlan::seeded(1).with_drop(0.1).for_link(
            LinkKind::HostRdma,
            LinkFaults {
                corrupt: 1.0,
                ..LinkFaults::NONE
            },
        );
        assert_eq!(plan.faults_for(LinkKind::GpuDirect).drop, 0.1);
        assert_eq!(plan.faults_for(LinkKind::HostRdma).drop, 0.0);
        assert_eq!(plan.faults_for(LinkKind::HostRdma).corrupt, 1.0);
        assert!(plan.any());
        assert!(!FaultPlan::seeded(2).any());
    }

    #[test]
    fn node_overrides_beat_link_overrides() {
        let plan = FaultPlan::seeded(1)
            .with_drop(0.1)
            .for_link(
                LinkKind::GpuDirect,
                LinkFaults {
                    drop: 0.3,
                    ..LinkFaults::NONE
                },
            )
            .for_node(
                "slow",
                LinkFaults {
                    drop: 0.9,
                    ..LinkFaults::NONE
                },
            );
        assert_eq!(plan.faults_for_node("slow", LinkKind::GpuDirect).drop, 0.9);
        assert_eq!(plan.faults_for_node("slow", LinkKind::HostRdma).drop, 0.9);
        assert_eq!(
            plan.faults_for_node("healthy", LinkKind::GpuDirect).drop,
            0.3
        );
        assert_eq!(
            plan.faults_for_node("healthy", LinkKind::HostRdma).drop,
            0.1
        );
        // Re-overriding a node replaces, not appends.
        let plan = plan.for_node("slow", LinkFaults::NONE);
        assert_eq!(plan.faults_for_node("slow", LinkKind::GpuDirect).drop, 0.0);
        // A plan whose only non-zero knob is a node override still counts.
        let quiet = FaultPlan::seeded(2).for_node(
            "slow",
            LinkFaults {
                corrupt: 0.5,
                ..LinkFaults::NONE
            },
        );
        assert!(quiet.any());
    }

    #[test]
    fn below_bounds() {
        let mut rng = FaultRng::new(5);
        assert_eq!(rng.below(0), 0);
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
    }
}
