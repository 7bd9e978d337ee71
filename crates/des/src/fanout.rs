//! Fleet-scale distribution: direct unicast vs the relay tree.
//!
//! The runtime (`viper` core) drives the relay tree over a real fabric,
//! but it tops out at fleets of tens of consumers per test budget. This
//! module replays distribution at paper-fleet scale (1k–100k consumers)
//! with the engine's own price, [`viper_hw::FanoutHop::installs`]: every
//! node serializes its sends on its one link, and a relay re-serves to its
//! children once it has installed. Direct unicast therefore pays a
//! makespan linear in the fleet size, while the bounded-fan-out tree pays
//! `O(fanout · log_fanout n)` — the claim the ablation records.
//!
//! Fleet realism comes from two knobs swept by the CI fault matrix:
//! membership churn (seeded joins and failures between update rounds,
//! each healed like the runtime heals it: by building the tree again over
//! the new member list) and asymmetric straggler links (a seeded fraction
//! of consumers whose inbound link is `straggler_slowdown`× slower). Every
//! round asserts the delivery invariant the runtime's group ACK protects:
//! each live member is reachable from the root exactly once.

use viper_hw::FanoutHop;
use viper_net::{FaultRng, Topology};

/// Configuration of a fleet fan-out simulation.
#[derive(Debug, Clone)]
pub struct FanoutConfig {
    /// Initial fleet size (must be >= 1).
    pub consumers: usize,
    /// Relay-tree fan-out bound (must be >= 1).
    pub fanout: usize,
    /// What one member costs: its flow on a healthy link, and its install
    /// tail ([`viper_hw::fanout_hop`]).
    pub hop: FanoutHop,
    /// Update rounds to simulate (each round delivers one model version).
    pub rounds: u64,
    /// Membership-churn events between consecutive rounds (alternating
    /// seeded failures and joins; 0 = a static fleet).
    pub churn_per_round: usize,
    /// Fraction of members whose inbound link is degraded.
    pub straggler_fraction: f64,
    /// Slowdown multiplier for straggler links (1 = healthy).
    pub straggler_slowdown: u32,
    /// Seed for churn victim selection and straggler placement.
    pub seed: u64,
}

/// One update round's measured outcome.
#[derive(Debug, Clone)]
pub struct FanoutRound {
    /// Round index (0-based).
    pub round: u64,
    /// Live members when this round's update shipped.
    pub members: usize,
    /// Relay-tree depth (levels) for this round.
    pub depth: usize,
    /// Straggler-linked members in this round's fleet.
    pub stragglers: usize,
    /// Makespan of direct unicast delivery (seconds).
    pub direct_makespan: f64,
    /// Makespan of relay-tree delivery (seconds).
    pub tree_makespan: f64,
}

/// Result of a fleet fan-out simulation.
#[derive(Debug, Clone)]
pub struct FanoutResult {
    /// Per-round outcomes, in order.
    pub rounds: Vec<FanoutRound>,
    /// Total relay failures healed across the run.
    pub reparent_events: usize,
    /// Total members that joined across the run.
    pub join_events: usize,
    /// Rounds in which some live member was unreachable or reachable
    /// more than once (must stay 0 — the exactly-once invariant).
    pub delivery_violations: usize,
}

impl FanoutResult {
    /// Worst-round tree makespan (seconds).
    pub fn tree_makespan(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.tree_makespan)
            .fold(0.0, f64::max)
    }

    /// Worst-round direct-unicast makespan (seconds).
    pub fn direct_makespan(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.direct_makespan)
            .fold(0.0, f64::max)
    }

    /// Worst-round direct/tree speedup.
    pub fn speedup(&self) -> f64 {
        self.direct_makespan() / self.tree_makespan().max(f64::MIN_POSITIVE)
    }

    /// Deepest tree observed across the run.
    pub fn max_depth(&self) -> usize {
        self.rounds.iter().map(|r| r.depth).max().unwrap_or(0)
    }
}

/// FNV-1a over a member name, for seed-stable per-node draws that
/// survive membership churn (index-based draws would reshuffle the
/// straggler set every join).
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Per-member inbound-link slowdown under `cfg`.
fn link_slowdown(cfg: &FanoutConfig, member: &str) -> u32 {
    let draw = FaultRng::new(cfg.seed ^ fnv1a(member)).next_u64() as f64 / u64::MAX as f64;
    if draw < cfg.straggler_fraction {
        cfg.straggler_slowdown
    } else {
        1
    }
}

/// Makespan (seconds) of one round over `members`: the last install, served
/// directly (`fanout: None`) or down the relay tree.
fn makespan(cfg: &FanoutConfig, members: &[String], fanout: Option<usize>) -> f64 {
    let installs = cfg
        .hop
        .installs(members.len(), fanout, |i| link_slowdown(cfg, &members[i]));
    installs.into_iter().max().unwrap_or_default().as_secs_f64()
}

/// Run the fleet fan-out simulation.
///
/// Churn is applied *between* rounds: round 0 measures the pristine
/// fleet; before each later round, `churn_per_round` seeded events fire,
/// alternating member failure and member join. Either one changes the
/// member list, and the tree is built again over it, like the runtime's
/// relay-failure path and membership refresh.
pub fn simulate_fanout(cfg: &FanoutConfig) -> FanoutResult {
    assert!(cfg.consumers >= 1, "need at least one consumer");
    assert!(cfg.fanout >= 1, "fan-out bound must be at least 1");
    assert!(!cfg.hop.wire.is_zero(), "a flow must take wire time");
    assert!(
        (0.0..=1.0).contains(&cfg.straggler_fraction),
        "straggler fraction must be a probability"
    );
    assert!(
        cfg.straggler_slowdown >= 1,
        "a straggler link cannot be faster than healthy"
    );

    let mut members: Vec<String> = (0..cfg.consumers).map(|i| format!("c{i}")).collect();
    let mut rng = FaultRng::new(cfg.seed);
    let mut result = FanoutResult {
        rounds: Vec::with_capacity(cfg.rounds as usize),
        reparent_events: 0,
        join_events: 0,
        delivery_violations: 0,
    };
    for round in 0..cfg.rounds {
        let churn = if round > 0 { cfg.churn_per_round } else { 0 };
        for k in 0..churn {
            if k % 2 == 0 && members.len() > 1 {
                // Failure: a seeded victim drops out.
                members.remove(rng.next_u64() as usize % members.len());
                result.reparent_events += 1;
            } else {
                result.join_events += 1;
                members.push(format!("j{}", result.join_events));
            }
        }
        let topo = Topology::build(&members, cfg.fanout).expect("member names are unique");
        let reached = topo.root().map_or(0, |root| topo.subtree_of(root).len());
        result.delivery_violations += usize::from(reached != members.len());
        result.rounds.push(FanoutRound {
            round,
            members: members.len(),
            depth: topo.depth(),
            stragglers: members.iter().filter(|m| link_slowdown(cfg, m) > 1).count(),
            direct_makespan: makespan(cfg, &members, None),
            tree_makespan: makespan(cfg, &members, Some(cfg.fanout)),
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeds for the churn sweep (`VIPER_FAULT_SEEDS` in CI's fault
    /// matrix, same contract as the runtime fault tests).
    fn fault_seeds() -> Vec<u64> {
        std::env::var("VIPER_FAULT_SEEDS")
            .ok()
            .map(|s| {
                s.split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .collect::<Vec<u64>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![7, 42])
    }

    /// A 600 MB, 16-tensor model in one chunk over GPUDirect.
    fn hop() -> FanoutHop {
        let polaris = viper_hw::MachineProfile::polaris();
        viper_hw::fanout_hop(&polaris, viper_hw::Route::GpuToGpu, 600_000_000, 16, 0)
    }

    fn fleet(consumers: usize, seed: u64) -> FanoutConfig {
        FanoutConfig {
            consumers,
            fanout: 8,
            hop: hop(),
            rounds: 4,
            churn_per_round: 0,
            straggler_fraction: 0.0,
            straggler_slowdown: 1,
            seed,
        }
    }

    #[test]
    fn tree_makespan_is_sublinear_direct_is_linear() {
        let small = simulate_fanout(&fleet(1_000, 7));
        let large = simulate_fanout(&fleet(10_000, 7));
        // Direct unicast scales with the fleet; the tree scales with
        // its depth.
        let direct_growth = large.direct_makespan() / small.direct_makespan();
        let tree_growth = large.tree_makespan() / small.tree_makespan();
        assert!(
            (direct_growth - 10.0).abs() < 0.01,
            "direct must be linear, grew {direct_growth:.2}x"
        );
        assert!(
            tree_growth < 2.0,
            "tree must be ~log, grew {tree_growth:.2}x"
        );
        assert!(small.tree_makespan() < small.direct_makespan() / 10.0);
        assert!(large.speedup() > 100.0, "speedup {:.0}", large.speedup());
        assert_eq!(large.max_depth(), 6, "10k @ fanout 8");
        assert_eq!(small.delivery_violations, 0);
        assert_eq!(large.delivery_violations, 0);
    }

    #[test]
    fn churned_fleet_keeps_exactly_once_coverage() {
        // Joins and failures between every round, swept across the fault
        // seeds: the exactly-once invariant must hold in every round, both
        // churn events must actually fire, and two runs of one
        // configuration must agree exactly.
        for seed in fault_seeds() {
            let cfg = FanoutConfig {
                rounds: 12,
                churn_per_round: 5,
                straggler_fraction: 0.1,
                straggler_slowdown: 8,
                ..fleet(1_000, seed)
            };
            let r = simulate_fanout(&cfg);
            assert_eq!(r.delivery_violations, 0, "seed {seed}: coverage broken");
            assert!(r.reparent_events > 0, "seed {seed}: failures never fired");
            assert!(r.join_events > 0, "seed {seed}: joins never fired");
            for round in &r.rounds {
                assert!(
                    round.tree_makespan < round.direct_makespan,
                    "seed {seed} round {}: tree lost its advantage",
                    round.round
                );
            }
            assert_eq!(
                format!("{r:?}"),
                format!("{:?}", simulate_fanout(&cfg)),
                "seed {seed}: simulation must be deterministic"
            );
        }
    }

    #[test]
    fn stragglers_hurt_direct_delivery_more_than_the_tree() {
        // Every straggler delays the serialized direct stream; in the
        // tree only its own lane (and subtree) waits, so the tree's
        // penalty is bounded by one root-to-leaf chain.
        let clean = simulate_fanout(&fleet(1_000, 7));
        let slow = simulate_fanout(&FanoutConfig {
            straggler_fraction: 0.1,
            straggler_slowdown: 8,
            ..fleet(1_000, 7)
        });
        let direct_penalty = slow.direct_makespan() - clean.direct_makespan();
        let tree_penalty = slow.tree_makespan() - clean.tree_makespan();
        assert!(slow.rounds[0].stragglers > 0, "no straggler was placed");
        assert!(direct_penalty > 0.0);
        assert!(tree_penalty >= 0.0);
        assert!(
            direct_penalty > tree_penalty,
            "direct {direct_penalty:.3}s vs tree {tree_penalty:.3}s"
        );
    }

    #[test]
    fn degenerate_fleets_are_valid() {
        let solo = simulate_fanout(&fleet(1, 7));
        assert_eq!(solo.delivery_violations, 0);
        assert!((solo.tree_makespan() - solo.direct_makespan()).abs() < 1e-12);
        // Fan-out 1 degenerates to a chain: the same 64 flows as direct
        // delivery, but each relay installs before it re-serves, so every
        // hop past the root adds an install tail.
        let chain = simulate_fanout(&FanoutConfig {
            fanout: 1,
            ..fleet(64, 7)
        });
        let tails = 63.0 * hop().tail.as_secs_f64();
        assert!((chain.tree_makespan() - chain.direct_makespan() - tails).abs() < 1e-9);
        assert_eq!(chain.max_depth(), 64);
    }
}
