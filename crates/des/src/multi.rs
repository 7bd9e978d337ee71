//! Multi-producer / multi-consumer workflow simulation — the paper's §6
//! future work at paper scale.
//!
//! Producers model synchronous data-parallel training: all ranks advance
//! the same iteration counter, and checkpoint work is sharded across them
//! DeepFreeze-style, so the per-rank stall (and hence the wall-clock cost
//! of a model update) shrinks roughly as `1/N`. Consumers are independent
//! serving replicas, each with its own discovery mechanism and inference
//! budget; the aggregate CIL sums over them.

use crate::timeline;
use crate::workflow::{Discovery, ModelUpdate};
use viper_hw::UpdateCosts;

/// One consumer's configuration in a multi-consumer run.
#[derive(Debug, Clone, Copy)]
pub struct ConsumerSpec {
    /// Inference time per request (seconds).
    pub t_infer: f64,
    /// Inferences this consumer serves.
    pub total_infers: u64,
    /// How this consumer discovers updates.
    pub discovery: Discovery,
}

/// Configuration of a multi-producer / multi-consumer run.
#[derive(Debug, Clone)]
pub struct MultiSimConfig {
    /// Data-parallel producer ranks (checkpoint capture is sharded across
    /// them; must be >= 1).
    pub nproducers: usize,
    /// Training time per (synchronous) iteration, seconds.
    pub t_train: f64,
    /// Priced phases of a *full-model* update for the chosen strategy.
    pub costs: UpdateCosts,
    /// Warm-up end iteration.
    pub s_iter: u64,
    /// Last training iteration.
    pub e_iter: u64,
    /// Checkpoint iterations (ascending, within `(s_iter, e_iter]`).
    pub schedule: Vec<u64>,
    /// The serving replicas.
    pub consumers: Vec<ConsumerSpec>,
}

/// Per-consumer outcome.
#[derive(Debug, Clone)]
pub struct ConsumerResult {
    /// Cumulative inference loss for this consumer.
    pub cil: f64,
    /// Inferences served.
    pub served: u64,
    /// Updates this consumer completed.
    pub updates: Vec<ModelUpdate>,
}

/// Result of a multi simulation.
#[derive(Debug, Clone)]
pub struct MultiSimResult {
    /// Per-rank producer stall total (seconds) — equal across ranks.
    pub training_overhead_per_rank: f64,
    /// Virtual time the (synchronous) producers finished `e_iter`.
    pub producers_finished_at: f64,
    /// One result per consumer, in input order.
    pub per_consumer: Vec<ConsumerResult>,
}

impl MultiSimResult {
    /// Aggregate CIL across all consumers.
    pub fn total_cil(&self) -> f64 {
        self.per_consumer.iter().map(|c| c.cil).sum()
    }
}

/// Run the multi-producer/multi-consumer simulation.
///
/// `loss_at(iter)` is the shared ground-truth loss curve (data-parallel
/// ranks hold replicas of one model).
pub fn simulate_multi(cfg: &MultiSimConfig, loss_at: &dyn Fn(u64) -> f64) -> MultiSimResult {
    assert!(cfg.nproducers >= 1, "need at least one producer rank");
    // Sharded capture: each rank stalls for its 1/N slice of the model.
    // Synchronous ranks share one producer timeline.
    let stall = cfg.costs.stall.as_secs_f64() / cfg.nproducers as f64;
    let producer = timeline::produce(cfg.t_train, stall, cfg.s_iter, cfg.e_iter, &cfg.schedule);
    let per_consumer = cfg
        .consumers
        .iter()
        .map(|spec| {
            let updates = timeline::deliver(&producer.staged, stall, &cfg.costs, spec.discovery);
            let (cil, _) = timeline::serve(
                spec.t_infer,
                spec.total_infers,
                cfg.s_iter,
                &updates,
                loss_at,
            );
            ConsumerResult {
                cil,
                served: spec.total_infers,
                updates,
            }
        })
        .collect();

    MultiSimResult {
        training_overhead_per_rank: producer.overhead,
        producers_finished_at: producer.finished_at,
        per_consumer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn costs() -> UpdateCosts {
        UpdateCosts {
            stall: Duration::from_secs_f64(0.8),
            post_stall: Duration::from_secs_f64(0.3),
            apply: Duration::from_secs_f64(0.1),
            notify: Duration::from_secs_f64(0.001),
        }
    }

    fn decay(iter: u64) -> f64 {
        2.0 * (-0.01 * iter as f64).exp() + 0.2
    }

    fn base(nproducers: usize, consumers: Vec<ConsumerSpec>) -> MultiSimConfig {
        MultiSimConfig {
            nproducers,
            t_train: 0.1,
            costs: costs(),
            s_iter: 10,
            e_iter: 110,
            schedule: vec![30, 60, 90],
            consumers,
        }
    }

    fn one_consumer() -> ConsumerSpec {
        ConsumerSpec {
            t_infer: 0.01,
            total_infers: 2_000,
            discovery: Discovery::Push,
        }
    }

    #[test]
    fn single_rank_single_consumer_matches_des() {
        // The two entry points must agree bit for bit on their common case.
        let cfg = base(1, vec![one_consumer()]);
        let multi = simulate_multi(&cfg, &decay);
        let des = crate::simulate(
            &crate::SimConfig {
                t_train: cfg.t_train,
                t_infer: 0.01,
                costs: costs(),
                s_iter: cfg.s_iter,
                e_iter: cfg.e_iter,
                schedule: cfg.schedule.clone(),
                total_infers: 2_000,
                discovery: Discovery::Push,
            },
            &decay,
        );
        assert_eq!(multi.per_consumer[0].cil, des.cil);
        assert_eq!(multi.per_consumer[0].updates, des.updates);
        assert_eq!(multi.training_overhead_per_rank, des.training_overhead);
        assert_eq!(multi.producers_finished_at, des.producer_finished_at);
    }

    #[test]
    fn a_checkpoint_staged_just_after_a_poll_tick_waits_for_the_next() {
        // Twenty 0.1 s iterations sum to 2.0000000000000004 s, so a 1 s poll
        // discovers the checkpoint at 3 s in both entry points.
        let zero = UpdateCosts {
            stall: Duration::ZERO,
            post_stall: Duration::ZERO,
            apply: Duration::ZERO,
            notify: Duration::ZERO,
        };
        let discovery = Discovery::Poll { interval: 1.0 };
        let mut cfg = base(
            1,
            vec![ConsumerSpec {
                discovery,
                ..one_consumer()
            }],
        );
        cfg.costs = zero;
        cfg.schedule = vec![30];
        let multi = simulate_multi(&cfg, &decay);
        let des = crate::simulate(
            &crate::SimConfig {
                t_train: cfg.t_train,
                t_infer: 0.01,
                costs: zero,
                s_iter: cfg.s_iter,
                e_iter: cfg.e_iter,
                schedule: cfg.schedule.clone(),
                total_infers: 2_000,
                discovery,
            },
            &decay,
        );
        assert_eq!(des.updates[0].discovered_at, 3.0);
        assert_eq!(multi.per_consumer[0].updates, des.updates);
        assert_eq!(multi.per_consumer[0].cil, des.cil);
    }

    #[test]
    fn more_ranks_shrink_stall_and_finish_earlier() {
        let c1 = simulate_multi(&base(1, vec![one_consumer()]), &decay);
        let c4 = simulate_multi(&base(4, vec![one_consumer()]), &decay);
        assert!((c4.training_overhead_per_rank - c1.training_overhead_per_rank / 4.0).abs() < 1e-9);
        assert!(c4.producers_finished_at < c1.producers_finished_at);
        // Less stall -> earlier staging -> weakly lower CIL.
        assert!(c4.per_consumer[0].cil <= c1.per_consumer[0].cil + 1e-9);
    }

    #[test]
    fn consumers_with_slower_polling_do_worse() {
        let consumers = vec![
            ConsumerSpec {
                t_infer: 0.01,
                total_infers: 2_000,
                discovery: Discovery::Push,
            },
            ConsumerSpec {
                t_infer: 0.01,
                total_infers: 2_000,
                discovery: Discovery::Poll { interval: 0.5 },
            },
            ConsumerSpec {
                t_infer: 0.01,
                total_infers: 2_000,
                discovery: Discovery::Poll { interval: 10.0 },
            },
        ];
        let r = simulate_multi(&base(2, consumers), &decay);
        assert!(r.per_consumer[0].cil <= r.per_consumer[1].cil + 1e-9);
        assert!(r.per_consumer[1].cil < r.per_consumer[2].cil);
        assert!(
            (r.total_cil()
                - (r.per_consumer[0].cil + r.per_consumer[1].cil + r.per_consumer[2].cil))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn heterogeneous_inference_rates_supported() {
        let consumers = vec![
            ConsumerSpec {
                t_infer: 0.005,
                total_infers: 4_000,
                discovery: Discovery::Push,
            },
            ConsumerSpec {
                t_infer: 0.02,
                total_infers: 1_000,
                discovery: Discovery::Push,
            },
        ];
        let r = simulate_multi(&base(1, consumers), &decay);
        assert_eq!(r.per_consumer[0].served, 4_000);
        assert_eq!(r.per_consumer[1].served, 1_000);
        // Both span the same wall time (20 s), so their *mean* loss per
        // inference should be close.
        let m0 = r.per_consumer[0].cil / 4_000.0;
        let m1 = r.per_consumer[1].cil / 1_000.0;
        assert!((m0 - m1).abs() < 0.05, "{m0} vs {m1}");
    }

    #[test]
    fn zero_consumers_is_a_pure_producer_run() {
        let r = simulate_multi(&base(2, vec![]), &decay);
        assert!(r.per_consumer.is_empty());
        assert!(r.producers_finished_at > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one producer")]
    fn zero_producers_rejected() {
        simulate_multi(&base(0, vec![]), &decay);
    }
}
