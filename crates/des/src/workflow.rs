//! The producer/consumer workflow simulation.

use crate::timeline;
use viper_hw::UpdateCosts;

/// How the consumer learns that a new model version is staged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discovery {
    /// Viper's push notification: the consumer is told after the broker's
    /// notify latency (taken from [`UpdateCosts::notify`]).
    Push,
    /// Baseline polling: the consumer notices at the next poll tick.
    Poll {
        /// Poll interval in seconds (the paper cites a ≥1 ms floor).
        interval: f64,
    },
}

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Training time per iteration (seconds) — constant per Fig. 6.
    pub t_train: f64,
    /// Inference time per request (seconds) — constant per Fig. 6.
    pub t_infer: f64,
    /// Priced phases of one model update for the chosen strategy.
    pub costs: UpdateCosts,
    /// Warm-up end: the producer resumes training from this iteration at
    /// virtual time zero, and the consumer starts serving with the model
    /// captured at this iteration.
    pub s_iter: u64,
    /// Last training iteration.
    pub e_iter: u64,
    /// Checkpoint iterations (ascending, within `(s_iter, e_iter]`).
    pub schedule: Vec<u64>,
    /// Number of inferences the consumer must serve.
    pub total_infers: u64,
    /// Update discovery mechanism.
    pub discovery: Discovery,
}

/// One completed model update as observed in the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelUpdate {
    /// Training iteration the checkpoint captured.
    pub iteration: u64,
    /// 1-based update version.
    pub version: u64,
    /// Virtual time the checkpoint left the producer (stall end).
    pub staged_at: f64,
    /// Virtual time the consumer learned about it.
    pub discovered_at: f64,
    /// Virtual time the consumer atomically switched to it.
    pub swapped_at: f64,
    /// End-to-end update latency (checkpoint start → swap).
    pub latency: f64,
}

/// Ground-truth results of a simulated run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Cumulative inference loss over the served inferences.
    pub cil: f64,
    /// Inferences actually served (== `total_infers`).
    pub served: u64,
    /// Model updates completed during the run.
    pub num_updates: u64,
    /// Total producer stall caused by checkpointing (seconds).
    pub training_overhead: f64,
    /// Mean end-to-end update latency (seconds; 0 if no updates).
    pub mean_update_latency: f64,
    /// Virtual time of the last served inference.
    pub makespan: f64,
    /// Virtual time the producer finished iteration `e_iter` (0 if the run
    /// ended first).
    pub producer_finished_at: f64,
    /// Every completed update, in order.
    pub updates: Vec<ModelUpdate>,
}

/// Run the workflow simulation. `loss_at(iter)` is the ground-truth
/// training/inference loss of the model captured at `iter` (Assumption 2 of
/// the paper equates the two).
pub fn simulate(cfg: &SimConfig, loss_at: &dyn Fn(u64) -> f64) -> SimResult {
    let stall = cfg.costs.stall.as_secs_f64();
    let producer = timeline::produce(cfg.t_train, stall, cfg.s_iter, cfg.e_iter, &cfg.schedule);
    let updates = timeline::deliver(&producer.staged, stall, &cfg.costs, cfg.discovery);
    let (cil, makespan) =
        timeline::serve(cfg.t_infer, cfg.total_infers, cfg.s_iter, &updates, loss_at);
    let mean_update_latency = if updates.is_empty() {
        0.0
    } else {
        updates.iter().map(|u| u.latency).sum::<f64>() / updates.len() as f64
    };
    SimResult {
        cil,
        served: cfg.total_infers,
        num_updates: updates.len() as u64,
        training_overhead: producer.overhead,
        mean_update_latency,
        makespan,
        producer_finished_at: producer.finished_at,
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn costs(stall: f64, post: f64, notify: f64) -> UpdateCosts {
        UpdateCosts {
            stall: Duration::from_secs_f64(stall),
            post_stall: Duration::from_secs_f64(post),
            apply: Duration::from_secs_f64(post / 2.0),
            notify: Duration::from_secs_f64(notify),
        }
    }

    fn base_cfg() -> SimConfig {
        SimConfig {
            t_train: 0.1,
            t_infer: 0.01,
            costs: costs(0.5, 0.3, 0.001),
            s_iter: 10,
            e_iter: 100,
            schedule: vec![20, 40, 80],
            total_infers: 1_000,
            discovery: Discovery::Push,
        }
    }

    fn decay(iter: u64) -> f64 {
        2.0 * (-0.01 * iter as f64).exp() + 0.2
    }

    #[test]
    fn serves_exactly_total_inferences() {
        let r = simulate(&base_cfg(), &decay);
        assert_eq!(r.served, 1_000);
        // Inferences at fixed rate: makespan = (n-1) * t_infer.
        assert!((r.makespan - 999.0 * 0.01).abs() < 1e-9);
    }

    #[test]
    fn all_updates_complete_when_horizon_is_long() {
        let r = simulate(&base_cfg(), &decay);
        assert_eq!(r.num_updates, 3);
        assert_eq!(r.updates[0].iteration, 20);
        assert_eq!(r.updates[2].iteration, 80);
        assert!((r.training_overhead - 1.5).abs() < 1e-9);
    }

    #[test]
    fn update_timeline_is_consistent() {
        let r = simulate(&base_cfg(), &decay);
        for u in &r.updates {
            assert!(u.staged_at < u.discovered_at);
            assert!(u.discovered_at < u.swapped_at);
            assert!((u.swapped_at - u.discovered_at - 0.3).abs() < 1e-9);
            // latency = stall + notify + post.
            assert!((u.latency - (0.5 + 0.001 + 0.3)).abs() < 1e-9);
        }
    }

    #[test]
    fn first_checkpoint_timing_exact() {
        // Iteration 11..=20 at 0.1 s each -> iter 20 done at 1.0 s; stall to
        // 1.5; notify 1 ms; post 0.3 -> swap at 1.801.
        let r = simulate(&base_cfg(), &decay);
        let u = &r.updates[0];
        assert!((u.staged_at - 1.5).abs() < 1e-9);
        assert!((u.swapped_at - 1.801).abs() < 1e-9);
    }

    #[test]
    fn cil_decreases_with_checkpoints() {
        let with = simulate(&base_cfg(), &decay);
        let mut cfg = base_cfg();
        cfg.schedule = vec![];
        let without = simulate(&cfg, &decay);
        assert!(with.cil < without.cil);
        assert!((without.cil - decay(10) * 1000.0).abs() < 1e-6);
    }

    #[test]
    fn stalls_delay_training_completion() {
        let mut cfg = base_cfg();
        cfg.total_infers = 100_000; // long horizon so producer finishes
        let with = simulate(&cfg, &decay);
        cfg.schedule = vec![];
        let without = simulate(&cfg, &decay);
        let expected_delta = 3.0 * 0.5;
        assert!(
            (with.producer_finished_at - without.producer_finished_at - expected_delta).abs()
                < 1e-9
        );
    }

    #[test]
    fn polling_discovers_later_than_push() {
        let mut cfg = base_cfg();
        cfg.discovery = Discovery::Poll { interval: 1.0 };
        let poll = simulate(&cfg, &decay);
        let push = simulate(&base_cfg(), &decay);
        for (a, b) in poll.updates.iter().zip(&push.updates) {
            assert!(a.discovered_at >= b.discovered_at);
            // Poll discovery lands on the grid.
            assert!((a.discovered_at / 1.0).fract().abs() < 1e-9);
        }
        assert!(poll.cil >= push.cil);
    }

    #[test]
    fn faster_strategy_gives_lower_cil() {
        // Fig. 9's claim: for the same schedule, GPU-like costs beat
        // PFS-like costs on CIL.
        let mut gpu = base_cfg();
        gpu.costs = costs(0.01, 0.1, 0.001);
        gpu.total_infers = 5_000;
        let mut pfs = base_cfg();
        pfs.costs = costs(3.5, 3.5, 0.001);
        pfs.total_infers = 5_000;
        let g = simulate(&gpu, &decay);
        let p = simulate(&pfs, &decay);
        assert!(g.cil < p.cil, "gpu {} pfs {}", g.cil, p.cil);
        assert!(g.training_overhead < p.training_overhead);
    }

    #[test]
    fn a_swap_on_an_inference_instant_serves_it() {
        // Free updates, so checkpoint 12 swaps in at exactly 1.0 s, the
        // instant of inference 4 (0.25 s apart, all exact in binary).
        let cfg = SimConfig {
            t_train: 0.5,
            t_infer: 0.25,
            costs: costs(0.0, 0.0, 0.0),
            s_iter: 10,
            e_iter: 20,
            schedule: vec![12],
            total_infers: 8,
            discovery: Discovery::Push,
        };
        let r = simulate(&cfg, &|iter| if iter >= 12 { 1.0 } else { 2.0 });
        assert_eq!(r.updates[0].swapped_at, 1.0);
        assert_eq!(r.cil, 4.0 * 2.0 + 4.0 * 1.0);
    }

    #[test]
    fn zero_inferences_is_degenerate_but_valid() {
        let mut cfg = base_cfg();
        cfg.total_infers = 0;
        let r = simulate(&cfg, &decay);
        assert_eq!(r.served, 0);
        assert_eq!(r.cil, 0.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_schedule_rejected() {
        let mut cfg = base_cfg();
        cfg.schedule = vec![40, 20];
        simulate(&cfg, &decay);
    }

    #[test]
    #[should_panic(expected = "within")]
    fn out_of_range_schedule_rejected() {
        let mut cfg = base_cfg();
        cfg.schedule = vec![5];
        simulate(&cfg, &decay);
    }
}
