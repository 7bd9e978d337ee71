//! Property tests for the discrete-event workflow simulator.

use proptest::prelude::*;
use std::time::Duration;
use viper_des::{simulate, simulate_multi, ConsumerSpec, Discovery, MultiSimConfig, SimConfig};
use viper_hw::UpdateCosts;

fn costs(stall: f64, post: f64, notify: f64) -> UpdateCosts {
    UpdateCosts {
        stall: Duration::from_secs_f64(stall),
        post_stall: Duration::from_secs_f64(post),
        apply: Duration::from_secs_f64(post / 2.0),
        notify: Duration::from_secs_f64(notify),
    }
}

/// Push or poll discovery; poll intervals span 0.01-10 s plus the
/// ablation's 0.001, 0.1, 1 and 5 s.
fn arb_discovery() -> impl Strategy<Value = Discovery> {
    prop_oneof![
        Just(Discovery::Push),
        (0.01f64..10.0).prop_map(|interval| Discovery::Poll { interval }),
        prop_oneof![Just(0.001), Just(0.1), Just(1.0), Just(5.0)]
            .prop_map(|interval| Discovery::Poll { interval }),
    ]
}

/// Update costs, each phase either free or priced.
fn arb_costs() -> impl Strategy<Value = UpdateCosts> {
    (
        prop_oneof![Just(0.0), 0.0f64..2.0], // stall
        prop_oneof![Just(0.0), 0.0f64..2.0], // post
        prop_oneof![Just(0.0), Just(0.001)], // notify
    )
        .prop_map(|(stall, post, notify)| costs(stall, post, notify))
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        0.01f64..0.2,   // t_train
        0.001f64..0.02, // t_infer
        arb_costs(),
        1u64..2000, // total_infers
        prop::collection::btree_set(11u64..100, 0..8),
        arb_discovery(),
    )
        .prop_map(
            |(t_train, t_infer, costs, total_infers, ckpts, discovery)| SimConfig {
                t_train,
                t_infer,
                costs,
                s_iter: 10,
                e_iter: 100,
                schedule: ckpts.into_iter().collect(),
                total_infers,
                discovery,
            },
        )
}

fn decay(iter: u64) -> f64 {
    3.0 * (-0.02 * iter as f64).exp() + 0.1
}

proptest! {
    /// Exactly the requested inferences are served, at the fixed rate.
    #[test]
    fn serves_exactly_requested(cfg in arb_config()) {
        let r = simulate(&cfg, &decay);
        prop_assert_eq!(r.served, cfg.total_infers);
        let expected_makespan = (cfg.total_infers.saturating_sub(1)) as f64 * cfg.t_infer;
        prop_assert!((r.makespan - expected_makespan).abs() < 1e-6);
    }

    /// Every scheduled checkpoint eventually completes, and overhead is
    /// checkpoints x stall exactly.
    #[test]
    fn all_checkpoints_complete(cfg in arb_config()) {
        let r = simulate(&cfg, &decay);
        prop_assert_eq!(r.num_updates as usize, cfg.schedule.len());
        let expected = cfg.schedule.len() as f64 * cfg.costs.stall.as_secs_f64();
        prop_assert!((r.training_overhead - expected).abs() < 1e-9);
    }

    /// CIL is bounded by the loss curve's range over the run.
    #[test]
    fn cil_within_loss_bounds(cfg in arb_config()) {
        let r = simulate(&cfg, &decay);
        let hi = decay(cfg.s_iter) * cfg.total_infers as f64;
        let lo = decay(cfg.e_iter) * cfg.total_infers as f64;
        prop_assert!(r.cil <= hi + 1e-9, "cil {} hi {hi}", r.cil);
        prop_assert!(r.cil >= lo - 1e-9, "cil {} lo {lo}", r.cil);
    }

    /// Scaling the loss curve scales CIL linearly.
    #[test]
    fn cil_linear_in_loss(cfg in arb_config(), scale in 0.1f64..10.0) {
        let a = simulate(&cfg, &decay).cil;
        let b = simulate(&cfg, &|i| decay(i) * scale).cil;
        prop_assert!((b - a * scale).abs() < 1e-6 * (1.0 + b.abs()));
    }

    /// The simulation is deterministic.
    #[test]
    fn deterministic(cfg in arb_config()) {
        let a = simulate(&cfg, &decay);
        let b = simulate(&cfg, &decay);
        prop_assert_eq!(a.cil, b.cil);
        prop_assert_eq!(a.updates.len(), b.updates.len());
        for (x, y) in a.updates.iter().zip(&b.updates) {
            prop_assert_eq!(x.swapped_at, y.swapped_at);
        }
    }

    /// Update timelines are internally consistent and ordered.
    #[test]
    fn update_timeline_ordered(cfg in arb_config()) {
        let r = simulate(&cfg, &decay);
        let mut prev_swap = f64::NEG_INFINITY;
        for u in &r.updates {
            prop_assert!(u.staged_at <= u.discovered_at);
            prop_assert!(u.discovered_at <= u.swapped_at + 1e-12);
            prop_assert!(u.latency >= 0.0);
            prop_assert!(u.swapped_at >= prev_swap);
            prev_swap = u.swapped_at;
        }
    }

    /// Push discovery never yields higher CIL than any polling interval.
    #[test]
    fn push_never_worse_than_poll(cfg in arb_config(), interval in 0.01f64..10.0) {
        let cfg = SimConfig { discovery: Discovery::Push, ..cfg };
        let push = simulate(&cfg, &decay).cil;
        let mut poll_cfg = cfg;
        poll_cfg.discovery = Discovery::Poll { interval };
        let poll = simulate(&poll_cfg, &decay).cil;
        prop_assert!(push <= poll + 1e-9, "push {push} > poll {poll}");
    }

    /// With a decreasing loss curve and zero update costs, *every* added
    /// checkpoint weakly reduces CIL.
    #[test]
    fn free_checkpoints_never_hurt(total in 100u64..2000, extra in 11u64..100) {
        let base_cfg = SimConfig {
            t_train: 0.05,
            t_infer: 0.005,
            costs: costs(0.0, 0.0, 0.0),
            s_iter: 10,
            e_iter: 100,
            schedule: vec![50],
            total_infers: total,
            discovery: Discovery::Push,
        };
        let base = simulate(&base_cfg, &decay).cil;
        let mut more = base_cfg;
        if extra != 50 {
            more.schedule.push(extra);
            more.schedule.sort();
        }
        let richer = simulate(&more, &decay).cil;
        prop_assert!(richer <= base + 1e-9);
    }

    /// A one-rank, one-consumer `simulate_multi` is `simulate`.
    #[test]
    fn one_rank_one_consumer_multi_is_simulate(cfg in arb_config()) {
        let single = simulate(&cfg, &decay);
        let multi = simulate_multi(
            &MultiSimConfig {
                nproducers: 1,
                t_train: cfg.t_train,
                costs: cfg.costs,
                s_iter: cfg.s_iter,
                e_iter: cfg.e_iter,
                schedule: cfg.schedule.clone(),
                consumers: vec![ConsumerSpec {
                    t_infer: cfg.t_infer,
                    total_infers: cfg.total_infers,
                    discovery: cfg.discovery,
                }],
            },
            &decay,
        );
        let consumer = &multi.per_consumer[0];
        prop_assert_eq!(consumer.cil.to_bits(), single.cil.to_bits());
        prop_assert_eq!(&consumer.updates, &single.updates);
        prop_assert_eq!(multi.training_overhead_per_rank.to_bits(), single.training_overhead.to_bits());
        prop_assert_eq!(multi.producers_finished_at.to_bits(), single.producer_finished_at.to_bits());
    }
}
