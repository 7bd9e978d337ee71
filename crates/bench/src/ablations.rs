//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **sync vs async capture** — per-update latency vs producer stall;
//! * **push notification vs polling** — discovery latency and its CIL cost;
//! * **lean format vs h5lite** — encoded size and PFS metadata cost;
//! * **greedy threshold sensitivity** — checkpoints/CIL vs threshold scale.

use viper_des::{simulate, simulate_fanout, Discovery, FanoutConfig, FanoutResult, SimConfig};
use viper_formats::{CheckpointFormat, H5Lite, ViperFormat};
use viper_hw::{fanout_hop, pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};
use viper_predictor::{cilp::CostParams, fit, schedule};
use viper_workloads::WorkloadProfile;

/// Sync-vs-async per route: (label, stall s, update latency s).
pub fn sync_vs_async() -> Vec<(String, f64, f64)> {
    let profile = MachineProfile::polaris();
    let w = WorkloadProfile::tc1();
    let mut rows = Vec::new();
    for route in [Route::GpuToGpu, Route::HostToHost] {
        for mode in [CaptureMode::Sync, CaptureMode::Async] {
            let s = TransferStrategy { route, mode };
            let c = pipeline_costs(&profile, s, w.model_bytes, w.ntensors, 0, 1.0);
            rows.push((
                s.label(),
                c.stall.as_secs_f64(),
                c.update_latency().as_secs_f64(),
            ));
        }
    }
    rows
}

/// Push vs polling at several intervals: (label, mean update latency s, CIL).
pub fn notify_vs_poll() -> Vec<(String, f64, f64)> {
    let w = WorkloadProfile::tc1();
    let profile = MachineProfile::polaris();
    let costs = pipeline_costs(
        &profile,
        crate::gpu_async(),
        w.model_bytes,
        w.ntensors,
        0,
        1.0,
    );
    let s = w.warmup_end();
    let sched: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    let mk = |discovery| SimConfig {
        t_train: w.t_train,
        t_infer: w.t_infer,
        costs,
        s_iter: s,
        e_iter: w.run_end(),
        schedule: sched.clone(),
        total_infers: w.total_infers,
        discovery,
    };
    let mut rows = Vec::new();
    let push = simulate(&mk(Discovery::Push), &|i| w.loss_at(i));
    rows.push((
        "push (<1 ms)".to_string(),
        push.mean_update_latency,
        push.cil,
    ));
    for interval in [0.001, 0.1, 1.0, 5.0] {
        let r = simulate(&mk(Discovery::Poll { interval }), &|i| w.loss_at(i));
        rows.push((format!("poll {interval}s"), r.mean_update_latency, r.cil));
    }
    rows
}

/// Format comparison on the PFS for TC1: (format, encoded GB, PFS update latency s).
pub fn format_overhead() -> Vec<(String, f64, f64)> {
    let profile = MachineProfile::polaris();
    let w = WorkloadProfile::tc1();
    let strategy = TransferStrategy {
        route: Route::PfsStaging,
        mode: CaptureMode::Sync,
    };
    [&ViperFormat as &dyn CheckpointFormat, &H5Lite]
        .into_iter()
        .map(|f| {
            let bytes = f.encoded_size(w.model_bytes, w.ntensors);
            let costs = pipeline_costs(
                &profile,
                strategy,
                bytes,
                w.ntensors,
                0,
                f.metadata_ops_factor(),
            );
            (
                f.name().to_string(),
                bytes as f64 / 1e9,
                costs.update_latency().as_secs_f64(),
            )
        })
        .collect()
}

/// Greedy threshold sensitivity: (multiplier, #checkpoints, simulated CIL).
pub fn threshold_sensitivity() -> Vec<(f64, usize, f64)> {
    let w = WorkloadProfile::tc1();
    let profile = MachineProfile::polaris();
    let costs = pipeline_costs(
        &profile,
        crate::gpu_async(),
        w.model_bytes,
        w.ntensors,
        0,
        1.0,
    );
    let params = CostParams {
        t_train: w.t_train,
        t_infer: w.t_infer,
        t_stall: costs.stall.as_secs_f64(),
        t_load: (costs.post_stall + costs.notify).as_secs_f64(),
    };
    let warmup = w.warmup_losses(42);
    let tlp = fit::fit_best(&warmup);
    let base_thresh = schedule::threshold_from_warmup(&warmup);
    let (s, e) = (w.warmup_end(), w.run_end());

    [0.25, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|mult| {
            let plan = schedule::greedy(&tlp, &params, s, e, w.total_infers, base_thresh * mult);
            let cfg = SimConfig {
                t_train: w.t_train,
                t_infer: w.t_infer,
                costs,
                s_iter: s,
                e_iter: e,
                schedule: plan.checkpoints.clone(),
                total_infers: w.total_infers,
                discovery: Discovery::Push,
            };
            let r = simulate(&cfg, &|i| w.loss_at(i));
            (mult, plan.num_checkpoints(), r.cil)
        })
        .collect()
}

/// Data-parallel producer scaling (DeepFreeze-style sharded capture) on
/// the TC1 epoch schedule: `(ranks, per-rank overhead s, CIL)`.
pub fn producer_scaling() -> Vec<(usize, f64, f64)> {
    use viper_des::{simulate_multi, ConsumerSpec, MultiSimConfig};
    let w = WorkloadProfile::tc1();
    let profile = MachineProfile::polaris();
    let costs = pipeline_costs(
        &profile,
        crate::gpu_async(),
        w.model_bytes,
        w.ntensors,
        0,
        1.0,
    );
    let s = w.warmup_end();
    let schedule: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|ranks| {
            let cfg = MultiSimConfig {
                nproducers: ranks,
                t_train: w.t_train,
                costs,
                s_iter: s,
                e_iter: w.run_end(),
                schedule: schedule.clone(),
                consumers: vec![ConsumerSpec {
                    t_infer: w.t_infer,
                    total_infers: w.total_infers,
                    discovery: Discovery::Push,
                }],
            };
            let r = simulate_multi(&cfg, &|i| w.loss_at(i));
            (ranks, r.training_overhead_per_rank, r.total_cil())
        })
        .collect()
}

/// Scheduler shoot-out on TC1: the paper's three schedules plus a
/// CheckFreq-style overhead-bounded baseline (frequency tuned for
/// resilience, not inference quality). Returns
/// `(label, #checkpoints, simulated CIL)`.
pub fn scheduler_comparison() -> Vec<(String, usize, f64)> {
    let w = WorkloadProfile::tc1();
    let profile = MachineProfile::polaris();
    let costs = pipeline_costs(
        &profile,
        crate::gpu_async(),
        w.model_bytes,
        w.ntensors,
        0,
        1.0,
    );
    let params = CostParams {
        t_train: w.t_train,
        t_infer: w.t_infer,
        t_stall: costs.stall.as_secs_f64(),
        t_load: (costs.post_stall + costs.notify).as_secs_f64(),
    };
    let warmup = w.warmup_losses(42);
    let tlp = fit::fit_best(&warmup);
    let (s, e) = (w.warmup_end(), w.run_end());

    let sim = |ckpts: &[u64]| {
        let cfg = SimConfig {
            t_train: w.t_train,
            t_infer: w.t_infer,
            costs,
            s_iter: s,
            e_iter: e,
            schedule: ckpts.to_vec(),
            total_infers: w.total_infers,
            discovery: Discovery::Push,
        };
        simulate(&cfg, &|i| w.loss_at(i)).cil
    };

    let baseline: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    let fixed = schedule::fixed_interval(&tlp, &params, s, e, w.total_infers);
    let greedy = schedule::greedy(
        &tlp,
        &params,
        s,
        e,
        w.total_infers,
        schedule::threshold_from_warmup(&warmup),
    );
    let checkfreq = schedule::overhead_bounded(&tlp, &params, s, e, w.total_infers, 0.01);

    vec![
        ("epoch-baseline".to_string(), baseline.len(), sim(&baseline)),
        (
            "ipp-fixed".to_string(),
            fixed.num_checkpoints(),
            sim(&fixed.checkpoints),
        ),
        (
            "ipp-greedy".to_string(),
            greedy.num_checkpoints(),
            sim(&greedy.checkpoints),
        ),
        (
            "checkfreq-style (1%)".to_string(),
            checkfreq.num_checkpoints(),
            sim(&checkfreq.checkpoints),
        ),
    ]
}

/// Measured result of one straggler-delivery mode in
/// [`straggler_coalescing`].
pub struct StragglerRow {
    /// Delivery mode label (`fifo (unbounded)` / `coalesce (bound 1)`).
    pub mode: String,
    /// Updates the straggler actually installed.
    pub delivered: u64,
    /// Updates collapsed away before hitting the wire.
    pub superseded: u64,
    /// Mean versions-behind at install time.
    pub mean_staleness: f64,
    /// Worst versions-behind at install time.
    pub max_staleness: u64,
    /// Virtual instant the straggler finally holds the newest version.
    pub makespan: f64,
}

/// Straggler-consumer delivery: unbounded FIFO vs collapse-to-latest
/// coalescing, as a deterministic single-server queueing model built from
/// the production pieces — [`CoalesceQueue`](viper_net::CoalesceQueue) for
/// the backlog and [`backoff_with_pressure`](viper_net::RetryPolicy::backoff_with_pressure) for the per-round
/// repair cost.
///
/// The producer emits a new version every `DT` seconds (training never
/// blocks); the straggler's link drops 75% of chunks per repair round, so
/// its per-update service time exceeds the production cadence. Without
/// coalescing the backlog (and the versions-behind staleness of every
/// install) grows without bound; with the lane's one-slot queue the
/// straggler skips superseded versions and its staleness stays bounded by
/// a single service time.
pub fn straggler_coalescing() -> Vec<StragglerRow> {
    use std::collections::VecDeque;
    use viper_net::{CoalesceQueue, FaultRng, RetryPolicy};

    const N: u64 = 200; // versions produced
    const DT: f64 = 0.25; // production cadence (s)
    const CHUNKS: u32 = 8; // chunks per update
    const WIRE: f64 = 0.12; // per-repair-round wire time (s)
    const SEED: u64 = 7;

    enum Backlog {
        Fifo(VecDeque<u64>),
        Coalesce(CoalesceQueue<u64>),
    }
    impl Backlog {
        fn push(&mut self, v: u64) {
            match self {
                Backlog::Fifo(q) => q.push_back(v),
                Backlog::Coalesce(q) => {
                    q.push(v, v);
                }
            }
        }
        fn pop(&mut self) -> Option<u64> {
            match self {
                Backlog::Fifo(q) => q.pop_front(),
                Backlog::Coalesce(q) => q.pop().map(|(v, _)| v),
            }
        }
        fn len(&self) -> usize {
            match self {
                Backlog::Fifo(q) => q.len(),
                Backlog::Coalesce(q) => q.len(),
            }
        }
        fn superseded(&self) -> u64 {
            match self {
                Backlog::Fifo(_) => 0,
                Backlog::Coalesce(q) => q.superseded(),
            }
        }
    }

    let created_at = |v: u64| v as f64 * DT;
    let run = |coalesce: bool| -> StragglerRow {
        let mut backlog = if coalesce {
            Backlog::Coalesce(CoalesceQueue::new())
        } else {
            Backlog::Fifo(VecDeque::new())
        };
        // The fault plan's stream: a chunk survives a round with
        // probability 1/4.
        let mut rng = FaultRng::new(SEED);
        let mut now = 0.0f64;
        let mut next_version = 1u64;
        let mut delivered = 0u64;
        let mut staleness_sum = 0u64;
        let mut max_staleness = 0u64;
        loop {
            while next_version <= N && created_at(next_version) <= now {
                backlog.push(next_version);
                next_version += 1;
            }
            let Some(version) = backlog.pop() else {
                if next_version > N {
                    break;
                }
                now = created_at(next_version);
                continue;
            };
            // One repair round per iteration: wire time for the outstanding
            // chunks, then a pressure-scaled backoff before the next round.
            let mut remaining = CHUNKS;
            let mut attempt = 0u32;
            while remaining > 0 {
                attempt += 1;
                now += WIRE;
                remaining = (0..remaining)
                    .filter(|_| !rng.next_u64().is_multiple_of(4))
                    .count() as u32;
                if remaining > 0 {
                    now += RetryPolicy::backoff_with_pressure(attempt, backlog.len()).as_secs_f64();
                }
            }
            delivered += 1;
            let latest = N.min((now / DT) as u64);
            let behind = latest.saturating_sub(version);
            staleness_sum += behind;
            max_staleness = max_staleness.max(behind);
        }
        StragglerRow {
            mode: if coalesce {
                "coalesce (bound 1)".into()
            } else {
                "fifo (unbounded)".into()
            },
            delivered,
            superseded: backlog.superseded(),
            mean_staleness: staleness_sum as f64 / delivered.max(1) as f64,
            max_staleness,
            makespan: now,
        }
    };

    vec![run(false), run(true)]
}

/// Measured result of the incremental (delta) checkpointing ablation.
pub struct DeltaSavings {
    /// Full checkpoint encoded size in bytes.
    pub full_bytes: u64,
    /// Delta encoded size in bytes (same update, diffed against the
    /// previous fine-tuning epoch).
    pub delta_bytes: u64,
    /// Fraction of tensors the delta carries (1.0 = nothing saved).
    pub changed_fraction: f64,
    /// Virtual-clock transfer makespans per route:
    /// `(route label, full update latency s, delta update latency s)`.
    pub makespans: Vec<(String, f64, f64)>,
}

/// Incremental (delta) checkpointing on a transfer-learning trace: NT3's
/// convolutional backbone is frozen, only the dense head trains. Measures
/// encoded sizes for a checkpoint pair one fine-tuning epoch apart, plus
/// the virtual-clock transfer makespan of shipping each encoding over the
/// memory and PFS routes.
pub fn delta_savings() -> DeltaSavings {
    use viper_dnn::{layers, losses, optimizers, FitConfig, Model};

    // Freeze the whole feature extractor (conv backbone + the wide dense
    // projection); only the small classification head fine-tunes — the
    // classic transfer-learning split.
    let mut model = Model::new("nt3-ft", 5)
        .push(layers::Conv1D::with_seed(5, 1, 8, 1, 1).frozen())
        .push(layers::ReLU::new())
        .push(layers::MaxPool1D::new(2, 2))
        .push(layers::Conv1D::with_seed(3, 8, 16, 1, 2).frozen())
        .push(layers::ReLU::new())
        .push(layers::MaxPool1D::new(2, 2))
        .push(layers::Flatten::new())
        .push(layers::Dense::with_seed(14 * 16, 32, 3).frozen())
        .push(layers::ReLU::new())
        .push(layers::Dense::with_seed(32, 2, 4));
    let (train, _) = viper_workloads::nt3::datasets(0.03, 5);
    let mut opt = optimizers::Sgd::with_momentum(0.02, 0.9);
    let cfg = FitConfig {
        epochs: 1,
        batch_size: 8,
        shuffle: true,
    };

    model
        .fit(
            &train,
            &losses::SoftmaxCrossEntropy,
            &mut opt,
            &cfg,
            &mut [],
        )
        .unwrap();
    let base = viper_formats::Checkpoint::new("nt3-ft", model.iteration(), model.named_weights());
    model
        .fit(
            &train,
            &losses::SoftmaxCrossEntropy,
            &mut opt,
            &cfg,
            &mut [],
        )
        .unwrap();
    let next = viper_formats::Checkpoint::new("nt3-ft", model.iteration(), model.named_weights());

    let full = ViperFormat.encode(&next).len() as u64;
    let delta = viper_formats::delta::diff(&base, &next).expect("same architecture");
    let delta_bytes = delta.encode().len() as u64;

    // Price both encodings through the same virtual-clock cost model the
    // runtime charges: a delta moves fewer bytes and touches fewer tensors,
    // so its modeled update latency must shrink on every route.
    let profile = MachineProfile::polaris();
    let makespans = [
        ("host-to-host", Route::HostToHost),
        ("pfs-staging", Route::PfsStaging),
    ]
    .into_iter()
    .map(|(label, route)| {
        let s = TransferStrategy {
            route,
            mode: CaptureMode::Sync,
        };
        let full_t = pipeline_costs(&profile, s, full, next.ntensors(), 0, 1.0)
            .update_latency()
            .as_secs_f64();
        let delta_t = pipeline_costs(&profile, s, delta_bytes, delta.changed.len().max(1), 0, 1.0)
            .update_latency()
            .as_secs_f64();
        (label.to_string(), full_t, delta_t)
    })
    .collect();

    DeltaSavings {
        full_bytes: full,
        delta_bytes,
        changed_fraction: delta.changed_fraction(),
        makespans,
    }
}

/// Relay-tree fan-out at fleet scale: direct unicast vs the cache-assisted
/// multicast tree, on the closed-form distribution timeline
/// ([`viper_des::simulate_fanout`]), one configuration and result per fleet
/// size. Each member is priced by the engine's stage table
/// ([`viper_hw::fanout_hop`]) for the 600 MB NT3-A model in one chunk over
/// GPUDirect: one more flow on the sender's link, and a relay re-serves
/// once it has installed. Each fleet runs several update rounds under
/// seeded churn (failures and joins, each healed by rebuilding the tree)
/// and 10% straggler links at 8x slowdown. Direct delivery grows linearly
/// with the fleet; the tree grows with `fanout · log_fanout n`.
pub fn fanout_tree() -> Vec<(FanoutConfig, FanoutResult)> {
    let w = WorkloadProfile::nt3_a();
    let profile = MachineProfile::polaris();
    let hop = fanout_hop(&profile, Route::GpuToGpu, w.model_bytes, w.ntensors, 0);
    [1_000usize, 10_000, 100_000]
        .into_iter()
        .map(|consumers| {
            let cfg = FanoutConfig {
                consumers,
                fanout: 8,
                hop,
                rounds: 6,
                churn_per_round: 4,
                straggler_fraction: 0.1,
                straggler_slowdown: 8,
                seed: 7,
            };
            let r = simulate_fanout(&cfg);
            assert_eq!(
                r.delivery_violations, 0,
                "coverage must hold at {consumers}"
            );
            (cfg, r)
        })
        .collect()
}

/// PFS update latency under concurrent writer load (the §3 argument that
/// uncoordinated small I/O under concurrency makes the PFS a bottleneck).
/// Returns `(concurrent streams, modeled TC1 update write time s)`.
pub fn pfs_contention() -> Vec<(usize, f64)> {
    let profile = MachineProfile::polaris();
    let w = WorkloadProfile::tc1();
    let spec = profile.tier(viper_hw::Tier::Pfs);
    (0..4)
        .map(|k| {
            let load = 1 << k;
            let t = spec.write_time_loaded(w.model_bytes, w.ntensors, load);
            (load, t.as_secs_f64())
        })
        .collect()
}

/// Render all ablations as markdown sections.
pub fn render_all() -> String {
    let mut out = String::new();

    out.push_str("### Sync vs async capture (TC1, 4.7 GB)\n\n");
    let rows: Vec<Vec<String>> = sync_vs_async()
        .into_iter()
        .map(|(l, stall, lat)| vec![l, format!("{stall:.3}"), format!("{lat:.3}")])
        .collect();
    out.push_str(&crate::markdown_table(
        &["strategy", "producer stall (s)", "update latency (s)"],
        &rows,
    ));

    out.push_str("\n### Push notification vs polling (TC1, epoch schedule)\n\n");
    let rows: Vec<Vec<String>> = notify_vs_poll()
        .into_iter()
        .map(|(l, lat, cil)| vec![l, format!("{lat:.3}"), format!("{cil:.0}")])
        .collect();
    out.push_str(&crate::markdown_table(
        &["discovery", "mean update latency (s)", "CIL"],
        &rows,
    ));

    out.push_str("\n### Checkpoint format overhead on the PFS (TC1)\n\n");
    let rows: Vec<Vec<String>> = format_overhead()
        .into_iter()
        .map(|(f, gb, lat)| vec![f, format!("{gb:.2}"), format!("{lat:.2}")])
        .collect();
    out.push_str(&crate::markdown_table(
        &["format", "encoded size (GB)", "update latency (s)"],
        &rows,
    ));

    out.push_str("\n### Greedy threshold sensitivity (TC1)\n\n");
    let rows: Vec<Vec<String>> = threshold_sensitivity()
        .into_iter()
        .map(|(m, n, cil)| vec![format!("{m}x"), n.to_string(), format!("{cil:.0}")])
        .collect();
    out.push_str(&crate::markdown_table(
        &["threshold multiplier", "#checkpoints", "simulated CIL"],
        &rows,
    ));

    out.push_str("\n### Scheduler comparison (TC1, GPU transfer)\n\n");
    let rows: Vec<Vec<String>> = scheduler_comparison()
        .into_iter()
        .map(|(l, n, cil)| vec![l, n.to_string(), format!("{cil:.0}")])
        .collect();
    out.push_str(&crate::markdown_table(
        &["scheduler", "#checkpoints", "simulated CIL"],
        &rows,
    ));

    out.push_str("\n### Incremental (delta) checkpointing (NT3 fine-tune, frozen backbone)\n\n");
    let savings = delta_savings();
    out.push_str(&crate::markdown_table(
        &["checkpoint", "encoded bytes", "changed tensors"],
        &[
            vec!["full".into(), savings.full_bytes.to_string(), "100%".into()],
            vec![
                "delta".into(),
                savings.delta_bytes.to_string(),
                format!("{:.0}%", savings.changed_fraction * 100.0),
            ],
        ],
    ));

    out.push_str("\n### Delta transfer makespan (virtual clock, sync capture)\n\n");
    let rows: Vec<Vec<String>> = savings
        .makespans
        .iter()
        .map(|(route, full_t, delta_t)| {
            vec![
                route.clone(),
                format!("{full_t:.4}"),
                format!("{delta_t:.4}"),
                format!("{:.1}x", full_t / delta_t),
            ]
        })
        .collect();
    out.push_str(&crate::markdown_table(
        &["route", "full (s)", "delta (s)", "speedup"],
        &rows,
    ));

    out.push_str("\n### Straggler consumer: FIFO vs collapse-to-latest coalescing\n\n");
    let straggler = straggler_coalescing();
    let rows: Vec<Vec<String>> = straggler
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.delivered.to_string(),
                r.superseded.to_string(),
                format!("{:.1}", r.mean_staleness),
                r.max_staleness.to_string(),
                format!("{:.1}", r.makespan),
            ]
        })
        .collect();
    out.push_str(&crate::markdown_table(
        &[
            "delivery mode",
            "delivered",
            "superseded",
            "mean staleness (versions)",
            "max staleness",
            "drain makespan (s)",
        ],
        &rows,
    ));
    let (fifo, coalesce) = (&straggler[0], &straggler[1]);
    out.push_str(&format!(
        "\nOne consumer behind a link dropping 75% of chunks per repair round, {n} versions \
         produced at a fixed training cadence (the producer never blocks). Unbounded FIFO \
         delivery ships every version, so the straggler's backlog — and the versions-behind \
         staleness of every install — grows without bound and it only drains long after \
         training ends. Collapse-to-latest coalescing (queue bound 1) supersedes {superseded} \
         stale versions before they hit the wire; staleness stays bounded by a single service \
         time and the straggler converges {speedup:.1}× sooner. Accounting is exact: delivered \
         + superseded = {n}. Built from the production `CoalesceQueue` and \
         `RetryPolicy::backoff_with_pressure`, fully deterministic (seed 7).\n",
        n = fifo.delivered,
        superseded = coalesce.superseded,
        speedup = fifo.makespan / coalesce.makespan,
    ));

    out.push_str("\n### Relay-tree fan-out at fleet scale (fanout 8, churn + 10% stragglers)\n\n");
    let fleets = fanout_tree();
    let rows: Vec<Vec<String>> = fleets
        .iter()
        .map(|(cfg, r)| {
            vec![
                cfg.consumers.to_string(),
                r.max_depth().to_string(),
                format!("{:.1}", r.direct_makespan()),
                format!("{:.3}", r.tree_makespan()),
                format!("{:.0}x", r.speedup()),
                r.reparent_events.to_string(),
                r.join_events.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::markdown_table(
        &[
            "consumers",
            "tree depth",
            "direct makespan (s)",
            "tree makespan (s)",
            "speedup",
            "reparents",
            "joins",
        ],
        &rows,
    ));
    let depths: Vec<String> = fleets
        .iter()
        .map(|(_, r)| r.max_depth().to_string())
        .collect();
    let hop = fleets[0].0.hop;
    out.push_str(&format!(
        "\nEach member is priced by the engine's stage table (`viper_hw::fanout_hop`): one full \
         600 MB NT3-A model in one chunk over GPUDirect is {wire:.1} ms on a healthy link, and \
         {tail:.1} ms more to notify, apply and swap. Every node serializes its sends; a relay \
         re-serves after it installs. So direct unicast pays a makespan linear in the fleet \
         while the fan-out-8 relay tree pays one or two more levels per 10× (depth {depths}, \
         `O(fanout · log_fanout n)`). Each \
         fleet runs 6 update rounds under seeded churn — failures and joins, each healed by \
         building the tree again over the new member list, as the runtime does — and 10% \
         straggler links at 8× slowdown; every round asserts exactly-once coverage (each live \
         member reachable from the root exactly once). The runtime counterpart \
         (`tests/relay_tree.rs`) drives 7-consumer trees over the real fault-injected fabric \
         and asserts the same invariant from the installed-update counters.\n",
        wire = hop.wire.as_secs_f64() * 1e3,
        tail = hop.tail.as_secs_f64() * 1e3,
        depths = depths.join(" → ")
    ));

    out.push_str("\n### PFS write contention (TC1 checkpoint, concurrent streams)\n\n");
    let rows: Vec<Vec<String>> = pfs_contention()
        .into_iter()
        .map(|(load, t)| vec![load.to_string(), format!("{t:.2}")])
        .collect();
    out.push_str(&crate::markdown_table(
        &["concurrent writers", "write time (s)"],
        &rows,
    ));

    out.push_str("\n### Data-parallel producer scaling (sharded capture, TC1)\n\n");
    let rows: Vec<Vec<String>> = producer_scaling()
        .into_iter()
        .map(|(r, o, cil)| vec![r.to_string(), format!("{o:.2}"), format!("{cil:.0}")])
        .collect();
    out.push_str(&crate::markdown_table(
        &["producer ranks", "per-rank overhead (s)", "CIL"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_always_trades_stall_for_latency() {
        let rows = sync_vs_async();
        // Pairs: (gpu sync, gpu async, host sync, host async).
        assert!(rows[1].1 < rows[0].1, "gpu async stalls less");
        assert!(rows[1].2 > rows[0].2, "gpu async latency higher");
        assert!(rows[3].1 < rows[2].1, "host async stalls less");
    }

    #[test]
    fn slower_polling_hurts_latency_and_cil() {
        let rows = notify_vs_poll();
        let push = &rows[0];
        let slow = rows.last().unwrap();
        assert!(push.1 < slow.1);
        assert!(push.2 <= slow.2);
        // CIL is monotone non-decreasing in poll interval.
        for pair in rows[1..].windows(2) {
            assert!(pair[0].2 <= pair[1].2 + 1e-9);
        }
    }

    #[test]
    fn h5_format_bigger_and_slower() {
        let rows = format_overhead();
        let viper = rows.iter().find(|r| r.0 == "viper").unwrap();
        let h5 = rows.iter().find(|r| r.0 == "h5py").unwrap();
        assert!(h5.1 > viper.1);
        assert!(h5.2 > viper.2);
    }

    #[test]
    fn producer_scaling_amortizes_overhead() {
        let rows = producer_scaling();
        for pair in rows.windows(2) {
            assert!(
                pair[1].1 < pair[0].1,
                "per-rank overhead must shrink: {rows:?}"
            );
            assert!(pair[1].2 <= pair[0].2 + 1e-6, "CIL must not grow: {rows:?}");
        }
        // Halving is exact under sharded capture.
        assert!((rows[0].1 / rows[3].1 - 8.0).abs() < 1e-6);
    }

    #[test]
    fn ipp_schedules_beat_checkfreq_style_on_cil() {
        let rows = scheduler_comparison();
        let cil = |label: &str| rows.iter().find(|r| r.0.starts_with(label)).unwrap().2;
        assert!(cil("ipp-fixed") <= cil("checkfreq-style") + 1e-9);
        assert!(cil("ipp-greedy") <= cil("epoch-baseline") + 1e-9);
    }

    #[test]
    fn delta_much_smaller_with_frozen_backbone() {
        let s = delta_savings();
        // The frozen conv backbone is the minority of NT3's bytes, but the
        // delta must still be strictly smaller and carry < 100% of tensors.
        assert!(
            s.delta_bytes < s.full_bytes,
            "delta {} !< full {}",
            s.delta_bytes,
            s.full_bytes
        );
        assert!(s.changed_fraction < 1.0, "{}", s.changed_fraction);
        assert!(s.changed_fraction > 0.0, "the head must actually train");
        // Fewer wire bytes must show up as a shorter modeled makespan on
        // every route the ablation prices.
        assert_eq!(s.makespans.len(), 2);
        for (route, full_t, delta_t) in &s.makespans {
            assert!(
                delta_t < full_t,
                "{route}: delta {delta_t}s !< full {full_t}s"
            );
        }
    }

    #[test]
    fn pfs_contention_scales_write_time() {
        let rows = pfs_contention();
        assert_eq!(rows[0].0, 1);
        for pair in rows.windows(2) {
            assert!(pair[1].1 > pair[0].1, "{rows:?}");
        }
        // 8 concurrent writers cost ~8x the payload time.
        let (first, last) = (rows[0].1, rows.last().unwrap().1);
        assert!(last / first > 5.0, "{rows:?}");
    }

    #[test]
    fn fanout_tree_makespan_grows_sublinearly() {
        let rows: Vec<FanoutResult> = fanout_tree().into_iter().map(|(_, r)| r).collect();
        assert_eq!(rows.len(), 3);
        for pair in rows.windows(2) {
            // 10x the fleet: direct pays ~10x, the tree pays one or two
            // more levels.
            let direct_growth = pair[1].direct_makespan() / pair[0].direct_makespan();
            let tree_growth = pair[1].tree_makespan() / pair[0].tree_makespan();
            assert!(direct_growth > 5.0, "direct grew only {direct_growth:.1}x");
            assert!(tree_growth < 2.0, "tree grew {tree_growth:.1}x");
            assert!(pair[1].speedup() > pair[0].speedup(), "speed-ups must grow");
        }
        let depths: Vec<usize> = rows.iter().map(FanoutResult::max_depth).collect();
        assert_eq!(depths, [5, 6, 7]);
        for r in &rows {
            assert!(r.speedup() > 10.0, "speedup {:.0}", r.speedup());
            assert!(r.reparent_events > 0, "churn must exercise relay failures");
        }
    }

    #[test]
    fn raising_threshold_reduces_checkpoints() {
        let rows = threshold_sensitivity();
        for pair in rows.windows(2) {
            assert!(pair[1].1 <= pair[0].1, "{rows:?}");
        }
        // And some threshold in the sweep actually checkpoints.
        assert!(rows[0].1 > 0);
    }
}
