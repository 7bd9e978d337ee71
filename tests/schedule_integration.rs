//! Predictor ↔ simulator consistency: the IPP's schedules, derived only
//! from warm-up observations, must hold up against the ground-truth
//! discrete-event simulation — the §5.4 claims.

use viper::{planner, ViperConfig};
use viper_des::{simulate, Discovery, SimConfig};
use viper_hw::{pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};
use viper_predictor::schedule;
use viper_workloads::WorkloadProfile;

/// The deployment the schedules are planned for: GPU route, async capture.
fn gpu_config() -> ViperConfig {
    ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Async)
}

fn gpu_strategy() -> TransferStrategy {
    gpu_config().strategy
}

/// Ground-truth CIL of a checkpoint list under the DES.
fn simulate_cil(w: &WorkloadProfile, checkpoints: Vec<u64>) -> f64 {
    let profile = MachineProfile::polaris();
    let costs = pipeline_costs(&profile, gpu_strategy(), w.model_bytes, w.ntensors, 0, 1.0);
    let cfg = SimConfig {
        t_train: w.t_train,
        t_infer: w.t_infer,
        costs,
        s_iter: w.warmup_end(),
        e_iter: w.run_end(),
        schedule: checkpoints,
        total_infers: w.total_infers,
        discovery: Discovery::Push,
    };
    simulate(&cfg, &|iter| w.loss_at(iter)).cil
}

/// Run the full §5.4 pipeline for one workload: warm-up → fit → plan →
/// simulate all three schedules. Returns (baseline, fixed, adaptive) CILs
/// and the two plans' checkpoint counts.
fn run_fig10(w: &WorkloadProfile) -> (f64, f64, f64, usize, usize) {
    let warmup = w.warmup_losses(42);
    let tlp = planner::fit_warmup(&warmup);
    let params = planner::cost_params(
        &gpu_config(),
        w.model_bytes,
        w.ntensors,
        w.t_train,
        w.t_infer,
    );
    let (s, e) = (w.warmup_end(), w.run_end());

    let baseline: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    let fixed = planner::plan_fixed(&tlp, &params, s, e, w.total_infers);
    let adaptive = planner::plan_adaptive(&tlp, &params, &warmup, s, e, w.total_infers);

    let cil_base = simulate_cil(w, baseline);
    let cil_fixed = simulate_cil(w, fixed.checkpoints.clone());
    let cil_adapt = simulate_cil(w, adaptive.checkpoints.clone());
    (
        cil_base,
        cil_fixed,
        cil_adapt,
        fixed.num_checkpoints(),
        adaptive.num_checkpoints(),
    )
}

#[test]
fn tc1_schedules_beat_epoch_baseline() {
    let (base, fixed, adapt, n_fixed, n_adapt) = run_fig10(&WorkloadProfile::tc1());
    assert!(fixed <= base * 1.001, "fixed {fixed} vs baseline {base}");
    assert!(adapt <= base * 1.001, "adaptive {adapt} vs baseline {base}");
    // Table 1: adaptive uses fewer checkpoints than fixed for TC1.
    assert!(n_adapt < n_fixed, "adaptive {n_adapt} !< fixed {n_fixed}");
}

#[test]
fn nt3b_schedules_beat_epoch_baseline() {
    let (base, fixed, adapt, _, n_adapt) = run_fig10(&WorkloadProfile::nt3_b());
    assert!(fixed <= base * 1.001, "fixed {fixed} vs baseline {base}");
    assert!(adapt <= base * 1.001, "adaptive {adapt} vs baseline {base}");
    assert!(n_adapt > 0);
}

#[test]
fn ptychonn_schedules_beat_epoch_baseline() {
    let (base, fixed, adapt, _, _) = run_fig10(&WorkloadProfile::ptychonn());
    assert!(fixed <= base * 1.001, "fixed {fixed} vs baseline {base}");
    assert!(adapt <= base * 1.001, "adaptive {adapt} vs baseline {base}");
}

#[test]
fn predictor_cil_tracks_simulated_cil() {
    // The CILP's predicted CIL should be within ~15% of the DES ground
    // truth for the baseline schedule (same cost model, different engines).
    let w = WorkloadProfile::tc1();
    let warmup = w.warmup_losses(42);
    let tlp = planner::fit_warmup(&warmup);
    let params = planner::cost_params(
        &gpu_config(),
        w.model_bytes,
        w.ntensors,
        w.t_train,
        w.t_infer,
    );
    let (s, _e) = (w.warmup_end(), w.run_end());
    let baseline: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    let predicted = schedule::evaluate_checkpoints(&tlp, &params, s, &baseline, w.total_infers);
    let simulated = simulate_cil(&w, baseline);
    let rel = (predicted - simulated).abs() / simulated;
    assert!(
        rel < 0.15,
        "predicted {predicted} vs simulated {simulated} ({rel:.2} rel)"
    );
}

#[test]
fn faster_transfer_gives_lower_cil_in_sim() {
    // Fig. 9's ground truth: same epoch schedule, three strategies.
    let w = WorkloadProfile::tc1();
    let profile = MachineProfile::polaris();
    let (s, _e) = (w.warmup_end(), w.run_end());
    let baseline: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    let mut cils = Vec::new();
    for strategy in [
        TransferStrategy {
            route: Route::GpuToGpu,
            mode: CaptureMode::Async,
        },
        TransferStrategy {
            route: Route::HostToHost,
            mode: CaptureMode::Async,
        },
        TransferStrategy {
            route: Route::PfsStaging,
            mode: CaptureMode::Sync,
        },
    ] {
        let costs = pipeline_costs(&profile, strategy, w.model_bytes, w.ntensors, 0, 1.0);
        let cfg = SimConfig {
            t_train: w.t_train,
            t_infer: w.t_infer,
            costs,
            s_iter: s,
            e_iter: w.run_end(),
            schedule: baseline.clone(),
            total_infers: w.total_infers,
            discovery: Discovery::Push,
        };
        let r = simulate(&cfg, &|iter| w.loss_at(iter));
        cils.push((r.cil, r.training_overhead));
    }
    let (gpu, host, pfs) = (cils[0], cils[1], cils[2]);
    assert!(gpu.0 < host.0 && host.0 < pfs.0, "CIL ordering: {cils:?}");
    assert!(
        gpu.1 < host.1 && host.1 < pfs.1,
        "overhead ordering: {cils:?}"
    );
}

#[test]
fn push_notification_beats_slow_polling() {
    let w = WorkloadProfile::tc1();
    let profile = MachineProfile::polaris();
    let s = w.warmup_end();
    let baseline: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    let costs = pipeline_costs(&profile, gpu_strategy(), w.model_bytes, w.ntensors, 0, 1.0);
    let mk = |discovery| SimConfig {
        t_train: w.t_train,
        t_infer: w.t_infer,
        costs,
        s_iter: s,
        e_iter: w.run_end(),
        schedule: baseline.clone(),
        total_infers: w.total_infers,
        discovery,
    };
    let push = simulate(&mk(Discovery::Push), &|i| w.loss_at(i));
    let poll_fast = simulate(&mk(Discovery::Poll { interval: 0.001 }), &|i| w.loss_at(i));
    let poll_slow = simulate(&mk(Discovery::Poll { interval: 5.0 }), &|i| w.loss_at(i));
    assert!(push.cil <= poll_fast.cil + 1e-9);
    assert!(poll_fast.cil < poll_slow.cil);
    assert!(push.mean_update_latency < poll_slow.mean_update_latency);
}
