//! Schedule explorer: for each paper workload, fit all four learning-curve
//! families to the warm-up losses, then compare the epoch baseline, the
//! fixed-interval schedule (Algorithm 2), and the greedy schedule
//! (Algorithm 3) — both as the predictor sees them and against the
//! ground-truth discrete-event simulation.
//!
//! Run with: `cargo run --release --example schedule_explorer`

use viper_des::{simulate, Discovery, SimConfig};
use viper_hw::{pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};
use viper_predictor::{cilp::CostParams, fit, schedule};
use viper_workloads::WorkloadProfile;

fn simulate_cil(w: &WorkloadProfile, costs: viper_hw::UpdateCosts, ckpts: Vec<u64>) -> f64 {
    let cfg = SimConfig {
        t_train: w.t_train,
        t_infer: w.t_infer,
        costs,
        s_iter: w.warmup_end(),
        e_iter: w.run_end(),
        schedule: ckpts,
        total_infers: w.total_infers,
        discovery: Discovery::Push,
    };
    simulate(&cfg, &|i| w.loss_at(i)).cil
}

fn main() {
    let profile = MachineProfile::polaris();
    let strategy = TransferStrategy {
        route: Route::GpuToGpu,
        mode: CaptureMode::Async,
    };

    for w in WorkloadProfile::fig10_lineup() {
        println!(
            "== {} ({} GB, {} inferences) ==",
            w.name,
            w.model_bytes / 1_000_000_000,
            w.total_infers
        );

        let warmup = w.warmup_losses(42);
        println!(
            "  learning-curve fits over {} warm-up losses:",
            warmup.len()
        );
        for candidate in fit::fit_all(&warmup) {
            println!(
                "    {:<6} mse {:.3e}",
                candidate.model.family(),
                candidate.mse
            );
        }
        let tlp = fit::fit_best(&warmup);
        println!("  selected: {}", tlp.model.family());

        let costs = pipeline_costs(&profile, strategy, w.model_bytes, w.ntensors, 0, 1.0);
        let params = CostParams {
            t_train: w.t_train,
            t_infer: w.t_infer,
            t_stall: costs.stall.as_secs_f64(),
            t_load: (costs.post_stall + costs.notify).as_secs_f64(),
        };
        let (s, e) = (w.warmup_end(), w.run_end());

        let baseline: Vec<u64> = (1..=w.run_epochs)
            .map(|k| s + k * w.iters_per_epoch)
            .collect();
        let base_pred = schedule::evaluate_checkpoints(&tlp, &params, s, &baseline, w.total_infers);
        let fixed = schedule::fixed_interval(&tlp, &params, s, e, w.total_infers);
        let thresh = schedule::threshold_from_warmup(&warmup);
        let greedy = schedule::greedy(&tlp, &params, s, e, w.total_infers, thresh);

        println!(
            "  {:<14} {:>5} ckpts  predicted CIL {:>10.1}  simulated CIL {:>10.1}",
            "baseline",
            baseline.len(),
            base_pred,
            simulate_cil(&w, costs, baseline)
        );
        println!(
            "  {:<14} {:>5} ckpts  predicted CIL {:>10.1}  simulated CIL {:>10.1}   (interval {})",
            "fixed-inter",
            fixed.num_checkpoints(),
            fixed.predicted_cil,
            simulate_cil(&w, costs, fixed.checkpoints.clone()),
            fixed.interval
        );
        println!(
            "  {:<14} {:>5} ckpts  predicted CIL {:>10.1}  simulated CIL {:>10.1}   (threshold {:.4})",
            "adapt-inter",
            greedy.num_checkpoints(),
            greedy.predicted_cil,
            simulate_cil(&w, costs, greedy.checkpoints.clone()),
            thresh
        );
        println!();
    }
}
