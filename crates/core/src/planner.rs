//! Glue between the framework and the Inference Performance Predictor:
//! derive [`viper_predictor::CostParams`] from the deployment's measured
//! bandwidths and produce a checkpoint schedule from warm-up losses.
//!
//! This is the "Adjust checkpoint interval" loop of Fig. 3: the warm-up
//! runs with a provisional policy, the observed losses fit a learning
//! curve, the bandwidth probes price a model update, and the IPP emits the
//! schedule the [`crate::CheckpointCallback`] then follows.

use viper_hw::{pipeline_costs, MachineProfile, TransferStrategy};
use viper_predictor::{cilp::CostParams, fit, schedule, FittedCurve, Schedule};

/// Derive the IPP cost parameters for a deployment.
///
/// `t_train`/`t_infer` come from profiling one epoch (constant per Fig. 6);
/// the stall and load terms come from pricing one model update of
/// `model_bytes` under the configured strategy.
pub fn cost_params(
    profile: &MachineProfile,
    strategy: TransferStrategy,
    model_bytes: u64,
    ntensors: usize,
    metadata_factor: f64,
    t_train: f64,
    t_infer: f64,
) -> CostParams {
    let costs = pipeline_costs(profile, strategy, model_bytes, ntensors, 0, metadata_factor);
    CostParams {
        t_train,
        t_infer,
        t_stall: costs.stall.as_secs_f64(),
        t_load: (costs.post_stall + costs.notify).as_secs_f64(),
    }
}

/// Fit the warm-up losses and return the best learning curve (the TLP).
pub fn fit_warmup(warmup_losses: &[f64]) -> FittedCurve {
    fit::fit_best(warmup_losses)
}

/// Produce the near-optimal fixed-interval schedule (Algorithm 2).
pub fn plan_fixed(
    tlp: &FittedCurve,
    params: &CostParams,
    s_iter: u64,
    e_iter: u64,
    total_infers: u64,
) -> Schedule {
    schedule::fixed_interval(tlp, params, s_iter, e_iter, total_infers)
}

/// Produce the greedy irregular-interval schedule (Algorithm 3), deriving
/// the threshold from the warm-up losses as the paper prescribes.
pub fn plan_adaptive(
    tlp: &FittedCurve,
    params: &CostParams,
    warmup_losses: &[f64],
    s_iter: u64,
    e_iter: u64,
    total_infers: u64,
) -> Schedule {
    let thresh = schedule::threshold_from_warmup(warmup_losses);
    schedule::greedy(tlp, params, s_iter, e_iter, total_infers, thresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viper_hw::{CaptureMode, Route};

    fn strategy() -> TransferStrategy {
        TransferStrategy {
            route: Route::GpuToGpu,
            mode: CaptureMode::Async,
        }
    }

    #[test]
    fn cost_params_reflect_strategy_speed() {
        let profile = MachineProfile::polaris();
        let gpu = cost_params(&profile, strategy(), 4_700_000_000, 20, 1.0, 0.06, 0.005);
        let pfs = cost_params(
            &profile,
            TransferStrategy {
                route: Route::PfsStaging,
                mode: CaptureMode::Sync,
            },
            4_700_000_000,
            20,
            1.0,
            0.06,
            0.005,
        );
        assert!(gpu.t_stall < pfs.t_stall);
        assert!(gpu.t_load < pfs.t_load);
        assert_eq!(gpu.t_train, 0.06);
    }

    #[test]
    fn end_to_end_planning_pipeline() {
        let warmup: Vec<f64> = (0..200)
            .map(|i| 2.0 * (-0.01 * i as f64).exp() + 0.3)
            .collect();
        let tlp = fit_warmup(&warmup);
        let profile = MachineProfile::polaris();
        let params = cost_params(&profile, strategy(), 1_700_000_000, 16, 1.0, 0.3, 0.005);
        let fixed = plan_fixed(&tlp, &params, 200, 800, 25_000);
        let adaptive = plan_adaptive(&tlp, &params, &warmup, 200, 800, 25_000);
        assert!(fixed.interval >= 1);
        assert!(!adaptive.checkpoints.is_empty());
        // Both predictor schedules should beat a single-checkpoint plan.
        let naive = schedule::evaluate_checkpoints(&tlp, &params, 200, &[800], 25_000);
        assert!(fixed.predicted_cil <= naive);
        assert!(adaptive.predicted_cil <= naive);
    }
}
