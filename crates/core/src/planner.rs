//! Glue between the framework and the Inference Performance Predictor:
//! derive [`viper_predictor::CostParams`] from the deployment's save plan
//! and produce a checkpoint schedule from warm-up losses.
//!
//! This is the "Adjust checkpoint interval" loop of Fig. 3: the warm-up
//! runs with a provisional policy, the observed losses fit a learning
//! curve, the transfer pipeline the engine runs prices a model update, and
//! the IPP emits the schedule the [`crate::CheckpointCallback`] then
//! follows.

use crate::config::{SavePlan, ViperConfig};
use viper_hw::pipeline_costs;
use viper_predictor::{cilp::CostParams, fit, schedule, FittedCurve, Schedule};

/// Derive the IPP cost parameters for a deployment of `config`.
///
/// `t_train`/`t_infer` come from profiling one epoch (constant per Fig. 6).
/// `t_stall` is the stall a save of `model_bytes` over `ntensors` tensors
/// reports on the configured route (its save plan), and `t_load` the
/// rest of the update latency of the configured pipeline (strategy and
/// chunking), both priced by `viper_hw::pipeline_costs` as the engine
/// charges them.
pub fn cost_params(
    config: &ViperConfig,
    model_bytes: u64,
    ntensors: usize,
    t_train: f64,
    t_infer: f64,
) -> CostParams {
    let (profile, route) = (&config.profile, config.strategy.route);
    let meta = config.format.build().metadata_ops_factor();
    let stall =
        SavePlan::new(config, route).stall_price(profile, route, model_bytes, ntensors, meta);
    let latency = pipeline_costs(
        profile,
        config.strategy,
        model_bytes,
        ntensors,
        config.chunk_bytes,
        meta,
    )
    .update_latency();
    CostParams {
        t_train,
        t_infer,
        t_stall: stall.as_secs_f64(),
        t_load: latency.saturating_sub(stall).as_secs_f64(),
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

    #[test]
    fn cost_params_reflect_strategy_speed() {
        let gpu = cost_params(&ViperConfig::default(), 4_700_000_000, 20, 0.06, 0.005);
        let pfs = ViperConfig::default().with_strategy(Route::PfsStaging, CaptureMode::Sync);
        let pfs = cost_params(&pfs, 4_700_000_000, 20, 0.06, 0.005);
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
        let params = cost_params(&ViperConfig::default(), 1_700_000_000, 16, 0.3, 0.005);
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
