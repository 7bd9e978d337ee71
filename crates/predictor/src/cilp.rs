//! The Cumulative Inference Loss Predictor (CILP): Eq. 1, Eq. 2, and
//! Algorithm 1 from the paper.
//!
//! Time parameters are in seconds. The paper validates empirically that
//! per-iteration training time and per-request inference time are constant
//! (Fig. 6), so four scalars fully describe the system.

use crate::fit::FittedCurve;

/// The cost model feeding the CILP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Training time per iteration, `t_train`.
    pub t_train: f64,
    /// Inference time per request, `t_infer`.
    pub t_infer: f64,
    /// Producer stall per checkpoint, `t_p = s_model / bw_write`.
    pub t_stall: f64,
    /// Consumer load time per model update, `t_c = s_model / bw_read`.
    pub t_load: f64,
}

impl CostParams {
    /// Effective wall time per training iteration when checkpointing every
    /// `ckpt_i` iterations: `t'_train = ckpt_i * t_train + t_p` is the time
    /// for one full checkpoint period; this returns that period.
    pub fn period(&self, ckpt_i: u64) -> f64 {
        ckpt_i as f64 * self.t_train + self.t_stall
    }

    /// Eq. 1: map elapsed training time `t_k` to the training iteration
    /// reached, given checkpointing every `ckpt_i` iterations.
    pub fn get_iters(&self, t_k: f64, ckpt_i: u64) -> u64 {
        assert!(ckpt_i >= 1, "checkpoint interval must be >= 1");
        let t_period = self.period(ckpt_i);
        let full_periods = (t_k / t_period).floor();
        let t_rem = (t_k - full_periods * t_period).min(t_period);
        let iters = ckpt_i as f64 * full_periods + (t_rem / self.t_train).floor();
        iters as u64
    }
}

/// Algorithm 1: inference loss accumulated while the producer trains one
/// checkpoint interval of `inter` iterations, with the consumer serving at
/// `loss` per request.
///
/// For the first model update (`ckpt_ver == 1`) the consumer's load time
/// `t_c` is also covered by the old model; afterwards loading overlaps the
/// next training interval (double buffering), so only `t_p` extends the
/// window. At most `rem_infers` inferences are counted.
///
/// Returns `(accumulated_loss, inferences_served)`.
pub fn cil_interval(
    params: &CostParams,
    inter: u64,
    loss: f64,
    ckpt_ver: u64,
    rem_infers: u64,
) -> (f64, u64) {
    let window = if ckpt_ver == 1 {
        inter as f64 * params.t_train + params.t_stall + params.t_load
    } else {
        inter as f64 * params.t_train + params.t_stall
    };
    let infers = ((window / params.t_infer).floor() as u64).min(rem_infers);
    (loss * infers as f64, infers)
}

/// Eq. 2: predicted cumulative inference loss over the horizon `t_max`
/// (seconds) when checkpointing every `ckpt_i` iterations.
///
/// `tlp` supplies `loss_pred(x)`; the model serving inferences during
/// checkpoint period `k` is the one captured at iteration `k * ckpt_i`.
pub fn acc_loss(tlp: &FittedCurve, params: &CostParams, ckpt_i: u64, t_max: f64) -> f64 {
    assert!(ckpt_i >= 1, "checkpoint interval must be >= 1");
    let t_period = params.period(ckpt_i);
    let cnm = ((t_max - params.t_load) / t_period).floor();
    if cnm < 1.0 {
        // No update completes within the horizon: every inference is served
        // by the warm-up model.
        return tlp.loss_pred(0.0) * (t_max / params.t_infer).floor();
    }
    let cnm = cnm as u64;
    let mut total = 0.0;
    for cid in 0..=cnm {
        let infers = if cid == 0 {
            (t_period + params.t_load) / params.t_infer
        } else if cid < cnm {
            t_period / params.t_infer
        } else {
            (t_max - (cid as f64 * t_period + params.t_load)) / params.t_infer
        };
        total += tlp.loss_pred((cid * ckpt_i) as f64) * infers.floor().max(0.0);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::CurveModel;

    fn tlp(a: f64, b: f64, c: f64) -> FittedCurve {
        FittedCurve {
            model: CurveModel::Exp3 { a, b, c },
            mse: 0.0,
        }
    }

    fn params() -> CostParams {
        CostParams {
            t_train: 0.1,
            t_infer: 0.01,
            t_stall: 0.5,
            t_load: 0.4,
        }
    }

    #[test]
    fn get_iters_without_stalls_is_linear() {
        let p = CostParams {
            t_train: 0.1,
            t_infer: 0.01,
            t_stall: 0.0,
            t_load: 0.0,
        };
        assert_eq!(p.get_iters(1.0, 10), 10);
        assert_eq!(p.get_iters(2.05, 10), 20);
    }

    #[test]
    fn get_iters_accounts_for_stalls() {
        let p = params();
        // Period for ckpt_i = 10: 10 * 0.1 + 0.5 = 1.5 s.
        // After 3 s: 2 full periods = 20 iterations.
        assert_eq!(p.get_iters(3.0, 10), 20);
        // After 3.25 s: 20 + floor(0.25 / 0.1) = 22.
        assert_eq!(p.get_iters(3.25, 10), 22);
        // Stalls always slow progress vs the stall-free case.
        let free = CostParams { t_stall: 0.0, ..p };
        assert!(p.get_iters(10.0, 5) < free.get_iters(10.0, 5));
    }

    #[test]
    fn cil_interval_counts_inferences() {
        let p = params();
        // ver 1: window = 10*0.1 + 0.5 + 0.4 = 1.9 -> 190 inferences.
        let (l, n) = cil_interval(&p, 10, 2.0, 1, u64::MAX);
        assert_eq!(n, 190);
        assert!((l - 380.0).abs() < 1e-9);
        // later versions: window = 1.5 -> 150 inferences.
        let (_, n2) = cil_interval(&p, 10, 2.0, 2, u64::MAX);
        assert_eq!(n2, 150);
    }

    #[test]
    fn cil_interval_respects_remaining() {
        let p = params();
        let (l, n) = cil_interval(&p, 10, 1.0, 2, 42);
        assert_eq!(n, 42);
        assert!((l - 42.0).abs() < 1e-9);
    }

    #[test]
    fn acc_loss_no_update_within_horizon() {
        let p = params();
        let t = tlp(2.0, 0.05, 0.5);
        // Horizon shorter than one period + load.
        let horizon = 0.5;
        let expected = t.loss_pred(0.0) * (horizon / p.t_infer).floor();
        assert!((acc_loss(&t, &p, 100, horizon) - expected).abs() < 1e-9);
    }

    #[test]
    fn acc_loss_decreases_with_better_curves() {
        let p = params();
        let fast = tlp(2.0, 0.5, 0.1);
        let slow = tlp(2.0, 0.001, 0.1);
        let horizon = 100.0;
        assert!(acc_loss(&fast, &p, 10, horizon) < acc_loss(&slow, &p, 10, horizon));
    }

    #[test]
    fn frequent_updates_beat_rare_ones_when_stalls_cheap() {
        // With near-zero stall/load cost there is no downside to frequent
        // checkpoints, so smaller intervals give lower CIL.
        let p = CostParams {
            t_train: 0.1,
            t_infer: 0.01,
            t_stall: 0.001,
            t_load: 0.001,
        };
        let t = tlp(2.0, 0.05, 0.2);
        let horizon = 200.0;
        assert!(acc_loss(&t, &p, 5, horizon) < acc_loss(&t, &p, 200, horizon));
    }

    #[test]
    fn expensive_stalls_penalize_frequent_updates() {
        // When a checkpoint stalls training for many iterations' worth of
        // time, checkpointing every iteration must be worse than a coarser
        // interval: training progresses far slower, so inferences are served
        // by older (worse) models.
        let p = CostParams {
            t_train: 0.01,
            t_infer: 0.01,
            t_stall: 5.0,
            t_load: 5.0,
        };
        let t = tlp(2.0, 0.01, 0.2);
        let horizon = 500.0;
        assert!(acc_loss(&t, &p, 1, horizon) > acc_loss(&t, &p, 100, horizon));
    }

    #[test]
    #[should_panic(expected = "interval must be")]
    fn zero_interval_rejected() {
        let p = params();
        p.get_iters(1.0, 0);
    }
}
