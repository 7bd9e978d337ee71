//! Nonlinear least-squares fitting of learning curves.
//!
//! Lin2 is solved in closed form; the exponential families use
//! Levenberg–Marquardt with analytic Jacobians. [`fit_best`] fits every
//! family to the warm-up losses and returns the one with minimal MSE —
//! exactly the model selection the paper performs in Fig. 5 (where Exp3
//! wins for CANDLE-TC1).

use crate::curves::CurveModel;

/// A curve fitted to warm-up losses, with its fit quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedCurve {
    /// The selected model with fitted parameters.
    pub model: CurveModel,
    /// Mean squared error over the fitting window.
    pub mse: f64,
}

impl FittedCurve {
    /// Predicted training loss at iteration `x` — the paper's
    /// `loss_pred(x)`. Clamped at zero: losses cannot go negative, and the
    /// linear family would otherwise extrapolate below zero.
    pub fn loss_pred(&self, x: f64) -> f64 {
        self.model.eval(x).max(0.0)
    }
}

/// Fit every curve family to `losses` (observed at x = 0, 1, 2, ...) and
/// return the best by MSE.
///
/// Panics if fewer than 3 observations are supplied — the warm-up stage
/// always provides at least an epoch of losses.
pub fn fit_best(losses: &[f64]) -> FittedCurve {
    // `min_by` keeps the first candidate on a tie.
    fit_all(losses)
        .into_iter()
        .min_by(|a, b| {
            a.mse
                .partial_cmp(&b.mse)
                .expect("MSE comparison failed (NaN)")
        })
        .expect("fit_all returned no candidates")
}

/// Fit all families; returns one [`FittedCurve`] per family, in the order
/// Exp2, Exp3, Lin2, Expd3 (the paper's Fig. 5 set), then Pow3 (an extra
/// family from the same survey).
pub fn fit_all(losses: &[f64]) -> Vec<FittedCurve> {
    assert!(
        losses.len() >= 3,
        "need at least 3 warm-up losses to fit a curve"
    );
    vec![
        fit_exp2(losses),
        fit_exp3(losses),
        fit_lin2(losses),
        fit_expd3(losses),
        fit_pow3(losses),
    ]
}

/// Closed-form ordinary least squares for `a x + b`.
pub fn fit_lin2(y: &[f64]) -> FittedCurve {
    let n = y.len() as f64;
    let sum_x: f64 = (0..y.len()).map(|i| i as f64).sum();
    let sum_y: f64 = y.iter().sum();
    let sum_xy: f64 = y.iter().enumerate().map(|(i, &v)| i as f64 * v).sum();
    let sum_xx: f64 = (0..y.len()).map(|i| (i * i) as f64).sum();
    let denom = n * sum_xx - sum_x * sum_x;
    let (a, b) = if denom.abs() < 1e-12 {
        (0.0, sum_y / n)
    } else {
        let a = (n * sum_xy - sum_x * sum_y) / denom;
        (a, (sum_y - a * sum_x) / n)
    };
    let model = CurveModel::Lin2 { a, b };
    FittedCurve {
        model,
        mse: model.mse(y),
    }
}

/// Fit `a exp(-b x)` via LM.
pub fn fit_exp2(y: &[f64]) -> FittedCurve {
    let y0 = y[0].max(1e-9);
    let init = [y0, initial_rate(y)];
    let theta = levenberg_marquardt(y, init, |x, t| {
        let e = (-t[1] * x).exp();
        (t[0] * e, vec![e, -t[0] * x * e])
    });
    let model = CurveModel::Exp2 {
        a: theta[0],
        b: theta[1],
    };
    FittedCurve {
        model,
        mse: model.mse(y),
    }
}

/// Fit `a exp(-b x) + c` via LM.
pub fn fit_exp3(y: &[f64]) -> FittedCurve {
    let c0 = y[y.len() - 1].min(y[0]);
    let a0 = (y[0] - c0).max(1e-9);
    let init = [a0, initial_rate(y), c0];
    let theta = levenberg_marquardt(y, init, |x, t| {
        let e = (-t[1] * x).exp();
        (t[0] * e + t[2], vec![e, -t[0] * x * e, 1.0])
    });
    let model = CurveModel::Exp3 {
        a: theta[0],
        b: theta[1],
        c: theta[2],
    };
    FittedCurve {
        model,
        mse: model.mse(y),
    }
}

/// Fit `c - (c - a) exp(-b x)` via LM.
pub fn fit_expd3(y: &[f64]) -> FittedCurve {
    let a0 = y[0];
    let c0 = y[y.len() - 1];
    let init = [a0, initial_rate(y), c0];
    let theta = levenberg_marquardt(y, init, |x, t| {
        let e = (-t[1] * x).exp();
        // f = c - (c - a) e
        (
            t[2] - (t[2] - t[0]) * e,
            vec![e, (t[2] - t[0]) * x * e, 1.0 - e],
        )
    });
    let model = CurveModel::Expd3 {
        a: theta[0],
        b: theta[1],
        c: theta[2],
    };
    FittedCurve {
        model,
        mse: model.mse(y),
    }
}

/// Fit `a (x+1)^-b + c` via LM.
pub fn fit_pow3(y: &[f64]) -> FittedCurve {
    let c0 = y[y.len() - 1].min(y[0]);
    let a0 = (y[0] - c0).max(1e-9);
    let init = [a0, 1.0, c0];
    let theta = levenberg_marquardt(y, init, |x, t| {
        let base = x + 1.0;
        let p = base.powf(-t[1]);
        // f = a p + c; df/da = p; df/db = -a ln(base) p; df/dc = 1.
        (t[0] * p + t[2], vec![p, -t[0] * base.ln() * p, 1.0])
    });
    let model = CurveModel::Pow3 {
        a: theta[0],
        b: theta[1],
        c: theta[2],
    };
    FittedCurve {
        model,
        mse: model.mse(y),
    }
}

/// Heuristic initial decay rate: assume ~3 e-foldings over the window.
fn initial_rate(y: &[f64]) -> f64 {
    3.0 / (y.len() as f64).max(1.0)
}

/// Levenberg–Marquardt for up to 3 parameters.
///
/// `model(x, theta)` returns `(f(x), df/dtheta)`.
fn levenberg_marquardt<const P: usize>(
    y: &[f64],
    init: [f64; P],
    model: impl Fn(f64, &[f64; P]) -> (f64, Vec<f64>),
) -> [f64; P] {
    let mut theta = init;
    let mut lambda = 1e-3;
    let mut cost = sse(y, &theta, &model);

    for _ in 0..200 {
        // Build JᵀJ and Jᵀr.
        let mut jtj = [[0.0f64; P]; P];
        let mut jtr = [0.0f64; P];
        for (i, &yi) in y.iter().enumerate() {
            let x = i as f64;
            let (f, grad) = model(x, &theta);
            let r = yi - f;
            for p in 0..P {
                jtr[p] += grad[p] * r;
                for q in 0..P {
                    jtj[p][q] += grad[p] * grad[q];
                }
            }
        }
        // Damping.
        let mut a = jtj;
        for (p, row) in a.iter_mut().enumerate() {
            row[p] += lambda * jtj[p][p].max(1e-12);
        }
        let Some(delta) = solve(a, jtr) else {
            lambda *= 10.0;
            continue;
        };
        let mut candidate = theta;
        for p in 0..P {
            candidate[p] += delta[p];
        }
        let new_cost = sse(y, &candidate, &model);
        if new_cost.is_finite() && new_cost < cost {
            let improvement = (cost - new_cost) / cost.max(1e-300);
            theta = candidate;
            cost = new_cost;
            lambda = (lambda * 0.5).max(1e-12);
            if improvement < 1e-12 {
                break;
            }
        } else {
            lambda *= 10.0;
            if lambda > 1e12 {
                break;
            }
        }
    }
    theta
}

fn sse<const P: usize>(
    y: &[f64],
    theta: &[f64; P],
    model: &impl Fn(f64, &[f64; P]) -> (f64, Vec<f64>),
) -> f64 {
    y.iter()
        .enumerate()
        .map(|(i, &yi)| {
            let (f, _) = model(i as f64, theta);
            let r = yi - f;
            r * r
        })
        .sum()
}

/// Gaussian elimination with partial pivoting for small dense systems.
fn solve<const P: usize>(mut a: [[f64; P]; P], mut b: [f64; P]) -> Option<[f64; P]> {
    for col in 0..P {
        // Pivot.
        let pivot = (col..P).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..P {
            let factor = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (av, pv) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *av -= factor * pv;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0f64; P];
    for col in (0..P).rev() {
        let mut acc = b[col];
        for (ak, xk) in a[col][col + 1..].iter().zip(&x[col + 1..]) {
            acc -= ak * xk;
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(model: CurveModel, n: usize, noise: f64) -> Vec<f64> {
        // Deterministic pseudo-noise so tests are stable.
        (0..n)
            .map(|i| {
                let jitter = ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5;
                model.eval(i as f64) + noise * jitter
            })
            .collect()
    }

    #[test]
    fn lin2_closed_form_exact() {
        let truth = CurveModel::Lin2 { a: -0.25, b: 5.0 };
        let y = synth(truth, 40, 0.0);
        let fit = fit_lin2(&y);
        if let CurveModel::Lin2 { a, b } = fit.model {
            assert!((a + 0.25).abs() < 1e-9);
            assert!((b - 5.0).abs() < 1e-9);
        } else {
            panic!("wrong family");
        }
        assert!(fit.mse < 1e-18);
    }

    #[test]
    fn exp3_recovers_parameters() {
        let truth = CurveModel::Exp3 {
            a: 2.0,
            b: 0.03,
            c: 0.4,
        };
        let y = synth(truth, 120, 0.0);
        let fit = fit_exp3(&y);
        assert!(fit.mse < 1e-8, "mse {}", fit.mse);
        if let CurveModel::Exp3 { a, b, c } = fit.model {
            assert!((a - 2.0).abs() < 0.05, "a {a}");
            assert!((b - 0.03).abs() < 0.005, "b {b}");
            assert!((c - 0.4).abs() < 0.05, "c {c}");
        } else {
            panic!("wrong family");
        }
    }

    #[test]
    fn exp2_recovers_parameters() {
        let truth = CurveModel::Exp2 { a: 1.5, b: 0.05 };
        let y = synth(truth, 100, 0.0);
        let fit = fit_exp2(&y);
        assert!(fit.mse < 1e-8, "mse {}", fit.mse);
    }

    #[test]
    fn expd3_recovers_parameters() {
        let truth = CurveModel::Expd3 {
            a: 3.0,
            b: 0.04,
            c: 0.5,
        };
        let y = synth(truth, 100, 0.0);
        let fit = fit_expd3(&y);
        assert!(fit.mse < 1e-6, "mse {}", fit.mse);
    }

    #[test]
    fn pow3_recovers_parameters() {
        let truth = CurveModel::Pow3 {
            a: 2.0,
            b: 0.7,
            c: 0.3,
        };
        let y = synth(truth, 150, 0.0);
        let fit = fit_pow3(&y);
        assert!(fit.mse < 1e-6, "mse {}", fit.mse);
    }

    #[test]
    fn pow3_wins_on_power_law_data() {
        let truth = CurveModel::Pow3 {
            a: 3.0,
            b: 0.5,
            c: 0.2,
        };
        let y = synth(truth, 200, 0.001);
        let best = fit_best(&y);
        assert_eq!(best.model.family(), "pow3", "selected {:?}", best.model);
    }

    #[test]
    fn best_fit_selects_exp3_for_asymptotic_decay() {
        // TC1-like: decays to a nonzero floor — Exp3/Expd3 families fit;
        // Exp2 (decay to 0) and Lin2 cannot. Mirrors Fig. 5.
        let truth = CurveModel::Exp3 {
            a: 2.0,
            b: 0.02,
            c: 0.6,
        };
        let y = synth(truth, 150, 0.002);
        let best = fit_best(&y);
        assert!(
            matches!(
                best.model,
                CurveModel::Exp3 { .. } | CurveModel::Expd3 { .. }
            ),
            "selected {:?}",
            best.model
        );
        let lin = fit_lin2(&y);
        assert!(best.mse < lin.mse);
    }

    #[test]
    fn best_fit_handles_noise() {
        let truth = CurveModel::Exp3 {
            a: 1.0,
            b: 0.05,
            c: 0.2,
        };
        let y = synth(truth, 80, 0.02);
        let best = fit_best(&y);
        // Prediction at unseen x should be close to the truth.
        for x in [100.0, 150.0, 300.0] {
            assert!((best.loss_pred(x) - truth.eval(x)).abs() < 0.1, "x={x}");
        }
    }

    #[test]
    fn loss_pred_clamps_negative() {
        let fit = FittedCurve {
            model: CurveModel::Lin2 { a: -1.0, b: 1.0 },
            mse: 0.0,
        };
        assert_eq!(fit.loss_pred(100.0), 0.0);
        assert_eq!(fit.loss_pred(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_few_points_panics() {
        fit_all(&[1.0, 0.5]);
    }

    #[test]
    fn constant_losses_do_not_explode() {
        let y = vec![0.7; 30];
        let best = fit_best(&y);
        assert!((best.loss_pred(100.0) - 0.7).abs() < 0.05);
    }

    #[test]
    fn solver_handles_singular_matrix() {
        let a = [[1.0, 2.0], [2.0, 4.0]];
        assert!(solve(a, [1.0, 2.0]).is_none());
        let ok = solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]).unwrap();
        assert_eq!(ok, [1.0, 2.0]);
    }
}
