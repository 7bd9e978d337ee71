//! Parametric learning-curve families (§4.3, after Viering & Loog).
//!
//! Viper models the training-loss curve with four decreasing families and
//! picks the best fit by MSE. `x` is the training-iteration index.

/// A fitted parametric learning-curve model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CurveModel {
    /// `a * exp(-b x)` — two-parameter exponential decay to zero.
    Exp2 {
        /// Amplitude.
        a: f64,
        /// Decay rate.
        b: f64,
    },
    /// `a * exp(-b x) + c` — exponential decay to an asymptote `c`.
    Exp3 {
        /// Amplitude above the asymptote.
        a: f64,
        /// Decay rate.
        b: f64,
        /// Asymptotic loss.
        c: f64,
    },
    /// `a x + b` — linear trend (degenerate but cheap; useful early on).
    Lin2 {
        /// Slope (negative for a decreasing loss).
        a: f64,
        /// Intercept.
        b: f64,
    },
    /// `c - (c - a) * exp(-b x)` — saturating exponential ("expd3"); with
    /// `c < a` it decreases from `a` toward `c`.
    Expd3 {
        /// Value at `x = 0`.
        a: f64,
        /// Rate.
        b: f64,
        /// Asymptote.
        c: f64,
    },
    /// `a * (x + 1)^-b + c` — power-law decay ("pow3"), another family from
    /// the Viering & Loog survey; heavier-tailed than the exponentials.
    Pow3 {
        /// Amplitude.
        a: f64,
        /// Exponent.
        b: f64,
        /// Asymptote.
        c: f64,
    },
}

impl CurveModel {
    /// Evaluate the curve at iteration `x`.
    pub fn eval(&self, x: f64) -> f64 {
        match *self {
            CurveModel::Exp2 { a, b } => a * (-b * x).exp(),
            CurveModel::Exp3 { a, b, c } => a * (-b * x).exp() + c,
            CurveModel::Lin2 { a, b } => a * x + b,
            CurveModel::Expd3 { a, b, c } => c - (c - a) * (-b * x).exp(),
            CurveModel::Pow3 { a, b, c } => a * (x + 1.0).powf(-b) + c,
        }
    }

    /// Family name as used in the paper's Fig. 5.
    pub fn family(&self) -> &'static str {
        match self {
            CurveModel::Exp2 { .. } => "exp2",
            CurveModel::Exp3 { .. } => "exp3",
            CurveModel::Lin2 { .. } => "lin2",
            CurveModel::Expd3 { .. } => "expd3",
            CurveModel::Pow3 { .. } => "pow3",
        }
    }

    /// Number of free parameters.
    pub fn nparams(&self) -> usize {
        match self {
            CurveModel::Exp2 { .. } | CurveModel::Lin2 { .. } => 2,
            CurveModel::Exp3 { .. } | CurveModel::Expd3 { .. } | CurveModel::Pow3 { .. } => 3,
        }
    }

    /// Mean squared error against observations `y[i]` at `x = i`.
    pub fn mse(&self, y: &[f64]) -> f64 {
        if y.is_empty() {
            return 0.0;
        }
        y.iter()
            .enumerate()
            .map(|(i, &yi)| {
                let e = self.eval(i as f64) - yi;
                e * e
            })
            .sum::<f64>()
            / y.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2_decays_to_zero() {
        let m = CurveModel::Exp2 { a: 2.0, b: 0.1 };
        assert!((m.eval(0.0) - 2.0).abs() < 1e-12);
        assert!(m.eval(1000.0) < 1e-10);
        assert!(m.eval(1.0) < m.eval(0.0));
    }

    #[test]
    fn exp3_decays_to_c() {
        let m = CurveModel::Exp3 {
            a: 2.0,
            b: 0.1,
            c: 0.5,
        };
        assert!((m.eval(0.0) - 2.5).abs() < 1e-12);
        assert!((m.eval(1e6) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lin2_is_linear() {
        let m = CurveModel::Lin2 { a: -0.5, b: 10.0 };
        assert_eq!(m.eval(0.0), 10.0);
        assert_eq!(m.eval(4.0), 8.0);
    }

    #[test]
    fn expd3_decreases_from_a_to_c_when_c_below_a() {
        let m = CurveModel::Expd3 {
            a: 3.0,
            b: 0.05,
            c: 0.2,
        };
        assert!((m.eval(0.0) - 3.0).abs() < 1e-12);
        assert!((m.eval(1e6) - 0.2).abs() < 1e-9);
        assert!(m.eval(10.0) < m.eval(5.0));
    }

    #[test]
    fn mse_zero_for_perfect_fit() {
        let m = CurveModel::Exp3 {
            a: 1.0,
            b: 0.1,
            c: 0.3,
        };
        let y: Vec<f64> = (0..50).map(|i| m.eval(i as f64)).collect();
        assert!(m.mse(&y) < 1e-20);
        assert_eq!(m.mse(&[]), 0.0);
    }

    #[test]
    fn mse_positive_for_bad_fit() {
        let m = CurveModel::Lin2 { a: 0.0, b: 0.0 };
        let y = vec![1.0; 10];
        assert!((m.mse(&y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pow3_decays_to_c() {
        let m = CurveModel::Pow3 {
            a: 2.0,
            b: 0.8,
            c: 0.3,
        };
        assert!((m.eval(0.0) - 2.3).abs() < 1e-12);
        assert!((m.eval(1e9) - 0.3).abs() < 1e-6);
        assert!(m.eval(10.0) < m.eval(1.0));
    }

    #[test]
    fn pow3_heavier_tail_than_exp3() {
        // Matched at x = 0 and similar early decay, the power law stays
        // higher far out.
        let p = CurveModel::Pow3 {
            a: 2.0,
            b: 1.0,
            c: 0.0,
        };
        let e = CurveModel::Exp3 {
            a: 2.0,
            b: 0.05,
            c: 0.0,
        };
        assert!(p.eval(500.0) > e.eval(500.0));
    }

    #[test]
    fn family_names() {
        assert_eq!(CurveModel::Exp2 { a: 0.0, b: 0.0 }.family(), "exp2");
        assert_eq!(
            CurveModel::Expd3 {
                a: 0.0,
                b: 0.0,
                c: 0.0
            }
            .family(),
            "expd3"
        );
    }
}
