//! Fig. 9 — impact of a low-latency model update on inference and training
//! performance: CIL over 50 000 inferences plus total training overhead,
//! with TC1 updated at every epoch boundary (216 iterations, 16
//! checkpoints), across the GPU, host, and PFS strategies.

use viper_des::{simulate, Discovery, SimConfig, SimResult};
use viper_hw::{pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};
use viper_workloads::WorkloadProfile;

/// One strategy's outcome.
#[derive(Debug, Clone)]
pub struct TransferBenefitRow {
    /// Strategy label as in the figure.
    pub strategy: &'static str,
    /// Ground-truth cumulative inference loss.
    pub cil: f64,
    /// Total training overhead, seconds.
    pub training_overhead_s: f64,
    /// Paper's reported training overhead, seconds.
    pub paper_overhead_s: f64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

/// The three strategies of Fig. 9, with the paper's overhead numbers.
fn lineup() -> [(&'static str, TransferStrategy, f64); 3] {
    [
        (
            "GPU Memory",
            TransferStrategy {
                route: Route::GpuToGpu,
                mode: CaptureMode::Async,
            },
            1.0,
        ),
        (
            "Host Memory",
            TransferStrategy {
                route: Route::HostToHost,
                mode: CaptureMode::Async,
            },
            22.0,
        ),
        (
            "PFS",
            TransferStrategy {
                route: Route::PfsStaging,
                mode: CaptureMode::Sync,
            },
            60.0,
        ),
    ]
}

/// Run the epoch-boundary TC1 experiment for one strategy.
pub fn run_strategy(strategy: TransferStrategy) -> SimResult {
    let w = WorkloadProfile::tc1();
    let profile = MachineProfile::polaris();
    let costs = pipeline_costs(&profile, strategy, w.model_bytes, w.ntensors, 0, 1.0);
    let s = w.warmup_end();
    let schedule: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    let cfg = SimConfig {
        t_train: w.t_train,
        t_infer: w.t_infer,
        costs,
        s_iter: s,
        e_iter: w.run_end(),
        schedule,
        total_infers: w.total_infers,
        discovery: Discovery::Push,
    };
    simulate(&cfg, &|iter| w.loss_at(iter))
}

/// All three strategies.
pub fn run() -> Vec<TransferBenefitRow> {
    lineup()
        .into_iter()
        .map(|(label, strategy, paper_overhead)| {
            let r = run_strategy(strategy);
            TransferBenefitRow {
                strategy: label,
                cil: r.cil,
                training_overhead_s: r.training_overhead,
                paper_overhead_s: paper_overhead,
                checkpoints: r.num_updates,
            }
        })
        .collect()
}

/// Render as a table.
pub fn render(rows: &[TransferBenefitRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_string(),
                format!("{:.0}", r.cil),
                format!("{:.1}", r.training_overhead_s),
                format!("{:.0}", r.paper_overhead_s),
                r.checkpoints.to_string(),
            ]
        })
        .collect();
    crate::markdown_table(
        &[
            "strategy",
            "CIL (50k inferences)",
            "overhead (s)",
            "paper overhead (s)",
            "checkpoints",
        ],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_checkpoints_each() {
        for r in run() {
            assert_eq!(r.checkpoints, 16, "{}", r.strategy);
        }
    }

    #[test]
    fn cil_and_overhead_order_gpu_host_pfs() {
        let rows = run();
        assert!(rows[0].cil < rows[1].cil, "GPU CIL < Host CIL");
        assert!(rows[1].cil < rows[2].cil, "Host CIL < PFS CIL");
        assert!(rows[0].training_overhead_s < rows[1].training_overhead_s);
        assert!(rows[1].training_overhead_s < rows[2].training_overhead_s);
    }

    #[test]
    fn overheads_match_paper_magnitudes() {
        for r in run() {
            let rel = (r.training_overhead_s - r.paper_overhead_s).abs() / r.paper_overhead_s;
            assert!(
                rel < 0.35,
                "{}: measured {:.1}s vs paper {:.0}s",
                r.strategy,
                r.training_overhead_s,
                r.paper_overhead_s
            );
        }
    }

    #[test]
    fn cil_in_paper_ballpark() {
        // Paper Fig. 9 reports CIL between ≈32k and ≈38k for TC1/50k
        // inferences. Our synthetic loss curve is calibrated to that band.
        for r in run() {
            assert!(
                r.cil > 25_000.0 && r.cil < 45_000.0,
                "{}: CIL {:.0} out of band",
                r.strategy,
                r.cil
            );
        }
    }
}
