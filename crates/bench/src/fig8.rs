//! Fig. 8a-c — end-to-end model update latency across the six data-sharing
//! approaches, for NT3.A (600 MB), TC1 (4.7 GB), and PtychoNN (4.5 GB).
//!
//! Latencies come from the same priced cost model the live engine charges
//! to its virtual clock (`viper_hw::pipeline_costs`, one chunk), with the format's
//! encoded size and metadata factor distinguishing the h5py baseline from
//! Viper-PFS.

use viper_formats::{CheckpointFormat, H5Lite, ViperFormat};
use viper_hw::{pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};
use viper_workloads::WorkloadProfile;

/// Paper-reported latencies (seconds) for the shape comparison, in the
/// order of [`approaches`]: h5py, Viper-PFS, Host-Sync, Host-Async,
/// GPU-Sync, GPU-Async.
pub fn paper_latencies(workload: &str) -> Option<[f64; 6]> {
    match workload {
        "NT3.A" => Some([1.507, 1.145, 0.273, 0.391, 0.098, 0.123]),
        "TC1" => Some([7.96, 6.977, 2.264, 2.326, 0.626, 0.856]),
        "PtychoNN" => Some([8.342, 6.886, 1.636, 1.745, 0.417, 0.541]),
        _ => None,
    }
}

/// The six approaches of Fig. 8, in the figure's left-to-right order.
pub fn approaches() -> [(&'static str, TransferStrategy, bool); 6] {
    [
        (
            "Baseline (h5py)",
            TransferStrategy {
                route: Route::PfsStaging,
                mode: CaptureMode::Sync,
            },
            true,
        ),
        (
            "Viper-PFS",
            TransferStrategy {
                route: Route::PfsStaging,
                mode: CaptureMode::Sync,
            },
            false,
        ),
        (
            "Viper-Sync (Host)",
            TransferStrategy {
                route: Route::HostToHost,
                mode: CaptureMode::Sync,
            },
            false,
        ),
        (
            "Viper-Async (Host)",
            TransferStrategy {
                route: Route::HostToHost,
                mode: CaptureMode::Async,
            },
            false,
        ),
        (
            "Viper-Sync (GPU)",
            TransferStrategy {
                route: Route::GpuToGpu,
                mode: CaptureMode::Sync,
            },
            false,
        ),
        (
            "Viper-Async (GPU)",
            TransferStrategy {
                route: Route::GpuToGpu,
                mode: CaptureMode::Async,
            },
            false,
        ),
    ]
}

/// One approach's measured latency for one workload.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Workload name.
    pub workload: &'static str,
    /// Approach label.
    pub approach: &'static str,
    /// Measured (modeled) end-to-end update latency, seconds.
    pub latency_s: f64,
    /// The paper's reported latency, seconds.
    pub paper_s: f64,
    /// Speedup over the h5py baseline (baseline / this).
    pub speedup_vs_baseline: f64,
}

/// Price all six approaches for one workload.
pub fn run_workload(w: &WorkloadProfile) -> Vec<LatencyRow> {
    let profile = MachineProfile::polaris();
    let paper = paper_latencies(w.name).expect("fig8 workload");
    let mut rows = Vec::new();
    let mut baseline_latency = 0.0;
    for (i, (label, strategy, h5)) in approaches().into_iter().enumerate() {
        let format: &dyn CheckpointFormat = if h5 { &H5Lite } else { &ViperFormat };
        let bytes = format.encoded_size(w.model_bytes, w.ntensors);
        let costs = pipeline_costs(
            &profile,
            strategy,
            bytes,
            w.ntensors,
            0,
            format.metadata_ops_factor(),
        );
        let latency = costs.update_latency().as_secs_f64();
        if i == 0 {
            baseline_latency = latency;
        }
        rows.push(LatencyRow {
            workload: w.name,
            approach: label,
            latency_s: latency,
            paper_s: paper[i],
            speedup_vs_baseline: baseline_latency / latency,
        });
    }
    rows
}

/// All three sub-figures.
pub fn run() -> Vec<LatencyRow> {
    WorkloadProfile::fig8_lineup()
        .iter()
        .flat_map(run_workload)
        .collect()
}

/// Render as a table.
pub fn render(rows: &[LatencyRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.approach.to_string(),
                format!("{:.3}", r.latency_s),
                format!("{:.3}", r.paper_s),
                format!("{:.1}x", r.speedup_vs_baseline),
            ]
        })
        .collect();
    crate::markdown_table(
        &[
            "workload",
            "approach",
            "measured (s)",
            "paper (s)",
            "speedup vs h5py",
        ],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for(name: &str) -> Vec<LatencyRow> {
        run().into_iter().filter(|r| r.workload == name).collect()
    }

    #[test]
    fn tc1_matches_paper_within_tolerance() {
        for r in rows_for("TC1") {
            let rel = (r.latency_s - r.paper_s).abs() / r.paper_s;
            assert!(
                rel < 0.25,
                "{}: measured {:.3} vs paper {:.3}",
                r.approach,
                r.latency_s,
                r.paper_s
            );
        }
    }

    #[test]
    fn nt3a_matches_paper_within_tolerance() {
        for r in rows_for("NT3.A") {
            let rel = (r.latency_s - r.paper_s).abs() / r.paper_s;
            assert!(
                rel < 0.35,
                "{}: measured {:.3} vs paper {:.3}",
                r.approach,
                r.latency_s,
                r.paper_s
            );
        }
    }

    #[test]
    fn shape_gpu_speedup_band() {
        // Paper: GPU-to-GPU ≈9-15x over baseline (async ≈9x for TC1).
        for name in ["NT3.A", "TC1", "PtychoNN"] {
            let rows = rows_for(name);
            let gpu_async = rows
                .iter()
                .find(|r| r.approach == "Viper-Async (GPU)")
                .unwrap();
            assert!(
                gpu_async.speedup_vs_baseline > 6.0 && gpu_async.speedup_vs_baseline < 20.0,
                "{name}: {:.1}x",
                gpu_async.speedup_vs_baseline
            );
        }
    }

    #[test]
    fn shape_host_speedup_band() {
        // Paper: host-to-host ≈3-4x over baseline.
        for name in ["NT3.A", "TC1", "PtychoNN"] {
            let rows = rows_for(name);
            let host_sync = rows
                .iter()
                .find(|r| r.approach == "Viper-Sync (Host)")
                .unwrap();
            assert!(
                host_sync.speedup_vs_baseline > 2.0 && host_sync.speedup_vs_baseline < 7.0,
                "{name}: {:.1}x",
                host_sync.speedup_vs_baseline
            );
        }
    }

    #[test]
    fn shape_viper_pfs_modestly_faster_than_h5py() {
        for name in ["NT3.A", "TC1", "PtychoNN"] {
            let rows = rows_for(name);
            let pfs = rows.iter().find(|r| r.approach == "Viper-PFS").unwrap();
            assert!(
                pfs.speedup_vs_baseline > 1.05 && pfs.speedup_vs_baseline < 1.6,
                "{name}: {:.2}x",
                pfs.speedup_vs_baseline
            );
        }
    }

    #[test]
    fn shape_async_slower_than_sync_per_update() {
        for name in ["NT3.A", "TC1", "PtychoNN"] {
            let rows = rows_for(name);
            let find = |a: &str| rows.iter().find(|r| r.approach == a).unwrap().latency_s;
            assert!(find("Viper-Async (GPU)") > find("Viper-Sync (GPU)"));
            assert!(find("Viper-Async (Host)") > find("Viper-Sync (Host)"));
        }
    }
}
