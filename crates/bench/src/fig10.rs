//! Fig. 10a-c and Table 1 — cumulative inference loss under the three
//! checkpoint schedules (epoch baseline, fixed-interval, adaptive greedy)
//! for NT3.B, TC1, and PtychoNN, plus each schedule's checkpoint count and
//! training overhead.

use viper_des::{simulate, Discovery, SimConfig};
use viper_hw::{pipeline_costs, MachineProfile};
use viper_predictor::{cilp::CostParams, fit, schedule};
use viper_workloads::WorkloadProfile;

/// One (workload, schedule) outcome.
#[derive(Debug, Clone)]
pub struct ScheduleRow {
    /// Workload name.
    pub workload: &'static str,
    /// Schedule label: Baseline / Fixed-inter / Adapt-inter.
    pub schedule: &'static str,
    /// Ground-truth CIL from the DES.
    pub cil: f64,
    /// Predictor's CIL estimate for the same schedule.
    pub predicted_cil: f64,
    /// Number of checkpoints.
    pub checkpoints: usize,
    /// Training overhead, seconds (checkpoints x stall).
    pub training_overhead_s: f64,
    /// Paper's CIL (thousands) for the shape comparison.
    pub paper_cil_k: f64,
    /// Paper's checkpoint count (Table 1).
    pub paper_checkpoints: u64,
    /// Paper's training overhead in seconds (Table 1).
    pub paper_overhead_s: f64,
}

/// Paper numbers for (workload, schedule): (CIL in thousands, #ckpts, overhead s).
fn paper_numbers(workload: &str, sched: &str) -> (f64, u64, f64) {
    match (workload, sched) {
        ("NT3.B", "Baseline") => (3.8, 7, 0.107),
        ("NT3.B", "Fixed-inter") => (3.6, 49, 0.372),
        ("NT3.B", "Adapt-inter") => (3.0, 40, 0.353),
        ("TC1", "Baseline") => (32.8, 16, 1.29),
        ("TC1", "Fixed-inter") => (30.6, 128, 3.437),
        ("TC1", "Adapt-inter") => (30.4, 63, 2.579),
        ("PtychoNN", "Baseline") => (66.2, 13, 0.39),
        ("PtychoNN", "Fixed-inter") => (52.9, 16, 0.48),
        ("PtychoNN", "Adapt-inter") => (45.1, 6, 0.18),
        _ => panic!("unknown paper cell {workload}/{sched}"),
    }
}

/// Run the three schedules for one workload using the GPU transfer
/// strategy (as §5.4 does).
pub fn run_workload(w: &WorkloadProfile, seed: u64) -> Vec<ScheduleRow> {
    let profile = MachineProfile::polaris();
    let strategy = crate::gpu_async();
    let costs = pipeline_costs(&profile, strategy, w.model_bytes, w.ntensors, 0, 1.0);
    let params = CostParams {
        t_train: w.t_train,
        t_infer: w.t_infer,
        t_stall: costs.stall.as_secs_f64(),
        t_load: (costs.post_stall + costs.notify).as_secs_f64(),
    };
    let warmup = w.warmup_losses(seed);
    let tlp = fit::fit_best(&warmup);
    let (s, e) = (w.warmup_end(), w.run_end());

    let baseline: Vec<u64> = (1..=w.run_epochs)
        .map(|k| s + k * w.iters_per_epoch)
        .collect();
    let fixed = schedule::fixed_interval(&tlp, &params, s, e, w.total_infers);
    let thresh = schedule::threshold_from_warmup(&warmup);
    let adaptive = schedule::greedy(&tlp, &params, s, e, w.total_infers, thresh);

    let simulate_ckpts = |ckpts: &[u64]| {
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
        simulate(&cfg, &|iter| w.loss_at(iter))
    };

    [
        (
            "Baseline",
            baseline.clone(),
            schedule::evaluate_checkpoints(&tlp, &params, s, &baseline, w.total_infers),
        ),
        (
            "Fixed-inter",
            fixed.checkpoints.clone(),
            fixed.predicted_cil,
        ),
        (
            "Adapt-inter",
            adaptive.checkpoints.clone(),
            adaptive.predicted_cil,
        ),
    ]
    .into_iter()
    .map(|(label, ckpts, predicted)| {
        let r = simulate_ckpts(&ckpts);
        let (paper_cil_k, paper_checkpoints, paper_overhead_s) = paper_numbers(w.name, label);
        ScheduleRow {
            workload: w.name,
            schedule: label,
            cil: r.cil,
            predicted_cil: predicted,
            checkpoints: ckpts.len(),
            training_overhead_s: r.training_overhead,
            paper_cil_k,
            paper_checkpoints,
            paper_overhead_s,
        }
    })
    .collect()
}

/// All three workloads (Fig. 10a-c + Table 1).
pub fn run(seed: u64) -> Vec<ScheduleRow> {
    WorkloadProfile::fig10_lineup()
        .iter()
        .flat_map(|w| run_workload(w, seed))
        .collect()
}

/// Render Fig. 10 (CIL comparison).
pub fn render_fig10(rows: &[ScheduleRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.schedule.to_string(),
                format!("{:.1}k", r.cil / 1000.0),
                format!("{:.1}k", r.predicted_cil / 1000.0),
                format!("{:.1}k", r.paper_cil_k),
            ]
        })
        .collect();
    crate::markdown_table(
        &[
            "workload",
            "schedule",
            "simulated CIL",
            "predicted CIL",
            "paper CIL",
        ],
        &table,
    )
}

/// Render Table 1 (checkpoint counts and training overhead).
pub fn render_table1(rows: &[ScheduleRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.schedule.to_string(),
                r.checkpoints.to_string(),
                r.paper_checkpoints.to_string(),
                format!("{:.2}", r.training_overhead_s),
                format!("{:.2}", r.paper_overhead_s),
            ]
        })
        .collect();
    crate::markdown_table(
        &[
            "workload",
            "schedule",
            "#ckpts",
            "paper #ckpts",
            "overhead (s)",
            "paper overhead (s)",
        ],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ScheduleRow> {
        run(42)
    }

    fn cell<'a>(rows: &'a [ScheduleRow], w: &str, s: &str) -> &'a ScheduleRow {
        rows.iter()
            .find(|r| r.workload == w && r.schedule == s)
            .unwrap()
    }

    #[test]
    fn predictor_schedules_beat_baseline_everywhere() {
        let rows = rows();
        for w in ["NT3.B", "TC1", "PtychoNN"] {
            let base = cell(&rows, w, "Baseline").cil;
            assert!(
                cell(&rows, w, "Fixed-inter").cil <= base * 1.001,
                "{w} fixed"
            );
            assert!(
                cell(&rows, w, "Adapt-inter").cil <= base * 1.001,
                "{w} adaptive"
            );
        }
    }

    #[test]
    fn adaptive_uses_fewer_checkpoints_than_fixed_for_tc1() {
        // Table 1's headline: TC1 adaptive ≈ half of fixed's checkpoints.
        let rows = rows();
        let fixed = cell(&rows, "TC1", "Fixed-inter").checkpoints;
        let adaptive = cell(&rows, "TC1", "Adapt-inter").checkpoints;
        assert!(adaptive < fixed, "adaptive {adaptive} !< fixed {fixed}");
    }

    #[test]
    fn baseline_checkpoint_counts_match_paper_exactly() {
        let rows = rows();
        for w in ["NT3.B", "TC1", "PtychoNN"] {
            let r = cell(&rows, w, "Baseline");
            assert_eq!(r.checkpoints as u64, r.paper_checkpoints, "{w}");
        }
    }

    #[test]
    fn predicted_cil_tracks_simulated() {
        for r in rows() {
            let rel = (r.predicted_cil - r.cil).abs() / r.cil;
            assert!(
                rel < 0.2,
                "{}/{}: predicted {:.0} vs sim {:.0}",
                r.workload,
                r.schedule,
                r.predicted_cil,
                r.cil
            );
        }
    }

    #[test]
    fn tc1_cil_magnitude_matches_paper_band() {
        let rows = rows();
        let base = cell(&rows, "TC1", "Baseline");
        // Paper: 32.8k. Calibration keeps us in the same band.
        assert!(
            base.cil > 25_000.0 && base.cil < 42_000.0,
            "CIL {:.0}",
            base.cil
        );
    }
}
