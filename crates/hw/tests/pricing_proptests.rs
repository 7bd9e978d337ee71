//! Property tests for the update-pricing model: the invariants behind
//! every latency number the benchmarks report.

use proptest::prelude::*;
use viper_hw::{
    apply_time, capture_time, pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy,
};

fn strategies() -> [TransferStrategy; 5] {
    TransferStrategy::fig8_lineup()
}

proptest! {
    /// Update latency grows monotonically with model size, for every
    /// strategy.
    #[test]
    fn latency_monotone_in_bytes(bytes in 1_000_000u64..10_000_000_000, extra in 1_000_000u64..1_000_000_000) {
        let p = MachineProfile::polaris();
        for s in strategies() {
            let small = pipeline_costs(&p, s, bytes, 20, 0, 1.0).update_latency();
            let large = pipeline_costs(&p, s, bytes + extra, 20, 0, 1.0).update_latency();
            prop_assert!(large > small, "{s:?}");
        }
    }

    /// More tensors never make an update cheaper.
    #[test]
    fn latency_monotone_in_tensor_count(bytes in 1_000_000u64..5_000_000_000, n1 in 1usize..100, dn in 1usize..100) {
        let p = MachineProfile::polaris();
        for s in strategies() {
            let few = pipeline_costs(&p, s, bytes, n1, 0, 1.0).update_latency();
            let many = pipeline_costs(&p, s, bytes, n1 + dn, 0, 1.0).update_latency();
            prop_assert!(many >= few, "{s:?}");
        }
    }

    /// The memory-first hierarchy always holds: GPU <= Host <= PFS latency
    /// at equal payload (sync mode).
    #[test]
    fn hierarchy_ordering(bytes in 50_000_000u64..10_000_000_000, ntensors in 1usize..100) {
        let p = MachineProfile::polaris();
        let lat = |route| {
            pipeline_costs(&p, TransferStrategy { route, mode: CaptureMode::Sync }, bytes, ntensors, 0, 1.0)
                .update_latency()
        };
        prop_assert!(lat(Route::GpuToGpu) <= lat(Route::HostToHost));
        prop_assert!(lat(Route::HostToHost) <= lat(Route::PfsStaging));
    }

    /// Async always stalls less than sync and never lowers total latency.
    #[test]
    fn async_tradeoff_universal(bytes in 10_000_000u64..10_000_000_000, ntensors in 1usize..100) {
        let p = MachineProfile::polaris();
        for route in [Route::GpuToGpu, Route::HostToHost] {
            let sync = pipeline_costs(&p, TransferStrategy { route, mode: CaptureMode::Sync }, bytes, ntensors, 0, 1.0);
            let asy = pipeline_costs(&p, TransferStrategy { route, mode: CaptureMode::Async }, bytes, ntensors, 0, 1.0);
            prop_assert!(asy.stall < sync.stall, "{route:?}");
            prop_assert!(asy.update_latency() >= sync.update_latency(), "{route:?}");
        }
    }

    /// A heavier metadata format can only slow down the PFS route, and
    /// leaves memory routes untouched.
    #[test]
    fn metadata_factor_effects(bytes in 10_000_000u64..5_000_000_000, ntensors in 1usize..100, factor in 1.0f64..8.0) {
        let p = MachineProfile::polaris();
        for s in strategies() {
            let lean = pipeline_costs(&p, s, bytes, ntensors, 0, 1.0);
            let heavy = pipeline_costs(&p, s, bytes, ntensors, 0, factor);
            if s.route == Route::PfsStaging {
                prop_assert!(heavy.update_latency() >= lean.update_latency());
            } else {
                prop_assert_eq!(heavy, lean);
            }
        }
    }

    /// Stall + post_stall always covers capture-to-apply; components are
    /// finite and non-negative.
    #[test]
    fn components_sane(bytes in 0u64..10_000_000_000, ntensors in 0usize..200) {
        let p = MachineProfile::polaris();
        for s in strategies() {
            let c = pipeline_costs(&p, s, bytes, ntensors, 0, 1.0);
            prop_assert!(c.apply <= c.post_stall);
            prop_assert!(c.update_latency() >= c.stall);
        }
    }

    /// The lump capture and the whole-payload apply the engine charges are
    /// the one-chunk pipeline's capture and apply stages, to the
    /// nanosecond, on every route.
    #[test]
    fn capture_and_apply_are_one_chunk_stages(bytes in 0u64..10_000_000_000, ntensors in 0usize..200, factor in 1.0f64..8.0) {
        let p = MachineProfile::polaris();
        for route in [Route::GpuToGpu, Route::HostToHost, Route::PfsStaging] {
            let one_chunk = pipeline_costs(&p, TransferStrategy { route, mode: CaptureMode::Async }, bytes, ntensors, 0, factor);
            prop_assert_eq!(capture_time(&p, route, bytes, ntensors, factor), one_chunk.stall, "{:?}", route);
            prop_assert_eq!(apply_time(&p, route, bytes, ntensors), one_chunk.apply, "{:?}", route);
        }
    }
}
