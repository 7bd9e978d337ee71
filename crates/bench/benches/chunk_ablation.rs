//! Ablation: monolithic vs chunked-pipelined delivery.
//!
//! Two views, as in the paper's overlap ablation:
//!  * model level — `pipeline_costs` vs the monolithic stage sum across
//!    checkpoint sizes × chunk sizes, printed as a virtual-time table;
//!  * engine level — real chunked save → load round-trips, wall time
//!    measuring the chunking machinery's own overhead.
//!
//! Each timed row runs once to warm up, then [`RUNS`] times, and prints
//! the mean wall time. `--test` (as `cargo bench --bench chunk_ablation --
//! --test` does in CI) runs each row once as a smoke test.

use std::hint::black_box;
use std::time::{Duration, Instant};
use viper::{Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};
use viper_net::{FaultPlan, RetryPolicy};
use viper_tensor::Tensor;

const NTENSORS: usize = 2;

/// Timed runs per row, after one warm-up run.
const RUNS: u32 = 10;

/// Time `f` and print `bench <label>: <mean> s/iter`; under `smoke`, run
/// it once and print `ok`.
fn time<O>(label: &str, smoke: bool, mut f: impl FnMut() -> O) {
    black_box(f());
    if smoke {
        println!("bench {label}: ok (smoke test)");
        return;
    }
    let start = Instant::now();
    for _ in 0..RUNS {
        black_box(f());
    }
    let mean = start.elapsed().as_secs_f64() / f64::from(RUNS);
    println!("bench {label}: {mean:.6} s/iter");
}

/// Overlapped virtual makespan of one synchronous chunked update.
fn pipelined(profile: &MachineProfile, route: Route, bytes: u64, chunk_bytes: u64) -> Duration {
    let strategy = TransferStrategy {
        route,
        mode: CaptureMode::Sync,
    };
    let costs = pipeline_costs(profile, strategy, bytes, NTENSORS, chunk_bytes, 1.0);
    costs.stall + costs.post_stall
}

/// Monolithic virtual latency: the same stages with no overlap (one chunk).
fn monolithic(profile: &MachineProfile, route: Route, bytes: u64) -> Duration {
    pipelined(profile, route, bytes, 0)
}

fn model_ablation(smoke: bool) {
    let profile = MachineProfile::polaris();
    // Virtual-time table first: what the cost model predicts the chunking
    // ablation looks like (this is the paper-facing result; the timings
    // below only measure the model's own evaluation cost).
    println!("\nchunk ablation (virtual time, Polaris profile, GPU route):");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "ckpt", "monolithic", "64KiB", "16MiB", "64MiB"
    );
    for ckpt_mb in [64u64, 512, 4700] {
        let bytes = ckpt_mb * 1024 * 1024;
        let mono = monolithic(&profile, Route::GpuToGpu, bytes);
        let row: Vec<String> = [64 * 1024u64, 16 << 20, 64 << 20]
            .iter()
            .map(|&cb| format!("{:>10.3?}", pipelined(&profile, Route::GpuToGpu, bytes, cb)))
            .collect();
        println!("{:>8}MB {:>12.3?} {}", ckpt_mb, mono, row.join(" "));
    }

    for (label, route) in [("gpu", Route::GpuToGpu), ("host", Route::HostToHost)] {
        for chunk_mb in [0u64, 16, 64] {
            time(
                &format!("chunk_model/{label}/chunk{chunk_mb}MB"),
                smoke,
                || pipelined(&profile, route, black_box(4700u64 << 20), chunk_mb << 20),
            );
        }
    }

    // Sanity print for the strategy-level costs (stall vs total).
    for route in [Route::GpuToGpu, Route::HostToHost] {
        let costs = pipeline_costs(
            &profile,
            TransferStrategy {
                route,
                mode: CaptureMode::Sync,
            },
            4700u64 << 20,
            NTENSORS,
            64 << 20,
            1.0,
        );
        println!(
            "{route:?} pipelined sync, 4.7GB @64MiB chunks: stall {:?}, total {:?}",
            costs.stall,
            costs.update_latency()
        );
    }
}

fn engine_roundtrip(chunk_bytes: u64, elems: usize) {
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(chunk_bytes);
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    let ckpt = Checkpoint::new("m", 1, vec![("w".into(), Tensor::ones(&[elems]))]);
    producer.save_weights(&ckpt).unwrap();
    black_box(consumer.load_weights(Duration::from_secs(30)).unwrap());
}

fn engine_ablation(smoke: bool) {
    // 2 MB payload; 64 KiB chunks exercise a 32-message flow.
    for (label, chunk) in [("monolithic", 0u64), ("chunk64KiB", 64 * 1024)] {
        time(&format!("chunk_engine/roundtrip/{label}"), smoke, || {
            engine_roundtrip(chunk, 500_000)
        });
    }
}

/// One reliable chunked save → load under a seeded fault plan; returns the
/// virtual-time makespan and how many retransmission rounds it took.
fn faulted_roundtrip(drop: f64, elems: usize) -> (Duration, u64) {
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(64 * 1024)
        .with_faults(FaultPlan::seeded(42).with_drop(drop))
        .with_retry(RetryPolicy {
            max_retries: 16,
            nack_after: Duration::from_millis(2),
            max_nacks: 24,
            ..RetryPolicy::default()
        });
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    let ckpt = Checkpoint::new("m", 1, vec![("w".into(), Tensor::ones(&[elems]))]);
    let receipt = producer.save_weights(&ckpt).unwrap();
    consumer.load_weights(Duration::from_secs(30)).unwrap();
    let info = consumer.last_update().unwrap();
    (
        info.swapped_at.since(receipt.started_at),
        producer.retransmits(),
    )
}

fn fault_sweep(smoke: bool) {
    // Paper-facing table: the retransmission cost of an unreliable link is
    // visible as a measured virtual-makespan increase, not just a counter.
    println!("\nreliable delivery under loss (2 MB payload, 64 KiB chunks, GPU route):");
    println!(
        "{:>8} {:>14} {:>14}",
        "drop", "makespan", "retransmit rounds"
    );
    for drop in [0.0, 0.05, 0.20] {
        let (makespan, rounds) = faulted_roundtrip(drop, 500_000);
        println!("{:>7.0}% {:>14.3?} {:>14}", drop * 100.0, makespan, rounds);
    }

    for (label, drop) in [("clean", 0.0f64), ("drop20pct", 0.20)] {
        time(&format!("chunk_faults/reliable/{label}"), smoke, || {
            faulted_roundtrip(drop, 500_000)
        });
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    model_ablation(smoke);
    engine_ablation(smoke);
    fault_sweep(smoke);
}
