//! Ablation: monolithic vs chunked-pipelined delivery.
//!
//! Two views, as in the paper's overlap ablation:
//!  * model level — `pipeline_costs` vs the monolithic stage sum across
//!    checkpoint sizes × chunk sizes, printed as a virtual-time table;
//!  * engine level — real chunked save → load round-trips, wall time
//!    measuring the chunking machinery's own overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use viper::{Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};
use viper_net::{FaultPlan, RetryPolicy};
use viper_tensor::Tensor;

const NTENSORS: usize = 2;

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

fn bench_model_ablation(c: &mut Criterion) {
    let profile = MachineProfile::polaris();
    // Virtual-time table first: what the cost model predicts the chunking
    // ablation looks like (this is the paper-facing result; the criterion
    // numbers below only measure the model's own evaluation cost).
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

    let mut group = c.benchmark_group("chunk_model");
    for (label, route) in [("gpu", Route::GpuToGpu), ("host", Route::HostToHost)] {
        for chunk_mb in [0u64, 16, 64] {
            let id = BenchmarkId::new(label, format!("chunk{chunk_mb}MB"));
            group.bench_with_input(id, &(route, chunk_mb), |b, &(r, cmb)| {
                b.iter(|| black_box(pipelined(&profile, r, black_box(4700u64 << 20), cmb << 20)))
            });
        }
    }
    group.finish();

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

fn bench_engine_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_engine");
    group.sample_size(10);
    // 2 MB payload; 64 KiB chunks exercise a 32-message flow.
    for (label, chunk) in [("monolithic", 0u64), ("chunk64KiB", 64 * 1024)] {
        group.bench_with_input(BenchmarkId::new("roundtrip", label), &chunk, |b, &cb| {
            b.iter(|| engine_roundtrip(cb, 500_000))
        });
    }
    group.finish();
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

fn bench_fault_sweep(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("chunk_faults");
    group.sample_size(10);
    for (label, drop) in [("clean", 0.0f64), ("drop20pct", 0.20)] {
        group.bench_with_input(BenchmarkId::new("reliable", label), &drop, |b, &d| {
            b.iter(|| black_box(faulted_roundtrip(d, 500_000)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_model_ablation,
    bench_engine_ablation,
    bench_fault_sweep
);
criterion_main!(benches);
