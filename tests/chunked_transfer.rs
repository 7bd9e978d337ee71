//! Chunked pipelined transfer integration: the live engine's chunked path
//! beats the monolithic (one-chunk) path once payloads span several chunks,
//! is that path for single-chunk payloads, preserves the paper's route ordering,
//! and never lets a consumer observe a partially assembled flow. Also
//! covers the Transfer Selector's tier fallback (Fig. 7).

use std::time::Duration;
use viper::{Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, MachineProfile, Route, Tier};
use viper_tensor::Tensor;

fn ckpt(name: &str, iter: u64, elems: usize) -> Checkpoint {
    Checkpoint::new(
        name,
        iter,
        vec![
            (
                "conv/kernel".into(),
                Tensor::full(&[elems / 2], iter as f32),
            ),
            ("dense/bias".into(), Tensor::full(&[elems - elems / 2], 0.5)),
        ],
    )
}

/// One producer, one consumer; returns the virtual-time update latency of a
/// single save under the given config.
fn measured_latency(config: ViperConfig, elems: usize) -> f64 {
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    let receipt = producer.save_weights(&ckpt("m", 1, elems)).unwrap();
    consumer.load_weights(Duration::from_secs(30)).unwrap();
    let info = consumer.last_update().unwrap();
    info.swapped_at.since(receipt.started_at).as_secs_f64()
}

fn base(route: Route, mode: CaptureMode) -> ViperConfig {
    let mut config = ViperConfig::default().with_strategy(route, mode);
    config.flush_to_pfs = false;
    config
}

// 10M f32 elements = a 40 MB payload.
const ELEMS: usize = 10_000_000;
const CHUNK: u64 = 4 * 1024 * 1024; // => 10 chunks

#[test]
fn pipelined_beats_monolithic_on_multi_chunk_payloads() {
    for route in [Route::GpuToGpu, Route::HostToHost] {
        let mono = measured_latency(base(route, CaptureMode::Sync), ELEMS);
        let pipe = measured_latency(base(route, CaptureMode::Sync).with_chunked(CHUNK), ELEMS);
        assert!(
            pipe < mono,
            "{route:?}: pipelined {pipe:.6}s !< monolithic {mono:.6}s"
        );
    }
}

#[test]
fn single_chunk_matches_monolithic_within_fixed_costs() {
    for route in [Route::GpuToGpu, Route::HostToHost] {
        let mono = measured_latency(base(route, CaptureMode::Sync), ELEMS);
        // A chunk larger than the payload and `chunk_bytes = 0` are one
        // geometry: the same one-chunk flow, to the nanosecond.
        let single = measured_latency(base(route, CaptureMode::Sync).with_chunked(1 << 40), ELEMS);
        assert_eq!(single, mono, "{route:?}");
    }
}

#[test]
fn pipelined_stall_reported_below_monolithic_sync_stall() {
    let run = |config: ViperConfig| {
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        let receipt = producer.save_weights(&ckpt("m", 1, ELEMS)).unwrap();
        consumer.load_weights(Duration::from_secs(30)).unwrap();
        receipt.stall
    };
    let mono = run(base(Route::HostToHost, CaptureMode::Sync));
    let pipe = run(base(Route::HostToHost, CaptureMode::Sync).with_chunked(CHUNK));
    assert!(
        pipe < mono,
        "pipelined stall {pipe:?} !< monolithic {mono:?}"
    );
}

#[test]
fn chunked_route_ordering_matches_fig8() {
    let gpu = measured_latency(
        base(Route::GpuToGpu, CaptureMode::Sync).with_chunked(CHUNK),
        ELEMS,
    );
    let host = measured_latency(
        base(Route::HostToHost, CaptureMode::Sync).with_chunked(CHUNK),
        ELEMS,
    );
    // The PFS route ignores chunking (its staging write is the capture);
    // it must stay the slowest.
    let pfs = measured_latency(
        base(Route::PfsStaging, CaptureMode::Sync).with_chunked(CHUNK),
        ELEMS,
    );
    assert!(gpu < host, "gpu {gpu:.6} !< host {host:.6}");
    assert!(host < pfs, "host {host:.6} !< pfs {pfs:.6}");
}

#[test]
fn chunked_roundtrip_is_byte_identical_and_never_partial() {
    for mode in [CaptureMode::Sync, CaptureMode::Async] {
        let config = base(Route::GpuToGpu, mode).with_chunked(64 * 1024);
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        for iter in 1..=5u64 {
            // ~800 KB payload = 13 chunks of 64 KiB.
            let sent = ckpt("m", iter, 200_000);
            producer.save_weights(&sent).unwrap();
            let got = consumer.load_weights(Duration::from_secs(30)).unwrap();
            // The slot swapped to exactly the transmitted model: a partial
            // assembly could never decode to an equal checkpoint.
            assert_eq!(*got, sent, "{mode:?} iter {iter}");
            assert_eq!(consumer.current_iteration(), Some(iter));
        }
        assert_eq!(
            consumer.updates_applied(),
            5,
            "one swap per completed flow ({mode:?})"
        );
    }
}

#[test]
fn chunked_async_overlaps_like_monolithic_async() {
    // Async mode still stalls only for the capture, chunked or not.
    let run = |chunked: bool| {
        let mut config = base(Route::GpuToGpu, CaptureMode::Async);
        if chunked {
            config = config.with_chunked(CHUNK);
        }
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        let receipt = producer.save_weights(&ckpt("m", 1, ELEMS)).unwrap();
        consumer.load_weights(Duration::from_secs(30)).unwrap();
        receipt.stall.as_secs_f64()
    };
    let mono = run(false);
    let pipe = run(true);
    let rel = (pipe - mono).abs() / mono;
    assert!(
        rel < 0.01,
        "async stall changed with chunking: {pipe} vs {mono}"
    );
}

/// A profile whose memory tiers only fit a couple of small checkpoints, so
/// the Transfer Selector's degradation is observable without gigabytes.
fn cramped_profile(gpu_capacity: u64, host_capacity: u64) -> MachineProfile {
    let mut profile = MachineProfile::polaris();
    for tier in &mut profile.tiers {
        match tier.tier {
            Tier::GpuMem => tier.capacity = gpu_capacity,
            Tier::HostMem => tier.capacity = host_capacity,
            _ => {}
        }
    }
    profile
}

#[test]
fn select_route_degrades_gpu_to_host_to_pfs() {
    // Payload is ~4.1 KB; the GPU tier fits two, the host tier one.
    let mut config = base(Route::GpuToGpu, CaptureMode::Sync);
    config.profile = cramped_profile(9_000, 4_500);
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let mut locations = Vec::new();
    for iter in 1..=4u64 {
        let receipt = producer.save_weights(&ckpt("m", iter, 1_000)).unwrap();
        let record = viper.metadata().get("m", receipt.version).unwrap();
        assert!(record.size_bytes < 4_500, "test sizing assumption broke");
        locations.push(record.location);
    }
    assert_eq!(
        locations,
        vec![
            Tier::GpuMem.name(),
            Tier::GpuMem.name(),
            Tier::HostMem.name(),
            Tier::Pfs.name()
        ],
        "fills the GPU tier, then degrades host → PFS"
    );
}
