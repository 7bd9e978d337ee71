//! Integration tests for the telemetry subsystem: trace export validity,
//! span nesting, makespan decomposition, and the disabled path's
//! zero-perturbation guarantee.

use std::time::Duration;
use viper::telemetry::chrome;
use viper::telemetry::{EventKind, Telemetry, TraceEvent};
use viper::{Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};
use viper_net::{FaultPlan, RetryPolicy};
use viper_tensor::Tensor;

/// Multi-chunk checkpoint (~6 KiB at the 1 KiB test chunk size).
fn ckpt(iter: u64) -> Checkpoint {
    Checkpoint::new(
        "m",
        iter,
        vec![
            ("conv/kernel".into(), Tensor::full(&[750], iter as f32)),
            ("dense/bias".into(), Tensor::full(&[750], 0.5)),
        ],
    )
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 16,
        ack_timeout: Duration::from_millis(100),
        nack_after: Duration::from_millis(2),
        max_nacks: 24,
    }
}

/// Retry policy whose delivery timers can't fire in a fault-free run. The
/// reliable-delivery timers (`ack_timeout`, `nack_after`) live on the
/// reactor's virtual-clock timer wheel and only fire at scheduler
/// quiescence — a fault-free flow completes its event cascade first, so
/// these generous deadlines are belt-and-braces for runs that measure the
/// timeline rather than the repair path.
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        ack_timeout: Duration::from_secs(120),
        nack_after: Duration::from_secs(120),
        ..RetryPolicy::default()
    }
}

fn complete_duration(ev: &TraceEvent) -> u64 {
    match ev.kind {
        EventKind::Complete { end_ns } => end_ns.saturating_sub(ev.ts_ns),
        _ => panic!("{}: not a Complete event", ev.name),
    }
}

#[test]
fn fault_free_chunk_wire_spans_sum_to_flow_makespan() {
    // Async chunked delivery on a clean fabric: all chunks are wire-ready
    // at submit, the single lane serializes them back-to-back, so the
    // per-chunk wire spans must tile the flow span exactly — integer
    // nanosecond for integer nanosecond.
    let telemetry = Telemetry::enabled();
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Async)
        .with_chunked(1024)
        .with_retry(patient_retry())
        .with_telemetry(telemetry.clone());
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    producer.save_weights(&ckpt(1)).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();
    // Async capture: the install that satisfies `load_weights` happens
    // while the producer's worker thread is still inside its delivery
    // spans. Drain it so the snapshot below sees every span closed.
    producer.flush_deliveries();

    let events = telemetry.events();
    chrome::check_nesting(&events).expect("span nesting well-formed");
    let json = chrome::export(&telemetry);
    chrome::validate_json(&json).expect("export is valid JSON");
    assert!(json.contains("\"clockDomain\":\"virtual\""));

    let lane = "lane:p/gpu";
    let flows: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.track == lane && e.name == "flow")
        .collect();
    assert_eq!(flows.len(), 1, "exactly one chunked flow expected");
    let flow_dur = complete_duration(flows[0]);
    assert!(flow_dur > 0, "flow span must have virtual width");

    let wire_sum: u64 = events
        .iter()
        .filter(|e| e.track == lane && e.name == "wire")
        .map(complete_duration)
        .sum();
    assert_eq!(
        wire_sum, flow_dur,
        "chunk wire spans must tile the flow span exactly"
    );
    // The sender link's busy counter is its chunks' wire time.
    let busy = telemetry
        .metrics()
        .snapshot()
        .counter("fabric.lane.busy_ns.lane:p/gpu");
    assert_eq!(busy, Some(wire_sum));
}

#[test]
fn faulted_run_decomposes_makespan_into_phases() {
    // The acceptance scenario: a 20%-drop link with reliable chunked
    // delivery. The trace must be valid Chrome JSON whose spans decompose
    // the makespan into wire / backoff / retransmit / install phases, all
    // inside the measured virtual window.
    let telemetry = Telemetry::enabled();
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(1024)
        .with_faults(FaultPlan::seeded(7).with_drop(0.2))
        .with_retry(fast_retry())
        .with_telemetry(telemetry.clone());
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    let started = viper.clock().now().as_nanos();
    for iter in 1..=5u64 {
        producer.save_weights(&ckpt(iter)).unwrap();
        consumer.load_weights(Duration::from_secs(30)).unwrap();
    }
    let ended = viper.clock().now().as_nanos();

    let events = telemetry.events();
    chrome::check_nesting(&events).expect("span nesting well-formed");
    chrome::validate_json(&chrome::export(&telemetry)).expect("valid JSON");

    let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for required in ["save_weights", "deliver", "wire", "flow", "install"] {
        assert!(names.contains(required), "missing {required} spans");
    }
    // With a 20% drop over ~35 chunks the repair path engages with
    // overwhelming probability for this pinned seed; its phases must be
    // visible in the trace whenever the counters say it ran.
    if producer.retransmits() > 0 {
        assert!(
            names.contains("backoff"),
            "retransmits ran but no backoff span"
        );
        assert!(
            names.contains("retransmit"),
            "retransmits ran but no retransmit span"
        );
    }
    if consumer.nacks_sent() > 0 {
        assert!(names.contains("nack"), "NACKs sent but not traced");
    }
    // Control frames are drawn on their sender's link and name their
    // receiver. They take no lane, so the consumer's link, which carries
    // only its ACKs and NACKs, is never busy.
    let controls: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "control").collect();
    assert!(controls
        .iter()
        .all(|e| e.args.iter().any(|(k, _)| *k == "to")));
    let acks = controls.iter().filter(|e| e.track == "lane:c/gpu").count();
    assert!(acks >= 5, "one ACK per update at least, got {acks}");
    let registry = telemetry.metrics().snapshot();
    assert_eq!(registry.counter("fabric.lane.busy_ns.lane:c/gpu"), None);

    // Every recorded phase lies inside the measured virtual window.
    for ev in events.iter() {
        let end = match ev.kind {
            EventKind::Complete { end_ns } => end_ns,
            _ => ev.ts_ns,
        };
        assert!(
            ev.ts_ns >= started && end <= ended,
            "{} at [{}, {end}] outside run window [{started}, {ended}]",
            ev.name,
            ev.ts_ns,
        );
    }
    // And the install phase accounts for every applied update.
    let installs = events.iter().filter(|e| e.name == "install").count();
    assert_eq!(installs as u64, consumer.updates_applied());
}

#[test]
fn disabled_telemetry_leaves_virtual_makespan_bit_identical() {
    // The overhead contract: telemetry never charges the virtual clock, so
    // a deterministic (fault-free, synchronous) run measures the same
    // virtual makespan to the nanosecond with tracing on or off.
    let run = |telemetry: Telemetry| -> u64 {
        let mut config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_chunked(1024)
            .with_retry(patient_retry())
            .with_telemetry(telemetry);
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        let mut total = 0u64;
        for iter in 1..=3u64 {
            let receipt = producer.save_weights(&ckpt(iter)).unwrap();
            consumer.load_weights(Duration::from_secs(10)).unwrap();
            let info = consumer.last_update().unwrap();
            total += info.swapped_at.since(receipt.started_at).as_nanos() as u64;
        }
        total
    };
    let disabled = run(Telemetry::disabled());
    let enabled = run(Telemetry::enabled());
    assert_eq!(
        disabled, enabled,
        "telemetry perturbed the virtual timeline"
    );
}

/// One faulted reliable run; returns the final virtual-clock reading (the
/// makespan) and the exact Chrome-trace export bytes.
fn faulted_run() -> (u64, String) {
    let telemetry = Telemetry::enabled();
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(1024)
        .with_faults(FaultPlan::seeded(7).with_drop(0.15).with_reorder(0.15))
        .with_retry(fast_retry())
        .with_telemetry(telemetry.clone());
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    for iter in 1..=5u64 {
        producer.save_weights(&ckpt(iter)).unwrap();
        consumer.load_weights(Duration::from_secs(30)).unwrap();
    }
    (viper.clock().now().as_nanos(), chrome::export(&telemetry))
}

#[test]
fn faulted_reactor_runs_are_bit_identical_across_runs() {
    // The reactor's determinism contract: thread interleaving only changes
    // wall-clock time, never the virtual timeline or the trace. The same
    // seed and fault plan must yield a bit-identical virtual makespan AND
    // bit-identical Chrome-trace bytes on every run.
    let (reference_makespan, reference_trace) = faulted_run();
    assert!(
        reference_makespan > 0,
        "faulted run must consume virtual time"
    );
    chrome::validate_json(&reference_trace).expect("reference trace is valid JSON");
    for run in 0..10 {
        let (makespan, trace) = faulted_run();
        assert_eq!(
            makespan, reference_makespan,
            "run={run}: virtual makespan diverged"
        );
        assert_eq!(trace, reference_trace, "run={run}: trace bytes diverged");
    }
}
