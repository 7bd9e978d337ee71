//! Delta-aware delivery end-to-end: warm consumers receive incremental
//! payloads, fresh or amnesiac consumers transparently fall back to full
//! checkpoints, faults compose with the delta wire protocol, and the
//! virtual timeline stays deterministic with delta transfer on.

use std::time::Duration;
use viper::telemetry::{EventKind, Telemetry};
use viper::{Viper, ViperConfig};
use viper_formats::{Checkpoint, CheckpointFormat, ViperFormat};
use viper_hw::{CaptureMode, Route, Tier};
use viper_net::{FaultPlan, RetryPolicy};
use viper_tensor::Tensor;

/// A fine-tuning-shaped checkpoint: a frozen backbone that never changes
/// between iterations plus a small head that does. Deltas should carry the
/// head only.
fn finetune_ckpt(iter: u64, backbone: usize) -> Checkpoint {
    Checkpoint::new(
        "m",
        iter,
        vec![
            ("backbone/kernel".into(), Tensor::full(&[backbone], 0.125)),
            ("head/kernel".into(), Tensor::full(&[64], iter as f32)),
            ("head/bias".into(), Tensor::full(&[8], 0.5 + iter as f32)),
        ],
    )
}

/// Seeds for the fault sweep (`VIPER_FAULT_SEEDS` in CI, fast pair locally).
fn fault_seeds() -> Vec<u64> {
    std::env::var("VIPER_FAULT_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![7, 42])
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 16,
        ack_timeout: Duration::from_millis(100),
        nack_after: Duration::from_millis(2),
        max_nacks: 24,
    }
}

/// Delivery timers generous enough that they can't fire in a fault-free
/// run, so the virtual timeline is deterministic (see telemetry_trace.rs).
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        ack_timeout: Duration::from_secs(120),
        nack_after: Duration::from_secs(120),
        ..RetryPolicy::default()
    }
}

fn delta_config(route: Route) -> ViperConfig {
    let mut config = ViperConfig::default()
        .with_strategy(route, CaptureMode::Sync)
        .with_chunked(1024)
        .with_delta()
        .with_retry(patient_retry());
    config.flush_to_pfs = false;
    config
}

#[test]
fn warm_consumer_gets_delta_fresh_consumer_gets_full() {
    let viper = Viper::new(delta_config(Route::GpuToGpu));
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    // First save: no acknowledged base exists, so the codec must fall back
    // to a full checkpoint even with delta transfer on.
    let v1 = finetune_ckpt(1, 20_000);
    producer.save_weights(&v1).unwrap();
    let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(*got, v1);
    assert_eq!(producer.delta_sends(), 0);
    assert_eq!(producer.delta_fallbacks(), 1, "fresh consumer gets a full");
    assert_eq!(consumer.deltas_applied(), 0);

    // Second save: the consumer ACKed v1, so v2 ships as a delta carrying
    // (roughly) just the head — far fewer bytes than the full encoding.
    let v2 = finetune_ckpt(2, 20_000);
    producer.save_weights(&v2).unwrap();
    let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(*got, v2, "delta reconstruction must be byte-identical");
    assert_eq!(producer.delta_sends(), 1);
    assert_eq!(consumer.deltas_applied(), 1);
    let saved = producer.delta_bytes_saved();
    // The backbone is 20k f32s (~80 KB); the changed head is 72 floats.
    assert!(
        saved > 50_000,
        "delta must save most of the frozen backbone's bytes, saved {saved}"
    );

    // A consumer that attaches late has no base: same update, full payload
    // for it, delta for the warm one.
    let late = viper.consumer("c2", "m");
    let v3 = finetune_ckpt(3, 20_000);
    producer.save_weights(&v3).unwrap();
    let got_warm = consumer.load_weights(Duration::from_secs(10)).unwrap();
    let got_late = late.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(*got_warm, v3);
    assert_eq!(*got_late, v3);
    assert_eq!(producer.delta_sends(), 2, "warm consumer stays on deltas");
    assert_eq!(producer.delta_fallbacks(), 2, "late consumer gets a full");
    assert_eq!(consumer.deltas_applied(), 2);
    assert_eq!(late.deltas_applied(), 0);
    assert_eq!(
        late.fulls_requested(),
        0,
        "fallback was proactive, not NeedFull"
    );
}

#[test]
fn delta_apply_moves_changed_tensors_instead_of_copying() {
    // Install reuses the decoded delta's own allocations: changed tensors
    // are *moved* out of the wire payload into the new checkpoint, and
    // only the tensors inherited unchanged from the live base are cloned.
    // The finetune shape has 3 tensors of which exactly 1 (the backbone)
    // is unchanged. The base's tensors are views of the payload they
    // arrived in, so that clone is a reference-count bump: no apply
    // copies a tensor, and the backbone every version serves is the one
    // the first (full) update installed, in place.
    let viper = Viper::new(delta_config(Route::GpuToGpu));
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    let applies = 5u64;
    let mut backbone = None;
    for iter in 1..=(1 + applies) {
        let sent = finetune_ckpt(iter, 20_000);
        producer.save_weights(&sent).unwrap();
        let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
        assert_eq!(*got, sent, "iter {iter}: reconstruction differs");
        let served = got.tensors[0].1.as_slice().as_ptr();
        assert_eq!(*backbone.get_or_insert(served), served, "iter {iter}");
    }
    assert_eq!(consumer.deltas_applied(), applies);
    assert_eq!(
        consumer.apply_tensor_copies(),
        0,
        "the 1 unchanged backbone tensor (of 3) is shared, not copied"
    );
}

#[test]
fn restarted_consumer_self_heals_via_need_full() {
    // The producer's acknowledged-base tracking outlives the consumer: if
    // the consumer restarts under the same node name with an empty slot,
    // the next delta is unusable. The consumer must reply NeedFull and the
    // producer must re-send the update as a full on a fresh flow.
    let viper = Viper::new(delta_config(Route::GpuToGpu));
    let producer = viper.producer("p");
    {
        let consumer = viper.consumer("c", "m");
        producer.save_weights(&finetune_ckpt(1, 20_000)).unwrap();
        consumer.load_weights(Duration::from_secs(10)).unwrap();
        // Consumer "crashes" here; the producer still believes it holds v1.
    }
    let reborn = viper.consumer("c", "m");
    assert!(reborn.current().is_none());

    let v2 = finetune_ckpt(2, 20_000);
    producer.save_weights(&v2).unwrap();
    let got = reborn.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(*got, v2, "healed full must be byte-identical");
    assert_eq!(reborn.fulls_requested(), 1, "NeedFull reply expected");
    assert_eq!(reborn.deltas_applied(), 0);
    assert_eq!(producer.delta_sends(), 1, "the delta was attempted");
    assert!(
        producer.delta_fallbacks() >= 2,
        "initial full + NeedFull re-send both count as fallbacks"
    );

    // The re-sent full was ACKed, so the *next* update rides a delta again.
    let v3 = finetune_ckpt(3, 20_000);
    producer.save_weights(&v3).unwrap();
    let got = reborn.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(*got, v3);
    assert_eq!(producer.delta_sends(), 2);
    assert_eq!(reborn.deltas_applied(), 1, "delta path resumed after heal");
}

#[test]
fn delta_transfer_survives_fault_sweep_byte_identical() {
    // The acceptance scenario: 20% drop + 20% reorder + 20% duplicate with
    // delta transfer on. Every update must install byte-identical with
    // monotone iterations, and deltas must actually flow.
    for seed in fault_seeds() {
        let plan = FaultPlan::seeded(seed)
            .with_drop(0.20)
            .with_reorder(0.20)
            .with_duplicate(0.20);
        let mut config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_chunked(1024)
            .with_delta()
            .with_faults(plan)
            .with_retry(fast_retry());
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");

        for iter in 1..=10u64 {
            let sent = finetune_ckpt(iter, 2_000);
            producer.save_weights(&sent).unwrap();
            let got = consumer.load_weights(Duration::from_secs(30)).unwrap();
            assert_eq!(*got, sent, "seed {seed} iter {iter}: bytes differ");
            assert_eq!(consumer.current_iteration(), Some(iter));
        }
        assert!(
            producer.delta_sends() > 0,
            "seed {seed}: faults must not disable the delta path"
        );
        assert_eq!(
            producer.deliveries_exhausted(),
            0,
            "seed {seed}: retry budget must suffice"
        );
        assert!(consumer.delivery_errors().is_empty(), "seed {seed}");
    }
}

#[test]
fn retry_exhaustion_with_delta_falls_back_to_durable_full() {
    // A dead link under delta transfer: no ACK ever arrives, so no base is
    // ever acknowledged, every attempt is a (framed) full, and exhaustion
    // degrades to the durable PFS route — which always stores the raw,
    // unframed full encoding the pull path can read.
    let plan = FaultPlan::seeded(fault_seeds()[0]).with_drop(1.0);
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(1024)
        .with_delta()
        .with_faults(plan)
        .with_retry(RetryPolicy {
            max_retries: 2,
            ack_timeout: Duration::from_millis(20),
            nack_after: Duration::from_millis(2),
            ..RetryPolicy::default()
        });
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    for iter in 1..=2u64 {
        let sent = finetune_ckpt(iter, 2_000);
        producer.save_weights(&sent).unwrap();
        let got = consumer.load_weights(Duration::from_secs(30)).unwrap();
        assert_eq!(*got, sent, "iter {iter}: PFS fallback copy differs");
    }
    assert_eq!(producer.delta_sends(), 0, "no base was ever acknowledged");
    assert_eq!(producer.pfs_fallbacks(), 2);
    for record in viper.metadata().history("m") {
        assert_eq!(record.location, Tier::Pfs.name());
    }
    // Recovery reads the same durable raw encodings.
    let fresh = viper.consumer("c2", "m");
    assert_eq!(fresh.recover().unwrap().iteration, 2);
}

/// A delta save defers its full; when its delta then exhausts on a link
/// that died after save 1, the durable fallback is that full's first
/// reader: it encodes the never-encoded version for the PFS.
#[test]
fn an_exhausted_delta_falls_back_to_a_full_encoded_for_the_pfs() {
    for seed in fault_seeds() {
        let mut config = delta_config(Route::GpuToGpu).with_retry(RetryPolicy {
            max_retries: 2,
            ack_timeout: Duration::from_millis(20),
            nack_after: Duration::from_millis(2),
            ..RetryPolicy::default()
        });
        config.chunk_bytes = 1024;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        let first = finetune_ckpt(1, 2_000);
        producer.save_weights(&first).unwrap();
        assert_eq!(
            *consumer.load_weights(Duration::from_secs(30)).unwrap(),
            first
        );
        producer.flush_deliveries();

        viper.set_fault_plan(Some(FaultPlan::seeded(seed).with_drop(1.0)));
        let second = finetune_ckpt(2, 2_000);
        producer.save_weights(&second).unwrap();
        assert_eq!(
            producer.delta_sends(),
            1,
            "seed {seed}: save 2 went as a delta"
        );
        assert_eq!(producer.deliveries_exhausted(), 1, "seed {seed}");
        assert_eq!(producer.pfs_fallbacks(), 1, "seed {seed}");
        let record = viper.metadata().latest("m").unwrap();
        assert_eq!(
            (record.location.as_str(), record.path.as_str()),
            (Tier::Pfs.name(), "pfs/m/v2")
        );
        let durable = viper.pfs().get_uncharged("pfs/m/v2").unwrap();
        assert_eq!(durable.len() as u64, record.size_bytes, "seed {seed}");
        let recovered = viper.consumer("c2", "m").recover().unwrap();
        assert_eq!(ViperFormat.encode(&recovered), ViperFormat.encode(&second));
    }
}

/// Async delivery holds the capture, not an encoding, until the worker
/// sends it: a write the trainer makes in place right after the save
/// returns copies the written tensor, so a fresh consumer installs the
/// saved values.
#[test]
fn an_in_place_write_after_an_async_save_does_not_reach_the_consumer() {
    let mut config = delta_config(Route::GpuToGpu);
    config.strategy.mode = CaptureMode::Async;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    let mut model = finetune_ckpt(1, 1 << 20);
    let saved = model.clone();
    producer.save_weights(&model).unwrap();
    model.tensors[0].1.as_mut_slice().fill(-3.0);
    model.tensors[1].1.as_mut_slice()[0] = -3.0;
    let installed = consumer.load_weights(Duration::from_secs(30)).unwrap();
    assert_eq!(*installed, saved);
    assert_eq!(saved, finetune_ckpt(1, 1 << 20));
    assert_ne!(*installed, model);
    assert_eq!(
        producer.delta_fallbacks(),
        1,
        "a fresh consumer is sent the full"
    );
}

/// With the background flush on, a delta save's full is encoded by the
/// flush when no consumer needed it: every durable copy decodes to its
/// save.
#[test]
fn the_flush_writes_every_delta_save_as_its_full() {
    let mut config = delta_config(Route::GpuToGpu);
    config.flush_to_pfs = true;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    for iter in 1..=4u64 {
        producer.save_weights(&finetune_ckpt(iter, 2_000)).unwrap();
        consumer.load_weights(Duration::from_secs(30)).unwrap();
    }
    producer.flush_deliveries();
    assert_eq!(producer.delta_sends(), 3);
    for version in 1..=4u64 {
        let path = format!("pfs/m/v{version}");
        let durable = viper.pfs().get_uncharged(&path).unwrap();
        let decoded = ViperFormat.decode(&durable).unwrap();
        assert_eq!(decoded, finetune_ckpt(version, 2_000), "{path}");
        let record = viper.metadata().get("m", version).unwrap();
        assert_eq!(record.path, path);
    }
}

#[test]
fn delta_events_and_kinds_show_up_in_trace() {
    let telemetry = Telemetry::enabled();
    let mut config = delta_config(Route::GpuToGpu).with_telemetry(telemetry.clone());
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    for iter in 1..=2u64 {
        producer.save_weights(&finetune_ckpt(iter, 2_000)).unwrap();
        consumer.load_weights(Duration::from_secs(10)).unwrap();
    }

    let events = telemetry.events();
    assert!(
        events.iter().any(|e| e.name == "encode.delta"),
        "diff pass must be traced"
    );
    let install_kinds: Vec<String> = events
        .iter()
        .filter(|e| e.name == "install" && matches!(e.kind, EventKind::Complete { .. }))
        .filter_map(|e| {
            e.args
                .iter()
                .find(|(k, _)| *k == "kind")
                .map(|(_, v)| format!("{v:?}"))
        })
        .collect();
    assert_eq!(install_kinds.len(), 2, "one install per update");
    assert!(install_kinds[0].contains("full"), "{install_kinds:?}");
    assert!(install_kinds[1].contains("delta"), "{install_kinds:?}");
}

#[test]
fn delta_mode_keeps_virtual_makespan_bit_identical_across_telemetry() {
    // The PR-3 invariant extended to the codec layer: diff and apply costs
    // are charged through the same causal helpers, so a deterministic
    // (fault-free, synchronous) delta run measures the same virtual
    // makespan to the nanosecond with tracing on or off.
    let run = |telemetry: Telemetry| -> (u64, u64) {
        let mut config = delta_config(Route::GpuToGpu).with_telemetry(telemetry);
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        let mut total = 0u64;
        for iter in 1..=3u64 {
            let receipt = producer.save_weights(&finetune_ckpt(iter, 20_000)).unwrap();
            consumer.load_weights(Duration::from_secs(10)).unwrap();
            let info = consumer.last_update().unwrap();
            total += info.swapped_at.since(receipt.started_at).as_nanos() as u64;
        }
        (total, producer.delta_sends())
    };
    let (disabled, sends_off) = run(Telemetry::disabled());
    let (enabled, sends_on) = run(Telemetry::enabled());
    assert_eq!(
        disabled, enabled,
        "telemetry perturbed the delta virtual timeline"
    );
    assert_eq!(sends_off, 2, "deltas engaged with telemetry disabled");
    assert_eq!(sends_on, 2, "deltas engaged with telemetry enabled");
}
