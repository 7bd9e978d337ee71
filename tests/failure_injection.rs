//! Failure injection: corrupted payloads, exhausted staging tiers, and
//! timeout paths must degrade gracefully — serving never crashes and
//! training continues.

use std::sync::Arc;
use std::time::Duration;
use viper::{CheckpointCallback, SchedulePolicy, Viper, ViperConfig, ViperError};
use viper_dnn::{losses, optimizers, FitConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route, StorageError, Tier};
use viper_net::{FaultPlan, LinkKind, RetryPolicy};
use viper_tensor::Tensor;

fn ckpt(iter: u64) -> Checkpoint {
    Checkpoint::new(
        "m",
        iter,
        vec![("w".into(), Tensor::full(&[100], iter as f32))],
    )
}

#[test]
fn stale_replay_never_regresses_serving() {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    producer.save_weights(&ckpt(5)).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(consumer.current_iteration(), Some(5));

    // Stale replay: saving an older iteration creates a new metadata
    // version, but the slot rejects models whose iteration regresses.
    producer.save_weights(&ckpt(3)).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        consumer.current_iteration(),
        Some(5),
        "stale model must not regress serving"
    );
    // Forward progress still works afterwards.
    producer.save_weights(&ckpt(8)).unwrap();
    let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(got.iteration, 8);
}

#[test]
fn poisoned_pfs_object_is_skipped_not_fatal() {
    // The PFS route pulls from shared storage, so corruption there is the
    // realistic attack/fault surface. The CRC check must reject it and the
    // consumer must keep serving until a healthy version arrives.
    let mut config = ViperConfig::default().with_strategy(Route::PfsStaging, CaptureMode::Sync);
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    producer.save_weights(&ckpt(1)).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();

    // Poison a fake "version 2" object, record it, and announce it so the
    // consumer actually attempts the (failing) decode.
    let garbage = Arc::new(vec![0xFFu8; 64]);
    viper.pfs().put_uncharged("m/v2", garbage, 1).unwrap();
    let fake =
        viper_metastore::ModelRecord::new("m", 64, 1, Tier::Pfs.name(), "m/v2").at_iteration(99);
    let version = viper.metadata().put(fake.clone());
    let mut fake = fake;
    fake.version = version;
    assert!(viper.announce(fake) >= 1);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        consumer.current_iteration(),
        Some(1),
        "poisoned object must not install"
    );

    // The next real save must still install (decode failure of the poisoned
    // object is skipped silently).
    producer.save_weights(&ckpt(7)).unwrap();
    let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(got.iteration, 7);
    assert_eq!(consumer.current_iteration(), Some(7));
}

#[test]
fn staging_tier_capacity_exhaustion_fails_save_but_not_training() {
    // Shrink every tier so the checkpoint cannot be cached anywhere: the
    // Transfer Selector degrades GPU → host → PFS and the PFS refuses it
    // too, so the failure path is exercised.
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    config.flush_to_pfs = false;
    for tier in &mut config.profile.tiers {
        tier.capacity = 64; // bytes — nothing fits
    }
    let viper = Viper::new(config);
    let producer = Arc::new(viper.producer("p"));
    let _consumer = viper.consumer("c", "nt3");

    let err = producer.save_weights(&ckpt(1)).unwrap_err();
    assert!(matches!(err, ViperError::Storage(_)), "{err}");

    // Through the callback: failures are counted, training continues.
    let mut model = viper_workloads::nt3::build_model(9);
    let (train, _) = viper_workloads::nt3::datasets(0.02, 9);
    let mut callback = CheckpointCallback::new(Arc::clone(&producer), SchedulePolicy::EveryN(2));
    let mut opt = optimizers::Sgd::new(0.01);
    let cfg = FitConfig {
        epochs: 1,
        batch_size: 8,
        shuffle: false,
    };
    let report = model
        .fit(
            &train,
            &losses::SoftmaxCrossEntropy,
            &mut opt,
            &cfg,
            &mut [&mut callback],
        )
        .unwrap();
    assert!(
        report.iterations > 0,
        "training survived checkpoint failures"
    );
    assert!(callback.failures() > 0);
    assert_eq!(callback.receipts().lock().unwrap().len(), 0);
}

/// The Transfer Selector's deployment with `full` memory tiers shrunk to
/// 64 bytes, with or without delta delivery.
fn squeezed(full: &[Tier], delta: bool) -> ViperConfig {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    if delta {
        config = config.with_delta();
    }
    config.flush_to_pfs = false;
    for tier in &mut config.profile.tiers {
        if full.contains(&tier.tier) {
            tier.capacity = 64;
        }
    }
    config
}

#[test]
fn transfer_selector_falls_back_when_gpu_memory_full() {
    // Same memory pressure, but with the (default) fallback on: the save
    // must succeed via the host route and the consumer must still get it.
    // The host tier holds a reservation of the version's bytes, with or
    // without delta delivery: a memory staging tier is a capacity ledger.
    for delta in [false, true] {
        let viper = Viper::new(squeezed(&[Tier::GpuMem], delta));
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");

        producer.save_weights(&ckpt(1)).unwrap();
        let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
        assert_eq!(*got, ckpt(1), "delta {delta}");
        // The checkpoint was staged on host memory, not GPU memory.
        assert_eq!(
            viper.metadata().latest("m").unwrap().location,
            Tier::HostMem.name()
        );
        assert_eq!(producer.gpu_tier().object_count(), 0);
        let host = producer.host_tier();
        assert_eq!(host.keys(), ["m/p/i1"], "delta {delta}");
        assert_eq!(host.used_bytes(), got_bytes(&viper), "delta {delta}");
        assert_eq!(
            host.get_uncharged("m/p/i1").unwrap_err(),
            StorageError::Reserved("m/p/i1".into()),
            "delta {delta}"
        );
    }
}

/// The encoded size the metadata DB recorded for the latest version.
fn got_bytes(viper: &Viper) -> u64 {
    viper.metadata().latest("m").unwrap().size_bytes
}

#[test]
fn transfer_selector_falls_back_to_pfs_when_all_memory_full() {
    // On the PFS route consumers pull the staged object, so the save
    // encodes its full under delta delivery too.
    for delta in [false, true] {
        let viper = Viper::new(squeezed(&[Tier::GpuMem, Tier::HostMem], delta));
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");

        producer.save_weights(&ckpt(2)).unwrap();
        let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
        assert_eq!(*got, ckpt(2), "delta {delta}");
        assert_eq!(
            viper.metadata().latest("m").unwrap().location,
            Tier::Pfs.name()
        );
        let staged = viper.pfs().get_uncharged("m/p/i2").unwrap();
        assert_eq!(staged.len() as u64, got_bytes(&viper), "delta {delta}");
        assert_eq!(producer.payload_allocs(), 1, "delta {delta}");
    }
}

#[test]
fn consumer_recovers_latest_durable_version_after_restart() {
    // Producer flushes history to the PFS; a consumer that starts later
    // (e.g. after a crash) recovers the newest durable version without
    // waiting for the next push.
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    config.flush_to_pfs = true;
    let viper = Viper::new(config);
    {
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        for i in 1..=3 {
            producer.save_weights(&ckpt(i * 10)).unwrap();
            consumer.load_weights(Duration::from_secs(10)).unwrap();
        }
        // Wait until the background flusher has made version 3 durable.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while viper.metadata().get("m", 3).map(|r| r.location) != Some(Tier::Pfs.name().into()) {
            assert!(
                std::time::Instant::now() < deadline,
                "flush never completed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Producer and consumer both "crash" here (dropped).
    }

    let restarted = viper.consumer("c2", "m");
    assert!(restarted.current().is_none());
    let recovered = restarted.recover().unwrap();
    assert_eq!(recovered.iteration, 30);
    assert_eq!(restarted.current_iteration(), Some(30));
}

#[test]
fn full_restart_recovers_from_disk_backed_pfs() {
    // The strongest fault-tolerance story: the entire deployment (clock,
    // metadata DB, broker, tiers) dies; only the disk-backed PFS files
    // survive. A fresh deployment rebuilds the catalog and a fresh
    // consumer recovers the newest checkpoint.
    let dir = std::env::temp_dir().join(format!("viper-restart-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mk_config = || {
        let mut c = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
        c.flush_to_pfs = true;
        c.pfs_dir = Some(dir.clone());
        c
    };

    {
        let viper = Viper::new(mk_config());
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        for i in [10, 20, 30] {
            producer.save_weights(&ckpt(i)).unwrap();
            consumer.load_weights(Duration::from_secs(10)).unwrap();
        }
        // Wait for the background flusher to make all versions durable.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while viper
            .metadata()
            .history("m")
            .iter()
            .any(|r| r.location != Tier::Pfs.name())
        {
            assert!(
                std::time::Instant::now() < deadline,
                "flush never completed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Whole deployment dropped here — "the machine goes down".
    }

    let reborn = Viper::new(mk_config());
    assert!(
        reborn.metadata().latest("m").is_none(),
        "metadata did not survive (by design)"
    );
    let recovered = reborn.recover_catalog();
    assert_eq!(recovered, 3, "all three durable checkpoints re-registered");
    let history = reborn.metadata().history("m");
    assert_eq!(
        history.iter().map(|r| r.iteration).collect::<Vec<_>>(),
        vec![10, 20, 30]
    );

    let consumer = reborn.consumer("c2", "m");
    let model = consumer.recover().unwrap();
    assert_eq!(model.iteration, 30);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_with_no_durable_copy_errors() {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    config.flush_to_pfs = false; // nothing ever reaches the PFS
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    producer.save_weights(&ckpt(1)).unwrap();

    let consumer = viper.consumer("c2", "m");
    // History exists but no record lives on the PFS.
    let err = consumer.recover().unwrap_err();
    assert!(matches!(err, ViperError::UnknownModel(_)), "{err}");
    // And a model that never existed at all:
    let ghost = viper.consumer("c3", "ghost");
    assert!(matches!(
        ghost.recover().unwrap_err(),
        ViperError::UnknownModel(_)
    ));
}

#[test]
fn load_weights_times_out_cleanly_when_nothing_arrives() {
    let viper = Viper::new(ViperConfig::default());
    let consumer = viper.consumer("c", "never-saved");
    let start = std::time::Instant::now();
    let err = consumer
        .load_weights(Duration::from_millis(100))
        .unwrap_err();
    assert!(matches!(err, ViperError::Timeout { .. }));
    assert!(start.elapsed() < Duration::from_secs(5));
    assert!(consumer.current().is_none());
}

#[test]
fn consumer_drop_mid_stream_does_not_poison_producer() {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Async);
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    {
        let consumer = viper.consumer("c", "m");
        producer.save_weights(&ckpt(1)).unwrap();
        let _ = consumer.load_weights(Duration::from_secs(10));
        // consumer drops here, deregistering from the fabric
    }
    // Saving after the consumer vanished must still succeed.
    for i in 2..=5 {
        producer.save_weights(&ckpt(i)).unwrap();
    }
    assert_eq!(viper.metadata().latest("m").unwrap().version, 5);

    // And a late-joining consumer picks up subsequent updates. (It may
    // first catch async deliveries still in flight from earlier saves, so
    // wait until it converges on the newest iteration.)
    let late = viper.consumer("c2", "m");
    producer.save_weights(&ckpt(6)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while late.current_iteration() != Some(6) {
        assert!(
            std::time::Instant::now() < deadline,
            "late consumer never converged"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn fabric_link_kinds_price_consistently_under_failure_free_path() {
    // Sanity guard used by the failure tests above: the decode-reject path
    // relies on CRC detection, which the formats crate proptests cover;
    // here we double-check one corrupt frame end-to-end at the format level.
    let format = viper::FormatKind::Viper.build();
    let good = format.encode(&ckpt(1));
    let mut bad = good.clone();
    let n = bad.len();
    bad[n / 3] ^= 0x55;
    assert!(format.decode(&bad).is_err());
    // LinkKind is exercised for completeness.
    let p = viper_hw::MachineProfile::polaris();
    assert!(LinkKind::GpuDirect.transfer_time(&p, 1 << 30) > Duration::ZERO);
}

// ---------------------------------------------------------------------------
// Fault-injecting fabric + reliable chunked delivery.
//
// Every test below drives the real producer/consumer stack over a memory
// route with a deterministic, seed-driven `FaultPlan` installed on the
// fabric, and asserts the reliability layer's contract: at-least-once on
// the wire, exactly-once (byte-identical, never regressing) at the slot.
// ---------------------------------------------------------------------------

/// Seeds for the fault sweep. CI sets `VIPER_FAULT_SEEDS` to sweep a matrix
/// of seeds; locally the default pair keeps the suite fast.
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

/// A retry policy tuned for wall-clock-fast tests: quick stale-flow reaps,
/// a short blind-resend timeout, and a generous retry/NACK budget so the
/// probabilistic fault sweeps converge with overwhelming probability.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 16,
        ack_timeout: Duration::from_millis(100),
        nack_after: Duration::from_millis(2),
        max_nacks: 24,
    }
}

/// Multi-element checkpoint sized to span several chunks at `CHUNK_SMALL`.
fn big_ckpt(iter: u64, elems: usize) -> Checkpoint {
    Checkpoint::new(
        "m",
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

const CHUNK_SMALL: u64 = 1024; // ~7 chunks for a 1500-element checkpoint

fn reliable_config(route: Route, plan: FaultPlan) -> ViperConfig {
    let mut config = ViperConfig::default()
        .with_strategy(route, CaptureMode::Sync)
        .with_chunked(CHUNK_SMALL)
        .with_faults(plan)
        .with_retry(fast_retry());
    config.flush_to_pfs = false;
    config
}

/// A long lossy best-effort run abandons most saves' flows: the consumer
/// keeps the newest `MAX_ERRORS` errors, `flows_abandoned` counts all.
#[test]
fn delivery_errors_stay_bounded_while_abandoned_flows_are_all_counted() {
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(64)
        .with_retry(RetryPolicy {
            nack_after: Duration::from_millis(1),
            max_nacks: 0,
            ..RetryPolicy::default()
        });
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let (producer, consumer) = (viper.producer("p"), viper.consumer("c", "m"));
    // Dropping half of each save's 64-byte chunks leaves most flows
    // partial, and the first reap abandons them.
    viper.set_fault_plan(Some(FaultPlan::seeded(fault_seeds()[0]).with_drop(0.5)));
    let bound = viper::Consumer::MAX_ERRORS;
    for iter in 1.. {
        assert!(iter < 100 * bound as u64, "too few flows abandoned");
        producer.save_weights(&ckpt(iter)).unwrap();
        if consumer.flows_abandoned() > bound as u64 + 8 {
            break;
        }
    }
    let errors = consumer.delivery_errors();
    assert_eq!(errors.len(), bound);
    assert!(errors
        .iter()
        .all(|e| matches!(e, ViperError::FlowAbandoned { .. })));
}

#[test]
fn fault_matrix_delivers_byte_identical_on_memory_routes() {
    // seeds × routes × fault kinds: every cell must deliver every update
    // byte-identical with monotonically advancing iterations, no matter
    // which single fault class the link exhibits.
    type PlanBuilder = fn(FaultPlan) -> FaultPlan;
    let kinds: &[(&str, PlanBuilder)] = &[
        ("drop 5%", |p| p.with_drop(0.05)),
        ("drop 20%", |p| p.with_drop(0.20)),
        ("duplicate 20%", |p| p.with_duplicate(0.20)),
        ("reorder 20%", |p| p.with_reorder(0.20)),
        ("corrupt 20%", |p| p.with_corrupt(0.20)),
    ];
    for seed in fault_seeds() {
        for route in [Route::GpuToGpu, Route::HostToHost] {
            for (name, build) in kinds {
                let plan = build(FaultPlan::seeded(seed));
                let viper = Viper::new(reliable_config(route, plan));
                let producer = viper.producer("p");
                let consumer = viper.consumer("c", "m");
                for iter in 1..=5u64 {
                    let sent = big_ckpt(iter, 1_500);
                    producer.save_weights(&sent).unwrap();
                    let got = consumer.load_weights(Duration::from_secs(30)).unwrap();
                    assert_eq!(
                        *got, sent,
                        "seed {seed} {route:?} [{name}] iter {iter}: not byte-identical"
                    );
                    assert_eq!(
                        consumer.current_iteration(),
                        Some(iter),
                        "seed {seed} {route:?} [{name}]: serving regressed"
                    );
                }
                assert_eq!(
                    producer.deliveries_exhausted(),
                    0,
                    "seed {seed} {route:?} [{name}]: retry budget must suffice"
                );
                assert!(
                    consumer.flows_abandoned() == 0,
                    "seed {seed} {route:?} [{name}]: no flow should be abandoned"
                );
            }
        }
    }
}

#[test]
fn fault_matrix_with_delta_transfer_stays_byte_identical() {
    // Same fault matrix, but with the wire codec shipping deltas once a
    // base is acknowledged. Warm-consumer updates ride increments, the
    // faults must not leak a wrong reconstruction, and the producer's
    // counters must show the delta path actually engaged.
    for seed in fault_seeds() {
        let plan = FaultPlan::seeded(seed)
            .with_drop(0.20)
            .with_reorder(0.20)
            .with_duplicate(0.20);
        let config = reliable_config(Route::GpuToGpu, plan).with_delta();
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        for iter in 1..=5u64 {
            let sent = big_ckpt(iter, 1_500);
            producer.save_weights(&sent).unwrap();
            let got = consumer.load_weights(Duration::from_secs(30)).unwrap();
            assert_eq!(*got, sent, "seed {seed} iter {iter}: not byte-identical");
            assert_eq!(consumer.current_iteration(), Some(iter));
        }
        assert!(
            producer.delta_sends() > 0,
            "seed {seed}: delta path never engaged"
        );
        assert_eq!(producer.deliveries_exhausted(), 0, "seed {seed}");
    }
}

#[test]
fn sustained_heavy_faults_never_lose_or_regress_an_update() {
    // The acceptance scenario: 20% drop + 20% reorder + 20% duplicate on a
    // memory route for a long run of updates. Every save must arrive
    // byte-identical, iterations must advance monotonically, and the
    // reliability machinery (NACKs + retransmissions) must visibly engage.
    let iters = 100u64;
    let plan = FaultPlan::seeded(fault_seeds()[0])
        .with_drop(0.20)
        .with_reorder(0.20)
        .with_duplicate(0.20);
    let viper = Viper::new(reliable_config(Route::GpuToGpu, plan));
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    let mut last_iter = 0u64;
    for iter in 1..=iters {
        let sent = big_ckpt(iter, 1_500);
        producer.save_weights(&sent).unwrap();
        let got = consumer.load_weights(Duration::from_secs(30)).unwrap();
        assert_eq!(*got, sent, "iter {iter}: delivered bytes differ");
        let cur = consumer.current_iteration().unwrap();
        assert!(cur >= last_iter, "serving regressed: {cur} < {last_iter}");
        assert_eq!(cur, iter);
        last_iter = cur;
    }
    assert_eq!(consumer.updates_applied(), iters, "exactly-once install");
    // With 20% drop over ~700 chunks the repair path must have engaged.
    assert!(producer.retransmits() > 0, "no retransmissions recorded");
    assert!(consumer.nacks_sent() > 0, "no NACKs recorded");
    assert_eq!(producer.deliveries_exhausted(), 0);
    assert_eq!(consumer.flows_abandoned(), 0);
    assert!(consumer.delivery_errors().is_empty());
}

#[test]
fn corruption_is_detected_nacked_and_repaired() {
    let plan = FaultPlan::seeded(fault_seeds()[0]).with_corrupt(0.30);
    let viper = Viper::new(reliable_config(Route::GpuToGpu, plan));
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    for iter in 1..=10u64 {
        let sent = big_ckpt(iter, 1_500);
        producer.save_weights(&sent).unwrap();
        let got = consumer.load_weights(Duration::from_secs(30)).unwrap();
        assert_eq!(*got, sent, "iter {iter}: corruption leaked into the slot");
    }
    // 30% over ~70 chunks: the CRC must have caught damage, the consumer
    // must have NACKed it, and the producer must have repaired it.
    assert!(consumer.corrupt_chunks() > 0, "CRC never fired");
    assert!(consumer.nacks_sent() > 0, "corrupt chunks were not NACKed");
    assert!(producer.retransmits() > 0, "NACKs were not serviced");

    // Best effort, one chunk: a damaged monolithic payload is rejected at
    // its chunk CRC, before any format decode — and, with no feedback
    // channel, simply lost: the slot never swaps.
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    config.flush_to_pfs = false;
    config.fault_plan = Some(FaultPlan::seeded(fault_seeds()[0]).with_corrupt(1.0));
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    for iter in 1..=3u64 {
        producer.save_weights(&big_ckpt(iter, 1_500)).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while consumer.corrupt_chunks() < 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(consumer.corrupt_chunks(), 3, "one chunk per payload");
    assert_eq!(consumer.malformed_chunks(), 0);
    assert_eq!(consumer.updates_applied(), 0);
    assert_eq!(
        consumer.current_iteration(),
        None,
        "a damaged payload swapped in"
    );
    assert_eq!(producer.retransmits(), 0, "best effort never retransmits");
}

/// The format footer is still checked on a chunked flow, even though the
/// consumer no longer re-reads the body to do it: a peer that frames every
/// chunk with the CRC of the bytes it actually sends — so each chunk
/// verifies — but seals a wrong `ViperFormat` / `DeltaCheckpoint` footer
/// inside them installs nothing, and the same bytes under the right footer
/// install bit-identically.
#[test]
fn chunk_clean_flow_with_a_wrong_format_footer_is_never_installed() {
    use viper_formats::{delta, wire, CheckpointFormat, PayloadKind, ViperFormat};
    use viper_net::{ChunkedSend, Control, Endpoint};

    /// Ship `wire` as the chunked flow `m:{version}` and return the
    /// consumer's answer; it applies before it answers.
    fn push(peer: &Endpoint, version: u64, wire: Vec<u8>) -> Control {
        let opts = ChunkedSend::new(CHUNK_SMALL);
        let tag = format!("m:{version}");
        peer.send_chunked("c", &tag, wire, LinkKind::HostRdma, &opts)
            .unwrap();
        let reply = peer.recv_timeout(Duration::from_secs(30)).expect("reply");
        Control::decode(reply.payload.as_contiguous().unwrap()).expect("control frame")
    }

    /// `bytes` with the last byte of its CRC footer flipped.
    fn wrong_footer(mut bytes: Vec<u8>) -> Vec<u8> {
        *bytes.last_mut().unwrap() ^= 0x01;
        bytes
    }

    for with_delta in [false, true] {
        let mut config = ViperConfig::default()
            .with_chunked(CHUNK_SMALL)
            .with_reliable();
        if with_delta {
            config = config.with_delta();
        }
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let consumer = viper.consumer("c", "m");
        let peer = viper.fabric().register("peer");
        // A delta deployment's wire carries the payload-kind envelope, so
        // the body the footer covers starts 8 bytes into the first chunk.
        let framed = |kind, body: Vec<u8>| match with_delta {
            true => wire::frame(kind, &body),
            false => body,
        };

        let v1 = big_ckpt(1, 1_500);
        let full = ViperFormat.encode(&v1);
        let reply = push(
            &peer,
            1,
            framed(PayloadKind::Full, wrong_footer(full.clone())),
        );
        assert!(matches!(reply, Control::Ack { .. }), "{reply:?}");
        assert_eq!(consumer.corrupt_chunks(), 0, "every chunk was clean");
        assert_eq!(consumer.updates_applied(), 0, "delta {with_delta}");
        assert!(consumer.current().is_none(), "delta {with_delta}");

        push(&peer, 1, framed(PayloadKind::Full, full));
        assert_eq!(consumer.updates_applied(), 1, "delta {with_delta}");
        assert_eq!(*consumer.current().unwrap(), v1, "delta {with_delta}");

        if with_delta {
            let v2 = big_ckpt(2, 1_500);
            let d = delta::diff(&v1, &v2).unwrap().encode();
            let reply = push(
                &peer,
                2,
                wire::frame(PayloadKind::Delta, &wrong_footer(d.clone())),
            );
            assert!(matches!(reply, Control::NeedFull { .. }), "{reply:?}");
            assert_eq!(consumer.updates_applied(), 1);
            assert_eq!(*consumer.current().unwrap(), v1);

            let reply = push(&peer, 2, wire::frame(PayloadKind::Delta, &d));
            assert!(matches!(reply, Control::Ack { .. }), "{reply:?}");
            assert_eq!(consumer.deltas_applied(), 1);
            assert_eq!(*consumer.current().unwrap(), v2);
        }
        assert_eq!(consumer.corrupt_chunks(), 0);
    }
}

// ---------------------------------------------------------------------------
// Hand-framed batches. A consumer checksums every drained batch chunk by
// chunk and decodes a flow on completion, whether the batch is one whole
// flow, part of one, or pieces of several. One path must reach the same
// verdicts at the same virtual instants however a flow's chunks are split
// across drains. The fault injector cannot choose the split — a body it
// damages lands in an allocation of its own, and it never holds a batch
// back — so these tests frame chunks by hand and hand the consumer exactly
// the batch they mean it to drain.
// ---------------------------------------------------------------------------

mod whole_flow {
    use super::*;
    use viper_formats::{CheckpointFormat, ViperFormat};
    use viper_hw::SimInstant;
    use viper_net::{
        chunk_sizes, ChunkHeader, Control, Endpoint, Message, MessageKind, Payload, WireBuf,
    };

    /// A deployment with one consumer `c` of model `m` and a raw peer. The
    /// peer answers from the test thread, long after the reactor has gone
    /// quiescent — which is when its virtual timers fire, so a flow left
    /// partial is re-NACKed at wall speed until the peer acts. The consumer
    /// must not abandon it meanwhile.
    pub(super) fn deployment() -> (Viper, viper::Consumer, Endpoint) {
        let mut config = ViperConfig::default()
            .with_chunked(CHUNK_SMALL)
            .with_reliable()
            .with_retry(RetryPolicy {
                max_nacks: u32::MAX,
                ..RetryPolicy::default()
            });
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let consumer = viper.consumer("c", "m");
        let peer = viper.fabric().register("peer");
        (viper, consumer, peer)
    }

    /// Version `version` of the model on the wire.
    pub(super) fn encoded(version: u64) -> Payload {
        Payload::from(ViperFormat.encode(&big_ckpt(version, 1_500)))
    }

    /// Every chunk of flow `flow_id` carrying `payload` as `m:{version}`,
    /// framed as the fabric frames them — bodies are adjacent views of
    /// `payload`, headers carry the CRC of the body — with chunk `i`
    /// arriving `i` µs after `first_arrival`.
    pub(super) fn framed(
        payload: &Payload,
        flow_id: u64,
        version: u64,
        first_arrival: SimInstant,
    ) -> Vec<Message> {
        framed_in(payload, flow_id, version, first_arrival, CHUNK_SMALL)
    }

    /// [`framed`] under the `chunk_bytes` geometry.
    pub(super) fn framed_in(
        payload: &Payload,
        flow_id: u64,
        version: u64,
        first_arrival: SimInstant,
        chunk_bytes: u64,
    ) -> Vec<Message> {
        let sizes = chunk_sizes(payload.len() as u64, chunk_bytes);
        let mut offset = 0u64;
        let chunks = sizes.iter().zip(0u32..).map(|(&len, index)| {
            let body = payload.slice(offset as usize..(offset + len) as usize);
            let (num_chunks, total) = (sizes.len() as u32, payload.len() as u64);
            let header = ChunkHeader::for_body(flow_id, index, num_chunks, offset, total, &body);
            offset += len;
            Message {
                from: "peer".into(),
                to: "c".into(),
                tag: format!("m:{version}"),
                payload: WireBuf::framed(header.encode(), body),
                kind: MessageKind::Chunk,
                link: LinkKind::HostRdma,
                sent_at: first_arrival,
                arrived_at: first_arrival.add(Duration::from_micros(u64::from(index))),
                wire_time: Duration::from_micros(1),
            }
        });
        chunks.collect()
    }

    /// The consumer's next control frame to the peer, and when it arrived.
    pub(super) fn reply(peer: &Endpoint) -> (Control, SimInstant) {
        let msg = peer.recv_timeout(Duration::from_secs(30)).expect("reply");
        let control = Control::decode(msg.payload.as_contiguous().unwrap()).expect("control");
        (control, msg.arrived_at)
    }

    /// The next reply that is not one more NACK of flow `flow_id`'s chunks
    /// `missing`; every NACK skipped on the way must name exactly those.
    pub(super) fn reply_past_nacks(
        peer: &Endpoint,
        flow_id: u64,
        missing: &[u32],
    ) -> (Control, SimInstant) {
        loop {
            match reply(peer) {
                (
                    Control::Nack {
                        flow_id: f,
                        missing: m,
                        ..
                    },
                    _,
                ) if f == flow_id => {
                    assert_eq!(m, missing, "a NACK names exactly the chunks not held")
                }
                other => return other,
            }
        }
    }
}

/// Each chunk's CRC is computed over the body that arrived and compared with
/// its header, also when the batch is a whole flow of adjacent views: one
/// in which one header claims a CRC its body does not have is never
/// installed, is NACKed with exactly that index, and installs once that one
/// chunk is resent with an honest header, in a batch of its own.
#[test]
fn whole_flow_with_one_lying_chunk_header_is_nacked_by_index_then_repaired() {
    use viper_hw::SimInstant;
    use viper_net::{ChunkHeader, Control, WireBuf};
    use whole_flow::*;

    const FLOW: u64 = 77;
    const LIAR: u32 = 3;
    let (viper, consumer, peer) = deployment();
    let payload = encoded(1);
    let mut batch = framed(&payload, FLOW, 1, SimInstant::from_nanos(1_000_000));
    let (mut header, body) = ChunkHeader::decode_buf(&batch[LIAR as usize].payload).unwrap();
    header.crc32 ^= 0x0000_0100;
    batch[LIAR as usize].payload = WireBuf::framed(header.encode(), body);
    viper.fabric().deliver("c", batch).unwrap();

    let (nack, nacked_at) = reply(&peer);
    let missing = vec![LIAR];
    assert_eq!(
        nack,
        Control::Nack {
            flow_id: FLOW,
            generation: 0,
            missing
        }
    );
    assert_eq!(consumer.updates_applied(), 0);
    assert!(consumer.current().is_none());

    peer.retransmit_chunks_at(
        "c",
        "m:1",
        &payload,
        LinkKind::HostRdma,
        FLOW,
        CHUNK_SMALL,
        &[LIAR],
        None,
        nacked_at,
    )
    .unwrap();
    let (ack, _) = reply_past_nacks(&peer, FLOW, &[LIAR]);
    assert!(matches!(ack, Control::Ack { flow_id: FLOW, .. }), "{ack:?}");
    assert_eq!(*consumer.current().unwrap(), big_ckpt(1, 1_500));
    assert_eq!(consumer.updates_applied(), 1);
    assert_eq!(consumer.corrupt_chunks(), 1);
    assert_eq!(consumer.bytes_copied(), 0);
}

/// How a flow's chunks are split across drains cannot change a timeline.
/// Each scenario hands the consumer hand-framed batches and pins every
/// reply, its virtual instant, the install and the counters: the whole flow
/// in one batch; one duplicate; one adjacent swap; two flows interleaved;
/// the last chunk withheld until it is NACKed; and a whole flow that finds
/// its first chunk already held, as a view (the flow completes over the
/// sender's own bytes) and as a copy (it is gathered, and the copy counted).
/// The whole flow, the duplicate and the swap share one pin.
#[test]
fn hand_framed_batches_keep_their_replies_instants_and_counters() {
    use viper_hw::SimInstant;
    use viper_net::{Control, Message, Payload, WireBuf};
    use whole_flow::*;

    /// The next `acks` ACKs as the peer receives them (NACKs of `missing`
    /// may come first), then the consumer's end state. How many NACKs and
    /// reap scans a flow left partial costs depends on how long the test
    /// thread took to answer, so those two counters are told apart.
    fn story(
        peer: &viper_net::Endpoint,
        consumer: &viper::Consumer,
        acks: usize,
        missing: &[u32],
    ) -> (String, [u64; 2]) {
        let mut told = String::new();
        for _ in 0..acks {
            let (control, at) = reply_past_nacks(peer, 9, missing);
            let Control::Ack { flow_id, .. } = control else {
                panic!("{control:?}");
            };
            told += &format!("ack {flow_id} @{}; ", at.as_nanos());
        }
        let update = consumer.last_update().expect("an install");
        told += &format!(
            "v{} i{} @{}; applied {} corrupt {} copied {}",
            update.version,
            update.iteration,
            update.swapped_at.as_nanos(),
            consumer.updates_applied(),
            consumer.corrupt_chunks(),
            consumer.bytes_copied(),
        );
        (told, [consumer.nacks_sent(), consumer.reap_scans()])
    }

    let t0 = SimInstant::from_nanos(1_000_000);
    let whole = |flow_id, version| framed(&encoded(version), flow_id, version, t0);
    // Batches that leave nothing partial: no NACK, no reap scan.
    let one_batch = |batch: Vec<Message>, acks| {
        let (viper, consumer, peer) = deployment();
        viper.fabric().deliver("c", batch).unwrap();
        let (told, nacks_and_reaps) = story(&peer, &consumer, acks, &[]);
        assert_eq!(nacks_and_reaps, [0, 0], "{told}");
        told
    };
    // Two batches, the first of which leaves flow 9 short of `missing`: the
    // reap timer NACKs those first, at `first_reap`.
    let two_batches = |first: Vec<Message>, (first_reap, missing): (u64, &[u32]), second| {
        let (viper, consumer, peer) = deployment();
        viper.fabric().deliver("c", first).unwrap();
        let (nack, nacked_at) = reply(&peer);
        let want = Control::Nack {
            flow_id: 9,
            generation: 0,
            missing: missing.to_vec(),
        };
        assert_eq!((nack, nacked_at.as_nanos()), (want, first_reap));
        viper.fabric().deliver("c", second).unwrap();
        story(&peer, &consumer, 1, missing).0
    };
    /// Batches of flow 9 that arrive after a NACK of it do so from here on.
    const SECOND_ARRIVAL: SimInstant = SimInstant(20_000_000);

    assert_eq!(one_batch(whole(9, 1), 1), WHOLE);

    let mut duplicate = whole(9, 1);
    duplicate.insert(3, duplicate[2].clone());
    assert_eq!(one_batch(duplicate, 1), WHOLE);

    let mut swapped = whole(9, 1);
    swapped.swap(2, 3);
    assert_eq!(one_batch(swapped, 1), WHOLE);

    // Flow 9 carries version 1 and flow 10 version 2, chunk about.
    let interleaved = whole(9, 1).into_iter().zip(whole(10, 2));
    let interleaved = interleaved.flat_map(|(a, b)| [a, b]).collect();
    assert_eq!(one_batch(interleaved, 2), INTERLEAVED);

    let mut withheld = whole(9, 1);
    let last = Message {
        arrived_at: SECOND_ARRIVAL,
        ..withheld.pop().unwrap()
    };
    assert_eq!(
        two_batches(withheld, (9_330_675, &[5]), vec![last]),
        WITHHELD
    );

    // Chunk 0 alone, then the whole flow: chunk 0 again is a duplicate, the
    // flow completes on the batch's last chunk over the batch's own bytes.
    let payload = encoded(1);
    let head = framed(&payload, 9, 1, t0).remove(0);
    let resent = framed(&payload, 9, 1, SECOND_ARRIVAL);
    let rest = (9_226_568, &[1, 2, 3, 4, 5][..]);
    assert_eq!(
        two_batches(vec![head.clone()], rest, resent.clone()),
        RESENT
    );

    // The same, but the chunk 0 held is a copy in an allocation of its own:
    // the completed flow is gathered from it and the batch's other chunks.
    let (frame, body) = viper_net::ChunkHeader::decode_buf(&head.payload).unwrap();
    let copied = Message {
        payload: WireBuf::framed(frame.encode(), Payload::from(body.to_vec())),
        ..head
    };
    assert_eq!(two_batches(vec![copied], rest, resent), GATHERED);

    const WHOLE: &str = "ack 9 @3330610; v1 i1 @3310607; applied 1 corrupt 0 copied 0";
    const INTERLEAVED: &str =
        "ack 9 @3330610; ack 10 @5336217; v2 i2 @5316214; applied 2 corrupt 0 copied 0";
    const WITHHELD: &str = "ack 9 @22325610; v1 i1 @22305607; applied 1 corrupt 0 copied 0";
    const RESENT: &str = "ack 9 @22330610; v1 i1 @22310607; applied 1 corrupt 0 copied 0";
    const GATHERED: &str = "ack 9 @22330610; v1 i1 @22310607; applied 1 corrupt 0 copied 6084";
}

/// The receive verify checksums a drained batch in byte-balanced shares,
/// one per core, cutting inside a body where the balance needs it. A bit
/// flipped where it cuts is still caught: in the last share of a one-chunk
/// flow of 8 MiB, or in the chunk that straddles the two-share cut of a
/// flow of 1 MiB chunks. That chunk is NACKed by its index, nothing
/// installs, and the honest resend of the one chunk installs the flow.
/// Each seed picks other bits.
#[test]
fn a_bit_flipped_where_the_receive_verify_splits_is_nacked_then_repaired() {
    use viper_formats::{CheckpointFormat, ViperFormat};
    use viper_hw::SimInstant;
    use viper_net::{ChunkHeader, Control, Payload, WireBuf};
    use whole_flow::*;

    const MIB: u64 = 1 << 20;
    for seed in fault_seeds() {
        let mut state = seed;
        let mut draw = |below: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % below
        };
        // (chunk bytes, elements, damaged chunk, bytes into its body): one
        // chunk of 8 MiB and more, hit in its last half MiB (the last
        // share of up to eight); five chunks of 1 MiB and a tail, hit
        // anywhere in chunk 2, which holds the two-share cut.
        let one_chunk = (0, 2_100_000, 0, 8 * MIB - 1 - draw(MIB / 2));
        let chunked = (MIB, 1_320_000, 2, draw(MIB));
        for (chunk_bytes, elems, index, at) in [one_chunk, chunked] {
            let what = format!("seed {seed}, chunk {index} of {chunk_bytes} B, byte {at}");
            let (viper, consumer, peer) = deployment();
            let sent = big_ckpt(1, elems);
            let payload = Payload::from(ViperFormat.encode(&sent));
            let t0 = SimInstant::from_nanos(1_000_000);
            let mut batch = framed_in(&payload, 9, 1, t0, chunk_bytes);
            let (header, body) = ChunkHeader::decode_buf(&batch[index].payload).unwrap();
            let mut damaged = body.to_vec();
            damaged[at as usize] ^= 1 << draw(8);
            batch[index].payload = WireBuf::framed(header.encode(), Payload::from(damaged));
            viper.fabric().deliver("c", batch).unwrap();

            let missing = vec![index as u32];
            let (nack, _) = reply(&peer);
            let want = Control::Nack {
                flow_id: 9,
                generation: 0,
                missing: missing.clone(),
            };
            assert_eq!(nack, want, "{what}");
            assert_eq!(consumer.corrupt_chunks(), 1, "{what}");
            assert_eq!(consumer.updates_applied(), 0, "{what}");

            let later = SimInstant::from_nanos(20_000_000);
            let honest = framed_in(&payload, 9, 1, later, chunk_bytes).remove(index);
            viper.fabric().deliver("c", vec![honest]).unwrap();
            let (ack, _) = reply_past_nacks(&peer, 9, &missing);
            assert!(
                matches!(ack, Control::Ack { flow_id: 9, .. }),
                "{what}: {ack:?}"
            );
            assert_eq!(*consumer.current().unwrap(), sent, "{what}");
        }
    }
}

#[test]
fn retry_exhaustion_falls_back_to_pfs_without_panicking() {
    // A dead memory link (100% drop): the push can never complete, the
    // retry budget exhausts, and the producer degrades to the durable PFS
    // route. The consumer still converges on the update via the pull path,
    // and nothing panics or errors out of save_weights.
    let plan = FaultPlan::seeded(fault_seeds()[0]).with_drop(1.0);
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(CHUNK_SMALL)
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

    for iter in 1..=3u64 {
        let sent = big_ckpt(iter, 1_500);
        producer.save_weights(&sent).unwrap();
        let got = consumer.load_weights(Duration::from_secs(30)).unwrap();
        assert_eq!(*got, sent, "iter {iter}: PFS fallback copy differs");
        assert_eq!(consumer.current_iteration(), Some(iter));
    }
    assert_eq!(producer.deliveries_exhausted(), 3);
    assert_eq!(producer.pfs_fallbacks(), 3);
    // The relocated records point at the durable tier.
    for record in viper.metadata().history("m") {
        assert_eq!(record.location, Tier::Pfs.name());
    }
    // An explicit recover() also works from the fallback copies.
    let fresh = viper.consumer("c2", "m");
    assert_eq!(fresh.recover().unwrap().iteration, 3);
}

#[test]
fn an_exhausted_update_is_written_to_the_pfs_once() {
    // Under the shipping default an update that exhausts its retries is
    // made durable twice over: by the delivery fallback and by the
    // background flush. Whichever runs second must find the version
    // written and charge nothing, so the virtual clock ends where it ends
    // with the flush off.
    let run = |mode: CaptureMode, flush_to_pfs: bool| -> u64 {
        let mut config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, mode)
            .with_chunked(CHUNK_SMALL)
            .with_faults(FaultPlan::seeded(1).with_drop(1.0))
            .with_retry(RetryPolicy {
                max_retries: 1,
                ack_timeout: Duration::from_millis(20),
                nack_after: Duration::from_millis(2),
                ..RetryPolicy::default()
            });
        config.flush_to_pfs = flush_to_pfs;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        // It serves another model, so it never pulls the PFS copy (a read
        // charged to the clock alongside the flush).
        let _bystander = viper.consumer("c", "other");
        producer.save_weights(&big_ckpt(1, 1_500)).unwrap();
        producer.flush_deliveries();
        assert_eq!(producer.pfs_fallbacks(), 1);
        let record = viper.metadata().latest("m").unwrap();
        assert_eq!(
            (record.location.as_str(), record.path.as_str()),
            (Tier::Pfs.name(), "pfs/m/v1")
        );
        viper.clock().now().as_nanos()
    };
    for mode in [CaptureMode::Sync, CaptureMode::Async] {
        assert_eq!(
            run(mode, true),
            run(mode, false),
            "{mode:?}: the version was written to the PFS twice"
        );
    }
}

/// Virtual-time update latency of one save under `config` (mirrors the
/// helper in `chunked_transfer.rs`).
fn faulted_latency(config: ViperConfig, elems: usize) -> f64 {
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    let receipt = producer.save_weights(&big_ckpt(1, elems)).unwrap();
    consumer.load_weights(Duration::from_secs(30)).unwrap();
    let info = consumer.last_update().unwrap();
    info.swapped_at.since(receipt.started_at).as_secs_f64()
}

// 10M f32 elements = a 40 MB payload: large enough that the reliability
// layer's fixed control-frame costs are well under the 1% parity budget.
const PARITY_ELEMS: usize = 10_000_000;
const PARITY_CHUNK: u64 = 4 * 1024 * 1024;

#[test]
fn zero_probability_fault_plan_leaves_makespan_identical() {
    // Installing a plan whose probabilities are all zero (and leaving the
    // reliability layer off) must not perturb the virtual timeline at all:
    // the fault hooks are pass-through when no fault can fire.
    let base = || {
        let mut c = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_chunked(PARITY_CHUNK);
        c.flush_to_pfs = false;
        c
    };
    let clean = faulted_latency(base(), PARITY_ELEMS);
    let mut with_plan = base();
    with_plan.fault_plan = Some(FaultPlan::seeded(fault_seeds()[0]));
    let planned = faulted_latency(with_plan, PARITY_ELEMS);
    assert!(
        (planned - clean).abs() / clean < 1e-9,
        "zero-probability plan changed the makespan: {planned} vs {clean}"
    );
}

#[test]
fn reliable_delivery_without_faults_stays_within_one_percent() {
    // The acceptance bar: reliability machinery enabled but no faults
    // injected — the only extra virtual-time cost is the single ACK frame,
    // which must stay within 1% of the PR-1 chunked makespan.
    let base = || {
        let mut c = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_chunked(PARITY_CHUNK);
        c.flush_to_pfs = false;
        c
    };
    let clean = faulted_latency(base(), PARITY_ELEMS);
    // Generous wall-clock ACK timeout: unoptimized test builds checksum
    // 40 MB slowly enough that the default 200 ms blind-resend deadline
    // can fire spuriously; the virtual-time behavior under test is
    // identical either way.
    let reliable_cfg = base().with_reliable().with_retry(RetryPolicy {
        ack_timeout: Duration::from_secs(5),
        ..RetryPolicy::default()
    });
    let reliable = faulted_latency(reliable_cfg, PARITY_ELEMS);
    let rel = (reliable - clean).abs() / clean;
    assert!(
        rel < 0.01,
        "reliable-no-fault makespan {reliable:.6}s vs clean {clean:.6}s (rel {rel:.4})"
    );
}

#[test]
fn retransmission_cost_shows_up_in_virtual_makespan() {
    // Lossy links are not free: the drop itself still burns wire time and
    // every repair round adds backoff + retransmission wire time, so the
    // measured makespan under loss must exceed the fault-free one.
    let seed = fault_seeds()[0];
    let clean = faulted_latency(
        reliable_config(Route::GpuToGpu, FaultPlan::seeded(seed)),
        200_000,
    );
    let lossy = faulted_latency(
        reliable_config(Route::GpuToGpu, FaultPlan::seeded(seed).with_drop(0.25)),
        200_000,
    );
    assert!(
        lossy > clean,
        "loss repair cost invisible: lossy {lossy:.6}s !> clean {clean:.6}s"
    );
}
