//! Steady-state deliveries are copy-free: the serialized checkpoint buffer
//! is the only payload allocation per save, and every downstream stage —
//! staging-tier cache, chunk framing, fan-out to multiple consumers,
//! reliable ACK-gated flows, the enveloped full under delta delivery,
//! reassembly, install — operates on zero-copy views of it. Under delta
//! delivery that buffer is encoded only when a reader needs the full. The producer's
//! `payload_allocs` and the consumers' `bytes_copied` counters assert this
//! directly, the installed tensors are shown to lie inside the producer's
//! buffer, and the delivered models are byte-for-byte intact.

use std::time::Duration;
use viper::{Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};
use viper_tensor::Tensor;

fn ckpt(iter: u64, elems: usize) -> Checkpoint {
    Checkpoint::new(
        "m",
        iter,
        vec![
            ("layer0/w".into(), Tensor::full(&[elems / 2], iter as f32)),
            ("layer1/w".into(), Tensor::full(&[elems - elems / 2], 0.25)),
        ],
    )
}

/// Reliable single-chunk delivery to several consumers: zero payload bytes
/// copied on either side, exactly one payload allocation per save.
#[test]
fn steady_state_delivery_copies_zero_payload_bytes() {
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_reliable();
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumers: Vec<_> = (0..3)
        .map(|i| viper.consumer(&format!("c{i}"), "m"))
        .collect();

    for iter in 1..=4 {
        producer.save_weights(&ckpt(iter, 50_000)).unwrap();
    }
    for consumer in &consumers {
        let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
        assert_eq!(model.ntensors(), 2);
        assert_eq!(consumer.bytes_copied(), 0, "reassembly must not gather");
    }
    assert_eq!(
        producer.payload_allocs(),
        4,
        "exactly one payload allocation per save (the serialize)"
    );
}

/// Install without a copy: on a relay fan-out (6 consumers, fan-out 2, so
/// all but the tree's root receive the update re-served by a relay), every
/// member's installed tensors are views of the producer's one serialize
/// buffer — the bytes the staging tier holds — whether it arrived as one
/// chunk or several.
#[test]
fn relay_members_install_views_of_the_producers_buffer() {
    for chunk_bytes in [0, 16 * 1024] {
        let mut config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_relay_tree(2);
        config.chunk_bytes = chunk_bytes;
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumers: Vec<_> = (0..6)
            .map(|i| viper.consumer(&format!("c{i}"), "m"))
            .collect();
        producer.save_weights(&ckpt(1, 50_000)).unwrap();
        let keys = producer.gpu_tier().keys();
        assert_eq!(keys.len(), 1, "{chunk_bytes}: one staged version");
        let (staged, _) = producer.gpu_tier().read(&keys[0]).unwrap();
        let buffer = staged.as_ptr_range();
        for consumer in &consumers {
            let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
            assert_eq!(*model, ckpt(1, 50_000), "{chunk_bytes}");
            for (name, tensor) in &model.tensors {
                let bytes = tensor.as_bytes().as_ptr_range();
                assert!(
                    tensor.is_shared() && buffer.start <= bytes.start && bytes.end <= buffer.end,
                    "{chunk_bytes}: {name} is not a view of the serialize"
                );
            }
            assert_eq!(consumer.bytes_copied(), 0, "{chunk_bytes}");
        }
        let reserves: u64 = consumers.iter().map(|c| c.relay_reserves()).sum();
        assert_eq!(reserves, 5, "{chunk_bytes}: relays served the rest");
        assert_eq!(producer.payload_allocs(), 1, "{chunk_bytes}");
    }
}

/// Arena amortization: once retention prunes an old version's staging
/// copies (and its flows are terminal), the serialize buffer is recycled
/// for a later save instead of reallocated. With `keep_versions = 1` the
/// steady state is two buffers ping-ponging: only the first two saves
/// allocate, every later save reuses a reclaimed arena slot. That holds
/// with chunking on too: the consumer reassembles a multi-chunk flow as a
/// joined view of the producer's buffer and installs views of it, which
/// pin it only until the slot displaces that model — not past the prune
/// that hands it back to the arena.
#[test]
fn arena_recycles_serialize_buffers_once_versions_prune() {
    for chunked in [false, true] {
        let mut config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_reliable();
        if chunked {
            config = config.with_chunked(16 * 1024);
        }
        config.flush_to_pfs = false;
        config.keep_versions = 1;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");

        for iter in 1..=4 {
            producer.save_weights(&ckpt(iter, 50_000)).unwrap();
        }
        let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
        assert_eq!(model.iteration, 4);
        assert_eq!(consumer.bytes_copied(), 0, "chunked: {chunked}");
        assert_eq!(
            producer.payload_allocs(),
            2,
            "saves 3 and 4 must recycle the buffers pruned after saves 1 and 2 (chunked: {chunked})"
        );
    }
}

/// High-water decay: a workload that shrinks (one huge save, then a long
/// run of small ones) must not pin the huge serialize buffer forever. The
/// arena notices the sustained underuse and releases the excess capacity,
/// while the small saves keep reclaiming (no fresh allocations creep in).
#[test]
fn arena_releases_high_water_capacity_when_saves_shrink() {
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_reliable();
    config.flush_to_pfs = false;
    config.keep_versions = 1;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    // Establish the high-water allocation (~2 MiB serialized).
    producer.save_weights(&ckpt(1, 500_000)).unwrap();
    // Long run of ~8 KiB saves. keep_versions = 1 prunes each previous
    // version, so every save reclaims a parked buffer; after enough
    // underused recycles the reclaim path shrinks it.
    let small_saves = 24u64;
    for iter in 2..=(1 + small_saves) {
        producer.save_weights(&ckpt(iter, 2_000)).unwrap();
    }
    let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
    assert_eq!(model.iteration, 1 + small_saves);

    assert!(
        producer.arena_decays() >= 1,
        "sustained small saves must trigger a high-water decay"
    );
    assert!(
        producer.arena_retained_capacity() < 1_000_000,
        "the ~2 MiB high-water buffer must be released (retained: {})",
        producer.arena_retained_capacity()
    );
    assert!(
        producer.arena_reclaimed() >= small_saves - 2,
        "small saves keep reclaiming parked buffers (reclaimed: {})",
        producer.arena_reclaimed()
    );
}

/// The same guarantee on the unreliable chunked path: multi-chunk flows
/// frame zero-copy subslices on the producer side, and the consumer joins
/// the received views back into the producer's buffer instead of
/// gathering them — no payload byte is copied on either side.
#[test]
fn chunked_fanout_frames_without_producer_copies() {
    let mut config = ViperConfig::default()
        .with_strategy(Route::HostToHost, CaptureMode::Sync)
        .with_chunked(16 * 1024);
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    let receipt = producer.save_weights(&ckpt(1, 50_000)).unwrap();
    assert!(
        receipt.bytes > 16 * 1024,
        "the flow must span several chunks"
    );
    let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
    assert_eq!(model.iteration, 1);
    assert_eq!(
        producer.payload_allocs(),
        1,
        "chunk bodies are subslices of the one serialize"
    );
    assert_eq!(
        consumer.bytes_copied(),
        0,
        "adjacent chunk views are re-joined, not gathered"
    );
}

/// Under delta delivery a version's full is encoded once, by its first
/// reader, and not at all if no one reads it. Save 1's three fresh
/// consumers are sent one encode. Save 2 stages only a reservation, and its
/// warm consumers cost one shared delta. A consumer that restarts under the
/// same name rejects that delta with `NeedFull`; the retry is save 2's
/// single full encode, made on the delivery reactor.
#[test]
fn delta_saves_encode_their_full_once_for_its_first_reader() {
    for chunk_bytes in [0, 16 * 1024] {
        let mut config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_delta();
        config.chunk_bytes = chunk_bytes;
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let warm: Vec<_> = (1..3)
            .map(|i| viper.consumer(&format!("c{i}"), "m"))
            .collect();
        {
            let doomed = viper.consumer("c0", "m");
            producer.save_weights(&ckpt(1, 50_000)).unwrap();
            for consumer in warm.iter().chain([&doomed]) {
                let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
                assert_eq!(*model, ckpt(1, 50_000), "{chunk_bytes}");
            }
            assert_eq!(
                producer.delta_fallbacks(),
                3,
                "{chunk_bytes}: fresh consumers"
            );
            assert_eq!(
                producer.payload_allocs(),
                1,
                "{chunk_bytes}: three fulls, one encode"
            );
            // `doomed` restarts here; the producer still tracks its base.
        }
        let reborn = viper.consumer("c0", "m");
        producer.save_weights(&ckpt(2, 50_000)).unwrap();
        let staged = producer.gpu_tier().keys();
        assert_eq!(staged.len(), 2, "{chunk_bytes}: both versions staged");
        assert!(
            staged
                .iter()
                .all(|key| producer.gpu_tier().get_uncharged(key).is_err()),
            "{chunk_bytes}: a deferred full stages a reservation, not bytes"
        );
        for consumer in warm.iter().chain([&reborn]) {
            let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
            assert_eq!(*model, ckpt(2, 50_000), "{chunk_bytes}");
            assert_eq!(consumer.bytes_copied(), 0, "{chunk_bytes}");
        }
        assert_eq!(
            reborn.fulls_requested(),
            1,
            "{chunk_bytes}: NeedFull expected"
        );
        assert_eq!(producer.delta_sends(), 3, "{chunk_bytes}");
        assert_eq!(producer.delta_fallbacks(), 4, "{chunk_bytes}");
        assert_eq!(
            producer.payload_allocs(),
            3,
            "{chunk_bytes}: save 2 is one shared delta and, for the retry, one full encode"
        );
    }
}
