//! Steady-state deliveries are copy-free: the encoded payload — a full or
//! a delta, each taken from the producer's one arena — is the only buffer
//! a save can allocate, and every downstream stage — chunk framing,
//! fan-out to multiple consumers, reliable ACK-gated flows, the enveloped
//! full under delta delivery, reassembly, install — operates on zero-copy
//! views of it. The memory staging tiers hold none of it: they are
//! capacity ledgers that reserve each retained version's encoded length,
//! so the arena recycles a buffer as soon as delivery and install let go
//! of it, for a later payload of its size class, and frees it otherwise.
//! Under delta delivery a full is encoded only when a reader needs it.
//! The producer's `payload_allocs`, the arena's parked capacity and the
//! consumers' `bytes_copied` counters assert this directly, the installed
//! tensors are shown to lie inside the producer's buffer, and the delivered
//! models are byte-for-byte intact.

use std::time::Duration;
use viper::{Viper, ViperConfig};
use viper_formats::{delta, wire, Checkpoint};
use viper_hw::{CaptureMode, Route, StorageError};
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
/// copied on either side, and two payload allocations for four saves — the
/// version being delivered and the one the consumers still have installed.
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
        2,
        "two serialize buffers rotate through the arena"
    );
}

/// Install without a copy: on a relay fan-out (6 consumers, fan-out 2, so
/// all but the tree's root receive the update re-served by a relay), every
/// member's installed tensors are views of the producer's one serialize
/// buffer, whether it arrived as one chunk or several: each tensor lies at
/// the same address on every member, and all of them within one encoding's
/// span.
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
        let receipt = producer.save_weights(&ckpt(1, 50_000)).unwrap();
        let mut first: Option<Vec<_>> = None;
        for consumer in &consumers {
            let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
            assert_eq!(*model, ckpt(1, 50_000), "{chunk_bytes}");
            assert!(
                model.tensors.iter().all(|(_, t)| t.is_shared()),
                "{chunk_bytes}: installs are views"
            );
            let ranges: Vec<_> = model
                .tensors
                .iter()
                .map(|(_, t)| t.as_bytes().as_ptr_range())
                .collect();
            let first = first.get_or_insert_with(|| ranges.clone());
            assert_eq!(
                ranges, *first,
                "{chunk_bytes}: one buffer behind every member"
            );
            assert_eq!(consumer.bytes_copied(), 0, "{chunk_bytes}");
        }
        let first = first.unwrap();
        let start = first.iter().map(|r| r.start).min().unwrap();
        let end = first.iter().map(|r| r.end).max().unwrap();
        assert!(
            end as usize - start as usize <= receipt.bytes as usize,
            "{chunk_bytes}: every tensor lies within one encoding"
        );
        let reserves: u64 = consumers.iter().map(|c| c.relay_reserves()).sum();
        assert_eq!(reserves, 5, "{chunk_bytes}: relays served the rest");
        assert_eq!(producer.payload_allocs(), 1, "{chunk_bytes}");
    }
}

/// Retention costs no buffers: a memory staging tier is a capacity ledger,
/// so every staged version is a reservation of its exact encoded length and
/// the serialize buffers are held only by what delivers and installs them.
/// Whatever `keep_versions` is, the steady state is two buffers
/// ping-ponging — the version in flight and the one the consumer has
/// installed — so only the first two saves allocate. That holds with
/// chunking on too: the consumer reassembles a multi-chunk flow as a joined
/// view of the producer's buffer and installs views of it, which pin it
/// only until the slot displaces that model.
#[test]
fn retention_costs_no_serialize_buffers() {
    for chunked in [false, true] {
        for keep_versions in [1, 2, 16] {
            let mut config = ViperConfig::default()
                .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
                .with_reliable();
            if chunked {
                config = config.with_chunked(16 * 1024);
            }
            config.flush_to_pfs = false;
            config.keep_versions = keep_versions;
            let viper = Viper::new(config);
            let producer = viper.producer("p");
            let consumer = viper.consumer("c", "m");
            let case = format!("chunked {chunked}, keep {keep_versions}");

            for iter in 1..=20 {
                producer.save_weights(&ckpt(iter, 50_000)).unwrap();
                let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
                assert_eq!(*model, ckpt(iter, 50_000), "{case}");
            }
            assert_eq!(consumer.bytes_copied(), 0, "{case}");
            assert_eq!(producer.payload_allocs(), 2, "{case}");

            let tier = producer.gpu_tier();
            let staged = tier.keys();
            assert_eq!(staged.len(), keep_versions.min(20), "{case}");
            for key in &staged {
                assert_eq!(
                    tier.get_uncharged(key).unwrap_err(),
                    StorageError::Reserved(key.clone()),
                    "{case}"
                );
            }
            let retained: u64 = viper
                .metadata()
                .history("m")
                .iter()
                .map(|r| r.size_bytes)
                .sum();
            assert_eq!(tier.used_bytes(), retained, "{case}");
        }
    }
}

/// High-water release: a workload that shrinks (one huge save, then a
/// long run of small ones) must not pin the huge serialize buffer forever.
/// The first small save that finds it free releases it, being out of its
/// size class, while the small saves keep reclaiming (no fresh
/// allocations creep in).
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
    // version, so every save reclaims a parked buffer of its class, and
    // the first take that finds the big one free releases it.
    let small_saves = 24u64;
    for iter in 2..=(1 + small_saves) {
        producer.save_weights(&ckpt(iter, 2_000)).unwrap();
    }
    let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
    assert_eq!(model.iteration, 1 + small_saves);

    assert!(
        producer.arena_decays() >= 1,
        "a small save must release the free high-water buffer"
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

/// Four 100 KB tensors holding `values`.
fn layers(iter: u64, values: [f32; 4]) -> Checkpoint {
    let tensors = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (format!("layer{i}/w"), Tensor::full(&[25_000], v)));
    Checkpoint::new("m", iter, tensors.collect())
}

/// One pool for every payload: under delta delivery a full, a dense delta
/// and a sparse delta all take their buffers from the arena, and the
/// warm-up full is not parked for good. Once the dense delta is installed
/// nothing views the full, so the sparse delta's take, which the full is
/// too big for, releases it. The arena is left holding exactly the two
/// delta buffers the installed model views, each of its payload's length.
#[test]
fn delta_saves_park_no_free_full_size_buffer() {
    for chunk_bytes in [0, 16 * 1024] {
        let mut config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_delta();
        config.chunk_bytes = chunk_bytes;
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        let values = [[1.0; 4], [2.0; 4], [3.0, 2.0, 2.0, 2.0]];
        let ckpts: Vec<_> = (1..).zip(values).map(|(i, v)| layers(i, v)).collect();
        for ckpt in &ckpts {
            producer.save_weights(ckpt).unwrap();
            let model = consumer.load_weights(Duration::from_secs(30)).unwrap();
            assert_eq!(*model, *ckpt, "{chunk_bytes}");
        }
        let wire_len = |pair: &[Checkpoint]| {
            let vipd = delta::diff(&pair[0], &pair[1]).unwrap().encode();
            wire::WIRE_HEADER_BYTES + vipd.len()
        };
        assert_eq!(producer.delta_sends(), 2, "{chunk_bytes}");
        assert_eq!(producer.payload_allocs(), 3, "{chunk_bytes}");
        assert_eq!(
            producer.arena_decays(),
            1,
            "{chunk_bytes}: the sparse delta's take releases the free full"
        );
        assert_eq!(
            producer.arena_retained_capacity(),
            ckpts.windows(2).map(wire_len).sum::<usize>(),
            "{chunk_bytes}: only the installed deltas' buffers stay parked"
        );
    }
}
