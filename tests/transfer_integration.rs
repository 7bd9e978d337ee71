//! Transfer-engine integration: every strategy round-trips checkpoints,
//! virtual-time latencies order the strategies as in Fig. 8, and the
//! background PFS flush provides fault tolerance.

use std::time::Duration;
use viper::{Consumer, Delivery, Producer, Reliable, Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route, Tier};
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

fn deploy(route: Route, mode: CaptureMode, flush: bool) -> (Viper, Producer, Consumer) {
    let mut config = ViperConfig::default().with_strategy(route, mode);
    config.flush_to_pfs = flush;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    (viper, producer, consumer)
}

#[test]
fn every_strategy_roundtrips_exactly() {
    for (route, mode) in [
        (Route::GpuToGpu, CaptureMode::Sync),
        (Route::GpuToGpu, CaptureMode::Async),
        (Route::HostToHost, CaptureMode::Sync),
        (Route::HostToHost, CaptureMode::Async),
        (Route::PfsStaging, CaptureMode::Sync),
    ] {
        let (_v, producer, consumer) = deploy(route, mode, false);
        let sent = ckpt("m", 7, 1000);
        producer.save_weights(&sent).unwrap();
        let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
        assert_eq!(*got, sent, "{route:?}/{mode:?}");
    }
}

/// Measure one update's virtual-time latency through the live engine.
fn measured_latency(route: Route, mode: CaptureMode) -> f64 {
    let (_v, producer, consumer) = deploy(route, mode, false);
    let sent = ckpt("m", 1, 10_000);
    let receipt = producer.save_weights(&sent).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();
    let info = consumer.last_update().unwrap();
    info.swapped_at.since(receipt.started_at).as_secs_f64()
}

#[test]
fn virtual_latencies_order_like_fig8() {
    let gpu_sync = measured_latency(Route::GpuToGpu, CaptureMode::Sync);
    let gpu_async = measured_latency(Route::GpuToGpu, CaptureMode::Async);
    let host_sync = measured_latency(Route::HostToHost, CaptureMode::Sync);
    let pfs = measured_latency(Route::PfsStaging, CaptureMode::Sync);
    assert!(gpu_sync < host_sync, "gpu {gpu_sync} !< host {host_sync}");
    assert!(host_sync < pfs, "host {host_sync} !< pfs {pfs}");
    assert!(
        gpu_async >= gpu_sync,
        "async {gpu_async} has the extra staging copy"
    );
}

#[test]
fn sync_stalls_longer_than_async() {
    let (_v, producer, _c) = deploy(Route::HostToHost, CaptureMode::Sync, false);
    let sync_stall = producer.save_weights(&ckpt("m", 1, 500_000)).unwrap().stall;
    let (_v2, producer2, _c2) = deploy(Route::HostToHost, CaptureMode::Async, false);
    let async_stall = producer2
        .save_weights(&ckpt("m", 1, 500_000))
        .unwrap()
        .stall;
    assert!(
        async_stall < sync_stall,
        "async stall {async_stall:?} !< sync stall {sync_stall:?}"
    );
}

#[test]
fn background_flush_lands_checkpoints_on_pfs() {
    let (viper, producer, consumer) = deploy(Route::GpuToGpu, CaptureMode::Sync, true);
    producer.save_weights(&ckpt("m", 5, 100)).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();

    // The flusher runs in the background; poll for its effect.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let record = viper.metadata().get("m", 1);
        if let Some(r) = record {
            if r.location == Tier::Pfs.name() {
                assert!(
                    viper.pfs().contains(&r.path),
                    "metadata points at a real PFS object"
                );
                break;
            }
        }
        assert!(std::time::Instant::now() < deadline, "flush never happened");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn version_pruning_keeps_bounded_history() {
    // With the shipping default the background flush relocates every
    // record to its PFS copy before the prune reads it back; the staging
    // copy must go all the same.
    for flush_to_pfs in [false, true] {
        let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
        config.flush_to_pfs = flush_to_pfs;
        config.keep_versions = 3;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let _consumer = viper.consumer("c", "m");
        for i in 1..=10 {
            producer.save_weights(&ckpt("m", i, 100)).unwrap();
            producer.flush_deliveries();
        }
        let history = viper.metadata().history("m");
        assert_eq!(history.len(), 3);
        assert_eq!(history.last().unwrap().version, 10);
        // Staging tier holds at most the kept versions.
        let staged = producer.gpu_tier().object_count();
        assert!(staged <= 3, "flush {flush_to_pfs}: {staged} staged objects");
    }
}

#[test]
fn consumer_ignores_foreign_models() {
    let (_v, producer, consumer) = deploy(Route::GpuToGpu, CaptureMode::Sync, false);
    producer.save_weights(&ckpt("other-model", 1, 100)).unwrap();
    assert!(consumer.load_weights(Duration::from_millis(200)).is_err());
    assert_eq!(consumer.updates_applied(), 0);
}

#[test]
fn metadata_records_match_saves() {
    let (viper, producer, _consumer) = deploy(Route::HostToHost, CaptureMode::Sync, false);
    producer.save_weights(&ckpt("m", 42, 256)).unwrap();
    let rec = viper.metadata().latest("m").unwrap();
    assert_eq!(rec.version, 1);
    assert_eq!(rec.iteration, 42);
    assert_eq!(rec.location, Tier::HostMem.name());
    assert_eq!(rec.ntensors, 2);
    assert!(rec.size_bytes > 256 * 4 - 100);
}

#[test]
fn staleness_tracks_consumer_lag() {
    let (viper, producer, consumer) = deploy(Route::GpuToGpu, CaptureMode::Sync, false);
    assert_eq!(consumer.staleness(), None, "no model recorded yet");

    producer.save_weights(&ckpt("m", 10, 100)).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(consumer.staleness(), Some((0, 0)), "fully fresh");

    // Record a newer version without delivering it (simulates a consumer
    // falling behind): register metadata directly.
    viper
        .metadata()
        .put(viper_metastore::ModelRecord::new("m", 1, 1, "GPU Memory", "x").at_iteration(25));
    assert_eq!(consumer.staleness(), Some((1, 15)));
}

#[test]
fn polling_baseline_discovers_later_than_push() {
    // Live-engine version of the notify-vs-poll ablation: same PFS-staged
    // update, discovered by push vs by a (virtually slow) poller.
    use viper::DiscoveryMode;

    let run = |discovery: DiscoveryMode| -> f64 {
        let mut config = ViperConfig::default().with_strategy(Route::PfsStaging, CaptureMode::Sync);
        config.flush_to_pfs = false;
        config.discovery = discovery;
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        let receipt = producer.save_weights(&ckpt("m", 1, 10_000)).unwrap();
        consumer.load_weights(Duration::from_secs(10)).unwrap();
        consumer
            .last_update()
            .unwrap()
            .swapped_at
            .since(receipt.started_at)
            .as_secs_f64()
    };

    let push = run(DiscoveryMode::Push);
    let poll = run(DiscoveryMode::Poll {
        interval: Duration::from_secs(30),
    });
    assert!(
        poll > push + 1.0,
        "a 30 s poll grid must add seconds of discovery delay: push {push:.3}, poll {poll:.3}"
    );
}

#[test]
fn two_consumers_both_receive_updates() {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let c1 = viper.consumer("c1", "m");
    let c2 = viper.consumer("c2", "m");
    producer.save_weights(&ckpt("m", 3, 100)).unwrap();
    assert_eq!(
        c1.wait_for_model(Duration::from_secs(10))
            .unwrap()
            .iteration,
        3
    );
    assert_eq!(
        c2.wait_for_model(Duration::from_secs(10))
            .unwrap()
            .iteration,
        3
    );
}

/// One 256 KiB tensor: small enough that hundreds of deployments run in
/// seconds, several chunks at `PROBE_CHUNK`.
fn probe_ckpt(iter: u64) -> Checkpoint {
    Checkpoint::new(
        "m",
        iter,
        vec![("w".into(), Tensor::full(&[64 * 1024], iter as f32))],
    )
}

const PROBE_CHUNK: u64 = 64 * 1024;

/// A GPU-route deployment for the timeline tests below: no background
/// flusher.
fn probe_config(mode: CaptureMode) -> ViperConfig {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, mode);
    config.flush_to_pfs = false;
    config
}

/// Four saves, every consumer installing each before the next: the encoded
/// size, then per save `[started_at, swapped_at of consumer 0, 1, ...]` in
/// virtual nanoseconds.
fn closed_loop_timeline(config: ViperConfig, consumers: usize) -> (u64, Vec<Vec<u64>>) {
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumers: Vec<Consumer> = (0..consumers)
        .map(|i| viper.consumer(&format!("c{i}"), "m"))
        .collect();
    let mut bytes = 0;
    let rows = (1..=4)
        .map(|iter| {
            let receipt = producer.save_weights(&probe_ckpt(iter)).unwrap();
            bytes = receipt.bytes;
            let mut row = vec![receipt.started_at.as_nanos()];
            for consumer in &consumers {
                consumer.load_weights(Duration::from_secs(10)).unwrap();
                let info = consumer.last_update().unwrap();
                assert_eq!(info.iteration, iter);
                row.push(info.swapped_at.as_nanos());
            }
            row
        })
        .collect();
    (bytes, rows)
}

/// The distinct values `f` takes over `reps` fresh deployments.
fn distinct<T: Ord>(reps: usize, f: impl Fn() -> T) -> std::collections::BTreeSet<T> {
    (0..reps).map(|_| f()).collect()
}

/// Every charge on the producer path starts from the instant the update
/// carries, so how the save thread, the async worker, the reactor and the
/// applying consumers interleave cannot move an install: the virtual
/// timeline is a function of the scenario. Interleaving is the thing under
/// test, hence the repetitions (and CI running this binary under both test
/// runners).
#[test]
fn virtual_timeline_is_a_function_of_the_scenario() {
    const REPS: usize = 60;
    for mode in [CaptureMode::Sync, CaptureMode::Async] {
        let mono = probe_config(mode);
        let chunked = probe_config(mode).with_chunked(PROBE_CHUNK);
        let timelines = [
            (
                "monolithic x1",
                distinct(REPS, || closed_loop_timeline(mono.clone(), 1)),
            ),
            (
                "monolithic x3",
                distinct(REPS, || closed_loop_timeline(mono.clone(), 3)),
            ),
            (
                "chunked x3",
                distinct(REPS, || closed_loop_timeline(chunked.clone(), 3)),
            ),
        ];
        for (scenario, seen) in &timelines {
            assert_eq!(seen.len(), 1, "{mode:?} {scenario}: {seen:#?}");
        }
        let [single, fanout, _] = timelines.map(|(_, seen)| seen.into_iter().next().unwrap());

        // The unreliable fan-out is serial: consumer 0 is served exactly as
        // a lone consumer would be, each further one a wire time later.
        let first_install = match mode {
            CaptureMode::Sync => 387_943,
            CaptureMode::Async => 411_053,
        };
        assert_eq!(single.1[0], [0, first_install], "{mode:?} monolithic x1");
        let frame = fanout.0 + viper_net::ChunkHeader::WIRE_SIZE as u64;
        let wire = viper_hw::MachineProfile::polaris()
            .gpu_transfer_time(frame)
            .as_nanos() as u64;
        assert_eq!(
            fanout.1[0],
            [
                0,
                first_install,
                first_install + wire,
                first_install + 2 * wire
            ],
            "{mode:?} monolithic x3"
        );

        let reliable = chunked.with_reliable();
        let reliable = distinct(REPS, || closed_loop_timeline(reliable.clone(), 3));
        if mode == CaptureMode::Sync {
            assert_eq!(reliable.len(), 1, "Sync reliable x3: {reliable:#?}");
            continue;
        }
        // The residue. An async save returns before its delivery resolves,
        // so when the loop above calls the next save the previous update's
        // ACK and notify bookkeeping may or may not have advanced the
        // shared clock yet — and the start of a non-coalescing save is the
        // one instant still read from it. That start then decides whether
        // the update finds the worker idle or queues behind the previous
        // delivery. Pinning it needs the seeded whole-system driver;
        // everything downstream of it is already one function: an update
        // costs the idle latency, or lands one fixed period after the
        // previous install, and its flows queue on the producer's link one
        // flow's wire time apart.
        let hop = viper_hw::fanout_hop(
            &viper_hw::MachineProfile::polaris(),
            Route::GpuToGpu,
            fanout.0,
            1,
            PROBE_CHUNK,
        );
        let wire = hop.wire.as_nanos() as u64;
        let mut idle = std::collections::BTreeSet::new();
        let mut queued_period = std::collections::BTreeSet::new();
        for (_, rows) in &reliable {
            idle.insert(rows[0][1] - rows[0][0]);
            for row in rows {
                let gaps: Vec<u64> = row[1..].windows(2).map(|w| w[1] - w[0]).collect();
                assert_eq!(gaps, [wire, wire], "{row:?}");
            }
            for pair in rows.windows(2) {
                let (prev, row) = (&pair[0], &pair[1]);
                let latency = row[1] - row[0];
                if !idle.contains(&latency) {
                    queued_period.insert(row[1] - prev[1]);
                }
            }
        }
        assert_eq!(idle.len(), 1, "Async reliable x3: {reliable:#?}");
        assert!(queued_period.len() <= 1, "Async reliable x3: {reliable:#?}");
    }
}

/// Async capture with coalescing is the one mode where the worker's
/// `deliver` returns without waiting for anything, so nothing but the
/// worker's own chain keeps back-to-back updates in order on its timeline:
/// staging starts once the update's capture is done AND the worker has
/// published the previous update.
#[test]
fn async_coalescing_worker_chains_behind_its_previous_delivery() {
    const SAVES: u64 = 6;
    let run = || {
        let telemetry = viper_telemetry::Telemetry::enabled();
        let config = probe_config(CaptureMode::Async)
            .with_chunked(PROBE_CHUNK)
            .with_coalescing()
            .with_telemetry(telemetry.clone());
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let consumer = viper.consumer("c", "m");
        let saves: Vec<(u64, u64)> = (1..=SAVES)
            .map(|iter| {
                let receipt = producer.save_weights(&probe_ckpt(iter)).unwrap();
                (receipt.started_at.as_nanos(), receipt.resumed_at.as_nanos())
            })
            .collect();
        producer.flush_deliveries();
        // Which versions a busy lane collapses is still decided by when the
        // reactor admits them in wall time (until the seeded whole-system
        // driver pins it), so only the sum is exact — and the newest always
        // lands.
        assert_eq!(
            consumer.updates_applied() + producer.updates_superseded(),
            SAVES
        );
        assert_eq!(consumer.current_iteration(), Some(SAVES));
        let stages: Vec<(u64, u64)> = telemetry
            .events()
            .iter()
            .filter(|e| e.name == "stage")
            .map(|e| (e.ts_ns, e.ts_ns + e.duration_ns()))
            .collect();
        (saves, stages)
    };
    let seen = distinct(60, run);
    assert_eq!(seen.len(), 1, "{seen:#?}");
    let (saves, stages) = seen.into_iter().next().unwrap();
    assert_eq!(stages.len(), saves.len());
    let notify = viper_hw::MachineProfile::polaris()
        .notify_latency
        .as_nanos() as u64;
    for k in 1..saves.len() {
        // The save thread's private chain: each save starts where the
        // previous stall (the capture) ended.
        assert_eq!(saves[k].0, saves[k - 1].1);
        let worker_free = stages[k - 1].1 + notify;
        assert!(worker_free > saves[k].1, "the chain must be what binds");
        assert_eq!(stages[k].0, worker_free, "update {k}: {stages:?}");
    }
}

// ---------------------------------------------------------------------------
// The delivery lattice: {sync, async} × the 18 modes the engine runs.
// ---------------------------------------------------------------------------

/// What the lattice saves: one tensor that changes every save and one that
/// never does, so a delta has something to leave out.
fn lattice_ckpt(iter: u64) -> Checkpoint {
    Checkpoint::new(
        "m",
        iter,
        vec![
            ("w".into(), Tensor::full(&[16 * 1024], iter as f32)),
            ("frozen".into(), Tensor::full(&[16 * 1024], 0.5)),
        ],
    )
}

/// Five chunks of the 128 KiB lattice checkpoint.
const LATTICE_CHUNK: u64 = 32 * 1024;

type Builder = fn(ViperConfig) -> ViperConfig;

/// The nine delivery modes, each reached through the builders alone.
const LATTICE_DELIVERIES: [(&str, Builder); 9] = [
    ("best-effort", |c| c),
    ("reliable", ViperConfig::with_reliable),
    ("delta", ViperConfig::with_delta),
    ("coalescing", ViperConfig::with_coalescing),
    ("delta+coalescing", |c| c.with_delta().with_coalescing()),
    ("relay", |c| c.with_relay_tree(1)),
    ("relay+delta", |c| c.with_relay_tree(1).with_delta()),
    ("relay+coalescing", |c| {
        c.with_relay_tree(1).with_coalescing()
    }),
    ("relay+delta+coalescing", |c| {
        c.with_relay_tree(1).with_delta().with_coalescing()
    }),
];

/// What one lattice scenario pins: the four saves' `SaveReceipt::stall`
/// (ns); then the producer's `delta_sends`, `delta_fallbacks`, `group_acks`
/// and `payload_allocs`, and the consumers' `relay_reserves` and
/// `bytes_copied`, summed. A non-delta row allocates two payloads for four
/// saves: the staging tier only reserves a version's bytes, so two arena
/// buffers rotate (the version in flight, the one installed). A delta row
/// allocates three: save 1's full, which the installed `frozen` tensor
/// pins, and the deltas of saves 2 and 3; save 4's delta reuses save 2's.
type LatticePins = ([u64; 4], [u64; 6]);

/// Save-to-swap instants (ns) per save, per consumer.
type LatticeSwaps = [[u64; 3]; 4];

/// Four saves to three consumers, every consumer installing each save — and
/// every ACK handled — before the next, so which base a delta diffs against
/// never depends on how fast the reactor drains. Checks the installs: every
/// save once on every consumer, or under coalescing, `applied + superseded
/// == saves` with the newest landing everywhere.
fn lattice_run(config: ViperConfig) -> (LatticePins, LatticeSwaps) {
    let coalescing = matches!(
        config.delivery,
        Delivery::Reliable(Reliable { coalesce: true, .. })
    );
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumers: Vec<Consumer> = (0..3)
        .map(|i| viper.consumer(&format!("c{i}"), "m"))
        .collect();
    let (mut stalls, mut swaps) = ([0; 4], [[0; 3]; 4]);
    for (save, iter) in (1..=4u64).enumerate() {
        let receipt = producer.save_weights(&lattice_ckpt(iter)).unwrap();
        stalls[save] = receipt.stall.as_nanos() as u64;
        for (slot, consumer) in consumers.iter().enumerate() {
            let got = consumer.load_weights(Duration::from_secs(10)).unwrap();
            assert_eq!(*got, lattice_ckpt(iter));
            let swapped = consumer.last_update().unwrap().swapped_at;
            swaps[save][slot] = swapped.since(receipt.started_at).as_nanos() as u64;
        }
        producer.flush_deliveries();
    }
    let applied: u64 = consumers.iter().map(Consumer::updates_applied).sum();
    if coalescing {
        assert_eq!(applied + producer.updates_superseded(), 4 * 3);
    } else {
        assert!(consumers.iter().all(|c| c.updates_applied() == 4));
    }
    assert!(consumers.iter().all(|c| c.current_iteration() == Some(4)));
    let summed = |count: fn(&Consumer) -> u64| consumers.iter().map(count).sum();
    let counters = [
        producer.delta_sends(),
        producer.delta_fallbacks(),
        producer.group_acks(),
        producer.payload_allocs(),
        summed(Consumer::relay_reserves),
        summed(Consumer::bytes_copied),
    ];
    ((stalls, counters), swaps)
}

/// {sync, async} × {monolithic, chunked} × the nine delivery modes, on the
/// GPU route: every reported stall, the installs and the delivery counters
/// are what the parent of the typed `Delivery` produced. Save-to-swap
/// instants are pinned only where
/// `virtual_timeline_is_a_function_of_the_scenario` proves one timeline
/// (async + reliable still races until the seeded whole-system driver
/// lands).
#[test]
fn delivery_lattice_keeps_its_stalls_installs_and_counters() {
    let mut got: Vec<(String, LatticePins)> = Vec::new();
    for mode in [CaptureMode::Sync, CaptureMode::Async] {
        for (shape, chunk_bytes) in [("mono", 0), ("chunked", LATTICE_CHUNK)] {
            for (delivery, build) in LATTICE_DELIVERIES {
                let mut config = build(probe_config(mode));
                config.chunk_bytes = chunk_bytes;
                let name = format!("{mode:?} {shape} {delivery}");
                let (pins, swaps) = lattice_run(config);
                if let Some((_, want)) = LATTICE_SWAPS.iter().find(|(n, _)| *n == name) {
                    assert_eq!(swaps, *want, "{name}");
                }
                got.push((name, pins));
            }
        }
    }
    let want: Vec<(String, LatticePins)> = LATTICE
        .iter()
        .map(|(name, stalls, counters)| (name.to_string(), (*stalls, *counters)))
        .collect();
    let rows: String = got
        .iter()
        .map(|(name, (stalls, counters))| format!("    (\"{name}\", {stalls:?}, {counters:?}),\n"))
        .collect();
    assert!(got == want, "the lattice moved; now:\n{rows}");

    // The one asymmetry of the save plan: a delta + chunked + sync save
    // bills its capture as a lump, yet reports the stall of the full
    // payload's chunk pipeline — the same one a plain chunked save reports.
    let stall_of = |name: &str| got.iter().find(|(n, _)| n == name).unwrap().1 .0;
    assert_eq!(
        stall_of("Sync chunked delta"),
        stall_of("Sync chunked reliable")
    );
}

const LATTICE: [(&str, [u64; 4], [u64; 6]); 36] = [
    (
        "Sync mono best-effort",
        [57178, 57178, 57178, 57178],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Sync mono reliable",
        [57178, 57178, 57178, 57178],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Sync mono delta",
        [57178, 57178, 57178, 57178],
        [9, 3, 0, 3, 0, 0],
    ),
    (
        "Sync mono coalescing",
        [21749, 21749, 21749, 21749],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Sync mono delta+coalescing",
        [21749, 21749, 21749, 21749],
        [9, 3, 0, 3, 0, 0],
    ),
    (
        "Sync mono relay",
        [57178, 57178, 57178, 57178],
        [0, 0, 4, 2, 8, 0],
    ),
    (
        "Sync mono relay+delta",
        [57178, 57178, 57178, 57178],
        [3, 1, 4, 3, 8, 0],
    ),
    (
        "Sync mono relay+coalescing",
        [21749, 21749, 21749, 21749],
        [0, 0, 4, 2, 8, 0],
    ),
    (
        "Sync mono relay+delta+coalescing",
        [21749, 21749, 21749, 21749],
        [3, 1, 4, 3, 8, 0],
    ),
    (
        "Sync chunked best-effort",
        [135865, 135865, 135865, 135865],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Sync chunked reliable",
        [135865, 135865, 135865, 135865],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Sync chunked delta",
        [135865, 135865, 135865, 135865],
        [9, 3, 0, 3, 0, 0],
    ),
    (
        "Sync chunked coalescing",
        [21749, 21749, 21749, 21749],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Sync chunked delta+coalescing",
        [21749, 21749, 21749, 21749],
        [9, 3, 0, 3, 0, 0],
    ),
    (
        "Sync chunked relay",
        [135865, 135865, 135865, 135865],
        [0, 0, 4, 2, 8, 0],
    ),
    (
        "Sync chunked relay+delta",
        [135865, 135865, 135865, 135865],
        [3, 1, 4, 3, 8, 0],
    ),
    (
        "Sync chunked relay+coalescing",
        [21749, 21749, 21749, 21749],
        [0, 0, 4, 2, 8, 0],
    ),
    (
        "Sync chunked relay+delta+coalescing",
        [21749, 21749, 21749, 21749],
        [3, 1, 4, 3, 8, 0],
    ),
    (
        "Async mono best-effort",
        [21749, 21749, 21749, 21749],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Async mono reliable",
        [21749, 21749, 21749, 21749],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Async mono delta",
        [21749, 21749, 21749, 21749],
        [9, 3, 0, 3, 0, 0],
    ),
    (
        "Async mono coalescing",
        [21749, 21749, 21749, 21749],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Async mono delta+coalescing",
        [21749, 21749, 21749, 21749],
        [9, 3, 0, 3, 0, 0],
    ),
    (
        "Async mono relay",
        [21749, 21749, 21749, 21749],
        [0, 0, 4, 2, 8, 0],
    ),
    (
        "Async mono relay+delta",
        [21749, 21749, 21749, 21749],
        [3, 1, 4, 3, 8, 0],
    ),
    (
        "Async mono relay+coalescing",
        [21749, 21749, 21749, 21749],
        [0, 0, 4, 2, 8, 0],
    ),
    (
        "Async mono relay+delta+coalescing",
        [21749, 21749, 21749, 21749],
        [3, 1, 4, 3, 8, 0],
    ),
    (
        "Async chunked best-effort",
        [21749, 21749, 21749, 21749],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Async chunked reliable",
        [21749, 21749, 21749, 21749],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Async chunked delta",
        [21749, 21749, 21749, 21749],
        [9, 3, 0, 3, 0, 0],
    ),
    (
        "Async chunked coalescing",
        [21749, 21749, 21749, 21749],
        [0, 0, 0, 2, 0, 0],
    ),
    (
        "Async chunked delta+coalescing",
        [21749, 21749, 21749, 21749],
        [9, 3, 0, 3, 0, 0],
    ),
    (
        "Async chunked relay",
        [21749, 21749, 21749, 21749],
        [0, 0, 4, 2, 8, 0],
    ),
    (
        "Async chunked relay+delta",
        [21749, 21749, 21749, 21749],
        [3, 1, 4, 3, 8, 0],
    ),
    (
        "Async chunked relay+coalescing",
        [21749, 21749, 21749, 21749],
        [0, 0, 4, 2, 8, 0],
    ),
    (
        "Async chunked relay+delta+coalescing",
        [21749, 21749, 21749, 21749],
        [3, 1, 4, 3, 8, 0],
    ),
];

const LATTICE_SWAPS: [(&str, LatticeSwaps); 5] = [
    ("Sync mono best-effort", [[379031, 414464, 449897]; 4]),
    ("Sync chunked best-effort", [[457739, 573192, 688645]; 4]),
    ("Sync chunked reliable", [[457739, 573192, 688645]; 4]),
    ("Async mono best-effort", [[395588, 431021, 466454]; 4]),
    ("Async chunked best-effort", [[475608, 591061, 706514]; 4]),
];

// ---------------------------------------------------------------------------
// One price: the planner's cost inputs are the engine's charges.
// ---------------------------------------------------------------------------

/// One save of the lattice checkpoint to one fresh consumer, fault-free:
/// the payload size, the reported stall and the save-to-swap latency (ns).
fn first_update(config: ViperConfig) -> (u64, u64, u64) {
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");
    let receipt = producer.save_weights(&lattice_ckpt(1)).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();
    let swapped = consumer.last_update().unwrap().swapped_at;
    let latency = swapped.since(receipt.started_at).as_nanos() as u64;
    (receipt.bytes, receipt.stall.as_nanos() as u64, latency)
}

/// The 36 lattice configurations on the GPU route, then {host, PFS} ×
/// {sync, async} with the default delivery: each named, with its chunk
/// size.
fn pricing_rows() -> Vec<(String, ViperConfig)> {
    let mut rows = Vec::new();
    for mode in [CaptureMode::Sync, CaptureMode::Async] {
        for (shape, chunk_bytes) in [("mono", 0), ("chunked", LATTICE_CHUNK)] {
            for (delivery, build) in LATTICE_DELIVERIES {
                let mut config = build(probe_config(mode));
                config.chunk_bytes = chunk_bytes;
                rows.push((format!("{mode:?} {shape} {delivery}"), config));
            }
        }
    }
    for route in [Route::HostToHost, Route::PfsStaging] {
        for mode in [CaptureMode::Sync, CaptureMode::Async] {
            let mut config = ViperConfig::default().with_strategy(route, mode);
            config.flush_to_pfs = false;
            rows.push((format!("{mode:?} {route:?}"), config));
        }
    }
    rows
}

/// The planner prices the plan the engine runs, to the nanosecond: on
/// every row, (a) the stall a save reports is the planner's `t_stall`,
/// and save-to-swap exceeds `t_stall + t_load` only by named terms —
/// (b) on one-chunk rows, the consumer's 100 ns swap nudge plus the wire
/// time of the bytes the price does not carry (the 40-byte chunk header,
/// and the 8-byte envelope under delta; none on the PFS route); (c) on
/// chunked rows, the pinned `CHUNKED_GAPS`: the engine applies the
/// reassembled flow whole and takes a lump capture whole, where the price
/// overlaps both chunk by chunk (ROADMAP item 9).
#[test]
fn planner_prices_what_the_engine_runs() {
    const REPS: usize = 20;
    const SWAP_NUDGE: u64 = 100;
    let profile = viper_hw::MachineProfile::polaris();
    let ns = |secs: f64| (secs * 1e9).round() as u64;
    let (mut gaps, mut racing) = (Vec::new(), Vec::new());
    for (name, config) in pricing_rows() {
        let seen = distinct(REPS, || first_update(config.clone()));
        let (bytes, _, latency) = *seen.first().unwrap();
        let params = viper::planner::cost_params(&config, bytes, 2, 0.0, 0.0);
        let (t_stall, t_load) = (ns(params.t_stall), ns(params.t_load));
        // (a)
        for (_, stall, _) in &seen {
            assert_eq!(*stall, t_stall, "{name}: reported stall vs t_stall");
        }
        if seen.len() > 1 {
            racing.push(name);
            continue;
        }
        let gap = latency as i64 - (t_stall + t_load) as i64;
        if config.chunk_bytes == 0 || config.strategy.route == Route::PfsStaging {
            // (b)
            let delta = matches!(
                config.delivery,
                Delivery::Reliable(Reliable { delta: true, .. })
            );
            let unpriced = viper_net::ChunkHeader::WIRE_SIZE as u64
                + if delta {
                    viper_formats::wire::WIRE_HEADER_BYTES as u64
                } else {
                    0
                };
            let wire = |b: u64| match config.strategy.route {
                Route::GpuToGpu => profile.gpu_transfer_time(b),
                Route::HostToHost => profile.host_transfer_time(b),
                Route::PfsStaging => Duration::ZERO,
            };
            let header = wire(bytes + unpriced) - wire(bytes);
            let want = SWAP_NUDGE + header.as_nanos() as u64;
            assert_eq!(
                gap, want as i64,
                "{name}: save-to-swap minus t_stall + t_load"
            );
        } else {
            // (c)
            gaps.push((name, gap));
        }
    }
    let rows: String = gaps
        .iter()
        .map(|(name, gap)| format!("    (\"{name}\", {gap}),\n"))
        .collect();
    let want: Vec<(String, i64)> = CHUNKED_GAPS
        .iter()
        .map(|(name, gap)| (name.to_string(), *gap))
        .collect();
    assert!(gaps == want, "the chunked gaps moved; now:\n{rows}");
    assert_eq!(racing, RACING, "rows with more than one timeline");
}

/// Rows whose first update takes more than one timeline: only their
/// stall is checked.
const RACING: [&str; 0] = [];

/// Save-to-swap minus `t_stall + t_load` (ns) on the chunked rows (five
/// chunks, the last one small). Each includes the swap nudge (100 ns) and
/// five chunk headers' wire time (~24 ns), plus:
/// - ~11.75 µs on every row: the engine applies the reassembled flow
///   whole, after its last chunk, so the apply's per-tensor cost and the
///   first four chunks' bytes land where the price overlaps them with the
///   wire;
/// - ~1.31 µs more where a sync save's capture is a lump (delta,
///   coalescing): the wire waits for the whole capture, not its first
///   chunk;
/// - ~6.23 µs instead on async rows: the lump capture and then the whole
///   staging copy precede the wire;
/// - 1 ns more under delta: the wire time of its 8-byte envelope.
const CHUNKED_GAPS: [(&str, i64); 18] = [
    ("Sync chunked best-effort", 11873),
    ("Sync chunked reliable", 11873),
    ("Sync chunked delta", 13186),
    ("Sync chunked coalescing", 13185),
    ("Sync chunked delta+coalescing", 13186),
    ("Sync chunked relay", 11873),
    ("Sync chunked relay+delta", 13186),
    ("Sync chunked relay+coalescing", 13185),
    ("Sync chunked relay+delta+coalescing", 13186),
    ("Async chunked best-effort", 18104),
    ("Async chunked reliable", 18104),
    ("Async chunked delta", 18105),
    ("Async chunked coalescing", 18104),
    ("Async chunked delta+coalescing", 18105),
    ("Async chunked relay", 18104),
    ("Async chunked relay+delta", 18105),
    ("Async chunked relay+coalescing", 18104),
    ("Async chunked relay+delta+coalescing", 18105),
];

// ---------------------------------------------------------------------------
// One link per sender: a fleet's installs are the fan-out price.
// ---------------------------------------------------------------------------

/// The fan-outs the fleet check runs: a name, the builder, and the relay
/// fan-out `viper_hw::FanoutHop::installs` lays the members out by.
const FLEET_SHAPES: [(&str, Builder, Option<usize>); 4] = [
    ("best-effort", |c| c, None),
    ("reliable", ViperConfig::with_reliable, None),
    ("relay f=2", |c| c.with_relay_tree(2), Some(2)),
    ("relay f=3", |c| c.with_relay_tree(3), Some(3)),
];

/// One save of the probe checkpoint to `n` fresh consumers, fault-free:
/// the payload size, then each consumer's save-to-swap latency (ns) in
/// member order (the relay tree sorts its members by name, and `c0` ..
/// `c6` sort in attach order).
fn fleet_update(config: ViperConfig, n: usize) -> (u64, Vec<u64>) {
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumers: Vec<Consumer> = (0..n)
        .map(|i| viper.consumer(&format!("c{i}"), "m"))
        .collect();
    let receipt = producer.save_weights(&probe_ckpt(1)).unwrap();
    let swaps = consumers
        .iter()
        .map(|consumer| {
            consumer.load_weights(Duration::from_secs(10)).unwrap();
            let swapped = consumer.last_update().unwrap().swapped_at;
            swapped.since(receipt.started_at).as_nanos() as u64
        })
        .collect();
    (receipt.bytes, swaps)
}

/// Every node's flows queue on its one link, and a relay re-serves once it
/// has installed, so past the first member a fleet's installs are
/// `viper_hw::fanout_hop`'s price to the nanosecond: on every row, each
/// member's swap minus the first member's is the price's. A reliable
/// fan-out is served exactly like a best-effort one.
#[test]
fn fleet_installs_are_the_fanout_price() {
    const REPS: usize = 20;
    let profile = viper_hw::MachineProfile::polaris();
    let mut racing = Vec::new();
    let mut timelines = std::collections::BTreeMap::new();
    for mode in [CaptureMode::Sync, CaptureMode::Async] {
        for (shape, chunk_bytes) in [("mono", 0), ("chunked", PROBE_CHUNK)] {
            for (delivery, build, fanout) in FLEET_SHAPES {
                for n in [2, 3, 6, 7] {
                    let mut config = build(probe_config(mode));
                    config.chunk_bytes = chunk_bytes;
                    let name = format!("{mode:?} {shape} {delivery} x{n}");
                    let seen = distinct(REPS, || fleet_update(config.clone(), n));
                    if seen.len() > 1 {
                        racing.push(name);
                        continue;
                    }
                    let (bytes, swaps) = seen.into_iter().next().unwrap();
                    let hop =
                        viper_hw::fanout_hop(&profile, Route::GpuToGpu, bytes, 1, chunk_bytes);
                    let price = hop.installs(n, fanout, |_| 1);
                    let want: Vec<i64> = price
                        .iter()
                        .map(|at| (*at - price[0]).as_nanos() as i64)
                        .collect();
                    let got: Vec<i64> = swaps
                        .iter()
                        .map(|at| *at as i64 - swaps[0] as i64)
                        .collect();
                    assert_eq!(got, want, "{name}: installs after the first member's");
                    timelines.insert(name, swaps);
                }
            }
        }
    }
    assert_eq!(racing, FLEET_RACING, "rows with more than one timeline");
    for (name, swaps) in &timelines {
        if let Some(best_effort) = name
            .contains(" reliable ")
            .then(|| name.replace(" reliable ", " best-effort "))
        {
            assert_eq!(swaps, &timelines[&best_effort], "{name} vs best-effort");
        }
    }
    assert_eq!(
        timelines["Sync mono relay f=2 x7"],
        [387_943, 757_390, 808_241, 1_126_837, 1_177_688, 1_177_688, 1_228_539]
    );
}

/// Fleet rows whose first update takes more than one timeline: named here,
/// not priced.
const FLEET_RACING: [&str; 0] = [];
