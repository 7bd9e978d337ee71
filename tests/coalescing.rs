//! Backpressure and collapse-to-latest coalescing: a straggler consumer
//! must not delay fresh-version delivery to healthy consumers, superseded
//! versions must be accounted exactly, and the new delivery metrics must be
//! visible through the telemetry registry.

use std::sync::Mutex;
use std::time::Duration;
use viper::{Viper, ViperConfig};

/// These tests assert on *pacing* — whether the producer can outrun the
/// straggler's repair-occupied lane — so each runs a full producer+reactor
/// sim whose thread interleaving is the thing under test. Running them
/// concurrently makes the sims steal each other's cycles and skews the
/// very races being measured (on few-core hosts the straggler lane can
/// then appear permanently free). Serialize them; poisoning is irrelevant
/// because a panicking holder already failed its own test.
static PACING: Mutex<()> = Mutex::new(());
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};
use viper_net::{FaultPlan, LinkFaults, RetryPolicy};
use viper_telemetry::Telemetry;
use viper_tensor::Tensor;

/// Seeds for the fault sweep (mirrors `failure_injection.rs`). CI sets
/// `VIPER_FAULT_SEEDS` to sweep a matrix; locally the default pair keeps
/// the suite fast.
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

/// Multi-element checkpoint spanning several chunks at `CHUNK_SMALL`.
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

const CHUNK_SMALL: u64 = 1024;
const SAVES: u64 = 20;

/// A retry budget generous enough that even the straggler's 60%-drop link
/// converges with overwhelming probability — the tests below demand zero
/// exhaustion so the applied/superseded accounting is exact.
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 40,
        ack_timeout: Duration::from_millis(100),
        nack_after: Duration::from_millis(2),
        max_nacks: 64,
    }
}

/// A healthy fabric except for the link into `slow`, which drops `drop`
/// of its data frames.
fn straggler_plan(seed: u64, drop: f64) -> FaultPlan {
    FaultPlan::seeded(seed).for_node(
        "slow",
        LinkFaults {
            drop,
            ..LinkFaults::default()
        },
    )
}

/// One producer, one healthy consumer (`fast`), one straggler (`slow`)
/// behind a seeded 60%-drop link.
fn straggler_config(seed: u64) -> ViperConfig {
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(CHUNK_SMALL)
        .with_faults(straggler_plan(seed, 0.60))
        .with_retry(patient_retry());
    config.flush_to_pfs = false;
    config
}

struct RunStats {
    superseded: u64,
    stale_feedback: u64,
    /// Virtual instant (seconds) at which the healthy consumer installed
    /// the final version — its convergence time.
    fast_converged: f64,
}

/// Drive `SAVES` updates through `config`, wait for both consumers to hold
/// the final version, and check the exact delivery accounting. `after_burst`
/// replaces the fault plan once the last save is admitted.
fn run_straggler(config: ViperConfig, after_burst: Option<FaultPlan>) -> RunStats {
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let fast = viper.consumer("fast", "m");
    let slow = viper.consumer("slow", "m");

    for iter in 1..=SAVES {
        producer.save_weights(&big_ckpt(iter, 1_500)).unwrap();
    }
    if let Some(plan) = after_burst {
        viper.set_fault_plan(Some(plan));
    }
    producer.flush_deliveries();

    // Every in-flight delivery is terminal; both consumers must now hold
    // the newest version — coalescing never drops the latest update.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while fast.current_iteration() != Some(SAVES) || slow.current_iteration() != Some(SAVES) {
        assert!(
            std::time::Instant::now() < deadline,
            "consumers never converged: fast {:?} slow {:?}",
            fast.current_iteration(),
            slow.current_iteration()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    assert_eq!(
        producer.deliveries_exhausted(),
        0,
        "retry budget must suffice for exact accounting"
    );
    // Exact accounting: every (save, consumer) pair was either applied or
    // superseded — never both, never lost.
    assert_eq!(
        fast.updates_applied() + slow.updates_applied() + producer.updates_superseded(),
        SAVES * 2,
        "pushed == applied + superseded (fast {} slow {} superseded {})",
        fast.updates_applied(),
        slow.updates_applied(),
        producer.updates_superseded(),
    );
    assert_eq!(
        producer.delivery_queue_depth(),
        0,
        "drained producer must report an empty backlog"
    );

    RunStats {
        superseded: producer.updates_superseded(),
        stale_feedback: producer.stale_feedback(),
        fast_converged: fast.last_update().unwrap().swapped_at.as_secs_f64(),
    }
}

#[test]
fn straggler_consumer_does_not_starve_healthy_consumers() {
    let _seq = PACING.lock().unwrap_or_else(|e| e.into_inner());
    for seed in fault_seeds() {
        // Whether an admission finds the straggler's lane busy must not be
        // left to how the save thread and the reactor interleave, so the
        // lane is busy by construction: while the burst is admitted the
        // link into `slow` is dead and the flow in flight on it cannot run
        // out of retries, so save 1 holds the lane, save 2 queues behind
        // it, and every later save collapses the one queued before it.
        // Once the last save is admitted the link heals to the seeded
        // 60%-drop straggler and the lane drains through repair rounds.
        let held = straggler_config(seed)
            .with_faults(straggler_plan(seed, 1.0))
            .with_retry(RetryPolicy {
                max_retries: u32::MAX,
                ..patient_retry()
            })
            .with_coalescing();
        let stats = run_straggler(held, Some(straggler_plan(seed, 0.60)));
        assert!(
            stats.superseded >= SAVES - 2,
            "seed {seed}: straggler lane coalesced only {} of a {SAVES}-save burst",
            stats.superseded
        );
    }
}

#[test]
fn coalescing_beats_blocking_delivery_on_healthy_convergence() {
    let _seq = PACING.lock().unwrap_or_else(|e| e.into_inner());
    // Same seeded straggler link, coalescing on vs off. Without coalescing
    // every save blocks until the straggler's repair rounds finish, so the
    // healthy consumer's convergence inherits the full serialized repair
    // cost; with coalescing the healthy lane runs ahead.
    for seed in fault_seeds() {
        let off = run_straggler(straggler_config(seed), None);
        let on = run_straggler(straggler_config(seed).with_coalescing(), None);
        assert!(
            on.fast_converged < off.fast_converged,
            "seed {seed}: coalescing did not help the healthy consumer \
             (on {:.6}s vs off {:.6}s)",
            on.fast_converged,
            off.fast_converged
        );
    }
}

#[test]
fn delivery_metrics_are_visible_in_the_registry() {
    let _seq = PACING.lock().unwrap_or_else(|e| e.into_inner());
    // Regression for the delivery-path metric sweep: `stale_feedback`,
    // `updates_superseded` (aggregate and per-consumer), and the
    // `queue_depth` gauge must all be registered in the shared metrics
    // registry — not just mirrored in accessor methods.
    let telemetry = Telemetry::enabled();
    let config = straggler_config(fault_seeds()[0])
        .with_coalescing()
        .with_telemetry(telemetry.clone());
    let stats = run_straggler(config, None);

    let registry = telemetry.metrics().snapshot();
    assert_eq!(
        registry.counter("producer.p.stale_feedback"),
        Some(stats.stale_feedback),
        "stale_feedback must be a registered counter"
    );
    assert_eq!(
        registry.counter("producer.p.updates_superseded"),
        Some(stats.superseded),
        "updates_superseded must be a registered counter"
    );
    assert_eq!(registry.gauge("producer.p.queue_depth"), Some(0));
    // The aggregate splits exactly across the per-consumer counters.
    let per_consumer = ["fast", "slow"]
        .iter()
        .map(|c| {
            registry
                .counter(&format!("producer.p.updates_superseded.{c}"))
                .unwrap_or(0)
        })
        .sum::<u64>();
    assert_eq!(
        per_consumer, stats.superseded,
        "per-consumer superseded counters must sum to the aggregate"
    );
}
