//! Concurrency stress for the delivery reactor: hundreds of concurrent
//! reliable flows over a faulty fabric must all complete exactly-once
//! through a constant-size thread pool, and an idle consumer must cost
//! nothing (no polling, no reap scans) between deliveries.

use std::sync::Mutex;
use std::time::Duration;
use viper::{Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};
use viper_net::{FaultPlan, RetryPolicy};
use viper_tensor::Tensor;

/// Serializes the tests in this binary. The stress test measures the
/// process-wide live-thread count; a deployment constructed concurrently
/// by another test would pollute the measurement. (The suite must pass
/// both under `RUST_TEST_THREADS=1` and the default parallel runner.)
static SEQ: Mutex<()> = Mutex::new(());

/// Live OS threads in this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(not(target_os = "linux"))]
fn live_threads() -> Option<usize> {
    None
}

/// Multi-chunk checkpoint (~6 KiB at the 1 KiB test chunk size, so every
/// flow spans several chunks and the drop/reorder faults bite mid-flow).
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

const CONSUMERS: usize = 256;
const ITERS: u64 = 3;

#[test]
fn stress_256_reliable_faulted_flows_with_constant_threads() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = live_threads();

    // 15% drop + 15% reorder on every one of the 256 fan-out flows, all
    // driven by the reactor's one scheduler thread.
    let plan = FaultPlan::seeded(90210).with_drop(0.15).with_reorder(0.15);
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(1024)
        .with_faults(plan)
        .with_retry(fast_retry());
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|i| viper.consumer(&format!("c{i:03}"), "m"))
        .collect();

    let mut peak = live_threads();
    for iter in 1..=ITERS {
        let sent = ckpt(iter);
        producer.save_weights(&sent).unwrap();
        if let (Some(p), Some(now)) = (peak.as_mut(), live_threads()) {
            *p = (*p).max(now);
        }
        // Sync capture + reliable delivery: save_weights returns only once
        // every flow reached a terminal state, and each apply precedes its
        // ACK — so every consumer has already installed this iteration.
        // No starvation allowed: all 256 must have converged.
        for (i, c) in consumers.iter().enumerate() {
            assert_eq!(
                c.current_iteration(),
                Some(iter),
                "consumer {i} starved at iteration {iter}"
            );
            assert_eq!(
                *c.current().unwrap(),
                sent,
                "consumer {i} installed different bytes at iteration {iter}"
            );
        }
    }

    // Exactly-once at every slot: each update applied precisely once per
    // consumer, nothing abandoned, no errors surfaced.
    for (i, c) in consumers.iter().enumerate() {
        assert_eq!(c.updates_applied(), ITERS, "consumer {i}: not exactly-once");
        assert_eq!(c.flows_abandoned(), 0, "consumer {i}: abandoned a flow");
        let errors = c.delivery_errors();
        assert!(errors.is_empty(), "consumer {i}: {errors:?}");
    }
    // The retry budget must suffice — no flow fell back to the PFS.
    assert_eq!(producer.deliveries_exhausted(), 0);
    assert_eq!(producer.pfs_fallbacks(), 0);
    // 15% drop over ~5300 chunks: the repair path engaged, heavily.
    assert!(producer.retransmits() > 0, "faults never exercised repair");

    // The whole 256-consumer run fits in a constant-size thread budget:
    // one reactor scheduler + one producer worker. The bound is 4 to
    // leave two threads of slack (the other test's runner thread may start
    // mid-run), but the point is O(1): it does not scale with the number
    // of consumers.
    if let (Some(base), Some(peak)) = (baseline, peak) {
        let delta = peak.saturating_sub(base);
        assert!(
            delta <= 4,
            "delivery spawned {delta} threads for {CONSUMERS} consumers (want O(1) <= 4)"
        );
    }
}

#[test]
fn idle_consumer_performs_zero_reap_scans_between_deliveries() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());

    // Event-driven consumer: the reap timer is armed only while a partial
    // flow exists, so a consumer with nothing in flight must do no reap
    // work at all — there is no 2 ms poll anymore.
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(1024)
        .with_reliable()
        .with_retry(fast_retry());
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = viper.producer("p");
    let consumer = viper.consumer("c", "m");

    // Idle before any delivery: zero scans.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(consumer.reap_scans(), 0, "idle consumer scanned before use");

    // A clean delivery completes every flow inside one drain — the reap
    // timer is disarmed again before it can ever fire.
    producer.save_weights(&ckpt(1)).unwrap();
    assert_eq!(consumer.current_iteration(), Some(1));
    let after_delivery = consumer.reap_scans();

    // Idle between deliveries: the scan count must not move. Under the
    // old polling listener this window alone was ~50 reap passes.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        consumer.reap_scans(),
        after_delivery,
        "idle consumer kept scanning between deliveries"
    );

    producer.save_weights(&ckpt(2)).unwrap();
    assert_eq!(consumer.current_iteration(), Some(2));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(consumer.updates_applied(), 2);
}
