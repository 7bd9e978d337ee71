//! Relay-tree fan-out: cache-assisted multicast distribution.
//!
//! The producer sends each reliable flow once per subtree root; relay
//! consumers install it and re-serve the exact wire bytes to their
//! children, ACKing upstream only when the whole subtree resolved (the
//! group ACK watermark). These tests drive the full stack — topology
//! grouping, re-serving, coalescing lanes, `Miss` escalation, dead-root
//! re-parenting — and hold the project's standing invariants: exactly-once
//! installs at every leaf, byte-identical payloads under seeded faults,
//! and a virtual timeline that telemetry cannot perturb.

use std::time::Duration;
use viper::{telemetry::Telemetry, Consumer, Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};
use viper_net::{FaultPlan, LinkFaults, RetryPolicy};
use viper_tensor::Tensor;

const CHUNK_SMALL: u64 = 1024;

/// Seeds for the fault sweep (`VIPER_FAULT_SEEDS` in CI's fault matrix).
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

/// Wall-clock-fast retries for the fault sweeps.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 16,
        ack_timeout: Duration::from_millis(100),
        nack_after: Duration::from_millis(2),
        max_nacks: 24,
    }
}

/// A generous ack timeout for fault-free runs: unoptimized test builds
/// can blow a tight wall-tuned deadline spuriously, and every blind
/// resend it triggers is deterministic noise the assertions don't want.
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        ack_timeout: Duration::from_secs(5),
        ..RetryPolicy::default()
    }
}

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

fn relay_config(fanout: usize, retry: RetryPolicy) -> ViperConfig {
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(CHUNK_SMALL)
        .with_relay_tree(fanout)
        .with_retry(retry);
    config.flush_to_pfs = false;
    config
}

/// Attach `n` consumers named `c0..cn`, all serving model `m`.
fn attach_fleet(viper: &Viper, n: usize) -> Vec<Consumer> {
    (0..n)
        .map(|i| viper.consumer(&format!("c{i}"), "m"))
        .collect()
}

/// Wait until every consumer serves `iter`, panicking on timeout.
fn converge(fleet: &[Consumer], iter: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for c in fleet {
        loop {
            if c.current_iteration() == Some(iter) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{} never reached iteration {iter} (at {:?})",
                c.node(),
                c.current_iteration()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[test]
fn fleet_converges_exactly_once_through_the_tree() {
    // 7 consumers, fan-out 2: c0 is the root relay, c1/c2 are interior
    // relays, c3..c6 are leaves. The producer should pay one flow per
    // update; every other delivery is a relay re-serve, and the group
    // ACK resolves the whole fleet in one round-trip.
    let viper = Viper::new(relay_config(2, patient_retry()));
    let producer = viper.producer("p");
    let fleet = attach_fleet(&viper, 7);

    let updates = 3u64;
    for iter in 1..=updates {
        let sent = big_ckpt(iter, 1_500);
        producer.save_weights(&sent).unwrap();
        converge(&fleet, iter);
        for c in &fleet {
            assert_eq!(
                *c.current().unwrap(),
                sent,
                "{} iter {iter}: not byte-identical",
                c.node()
            );
        }
    }
    for c in &fleet {
        assert_eq!(
            c.updates_applied(),
            updates,
            "{}: exactly-once install violated",
            c.node()
        );
    }
    // One producer flow and one group ACK per update; the other six
    // members each ride a relay re-serve.
    assert_eq!(producer.group_acks(), updates);
    assert_eq!(producer.reparent_events(), 0);
    let reserves: u64 = fleet.iter().map(|c| c.relay_reserves()).sum();
    assert_eq!(reserves, updates * 6, "each non-root member re-served once");
    // The root fans to two children; interior relays to two leaves each.
    assert_eq!(fleet[0].relay_reserves(), updates * 2);
    assert_eq!(fleet[3].relay_reserves(), 0, "leaves never re-serve");
    // Lanes drained: no serve left queued anywhere at quiescence.
    for c in &fleet {
        assert_eq!(c.relay_queue_depth(), 0, "{}: backlog at rest", c.node());
    }
    // Every hop reassembled by re-joining the chunk views it received —
    // relays forward the producer's buffer with the CRCs their own chunks
    // were verified against — so no member copied a payload byte.
    for c in &fleet {
        assert_eq!(c.bytes_copied(), 0, "{}: gathered a flow", c.node());
    }
}

/// What a relay does with a completed flow, at the fabric level: re-serve
/// the reassembled payload framed with `AssembledFlow::crcs_for`. (Members
/// of one deployment share one `chunk_bytes`, so a relay that re-chunks
/// differently can only be staged on raw endpoints.)
#[test]
fn relay_reserve_carries_crcs_or_recomputes_them_for_another_chunk_size() {
    use std::sync::Arc;
    use viper_net::{ChunkedSend, Endpoint, Fabric, FlowAssembler, FlowStatus, LinkKind, Payload};

    /// Reassemble the one flow queued at `endpoint`: the flow, and how
    /// many payload bytes reassembling it copied.
    fn assemble(endpoint: &Endpoint) -> (Box<viper_net::AssembledFlow>, u64) {
        let mut asm = FlowAssembler::new();
        while let Some(msg) = endpoint.try_recv() {
            if let FlowStatus::Complete(flow) = asm.accept(msg) {
                return (flow, asm.bytes_copied());
            }
        }
        panic!("{}: flow never completed", endpoint.node());
    }

    let fabric = Fabric::new(
        viper_hw::MachineProfile::polaris(),
        viper_hw::SimClock::new(),
    );
    let producer = fabric.register("p");
    let relay = fabric.register("relay");
    let children = [
        (fabric.register("same"), CHUNK_SMALL),
        (fabric.register("other"), 700u64),
    ];

    let sent = Payload::from((0..10_000u32).map(|i| (i * 7) as u8).collect::<Vec<_>>());
    let opts = ChunkedSend::new(CHUNK_SMALL);
    producer
        .send_chunked("relay", "m:1", sent.clone(), LinkKind::GpuDirect, &opts)
        .unwrap();
    let (flow, copied) = assemble(&relay);
    assert_eq!(copied, 0);

    for (child, chunk_bytes) in &children {
        let crcs = flow.crcs_for(*chunk_bytes);
        assert_eq!(
            Arc::ptr_eq(&crcs, &flow.chunk_crcs),
            *chunk_bytes == CHUNK_SMALL,
            "carried iff the relay re-chunks the way the flow arrived"
        );
        let opts = ChunkedSend::new(*chunk_bytes).with_crcs(crcs);
        relay
            .send_chunked(child.node(), "m:1", flow.payload.clone(), flow.link, &opts)
            .unwrap();
        // The child verifies every body against the CRCs the relay framed
        // with: a wrong one would surface as Corrupt, never Complete.
        let (got, copied) = assemble(child);
        assert_eq!(got.payload, sent, "{}: bytes differ", child.node());
        assert_eq!(copied, 0);
        assert_eq!(
            got.payload.as_slice().as_ptr(),
            sent.as_slice().as_ptr(),
            "{}: two hops on, still the producer's one allocation",
            child.node()
        );
    }
}

#[test]
fn seeded_fault_sweep_keeps_every_leaf_exactly_once() {
    // The acceptance sweep: lossy, reordering, duplicating links under
    // the relay tree. Every member must converge byte-identical with
    // exactly one install per update, for every seed in the matrix.
    for seed in fault_seeds() {
        let plan = FaultPlan::seeded(seed)
            .with_drop(0.10)
            .with_reorder(0.10)
            .with_duplicate(0.10);
        let viper = Viper::new(relay_config(2, fast_retry()).with_faults(plan));
        let producer = viper.producer("p");
        let fleet = attach_fleet(&viper, 7);

        let updates = 5u64;
        for iter in 1..=updates {
            let sent = big_ckpt(iter, 1_500);
            producer.save_weights(&sent).unwrap();
            converge(&fleet, iter);
            for c in &fleet {
                assert_eq!(
                    *c.current().unwrap(),
                    sent,
                    "seed {seed} {} iter {iter}: bytes differ",
                    c.node()
                );
            }
        }
        for c in &fleet {
            assert_eq!(
                c.updates_applied(),
                updates,
                "seed {seed} {}: exactly-once install violated",
                c.node()
            );
            // Retransmits and duplicates are views of the same buffers as
            // the first sends, so repaired flows re-join copy-free too.
            assert_eq!(c.bytes_copied(), 0, "seed {seed} {}", c.node());
        }
        assert!(
            producer.group_acks() >= 1,
            "seed {seed}: the tree never group-acked"
        );
        assert_eq!(producer.deliveries_exhausted(), 0, "seed {seed}");
    }
}

#[test]
fn loss_on_a_relay_to_leaf_edge_is_visible_on_the_relay() {
    // Only the c1 -> c3 edge is lossy (c3 is a leaf under the interior
    // relay c1 in the fan-out-2 heap over c0..c6). The repair is c1's job
    // — the producer never hears of it — so it must be c1's metrics and
    // c1's trace track that show it.
    for seed in fault_seeds() {
        let plan = FaultPlan::seeded(seed).for_node(
            "c3",
            LinkFaults {
                drop: 0.5,
                ..LinkFaults::NONE
            },
        );
        let telemetry = Telemetry::enabled();
        let config = relay_config(2, fast_retry())
            .with_faults(plan)
            .with_telemetry(telemetry.clone());
        let viper = Viper::new(config);
        let producer = viper.producer("p");
        let fleet = attach_fleet(&viper, 7);

        let updates = 5u64;
        for iter in 1..=updates {
            let sent = big_ckpt(iter, 1_500);
            producer.save_weights(&sent).unwrap();
            converge(&fleet, iter);
            assert_eq!(
                *fleet[3].current().unwrap(),
                sent,
                "seed {seed} iter {iter}"
            );
        }
        for c in &fleet {
            assert_eq!(
                c.updates_applied(),
                updates,
                "seed {seed} {}: exactly-once install violated",
                c.node()
            );
        }

        let registry = telemetry.metrics().snapshot();
        let rounds = registry.counter("relay.c1.retransmits");
        assert!(
            rounds.is_some_and(|n| n > 0),
            "seed {seed}: the lossy edge's repair rounds are not counted on its relay ({rounds:?})"
        );
        for relay in ["c0", "c2"] {
            assert_eq!(
                registry.counter(&format!("relay.{relay}.retransmits")),
                Some(0),
                "seed {seed}: {relay}'s edges are clean"
            );
        }
        assert_eq!(producer.retransmits(), 0, "seed {seed}: p -> c0 is clean");
        let events = telemetry.events();
        for span in ["backoff", "retransmit_round"] {
            let on_relay = events
                .iter()
                .filter(|e| e.cat == "relay" && e.name == span && e.track == "consumer:c1")
                .count() as u64;
            assert_eq!(
                Some(on_relay),
                rounds,
                "seed {seed}: one `{span}` span per round on the relay's track"
            );
        }
    }
}

#[test]
fn dead_relay_root_reparents_and_degrades_to_direct_delivery() {
    // The root relay's inbound data link is dead (control frames are
    // modeled out-of-band and never faulted, so only its chunks vanish).
    // The producer must exhaust its budget, re-parent the topology, count
    // the event, and deliver the stranded subtree members directly.
    let seed = fault_seeds()[0];
    let plan = FaultPlan::seeded(seed).for_node(
        "c0",
        LinkFaults {
            drop: 1.0,
            ..LinkFaults::NONE
        },
    );
    let retry = RetryPolicy {
        max_retries: 2,
        ack_timeout: Duration::from_millis(20),
        nack_after: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    let viper = Viper::new(relay_config(2, retry).with_faults(plan));
    let producer = viper.producer("p");
    let fleet = attach_fleet(&viper, 5);

    let sent = big_ckpt(1, 1_500);
    producer.save_weights(&sent).unwrap();
    // Every member except the unreachable root converges on the direct
    // fulls launched by the re-parent fallback.
    let survivors: Vec<&Consumer> = fleet.iter().filter(|c| c.node() != "c0").collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for c in &survivors {
        while c.current_iteration() != Some(1) {
            assert!(
                std::time::Instant::now() < deadline,
                "{} stranded by the dead root",
                c.node()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(*c.current().unwrap(), sent, "{}: bytes differ", c.node());
    }
    assert!(
        producer.reparent_events() >= 1,
        "root failure did not re-parent the tree"
    );
    assert!(producer.deliveries_exhausted() >= 1);
    for c in &survivors {
        assert_eq!(c.updates_applied(), 1, "{}: duplicate install", c.node());
    }

    // The next save must route around the demoted root: a new root
    // serves the fleet and the group path keeps working.
    let sent = big_ckpt(2, 1_500);
    producer.save_weights(&sent).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for c in &survivors {
        while c.current_iteration() != Some(2) {
            assert!(
                std::time::Instant::now() < deadline,
                "{} missed the post-reparent update",
                c.node()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[test]
fn relay_miss_degrades_a_stale_member_to_a_direct_full() {
    // Delta transfer over the tree: one shared delta per group. A member
    // that restarts (losing its base) answers `NeedFull` to its *relay*,
    // which cannot re-encode — the `Miss` escalates hop by hop to the
    // producer, which degrades exactly that member to a direct full.
    let viper = Viper::new(relay_config(2, patient_retry()).with_delta());
    let producer = viper.producer("p");
    let mut fleet = attach_fleet(&viper, 7);

    for iter in 1..=2u64 {
        producer.save_weights(&big_ckpt(iter, 1_500)).unwrap();
        converge(&fleet, iter);
    }
    assert!(
        producer.delta_sends() >= 1,
        "warm fleet never rode the delta path"
    );

    // c5 is a leaf (child of the interior relay c2 in the fan-out-2 heap
    // over c0..c6). Restart it: same name, empty slot, no delta base.
    fleet.remove(5);
    let reborn = viper.consumer("c5", "m");

    let sent = big_ckpt(3, 1_500);
    producer.save_weights(&sent).unwrap();
    converge(&fleet, 3);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while reborn.current_iteration() != Some(3) {
        assert!(
            std::time::Instant::now() < deadline,
            "restarted member never recovered via the Miss path"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(*reborn.current().unwrap(), sent);
    assert_eq!(reborn.updates_applied(), 1, "fresh instance, one install");
    assert!(
        reborn.fulls_requested() >= 1,
        "the stale member should have refused the group delta"
    );
    // The rest of the fleet still resolved through the group ACK.
    assert_eq!(producer.reparent_events(), 0, "a Miss is not a failure");
}

#[test]
fn relay_tree_makespan_is_bit_identical_with_telemetry_on() {
    // The standing overhead contract, now with the tree on: tracing must
    // not perturb the virtual timeline by a single nanosecond, even
    // though the relay path emits its own serve/ack/miss instants.
    let run = |telemetry: Telemetry| -> u64 {
        let viper = Viper::new(relay_config(2, patient_retry()).with_telemetry(telemetry));
        let producer = viper.producer("p");
        let fleet = attach_fleet(&viper, 7);
        let mut total = 0u64;
        for iter in 1..=3u64 {
            let receipt = producer.save_weights(&big_ckpt(iter, 1_500)).unwrap();
            converge(&fleet, iter);
            for c in &fleet {
                let info = c.last_update().unwrap();
                total =
                    total.wrapping_add(info.swapped_at.since(receipt.started_at).as_nanos() as u64);
            }
        }
        total
    };
    let disabled = run(Telemetry::disabled());
    let enabled = run(Telemetry::enabled());
    assert_eq!(
        disabled, enabled,
        "telemetry perturbed the relay tree's virtual timeline"
    );
}
