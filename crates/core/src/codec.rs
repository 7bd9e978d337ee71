//! The wire-codec layer: what bytes actually travel for one model update.
//!
//! [`PayloadCodec`] decides *per consumer, per update* whether to ship the
//! full checkpoint or an incremental [`viper_formats::delta`] against that
//! consumer's last **acknowledged** base version, and frames the chosen
//! bytes with an explicit payload-kind envelope ([`viper_formats::wire`])
//! so the receiver dispatches by header, never by sniffing body magics.
//! The delivery engine below ([`deliver`] / [`DeliveryTask`]) drives the
//! framed payload over the fabric — chunking, CRC, fault injection,
//! NACK/retransmit, and the durable PFS fallback all compose with it. The
//! reliable path is event-driven: the save thread submits one
//! [`DeliveryJob`] to the reactor (blocking on its reply only in
//! non-coalescing mode), while the reactor's scheduler drives every flow's
//! [`FlowMachine`] from feedback mail and virtual-clock ack timers.
//!
//! ## Backpressure and coalescing
//!
//! With [`ViperConfig::coalesce_updates`] the save path does not block at
//! all: admission is unconditional (launch or queue) and its outcome
//! carries nothing the submitter does not already know, so `save` returns
//! the moment the job is posted — wait-free capture-to-return. The
//! task may drive several updates concurrently. Each `(consumer, model)`
//! pair is a **lane**: while a lane has a flow in flight, newer updates
//! for it queue in a bounded [`CoalesceQueue`] that collapses to the
//! latest — superseded versions are dropped before they ever touch the
//! wire, counted per consumer (`producer.{node}.updates_superseded.*`)
//! and in aggregate, with the total backlog exported as the
//! `producer.{node}.queue_depth` gauge. A congested lane also backs its
//! retransmissions off harder: the retry pause grows with the lane's
//! backlog ([`RetryPolicy::backoff_with_pressure`]). An update that
//! exhausts its retries skips the durable PFS fallback when a newer
//! version is already queued behind the same lane — the newer version
//! supersedes it for that consumer.
//!
//! Full-checkpoint fallback rules (the codec never guesses):
//!
//! * a consumer with no acknowledged base (freshly attached, or forgotten
//!   after an exhausted delivery) gets a full;
//! * a consumer whose acknowledged base is no longer retained (pruned) or
//!   not older than the update gets a full;
//! * a consumer that replies `NeedFull` (its slot lost the base — e.g. it
//!   restarted under the same node name) gets the update re-sent as a full
//!   on a fresh flow, and its base tracking is reset;
//! * the durable paths — background PFS flush, exhaustion fallback, and
//!   everything the recovery/pull code reads — always store **raw, unframed
//!   full encodings**; the envelope exists only on the wire.
//!
//! Virtual-time accounting: encoding a delta charges one full-model read
//! pass (the diff) at the route's staging bandwidth via
//! [`viper_hw::stage_time`], from the delivery's causal frontier — and the
//! whole reliable engine charges *causally*: feedback is handled at its
//! arrival instant, timers at their deadline, never at the racy
//! `clock.now()` — so the deterministic-timeline invariant (disabled vs
//! enabled telemetry is bit-identical) holds with delta transfer on and
//! stays independent of thread scheduling even while a coalescing
//! producer saves concurrently with in-flight deliveries.

use crate::config::ViperConfig;
use crate::context::Viper;
use crate::producer::charge_at;
use crate::UPDATE_TOPIC;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use viper_formats::{delta, wire, Checkpoint, Payload, PayloadKind, StreamingEncoder};
use viper_hw::{stage_time, MachineProfile, Route, SimInstant, Tier};
use viper_metastore::ModelRecord;
use viper_net::{
    ChunkedSend, CoalesceQueue, Control, Endpoint, FeedbackKind, FlowAction, FlowEvent,
    FlowMachine, LinkKind, MessageKind, ReactorTask, TaskCtx,
};
use viper_telemetry::{Counter, Gauge, Telemetry};

/// Observability counters for the delivery path. Registered in the
/// deployment's telemetry metrics registry under per-node names
/// (`producer.{node}.retransmits`, ...) so `trace_dump`-style tooling sees
/// them; metrics stay live even when trace recording is disabled, so the
/// public accessors always report.
pub(crate) struct DeliveryCounters {
    /// Retransmission rounds performed (NACK-driven or ack-timeout blind).
    pub(crate) retransmits: Counter,
    /// Deliveries that exhausted the retry budget.
    pub(crate) exhausted: Counter,
    /// Updates degraded to the durable PFS route after exhaustion.
    pub(crate) pfs_fallbacks: Counter,
    /// Delta-encoded sends attempted (delta transfer enabled, base known).
    pub(crate) delta_sends: Counter,
    /// Full-checkpoint sends while delta transfer was enabled: fresh
    /// consumer, missing/stale/pruned base, or a `NeedFull` reply.
    pub(crate) delta_fallbacks: Counter,
    /// Wire bytes saved by delta encoding vs the full encoding.
    pub(crate) delta_bytes_saved: Counter,
    /// Payload bytes memcpy'd on the delivery path (envelope framing).
    /// Zero on the steady-state path: chunk bodies are zero-copy subslices
    /// of the serialized checkpoint, so only the (at-most-once-per-update)
    /// full-envelope framing under delta transfer copies anything.
    pub(crate) bytes_copied: Counter,
    /// Fresh payload-buffer allocations on the delivery path (framed fulls
    /// and encoded deltas; the per-save serialize allocation is counted by
    /// the producer).
    pub(crate) payload_allocs: Counter,
    /// Feedback frames dropped because they referenced an unknown flow, a
    /// finished flow, or a superseded retransmission generation. Stale
    /// feedback is expected under reordering faults; it must be counted,
    /// never acted on.
    pub(crate) stale_feedback: Counter,
    /// Updates dropped from a lane's coalescing queue because a newer
    /// version arrived while the lane was congested (aggregate across
    /// consumers; per-consumer counts live under
    /// `producer.{node}.updates_superseded.{consumer}`).
    pub(crate) updates_superseded: Counter,
    /// Current total backlog across every lane's coalescing queue.
    pub(crate) queue_depth: Gauge,
    /// Group-level ACKs received from relay-tree roots: each one resolves
    /// a whole subtree that direct delivery would have ACKed member by
    /// member.
    pub(crate) group_acks: Counter,
    /// Relay failures that re-parented a subtree (the orphaned members
    /// were delivered directly as a counted fallback).
    pub(crate) reparent_events: Counter,
}

impl DeliveryCounters {
    pub(crate) fn new(telemetry: &Telemetry, node: &str) -> Self {
        DeliveryCounters {
            retransmits: telemetry.counter(&format!("producer.{node}.retransmits")),
            exhausted: telemetry.counter(&format!("producer.{node}.deliveries_exhausted")),
            pfs_fallbacks: telemetry.counter(&format!("producer.{node}.pfs_fallbacks")),
            delta_sends: telemetry.counter(&format!("producer.{node}.delta_sends")),
            delta_fallbacks: telemetry.counter(&format!("producer.{node}.delta_fallbacks")),
            delta_bytes_saved: telemetry.counter(&format!("producer.{node}.delta_bytes_saved")),
            bytes_copied: telemetry.counter(&format!("producer.{node}.bytes_copied")),
            payload_allocs: telemetry.counter(&format!("producer.{node}.payload_allocs")),
            stale_feedback: telemetry.counter(&format!("producer.{node}.stale_feedback")),
            updates_superseded: telemetry.counter(&format!("producer.{node}.updates_superseded")),
            queue_depth: telemetry.gauge(&format!("producer.{node}.queue_depth")),
            group_acks: telemetry.counter(&format!("producer.{node}.group_acks")),
            reparent_events: telemetry.counter(&format!("producer.{node}.reparent_events")),
        }
    }
}

/// Stable trace label for a route (avoids allocating Debug strings).
pub(crate) fn route_label(route: Route) -> &'static str {
    match route {
        Route::GpuToGpu => "gpu-to-gpu",
        Route::HostToHost => "host-to-host",
        Route::PfsStaging => "pfs-staging",
    }
}

/// What travels the wire for one consumer.
pub(crate) struct WirePayload {
    /// Body layout the envelope advertises.
    pub(crate) kind: PayloadKind,
    /// The bytes handed to the fabric (framed when the codec is active,
    /// a zero-copy view of the raw full encoding otherwise).
    pub(crate) bytes: Payload,
    /// Per-chunk CRCs of `bytes` under the update's chunk geometry,
    /// computed in the same pass that serialized them. Handed to the
    /// fabric so neither the initial send nor any retransmission round
    /// re-reads the payload to checksum it.
    pub(crate) crcs: Option<Arc<Vec<u32>>>,
}

/// A framed wire encoding plus its encode-time per-chunk CRCs.
type FramedBytes = (Payload, Arc<Vec<u32>>);

/// Envelope-frame `body` through the streaming encoder: the one
/// unavoidable body copy under delta transfer doubles as the chunk CRC
/// pass, so the bytes are read exactly once.
fn frame_streaming(kind: PayloadKind, body: &[u8], chunk_bytes: u64) -> FramedBytes {
    let mut enc = StreamingEncoder::new(chunk_bytes);
    enc.put_bytes(&wire::envelope(kind));
    enc.put_bytes(body);
    let encoded = enc.finish();
    (encoded.payload, encoded.chunk_crcs)
}

/// Per-model memo of encoded wire payloads for the codec's *current*
/// update: the full framing happens at most once, and a delta against a
/// given base is diffed/encoded (and its diff pass charged) at most once
/// even when several consumers share the acknowledged base. The memo is
/// keyed to one target iteration — a newer save resets it — and delta
/// entries are evicted when retention prunes their base, so the cache
/// never accretes encodings that [`PayloadCodec::base_for`] would refuse
/// to choose again.
#[derive(Default)]
struct ModelWireCache {
    /// Iteration the cached encodings were produced for.
    target: u64,
    full: Option<FramedBytes>,
    /// base iteration → framed delta (with its chunk CRCs); `None` caches
    /// a failed diff (architecture changed), so it is not retried per
    /// consumer.
    deltas: HashMap<u64, Option<FramedBytes>>,
}

impl ModelWireCache {
    fn reset_to(&mut self, target: u64) {
        if self.target != target {
            *self = ModelWireCache {
                target,
                ..ModelWireCache::default()
            };
        }
    }
}

/// Per-producer delta state: retained diff bases and per-consumer
/// acknowledged iterations. Inactive (all methods no-ops, `encode_for`
/// passes the raw payload through) unless both `delta_transfer` and
/// `reliable_delivery` are configured — a base is only "acknowledged"
/// through the ACK channel.
pub(crate) struct PayloadCodec {
    active: bool,
    keep: usize,
    /// Recently saved checkpoints usable as diff bases: model → iteration
    /// → checkpoint, pruned alongside the metadata DB's version budget.
    retained: Mutex<HashMap<String, BTreeMap<u64, Arc<Checkpoint>>>>,
    /// Last iteration each (consumer, model) pair ACKed an install of.
    acked: Mutex<HashMap<(String, String), u64>>,
    /// Encoded-payload memo per model (see [`ModelWireCache`]).
    wire_cache: Mutex<HashMap<String, ModelWireCache>>,
}

impl PayloadCodec {
    pub(crate) fn new(config: &ViperConfig) -> Self {
        PayloadCodec {
            active: config.delta_transfer && config.reliable_delivery,
            keep: config.keep_versions.max(1),
            retained: Mutex::new(HashMap::new()),
            acked: Mutex::new(HashMap::new()),
            wire_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Whether updates are delta-encoded (and therefore envelope-framed).
    pub(crate) fn active(&self) -> bool {
        self.active
    }

    /// A private copy of `ckpt` to [`retain`](Self::retain). Retaining it
    /// will push the oldest base over the version budget, so that base is
    /// taken out here and, unless a delivery still diffs against it,
    /// overwritten in place: a steady save loop cycles `keep` snapshots
    /// through the same tensor buffers instead of allocating (and
    /// page-faulting in) a model's worth of memory per save.
    pub(crate) fn snapshot(&self, ckpt: &Checkpoint) -> Checkpoint {
        let spent = self
            .retained
            .lock()
            .get_mut(&ckpt.model_name)
            .filter(|bases| bases.len() >= self.keep)
            .and_then(|bases| {
                let oldest = *bases.keys().next()?;
                // Never the base `retain` would keep in favor of `ckpt`.
                (oldest < ckpt.iteration).then(|| bases.remove(&oldest))?
            });
        match spent.and_then(Arc::into_inner) {
            Some(mut snapshot) => {
                snapshot.clone_from(ckpt);
                snapshot
            }
            None => ckpt.clone(),
        }
    }

    /// Retain a captured checkpoint as a future diff base, pruned to the
    /// configured version budget. Pruning also evicts the wire cache's
    /// delta entries for the pruned bases: `base_for` refuses a pruned
    /// base, so a cached encoding against one can never be chosen again —
    /// keeping it would leak one framed payload per pruned version.
    pub(crate) fn retain(&self, ckpt: &Arc<Checkpoint>) {
        if !self.active {
            return;
        }
        let surviving: Vec<u64> = {
            let mut retained = self.retained.lock();
            let bases = retained.entry(ckpt.model_name.clone()).or_default();
            bases.insert(ckpt.iteration, Arc::clone(ckpt));
            while bases.len() > self.keep {
                let oldest = *bases.keys().next().expect("non-empty");
                bases.remove(&oldest);
            }
            bases.keys().copied().collect()
        };
        let mut caches = self.wire_cache.lock();
        if let Some(cache) = caches.get_mut(&ckpt.model_name) {
            cache
                .deltas
                .retain(|base, _| surviving.binary_search(base).is_ok());
            debug_assert!(
                cache
                    .deltas
                    .keys()
                    .all(|base| surviving.binary_search(base).is_ok()),
                "wire cache must never hold a delta whose base was pruned"
            );
        }
    }

    /// Newest retained iteration for `model` — the base a delta of the
    /// *next* save would diff against (recorded as the new version's
    /// `base_iteration` hint).
    pub(crate) fn newest_retained(&self, model: &str) -> Option<u64> {
        self.retained
            .lock()
            .get(model)
            .and_then(|bases| bases.keys().next_back().copied())
    }

    /// The base checkpoint a delta for `consumer` must diff against: its
    /// last acknowledged iteration, if that checkpoint is still retained.
    fn base_for(&self, consumer: &str, model: &str) -> Option<Arc<Checkpoint>> {
        let acked = *self
            .acked
            .lock()
            .get(&(consumer.to_string(), model.to_string()))?;
        self.retained.lock().get(model)?.get(&acked).cloned()
    }

    /// The common delta base for a whole relay group: the base checkpoint
    /// every member has acknowledged, if they all acknowledged the *same*
    /// iteration and it is still retained. A relay re-serves one wire
    /// image to its whole subtree, so a group delta is only safe when it
    /// applies at every member; any divergence falls back to a full.
    fn group_base(&self, members: &[String], model: &str) -> Option<Arc<Checkpoint>> {
        if !self.active {
            return None;
        }
        let acked = self.acked.lock();
        let mut common: Option<u64> = None;
        for member in members {
            let it = *acked.get(&(member.clone(), model.to_string()))?;
            match common {
                None => common = Some(it),
                Some(c) if c == it => {}
                Some(_) => return None,
            }
        }
        let it = common?;
        drop(acked);
        self.retained.lock().get(model)?.get(&it).cloned()
    }

    /// Record that `consumer` acknowledged installing `iteration`.
    pub(crate) fn note_acked(&self, consumer: &str, model: &str, iteration: u64) {
        if !self.active {
            return;
        }
        self.acked
            .lock()
            .insert((consumer.to_string(), model.to_string()), iteration);
    }

    /// Drop `consumer`'s base tracking (exhausted delivery or `NeedFull`):
    /// the next update falls back to a full checkpoint.
    pub(crate) fn forget(&self, consumer: &str, model: &str) {
        if !self.active {
            return;
        }
        self.acked
            .lock()
            .remove(&(consumer.to_string(), model.to_string()));
    }

    /// Memoized framed-full encoding of `model`'s update `target`,
    /// producing (and counting) it on first use.
    fn full_framed_cached(
        &self,
        model: &str,
        target: u64,
        payload: &Payload,
        chunk_bytes: u64,
        counters: &DeliveryCounters,
    ) -> FramedBytes {
        let mut caches = self.wire_cache.lock();
        let entry = caches.entry(model.to_string()).or_default();
        entry.reset_to(target);
        entry
            .full
            .get_or_insert_with(|| {
                // The one remaining full-payload copy under delta transfer:
                // prefixing the envelope header rewrites the body. Done at
                // most once per update, surfaced in the counters, and fused
                // with the chunk CRC pass.
                counters.bytes_copied.add(payload.len() as u64);
                counters.payload_allocs.inc();
                frame_streaming(PayloadKind::Full, payload.as_slice(), chunk_bytes)
            })
            .clone()
    }

    /// Memoized delta of `model`'s update `target` against `base`,
    /// invoking `make` (which encodes and charges the diff pass) on first
    /// use. A memoized `None` records a failed diff so it is not retried
    /// per consumer.
    fn delta_cached(
        &self,
        model: &str,
        target: u64,
        base: u64,
        make: impl FnOnce() -> Option<FramedBytes>,
    ) -> Option<FramedBytes> {
        let mut caches = self.wire_cache.lock();
        let entry = caches.entry(model.to_string()).or_default();
        entry.reset_to(target);
        entry.deltas.entry(base).or_insert_with(make).clone()
    }

    /// The already-framed full for `model`'s update `target`, if one was
    /// memoized while encoding the fan-out.
    pub(crate) fn cached_full(&self, model: &str, target: u64) -> Option<FramedBytes> {
        self.wire_cache
            .lock()
            .get(model)
            .filter(|entry| entry.target == target)
            .and_then(|entry| entry.full.clone())
    }

    #[cfg(test)]
    fn cached_delta_bases(&self, model: &str) -> Vec<u64> {
        let mut bases: Vec<u64> = self
            .wire_cache
            .lock()
            .get(model)
            .map(|entry| entry.deltas.keys().copied().collect())
            .unwrap_or_default();
        bases.sort_unstable();
        bases
    }
}

/// Choose and encode the wire payload for one consumer. With the codec
/// inactive this is the identity: the raw full encoding travels unframed,
/// byte-identical to a build without the codec layer.
#[allow(clippy::too_many_arguments)]
fn encode_for(
    viper: &Viper,
    codec: &PayloadCodec,
    consumer: &str,
    record: &ModelRecord,
    ckpt: Option<&Arc<Checkpoint>>,
    payload: &Payload,
    payload_crcs: &Arc<Vec<u32>>,
    chunk_bytes: u64,
    route: Route,
    counters: &DeliveryCounters,
    frontier: &mut SimInstant,
    track: &str,
) -> WirePayload {
    if !codec.active() {
        return WirePayload {
            kind: PayloadKind::Full,
            bytes: payload.clone(),
            crcs: Some(Arc::clone(payload_crcs)),
        };
    }
    let shared = &viper.shared;
    let telemetry = &shared.config.telemetry;
    if let Some(ckpt) = ckpt {
        if let Some(base) = codec
            .base_for(consumer, &record.name)
            .filter(|b| b.iteration < ckpt.iteration)
        {
            let encoded = codec.delta_cached(&record.name, ckpt.iteration, base.iteration, || {
                // The delta streams straight into its framed wire form:
                // envelope, diff payload, and chunk CRCs in one pass. The
                // diff itself is streaming too (`diff_into`): changed
                // tensors encode directly off the compare pass, so no
                // DeltaCheckpoint, tensor clone, or intermediate buffer
                // ever materializes on the send path.
                let framed = {
                    let mut enc = StreamingEncoder::new(chunk_bytes);
                    enc.put_bytes(&wire::envelope(PayloadKind::Delta));
                    match delta::diff_into(&base, ckpt, &mut enc) {
                        Ok(_) => {
                            counters.payload_allocs.inc();
                            let encoded = enc.finish();
                            Some((encoded.payload, encoded.chunk_crcs))
                        }
                        Err(_) => None,
                    }
                };
                if framed.is_some() {
                    // The diff is one read pass over the full model at the
                    // route's staging bandwidth, charged causally from the
                    // delivery frontier.
                    let t0 = *frontier;
                    *frontier = charge_at(
                        &shared.clock,
                        t0,
                        stage_time(&shared.config.profile, route, payload.len() as u64),
                    );
                    telemetry.complete(
                        "producer",
                        "encode.delta",
                        track,
                        t0.as_nanos(),
                        frontier.as_nanos(),
                        &[
                            ("base_iteration", base.iteration.into()),
                            ("iteration", ckpt.iteration.into()),
                        ],
                    );
                }
                framed
            });
            if let Some((bytes, crcs)) = encoded {
                counters.delta_sends.inc();
                let full_len = (payload.len() + wire::WIRE_HEADER_BYTES) as u64;
                counters
                    .delta_bytes_saved
                    .add(full_len.saturating_sub(bytes.len() as u64));
                return WirePayload {
                    kind: PayloadKind::Delta,
                    bytes,
                    crcs: Some(crcs),
                };
            }
        }
    }
    counters.delta_fallbacks.inc();
    let (bytes, crcs) = codec.full_framed_cached(
        &record.name,
        record.iteration,
        payload,
        chunk_bytes,
        counters,
    );
    WirePayload {
        kind: PayloadKind::Full,
        bytes,
        crcs: Some(crcs),
    }
}

/// Choose and encode the *shared* wire payload for one relay group (a
/// tree root plus its whole subtree). The same bytes are re-served down
/// every level, so a delta is chosen only when
/// [`PayloadCodec::group_base`] proves it applies at every member;
/// otherwise the group gets the memoized framed full. With the codec
/// inactive the raw full travels unframed, exactly as on the direct path.
#[allow(clippy::too_many_arguments)]
fn encode_group(
    viper: &Viper,
    codec: &PayloadCodec,
    members: &[String],
    record: &ModelRecord,
    ckpt: Option<&Arc<Checkpoint>>,
    payload: &Payload,
    payload_crcs: &Arc<Vec<u32>>,
    chunk_bytes: u64,
    route: Route,
    counters: &DeliveryCounters,
    frontier: &mut SimInstant,
    track: &str,
) -> WirePayload {
    if !codec.active() {
        return WirePayload {
            kind: PayloadKind::Full,
            bytes: payload.clone(),
            crcs: Some(Arc::clone(payload_crcs)),
        };
    }
    let shared = &viper.shared;
    let telemetry = &shared.config.telemetry;
    if let Some(ckpt) = ckpt {
        if let Some(base) = codec
            .group_base(members, &record.name)
            .filter(|b| b.iteration < ckpt.iteration)
        {
            let encoded = codec.delta_cached(&record.name, ckpt.iteration, base.iteration, || {
                // Same fused framing as the per-consumer path: the
                // streaming diff writes envelope, changed tensors, and
                // chunk CRCs in one pass with no materialized delta.
                let framed = {
                    let mut enc = StreamingEncoder::new(chunk_bytes);
                    enc.put_bytes(&wire::envelope(PayloadKind::Delta));
                    match delta::diff_into(&base, ckpt, &mut enc) {
                        Ok(_) => {
                            counters.payload_allocs.inc();
                            let encoded = enc.finish();
                            Some((encoded.payload, encoded.chunk_crcs))
                        }
                        Err(_) => None,
                    }
                };
                if framed.is_some() {
                    let t0 = *frontier;
                    *frontier = charge_at(
                        &shared.clock,
                        t0,
                        stage_time(&shared.config.profile, route, payload.len() as u64),
                    );
                    telemetry.complete(
                        "producer",
                        "encode.delta",
                        track,
                        t0.as_nanos(),
                        frontier.as_nanos(),
                        &[
                            ("base_iteration", base.iteration.into()),
                            ("iteration", ckpt.iteration.into()),
                        ],
                    );
                }
                framed
            });
            if let Some((bytes, crcs)) = encoded {
                counters.delta_sends.inc();
                let full_len = (payload.len() + wire::WIRE_HEADER_BYTES) as u64;
                counters
                    .delta_bytes_saved
                    .add(full_len.saturating_sub(bytes.len() as u64));
                return WirePayload {
                    kind: PayloadKind::Delta,
                    bytes,
                    crcs: Some(crcs),
                };
            }
        }
    }
    counters.delta_fallbacks.inc();
    let (bytes, crcs) = codec.full_framed_cached(
        &record.name,
        record.iteration,
        payload,
        chunk_bytes,
        counters,
    );
    WirePayload {
        kind: PayloadKind::Full,
        bytes,
        crcs: Some(crcs),
    }
}

/// The producer-side capture model for a memory route, as the fabric's
/// chunked send expects it: `(bandwidth, per-chunk fixed, per-flow fixed)`.
fn chunk_capture_model(
    profile: &MachineProfile,
    route: Route,
    ntensors: usize,
) -> (f64, Duration, Duration) {
    let (bw, tier) = match route {
        Route::GpuToGpu => (profile.gpu_capture_bw, Tier::GpuMem),
        _ => (profile.d2h_capture_bw, Tier::HostMem),
    };
    let spec = profile.tier(tier);
    (
        bw,
        spec.write_latency,
        spec.per_tensor_write.mul_f64(ntensors as f64),
    )
}

/// One reliable fan-out handed to the producer's [`DeliveryTask`] on the
/// reactor. The caller pre-encodes every consumer's wire payload (so delta
/// diff charges stay on the save path's causal frontier), submits the job,
/// and blocks on `reply` — delivery itself is driven entirely by reactor
/// events: completion mail and virtual-clock ack timers, never a parked
/// thread per consumer. Without coalescing the reply arrives once every
/// flow is terminal; with coalescing it arrives at admission and the task
/// drives the update to completion (or supersession) in the background.
pub(crate) struct DeliveryJob {
    /// `(consumer node, encoded payload)` in fan-out order. Under
    /// relay-tree distribution these are the tree *roots* only.
    pub(crate) consumers: Vec<(String, WirePayload)>,
    /// Relay-tree delivery groups: root → its whole subtree (root first).
    /// Empty on the direct path. A root's ACK resolves (and base-tracks)
    /// every non-escalated member of its group.
    pub(crate) groups: BTreeMap<String, Vec<String>>,
    pub(crate) tag: String,
    pub(crate) link: LinkKind,
    pub(crate) chunk_bytes: u64,
    /// Pipelined-capture model for the first successful send (the snapshot
    /// happens once; later flows re-send already captured chunks).
    pub(crate) capture: Option<(f64, Duration, Duration)>,
    /// The raw full encoding (for materializing a framed full on
    /// `NeedFull`, and for the deferred durable fallback under coalescing).
    pub(crate) payload: Payload,
    /// Already-framed full (with chunk CRCs) from the codec's encode
    /// cache, if one was made.
    pub(crate) framed_full: Option<FramedBytes>,
    /// Metadata of the version being delivered (fallback relocation and
    /// notification need the full record, not just name/iteration).
    pub(crate) record: ModelRecord,
    pub(crate) track: String,
    pub(crate) frontier: SimInstant,
    pub(crate) reply: Sender<DeliveryDone>,
}

/// A drain barrier submitted to the [`DeliveryTask`]: replied to once no
/// update is in flight (immediately if idle). The coalescing producer's
/// shutdown path uses it to let background deliveries resolve before the
/// task deregisters.
pub(crate) struct DrainBarrier {
    pub(crate) reply: Sender<()>,
}

/// The reply to a [`DeliveryJob`] once every flow reached a terminal state
/// (admission, under coalescing).
pub(crate) struct DeliveryDone {
    /// Consumers that ACKed an install (consumers admitted, under
    /// coalescing — terminal outcomes surface via counters instead).
    pub(crate) delivered: usize,
    /// At least one consumer exhausted the retry budget: degrade to PFS.
    /// Always false under coalescing — the task runs the durable fallback
    /// itself when the update finishes.
    pub(crate) fall_back: bool,
    /// Causal frontier extended by the ACK arrival instants.
    pub(crate) frontier: SimInstant,
}

/// Push the update to every attached consumer and publish the update
/// notification. For the PFS route consumers pull from the shared tier, so
/// only the notification is sent. With `ViperConfig::chunked_transfer` the
/// payload travels as a pipelined chunked flow; `pipeline_capture` lets the
/// first send model the (not yet charged) capture overlapping the wire.
///
/// `payload` is always the **raw full encoding** — it is what the staging
/// tiers, the PFS fallback, and the pull path read. What each consumer is
/// actually sent is decided per consumer by the [`PayloadCodec`] (delta vs
/// framed full vs raw passthrough).
///
/// With `ViperConfig::reliable_delivery` every memory-route send is
/// ACK-gated with NACK-driven retransmission; if a consumer exhausts the
/// retry budget the update degrades to the durable PFS route (written
/// synchronously, relocated in the metadata DB) and the published
/// notification points there, so the consumer's pull path recovers it.
///
/// `frontier_base` is the causal instant the delivery starts from; `None`
/// reads the shared clock (correct whenever the caller just charged its
/// own work there). A coalescing producer passes its private save
/// frontier instead — the shared clock races ahead with concurrently
/// applying consumers, and basing charges on it would make the timeline
/// depend on thread scheduling. Returns how many consumers were pushed a
/// payload (admitted, under coalescing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver(
    viper: &Viper,
    endpoint: &Endpoint,
    codec: &PayloadCodec,
    record: &ModelRecord,
    ckpt: Option<&Arc<Checkpoint>>,
    payload: &Payload,
    payload_crcs: &Arc<Vec<u32>>,
    route: Route,
    pipeline_capture: bool,
    counters: &DeliveryCounters,
    track: &str,
    frontier_base: Option<SimInstant>,
) -> usize {
    let shared = &viper.shared;
    let telemetry = &shared.config.telemetry;
    let mut span = telemetry.span_with(
        "producer",
        "deliver",
        track,
        &[
            ("version", record.version.into()),
            ("route", route_label(route).into()),
        ],
    );
    let link = match route {
        Route::GpuToGpu => Some(LinkKind::GpuDirect),
        Route::HostToHost => Some(LinkKind::HostRdma),
        Route::PfsStaging => None,
    };
    let mut sent = 0;
    let mut fall_back = false;
    // Causal frontier of this delivery: every successful send extends it to
    // the flow's (or its ACK's) computed completion instant, and the notify
    // latency is charged from it rather than from `clock.now()` — a
    // concurrently applying consumer advances the shared clock, and basing
    // the charge on the racy frontier would make the timeline depend on
    // thread scheduling.
    let mut frontier = frontier_base.unwrap_or_else(|| shared.clock.now());
    if let Some(link) = link {
        let tag = format!("{}:{}", record.name, record.version);
        let consumers = shared.consumers.read().clone();
        let config = &shared.config;
        if config.reliable_delivery {
            // Reliability implies the chunked machinery (a monolithic
            // payload travels as a 1-chunk flow) so every byte is CRC
            // checked and every flow ACK-gated. The flows themselves are
            // driven by this producer's reactor task; the save path blocks
            // here only for the job reply, holding zero threads per
            // consumer.
            let chunk_bytes = if config.chunked_transfer {
                config.chunk_bytes
            } else {
                0
            };
            let eligible: Vec<String> = consumers
                .into_iter()
                .filter(|c| c != endpoint.node())
                .collect();
            let mut job_consumers = Vec::new();
            // Relay-tree mode: organize the fleet into the deployment's
            // topology and target only the tree roots — each root's group
            // shares one wire image, re-served down the tree by the
            // relays themselves.
            let groups = shared.distribution.refresh(&eligible).unwrap_or_default();
            if groups.is_empty() {
                for consumer in eligible {
                    let wire_payload = encode_for(
                        viper,
                        codec,
                        &consumer,
                        record,
                        ckpt,
                        payload,
                        payload_crcs,
                        chunk_bytes,
                        route,
                        counters,
                        &mut frontier,
                        track,
                    );
                    job_consumers.push((consumer, wire_payload));
                }
            } else {
                for (root, members) in &groups {
                    let wire_payload = encode_group(
                        viper,
                        codec,
                        members,
                        record,
                        ckpt,
                        payload,
                        payload_crcs,
                        chunk_bytes,
                        route,
                        counters,
                        &mut frontier,
                        track,
                    );
                    job_consumers.push((root.clone(), wire_payload));
                }
            }
            if !job_consumers.is_empty() {
                let admitted = job_consumers.len();
                let coalesce = config.coalesce_updates;
                let (reply_tx, reply_rx) = unbounded();
                let capture = pipeline_capture
                    .then(|| chunk_capture_model(&config.profile, route, record.ntensors));
                shared.reactor.submit(
                    endpoint.node(),
                    Box::new(DeliveryJob {
                        consumers: job_consumers,
                        groups,
                        tag,
                        link,
                        chunk_bytes,
                        capture,
                        payload: payload.clone(),
                        framed_full: codec.cached_full(&record.name, record.iteration),
                        record: record.clone(),
                        track: track.to_string(),
                        frontier,
                        reply: reply_tx,
                    }),
                );
                if coalesce {
                    // Wait-free save path: under coalescing every consumer
                    // is admitted unconditionally (launched or queued) and
                    // the admission reply carries nothing the submitter
                    // does not already know, so blocking on it would only
                    // add a reactor round-trip to capture-to-return
                    // latency. Terminal outcomes surface through counters
                    // and `flush_deliveries`, exactly as before.
                    sent = admitted;
                } else {
                    // Blocking mode: the reply arrives once every flow is
                    // terminal, preserving one fan-out at a time.
                    let done = reply_rx.recv().expect("delivery reactor replies");
                    sent = done.delivered;
                    fall_back = done.fall_back;
                    frontier = frontier.max(done.frontier);
                }
            }
        } else {
            let mut inline_capture = pipeline_capture;
            for consumer in consumers {
                if consumer == endpoint.node() {
                    continue;
                }
                // A deregistered consumer is not an error: it raced shutdown.
                let delivered = if config.chunked_transfer {
                    // The raw payload travels as-is, so its encode-time
                    // chunk CRCs apply directly.
                    let mut opts =
                        ChunkedSend::new(config.chunk_bytes).with_crcs(Arc::clone(payload_crcs));
                    if inline_capture {
                        let (bw, fixed, once) =
                            chunk_capture_model(&config.profile, route, record.ntensors);
                        opts = opts.with_capture(bw, fixed, once);
                    }
                    match endpoint.send_chunked(&consumer, &tag, payload.clone(), link, &opts) {
                        Ok(report) => {
                            frontier = frontier.max(report.completed_at);
                            true
                        }
                        Err(_) => false,
                    }
                } else {
                    match endpoint.send(&consumer, &tag, payload.clone(), link) {
                        Ok(wire) => {
                            frontier = frontier.add(wire);
                            true
                        }
                        Err(_) => false,
                    }
                };
                if delivered {
                    sent += 1;
                    // The snapshot happens once; fan-out to further consumers
                    // re-sends the already captured chunks.
                    inline_capture = false;
                }
            }
        }
    }
    // Graceful degradation: the wire gave up on at least one consumer, so
    // make this version durable NOW (not just in the background flush) and
    // point the notification at the PFS copy — consumers recover via the
    // repository pull path. The durable copy is always the raw full
    // encoding, never a framed or delta payload.
    let mut notify = record.clone();
    if fall_back {
        let t0 = telemetry.now_ns();
        let pfs_path = format!("pfs/{}/v{}", record.name, record.version);
        if shared
            .pfs
            .write(&pfs_path, payload.clone(), record.ntensors)
            .is_ok()
        {
            shared
                .db
                .relocate(&record.name, record.version, Tier::Pfs.name(), &pfs_path);
            notify.location = Tier::Pfs.name().to_string();
            notify.path = pfs_path;
            counters.pfs_fallbacks.inc();
        }
        telemetry.complete(
            "producer",
            "pfs_fallback",
            track,
            t0,
            telemetry.now_ns(),
            &[("version", record.version.into())],
        );
    }
    charge_at(
        &shared.clock,
        frontier,
        shared.config.profile.notify_latency,
    );
    let notified = shared.bus.publish(UPDATE_TOPIC, notify);
    // Consumer discovery runs on the reactor: nudge every task to drain its
    // subscription (push mode) or check the metadata DB (poll mode).
    shared.reactor.wake_all();
    span.arg("pushed", sent.into());
    span.arg("notified", notified.into());
    drop(span);
    sent
}

/// One in-flight reliable flow owned by the [`DeliveryTask`].
struct FlowSend {
    /// The update (task-local sequence number) this flow carries.
    seq: u64,
    consumer: String,
    machine: FlowMachine,
    /// The wire bytes this flow carries (retransmission source).
    bytes: Payload,
    /// Encode-time per-chunk CRCs of `bytes`: retransmission rounds reuse
    /// them instead of re-checksumming retained chunks.
    crcs: Option<Arc<Vec<u32>>>,
    num_chunks: u32,
    /// This flow is the full-checkpoint retry after a `NeedFull` reply — a
    /// full can't be rejected for a missing base, so a repeat `NeedFull`
    /// fails the delivery instead of re-sending.
    full_retry: bool,
    /// Envelope kind of `bytes` (trace label on `delta_rejected`).
    kind: PayloadKind,
}

/// One update the [`DeliveryTask`] is driving. Without coalescing at most
/// one exists at a time (the save path blocks on the reply before
/// submitting another); with coalescing several proceed concurrently,
/// serialized per lane.
struct UpdateState {
    tag: String,
    link: LinkKind,
    chunk_bytes: u64,
    payload: Payload,
    framed_full: Option<FramedBytes>,
    record: ModelRecord,
    track: String,
    /// Consumer slots not yet resolved (terminal flow or superseded in
    /// queue). Under relay-tree distribution this counts *flows* the
    /// producer itself drives — one per tree root, plus one per member
    /// escalated to a direct send — not subtree members.
    remaining: usize,
    delivered: usize,
    fall_back: bool,
    frontier: SimInstant,
    /// Relay-tree delivery groups (root → subtree); empty on the direct
    /// path.
    groups: BTreeMap<String, Vec<String>>,
    /// Subtree members escalated to a direct producer send (relay `Miss`
    /// or a re-parented subtree): excluded from the group resolution when
    /// their root's group ACK lands.
    escalated: HashSet<String>,
    /// `None` under coalescing: the job was already replied to at
    /// admission, and a terminal fallback runs on the task instead.
    reply: Option<Sender<DeliveryDone>>,
}

impl UpdateState {
    /// Materialize the framed full encoding, at most once per update
    /// (mirrors [`PayloadCodec::full_framed_cached`], including counters).
    fn full_framed(&mut self, counters: &DeliveryCounters) -> FramedBytes {
        let payload = &self.payload;
        let chunk_bytes = self.chunk_bytes;
        self.framed_full
            .get_or_insert_with(|| {
                counters.bytes_copied.add(payload.len() as u64);
                counters.payload_allocs.inc();
                frame_streaming(PayloadKind::Full, payload.as_slice(), chunk_bytes)
            })
            .clone()
    }
}

/// A queued outbound send waiting for its lane to free up.
struct QueuedSend {
    seq: u64,
    bytes: Payload,
    crcs: Option<Arc<Vec<u32>>>,
    kind: PayloadKind,
    /// The causal instant the payload became ready (the save frontier at
    /// admission): the launch starts no earlier, even if the lane frees
    /// first.
    ready_at: SimInstant,
}

/// Per-`(consumer, model)` outbound serialization: one flow in flight,
/// newer updates queue (collapsing to the latest) behind it.
struct Lane {
    /// Sequence number of the update currently on the wire, if any.
    in_flight: Option<u64>,
    queue: CoalesceQueue<QueuedSend>,
    /// Per-consumer superseded counter
    /// (`producer.{node}.updates_superseded.{consumer}`).
    superseded: Counter,
}

/// The producer's reactor task: owns every reliable flow this producer has
/// in flight as an explicit [`FlowMachine`], driven by feedback mail and
/// virtual-clock ack timers (timer token = flow id). Replaces the old
/// blocking loop that parked the save thread on a wall-clock
/// `recv_timeout(ack_timeout)` per consumer: an `ack_timeout` with no
/// feedback at all now surfaces as a quiescence-fired timer and
/// blind-resends the whole flow — charging the identical backoff to the
/// virtual clock, but holding no thread while "waiting". NACKs retransmit
/// exactly the missing chunks. Every retransmission round is preceded by a
/// [`Control::Round`] frame announcing the new generation, so the consumer
/// echoes it back and feedback from superseded rounds is dropped (and
/// counted) instead of acted on.
///
/// All timing is causal: feedback is processed at its arrival instant and
/// timers at their deadline, so the schedule a run produces is a pure
/// function of the configuration and fault seed — never of how the OS
/// interleaved the reactor with the save thread.
pub(crate) struct DeliveryTask {
    viper: Viper,
    endpoint: Arc<Endpoint>,
    codec: Arc<PayloadCodec>,
    counters: Arc<DeliveryCounters>,
    /// Collapse-to-latest coalescing on: admit updates without blocking
    /// the save path, serializing per lane.
    coalesce: bool,
    /// Bound of each lane's coalescing queue.
    queue_bound: usize,
    /// Next update sequence number (admission order, strictly increasing —
    /// doubles as the coalescing queue's version key).
    next_seq: u64,
    updates: HashMap<u64, UpdateState>,
    /// Flows not yet terminal, plus terminal flows of unfinished updates —
    /// kept so late feedback is recognized (and counted stale) instead of
    /// mistaken for an unknown sender.
    flows: HashMap<u64, FlowSend>,
    lanes: HashMap<(String, String), Lane>,
    /// Drain barriers waiting for `updates` to empty.
    waiters: Vec<Sender<()>>,
}

impl DeliveryTask {
    pub(crate) fn new(
        viper: Viper,
        endpoint: Arc<Endpoint>,
        codec: Arc<PayloadCodec>,
        counters: Arc<DeliveryCounters>,
    ) -> Self {
        let config = &viper.shared.config;
        let coalesce = config.coalesce_updates && config.reliable_delivery;
        let queue_bound = config.coalesce_queue_depth;
        DeliveryTask {
            viper,
            endpoint,
            codec,
            counters,
            coalesce,
            queue_bound,
            next_seq: 0,
            updates: HashMap::new(),
            flows: HashMap::new(),
            lanes: HashMap::new(),
            waiters: Vec::new(),
        }
    }

    fn lane_mut(&mut self, consumer: &str, model: &str) -> &mut Lane {
        let key = (consumer.to_string(), model.to_string());
        if !self.lanes.contains_key(&key) {
            let counter = self.viper.shared.config.telemetry.counter(&format!(
                "producer.{}.updates_superseded.{}",
                self.endpoint.node(),
                consumer
            ));
            self.lanes.insert(
                key.clone(),
                Lane {
                    in_flight: None,
                    queue: CoalesceQueue::new(self.queue_bound),
                    superseded: counter,
                },
            );
        }
        self.lanes.get_mut(&key).expect("just inserted")
    }

    fn refresh_queue_gauge(&self) {
        let depth: usize = self.lanes.values().map(|lane| lane.queue.len()).sum();
        self.counters.queue_depth.set(depth as i64);
    }

    /// Arm (or re-arm) a flow's ack timer, `ack_timeout` after the causal
    /// instant the (re)send completed. Per flow the deadline only ever
    /// moves forward: a retransmission round completes after the send it
    /// repairs.
    fn arm_ack_timer(&self, ctx: &mut TaskCtx<'_>, flow_id: u64, from: SimInstant) {
        let deadline = from.add(self.viper.shared.config.retry.ack_timeout);
        ctx.arm_timer_at(flow_id, deadline);
    }

    /// Launch one flow for update `seq` (initial fan-out, a queued send
    /// whose lane freed up, or the full retry after `NeedFull`) and
    /// register its state machine. Returns false if the consumer is gone
    /// (deregistered mid-shutdown) — a race, not a delivery failure.
    #[allow(clippy::too_many_arguments)]
    fn launch_flow(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        seq: u64,
        consumer: String,
        bytes: Payload,
        crcs: Option<Arc<Vec<u32>>>,
        kind: PayloadKind,
        opts: &ChunkedSend,
        full_retry: bool,
    ) -> bool {
        let max_retries = self.viper.shared.config.retry.max_retries;
        let update = self
            .updates
            .get_mut(&seq)
            .expect("launch requires its update");
        // Hand the encode-time chunk CRCs to the fabric so the send does
        // not re-read the payload to checksum it.
        let opts = match &crcs {
            Some(c) => opts.clone().with_crcs(Arc::clone(c)),
            None => opts.clone(),
        };
        match self
            .endpoint
            .send_chunked(&consumer, &update.tag, bytes.clone(), update.link, &opts)
        {
            Ok(report) => {
                let mut machine = FlowMachine::new(max_retries);
                machine.on_event(FlowEvent::Sent);
                self.flows.insert(
                    report.flow_id,
                    FlowSend {
                        seq,
                        consumer,
                        machine,
                        bytes,
                        crcs,
                        num_chunks: report.num_chunks,
                        full_retry,
                        kind,
                    },
                );
                self.arm_ack_timer(ctx, report.flow_id, report.completed_at);
                true
            }
            Err(_) => false,
        }
    }

    /// Hand update `seq`'s payload to `consumer`'s lane: launch now if the
    /// lane is free, else queue it (collapsing older queued versions).
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        seq: u64,
        consumer: String,
        bytes: Payload,
        crcs: Option<Arc<Vec<u32>>>,
        kind: PayloadKind,
        capture: &mut Option<(f64, Duration, Duration)>,
        ready_at: SimInstant,
    ) {
        let update = &self.updates[&seq];
        let model = update.record.name.clone();
        let chunk_bytes = update.chunk_bytes;
        let busy = self
            .lanes
            .get(&(consumer.clone(), model.clone()))
            .and_then(|lane| lane.in_flight)
            .is_some();
        if !busy {
            let mut opts = ChunkedSend::new(chunk_bytes).at(ready_at);
            if let Some((bw, fixed, once)) = *capture {
                opts = opts.with_capture(bw, fixed, once);
            }
            if self.launch_flow(ctx, seq, consumer.clone(), bytes, crcs, kind, &opts, false) {
                // The snapshot happens once; further flows re-send the
                // already captured chunks.
                *capture = None;
                self.lane_mut(&consumer, &model).in_flight = Some(seq);
            } else if let Some(update) = self.updates.get_mut(&seq) {
                update.remaining -= 1;
            }
        } else {
            debug_assert!(self.coalesce, "a lane can only be busy when coalescing");
            let dropped = self.lane_mut(&consumer, &model).queue.push(
                seq,
                QueuedSend {
                    seq,
                    bytes,
                    crcs,
                    kind,
                    ready_at,
                },
            );
            for (_, stale) in dropped {
                self.supersede(&consumer, &model, stale.seq, ready_at);
            }
        }
    }

    /// Update `seq` will never reach `consumer`: a newer version collapsed
    /// it out of the lane's queue. Count it (aggregate, per consumer, and
    /// as a trace instant) and resolve the consumer's slot in the update.
    fn supersede(&mut self, consumer: &str, model: &str, seq: u64, at: SimInstant) {
        self.counters.updates_superseded.inc();
        if let Some(lane) = self.lanes.get(&(consumer.to_string(), model.to_string())) {
            lane.superseded.inc();
        }
        let telemetry = &self.viper.shared.config.telemetry;
        if telemetry.is_enabled() {
            if let Some(update) = self.updates.get(&seq) {
                telemetry.instant_at(
                    "producer",
                    "update_superseded",
                    &update.track,
                    at.as_nanos(),
                    &[
                        ("consumer", consumer.into()),
                        ("version", update.record.version.into()),
                    ],
                );
            }
        }
        if let Some(update) = self.updates.get_mut(&seq) {
            update.remaining -= 1;
        }
        self.finish_if_done(seq);
    }

    /// A flow reached a terminal state (or never launched): free its lane
    /// and launch the next queued send, no earlier than `at`.
    fn release_lane(&mut self, ctx: &mut TaskCtx<'_>, consumer: &str, model: &str, at: SimInstant) {
        let key = (consumer.to_string(), model.to_string());
        let Some(lane) = self.lanes.get_mut(&key) else {
            return;
        };
        lane.in_flight = None;
        while let Some((_, queued)) = self.lanes.get_mut(&key).and_then(|lane| lane.queue.pop()) {
            let Some(chunk_bytes) = self.updates.get(&queued.seq).map(|u| u.chunk_bytes) else {
                debug_assert!(false, "queued send outlived its update");
                continue;
            };
            let start = queued.ready_at.max(at);
            let opts = ChunkedSend::new(chunk_bytes).at(start);
            if self.launch_flow(
                ctx,
                queued.seq,
                consumer.to_string(),
                queued.bytes,
                queued.crcs,
                queued.kind,
                &opts,
                false,
            ) {
                self.lanes.get_mut(&key).expect("lane exists").in_flight = Some(queued.seq);
                break;
            }
            // Consumer vanished: resolve its slot and keep draining.
            if let Some(update) = self.updates.get_mut(&queued.seq) {
                update.remaining -= 1;
            }
            self.finish_if_done(queued.seq);
        }
        self.refresh_queue_gauge();
    }

    /// Abort a flow whose consumer vanished mid-delivery (send error):
    /// remove it entirely — there is no peer left to feed its machine.
    fn abort_flow(&mut self, ctx: &mut TaskCtx<'_>, flow_id: u64, at: SimInstant) {
        ctx.cancel_timer(flow_id);
        if let Some(flow) = self.flows.remove(&flow_id) {
            // A vanished relay root still leaves a live subtree behind it:
            // re-parent and deliver to the orphans directly.
            if self
                .updates
                .get(&flow.seq)
                .is_some_and(|u| u.groups.contains_key(&flow.consumer))
            {
                self.relay_fallback(ctx, flow.seq, &flow.consumer, at);
            }
            let model = self
                .updates
                .get(&flow.seq)
                .map(|u| u.record.name.clone())
                .unwrap_or_default();
            if let Some(update) = self.updates.get_mut(&flow.seq) {
                update.remaining -= 1;
            }
            self.release_lane(ctx, &flow.consumer, &model, at);
            self.finish_if_done(flow.seq);
        }
    }

    /// A relay root failed (exhausted retries or vanished) while `seq`
    /// still owed its subtree the update: record the re-parent in the
    /// topology and launch direct full flows to every stranded member.
    /// Counted — this is the degraded path, not the design point.
    fn relay_fallback(&mut self, ctx: &mut TaskCtx<'_>, seq: u64, root: &str, at: SimInstant) {
        let Some(update) = self.updates.get_mut(&seq) else {
            return;
        };
        let Some(members) = update.groups.get(root).cloned() else {
            return;
        };
        let stranded: Vec<String> = members
            .into_iter()
            .filter(|m| m != root && !update.escalated.contains(m))
            .collect();
        let chunk_bytes = update.chunk_bytes;
        let track = update.track.clone();
        let (full, full_crcs) = update.full_framed(&self.counters);
        for member in &stranded {
            update.escalated.insert(member.clone());
        }
        self.counters.reparent_events.inc();
        self.viper.shared.distribution.note_failed(root);
        let telemetry = &self.viper.shared.config.telemetry;
        if telemetry.is_enabled() {
            telemetry.instant_at(
                "producer",
                "reparent",
                &track,
                at.as_nanos(),
                &[("root", root.into()), ("stranded", stranded.len().into())],
            );
        }
        for member in stranded {
            if let Some(update) = self.updates.get_mut(&seq) {
                update.remaining += 1;
            }
            if !self.launch_flow(
                ctx,
                seq,
                member,
                full.clone(),
                Some(Arc::clone(&full_crcs)),
                PayloadKind::Full,
                &ChunkedSend::new(chunk_bytes).at(at),
                true,
            ) {
                if let Some(update) = self.updates.get_mut(&seq) {
                    update.remaining -= 1;
                }
            }
        }
    }

    /// A relay escalated a subtree member it could not serve (`Miss`):
    /// the member's delta base is unusable from the relayed bytes, or the
    /// relay exhausted its own retry budget toward it. Deliver a direct
    /// framed full from the producer and exclude the member from its
    /// root's group resolution.
    fn handle_miss(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        from: &str,
        flow_id: u64,
        member: String,
        at: SimInstant,
    ) {
        let Some(flow) = self.flows.get(&flow_id) else {
            self.counters.stale_feedback.inc();
            return;
        };
        if flow.consumer != from {
            self.counters.stale_feedback.inc();
            return;
        }
        let seq = flow.seq;
        let root = flow.consumer.clone();
        let Some(update) = self.updates.get_mut(&seq) else {
            return;
        };
        let in_group = update
            .groups
            .get(&root)
            .is_some_and(|members| members.contains(&member));
        if !in_group || !update.escalated.insert(member.clone()) {
            // Unknown member, or one already escalated: nothing to do.
            self.counters.stale_feedback.inc();
            return;
        }
        let chunk_bytes = update.chunk_bytes;
        let track = update.track.clone();
        let (full, full_crcs) = update.full_framed(&self.counters);
        let model = update.record.name.clone();
        update.remaining += 1;
        self.codec.forget(&member, &model);
        self.counters.delta_fallbacks.inc();
        let telemetry = &self.viper.shared.config.telemetry;
        if telemetry.is_enabled() {
            telemetry.instant_at(
                "producer",
                "relay_miss",
                &track,
                at.as_nanos(),
                &[("member", member.as_str().into()), ("root", from.into())],
            );
        }
        if !self.launch_flow(
            ctx,
            seq,
            member,
            full,
            Some(full_crcs),
            PayloadKind::Full,
            &ChunkedSend::new(chunk_bytes).at(at),
            true,
        ) {
            if let Some(update) = self.updates.get_mut(&seq) {
                update.remaining -= 1;
            }
            self.finish_if_done(seq);
        }
    }

    /// If every consumer slot of update `seq` is resolved, finish it: send
    /// the job reply (non-coalescing), or run the deferred durable
    /// fallback (coalescing), and drop its flow records.
    fn finish_if_done(&mut self, seq: u64) {
        if self.updates.get(&seq).is_none_or(|u| u.remaining != 0) {
            return;
        }
        let update = self.updates.remove(&seq).expect("checked above");
        self.flows.retain(|_, flow| flow.seq != seq);
        if let Some(reply) = &update.reply {
            let _ = reply.send(DeliveryDone {
                delivered: update.delivered,
                fall_back: update.fall_back,
                frontier: update.frontier,
            });
        } else if update.fall_back {
            self.durable_fallback(&update);
        }
        if self.updates.is_empty() {
            for waiter in self.waiters.drain(..) {
                let _ = waiter.send(());
            }
        }
    }

    /// The coalescing path's deferred graceful degradation: the wire gave
    /// up on at least one consumer (with nothing newer queued behind it),
    /// so make the version durable, relocate it, and re-publish the
    /// notification pointing at the PFS copy — consumers recover via the
    /// repository pull path.
    fn durable_fallback(&self, update: &UpdateState) {
        let shared = &self.viper.shared;
        let telemetry = &shared.config.telemetry;
        let record = &update.record;
        let t0 = telemetry.now_ns();
        let pfs_path = format!("pfs/{}/v{}", record.name, record.version);
        if shared
            .pfs
            .write(&pfs_path, update.payload.clone(), record.ntensors)
            .is_ok()
        {
            shared
                .db
                .relocate(&record.name, record.version, Tier::Pfs.name(), &pfs_path);
            self.counters.pfs_fallbacks.inc();
            let mut notify = record.clone();
            notify.location = Tier::Pfs.name().to_string();
            notify.path = pfs_path;
            charge_at(
                &shared.clock,
                update.frontier,
                shared.config.profile.notify_latency,
            );
            shared.bus.publish(UPDATE_TOPIC, notify);
            shared.reactor.wake_all();
        }
        telemetry.complete(
            "producer",
            "pfs_fallback",
            &update.track,
            t0,
            telemetry.now_ns(),
            &[("version", record.version.into())],
        );
    }

    /// Apply a [`FlowAction`] produced by a flow's state machine. `at` is
    /// the causal instant the triggering event happened: the feedback
    /// frame's arrival for mail, the deadline for a timer fire.
    fn handle_action(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        flow_id: u64,
        action: FlowAction,
        at: SimInstant,
    ) {
        let shared = Arc::clone(&self.viper.shared);
        let telemetry = &shared.config.telemetry;
        let retry = shared.config.retry;
        match action {
            FlowAction::None => {}
            FlowAction::DroppedStale => {
                self.counters.stale_feedback.inc();
            }
            FlowAction::Complete => {
                ctx.cancel_timer(flow_id);
                let flow = &self.flows[&flow_id];
                let seq = flow.seq;
                let consumer = flow.consumer.clone();
                let update = self
                    .updates
                    .get_mut(&seq)
                    .expect("flow belongs to an update");
                let model = update.record.name.clone();
                if let Some(members) = update.groups.get(&consumer).cloned() {
                    // A relay root's group ACK: its entire subtree has
                    // installed the update. One round-trip resolves (and
                    // base-tracks) every member the producer did not have
                    // to escalate to a direct send.
                    self.counters.group_acks.inc();
                    let mut resolved = 0;
                    for member in &members {
                        if update.escalated.contains(member) {
                            continue;
                        }
                        self.codec
                            .note_acked(member, &model, update.record.iteration);
                        resolved += 1;
                    }
                    update.delivered += resolved;
                    if telemetry.is_enabled() {
                        telemetry.instant_at(
                            "producer",
                            "group_ack",
                            &update.track,
                            at.as_nanos(),
                            &[
                                ("root", consumer.as_str().into()),
                                ("members", resolved.into()),
                            ],
                        );
                    }
                } else {
                    self.codec
                        .note_acked(&consumer, &model, update.record.iteration);
                    update.delivered += 1;
                }
                update.frontier = update.frontier.max(at);
                update.remaining -= 1;
                self.release_lane(ctx, &consumer, &model, at);
                self.finish_if_done(seq);
            }
            FlowAction::NeedFull => {
                ctx.cancel_timer(flow_id);
                let flow = &self.flows[&flow_id];
                let seq = flow.seq;
                let consumer = flow.consumer.clone();
                let was_full_retry = flow.full_retry;
                let kind = flow.kind;
                let update = self
                    .updates
                    .get_mut(&seq)
                    .expect("flow belongs to an update");
                let model = update.record.name.clone();
                update.frontier = update.frontier.max(at);
                if was_full_retry {
                    // A full can't be rejected for a missing base; treat a
                    // repeat NeedFull as a failed delivery.
                    update.remaining -= 1;
                    self.release_lane(ctx, &consumer, &model, at);
                    self.finish_if_done(seq);
                    return;
                }
                // The consumer lost the base this delta applies to
                // (restart, missed flow): reset its tracking and re-send
                // the update as a full on a fresh flow. The lane stays
                // held by this update.
                let chunk_bytes = update.chunk_bytes;
                let track = update.track.clone();
                let (full, full_crcs) = update.full_framed(&self.counters);
                self.codec.forget(&consumer, &model);
                self.counters.delta_fallbacks.inc();
                if telemetry.is_enabled() {
                    telemetry.instant_at(
                        "producer",
                        "delta_rejected",
                        &track,
                        at.as_nanos(),
                        &[
                            ("consumer", consumer.as_str().into()),
                            ("kind", kind.label().into()),
                        ],
                    );
                }
                if !self.launch_flow(
                    ctx,
                    seq,
                    consumer.clone(),
                    full,
                    Some(full_crcs),
                    PayloadKind::Full,
                    &ChunkedSend::new(chunk_bytes).at(at),
                    true,
                ) {
                    if let Some(update) = self.updates.get_mut(&seq) {
                        update.remaining -= 1;
                    }
                    self.release_lane(ctx, &consumer, &model, at);
                }
                self.finish_if_done(seq);
            }
            FlowAction::Retransmit {
                generation,
                missing,
                attempt,
            } => {
                self.counters.retransmits.inc();
                let flow = &self.flows[&flow_id];
                let seq = flow.seq;
                let consumer = flow.consumer.clone();
                let update = &self.updates[&seq];
                let model = update.record.name.clone();
                let missing: Vec<u32> = if missing.is_empty() {
                    // Blind resend: no NACK narrowed the loss down.
                    (0..flow.num_chunks).collect()
                } else {
                    missing
                };
                // Backpressure: a congested lane (updates queuing behind
                // this flow's consumer) backs off harder, ceding the wire
                // to healthier consumers.
                let backlog = self
                    .lanes
                    .get(&(consumer.clone(), model.clone()))
                    .map_or(0, |lane| lane.queue.len());
                let end = charge_at(
                    &shared.clock,
                    at,
                    retry.backoff_with_pressure(attempt, backlog),
                );
                telemetry.complete(
                    "producer",
                    "backoff",
                    &update.track,
                    at.as_nanos(),
                    end.as_nanos(),
                    &[("attempt", attempt.into()), ("backlog", backlog.into())],
                );
                // Announce the round before its chunks: the fabric preserves
                // per-sender order, so the consumer learns the generation
                // first and stamps it into all further feedback.
                let round = Control::Round {
                    flow_id,
                    generation,
                };
                if self
                    .endpoint
                    .send_control_at(&consumer, &update.tag, &round, update.link, end)
                    .is_err()
                {
                    self.abort_flow(ctx, flow_id, at);
                    return;
                }
                let flow = &self.flows[&flow_id];
                let update = &self.updates[&seq];
                match self.endpoint.retransmit_chunks_at(
                    &consumer,
                    &update.tag,
                    &flow.bytes,
                    update.link,
                    flow_id,
                    update.chunk_bytes,
                    &missing,
                    flow.crcs.as_deref().map(Vec::as_slice),
                    end,
                ) {
                    Ok(lane_free) => {
                        telemetry.complete(
                            "producer",
                            "retransmit_round",
                            &update.track,
                            end.as_nanos(),
                            lane_free.as_nanos(),
                            &[
                                ("attempt", attempt.into()),
                                ("missing", missing.len().into()),
                            ],
                        );
                        self.arm_ack_timer(ctx, flow_id, lane_free);
                    }
                    Err(_) => self.abort_flow(ctx, flow_id, at),
                }
            }
            FlowAction::Exhausted { .. } => {
                ctx.cancel_timer(flow_id);
                self.counters.exhausted.inc();
                let flow = &self.flows[&flow_id];
                let seq = flow.seq;
                let consumer = flow.consumer.clone();
                let update = &self.updates[&seq];
                let model = update.record.name.clone();
                let track = update.track.clone();
                self.codec.forget(&consumer, &model);
                if telemetry.is_enabled() {
                    telemetry.instant_at(
                        "producer",
                        "retries_exhausted",
                        &track,
                        at.as_nanos(),
                        &[("consumer", consumer.as_str().into())],
                    );
                }
                // A dead relay root strands its whole subtree: re-parent
                // the topology and deliver to the orphans directly. The
                // root itself still takes the durable-fallback path below.
                if self.updates[&seq].groups.contains_key(&consumer) {
                    self.relay_fallback(ctx, seq, &consumer, at);
                }
                // If a newer version is already queued behind this lane it
                // supersedes the failed one for this consumer: skip the
                // durable fallback and let the newer flow launch instead.
                let newer_queued = self
                    .lanes
                    .get(&(consumer.clone(), model.clone()))
                    .is_some_and(|lane| !lane.queue.is_empty());
                let update = self
                    .updates
                    .get_mut(&seq)
                    .expect("flow belongs to an update");
                if !newer_queued {
                    update.fall_back = true;
                }
                update.frontier = update.frontier.max(at);
                update.remaining -= 1;
                self.release_lane(ctx, &consumer, &model, at);
                self.finish_if_done(seq);
            }
        }
    }

    /// Feed one decoded control frame to its flow's state machine.
    fn on_control(&mut self, from: &str, control: Control) -> Option<(u64, FlowAction)> {
        let flow_id = control.flow_id();
        let event = match control {
            Control::Ack { generation, .. } => FlowEvent::Feedback {
                generation,
                kind: FeedbackKind::Ack,
            },
            Control::NeedFull { generation, .. } => FlowEvent::Feedback {
                generation,
                kind: FeedbackKind::NeedFull,
            },
            Control::Nack {
                generation,
                missing,
                ..
            } => FlowEvent::Feedback {
                generation,
                kind: FeedbackKind::Nack { missing },
            },
            // `Round` is a sender-side frame; one arriving here is garbage.
            // `Miss` is handled before the state machine (`handle_miss`).
            Control::Round { .. } | Control::Miss { .. } => return None,
        };
        let Some(flow) = self.flows.get_mut(&flow_id) else {
            // Feedback for no known flow: a complaint about a superseded
            // or finished delivery (e.g. a reap-NACK racing completion).
            self.counters.stale_feedback.inc();
            return None;
        };
        if flow.consumer != from {
            self.counters.stale_feedback.inc();
            return None;
        }
        Some((flow_id, flow.machine.on_event(event)))
    }
}

impl ReactorTask for DeliveryTask {
    fn on_mail(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(msg) = self.endpoint.try_recv() {
            if msg.kind != MessageKind::Control {
                continue;
            }
            // Control frames are always unframed; anything that fails to
            // decode is a mis-tagged chunk and is dropped here.
            let Some(control) = Control::decode(msg.payload.as_contiguous().unwrap_or(&[])) else {
                continue;
            };
            // A relay `Miss` is escalation about a *subtree member*, not
            // feedback about the root's flow health: it must never feed
            // the root flow's state machine.
            if let Control::Miss {
                flow_id, member, ..
            } = control
            {
                self.handle_miss(ctx, &msg.from, flow_id, member, msg.arrived_at);
                continue;
            }
            if let Some((flow_id, action)) = self.on_control(&msg.from, control) {
                self.handle_action(ctx, flow_id, action, msg.arrived_at);
            }
        }
    }

    fn on_timer(&mut self, token: u64, deadline: SimInstant, ctx: &mut TaskCtx<'_>) {
        // Ack timers fire only at reactor quiescence: every surviving chunk
        // and feedback frame has been processed, so silence here means the
        // virtual `ack_timeout` genuinely elapsed with nothing heard. The
        // wait itself charges nothing — exactly like the old wall-clock
        // `recv_timeout`, which parked a thread without touching the clock.
        let Some(flow) = self.flows.get_mut(&token) else {
            return;
        };
        let action = flow.machine.on_event(FlowEvent::AckTimeout);
        self.handle_action(ctx, token, action, deadline);
    }

    fn on_job(&mut self, job: Box<dyn Any + Send>, ctx: &mut TaskCtx<'_>) {
        let job = match job.downcast::<DeliveryJob>() {
            Ok(job) => *job,
            Err(other) => {
                if let Ok(barrier) = other.downcast::<DrainBarrier>() {
                    if self.updates.is_empty() {
                        let _ = barrier.reply.send(());
                    } else {
                        self.waiters.push(barrier.reply);
                    }
                }
                return;
            }
        };
        debug_assert!(
            self.coalesce || self.updates.is_empty(),
            "one reliable fan-out per producer at a time without coalescing"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let admitted = job.consumers.len();
        // Under coalescing the save path already returned at submit (it
        // never waits on this channel — the receiver is gone by now, so
        // the send is a best-effort no-op kept for symmetry); terminal
        // outcomes surface through counters and the deferred fallback.
        let reply = if self.coalesce {
            let _ = job.reply.send(DeliveryDone {
                delivered: admitted,
                fall_back: false,
                frontier: job.frontier,
            });
            None
        } else {
            Some(job.reply)
        };
        self.updates.insert(
            seq,
            UpdateState {
                tag: job.tag,
                link: job.link,
                chunk_bytes: job.chunk_bytes,
                payload: job.payload,
                framed_full: job.framed_full,
                record: job.record,
                track: job.track,
                remaining: admitted,
                delivered: 0,
                fall_back: false,
                frontier: job.frontier,
                groups: job.groups,
                escalated: HashSet::new(),
                reply,
            },
        );
        let mut capture = job.capture;
        for (consumer, wire_payload) in job.consumers {
            self.admit(
                ctx,
                seq,
                consumer,
                wire_payload.bytes,
                wire_payload.crcs,
                wire_payload.kind,
                &mut capture,
                job.frontier,
            );
        }
        self.refresh_queue_gauge();
        self.finish_if_done(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(iteration: u64) -> Arc<Checkpoint> {
        Arc::new(Checkpoint::new(
            "m",
            iteration,
            vec![(
                "w".into(),
                viper_tensor::Tensor::full(&[4], iteration as f32),
            )],
        ))
    }

    fn active_codec() -> PayloadCodec {
        PayloadCodec::new(&ViperConfig::default().with_delta())
    }

    #[test]
    fn inactive_codec_tracks_nothing() {
        let codec = PayloadCodec::new(&ViperConfig::default());
        assert!(!codec.active());
        codec.retain(&ckpt(1));
        codec.note_acked("c", "m", 1);
        assert_eq!(codec.newest_retained("m"), None);
        assert!(codec.base_for("c", "m").is_none());
    }

    #[test]
    fn base_requires_ack_and_retention() {
        let codec = active_codec();
        codec.retain(&ckpt(1));
        // Retained but never acknowledged: no delta base.
        assert!(codec.base_for("c", "m").is_none());
        codec.note_acked("c", "m", 1);
        assert_eq!(codec.base_for("c", "m").unwrap().iteration, 1);
        // Another consumer's ack is tracked independently.
        assert!(codec.base_for("other", "m").is_none());
        codec.forget("c", "m");
        assert!(codec.base_for("c", "m").is_none());
    }

    #[test]
    fn retention_prunes_to_version_budget() {
        let mut config = ViperConfig::default().with_delta();
        config.keep_versions = 2;
        let codec = PayloadCodec::new(&config);
        for i in 1..=5 {
            codec.retain(&ckpt(i));
        }
        assert_eq!(codec.newest_retained("m"), Some(5));
        codec.note_acked("c", "m", 3);
        // Iteration 3 was pruned (only 4 and 5 retained): full fallback.
        assert!(codec.base_for("c", "m").is_none());
        codec.note_acked("c", "m", 4);
        assert!(codec.base_for("c", "m").is_some());
    }

    #[test]
    fn snapshot_recycles_the_base_retention_would_prune() {
        let mut config = ViperConfig::default().with_delta();
        config.keep_versions = 2;
        let codec = PayloadCodec::new(&config);
        let buffer = |c: &Checkpoint| c.tensors[0].1.as_slice().as_ptr();
        let save = |i| {
            let arc = Arc::new(codec.snapshot(&ckpt(i)));
            assert_eq!(*arc, *ckpt(i));
            codec.retain(&arc);
            buffer(&arc)
        };
        let first = save(1);
        let second = save(2);
        // Under budget nothing is displaced; from then on every snapshot
        // lands in the buffers of the base it pushes out.
        assert_ne!(first, second);
        assert_eq!(save(3), first);
        assert_eq!(save(4), second);
        // A base a delivery still diffs against is pruned but left intact.
        codec.note_acked("c", "m", 3);
        let in_flight = codec.base_for("c", "m").unwrap();
        assert_ne!(save(5), first);
        assert_eq!(*in_flight, *ckpt(3));
        assert!(codec.base_for("c", "m").is_none());
        assert_eq!(codec.newest_retained("m"), Some(5));
        // An out-of-order save displaces nothing newer than itself.
        let stale = codec.snapshot(&ckpt(2));
        assert_eq!(stale, *ckpt(2));
        codec.note_acked("c", "m", 4);
        assert!(codec.base_for("c", "m").is_some());
    }

    #[test]
    fn wire_cache_evicts_pruned_bases() {
        let mut config = ViperConfig::default().with_delta();
        config.keep_versions = 2;
        let codec = PayloadCodec::new(&config);
        codec.retain(&ckpt(1));
        codec.retain(&ckpt(2));
        // Memoize deltas of update 3 against both retained bases (and a
        // failed diff against base 1, which memoizes as None).
        let body = (Payload::from(vec![9u8; 8]), Arc::new(vec![0u32]));
        assert!(codec
            .delta_cached("m", 3, 1, || Some(body.clone()))
            .is_some());
        assert!(codec.delta_cached("m", 3, 2, || None).is_none());
        assert_eq!(codec.cached_delta_bases("m"), vec![1, 2]);
        // Retaining 3 prunes base 1 (budget 2 keeps {2, 3}): its cached
        // delta — including the memoized failure — must go with it.
        codec.retain(&ckpt(3));
        assert_eq!(codec.cached_delta_bases("m"), vec![2]);
        // The memo is target-keyed: a newer update resets it entirely.
        assert!(codec.delta_cached("m", 4, 2, || None).is_none());
        assert_eq!(codec.cached_delta_bases("m"), vec![2]);
        assert!(codec.cached_full("m", 3).is_none());
    }

    #[test]
    fn wire_cache_full_is_target_keyed() {
        let codec = active_codec();
        let counters = DeliveryCounters::new(&Telemetry::disabled(), "p");
        let payload = Payload::from(vec![7u8; 16]);
        let (framed, crcs) = codec.full_framed_cached("m", 1, &payload, 8, &counters);
        // The streamed framing is byte-identical to the legacy copy path,
        // and its chunk CRCs match fresh CRCs over the framed slices.
        let legacy = wire::frame(PayloadKind::Full, &payload);
        assert_eq!(framed.as_slice(), &legacy[..]);
        assert_eq!(crcs.len(), legacy.len().div_ceil(8));
        for (i, chunk) in legacy.chunks(8).enumerate() {
            assert_eq!(crcs[i], viper_formats::crc32(chunk));
        }
        assert_eq!(codec.cached_full("m", 1).unwrap().0.len(), framed.len());
        assert_eq!(counters.payload_allocs.get(), 1);
        // Same target: memoized, no second framing.
        codec.full_framed_cached("m", 1, &payload, 8, &counters);
        assert_eq!(counters.payload_allocs.get(), 1);
        // New target: the stale full is dropped, a fresh one is framed.
        assert!(codec.cached_full("m", 2).is_none());
        codec.full_framed_cached("m", 2, &payload, 8, &counters);
        assert_eq!(counters.payload_allocs.get(), 2);
        assert!(codec.cached_full("m", 1).is_none());
    }
}
