//! The wire-codec layer: what bytes actually travel for one model update.
//!
//! [`PayloadCodec`] decides *per delivery group, per update* whether to
//! ship the full checkpoint or an incremental [`viper_formats::delta`]
//! against the base version every member last **acknowledged**, and frames
//! the chosen bytes with an explicit payload-kind envelope
//! ([`viper_formats::wire`]) so the receiver dispatches by header, never by
//! sniffing body magics. A directly served consumer is a group of one; a
//! relay-tree root stands for its whole subtree.
//! The delivery layer below ([`deliver`] / [`DeliveryTask`]) drives the
//! framed payload over the fabric — chunking, CRC, fault injection,
//! NACK/retransmit, and the durable PFS fallback all compose with it. The
//! reliable path is event-driven: the save thread submits one
//! [`DeliveryJob`] to the reactor (blocking on its reply only in
//! non-coalescing mode), and the [`DeliveryTask`] applies the producer's
//! delivery policy to the terminal outcomes of a [`viper_net::FlowSender`],
//! the engine that owns the lanes, flows, ack timers and retransmission
//! rounds.
//!
//! ## Backpressure and coalescing
//!
//! With [`ViperConfig::coalesce_updates`] the save path does not block at
//! all: admission is unconditional (launch or queue) and its outcome
//! carries nothing the submitter does not already know, so `save` returns
//! the moment the job is posted — wait-free capture-to-return. The
//! task may drive several updates concurrently. Each `(consumer, model)`
//! pair is a **lane** of the engine: while a lane has a flow in flight,
//! newer updates for it queue behind it, bounded and collapsing to the
//! latest — superseded versions are dropped before they ever touch the
//! wire, counted per consumer (`producer.{node}.updates_superseded.*`)
//! and in aggregate, with the total backlog exported as the
//! `producer.{node}.queue_depth` gauge. A congested lane also backs its
//! retransmissions off harder: the retry pause grows with the lane's
//! backlog. An update that exhausts its retries skips the durable PFS
//! fallback when a newer version is already queued behind the same lane —
//! the newer version supersedes it for that consumer.
//!
//! Full-checkpoint fallback rules (the codec never guesses):
//!
//! * a consumer with no acknowledged base (freshly attached, or forgotten
//!   after an exhausted delivery) gets a full;
//! * a consumer whose acknowledged base is no longer retained (pruned) or
//!   not older than the update gets a full;
//! * a relay group whose members acknowledged different bases gets a full;
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
    ChunkedSend, Control, Endpoint, FlowSender, LinkKind, MessageKind, Outbound, Outcome,
    OutcomeKind, ReactorTask, SenderCounters, TaskCtx,
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
/// passes the raw payload through) unless delta transfer is in effect
/// (`ViperConfig::delta_active`).
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
            active: config.delta_active(),
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

    /// The base checkpoint a delta for `members` must diff against: the
    /// iteration every one of them last acknowledged, if they all
    /// acknowledged the *same* one and it is still retained. A directly
    /// served consumer is a group of one; a relay re-serves one wire image
    /// to its whole subtree, so a group delta is only safe when it applies
    /// at every member — any divergence falls back to a full.
    fn base_for(&self, members: &[String], model: &str) -> Option<Arc<Checkpoint>> {
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

/// Choose and encode the *shared* wire payload for `members`: one directly
/// served consumer, or a relay group (a tree root plus its whole subtree —
/// the same bytes are re-served down every level). A delta is chosen only
/// when [`PayloadCodec::base_for`] proves it applies at every member;
/// otherwise they get the memoized framed full. With the codec inactive
/// this is the identity: the raw full encoding travels unframed,
/// byte-identical to a build without the codec layer.
fn encode_for(d: &Delivery<'_>, members: &[String], frontier: &mut SimInstant) -> WirePayload {
    let (codec, record, payload, counters) = (d.codec, d.record, d.payload, d.counters);
    if !codec.active() {
        return WirePayload {
            kind: PayloadKind::Full,
            bytes: payload.clone(),
            crcs: Some(Arc::clone(d.payload_crcs)),
        };
    }
    let shared = &d.viper.shared;
    let chunk_bytes = shared.config.wire_chunk_bytes();
    if let Some(ckpt) = d.ckpt {
        if let Some(base) = codec
            .base_for(members, &record.name)
            .filter(|b| b.iteration < ckpt.iteration)
        {
            let encoded = codec.delta_cached(&record.name, ckpt.iteration, base.iteration, || {
                // The delta streams straight into its framed wire form:
                // envelope, diff payload, and chunk CRCs in one pass. The
                // diff itself is streaming too (`diff_into`): changed
                // tensors encode directly off the compare pass, so no
                // DeltaCheckpoint, tensor clone, or intermediate buffer
                // ever materializes on the send path.
                let mut enc = StreamingEncoder::new(chunk_bytes);
                enc.put_bytes(&wire::envelope(PayloadKind::Delta));
                delta::diff_into(&base, ckpt, &mut enc).ok()?;
                counters.payload_allocs.inc();
                let encoded = enc.finish();
                // The diff is one read pass over the full model at the
                // route's staging bandwidth, charged causally from the
                // delivery frontier.
                let t0 = *frontier;
                *frontier = charge_at(
                    &shared.clock,
                    t0,
                    stage_time(&shared.config.profile, d.route, payload.len() as u64),
                );
                shared.config.telemetry.complete(
                    "producer",
                    "encode.delta",
                    d.track,
                    t0.as_nanos(),
                    frontier.as_nanos(),
                    &[
                        ("base_iteration", base.iteration.into()),
                        ("iteration", ckpt.iteration.into()),
                    ],
                );
                Some((encoded.payload, encoded.chunk_crcs))
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
/// reactor. The caller pre-encodes every target's wire payload (so delta
/// diff charges stay on the save path's causal frontier) and submits the
/// job — delivery itself is driven entirely by reactor events: completion
/// mail and virtual-clock ack timers, never a parked thread per consumer.
/// Without coalescing the caller blocks on `reply`, which arrives once
/// every flow is terminal; with coalescing there is no reply and the task
/// drives the update to completion (or supersession) in the background.
pub(crate) struct DeliveryJob {
    /// `(target node, encoded payload)` in fan-out order. Under
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
    /// `None` under coalescing: the save path returned at submit, and a
    /// terminal fallback runs on the task instead.
    pub(crate) reply: Option<Sender<DeliveryDone>>,
}

/// A drain barrier submitted to the [`DeliveryTask`]: replied to once no
/// update is in flight (immediately if idle). The coalescing producer's
/// shutdown path uses it to let background deliveries resolve before the
/// task deregisters.
pub(crate) struct DrainBarrier {
    pub(crate) reply: Sender<()>,
}

/// The reply to a blocking [`DeliveryJob`] once every flow reached a
/// terminal state.
pub(crate) struct DeliveryDone {
    /// Consumers that ACKed an install.
    pub(crate) delivered: usize,
    /// At least one consumer exhausted the retry budget: degrade to PFS.
    pub(crate) fall_back: bool,
    /// Causal frontier extended by the ACK arrival instants.
    pub(crate) frontier: SimInstant,
}

/// One update on its way out of `save_weights` (or its async worker), as
/// [`deliver`] takes it.
pub(crate) struct Delivery<'a> {
    pub(crate) viper: &'a Viper,
    pub(crate) endpoint: &'a Endpoint,
    pub(crate) codec: &'a PayloadCodec,
    pub(crate) counters: &'a DeliveryCounters,
    pub(crate) record: &'a ModelRecord,
    /// The captured checkpoint, for delta encoding (`None` with delta
    /// transfer off).
    pub(crate) ckpt: Option<&'a Arc<Checkpoint>>,
    /// Always the **raw full encoding** — what the staging tiers, the PFS
    /// fallback, and the pull path read. What each consumer is actually
    /// sent is decided by the [`PayloadCodec`] (delta vs framed full vs
    /// raw passthrough).
    pub(crate) payload: &'a Payload,
    /// Encode-time per-chunk CRCs of `payload`.
    pub(crate) payload_crcs: &'a Arc<Vec<u32>>,
    pub(crate) route: Route,
    /// Let the first send model the (not yet charged) capture overlapping
    /// the wire.
    pub(crate) pipeline_capture: bool,
    pub(crate) track: &'a str,
    /// The causal instant the delivery starts from; `None` reads the
    /// shared clock (correct whenever the caller just charged its own
    /// work there). A coalescing producer passes its private save frontier
    /// instead — the shared clock races ahead with concurrently applying
    /// consumers, and basing charges on it would make the timeline depend
    /// on thread scheduling.
    pub(crate) frontier_base: Option<SimInstant>,
}

/// Graceful degradation: the wire gave up on at least one consumer, so
/// make this version durable NOW (not just in the background flush) and
/// relocate its metadata record. Returns the record pointing at the PFS
/// copy — consumers recover via the repository pull path — or `None` if
/// the write failed. The durable copy is always the raw full encoding,
/// never a framed or delta payload.
fn durable_fallback(
    viper: &Viper,
    counters: &DeliveryCounters,
    record: &ModelRecord,
    payload: &Payload,
    track: &str,
) -> Option<ModelRecord> {
    let shared = &viper.shared;
    let telemetry = &shared.config.telemetry;
    let t0 = telemetry.now_ns();
    let pfs_path = format!("pfs/{}/v{}", record.name, record.version);
    let written = shared
        .pfs
        .write(&pfs_path, payload.clone(), record.ntensors)
        .is_ok();
    let relocated = written.then(|| {
        shared
            .db
            .relocate(&record.name, record.version, Tier::Pfs.name(), &pfs_path);
        counters.pfs_fallbacks.inc();
        let mut notify = record.clone();
        notify.location = Tier::Pfs.name().to_string();
        notify.path = pfs_path;
        notify
    });
    telemetry.complete(
        "producer",
        "pfs_fallback",
        track,
        t0,
        telemetry.now_ns(),
        &[("version", record.version.into())],
    );
    relocated
}

/// Publish the update notification `frontier` + the notify latency after
/// the delivery it announces; returns how many subscribers it reached.
fn announce(viper: &Viper, notify: ModelRecord, frontier: SimInstant) -> usize {
    let shared = &viper.shared;
    charge_at(
        &shared.clock,
        frontier,
        shared.config.profile.notify_latency,
    );
    let notified = shared.bus.publish(UPDATE_TOPIC, notify);
    // Consumer discovery runs on the reactor: nudge every task to drain its
    // subscription (push mode) or check the metadata DB (poll mode).
    shared.reactor.wake_all();
    notified
}

/// Push the update to every attached consumer and publish the update
/// notification. For the PFS route consumers pull from the shared tier, so
/// only the notification is sent. With `ViperConfig::chunked_transfer` the
/// payload travels as a pipelined chunked flow.
///
/// With `ViperConfig::reliable_delivery` every memory-route send is
/// ACK-gated with NACK-driven retransmission; if a consumer exhausts the
/// retry budget the update degrades to the durable PFS route (written
/// synchronously, relocated in the metadata DB) and the published
/// notification points there, so the consumer's pull path recovers it.
///
/// Returns how many consumers were pushed a payload (admitted, under
/// coalescing).
pub(crate) fn deliver(d: &Delivery<'_>) -> usize {
    let (viper, endpoint, record, payload, route) =
        (d.viper, d.endpoint, d.record, d.payload, d.route);
    let shared = &viper.shared;
    let telemetry = &shared.config.telemetry;
    let mut span = telemetry.span_with(
        "producer",
        "deliver",
        d.track,
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
    let mut frontier = d.frontier_base.unwrap_or_else(|| shared.clock.now());
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
            let eligible: Vec<String> = consumers
                .into_iter()
                .filter(|c| c != endpoint.node())
                .collect();
            // Relay-tree mode: organize the fleet into the deployment's
            // topology and target only the tree roots — each root's group
            // shares one wire image, re-served down the tree by the
            // relays themselves. On the direct path every consumer is a
            // group of one.
            let groups = shared.distribution.refresh(&eligible).unwrap_or_default();
            let targets: Vec<(String, WirePayload)> = if groups.is_empty() {
                eligible
                    .into_iter()
                    .map(|consumer| {
                        let wire = encode_for(d, std::slice::from_ref(&consumer), &mut frontier);
                        (consumer, wire)
                    })
                    .collect()
            } else {
                groups
                    .iter()
                    .map(|(root, members)| (root.clone(), encode_for(d, members, &mut frontier)))
                    .collect()
            };
            if !targets.is_empty() {
                let admitted = targets.len();
                // Wait-free save path: under coalescing every target is
                // admitted unconditionally (launched or queued), so there
                // is nothing to wait for — terminal outcomes surface
                // through counters and `flush_deliveries`. In blocking
                // mode the reply arrives once every flow is terminal,
                // preserving one fan-out at a time.
                let reply = (!config.coalescing()).then(unbounded);
                shared.reactor.submit(
                    endpoint.node(),
                    Box::new(DeliveryJob {
                        consumers: targets,
                        groups,
                        tag,
                        link,
                        chunk_bytes: config.wire_chunk_bytes(),
                        capture: d
                            .pipeline_capture
                            .then(|| chunk_capture_model(&config.profile, route, record.ntensors)),
                        payload: payload.clone(),
                        framed_full: d.codec.cached_full(&record.name, record.iteration),
                        record: record.clone(),
                        track: d.track.to_string(),
                        frontier,
                        reply: reply.as_ref().map(|(tx, _)| tx.clone()),
                    }),
                );
                match reply {
                    None => sent = admitted,
                    Some((_, rx)) => {
                        let done = rx.recv().expect("delivery reactor replies");
                        sent = done.delivered;
                        fall_back = done.fall_back;
                        frontier = frontier.max(done.frontier);
                    }
                }
            }
        } else {
            let mut inline_capture = d.pipeline_capture;
            for consumer in consumers {
                if consumer == endpoint.node() {
                    continue;
                }
                // A deregistered consumer is not an error: it raced shutdown.
                let delivered = if config.chunked_transfer {
                    // The raw payload travels as-is, so its encode-time
                    // chunk CRCs apply directly.
                    let mut opts =
                        ChunkedSend::new(config.chunk_bytes).with_crcs(Arc::clone(d.payload_crcs));
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
    let relocated = fall_back
        .then(|| durable_fallback(viper, d.counters, record, payload, d.track))
        .flatten();
    let notified = announce(viper, relocated.unwrap_or_else(|| record.clone()), frontier);
    span.arg("pushed", sent.into());
    span.arg("notified", notified.into());
    drop(span);
    sent
}

/// What an update's current flow to one target carries.
#[derive(Clone, Copy)]
struct Sent {
    /// Envelope kind of the bytes (trace label on `delta_rejected`).
    kind: PayloadKind,
    /// This is the full-checkpoint send after a `NeedFull` reply or an
    /// escalation — a full can't be rejected for a missing base, so a
    /// repeat `NeedFull` fails the delivery instead of re-sending.
    full_retry: bool,
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
    /// Sends not yet resolved (terminal flow or superseded in queue).
    /// Under relay-tree distribution this counts sends the producer itself
    /// drives — one per tree root, plus one per member escalated to a
    /// direct send — not subtree members.
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
    /// What is (or was last) on the wire to each target.
    sent: HashMap<String, Sent>,
    /// `None` under coalescing: nobody waits, and a terminal fallback runs
    /// on the task instead.
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

/// The producer's reactor task: the delivery *policy* over a
/// [`FlowSender`], which owns the `(consumer, model)` lanes and every
/// reliable flow this producer has in flight. The engine reports how each
/// send ended, tagged with the update's sequence number; this task decides
/// what that means — codec ACK tracking and group resolution on
/// `Complete`, the full-checkpoint retry on `NeedFull`, re-parenting and
/// direct fulls when a relay root is lost, and the durable PFS fallback
/// when a send exhausts its retries with nothing newer queued behind it.
pub(crate) struct DeliveryTask {
    viper: Viper,
    endpoint: Arc<Endpoint>,
    codec: Arc<PayloadCodec>,
    counters: Arc<DeliveryCounters>,
    sender: FlowSender<(String, String)>,
    /// Next update sequence number (admission order, strictly increasing —
    /// doubles as the lanes' queue version key and the engine token).
    next_seq: u64,
    updates: HashMap<u64, UpdateState>,
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
        let sender = FlowSender::new(
            Arc::clone(&endpoint),
            config.retry,
            config.coalesce_queue_depth,
            config.telemetry.clone(),
            "producer",
            SenderCounters {
                retransmits: counters.retransmits.clone(),
                stale_feedback: counters.stale_feedback.clone(),
            },
        );
        DeliveryTask {
            viper,
            endpoint,
            codec,
            counters,
            sender,
            next_seq: 0,
            updates: HashMap::new(),
            waiters: Vec::new(),
        }
    }

    /// Hand every outcome the engine has ready to the policy, then
    /// republish the backlog gauge.
    fn drain_outcomes(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(outcome) = self.sender.next_outcome(ctx) {
            self.on_outcome(ctx, outcome);
        }
        self.counters.queue_depth.set(self.sender.backlog() as i64);
    }

    /// Update `seq` as a framed full for `to`, ready at `at`: the
    /// `NeedFull` retry and both escalation paths.
    fn full_send(&mut self, seq: u64, to: &str, at: SimInstant) -> Outbound {
        let update = self
            .updates
            .get_mut(&seq)
            .expect("a full send belongs to an update");
        let (full, crcs) = update.full_framed(&self.counters);
        update.sent.insert(
            to.to_string(),
            Sent {
                kind: PayloadKind::Full,
                full_retry: true,
            },
        );
        Outbound {
            token: seq,
            to: to.to_string(),
            tag: update.tag.clone(),
            link: update.link,
            payload: full,
            opts: ChunkedSend::new(update.chunk_bytes).with_crcs(crcs),
            ready_at: at,
            track: update.track.clone(),
        }
    }

    /// Deliver update `seq` to subtree member `member` directly, as a
    /// framed full on the member's own lane.
    fn escalate(&mut self, ctx: &mut TaskCtx<'_>, seq: u64, member: &str, at: SimInstant) {
        let update = self
            .updates
            .get_mut(&seq)
            .expect("an escalation belongs to an update");
        update.remaining += 1;
        let lane = (member.to_string(), update.record.name.clone());
        let send = self.full_send(seq, member, at);
        self.sender.admit(ctx, lane, seq, send);
    }

    /// A relay root failed (exhausted retries or vanished) while `seq`
    /// still owed its subtree the update: record the re-parent in the
    /// topology and send direct fulls to every stranded member.
    /// Counted — this is the degraded path, not the design point.
    fn relay_fallback(&mut self, ctx: &mut TaskCtx<'_>, seq: u64, root: &str, at: SimInstant) {
        let Some(update) = self.updates.get_mut(&seq) else {
            return;
        };
        let Some(members) = update.groups.get(root) else {
            return;
        };
        let stranded: Vec<String> = members
            .iter()
            .filter(|m| *m != root && !update.escalated.contains(*m))
            .cloned()
            .collect();
        update.escalated.extend(stranded.iter().cloned());
        self.counters.reparent_events.inc();
        self.viper.shared.distribution.note_failed(root);
        let telemetry = &self.viper.shared.config.telemetry;
        if telemetry.is_enabled() {
            telemetry.instant_at(
                "producer",
                "reparent",
                &update.track,
                at.as_nanos(),
                &[("root", root.into()), ("stranded", stranded.len().into())],
            );
        }
        for member in &stranded {
            self.escalate(ctx, seq, member, at);
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
        // The frame must come from the root the flow went to, about a
        // member of that root's group not yet escalated.
        let escalation = self
            .sender
            .flow(flow_id)
            .filter(|(_, root)| *root == from)
            .and_then(|(seq, root)| {
                let update = self.updates.get_mut(&seq)?;
                let in_group = update.groups.get(root)?.contains(&member);
                (in_group && update.escalated.insert(member.clone())).then_some(seq)
            });
        let Some(seq) = escalation else {
            self.counters.stale_feedback.inc();
            return;
        };
        let update = &self.updates[&seq];
        self.codec.forget(&member, &update.record.name);
        self.counters.delta_fallbacks.inc();
        let telemetry = &self.viper.shared.config.telemetry;
        if telemetry.is_enabled() {
            telemetry.instant_at(
                "producer",
                "relay_miss",
                &update.track,
                at.as_nanos(),
                &[("member", member.as_str().into()), ("root", from.into())],
            );
        }
        self.escalate(ctx, seq, &member, at);
    }

    /// If every send of update `seq` is resolved, finish it: send the job
    /// reply (blocking mode), or run the deferred durable fallback
    /// (coalescing).
    fn finish_if_done(&mut self, seq: u64) {
        if self.updates.get(&seq).is_none_or(|u| u.remaining != 0) {
            return;
        }
        let update = self.updates.remove(&seq).expect("checked above");
        if let Some(reply) = &update.reply {
            let _ = reply.send(DeliveryDone {
                delivered: update.delivered,
                fall_back: update.fall_back,
                frontier: update.frontier,
            });
        } else if update.fall_back {
            // The wire gave up on at least one consumer with nothing newer
            // queued behind it: re-publish the notification against the
            // durable copy.
            let relocated = durable_fallback(
                &self.viper,
                &self.counters,
                &update.record,
                &update.payload,
                &update.track,
            );
            if let Some(notify) = relocated {
                announce(&self.viper, notify, update.frontier);
            }
        }
        if self.updates.is_empty() {
            for waiter in self.waiters.drain(..) {
                let _ = waiter.send(());
            }
        }
    }

    /// One send of update `seq` ended: apply the delivery policy and
    /// resolve its slot in the update. `at` is the causal instant of the
    /// ending (see [`Outcome::at`]).
    fn on_outcome(&mut self, ctx: &mut TaskCtx<'_>, outcome: Outcome) {
        let Outcome {
            token: seq,
            to,
            kind,
            at,
        } = outcome;
        let shared = Arc::clone(&self.viper.shared);
        let telemetry = &shared.config.telemetry;
        let Some(update) = self.updates.get_mut(&seq) else {
            debug_assert!(false, "a send outlived its update");
            return;
        };
        let model = update.record.name.clone();
        let is_root = update.groups.contains_key(&to);
        match kind {
            OutcomeKind::Superseded => {
                // A newer version collapsed this one out of the lane's
                // queue: it will never reach `to`.
                self.counters.updates_superseded.inc();
                telemetry
                    .counter(&format!(
                        "producer.{}.updates_superseded.{to}",
                        self.endpoint.node()
                    ))
                    .inc();
                if telemetry.is_enabled() {
                    telemetry.instant_at(
                        "producer",
                        "update_superseded",
                        &update.track,
                        at.as_nanos(),
                        &[
                            ("consumer", to.as_str().into()),
                            ("version", update.record.version.into()),
                        ],
                    );
                }
            }
            OutcomeKind::Gone => {
                // A deregistered consumer raced shutdown — not a delivery
                // failure. A vanished relay root still leaves a live
                // subtree behind it, though.
                if is_root {
                    self.relay_fallback(ctx, seq, &to, at);
                }
            }
            OutcomeKind::Complete => {
                let iteration = update.record.iteration;
                if is_root {
                    // A relay root's group ACK: its entire subtree has
                    // installed the update. One round-trip resolves (and
                    // base-tracks) every member the producer did not have
                    // to escalate to a direct send.
                    self.counters.group_acks.inc();
                    let mut resolved = 0;
                    for member in &update.groups[&to] {
                        if !update.escalated.contains(member) {
                            self.codec.note_acked(member, &model, iteration);
                            resolved += 1;
                        }
                    }
                    update.delivered += resolved;
                    if telemetry.is_enabled() {
                        telemetry.instant_at(
                            "producer",
                            "group_ack",
                            &update.track,
                            at.as_nanos(),
                            &[("root", to.as_str().into()), ("members", resolved.into())],
                        );
                    }
                } else {
                    self.codec.note_acked(&to, &model, iteration);
                    update.delivered += 1;
                }
                update.frontier = update.frontier.max(at);
            }
            OutcomeKind::NeedFull => {
                update.frontier = update.frontier.max(at);
                let Sent { kind, full_retry } = update.sent[&to];
                if !full_retry {
                    // The consumer lost the base this delta applies to
                    // (restart, missed flow): reset its tracking and
                    // re-send the update as a full on a fresh flow. The
                    // lane stays held by this update, and the slot open —
                    // the retry's own outcome resolves it.
                    self.codec.forget(&to, &model);
                    self.counters.delta_fallbacks.inc();
                    if telemetry.is_enabled() {
                        telemetry.instant_at(
                            "producer",
                            "delta_rejected",
                            &update.track,
                            at.as_nanos(),
                            &[
                                ("consumer", to.as_str().into()),
                                ("kind", kind.label().into()),
                            ],
                        );
                    }
                    let send = self.full_send(seq, &to, at);
                    self.sender.relaunch(ctx, (to, model), send);
                    return;
                }
            }
            OutcomeKind::Exhausted { backlog } => {
                self.counters.exhausted.inc();
                self.codec.forget(&to, &model);
                if telemetry.is_enabled() {
                    telemetry.instant_at(
                        "producer",
                        "retries_exhausted",
                        &update.track,
                        at.as_nanos(),
                        &[("consumer", to.as_str().into())],
                    );
                }
                // If a newer version is already queued behind this lane it
                // supersedes the failed one for this consumer: skip the
                // durable fallback and let the newer flow launch instead.
                if backlog == 0 {
                    update.fall_back = true;
                }
                update.frontier = update.frontier.max(at);
                // A dead relay root strands its whole subtree: re-parent
                // the topology and deliver to the orphans directly. The
                // root itself still takes the durable-fallback path above.
                if is_root {
                    self.relay_fallback(ctx, seq, &to, at);
                }
            }
        }
        if let Some(update) = self.updates.get_mut(&seq) {
            update.remaining -= 1;
        }
        self.finish_if_done(seq);
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
            // feedback about the root's flow health: it must never reach
            // the root flow's state machine.
            if let Control::Miss {
                flow_id, member, ..
            } = control
            {
                self.handle_miss(ctx, &msg.from, flow_id, member, msg.arrived_at);
            } else {
                self.sender
                    .on_feedback(ctx, &msg.from, control, msg.arrived_at);
            }
            self.drain_outcomes(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, deadline: SimInstant, ctx: &mut TaskCtx<'_>) {
        self.sender.on_timer(ctx, token, deadline);
        self.drain_outcomes(ctx);
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
            job.reply.is_none() || self.updates.is_empty(),
            "one reliable fan-out per producer at a time without coalescing"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let sent = job
            .consumers
            .iter()
            .map(|(consumer, wire)| {
                let first = Sent {
                    kind: wire.kind,
                    full_retry: false,
                };
                (consumer.clone(), first)
            })
            .collect();
        let (tag, link, track) = (job.tag.clone(), job.link, job.track.clone());
        let model = job.record.name.clone();
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
                remaining: job.consumers.len(),
                delivered: 0,
                fall_back: false,
                frontier: job.frontier,
                groups: job.groups,
                escalated: HashSet::new(),
                sent,
                reply: job.reply,
            },
        );
        let mut capture = job.capture;
        for (consumer, wire) in job.consumers {
            // Hand the encode-time chunk CRCs to the fabric so the send
            // does not re-read the payload to checksum it.
            let mut opts = ChunkedSend::new(job.chunk_bytes);
            if let Some(crcs) = wire.crcs {
                opts = opts.with_crcs(crcs);
            }
            if let Some((bw, fixed, once)) = capture {
                opts = opts.with_capture(bw, fixed, once);
            }
            let send = Outbound {
                token: seq,
                to: consumer.clone(),
                tag: tag.clone(),
                link,
                payload: wire.bytes,
                opts,
                ready_at: job.frontier,
                track: track.clone(),
            };
            if self.sender.admit(ctx, (consumer, model.clone()), seq, send) {
                // The snapshot happens once; further flows re-send the
                // already captured chunks.
                capture = None;
            }
            self.drain_outcomes(ctx);
        }
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

    /// The delta base of a directly served consumer: a group of one.
    fn base_of(codec: &PayloadCodec, consumer: &str) -> Option<Arc<Checkpoint>> {
        codec.base_for(&[consumer.to_string()], "m")
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
        assert!(base_of(&codec, "c").is_none());
    }

    #[test]
    fn base_requires_ack_and_retention() {
        let codec = active_codec();
        codec.retain(&ckpt(1));
        // Retained but never acknowledged: no delta base.
        assert!(base_of(&codec, "c").is_none());
        codec.note_acked("c", "m", 1);
        assert_eq!(base_of(&codec, "c").unwrap().iteration, 1);
        // Another consumer's ack is tracked independently.
        assert!(base_of(&codec, "other").is_none());
        codec.forget("c", "m");
        assert!(base_of(&codec, "c").is_none());
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
        assert!(base_of(&codec, "c").is_none());
        codec.note_acked("c", "m", 4);
        assert!(base_of(&codec, "c").is_some());
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
        let in_flight = base_of(&codec, "c").unwrap();
        assert_ne!(save(5), first);
        assert_eq!(*in_flight, *ckpt(3));
        assert!(base_of(&codec, "c").is_none());
        assert_eq!(codec.newest_retained("m"), Some(5));
        // An out-of-order save displaces nothing newer than itself.
        let stale = codec.snapshot(&ckpt(2));
        assert_eq!(stale, *ckpt(2));
        codec.note_acked("c", "m", 4);
        assert!(base_of(&codec, "c").is_some());
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
