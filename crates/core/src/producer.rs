//! The producer-side Model Weights Handler (§4.4).
//!
//! `save_weights` is the paper's producer API (Fig. 4). It captures the
//! checkpoint, stages it memory-first on the route's staging tier, records
//! metadata, and delivers the payload to every attached consumer — inline
//! (sync) or from a background thread (async). Every historical checkpoint
//! is additionally flushed to the PFS for fault tolerance when
//! `flush_to_pfs` is enabled. A memory staging tier is a capacity ledger:
//! it reserves the version's bytes, which live only in the update that
//! delivers them, so retention pins no buffer. Under delta delivery the
//! full is encoded only when something reads it (see
//! [`Update::wire_full`]).
//!
//! All hardware durations are charged to the deployment's virtual clock
//! with `advance_to`, so concurrent background work overlaps in virtual
//! time instead of serializing — and each from the instant the update
//! carries ([`charge_at`]), never from wherever the shared clock happens
//! to stand, so the timeline does not depend on how the threads interleave.

use crate::codec::PayloadCodec;
use crate::config::{CaptureBilling, Deliverer, Delivery, Reliable, SavePlan};
use crate::context::Viper;
use crate::delivery::{deliver, route_label, DeliveryCounters, DeliveryTask, DrainBarrier};
use crate::Result;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use viper_formats::{
    wire, Checkpoint, CheckpointFormat, EncodeArena, EncodedPayload, Payload, PayloadKind,
    StreamingEncoder,
};
use viper_hw::{
    apply_time, capture_time, staging_copy_time, Route, SimClock, SimInstant, StorageTier, Tier,
};
use viper_metastore::ModelRecord;
use viper_net::Endpoint;

/// What `save_weights` reports back to the training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaveReceipt {
    /// Version assigned by the metadata DB (1-based).
    pub version: u64,
    /// Serialized checkpoint size.
    pub bytes: u64,
    /// Time the producer's training loop was blocked.
    pub stall: Duration,
    /// Virtual time the save started.
    pub started_at: SimInstant,
    /// Virtual time the stall ended (training resumed).
    pub resumed_at: SimInstant,
}

/// What the producer's three threads of control — the save thread, the
/// async worker and the reactor's [`DeliveryTask`] — share, built once in
/// [`Producer::attach`].
pub(crate) struct ProducerCtx {
    pub(crate) viper: Viper,
    pub(crate) endpoint: Arc<Endpoint>,
    /// Per-consumer wire-codec state (delta bases, acknowledged versions).
    pub(crate) codec: PayloadCodec,
    pub(crate) counters: DeliveryCounters,
    /// The format every full is encoded in.
    pub(crate) format: Box<dyn CheckpointFormat>,
    /// The one pool of payload buffers, fulls and deltas alike: once
    /// in-flight flows, installed models and the PFS flush release a past
    /// payload's views, its allocation is recycled for a later payload of
    /// its size class, or released (see [`EncodeArena`]).
    arena: Mutex<EncodeArena>,
    /// Held while a version is made durable: under coalescing the
    /// background flush and the delivery fallback can race for one version.
    durable: Mutex<()>,
}

impl ProducerCtx {
    /// Encode one payload of exactly `len` bytes: `write` streams it into
    /// a buffer of `len`'s size class taken from the producer's arena
    /// (allocated if none is free) while its per-chunk CRCs accumulate
    /// under the deployment's chunk geometry, so no sender re-reads the
    /// bytes to checksum; the buffer is then parked for a later payload.
    /// Every producer payload, full or delta, is encoded here, and a fresh
    /// allocation counts in `payload_allocs`.
    pub(crate) fn encode<'a>(
        &self,
        len: usize,
        write: impl FnOnce(&mut StreamingEncoder<'a>),
    ) -> EncodedPayload {
        let encoded = {
            let mut arena = self.arena.lock().unwrap();
            let chunk_bytes = self.viper.shared.config.chunk_bytes;
            let mut enc = StreamingEncoder::from_arena(&mut arena, len, chunk_bytes);
            write(&mut enc);
            enc.finish_into(&mut arena)
        };
        debug_assert_eq!(encoded.payload.len(), len, "the length is exact");
        if !encoded.reused {
            self.counters.payload_allocs.inc();
        }
        encoded
    }

    /// Encode `ckpt` as a version's full of `size_bytes` bytes (its
    /// `encoded_len`), behind the wire envelope when `framed`. Every full
    /// is encoded here, on whichever thread first needs it.
    fn encode_full(&self, ckpt: &Checkpoint, framed: bool, size_bytes: u64) -> EncodedPayload {
        let envelope = if framed { wire::WIRE_HEADER_BYTES } else { 0 };
        self.encode(envelope + size_bytes as usize, |enc| {
            if framed {
                enc.put_bytes(&wire::envelope(PayloadKind::Full));
            }
            self.format.encode_into(ckpt, enc);
        })
    }

    /// Make `record`'s version durable: write `payload`, its raw full
    /// encoding, to `pfs/{name}/v{version}` and point the metadata record
    /// there. The background flush and the delivery fallback both land
    /// here, in either order; the second finds the record relocated and
    /// writes nothing. Returns the record as relocated, or `None` if the
    /// write failed.
    pub(crate) fn make_durable(
        &self,
        record: &ModelRecord,
        payload: Payload,
    ) -> Option<ModelRecord> {
        let shared = &self.viper.shared;
        let path = format!("pfs/{}/v{}", record.name, record.version);
        let _one_writer = self.durable.lock().unwrap();
        let relocated = shared
            .db
            .get(&record.name, record.version)
            .is_some_and(|r| r.path == path);
        if !relocated {
            shared.pfs.write(&path, payload, record.ntensors).ok()?;
            shared
                .db
                .relocate(&record.name, record.version, Tier::Pfs.name(), &path);
        }
        Some(ModelRecord {
            location: Tier::Pfs.name().to_string(),
            path,
            ..record.clone()
        })
    }
}

/// Where the producer on `node` stages `model`'s checkpoint from
/// `iteration`. The save writes it there and the prune removes it by the
/// same name: the metadata record's path moves to the PFS copy once the
/// version is flushed.
fn staging_path(model: &str, node: &str, iteration: u64) -> String {
    format!("{model}/{node}/i{iteration}")
}

/// One saved version on its way to the consumers. `save_weights` builds it
/// once; the async worker's queue holds it, [`deliver`] and
/// [`encode_for`](crate::codec::encode_for) borrow it, and the reliable
/// path's [`DeliveryJob`](crate::delivery::DeliveryJob), the task's
/// per-update state and a PFS flush job contain it. Clones share one
/// [`Full`].
#[derive(Clone)]
pub(crate) struct Update {
    /// Metadata of the version (fallback relocation and notification need
    /// the full record, not just name/iteration).
    pub(crate) record: ModelRecord,
    /// The captured checkpoint, for delta encoding (`None` with delta
    /// transfer off, and once the fan-out is encoded).
    pub(crate) ckpt: Option<Arc<Checkpoint>>,
    /// The full as consumers are sent it whenever the [`PayloadCodec`]
    /// does not choose a delta, encoded at most once for every clone (see
    /// [`wire_full`](Self::wire_full)).
    full: Arc<Mutex<Full>>,
    pub(crate) route: Route,
    /// The causal instant at which everything done for this update so far
    /// has finished: its capture when `save_weights` hands it off, the
    /// staging copy once the async worker made it, then the encode charges
    /// and — on the task — the ACK arrivals. Every further charge starts
    /// here, never at the shared clock: that one races ahead with
    /// concurrently applying consumers, and a charge based on it would
    /// make the timeline depend on thread scheduling.
    pub(crate) frontier: SimInstant,
}

impl Update {
    /// The fabric tag of this version's flows (consumers install by its
    /// version suffix).
    pub(crate) fn tag(&self) -> String {
        format!("{}:{}", self.record.name, self.record.version)
    }

    /// The full as consumers are sent it, with its encode-time chunk CRCs:
    /// the raw encoding, behind the wire envelope under delta delivery. A
    /// deferred full is encoded here by the first caller, which may be the
    /// save thread, the async worker or the delivery reactor; every later
    /// call, on any clone, returns views of that one buffer.
    pub(crate) fn wire_full(&self, ctx: &ProducerCtx) -> EncodedPayload {
        encoded_full(&self.full, ctx, self.record.size_bytes)
    }

    /// The **raw full encoding**, what the PFS flush and fallback write: a
    /// zero-copy view of [`wire_full`](Self::wire_full) past any envelope.
    pub(crate) fn payload(&self, ctx: &ProducerCtx) -> Payload {
        raw_full(&self.wire_full(ctx).payload, self.record.size_bytes)
    }
}

/// A version's full as consumers are sent it.
enum Full {
    /// Not encoded yet: the capture it will be encoded from (framed, since
    /// only a save under delta delivery defers). The first reader drops it.
    Deferred(Arc<Checkpoint>),
    Encoded(EncodedPayload),
}

/// The full in `full`, a version's of `size_bytes` bytes, encoding it
/// first if it is still deferred.
fn encoded_full(full: &Mutex<Full>, ctx: &ProducerCtx, size_bytes: u64) -> EncodedPayload {
    let mut full = full.lock().unwrap();
    let encoded = match &*full {
        Full::Encoded(encoded) => return encoded.clone(),
        Full::Deferred(capture) => ctx.encode_full(capture, true, size_bytes),
    };
    *full = Full::Encoded(encoded.clone());
    encoded
}

/// The raw encoding of `size_bytes` bytes at the end of `wire`, past any
/// envelope: a view, not a copy.
fn raw_full(wire: &Payload, size_bytes: u64) -> Payload {
    wire.slice(wire.len() - size_bytes as usize..)
}

enum Job {
    /// Stage and deliver an update whose capture finished at its frontier.
    Deliver(Update),
    /// Make an update durable on the PFS (encoding its full if no one has).
    Flush(Update),
    /// Drain barrier: the worker replies once every job enqueued before it
    /// has fully run (spans closed, deliveries submitted). Lets
    /// `flush_deliveries` synchronize with the async-capture thread, not
    /// just the reactor.
    Barrier(Sender<()>),
}

/// A producer attached to a Viper deployment.
pub struct Producer {
    /// The deployment, this node's endpoint, the wire codec and the
    /// delivery counters, shared with the worker and the delivery task.
    ctx: Arc<ProducerCtx>,
    node: String,
    /// Telemetry track for spans emitted from the caller's thread.
    track: String,
    gpu: Arc<StorageTier>,
    host: Arc<StorageTier>,
    /// The causal end of the previous save's stall. Under coalescing the
    /// producer's timeline is this private chain — each save starts where
    /// the previous stall ended — because the shared clock races ahead
    /// with concurrently resolving deliveries and consumer applies.
    save_frontier: Mutex<SimInstant>,
    worker_tx: Option<Sender<Job>>,
    worker: Option<JoinHandle<()>>,
}

impl Producer {
    pub(crate) fn attach(viper: Viper, node: &str) -> Self {
        let clock = viper.shared.clock.clone();
        let profile = &viper.shared.config.profile;
        let gpu = Arc::new(StorageTier::new(*profile.tier(Tier::GpuMem), clock.clone()));
        let host = Arc::new(StorageTier::new(
            *profile.tier(Tier::HostMem),
            clock.clone(),
        ));
        let ctx = Arc::new(ProducerCtx {
            endpoint: Arc::new(viper.shared.fabric.register(node)),
            counters: DeliveryCounters::new(&viper.shared.config.telemetry, node),
            codec: PayloadCodec::new(viper.shared.config.keep_versions),
            format: viper.shared.config.format.build(),
            arena: Mutex::new(EncodeArena::new()),
            durable: Mutex::new(()),
            viper,
        });
        let shared = &ctx.viper.shared;
        // The reactor task that drives this producer's reliable flows
        // (fed by feedback mail and virtual-clock ack timers). Registered unconditionally: it stays idle unless a
        // DeliveryJob is submitted.
        shared
            .reactor
            .register(node, Box::new(DeliveryTask::new(Arc::clone(&ctx))));
        let (tx, rx) = channel::<Job>();
        let worker = {
            let ctx = Arc::clone(&ctx);
            // Worker spans live on their own track: Begin/End pairs from
            // two OS threads on one track would interleave arbitrarily.
            let worker_track = format!("producer:{node}/worker");
            std::thread::Builder::new()
                .name(format!("viper-producer-worker-{node}"))
                .spawn(move || {
                    let shared = &ctx.viper.shared;
                    let telemetry = &shared.config.telemetry;
                    // The worker is one serial thread: it is free for the
                    // next update at the frontier its previous delivery
                    // returned.
                    let mut worker_free = SimInstant::ZERO;
                    while let Ok(job) = rx.recv() {
                        match job {
                            Job::Deliver(mut update) => {
                                let bytes = update.record.size_bytes;
                                let _span = telemetry.span_with(
                                    "producer",
                                    "deliver.async",
                                    &worker_track,
                                    &[
                                        ("version", update.record.version.into()),
                                        ("bytes", bytes.into()),
                                    ],
                                );
                                // The priced pipeline's staging stage.
                                let stage =
                                    staging_copy_time(&shared.config.profile, update.route, bytes);
                                let start = update.frontier.max(worker_free);
                                update.frontier = charge_at(&shared.clock, start, stage);
                                telemetry.complete(
                                    "producer",
                                    "stage",
                                    &worker_track,
                                    start.as_nanos(),
                                    update.frontier.as_nanos(),
                                    &[("bytes", bytes.into())],
                                );
                                // The async path captured (and staged) before
                                // handing off, so chunks are all wire-ready.
                                (_, worker_free) =
                                    deliver(&ctx, &update, CaptureBilling::Lump, &worker_track);
                            }
                            Job::Flush(update) => {
                                let _span = telemetry.span_with(
                                    "producer",
                                    "flush.pfs",
                                    &worker_track,
                                    &[("version", update.record.version.into())],
                                );
                                ctx.make_durable(&update.record, update.payload(&ctx));
                            }
                            Job::Barrier(reply) => {
                                // All jobs enqueued before the barrier have
                                // run to completion on this thread (their
                                // spans dropped at the end of their arm).
                                let _ = reply.send(());
                            }
                        }
                    }
                })
                .expect("spawn producer worker")
        };

        let save_frontier = Mutex::new(clock.now());
        Producer {
            ctx,
            node: node.to_string(),
            track: format!("producer:{node}"),
            gpu,
            host,
            save_frontier,
            worker_tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// Retransmission rounds performed by reliable delivery (NACK-driven
    /// plus ack-timeout blind resends).
    pub fn retransmits(&self) -> u64 {
        self.ctx.counters.retransmits.get()
    }

    /// Deliveries that exhausted the retransmission budget.
    pub fn deliveries_exhausted(&self) -> u64 {
        self.ctx.counters.exhausted.get()
    }

    /// Updates degraded to the durable PFS route after retry exhaustion.
    pub fn pfs_fallbacks(&self) -> u64 {
        self.ctx.counters.pfs_fallbacks.get()
    }

    /// Delta-encoded sends attempted (delta transfer enabled, the consumer
    /// had an acknowledged, retained base).
    pub fn delta_sends(&self) -> u64 {
        self.ctx.counters.delta_sends.get()
    }

    /// Full-checkpoint sends while delta transfer was enabled: freshly
    /// attached consumer, missing/stale/pruned base, or a `NeedFull` reply.
    pub fn delta_fallbacks(&self) -> u64 {
        self.ctx.counters.delta_fallbacks.get()
    }

    /// Wire bytes saved by delta encoding relative to full encodings.
    pub fn delta_bytes_saved(&self) -> u64 {
        self.ctx.counters.delta_bytes_saved.get()
    }

    /// Payload-buffer allocations on the save/delivery path: one per
    /// encode, full or delta, that found no free arena buffer of its size
    /// class. A version's full is encoded at most once — at the save, or
    /// under delta delivery by its first reader, and not at all if every
    /// consumer is sent a delta and nothing makes it durable. Chunk
    /// framing, fan-out, retransmission and every resend of a full ship
    /// zero-copy views of that one buffer. A memory staging tier only
    /// reserves it, so in steady state two buffers rotate (the version in
    /// flight, the one installed) whatever `keep_versions` is.
    pub fn payload_allocs(&self) -> u64 {
        self.ctx.counters.payload_allocs.get()
    }

    /// How many encodes, full or delta, reused a parked arena buffer
    /// instead of allocating.
    pub fn arena_reclaimed(&self) -> u64 {
        self.ctx.arena.lock().unwrap().reclaimed()
    }

    /// How many free arena buffers an encode released instead of reusing:
    /// those outside its size class, which is how a shrinking workload's
    /// high-water buffer, or the warm-up full of a delta deployment, is
    /// freed.
    pub fn arena_decays(&self) -> u64 {
        self.ctx.arena.lock().unwrap().decays()
    }

    /// Total backing capacity currently parked in this producer's encode
    /// arena — the memory the buffer-reuse path is holding onto.
    pub fn arena_retained_capacity(&self) -> usize {
        self.ctx.arena.lock().unwrap().retained_capacity()
    }

    /// Feedback frames dropped by the delivery reactor because they named
    /// an unknown/finished flow or a superseded retransmission generation.
    pub fn stale_feedback(&self) -> u64 {
        self.ctx.counters.stale_feedback.get()
    }

    /// Group ACKs received from relay roots: one per (update, subtree)
    /// with the relay tree on, each resolving every non-escalated member
    /// of the root's subtree in a single round-trip.
    pub fn group_acks(&self) -> u64 {
        self.ctx.counters.group_acks.get()
    }

    /// Relay roots whose delivery died (retries exhausted or the send
    /// failed outright), forcing a rebuild of the topology without the
    /// root and direct fulls to the stranded members.
    pub fn reparent_events(&self) -> u64 {
        self.ctx.counters.reparent_events.get()
    }

    /// Updates dropped from a congested lane's coalescing queue because a
    /// newer version arrived before they could launch (summed across
    /// consumers; zero unless delivery coalesces, [`crate::Reliable::coalesce`]).
    pub fn updates_superseded(&self) -> u64 {
        self.ctx.counters.updates_superseded.get()
    }

    /// Current total backlog across the delivery task's coalescing queues.
    pub fn delivery_queue_depth(&self) -> i64 {
        self.ctx.counters.queue_depth.get()
    }

    /// Block until all background work this producer started is finished:
    /// the async-capture worker has run every queued job (staging spans
    /// closed, deliveries submitted, PFS flushes written) and every
    /// admitted delivery reached a terminal state (ACKed, superseded, or
    /// degraded to the durable fallback).
    pub fn flush_deliveries(&self) {
        // Worker first: its queue is the source of delivery submissions,
        // so the reactor barrier below sees every job's flows.
        if let Some(tx) = &self.worker_tx {
            let (done_tx, done_rx) = channel();
            if tx.send(Job::Barrier(done_tx)).is_ok() {
                let _ = done_rx.recv();
            }
        }
        let (tx, rx) = channel();
        self.ctx
            .viper
            .shared
            .reactor
            .submit(&self.node, Box::new(DrainBarrier { reply: tx }));
        let _ = rx.recv();
    }

    /// The node this producer runs on.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The producer's local GPU-memory staging tier: a capacity ledger
    /// whose keys are reservations of the retained versions' bytes
    /// (reading one fails with `StorageError::Reserved`).
    pub fn gpu_tier(&self) -> &StorageTier {
        &self.gpu
    }

    /// The producer's local host-memory staging tier: a capacity ledger
    /// like [`gpu_tier`](Self::gpu_tier).
    pub fn host_tier(&self) -> &StorageTier {
        &self.host
    }

    /// Save the current model state — the paper's `save_weights()` API.
    ///
    /// Blocks (in virtual time) for the strategy's producer stall; the rest
    /// of the delivery happens inline (sync) or in the background (async).
    pub fn save_weights(&self, ckpt: &Checkpoint) -> Result<SaveReceipt> {
        let shared = &self.ctx.viper.shared;
        let clock = &shared.clock;
        let telemetry = &shared.config.telemetry;
        let strategy = shared.config.strategy;
        // Under coalescing the save timeline is the producer's private
        // chain (the shared clock races ahead with background deliveries);
        // otherwise the clock frontier — the caller's causal present — is
        // the save's start. This is the one read of the shared clock on the
        // producer path: everything after is charged from `started_at`.
        let started_at = match shared.config.delivery {
            Delivery::Reliable(Reliable { coalesce: true, .. }) => {
                *self.save_frontier.lock().unwrap()
            }
            _ => clock.now(),
        };
        let mut span = telemetry.span_with(
            "producer",
            "save_weights",
            &self.track,
            &[("iteration", ckpt.iteration.into())],
        );

        // 1. Size the version; let the Transfer Selector pick the route
        //    (the configured one, degraded down the tier hierarchy when the
        //    staging tier is under memory pressure — Fig. 7).
        let ctx = &self.ctx;
        let bytes = ctx.format.encoded_len(ckpt) as u64;
        let route = self.select_route(strategy.route, bytes);
        if telemetry.is_enabled() {
            // Serialization is pure compute: zero-width in virtual time.
            // Its span marks the size fixed here, deferred encode or not.
            let now = started_at.as_nanos();
            telemetry.complete(
                "producer",
                "serialize",
                &self.track,
                now,
                now,
                &[("bytes", bytes.into())],
            );
            telemetry.instant_at(
                "producer",
                "route_selected",
                &self.track,
                now,
                &[
                    ("configured", route_label(strategy.route).into()),
                    ("chosen", route_label(route).into()),
                    ("degraded", (route != strategy.route).into()),
                ],
            );
        }
        let ntensors = ckpt.ntensors();
        let meta_factor = ctx.format.metadata_ops_factor();
        let capture = capture_time(&shared.config.profile, route, bytes, ntensors, meta_factor);
        let plan = SavePlan::new(&shared.config, route);
        // Causal frontier of this save's charged work so far.
        let mut save_done = started_at;
        if plan.capture == CaptureBilling::Lump {
            save_done = charge_at(clock, started_at, capture);
            telemetry.complete(
                "producer",
                "capture",
                &self.track,
                started_at.as_nanos(),
                save_done.as_nanos(),
                &[("bytes", bytes.into())],
            );
        }

        // 2. The full, and its place on the staging tier: two independent
        //    rules. A save that keeps a delta base holds the capture (a
        //    clone sharing the caller's tensors: the caller's next write to
        //    one copies it) and defers the encode, envelope first, to the
        //    full's first reader — a fresh consumer, a `NeedFull` or relay
        //    retry, the durable fallback or the flush — which may never
        //    come; every other save encodes now. A memory route's staging
        //    tier is a capacity ledger: it reserves the version's bytes,
        //    which live only in the update's `Full` cell and whatever
        //    delivers, installs or flushes them. On the PFS route consumers
        //    pull the object, so it is put there (encoding a deferred full
        //    now). Memory tiers are uncharged (the payload landed there as
        //    part of the capture copy); the PFS route's charged write *is*
        //    the capture. Paths are scoped by producer node and training
        //    iteration so concurrent (data-parallel) producers never
        //    collide.
        let capture_arc = plan.retain_base.then(|| Arc::new(ckpt.clone()));
        let path = staging_path(&ckpt.model_name, &self.node, ckpt.iteration);
        let full = Mutex::new(match &capture_arc {
            Some(capture) => Full::Deferred(Arc::clone(capture)),
            None => Full::Encoded(ctx.encode_full(ckpt, false, bytes)),
        });
        match route {
            Route::GpuToGpu => self.gpu.reserve_uncharged(&path, bytes)?,
            Route::HostToHost => self.host.reserve_uncharged(&path, bytes)?,
            Route::PfsStaging => {
                let payload = raw_full(&encoded_full(&full, ctx, bytes).payload, bytes);
                shared.pfs.put_uncharged(&path, payload, ntensors)?;
            }
        }

        // 3. Record metadata (the DB serializes version assignment across
        //    producers).
        let mut record = ModelRecord::new(
            ckpt.model_name.clone(),
            bytes,
            ntensors,
            route.staging_tier().name(),
            path.clone(),
        )
        .at_iteration(ckpt.iteration);
        // Delta mode: retain this checkpoint as a base for future diffs.
        if let Some(capture) = &capture_arc {
            ctx.codec.retain(capture);
        }
        let version = shared.db.put(record.clone());
        record.version = version;
        span.arg("version", version.into());
        span.arg("route", route_label(route).into());
        span.arg("bytes", bytes.into());

        let update = Update {
            record,
            ckpt: capture_arc,
            full: Arc::new(full),
            route,
            frontier: save_done,
        };

        // 4. Deliver. The PFS route is always effectively synchronous
        //    (write-through happened in capture); memory routes honour the
        //    configured mode.
        match plan.deliverer {
            Deliverer::Worker => self.enqueue(Job::Deliver(update.clone())),
            Deliverer::SaveThread => {
                let (sent, frontier) = deliver(ctx, &update, plan.capture, &self.track);
                if plan.capture == CaptureBilling::InFlow && sent == 0 {
                    // Nothing consumed the pipelined capture model: the
                    // snapshot still happened, so bill it directly.
                    charge_at(clock, frontier, capture);
                }
            }
        }

        // 5. Background fault-tolerance flush for memory routes.
        if shared.config.flush_to_pfs && route != Route::PfsStaging {
            self.enqueue(Job::Flush(update));
        }

        // 6. Prune old versions from the staging tiers.
        for stale in shared
            .db
            .prune(&ckpt.model_name, shared.config.keep_versions)
        {
            let path = staging_path(&stale.name, &self.node, stale.iteration);
            self.gpu.remove(&path);
            self.host.remove(&path);
        }

        // The stall is reported analytically rather than read off the
        // global clock: concurrent background work (flusher, async worker)
        // legitimately advances the shared virtual clock and must not be
        // billed to this save.
        let stall = plan.stall_price(&shared.config.profile, route, bytes, ntensors, meta_factor);
        let resumed_at = started_at.add(stall);
        *self.save_frontier.lock().unwrap() = resumed_at;
        Ok(SaveReceipt {
            version,
            bytes,
            stall,
            started_at,
            resumed_at,
        })
    }

    /// The Transfer Selector (Fig. 7): use the configured route unless its
    /// staging tier cannot hold the checkpoint, in which case degrade down
    /// the hierarchy (GPU -> host -> PFS).
    fn select_route(&self, configured: Route, bytes: u64) -> Route {
        match configured {
            Route::GpuToGpu if !self.gpu.has_capacity_for(bytes) => {
                if self.host.has_capacity_for(bytes) {
                    Route::HostToHost
                } else {
                    Route::PfsStaging
                }
            }
            Route::HostToHost if !self.host.has_capacity_for(bytes) => Route::PfsStaging,
            other => other,
        }
    }

    fn enqueue(&self, job: Job) {
        if let Some(tx) = &self.worker_tx {
            // The worker lives as long as the producer; send only fails
            // during teardown, when dropping the job is correct.
            let _ = tx.send(job);
        }
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // Join the worker BEFORE deregistering the reactor task: an async
        // delivery still in flight blocks on the task's job reply, and
        // tearing the task down first would drop that reply on the floor.
        drop(self.worker_tx.take());
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        // Let coalesced deliveries still in flight reach a terminal state
        // (ACK, supersession, or the durable fallback) before the task is
        // torn down — otherwise a drop mid-run would silently discard them.
        self.flush_deliveries();
        self.ctx.viper.shared.reactor.deregister(&self.node);
    }
}

/// Charge `dur` from an explicit causal `base` instead of the clock's
/// current frontier, returning the completion instant. `advance_to` is a
/// max, so a now-based charge racing a concurrent one from another thread
/// yields an interleaving-dependent timeline; charging from a computed
/// instant keeps the virtual timeline deterministic.
pub(crate) fn charge_at(clock: &SimClock, base: SimInstant, dur: Duration) -> SimInstant {
    let done = base.add(dur);
    clock.advance_to(done);
    done
}

/// Consumer-side apply charge from an explicit causal base (the payload's
/// virtual arrival, chained behind any still-running apply); returns when
/// the apply finishes.
pub(crate) fn charge_apply_at(
    viper: &Viper,
    route: Route,
    bytes: u64,
    ntensors: usize,
    base: SimInstant,
) -> SimInstant {
    let dur = apply_time(&viper.shared.config.profile, route, bytes, ntensors);
    charge_at(&viper.shared.clock, base, dur)
}
