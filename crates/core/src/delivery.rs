//! The delivery layer: getting one update's wire payloads to every
//! attached consumer, and knowing when they landed.
//!
//! [`deliver`] / [`DeliveryTask`] drive the payloads the
//! [`PayloadCodec`] framed over the fabric — chunking, CRC, fault
//! injection, NACK/retransmit, and the durable PFS fallback all compose
//! with it. The reliable path is event-driven: the save thread submits
//! one [`DeliveryJob`] to the reactor (blocking on its reply only in
//! non-coalescing mode), and the [`DeliveryTask`] applies the producer's
//! delivery policy to the terminal outcomes of a [`viper_net::FlowSender`],
//! the engine that owns the lanes, flows, ack timers and retransmission
//! rounds.
//!
//! ## Backpressure and coalescing
//!
//! With [`crate::Reliable::coalesce`] the save path does not
//! block at all: admission is unconditional (launch or queue) and its
//! outcome carries nothing the submitter does not already know, so `save`
//! returns the moment the job is posted — wait-free capture-to-return. The
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
//! ## Virtual-time accounting
//!
//! Every charge on the delivery path is *causal*: it starts at the instant
//! the [`Update`] carries (`frontier`) and moves that instant forward —
//! sends go out at it, feedback is handled at its arrival instant, timers
//! at their deadline, the notification a notify latency after the last of
//! them. Nothing here reads the racy `clock.now()` — except the durable
//! fallback's PFS write, because the storage tier charges its own latency
//! from it — so the timeline is a function of configuration and fault
//! seed, not of how the save thread, the async worker, the reactor and the
//! applying consumers interleave.
//!
//! [`PayloadCodec`]: crate::codec::PayloadCodec

use crate::codec::{encode_for, DeltaMemo, WirePayload};
use crate::config::{CaptureBilling, Delivery};
use crate::context::Viper;
use crate::producer::{charge_at, ProducerCtx, Update};
use crate::UPDATE_TOPIC;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use viper_formats::PayloadKind;
use viper_hw::{capture_stage, Route, SimInstant, Stage};
use viper_metastore::ModelRecord;
use viper_net::{
    ChunkedSend, Control, FlowSender, LinkKind, MessageKind, Outbound, Outcome, OutcomeKind,
    ReactorTask, SenderCounters, TaskCtx,
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
    /// Fresh payload-buffer allocations: a full encode that found no
    /// recycled arena buffer (at most one per version, and none for a
    /// delta save no reader asked the full of), and every encoded delta.
    /// Nothing on the delivery path copies a payload — chunk bodies,
    /// fan-out and every resent full are zero-copy views of one buffer.
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
    /// Relay-root failures that rebuilt the tree without the root (the
    /// orphaned members were delivered directly as a counted fallback).
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
/// One reliable fan-out handed to the producer's [`DeliveryTask`] on the
/// reactor. The caller pre-encodes every target's wire payload (so delta
/// diff charges stay on the save path's causal frontier) and submits the
/// job — delivery itself is driven entirely by reactor events: completion
/// mail and virtual-clock ack timers, never a parked thread per consumer.
/// Without coalescing the caller blocks on `reply`, which arrives once
/// every flow is terminal; with coalescing there is no reply and the task
/// drives the update to completion (or supersession) in the background.
pub(crate) struct DeliveryJob {
    /// The version being delivered; its flows start at `update.frontier`.
    /// `update.wire_full` is also what a `NeedFull` retry and an
    /// escalation re-send, and `update.payload` what the deferred durable
    /// fallback writes under coalescing; either encodes a deferred full.
    pub(crate) update: Update,
    pub(crate) link: LinkKind,
    /// `(target node, encoded payload)` in fan-out order. Under
    /// relay-tree distribution this is the tree's *root* only.
    pub(crate) consumers: Vec<(String, WirePayload)>,
    /// The relay-tree delivery group: every member, root first. `None` on
    /// the direct path. The root's ACK resolves (and base-tracks) every
    /// non-escalated member of the group.
    pub(crate) group: Option<Vec<String>>,
    /// Pipelined-capture model every flow's chunks become ready by: the
    /// save's one snapshot, which the sender's lane serializes the flows
    /// behind.
    pub(crate) capture: Option<Stage>,
    pub(crate) track: String,
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

/// Graceful degradation: the wire gave up on at least one consumer, so
/// make this version durable NOW (not just in the background flush) and
/// relocate its metadata record. Returns the record pointing at the PFS
/// copy — consumers recover via the repository pull path — or `None` if
/// the write failed. The durable copy is always the raw full encoding,
/// never a framed or delta payload.
fn durable_fallback(ctx: &ProducerCtx, update: &Update, track: &str) -> Option<ModelRecord> {
    let telemetry = &ctx.viper.shared.config.telemetry;
    let t0 = telemetry.now_ns();
    let relocated = ctx.make_durable(&update.record, update.payload(ctx));
    if relocated.is_some() {
        ctx.counters.pfs_fallbacks.inc();
    }
    telemetry.complete(
        "producer",
        "pfs_fallback",
        track,
        t0,
        telemetry.now_ns(),
        &[("version", update.record.version.into())],
    );
    relocated
}

/// Publish the update notification `frontier` + the notify latency after
/// the delivery it announces; returns how many subscribers it reached and
/// the instant it did.
fn announce(viper: &Viper, notify: ModelRecord, frontier: SimInstant) -> (usize, SimInstant) {
    let shared = &viper.shared;
    let published = charge_at(
        &shared.clock,
        frontier,
        shared.config.profile.notify_latency,
    );
    let notified = shared.bus.publish(UPDATE_TOPIC, notify);
    // Consumer discovery runs on the reactor: nudge every task to drain its
    // subscription (push mode) or check the metadata DB (poll mode).
    shared.reactor.wake_all();
    (notified, published)
}

/// Push `update` to every attached consumer and publish the update
/// notification. For the PFS route consumers pull from the shared tier, so
/// only the notification is sent. The payload travels as a pipelined
/// chunked flow of `ViperConfig::chunk_bytes` chunks (one chunk at 0); a
/// capture billed [`CaptureBilling::InFlow`] is every flow's chunk
/// schedule, overlapping the wire. Every flow starts at the update's
/// frontier: the fabric queues a fan-out on the producer's link, so
/// consumer `k` is served one flow after consumer `k-1`.
///
/// Under [`Delivery::Reliable`] every memory-route send is
/// ACK-gated with NACK-driven retransmission; if a consumer exhausts the
/// retry budget the update degrades to the durable PFS route (written
/// synchronously, relocated in the metadata DB) and the published
/// notification points there, so the consumer's pull path recovers it.
///
/// Returns how many consumers were pushed a payload (admitted, under
/// coalescing) and the instant the caller is done with the update: the
/// notification is out.
pub(crate) fn deliver(
    ctx: &ProducerCtx,
    update: &Update,
    capture: CaptureBilling,
    track: &str,
) -> (usize, SimInstant) {
    let (record, route) = (&update.record, update.route);
    let shared = &ctx.viper.shared;
    let endpoint = &ctx.endpoint;
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
    // Causal frontier of this delivery: every successful send starts at it
    // and extends it to the flow's (or its ACK's) computed completion
    // instant, and the notify latency is charged from it.
    let mut frontier = update.frontier;
    if let Some(link) = link {
        let tag = update.tag();
        let consumers = shared.consumers.read().unwrap().clone();
        let config = &shared.config;
        // Memory routes price no format metadata: the factor is moot.
        let capture = (capture == CaptureBilling::InFlow)
            .then(|| capture_stage(&config.profile, route, record.ntensors, 1.0));
        match config.delivery {
            Delivery::Reliable(options) => {
                // Every flow is ACK-gated. The flows themselves are driven
                // by this producer's reactor task; the save path blocks
                // here only for the job reply, holding zero threads per
                // consumer.
                let eligible: Vec<String> = consumers
                    .into_iter()
                    .filter(|c| c != endpoint.node())
                    .collect();
                // Relay-tree mode: organize the fleet into the deployment's
                // topology and target only the tree root — the group shares
                // one wire image, re-served down the tree by the relays
                // themselves. On the direct path every consumer is a group
                // of one.
                let group = options
                    .relay_fanout
                    .and_then(|fanout| shared.distribution.refresh(&eligible, fanout));
                let mut memo = DeltaMemo::new();
                let mut encode = |members: &[String]| {
                    encode_for(ctx, update, members, track, &mut frontier, &mut memo)
                };
                let targets: Vec<(String, WirePayload)> = match &group {
                    Some(members) => vec![(members[0].clone(), encode(members))],
                    None => eligible
                        .into_iter()
                        .map(|consumer| {
                            let wire = encode(std::slice::from_ref(&consumer));
                            (consumer, wire)
                        })
                        .collect(),
                };
                if !targets.is_empty() {
                    let admitted = targets.len();
                    // Wait-free save path: under coalescing every target is
                    // admitted unconditionally (launched or queued), so there
                    // is nothing to wait for — terminal outcomes surface
                    // through counters and `flush_deliveries`. In blocking
                    // mode the reply arrives once every flow is terminal,
                    // preserving one fan-out at a time.
                    let (reply, reply_rx) = (!options.coalesce).then(channel).unzip();
                    // The fan-out is encoded: the task diffs nothing, so it
                    // gets no base. It holds the capture only through a
                    // deferred full, until a resend encodes it or the
                    // update ends.
                    let mut task_update = update.clone();
                    task_update.ckpt = None;
                    task_update.frontier = frontier;
                    shared.reactor.submit(
                        endpoint.node(),
                        Box::new(DeliveryJob {
                            update: task_update,
                            link,
                            consumers: targets,
                            group,
                            capture,
                            track: track.to_string(),
                            reply,
                        }),
                    );
                    match reply_rx {
                        None => sent = admitted,
                        Some(reply_rx) => {
                            let done = reply_rx.recv().expect("delivery reactor replies");
                            sent = done.delivered;
                            fall_back = done.fall_back;
                            frontier = frontier.max(done.frontier);
                        }
                    }
                }
            }
            Delivery::BestEffort => {
                // The full travels as-is, so its encode-time chunk CRCs
                // apply directly.
                let full = update.wire_full(ctx);
                let mut opts = ChunkedSend::new(config.chunk_bytes)
                    .with_crcs(full.chunk_crcs)
                    .at(update.frontier);
                if let Some(stage) = capture {
                    opts = opts.with_capture(stage);
                }
                for consumer in consumers {
                    if consumer == endpoint.node() {
                        continue;
                    }
                    let arrived = endpoint
                        .send_chunked(&consumer, &tag, full.payload.clone(), link, &opts)
                        .map(|report| report.completed_at);
                    // A deregistered consumer is not an error: it raced shutdown.
                    if let Ok(arrived) = arrived {
                        frontier = frontier.max(arrived);
                        sent += 1;
                    }
                }
            }
        }
    }
    let relocated = fall_back
        .then(|| durable_fallback(ctx, update, track))
        .flatten();
    let notify = relocated.unwrap_or_else(|| record.clone());
    let (notified, frontier) = announce(&ctx.viper, notify, frontier);
    span.arg("pushed", sent.into());
    span.arg("notified", notified.into());
    (sent, frontier)
}

/// One update the [`DeliveryTask`] is driving. Without coalescing at most
/// one exists at a time (the save path blocks on the reply before
/// submitting another); with coalescing several proceed concurrently,
/// serialized per lane.
struct UpdateState {
    /// The version; `update.frontier` moves forward with every ACK.
    update: Update,
    link: LinkKind,
    track: String,
    /// The relay-tree delivery group, root first; `None` on the direct
    /// path.
    group: Option<Vec<String>>,
    /// `None` under coalescing: nobody waits, and a terminal fallback runs
    /// on the task instead.
    reply: Option<Sender<DeliveryDone>>,
    /// Sends not yet resolved (terminal flow or superseded in queue).
    /// Under relay-tree distribution this counts sends the producer itself
    /// drives — one to the tree root, plus one per member escalated to a
    /// direct send — not subtree members.
    remaining: usize,
    delivered: usize,
    fall_back: bool,
    /// Group members escalated to a direct producer send (relay `Miss` or
    /// a failed root): excluded from the group resolution when the root's
    /// group ACK lands.
    escalated: HashSet<String>,
    /// The kind of what is (or was last) on the wire to each target.
    sent: HashMap<String, PayloadKind>,
}

/// The producer's reactor task: the delivery *policy* over a
/// [`FlowSender`], which owns the `(consumer, model)` lanes and every
/// reliable flow this producer has in flight. The engine reports how each
/// send ended, tagged with the update's sequence number; this task decides
/// what that means — codec ACK tracking and group resolution on
/// `Complete`, the full-checkpoint retry on `NeedFull`, a topology rebuild
/// and direct fulls when the relay root is lost, and the durable PFS fallback
/// when a send exhausts its retries with nothing newer queued behind it.
///
/// The task copies no payload bytes: the caller pre-encoded every wire
/// payload, and each full it re-sends is a view of the update's own wire
/// full, with its encode-time chunk CRCs. A delta save's full may not be
/// encoded yet; the task's resend is then its first reader and encodes it
/// here, once (a fault path, priced in wall time only).
pub(crate) struct DeliveryTask {
    ctx: Arc<ProducerCtx>,
    sender: FlowSender<(String, String)>,
    /// Next update sequence number (admission order, strictly increasing —
    /// doubles as the lanes' queue version key and the engine token).
    next_seq: u64,
    updates: HashMap<u64, UpdateState>,
    /// Drain barriers waiting for `updates` to empty.
    waiters: Vec<Sender<()>>,
}

impl DeliveryTask {
    pub(crate) fn new(ctx: Arc<ProducerCtx>) -> Self {
        let config = &ctx.viper.shared.config;
        let sender = FlowSender::new(
            Arc::clone(&ctx.endpoint),
            config.retry,
            config.telemetry.clone(),
            "producer",
            SenderCounters {
                retransmits: ctx.counters.retransmits.clone(),
                stale_feedback: ctx.counters.stale_feedback.clone(),
            },
        );
        DeliveryTask {
            ctx,
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
        self.ctx
            .counters
            .queue_depth
            .set(self.sender.backlog() as i64);
    }

    /// Update `seq` as its wire full for `to`, ready at `at`: the
    /// `NeedFull` retry and both escalation paths. Encodes a deferred full
    /// on this reactor thread.
    fn full_send(&mut self, seq: u64, to: &str, at: SimInstant) -> Outbound {
        let state = self
            .updates
            .get_mut(&seq)
            .expect("a full send belongs to an update");
        let chunk_bytes = self.ctx.viper.shared.config.chunk_bytes;
        state.sent.insert(to.to_string(), PayloadKind::Full);
        let full = state.update.wire_full(&self.ctx);
        Outbound {
            token: seq,
            to: to.to_string(),
            tag: state.update.tag(),
            link: state.link,
            payload: full.payload,
            opts: ChunkedSend::new(chunk_bytes).with_crcs(full.chunk_crcs),
            ready_at: at,
            track: state.track.clone(),
        }
    }

    /// Deliver update `seq` to subtree member `member` directly, as its
    /// wire full on the member's own lane.
    fn escalate(&mut self, ctx: &mut TaskCtx<'_>, seq: u64, member: &str, at: SimInstant) {
        let state = self
            .updates
            .get_mut(&seq)
            .expect("an escalation belongs to an update");
        state.remaining += 1;
        let lane = (member.to_string(), state.update.record.name.clone());
        let send = self.full_send(seq, member, at);
        self.sender.admit(ctx, lane, seq, send);
    }

    /// The relay root failed (exhausted retries or vanished) while `seq`
    /// still owed its group the update: rebuild the topology without it
    /// and send direct fulls to every stranded member.
    /// Counted — this is the degraded path, not the design point.
    fn relay_fallback(&mut self, ctx: &mut TaskCtx<'_>, seq: u64, root: &str, at: SimInstant) {
        let Some(state) = self.updates.get_mut(&seq) else {
            return;
        };
        let Some(members) = &state.group else {
            return;
        };
        let stranded: Vec<String> = members[1..]
            .iter()
            .filter(|m| !state.escalated.contains(*m))
            .cloned()
            .collect();
        state.escalated.extend(stranded.iter().cloned());
        self.ctx.counters.reparent_events.inc();
        self.ctx.viper.shared.distribution.note_failed(root);
        let telemetry = &self.ctx.viper.shared.config.telemetry;
        if telemetry.is_enabled() {
            telemetry.instant_at(
                "producer",
                "reparent",
                &state.track,
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
    /// relay exhausted its own retry budget toward it. Deliver the
    /// update's wire full directly from the producer and exclude the
    /// member from its root's group resolution.
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
                let state = self.updates.get_mut(&seq)?;
                let group = state.group.as_ref().filter(|g| g[0] == *root)?;
                (group.contains(&member) && state.escalated.insert(member.clone())).then_some(seq)
            });
        let Some(seq) = escalation else {
            self.ctx.counters.stale_feedback.inc();
            return;
        };
        let state = &self.updates[&seq];
        self.ctx.codec.forget(&member, &state.update.record.name);
        self.ctx.counters.delta_fallbacks.inc();
        let telemetry = &self.ctx.viper.shared.config.telemetry;
        if telemetry.is_enabled() {
            telemetry.instant_at(
                "producer",
                "relay_miss",
                &state.track,
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
        let state = self.updates.remove(&seq).expect("checked above");
        if let Some(reply) = &state.reply {
            let _ = reply.send(DeliveryDone {
                delivered: state.delivered,
                fall_back: state.fall_back,
                frontier: state.update.frontier,
            });
        } else if state.fall_back {
            // The wire gave up on at least one consumer with nothing newer
            // queued behind it: re-publish the notification against the
            // durable copy.
            if let Some(notify) = durable_fallback(&self.ctx, &state.update, &state.track) {
                announce(&self.ctx.viper, notify, state.update.frontier);
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
        let shared = Arc::clone(&self.ctx.viper.shared);
        let telemetry = &shared.config.telemetry;
        let Some(state) = self.updates.get_mut(&seq) else {
            debug_assert!(false, "a send outlived its update");
            return;
        };
        let model = state.update.record.name.clone();
        let is_root = state.group.as_ref().is_some_and(|g| g[0] == to);
        match kind {
            OutcomeKind::Superseded => {
                // A newer version collapsed this one out of the lane's
                // queue: it will never reach `to`.
                self.ctx.counters.updates_superseded.inc();
                telemetry
                    .counter(&format!(
                        "producer.{}.updates_superseded.{to}",
                        self.ctx.endpoint.node()
                    ))
                    .inc();
                if telemetry.is_enabled() {
                    telemetry.instant_at(
                        "producer",
                        "update_superseded",
                        &state.track,
                        at.as_nanos(),
                        &[
                            ("consumer", to.as_str().into()),
                            ("version", state.update.record.version.into()),
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
                let iteration = state.update.record.iteration;
                if is_root {
                    // A relay root's group ACK: its entire subtree has
                    // installed the update. One round-trip resolves (and
                    // base-tracks) every member the producer did not have
                    // to escalate to a direct send.
                    self.ctx.counters.group_acks.inc();
                    let mut resolved = 0;
                    for member in state.group.iter().flatten() {
                        if !state.escalated.contains(member) {
                            self.ctx.codec.note_acked(member, &model, iteration);
                            resolved += 1;
                        }
                    }
                    state.delivered += resolved;
                    if telemetry.is_enabled() {
                        telemetry.instant_at(
                            "producer",
                            "group_ack",
                            &state.track,
                            at.as_nanos(),
                            &[("root", to.as_str().into()), ("members", resolved.into())],
                        );
                    }
                } else {
                    self.ctx.codec.note_acked(&to, &model, iteration);
                    state.delivered += 1;
                }
                state.update.frontier = state.update.frontier.max(at);
            }
            OutcomeKind::NeedFull => {
                state.update.frontier = state.update.frontier.max(at);
                // Only the consumer's envelope check refuses a full, and it
                // would refuse the same bytes again: that send fails here.
                if state.sent[&to] == PayloadKind::Delta {
                    // The consumer lost the base this delta applies to
                    // (restart, missed flow): reset its tracking and
                    // re-send the update as a full on a fresh flow. The
                    // lane stays held by this update, and the slot open —
                    // the retry's own outcome resolves it.
                    self.ctx.codec.forget(&to, &model);
                    self.ctx.counters.delta_fallbacks.inc();
                    if telemetry.is_enabled() {
                        telemetry.instant_at(
                            "producer",
                            "delta_rejected",
                            &state.track,
                            at.as_nanos(),
                            &[
                                ("consumer", to.as_str().into()),
                                ("kind", PayloadKind::Delta.label().into()),
                            ],
                        );
                    }
                    let send = self.full_send(seq, &to, at);
                    self.sender.relaunch(ctx, (to, model), send);
                    return;
                }
            }
            OutcomeKind::Exhausted { backlog } => {
                self.ctx.counters.exhausted.inc();
                self.ctx.codec.forget(&to, &model);
                if telemetry.is_enabled() {
                    telemetry.instant_at(
                        "producer",
                        "retries_exhausted",
                        &state.track,
                        at.as_nanos(),
                        &[("consumer", to.as_str().into())],
                    );
                }
                // If a newer version is already queued behind this lane it
                // supersedes the failed one for this consumer: skip the
                // durable fallback and let the newer flow launch instead.
                if backlog == 0 {
                    state.fall_back = true;
                }
                state.update.frontier = state.update.frontier.max(at);
                // A dead relay root strands its whole group: rebuild the
                // topology without it and deliver to the orphans directly.
                // The root itself still takes the durable-fallback path
                // above.
                if is_root {
                    self.relay_fallback(ctx, seq, &to, at);
                }
            }
        }
        if let Some(state) = self.updates.get_mut(&seq) {
            state.remaining -= 1;
        }
        self.finish_if_done(seq);
    }
}

impl ReactorTask for DeliveryTask {
    fn on_mail(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(msg) = self.ctx.endpoint.try_recv() {
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
            // the sender engine's handling of the root flow.
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
        let DeliveryJob {
            update,
            link,
            consumers,
            group,
            capture,
            track,
            reply,
        } = job;
        debug_assert!(
            reply.is_none() || self.updates.is_empty(),
            "one reliable fan-out per producer at a time without coalescing"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let sent = consumers
            .iter()
            .map(|(consumer, wire)| (consumer.clone(), wire.kind))
            .collect();
        let (tag, model, ready_at) = (update.tag(), update.record.name.clone(), update.frontier);
        let chunk_bytes = self.ctx.viper.shared.config.chunk_bytes;
        self.updates.insert(
            seq,
            UpdateState {
                update,
                link,
                track: track.clone(),
                group,
                reply,
                remaining: consumers.len(),
                delivered: 0,
                fall_back: false,
                escalated: HashSet::new(),
                sent,
            },
        );
        for (consumer, wire) in consumers {
            // Hand the encode-time chunk CRCs to the fabric so the send
            // does not re-read the payload to checksum it.
            let mut opts = ChunkedSend::new(chunk_bytes).with_crcs(wire.crcs);
            if let Some(stage) = capture {
                opts = opts.with_capture(stage);
            }
            let send = Outbound {
                token: seq,
                to: consumer.clone(),
                tag: tag.clone(),
                link,
                payload: wire.bytes,
                opts,
                ready_at,
                track: track.clone(),
            };
            self.sender.admit(ctx, (consumer, model.clone()), seq, send);
            self.drain_outcomes(ctx);
        }
        self.finish_if_done(seq);
    }
}
