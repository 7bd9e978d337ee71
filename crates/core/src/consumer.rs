//! The consumer side: push-notified model loading into a double-buffered
//! slot, plus the paper's blocking `load_weights()` API.
//!
//! Since the delivery-reactor rework the consumer owns **no thread**: a
//! [`ConsumerTask`] registered on the deployment's reactor drains the
//! endpoint when the fabric signals mail, reaps stale partial flows on a
//! virtual-clock timer, and runs update discovery on broadcast wakeups.
//! The old listener thread's 2 ms `recv_timeout` poll is gone entirely —
//! an idle consumer consumes no CPU and performs zero reap scans.

use crate::config::{Delivery, DiscoveryMode, Reliable};
use crate::context::Viper;
use crate::producer::charge_apply_at;
use crate::relay_role::RelayState;
use crate::slot::ModelSlot;
use crate::{Result, ViperError, UPDATE_TOPIC};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use viper_formats::{
    delta, wire, Checkpoint, CheckpointFormat, DeltaCheckpoint, FormatError, PayloadKind,
};
use viper_hw::{apply_time, Route, SimInstant, Tier, SWAP_NUDGE};
use viper_net::{
    deterministic_jitter, AssembledFlow, Control, Endpoint, LinkKind, ReactorTask, TaskCtx,
};
use viper_telemetry::{Counter, Gauge};

/// Timer token for the stale-flow reap timer (flow ids are never handed to
/// the consumer task's timers, so 0 is free).
pub(crate) const REAP_TIMER: u64 = 0;

/// Details of the most recent completed model update on the consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateInfo {
    /// Metadata version installed.
    pub version: u64,
    /// Training iteration of the installed model.
    pub iteration: u64,
    /// Virtual time the swap completed.
    pub swapped_at: SimInstant,
}

pub(crate) struct ConsumerState {
    slot: ModelSlot,
    latest: Mutex<Option<UpdateInfo>>,
    cond: Condvar,
    /// Version returned by the most recent `load_weights` call, so repeated
    /// calls step through updates instead of racing the listener.
    last_loaded: Mutex<u64>,
    /// Chunks rejected because their body failed the CRC check.
    ///
    /// This and the counters below live in the deployment's telemetry
    /// metrics registry under per-node names
    /// (`consumer.{node}.corrupt_chunks`, ...); metrics stay live even when
    /// trace recording is disabled, so the public accessors always report.
    corrupt_chunks: Counter,
    /// Chunk-marked messages whose framing did not decode.
    malformed_chunks: Counter,
    /// Deliveries skipped because their tag carried no parseable version.
    malformed_tags: Counter,
    /// NACK control frames sent back to senders.
    nacks_sent: Counter,
    /// Stale partial flows abandoned (buffer evicted) after the NACK budget.
    flows_abandoned: Counter,
    /// Delta payloads reconstructed and installed via `delta::apply_owned`.
    deltas_applied: Counter,
    /// `NeedFull` control replies sent (delta base missing or stale).
    fulls_requested: Counter,
    /// Payload bytes memcpy'd during flow reassembly. Zero while every
    /// chunk body is a view of its sender's one allocation (the views are
    /// re-joined); a flow with a body from elsewhere is gathered once.
    bytes_copied: Counter,
    /// Stale-flow reap scans performed (timer-driven). Zero while idle:
    /// the reap timer is armed only while partial flows exist.
    reap_scans: Counter,
    /// Flows this node re-served to relay-tree children from its own
    /// already-framed copy (`relay.{node}.relay_reserves`). Zero for
    /// leaves and with the relay tree off.
    pub(crate) relay_reserves: Counter,
    /// Updates currently queued behind this node's busy relay lanes
    /// (`relay.{node}.queue_depth`) — the subtree backpressure signal.
    pub(crate) relay_queue_depth: Gauge,
    /// The newest [`Consumer::MAX_ERRORS`] delivery errors the reactor task
    /// observed (abandoned flows etc.), oldest first.
    errors: Mutex<VecDeque<ViperError>>,
    /// Telemetry track for this consumer's events.
    pub(crate) track: String,
}

impl ConsumerState {
    /// Record a delivery error, dropping the oldest past the bound.
    fn error(&self, err: ViperError) {
        let mut errors = self.errors.lock().unwrap();
        if errors.len() == Consumer::MAX_ERRORS {
            errors.pop_front();
        }
        errors.push_back(err);
    }
}

/// A consumer attached to a Viper deployment, serving one model.
pub struct Consumer {
    viper: Viper,
    node: String,
    model_name: String,
    state: Arc<ConsumerState>,
}

impl Consumer {
    /// How many of the newest delivery errors a consumer keeps: as many as
    /// the completed flow ids a receiver remembers per sender.
    pub const MAX_ERRORS: usize = 256;

    pub(crate) fn attach(viper: Viper, node: &str, model_name: &str) -> Self {
        let endpoint = Arc::new(viper.shared.fabric.register(node));
        viper
            .shared
            .consumers
            .write()
            .unwrap()
            .push(node.to_string());
        let subscription = viper.shared.bus.subscribe(UPDATE_TOPIC);

        let telemetry = &viper.shared.config.telemetry;
        let state = Arc::new(ConsumerState {
            slot: ModelSlot::new(),
            latest: Mutex::new(None),
            cond: Condvar::new(),
            last_loaded: Mutex::new(0),
            corrupt_chunks: telemetry.counter(&format!("consumer.{node}.corrupt_chunks")),
            malformed_chunks: telemetry.counter(&format!("consumer.{node}.malformed_chunks")),
            malformed_tags: telemetry.counter(&format!("consumer.{node}.malformed_tags")),
            nacks_sent: telemetry.counter(&format!("consumer.{node}.nacks_sent")),
            flows_abandoned: telemetry.counter(&format!("consumer.{node}.flows_abandoned")),
            deltas_applied: telemetry.counter(&format!("consumer.{node}.deltas_applied")),
            fulls_requested: telemetry.counter(&format!("consumer.{node}.fulls_requested")),
            bytes_copied: telemetry.counter(&format!("consumer.{node}.bytes_copied")),
            reap_scans: telemetry.counter(&format!("consumer.{node}.reap_scans")),
            relay_reserves: telemetry.counter(&format!("relay.{node}.relay_reserves")),
            relay_queue_depth: telemetry.gauge(&format!("relay.{node}.queue_depth")),
            errors: Mutex::new(VecDeque::new()),
            track: format!("consumer:{node}"),
        });
        let format = viper.shared.config.format.build();

        // All consumer-side event handling — reassembly, CRC checking,
        // feedback, reaping, discovery — lives on the deployment's reactor.
        // No per-consumer thread, no poll loop.
        let relay = RelayState::new(&viper, &endpoint);
        viper.shared.reactor.register(
            node,
            Box::new(ConsumerTask {
                viper: viper.clone(),
                endpoint,
                subscription,
                state: Arc::clone(&state),
                model_name: model_name.to_string(),
                format,
                assembler: viper_net::FlowAssembler::new(),
                reassembly_copied: 0,
                apply_free: SimInstant::ZERO,
                generations: HashMap::new(),
                relay,
            }),
        );

        Consumer {
            viper,
            node: node.to_string(),
            model_name: model_name.to_string(),
            state,
        }
    }

    /// The node this consumer runs on.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The model this consumer serves.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// The model currently serving inferences, if any update has arrived.
    pub fn current(&self) -> Option<Arc<Checkpoint>> {
        self.state.slot.current()
    }

    /// Training iteration of the currently served model.
    pub fn current_iteration(&self) -> Option<u64> {
        self.state.slot.current_iteration()
    }

    /// Info about the most recent completed update.
    pub fn last_update(&self) -> Option<UpdateInfo> {
        *self.state.latest.lock().unwrap()
    }

    /// How far the served model lags the newest *recorded* version of this
    /// model: `(version lag, iteration lag)`. `(0, 0)` when fully fresh;
    /// `None` when the metadata DB has never seen the model.
    ///
    /// This is the signal the paper's optional Stats Manager would export —
    /// a consumer serving a stale replica is exactly what Viper's
    /// low-latency updates are meant to prevent.
    pub fn staleness(&self) -> Option<(u64, u64)> {
        let newest = self.viper.shared.db.latest(&self.model_name)?;
        let (cur_version, cur_iter) = match self.last_update() {
            Some(u) => (u.version, u.iteration),
            None => (0, 0),
        };
        Some((
            newest.version.saturating_sub(cur_version),
            newest.iteration.saturating_sub(cur_iter),
        ))
    }

    /// Completed update count (slot swaps).
    pub fn updates_applied(&self) -> u64 {
        self.state.slot.swap_count()
    }

    /// Chunks rejected because their body failed the CRC check.
    pub fn corrupt_chunks(&self) -> u64 {
        self.state.corrupt_chunks.get()
    }

    /// Chunk-marked messages whose framing did not decode (header damaged
    /// in flight).
    pub fn malformed_chunks(&self) -> u64 {
        self.state.malformed_chunks.get()
    }

    /// Deliveries skipped because their tag carried no parseable version.
    pub fn malformed_tags(&self) -> u64 {
        self.state.malformed_tags.get()
    }

    /// NACK control frames this consumer sent back to senders.
    pub fn nacks_sent(&self) -> u64 {
        self.state.nacks_sent.get()
    }

    /// Stale partial flows abandoned (reassembly buffer evicted) after the
    /// NACK budget ran out.
    pub fn flows_abandoned(&self) -> u64 {
        self.state.flows_abandoned.get()
    }

    /// Delta payloads reconstructed against the served base and installed.
    pub fn deltas_applied(&self) -> u64 {
        self.state.deltas_applied.get()
    }

    /// Tensors copied across all delta reconstructions: zero by
    /// construction. Changed tensors move out of the decoded delta, and an
    /// unchanged one is a clone of the base's tensor, which shares its
    /// elements rather than copying them.
    pub fn apply_tensor_copies(&self) -> u64 {
        0
    }

    /// `NeedFull` replies sent because a delta's base was missing or stale
    /// (the producer re-sends the update as a full checkpoint).
    pub fn fulls_requested(&self) -> u64 {
        self.state.fulls_requested.get()
    }

    /// Payload bytes memcpy'd during flow reassembly. Zero while every
    /// chunk body is a view of its sender's one allocation — single- and
    /// multi-chunk flows alike re-join the received views; a flow with a
    /// body from another allocation is gathered into one buffer, once.
    pub fn bytes_copied(&self) -> u64 {
        self.state.bytes_copied.get()
    }

    /// Stale-flow reap scans performed by the reactor task. Zero while the
    /// consumer is idle or every flow completes in the batch it arrived in:
    /// the reap timer is armed only while a partial flow exists.
    pub fn reap_scans(&self) -> u64 {
        self.state.reap_scans.get()
    }

    /// Flows this node re-served to relay-tree children from its own
    /// already-framed copy. Zero for leaf consumers and with the relay
    /// tree off; a relay node counts one per child per update (plus one
    /// per queued serve launched after a lane freed).
    pub fn relay_reserves(&self) -> u64 {
        self.state.relay_reserves.get()
    }

    /// Updates currently queued behind this node's busy relay lanes —
    /// the subtree backpressure signal. Zero at quiescence: every queued
    /// serve either launched or was collapsed by a newer version.
    pub fn relay_queue_depth(&self) -> i64 {
        self.state.relay_queue_depth.get()
    }

    /// The newest delivery errors the reactor task has observed, oldest
    /// first: at most [`MAX_ERRORS`](Self::MAX_ERRORS), while the
    /// `malformed_tags` and `flows_abandoned` counters count every one.
    pub fn delivery_errors(&self) -> Vec<ViperError> {
        self.state.errors.lock().unwrap().iter().cloned().collect()
    }

    /// Block until a model *newer than the one this method last returned*
    /// is available, then return it — the paper's `load_weights()` API.
    /// The first call returns the first installed model; each subsequent
    /// call returns a strictly newer version (possibly skipping
    /// intermediate ones if several arrived in between).
    ///
    /// `timeout` is wall-clock: the caller's thread waits for the
    /// deployment's reactor thread, which installs each update, to signal
    /// the swap.
    pub fn load_weights(&self, timeout: Duration) -> Result<Arc<Checkpoint>> {
        let deadline = Instant::now() + timeout;
        let mut last_loaded = self.state.last_loaded.lock().unwrap();
        let mut latest = self.state.latest.lock().unwrap();
        loop {
            if let Some(info) = *latest {
                if info.version > *last_loaded {
                    *last_loaded = info.version;
                    drop(latest);
                    return self
                        .current()
                        .ok_or_else(|| ViperError::Invalid("swap recorded but slot empty".into()));
                }
            }
            if Instant::now() >= deadline {
                return Err(ViperError::Timeout {
                    waiting_for: format!("model {} > v{}", self.model_name, *last_loaded),
                });
            }
            latest = self
                .state
                .cond
                .wait_timeout(latest, deadline.saturating_duration_since(Instant::now()))
                .unwrap()
                .0;
        }
    }

    /// Recover the newest checkpoint that survives on the PFS — the paper's
    /// fault-tolerance path (§4.4: "all historical DNN models are flushed
    /// to the PFS through a background thread").
    ///
    /// A consumer that (re)starts after the producer's memory tiers are
    /// gone walks its model's version history newest-first, reads the first
    /// record whose checkpoint lives on the PFS, and installs it. Returns
    /// the recovered checkpoint, or [`ViperError::UnknownModel`] if no
    /// durable version exists.
    pub fn recover(&self) -> Result<Arc<Checkpoint>> {
        let format = self.viper.shared.config.format.build();
        let history = self.viper.shared.db.history(&self.model_name);
        if history.is_empty() {
            return Err(ViperError::UnknownModel(self.model_name.clone()));
        }
        for record in history.iter().rev() {
            if record.location != Tier::Pfs.name() {
                continue;
            }
            // An unreadable or corrupt durable copy: try an older one.
            if !install_from_pfs(&self.viper, &self.state, &*format, record, "recover") {
                continue;
            }
            return self
                .current()
                .ok_or_else(|| ViperError::Invalid("recovered model vanished from slot".into()));
        }
        Err(ViperError::UnknownModel(format!(
            "{}: no durable (PFS) version in {} records",
            self.model_name,
            history.len()
        )))
    }

    /// Wait (up to `timeout`) until *any* model version is installed and
    /// return it. Unlike [`Consumer::load_weights`] this returns
    /// immediately if a model is already being served.
    pub fn wait_for_model(&self, timeout: Duration) -> Result<Arc<Checkpoint>> {
        let deadline = Instant::now() + timeout;
        let mut latest = self.state.latest.lock().unwrap();
        loop {
            if latest.is_some() {
                drop(latest);
                return self
                    .current()
                    .ok_or_else(|| ViperError::Invalid("swap recorded but slot empty".into()));
            }
            if Instant::now() >= deadline {
                return Err(ViperError::Timeout {
                    waiting_for: format!("first version of model {}", self.model_name),
                });
            }
            latest = self
                .state
                .cond
                .wait_timeout(latest, deadline.saturating_duration_since(Instant::now()))
                .unwrap()
                .0;
        }
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        // Deregistering is synchronous: when it returns the task (and its
        // endpoint, whose drop detaches the node from the fabric) is gone,
        // so no further event can touch this consumer's state.
        self.viper.shared.reactor.deregister(&self.node);
        self.viper
            .shared
            .consumers
            .write()
            .unwrap()
            .retain(|n| n != &self.node);
    }
}

/// A batch of CRC-corrupt chunks of one flow observed in one mail drain.
/// They are NACKed together — one control frame per damaged flow per drain
/// — instead of one NACK per chunk, so a burst of corruption triggers one
/// retransmission round, not a NACK storm racing its own repairs.
struct CorruptBatch {
    from: String,
    flow_id: u64,
    tag: String,
    link: LinkKind,
    /// The damaged chunk indices, each once: the assembler reports a
    /// corrupt index once per reap, so a body the link corrupted and then
    /// duplicated is NACKed once.
    chunks: Vec<u32>,
    /// Latest arrival instant among the batch's corrupt chunks — the
    /// causal instant the NACK can first be sent.
    latest: SimInstant,
}

/// The consumer's reactor task. Owns everything the old listener thread
/// owned — reassembly state, the apply pipeline's causal cursor, the
/// update subscription — but is driven by events instead of a poll loop:
///
/// * **mail** (fabric enqueued messages): drain, verify and assemble each
///   chunk in arrival order, reply ACK / NACK / NeedFull stamped with the
///   flow's current retransmission generation;
/// * **timer** (virtual-clock deadline): reap stale partial flows, armed
///   only while a partial flow exists;
/// * **wake** (update announcement): run discovery (push subscription or
///   the polling baseline).
pub(crate) struct ConsumerTask {
    pub(crate) viper: Viper,
    pub(crate) endpoint: Arc<Endpoint>,
    subscription: viper_metastore::Subscription<viper_metastore::ModelRecord>,
    pub(crate) state: Arc<ConsumerState>,
    model_name: String,
    format: Box<dyn CheckpointFormat>,
    /// Chunked flows reassemble here; the double-buffered slot only ever
    /// sees whole payloads, so a partially transferred model can never be
    /// observed (let alone served).
    assembler: viper_net::FlowAssembler,
    /// Mirror of the assembler's cumulative gather-copy count already
    /// published to the telemetry counter.
    reassembly_copied: u64,
    /// Virtual instant the previous apply finishes (applies serialize).
    apply_free: SimInstant,
    /// Current retransmission generation per flow, learned from the
    /// producer's [`Control::Round`] frames (which precede each round's
    /// chunks in fabric order). Echoed back in every feedback frame so the
    /// producer can drop feedback about superseded rounds. Entries are
    /// pruned when the flow completes or is abandoned (for a relayed
    /// flow: when its fan resolves, so the group ACK is stamped with the
    /// producer's *current* round).
    pub(crate) generations: HashMap<(String, u64), u64>,
    /// Relay-tree re-serve state (inert unless the tree is enabled and
    /// this node has children in the current topology).
    pub(crate) relay: RelayState,
}

impl ConsumerTask {
    /// The generation to stamp into feedback about `(from, flow_id)`.
    pub(crate) fn generation_of(&self, from: &str, flow_id: u64) -> u64 {
        self.generations
            .get(&(from.to_string(), flow_id))
            .copied()
            .unwrap_or(0)
    }

    /// Answer completed `flow` at `at` — `NeedFull` or an ACK, stamped with
    /// the flow's current generation — and forget that generation: the
    /// flow is over.
    fn answer(&mut self, flow: &AssembledFlow, need_full: bool, at: SimInstant) {
        let flow_id = flow.flow_id;
        let generation = self.generation_of(&flow.from, flow_id);
        let reply = if need_full {
            Control::NeedFull {
                flow_id,
                generation,
            }
        } else {
            Control::Ack {
                flow_id,
                generation,
            }
        };
        let _ = self
            .endpoint
            .send_control_at(&flow.from, &flow.tag, &reply, flow.link, at);
        self.generations.remove(&(flow.from.clone(), flow_id));
    }

    /// NACK chunks `missing` of flow `flow_id` back to `from`, stamped with
    /// the flow's current generation. The frame leaves at `at` — the causal
    /// instant of what it reports — plus a deterministic per-(consumer,
    /// round) jitter, so a fault burst hitting many consumers staggers its
    /// NACK replies instead of synchronizing a retransmission storm.
    fn nack(
        &self,
        from: &str,
        tag: &str,
        link: LinkKind,
        flow_id: u64,
        missing: Vec<u32>,
        at: SimInstant,
    ) {
        let generation = self.generation_of(from, flow_id);
        let missing_count = missing.len();
        let nack = Control::Nack {
            flow_id,
            generation,
            missing,
        };
        let nack_at = at.add(deterministic_jitter(self.endpoint.node(), generation));
        if self
            .endpoint
            .send_control_at(from, tag, &nack, link, nack_at)
            .is_ok()
        {
            self.state.nacks_sent.inc();
            self.viper.shared.config.telemetry.instant(
                "consumer",
                "nack",
                &self.state.track,
                &[
                    ("flow_id", flow_id.into()),
                    ("missing", missing_count.into()),
                ],
            );
        }
    }

    /// Verify, apply, and install one reassembled flow. The apply
    /// cost is derived from the link the payload actually traversed, not
    /// the configured default — the Transfer Selector may have rerouted
    /// under pressure. The charge is based on the payload's virtual
    /// *arrival* (chained behind any apply still in progress on this
    /// consumer), never on `clock.now()`: the producer advances the shared
    /// clock concurrently, and a now-based charge would make install
    /// timestamps depend on thread scheduling instead of on the modeled
    /// timeline.
    ///
    /// Returns `true` when the payload was a delta this consumer cannot
    /// apply (base missing or stale): the caller answers the flow with a
    /// `NeedFull` control reply instead of an ACK, and the producer
    /// re-sends the update as a full checkpoint.
    ///
    /// The flow's bytes were CRC-verified chunk by chunk on arrival, so the
    /// format footer's verdict comes from those chunk CRCs
    /// ([`AssembledFlow::body_crc`]) and the body is not read a second time:
    /// the decode installs each tensor as a view of `flow.payload` where its
    /// bytes are 4-aligned (always, for a buffer the allocator handed out).
    /// Nothing is copied, and the installed model pins the payload's
    /// allocation until it is displaced (DESIGN.md, "Payload ownership").
    fn apply_payload(&mut self, flow: &AssembledFlow) -> bool {
        let (link, tag, payload) = (flow.link, flow.tag.as_str(), &flow.payload);
        let viper = &self.viper;
        let state = &self.state;
        let telemetry = &viper.shared.config.telemetry;
        let route = match link {
            LinkKind::GpuDirect => Route::GpuToGpu,
            _ => Route::HostToHost,
        };
        // A tag without a parseable version is a malformed delivery:
        // skip and count it rather than silently installing it as v0.
        let Some(version) = tag.rsplit(':').next().and_then(|v| v.parse::<u64>().ok()) else {
            state.malformed_tags.inc();
            state.error(ViperError::Invalid(format!(
                "malformed delivery tag: {tag}"
            )));
            return false;
        };
        let (kind, start) = match self.envelope(payload) {
            Ok(parts) => parts,
            Err(e) => {
                // CRC-clean flow, broken envelope: unusable as-is, so
                // recover by asking for a full checkpoint.
                state.error(ViperError::Format(e));
                return true;
            }
        };
        let body = payload.slice(start..);
        // CRC of the body minus its 4-byte footer (of nothing, for a body
        // too short to have one: the decode then fails as truncated).
        let body_crc = flow.body_crc(start);
        let ckpt = match kind {
            PayloadKind::Full => {
                let Ok(ckpt) = self.format.decode_verified(&body, body_crc) else {
                    return false;
                };
                ckpt
            }
            PayloadKind::Delta => {
                let Ok(d) = DeltaCheckpoint::decode_verified(&body, body_crc) else {
                    return true;
                };
                if d.model_name != self.model_name {
                    // Not this consumer's model: drop it silently, exactly
                    // like the full path (an ACK still attests receipt).
                    return false;
                }
                // Reconstruct against the currently served base *before*
                // the atomic install-if-newer swap; a missing or stale base
                // means the delta is unusable and a full must be re-sent.
                let Some(base) = state.slot.current() else {
                    return true;
                };
                if base.iteration != d.base_iteration {
                    return true;
                }
                // The decoded delta is owned, so reconstruction *moves*
                // changed tensors into the new checkpoint; unchanged ones
                // are clones of the base's, which share its elements.
                let Ok((ckpt, _)) = delta::apply_owned(&base, d) else {
                    return true;
                };
                state.deltas_applied.inc();
                ckpt
            }
        };
        if ckpt.model_name != self.model_name {
            return false;
        }
        // The apply is charged on the bytes that actually traveled — a
        // delta's reconstruction pass is proportionally cheaper.
        let bytes = payload.len() as u64;
        // The consumer acts on the update *notification*, which trails the
        // pushed payload by the pubsub hop — the `notify` term of
        // `UpdateCosts::update_latency`.
        let notified = flow
            .completed_at
            .add(viper.shared.config.profile.notify_latency);
        let start = notified.max(self.apply_free);
        let done = charge_apply_at(viper, route, bytes, ckpt.ntensors(), start).add(SWAP_NUDGE);
        self.apply_free = done;
        install_at(viper, state, ckpt, version, done);
        // A Complete (X) event rather than Begin/End: recover() on the
        // user's thread may install on this track concurrently, and X
        // events cannot break span nesting.
        telemetry.complete(
            "consumer",
            "install",
            &state.track,
            start.as_nanos(),
            done.as_nanos(),
            &[
                ("version", version.into()),
                ("bytes", bytes.into()),
                ("kind", kind.label().into()),
            ],
        );
        false
    }

    /// The body layout of a received wire payload and the length of the
    /// envelope in front of it. With delta transfer on, the wire carries an
    /// explicit payload-kind envelope and the body is dispatched by header
    /// — never sniffed; a payload without a well-formed one is an error.
    /// With it off, the bytes are exactly the raw configured format.
    fn envelope(&self, payload: &[u8]) -> std::result::Result<(PayloadKind, usize), FormatError> {
        match self.viper.shared.config.delivery {
            Delivery::Reliable(Reliable { delta: true, .. }) => {
                let (kind, body) = wire::unframe(payload)?;
                Ok((kind, payload.len() - body.len()))
            }
            _ => Ok((PayloadKind::Full, 0)),
        }
    }

    /// Drain the endpoint completely, verify each message in arrival
    /// order, and act on every resulting flow status. Draining everything
    /// before replying or reaping means chunks already delivered but not
    /// yet processed are never mistaken for losses.
    fn drain(&mut self, ctx: &mut TaskCtx<'_>) {
        let mut msgs = Vec::new();
        while let Some(msg) = self.endpoint.try_recv() {
            msgs.push(msg);
        }
        if msgs.is_empty() {
            return;
        }
        let telemetry = self.viper.shared.config.telemetry.clone();
        let reliable = matches!(self.viper.shared.config.delivery, Delivery::Reliable(_));
        let mut corrupt: Vec<CorruptBatch> = Vec::new();
        // The batch's body CRCs come from one fork-join over every core;
        // the assembler then compares each with its chunk header here, in
        // arrival order, so behavior is independent of how the bodies were
        // checksummed and of how a flow's chunks were split across drains.
        let mut crcs = viper_net::FlowAssembler::verify_batch(&msgs).into_iter();
        for msg in msgs {
            let arrived = msg.arrived_at;
            let status = self.assembler.accept_with_crc(msg, crcs.next().flatten());
            // Publish reassembly copies before acting on the status: a
            // completed flow notifies waiters, and the counter must already
            // cover the gather that produced it.
            let copied = self.assembler.bytes_copied();
            if copied > self.reassembly_copied {
                self.state.bytes_copied.add(copied - self.reassembly_copied);
                self.reassembly_copied = copied;
            }
            match status {
                viper_net::FlowStatus::Buffered => {}
                viper_net::FlowStatus::Malformed => {
                    self.state.malformed_chunks.inc();
                }
                viper_net::FlowStatus::Corrupt {
                    from,
                    flow_id,
                    chunk_index,
                    tag,
                    link,
                } => {
                    self.state.corrupt_chunks.inc();
                    if reliable {
                        match corrupt
                            .iter_mut()
                            .find(|c| c.flow_id == flow_id && c.from == from)
                        {
                            Some(c) => {
                                c.chunks.push(chunk_index);
                                c.latest = c.latest.max(arrived);
                            }
                            None => corrupt.push(CorruptBatch {
                                from,
                                flow_id,
                                tag,
                                link,
                                chunks: vec![chunk_index],
                                latest: arrived,
                            }),
                        }
                    }
                }
                viper_net::FlowStatus::Passthrough(msg) => {
                    // Every non-chunk message is a control frame.
                    // Sender→receiver frames are `Round` announcements; a
                    // relay additionally receives its children's feedback
                    // (ACK/NACK/NeedFull on flows it launched) and
                    // escalation `Miss` frames from child relays. Anything
                    // else (a truly misrouted frame) drops.
                    match Control::decode(msg.payload.as_contiguous().unwrap_or(&[])) {
                        Some(Control::Round {
                            flow_id,
                            generation,
                        }) => {
                            self.generations.insert((msg.from, flow_id), generation);
                        }
                        Some(Control::Miss {
                            flow_id, member, ..
                        }) => {
                            self.forward_miss(&msg.from, flow_id, &member, msg.arrived_at);
                        }
                        Some(control) => {
                            self.child_feedback(ctx, &msg.from, control, msg.arrived_at);
                        }
                        None => {}
                    }
                }
                viper_net::FlowStatus::Complete(flow) => {
                    // Apply before acknowledging: the ACK then attests the
                    // update is installed, and the producer's post-ACK
                    // charges extend the causal chain instead of racing the
                    // apply on the shared clock. A delta whose base is
                    // missing or stale answers `NeedFull` instead — the
                    // producer resets its base tracking and re-sends the
                    // update as a full checkpoint on a fresh flow.
                    let need_full = self.apply_payload(&flow);
                    if reliable {
                        // Causal reply instant: the apply this feedback
                        // attests has finished (or, for NeedFull, the flow
                        // completed) — never the racy shared clock.
                        let reply_at = self.apply_free.max(flow.completed_at);
                        if need_full {
                            self.state.fulls_requested.inc();
                            telemetry.instant(
                                "consumer",
                                "need_full",
                                &self.state.track,
                                &[("flow_id", flow.flow_id.into())],
                            );
                        }
                        // Relay duty (`start_fan`): install done, the wire
                        // bytes are now re-serving to this node's subtree.
                        // The upstream ACK is withheld — it goes out as the
                        // group ACK when the last slot resolves, and the
                        // generation entry stays live so that ACK carries
                        // the producer's current round.
                        if need_full || !self.start_fan(ctx, &flow, reply_at) {
                            self.answer(&flow, need_full, reply_at);
                        }
                    } else {
                        self.generations.remove(&(flow.from.clone(), flow.flow_id));
                    }
                }
            }
        }
        // One batched NACK per corrupt flow per drain, sent at the causal
        // arrival of the damage it reports.
        for c in corrupt {
            self.nack(&c.from, &c.tag, c.link, c.flow_id, c.chunks, c.latest);
        }
        self.update_reap_timer(ctx);
    }

    /// Arm the reap timer at the earliest instant a partial flow can go
    /// stale, or cancel it when nothing is partially assembled — an idle
    /// consumer has no timer and performs zero reap scans.
    ///
    /// The deadline carries a deterministic per-consumer jitter (seeded
    /// from the node name and the deadline's virtual instant — never wall
    /// time) so consumers losing chunks of the same fan-out desynchronize
    /// their reap scans, and with them their NACK timing, instead of all
    /// firing at the exact same virtual nanosecond.
    fn update_reap_timer(&mut self, ctx: &mut TaskCtx<'_>) {
        let nack_after = self.viper.shared.config.retry.nack_after;
        match self.assembler.next_reap_deadline(nack_after) {
            Some(deadline) => {
                let jitter = deterministic_jitter(self.endpoint.node(), deadline.as_nanos());
                ctx.arm_timer_at(REAP_TIMER, deadline.add(jitter));
            }
            None => ctx.cancel_timer(REAP_TIMER),
        }
    }

    /// Run update discovery: repository-staged updates (PFS route) are
    /// found either via the push notification (Viper) or by polling the
    /// metadata repository (the TensorFlow-Serving/Triton baseline).
    fn discover(&mut self) {
        let viper = self.viper.clone();
        match viper.shared.config.discovery {
            DiscoveryMode::Push => {
                while let Some(record) = self.subscription.try_recv() {
                    try_pull_from_pfs(
                        &viper,
                        &self.state,
                        &self.model_name,
                        &*self.format,
                        &record,
                    );
                }
            }
            DiscoveryMode::Poll { interval } => {
                // Drain (and ignore) notifications so the broker queue does
                // not grow; the baseline doesn't listen to them.
                while self.subscription.try_recv().is_some() {}
                if let Some(record) = viper.shared.db.latest(&self.model_name) {
                    let already = (*self.state.latest.lock().unwrap())
                        .map(|u| u.version)
                        .unwrap_or(0);
                    if record.version > already && record.location == Tier::Pfs.name() {
                        // The poller only notices on its grid: round the
                        // virtual clock up to the next poll tick. Integer
                        // nanoseconds throughout — a float round-trip loses
                        // precision above 2^53 ns (~104 days of virtual
                        // time) and can even round the clock *down*.
                        let interval_ns = interval.as_nanos().min(u128::from(u64::MAX)) as u64;
                        if interval_ns > 0 {
                            let now = viper.shared.clock.now().0;
                            let tick = now.div_ceil(interval_ns).saturating_mul(interval_ns);
                            viper.shared.clock.advance_to(viper_hw::SimInstant(tick));
                        }
                        try_pull_from_pfs(
                            &viper,
                            &self.state,
                            &self.model_name,
                            &*self.format,
                            &record,
                        );
                    }
                }
            }
        }
    }
}

impl ReactorTask for ConsumerTask {
    fn on_mail(&mut self, ctx: &mut TaskCtx<'_>) {
        self.drain(ctx);
    }

    fn on_timer(&mut self, token: u64, deadline: SimInstant, ctx: &mut TaskCtx<'_>) {
        // Pick up anything enqueued but not yet signaled first: chunks
        // already delivered must never be mistaken for losses.
        self.drain(ctx);
        if token != REAP_TIMER {
            // A relay child flow's ack timer (tokens are fabric flow ids,
            // never 0). The drain above may already have resolved it —
            // then the flow is gone and the timer was a leftover.
            self.child_timer(ctx, token, deadline);
            return;
        }
        if self.assembler.in_progress() == 0 {
            self.update_reap_timer(ctx);
            return;
        }
        self.state.reap_scans.inc();
        let retry = self.viper.shared.config.retry;
        let telemetry = self.viper.shared.config.telemetry.clone();
        // Timers fire at quiescence without advancing the clock; the scan's
        // causal "now" is exactly the armed deadline. Reading the shared
        // clock here would tie the reap decision (and NACK timing) to how
        // far *unrelated* work happened to advance virtual time.
        let now = deadline;
        // Stale partial flows: NACK the missing chunks (reliable mode), and
        // in any mode abandon flows past the NACK budget so lost transfers
        // cannot pin reassembly buffers forever.
        for err in self
            .assembler
            .reap_at(now, retry.nack_after, retry.max_nacks)
        {
            if err.abandoned {
                self.state.flows_abandoned.inc();
                telemetry.instant(
                    "consumer",
                    "flow_abandoned",
                    &self.state.track,
                    &[
                        ("flow_id", err.flow_id.into()),
                        ("missing", err.missing.len().into()),
                    ],
                );
                self.generations.remove(&(err.from.clone(), err.flow_id));
                self.state.error(ViperError::FlowAbandoned {
                    from: err.from,
                    tag: err.tag,
                    missing: err.missing.len(),
                });
            } else if matches!(self.viper.shared.config.delivery, Delivery::Reliable(_)) {
                // Reap-driven NACKs fire causally at the scan deadline.
                self.nack(&err.from, &err.tag, err.link, err.flow_id, err.missing, now);
            }
        }
        self.update_reap_timer(ctx);
    }

    fn on_wake(&mut self, _ctx: &mut TaskCtx<'_>) {
        self.discover();
    }
}

/// Fetch a repository-staged record's payload, verify, and install it.
fn try_pull_from_pfs(
    viper: &Viper,
    state: &ConsumerState,
    model_name: &str,
    format: &dyn CheckpointFormat,
    record: &viper_metastore::ModelRecord,
) {
    if record.name != model_name || record.location != Tier::Pfs.name() {
        return;
    }
    // Skip stale notifications (an even newer one may be queued).
    let already = (*state.latest.lock().unwrap())
        .map(|u| u.version)
        .unwrap_or(0);
    if record.version <= already {
        return;
    }
    install_from_pfs(viper, state, format, record, "pfs");
}

/// Read `record`'s durable copy off the PFS, decode it and install it,
/// labelling the `install` span with `source`. Returns `false` when the
/// copy is unreadable or corrupt. This runs for user-thread installers
/// (`recover`) and repository discovery, which have no causal instant to
/// start from: the read, the apply and the swap are charged from the
/// shared clock's current frontier. The push path uses `install_at` with a
/// causally computed instant instead.
fn install_from_pfs(
    viper: &Viper,
    state: &ConsumerState,
    format: &dyn CheckpointFormat,
    record: &viper_metastore::ModelRecord,
    source: &'static str,
) -> bool {
    let shared = &viper.shared;
    let Ok((payload, _read_time)) = shared.pfs.read(&record.path) else {
        return false;
    };
    let Ok(ckpt) = format.decode(&payload) else {
        return false;
    };
    let telemetry = &shared.config.telemetry;
    let t0 = telemetry.now_ns();
    let bytes = payload.len() as u64;
    let apply = apply_time(
        &shared.config.profile,
        Route::PfsStaging,
        bytes,
        ckpt.ntensors(),
    );
    shared.clock.advance_to(shared.clock.now().add(apply));
    // One atomic check-and-swap: this may race the reactor installing a
    // fresher push, and must never regress the served model or publish an
    // UpdateInfo for a model that lost the race.
    let swapped_at = shared.clock.now().add(SWAP_NUDGE);
    install_at(viper, state, ckpt, record.version, swapped_at);
    telemetry.complete(
        "consumer",
        "install",
        &state.track,
        t0,
        telemetry.now_ns(),
        &[
            ("version", record.version.into()),
            ("bytes", bytes.into()),
            ("source", source.into()),
        ],
    );
    true
}

fn install_at(
    viper: &Viper,
    state: &ConsumerState,
    ckpt: Checkpoint,
    version: u64,
    at: SimInstant,
) {
    // Double buffering with the staleness check and the swap under one
    // lock: concurrent installers (the listener thread vs. an explicit
    // recover() call) can never interleave and regress the served model.
    let Some(installed) = state.slot.install_if_newer(ckpt) else {
        return;
    };
    // The swap itself is "negligible overhead" (§4.2); the nudged `at`
    // still advances the virtual clock so ordering is visible in traces.
    viper.shared.clock.advance_to(at);
    let mut latest = state.latest.lock().unwrap();
    // Exactly-once install: UpdateInfo tracks the newest model the slot
    // accepted, never a loser of the race above.
    let newer = latest
        .map(|u| u.iteration < installed.iteration)
        .unwrap_or(true);
    if newer {
        *latest = Some(UpdateInfo {
            version,
            iteration: installed.iteration,
            swapped_at: at,
        });
    }
    state.cond.notify_all();
}
