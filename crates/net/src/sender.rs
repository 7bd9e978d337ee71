//! The one reliable sender: lanes, flows, ack timers and retransmission
//! rounds behind a terminal-outcome interface.
//!
//! The paper's transfer engine (§4.4) is one idea — push the bytes to a
//! peer and know when they landed. [`FlowSender`] is that idea as a
//! reactor-side component and the one place a reliable flow's state
//! lives: it owns the per-destination **lanes** (one flow in flight, one
//! collapse-to-latest pending send behind it) and every in-flight flow's
//! retransmission round, performs the sends, arms the ack timers,
//! announces and executes retransmission rounds with pressure-scaled
//! backoff, and tells its owner only how each admitted send *ended*
//! ([`Outcome`]). What an ending means — base tracking, group
//! ACKs, a full-checkpoint retry, a durable fallback — is the owner's
//! policy; the engine never asks which owner it is serving.
//!
//! All timing is causal. Feedback is handled at its arrival instant and a
//! timer at its deadline; a round's backoff is added to that instant
//! (`at + backoff`) rather than charged to the shared clock — the `Round`
//! frame sent at the resulting instant advances the clock past it anyway —
//! so the schedule is a pure function of configuration and fault seed.
//!
//! Every retransmission round bumps its flow's **generation**, announced
//! to the receiver by a `Round` frame ahead of the round's chunks.
//! Feedback stamped with any other generation — a NACK queued from a
//! superseded round — is counted in [`SenderCounters::stale_feedback`] and
//! dropped, so it can never trigger a duplicate retransmission; so is
//! feedback for a flow that already ended, since an ended flow is gone.

use crate::chunk::ChunkedSend;
use crate::fabric::{Endpoint, LinkKind};
use crate::reactor::TaskCtx;
use crate::reliability::{CoalesceQueue, Control, RetryPolicy};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use viper_formats::Payload;
use viper_hw::SimInstant;
use viper_telemetry::{Counter, Telemetry};

/// One reliable send handed to [`FlowSender::admit`].
#[derive(Debug, Clone)]
pub struct Outbound {
    /// The owner's opaque handle, echoed in this send's [`Outcome`] (the
    /// producer's update sequence number, a relay's upstream flow id).
    pub token: u64,
    /// Destination node.
    pub to: String,
    /// Application tag carried by every chunk and control frame.
    pub tag: String,
    /// Link the flow travels.
    pub link: LinkKind,
    /// The wire bytes (first send and retransmission source).
    pub payload: Payload,
    /// Chunk geometry, encode-time CRCs and — for a send that launches
    /// immediately — the capture model. The submit instant is set by the
    /// engine.
    pub opts: ChunkedSend,
    /// Causal instant the payload became ready: the flow starts no
    /// earlier, even if its lane frees first.
    pub ready_at: SimInstant,
    /// Telemetry track for this send's `backoff` / `retransmit_round`
    /// spans.
    pub track: String,
}

/// How an admitted send ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The peer acknowledged the flow.
    Complete,
    /// The flow reassembled but the peer cannot use the payload (a delta
    /// whose base it lost). The lane stays held until the owner has seen
    /// this outcome, so [`FlowSender::relaunch`] can answer on it.
    NeedFull,
    /// The retry budget ran out.
    Exhausted {
        /// Sends queued behind the flow's lane when it gave up.
        backlog: usize,
    },
    /// The peer is not registered on the fabric (at launch or mid-round).
    Gone,
    /// A newer version collapsed this send out of its lane's queue before
    /// it touched the wire.
    Superseded,
}

/// The terminal result of one [`Outbound`]; every admitted send yields
/// exactly one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// [`Outbound::token`] of the send.
    pub token: u64,
    /// [`Outbound::to`] of the send.
    pub to: String,
    /// How it ended.
    pub kind: OutcomeKind,
    /// Causal instant of the ending: the feedback frame's arrival, the
    /// timer deadline, the superseding send's ready instant, or the start
    /// instant of a launch that found the peer gone.
    pub at: SimInstant,
}

/// The two counters the engine maintains on its owner's behalf.
#[derive(Debug, Clone)]
pub struct SenderCounters {
    /// Retransmission rounds performed (NACK-driven or ack-timeout blind).
    pub retransmits: Counter,
    /// Feedback frames dropped: unknown or finished flow, wrong peer, or a
    /// superseded retransmission generation. Counted, never acted on.
    pub stale_feedback: Counter,
}

struct Flow<K> {
    lane: K,
    send: Outbound,
    num_chunks: u32,
    /// Retransmission rounds run so far, which is also the generation the
    /// current round was announced with (0 = the first send).
    round: u32,
}

#[derive(Default)]
struct LaneState {
    /// Flow holding the lane — until its outcome has been handled, which
    /// outlasts the flow itself by one [`FlowSender::next_outcome`] call.
    in_flight: Option<u64>,
    queue: CoalesceQueue<Outbound>,
}

/// The reliable sender engine, generic over its owner's lane key.
///
/// Driven from a [`ReactorTask`](crate::ReactorTask): route decoded
/// feedback to [`on_feedback`](Self::on_feedback) and timer fires to
/// [`on_timer`](Self::on_timer) (timer tokens are fabric flow ids, never
/// 0), then drain [`next_outcome`](Self::next_outcome) until it returns
/// `None`.
pub struct FlowSender<K> {
    endpoint: Arc<Endpoint>,
    retry: RetryPolicy,
    telemetry: Telemetry,
    /// Trace category of the engine's spans.
    category: &'static str,
    counters: SenderCounters,
    lanes: HashMap<K, LaneState>,
    flows: HashMap<u64, Flow<K>>,
    /// Outcomes not yet handed to the owner, each with the lane (and the
    /// flow id holding it) that its flow still occupies.
    outcomes: VecDeque<(Outcome, Option<(K, u64)>)>,
    /// Lane of the outcome most recently handed out, released at the next
    /// [`FlowSender::next_outcome`] call.
    settling: Option<(K, u64, SimInstant)>,
    launched: u64,
}

impl<K: Clone + Eq + Hash> FlowSender<K> {
    /// An idle engine sending from `endpoint`; spans are recorded under
    /// trace category `category`.
    pub fn new(
        endpoint: Arc<Endpoint>,
        retry: RetryPolicy,
        telemetry: Telemetry,
        category: &'static str,
        counters: SenderCounters,
    ) -> Self {
        FlowSender {
            endpoint,
            retry,
            telemetry,
            category,
            counters,
            lanes: HashMap::new(),
            flows: HashMap::new(),
            outcomes: VecDeque::new(),
            settling: None,
            launched: 0,
        }
    }

    /// Hand `send` to `lane`: launch it now if the lane is free, else make
    /// it the lane's pending send under `version`. The send it collapses
    /// yields [`OutcomeKind::Superseded`]: the older pending one, or `send`
    /// itself when `version` is not the lane's newest.
    pub fn admit(&mut self, ctx: &mut TaskCtx<'_>, lane: K, version: u64, mut send: Outbound) {
        if self.lane_mut(&lane).in_flight.is_none() {
            return self.launch_on(ctx, &lane, send);
        }
        // A queued send launches after its capture finished: nothing left
        // to overlap with the wire.
        send.opts.capture = None;
        let at = send.ready_at;
        if let Some((_, stale)) = self.lane_mut(&lane).queue.push(version, send) {
            self.conclude(stale, OutcomeKind::Superseded, at, None);
        }
    }

    /// Launch `send` on `lane` ahead of anything queued, taking over the
    /// hold of the flow whose outcome the owner is handling (a full retry
    /// after [`OutcomeKind::NeedFull`]). If the peer is gone the lane frees
    /// as it would have without the call.
    pub fn relaunch(&mut self, ctx: &mut TaskCtx<'_>, lane: K, send: Outbound) {
        debug_assert!(
            self.lanes
                .get(&lane)
                .and_then(|l| l.in_flight)
                .is_none_or(|id| !self.flows.contains_key(&id)),
            "relaunch on a lane with a live flow"
        );
        self.launch_on(ctx, &lane, send)
    }

    /// Put `send` on the wire at its ready instant and give it `lane`. A
    /// peer that is not registered yields [`OutcomeKind::Gone`] and leaves
    /// the lane as it was.
    fn launch_on(&mut self, ctx: &mut TaskCtx<'_>, lane: &K, mut send: Outbound) {
        send.opts.submit_at = Some(send.ready_at);
        let sent = self.endpoint.send_chunked(
            &send.to,
            &send.tag,
            send.payload.clone(),
            send.link,
            &send.opts,
        );
        let Ok(report) = sent else {
            let at = send.ready_at;
            self.conclude(send, OutcomeKind::Gone, at, None);
            return;
        };
        self.launched += 1;
        self.flows.insert(
            report.flow_id,
            Flow {
                lane: lane.clone(),
                send,
                num_chunks: report.num_chunks,
                round: 0,
            },
        );
        self.lane_mut(lane).in_flight = Some(report.flow_id);
        // Per flow the deadline only ever moves forward: a retransmission
        // round completes after the send it repairs.
        ctx.arm_timer_at(
            report.flow_id,
            report.completed_at.add(self.retry.ack_timeout),
        );
    }

    /// Feed one decoded feedback frame (`Ack` / `Nack` / `NeedFull`) that
    /// arrived from `from` at `at`. Sender-side frames (`Round`, `Miss`)
    /// are ignored; feedback naming no live flow of `from`, or stamped with
    /// a generation other than the flow's current round, is counted stale.
    /// A NACK costs what it names, once: each index is kept once, in the
    /// order named, and only if the flow has that chunk; a NACK left naming
    /// nothing is stale too — it must not burn a retry round.
    pub fn on_feedback(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        from: &str,
        control: Control,
        at: SimInstant,
    ) {
        let flow_id = control.flow_id();
        let generation = control.generation();
        let live = |flow: &Flow<K>| flow.send.to == from && u64::from(flow.round) == generation;
        match control {
            Control::Round { .. } | Control::Miss { .. } => {}
            _ if !self.flows.get(&flow_id).is_some_and(live) => {
                self.counters.stale_feedback.inc();
            }
            Control::Ack { .. } => self.finish(ctx, flow_id, OutcomeKind::Complete, at),
            Control::NeedFull { .. } => self.finish(ctx, flow_id, OutcomeKind::NeedFull, at),
            // An empty list is the blind "resend everything".
            Control::Nack { mut missing, .. } => {
                if !missing.is_empty() {
                    let num_chunks = self.flows[&flow_id].num_chunks;
                    let mut named = HashSet::new();
                    missing.retain(|&index| index < num_chunks && named.insert(index));
                    if missing.is_empty() {
                        self.counters.stale_feedback.inc();
                        return;
                    }
                }
                self.round(ctx, flow_id, missing, at);
            }
        }
    }

    /// Timer `token` fired at `deadline`. Returns `false` when the token
    /// is not one of this engine's flows (the owner's own timer, or a
    /// leftover of a flow that just resolved).
    ///
    /// Ack timers fire only at reactor quiescence — every surviving chunk
    /// and feedback frame has been processed — so silence here means the
    /// virtual `ack_timeout` genuinely elapsed with nothing heard: the
    /// whole flow is resent blind.
    pub fn on_timer(&mut self, ctx: &mut TaskCtx<'_>, token: u64, deadline: SimInstant) -> bool {
        if !self.flows.contains_key(&token) {
            return false;
        }
        self.round(ctx, token, Vec::new(), deadline);
        true
    }

    /// The next terminal outcome, oldest first. The lane of the outcome
    /// returned by the previous call is released here — after its owner
    /// reacted to it — and the lane's next queued send launches.
    pub fn next_outcome(&mut self, ctx: &mut TaskCtx<'_>) -> Option<Outcome> {
        if let Some((lane, flow_id, at)) = self.settling.take() {
            self.release(ctx, &lane, flow_id, at);
        }
        let (outcome, held) = self.outcomes.pop_front()?;
        self.settling = held.map(|(lane, flow_id)| (lane, flow_id, outcome.at));
        Some(outcome)
    }

    /// The `(token, destination)` of live flow `flow_id`, if any.
    pub fn flow(&self, flow_id: u64) -> Option<(u64, &str)> {
        self.flows
            .get(&flow_id)
            .map(|flow| (flow.send.token, flow.send.to.as_str()))
    }

    /// Sends queued behind busy lanes, summed over all lanes.
    pub fn backlog(&self) -> usize {
        self.lanes.values().map(|lane| lane.queue.len()).sum()
    }

    /// Flows put on the wire so far (first sends, not retransmission
    /// rounds).
    pub fn launched(&self) -> u64 {
        self.launched
    }

    /// Free `lane` if terminal flow `flow_id` still holds it and launch
    /// the next queued send, no earlier than `at`.
    fn release(&mut self, ctx: &mut TaskCtx<'_>, lane: &K, flow_id: u64, at: SimInstant) {
        match self.lanes.get_mut(lane) {
            Some(held) if held.in_flight == Some(flow_id) => held.in_flight = None,
            _ => return,
        }
        if let Some((_, mut queued)) = self.lanes.get_mut(lane).and_then(|l| l.queue.pop()) {
            queued.ready_at = queued.ready_at.max(at);
            self.launch_on(ctx, lane, queued);
        }
    }

    /// Flow `flow_id` ended: record the outcome; its lane stays held until
    /// the owner has seen it.
    fn finish(&mut self, ctx: &mut TaskCtx<'_>, flow_id: u64, kind: OutcomeKind, at: SimInstant) {
        ctx.cancel_timer(flow_id);
        let flow = self.flows.remove(&flow_id).expect("a live flow ended");
        self.conclude(flow.send, kind, at, Some((flow.lane, flow_id)));
    }

    /// Queue `send`'s one outcome for the owner; `held` names the lane its
    /// flow still occupies.
    fn conclude(
        &mut self,
        send: Outbound,
        kind: OutcomeKind,
        at: SimInstant,
        held: Option<(K, u64)>,
    ) {
        let outcome = Outcome {
            token: send.token,
            to: send.to,
            kind,
            at,
        };
        self.outcomes.push_back((outcome, held));
    }

    /// Run the next retransmission round of live flow `flow_id` —
    /// resending `missing`, or every chunk when it is empty — or, with the
    /// retry budget spent, end the flow [`OutcomeKind::Exhausted`]. `at` is
    /// the causal instant of the trigger: the NACK's arrival, or the ack
    /// timer's deadline.
    fn round(&mut self, ctx: &mut TaskCtx<'_>, flow_id: u64, missing: Vec<u32>, at: SimInstant) {
        let flow = self.flows.get_mut(&flow_id).expect("a live flow");
        // Backpressure: a congested lane (a send pending behind this flow)
        // backs off harder, ceding the wire to peers that keep up.
        let backlog = self.lanes.get(&flow.lane).map_or(0, |l| l.queue.len());
        if flow.round >= self.retry.max_retries {
            self.finish(ctx, flow_id, OutcomeKind::Exhausted { backlog }, at);
            return;
        }
        flow.round += 1;
        let attempt = flow.round;
        self.counters.retransmits.inc();
        let send = &flow.send;
        let missing: Vec<u32> = if missing.is_empty() {
            // Blind resend: no NACK narrowed the loss down.
            (0..flow.num_chunks).collect()
        } else {
            missing
        };
        let end = at.add(RetryPolicy::backoff_with_pressure(attempt, backlog));
        self.telemetry.complete(
            self.category,
            "backoff",
            &send.track,
            at.as_nanos(),
            end.as_nanos(),
            &[("attempt", attempt.into()), ("backlog", backlog.into())],
        );
        // Announce the round before its chunks: the fabric preserves
        // per-sender order, so the receiver learns the generation first
        // and stamps it into all further feedback.
        let round = Control::Round {
            flow_id,
            generation: u64::from(attempt),
        };
        let resent = self
            .endpoint
            .send_control_at(&send.to, &send.tag, &round, send.link, end)
            .and_then(|_| {
                self.endpoint.retransmit_chunks_at(
                    &send.to,
                    &send.tag,
                    &send.payload,
                    send.link,
                    flow_id,
                    send.opts.chunk_bytes,
                    &missing,
                    send.opts.crcs.as_deref().map(Vec::as_slice),
                    end,
                )
            });
        match resent {
            Ok(lane_free) => {
                self.telemetry.complete(
                    self.category,
                    "retransmit_round",
                    &send.track,
                    end.as_nanos(),
                    lane_free.as_nanos(),
                    &[
                        ("attempt", attempt.into()),
                        ("missing", missing.len().into()),
                    ],
                );
                ctx.arm_timer_at(flow_id, lane_free.add(self.retry.ack_timeout));
            }
            // The peer deregistered mid-delivery: a shutdown race, not a
            // delivery failure.
            Err(_) => self.finish(ctx, flow_id, OutcomeKind::Gone, at),
        }
    }

    fn lane_mut(&mut self, lane: &K) -> &mut LaneState {
        if !self.lanes.contains_key(lane) {
            self.lanes.insert(lane.clone(), LaneState::default());
        }
        self.lanes.get_mut(lane).expect("just inserted")
    }
}
