//! The relay role of a consumer: re-serving installed updates down the
//! distribution tree.
//!
//! An interior consumer of a relay tree is the second owner of the
//! [`FlowSender`] engine (the producer's delivery task is the first): it
//! admits one send per child for every upstream flow it completes and
//! applies the relay policy to their outcomes — fan/slot accounting, the
//! group ACK, and `Miss` escalation. The methods extend the consumer's
//! reactor task, which routes completed flows, child feedback and child ack
//! timers here.

use crate::consumer::ConsumerTask;
use crate::context::Viper;
use std::collections::HashMap;
use std::sync::Arc;
use viper_hw::SimInstant;
use viper_net::{
    ChunkedSend, Control, Endpoint, FlowSender, LinkKind, Outbound, OutcomeKind, SenderCounters,
    TaskCtx,
};

/// Relay-tree re-serve state owned by the consumer's reactor task.
///
/// When the deployment runs with [`crate::ViperConfig::with_relay_tree`],
/// interior consumers double as relays: a completed upstream flow is
/// installed locally first, then its exact wire bytes are re-served to
/// the node's children from the reassembled payload — the producer pays one
/// flow per subtree instead of one per consumer. The upstream ACK is
/// withheld until the whole subtree resolves, so one group ACK at the
/// producer attests every member installed (the group-level watermark).
///
/// The child flows themselves — per-child lanes, ack timers,
/// retransmission rounds — belong to the same [`FlowSender`] engine the
/// producer drives; the relay role is the policy over it: fan/slot
/// accounting, the group ACK, and `Miss` escalation.
pub(crate) struct RelayState {
    /// Upstream flows currently fanning out, by upstream flow id.
    fans: HashMap<u64, Fan>,
    /// One lane per child; sends carry the upstream fan id as their token.
    /// Child flow ids double as reactor timer tokens — fabric-unique and
    /// starting at 1, they can never collide with the consumer's
    /// [`REAP_TIMER`](crate::consumer::REAP_TIMER).
    sender: FlowSender<String>,
    /// The engine's launch count already published to
    /// `relay.{node}.relay_reserves`.
    reserves_seen: u64,
}

/// One upstream flow being re-served to this relay's children.
struct Fan {
    /// Who sent the upstream flow (the producer, or a parent relay).
    parent: String,
    tag: String,
    link: LinkKind,
    /// Child slots not yet resolved (acked, escalated, or superseded).
    pending: usize,
    /// Watermark: the latest resolve instant across the subtree so far.
    /// When `pending` hits zero this is the causal instant of the group
    /// ACK — the producer's flush then implies every leaf installed.
    acked_at: SimInstant,
}

impl RelayState {
    /// The relay role of the consumer sending from `endpoint`, idle until
    /// its first upstream flow completes.
    pub(crate) fn new(viper: &Viper, endpoint: &Arc<Endpoint>) -> Self {
        let config = &viper.shared.config;
        let node = endpoint.node();
        RelayState {
            fans: HashMap::new(),
            sender: FlowSender::new(
                Arc::clone(endpoint),
                config.retry,
                config.telemetry.clone(),
                "relay",
                SenderCounters {
                    retransmits: config
                        .telemetry
                        .counter(&format!("relay.{node}.retransmits")),
                    stale_feedback: config
                        .telemetry
                        .counter(&format!("relay.{node}.stale_feedback")),
                },
            ),
            reserves_seen: 0,
        }
    }
}

impl ConsumerTask {
    /// Begin re-serving a completed upstream flow to this node's relay
    /// children. Returns `false` when the node has no relay duty for the
    /// flow — no children in the current topology, which is empty without
    /// a relay fan-out — and the caller should ACK upstream directly.
    /// Returns `true` when the
    /// upstream ACK must be withheld for the fan's group ACK (including
    /// the duplicate-retransmission case: the producer resent a flow
    /// whose fan is still in progress).
    pub(crate) fn start_fan(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        flow: &viper_net::AssembledFlow,
        serve_at: SimInstant,
    ) -> bool {
        if self.relay.fans.contains_key(&flow.flow_id) {
            // A blind retransmission of a flow we are already fanning
            // out (our group ACK was slower than the producer's timer):
            // the re-apply above was idempotent, the fan keeps running.
            return true;
        }
        let children = self
            .viper
            .shared
            .distribution
            .children_of(self.endpoint.node());
        if children.is_empty() {
            return false;
        }
        // Coalescing key: the delivery tag's version suffix (the same
        // field the consumer installs by). A tag that failed to parse
        // was already counted malformed; fall back to the flow id so
        // the serve still goes out.
        let version = flow
            .tag
            .rsplit(':')
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(flow.flow_id);
        self.relay.fans.insert(
            flow.flow_id,
            Fan {
                parent: flow.from.clone(),
                tag: flow.tag.clone(),
                link: flow.link,
                pending: children.len(),
                acked_at: serve_at,
            },
        );
        self.viper.shared.config.telemetry.instant(
            "relay",
            "relay_serve",
            &self.state.track,
            &[
                ("flow_id", flow.flow_id.into()),
                ("children", children.len().into()),
            ],
        );
        // Re-serve the exact wire bytes received — already framed, shared
        // zero-copy — with the CRCs the chunks were just verified against
        // (this relay re-chunks the way the flow arrived), so neither a
        // child serve nor a retransmission round re-reads the payload.
        let chunk_bytes = self.viper.shared.config.chunk_bytes;
        let opts = ChunkedSend::new(chunk_bytes).with_crcs(flow.crcs_for(chunk_bytes));
        for child in children {
            let send = Outbound {
                token: flow.flow_id,
                to: child.clone(),
                tag: flow.tag.clone(),
                link: flow.link,
                payload: flow.payload.clone(),
                opts: opts.clone(),
                ready_at: serve_at,
                track: self.state.track.clone(),
            };
            self.relay.sender.admit(ctx, child, version, send);
        }
        self.drain_relay(ctx);
        true
    }

    /// Feedback (ACK/NACK/NeedFull) from `from` on a flow this relay
    /// launched.
    pub(crate) fn child_feedback(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        from: &str,
        control: Control,
        at: SimInstant,
    ) {
        self.relay.sender.on_feedback(ctx, from, control, at);
        self.drain_relay(ctx);
    }

    /// Timer `token` — not the reap timer — fired: a child flow's ack
    /// timer, unless the flow resolved in the meantime.
    pub(crate) fn child_timer(&mut self, ctx: &mut TaskCtx<'_>, token: u64, deadline: SimInstant) {
        if self.relay.sender.on_timer(ctx, token, deadline) {
            self.drain_relay(ctx);
        }
    }

    /// Apply the relay policy to every child serve the engine reports
    /// ended, then republish the serve count and backlog.
    fn drain_relay(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(outcome) = self.relay.sender.next_outcome(ctx) {
            let (fan_id, child, at) = (outcome.token, outcome.to, outcome.at);
            match outcome.kind {
                // Acked; the child deregistered (a shutdown race, not a
                // delivery failure); or a newer version collapsed this
                // serve out of the lane and the child gets that instead.
                OutcomeKind::Complete | OutcomeKind::Gone | OutcomeKind::Superseded => {}
                // The child's delta base is missing or stale, and a relay
                // cannot re-encode (it holds wire bytes, not a codec):
                // degrade the member to a producer-direct full via `Miss`.
                OutcomeKind::NeedFull => self.escalate_miss(fan_id, &child, at),
                // The child stopped answering. Everything below it is
                // stranded too: escalate the whole subtree so the
                // producer serves those members directly.
                OutcomeKind::Exhausted { .. } => {
                    self.escalate_miss(fan_id, &child, at);
                    let subtree = self.viper.shared.distribution.subtree_of(&child);
                    for orphan in subtree.iter().skip(1) {
                        self.escalate_miss(fan_id, orphan, at);
                    }
                }
            }
            self.resolve_slot(fan_id, at);
        }
        let launched = self.relay.sender.launched();
        self.state
            .relay_reserves
            .add(launched - self.relay.reserves_seen);
        self.relay.reserves_seen = launched;
        self.state
            .relay_queue_depth
            .set(self.relay.sender.backlog() as i64);
    }

    /// One of fan `fan_id`'s child slots resolved at `at`: advance the
    /// group watermark and, if it was the last, send the **group ACK**
    /// upstream — one control frame at the subtree's watermark instant,
    /// attesting every non-escalated member installed: the per-consumer
    /// round-trips the tree exists to eliminate.
    fn resolve_slot(&mut self, fan_id: u64, at: SimInstant) {
        let Some(fan) = self.relay.fans.get_mut(&fan_id) else {
            return;
        };
        fan.pending -= 1;
        fan.acked_at = fan.acked_at.max(at);
        if fan.pending != 0 {
            return;
        }
        let fan = self.relay.fans.remove(&fan_id).expect("checked above");
        let generation = self.generation_of(&fan.parent, fan_id);
        let ack = Control::Ack {
            flow_id: fan_id,
            generation,
        };
        let _ = self
            .endpoint
            .send_control_at(&fan.parent, &fan.tag, &ack, fan.link, fan.acked_at);
        self.generations.remove(&(fan.parent.clone(), fan_id));
        self.viper.shared.config.telemetry.instant(
            "relay",
            "group_ack",
            &self.state.track,
            &[("flow_id", fan_id.into())],
        );
    }

    /// Escalate `member` of fan `fan_id` to the producer: a `Miss` frame
    /// travels up the tree (each relay remapping flow ids hop by hop via
    /// [`ConsumerTask::forward_miss`]) until the producer degrades the
    /// member to a direct full checkpoint.
    fn escalate_miss(&mut self, fan_id: u64, member: &str, at: SimInstant) {
        let Some(fan) = self.relay.fans.get(&fan_id) else {
            return;
        };
        let miss = Control::Miss {
            flow_id: fan_id,
            generation: self.generation_of(&fan.parent, fan_id),
            member: member.to_string(),
        };
        let _ = self
            .endpoint
            .send_control_at(&fan.parent, &fan.tag, &miss, fan.link, at);
        self.viper.shared.config.telemetry.instant(
            "relay",
            "miss_escalated",
            &self.state.track,
            &[("member", member.into())],
        );
    }

    /// A child relay escalated a `Miss` for one of *its* subtree members:
    /// remap the flow id one hop up (child flow → our upstream fan) and
    /// forward. The child's slot is **not** resolved — the child still
    /// group-acks the rest of its subtree on the same flow.
    pub(crate) fn forward_miss(
        &mut self,
        from: &str,
        child_flow: u64,
        member: &str,
        at: SimInstant,
    ) {
        let fan_id = match self.relay.sender.flow(child_flow) {
            Some((fan_id, child)) if child == from => fan_id,
            _ => return,
        };
        self.escalate_miss(fan_id, member, at);
    }
}
