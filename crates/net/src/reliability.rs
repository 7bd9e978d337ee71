//! Reliable chunked delivery: NACK/ACK control frames and the retry policy.
//!
//! Delivery semantics are **at-least-once on the wire, exactly-once at
//! install**: the sender may retransmit chunks (duplicates are idempotent in
//! the [`FlowAssembler`](crate::FlowAssembler)), and the consumer's slot
//! installs a completed flow at most once. The feedback channel:
//!
//! * the receiver NACKs a flow with the chunk indices still missing —
//!   immediately when a chunk fails its CRC, or when a partial flow goes
//!   stale (see [`FlowAssembler::reap`](crate::FlowAssembler::reap));
//! * the receiver ACKs a flow once it reassembles completely (or replies
//!   `NeedFull` when the reassembled payload was a delta it cannot apply,
//!   asking the sender to re-encode the update as a full checkpoint);
//! * the sender retransmits NACKed chunks after a constant exponential
//!   backoff (50 µs doubling to a 5 ms cap, plus 100 µs per send queued
//!   behind the lane, capped at 2 ms — added to the round's virtual
//!   instant, so retries are never free) within the [`RetryPolicy`]
//!   budget; when the budget is exhausted it gives up and degrades to a
//!   slower-but-durable route.
//!
//! [`RetryPolicy`] holds only what deployments set: the retry budget, the
//! ack timeout, the NACK pacing and the NACK budget. Each lane's pending
//! send is one [`CoalesceQueue`] slot.

use crate::LinkKind;
use std::time::Duration;

/// Magic bytes marking a reliability control frame ("VPRL").
pub const CONTROL_MAGIC: u32 = 0x5650_524C;

/// A reliability control frame.
///
/// Feedback frames (`Nack`/`Ack`/`NeedFull`) travel receiver → sender and
/// echo the retransmit-round **generation** the receiver currently knows
/// for the flow; the sender drops (and counts) feedback whose generation
/// does not match the flow's current round, so stale complaints from a
/// superseded round can never trigger a duplicate retransmission. The
/// `Round` frame travels sender → receiver ahead of each retransmit
/// round's chunks and is what advances the receiver's known generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// The flow is incomplete: these chunk indices are missing or corrupt.
    Nack {
        /// Flow being complained about.
        flow_id: u64,
        /// Retransmit-round generation this complaint is about.
        generation: u64,
        /// Chunk indices to retransmit.
        missing: Vec<u32>,
    },
    /// The flow reassembled completely; the sender can forget it.
    Ack {
        /// Flow being acknowledged.
        flow_id: u64,
        /// Retransmit-round generation that completed the flow.
        generation: u64,
    },
    /// The flow reassembled completely but its payload was an incremental
    /// delta the receiver cannot use (base checkpoint missing or stale): the
    /// sender must re-encode the update as a full checkpoint.
    NeedFull {
        /// Flow whose delta payload was rejected.
        flow_id: u64,
        /// Retransmit-round generation that completed the flow.
        generation: u64,
    },
    /// Sender → receiver: the next chunks for this flow belong to
    /// retransmit round `generation`. Sent before each retransmission
    /// round; the fabric preserves per-sender order, so the receiver
    /// always learns the new generation before that round's chunks land.
    Round {
        /// Flow the round belongs to.
        flow_id: u64,
        /// The new retransmit-round generation (1-based; the initial send
        /// is generation 0 and needs no announcement).
        generation: u64,
    },
    /// Relay → sender: a member of the relay's subtree could not be served
    /// from the relayed flow (its delta base was missing, or the relay
    /// exhausted its retry budget toward it) and needs a direct full
    /// checkpoint from the producer. `flow_id`/`generation` identify the
    /// *upstream* flow the relay was re-serving, so the producer can map
    /// the escalation back to the update it belongs to; intermediate
    /// relays remap the ids hop by hop as they forward the frame up.
    Miss {
        /// The upstream flow the relay received and was re-serving.
        flow_id: u64,
        /// Retransmit-round generation of that upstream flow.
        generation: u64,
        /// The subtree member that needs a direct full send.
        member: String,
    },
}

impl Control {
    /// Serialize to a wire payload.
    ///
    /// Layout: magic `u32` LE, kind `u8`, flow id `u64` LE, generation
    /// `u64` LE, count `u32` LE, then `count` trailing items — 4-byte
    /// chunk indices for `Nack`, raw UTF-8 member-name bytes for `Miss`,
    /// nothing for the other kinds (count must be 0).
    pub fn encode(&self) -> Vec<u8> {
        let (kind, flow_id, generation, missing, member): (u8, u64, u64, &[u32], &[u8]) = match self
        {
            Control::Nack {
                flow_id,
                generation,
                missing,
            } => (0, *flow_id, *generation, missing, &[]),
            Control::Ack {
                flow_id,
                generation,
            } => (1, *flow_id, *generation, &[], &[]),
            Control::NeedFull {
                flow_id,
                generation,
            } => (2, *flow_id, *generation, &[], &[]),
            Control::Round {
                flow_id,
                generation,
            } => (3, *flow_id, *generation, &[], &[]),
            Control::Miss {
                flow_id,
                generation,
                member,
            } => (4, *flow_id, *generation, &[], member.as_bytes()),
        };
        let count = if kind == 4 {
            member.len()
        } else {
            missing.len()
        };
        let mut buf = Vec::with_capacity(4 + 1 + 8 + 8 + 4 + 4 * missing.len() + member.len());
        buf.extend_from_slice(&CONTROL_MAGIC.to_le_bytes());
        buf.push(kind);
        buf.extend_from_slice(&flow_id.to_le_bytes());
        buf.extend_from_slice(&generation.to_le_bytes());
        buf.extend_from_slice(&(count as u32).to_le_bytes());
        for &index in missing {
            buf.extend_from_slice(&index.to_le_bytes());
        }
        buf.extend_from_slice(member);
        buf
    }

    /// Parse a wire payload; `None` if it is not a well-formed control frame.
    pub fn decode(payload: &[u8]) -> Option<Control> {
        if payload.len() < 25 {
            return None;
        }
        if u32::from_le_bytes(payload[0..4].try_into().ok()?) != CONTROL_MAGIC {
            return None;
        }
        let kind = payload[4];
        let flow_id = u64::from_le_bytes(payload[5..13].try_into().ok()?);
        let generation = u64::from_le_bytes(payload[13..21].try_into().ok()?);
        let count = u32::from_le_bytes(payload[21..25].try_into().ok()?) as usize;
        // `Miss` carries `count` member-name bytes; every other kind
        // carries `count` 4-byte chunk indices (0 outside `Nack`).
        let expected = if kind == 4 {
            25 + count
        } else {
            25 + 4 * count
        };
        if payload.len() != expected {
            return None;
        }
        match kind {
            0 => {
                let missing = (0..count)
                    .map(|i| {
                        u32::from_le_bytes(payload[25 + 4 * i..29 + 4 * i].try_into().expect("4 B"))
                    })
                    .collect();
                Some(Control::Nack {
                    flow_id,
                    generation,
                    missing,
                })
            }
            1 if count == 0 => Some(Control::Ack {
                flow_id,
                generation,
            }),
            2 if count == 0 => Some(Control::NeedFull {
                flow_id,
                generation,
            }),
            3 if count == 0 => Some(Control::Round {
                flow_id,
                generation,
            }),
            4 => {
                let member = std::str::from_utf8(&payload[25..25 + count]).ok()?;
                if member.is_empty() {
                    return None;
                }
                Some(Control::Miss {
                    flow_id,
                    generation,
                    member: member.to_string(),
                })
            }
            _ => None,
        }
    }

    /// The flow this frame is about.
    pub fn flow_id(&self) -> u64 {
        match self {
            Control::Nack { flow_id, .. }
            | Control::Ack { flow_id, .. }
            | Control::NeedFull { flow_id, .. }
            | Control::Round { flow_id, .. }
            | Control::Miss { flow_id, .. } => *flow_id,
        }
    }

    /// The retransmit-round generation carried by this frame.
    pub fn generation(&self) -> u64 {
        match self {
            Control::Nack { generation, .. }
            | Control::Ack { generation, .. }
            | Control::NeedFull { generation, .. }
            | Control::Round { generation, .. }
            | Control::Miss { generation, .. } => *generation,
        }
    }
}

/// Sender-side retransmission budget and receiver-side NACK pacing: the
/// four knobs a deployment sets. The backoff schedule and the feedback
/// jitter are constants of the protocol (see
/// [`RetryPolicy::backoff_with_pressure`] and [`deterministic_jitter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retransmission rounds per flow before the sender gives up.
    pub max_retries: u32,
    /// Virtual-time window the sender's reactor arms per flow before
    /// resending the whole flow blind (covers "the final chunk was dropped
    /// and the receiver never saw enough to complain"). The timer is a
    /// virtual-clock deadline on the delivery reactor's timer wheel; it
    /// fires only when no deliverable event precedes it, so it never
    /// advances the clock and a loaded test machine cannot trigger it
    /// spuriously.
    pub ack_timeout: Duration,
    /// Virtual-time inactivity (since the last chunk arrival) after which
    /// the receiver NACKs a partial flow. Also a reactor timer-wheel
    /// deadline, not a wall-clock poll.
    pub nack_after: Duration,
    /// How many times the receiver re-NACKs a stalled flow before
    /// abandoning it (freeing its buffer).
    pub max_nacks: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            ack_timeout: Duration::from_millis(200),
            nack_after: Duration::from_millis(8),
            max_nacks: 12,
        }
    }
}

/// Virtual-time backoff before the first retransmission round; doubles
/// each round (see [`viper_hw::retry_backoff`]).
const BASE_BACKOFF: Duration = Duration::from_micros(50);
/// Upper bound on the per-round backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(5);
/// Extra backoff per send queued behind a congested lane. A lane whose
/// queue is occupied is by definition slower than the producer; pushing
/// its repair rounds out makes room for the fresh versions that will
/// supersede the stragglers anyway.
const BACKPRESSURE_PENALTY: Duration = Duration::from_micros(100);
/// Upper bound on the accumulated backpressure penalty, so a deep backlog
/// cannot push a repair round out indefinitely.
const MAX_BACKPRESSURE: Duration = Duration::from_millis(2);
/// Maximum deterministic per-consumer jitter on receiver-side feedback
/// timers (NACK sends and reap deadlines).
const FEEDBACK_JITTER: Duration = Duration::from_micros(200);

impl RetryPolicy {
    /// The virtual-time backoff charged before retransmission round
    /// `attempt` (**1-based**): exponential from 50 µs, capped at 5 ms,
    /// plus 100 µs per send queued behind the congested lane (`backlog`),
    /// that penalty capped at 2 ms.
    pub fn backoff_with_pressure(attempt: u32, backlog: usize) -> Duration {
        let penalty = BACKPRESSURE_PENALTY
            .checked_mul(backlog.min(u32::MAX as usize) as u32)
            .unwrap_or(MAX_BACKPRESSURE)
            .min(MAX_BACKPRESSURE);
        Self::backoff(attempt) + penalty
    }

    /// The exponential part of [`RetryPolicy::backoff_with_pressure`].
    ///
    /// Passing `attempt = 0` is a caller bug (there is no round zero —
    /// the initial send is not a retry); it trips a debug assertion and
    /// is clamped to round 1 in release builds so a miscounted attempt
    /// can never yield a zero-backoff instant retransmit.
    fn backoff(attempt: u32) -> Duration {
        debug_assert!(attempt >= 1, "backoff attempts are 1-based, got 0");
        viper_hw::retry_backoff(BASE_BACKOFF, attempt.max(1), BACKOFF_CAP)
    }
}

/// Deterministic per-consumer jitter in `[0, 200 µs]`, derived from stable
/// identifiers only: an FNV-1a hash of `node`'s bytes mixed with
/// `generation` through a SplitMix64 finalizer. The same (node,
/// generation) always yields the same offset — across runs, reactor
/// thread counts, and telemetry settings — so jitter spreads synchronized
/// feedback deadlines without ever touching wall time.
pub fn deterministic_jitter(node: &str, generation: u64) -> Duration {
    let max_ns = FEEDBACK_JITTER.as_nanos() as u64;
    // FNV-1a over the node name.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in node.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Mix in the generation and finalize (SplitMix64).
    let mut z = hash ^ generation.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    Duration::from_nanos(z % (max_ns + 1))
}

/// A lane's one pending send, collapsing to the latest version: the
/// paper's consumers only ever want the *newest* model, so a congested
/// consumer's backlog holds the freshest update and drops superseded ones
/// rather than growing without bound (head-of-line blocking).
///
/// Invariants, property-tested in `tests/coalesce_proptests.rs`:
///
/// * the newest pushed version is never dropped;
/// * [`CoalesceQueue::pop`] yields strictly increasing versions;
/// * every update ever pushed is either popped or reported back as
///   superseded (returned from [`CoalesceQueue::push`] and counted by
///   [`CoalesceQueue::superseded`]) — exactly once, never both.
#[derive(Debug)]
pub struct CoalesceQueue<T> {
    pending: Option<(u64, T)>,
    superseded: u64,
    last_popped: Option<u64>,
}

impl<T> Default for CoalesceQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CoalesceQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CoalesceQueue {
            pending: None,
            superseded: 0,
            last_popped: None,
        }
    }

    /// Enqueue `item` as `version`, returning the update this push
    /// superseded (already counted): the previously pending one, or —
    /// when `version` is not newer than everything pending or already
    /// popped — `item` itself.
    pub fn push(&mut self, version: u64, item: T) -> Option<(u64, T)> {
        let newest = self.pending.as_ref().map(|(v, _)| *v).or(self.last_popped);
        let dropped = if newest.is_some_and(|newest| version <= newest) {
            Some((version, item))
        } else {
            self.pending.replace((version, item))
        };
        self.superseded += u64::from(dropped.is_some());
        dropped
    }

    /// Dequeue the pending update. Versions come out strictly increasing
    /// across the queue's lifetime.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let (version, item) = self.pending.take()?;
        self.last_popped = Some(version);
        Some((version, item))
    }

    /// Pending updates currently queued (0 or 1).
    pub fn len(&self) -> usize {
        usize::from(self.pending.is_some())
    }

    /// Whether no update is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_none()
    }

    /// Total updates dropped as superseded over the queue's lifetime.
    pub fn superseded(&self) -> u64 {
        self.superseded
    }
}

/// A partial flow that went stale on the receiver (chunks lost or corrupt
/// and never retransmitted in time). The reliability layer turns these into
/// NACKs; an `abandoned` error means the assembler also released the
/// flow's held chunks and stopped waiting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowError {
    /// Sender node of the stalled flow.
    pub from: String,
    /// Flow id from the chunk headers.
    pub flow_id: u64,
    /// Application tag carried by the flow's chunks.
    pub tag: String,
    /// Link the flow's chunks traversed (the NACK goes back the same way).
    pub link: LinkKind,
    /// Chunk indices never (validly) received.
    pub missing: Vec<u32>,
    /// Whether the assembler gave up and evicted the partial flow.
    pub abandoned: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_roundtrips() {
        for control in [
            Control::Ack {
                flow_id: 99,
                generation: 0,
            },
            Control::NeedFull {
                flow_id: 41,
                generation: 3,
            },
            Control::Round {
                flow_id: 12,
                generation: 7,
            },
            Control::Nack {
                flow_id: 7,
                generation: 2,
                missing: vec![0, 3, 12],
            },
            Control::Nack {
                flow_id: u64::MAX,
                generation: u64::MAX,
                missing: vec![],
            },
            Control::Miss {
                flow_id: 17,
                generation: 1,
                member: "leaf-α/7".into(),
            },
        ] {
            assert_eq!(Control::decode(&control.encode()), Some(control));
        }
    }

    #[test]
    fn control_accessors_cover_all_kinds() {
        let nack = Control::Nack {
            flow_id: 5,
            generation: 9,
            missing: vec![1],
        };
        assert_eq!(nack.flow_id(), 5);
        assert_eq!(nack.generation(), 9);
        let round = Control::Round {
            flow_id: 6,
            generation: 2,
        };
        assert_eq!(round.flow_id(), 6);
        assert_eq!(round.generation(), 2);
    }

    #[test]
    fn malformed_control_rejected() {
        assert_eq!(Control::decode(b""), None);
        assert_eq!(Control::decode(b"VPRLxxxxxxxxxxxxxxxxxxxxx"), None);
        let mut truncated = Control::Nack {
            flow_id: 1,
            generation: 0,
            missing: vec![1, 2],
        }
        .encode();
        truncated.pop();
        assert_eq!(Control::decode(&truncated), None);
        // A pre-generation (17-byte) frame no longer parses.
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&CONTROL_MAGIC.to_le_bytes());
        legacy.push(1);
        legacy.extend_from_slice(&1u64.to_le_bytes());
        legacy.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(Control::decode(&legacy), None);
        // Unknown kind byte.
        let mut bad = Control::Ack {
            flow_id: 1,
            generation: 0,
        }
        .encode();
        bad[4] = 9;
        assert_eq!(Control::decode(&bad), None);
        // ACK-family and Round frames carry no chunk indices.
        for frame in [
            Control::NeedFull {
                flow_id: 1,
                generation: 0,
            },
            Control::Round {
                flow_id: 1,
                generation: 1,
            },
        ] {
            let mut padded = frame.encode();
            padded[21..25].copy_from_slice(&1u32.to_le_bytes());
            padded.extend_from_slice(&0u32.to_le_bytes());
            assert_eq!(Control::decode(&padded), None);
        }
        // A Miss frame must carry exactly `count` bytes of valid, non-empty
        // UTF-8 member name.
        let miss = Control::Miss {
            flow_id: 3,
            generation: 0,
            member: "relay-1".into(),
        };
        let mut short = miss.encode();
        short.pop();
        assert_eq!(Control::decode(&short), None);
        let mut bad_utf8 = miss.encode();
        let end = bad_utf8.len() - 1;
        bad_utf8[end] = 0xFF;
        assert_eq!(Control::decode(&bad_utf8), None);
        let empty = Control::Miss {
            flow_id: 3,
            generation: 0,
            member: String::new(),
        };
        assert_eq!(Control::decode(&empty.encode()), None);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        // 50 µs, doubling per round, capped at 5 ms from round 8 on.
        let backoff = |attempt| RetryPolicy::backoff_with_pressure(attempt, 0);
        assert_eq!(backoff(1), Duration::from_micros(50));
        assert_eq!(backoff(2), Duration::from_micros(100));
        assert_eq!(backoff(3), Duration::from_micros(200));
        assert_eq!(backoff(7), Duration::from_micros(3_200));
        assert_eq!(backoff(8), Duration::from_millis(5));
        assert_eq!(backoff(30), Duration::from_millis(5));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "1-based"))]
    fn backoff_attempt_zero_clamps_to_round_one() {
        // Release builds clamp to round 1 instead of yielding ZERO (an
        // instant retransmit); debug builds trip the assertion.
        assert_eq!(RetryPolicy::backoff(0), RetryPolicy::backoff(1));
        assert_ne!(RetryPolicy::backoff(0), Duration::ZERO);
    }

    #[test]
    fn backpressure_penalty_scales_and_caps() {
        // Each queued send adds 100 µs; the term saturates at 2 ms.
        let base = RetryPolicy::backoff(1);
        let pressure = |backlog| RetryPolicy::backoff_with_pressure(1, backlog) - base;
        assert_eq!(pressure(0), Duration::ZERO);
        assert_eq!(pressure(1), Duration::from_micros(100));
        assert_eq!(pressure(2), Duration::from_micros(200));
        assert_eq!(pressure(20), Duration::from_millis(2));
        // Deep backlogs saturate at the cap — including absurd ones.
        assert_eq!(pressure(21), Duration::from_millis(2));
        assert_eq!(pressure(usize::MAX), Duration::from_millis(2));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_spread() {
        let max = Duration::from_micros(200);
        let a1 = deterministic_jitter("consumer-a", 7);
        let a2 = deterministic_jitter("consumer-a", 7);
        assert_eq!(a1, a2, "same inputs must give the same jitter");
        assert!(a1 <= max);
        // Different nodes (or generations) should not all collapse onto
        // one deadline — that is the thundering herd we are breaking up.
        let offsets: std::collections::BTreeSet<Duration> = (0..64)
            .map(|i| deterministic_jitter(&format!("consumer-{i}"), 1))
            .collect();
        assert!(offsets.iter().all(|&offset| offset <= max));
        assert!(offsets.len() > 32, "jitter barely spreads: {offsets:?}");
        let gens: std::collections::BTreeSet<Duration> = (0..16)
            .map(|g| deterministic_jitter("consumer-a", g))
            .collect();
        assert!(gens.len() > 8, "generation mixing too weak: {gens:?}");
    }

    #[test]
    fn coalesce_queue_collapses_to_latest() {
        let mut q = CoalesceQueue::new();
        assert_eq!(q.push(1, "v1"), None);
        // One pending send: pushing v2 collapses v1.
        assert_eq!(q.push(2, "v2"), Some((1, "v1")));
        assert_eq!(q.push(3, "v3"), Some((2, "v2")));
        assert_eq!(q.superseded(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((3, "v3")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn coalesce_queue_rejects_stale_pushes() {
        let mut q = CoalesceQueue::new();
        assert_eq!(q.push(5, "v5"), None);
        assert_eq!(q.pop(), Some((5, "v5")));
        // A version at or below the last popped one is itself superseded.
        assert_eq!(q.push(5, "again"), Some((5, "again")));
        assert_eq!(q.push(3, "older"), Some((3, "older")));
        assert_eq!(q.superseded(), 2);
        assert_eq!(q.push(6, "v6"), None);
        assert_eq!(q.push(6, "dup"), Some((6, "dup")));
        assert_eq!(q.len(), 1);
        assert_eq!(q.superseded(), 3);
    }
}
