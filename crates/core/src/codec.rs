//! The wire-codec layer: what bytes actually travel for one model update.
//!
//! [`PayloadCodec`] decides *per delivery group, per update* whether to
//! ship the full checkpoint or an incremental [`viper_formats::delta`]
//! against the base version every member last **acknowledged**. Both travel
//! behind an explicit payload-kind envelope ([`viper_formats::wire`]) so
//! the receiver dispatches by header, never by sniffing body magics. The
//! codec frames only deltas: a full is the update's own buffer, encoded
//! envelope-first in one pass at most once per version. Under delta
//! delivery on a memory route the save defers that encode, holding the
//! capture, and the full's first reader makes it: a fresh consumer here,
//! a `NeedFull` or relay retry on the delivery reactor, the durable
//! fallback or the PFS flush. A version every consumer is sent as a delta
//! is never encoded whole. A directly served consumer is a group of one;
//! a relay-tree root stands for its whole subtree.
//! The delivery layer ([`crate::delivery`]) drives the framed payload over
//! the fabric — chunking, CRC, fault injection, NACK/retransmit, and the
//! durable PFS fallback all compose with it.
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
//!   full encodings**: a zero-copy view past the envelope of the same
//!   buffer. The envelope exists only on the wire. A memory staging tier
//!   under delta delivery holds a reservation of the version's bytes, not
//!   an encoding: no engine code reads a memory staging tier.
//!
//! One `deliver` call encodes an update for all of its targets, so the
//! deltas it encodes live in a [`DeltaMemo`] local to that call: a delta
//! against a given base is diffed once however many consumers share the
//! base, and nothing encoded outlives the update.
//!
//! Virtual-time accounting: encoding a delta charges one full-model read
//! pass (the diff) at the route's staging bandwidth via
//! [`viper_hw::stage_time`], from the delivery's causal frontier, once per
//! (update, base), so the deterministic-timeline invariant (disabled vs
//! enabled telemetry is bit-identical) holds with delta transfer on.

use crate::producer::{charge_at, ProducerCtx, Update};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use viper_formats::{delta, wire, Checkpoint, Payload, PayloadKind};
use viper_hw::{stage_time, SimInstant};

/// What travels the wire for one consumer.
pub(crate) struct WirePayload {
    /// Body layout the envelope advertises.
    pub(crate) kind: PayloadKind,
    /// The bytes handed to the fabric: an encoded delta, or a zero-copy
    /// view of the update's own wire full.
    pub(crate) bytes: Payload,
    /// Per-chunk CRCs of `bytes` under the update's chunk geometry,
    /// computed in the same pass that serialized them. Handed to the
    /// fabric so neither the initial send nor any retransmission round
    /// re-reads the payload to checksum it.
    pub(crate) crcs: Arc<Vec<u32>>,
}

/// The deltas of one update already encoded in its `deliver` call: base
/// iteration → framed delta and its chunk CRCs, or `None` for a failed
/// diff (architecture changed), so several consumers sharing an
/// acknowledged base cost one diff pass and a failure is not retried per
/// consumer. Every send of an update is encoded in that one call (a
/// `NeedFull` retry, a relay `Miss` and a relay fallback all resend the
/// update's wire full), so the memo lives exactly as long as it can be
/// used.
pub(crate) type DeltaMemo = HashMap<u64, Option<(Payload, Arc<Vec<u32>>)>>;

/// Per-producer delta state: retained diff bases and per-consumer
/// acknowledged iterations. Only a save whose plan retains a base fills it,
/// and only `encode_for` under delta delivery reads it.
pub(crate) struct PayloadCodec {
    keep: usize,
    /// Recently saved checkpoints usable as diff bases: model → iteration
    /// → checkpoint, pruned alongside the metadata DB's version budget.
    retained: Mutex<HashMap<String, BTreeMap<u64, Arc<Checkpoint>>>>,
    /// Last iteration each (consumer, model) pair ACKed an install of.
    acked: Mutex<HashMap<(String, String), u64>>,
}

impl PayloadCodec {
    /// A codec retaining at most `keep_versions` bases per model.
    pub(crate) fn new(keep_versions: usize) -> Self {
        PayloadCodec {
            keep: keep_versions.max(1),
            retained: Mutex::new(HashMap::new()),
            acked: Mutex::new(HashMap::new()),
        }
    }

    /// Retain a captured checkpoint as a future diff base, pruned to the
    /// configured version budget. The base is the capture itself: a clone
    /// of the trainer's checkpoint shares its tensors, so retaining copies
    /// nothing, and the trainer's next write to a tensor copies that one
    /// tensor (see [`viper_tensor::Tensor`]). A diff against the base then
    /// reads only the tensors written since.
    pub(crate) fn retain(&self, ckpt: &Arc<Checkpoint>) {
        let mut retained = self.retained.lock().unwrap();
        let bases = retained.entry(ckpt.model_name.clone()).or_default();
        bases.insert(ckpt.iteration, Arc::clone(ckpt));
        while bases.len() > self.keep {
            bases.pop_first();
        }
    }

    /// The base checkpoint a delta for `members` must diff against: the
    /// iteration every one of them last acknowledged, if they all
    /// acknowledged the *same* one and it is still retained. A directly
    /// served consumer is a group of one; a relay re-serves one wire image
    /// to its whole subtree, so a group delta is only safe when it applies
    /// at every member — any divergence falls back to a full.
    fn base_for(&self, members: &[String], model: &str) -> Option<Arc<Checkpoint>> {
        let acked = self.acked.lock().unwrap();
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
        self.retained.lock().unwrap().get(model)?.get(&it).cloned()
    }

    /// Record that `consumer` acknowledged installing `iteration` of a model
    /// this codec retains bases of; any other ack could never pick a base.
    pub(crate) fn note_acked(&self, consumer: &str, model: &str, iteration: u64) {
        if !self.retained.lock().unwrap().contains_key(model) {
            return;
        }
        self.acked
            .lock()
            .unwrap()
            .insert((consumer.to_string(), model.to_string()), iteration);
    }

    /// Drop `consumer`'s base tracking (exhausted delivery or `NeedFull`):
    /// the next update falls back to a full checkpoint.
    pub(crate) fn forget(&self, consumer: &str, model: &str) {
        self.acked
            .lock()
            .unwrap()
            .remove(&(consumer.to_string(), model.to_string()));
    }
}

/// Choose and encode the *shared* wire payload for `members`: one directly
/// served consumer, or a relay group (a tree root plus its whole subtree —
/// the same bytes are re-served down every level). A delta needs a
/// retained capture (`update.ckpt`, kept only under delta delivery) and is
/// chosen only when [`PayloadCodec::base_for`] proves it applies at every
/// member; otherwise they get the update's own wire full — framed under
/// delta delivery, and encoded here if this is its first reader; the raw
/// encoding made at the save (byte-identical to a build without the codec
/// layer) otherwise. A diff pass is charged from
/// `frontier` — the delivery's causal instant — and moves it, once per base
/// the update's `memo` has not seen.
pub(crate) fn encode_for(
    ctx: &ProducerCtx,
    update: &Update,
    members: &[String],
    track: &str,
    frontier: &mut SimInstant,
    memo: &mut DeltaMemo,
) -> WirePayload {
    let (codec, counters) = (&ctx.codec, &ctx.counters);
    let record = &update.record;
    let shared = &ctx.viper.shared;
    if let Some(ckpt) = &update.ckpt {
        if let Some(base) = codec
            .base_for(members, &record.name)
            .filter(|b| b.iteration < ckpt.iteration)
        {
            let encoded = memo.entry(base.iteration).or_insert_with(|| {
                // The compare runs first, so the framed delta's length is
                // exact before its arena buffer is taken. Then envelope,
                // changed tensors and chunk CRCs stream into it in one
                // pass: no DeltaCheckpoint, tensor clone, or intermediate
                // buffer ever materializes on the send path.
                let diff = delta::Diff::new(&base, ckpt).ok()?;
                let len = wire::WIRE_HEADER_BYTES + diff.encoded_len();
                let encoded = ctx.encode(len, |enc| {
                    enc.put_bytes(&wire::envelope(PayloadKind::Delta));
                    diff.encode_into(enc);
                });
                // The diff is one read pass over the full model at the
                // route's staging bandwidth, charged causally from the
                // delivery frontier.
                let t0 = *frontier;
                *frontier = charge_at(
                    &shared.clock,
                    t0,
                    stage_time(&shared.config.profile, update.route, record.size_bytes),
                );
                shared.config.telemetry.complete(
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
                Some((encoded.payload, encoded.chunk_crcs))
            });
            if let Some((bytes, crcs)) = encoded.clone() {
                counters.delta_sends.inc();
                let full_len = record.size_bytes + wire::WIRE_HEADER_BYTES as u64;
                counters
                    .delta_bytes_saved
                    .add(full_len.saturating_sub(bytes.len() as u64));
                return WirePayload {
                    kind: PayloadKind::Delta,
                    bytes,
                    crcs,
                };
            }
        }
        counters.delta_fallbacks.inc();
    }
    let full = update.wire_full(ctx);
    WirePayload {
        kind: PayloadKind::Full,
        bytes: full.payload,
        crcs: full.chunk_crcs,
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

    fn codec() -> PayloadCodec {
        PayloadCodec::new(16)
    }

    #[test]
    fn an_ack_without_a_retained_base_is_no_delta_base() {
        let codec = codec();
        codec.note_acked("c", "m", 1);
        assert!(base_of(&codec, "c").is_none());
        // Nothing was recorded: retaining the model later does not make it
        // one either (a non-delta deployment keeps no ack state at all).
        codec.retain(&ckpt(1));
        assert!(base_of(&codec, "c").is_none());
    }

    #[test]
    fn base_requires_ack_and_retention() {
        let codec = codec();
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
        let codec = PayloadCodec::new(2);
        for i in 1..=5 {
            codec.retain(&ckpt(i));
        }
        codec.note_acked("c", "m", 3);
        // Iteration 3 was pruned (only 4 and 5 retained): full fallback.
        assert!(base_of(&codec, "c").is_none());
        for kept in [4, 5] {
            codec.note_acked("c", "m", kept);
            assert_eq!(base_of(&codec, "c").unwrap().iteration, kept);
        }
    }

    /// The trainer's loop: save, rewrite one tensor in place, save. The
    /// retained base shares the first capture's tensors, so the write
    /// copies the one tensor it touches and leaves the base intact: both
    /// versions install bit-identical, and the delta carries that tensor
    /// alone.
    #[test]
    fn a_save_after_an_in_place_write_ships_only_the_written_tensor() {
        use crate::{Viper, ViperConfig};
        use std::time::Duration;
        use viper_hw::{CaptureMode, Route};
        use viper_tensor::Tensor;
        let mut config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_delta();
        config.flush_to_pfs = false;
        let viper = Viper::new(config);
        let (producer, consumer) = (viper.producer("p"), viper.consumer("c", "m"));
        let load = || consumer.load_weights(Duration::from_secs(10)).unwrap();
        let tensors = (0..4).map(|i| (format!("t{i}"), Tensor::full(&[256], i as f32)));
        let mut model = Checkpoint::new("m", 1, tensors.collect());
        producer.save_weights(&model).unwrap();
        let first = model.clone();
        assert_eq!(*load(), first);

        model.tensors[2].1.as_mut_slice()[7] = -1.0;
        model.iteration = 2;
        assert!(!model.tensors[2].1.same_storage(&first.tensors[2].1));
        let full = producer.save_weights(&model).unwrap().bytes + wire::WIRE_HEADER_BYTES as u64;
        assert_eq!(*load(), model);
        assert_eq!(first.tensors[2].1, Tensor::full(&[256], 2.0));
        assert_eq!((producer.delta_sends(), consumer.deltas_applied()), (1, 1));
        let one_tensor = delta::DeltaCheckpoint {
            model_name: "m".into(),
            base_iteration: 1,
            iteration: 2,
            changed: vec![model.tensors[2].clone()],
            unchanged: ["t0", "t1", "t3"].map(String::from).to_vec(),
        };
        let sent = wire::WIRE_HEADER_BYTES + one_tensor.encode().len();
        assert_eq!(producer.delta_bytes_saved(), full - sent as u64);
    }
}
