//! The stage replay: take the workload's own checkpoints and, on one
//! thread, call each layer's public functions in pipeline order, timing
//! every call from outside. The engine is not running here, so a stage's
//! median is its cost with nothing contending — the live update's wall
//! time minus the replayed blocking path is what hand-offs, scheduling and
//! waiting cost (`core.unattributed_ms`).

use crate::spans::{SpanId, SpanLog};
use crate::stats::median;
use crate::workload::{bit_identical, Inputs, Path, Spec, DENSE_PERIOD, MODEL};
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use viper::{ModelSlot, UPDATE_TOPIC};
use viper_formats::{
    crc32, delta, wire, Checkpoint, CheckpointFormat, DeltaCheckpoint, EncodeArena, PayloadKind,
    StreamingEncoder, ViperFormat,
};
use viper_hw::{MachineProfile, SimClock, SimInstant, StorageTier, Tier};
use viper_metastore::{MetadataDb, ModelRecord, PubSub};
use viper_net::{
    chunk_body_crc, ChunkedSend, Fabric, FlowAssembler, FlowStatus, LinkKind, Payload, Reactor,
    ReactorTask, TaskCtx,
};
use viper_telemetry::Telemetry;

/// Payload bytes the pipeline stages push through in total, which fixes
/// the repetition count per workload (never below [`MIN_REPS`]).
const REPLAY_BYTES: usize = 1 << 30;
const MIN_REPS: usize = 10;
const MAX_REPS: usize = 200;
const ROUNDTRIP_REPS: usize = 2000;

/// Medians of the replayed stages, keyed by per-layer metric name, in
/// the unit the name ends in (`_ms`, `_us`, `_gib_s`).
pub struct Replay {
    pub stages: BTreeMap<&'static str, f64>,
    pub reps: usize,
    /// Bytes of one full encoding (exact).
    pub encoded_bytes: u64,
    /// Sparse delta wire bytes ÷ full encoded bytes (exact; 0 off the
    /// delta workload).
    pub delta_wire_share: f64,
    /// Every replayed install was bit-identical to its input.
    pub correct: bool,
}

impl Replay {
    pub fn stage(&self, name: &str) -> f64 {
        self.stages.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the stage medians an update waits for, in ms.
    pub fn blocking_path_ms(&self, spec: &Spec) -> f64 {
        blocking_path(spec, |name| self.stage(name))
            .iter()
            .map(|(_, ms)| ms)
            .sum()
    }
}

/// The stages an update waits for and what each contributes, in ms, given
/// a stage's median by name. The producer half runs once; everything from
/// the send on runs once per consumer, and since one reactor thread serves
/// every lane those runs are in series.
pub fn blocking_path(spec: &Spec, stage: impl Fn(&'static str) -> f64) -> Vec<(&'static str, f64)> {
    let per_consumer = spec.consumers as f64;
    let ms = |name: &'static str, times: f64| {
        let scale = if name.ends_with("_us") { 1e-3 } else { 1.0 };
        (name, stage(name) * scale * times)
    };
    let mut path = vec![
        ms("formats.encode_ms", 1.0),
        ms("hw.tier_write_us", 1.0),
        ms("metastore.put_us", 1.0),
        ms("metastore.notify_us", 1.0),
        ms("net.send_ms", per_consumer),
        ms("net.recv_ms", per_consumer),
        ms("net.verify_ms", per_consumer),
        ms("net.assemble_ms", per_consumer),
        ms("core.install_us", per_consumer),
    ];
    if spec.path == Path::DeltaSparse {
        path.push(ms("formats.diff_ms", 1.0));
        path.push(ms("formats.apply_ms", per_consumer));
    } else {
        path.push(ms("formats.decode_ms", per_consumer));
    }
    path
}

/// Times stages of one repetition as children of that repetition's
/// `bench.replay` root.
struct StageTimer<'a> {
    log: &'a mut SpanLog,
    samples_ns: BTreeMap<&'static str, Vec<f64>>,
    root: SpanId,
    rep: u64,
}

impl StageTimer<'_> {
    fn time<T>(&mut self, name: &'static str, stage: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(stage());
        let end = Instant::now();
        self.log.record(name, start, end, Some(self.root), self.rep);
        self.samples_ns
            .entry(name)
            .or_default()
            .push((end - start).as_nanos() as f64);
        out
    }
}

/// A task that answers every job on the reply channel it carries.
struct EchoTask;

impl ReactorTask for EchoTask {
    fn on_mail(&mut self, _ctx: &mut TaskCtx<'_>) {}
    fn on_timer(&mut self, _token: u64, _deadline: SimInstant, _ctx: &mut TaskCtx<'_>) {}
    fn on_job(&mut self, job: Box<dyn Any + Send>, _ctx: &mut TaskCtx<'_>) {
        if let Ok(reply) = job.downcast::<mpsc::Sender<()>>() {
            let _ = reply.send(());
        }
    }
}

pub fn replay(spec: &Spec, inputs: &mut Inputs, first_iteration: u64, log: &mut SpanLog) -> Replay {
    let reps = (REPLAY_BYTES / spec.tensor_bytes.max(1)).clamp(MIN_REPS, MAX_REPS);
    let profile = MachineProfile::polaris();
    let clock = SimClock::new();
    let format = ViperFormat;
    let mut arena = EncodeArena::new();
    let tier = StorageTier::new(*profile.tier(Tier::GpuMem), clock.clone());
    let db = MetadataDb::new();
    let bus: PubSub<ModelRecord> = PubSub::new();
    let subscription = bus.subscribe(UPDATE_TOPIC);
    let fabric = Fabric::new(profile, clock);
    let sender = fabric.register("replay-producer");
    let receiver = fabric.register("replay-consumer");
    let mut assembler = FlowAssembler::new();
    let slot = ModelSlot::new();
    let is_delta = spec.path == Path::DeltaSparse;
    let link = LinkKind::GpuDirect;

    let mut timer = StageTimer {
        log,
        samples_ns: BTreeMap::new(),
        root: 0,
        rep: 0,
    };
    let mut iteration = first_iteration;
    let mut base: Option<Checkpoint> = is_delta.then(|| inputs.current().clone());
    let mut encoded_bytes = 0;
    let mut delta_wire_share = 0.0;
    let mut correct = true;

    for rep in 0..reps {
        // The delta workload replays its sparse update, the common case
        // its p50 reports; the dense one is the full path other
        // workloads already replay.
        if is_delta && iteration.is_multiple_of(DENSE_PERIOD) {
            iteration += 1;
        }
        let ckpt = inputs.next(iteration);
        let ntensors = ckpt.ntensors();
        let key = format!("{MODEL}/replay/i{iteration}");
        let tag = format!("{MODEL}:{iteration}");
        let rep_start = Instant::now();
        timer.root = timer.log.open("bench.replay", rep_start, rep as u64);
        timer.rep = rep as u64;

        let encoded = timer.time("formats.encode_ms", || {
            let hint = ckpt.payload_bytes() as usize + 64 * ntensors + 64;
            let mut enc = StreamingEncoder::from_arena(&mut arena, hint, spec.chunk_bytes);
            format.encode_into(ckpt, &mut enc);
            enc.finish_into(&mut arena)
        });
        encoded_bytes = encoded.payload.len() as u64;
        timer.time("hw.tier_write_us", || {
            tier.write(&key, encoded.payload.clone(), ntensors)
                .expect("GPU tier holds one checkpoint")
        });
        timer.time("hw.tier_read_us", || {
            tier.read(&key).expect("object was just written")
        });
        let record = ModelRecord::new(
            MODEL,
            encoded_bytes,
            ntensors,
            Tier::GpuMem.name(),
            key.as_str(),
        )
        .at_iteration(iteration);
        timer.time("metastore.put_us", || {
            db.put(record.clone());
            db.prune(MODEL, 2)
        });
        timer.time("metastore.notify_us", || {
            bus.publish(UPDATE_TOPIC, record);
            subscription.recv()
        });

        let (wire_payload, wire_crcs) = match &base {
            Some(base) => {
                let framed = timer.time("formats.diff_ms", || {
                    let mut enc = StreamingEncoder::new(spec.chunk_bytes);
                    enc.put_bytes(&wire::envelope(PayloadKind::Delta));
                    delta::diff_into(base, ckpt, &mut enc).expect("same architecture");
                    enc.finish()
                });
                delta_wire_share = framed.payload.len() as f64 / encoded_bytes as f64;
                (framed.payload, framed.chunk_crcs)
            }
            None => (encoded.payload.clone(), Arc::clone(&encoded.chunk_crcs)),
        };

        timer.time("net.send_ms", || {
            if spec.chunk_bytes > 0 {
                let opts = ChunkedSend::new(spec.chunk_bytes).with_crcs(wire_crcs);
                sender
                    .send_chunked(receiver.node(), &tag, wire_payload, link, &opts)
                    .map(|_| ())
            } else {
                sender
                    .send(receiver.node(), &tag, wire_payload, link)
                    .map(|_| ())
            }
            .expect("receiver is registered")
        });
        let messages = timer.time("net.recv_ms", || {
            let mut messages = Vec::new();
            while let Some(message) = receiver.try_recv() {
                messages.push(message);
            }
            messages
        });
        let crcs = timer.time("net.verify_ms", || {
            messages.iter().map(chunk_body_crc).collect::<Vec<_>>()
        });
        let arrived: Option<Payload> = timer.time("net.assemble_ms", || {
            let mut whole = None;
            for (message, crc) in messages.into_iter().zip(crcs) {
                match assembler.accept_with_crc(message, crc) {
                    FlowStatus::Complete(flow) => whole = Some(flow.payload),
                    FlowStatus::Passthrough(message) => {
                        whole = Some(message.payload.into_payload())
                    }
                    _ => {}
                }
            }
            whole
        });
        let arrived = arrived.expect("a fault-free private fabric delivers every flow");

        let decoded = timer.time("formats.decode_ms", || {
            format
                .decode(&encoded.payload)
                .expect("decodes its own encoding")
        });
        let installable = match &base {
            Some(base) => timer.time("formats.apply_ms", || {
                let (_, body) = wire::unframe(&arrived).expect("framed by the diff stage");
                let delta = DeltaCheckpoint::decode(body).expect("decodes its own delta");
                delta::apply_owned(base, delta)
                    .expect("delta of this base")
                    .0
            }),
            None => decoded,
        };
        let installed = timer.time("core.install_us", || {
            slot.install_if_newer(installable);
            slot.current()
        });
        timer.time("formats.crc_gib_s", || crc32(&encoded.payload));
        timer.log.close(timer.root, Instant::now());

        correct &= installed.is_some_and(|got| bit_identical(ckpt, &got));
        if base.is_some() {
            base = Some(ckpt.clone());
        }
        // Release every view of this repetition's buffers so the arena
        // recycles them, as the engine's pruning does.
        tier.remove(&key);
        iteration += 1;
    }

    let roundtrip_root = timer.log.open("bench.replay", Instant::now(), reps as u64);
    timer.root = roundtrip_root;
    timer.rep = reps as u64;
    {
        let reactor = Reactor::new(1, Telemetry::disabled());
        reactor.register("echo", Box::new(EchoTask));
        for _ in 0..ROUNDTRIP_REPS {
            timer.time("net.reactor_roundtrip_us", || {
                let (reply, done) = mpsc::channel::<()>();
                reactor.submit("echo", Box::new(reply));
                done.recv().expect("echo task replies")
            });
        }
        reactor.deregister("echo");
    }
    timer.log.close(roundtrip_root, Instant::now());

    let stages = timer
        .samples_ns
        .iter()
        .map(|(&name, ns)| {
            let ns = median(ns);
            let value = if name.ends_with("_us") {
                ns / 1e3
            } else if name.ends_with("_gib_s") {
                encoded_bytes as f64 / (1u64 << 30) as f64 / (ns / 1e9)
            } else {
                ns / 1e6
            };
            (name, value)
        })
        .collect();
    Replay {
        stages,
        reps,
        encoded_bytes,
        delta_wire_share,
        correct,
    }
}
