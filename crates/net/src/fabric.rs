//! The fabric: node registry, endpoints, and modeled point-to-point links.

use crate::chunk::{chunk_sizes, payload_chunk_crcs, ChunkHeader, ChunkedSend, FlowReport};
use crate::fault::{FaultPlan, FaultRng};
use crate::reliability::Control;
use crate::wirebuf::WireBuf;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;
use viper_formats::Payload;
use viper_hw::{MachineProfile, SimClock, SimInstant};
use viper_telemetry::Telemetry;

/// Which physical link a transfer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Direct GPU-to-GPU path (GPUDirect RDMA / NVLink class).
    GpuDirect,
    /// Host-to-host RDMA (InfiniBand verbs, no GPUDirect).
    HostRdma,
}

impl LinkKind {
    /// Short stable label, used in telemetry track and metric names.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::GpuDirect => "gpu",
            LinkKind::HostRdma => "rdma",
        }
    }

    /// Modeled wire time for `bytes` over this link under `profile`.
    pub fn transfer_time(self, profile: &MachineProfile, bytes: u64) -> Duration {
        match self {
            LinkKind::GpuDirect => profile.gpu_transfer_time(bytes),
            LinkKind::HostRdma => profile.host_transfer_time(bytes),
        }
    }
}

/// Errors from fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination node is not registered (or has been dropped).
    UnknownNode(String),
    /// A node name was registered twice.
    DuplicateNode(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node: {n}"),
            NetError::DuplicateNode(n) => write!(f, "node already registered: {n}"),
        }
    }
}

impl std::error::Error for NetError {}

/// What a [`Message`]'s payload is — chunk handling and the reliability
/// protocol key on this marker, never on payload byte patterns, so a
/// control frame that imitates chunk framing is still a control frame.
/// Every application payload travels as a chunked flow (a monolithic one
/// as a flow of one chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// One chunk of a chunked flow (payload carries a
    /// [`ChunkHeader`](crate::ChunkHeader) frame).
    Chunk,
    /// A reliability control frame (ACK/NACK); never fault-injected.
    Control,
}

/// A message in flight (or delivered).
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Application tag (e.g. the model key).
    pub tag: String,
    /// Payload bytes (inline chunk header, if framed, plus a shared body
    /// view — see [`WireBuf`]).
    pub payload: WireBuf,
    /// What the payload is (chunk frame or control frame).
    pub kind: MessageKind,
    /// Link the message traversed.
    pub link: LinkKind,
    /// Virtual time the send started.
    pub sent_at: SimInstant,
    /// Virtual time the message arrived at the destination.
    pub arrived_at: SimInstant,
    /// Modeled wire duration.
    pub wire_time: Duration,
}

struct FaultState {
    plan: FaultPlan,
    rng: FaultRng,
}

struct FabricInner {
    profile: MachineProfile,
    clock: SimClock,
    nodes: RwLock<HashMap<String, Sender<Message>>>,
    /// Monotonic id source for chunked flows.
    next_flow: AtomicU64,
    /// Per-link occupancy: the virtual instant each sender's `(from, link)`
    /// lane is busy until. A node's outbound chunks — to any receiver —
    /// serialize behind it, so a fan-out queues on its sender's link;
    /// different senders and links overlap freely in virtual time.
    link_busy: Mutex<HashMap<(String, LinkKind), SimInstant>>,
    /// Fault-injection state, when a plan is installed.
    faults: Mutex<Option<FaultState>>,
    /// Telemetry sink for lane spans and fabric counters. Disabled by
    /// default; a deployment installs its handle via
    /// [`Fabric::set_telemetry`].
    telemetry: RwLock<Telemetry>,
    /// Delivery-notification hook: called with the destination node name
    /// after messages land in its queue. A reactor-driven deployment
    /// installs one via [`Fabric::set_waker`] so receivers are mailed
    /// instead of polling; a bare fabric has none and behaves as before.
    waker: RwLock<Option<Waker>>,
}

/// A delivery-notification hook: invoked with the destination node name
/// after messages land in its queue (see [`Fabric::set_waker`]).
pub type Waker = Arc<dyn Fn(&str) + Send + Sync>;

/// Telemetry track name for a sender's `(from, link)` lane, the unit of
/// occupancy ([`FabricInner::link_busy`]): every chunk the sender puts on
/// the link, to any receiver, is drawn on it. Spans and instants name
/// their receiver in a `to` arg.
fn lane_track(from: &str, link: LinkKind) -> String {
    format!("lane:{from}/{}", link.label())
}

/// Bucket bounds (µs) for the per-chunk wire-time histogram.
const WIRE_US_BUCKETS: [u64; 8] = [
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// The interconnect shared by all simulated nodes.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// A fabric with the given machine profile and virtual clock.
    pub fn new(profile: MachineProfile, clock: SimClock) -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                profile,
                clock,
                nodes: RwLock::new(HashMap::new()),
                next_flow: AtomicU64::new(0),
                link_busy: Mutex::new(HashMap::new()),
                faults: Mutex::new(None),
                telemetry: RwLock::new(Telemetry::disabled()),
                waker: RwLock::new(None),
            }),
        }
    }

    /// Install the telemetry handle used for lane-occupancy spans and
    /// fabric counters. `Viper::new` wires the deployment handle here; a
    /// bare fabric records nothing.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *self.inner.telemetry.write().unwrap() = telemetry;
    }

    fn telemetry(&self) -> Telemetry {
        self.inner.telemetry.read().unwrap().clone()
    }

    /// Install (or clear, with `None`) the delivery-notification hook. It
    /// is invoked with the destination node name once per send — after the
    /// message (or, for chunked sends, the whole batch) is enqueued — so an
    /// event loop can mail the receiver instead of it polling its endpoint.
    /// The hook must be cheap and non-blocking (e.g. a channel send).
    pub fn set_waker(&self, waker: Option<Waker>) {
        *self.inner.waker.write().unwrap() = waker;
    }

    /// Notify the installed waker (if any) that `to` has new mail.
    fn notify(&self, to: &str) {
        if let Some(waker) = self.inner.waker.read().unwrap().as_ref() {
            waker(to);
        }
    }

    /// Install (or clear, with `None`) a deterministic fault-injection
    /// plan. Chunk messages sent afterwards are perturbed per the
    /// plan's probabilities; control frames never are. With no plan — or a
    /// plan whose probabilities are all zero — delivery and timing are
    /// bit-identical to a fabric that never heard of faults.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.inner.faults.lock().unwrap() = plan.map(|plan| FaultState {
            rng: FaultRng::new(plan.seed),
            plan,
        });
    }

    /// Register a node and obtain its endpoint. Panics on duplicate names —
    /// use [`Fabric::try_register`] to handle that case.
    pub fn register(&self, node: &str) -> Endpoint {
        self.try_register(node)
            .expect("duplicate node registration")
    }

    /// Register a node, failing if the name is taken.
    pub fn try_register(&self, node: &str) -> Result<Endpoint, NetError> {
        let (tx, rx) = channel();
        let mut nodes = self.inner.nodes.write().unwrap();
        if nodes.contains_key(node) {
            return Err(NetError::DuplicateNode(node.to_string()));
        }
        nodes.insert(node.to_string(), tx);
        Ok(Endpoint {
            node: node.to_string(),
            rx: Mutex::new(rx),
            fabric: self.clone(),
        })
    }

    /// Remove a node (its endpoint stops receiving; senders get
    /// [`NetError::UnknownNode`]).
    pub fn deregister(&self, node: &str) -> bool {
        self.inner.nodes.write().unwrap().remove(node).is_some()
    }

    /// The machine profile backing the link models.
    pub fn profile(&self) -> &MachineProfile {
        &self.inner.profile
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Run `msgs` (one flow's delivery order) through the fault plan.
    /// Timing is already fixed by the schedule — faults only perturb what
    /// actually lands in the destination queue: corrupt bodies, dropped or
    /// duplicated messages, adjacent reorders. Control frames and fault-free
    /// links pass through without consuming randomness.
    fn apply_faults(&self, msgs: Vec<Message>, telemetry: &Telemetry) -> Vec<Message> {
        let mut guard = self.inner.faults.lock().unwrap();
        let Some(state) = guard.as_mut() else {
            return msgs;
        };
        let mut out: Vec<Message> = Vec::with_capacity(msgs.len());
        let mut swap_next: Vec<bool> = Vec::with_capacity(msgs.len());
        for mut msg in msgs {
            let faults = state.plan.faults_for_node(&msg.to, msg.link);
            if msg.kind == MessageKind::Control || !faults.any() {
                out.push(msg);
                swap_next.push(false);
                continue;
            }
            // Fixed draw order per message keeps the stream deterministic.
            let corrupt = state.rng.chance(faults.corrupt);
            let drop = state.rng.chance(faults.drop);
            let duplicate = state.rng.chance(faults.duplicate);
            let reorder = state.rng.chance(faults.reorder);
            if corrupt {
                // Flip one bit of the *body*: chunk framing stays intact so
                // the damage is the CRC's to catch, not the parser's. A
                // framed WireBuf already separates header from body; a
                // contiguous chunk payload still skips the embedded header.
                // Draw count and bit position match the old full-frame copy
                // path exactly, keeping seeded fault streams stable.
                let body_start = match (msg.kind, msg.payload.head()) {
                    (MessageKind::Chunk, None) => ChunkHeader::WIRE_SIZE,
                    _ => 0,
                };
                if msg.payload.body().len() > body_start {
                    let head = msg.payload.head().copied();
                    let mut bytes = msg.payload.body().to_vec();
                    let bits = ((bytes.len() - body_start) * 8) as u64;
                    let bit = state.rng.below(bits) as usize;
                    bytes[body_start + bit / 8] ^= 1 << (bit % 8);
                    let body = Payload::from(bytes);
                    msg.payload = match head {
                        Some(head) => WireBuf::framed(head, body),
                        None => WireBuf::plain(body),
                    };
                }
                telemetry.counter("fabric.faults.corrupted").inc();
                telemetry.instant_at(
                    "fault",
                    "corrupt",
                    &lane_track(&msg.from, msg.link),
                    msg.arrived_at.as_nanos(),
                    &[("to", msg.to.as_str().into())],
                );
            }
            if drop {
                // The bytes occupied the wire (time was charged) and then
                // vanished: nothing reaches the queue.
                telemetry.counter("fabric.faults.dropped").inc();
                telemetry.instant_at(
                    "fault",
                    "drop",
                    &lane_track(&msg.from, msg.link),
                    msg.arrived_at.as_nanos(),
                    &[("to", msg.to.as_str().into())],
                );
                continue;
            }
            if duplicate {
                telemetry.counter("fabric.faults.duplicated").inc();
            }
            if reorder {
                telemetry.counter("fabric.faults.reordered").inc();
            }
            let dup = duplicate.then(|| msg.clone());
            out.push(msg);
            swap_next.push(reorder);
            if let Some(copy) = dup {
                out.push(copy);
                swap_next.push(false);
            }
        }
        let mut i = 0;
        while i + 1 < out.len() {
            if swap_next[i] {
                out.swap(i, i + 1);
                swap_next[i] = false;
            }
            i += 1;
        }
        out
    }

    /// Deliver already-framed `msgs` to node `to` as one batch, the way
    /// every send ends: the clock covers the last arrival, the fault plan
    /// has its say, the survivors are queued in order, and the receiver is
    /// signaled once. Nothing is scheduled or priced — the messages carry
    /// their own instants. For a peer that frames chunks itself: an
    /// adapter replaying frames it received off a real wire, or a test
    /// that must decide exactly what one drain of the receiver sees (and
    /// what each chunk header claims).
    pub fn deliver(&self, to: &str, msgs: Vec<Message>) -> Result<(), NetError> {
        let tx = self.queue_of(to)?;
        let arrivals = msgs.iter().map(|msg| msg.arrived_at);
        let done = arrivals.max().unwrap_or(SimInstant::ZERO);
        self.post(to, &tx, msgs, done, &self.telemetry())
    }

    /// The delivery queue of node `to`.
    fn queue_of(&self, to: &str) -> Result<Sender<Message>, NetError> {
        self.inner
            .nodes
            .read()
            .unwrap()
            .get(to)
            .cloned()
            .ok_or_else(|| NetError::UnknownNode(to.to_string()))
    }

    /// The tail of every send: `msgs` are scheduled and the last of them
    /// arrives at `done`. The clock advances BEFORE they become visible — a
    /// receiver that picks up the last one immediately must observe a clock
    /// frontier that already covers this wire time, or its now-based
    /// charges would race this advance and make the virtual timeline depend
    /// on thread scheduling. Then the fault plan has its say, what survives
    /// is queued on `tx`, and the receiver is signaled.
    fn post(
        &self,
        to: &str,
        tx: &Sender<Message>,
        msgs: Vec<Message>,
        done: SimInstant,
        telemetry: &Telemetry,
    ) -> Result<(), NetError> {
        self.inner.clock.advance_to(done);
        for msg in self.apply_faults(msgs, telemetry) {
            tx.send(msg)
                .map_err(|_| NetError::UnknownNode(to.to_string()))?;
        }
        self.notify(to);
        Ok(())
    }

    /// Send one control frame at `at` — the causal instant of the event
    /// that triggered it, never whatever the shared clock happens to read:
    /// the clock is a frontier other threads advance concurrently. Control
    /// frames take no lane: they do not queue behind chunks, and their
    /// wire time is not the lane's busy time. Returns the frame's arrival
    /// instant.
    fn send_from(
        &self,
        hop: Hop<'_>,
        payload: Payload,
        at: SimInstant,
    ) -> Result<SimInstant, NetError> {
        let tx = self.queue_of(hop.to)?;
        let bytes = payload.len() as u64;
        let wire_time = hop.link.transfer_time(&self.inner.profile, bytes);
        let msg = hop.message(WireBuf::plain(payload), MessageKind::Control, at, wire_time);
        let arrived_at = msg.arrived_at;
        let telemetry = self.telemetry();
        let track = lane_track(hop.from, hop.link);
        telemetry.complete(
            "fabric",
            "control",
            &track,
            at.as_nanos(),
            arrived_at.as_nanos(),
            &[
                ("to", hop.to.into()),
                ("tag", hop.tag.into()),
                ("bytes", bytes.into()),
            ],
        );
        telemetry.counter("fabric.msgs_sent").inc();
        telemetry
            .histogram("fabric.wire_us", &WIRE_US_BUCKETS)
            .record(wire_time.as_micros().min(u128::from(u64::MAX)) as u64);
        self.post(hop.to, &tx, vec![msg], arrived_at, &telemetry)?;
        Ok(arrived_at)
    }

    /// The one chunk scheduler: frame `chunks` of `flow` — `(index, body
    /// CRC, ready instant)` each — put them on the flow's lane, record and
    /// deliver them. A chunk's wire transfer starts once it is ready AND
    /// the lane is free, never before `start`. `round` marks a
    /// retransmission round, which draws `retransmit` spans where a first
    /// send draws the `flow` and its `wire` chunks. Returns the instant the
    /// lane frees behind the last chunk and the summed wire time.
    fn send_chunks(
        &self,
        flow: &ChunkedFlow<'_>,
        start: SimInstant,
        chunks: impl Iterator<Item = (u32, u32, SimInstant)>,
        round: bool,
    ) -> Result<(SimInstant, Duration), NetError> {
        let hop = flow.hop;
        let num_chunks = flow.sizes.len() as u32;
        let total_bytes = flow.payload.len() as u64;
        // Schedule every chunk under the lane lock so concurrent flows on
        // the same lane serialize deterministically.
        let lane = (hop.from.to_string(), hop.link);
        let mut busy_map = self.inner.link_busy.lock().unwrap();
        let mut lane_free = busy_map.get(&lane).map_or(start, |busy| start.max(*busy));
        let mut wire_total = Duration::ZERO;
        let mut msgs = Vec::with_capacity(chunks.size_hint().0);
        for (index, crc32, ready) in chunks {
            // Zero-copy framing: the chunk body is a subslice of the
            // sender's payload; only the 40-byte header is fresh bytes.
            let (offset, body) = flow.chunk(index).expect("a scheduled chunk is in range");
            let header = ChunkHeader {
                flow_id: flow.flow_id,
                chunk_index: index,
                num_chunks,
                offset,
                total_bytes,
                crc32,
            };
            let frame_len = (ChunkHeader::WIRE_SIZE + body.len()) as u64;
            let wire_time = hop.link.transfer_time(&self.inner.profile, frame_len);
            let msg = hop.message(
                WireBuf::framed(header.encode(), body),
                MessageKind::Chunk,
                ready.max(lane_free),
                wire_time,
            );
            lane_free = msg.arrived_at;
            wire_total += wire_time;
            msgs.push(msg);
        }
        busy_map.insert(lane, lane_free);
        drop(busy_map);
        let telemetry = self.telemetry();
        if telemetry.is_enabled() {
            let track = lane_track(hop.from, hop.link);
            if !round {
                telemetry.complete(
                    "fabric",
                    "flow",
                    &track,
                    start.as_nanos(),
                    lane_free.as_nanos(),
                    &[
                        ("to", hop.to.into()),
                        ("tag", hop.tag.into()),
                        ("flow_id", flow.flow_id.into()),
                        ("chunks", num_chunks.into()),
                        ("bytes", total_bytes.into()),
                    ],
                );
            }
            let wire_hist =
                (!round).then(|| telemetry.histogram("fabric.wire_us", &WIRE_US_BUCKETS));
            for (position, msg) in msgs.iter().enumerate() {
                let (name, which) = if round {
                    ("retransmit", ("flow_id", flow.flow_id.into()))
                } else {
                    ("wire", ("chunk", position.into()))
                };
                telemetry.complete(
                    "fabric",
                    name,
                    &track,
                    msg.sent_at.as_nanos(),
                    msg.arrived_at.as_nanos(),
                    &[which, ("bytes", msg.payload.len().into())],
                );
                if let Some(hist) = &wire_hist {
                    hist.record(msg.wire_time.as_micros().min(u128::from(u64::MAX)) as u64);
                }
            }
            telemetry
                .counter(&format!("fabric.lane.busy_ns.{track}"))
                .add(wire_total.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        let sent = if round {
            "fabric.chunks_retransmitted"
        } else {
            "fabric.chunks_sent"
        };
        telemetry.counter(sent).add(msgs.len() as u64);
        self.post(hop.to, &flow.tx, msgs, lane_free, &telemetry)?;
        Ok((lane_free, wire_total))
    }
}

/// One directed send: who to whom, under which tag, over which link.
#[derive(Clone, Copy)]
struct Hop<'a> {
    from: &'a str,
    to: &'a str,
    tag: &'a str,
    link: LinkKind,
}

impl Hop<'_> {
    /// A message on this hop that occupies the wire from `sent_at` for
    /// `wire_time`.
    fn message(
        &self,
        payload: WireBuf,
        kind: MessageKind,
        sent_at: SimInstant,
        wire_time: Duration,
    ) -> Message {
        Message {
            from: self.from.to_string(),
            to: self.to.to_string(),
            tag: self.tag.to_string(),
            payload,
            kind,
            link: self.link,
            sent_at,
            arrived_at: sent_at.add(wire_time),
            wire_time,
        }
    }
}

/// What the chunks of one flow share, on a first send and on every
/// retransmission round: the hop and the receiver's queue, the payload they
/// are views of, the flow id and the chunk geometry.
struct ChunkedFlow<'a> {
    hop: Hop<'a>,
    tx: Sender<Message>,
    payload: &'a Payload,
    flow_id: u64,
    sizes: Vec<u64>,
}

impl ChunkedFlow<'_> {
    /// Byte offset and body — a view of the payload — of chunk `index`;
    /// `None` past the flow's last chunk.
    fn chunk(&self, index: u32) -> Option<(u64, Payload)> {
        let len = *self.sizes.get(index as usize)?;
        // Every chunk before the last has the first one's size.
        let offset = u64::from(index) * self.sizes[0];
        let body = self.payload.slice(offset as usize..(offset + len) as usize);
        Some((offset, body))
    }
}

/// A node's attachment to the fabric.
pub struct Endpoint {
    node: String,
    /// `mpsc::Receiver` is not `Sync`, and an `Arc<Endpoint>` is shared
    /// across threads. Only the node's own task receives, so the lock is
    /// uncontended (a blocking `recv_timeout` holds it while it waits).
    rx: Mutex<Receiver<Message>>,
    fabric: Fabric,
}

impl Endpoint {
    /// This endpoint's node name.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The hop from this node to `to`.
    fn hop<'a>(&'a self, to: &'a str, tag: &'a str, link: LinkKind) -> Hop<'a> {
        Hop {
            from: &self.node,
            to,
            tag,
            link,
        }
    }

    /// Send `payload` to node `to` over `link` as a one-chunk flow from the
    /// shared clock's current frontier (checksummed here), blocking for its
    /// makespan on the virtual clock; returns that duration. A caller that
    /// knows the causal instant of its send, or holds the payload's CRCs,
    /// uses [`Endpoint::send_chunked`]. This shorthand goes when the
    /// benchmark's stage replay, its one caller outside tests, does.
    pub fn send(
        &self,
        to: &str,
        tag: &str,
        payload: impl Into<Payload>,
        link: LinkKind,
    ) -> Result<Duration, NetError> {
        self.send_chunked(to, tag, payload, link, &ChunkedSend::new(0))
            .map(|report| report.makespan())
    }

    /// Send `payload` as a pipelined chunked flow (see [`ChunkedSend`]); the
    /// receiver reassembles with a [`crate::FlowAssembler`].
    ///
    /// Each chunk becomes its own framed [`Message`]. Scheduling models the
    /// overlap the chunking exists for: chunk `i`'s wire transfer starts
    /// once the chunk is captured upstream (per `opts`'s capture model) AND
    /// this sender's `(from, link)` lane is free — so this node's chunks
    /// serialize, to whichever receiver, while capture and other senders'
    /// traffic overlap in virtual time. The clock only advances to the
    /// *last* chunk's arrival (the flow makespan), not the sum of stage
    /// times.
    pub fn send_chunked(
        &self,
        to: &str,
        tag: &str,
        payload: impl Into<Payload>,
        link: LinkKind,
        opts: &ChunkedSend,
    ) -> Result<FlowReport, NetError> {
        let payload = payload.into();
        let hop = self.hop(to, tag, link);
        let fabric = &self.fabric;
        let tx = fabric.queue_of(to)?;
        let flow_id = fabric.inner.next_flow.fetch_add(1, Ordering::Relaxed) + 1;
        let submitted_at = opts.submit_at.unwrap_or_else(|| fabric.inner.clock.now());
        let total_bytes = payload.len() as u64;
        let sizes = chunk_sizes(total_bytes, opts.chunk_bytes);
        // Checksum chunk bodies before taking the lane lock: CRCs do not
        // depend on scheduling, and this is the CPU-heavy part of a send.
        // A fused encode already produced per-chunk CRCs in the same pass
        // that serialized the bytes; when the caller hands those in (and
        // the geometry matches), the send path reads zero payload bytes.
        let crcs = match &opts.crcs {
            Some(pre) if pre.len() == sizes.len() => {
                debug_assert_eq!(
                    **pre,
                    payload_chunk_crcs(&payload, opts.chunk_bytes),
                    "precomputed chunk CRCs disagree with payload bytes"
                );
                std::sync::Arc::clone(pre)
            }
            _ => std::sync::Arc::new(payload_chunk_crcs(&payload, opts.chunk_bytes)),
        };
        let flow = ChunkedFlow {
            hop,
            tx,
            payload: &payload,
            flow_id,
            sizes,
        };
        let mut captured = submitted_at;
        let chunks = flow.sizes.iter().zip(0u32..).map(|(&len, index)| {
            let ready = match opts.capture {
                Some(stage) => {
                    captured = captured.add(stage.time(len, index == 0));
                    captured
                }
                None => submitted_at,
            };
            (index, crcs[index as usize], ready)
        });
        let (completed_at, wire_total) = fabric.send_chunks(&flow, submitted_at, chunks, false)?;
        Ok(FlowReport {
            flow_id,
            num_chunks: flow.sizes.len() as u32,
            bytes: total_bytes,
            wire_total,
            submitted_at,
            completed_at,
        })
    }

    /// Send a reliability control frame (ACK/NACK/`Round`). Control frames
    /// charge their (tiny) wire time like any message but are never
    /// fault-injected: the feedback channel is modeled as out-of-band. The
    /// wire span is charged from `at` (the event that decided to send it —
    /// a flow completing, a reap deadline firing) rather than from the
    /// shared clock frontier, which concurrent lanes advance racily.
    /// Returns the frame's arrival instant.
    pub fn send_control_at(
        &self,
        to: &str,
        tag: &str,
        control: &Control,
        link: LinkKind,
        at: SimInstant,
    ) -> Result<SimInstant, NetError> {
        self.fabric
            .send_from(self.hop(to, tag, link), Payload::from(control.encode()), at)
    }

    /// Retransmit the given chunk `indices` of a flow previously sent with
    /// [`Endpoint::send_chunked`] (same `flow_id`, payload, and
    /// `chunk_bytes`): the first send restricted to those chunks, with no
    /// capture left to overlap. Wire time is charged to the virtual clock —
    /// retries are never free — and the fault plan applies: a
    /// retransmission can be lost too. `crcs`, when given, are the flow's
    /// encode-time per-chunk CRCs (indexed by chunk index) so the round
    /// does not re-checksum retained bytes. The round's chunks queue behind
    /// `max(lane_busy, at)` — `at` being the causal instant the round was
    /// decided (post-backoff) — never the shared clock frontier. Returns
    /// the instant the last retransmitted chunk arrives (the new lane-free
    /// point), which is the correct base for re-arming the sender's ACK
    /// timer.
    #[allow(clippy::too_many_arguments)]
    pub fn retransmit_chunks_at(
        &self,
        to: &str,
        tag: &str,
        payload: &Payload,
        link: LinkKind,
        flow_id: u64,
        chunk_bytes: u64,
        indices: &[u32],
        crcs: Option<&[u32]>,
        at: SimInstant,
    ) -> Result<SimInstant, NetError> {
        let flow = ChunkedFlow {
            hop: self.hop(to, tag, link),
            tx: self.fabric.queue_of(to)?,
            payload,
            flow_id,
            sizes: chunk_sizes(payload.len() as u64, chunk_bytes),
        };
        // Retransmissions reuse zero-copy subslices of the retained
        // payload — no round re-frames the bytes — and with encode-time
        // CRCs on hand they do not re-checksum them either.
        let chunks = indices.iter().filter_map(|&index| {
            let (_, body) = flow.chunk(index)?;
            let crc = match crcs.and_then(|c| c.get(index as usize)) {
                Some(&crc) => {
                    debug_assert_eq!(
                        crc,
                        viper_formats::crc32(&body),
                        "precomputed CRC disagrees with chunk {index} body"
                    );
                    crc
                }
                None => viper_formats::crc32(&body),
            };
            Some((index, crc, at))
        });
        let (lane_free, _) = self.fabric.send_chunks(&flow, at, chunks, true)?;
        Ok(lane_free)
    }

    /// Blocking receive with a wall-clock timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.rx.lock().unwrap().recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.rx.lock().unwrap().try_recv().ok()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.fabric.deregister(&self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;
    use crate::{FlowAssembler, FlowStatus};
    use viper_hw::Stage;

    fn fabric() -> Fabric {
        Fabric::new(MachineProfile::polaris(), SimClock::new())
    }

    #[test]
    fn send_and_receive_roundtrip() {
        let f = fabric();
        let a = f.register("a");
        let b = f.register("b");
        let payload = Arc::new(vec![42u8; 100]);
        a.send("b", "t", payload.clone(), LinkKind::HostRdma)
            .unwrap();
        let msg = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.from, "a");
        assert_eq!(msg.to, "b");
        assert_eq!(msg.kind, MessageKind::Chunk, "a one-chunk flow");
        match FlowAssembler::new().accept(msg) {
            FlowStatus::Complete(flow) => assert_eq!(flow.payload, *payload),
            other => panic!("one chunk completes its flow: {other:?}"),
        }
    }

    #[test]
    fn unknown_destination_errors() {
        let f = fabric();
        let a = f.register("a");
        let err = a
            .send("ghost", "t", Arc::new(vec![]), LinkKind::GpuDirect)
            .unwrap_err();
        assert_eq!(err, NetError::UnknownNode("ghost".into()));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let f = fabric();
        let _a = f.register("a");
        assert!(matches!(
            f.try_register("a"),
            Err(NetError::DuplicateNode(_))
        ));
    }

    #[test]
    fn dropped_endpoint_deregisters() {
        let f = fabric();
        {
            let _a = f.register("a");
        }
        // Name is free again.
        let _a2 = f.register("a");
    }

    #[test]
    fn virtual_clock_charged_for_wire_time() {
        let clock = SimClock::new();
        let f = Fabric::new(MachineProfile::polaris(), clock.clone());
        let a = f.register("a");
        let _b = f.register("b");
        let wire = a
            .send(
                "b",
                "t",
                Arc::new(vec![0u8; 1_000_000_000]),
                LinkKind::HostRdma,
            )
            .unwrap();
        assert!((clock.now().as_secs_f64() - wire.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn message_timestamps_consistent() {
        let f = fabric();
        let a = f.register("a");
        let b = f.register("b");
        a.send("b", "t", Arc::new(vec![0u8; 1024]), LinkKind::HostRdma)
            .unwrap();
        let msg = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.arrived_at.since(msg.sent_at), msg.wire_time);
    }

    #[test]
    fn messages_preserve_order_per_sender() {
        let f = fabric();
        let a = f.register("a");
        let b = f.register("b");
        for i in 0..10u8 {
            a.send("b", &format!("m{i}"), Arc::new(vec![i]), LinkKind::HostRdma)
                .unwrap();
        }
        for i in 0..10u8 {
            let msg = b.recv_timeout(Duration::from_secs(1)).unwrap();
            let (_, body) = ChunkHeader::decode_buf(&msg.payload).unwrap();
            assert_eq!(body[0], i);
        }
    }

    #[test]
    fn chunked_flow_reassembles_and_charges_makespan() {
        use crate::ChunkedSend;
        let clock = SimClock::new();
        let f = Fabric::new(MachineProfile::polaris(), clock.clone());
        let a = f.register("a");
        let b = f.register("b");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000_000).collect();
        let report = a
            .send_chunked(
                "b",
                "m:1",
                Arc::new(payload.clone()),
                LinkKind::GpuDirect,
                &ChunkedSend::new(1_000_000),
            )
            .unwrap();
        assert_eq!(report.num_chunks, 10);
        // The clock advanced to the last arrival, not past it.
        assert_eq!(clock.now(), report.completed_at);
        let mut asm = FlowAssembler::new();
        let mut got = None;
        while let Some(msg) = b.recv_timeout(Duration::from_secs(1)) {
            if let FlowStatus::Complete(flow) = asm.accept(msg) {
                got = Some(flow);
                break;
            }
        }
        let flow = got.expect("flow completes");
        assert_eq!(flow.payload, payload);
        assert_eq!(flow.completed_at, report.completed_at);
    }

    #[test]
    fn same_lane_chunks_serialize() {
        // With no upstream capture model, every chunk is ready at submit
        // time: the lane's serialization makes the makespan exactly the sum
        // of per-chunk wire times.
        use crate::ChunkedSend;
        let f = fabric();
        let a = f.register("a");
        let _b = f.register("b");
        let report = a
            .send_chunked(
                "b",
                "t",
                Arc::new(vec![0u8; 8_000_000]),
                LinkKind::HostRdma,
                &ChunkedSend::new(1_000_000),
            )
            .unwrap();
        assert_eq!(report.makespan(), report.wire_total);
    }

    #[test]
    fn capture_overlaps_wire_within_a_flow() {
        // Pipelining: capture of chunk i+1 overlaps the wire of chunk i, so
        // the makespan is far below capture-then-send, but can never beat
        // the wire itself.
        use crate::ChunkedSend;
        let p = MachineProfile::polaris();
        let f = Fabric::new(p.clone(), SimClock::new());
        let a = f.register("a");
        let _b = f.register("b");
        let bytes = 100_000_000u64;
        let opts = ChunkedSend::new(10_000_000).with_capture(Stage {
            bw: p.d2h_capture_bw,
            per_chunk: Duration::ZERO,
            once: Duration::ZERO,
        });
        let report = a
            .send_chunked(
                "b",
                "t",
                Arc::new(vec![0u8; bytes as usize]),
                LinkKind::HostRdma,
                &opts,
            )
            .unwrap();
        let capture_total = Duration::from_secs_f64(bytes as f64 / p.d2h_capture_bw);
        let serial = capture_total + report.wire_total;
        assert!(
            report.makespan() < serial,
            "{:?} !< {serial:?}",
            report.makespan()
        );
        assert!(report.makespan() >= report.wire_total);
        // Capture (3.4 GB/s) is the bottleneck stage on this route: the
        // makespan tracks capture_total + one chunk's wire drain.
        assert!(report.makespan() >= capture_total);
    }

    #[test]
    fn concurrent_flows_on_distinct_lanes_overlap() {
        // A lane is a sender's link. Two flows pinned to the same submit
        // instant from distinct senders finish at max(w1, w2); one sender's
        // flows queue on its link, to whichever receiver, and serialize to
        // w1 + w2.
        use crate::ChunkedSend;
        let clock = SimClock::new();
        let f = Fabric::new(MachineProfile::polaris(), clock.clone());
        let a = f.register("a");
        let b = f.register("b");
        let _c = f.register("c");
        let t0 = clock.now();
        let payload = Arc::new(vec![0u8; 50_000_000]);
        let opts = ChunkedSend::new(10_000_000).at(t0);
        let r1 = a
            .send_chunked("c", "t", payload.clone(), LinkKind::GpuDirect, &opts)
            .unwrap();
        let r2 = b
            .send_chunked("c", "t", payload.clone(), LinkKind::GpuDirect, &opts)
            .unwrap();
        // Distinct senders = distinct lanes: both flows span their own wire
        // time from t0 and the clock holds the max, not the sum.
        assert_eq!(r1.makespan(), r1.wire_total);
        assert_eq!(r2.makespan(), r2.wire_total);
        assert_eq!(clock.now(), t0.add(r1.wire_total.max(r2.wire_total)));
        // Same sender as flow 1, another receiver: queues behind it.
        let r3 = a
            .send_chunked("b", "t", payload, LinkKind::GpuDirect, &opts)
            .unwrap();
        assert_eq!(r3.completed_at, r1.completed_at.add(r3.wire_total));
    }

    #[test]
    fn cross_thread_transfer() {
        let f = fabric();
        let a = f.register("a");
        let b = f.register("b");
        let h = std::thread::spawn(move || {
            a.send(
                "b",
                "from-thread",
                Arc::new(vec![1, 2, 3]),
                LinkKind::GpuDirect,
            )
            .unwrap();
        });
        let msg = b.recv_timeout(Duration::from_secs(5)).unwrap();
        h.join().unwrap();
        assert_eq!(msg.tag, "from-thread");
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn chunked(a: &Endpoint, payload: &Payload) -> FlowReport {
        a.send_chunked(
            "b",
            "t",
            payload.clone(),
            LinkKind::GpuDirect,
            &ChunkedSend::new(1000),
        )
        .unwrap()
    }

    fn drain(b: &Endpoint) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(msg) = b.try_recv() {
            out.push(msg);
        }
        out
    }

    #[test]
    fn full_drop_loses_every_chunk_but_charges_the_wire() {
        let clock = SimClock::new();
        let f = Fabric::new(MachineProfile::polaris(), clock.clone());
        f.set_fault_plan(Some(FaultPlan::seeded(1).with_drop(1.0)));
        let a = f.register("a");
        let b = f.register("b");
        let report = chunked(&a, &Payload::from(vec![7u8; 5000]));
        assert_eq!(drain(&b).len(), 0, "all chunks dropped");
        // Lost bytes still occupied the link: the clock advanced anyway.
        assert_eq!(clock.now(), report.completed_at);
        assert!(report.wire_total > Duration::ZERO);
    }

    #[test]
    fn full_duplication_doubles_delivery_idempotently() {
        let f = fabric();
        f.set_fault_plan(Some(FaultPlan::seeded(2).with_duplicate(1.0)));
        let a = f.register("a");
        let b = f.register("b");
        let payload = Payload::from(vec![3u8; 5000]);
        let report = chunked(&a, &payload);
        let msgs = drain(&b);
        assert_eq!(msgs.len(), 2 * report.num_chunks as usize);
        let mut asm = FlowAssembler::new();
        let mut complete = 0;
        for msg in msgs {
            if let FlowStatus::Complete(flow) = asm.accept(msg) {
                assert_eq!(flow.payload, payload);
                complete += 1;
            }
        }
        assert_eq!(complete, 1, "duplicates must not re-release the flow");
    }

    #[test]
    fn corruption_is_caught_by_crc() {
        let f = fabric();
        f.set_fault_plan(Some(FaultPlan::seeded(3).with_corrupt(1.0)));
        let a = f.register("a");
        let b = f.register("b");
        chunked(&a, &Payload::from(vec![5u8; 5000]));
        let mut asm = FlowAssembler::new();
        let mut corrupt = 0;
        for msg in drain(&b) {
            match asm.accept(msg) {
                FlowStatus::Corrupt { .. } => corrupt += 1,
                FlowStatus::Buffered => {}
                other => panic!("expected CRC rejection, got {other:?}"),
            }
        }
        assert!(corrupt > 0);
    }

    #[test]
    fn control_frames_are_never_faulted() {
        let f = fabric();
        f.set_fault_plan(Some(FaultPlan::seeded(4).with_drop(1.0).with_corrupt(1.0)));
        let a = f.register("a");
        let b = f.register("b");
        let nack = Control::Nack {
            flow_id: 9,
            generation: 0,
            missing: vec![1, 2],
        };
        a.send_control_at("b", "t", &nack, LinkKind::GpuDirect, SimInstant::ZERO)
            .unwrap();
        let msg = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.kind, MessageKind::Control);
        assert_eq!(
            Control::decode(
                msg.payload
                    .as_contiguous()
                    .expect("control frames are unframed")
            ),
            Some(nack)
        );
    }

    #[test]
    fn waker_fires_once_per_send_and_once_per_batch() {
        let f = fabric();
        let a = f.register("a");
        let b = f.register("b");
        let woken: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = woken.clone();
        f.set_waker(Some(Arc::new(move |to: &str| {
            sink.lock().unwrap().push(to.to_string());
        })));
        a.send("b", "t", Arc::new(vec![1u8; 64]), LinkKind::HostRdma)
            .unwrap();
        // A chunked flow notifies once for the whole batch, not per chunk.
        let report = a
            .send_chunked(
                "b",
                "t",
                Arc::new(vec![0u8; 5000]),
                LinkKind::GpuDirect,
                &ChunkedSend::new(1000),
            )
            .unwrap();
        assert!(report.num_chunks > 1);
        a.retransmit_chunks_at(
            "b",
            "t",
            &Payload::from(vec![0u8; 5000]),
            LinkKind::GpuDirect,
            report.flow_id,
            1000,
            &[0, 1],
            None,
            report.completed_at,
        )
        .unwrap();
        assert_eq!(*woken.lock().unwrap(), vec!["b", "b", "b"]);
        // Clearing the hook stops notifications; delivery is unaffected.
        f.set_waker(None);
        a.send("b", "t", Arc::new(vec![1u8; 64]), LinkKind::HostRdma)
            .unwrap();
        assert_eq!(woken.lock().unwrap().len(), 3);
        assert!(!drain(&b).is_empty());
    }

    #[test]
    fn fault_pattern_is_deterministic_per_seed() {
        let deliver = |seed: u64| -> Vec<(u64, bool)> {
            let f = fabric();
            f.set_fault_plan(Some(
                FaultPlan::seeded(seed)
                    .with_drop(0.3)
                    .with_duplicate(0.2)
                    .with_reorder(0.2)
                    .with_corrupt(0.2),
            ));
            let a = f.register("a");
            let b = f.register("b");
            chunked(
                &a,
                &Payload::from((0..=255u8).cycle().take(20_000).collect::<Vec<u8>>()),
            );
            drain(&b)
                .iter()
                .map(|m| {
                    let (h, body) = ChunkHeader::decode_buf(&m.payload).unwrap();
                    (
                        u64::from(h.chunk_index),
                        viper_formats::crc32(&body) == h.crc32,
                    )
                })
                .collect()
        };
        assert_eq!(deliver(42), deliver(42));
        assert_ne!(deliver(42), deliver(43));
    }

    #[test]
    fn link_overrides_scope_faults() {
        let f = fabric();
        // Faults only on HostRdma; GpuDirect stays clean.
        f.set_fault_plan(Some(FaultPlan::seeded(5).for_link(
            LinkKind::HostRdma,
            LinkFaults {
                drop: 1.0,
                ..LinkFaults::NONE
            },
        )));
        let a = f.register("a");
        let b = f.register("b");
        a.send("b", "t", Arc::new(vec![1]), LinkKind::HostRdma)
            .unwrap();
        assert_eq!(drain(&b).len(), 0);
        a.send("b", "t", Arc::new(vec![1]), LinkKind::GpuDirect)
            .unwrap();
        assert_eq!(drain(&b).len(), 1);
    }

    #[test]
    fn zero_probability_plan_changes_nothing() {
        let f = fabric();
        f.set_fault_plan(Some(FaultPlan::seeded(6)));
        let a = f.register("a");
        let b = f.register("b");
        let payload = Payload::from(vec![9u8; 5000]);
        let report = chunked(&a, &payload);
        let msgs = drain(&b);
        assert_eq!(msgs.len(), report.num_chunks as usize);
        let mut asm = FlowAssembler::new();
        let mut complete = false;
        for msg in msgs {
            if let FlowStatus::Complete(flow) = asm.accept(msg) {
                assert_eq!(flow.payload, payload);
                complete = true;
            }
        }
        assert!(complete);
    }

    #[test]
    fn retransmission_fills_holes_and_charges_time() {
        let clock = SimClock::new();
        let f = Fabric::new(MachineProfile::polaris(), clock.clone());
        let a = f.register("a");
        let b = f.register("b");
        let payload = Payload::from((0..=255u8).cycle().take(5000).collect::<Vec<u8>>());
        let report = chunked(&a, &payload);
        // Receiver assembles but we pretend chunks 1 and 3 were lost.
        let mut asm = FlowAssembler::new();
        for msg in drain(&b) {
            let (h, _) = ChunkHeader::decode_buf(&msg.payload).unwrap();
            if h.chunk_index == 1 || h.chunk_index == 3 {
                continue;
            }
            assert!(matches!(asm.accept(msg), FlowStatus::Buffered));
        }
        let before = clock.now();
        let lane_free = a
            .retransmit_chunks_at(
                "b",
                "t",
                &payload,
                LinkKind::GpuDirect,
                report.flow_id,
                1000,
                &[1, 3],
                None,
                before,
            )
            .unwrap();
        assert!(lane_free > before);
        assert_eq!(clock.now(), lane_free);
        let mut complete = None;
        for msg in drain(&b) {
            if let FlowStatus::Complete(flow) = asm.accept(msg) {
                complete = Some(flow);
            }
        }
        assert_eq!(complete.expect("flow completes").payload, payload);
    }
}
