//! Chunked-flow framing and receiver-side reassembly.
//!
//! Large payloads (multi-GB checkpoints) are split into fixed-size chunks,
//! each travelling as its own [`Message`](crate::Message) so the fabric can
//! pipeline them: while chunk `i` occupies the wire, chunk `i+1` is still
//! being captured upstream, and chunks bound for *different* links overlap
//! in virtual time. Every chunk carries a [`ChunkHeader`] (with a CRC32 of
//! its body), and a [`FlowAssembler`] on the receiver rebuilds the original
//! payload — tolerating duplicate chunks, corrupt bodies, and arbitrary
//! interleavings of concurrent flows — releasing it only once complete, so
//! a consumer never observes a partially assembled payload.
//!
//! Every application payload travels this way; a monolithic one is a flow
//! of one chunk. Chunked messages are marked explicitly via
//! [`MessageKind::Chunk`](crate::MessageKind): the assembler never sniffs
//! payload bytes, so a control frame whose payload happens to start with
//! [`CHUNK_MAGIC`] passes through untouched.

use crate::reliability::FlowError;
use crate::wirebuf::WireBuf;
use crate::{LinkKind, Message, MessageKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use viper_formats::{crc32, crc32_combine, crc32_runs, share_count, CrcFold, Payload};
use viper_hw::{SimInstant, Stage};

/// Magic bytes at the front of every chunk frame ("VPCH"). Framing sanity
/// only — chunk identification goes through [`MessageKind::Chunk`].
pub const CHUNK_MAGIC: u32 = 0x5650_4348;

/// The CRC-32 residue: `crc32(data ‖ le32(crc32(data)))` for every `data`.
const CRC32_RESIDUE: u32 = 0x2144_DF1C;

/// Wire framing carried at the front of every chunk payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Fabric-unique flow this chunk belongs to.
    pub flow_id: u64,
    /// Position of this chunk within the flow (0-based).
    pub chunk_index: u32,
    /// Total chunks in the flow.
    pub num_chunks: u32,
    /// Byte offset of this chunk's body within the original payload.
    pub offset: u64,
    /// Total size of the original (unchunked) payload.
    pub total_bytes: u64,
    /// CRC32 of the chunk body, so in-flight corruption is detected before
    /// the bytes ever reach a checkpoint buffer.
    pub crc32: u32,
}

const _: () = assert!(ChunkHeader::WIRE_SIZE as u64 == viper_hw::CHUNK_HEADER_BYTES);

impl ChunkHeader {
    /// Encoded header size in bytes: `viper_hw::CHUNK_HEADER_BYTES`, which
    /// the fan-out price charges per chunk.
    pub const WIRE_SIZE: usize = 4 + 8 + 4 + 4 + 8 + 8 + 4;

    /// Serialize the header (little-endian fields after the magic).
    pub fn encode(&self) -> [u8; Self::WIRE_SIZE] {
        let mut buf = [0u8; Self::WIRE_SIZE];
        buf[0..4].copy_from_slice(&CHUNK_MAGIC.to_le_bytes());
        buf[4..12].copy_from_slice(&self.flow_id.to_le_bytes());
        buf[12..16].copy_from_slice(&self.chunk_index.to_le_bytes());
        buf[16..20].copy_from_slice(&self.num_chunks.to_le_bytes());
        buf[20..28].copy_from_slice(&self.offset.to_le_bytes());
        buf[28..36].copy_from_slice(&self.total_bytes.to_le_bytes());
        buf[36..40].copy_from_slice(&self.crc32.to_le_bytes());
        buf
    }

    /// Parse an encoded header (magic + fields; no geometry validation).
    fn parse_head(head: &[u8; Self::WIRE_SIZE]) -> Option<ChunkHeader> {
        let u32_at = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 B"));
        let u64_at = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 B"));
        if u32_at(0) != CHUNK_MAGIC {
            return None;
        }
        Some(ChunkHeader {
            flow_id: u64_at(4),
            chunk_index: u32_at(12),
            num_chunks: u32_at(16),
            offset: u64_at(20),
            total_bytes: u64_at(28),
            crc32: u32_at(36),
        })
    }

    /// Geometry sanity for a parsed header and its body length.
    fn geometry_ok(&self, body_len: usize) -> bool {
        self.num_chunks > 0
            && self.chunk_index < self.num_chunks
            && self
                .offset
                .checked_add(body_len as u64)
                .is_some_and(|end| end <= self.total_bytes)
    }

    /// Parse a framed payload into `(header, body)`. This validates
    /// *framing only* (length, magic, geometry); body integrity against
    /// [`ChunkHeader::crc32`] is the [`FlowAssembler`]'s job. Returns `None`
    /// when the payload cannot be a chunk frame.
    pub fn decode(payload: &[u8]) -> Option<(ChunkHeader, &[u8])> {
        if payload.len() < Self::WIRE_SIZE {
            return None;
        }
        let head: &[u8; Self::WIRE_SIZE] = payload[..Self::WIRE_SIZE].try_into().expect("head");
        let header = Self::parse_head(head)?;
        let body = &payload[Self::WIRE_SIZE..];
        header.geometry_ok(body.len()).then_some((header, body))
    }

    /// Parse a wire buffer into `(header, body)` without copying the body:
    /// the returned [`Payload`] shares the buffer's backing allocation.
    /// Same validation as [`ChunkHeader::decode`].
    pub fn decode_buf(payload: &WireBuf) -> Option<(ChunkHeader, Payload)> {
        let (head, body) = payload.split_head()?;
        let header = Self::parse_head(&head)?;
        header.geometry_ok(body.len()).then_some((header, body))
    }

    /// Frame `body` behind this header into one wire payload.
    pub fn frame(&self, body: &[u8]) -> Vec<u8> {
        let mut framed = Vec::with_capacity(Self::WIRE_SIZE + body.len());
        framed.extend_from_slice(&self.encode());
        framed.extend_from_slice(body);
        framed
    }

    /// Build the header for one chunk of a flow, computing the body CRC.
    pub fn for_body(
        flow_id: u64,
        chunk_index: u32,
        num_chunks: u32,
        offset: u64,
        total_bytes: u64,
        body: &[u8],
    ) -> ChunkHeader {
        ChunkHeader {
            flow_id,
            chunk_index,
            num_chunks,
            offset,
            total_bytes,
            crc32: crc32(body),
        }
    }
}

/// Options for a chunked send (see [`Endpoint::send_chunked`](crate::Endpoint::send_chunked)).
#[derive(Debug, Clone)]
pub struct ChunkedSend {
    /// Maximum bytes of original payload per chunk (the last chunk may be
    /// smaller). Zero means "one chunk".
    pub chunk_bytes: u64,
    /// Upstream capture stage: chunk `i`'s wire transfer cannot start
    /// before the stage has passed chunks `0..=i`. `None` models an
    /// already-captured payload (all chunks ready at submission).
    pub capture: Option<Stage>,
    /// Pin the flow's submission to a known virtual instant instead of the
    /// clock's current time — lets concurrent actors model flows that start
    /// together and overlap on different links.
    pub submit_at: Option<SimInstant>,
    /// Per-chunk CRC32s computed when the payload was encoded (the fused
    /// encoder's single pass). Must match this send's chunk geometry
    /// (`chunk_sizes(payload.len(), chunk_bytes)`); the fabric falls back
    /// to computing CRCs itself when absent or mismatched.
    pub crcs: Option<Arc<Vec<u32>>>,
}

impl ChunkedSend {
    /// A chunked send with no upstream capture model (payload ready now).
    pub fn new(chunk_bytes: u64) -> Self {
        ChunkedSend {
            chunk_bytes,
            capture: None,
            submit_at: None,
            crcs: None,
        }
    }

    /// Attach per-chunk CRCs precomputed at encode time, so the send path
    /// never re-reads the payload bytes to checksum them.
    pub fn with_crcs(mut self, crcs: Arc<Vec<u32>>) -> Self {
        self.crcs = Some(crcs);
        self
    }

    /// Overlap the wire with an upstream capture stage: each chunk becomes
    /// ready once `stage` has passed it.
    pub fn with_capture(mut self, stage: Stage) -> Self {
        self.capture = Some(stage);
        self
    }

    /// Pin the flow's submission instant (see [`ChunkedSend::submit_at`]).
    pub fn at(mut self, submit_at: SimInstant) -> Self {
        self.submit_at = Some(submit_at);
        self
    }
}

/// What a completed chunked send reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowReport {
    /// Fabric-unique flow id.
    pub flow_id: u64,
    /// How many chunks were sent.
    pub num_chunks: u32,
    /// Original payload size.
    pub bytes: u64,
    /// Sum of per-chunk wire times (link busy time).
    pub wire_total: Duration,
    /// Virtual time the flow was submitted.
    pub submitted_at: SimInstant,
    /// Virtual time the last chunk arrived.
    pub completed_at: SimInstant,
}

impl FlowReport {
    /// Submission-to-last-arrival duration (the overlapped makespan).
    pub fn makespan(&self) -> Duration {
        self.completed_at.since(self.submitted_at)
    }
}

/// A fully reassembled flow, released by [`FlowAssembler::accept`].
#[derive(Debug, Clone)]
pub struct AssembledFlow {
    /// Flow id from the chunk headers.
    pub flow_id: u64,
    /// Sender node.
    pub from: String,
    /// Application tag (shared by every chunk of the flow).
    pub tag: String,
    /// Link the chunks traversed.
    pub link: LinkKind,
    /// The reassembled original payload, byte-identical to what was sent:
    /// exactly the bytes the per-chunk CRCs verified, in an immutable
    /// buffer. When every body is an adjacent view of one allocation (any
    /// in-process sender, first sends and retransmits alike) this is those
    /// views re-joined — it aliases the sender's buffer and pins it until
    /// dropped; otherwise it is a fresh in-order gather of the bodies.
    pub payload: Payload,
    /// The header CRC each chunk body was verified against, in index order.
    pub chunk_crcs: Arc<Vec<u32>>,
    /// Body length of each chunk, in index order (sums to `payload.len()`):
    /// the geometry [`AssembledFlow::crcs_for`] compares against.
    chunk_lens: Vec<u64>,
    /// Arrival time of the last chunk (when the payload became whole).
    pub completed_at: SimInstant,
    /// Sum of the distinct chunks' wire times.
    pub wire_total: Duration,
}

impl AssembledFlow {
    /// CRC32 of `payload[skip..len - 4]`: the body that a 4-byte CRC
    /// footer behind `skip` envelope bytes covers. The verdict comes from
    /// the chunk CRCs the payload was verified against: they fold into the
    /// CRC of `payload[skip..]` (stripping the envelope reads only its
    /// bytes), which is the constant CRC-32 residue exactly when the footer
    /// is the CRC of the body, since a CRC maps the last 32 bits of its
    /// input one-to-one. A right footer is therefore returned without
    /// reading the body; only a wrong one makes this read the body, once,
    /// so the decode reports the CRC it found. A payload too short to hold
    /// a footer behind `skip` yields the CRC of nothing.
    pub fn body_crc(&self, skip: usize) -> u32 {
        let len = self.payload.len();
        let Some(end) = len.checked_sub(4).filter(|&end| end >= skip) else {
            return crc32(&[]);
        };
        let mut fold = CrcFold::new();
        for (&len, &crc) in self.chunk_lens.iter().zip(self.chunk_crcs.iter()) {
            fold.push(crc, len);
        }
        let mut stream = fold.crc();
        let prefix = crc32(&self.payload[..skip]);
        // Shifting 0 gives 0: an empty envelope needs no shift operator.
        if prefix != 0 {
            stream ^= crc32_combine(prefix, 0, (len - skip) as u64);
        }
        if stream == CRC32_RESIDUE {
            u32::from_le_bytes(self.payload[end..].try_into().expect("4-byte footer"))
        } else {
            crc32(&self.payload[skip..end])
        }
    }

    /// Per-chunk CRCs for re-serving [`payload`](Self::payload) under the
    /// `chunk_sizes(len, chunk_bytes)` geometry (see
    /// [`ChunkedSend::with_crcs`]): the verified
    /// [`chunk_crcs`](Self::chunk_crcs) themselves when the flow arrived
    /// under exactly that geometry — a relay then forwards without reading
    /// the payload again — and one [`payload_chunk_crcs`] pass otherwise.
    pub fn crcs_for(&self, chunk_bytes: u64) -> Arc<Vec<u32>> {
        if self.chunk_lens == chunk_sizes(self.payload.len() as u64, chunk_bytes) {
            Arc::clone(&self.chunk_crcs)
        } else {
            Arc::new(payload_chunk_crcs(&self.payload, chunk_bytes))
        }
    }
}

/// Outcome of feeding one message to a [`FlowAssembler`].
#[derive(Debug)]
pub enum FlowStatus {
    /// Not a chunk (a control frame), returned untouched — even if its
    /// payload bytes imitate chunk framing.
    Passthrough(Message),
    /// A chunk was buffered (or ignored as a duplicate); the flow is still
    /// incomplete.
    Buffered,
    /// A chunk's body failed its CRC and was discarded. The reliability
    /// layer should NACK this index so the sender retransmits it.
    Corrupt {
        /// Sender of the corrupt chunk.
        from: String,
        /// Flow the chunk belongs to.
        flow_id: u64,
        /// Index of the corrupt chunk within the flow.
        chunk_index: u32,
        /// Application tag of the flow.
        tag: String,
        /// Link the chunk traversed.
        link: LinkKind,
    },
    /// A message marked as a chunk whose framing did not decode (header
    /// corrupted in flight). Unattributable, so it is counted and dropped;
    /// stale-flow reaping recovers the flow it belonged to. Also returned
    /// when the last chunk of a flow arrives and the verified bodies do not
    /// tile `[0, total_bytes)` in index order (offsets corrupted in
    /// flight): the flow is evicted whole, and the sender's blind resend
    /// starts it afresh.
    Malformed,
    /// The final chunk arrived; the whole payload is released at once.
    Complete(Box<AssembledFlow>),
}

/// One CRC-verified chunk body, held as the zero-copy view it arrived in.
struct Part {
    /// Where the header places the body within the original payload.
    offset: u64,
    /// The header CRC the body was verified against.
    crc: u32,
    body: Payload,
}

/// A flow still missing chunks. Nothing here is sized by the header's
/// `total_bytes` or `num_chunks` claims — only by the chunks that actually
/// arrived — so a damaged first header cannot make the receiver allocate.
struct PartialFlow {
    tag: String,
    link: LinkKind,
    /// First-seen geometry; chunks that disagree with it are dropped.
    num_chunks: u32,
    total_bytes: u64,
    /// Accepted bodies by chunk index.
    parts: BTreeMap<u32, Part>,
    /// Indices already reported as [`FlowStatus::Corrupt`] since the last
    /// reap, so a duplicated corrupt chunk does not trigger NACK storms.
    corrupt_flagged: BTreeSet<u32>,
    completed_at: SimInstant,
    wire_total: Duration,
    /// Virtual instant of the last chunk touch (an arrival, or a reap):
    /// the reactor's timer wheel schedules the next
    /// [`FlowAssembler::reap_at`] at `last_activity + nack_after`.
    last_activity: SimInstant,
    /// How many times this flow has been reaped (NACKed) without progress.
    nacks: u32,
}

/// Completed-flow bookkeeping for one sender: a watermark (every id
/// strictly below it is completed) plus a bounded set of completed ids at
/// or above it. Flow ids from one fabric are monotonic, so old ids
/// compress into the watermark and the memory footprint stays
/// O(`MAX_RECENT`) per sender no matter how long the consumer runs.
#[derive(Default)]
struct CompletedFlows {
    /// Ids `< watermark` are all completed. Starts at 0: nothing completed.
    watermark: u64,
    recent: BTreeSet<u64>,
}

impl CompletedFlows {
    /// Completed ids retained above the watermark before old ones are
    /// folded in. Retransmitted duplicates of a flow this far in the past
    /// would be misclassified as completed — acceptable, since such flows
    /// are long abandoned by the sender too.
    const MAX_RECENT: usize = 256;

    fn contains(&self, id: u64) -> bool {
        id < self.watermark || self.recent.contains(&id)
    }

    fn insert(&mut self, id: u64) {
        if id < self.watermark {
            return;
        }
        self.recent.insert(id);
        while self.recent.first() == Some(&self.watermark) {
            self.recent.pop_first();
            self.watermark += 1;
        }
        while self.recent.len() > Self::MAX_RECENT {
            let oldest = self.recent.pop_first().expect("non-empty");
            self.watermark = self.watermark.max(oldest.saturating_add(1));
        }
    }

    fn len(&self) -> usize {
        self.recent.len()
    }
}

/// Receiver-side reassembly of chunked flows.
///
/// Flows are keyed by `(sender, flow_id)`, so interleaved chunks from
/// concurrent flows (even from different senders reusing ids) reassemble
/// independently. Duplicate chunks are ignored, corrupt bodies are rejected
/// by CRC, and a payload is released exactly once, only when every chunk
/// has arrived intact. Accepted bodies are kept as the zero-copy views
/// they arrived in and re-joined on completion ([`Payload::try_join`]), so
/// an in-process flow is reassembled without copying a byte; a partial
/// flow therefore pins its sender's buffer until it completes or is
/// abandoned. Completed-flow keys are garbage-collected behind a
/// per-sender watermark, and stale partial flows can be
/// [reaped](FlowAssembler::reap_at) into NACKs on the virtual clock (the
/// assembler has no wall-clock input) — long-running consumers hold
/// bounded state.
#[derive(Default)]
pub struct FlowAssembler {
    flows: HashMap<(String, u64), PartialFlow>,
    completed: HashMap<String, CompletedFlows>,
    /// Payload bytes copied by the gather fallback (flows whose bodies did
    /// not all sit adjacent in one allocation).
    bytes_copied: u64,
}

impl FlowAssembler {
    /// An assembler with no flows in progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flows currently buffered (incomplete).
    pub fn in_progress(&self) -> usize {
        self.flows.len()
    }

    /// Total payload bytes this assembler has copied to reassemble flows.
    /// Zero for a consumer whose senders frame chunks as views of one
    /// allocation (every in-process sender) — the zero-copy steady state.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Completed-flow keys currently retained for duplicate suppression
    /// (bounded per sender; see [`FlowAssembler`]).
    pub fn completed_footprint(&self) -> usize {
        self.completed.values().map(CompletedFlows::len).sum()
    }

    /// Feed one received message through the assembler.
    pub fn accept(&mut self, msg: Message) -> FlowStatus {
        self.accept_with_crc(msg, None)
    }

    /// The body CRCs of a drained batch, one per message in order, for
    /// [`accept_with_crc`](Self::accept_with_crc): each equals
    /// [`chunk_body_crc`] of its message, and is `None` for a message that
    /// is not a well-formed chunk frame. They are computed in one
    /// fork-join over contiguous, byte-balanced shares of every body in
    /// the batch (`viper_formats::crc32_runs`), cut inside a body where
    /// the balance needs it, so a one-chunk flow splits too. The helper
    /// threads only checksum bytes; the caller's thread then runs the
    /// assembler's state machine over the batch in arrival order, so every
    /// status, NACK and virtual instant is the one-at-a-time drain's. A
    /// batch too small to split — or any batch on a one-core host —
    /// returns no CRCs, and [`accept`](Self::accept) checksums each body
    /// inline.
    pub fn verify_batch(msgs: &[Message]) -> Vec<Option<u32>> {
        let wire: usize = msgs.iter().map(|msg| msg.payload.len()).sum();
        match share_count(wire) {
            1 => Vec::new(),
            shares => Self::verify_batch_in(msgs, shares),
        }
    }

    /// [`verify_batch`](Self::verify_batch) in exactly `shares` shares.
    pub(crate) fn verify_batch_in(msgs: &[Message], shares: usize) -> Vec<Option<u32>> {
        let bodies: Vec<Option<Payload>> = msgs
            .iter()
            .map(|msg| match msg.kind {
                MessageKind::Chunk => ChunkHeader::decode_buf(&msg.payload).map(|(_, body)| body),
                _ => None,
            })
            .collect();
        let runs: Vec<&[u8]> = bodies.iter().map(|b| b.as_deref().unwrap_or(&[])).collect();
        let crcs = crc32_runs(&runs, shares);
        bodies
            .iter()
            .zip(crcs)
            .map(|(b, crc)| b.as_ref().map(|_| crc))
            .collect()
    }

    /// [`FlowAssembler::accept`] with an optionally precomputed body CRC
    /// (from [`verify_batch`](Self::verify_batch), or from
    /// [`chunk_body_crc`] for callers that time the verify apart from
    /// assembly). `None` computes the CRC inline; a precomputed value must
    /// be the body CRC of the same message or corruption detection is
    /// undefined. Either way the digest runs on the runtime-dispatched
    /// kernel (`viper_formats::active_kernel`) — receive-side verify is
    /// hardware-accelerated wherever encode is.
    pub fn accept_with_crc(&mut self, msg: Message, precomputed: Option<u32>) -> FlowStatus {
        if msg.kind != MessageKind::Chunk {
            return FlowStatus::Passthrough(msg);
        }
        let Some((header, body)) = ChunkHeader::decode_buf(&msg.payload) else {
            return FlowStatus::Malformed;
        };
        if self
            .completed
            .get(&msg.from)
            .is_some_and(|c| c.contains(header.flow_id))
        {
            return FlowStatus::Buffered;
        }
        let body_ok = precomputed.unwrap_or_else(|| crc32(&body)) == header.crc32;
        let key = (msg.from.clone(), header.flow_id);
        let flow = self
            .flows
            .entry(key.clone())
            .or_insert_with(|| PartialFlow {
                tag: msg.tag.clone(),
                link: msg.link,
                num_chunks: header.num_chunks,
                total_bytes: header.total_bytes,
                parts: BTreeMap::new(),
                corrupt_flagged: BTreeSet::new(),
                completed_at: msg.arrived_at,
                wire_total: Duration::ZERO,
                last_activity: msg.arrived_at,
                nacks: 0,
            });
        flow.last_activity = flow.last_activity.max(msg.arrived_at);
        // Geometry mismatches against the flow's first-seen framing, and
        // duplicates, are dropped: reassembly is idempotent.
        let consistent =
            header.num_chunks == flow.num_chunks && header.total_bytes == flow.total_bytes;
        if !consistent || flow.parts.contains_key(&header.chunk_index) {
            return FlowStatus::Buffered;
        }
        if !body_ok {
            // Reject the body; keep the flow so a retransmission can fill
            // the hole. Flag the index so duplicates of the same corrupt
            // chunk do not re-trigger a NACK before the next reap.
            if !flow.corrupt_flagged.insert(header.chunk_index) {
                return FlowStatus::Buffered;
            }
            return FlowStatus::Corrupt {
                from: msg.from,
                flow_id: header.flow_id,
                chunk_index: header.chunk_index,
                tag: flow.tag.clone(),
                link: flow.link,
            };
        }
        flow.parts.insert(
            header.chunk_index,
            Part {
                offset: header.offset,
                crc: header.crc32,
                body,
            },
        );
        flow.completed_at = flow.completed_at.max(msg.arrived_at);
        flow.wire_total += msg.wire_time;
        if (flow.parts.len() as u64) < u64::from(flow.num_chunks) {
            return FlowStatus::Buffered;
        }
        let done = self.flows.remove(&key).expect("flow present");
        // Every index is present; release only if, in index order, the
        // bodies tile [0, total_bytes) exactly. Headers are not checksummed,
        // so an offset damaged in flight must not shift verified bytes.
        let mut chunk_lens = Vec::with_capacity(done.parts.len());
        let mut end = 0u64;
        for part in done.parts.values() {
            if part.offset != end {
                return FlowStatus::Malformed;
            }
            chunk_lens.push(part.body.len() as u64);
            end += part.body.len() as u64;
        }
        if end != done.total_bytes {
            return FlowStatus::Malformed;
        }
        // Chunk bodies of an in-process sender are adjacent windows of its
        // one allocation: joining them back is the original payload, no
        // bytes touched. Bodies from separate allocations (a real
        // transport's receive buffers) are gathered, in order, once.
        let mut bodies = done.parts.values().map(|part| &part.body);
        let first = bodies.next().expect("num_chunks > 0").clone();
        let payload = bodies
            .try_fold(first, |joined, next| joined.try_join(next))
            .unwrap_or_else(|| {
                let mut gathered = Vec::with_capacity(end as usize);
                for part in done.parts.values() {
                    gathered.extend_from_slice(&part.body);
                }
                self.bytes_copied += end;
                Payload::from(gathered)
            });
        self.completed.entry(key.0).or_default().insert(key.1);
        FlowStatus::Complete(Box::new(AssembledFlow {
            flow_id: header.flow_id,
            from: msg.from,
            tag: done.tag,
            link: done.link,
            payload,
            chunk_crcs: Arc::new(done.parts.values().map(|part| part.crc).collect()),
            chunk_lens,
            completed_at: done.completed_at,
            wire_total: done.wire_total,
        }))
    }

    /// Time out stale partial flows, driven by the delivery reactor's
    /// timer wheel: a flow whose last chunk touch is `stale_after` or more
    /// of **virtual** time before `now` is surfaced as a [`FlowError`]
    /// listing its missing chunk indices, for the reliability layer to turn
    /// into a NACK (and its activity stamp refreshed to `now`, so
    /// successive reaps of the same hole space out by `stale_after`). A
    /// flow reaped more than `max_nacks` times is abandoned — its held
    /// bodies are released and the error is marked `abandoned` — so lost
    /// flows cannot pin their senders' buffers forever.
    pub fn reap_at(
        &mut self,
        now: SimInstant,
        stale_after: Duration,
        max_nacks: u32,
    ) -> Vec<FlowError> {
        let mut errors = Vec::new();
        self.flows.retain(|(from, flow_id), flow| {
            if now.since(flow.last_activity) < stale_after {
                return true;
            }
            flow.nacks += 1;
            flow.last_activity = now;
            // Allow a fresh Corrupt report per index after each reap.
            flow.corrupt_flagged.clear();
            let abandoned = flow.nacks > max_nacks;
            errors.push(FlowError {
                from: from.clone(),
                flow_id: *flow_id,
                tag: flow.tag.clone(),
                link: flow.link,
                missing: (0..flow.num_chunks)
                    .filter(|index| !flow.parts.contains_key(index))
                    .collect(),
                abandoned,
            });
            !abandoned
        });
        errors
    }

    /// The earliest virtual instant at which a currently buffered partial
    /// flow becomes reapable under `stale_after` — what the reactor arms
    /// its reap timer to. `None` when nothing is in progress.
    pub fn next_reap_deadline(&self, stale_after: Duration) -> Option<SimInstant> {
        self.flows
            .values()
            .map(|flow| flow.last_activity.add(stale_after))
            .min()
    }
}

/// CRC32 of a chunk message's body, or `None` when the message is not a
/// well-formed chunk frame (non-chunk kinds, broken framing). This is the
/// exact checksum [`FlowAssembler::accept`] computes inline, which is how
/// the consumer verifies every chunk it drains. This function and
/// [`FlowAssembler::accept_with_crc`] serve callers that time the verify
/// separately from assembly.
pub fn chunk_body_crc(msg: &Message) -> Option<u32> {
    if msg.kind != MessageKind::Chunk {
        return None;
    }
    let (_, body) = ChunkHeader::decode_buf(&msg.payload)?;
    Some(crc32(&body))
}

/// Per-chunk CRC32s for `payload` under the `chunk_sizes(len, chunk_bytes)`
/// geometry, checksummed on the calling thread. A relay whose chunk
/// geometry differs from the one a flow arrived under computes this once
/// per fan ([`AssembledFlow::crcs_for`]) and shares it across every child
/// serve and retransmit round.
pub fn payload_chunk_crcs(payload: &[u8], chunk_bytes: u64) -> Vec<u32> {
    let sizes = chunk_sizes(payload.len() as u64, chunk_bytes);
    let mut crcs = Vec::with_capacity(sizes.len());
    let mut off = 0usize;
    for &len in &sizes {
        crcs.push(crc32(&payload[off..off + len as usize]));
        off += len as usize;
    }
    crcs
}

/// The chunk geometry of a payload — the cost model's
/// [`viper_hw::chunk_layout`], so the priced pipeline and the wire can
/// never disagree on how a payload splits.
pub use viper_hw::chunk_layout as chunk_sizes;

#[cfg(test)]
mod tests {
    use super::*;

    /// A chunk message for `header` carrying `body`, arriving at virtual
    /// instant `chunk_index + 1`.
    fn framed_msg(header: ChunkHeader, body: Payload) -> Message {
        Message {
            from: "p".into(),
            to: "c".into(),
            tag: "m:1".into(),
            payload: WireBuf::framed(header.encode(), body),
            kind: MessageKind::Chunk,
            link: LinkKind::GpuDirect,
            sent_at: SimInstant::ZERO,
            arrived_at: SimInstant(u64::from(header.chunk_index) + 1),
            wire_time: Duration::from_nanos(1),
        }
    }

    /// Chunk `index` of `payload`, its body copied into an allocation of
    /// its own (what a real transport's receive buffers look like).
    fn chunk_msg(flow_id: u64, index: u32, n: u32, payload: &[u8], chunk: u64) -> Message {
        let sizes = chunk_sizes(payload.len() as u64, chunk);
        let offset: u64 = sizes[..index as usize].iter().sum();
        let body = &payload[offset as usize..(offset + sizes[index as usize]) as usize];
        let header = ChunkHeader::for_body(flow_id, index, n, offset, payload.len() as u64, body);
        framed_msg(header, Payload::from(body))
    }

    /// Chunk `index` of `payload` the way the fabric frames it: the body is
    /// a zero-copy window of the sender's allocation.
    fn view_msg(flow_id: u64, index: u32, payload: &Payload, chunk: u64) -> Message {
        let sizes = chunk_sizes(payload.len() as u64, chunk);
        let offset: u64 = sizes[..index as usize].iter().sum();
        let body = payload.slice(offset as usize..(offset + sizes[index as usize]) as usize);
        let header = ChunkHeader::for_body(
            flow_id,
            index,
            sizes.len() as u32,
            offset,
            payload.len() as u64,
            &body,
        );
        framed_msg(header, body)
    }

    /// `len` bytes of a pattern that no 256-byte shift repeats.
    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8) ^ ((i >> 8) as u8).wrapping_mul(7))
            .collect()
    }

    /// A batch of every kind of message a drain meets: chunks of two
    /// flows (one body empty), a control frame, a chunk whose framing is
    /// broken, and a chunk whose header lies about its body's CRC.
    fn mixed_batch(payload: &Payload) -> Vec<Message> {
        let n = chunk_sizes(payload.len() as u64, 700).len() as u32;
        let mut batch: Vec<Message> = (0..n).map(|i| view_msg(1, i, payload, 700)).collect();
        let control = Message {
            kind: MessageKind::Control,
            payload: WireBuf::plain(vec![1, 2, 3]),
            ..view_msg(3, 0, payload, 0)
        };
        batch.insert(1, control);
        let empty = ChunkHeader::for_body(2, 0, 2, 0, 5, &[]);
        batch.push(framed_msg(empty, Payload::from(Vec::new())));
        batch.push(Message {
            payload: WireBuf::plain(vec![0xAB; 64]),
            ..view_msg(4, 0, payload, 0)
        });
        let (mut header, body) =
            ChunkHeader::decode_buf(&view_msg(5, 0, payload, 0).payload).unwrap();
        header.crc32 ^= 1;
        batch.push(framed_msg(header, body));
        batch
    }

    #[test]
    fn split_verify_is_the_per_message_crc() {
        let payload = Payload::from(sample(2_500));
        let batch = mixed_batch(&payload);
        let want: Vec<Option<u32>> = batch.iter().map(chunk_body_crc).collect();
        assert_eq!(
            want.iter().filter(|c| c.is_none()).count(),
            2,
            "control + malformed"
        );
        for shares in 1..=6 {
            assert_eq!(
                FlowAssembler::verify_batch_in(&batch, shares),
                want,
                "{shares} shares"
            );
        }
        // A small batch is left to `accept`'s inline checksum.
        assert!(FlowAssembler::verify_batch(&batch).is_empty());
        assert!(FlowAssembler::verify_batch(&[]).is_empty());
    }

    proptest::proptest! {
        /// Any chunk geometry, any share count: the split CRCs are each
        /// message's own, and feeding them to the assembler gives the
        /// statuses of the inline checksum, in order.
        #[test]
        fn split_verify_feeds_the_assembler_what_inline_verify_does(
            len in 0usize..3000,
            chunk in 0u64..900,
            shares in 1usize..6,
        ) {
            let payload = Payload::from(sample(len));
            let mut batch = mixed_batch(&payload);
            let n = chunk_sizes(len as u64, chunk).len() as u32;
            batch.extend((0..n).map(|i| view_msg(6, i, &payload, chunk)));
            let crcs = FlowAssembler::verify_batch_in(&batch, shares);
            let want: Vec<Option<u32>> = batch.iter().map(chunk_body_crc).collect();
            proptest::prop_assert_eq!(&crcs, &want);
            // A status with its payload's bytes, not its reference count.
            let verdict = |status: FlowStatus| match status {
                FlowStatus::Complete(f) => format!("{} {:?}", crc32(&f.payload), f.chunk_crcs),
                other => format!("{other:?}"),
            };
            let (mut split, mut inline) = (FlowAssembler::new(), FlowAssembler::new());
            for (msg, crc) in batch.into_iter().zip(crcs) {
                let a = verdict(split.accept_with_crc(msg.clone(), crc));
                proptest::prop_assert_eq!(a, verdict(inline.accept(msg)));
            }
        }
    }

    /// A one-chunk flow of 8 MiB split four ways: a bit flipped in its last
    /// share, or in the middle of one of several chunks where a cut falls,
    /// still fails that chunk's CRC.
    #[test]
    fn a_bit_flipped_in_a_split_body_is_corrupt() {
        let payload = sample(8 << 20);
        let mono = |flip: usize| {
            let mut damaged = payload.clone();
            damaged[flip] ^= 0x10;
            let header = ChunkHeader::for_body(1, 0, 1, 0, payload.len() as u64, &payload);
            framed_msg(header, Payload::from(damaged))
        };
        for flip in [payload.len() - 1, payload.len() - (1 << 20), 7 << 20] {
            let msg = mono(flip);
            let crcs = FlowAssembler::verify_batch_in(std::slice::from_ref(&msg), 4);
            let status = FlowAssembler::new().accept_with_crc(msg, crcs[0]);
            assert!(
                matches!(status, FlowStatus::Corrupt { chunk_index: 0, .. }),
                "{status:?}"
            );
        }
        // Five 1 MiB chunks cut in two: the cut falls 512 KiB into chunk 2.
        let five = Payload::from(payload[..5 << 20].to_vec());
        let mut batch: Vec<Message> = (0..5).map(|i| view_msg(2, i, &five, 1 << 20)).collect();
        let (header, body) = ChunkHeader::decode_buf(&batch[2].payload).unwrap();
        let mut damaged = body.to_vec();
        damaged[(1 << 19) + 3] ^= 0x01;
        batch[2] = framed_msg(header, Payload::from(damaged));
        let crcs = FlowAssembler::verify_batch_in(&batch, 2);
        let mut asm = FlowAssembler::new();
        let statuses: Vec<_> = batch
            .into_iter()
            .zip(crcs)
            .map(|(msg, crc)| asm.accept_with_crc(msg, crc))
            .collect();
        assert!(matches!(
            statuses[2],
            FlowStatus::Corrupt { chunk_index: 2, .. }
        ));
        assert!(statuses
            .iter()
            .enumerate()
            .all(|(i, s)| i == 2 || matches!(s, FlowStatus::Buffered)));
    }

    #[test]
    fn header_roundtrips() {
        let h = ChunkHeader {
            flow_id: 77,
            chunk_index: 3,
            num_chunks: 9,
            offset: 3 * 1024,
            total_bytes: 9 * 1024,
            crc32: 0xDEAD_BEEF,
        };
        let framed = h.frame(&[7u8; 16]);
        let (back, body) = ChunkHeader::decode(&framed).unwrap();
        assert_eq!(back, h);
        assert_eq!(body, &[7u8; 16]);
    }

    #[test]
    fn non_chunk_payloads_pass_through() {
        assert!(ChunkHeader::decode(b"VIPRxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx").is_none());
        assert!(ChunkHeader::decode(b"short").is_none());
        let mut asm = FlowAssembler::new();
        let msg = Message {
            from: "p".into(),
            to: "c".into(),
            tag: "t".into(),
            payload: WireBuf::plain(vec![1, 2, 3]),
            kind: MessageKind::Control,
            link: LinkKind::HostRdma,
            sent_at: SimInstant::ZERO,
            arrived_at: SimInstant::ZERO,
            wire_time: Duration::ZERO,
        };
        assert!(matches!(asm.accept(msg), FlowStatus::Passthrough(_)));
    }

    #[test]
    fn adversarial_monolithic_payload_is_not_swallowed() {
        // A control frame whose payload is byte-for-byte valid chunk
        // framing must still pass through: chunk handling is keyed on
        // MessageKind, never on payload sniffing.
        let body = vec![9u8; 64];
        let header = ChunkHeader::for_body(1, 0, 2, 0, 128, &body);
        let adversarial = header.frame(&body);
        assert!(ChunkHeader::decode(&adversarial).is_some(), "test premise");
        let mut asm = FlowAssembler::new();
        let msg = Message {
            from: "p".into(),
            to: "c".into(),
            tag: "t".into(),
            payload: WireBuf::plain(adversarial.clone()),
            kind: MessageKind::Control,
            link: LinkKind::HostRdma,
            sent_at: SimInstant::ZERO,
            arrived_at: SimInstant::ZERO,
            wire_time: Duration::ZERO,
        };
        match asm.accept(msg) {
            FlowStatus::Passthrough(m) => assert_eq!(m.payload, adversarial),
            other => panic!("adversarial payload was not passed through: {other:?}"),
        }
        assert_eq!(asm.in_progress(), 0);
    }

    #[test]
    fn marked_chunk_with_broken_framing_is_malformed() {
        let mut msg = chunk_msg(1, 0, 2, &[1u8; 100], 50);
        let mut broken = msg.payload.to_vec();
        broken[0] ^= 0xFF; // destroy the magic
        msg.payload = WireBuf::plain(broken);
        let mut asm = FlowAssembler::new();
        assert!(matches!(asm.accept(msg), FlowStatus::Malformed));
    }

    #[test]
    fn out_of_order_chunks_reassemble_byte_identical() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut asm = FlowAssembler::new();
        let n = chunk_sizes(payload.len() as u64, 3000).len() as u32;
        let mut released = None;
        for index in (0..n).rev() {
            match asm.accept(chunk_msg(1, index, n, &payload, 3000)) {
                FlowStatus::Complete(flow) => released = Some(flow),
                FlowStatus::Buffered => {}
                other => panic!("chunk misparsed: {other:?}"),
            }
        }
        assert_eq!(released.unwrap().payload, payload);
        assert_eq!(asm.in_progress(), 0);
    }

    #[test]
    fn duplicates_are_idempotent() {
        let payload = vec![9u8; 5000];
        let mut asm = FlowAssembler::new();
        assert!(matches!(
            asm.accept(chunk_msg(4, 0, 2, &payload, 2500)),
            FlowStatus::Buffered
        ));
        assert!(matches!(
            asm.accept(chunk_msg(4, 0, 2, &payload, 2500)),
            FlowStatus::Buffered
        ));
        let FlowStatus::Complete(flow) = asm.accept(chunk_msg(4, 1, 2, &payload, 2500)) else {
            panic!("flow should complete");
        };
        assert_eq!(flow.payload, payload);
    }

    #[test]
    fn corrupt_body_rejected_then_repaired_by_retransmission() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let mut asm = FlowAssembler::new();
        let mut corrupt = chunk_msg(6, 0, 2, &payload, 2500);
        let mut bytes = corrupt.payload.to_vec();
        let n = bytes.len();
        bytes[n - 7] ^= 0x40; // flip one body bit
        corrupt.payload = WireBuf::plain(bytes);
        match asm.accept(corrupt.clone()) {
            FlowStatus::Corrupt {
                flow_id,
                chunk_index,
                ..
            } => {
                assert_eq!(flow_id, 6);
                assert_eq!(chunk_index, 0);
            }
            other => panic!("corrupt chunk not rejected: {other:?}"),
        }
        // A duplicate of the same corrupt chunk is quiet (no NACK storm).
        assert!(matches!(asm.accept(corrupt), FlowStatus::Buffered));
        // The rest of the flow arrives; still incomplete (hole at index 0).
        assert!(matches!(
            asm.accept(chunk_msg(6, 1, 2, &payload, 2500)),
            FlowStatus::Buffered
        ));
        // Retransmission of a clean copy completes the flow byte-identical.
        let FlowStatus::Complete(flow) = asm.accept(chunk_msg(6, 0, 2, &payload, 2500)) else {
            panic!("flow should complete after retransmission");
        };
        assert_eq!(flow.payload, payload);
    }

    #[test]
    fn reap_surfaces_missing_chunks_then_abandons() {
        let payload = vec![3u8; 4000];
        let mut asm = FlowAssembler::new();
        // Chunk 0 arrives at virtual t=1ns (see framed_msg).
        asm.accept(chunk_msg(5, 0, 2, &payload, 2000));
        let now = SimInstant(1);
        // Not yet stale.
        assert!(asm.reap_at(now, Duration::from_secs(60), 3).is_empty());
        // Instantly stale: every reap NACKs the missing index.
        for round in 1..=3u32 {
            let errs = asm.reap_at(now, Duration::ZERO, 3);
            assert_eq!(errs.len(), 1, "round {round}");
            assert_eq!(errs[0].missing, vec![1]);
            assert!(!errs[0].abandoned);
            assert_eq!(asm.in_progress(), 1);
        }
        // The next reap exceeds max_nacks: abandoned and evicted.
        let errs = asm.reap_at(now, Duration::ZERO, 3);
        assert!(errs[0].abandoned);
        assert_eq!(asm.in_progress(), 0);
        // Late retransmits for the abandoned flow restart it from scratch
        // (and can still complete it).
        assert!(matches!(
            asm.accept(chunk_msg(5, 0, 2, &payload, 2000)),
            FlowStatus::Buffered
        ));
    }

    #[test]
    fn virtual_reap_follows_activity_stamps() {
        let payload = vec![3u8; 4000];
        let nack_after = Duration::from_millis(8);
        let mut asm = FlowAssembler::new();
        assert_eq!(asm.next_reap_deadline(nack_after), None);
        // Chunk 0 arrives at virtual t=1ns (see framed_msg).
        asm.accept(chunk_msg(5, 0, 2, &payload, 2000));
        let deadline = asm.next_reap_deadline(nack_after).unwrap();
        assert_eq!(deadline, SimInstant(1).add(nack_after));
        // Before the deadline nothing is stale.
        assert!(asm.reap_at(SimInstant(2), nack_after, 3).is_empty());
        // At the deadline the hole is surfaced and the stamp refreshes, so
        // the next deadline moves strictly later.
        let errs = asm.reap_at(deadline, nack_after, 3);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].missing, vec![1]);
        assert!(!errs[0].abandoned);
        let next = asm.next_reap_deadline(nack_after).unwrap();
        assert_eq!(next, deadline.add(nack_after));
        // Exceeding max_nacks abandons and evicts.
        for _ in 0..3 {
            let at = asm.next_reap_deadline(nack_after).unwrap();
            asm.reap_at(at, nack_after, 3);
        }
        assert_eq!(asm.in_progress(), 0);
    }

    #[test]
    fn precomputed_crc_matches_inline_verification() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let good = chunk_msg(7, 0, 2, &payload, 2500);
        let crc = chunk_body_crc(&good).expect("well-formed chunk");
        let mut asm = FlowAssembler::new();
        assert!(matches!(
            asm.accept_with_crc(good, Some(crc)),
            FlowStatus::Buffered
        ));
        // A corrupted body's precomputed CRC disagrees with the header,
        // exactly as the inline path would conclude.
        let mut corrupt = chunk_msg(7, 1, 2, &payload, 2500);
        let mut bytes = corrupt.payload.to_vec();
        let n = bytes.len();
        bytes[n - 3] ^= 0x10;
        corrupt.payload = WireBuf::plain(bytes);
        let bad_crc = chunk_body_crc(&corrupt).expect("framing intact");
        assert!(matches!(
            asm.accept_with_crc(corrupt, Some(bad_crc)),
            FlowStatus::Corrupt { chunk_index: 1, .. }
        ));
        // Control frames have no body CRC.
        let control = Message {
            from: "p".into(),
            to: "c".into(),
            tag: "t".into(),
            payload: WireBuf::plain(vec![1, 2, 3]),
            kind: MessageKind::Control,
            link: LinkKind::HostRdma,
            sent_at: SimInstant::ZERO,
            arrived_at: SimInstant::ZERO,
            wire_time: Duration::ZERO,
        };
        assert_eq!(chunk_body_crc(&control), None);
    }

    #[test]
    fn adjacent_views_rejoin_without_copying() {
        let sent = Payload::from((0..=255u8).cycle().take(10_000).collect::<Vec<_>>());
        let mut asm = FlowAssembler::new();
        let mut released = None;
        // Four chunks, out of order, with a duplicate (a retransmit of the same window).
        for index in [2, 0, 2, 3, 1] {
            if let FlowStatus::Complete(flow) = asm.accept(view_msg(1, index, &sent, 3000)) {
                released = Some(flow);
            }
        }
        let flow = released.expect("flow completes on the last distinct chunk");
        assert_eq!(flow.payload, sent);
        assert_eq!(
            flow.payload.as_slice().as_ptr(),
            sent.as_slice().as_ptr(),
            "the released payload must alias the sender's allocation"
        );
        assert_eq!(asm.bytes_copied(), 0);
        assert_eq!(*flow.chunk_crcs, payload_chunk_crcs(&sent, 3000));
        assert_eq!(flow.chunk_lens, chunk_sizes(sent.len() as u64, 3000));
        // Same geometry hands the verified CRCs on; any other recomputes.
        assert!(Arc::ptr_eq(&flow.crcs_for(3000), &flow.chunk_crcs));
        let rechunked = flow.crcs_for(2500);
        assert!(!Arc::ptr_eq(&rechunked, &flow.chunk_crcs));
        assert_eq!(*rechunked, payload_chunk_crcs(&sent, 2500));
    }

    #[test]
    fn a_body_from_another_allocation_falls_back_to_one_gather() {
        let sent = Payload::from((0..=255u8).cycle().take(9_000).collect::<Vec<_>>());
        let mut asm = FlowAssembler::new();
        assert!(matches!(
            asm.accept(view_msg(1, 0, &sent, 3000)),
            FlowStatus::Buffered
        ));
        // Chunk 1 is re-framed from a copy; chunk 2 is a view again.
        assert!(matches!(
            asm.accept(chunk_msg(1, 1, 3, &sent, 3000)),
            FlowStatus::Buffered
        ));
        assert_eq!(asm.bytes_copied(), 0, "nothing is copied before completion");
        let FlowStatus::Complete(flow) = asm.accept(view_msg(1, 2, &sent, 3000)) else {
            panic!("flow should complete");
        };
        assert_eq!(flow.payload, sent);
        assert_ne!(flow.payload.as_slice().as_ptr(), sent.as_slice().as_ptr());
        assert_eq!(asm.bytes_copied(), 9_000);
        assert_eq!(*flow.chunk_crcs, payload_chunk_crcs(&sent, 3000));
    }

    #[test]
    fn absurd_total_bytes_claim_allocates_nothing_and_is_reaped() {
        // Headers are not checksummed: a flipped bit in `total_bytes` of
        // the first-seen header must not size anything.
        let body = Payload::from(vec![5u8; 64]);
        let header = ChunkHeader::for_body(9, 0, 2, 0, 1 << 60, &body);
        let mut asm = FlowAssembler::new();
        assert!(matches!(
            asm.accept(framed_msg(header, body)),
            FlowStatus::Buffered
        ));
        assert_eq!(asm.in_progress(), 1);
        // The honest chunks of the same flow disagree with the first-seen
        // geometry and are dropped; the flow can only time out.
        assert!(matches!(
            asm.accept(chunk_msg(9, 1, 2, &[5u8; 128], 64)),
            FlowStatus::Buffered
        ));
        let nack_after = Duration::from_millis(1);
        let mut abandoned = false;
        for _ in 0..=3 {
            let at = asm
                .next_reap_deadline(nack_after)
                .expect("flow in progress");
            let errs = asm.reap_at(at, nack_after, 3);
            assert_eq!(errs[0].missing, vec![1]);
            abandoned = errs[0].abandoned;
        }
        assert!(abandoned);
        assert_eq!(asm.in_progress(), 0);
        assert_eq!(asm.bytes_copied(), 0);
    }

    #[test]
    fn bodies_that_do_not_tile_the_payload_are_never_released() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4000).collect();
        let total = payload.len() as u64;
        // (offset of chunk 1, length of chunk 1): overlapping chunk 0,
        // leaving a gap after it, and stopping short of `total_bytes`.
        for (flow_id, (offset, len)) in [(1000u64, 3000usize), (2500, 1500), (2000, 1000)]
            .into_iter()
            .enumerate()
        {
            let flow_id = flow_id as u64 + 1;
            let mut asm = FlowAssembler::new();
            assert!(matches!(
                asm.accept(chunk_msg(flow_id, 0, 2, &payload, 2000)),
                FlowStatus::Buffered
            ));
            let body = &payload[offset as usize..offset as usize + len];
            let header = ChunkHeader::for_body(flow_id, 1, 2, offset, total, body);
            assert!(
                matches!(
                    asm.accept(framed_msg(header, Payload::from(body))),
                    FlowStatus::Malformed
                ),
                "offset {offset} len {len} must not complete"
            );
            // Evicted, not marked completed: a blind resend starts afresh
            // and can still deliver the payload.
            assert_eq!(asm.in_progress(), 0);
            assert!(matches!(
                asm.accept(chunk_msg(flow_id, 0, 2, &payload, 2000)),
                FlowStatus::Buffered
            ));
            let FlowStatus::Complete(flow) = asm.accept(chunk_msg(flow_id, 1, 2, &payload, 2000))
            else {
                panic!("resend should complete");
            };
            assert_eq!(flow.payload, payload);
        }
    }

    #[test]
    fn range_crc_holds_for_ragged_chunks_a_sender_is_free_to_frame() {
        // Tiling is all the assembler demands of a sender's geometry: uneven
        // lengths, an empty chunk mid-flow, a 1-byte tail. The payload is a
        // 7-byte envelope, a body and its CRC footer, which straddles the
        // last two chunks.
        let mut payload: Vec<u8> = (0..=255u8).cycle().take(996).collect();
        let footer = crc32(&payload[7..]);
        payload.extend_from_slice(&footer.to_le_bytes());
        let lens = [7usize, 300, 0, 1, 691, 1];
        let mut asm = FlowAssembler::new();
        let mut status = FlowStatus::Buffered;
        let mut offset = 0usize;
        for (i, &len) in lens.iter().enumerate() {
            let body = &payload[offset..offset + len];
            let header = ChunkHeader::for_body(9, i as u32, 6, offset as u64, 1000, body);
            status = asm.accept(framed_msg(header, Payload::from(body)));
            offset += len;
        }
        let FlowStatus::Complete(flow) = status else {
            panic!("flow should complete: {status:?}");
        };
        assert_eq!(flow.body_crc(7), footer, "the footer, unread");
        // The verdict rests on the verified chunk CRCs alone: bytes that
        // changed behind them are not read.
        let mut blind = (*flow).clone();
        let mut changed = payload.clone();
        changed[500] ^= 1;
        blind.payload = Payload::from(changed);
        assert_eq!(blind.body_crc(7), footer, "the body is never read");
        // Any other envelope length reads a wrong footer: the body's CRC.
        for skip in [0, 5, 8, 307, 996] {
            assert_eq!(flow.body_crc(skip), crc32(&payload[skip..996]), "{skip}");
        }
        for skip in [997, 1000] {
            assert_eq!(flow.body_crc(skip), crc32(&[]), "no room for a footer");
        }
    }

    #[test]
    fn completed_set_stays_bounded() {
        let mut asm = FlowAssembler::new();
        let payload = vec![1u8; 16];
        for flow_id in 1..=10_000u64 {
            let FlowStatus::Complete(_) = asm.accept(chunk_msg(flow_id, 0, 1, &payload, 64)) else {
                panic!("single-chunk flow must complete");
            };
        }
        assert!(
            asm.completed_footprint() <= CompletedFlows::MAX_RECENT,
            "footprint {} grew past the watermark cap",
            asm.completed_footprint()
        );
        // Duplicate suppression still works across the whole history.
        assert!(matches!(
            asm.accept(chunk_msg(9_999, 0, 1, &payload, 64)),
            FlowStatus::Buffered
        ));
        assert!(matches!(
            asm.accept(chunk_msg(3, 0, 1, &payload, 64)),
            FlowStatus::Buffered
        ));
    }

    #[test]
    fn concurrent_flows_interleave_independently() {
        let a: Vec<u8> = vec![1; 4000];
        let b: Vec<u8> = vec![2; 6000];
        let mut asm = FlowAssembler::new();
        assert!(matches!(
            asm.accept(chunk_msg(1, 0, 2, &a, 2000)),
            FlowStatus::Buffered
        ));
        assert!(matches!(
            asm.accept(chunk_msg(2, 0, 3, &b, 2000)),
            FlowStatus::Buffered
        ));
        assert!(matches!(
            asm.accept(chunk_msg(2, 1, 3, &b, 2000)),
            FlowStatus::Buffered
        ));
        let FlowStatus::Complete(fa) = asm.accept(chunk_msg(1, 1, 2, &a, 2000)) else {
            panic!("flow a should complete");
        };
        assert_eq!(fa.payload, a);
        assert_eq!(asm.in_progress(), 1);
        let FlowStatus::Complete(fb) = asm.accept(chunk_msg(2, 2, 3, &b, 2000)) else {
            panic!("flow b should complete");
        };
        assert_eq!(fb.payload, b);
    }

    #[test]
    fn empty_payload_is_a_single_chunk() {
        assert_eq!(chunk_sizes(0, 1024), vec![0]);
        let mut asm = FlowAssembler::new();
        let FlowStatus::Complete(flow) = asm.accept(chunk_msg(8, 0, 1, &[], 1024)) else {
            panic!("empty flow should complete immediately");
        };
        assert!(flow.payload.is_empty());
    }

    #[test]
    fn chunk_sizes_cover_payload_exactly() {
        for (bytes, chunk) in [(10u64, 3u64), (12, 4), (1, 100), (100, 1), (5, 0)] {
            let sizes = chunk_sizes(bytes, chunk);
            assert_eq!(sizes.iter().sum::<u64>(), bytes, "{bytes}/{chunk}");
            assert!(!sizes.is_empty());
            if chunk > 0 {
                assert!(sizes.iter().all(|&s| s <= chunk.max(bytes)));
            }
        }
    }

    #[test]
    fn completion_time_is_last_arrival() {
        let payload = vec![3u8; 4000];
        let mut asm = FlowAssembler::new();
        // Deliver chunk 1 (arrives at t=2) before chunk 0 (arrives at t=1).
        asm.accept(chunk_msg(5, 1, 2, &payload, 2000));
        let FlowStatus::Complete(flow) = asm.accept(chunk_msg(5, 0, 2, &payload, 2000)) else {
            panic!("flow should complete");
        };
        assert_eq!(flow.completed_at, SimInstant(2));
    }
}
