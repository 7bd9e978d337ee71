//! Wire-identity and payload-lifetime tests for the zero-copy chunk path.
//!
//! The zero-copy framing (`WireBuf` head + `Payload` body subslices) must
//! put byte-for-byte the same logical frames on the wire as the old
//! copying path (`ChunkHeader::frame`, which memcpy'd every body behind
//! its header) — for arbitrary payload sizes and chunk geometries, and for
//! payload-kind-enveloped bodies with CRC footers. And because chunk
//! bodies are shared views of the sender's buffer rather than owned
//! copies, the buffer must stay valid through retransmit rounds even
//! after the producer drops its last strong reference. Every payload
//! crosses the chunk framing and every reply the control framing, so
//! neither parser may panic or over-allocate on hostile bytes.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use viper_formats::{crc32, wire, PayloadKind};
use viper_hw::{MachineProfile, SimClock, SimInstant};
use viper_net::{
    chunk_sizes, payload_chunk_crcs, ChunkHeader, ChunkedSend, Control, Fabric, FaultPlan,
    FaultRng, FlowAssembler, FlowStatus, LinkKind, Message, MessageKind, Payload, WireBuf,
    CHUNK_MAGIC, CONTROL_MAGIC,
};

/// The system allocator, recording the largest single request each thread
/// makes (const-initialised `Cell`: the thread-local itself never allocates).
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a thread-local `Cell<usize>`.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Run `f`, asserting no single allocation inside it exceeds the bound the
/// format decoders are held to: a small multiple of `input_len`.
fn bounded<T>(input_len: usize, f: impl FnOnce() -> T) -> T {
    LARGEST.with(|l| l.set(0));
    let out = f();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 4096 + 16 * input_len,
        "a {input_len}-byte input made the decoder request {largest} bytes at once"
    );
    out
}

/// `bytes` as the fabric would hand them over, marked as a chunk.
fn as_chunk(bytes: Vec<u8>) -> Message {
    Message {
        from: "p".into(),
        to: "c".into(),
        tag: "m:1".into(),
        payload: WireBuf::plain(bytes),
        kind: MessageKind::Chunk,
        link: LinkKind::GpuDirect,
        sent_at: SimInstant::ZERO,
        arrived_at: SimInstant::ZERO,
        wire_time: std::time::Duration::ZERO,
    }
}

fn fabric() -> Fabric {
    Fabric::new(MachineProfile::polaris(), SimClock::new())
}

/// The old copying path: frame every chunk of `data` into an owned vector.
fn reference_frames(flow_id: u64, data: &[u8], chunk_bytes: u64) -> Vec<Vec<u8>> {
    let sizes = chunk_sizes(data.len() as u64, chunk_bytes);
    let num_chunks = sizes.len() as u32;
    let mut offset = 0u64;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let body = &data[offset as usize..(offset + len) as usize];
            let header = ChunkHeader::for_body(
                flow_id,
                i as u32,
                num_chunks,
                offset,
                data.len() as u64,
                body,
            );
            offset += len;
            header.frame(body)
        })
        .collect()
}

fn drain(consumer: &viper_net::Endpoint) -> Vec<Message> {
    let mut msgs = Vec::new();
    while let Some(msg) = consumer.try_recv() {
        msgs.push(msg);
    }
    msgs
}

proptest! {
    /// Every frame the zero-copy path puts on the wire is byte-identical
    /// to the copying reference path, for arbitrary payloads and chunk
    /// geometries — and the reassembled flow is byte-identical to the
    /// original payload.
    #[test]
    fn zero_copy_frames_match_copying_path(
        data in prop::collection::vec(0u8..=255, 0..6000),
        chunk_bytes in 1u64..1500,
    ) {
        let fabric = fabric();
        let producer = fabric.register("p");
        let consumer = fabric.register("c");
        let report = producer
            .send_chunked("c", "m:1", data.clone(), LinkKind::GpuDirect, &ChunkedSend::new(chunk_bytes))
            .expect("send");
        let expected = reference_frames(report.flow_id, &data, chunk_bytes);
        let msgs = drain(&consumer);
        prop_assert_eq!(msgs.len(), expected.len());
        let mut asm = FlowAssembler::new();
        let mut done = None;
        for (msg, frame) in msgs.into_iter().zip(&expected) {
            prop_assert_eq!(msg.payload.to_vec(), frame.clone());
            if let FlowStatus::Complete(flow) = asm.accept(msg) {
                done = Some(flow);
            }
        }
        let flow = done.expect("flow completes");
        prop_assert_eq!(flow.payload.to_vec(), data);
    }

    /// A payload-kind-enveloped body (VPWP header + body + CRC footer, the
    /// shape delta transfer ships) survives the zero-copy chunk stream
    /// intact: the envelope unframes and the footer CRC still verifies.
    #[test]
    fn enveloped_payloads_survive_the_chunk_stream(
        inner in prop::collection::vec(0u8..=255, 0..3000),
        chunk_bytes in 1u64..800,
        kind_bit in 0u8..2,
    ) {
        let kind = if kind_bit == 1 { PayloadKind::Delta } else { PayloadKind::Full };
        let mut enveloped = wire::frame(kind, &inner);
        enveloped.extend_from_slice(&crc32(&inner).to_le_bytes());

        let fabric = fabric();
        let producer = fabric.register("p");
        let consumer = fabric.register("c");
        producer
            .send_chunked("c", "m:1", enveloped.clone(), LinkKind::HostRdma, &ChunkedSend::new(chunk_bytes))
            .expect("send");
        let mut asm = FlowAssembler::new();
        let mut done = None;
        for msg in drain(&consumer) {
            if let FlowStatus::Complete(flow) = asm.accept(msg) {
                done = Some(flow);
            }
        }
        let payload = done.expect("flow completes").payload;
        prop_assert_eq!(payload.to_vec(), enveloped);
        let (got_kind, body) = wire::unframe(&payload).expect("envelope intact");
        prop_assert_eq!(got_kind, kind);
        let (body, footer) = body.split_at(body.len() - 4);
        prop_assert_eq!(body, inner.as_slice());
        prop_assert_eq!(u32::from_le_bytes(footer.try_into().unwrap()), crc32(body));
    }

    /// Reassembly is copy-free exactly when it can be: for any payload,
    /// chunk geometry, arrival order and duplication, a flow whose bodies
    /// are all views of the sender's allocation is released as one view of
    /// that allocation (`bytes_copied == 0`), and a flow with any body
    /// re-framed from an allocation of its own (a real transport's receive
    /// buffer) is gathered exactly once — byte-identical either way, with
    /// the verified header CRCs handed on in index order.
    #[test]
    fn reassembly_joins_views_and_gathers_only_foreign_bodies(
        data in prop::collection::vec(0u8..=255, 0..6000),
        chunk_bytes in 1u64..1500,
        reframe_quarters in 0u32..4,
        mix_seed in 0u64..u64::MAX,
    ) {
        let fabric = fabric();
        let producer = fabric.register("p");
        let consumer = fabric.register("c");
        let sent = Payload::from(data.clone());
        producer
            .send_chunked("c", "m:1", sent.clone(), LinkKind::GpuDirect, &ChunkedSend::new(chunk_bytes))
            .expect("send");

        // Per chunk index: maybe re-frame the body from a copy (every
        // duplicate of that index too, each in its own allocation), and
        // deliver it one to three times.
        let mut rng = FaultRng::new(mix_seed);
        let mut arrivals = Vec::new();
        let mut any_reframed = false;
        let first_send = drain(&consumer);
        let num_chunks = first_send.len();
        for msg in first_send {
            let reframed = rng.chance(f64::from(reframe_quarters) / 4.0);
            any_reframed |= reframed;
            for _ in 0..=rng.below(3) {
                let mut copy = msg.clone();
                if reframed {
                    let head = *copy.payload.head().expect("chunk frames carry a head");
                    copy.payload = WireBuf::framed(head, Payload::from(copy.payload.body().to_vec()));
                }
                arrivals.push(copy);
            }
        }
        for i in (1..arrivals.len()).rev() {
            arrivals.swap(i, rng.below(i as u64 + 1) as usize);
        }

        let mut asm = FlowAssembler::new();
        let mut released = Vec::new();
        for msg in arrivals {
            match asm.accept(msg) {
                FlowStatus::Complete(flow) => released.push(flow),
                FlowStatus::Buffered => {}
                other => panic!("clean chunk misjudged: {other:?}"),
            }
        }
        prop_assert_eq!(released.len(), 1, "released exactly once");
        let flow = released.pop().expect("one flow");
        prop_assert_eq!(&flow.payload, &data);
        prop_assert_eq!(&*flow.chunk_crcs, &payload_chunk_crcs(&flow.payload, chunk_bytes));
        prop_assert!(
            std::sync::Arc::ptr_eq(&flow.crcs_for(chunk_bytes), &flow.chunk_crcs),
            "same geometry must hand the verified CRCs on"
        );
        // A lone body is the payload whatever allocation it sits in; only
        // a multi-chunk flow with a foreign body has anything to gather.
        let gathers = any_reframed && num_chunks > 1;
        prop_assert_eq!(asm.bytes_copied(), if gathers { data.len() as u64 } else { 0 });
        if !data.is_empty() {
            let aliases_sender = flow.payload.as_slice().as_ptr() == sent.as_slice().as_ptr();
            prop_assert_eq!(aliases_sender, !any_reframed);
        }
    }

    /// The body CRC a receiver derives from the chunk CRCs it verified is
    /// the CRC of those bytes, and so is its footer verdict — for any
    /// payload, chunk geometry (one chunk, and a last chunk shorter than
    /// the footer, included), arrival order, envelope (none, an odd 5
    /// bytes, or the 8 of the payload-kind envelope), and footer: right, wrong by one flipped byte, or absent.
    #[test]
    fn range_crc_from_chunk_crcs_equals_crc_of_the_bytes(
        data in prop::collection::vec(0u8..=255, 0..6000),
        chunk_bytes in 1u64..1500,
        geometry in 0usize..6,
        footed in 0u8..2,
        flip in 0usize..5,
        mix_seed in 0u64..u64::MAX,
    ) {
        let footed = footed == 1;
        for envelope in [0usize, 5, 8] {
            let mut payload = data.clone();
            if footed {
                let body_crc = crc32(&data[envelope.min(data.len())..]);
                payload.extend_from_slice(&body_crc.to_le_bytes());
            }
            let len = payload.len();
            if flip > 0 && len >= flip {
                payload[len - flip] ^= 0x20;
            }
            // 0: one chunk (`chunk_bytes` past the payload's end); 1-3: a
            // last chunk of that many bytes; otherwise the drawn size.
            let chunk_bytes = match geometry {
                0 => chunk_bytes + len as u64,
                short if short < 4 && len > short => (len - short) as u64,
                _ => chunk_bytes,
            };
            let fabric = fabric();
            let producer = fabric.register("p");
            let consumer = fabric.register("c");
            let opts = ChunkedSend::new(chunk_bytes);
            producer
                .send_chunked("c", "m:1", payload.clone(), LinkKind::GpuDirect, &opts)
                .expect("send");
            let mut arrivals = drain(&consumer);
            let mut rng = FaultRng::new(mix_seed);
            for i in (1..arrivals.len()).rev() {
                arrivals.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut asm = FlowAssembler::new();
            let mut done = None;
            for msg in arrivals {
                if let FlowStatus::Complete(flow) = asm.accept(msg) {
                    done = Some(flow);
                }
            }
            let flow = done.expect("flow completes");
            // What `apply_payload` checks: the envelope in front stripped,
            // the 4-byte footer behind.
            let start = envelope.min(len);
            let end = len.saturating_sub(4).max(start);
            let body_crc = flow.body_crc(envelope);
            prop_assert_eq!(body_crc, crc32(&payload[start..end]), "{} B in {} B chunks", len, chunk_bytes);
            if len >= envelope + 4 {
                let footer = u32::from_le_bytes(payload[len - 4..].try_into().unwrap());
                let right = crc32(&payload[envelope..len - 4]) == footer;
                prop_assert_eq!(body_crc == footer, right);
                prop_assert_eq!(right, footed && flip == 0);
            }
        }
    }
}

proptest! {
    /// No bytes make the chunk or control parser panic, and a frame the
    /// parser cannot read is refused, not guessed at: arbitrary bytes, a
    /// valid frame cut short, and a valid header claiming any geometry or
    /// count over any tail. A chunk header that does parse describes a body
    /// inside its flow, and a control frame that parses re-encodes to the
    /// very bytes it came from; its `Nack`/`Miss` bodies are sized by the
    /// bytes, never by the claimed count.
    #[test]
    fn hostile_framing_never_panics_or_over_allocates(
        bytes in prop::collection::vec(0u8..=255, 0..200),
        cut in 0usize..80,
        kind in 0u8..6,
        count in prop_oneof![0u32..8, Just(u32::MAX), 0u32..=u32::MAX],
        fields in prop::collection::vec(0u8..=255, 36..37),
        tail in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // Arbitrary bytes, and the same bytes behind either magic.
        let chunk_magic = [&CHUNK_MAGIC.to_le_bytes()[..], &bytes].concat();
        let control_magic = [&CONTROL_MAGIC.to_le_bytes()[..], &bytes].concat();
        for buf in [&bytes, &chunk_magic, &control_magic] {
            let parsed = ChunkHeader::decode_buf(&WireBuf::plain(buf.clone()));
            if let Some((header, body)) = &parsed {
                prop_assert!(header.chunk_index < header.num_chunks);
                prop_assert!(header.offset + body.len() as u64 <= header.total_bytes);
            } else {
                let status = FlowAssembler::new().accept(as_chunk(buf.clone()));
                prop_assert!(matches!(status, FlowStatus::Malformed), "{:?}", status);
            }
            if let Some(control) = bounded(buf.len(), || Control::decode(buf)) {
                prop_assert_eq!(&control.encode(), buf);
            }
        }
        // A valid chunk frame cut short: no header, no frame.
        let body = &bytes[..bytes.len() / 2];
        let frame = ChunkHeader::for_body(1, 0, 1, 0, body.len() as u64, body).frame(body);
        let short = frame[..cut.min(ChunkHeader::WIRE_SIZE - 1)].to_vec();
        prop_assert!(ChunkHeader::decode_buf(&WireBuf::plain(short.clone())).is_none());
        let status = FlowAssembler::new().accept(as_chunk(short));
        prop_assert!(matches!(status, FlowStatus::Malformed), "{:?}", status);
        // A chunk header with arbitrary fields over any body.
        let head = [&CHUNK_MAGIC.to_le_bytes()[..], &fields[..36]].concat();
        let framed = [&head[..], &tail].concat();
        if let Some((header, body)) = ChunkHeader::decode_buf(&WireBuf::plain(framed)) {
            prop_assert!(header.chunk_index < header.num_chunks);
            prop_assert!(header.offset + body.len() as u64 <= header.total_bytes);
        }
        // A control header with any kind and count over any tail, and every
        // prefix of a valid control frame.
        let mut control = CONTROL_MAGIC.to_le_bytes().to_vec();
        control.push(kind);
        control.extend_from_slice(&fields[..16]);
        control.extend_from_slice(&count.to_le_bytes());
        control.extend_from_slice(&tail);
        if let Some(decoded) = bounded(control.len(), || Control::decode(&control)) {
            prop_assert_eq!(decoded.encode(), control);
        }
        let missing = tail.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()));
        let nack = Control::Nack { flow_id: 7, generation: 2, missing: missing.collect() };
        let valid = nack.encode();
        let short = &valid[..cut.min(valid.len() - 1)];
        prop_assert_eq!(bounded(short.len(), || Control::decode(short)), None);
    }
}

/// A single-chunk flow is zero-copy end to end: the payload the assembler
/// releases aliases the sender's original allocation — no byte of the body
/// was copied anywhere between `send_chunked` and install.
#[test]
fn single_chunk_flow_aliases_the_senders_buffer() {
    let fabric = fabric();
    let producer = fabric.register("p");
    let consumer = fabric.register("c");
    let payload = Payload::from(vec![0xA5u8; 64 * 1024]);
    let sender_ptr = payload.as_slice().as_ptr();
    producer
        .send_chunked(
            "c",
            "m:1",
            payload.clone(),
            LinkKind::GpuDirect,
            &ChunkedSend::new(0), // monolithic: one chunk
        )
        .expect("send");
    let mut asm = FlowAssembler::new();
    let msg = consumer.try_recv().expect("one frame");
    let FlowStatus::Complete(flow) = asm.accept(msg) else {
        panic!("single-chunk flow must complete immediately");
    };
    assert_eq!(flow.payload.as_slice().as_ptr(), sender_ptr);
    assert_eq!(flow.payload, payload);
    assert_eq!(
        asm.bytes_copied(),
        0,
        "single-chunk reassembly is copy-free"
    );
}

/// Retransmit rounds stay valid after the producer drops its last strong
/// reference to the payload: every in-flight frame's body is a shared view
/// that keeps the serialized buffer alive, so a flow completed from a mix
/// of first-round and retransmitted chunks is still byte-identical — even
/// under the fault matrix dropping frames on the first pass.
#[test]
fn retransmits_outlive_the_producers_payload_reference() {
    let fabric = fabric();
    // Drop ~30% of data frames; retransmissions run the same gauntlet.
    fabric.set_fault_plan(Some(FaultPlan::seeded(7).with_drop(0.3)));
    let producer = fabric.register("p");
    let consumer = fabric.register("c");

    let data: Vec<u8> = (0..256 * 1024).map(|i| (i * 31 + 7) as u8).collect();
    let payload = Payload::from(data.clone());
    assert_eq!(payload.ref_count(), 1);
    let chunk_bytes = 16 * 1024u64;
    let num_chunks = chunk_sizes(data.len() as u64, chunk_bytes).len() as u32;

    let report = producer
        .send_chunked(
            "c",
            "m:1",
            payload.clone(),
            LinkKind::GpuDirect,
            &ChunkedSend::new(chunk_bytes),
        )
        .expect("send");

    // NACK-driven rounds: collect delivered frames (each holds a shared
    // body view), retransmit whatever the faults ate, repeat until every
    // chunk index has arrived at least once.
    let mut delivered: Vec<Message> = Vec::new();
    let mut have = vec![false; num_chunks as usize];
    let mut lane_free = report.completed_at;
    for _round in 0..64 {
        for msg in drain(&consumer) {
            let (header, _body) = ChunkHeader::decode_buf(&msg.payload).expect("clean frame");
            have[header.chunk_index as usize] = true;
            delivered.push(msg);
        }
        let missing: Vec<u32> = (0..num_chunks).filter(|&i| !have[i as usize]).collect();
        if missing.is_empty() {
            break;
        }
        lane_free = producer
            .retransmit_chunks_at(
                "c",
                "m:1",
                &payload,
                LinkKind::GpuDirect,
                report.flow_id,
                chunk_bytes,
                &missing,
                None,
                lane_free,
            )
            .expect("retransmit");
    }
    assert!(have.iter().all(|&h| h), "fault stream never converged");

    // The delivered frames share the payload's buffer...
    assert!(payload.ref_count() > 1, "in-flight frames must hold views");
    // ...and keep it alive after the producer lets go of its handle.
    drop(payload);
    let mut asm = FlowAssembler::new();
    let mut done = None;
    for msg in delivered {
        if let FlowStatus::Complete(flow) = asm.accept(msg) {
            done = Some(flow);
        }
    }
    let flow = done.expect("flow completes from retained views");
    assert_eq!(flow.payload, data, "reassembly must be byte-identical");
    assert_eq!(
        flow.payload.to_vec(),
        data,
        "bodies stayed valid after the producer dropped its reference"
    );
}
