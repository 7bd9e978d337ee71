//! Wire-identity and payload-lifetime tests for the zero-copy chunk path.
//!
//! The zero-copy framing (`WireBuf` head + `Payload` body subslices) must
//! put byte-for-byte the same logical frames on the wire as the old
//! copying path (`ChunkHeader::frame`, which memcpy'd every body behind
//! its header) — for arbitrary payload sizes and chunk geometries, and for
//! payload-kind-enveloped bodies with CRC footers. And because chunk
//! bodies are shared views of the sender's buffer rather than owned
//! copies, the buffer must stay valid through retransmit rounds even
//! after the producer drops its last strong reference.

use proptest::prelude::*;
use viper_formats::{crc32, wire, PayloadKind};
use viper_hw::{MachineProfile, SimClock};
use viper_net::{
    chunk_sizes, payload_chunk_crcs, ChunkHeader, ChunkedSend, Fabric, FaultPlan, FaultRng,
    FlowAssembler, FlowStatus, LinkKind, Message, Payload, WireBuf,
};

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

    /// The range CRC a receiver derives from the chunk CRCs it verified is
    /// the CRC of those bytes — for any payload, chunk geometry (a last
    /// chunk shorter than a CRC footer included), arrival order and range:
    /// empty, inside one chunk, cutting chunks on both edges, and the
    /// envelope-to-footer strip the consumer asks for, whose 4-byte footer
    /// may straddle the last chunk boundary.
    #[test]
    fn range_crc_from_chunk_crcs_equals_crc_of_the_bytes(
        data in prop::collection::vec(0u8..=255, 0..6000),
        chunk_bytes in 1u64..1500,
        short_tail in 0usize..4,
        cuts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 1..6),
        mix_seed in 0u64..u64::MAX,
    ) {
        // Steer some cases to a last chunk of 1-3 bytes.
        let mut data = data;
        if short_tail > 0 {
            let whole = data.len() / chunk_bytes as usize * chunk_bytes as usize;
            data.resize(whole + short_tail, 0x5A);
        }
        let fabric = fabric();
        let producer = fabric.register("p");
        let consumer = fabric.register("c");
        producer
            .send_chunked("c", "m:1", data.clone(), LinkKind::GpuDirect, &ChunkedSend::new(chunk_bytes))
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
        let len = data.len();
        let mut ranges = vec![0..len, 0..0, len..len, len / 2..len / 2];
        // What `apply_payload` strips: 5 envelope bytes (or none) in front,
        // the 4-byte footer behind.
        for envelope in [0, 5] {
            let end = len.saturating_sub(4).max(envelope.min(len));
            ranges.push(envelope.min(len)..end);
        }
        for (a, b) in cuts {
            let (a, b) = ((a * len as f64) as usize, (b * len as f64) as usize);
            ranges.push(a.min(b)..a.max(b));
            // A short range, usually inside one chunk.
            ranges.push(a..(a + 3).min(len));
        }
        for range in ranges {
            prop_assert_eq!(
                flow.crc_of(range.clone()),
                crc32(&data[range.clone()]),
                "range {:?} of {} bytes in {}-byte chunks", range, len, chunk_bytes
            );
        }
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
