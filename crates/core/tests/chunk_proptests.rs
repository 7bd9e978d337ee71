//! Property tests for the chunked transfer path: framing round-trips for
//! arbitrary payload/chunk geometries, and the flow assembler reconstructs
//! byte-identical payloads under arbitrary interleavings, duplicates, and
//! concurrent flows.

use proptest::prelude::*;
use std::time::Duration;
use viper_hw::SimInstant;
use viper_net::{
    chunk_sizes, ChunkHeader, FlowAssembler, FlowStatus, LinkKind, Message, MessageKind, WireBuf,
};

/// Wrap a payload in a fabric message, the shape the assembler sees.
fn msg(from: &str, payload: Vec<u8>, kind: MessageKind) -> Message {
    let t = SimInstant::ZERO;
    Message {
        from: from.into(),
        to: "c".into(),
        tag: "m".into(),
        payload: WireBuf::plain(payload),
        kind,
        link: LinkKind::GpuDirect,
        sent_at: t,
        arrived_at: t,
        wire_time: Duration::ZERO,
    }
}

/// Split a payload into framed chunk messages for one flow.
fn frame_flow(flow_id: u64, payload: &[u8], chunk_bytes: u64) -> Vec<Vec<u8>> {
    let sizes = chunk_sizes(payload.len() as u64, chunk_bytes);
    let num_chunks = sizes.len() as u32;
    let mut offset = 0u64;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let body = &payload[offset as usize..(offset + len) as usize];
            let header = ChunkHeader::for_body(
                flow_id,
                i as u32,
                num_chunks,
                offset,
                payload.len() as u64,
                body,
            );
            offset += len;
            header.frame(body)
        })
        .collect()
}

proptest! {
    /// Chunk geometry always covers the payload exactly, in order, with
    /// every chunk non-empty (except the single chunk of an empty payload)
    /// and no chunk above the requested size.
    #[test]
    fn chunk_sizes_partition_the_payload(bytes in 0u64..100_000, chunk in 0u64..10_000) {
        let sizes = chunk_sizes(bytes, chunk);
        prop_assert!(!sizes.is_empty());
        prop_assert_eq!(sizes.iter().sum::<u64>(), bytes);
        if chunk > 0 {
            for &s in &sizes {
                prop_assert!(s <= chunk);
            }
        } else {
            prop_assert_eq!(sizes.len(), 1);
        }
    }

    /// Framing round-trips: decode(frame(body)) recovers the header and the
    /// body for arbitrary chunk geometries, and the carried CRC matches the
    /// body bytes.
    #[test]
    fn framing_roundtrips(
        payload in prop::collection::vec(0u8..=255, 0..4096),
        chunk in 1u64..2048,
        flow_id in 0u64..u64::MAX,
    ) {
        let frames = frame_flow(flow_id, &payload, chunk);
        let mut rebuilt = vec![0u8; payload.len()];
        for (i, frame) in frames.iter().enumerate() {
            let (header, body) = ChunkHeader::decode(frame).expect("framed chunk decodes");
            prop_assert_eq!(header.flow_id, flow_id);
            prop_assert_eq!(header.chunk_index as usize, i);
            prop_assert_eq!(header.num_chunks as usize, frames.len());
            prop_assert_eq!(header.total_bytes as usize, payload.len());
            prop_assert_eq!(header.crc32, viper_formats::crc32(body));
            rebuilt[header.offset as usize..header.offset as usize + body.len()]
                .copy_from_slice(body);
        }
        prop_assert_eq!(rebuilt, payload);
    }

    /// A control frame always passes through the assembler untouched —
    /// even when its payload is byte-for-byte valid chunk framing. Chunk
    /// handling keys on `MessageKind`, never on payload sniffing, so a
    /// control frame can never be swallowed as a phantom chunk.
    #[test]
    fn adversarial_data_payloads_always_pass_through(
        body in prop::collection::vec(0u8..=255, 0..2048),
        flow_id in 0u64..u64::MAX,
    ) {
        let framed = ChunkHeader::for_body(
            flow_id, 0, 2, 0, 2 * body.len().max(1) as u64, &body,
        ).frame(&body);
        prop_assert!(ChunkHeader::decode(&framed).is_some(), "premise: frames as a chunk");
        let mut asm = FlowAssembler::new();
        match asm.accept(msg("p", framed.clone(), MessageKind::Control)) {
            FlowStatus::Passthrough(m) => prop_assert_eq!(m.payload.to_vec(), framed),
            other => prop_assert!(false, "expected passthrough, got {:?}", std::mem::discriminant(&other)),
        }
        prop_assert_eq!(asm.in_progress(), 0);
    }

    /// Short or unframed payloads can never decode as chunks, and as
    /// control frames they pass through the assembler untouched.
    #[test]
    fn short_or_unframed_payloads_pass_through(payload in prop::collection::vec(0u8..=255, 0..39)) {
        // Shorter than a header: can never decode as a chunk.
        prop_assert!(ChunkHeader::decode(&payload).is_none());
        let mut asm = FlowAssembler::new();
        match asm.accept(msg("p", payload.clone(), MessageKind::Control)) {
            FlowStatus::Passthrough(m) => prop_assert_eq!(m.payload.to_vec(), payload),
            other => prop_assert!(false, "expected passthrough, got {:?}", std::mem::discriminant(&other)),
        }
    }

    /// The assembler reconstructs byte-identical payloads for concurrent
    /// flows (distinct flow ids and distinct senders) under an arbitrary
    /// interleaving with duplicated chunks. Each flow completes exactly once.
    #[test]
    fn assembler_reassembles_under_arbitrary_interleaving(
        lens in prop::collection::vec(0usize..3000, 1..4),
        chunk in 1u64..512,
        order_seed in 0u64..u64::MAX,
        dup_stride in 1usize..5,
    ) {
        // Flow i from sender "p{i % 2}": same sender with distinct flow ids
        // and distinct senders with colliding flow ids both stay separate.
        let payloads: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 37 + j * 13 + 7) as u8).collect())
            .collect();
        let mut stream: Vec<(String, u64, Vec<u8>)> = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let from = format!("p{}", i % 2);
            for frame in frame_flow((i / 2) as u64, payload, chunk) {
                stream.push((from.clone(), i as u64, frame));
            }
        }
        // Duplicate every dup_stride-th message (retransmission model).
        let dups: Vec<_> =
            stream.iter().step_by(dup_stride).cloned().collect();
        stream.extend(dups);
        // Fisher–Yates with a deterministic LCG for the arrival order.
        let mut seed = order_seed;
        for i in (1..stream.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            stream.swap(i, (seed >> 33) as usize % (i + 1));
        }

        let mut asm = FlowAssembler::new();
        let mut completed: Vec<Option<Vec<u8>>> = vec![None; payloads.len()];
        for (from, flow_tag, frame) in stream {
            match asm.accept(msg(&from, frame, MessageKind::Chunk)) {
                FlowStatus::Buffered => {}
                FlowStatus::Complete(flow) => {
                    let i = flow_tag as usize;
                    prop_assert!(completed[i].is_none(), "flow {} completed twice", i);
                    prop_assert_eq!(&flow.from, &from);
                    completed[i] = Some(flow.payload.to_vec());
                }
                other => prop_assert!(
                    false,
                    "clean chunk misparsed: {:?}",
                    std::mem::discriminant(&other)
                ),
            }
        }
        for (i, payload) in payloads.iter().enumerate() {
            prop_assert_eq!(
                completed[i].as_ref(),
                Some(payload),
                "flow {} not byte-identical", i
            );
        }
    }
}
