//! Property tests for the decoders as a trust boundary: `decode_verified`
//! agrees with the self-verifying `decode`, and no input — mutated,
//! truncated, or crafted and then sealed with a *valid* CRC, which is what
//! a hostile sender can always produce — makes `ViperFormat::decode`,
//! `DeltaCheckpoint::decode`, their `decode_verified`, `H5Lite::decode` or
//! `wire::unframe` panic or allocate beyond a small multiple of the bytes
//! it was handed.
//!
//! `decode_verified` takes a shared [`Payload`] and returns tensors that
//! view it wherever a tensor payload's address is 4-aligned, copies
//! elsewhere: both outcomes are decoded here, by placing the same bytes at
//! every offset mod 4 of their allocation, and must equal each other and
//! the two-pass oracle.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use viper_formats::{
    crc32, delta, wire, Checkpoint, CheckpointFormat, DeltaCheckpoint, FormatError, H5Lite,
    Payload, PayloadKind, ViperFormat,
};
use viper_tensor::Tensor;

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

/// Run `f`, asserting no single allocation inside it exceeds a small
/// multiple of `input_len` (names and `Vec<(String, Tensor)>` slots are
/// larger than their wire records, hence the factor and the floor).
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

fn arb_tensor() -> impl Strategy<Value = Tensor> {
    (
        0usize..4,
        1usize..5,
        prop::collection::vec((0u32..=u32::MAX).prop_map(f32::from_bits), 0..16),
    )
        .prop_map(|(a, b, mut data)| {
            data.resize(a * b, f32::from_bits(0x8000_0000));
            Tensor::from_vec(data, &[a, b]).unwrap()
        })
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        "[a-z]{0,12}",
        0u64..1_000_000,
        prop::collection::vec(arb_tensor(), 0..6),
    )
        .prop_map(|(name, iter, tensors)| {
            let tensors = tensors.into_iter().enumerate();
            Checkpoint::new(
                name,
                iter,
                tensors.map(|(i, t)| (format!("t/{i}"), t)).collect(),
            )
        })
}

/// A full encoding and a delta encoding of the same arbitrary model, as
/// shared payloads.
fn arb_encodings() -> impl Strategy<Value = (Payload, Payload)> {
    (arb_checkpoint(), prop::collection::vec(0u8..2, 6..7)).prop_map(|(base, touch)| {
        let mut new = base.clone();
        new.iteration += 1;
        for ((_, t), touched) in new.tensors.iter_mut().zip(touch) {
            if touched == 1 {
                *t = Tensor::full(t.dims(), 0.75);
            }
        }
        let d = delta::diff(&base, &new).unwrap();
        (ViperFormat.encode(&new).into(), d.encode().into())
    })
}

/// Damage `bytes`: XOR some positions, optionally re-seal the body with a
/// correct CRC footer (so the damage reaches the parser), optionally cut.
fn damage(bytes: &[u8], edits: &[(f64, u8)], reseal: bool, keep: f64) -> Payload {
    let mut bytes = bytes.to_vec();
    for &(at, mask) in edits {
        if !bytes.is_empty() {
            let at = (at * bytes.len() as f64) as usize;
            bytes[at] ^= mask;
        }
    }
    if reseal && bytes.len() >= 4 {
        bytes.truncate(bytes.len() - 4);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
    }
    bytes.truncate((keep * bytes.len() as f64) as usize);
    bytes.into()
}

/// `bytes` as a payload that starts `lead` bytes into its allocation (heap
/// buffers are at least 4-aligned, so `lead % 4` is the payload's offset
/// from a 4-byte boundary).
fn shared_at(bytes: &[u8], lead: usize) -> Payload {
    let mut buf = vec![0xA5; lead];
    buf.extend_from_slice(bytes);
    Payload::from(buf).slice(lead..)
}

/// Whether each of `tensors` is a view of the bytes it was decoded from
/// exactly when `aligned`.
fn viewed_iff<'a>(mut tensors: impl Iterator<Item = &'a Tensor>, aligned: bool) -> bool {
    tensors.all(|t| t.is_shared() == aligned)
}

/// The CRC a chunk-verified receiver would hand `decode_verified`.
fn body_crc(bytes: &[u8]) -> u32 {
    crc32(&bytes[..bytes.len().saturating_sub(4)])
}

/// `bytes` as a payload of their own.
fn p(bytes: &[u8]) -> Payload {
    bytes.into()
}

/// Decoded values compared by re-encoding, so NaN payloads compare equal.
fn full(r: Result<Checkpoint, FormatError>) -> Result<Vec<u8>, FormatError> {
    r.map(|c| ViperFormat.encode(&c))
}

fn dlt(r: Result<DeltaCheckpoint, FormatError>) -> Result<Vec<u8>, FormatError> {
    r.map(|d| d.encode())
}

proptest! {
    #[test]
    fn decode_verified_equals_decode_on_fulls_and_deltas(enc in arb_encodings()) {
        let (f, d) = enc;
        let got = full(ViperFormat.decode_verified(&f, body_crc(&f)));
        prop_assert_eq!(got.as_deref(), Ok(&f[..]));
        prop_assert_eq!(got, full(ViperFormat.decode(&f)));
        let got = dlt(DeltaCheckpoint::decode_verified(&d, body_crc(&d)));
        prop_assert_eq!(got.as_deref(), Ok(&d[..]));
        prop_assert_eq!(got, dlt(DeltaCheckpoint::decode(&d)));
    }

    /// Whatever happened to the bytes, both entry points return the same
    /// verdict when the hint is honest, never panic, never over-allocate.
    #[test]
    fn damaged_input_never_panics_or_over_allocates(
        enc in arb_encodings(),
        edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 0..4),
        reseal in 0u8..2,
        keep in prop_oneof![Just(1.0), 0.0f64..1.0],
    ) {
        let f = damage(&enc.0, &edits, reseal == 1, keep);
        let d = damage(&enc.1, &edits, reseal == 1, keep);
        let self_verified = bounded(f.len(), || full(ViperFormat.decode(&f)));
        let hinted = bounded(f.len(), || full(ViperFormat.decode_verified(&f, body_crc(&f))));
        prop_assert_eq!(&self_verified, &hinted);
        let self_verified = bounded(d.len(), || dlt(DeltaCheckpoint::decode(&d)));
        let hinted = bounded(d.len(), || dlt(DeltaCheckpoint::decode_verified(&d, body_crc(&d))));
        prop_assert_eq!(&self_verified, &hinted);
        // Each layout handed to the other decoder, and to the envelope.
        bounded(d.len(), || ViperFormat.decode(&d).is_ok());
        bounded(f.len(), || DeltaCheckpoint::decode(&f).is_ok());
        bounded(d.len(), || ViperFormat.decode_verified(&d, body_crc(&d)).is_ok());
        bounded(f.len(), || DeltaCheckpoint::decode_verified(&f, body_crc(&f)).is_ok());
        bounded(f.len(), || wire::unframe(&f).is_ok());
        bounded(f.len(), || H5Lite.decode(&f).is_ok());
    }

    /// The h5py-style baseline under the same harness: whatever happened
    /// to its bytes, no panic and no over-allocation, and undamaged bytes
    /// decode to what was encoded.
    #[test]
    fn damaged_h5lite_never_panics_or_over_allocates(
        model in arb_checkpoint(),
        edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 0..4),
        reseal in 0u8..2,
        keep in prop_oneof![Just(1.0), 0.0f64..1.0],
    ) {
        let h = H5Lite.encode(&model);
        prop_assert_eq!(full(H5Lite.decode(&h)), Ok(ViperFormat.encode(&model)));
        let h = damage(&h, &edits, reseal == 1, keep);
        bounded(h.len(), || H5Lite.decode(&h).is_ok());
    }

    /// Whether a tensor becomes a view or a copy changes nothing else: over
    /// damaged and undamaged bytes, behind arbitrary envelope lengths, at
    /// every offset mod 4 of the allocation, `decode_verified` of a
    /// chunk-verified body — a view decode where the body is 4-aligned, a
    /// copy decode elsewhere — and the two-pass oracle (the body's CRC, then
    /// the self-verifying copying `decode`) agree, error for error.
    #[test]
    fn view_decode_equals_copy_decode_equals_the_two_pass_oracle(
        enc in arb_encodings(),
        edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 0..3),
        reseal in 0u8..2,
        keep in prop_oneof![Just(1.0), 0.0f64..1.0],
        envelope in prop::collection::vec(0u8..=255, 0..13),
    ) {
        let damaged = |body: &Payload| damage(body, &edits, reseal == 1, keep);
        for (kind, body) in [(PayloadKind::Full, damaged(&enc.0)), (PayloadKind::Delta, damaged(&enc.1))] {
            let skip = envelope.len();
            let mut bytes = envelope.clone();
            bytes.extend_from_slice(&body);
            let oracle = match kind {
                PayloadKind::Full => full(ViperFormat.decode(&body)),
                PayloadKind::Delta => dlt(DeltaCheckpoint::decode(&body)),
            };
            let mut shared = [false; 4];
            for lead in 0..8 {
                let wire = shared_at(&bytes, lead);
                let body = wire.slice(skip..);
                let crc = body_crc(&body);
                // Views exactly where the body starts 4-aligned.
                let aligned = body.as_ptr().align_offset(4) == 0;
                let got = match kind {
                    PayloadKind::Full => {
                        let got = ViperFormat.decode_verified(&body, crc);
                        if let Ok(c) = &got {
                            prop_assert!(viewed_iff(c.tensors.iter().map(|(_, t)| t), aligned));
                        }
                        full(got)
                    }
                    PayloadKind::Delta => {
                        let got = DeltaCheckpoint::decode_verified(&body, crc);
                        if let Ok(d) = &got {
                            prop_assert!(viewed_iff(d.changed.iter().map(|(_, t)| t), aligned));
                        }
                        dlt(got)
                    }
                };
                prop_assert_eq!(&got, &oracle, "lead {}", lead);
                shared[lead % 4] = aligned;
            }
            prop_assert_eq!(shared.iter().filter(|&&a| a).count(), 1);
        }
    }

    /// A valid header followed by arbitrary bytes under a valid CRC: every
    /// count, length, rank and dim the parser meets is attacker-chosen.
    #[test]
    fn arbitrary_checksummed_bodies_never_panic_or_over_allocate(
        delta_layout in 0u8..2,
        name in "[a-z]{0,4}",
        tail in prop::collection::vec(
            prop_oneof![Just(0u8), Just(1), Just(2), Just(0x80), Just(0xFF), 0u8..=255],
            0..96,
        ),
        envelope in prop::collection::vec(0u8..=255, 0..8),
    ) {
        let mut body = if delta_layout == 1 { b"VIPD".to_vec() } else { b"VIPR".to_vec() };
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
        body.extend_from_slice(&tail);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let shared = Payload::from(body.clone());
        let crc = body_crc(&body);
        let [verdict, viewed] = if delta_layout == 1 {
            [
                bounded(body.len(), || DeltaCheckpoint::decode(&body).err()),
                bounded(body.len(), || DeltaCheckpoint::decode_verified(&shared, crc).err()),
            ]
        } else {
            [
                bounded(body.len(), || ViperFormat.decode(&body).err()),
                bounded(body.len(), || ViperFormat.decode_verified(&shared, crc).err()),
            ]
        };
        // The CRC is right, so whatever is wrong is not the checksum.
        let is_mismatch = matches!(verdict, Some(FormatError::ChecksumMismatch { .. }));
        prop_assert!(!is_mismatch);
        prop_assert_eq!(verdict, viewed);
        bounded(body.len(), || H5Lite.decode(&body).is_ok());
        bounded(envelope.len(), || wire::unframe(&envelope).is_ok());
        let framed = wire::frame(viper_formats::PayloadKind::Delta, &envelope);
        prop_assert_eq!(wire::unframe(&framed).map(|(_, b)| b), Ok(&envelope[..]));
    }
}

proptest! {
    /// One tensor record whose pad — the 0-3 bytes a name of any length
    /// leaves before the payload — holds arbitrary bytes or is cut short,
    /// sealed with a valid CRC: a nonzero pad byte is `Corrupt`, a cut one
    /// `Truncated`, from the copy decode and the view decodes alike, with
    /// no panic and no over-allocation.
    #[test]
    fn nonzero_or_truncated_pads_are_rejected_without_panic_or_over_allocation(
        delta_layout in 0u8..2,
        name in "[a-z]{0,7}",
        pad_bytes in prop::collection::vec(prop_oneof![Just(0u8), 0u8..=255], 3..4),
        cut in 0usize..4,
    ) {
        let mut body = if delta_layout == 1 { b"VIPD".to_vec() } else { b"VIPR".to_vec() };
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'm');
        body.extend_from_slice(&7u64.to_le_bytes());
        if delta_layout == 1 {
            body.extend_from_slice(&8u64.to_le_bytes());
        }
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        let pad = &pad_bytes[..body.len().wrapping_neg() % 4];
        let want = if cut < pad.len() {
            body.extend_from_slice(&pad[..cut]);
            Some(FormatError::Truncated { context: "tensor pad" })
        } else {
            body.extend_from_slice(pad);
            body.extend_from_slice(&[0; 8]);
            if delta_layout == 1 {
                body.extend_from_slice(&0u32.to_le_bytes());
            }
            pad.iter().any(|&b| b != 0).then(|| FormatError::Corrupt(format!("tensor {name}: nonzero pad")))
        };
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let shared = p(&body);
        let verdicts = if delta_layout == 1 {
            [
                bounded(body.len(), || DeltaCheckpoint::decode(&body).err()),
                bounded(body.len(), || DeltaCheckpoint::decode_verified(&shared, crc).err()),
            ]
        } else {
            [
                bounded(body.len(), || ViperFormat.decode(&body).err()),
                bounded(body.len(), || ViperFormat.decode_verified(&shared, crc).err()),
            ]
        };
        for verdict in verdicts {
            prop_assert_eq!(&verdict, &want);
        }
    }
}
