//! Property tests for the decoders as a trust boundary: `decode_verified`
//! and an opened `decode_spanned` agree with the self-verifying `decode`,
//! and no input — mutated, truncated, or crafted and then sealed with a
//! *valid* CRC, which is what a hostile sender can always produce — makes
//! `ViperFormat::decode`, `DeltaCheckpoint::decode`, their `decode_spanned`
//! (which parses before *any* verdict), `H5Lite::decode` or `wire::unframe`
//! panic or allocate beyond a small multiple of the bytes it was handed.
//!
//! `decode_verified` and `decode_spanned` take a shared [`Payload`] and
//! return tensors that view it wherever a tensor payload's address is
//! 4-aligned, copies elsewhere: both outcomes are decoded here, by placing
//! the same bytes at every offset mod 4 of their allocation, and must equal
//! each other and the two-pass oracle.

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

/// What a per-chunk verify of `bytes` computes: the CRC of each
/// `chunk`-byte run, of `bytes` whole when `chunk` is 0
/// (`viper_net::payload_chunk_crcs`, restated here because this crate sits
/// below the transport). Never empty.
fn chunk_crcs(bytes: &[u8], chunk: u64) -> Vec<u32> {
    if bytes.is_empty() || chunk == 0 {
        return vec![crc32(bytes)];
    }
    bytes.chunks(chunk as usize).map(crc32).collect()
}

/// `body` as it travels: behind the 8-byte payload-kind envelope of a delta
/// deployment, or bare. Returns the wire bytes and the envelope length.
fn on_the_wire(kind: PayloadKind, body: &[u8], enveloped: bool) -> (Vec<u8>, usize) {
    match enveloped {
        true => (wire::frame(kind, body), wire::WIRE_HEADER_BYTES),
        false => (body.to_vec(), 0),
    }
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
        chunk in 1u64..200,
    ) {
        let f = damage(&enc.0, &edits, reseal == 1, keep);
        let d = damage(&enc.1, &edits, reseal == 1, keep);
        let self_verified = bounded(f.len(), || full(ViperFormat.decode(&f)));
        let hinted = bounded(f.len(), || full(ViperFormat.decode_verified(&f, body_crc(&f))));
        prop_assert_eq!(&self_verified, &hinted);
        // The spanned decode meets these bytes before any CRC was compared.
        let (crcs, sealed) = bounded(f.len(), || ViperFormat.decode_spanned(&f, 0, chunk));
        prop_assert_eq!(crcs, chunk_crcs(&f, chunk));
        prop_assert_eq!(full(sealed.open(body_crc(&f))), hinted);
        let self_verified = bounded(d.len(), || dlt(DeltaCheckpoint::decode(&d)));
        let hinted = bounded(d.len(), || dlt(DeltaCheckpoint::decode_verified(&d, body_crc(&d))));
        prop_assert_eq!(&self_verified, &hinted);
        let (crcs, sealed) = bounded(d.len(), || DeltaCheckpoint::decode_spanned(&d, 0, chunk));
        prop_assert_eq!(crcs, chunk_crcs(&d, chunk));
        prop_assert_eq!(dlt(sealed.open(body_crc(&d))), hinted);
        // Each layout handed to the other decoder, and to the envelope.
        bounded(d.len(), || ViperFormat.decode(&d).is_ok());
        bounded(f.len(), || DeltaCheckpoint::decode(&f).is_ok());
        bounded(d.len(), || ViperFormat.decode_spanned(&d, 0, chunk).1.open(0).is_ok());
        bounded(f.len(), || DeltaCheckpoint::decode_spanned(&f, 8, chunk).1.open(0).is_ok());
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
    /// every offset mod 4 of the allocation, the view decode, the copy
    /// decode and the two-pass oracle (every chunk's CRC, then the
    /// self-verifying copying `decode` of the body) agree, error for error.
    #[test]
    fn view_decode_equals_copy_decode_equals_the_two_pass_oracle(
        enc in arb_encodings(),
        edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 0..3),
        reseal in 0u8..2,
        keep in prop_oneof![Just(1.0), 0.0f64..1.0],
        envelope in prop::collection::vec(0u8..=255, 0..13),
        chunk in prop_oneof![1u64..64, Just(0u64)],
    ) {
        let damaged = |body: &Payload| damage(body, &edits, reseal == 1, keep);
        for (kind, body) in [(PayloadKind::Full, damaged(&enc.0)), (PayloadKind::Delta, damaged(&enc.1))] {
            let skip = envelope.len();
            let mut bytes = envelope.clone();
            bytes.extend_from_slice(&body);
            let oracle_crcs = chunk_crcs(&bytes, chunk);
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
                let (crcs, opened) = match kind {
                    PayloadKind::Full => {
                        let (crcs, sealed) = ViperFormat.decode_spanned(&wire, skip, chunk);
                        let opened = [sealed.open(crc), ViperFormat.decode_verified(&body, crc)];
                        for c in opened.iter().flatten() {
                            prop_assert!(viewed_iff(c.tensors.iter().map(|(_, t)| t), aligned));
                        }
                        (crcs, opened.map(full))
                    }
                    PayloadKind::Delta => {
                        let (crcs, sealed) = DeltaCheckpoint::decode_spanned(&wire, skip, chunk);
                        let opened = [sealed.open(crc), DeltaCheckpoint::decode_verified(&body, crc)];
                        for d in opened.iter().flatten() {
                            prop_assert!(viewed_iff(d.changed.iter().map(|(_, t)| t), aligned));
                        }
                        (crcs, opened.map(dlt))
                    }
                };
                prop_assert_eq!(&crcs, &oracle_crcs, "lead {}", lead);
                for got in opened {
                    prop_assert_eq!(&got, &oracle, "lead {}", lead);
                }
                shared[lead % 4] = aligned;
            }
            prop_assert_eq!(shared.iter().filter(|&&a| a).count(), 1);
        }
    }

    /// One pass, both halves of a chunked receive: exactly the CRCs a
    /// per-chunk verify computes — for every chunk size from one byte up,
    /// so boundaries fall inside names, dims, payloads and the footer — and,
    /// opened with the body's CRC, exactly what `decode` returns; with and
    /// without the envelope in front, fulls and deltas.
    #[test]
    fn spanned_decode_is_the_per_chunk_crcs_plus_decode(
        enc in arb_encodings(),
        enveloped in 0u8..2,
        chunk in prop_oneof![1u64..64, 1u64..2000, Just(0u64)],
    ) {
        let (f, skip) = on_the_wire(PayloadKind::Full, &enc.0, enveloped == 1);
        let (crcs, sealed) = ViperFormat.decode_spanned(&p(&f), skip, chunk);
        prop_assert_eq!(crcs, chunk_crcs(&f, chunk));
        let got = full(sealed.open(body_crc(&enc.0)));
        prop_assert_eq!(got.as_deref(), Ok(&enc.0[..]));
        prop_assert_eq!(got, full(ViperFormat.decode(&enc.0)));

        let (d, skip) = on_the_wire(PayloadKind::Delta, &enc.1, enveloped == 1);
        let (crcs, sealed) = DeltaCheckpoint::decode_spanned(&p(&d), skip, chunk);
        prop_assert_eq!(crcs, chunk_crcs(&d, chunk));
        let got = dlt(sealed.open(body_crc(&enc.1)));
        prop_assert_eq!(got.as_deref(), Ok(&enc.1[..]));
        prop_assert_eq!(got, dlt(DeltaCheckpoint::decode(&enc.1)));
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
                bounded(body.len(), || {
                    DeltaCheckpoint::decode_spanned(&shared, 0, 5).1.open(crc).err()
                }),
            ]
        } else {
            [
                bounded(body.len(), || ViperFormat.decode(&body).err()),
                bounded(body.len(), || ViperFormat.decode_verified(&shared, crc).err()),
                bounded(body.len(), || ViperFormat.decode_spanned(&shared, 0, 5).1.open(crc).err()),
            ]
        };
        for verdict in verdicts {
            prop_assert_eq!(&verdict, &want);
        }
    }
}

/// A small model whose encodings the exhaustive tests below can afford to
/// damage byte by byte.
fn small_encodings() -> (Payload, Payload) {
    let tensor = |v: f32| Tensor::from_vec(vec![v, -v, 0.5], &[3]).unwrap();
    let named = |v| {
        vec![
            ("head/kernel".into(), tensor(v)),
            ("bias".into(), tensor(1.0)),
        ]
    };
    let base = Checkpoint::new("m", 4, named(2.0));
    let new = Checkpoint::new("m", 5, named(3.0));
    let d = delta::diff(&base, &new).unwrap();
    (ViperFormat.encode(&new).into(), d.encode().into())
}

/// The sealed parse opens only against the CRC of the body it was parsed
/// from: any other CRC, or a stored footer that disagrees with the right
/// one, is a `ChecksumMismatch` naming both — exactly `decode_verified`'s.
#[test]
fn spanned_decode_opens_only_against_the_right_crc() {
    let (f, d) = small_encodings();
    for enveloped in [false, true] {
        for chunk in [0u64, 1, 7, 64] {
            let (wire, skip) = on_the_wire(PayloadKind::Full, &f, enveloped);
            let right = body_crc(&f);
            let stored = u32::from_le_bytes(f[f.len() - 4..].try_into().unwrap());
            let sealed = ViperFormat.decode_spanned(&p(&wire), skip, chunk).1;
            let mismatch = Err(FormatError::ChecksumMismatch {
                stored,
                computed: right ^ 1,
            });
            assert_eq!(sealed.open(right ^ 1).map(drop), mismatch);
            assert_eq!(
                ViperFormat.decode_verified(&f, right ^ 1).map(drop),
                mismatch
            );
            // A flipped footer: the chunks all still verify (their CRCs are
            // of the bytes that arrived), the body's CRC is still `right`,
            // and the parse must stay unreachable.
            let mut bad = wire.clone();
            *bad.last_mut().unwrap() ^= 0x40;
            let (crcs, sealed) = ViperFormat.decode_spanned(&p(&bad), skip, chunk);
            assert_eq!(crcs, chunk_crcs(&bad, chunk));
            let mismatch = FormatError::ChecksumMismatch {
                stored: stored ^ 0x4000_0000,
                computed: right,
            };
            assert_eq!(sealed.open(right).map(drop), Err(mismatch));

            let (wire, skip) = on_the_wire(PayloadKind::Delta, &d, enveloped);
            let right = body_crc(&d);
            let sealed = DeltaCheckpoint::decode_spanned(&p(&wire), skip, chunk).1;
            assert!(matches!(
                sealed.open(!right),
                Err(FormatError::ChecksumMismatch { .. })
            ));
            let mut bad = wire.clone();
            *bad.last_mut().unwrap() ^= 0x01;
            let sealed = DeltaCheckpoint::decode_spanned(&p(&bad), skip, chunk).1;
            assert!(matches!(
                sealed.open(right),
                Err(FormatError::ChecksumMismatch { .. })
            ));
        }
    }
    // Too short to hold a footer: truncated whatever it is opened with, and
    // the chunk CRCs still cover every byte that arrived.
    for len in 0..4 {
        let (crcs, sealed) = ViperFormat.decode_spanned(&f.slice(..len), 0, 2);
        assert_eq!(crcs, chunk_crcs(&f[..len], 2));
        assert!(matches!(sealed.open(0), Err(FormatError::Truncated { .. })));
    }
    // An envelope length past the end leaves nothing to decode.
    let (crcs, sealed) = ViperFormat.decode_spanned(&f, f.len() + 9, 16);
    assert_eq!(crcs, chunk_crcs(&f, 16));
    assert!(matches!(sealed.open(0), Err(FormatError::Truncated { .. })));
}

/// No damage hides from the spanned pass: flipping any one byte of a
/// payload changes the computed CRC of the chunk the byte lands in, and of
/// no other chunk — so the comparison with that chunk's header fails, as it
/// does on the per-chunk path.
#[test]
fn every_single_byte_flip_changes_the_crc_of_the_chunk_it_lands_in() {
    let (f, d) = small_encodings();
    for chunk in [1usize, 5, 16, 33] {
        for (kind, body) in [(PayloadKind::Full, &f), (PayloadKind::Delta, &d)] {
            let (wire, skip) = on_the_wire(kind, body, true);
            let spanned = |bytes: &[u8]| match kind {
                PayloadKind::Full => ViperFormat.decode_spanned(&p(bytes), skip, chunk as u64).0,
                PayloadKind::Delta => {
                    DeltaCheckpoint::decode_spanned(&p(bytes), skip, chunk as u64).0
                }
            };
            let clean = spanned(&wire);
            for at in 0..wire.len() {
                let mut bad = wire.clone();
                bad[at] ^= 0x20;
                let differs: Vec<usize> = spanned(&bad)
                    .iter()
                    .zip(&clean)
                    .enumerate()
                    .filter_map(|(i, (got, was))| (got != was).then_some(i))
                    .collect();
                assert_eq!(differs, [at / chunk], "chunk {chunk}, byte {at}");
            }
        }
    }
}
