//! The lean Viper checkpoint format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     : b"VIPR"
//! version   : u32 (= 2)
//! name      : u32 len + bytes
//! iteration : u64
//! ntensors  : u32
//! per tensor:
//!   name    : u32 len + bytes
//!   rank    : u32
//!   dims    : rank x u64
//!   pad     : 0-3 zero bytes, so that the payload starts 4-aligned
//!   payload : num_elements x f32
//! crc32     : u32 over everything before the footer
//! ```
//!
//! Version 2 added the pad: every payload sits at a multiple of 4 bytes
//! from the start of the stream, so a receiver whose buffer starts
//! 4-aligned (the wire envelope is 8 bytes for the same reason) installs
//! each tensor as a view of the received bytes instead of a copy. Nonzero
//! pad bytes are [`FormatError::Corrupt`]; a version 1 stream is
//! [`FormatError::BadMagic`].

use crate::checkpoint::{
    decode_footed, pad_len, put_f32s, put_pad, put_string, put_u32, put_u64, Reader, Source,
    MIN_TENSOR_RECORD,
};
use crate::{crc32, Checkpoint, CheckpointFormat, FormatError, Payload, StreamingEncoder};

const MAGIC: &[u8; 4] = b"VIPR";
const VERSION: u32 = 2;

/// The lean Viper binary format: "only the model weights and closely
/// related metadata" (§5.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ViperFormat;

impl CheckpointFormat for ViperFormat {
    fn name(&self) -> &'static str {
        "viper"
    }

    fn encode(&self, ckpt: &Checkpoint) -> Vec<u8> {
        let mut out = Vec::with_capacity(ckpt.payload_bytes() as usize + 256);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_string(&mut out, &ckpt.model_name);
        put_u64(&mut out, ckpt.iteration);
        put_u32(&mut out, ckpt.tensors.len() as u32);
        for (name, tensor) in &ckpt.tensors {
            put_string(&mut out, name);
            put_u32(&mut out, tensor.dims().len() as u32);
            for &d in tensor.dims() {
                put_u64(&mut out, d as u64);
            }
            put_pad(&mut out);
            put_f32s(&mut out, tensor.as_slice());
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    fn encode_into<'a>(&self, ckpt: &'a Checkpoint, enc: &mut StreamingEncoder<'a>) {
        // Byte-identical to `encode`, but each tensor is checksummed while
        // it is written (one pass over the bytes), and the CRC footer is
        // derived from the rolling chunk CRCs via combine — even when a
        // wire envelope precedes the body in the same buffer.
        let mark = enc.mark();
        enc.put_bytes(MAGIC);
        enc.put_u32(VERSION);
        enc.put_string(&ckpt.model_name);
        enc.put_u64(ckpt.iteration);
        enc.put_u32(ckpt.tensors.len() as u32);
        for (name, tensor) in &ckpt.tensors {
            enc.put_string(name);
            enc.put_u32(tensor.dims().len() as u32);
            for &d in tensor.dims() {
                enc.put_u64(d as u64);
            }
            enc.put_pad(mark);
            enc.put_f32s(tensor.as_slice());
        }
        let crc = enc.crc_since(mark);
        enc.put_u32(crc);
    }

    fn encoded_len(&self, ckpt: &Checkpoint) -> usize {
        // Magic, version, name, iteration, tensor count.
        let mut len = 4 + 4 + 4 + ckpt.model_name.len() + 8 + 4;
        for (name, tensor) in &ckpt.tensors {
            len += 4 + name.len() + 4 + 8 * tensor.dims().len();
            len += pad_len(len) + tensor.byte_len();
        }
        len + 4
    }

    fn decode(&self, bytes: &[u8]) -> Result<Checkpoint, FormatError> {
        decode_footed(Source::slice(bytes), None, parse_body)
    }

    fn decode_verified(&self, bytes: &Payload, body_crc: u32) -> Result<Checkpoint, FormatError> {
        decode_footed(Source::payload(bytes), Some(body_crc), parse_body)
    }

    fn metadata_ops_factor(&self) -> f64 {
        1.0
    }

    fn encoded_size(&self, payload_bytes: u64, ntensors: usize) -> u64 {
        // Header ≈ 64 B; per tensor: name (~24 B), rank + dims (~28 B).
        64 + payload_bytes + (ntensors as u64) * 52
    }
}

/// Everything between the start of the stream and the CRC footer.
fn parse_body(r: &mut Reader<'_>) -> Result<Checkpoint, FormatError> {
    if r.take(4, "magic")? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    if r.u32("version")? != VERSION {
        return Err(FormatError::BadMagic);
    }
    let model_name = r.string("model name")?;
    let iteration = r.u64("iteration")?;
    let ntensors = r.count(MIN_TENSOR_RECORD, "tensor count")?;
    let mut tensors = Vec::with_capacity(ntensors);
    for _ in 0..ntensors {
        tensors.push(r.tensor()?);
    }
    if r.remaining() != 0 {
        return Err(FormatError::Corrupt(format!(
            "{} trailing bytes after last tensor",
            r.remaining()
        )));
    }
    Ok(Checkpoint {
        model_name,
        iteration,
        tensors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::{decode_two_pass, sealed};
    use proptest::prelude::*;
    use viper_tensor::Tensor;

    /// One-pass `decode` and the two-pass oracle on the same bytes, with a
    /// decoded checkpoint compared by its re-encoding (NaN-proof).
    fn both_ways(bytes: &[u8]) -> [Result<Vec<u8>, FormatError>; 2] {
        let f = ViperFormat;
        [f.decode(bytes), decode_two_pass(bytes, parse_body)].map(|r| r.map(|c| f.encode(&c)))
    }

    fn sample() -> Checkpoint {
        Checkpoint::new(
            "tc1",
            216,
            vec![
                (
                    "conv1/kernel".into(),
                    Tensor::from_vec(vec![0.5, -1.5, 2.0, 0.0], &[2, 1, 2]).unwrap(),
                ),
                (
                    "dense/bias".into(),
                    Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]).unwrap(),
                ),
            ],
        )
    }

    #[test]
    fn roundtrip_exact() {
        let f = ViperFormat;
        let ckpt = sample();
        let decoded = f.decode(&f.encode(&ckpt)).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn streaming_encode_is_byte_identical() {
        let f = ViperFormat;
        for ckpt in [sample(), Checkpoint::new("empty", 0, vec![])] {
            let legacy = f.encode(&ckpt);
            for chunk_bytes in [0u64, 16, 64, 1 << 20] {
                let mut enc = StreamingEncoder::new(chunk_bytes);
                f.encode_into(&ckpt, &mut enc);
                let fused = enc.finish();
                assert_eq!(
                    fused.payload.as_slice(),
                    &legacy[..],
                    "chunk_bytes {chunk_bytes}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_empty_checkpoint() {
        let f = ViperFormat;
        let ckpt = Checkpoint::new("empty", 0, vec![]);
        assert_eq!(f.decode(&f.encode(&ckpt)).unwrap(), ckpt);
    }

    #[test]
    fn corruption_detected_by_crc() {
        let f = ViperFormat;
        let mut bytes = f.encode(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            f.decode(&bytes),
            Err(FormatError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn decode_verified_agrees_with_decode_and_keeps_the_footer_check() {
        let f = ViperFormat;
        let bytes = f.encode(&sample());
        let (body, footer) = bytes.split_at(bytes.len() - 4);
        let footer = u32::from_le_bytes(footer.try_into().unwrap());
        assert_eq!(
            f.decode_verified(&bytes.clone().into(), crc32(body))
                .unwrap(),
            sample()
        );
        // A body CRC that disagrees with the footer is a mismatch...
        assert_eq!(
            f.decode_verified(&bytes.clone().into(), 0xDEAD_BEEF),
            Err(FormatError::ChecksumMismatch {
                stored: footer,
                computed: 0xDEAD_BEEF
            })
        );
        // ...and so is a footer that disagrees with a correct body CRC,
        // with the fields the self-verifying decode reports.
        let mut bad_footer = bytes.clone();
        *bad_footer.last_mut().unwrap() ^= 0x40;
        let want = Err(FormatError::ChecksumMismatch {
            stored: footer ^ 0x4000_0000,
            computed: crc32(body),
        });
        assert_eq!(
            f.decode_verified(&bad_footer.clone().into(), crc32(body)),
            want
        );
        assert_eq!(f.decode(&bad_footer), want);
        assert!(matches!(
            f.decode_verified(&vec![1, 2, 3].into(), 0),
            Err(FormatError::Truncated { .. })
        ));
    }

    #[test]
    fn any_flipped_byte_is_a_checksum_mismatch_never_a_parse_error() {
        // Header, names, ranks, dims, payloads: every body byte in turn. A
        // damaged length or count derails the parse long before the footer,
        // and the checksum verdict must still win.
        let bytes = ViperFormat.encode(&sample());
        for at in 0..bytes.len() - 4 {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                let [one_pass, oracle] = both_ways(&bad);
                assert!(
                    matches!(one_pass, Err(FormatError::ChecksumMismatch { .. })),
                    "byte {at} ^ {mask:#x}: {one_pass:?}"
                );
                assert_eq!(one_pass, oracle, "byte {at} ^ {mask:#x}");
            }
        }
    }

    #[test]
    fn every_truncation_fails_like_the_oracle() {
        let bytes = ViperFormat.encode(&sample());
        for len in 0..bytes.len() {
            let [one_pass, oracle] = both_ways(&bytes[..len]);
            assert!(one_pass.is_err(), "prefix {len}");
            assert_eq!(one_pass, oracle, "prefix {len}");
        }
    }

    #[test]
    fn checksummed_hostile_bodies_are_rejected_without_panic_or_allocation() {
        let head = |ntensors: u32| {
            let mut body = MAGIC.to_vec();
            put_u32(&mut body, VERSION);
            put_string(&mut body, "m");
            put_u64(&mut body, 1);
            put_u32(&mut body, ntensors);
            body
        };
        let tensor = |body: &mut Vec<u8>, dims: &[u64], floats: usize| {
            put_string(body, "t");
            put_u32(body, dims.len() as u32);
            for &d in dims {
                put_u64(body, d);
            }
            put_pad(body);
            put_f32s(body, &vec![0.5; floats]);
        };
        let f = ViperFormat;
        // A count no stream this short can hold (would reserve ~300 GB).
        let got = f.decode(&sealed(head(u32::MAX)));
        assert!(matches!(got, Err(FormatError::Truncated { .. })), "{got:?}");
        // Dims whose product wraps to 0 elements, or whose bytes wrap.
        for dims in [&[1u64 << 63, 2][..], &[1 << 62], &[3, u64::MAX]] {
            let mut body = head(1);
            tensor(&mut body, dims, 0);
            let got = f.decode(&sealed(body));
            assert!(matches!(got, Err(FormatError::Corrupt(_))), "{got:?}");
        }
        // A payload length that runs past the end (and nearly wraps pos + n).
        let mut body = head(1);
        tensor(&mut body, &[(usize::MAX / 4) as u64], 2);
        let got = f.decode(&sealed(body));
        assert!(matches!(got, Err(FormatError::Truncated { .. })), "{got:?}");
        // Same verdicts from the oracle and from decode_verified.
        let mut body = head(2);
        tensor(&mut body, &[2], 2);
        let bytes = sealed(body);
        let [one_pass, oracle] = both_ways(&bytes);
        assert!(matches!(one_pass, Err(FormatError::Truncated { .. })));
        assert_eq!(one_pass, oracle);
        let crc = crc32(&bytes[..bytes.len() - 4]);
        assert_eq!(
            f.decode_verified(&bytes.clone().into(), crc)
                .map(|c| f.encode(&c)),
            oracle
        );
    }

    proptest! {
        /// Mutated, truncated or re-sealed after mutation: the one-pass
        /// decode returns what the two-pass oracle returns, error for error.
        #[test]
        fn one_pass_decode_equals_the_two_pass_oracle(
            floats in prop::collection::vec(prop::collection::vec(-9.0f32..9.0, 0..40), 0..5),
            edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 0..4),
            keep in 0.0f64..=1.0,
            reseal in 0u8..3,
        ) {
            let tensors = floats.into_iter().enumerate().map(|(i, v)| {
                let dims = [v.len()];
                (format!("t{i}"), Tensor::from_vec(v, &dims).unwrap())
            });
            let mut bytes = ViperFormat.encode(&Checkpoint::new("m", 7, tensors.collect()));
            for (at, mask) in edits {
                let at = (at * bytes.len() as f64) as usize;
                bytes[at] ^= mask;
            }
            if reseal == 0 {
                bytes.truncate(bytes.len() - 4);
                bytes = sealed(bytes);
            }
            // A third of the cases keep every byte.
            bytes.truncate((keep * 1.5 * bytes.len() as f64) as usize);
            let [one_pass, oracle] = both_ways(&bytes);
            prop_assert_eq!(one_pass, oracle);
        }
    }

    #[test]
    fn truncation_detected() {
        let f = ViperFormat;
        let bytes = f.encode(&sample());
        assert!(f.decode(&bytes[..bytes.len() - 10]).is_err());
        assert!(f.decode(&[]).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        let f = ViperFormat;
        let mut bytes = f.encode(&sample());
        bytes[0] = b'X';
        // CRC covers the magic, so this surfaces as a checksum error first —
        // both are decode failures.
        assert!(f.decode(&bytes).is_err());
        // A well-formed foreign stream with valid CRC but wrong magic:
        let mut foreign = b"NOPE".to_vec();
        let crc = crc32(&foreign);
        foreign.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(f.decode(&foreign), Err(FormatError::BadMagic)));
        // A version 1 stream (no pads) is not this layout either.
        let mut v1 = f.encode(&sample());
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        v1.truncate(v1.len() - 4);
        assert_eq!(f.decode(&sealed(v1)), Err(FormatError::BadMagic));
    }

    #[test]
    fn encoded_size_prediction_close() {
        let f = ViperFormat;
        let ckpt = sample();
        let actual = f.encode(&ckpt).len() as u64;
        let predicted = f.encoded_size(ckpt.payload_bytes(), ckpt.ntensors());
        let diff = (actual as i64 - predicted as i64).unsigned_abs();
        assert!(diff < 128, "actual {actual} vs predicted {predicted}");
    }

    #[test]
    fn lean_overhead_is_small() {
        let f = ViperFormat;
        let big = Checkpoint::new("big", 1, vec![("w".into(), Tensor::zeros(&[1000, 1000]))]);
        let encoded = f.encode(&big).len() as f64;
        let payload = big.payload_bytes() as f64;
        assert!(encoded / payload < 1.001);
    }
}
