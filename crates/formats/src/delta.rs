//! Incremental (delta) checkpoints.
//!
//! Check-N-Run — cited by the paper as related work — "introduces
//! incremental checkpointing, capturing the differences since the last
//! checkpoint". This module implements that for Viper checkpoints: a
//! [`DeltaCheckpoint`] stores only the tensors that changed since a base
//! version plus the names of the unchanged ones, typically shrinking the
//! transfer during fine-tuning with frozen layers (the DStore/EvoStore
//! transfer-learning scenario).
//!
//! Wire layout mirrors the lean format:
//!
//! ```text
//! magic     : b"VIPD"
//! version   : u32 (= 2)
//! name      : string
//! base_iter : u64      iteration of the base checkpoint
//! iteration : u64      iteration of the reconstructed checkpoint
//! nchanged  : u32, then per tensor: name, rank, dims, pad, payload
//! nsame     : u32, then per tensor: name
//! crc32     : u32
//! ```
//!
//! As in the full layout (version 2), `pad` is 0-3 zero bytes that start
//! each payload at a multiple of 4 bytes from the start of the stream, so
//! a received delta's changed tensors are views of the wire bytes.

use crate::checkpoint::{
    decode_footed, pad_len, put_f32s, put_pad, put_string, put_u32, put_u64, Reader, Source,
    MIN_TENSOR_RECORD,
};
use crate::split::cut;
use crate::{crc32, Checkpoint, FormatError, Payload, StreamingEncoder};
use std::ops::Range;
use viper_tensor::split::{bounds, fork_join, share_count};
use viper_tensor::Tensor;

const MAGIC: &[u8; 4] = b"VIPD";
const VERSION: u32 = 2;

/// The difference between two checkpoints of the same model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCheckpoint {
    /// Model name.
    pub model_name: String,
    /// Iteration of the base checkpoint this delta applies to.
    pub base_iteration: u64,
    /// Iteration of the checkpoint the delta reconstructs.
    pub iteration: u64,
    /// Tensors that changed, with their new values.
    pub changed: Vec<(String, Tensor)>,
    /// Names of tensors identical to the base.
    pub unchanged: Vec<String>,
}

impl DeltaCheckpoint {
    /// Fraction of tensors carried by the delta (1.0 = nothing saved).
    pub fn changed_fraction(&self) -> f64 {
        let total = self.changed.len() + self.unchanged.len();
        if total == 0 {
            0.0
        } else {
            self.changed.len() as f64 / total as f64
        }
    }

    /// Payload bytes the delta carries.
    pub fn payload_bytes(&self) -> u64 {
        self.changed.iter().map(|(_, t)| t.byte_len() as u64).sum()
    }

    /// Serialize the delta.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_bytes() as usize + 256);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_string(&mut out, &self.model_name);
        put_u64(&mut out, self.base_iteration);
        put_u64(&mut out, self.iteration);
        put_u32(&mut out, self.changed.len() as u32);
        for (name, tensor) in &self.changed {
            put_string(&mut out, name);
            put_u32(&mut out, tensor.dims().len() as u32);
            for &d in tensor.dims() {
                put_u64(&mut out, d as u64);
            }
            put_pad(&mut out);
            put_f32s(&mut out, tensor.as_slice());
        }
        put_u32(&mut out, self.unchanged.len() as u32);
        for name in &self.unchanged {
            put_string(&mut out, name);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Streaming twin of [`encode`](Self::encode): writes byte-identical
    /// output into a [`StreamingEncoder`], checksumming each changed tensor
    /// as it lands and deriving the CRC footer algebraically — so a delta
    /// framed behind a wire envelope is still encoded in one pass.
    pub fn encode_into<'a>(&'a self, enc: &mut StreamingEncoder<'a>) {
        let changed = self.changed.iter().map(|(name, t)| (name.as_str(), t));
        let unchanged = self.unchanged.iter().map(String::as_str);
        let ids = (&*self.model_name, self.base_iteration, self.iteration);
        write_vipd(enc, ids, changed, unchanged);
    }

    /// Deserialize and verify a delta.
    pub fn decode(bytes: &[u8]) -> Result<Self, FormatError> {
        decode_footed(Source::slice(bytes), None, Self::parse_body)
    }

    /// [`decode`](Self::decode) against a `body_crc` the caller already
    /// holds, with the changed tensors viewing `bytes`' allocation; same
    /// contract as
    /// [`CheckpointFormat::decode_verified`](crate::CheckpointFormat::decode_verified).
    pub fn decode_verified(bytes: &Payload, body_crc: u32) -> Result<Self, FormatError> {
        decode_footed(Source::payload(bytes), Some(body_crc), Self::parse_body)
    }

    /// Everything between the start of the stream and the CRC footer.
    fn parse_body(r: &mut Reader<'_>) -> Result<Self, FormatError> {
        if r.take(4, "magic")? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        if r.u32("version")? != VERSION {
            return Err(FormatError::BadMagic);
        }
        let model_name = r.string("model name")?;
        let base_iteration = r.u64("base iteration")?;
        let iteration = r.u64("iteration")?;
        let nchanged = r.count(MIN_TENSOR_RECORD, "changed count")?;
        let mut changed = Vec::with_capacity(nchanged);
        for _ in 0..nchanged {
            changed.push(r.tensor()?);
        }
        // An unchanged entry is at least its 4-byte name length.
        let nsame = r.count(4, "unchanged count")?;
        let mut unchanged = Vec::with_capacity(nsame);
        for _ in 0..nsame {
            unchanged.push(r.string("unchanged name")?);
        }
        Ok(DeltaCheckpoint {
            model_name,
            base_iteration,
            iteration,
            changed,
            unchanged,
        })
    }
}

/// Compute the delta from `base` to `new`. Both must snapshot the same
/// model with the same tensor set (names may reorder; shapes must match
/// per name).
///
/// The materializing oracle of [`diff_into`], kept independent of it: one
/// sequential pass that compares every pair lane by lane with
/// `bits_equal`, even where it shares storage.
pub fn diff(base: &Checkpoint, new: &Checkpoint) -> Result<DeltaCheckpoint, FormatError> {
    if base.model_name != new.model_name {
        return Err(FormatError::Corrupt(format!(
            "cannot diff {} against {}",
            new.model_name, base.model_name
        )));
    }
    if base.ntensors() != new.ntensors() {
        return Err(FormatError::Corrupt(format!(
            "tensor count changed: {} -> {}",
            base.ntensors(),
            new.ntensors()
        )));
    }
    let base_by_name: std::collections::HashMap<&str, &Tensor> =
        base.tensors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let (mut changed, mut unchanged) = (Vec::new(), Vec::new());
    for (name, t) in &new.tensors {
        match base_by_name.get(name.as_str()) {
            None => {
                return Err(FormatError::Corrupt(format!(
                    "tensor {name} absent from base"
                )))
            }
            Some(b) if bits_equal(b, t) => unchanged.push(name.clone()),
            Some(_) => changed.push((name.clone(), t.clone())),
        }
    }
    Ok(DeltaCheckpoint {
        model_name: new.model_name.clone(),
        base_iteration: base.iteration,
        iteration: new.iteration,
        changed,
        unchanged,
    })
}

/// The one VIPD writer: emits the bytes of [`DeltaCheckpoint::encode`]
/// for `ids` (model name, base iteration, iteration) into a
/// [`StreamingEncoder`], checksumming each changed tensor as it lands and
/// deriving the CRC footer from the encoder's running checksum.
/// [`DeltaCheckpoint::encode_into`] and [`Diff::encode_into`] both drive
/// it.
fn write_vipd<'a, 'n>(
    enc: &mut StreamingEncoder<'a>,
    (model_name, base_iteration, iteration): (&str, u64, u64),
    changed: impl ExactSizeIterator<Item = (&'n str, &'a Tensor)>,
    unchanged: impl ExactSizeIterator<Item = &'n str>,
) {
    let mark = enc.mark();
    enc.put_bytes(MAGIC);
    enc.put_u32(VERSION);
    enc.put_string(model_name);
    enc.put_u64(base_iteration);
    enc.put_u64(iteration);
    enc.put_u32(changed.len() as u32);
    for (name, tensor) in changed {
        enc.put_string(name);
        enc.put_u32(tensor.dims().len() as u32);
        for &d in tensor.dims() {
            enc.put_u64(d as u64);
        }
        enc.put_pad(mark);
        enc.put_f32s(tensor.as_slice());
    }
    enc.put_u32(unchanged.len() as u32);
    for name in unchanged {
        enc.put_string(name);
    }
    let crc = enc.crc_since(mark);
    enc.put_u32(crc);
}

/// Streaming twin of [`diff`] ∘ [`DeltaCheckpoint::encode_into`]: computes
/// the delta from `base` to `new` and writes its wire form directly into
/// `enc`, byte-identical to encoding the materialized delta, without
/// cloning a single tensor or building an intermediate buffer. It is
/// [`Diff::new`] then [`Diff::encode_into`], for a caller that need not
/// size the buffer first.
pub fn diff_into<'a>(
    base: &Checkpoint,
    new: &'a Checkpoint,
    enc: &mut StreamingEncoder<'a>,
) -> Result<(), FormatError> {
    compare(base, new, enc.shares)?.encode_into(enc);
    Ok(())
}

/// A compared (base, new) pair: which tensors of `new` changed. The
/// compare is the only pass over unchanged bytes, so the exact VIPD length
/// ([`encoded_len`](Self::encoded_len)) is known before a byte is written.
/// Everything after it is O(ε): only changed payloads are encoded, and the
/// encoder checksums them in the same pass. When `new` is the base's clone
/// with ε bytes of tensors rewritten, the send path therefore reads,
/// allocates and encodes O(ε) bytes; the same bytes compared as equal
/// copies cost O(N) reads.
#[derive(Debug)]
pub struct Diff<'a> {
    /// Model name, base iteration, iteration.
    ids: (&'a str, u64, u64),
    changed: Vec<(&'a str, &'a Tensor)>,
    unchanged: Vec<&'a str>,
}

impl<'a> Diff<'a> {
    /// Compare `new` against `base`; fails where [`diff`] fails.
    pub fn new(base: &Checkpoint, new: &'a Checkpoint) -> Result<Self, FormatError> {
        compare(base, new, None)
    }

    /// Bytes [`encode_into`](Self::encode_into) writes.
    pub fn encoded_len(&self) -> usize {
        // Magic, version, name, base iteration, iteration, changed count.
        let mut len = 4 + 4 + 4 + self.ids.0.len() + 8 + 8 + 4;
        for (name, tensor) in &self.changed {
            len += 4 + name.len() + 4 + 8 * tensor.dims().len();
            len += pad_len(len) + tensor.byte_len();
        }
        // Unchanged count and names, then the CRC footer.
        len + 4 + self.unchanged.iter().map(|n| 4 + n.len()).sum::<usize>() + 4
    }

    /// Write the delta's wire form into `enc`.
    pub fn encode_into(&self, enc: &mut StreamingEncoder<'a>) {
        let changed = self.changed.iter().copied();
        write_vipd(enc, self.ids, changed, self.unchanged.iter().copied());
    }
}

/// The compare behind [`Diff`], or an error if the two do not snapshot one
/// model with one tensor set. A pair whose dims differ changed unread, and
/// a pair that shares storage ([`Tensor::same_storage`]) is unchanged
/// unread: a write to either side would have copied it first. Every other
/// pair's bytes ([`Tensor::as_bytes`]) are compared in one fork-join over
/// balanced shares of their concatenation, cut inside a tensor where the
/// balance needs it: `shares` when forced (by
/// [`StreamingEncoder::with_shares`]), else as many as the compared bytes
/// fill. Bit-pattern equality of f32 data *is* byte equality, so a
/// `memcmp`-class compare gives [`diff`]'s answer, NaN and -0.0 included,
/// at a fraction of the cost.
fn compare<'a>(
    base: &Checkpoint,
    new: &'a Checkpoint,
    shares: Option<usize>,
) -> Result<Diff<'a>, FormatError> {
    if base.model_name != new.model_name {
        return Err(FormatError::Corrupt(format!(
            "cannot diff {} against {}",
            new.model_name, base.model_name
        )));
    }
    if base.ntensors() != new.ntensors() {
        return Err(FormatError::Corrupt(format!(
            "tensor count changed: {} -> {}",
            base.ntensors(),
            new.ntensors()
        )));
    }
    // Index the base once: a per-tensor linear scan would be O(n·m).
    let base_by_name: std::collections::HashMap<&str, &Tensor> =
        base.tensors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let (mut changed, mut runs) = (Vec::new(), Vec::new());
    for (name, n) in &new.tensors {
        let Some(&b) = base_by_name.get(name.as_str()) else {
            return Err(FormatError::Corrupt(format!(
                "tensor {name} absent from base"
            )));
        };
        changed.push(b.dims() != n.dims());
        runs.push(match b.dims() == n.dims() && !b.same_storage(n) {
            true => (b.as_bytes(), n.as_bytes()),
            false => (&[][..], &[][..]),
        });
    }
    let lens = || runs.iter().map(|(_, n)| n.len());
    let total: usize = lens().sum();
    let shares = shares.unwrap_or_else(|| share_count(total));
    let jobs: Vec<_> = bounds(total, shares)
        .map(|range| cut(lens(), range))
        .collect();
    let differing = fork_join(jobs, |pieces| {
        let differs = |(run, piece): &(usize, Range<usize>)| {
            let (a, b) = runs[*run];
            a[piece.clone()] != b[piece.clone()]
        };
        let differing = pieces.into_iter().filter(differs);
        differing.map(|(run, _)| run).collect::<Vec<_>>()
    });
    for run in differing.into_iter().flatten() {
        changed[run] = true;
    }
    let flagged = new.tensors.iter().zip(changed);
    let (changed, unchanged): (Vec<_>, Vec<_>) = flagged.partition(|f| f.1);
    Ok(Diff {
        ids: (&new.model_name, base.iteration, new.iteration),
        changed: changed.into_iter().map(|((n, t), _)| (&**n, t)).collect(),
        unchanged: unchanged.into_iter().map(|((n, _), _)| &**n).collect(),
    })
}

/// Bitwise tensor equality. Reconstruction must be *byte*-identical, so the
/// comparison is on f32 bit patterns, not `PartialEq`: `0.0 == -0.0` would
/// hide a sign-bit change, and `NaN != NaN` would mark every NaN-bearing
/// tensor as changed forever.
fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Accounting from [`apply_owned`]: how many tensors were moved into the
/// reconstruction. The unchanged rest are clones of the base's tensors,
/// which share its elements (a reference-count bump, never a copy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Changed tensors moved out of the delta — allocation reused as-is.
    pub tensors_moved: usize,
}

/// Reconstruct the new checkpoint from `base` and an owned `delta`, in
/// the base's tensor order (layer order matters to consumers).
///
/// The consumer decodes each delta from the wire and owns it, so the
/// changed tensors move straight into the reconstructed checkpoint, and
/// the unchanged ones are clones of the base's, which share its storage:
/// no element is copied. [`ApplyStats`] counts the moves.
pub fn apply_owned(
    base: &Checkpoint,
    delta: DeltaCheckpoint,
) -> Result<(Checkpoint, ApplyStats), FormatError> {
    if base.model_name != delta.model_name {
        return Err(FormatError::Corrupt(format!(
            "delta for {} applied to {}",
            delta.model_name, base.model_name
        )));
    }
    if base.iteration != delta.base_iteration {
        return Err(FormatError::Corrupt(format!(
            "delta expects base iteration {}, got {}",
            delta.base_iteration, base.iteration
        )));
    }
    let mut changed: std::collections::HashMap<String, Tensor> =
        delta.changed.into_iter().collect();
    let unchanged: std::collections::HashSet<&str> =
        delta.unchanged.iter().map(String::as_str).collect();
    let mut stats = ApplyStats::default();
    let mut tensors = Vec::with_capacity(changed.len() + unchanged.len());
    for (name, base_tensor) in &base.tensors {
        if let Some(t) = changed.remove(name.as_str()) {
            stats.tensors_moved += 1;
            tensors.push((name.clone(), t));
        } else if unchanged.contains(name.as_str()) {
            tensors.push((name.clone(), base_tensor.clone()));
        } else {
            return Err(FormatError::Corrupt(format!(
                "tensor {name} mentioned by neither side of the delta"
            )));
        }
    }
    Ok((
        Checkpoint::new(delta.model_name, delta.iteration, tensors),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::{decode_two_pass, sealed};

    fn base() -> Checkpoint {
        Checkpoint::new(
            "m",
            100,
            vec![
                ("frozen/kernel".into(), Tensor::full(&[50], 1.0)),
                ("head/kernel".into(), Tensor::full(&[10], 2.0)),
                ("head/bias".into(), Tensor::full(&[10], 0.0)),
            ],
        )
    }

    /// Reconstruct through [`apply_owned`], dropping its accounting.
    fn apply(base: &Checkpoint, d: &DeltaCheckpoint) -> Result<Checkpoint, FormatError> {
        apply_owned(base, d.clone()).map(|(rebuilt, _)| rebuilt)
    }

    /// What the VIPD bytes of a stream carry: changed count, unchanged
    /// count and changed payload bytes, decoded back.
    fn carried(bytes: &[u8]) -> (usize, usize, u64) {
        let d = DeltaCheckpoint::decode(bytes).unwrap();
        (d.changed.len(), d.unchanged.len(), d.payload_bytes())
    }

    fn fine_tuned() -> Checkpoint {
        // Transfer-learning shape: the frozen backbone is untouched.
        Checkpoint::new(
            "m",
            150,
            vec![
                ("frozen/kernel".into(), Tensor::full(&[50], 1.0)),
                ("head/kernel".into(), Tensor::full(&[10], 2.5)),
                ("head/bias".into(), Tensor::full(&[10], -0.1)),
            ],
        )
    }

    #[test]
    fn diff_identifies_changed_tensors() {
        let d = diff(&base(), &fine_tuned()).unwrap();
        assert_eq!(d.changed.len(), 2);
        assert_eq!(d.unchanged, vec!["frozen/kernel".to_string()]);
        assert!((d.changed_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.base_iteration, 100);
        assert_eq!(d.iteration, 150);
    }

    #[test]
    fn apply_reconstructs_exactly() {
        let d = diff(&base(), &fine_tuned()).unwrap();
        let rebuilt = apply(&base(), &d).unwrap();
        assert_eq!(rebuilt, fine_tuned());
    }

    #[test]
    fn delta_of_identical_checkpoints_is_empty() {
        let mut same = base();
        same.iteration = 101;
        let d = diff(&base(), &same).unwrap();
        assert!(d.changed.is_empty());
        assert_eq!(d.changed_fraction(), 0.0);
        assert_eq!(d.payload_bytes(), 0);
        assert_eq!(apply(&base(), &d).unwrap(), same);
    }

    #[test]
    fn delta_transfers_less_than_full_checkpoint() {
        use crate::{CheckpointFormat, ViperFormat};
        let d = diff(&base(), &fine_tuned()).unwrap();
        let delta_bytes = d.encode().len();
        let full_bytes = ViperFormat.encode(&fine_tuned()).len();
        assert!(
            delta_bytes < full_bytes / 2,
            "{delta_bytes} vs {full_bytes}"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = diff(&base(), &fine_tuned()).unwrap();
        let decoded = DeltaCheckpoint::decode(&d.encode()).unwrap();
        assert_eq!(decoded, d);
    }

    #[test]
    fn streaming_encode_is_byte_identical() {
        let d = diff(&base(), &fine_tuned()).unwrap();
        let legacy = d.encode();
        for chunk_bytes in [0u64, 16, 64, 1 << 20] {
            let mut enc = StreamingEncoder::new(chunk_bytes);
            d.encode_into(&mut enc);
            assert_eq!(
                enc.finish().payload.as_slice(),
                &legacy[..],
                "chunk_bytes {chunk_bytes}"
            );
        }
    }

    /// One-pass `decode` and the two-pass oracle on the same bytes.
    fn both_ways(bytes: &[u8]) -> [Result<DeltaCheckpoint, FormatError>; 2] {
        let oracle = decode_two_pass(bytes, DeltaCheckpoint::parse_body);
        [DeltaCheckpoint::decode(bytes), oracle]
    }

    #[test]
    fn decode_verified_agrees_with_decode_and_keeps_the_footer_check() {
        let d = diff(&base(), &fine_tuned()).unwrap();
        let bytes = d.encode();
        let (body, footer) = bytes.split_at(bytes.len() - 4);
        let footer = u32::from_le_bytes(footer.try_into().unwrap());
        assert_eq!(
            DeltaCheckpoint::decode_verified(&bytes.clone().into(), crc32(body)),
            Ok(d)
        );
        assert_eq!(
            DeltaCheckpoint::decode_verified(&bytes.clone().into(), 7),
            Err(FormatError::ChecksumMismatch {
                stored: footer,
                computed: 7
            })
        );
        let mut bad_footer = bytes.clone();
        *bad_footer.last_mut().unwrap() ^= 0x01;
        let want = Err(FormatError::ChecksumMismatch {
            stored: footer ^ 0x0100_0000,
            computed: crc32(body),
        });
        assert_eq!(
            DeltaCheckpoint::decode_verified(&bad_footer.clone().into(), crc32(body)),
            want
        );
        assert_eq!(DeltaCheckpoint::decode(&bad_footer), want);
    }

    #[test]
    fn any_flipped_byte_or_truncation_fails_like_the_oracle() {
        let bytes = diff(&base(), &fine_tuned()).unwrap().encode();
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
        for len in 0..bytes.len() {
            let [one_pass, oracle] = both_ways(&bytes[..len]);
            assert!(one_pass.is_err(), "prefix {len}");
            assert_eq!(one_pass, oracle, "prefix {len}");
        }
    }

    #[test]
    fn checksummed_hostile_counts_and_dims_are_rejected() {
        let head = |nchanged: u32| {
            let mut body = MAGIC.to_vec();
            put_u32(&mut body, VERSION);
            put_string(&mut body, "m");
            put_u64(&mut body, 1);
            put_u64(&mut body, 2);
            put_u32(&mut body, nchanged);
            body
        };
        // Counts no stream this short can hold, changed and unchanged.
        let got = DeltaCheckpoint::decode(&sealed(head(u32::MAX)));
        assert!(matches!(got, Err(FormatError::Truncated { .. })), "{got:?}");
        let mut body = head(0);
        put_u32(&mut body, u32::MAX);
        let got = DeltaCheckpoint::decode(&sealed(body));
        assert!(matches!(got, Err(FormatError::Truncated { .. })), "{got:?}");
        // Dims whose product wraps to zero elements.
        let mut body = head(1);
        put_string(&mut body, "t");
        put_u32(&mut body, 2);
        put_u64(&mut body, 1 << 63);
        put_u64(&mut body, 2);
        put_u32(&mut body, 0);
        let bytes = sealed(body);
        let [one_pass, oracle] = both_ways(&bytes);
        assert!(
            matches!(one_pass, Err(FormatError::Corrupt(_))),
            "{one_pass:?}"
        );
        assert_eq!(one_pass, oracle);
    }

    #[test]
    fn decode_detects_corruption() {
        let mut bytes = diff(&base(), &fine_tuned()).unwrap().encode();
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        assert!(DeltaCheckpoint::decode(&bytes).is_err());
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let d = diff(&base(), &fine_tuned()).unwrap();
        let mut wrong = base();
        wrong.iteration = 99;
        assert!(apply(&wrong, &d).is_err());
        let mut other_model = base();
        other_model.model_name = "other".into();
        assert!(apply(&other_model, &d).is_err());
    }

    /// Bitwise checkpoint equality for tests with NaN payloads, where
    /// `PartialEq` is useless.
    fn same_bits(a: &Checkpoint, b: &Checkpoint) -> bool {
        a.model_name == b.model_name
            && a.iteration == b.iteration
            && a.tensors.len() == b.tensors.len()
            && a.tensors
                .iter()
                .zip(&b.tensors)
                .all(|((an, at), (bn, bt))| an == bn && super::bits_equal(at, bt))
    }

    #[test]
    fn diff_sees_sign_bit_of_zero() {
        let mut new = base();
        new.iteration = 101;
        // 0.0 -> -0.0 compares equal under PartialEq but is a real byte
        // change; the delta must carry it.
        new.tensors[2].1 = Tensor::full(&[10], -0.0);
        let d = diff(&base(), &new).unwrap();
        assert_eq!(d.changed.len(), 1, "{d:?}");
        assert_eq!(d.changed[0].0, "head/bias");
        let rebuilt = apply(&base(), &d).unwrap();
        assert!(same_bits(&rebuilt, &new));
        assert!(rebuilt.tensors[2].1.as_slice()[0].is_sign_negative());
    }

    #[test]
    fn diff_treats_identical_nans_as_unchanged() {
        let mut old = base();
        old.tensors[0].1 = Tensor::full(&[50], f32::NAN);
        let mut new = old.clone();
        new.iteration = 101;
        let d = diff(&old, &new).unwrap();
        assert!(
            d.changed.is_empty(),
            "identical NaN payloads must not be resent: {d:?}"
        );
        assert!(same_bits(&apply(&old, &d).unwrap(), &new));
    }

    #[test]
    fn diff_distinguishes_nan_payloads() {
        let mut old = base();
        old.tensors[0].1 = Tensor::full(&[50], f32::from_bits(0x7fc0_0000));
        let mut new = old.clone();
        new.iteration = 101;
        // A different NaN bit pattern is a change.
        new.tensors[0].1 = Tensor::full(&[50], f32::from_bits(0x7fc0_0001));
        let d = diff(&old, &new).unwrap();
        assert_eq!(d.changed.len(), 1);
        assert!(same_bits(&apply(&old, &d).unwrap(), &new));
    }

    #[test]
    fn apply_handles_reordered_delta_entries() {
        let d0 = diff(&base(), &fine_tuned()).unwrap();
        // The changed list arriving in any order must not matter.
        let mut d = d0.clone();
        d.changed.reverse();
        let rebuilt = apply(&base(), &d).unwrap();
        assert_eq!(rebuilt, fine_tuned());
        // Reconstruction preserves the *base's* tensor order.
        let names: Vec<&str> = rebuilt.tensors.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["frozen/kernel", "head/kernel", "head/bias"]);
    }

    /// Streaming diff must equal envelope-free materialized encode for any
    /// chunk geometry.
    #[test]
    fn diff_into_matches_materialized_encode() {
        let (base, new) = (base(), fine_tuned());
        let legacy = diff(&base, &new).unwrap().encode();
        for chunk_bytes in [0u64, 16, 64, 1 << 20] {
            let mut enc = StreamingEncoder::new(chunk_bytes);
            diff_into(&base, &new, &mut enc).unwrap();
            let payload = enc.finish().payload;
            assert_eq!(payload.as_slice(), &legacy[..], "chunk_bytes {chunk_bytes}");
            assert_eq!(carried(&payload), (2, 1, 20 * 4));
        }
    }

    #[test]
    fn diff_into_empty_delta_matches() {
        let mut same = base();
        same.iteration = 101;
        let legacy = diff(&base(), &same).unwrap().encode();
        let mut enc = StreamingEncoder::new(64);
        diff_into(&base(), &same, &mut enc).unwrap();
        let payload = enc.finish().payload;
        assert_eq!(payload.as_slice(), &legacy[..]);
        assert_eq!(carried(&payload), (0, 3, 0));
    }

    #[test]
    fn diff_into_byte_compare_agrees_on_nan_and_sign_cases() {
        // The memcmp-class compare must reproduce the bit-pattern
        // semantics: -0.0 is a change, identical NaNs are not.
        let mut new = base();
        new.iteration = 101;
        new.tensors[2].1 = Tensor::full(&[10], -0.0);
        let mut enc = StreamingEncoder::new(0);
        diff_into(&base(), &new, &mut enc).unwrap();
        let payload = enc.finish().payload;
        assert_eq!(carried(&payload).0, 1);
        assert_eq!(
            payload.as_slice(),
            &diff(&base(), &new).unwrap().encode()[..]
        );

        let mut old = base();
        old.tensors[0].1 = Tensor::full(&[50], f32::NAN);
        let mut same = old.clone();
        same.iteration = 101;
        let mut enc = StreamingEncoder::new(0);
        diff_into(&old, &same, &mut enc).unwrap();
        assert_eq!(carried(&enc.finish().payload).0, 0);
    }

    #[test]
    fn diff_into_rejects_what_diff_rejects() {
        let mut renamed = fine_tuned();
        renamed.model_name = "other".into();
        let mut enc = StreamingEncoder::new(0);
        assert!(diff_into(&base(), &renamed, &mut enc).is_err());
        let mut swapped = fine_tuned();
        swapped.tensors[0].0 = "unknown/kernel".into();
        let mut enc = StreamingEncoder::new(0);
        assert!(diff_into(&base(), &swapped, &mut enc).is_err());
    }

    /// The save path's shape: `new` is the retained base's clone with one
    /// tensor rewritten, so the others share the base's storage and are
    /// never read. The stream and its CRCs must equal those of the same
    /// bytes held as equal copies, which the byte compare decides.
    #[test]
    fn diff_into_is_byte_identical_over_shared_and_copied_tensors() {
        let base = base();
        let mut shared = base.clone();
        shared.iteration = 101;
        shared.tensors[1].1.as_mut_slice()[3] = -7.0;
        let copies = shared.tensors.iter().map(|(name, t)| {
            let copy = Tensor::from_vec(t.as_slice().to_vec(), t.dims()).unwrap();
            (name.clone(), copy)
        });
        let copied = Checkpoint::new("m", 101, copies.collect());
        let sharing = |c: &Checkpoint| -> Vec<bool> {
            let pairs = c.tensors.iter().zip(&base.tensors);
            pairs.map(|((_, t), (_, b))| t.same_storage(b)).collect()
        };
        assert_eq!(sharing(&shared), [true, false, true]);
        assert_eq!(sharing(&copied), [false; 3]);
        for chunk_bytes in [0u64, 16, 64, 1 << 20] {
            let stream = |new: &Checkpoint| {
                let mut enc = StreamingEncoder::new(chunk_bytes);
                diff_into(&base, new, &mut enc).unwrap();
                let encoded = enc.finish();
                let crcs = encoded.chunk_crcs.to_vec();
                (encoded.payload.as_slice().to_vec(), crcs)
            };
            let (bytes, crcs) = stream(&shared);
            assert_eq!(stream(&copied), (bytes.clone(), crcs));
            assert_eq!(carried(&bytes), (1, 2, 10 * 4));
            assert_eq!(bytes, diff(&base, &copied).unwrap().encode());
        }
    }

    /// At 1, 2, 3 and 7 forced shares the compare cuts inside tensors,
    /// and the stream and its CRCs are the one-share run's, equal to the
    /// materialized delta's bytes: over a shared tensor, a copied NaN
    /// tensor, a −0.0 write and a one-lane write.
    #[test]
    fn diff_into_is_bit_identical_at_any_share_count() {
        let (f, nan) = (|n, v| Tensor::full(&[n], v), Tensor::full(&[9], f32::NAN));
        let tensors = [f(40, 0.5), nan, f(13, 0.0), f(31, 1.5), f(17, 2.5)];
        let named = (0..).map(|i: u32| i.to_string()).zip(tensors);
        let base = Checkpoint::new("m", 100, named.collect());
        let mut new = base.clone();
        new.iteration = 101;
        let copy = |t: &Tensor| Tensor::from_vec(t.as_slice().to_vec(), t.dims()).unwrap();
        new.tensors[1].1 = copy(&base.tensors[1].1);
        new.tensors[2].1.as_mut_slice()[12] = -0.0;
        new.tensors[3].1.as_mut_slice()[30] = 7.0;
        new.tensors[4].1 = copy(&base.tensors[4].1);
        assert!(new.tensors[0].1.same_storage(&base.tensors[0].1));
        let stream = |shares| {
            let mut enc = StreamingEncoder::new(64).with_shares(shares);
            diff_into(&base, &new, &mut enc).unwrap();
            let encoded = enc.finish();
            (encoded.payload.to_vec(), encoded.chunk_crcs.to_vec())
        };
        let one = stream(1);
        assert_eq!(one.0, diff(&base, &new).unwrap().encode());
        assert_eq!(carried(&one.0), (2, 3, (13 + 31) * 4));
        for shares in [2, 3, 7] {
            assert_eq!(stream(shares), one, "{shares} shares");
        }
    }

    /// `encoded_len` is what `encode_into` writes, whatever pads the
    /// odd-length names leave: every subset of three tensors changed.
    #[test]
    fn diff_encoded_len_is_exact() {
        let dims: [(&str, &[usize]); 3] = [("a", &[3]), ("bcd", &[2, 2]), ("ef", &[5])];
        let tensors = dims
            .iter()
            .map(|&(n, d)| (n.to_string(), Tensor::full(d, 1.0)));
        let base = Checkpoint::new("odd", 1, tensors.collect());
        for mask in 0..8 {
            let mut new = base.clone();
            new.iteration = 2;
            for (i, (_, t)) in new.tensors.iter_mut().enumerate() {
                if mask >> i & 1 == 1 {
                    t.as_mut_slice()[0] = -1.0;
                }
            }
            let oracle = diff(&base, &new).unwrap().encode().len();
            let len = Diff::new(&base, &new).unwrap().encoded_len();
            assert_eq!(len, oracle, "mask {mask}");
        }
    }

    /// Tensor names in order.
    fn names(c: &Checkpoint) -> Vec<&str> {
        c.tensors.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn apply_owned_matches_apply_and_moves_changed() {
        let base = base();
        let mut d = diff(&base, &fine_tuned()).unwrap();
        d.changed.reverse();
        let (rebuilt, stats) = apply_owned(&base, d).unwrap();
        assert_eq!(rebuilt, fine_tuned());
        assert_eq!(names(&rebuilt), names(&base));
        // 2 changed tensors moved; the frozen backbone shares the base's
        // elements rather than copying them.
        assert_eq!(stats, ApplyStats { tensors_moved: 2 });
        assert!(rebuilt.tensors[0].1.same_storage(&base.tensors[0].1));
    }

    #[test]
    fn apply_owned_over_a_view_backed_base_copies_nothing() {
        use crate::{CheckpointFormat, ViperFormat};
        // The base as a consumer installs it: views of a received payload
        // (heap buffers are at least 4-aligned, so every payload is one).
        let wire = Payload::from(ViperFormat.encode(&base()));
        let body_crc = crc32(&wire[..wire.len() - 4]);
        let viewed = ViperFormat.decode_verified(&wire, body_crc).unwrap();
        assert!(viewed.tensors.iter().all(|(_, t)| t.is_shared()));
        let d = diff(&base(), &fine_tuned()).unwrap();
        let (via_owned, stats) = apply_owned(&viewed, d).unwrap();
        assert_eq!(via_owned, fine_tuned());
        assert_eq!(names(&via_owned), names(&viewed));
        // The frozen backbone is shared with the base, not copied.
        assert_eq!(stats, ApplyStats { tensors_moved: 2 });
        let frozen = |c: &Checkpoint| c.tensors[0].1.as_slice().as_ptr();
        assert_eq!(frozen(&via_owned), frozen(&viewed));
    }

    #[test]
    fn apply_owned_rejects_wrong_base() {
        let d = diff(&base(), &fine_tuned()).unwrap();
        let mut wrong = base();
        wrong.iteration = 99;
        assert!(apply_owned(&wrong, d.clone()).is_err());
        let mut incomplete = d;
        incomplete.unchanged.clear();
        assert!(apply_owned(&base(), incomplete).is_err());
    }

    #[test]
    fn diff_rejects_mismatched_models() {
        let mut renamed = fine_tuned();
        renamed.model_name = "other".into();
        assert!(diff(&base(), &renamed).is_err());

        let mut extra = fine_tuned();
        extra
            .tensors
            .push(("new/tensor".into(), Tensor::zeros(&[1])));
        assert!(diff(&base(), &extra).is_err());

        let mut swapped = fine_tuned();
        swapped.tensors[0].0 = "unknown/kernel".into();
        assert!(diff(&base(), &swapped).is_err());
    }
}
