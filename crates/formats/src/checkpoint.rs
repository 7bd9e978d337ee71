//! The in-memory checkpoint representation shared by all formats.

use crate::{Crc32, Payload};
use std::mem::MaybeUninit;
use std::sync::Arc;
use viper_tensor::Tensor;

/// A snapshot of a DNN model's state: named weight tensors plus the
/// training iteration it was captured at. A clone shares every tensor's
/// elements (see [`Tensor`]): it costs no element copy, and a later write
/// to either side copies only the tensor it touches.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Model name.
    pub model_name: String,
    /// Training iteration at capture time.
    pub iteration: u64,
    /// Named weight tensors, in layer order.
    pub tensors: Vec<(String, Tensor)>,
}

impl Checkpoint {
    /// Build a checkpoint.
    pub fn new(
        model_name: impl Into<String>,
        iteration: u64,
        tensors: Vec<(String, Tensor)>,
    ) -> Self {
        Checkpoint {
            model_name: model_name.into(),
            iteration,
            tensors,
        }
    }

    /// Total payload bytes across all tensors (excluding format framing).
    pub fn payload_bytes(&self) -> u64 {
        self.tensors.iter().map(|(_, t)| t.byte_len() as u64).sum()
    }

    /// Number of tensors.
    pub fn ntensors(&self) -> usize {
        self.tensors.len()
    }

    /// Look up a tensor by name.
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        self.tensors.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// Errors from decoding a serialized checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The byte stream ended before the structure was complete.
    Truncated {
        /// What was being decoded when the stream ended.
        context: &'static str,
    },
    /// Magic bytes or version did not match the format.
    BadMagic,
    /// Integrity checksum mismatch.
    ChecksumMismatch {
        /// Checksum stored in the stream.
        stored: u32,
        /// Checksum computed over the decoded content.
        computed: u32,
    },
    /// Structurally invalid content (bad lengths, non-UTF8 names, ...).
    Corrupt(String),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Truncated { context } => {
                write!(f, "truncated stream while reading {context}")
            }
            FormatError::BadMagic => write!(f, "bad magic/version: not a recognized checkpoint"),
            FormatError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            FormatError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Bytes to decode, and the shared allocation they lie in when the caller
/// has one: a received [`Payload`] is decoded into views of itself, a bare
/// slice into copies.
#[derive(Clone, Copy)]
pub(crate) struct Source<'a> {
    bytes: &'a [u8],
    /// The allocation `bytes` lies in, and the offset of `bytes[0]` in it.
    owner: Option<(&'a Arc<Vec<u8>>, usize)>,
}

impl<'a> Source<'a> {
    /// Bytes no one shares: every tensor is copied out of them.
    pub(crate) fn slice(bytes: &'a [u8]) -> Self {
        Source { bytes, owner: None }
    }

    /// The bytes of `payload`, which tensors may view in place.
    pub(crate) fn payload(payload: &'a Payload) -> Self {
        Source {
            bytes: payload.as_slice(),
            owner: Some((payload.backing(), payload.start())),
        }
    }

    /// `self` split at `mid` (clamped to the length).
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (head, tail) = self.bytes.split_at(mid.min(self.bytes.len()));
        let tail_owner = self.owner.map(|(buf, start)| (buf, start + head.len()));
        (
            Source {
                bytes: head,
                ..self
            },
            Source {
                bytes: tail,
                owner: tail_owner,
            },
        )
    }
}

/// Little-endian cursor shared by the format implementations. Every length
/// it meets comes from the bytes being parsed — possibly before their
/// checksum verdict — so none is added, multiplied or allocated from
/// without a check against the bytes actually left.
///
/// A [`checksummed`](Reader::checksummed) reader, over bytes no one
/// shares, also rolls a [`Crc32`] over the buffer, lazily: header fields
/// are checksummed just ahead of the tensor payload that follows them, and
/// a payload in the very pass that copies it out
/// ([`Crc32::update_copying`]) — the decode reads every byte from memory
/// once.
///
/// A reader over a shared [`Source`] — whose caller already holds the
/// body's CRC — installs a 4-aligned tensor payload as a view of the
/// source's allocation ([`Tensor::from_shared`]) instead of copying it,
/// and does not read the payload at all.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    owner: Option<(&'a Arc<Vec<u8>>, usize)>,
    pos: usize,
    /// Rolling CRC of `buf[..hashed]`; `None` when the caller already
    /// holds the body's CRC.
    crc: Option<Crc32>,
    hashed: usize,
}

/// Smallest tensor record on the wire — empty name (4), rank 0 (4), the one
/// scalar a rank-0 shape holds (4) — the divisor that bounds a tensor
/// [`count`](Reader::count).
pub(crate) const MIN_TENSOR_RECORD: usize = 12;

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader::over(Source::slice(buf))
    }

    /// A reader over `src`, viewing its payloads where `src` is shared.
    pub(crate) fn over(src: Source<'a>) -> Self {
        Reader {
            buf: src.bytes,
            owner: src.owner,
            pos: 0,
            crc: None,
            hashed: 0,
        }
    }

    /// A reader that rolls the CRC of `buf` while it is consumed, copying
    /// every tensor out; see [`finish_crc`](Self::finish_crc).
    pub(crate) fn checksummed(buf: &'a [u8]) -> Self {
        Reader {
            crc: Some(Crc32::new()),
            ..Reader::new(buf)
        }
    }

    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<&'a [u8], FormatError> {
        if n > self.remaining() {
            return Err(FormatError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, FormatError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, FormatError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(
            b.try_into().expect("take(8) is 8 bytes"),
        ))
    }

    /// A `u32` record count, rejected unless `min_record` bytes per record
    /// are still left to read, so that the caller may size a `Vec` by it
    /// (4 hostile bytes must not reserve gigabytes).
    pub(crate) fn count(
        &mut self,
        min_record: usize,
        context: &'static str,
    ) -> Result<usize, FormatError> {
        let n = self.u32(context)? as usize;
        if n > self.remaining() / min_record {
            return Err(FormatError::Truncated { context });
        }
        Ok(n)
    }

    pub(crate) fn string(&mut self, context: &'static str) -> Result<String, FormatError> {
        let len = self.u32(context)? as usize;
        if len > 1 << 20 {
            return Err(FormatError::Corrupt(format!(
                "unreasonable string length {len}"
            )));
        }
        let bytes = self.take(len, context)?;
        // Validate on the borrowed slice; the map to an owned String is the
        // single allocation (String::from_utf8(to_vec()) would make two when
        // the bytes are invalid, and an intermediate Vec always).
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| FormatError::Corrupt(format!("non-UTF8 string in {context}")))
    }

    pub(crate) fn skip(&mut self, n: usize, context: &'static str) -> Result<(), FormatError> {
        self.take(n, context).map(|_| ())
    }

    /// The head of one tensor record — name, rank, dims — and the payload
    /// size in bytes those dims promise, computed without overflow.
    pub(crate) fn tensor_header(&mut self) -> Result<(String, Vec<usize>, usize), FormatError> {
        let name = self.string("tensor name")?;
        let rank = self.u32("tensor rank")? as usize;
        if rank > 8 {
            return Err(FormatError::Corrupt(format!("unreasonable rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            let dim = usize::try_from(self.u64("tensor dim")?);
            dims.push(dim.map_err(|_| FormatError::Corrupt(format!("tensor {name}: huge dim")))?);
        }
        let nbytes = f32_bytes(&dims)
            .ok_or_else(|| FormatError::Corrupt(format!("tensor {name}: dims overflow")))?;
        Ok((name, dims, nbytes))
    }

    /// One whole tensor record (`name, rank, dims, pad, payload`), the unit
    /// both the full and the delta layout are made of. The 0-3 pad bytes,
    /// all zero, put the payload at a 4-byte boundary of the buffer. The
    /// payload becomes a view of the shared source where its address is
    /// 4-aligned, and otherwise crosses into the tensor's `Vec<f32>` in one
    /// copy.
    pub(crate) fn tensor(&mut self) -> Result<(String, Tensor), FormatError> {
        let (name, dims, nbytes) = self.tensor_header()?;
        let pad = self.take(pad_len(self.pos), "tensor pad")?;
        if pad.iter().any(|&b| b != 0) {
            return Err(FormatError::Corrupt(format!("tensor {name}: nonzero pad")));
        }
        let at = self.pos;
        let payload = self.take(nbytes, "tensor payload")?;
        let view = self
            .owner
            .and_then(|(buf, start)| Tensor::from_shared(Arc::clone(buf), start + at, &dims));
        if let Some(crc) = &mut self.crc {
            // Everything parsed since the last payload (this record's
            // header and pad included) goes in front of it; the payload
            // goes with its copy (a checksummed reader views nothing).
            crc.update(&self.buf[self.hashed..at]);
            self.hashed = self.pos;
        }
        let tensor = match view {
            Some(tensor) => tensor,
            None => {
                let data = copy_f32s(payload, self.crc.as_mut());
                Tensor::from_vec(data, &dims).map_err(|e| FormatError::Corrupt(e.to_string()))?
            }
        };
        Ok((name, tensor))
    }

    /// The CRC rolled over the **whole** buffer: what the parse did not
    /// reach (it stopped early, or failed) is absorbed now, so no verdict
    /// depends on how far parsing got. Panics unless the reader is
    /// [`checksummed`](Self::checksummed).
    pub(crate) fn finish_crc(self) -> u32 {
        let mut crc = self.crc.expect("reader is checksummed");
        crc.update(&self.buf[self.hashed..]);
        crc.finalize()
    }
}

/// The footer comparison every decode makes before it returns anything.
fn check_footer(stored: u32, computed: u32) -> Result<(), FormatError> {
    match stored == computed {
        true => Ok(()),
        false => Err(FormatError::ChecksumMismatch { stored, computed }),
    }
}

/// Split a `body ‖ crc32(body)` stream into the body and the stored footer.
fn split_footer(src: Source<'_>) -> Result<(Source<'_>, u32), FormatError> {
    let Some(split) = src.bytes.len().checked_sub(4) else {
        return Err(FormatError::Truncated {
            context: "crc footer",
        });
    };
    let (body, footer) = src.split_at(split);
    let stored = u32::from_le_bytes(footer.bytes.try_into().expect("footer is 4 bytes"));
    Ok((body, stored))
}

/// Decode a `body ‖ crc32(body)` stream with `parse`, comparing the stored
/// footer before anything is returned: against `body_crc` up front when the
/// caller already holds it (a chunk-verified flow), else against the CRC
/// the reader rolled while `parse` consumed, and copied out, the body. The
/// tensors view `src`'s allocation only in the first case. A mismatch outranks
/// whatever `parse` found: damaged bytes fail structurally in arbitrary
/// ways, and the caller is owed the root cause.
pub(crate) fn decode_footed<T>(
    src: Source<'_>,
    body_crc: Option<u32>,
    parse: impl FnOnce(&mut Reader<'_>) -> Result<T, FormatError>,
) -> Result<T, FormatError> {
    let (body, stored) = split_footer(src)?;
    match body_crc {
        Some(computed) => {
            check_footer(stored, computed)?;
            parse(&mut Reader::over(body))
        }
        None => {
            let mut r = Reader::checksummed(body.bytes);
            let parsed = parse(&mut r);
            check_footer(stored, r.finish_crc())?;
            parsed
        }
    }
}

/// The payload size in bytes of `f32`s shaped `dims`, `None` where it
/// overflows: a zero dim makes any shape empty, however large the others.
pub(crate) fn f32_bytes(dims: &[usize]) -> Option<usize> {
    match dims.contains(&0) {
        true => Some(0),
        false => dims.iter().try_fold(4usize, |n, &d| n.checked_mul(d)),
    }
}

/// Zero bytes that bring `pos` bytes of a body to a 4-byte boundary: the
/// pad in front of every tensor payload (0-3 bytes).
pub(crate) fn pad_len(pos: usize) -> usize {
    pos.wrapping_neg() % 4
}

/// Append the pad in front of a tensor payload, for a body that starts at
/// `out[0]`.
pub(crate) fn put_pad(out: &mut Vec<u8>) {
    out.resize(out.len() + pad_len(out.len()), 0);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The little-endian wire bytes of `data` without a copy: on a
/// little-endian host the slice's own byte view. `None` elsewhere.
pub(crate) fn f32s_as_le_bytes(data: &[f32]) -> Option<&[u8]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: an `f32` is 4 initialised bytes with no padding, so the slice
    // is `size_of_val(data)` readable bytes in one allocation (and `u8` has
    // no alignment requirement). Same view as `Tensor::as_bytes`.
    Some(unsafe { std::slice::from_raw_parts(data.as_ptr().cast(), size_of_val(data)) })
}

/// Append `f32`s as little-endian bytes. On a little-endian host that is
/// the slice's own byte view, appended in one `memcpy`.
pub(crate) fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    match f32s_as_le_bytes(data) {
        Some(bytes) => out.extend_from_slice(bytes),
        None => put_f32s_swapped(out, data),
    }
}

/// [`put_f32s`] for hosts whose `f32`s are not little-endian in memory.
fn put_f32s_swapped(out: &mut Vec<u8>, data: &[f32]) {
    out.reserve(size_of_val(data));
    for &x in data {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Little-endian bytes to `f32`s, the inverse of [`put_f32s`]: one copy
/// into a `Vec` that is never zero-filled first.
pub(crate) fn bytes_to_f32s(bytes: &[u8]) -> Result<Vec<f32>, FormatError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(FormatError::Corrupt(
            "tensor payload not a multiple of 4 bytes".into(),
        ));
    }
    Ok(copy_f32s(bytes, None))
}

/// The copy behind [`bytes_to_f32s`]; with `crc`, the same pass over
/// `bytes` also rolls them into the CRC (the checksummed reader's one
/// touch per byte). `bytes.len()` must be a multiple of 4.
fn copy_f32s(bytes: &[u8], crc: Option<&mut Crc32>) -> Vec<f32> {
    debug_assert!(bytes.len().is_multiple_of(4));
    let n = bytes.len() / 4;
    let mut out = Vec::with_capacity(n);
    if cfg!(target_endian = "big") {
        if let Some(crc) = crc {
            crc.update(bytes);
        }
        extend_f32s_swapped(&mut out, bytes);
        return out;
    }
    let spare: &mut [MaybeUninit<f32>] = &mut out.spare_capacity_mut()[..n];
    // SAFETY: the same `4 * n` bytes of spare capacity, viewed as bytes: a
    // `MaybeUninit<u8>` has no validity or alignment requirement, and the
    // view borrows `spare` mutably, so nothing aliases it.
    let dst = unsafe { std::slice::from_raw_parts_mut(spare.as_mut_ptr().cast(), 4 * n) };
    match crc {
        Some(crc) => crc.update_copying(bytes, dst),
        None => {
            dst.write_copy_of_slice(bytes);
        }
    }
    // SAFETY: both arms initialised all `4 * n` bytes behind `len` (0), and
    // any bit pattern is an `f32`.
    unsafe { out.set_len(n) };
    out
}

/// [`copy_f32s`] for hosts whose `f32`s are not little-endian in memory.
fn extend_f32s_swapped(out: &mut Vec<f32>, bytes: &[u8]) {
    let floats = bytes.chunks_exact(4);
    out.extend(floats.map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::crc32;

    /// The decode this crate shipped before the single pass, kept as the
    /// oracle the one-pass [`decode_footed`] is compared against: one whole
    /// pass over the body for the CRC, then a second one to parse it.
    pub(crate) fn decode_two_pass<T>(
        bytes: &[u8],
        parse: impl FnOnce(&mut Reader<'_>) -> Result<T, FormatError>,
    ) -> Result<T, FormatError> {
        if bytes.len() < 4 {
            return Err(FormatError::Truncated {
                context: "crc footer",
            });
        }
        let (body, footer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(footer.try_into().unwrap());
        let computed = crc32(body);
        if stored != computed {
            return Err(FormatError::ChecksumMismatch { stored, computed });
        }
        parse(&mut Reader::new(body))
    }

    /// `body` with its CRC footer appended: hostile-but-checksummed input.
    pub(crate) fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        body
    }

    #[test]
    fn a_clone_shares_every_tensor_until_one_is_written() {
        let tensors = (0..3).map(|i| (format!("t{i}"), Tensor::full(&[8], i as f32)));
        let source = Checkpoint::new("m", 9, tensors.collect());
        let mut copy = source.clone();
        let shared = |a: &Checkpoint, b: &Checkpoint| -> Vec<bool> {
            let pairs = a.tensors.iter().zip(&b.tensors);
            pairs.map(|((_, x), (_, y))| x.same_storage(y)).collect()
        };
        assert_eq!(copy, source);
        assert_eq!(shared(&copy, &source), [true; 3]);
        // A write copies the one tensor it touches; the source is intact.
        copy.tensors[1].1.as_mut_slice()[0] = -1.0;
        assert_eq!(shared(&copy, &source), [true, false, true]);
        assert_eq!(source.tensors[1].1, Tensor::full(&[8], 1.0));
    }

    #[test]
    fn payload_bytes_sums_tensors() {
        let ckpt = Checkpoint::new(
            "m",
            3,
            vec![
                ("a".into(), Tensor::zeros(&[10])),
                ("b".into(), Tensor::zeros(&[2, 5])),
            ],
        );
        assert_eq!(ckpt.payload_bytes(), 80);
        assert_eq!(ckpt.ntensors(), 2);
        assert!(ckpt.tensor("a").is_some());
        assert!(ckpt.tensor("c").is_none());
    }

    #[test]
    fn reader_detects_truncation() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32("x"), Err(FormatError::Truncated { .. })));
    }

    #[test]
    fn reader_roundtrips_primitives() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdeadbeef);
        put_u64(&mut buf, 42);
        put_string(&mut buf, "hello");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32("a").unwrap(), 0xdeadbeef);
        assert_eq!(r.u64("b").unwrap(), 42);
        assert_eq!(r.string("c").unwrap(), "hello");
        assert_eq!(r.position(), buf.len());
    }

    #[test]
    fn f32_bytes_roundtrip() {
        let v = vec![1.5f32, -2.25, 0.0, f32::MAX];
        let mut bytes = Vec::new();
        put_f32s(&mut bytes, &v);
        assert_eq!(bytes.len(), v.len() * 4);
        assert_eq!(bytes_to_f32s(&bytes).unwrap(), v);
        assert!(bytes_to_f32s(&[0, 1, 2]).is_err());
    }

    #[test]
    fn swapped_fallbacks_agree_with_the_memcpy_paths() {
        // The big-endian fallbacks are dead code on this host; call them
        // directly so they stay compiled and correct.
        let v: Vec<f32> = (0..1000).map(|i| i as f32 * 0.37 - 5.0).collect();
        let mut want = Vec::new();
        for x in &v {
            want.extend_from_slice(&x.to_le_bytes());
        }
        let mut swapped = vec![0xAA];
        put_f32s_swapped(&mut swapped, &v);
        assert_eq!(swapped[1..], want[..]);
        let mut fast = vec![0xAA];
        put_f32s(&mut fast, &v);
        assert_eq!(fast, swapped);

        let mut back = vec![9.0f32];
        extend_f32s_swapped(&mut back, &want);
        assert_eq!(back[1..], v[..]);
        assert_eq!(bytes_to_f32s(&want).unwrap(), v);
    }

    #[test]
    fn copy_f32s_checksums_what_it_copies_across_chunk_boundaries() {
        let v: Vec<f32> = (0..2503).map(|i| i as f32 * 0.37 - 5.0).collect();
        let mut bytes = Vec::new();
        put_f32s(&mut bytes, &v);
        assert_eq!(copy_f32s(&bytes, None), v);
        // The bytes cut into chunks, each copied by a call of its own (as
        // the reader copies tensor by tensor), behind a prefix already
        // rolled: one CRC of the prefix and every copied byte.
        let mut want = Crc32::new();
        want.update(b"prefix");
        want.update(&bytes);
        for chunk in [4usize, 64, 1000, 4096, 1 << 20] {
            let mut crc = Crc32::new();
            crc.update(b"prefix");
            let copied: Vec<f32> = bytes
                .chunks(chunk)
                .flat_map(|piece| copy_f32s(piece, Some(&mut crc)))
                .collect();
            assert_eq!(copied, v, "chunk {chunk}");
            assert!(copy_f32s(&[], Some(&mut crc)).is_empty());
            assert_eq!(crc.finalize(), want.finalize(), "chunk {chunk}");
        }
    }

    /// One tensor record (`w`, dims `[3]`, the pad, 1 2 3), then a `u32`.
    fn record() -> Vec<u8> {
        let mut buf = Vec::new();
        put_string(&mut buf, "w");
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 3);
        put_pad(&mut buf);
        put_f32s(&mut buf, &[1.0, 2.0, 3.0]);
        put_u32(&mut buf, 0xFEED);
        buf
    }

    #[test]
    fn checksummed_reader_covers_the_whole_buffer_however_far_parsing_got() {
        let buf = record();
        // Parsed to the end, stopped half way, and not parsed at all.
        let mut r = Reader::checksummed(&buf);
        let (name, t) = r.tensor().unwrap();
        assert_eq!((name.as_str(), t.as_slice()), ("w", &[1.0, 2.0, 3.0][..]));
        assert!(!t.is_shared(), "a checksummed reader copies");
        assert_eq!(r.u32("tail").unwrap(), 0xFEED);
        assert_eq!(r.finish_crc(), crc32(&buf));
        let mut r = Reader::checksummed(&buf);
        r.tensor().unwrap();
        assert_eq!(r.finish_crc(), crc32(&buf));
        let cut = &buf[..buf.len() - 9];
        let mut r = Reader::checksummed(cut);
        assert!(matches!(r.tensor(), Err(FormatError::Truncated { .. })));
        assert_eq!(r.finish_crc(), crc32(cut));
        assert_eq!(Reader::checksummed(&buf).finish_crc(), crc32(&buf));
    }

    #[test]
    fn a_shared_source_is_viewed_where_aligned_and_copied_elsewhere() {
        let buf = record();
        // The record behind 0-7 bytes of lead: the payload's address takes
        // every residue mod 4, and only 0 is viewed.
        for lead in 0..8 {
            let mut bytes = vec![0xAB; lead];
            bytes.extend_from_slice(&buf);
            let shared = Payload::from(bytes).slice(lead..);
            let (_, t) = Reader::over(Source::payload(&shared)).tensor().unwrap();
            assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0]);
            let at = shared.as_ptr().wrapping_add(20);
            assert_eq!(t.is_shared(), at.align_offset(4) == 0, "lead {lead}");
            if t.is_shared() {
                assert_eq!(t.as_bytes().as_ptr(), at, "a view of the bytes in place");
                assert_eq!(shared.ref_count(), 2, "the view holds the allocation");
            }
            let (_, copy) = Reader::new(&shared).tensor().unwrap();
            assert!(!copy.is_shared());
        }
    }

    #[test]
    fn pads_must_be_present_and_zero() {
        let buf = record();
        // `w` ends the name at 5, the rank at 9, the dim at 17: 3 pad bytes.
        assert_eq!(&buf[17..20], &[0, 0, 0]);
        for at in 17..20 {
            let mut bad = buf.clone();
            bad[at] = 1;
            let got = Reader::new(&bad).tensor();
            assert!(matches!(got, Err(FormatError::Corrupt(_))), "{got:?}");
        }
        for len in 17..20 {
            let got = Reader::new(&buf[..len]).tensor();
            assert_eq!(
                got,
                Err(FormatError::Truncated {
                    context: "tensor pad"
                })
            );
        }
        assert_eq!(
            (0..8).map(pad_len).collect::<Vec<_>>(),
            [0, 3, 2, 1, 0, 3, 2, 1]
        );
    }

    #[test]
    fn take_of_a_huge_length_is_truncation_not_wraparound() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.take(1, "a").unwrap();
        // pos + n would wrap to 0 and pass a `pos + n > len` test.
        for n in [usize::MAX, usize::MAX - 1, 3] {
            assert!(matches!(r.take(n, "b"), Err(FormatError::Truncated { .. })));
        }
        assert_eq!(r.take(2, "c").unwrap(), &[2, 3]);
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&buf).count(12, "n").unwrap(), 2);
        assert!(Reader::new(&buf).count(13, "n").is_err());
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        huge.extend_from_slice(&[0; 64]);
        assert!(matches!(
            Reader::new(&huge).count(4, "n"),
            Err(FormatError::Truncated { context: "n" })
        ));
    }

    #[test]
    fn tensor_header_rejects_dims_whose_product_overflows() {
        let header = |dims: &[u64]| {
            let mut buf = Vec::new();
            put_string(&mut buf, "t");
            put_u32(&mut buf, dims.len() as u32);
            for &d in dims {
                put_u64(&mut buf, d);
            }
            buf
        };
        // 2^63 * 2 wraps to 0 elements; 2^62 elements wrap to 0 bytes.
        for dims in [&[1 << 63, 2][..], &[1 << 62], &[u64::MAX, u64::MAX]] {
            let buf = header(dims);
            let got = Reader::new(&buf).tensor_header();
            assert!(matches!(got, Err(FormatError::Corrupt(_))), "{dims:?}");
        }
        // A zero dim makes any shape empty, and a rank-0 shape one scalar.
        let buf = header(&[1 << 62, 0]);
        assert_eq!(Reader::new(&buf).tensor_header().unwrap().2, 0);
        let buf = header(&[]);
        assert_eq!(Reader::new(&buf).tensor_header().unwrap().2, 4);
    }

    #[test]
    fn reader_rejects_huge_strings() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.string("s"), Err(FormatError::Corrupt(_))));
    }
}
