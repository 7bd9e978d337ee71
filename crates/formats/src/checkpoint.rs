//! The in-memory checkpoint representation shared by all formats.

use viper_tensor::Tensor;

/// A snapshot of a DNN model's state: named weight tensors plus the
/// training iteration it was captured at.
#[derive(Debug, PartialEq)]
pub struct Checkpoint {
    /// Model name.
    pub model_name: String,
    /// Training iteration at capture time.
    pub iteration: u64,
    /// Named weight tensors, in layer order.
    pub tensors: Vec<(String, Tensor)>,
}

impl Clone for Checkpoint {
    fn clone(&self) -> Self {
        Checkpoint {
            model_name: self.model_name.clone(),
            iteration: self.iteration,
            tensors: self.tensors.clone(),
        }
    }

    /// Overwrites `self` tensor by tensor, reusing each tensor's buffer
    /// (and each name's) where `self` already has one: re-snapshotting a
    /// model of unchanged layout into a spent snapshot allocates nothing,
    /// where `clone` allocates the whole model afresh.
    fn clone_from(&mut self, source: &Self) {
        self.model_name.clone_from(&source.model_name);
        self.iteration = source.iteration;
        self.tensors.truncate(source.tensors.len());
        for ((name, tensor), (src_name, src)) in self.tensors.iter_mut().zip(&source.tensors) {
            name.clone_from(src_name);
            tensor.clone_from(src);
        }
        let have = self.tensors.len();
        self.tensors.extend_from_slice(&source.tensors[have..]);
    }
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

/// Little-endian cursor helpers shared by the format implementations.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub(crate) fn take(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<&'a [u8], FormatError> {
        if self.pos + n > self.buf.len() {
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
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
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

/// Append `f32`s as little-endian bytes directly onto `out` — no
/// intermediate `Vec<u8>`. This is the materializing twin of
/// `StreamingEncoder::put_f32s`; both exist so the legacy encode path
/// (kept as the byte-identity oracle) writes tensors without the
/// `f32s_to_bytes` copy it used to make.
pub(crate) fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    out.reserve(data.len() * 4);
    for &x in data {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

pub(crate) fn bytes_to_f32s(bytes: &[u8]) -> Result<Vec<f32>, FormatError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(FormatError::Corrupt(
            "tensor payload not a multiple of 4 bytes".into(),
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_reuses_tensor_buffers_across_layout_changes() {
        let ckpt = |iteration, sizes: &[usize]| {
            let tensors = sizes.iter().enumerate();
            let tensors = tensors.map(|(i, &n)| (format!("t{i}"), Tensor::full(&[n], i as f32)));
            Checkpoint::new("m", iteration, tensors.collect())
        };
        let source = ckpt(9, &[8, 8, 4]);
        // Same layout: every tensor lands in the buffer that was there.
        let mut spent = ckpt(7, &[8, 8, 4]);
        let buffers = |c: &Checkpoint| -> Vec<*const f32> {
            let tensors = c.tensors.iter();
            tensors.map(|(_, t)| t.as_slice().as_ptr()).collect()
        };
        let before = buffers(&spent);
        spent.clone_from(&source);
        assert_eq!(spent, source);
        assert_eq!(buffers(&spent), before);
        // Fewer, more, renamed or resized tensors: still an exact clone.
        for mut other in [ckpt(1, &[8]), ckpt(2, &[2, 2, 2, 2, 2]), ckpt(3, &[])] {
            other.model_name = "other".into();
            other.clone_from(&source);
            assert_eq!(other, source);
        }
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
    fn reader_rejects_huge_strings() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.string("s"), Err(FormatError::Corrupt(_))));
    }
}
