//! Tensor-level partial access to serialized checkpoints.
//!
//! The paper cites DStore/EvoStore as repositories "optimized for partial
//! capture and retrieval of DNN model tensors, as needed by incremental
//! storage scenarios where the checkpoints change only partially (e.g.
//! transfer learning)". This module gives the lean Viper format the same
//! capability: walk the tensor directory of an encoded checkpoint without
//! materialising payloads, and decode exactly one tensor.
//!
//! Partial reads skip the whole-file CRC (verifying it would require
//! scanning every byte, defeating the point); use
//! [`crate::CheckpointFormat::decode`] when integrity matters more than
//! latency.

use crate::checkpoint::{bytes_to_f32s, Reader, MIN_TENSOR_RECORD};
use crate::{FormatError, ViperFormat};
use std::ops::Range;
use viper_tensor::Tensor;

/// One entry of a checkpoint's tensor directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorEntry {
    /// Tensor name (`layer/param`).
    pub name: String,
    /// Tensor shape.
    pub dims: Vec<usize>,
    /// Byte range of the raw f32 payload within the encoded stream.
    pub payload: Range<usize>,
}

impl TensorEntry {
    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.payload.len()
    }
}

impl ViperFormat {
    /// Walk the tensor directory of an encoded checkpoint (skipping
    /// payloads), returning name/shape/offset entries in file order.
    pub fn tensor_index(bytes: &[u8]) -> Result<Vec<TensorEntry>, FormatError> {
        if bytes.len() < 4 {
            return Err(FormatError::Truncated {
                context: "crc footer",
            });
        }
        let body = &bytes[..bytes.len() - 4];
        let mut r = Reader::new(body);
        if r.take(4, "magic")? != b"VIPR" {
            return Err(FormatError::BadMagic);
        }
        let _version = r.u32("version")?;
        let _name = r.string("model name")?;
        let _iteration = r.u64("iteration")?;
        let ntensors = r.count(MIN_TENSOR_RECORD, "tensor count")?;
        let mut entries = Vec::with_capacity(ntensors);
        for _ in 0..ntensors {
            let (name, dims, nbytes) = r.tensor_header()?;
            let start = r.position();
            r.skip(nbytes, "tensor payload")?;
            entries.push(TensorEntry {
                name,
                dims,
                payload: start..start + nbytes,
            });
        }
        Ok(entries)
    }

    /// Decode a single tensor by name from an encoded checkpoint, touching
    /// only its directory entry and payload bytes.
    pub fn read_tensor(bytes: &[u8], name: &str) -> Result<Tensor, FormatError> {
        let entries = Self::tensor_index(bytes)?;
        let entry = entries
            .into_iter()
            .find(|e| e.name == name)
            .ok_or_else(|| FormatError::Corrupt(format!("no tensor named {name}")))?;
        let payload = &bytes[entry.payload.clone()];
        let data = bytes_to_f32s(payload)?;
        Tensor::from_vec(data, &entry.dims).map_err(|e| FormatError::Corrupt(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Checkpoint, CheckpointFormat};

    fn sample() -> Checkpoint {
        Checkpoint::new(
            "m",
            9,
            vec![
                (
                    "conv/kernel".into(),
                    Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]).unwrap(),
                ),
                (
                    "conv/bias".into(),
                    Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap(),
                ),
                ("dense/kernel".into(), Tensor::full(&[10, 10], 0.5)),
            ],
        )
    }

    #[test]
    fn index_lists_all_tensors_in_order() {
        let bytes = ViperFormat.encode(&sample());
        let idx = ViperFormat::tensor_index(&bytes).unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx[0].name, "conv/kernel");
        assert_eq!(idx[0].dims, vec![2, 3, 4]);
        assert_eq!(idx[0].byte_len(), 24 * 4);
        assert_eq!(idx[2].name, "dense/kernel");
        // Ranges are disjoint and ascending.
        assert!(idx[0].payload.end <= idx[1].payload.start);
        assert!(idx[1].payload.end <= idx[2].payload.start);
    }

    #[test]
    fn read_tensor_matches_full_decode() {
        let ckpt = sample();
        let bytes = ViperFormat.encode(&ckpt);
        for (name, tensor) in &ckpt.tensors {
            let partial = ViperFormat::read_tensor(&bytes, name).unwrap();
            assert_eq!(&partial, tensor, "{name}");
        }
    }

    #[test]
    fn missing_tensor_is_an_error() {
        let bytes = ViperFormat.encode(&sample());
        assert!(matches!(
            ViperFormat::read_tensor(&bytes, "ghost"),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn partial_read_tolerates_payload_corruption_elsewhere() {
        // Corrupt the *last* tensor's payload; reading the first must still
        // succeed (that's the latency-for-integrity trade the API makes).
        let ckpt = sample();
        let mut bytes = ViperFormat.encode(&ckpt);
        let idx = ViperFormat::tensor_index(&bytes).unwrap();
        let last = idx.last().unwrap().payload.clone();
        bytes[last.start + 4] ^= 0xFF;
        let first = ViperFormat::read_tensor(&bytes, "conv/kernel").unwrap();
        assert_eq!(&first, ckpt.tensor("conv/kernel").unwrap());
        // Whereas the checked full decode rejects the corruption.
        assert!(ViperFormat.decode(&bytes).is_err());
    }

    #[test]
    fn index_rejects_foreign_bytes() {
        assert!(ViperFormat::tensor_index(b"definitely not a checkpoint").is_err());
        assert!(ViperFormat::tensor_index(&[]).is_err());
    }
}
