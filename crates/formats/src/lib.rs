//! # viper-formats
//!
//! Checkpoint serialization formats.
//!
//! The paper's baseline shares checkpoints through `h5py` (HDF5), and notes
//! that Viper beats it even on the same PFS tier because Viper "only writes
//! the model weights and closely related metadata into the file, avoiding
//! some unnecessary metadata added by h5py" (§5.3). This crate implements
//! both sides of that comparison:
//!
//! * [`ViperFormat`] — a lean binary layout: header, tensor directory,
//!   contiguous payloads, CRC32 integrity footer.
//! * [`H5Lite`] — an HDF5-flavoured layout with a superblock, per-dataset
//!   object headers, and chunked storage with per-chunk headers and
//!   alignment padding, reproducing h5py's structural overhead.
//!
//! Both formats round-trip exactly; they differ in encoded size and in the
//! number of metadata operations they cost on a storage tier
//! ([`CheckpointFormat::metadata_ops_factor`]).

#![warn(missing_docs)]

mod checkpoint;
mod crc;
mod encoder;
mod h5lite;
mod payload;
mod split;
mod viper_format;

pub mod delta;
pub mod wire;

pub use checkpoint::{Checkpoint, FormatError};
pub use crc::{
    active_kernel, crc32, crc32_bytewise, crc32_combine, crc32_with, Crc32, Crc32Kernel, CrcFold,
    CrcShift,
};
pub use delta::DeltaCheckpoint;
pub use encoder::{EncodeArena, EncodedPayload, StreamMark, StreamingEncoder};
pub use h5lite::H5Lite;
pub use payload::Payload;
pub use split::crc32_runs;
pub use viper_format::ViperFormat;
pub use viper_tensor::split::share_count;
pub use wire::PayloadKind;

/// A checkpoint serialization format.
pub trait CheckpointFormat: Send + Sync {
    /// Short format name for reports (e.g. `"viper"`, `"h5py"`).
    fn name(&self) -> &'static str;

    /// Serialize a checkpoint.
    fn encode(&self, ckpt: &Checkpoint) -> Vec<u8>;

    /// Serialize a checkpoint into a [`StreamingEncoder`], producing bytes
    /// identical to [`encode`](Self::encode) while the encoder checksums
    /// them in the same pass. The default materializes through `encode`;
    /// formats on the hot path override it with a true streaming writer.
    /// The encoder may borrow `ckpt`'s tensors until its next CRC point.
    fn encode_into<'a>(&self, ckpt: &'a Checkpoint, enc: &mut StreamingEncoder<'a>) {
        enc.put_bytes(&self.encode(ckpt));
    }

    /// The exact length of [`encode`](Self::encode)'s output for `ckpt`,
    /// from its names, shapes and the layout alone: no tensor byte is
    /// read. A save sizes and routes a version by it before, or instead
    /// of, encoding it.
    fn encoded_len(&self, ckpt: &Checkpoint) -> usize;

    /// Deserialize and verify a checkpoint.
    fn decode(&self, bytes: &[u8]) -> Result<Checkpoint, FormatError>;

    /// [`decode`](Self::decode) for a caller that already holds
    /// `body_crc`, the CRC32 of `bytes` minus its 4-byte footer — a
    /// receiver that verified the bytes chunk by chunk has it without
    /// reading them again (`crc32_combine` over the chunk CRCs). The stored
    /// footer is still compared, against `body_crc`, and a disagreement is
    /// still [`FormatError::ChecksumMismatch`]; only the checksum pass over
    /// the body is skipped. A format whose tensor payloads are 4-aligned
    /// returns tensors that view `bytes`' allocation
    /// ([`Tensor::from_shared`](viper_tensor::Tensor::from_shared)) where
    /// the host allows it, so the body is not read at all; they keep the
    /// allocation alive. The default ignores the hint and self-verifies a
    /// copy.
    fn decode_verified(&self, bytes: &Payload, body_crc: u32) -> Result<Checkpoint, FormatError> {
        let _ = body_crc;
        self.decode(bytes)
    }

    /// How many metadata operations this format costs per tensor, relative
    /// to the lean format (1.0). HDF5-style files touch the superblock,
    /// object headers, and chunk b-trees for every dataset, multiplying the
    /// small-I/O cost on a PFS.
    fn metadata_ops_factor(&self) -> f64;

    /// Predicted encoded size for a payload of `payload_bytes` across
    /// `ntensors` tensors, without actually encoding. Used by the
    /// discrete-event simulator for paper-scale models.
    fn encoded_size(&self, payload_bytes: u64, ntensors: usize) -> u64;
}
