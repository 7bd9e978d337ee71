//! An HDF5-flavoured baseline format ("h5py" in the paper's figures).
//!
//! Real HDF5 files carry a 512-byte superblock, per-dataset object headers
//! with attribute messages, chunked dataset storage with a per-chunk b-tree
//! index, and alignment padding. `H5Lite` reproduces that structure — and
//! therefore its size and metadata-operation overhead — without the full
//! HDF5 feature set:
//!
//! ```text
//! superblock      : 512 B (magic, version, root group info, padding)
//! per dataset     :
//!   object header : 256 B (name, dtype/dataspace/attribute messages)
//!   chunks        : payload split into 60 KiB chunks, each preceded by a
//!                   4 KiB chunk header+btree entry (≈6.7% bloat on large
//!                   tensors, matching the h5py-vs-Viper gap in Fig. 8)
//! footer          : u32 dataset count + crc32
//! ```

use crate::checkpoint::{bytes_to_f32s, f32_bytes, put_f32s, put_string, put_u32, put_u64, Reader};
use crate::{crc32, Checkpoint, CheckpointFormat, FormatError};
use viper_tensor::Tensor;

const SUPERBLOCK_MAGIC: &[u8; 8] = b"\x89HDFlite";
const SUPERBLOCK_SIZE: usize = 512;
const OBJECT_HEADER_SIZE: usize = 256;
/// Payload bytes per chunk.
const CHUNK_DATA: usize = 60 * 1024;
/// Header + b-tree index entry bytes per chunk.
const CHUNK_HEADER: usize = 4 * 1024;

/// The h5py-style baseline format.
#[derive(Debug, Clone, Copy, Default)]
pub struct H5Lite;

fn chunk_count(payload: usize) -> usize {
    payload.div_ceil(CHUNK_DATA).max(1)
}

impl CheckpointFormat for H5Lite {
    fn name(&self) -> &'static str {
        "h5py"
    }

    fn encode(&self, ckpt: &Checkpoint) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len(ckpt));

        // Superblock.
        out.extend_from_slice(SUPERBLOCK_MAGIC);
        put_u32(&mut out, 0); // superblock version
        put_string(&mut out, &ckpt.model_name);
        put_u64(&mut out, ckpt.iteration);
        put_u32(&mut out, ckpt.tensors.len() as u32);
        assert!(
            out.len() <= SUPERBLOCK_SIZE,
            "superblock overflow for model {}",
            ckpt.model_name
        );
        out.resize(SUPERBLOCK_SIZE, 0);

        for (name, tensor) in &ckpt.tensors {
            // Object header block, zero-padded to its fixed size.
            let header_start = out.len();
            put_string(&mut out, name);
            put_u32(&mut out, tensor.dims().len() as u32);
            for &d in tensor.dims() {
                put_u64(&mut out, d as u64);
            }
            // Emulated attribute messages (dtype, fill value, creation time).
            put_string(&mut out, "float32");
            put_u64(&mut out, 0);
            assert!(
                out.len() - header_start <= OBJECT_HEADER_SIZE,
                "object header overflow for tensor {name}"
            );
            out.resize(header_start + OBJECT_HEADER_SIZE, 0);

            // Chunked payload. (H5Lite interleaves chunk headers with the
            // data, so it materializes per tensor; it is the emulated
            // *baseline*, not the hot path.)
            let mut payload = Vec::with_capacity(tensor.as_slice().len() * 4);
            put_f32s(&mut payload, tensor.as_slice());
            let nchunks = chunk_count(payload.len());
            put_u32(&mut out, nchunks as u32);
            for (ci, chunk) in payload.chunks(CHUNK_DATA.max(1)).enumerate() {
                let ch_start = out.len();
                put_u32(&mut out, ci as u32);
                put_u32(&mut out, chunk.len() as u32);
                put_u32(&mut out, crc32(chunk)); // fletcher32 stand-in
                out.resize(ch_start + CHUNK_HEADER, 0);
                out.extend_from_slice(chunk);
            }
            if payload.is_empty() {
                // Zero-length dataset still carries one (empty) chunk entry.
                let ch_start = out.len();
                put_u32(&mut out, 0);
                put_u32(&mut out, 0);
                put_u32(&mut out, crc32(&[]));
                out.resize(ch_start + CHUNK_HEADER, 0);
            }
        }

        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    fn encoded_len(&self, ckpt: &Checkpoint) -> usize {
        let datasets: usize = ckpt
            .tensors
            .iter()
            .map(|(_, tensor)| {
                let payload = tensor.byte_len();
                OBJECT_HEADER_SIZE + 4 + chunk_count(payload) * CHUNK_HEADER + payload
            })
            .sum();
        SUPERBLOCK_SIZE + datasets + 4
    }

    fn decode(&self, bytes: &[u8]) -> Result<Checkpoint, FormatError> {
        if bytes.len() < SUPERBLOCK_SIZE + 4 {
            return Err(FormatError::Truncated {
                context: "superblock",
            });
        }
        let (body, footer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(footer.try_into().unwrap());
        let computed = crc32(body);
        if stored != computed {
            return Err(FormatError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader::new(body);
        if r.take(8, "magic")? != SUPERBLOCK_MAGIC {
            return Err(FormatError::BadMagic);
        }
        let _version = r.u32("superblock version")?;
        let model_name = r.string("model name")?;
        let iteration = r.u64("iteration")?;
        // Every dataset costs at least its object header and chunk count.
        let ntensors = r.count(OBJECT_HEADER_SIZE + 4, "dataset count")?;
        let superblock_left = SUPERBLOCK_SIZE.checked_sub(r.position());
        let superblock_left =
            superblock_left.ok_or_else(|| FormatError::Corrupt("superblock overflows".into()))?;
        r.skip(superblock_left, "superblock padding")?;

        let mut tensors = Vec::with_capacity(ntensors);
        for _ in 0..ntensors {
            let header_start = r.position();
            let name = r.string("dataset name")?;
            let rank = r.u32("dataset rank")? as usize;
            if rank > 8 {
                return Err(FormatError::Corrupt(format!("unreasonable rank {rank}")));
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                let dim = usize::try_from(r.u64("dataset dim")?);
                dims.push(dim.map_err(|_| FormatError::Corrupt(format!("{name}: huge dim")))?);
            }
            let _dtype = r.string("dtype attribute")?;
            let _fill = r.u64("fill attribute")?;
            let header_left = (header_start + OBJECT_HEADER_SIZE).checked_sub(r.position());
            let header_left = header_left.ok_or_else(|| {
                FormatError::Corrupt(format!("dataset {name}: object header overflows"))
            })?;
            r.skip(header_left, "object header padding")?;

            let expected_payload = f32_bytes(&dims)
                .ok_or_else(|| FormatError::Corrupt(format!("dataset {name}: dims overflow")))?;
            if expected_payload > r.remaining() {
                return Err(FormatError::Truncated {
                    context: "dataset payload",
                });
            }
            let nchunks = r.u32("chunk count")? as usize;
            let mut payload = Vec::with_capacity(expected_payload);
            if expected_payload == 0 {
                // Consume the single empty chunk entry.
                r.skip(CHUNK_HEADER, "empty chunk")?;
            } else {
                for _ in 0..nchunks {
                    let ch_start = r.position();
                    let _ci = r.u32("chunk index")?;
                    let len = r.u32("chunk length")? as usize;
                    let chunk_crc = r.u32("chunk checksum")?;
                    r.skip(
                        ch_start + CHUNK_HEADER - r.position(),
                        "chunk header padding",
                    )?;
                    let chunk = r.take(len, "chunk payload")?;
                    if crc32(chunk) != chunk_crc {
                        return Err(FormatError::Corrupt("chunk checksum mismatch".into()));
                    }
                    payload.extend_from_slice(chunk);
                }
            }
            if payload.len() != expected_payload {
                return Err(FormatError::Corrupt(format!(
                    "dataset {name}: payload {} bytes, dataspace requires {expected_payload}",
                    payload.len()
                )));
            }
            let data = bytes_to_f32s(&payload)?;
            let tensor =
                Tensor::from_vec(data, &dims).map_err(|e| FormatError::Corrupt(e.to_string()))?;
            tensors.push((name, tensor));
        }
        Ok(Checkpoint {
            model_name,
            iteration,
            tensors,
        })
    }

    fn metadata_ops_factor(&self) -> f64 {
        // Superblock + object header + b-tree traversal per dataset ≈ 4x the
        // metadata accesses of the lean format.
        4.0
    }

    fn encoded_size(&self, payload_bytes: u64, ntensors: usize) -> u64 {
        let ntensors = ntensors.max(1) as u64;
        let per_tensor_payload = payload_bytes / ntensors;
        let chunks_per_tensor = chunk_count(per_tensor_payload as usize) as u64;
        SUPERBLOCK_SIZE as u64
            + payload_bytes
            + ntensors * (OBJECT_HEADER_SIZE as u64 + 4 + chunks_per_tensor * CHUNK_HEADER as u64)
            + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint::new(
            "ptychonn",
            100,
            vec![
                (
                    "enc/conv1".into(),
                    Tensor::from_vec((0..64).map(|x| x as f32).collect(), &[4, 4, 4]).unwrap(),
                ),
                (
                    "dec/amp".into(),
                    Tensor::from_vec(vec![1.0; 7], &[7]).unwrap(),
                ),
                ("empty".into(), Tensor::zeros(&[0])),
            ],
        )
    }

    #[test]
    fn roundtrip_exact() {
        let f = H5Lite;
        let ckpt = sample();
        assert_eq!(f.decode(&f.encode(&ckpt)).unwrap(), ckpt);
    }

    #[test]
    fn multi_chunk_tensor_roundtrips() {
        let f = H5Lite;
        // 100k floats = 400 KB > several 60 KiB chunks.
        let data: Vec<f32> = (0..100_000).map(|i| (i % 251) as f32 * 0.5).collect();
        let ckpt = Checkpoint::new(
            "big",
            1,
            vec![("w".into(), Tensor::from_vec(data, &[100_000]).unwrap())],
        );
        assert_eq!(f.decode(&f.encode(&ckpt)).unwrap(), ckpt);
    }

    #[test]
    fn bloat_exceeds_viper_format() {
        use crate::ViperFormat;
        let data: Vec<f32> = vec![1.0; 500_000]; // 2 MB
        let ckpt = Checkpoint::new(
            "m",
            1,
            vec![("w".into(), Tensor::from_vec(data, &[500_000]).unwrap())],
        );
        let h5 = H5Lite.encode(&ckpt).len() as f64;
        let lean = ViperFormat.encode(&ckpt).len() as f64;
        let bloat = h5 / lean;
        // Chunk headers add ≈6.7%.
        assert!(bloat > 1.05 && bloat < 1.10, "bloat {bloat}");
    }

    #[test]
    fn corruption_detected() {
        let f = H5Lite;
        let mut bytes = f.encode(&sample());
        let n = bytes.len();
        bytes[n / 2] ^= 0x80;
        assert!(f.decode(&bytes).is_err());
    }

    #[test]
    fn encoded_size_prediction_close() {
        let f = H5Lite;
        let data: Vec<f32> = vec![0.5; 200_000];
        let ckpt = Checkpoint::new(
            "m",
            1,
            vec![("w".into(), Tensor::from_vec(data, &[200_000]).unwrap())],
        );
        let actual = f.encode(&ckpt).len() as f64;
        let predicted = f.encoded_size(ckpt.payload_bytes(), ckpt.ntensors()) as f64;
        assert!(
            (actual - predicted).abs() / actual < 0.02,
            "actual {actual} predicted {predicted}"
        );
    }

    /// The superblock holds a model name of up to 484 bytes.
    const MAX_NAME: usize = SUPERBLOCK_SIZE - (8 + 4 + 4 + 8 + 4);

    #[test]
    fn the_longest_model_name_fills_the_superblock_exactly() {
        let ckpt = Checkpoint::new("n".repeat(MAX_NAME), 1, sample().tensors);
        let bytes = H5Lite.encode(&ckpt);
        assert_eq!(bytes.len(), H5Lite.encoded_len(&ckpt));
        assert_eq!(H5Lite.decode(&bytes).unwrap(), ckpt);
    }

    #[test]
    #[should_panic(expected = "superblock overflow")]
    fn a_model_name_past_the_superblock_is_refused_not_truncated() {
        H5Lite.encode(&Checkpoint::new("n".repeat(600), 1, vec![]));
    }

    #[test]
    fn a_name_length_past_the_superblock_is_corrupt() {
        // A well-formed file whose model name runs past the superblock:
        // what an untruncating encoder would write for a 600-byte name,
        // with the footer recomputed so only the layout is wrong.
        let mut bytes = SUPERBLOCK_MAGIC.to_vec();
        put_u32(&mut bytes, 0);
        put_string(&mut bytes, &"n".repeat(600));
        put_u64(&mut bytes, 1);
        put_u32(&mut bytes, 0);
        bytes.resize(bytes.len() + SUPERBLOCK_SIZE, 0);
        let crc = crc32(&bytes);
        put_u32(&mut bytes, crc);
        assert!(matches!(
            H5Lite.decode(&bytes),
            Err(FormatError::Corrupt(msg)) if msg.contains("superblock")
        ));
        // The same from a hostile length field on a 512-byte superblock:
        // the name runs into the first object header, whose padding reads
        // as a dataset count of zero.
        let mut bytes = H5Lite.encode(&sample());
        let hostile = 600u32;
        bytes[12..16].copy_from_slice(&hostile.to_le_bytes());
        let n = bytes.len() - 4;
        let crc = crc32(&bytes[..n]);
        bytes[n..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            H5Lite.decode(&bytes),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn metadata_factor_higher_than_lean() {
        use crate::ViperFormat;
        assert!(H5Lite.metadata_ops_factor() > ViperFormat.metadata_ops_factor());
    }
}
