//! Property tests: every format round-trips arbitrary checkpoints exactly,
//! corruption never decodes successfully into a *different* checkpoint, and
//! `delta::apply_owned(base, diff(base, new))` reconstructs `new` bitwise.

use proptest::prelude::*;
use viper_formats::{delta, Checkpoint, CheckpointFormat, H5Lite, ViperFormat};
use viper_tensor::Tensor;

fn arb_tensor() -> impl Strategy<Value = Tensor> {
    (
        1usize..5,
        1usize..5,
        prop::collection::vec(-1000.0f32..1000.0, 0..25),
    )
        .prop_map(|(a, b, data)| {
            let n = a * b;
            let mut d = data;
            d.resize(n, 0.25);
            Tensor::from_vec(d, &[a, b]).unwrap()
        })
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        "[a-z]{1,12}",
        0u64..1_000_000,
        prop::collection::vec(("[a-z/_]{1,20}", arb_tensor()), 0..6),
    )
        .prop_map(|(name, iter, tensors)| Checkpoint::new(name, iter, tensors))
}

/// Any rank 0-4 with extents 0-3, so zero-element tensors appear; one
/// tensor in four is instead a vector of up to 40 000 elements, long enough
/// for `H5Lite` to split it into several 60 KiB chunks.
fn arb_shaped_tensor() -> impl Strategy<Value = Tensor> {
    (
        prop::collection::vec(0usize..4, 0..5),
        0usize..40_000,
        0u8..4,
    )
        .prop_map(|(dims, long, pick)| {
            let dims = if pick == 0 { vec![long] } else { dims };
            Tensor::full(&dims, 1.5)
        })
}

/// Names of 0-64 bytes, multi-byte UTF-8 included, under any model name.
fn arb_shaped_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        "[a-zA-Z0-9 ._/é中😀]{0,40}",
        0u64..u64::MAX,
        prop::collection::vec(("[a-z/_0-9é中😀]{0,16}", arb_shaped_tensor()), 0..8),
    )
        .prop_map(|(name, iter, tensors)| Checkpoint::new(name, iter, tensors))
}

/// Elements drawn as raw bit patterns, so NaNs (any payload), ±0.0,
/// infinities, and subnormals all appear — the values where `PartialEq`
/// and byte equality disagree.
fn arb_bits_tensor() -> impl Strategy<Value = Tensor> {
    (
        1usize..5,
        1usize..5,
        prop::collection::vec((0u32..=u32::MAX).prop_map(f32::from_bits), 0..25),
    )
        .prop_map(|(a, b, data)| {
            let n = a * b;
            let mut d = data;
            d.resize(n, f32::from_bits(0x8000_0000)); // pad with -0.0
            Tensor::from_vec(d, &[a, b]).unwrap()
        })
}

/// A fine-tuning-shaped pair: same tensor set, a random subset of tensors
/// mutated, and the new checkpoint's tensor order shuffled by rotation.
fn arb_finetune_pair() -> impl Strategy<Value = (Checkpoint, Checkpoint)> {
    (
        "[a-z]{1,8}",
        0u64..1_000_000,
        prop::collection::vec(
            (
                "t[a-z/_]{0,12}[0-9]",
                arb_bits_tensor(),
                (0u8..2).prop_map(|b| b == 1),
                arb_bits_tensor(),
            ),
            1..6,
        ),
        0usize..6,
    )
        .prop_map(|(name, iter, specs, rot)| {
            // Duplicate names would make diff/apply ambiguous; keep the
            // first occurrence of each.
            let mut seen = std::collections::HashSet::new();
            let mut base_tensors = Vec::new();
            let mut new_tensors = Vec::new();
            for (tname, tensor, mutate, replacement) in specs {
                if !seen.insert(tname.clone()) {
                    continue;
                }
                let new_tensor = if mutate { replacement } else { tensor.clone() };
                base_tensors.push((tname.clone(), tensor));
                new_tensors.push((tname, new_tensor));
            }
            let rot = rot % new_tensors.len().max(1);
            new_tensors.rotate_left(rot);
            (
                Checkpoint::new(name.clone(), iter, base_tensors),
                Checkpoint::new(name, iter + 1, new_tensors),
            )
        })
}

/// Bitwise checkpoint equality, keyed by tensor name (`apply` normalizes
/// to the base's tensor order by design, and `PartialEq` cannot see NaN
/// payloads or the sign of zero).
fn bits_equal(a: &Checkpoint, b: &Checkpoint) -> bool {
    let sorted = |c: &Checkpoint| {
        let mut v: Vec<(String, Tensor)> = c.tensors.clone();
        v.sort_by(|(x, _), (y, _)| x.cmp(y));
        v
    };
    a.model_name == b.model_name
        && a.iteration == b.iteration
        && a.tensors.len() == b.tensors.len()
        && sorted(a)
            .iter()
            .zip(&sorted(b))
            .all(|((an, at), (bn, bt))| {
                an == bn
                    && at.dims() == bt.dims()
                    && at
                        .as_slice()
                        .iter()
                        .zip(bt.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
}

proptest! {
    #[test]
    fn viper_format_roundtrips(ckpt in arb_checkpoint()) {
        let f = ViperFormat;
        prop_assert_eq!(f.decode(&f.encode(&ckpt)).unwrap(), ckpt);
    }

    #[test]
    fn h5lite_roundtrips(ckpt in arb_checkpoint()) {
        let f = H5Lite;
        prop_assert_eq!(f.decode(&f.encode(&ckpt)).unwrap(), ckpt);
    }

    #[test]
    fn h5lite_never_smaller_than_viper(ckpt in arb_checkpoint()) {
        prop_assert!(H5Lite.encode(&ckpt).len() >= ViperFormat.encode(&ckpt).len());
    }

    /// Any single-byte corruption either fails to decode or decodes to the
    /// original (CRC collisions are possible in theory but not with single
    /// byte flips over short streams).
    #[test]
    fn viper_format_detects_byte_flips(ckpt in arb_checkpoint(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let f = ViperFormat;
        let mut bytes = f.encode(&ckpt);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(f.decode(&bytes).is_err());
    }

    /// `apply_owned(base, diff(base, new))` reconstructs `new` bitwise — including
    /// NaN payloads, -0.0, and tensor lists the trainer re-ordered.
    #[test]
    fn delta_roundtrip_reconstructs_bitwise(pair in arb_finetune_pair()) {
        let (base, new) = pair;
        let d = delta::diff(&base, &new).unwrap();
        let (rebuilt, _) = delta::apply_owned(&base, d).unwrap();
        prop_assert!(bits_equal(&rebuilt, &new));
        // Reconstruction preserves the base's tensor order, so a consumer's
        // installed layout never churns when the trainer shuffles names.
        let names =
            |c: &Checkpoint| c.tensors.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        prop_assert_eq!(names(&rebuilt), names(&base));
    }

    /// The VIPD encoding round-trips losslessly: applying the decoded delta
    /// yields the same bits as applying the in-memory one. (Compared via
    /// re-apply, not `PartialEq`, which NaN payloads would defeat.)
    #[test]
    fn delta_encoding_roundtrips_bitwise(pair in arb_finetune_pair()) {
        let (base, new) = pair;
        let d = delta::diff(&base, &new).unwrap();
        let decoded = viper_formats::DeltaCheckpoint::decode(&d.encode()).unwrap();
        prop_assert_eq!(decoded.model_name.clone(), d.model_name.clone());
        prop_assert_eq!(decoded.base_iteration, d.base_iteration);
        prop_assert_eq!(decoded.iteration, d.iteration);
        let (rebuilt, _) = delta::apply_owned(&base, decoded).unwrap();
        prop_assert!(bits_equal(&rebuilt, &new));
    }

    /// `encoded_len` is exact: a save sizes, routes and charges a version
    /// by it without encoding.
    #[test]
    fn encoded_len_is_the_encodings_length(ckpt in arb_shaped_checkpoint()) {
        for f in [&ViperFormat as &dyn CheckpointFormat, &H5Lite] {
            prop_assert_eq!(f.encoded_len(&ckpt), f.encode(&ckpt).len(), "{}", f.name());
        }
    }

    #[test]
    fn encoded_size_estimates_track_reality(ckpt in arb_checkpoint()) {
        for f in [&ViperFormat as &dyn CheckpointFormat, &H5Lite] {
            let actual = f.encode(&ckpt).len() as i64;
            let predicted = f.encoded_size(ckpt.payload_bytes(), ckpt.ntensors()) as i64;
            // Estimates ignore exact name lengths and chunk fragmentation;
            // allow generous but bounded slack.
            prop_assert!((actual - predicted).abs() < 8192 + actual / 4,
                "{}: actual {actual} predicted {predicted}", f.name());
        }
    }
}
