//! Wall-clock microbench for the producer hot path: serialize + per-chunk
//! CRC + chunk framing of a large checkpoint, legacy (materialize the
//! encoding, then a separate parallel CRC pass, then frame) vs fused (the
//! `StreamingEncoder` single pass: tensor bytes land in an arena buffer
//! while per-chunk CRCs accumulate over them, framing reuses the CRCs).
//!
//! Unlike the virtual-clock benches, this one measures *real* time with
//! `std::time::Instant` — the fused encode is a wall-clock optimisation
//! that leaves every modeled duration bit-identical. Results are written
//! to `BENCH_hotpath.json` at the workspace root, with a PR-over-PR
//! `history` array so the trajectory of this path survives re-runs. Pass
//! `--test` (as `cargo bench --bench hotpath -- --test` does in CI) for a
//! fast smoke run on a smaller checkpoint, and `--enforce` to exit
//! non-zero if the fused path regresses more than 10% behind the legacy
//! path.
//!
//! The consumer half is timed the same way: the self-verifying one-pass
//! `decode` (checksum each block, then copy it out) and `decode_verified`
//! (footer compared against a CRC the receiver already holds, no checksum
//! read at all) against the two-pass decode they replaced, rebuilt here
//! from public parts as a whole-body `crc32` followed by the parse.

use std::hint::black_box;
use std::time::Instant;
use viper_formats::{
    active_kernel, crc32, crc32_bytewise, crc32_combine, crc32_with, delta, wire, Checkpoint,
    CheckpointFormat, Crc32Kernel, EncodeArena, Payload, PayloadKind, StreamingEncoder,
    ViperFormat,
};
use viper_net::{chunk_sizes, ChunkHeader, WireBuf};
use viper_tensor::Tensor;

const CHUNK_BYTES: u64 = 4 * 1024 * 1024;

/// Label this era's history entry is recorded under (replaced in place on
/// re-runs, so the array tracks eras, not invocations).
const HISTORY_LABEL: &str = "pr16-single-touch-decode";

fn sample(elems: usize) -> Checkpoint {
    Checkpoint::new(
        "bench",
        1,
        (0..16)
            .map(|i| {
                (
                    format!("layer{i}/kernel"),
                    Tensor::full(&[elems / 16], i as f32 * 0.5),
                )
            })
            .collect(),
    )
}

/// How many tensors the diff benchmark's fine-tuning-shaped checkpoint
/// carries (1% of them change between iterations).
const DIFF_TENSORS: usize = 200;

/// Base/new pair for the streaming-diff benchmark: `DIFF_TENSORS` tensors
/// totalling `elems` f32s, with 1% of the tensors changed in `new` — the
/// fine-tuning shape where a delta is tiny but the compare is O(N).
fn diff_pair(elems: usize) -> (Checkpoint, Checkpoint, usize) {
    let per = elems / DIFF_TENSORS;
    let tensors: Vec<(String, Tensor)> = (0..DIFF_TENSORS)
        .map(|i| {
            (
                format!("block{:03}/kernel", i),
                Tensor::full(&[per], i as f32 * 0.25),
            )
        })
        .collect();
    let base = Checkpoint::new("bench", 1, tensors);
    let mut new = base.clone();
    new.iteration = 2;
    let changed = (DIFF_TENSORS / 100).max(1);
    for (_, t) in new.tensors.iter_mut().take(changed) {
        let mut data = t.as_slice().to_vec();
        for x in data.iter_mut() {
            *x += 1.0;
        }
        *t = Tensor::from_vec(data, t.dims()).unwrap();
    }
    (base, new, changed)
}

/// The materializing diff path: build a `DeltaCheckpoint` (cloning every
/// changed tensor), then stream-encode it behind the VPWP envelope.
fn full_diff_path(base: &Checkpoint, new: &Checkpoint) -> usize {
    let d = delta::diff(base, new).unwrap();
    let mut enc = StreamingEncoder::new(CHUNK_BYTES);
    enc.put_bytes(&wire::envelope(PayloadKind::Delta));
    d.encode_into(&mut enc);
    enc.finish().payload.len()
}

/// The streaming diff path as the codec now runs it: block-wise byte
/// compare flags changed tensors, `DiffSink` streams just those regions
/// into the framed wire form — no intermediate `DeltaCheckpoint`.
fn stream_diff_path(base: &Checkpoint, new: &Checkpoint) -> usize {
    let mut enc = StreamingEncoder::new(CHUNK_BYTES);
    enc.put_bytes(&wire::envelope(PayloadKind::Delta));
    delta::diff_into(base, new, &mut enc).unwrap();
    enc.finish().payload.len()
}

/// Median of `reps` timed runs of `f`, in seconds.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The legacy three-pass path: materialize the encoding (which itself
/// re-reads the tensor bytes for the CRC footer), run a separate
/// per-chunk CRC pass over the payload, then frame zero-copy subslices.
fn legacy_path(format: &dyn CheckpointFormat, ckpt: &Checkpoint) -> usize {
    use rayon::prelude::*;
    let payload = Payload::from(format.encode(ckpt));
    let sizes = chunk_sizes(payload.len() as u64, CHUNK_BYTES);
    let num_chunks = sizes.len() as u32;
    let offsets: Vec<u64> = sizes
        .iter()
        .scan(0u64, |acc, &len| {
            let at = *acc;
            *acc += len;
            Some(at)
        })
        .collect();
    let mut crcs = vec![0u32; sizes.len()];
    crcs.par_iter_mut().enumerate().for_each(|(i, c)| {
        let (at, len) = (offsets[i] as usize, sizes[i] as usize);
        *c = crc32(&payload[at..at + len]);
    });
    let mut wire = 0usize;
    for (i, &len) in sizes.iter().enumerate() {
        let offset = offsets[i];
        let body = payload.slice(offset as usize..(offset + len) as usize);
        let header = ChunkHeader {
            flow_id: 1,
            chunk_index: i as u32,
            num_chunks,
            offset,
            total_bytes: payload.len() as u64,
            crc32: crcs[i],
        };
        wire += WireBuf::framed(header.encode(), body).len();
    }
    wire
}

/// The fused single pass as the producer now runs it: tensor bytes stream
/// into a (recycled) arena buffer with per-chunk CRCs computed as they
/// land; framing reuses those CRCs, reading no payload byte a second time.
fn fused_path(ckpt: &Checkpoint, arena: &mut EncodeArena, capacity: usize) -> usize {
    let mut enc = StreamingEncoder::from_arena(arena, capacity, CHUNK_BYTES);
    ViperFormat.encode_into(ckpt, &mut enc);
    let encoded = enc.finish_into(arena);
    let payload = &encoded.payload;
    let sizes = chunk_sizes(payload.len() as u64, CHUNK_BYTES);
    let num_chunks = sizes.len() as u32;
    let mut wire = 0usize;
    let mut offset = 0u64;
    for (i, &len) in sizes.iter().enumerate() {
        let body = payload.slice(offset as usize..(offset + len) as usize);
        let header = ChunkHeader {
            flow_id: 1,
            chunk_index: i as u32,
            num_chunks,
            offset,
            total_bytes: payload.len() as u64,
            crc32: encoded.chunk_crcs[i],
        };
        wire += WireBuf::framed(header.encode(), body).len();
        offset += len;
    }
    wire
}

/// The two-pass decode the one-pass `decode` replaced: one whole read of
/// the body for its CRC, then the parse-and-copy read.
fn two_pass_decode(bytes: &[u8]) -> Checkpoint {
    let body_crc = crc32(&bytes[..bytes.len() - 4]);
    ViperFormat.decode_verified(bytes, body_crc).unwrap()
}

/// Extract the number after `"key":` (hand-rolled: no JSON dependency).
fn find_num(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the string after `"key":` (no escapes expected in our output).
fn find_str(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Split the top-level `{...}` objects out of a `history` array body.
fn split_objects(body: &str) -> Vec<String> {
    let mut objs = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = start.take() {
                        objs.push(body[s..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    objs
}

/// Prior `history` entries from an existing BENCH_hotpath.json, preserved
/// verbatim minus any entry carrying the current era's label. When the
/// file predates the history field, its headline numbers are converted
/// into a seed entry so the trajectory starts at the previous era.
fn prior_history(old: &str) -> Vec<String> {
    if let Some(at) = old.find("\"history\":") {
        let rest = &old[at..];
        let open = match rest.find('[') {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut depth = 0usize;
        let mut close = rest.len();
        for (i, c) in rest[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = open + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        return split_objects(&rest[open + 1..close])
            .into_iter()
            .filter(|obj| find_str(obj, "label").as_deref() != Some(HISTORY_LABEL))
            .collect();
    }
    // Pre-history file: seed the trajectory from its headline numbers
    // (the slice-by-8 zero-copy era's before/after serialize+crc+frame).
    match (find_num(old, "before_ms"), find_num(old, "after_ms")) {
        (Some(before), Some(after)) => vec![format!(
            concat!(
                "{{ \"label\": \"pr5-slice8-zero-copy\", ",
                "\"legacy_ms\": {:.3}, \"fused_ms\": {:.3}, ",
                "\"speedup\": {:.2} }}"
            ),
            before,
            after,
            before / after
        )],
        _ => Vec::new(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let enforce = std::env::args().any(|a| a == "--enforce");
    // 24 MiB of f32 weights full-size; 3 MiB in smoke mode.
    let (elems, reps) = if smoke { (1 << 19, 3) } else { (6 << 20, 9) };
    let ckpt = sample(elems);
    let format = &ViperFormat as &dyn CheckpointFormat;
    let payload = format.encode(&ckpt);
    let bytes = payload.len();
    let gib = bytes as f64 / (1u64 << 30) as f64;
    let mut arena = EncodeArena::new();

    // Identity first, outside the timed region: the fused pass must emit
    // byte-identical wire bytes (and the same framed volume).
    {
        let mut enc = StreamingEncoder::new(CHUNK_BYTES);
        ViperFormat.encode_into(&ckpt, &mut enc);
        assert_eq!(enc.finish().payload.as_slice(), &payload[..]);
    }
    assert_eq!(
        legacy_path(format, &ckpt),
        fused_path(&ckpt, &mut arena, bytes)
    );

    let crc_bytewise = time(reps, || crc32_bytewise(&payload));
    // Pin the kernels explicitly: `crc32` itself now dispatches, so the
    // table-kernel baseline must name slice-by-16 rather than trust the
    // dispatcher (which would pick the hardware kernel where available).
    let crc_slice16 = time(reps, || crc32_with(Crc32Kernel::Slice16, &payload));
    let hw_available = Crc32Kernel::Clmul.available();
    let crc_hw = if hw_available {
        time(reps, || crc32_with(Crc32Kernel::Clmul, &payload))
    } else {
        crc_slice16
    };
    // Split-and-combine: per-block CRCs (under the dispatched kernel, as
    // production runs it) merged algebraically — the path viper-net's
    // chunk CRC merge and the CrcPool ride.
    let crc_combine = time(reps, || {
        const BLOCK: usize = 256 * 1024;
        let mut acc = 0u32;
        let mut off = 0usize;
        while off < payload.len() {
            let end = (off + BLOCK).min(payload.len());
            acc = crc32_combine(acc, crc32(&payload[off..end]), (end - off) as u64);
            off = end;
        }
        acc
    });
    let legacy = time(reps, || legacy_path(format, &ckpt));
    let fused = time(reps, || fused_path(&ckpt, &mut arena, bytes));

    // Streaming diff at 1% changed tensors: identity first, untimed.
    let (diff_base, diff_new, diff_changed) = diff_pair(elems);
    {
        let mut full = StreamingEncoder::new(CHUNK_BYTES);
        full.put_bytes(&wire::envelope(PayloadKind::Delta));
        delta::diff(&diff_base, &diff_new)
            .unwrap()
            .encode_into(&mut full);
        let mut stream = StreamingEncoder::new(CHUNK_BYTES);
        stream.put_bytes(&wire::envelope(PayloadKind::Delta));
        delta::diff_into(&diff_base, &diff_new, &mut stream).unwrap();
        let (full, stream) = (full.finish(), stream.finish());
        assert_eq!(
            full.payload.as_slice(),
            stream.payload.as_slice(),
            "streaming diff wire bytes must match the materializing oracle"
        );
        assert_eq!(full.chunk_crcs, stream.chunk_crcs);
    }
    let diff_full = time(reps, || full_diff_path(&diff_base, &diff_new));
    let diff_stream = time(reps, || stream_diff_path(&diff_base, &diff_new));
    // Context row: what shipping this update costs with no delta base at
    // all — the fused full-checkpoint encode the codec falls back to.
    let full_update = time(reps, || {
        let mut enc = StreamingEncoder::new(CHUNK_BYTES);
        enc.put_bytes(&wire::envelope(PayloadKind::Full));
        ViperFormat.encode_into(&diff_new, &mut enc);
        enc.finish().payload.len()
    });

    // Consumer half: identity first, untimed.
    let body_crc = crc32(&payload[..bytes - 4]);
    assert_eq!(ViperFormat.decode(&payload).unwrap(), ckpt);
    assert_eq!(two_pass_decode(&payload), ckpt);
    assert_eq!(
        ViperFormat.decode_verified(&payload, body_crc).unwrap(),
        ckpt
    );
    let decode_two_pass = time(reps, || two_pass_decode(&payload));
    let decode_one_pass = time(reps, || ViperFormat.decode(&payload).unwrap());
    let decode_verified = time(reps, || {
        ViperFormat.decode_verified(&payload, body_crc).unwrap()
    });
    let (two_pass_ms, one_pass_ms, verified_ms) = (
        decode_two_pass * 1e3,
        decode_one_pass * 1e3,
        decode_verified * 1e3,
    );

    let (slice16_gib_s, combine_gib_s) = (gib / crc_slice16, gib / crc_combine);
    let hw_gib_s = if hw_available { gib / crc_hw } else { 0.0 };
    let (legacy_ms, fused_ms) = (legacy * 1e3, fused * 1e3);
    let (diff_full_ms, diff_stream_ms) = (diff_full * 1e3, diff_stream * 1e3);
    let entry = format!(
        concat!(
            "{{ \"label\": \"{label}\", ",
            "\"legacy_ms\": {lm:.3}, \"fused_ms\": {fm:.3}, ",
            "\"speedup\": {sp:.2}, ",
            "\"slice16_gib_s\": {s16:.3}, \"combine_gib_s\": {cmb:.3}, ",
            "\"hw_gib_s\": {hw:.3}, \"kernel\": \"{kernel}\", ",
            "\"diff_full_ms\": {dfm:.3}, \"diff_stream_ms\": {dsm:.3}, ",
            "\"diff_speedup\": {dsp:.2}, \"diff_vs_full_update\": {dusp:.2}, ",
            "\"decode_two_pass_ms\": {d2:.3}, \"decode_one_pass_ms\": {d1:.3}, ",
            "\"decode_verified_ms\": {dv:.3} }}"
        ),
        label = HISTORY_LABEL,
        lm = legacy_ms,
        fm = fused_ms,
        sp = legacy / fused,
        s16 = slice16_gib_s,
        cmb = combine_gib_s,
        hw = hw_gib_s,
        kernel = active_kernel().label(),
        dfm = diff_full_ms,
        dsm = diff_stream_ms,
        dsp = diff_full / diff_stream,
        dusp = full_update / diff_stream,
        d2 = two_pass_ms,
        d1 = one_pass_ms,
        dv = verified_ms,
    );

    // Cargo runs benches with the package dir as cwd; anchor the artifact
    // at the workspace root, where CI (and readers) look for it.
    let out = std::env::var("VIPER_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").into()
    });
    let old = std::fs::read_to_string(&out).unwrap_or_default();
    let mut history = prior_history(&old);
    // Render the PR-over-PR delta against the newest prior era before
    // appending this one.
    if let Some(prev) = history.last() {
        if let (Some(label), Some(prev_ms)) = (find_str(prev, "label"), find_num(prev, "fused_ms"))
        {
            println!(
                "history: {label} {prev_ms:.2} ms -> {HISTORY_LABEL} {fused_ms:.2} ms ({:.2}x)",
                prev_ms / fused_ms
            );
        }
    }
    history.push(entry);
    let history_json = history
        .iter()
        .map(|obj| format!("    {obj}"))
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        concat!(
            "{{\n",
            "  \"checkpoint_bytes\": {bytes},\n",
            "  \"chunk_bytes\": {chunk},\n",
            "  \"reps\": {reps},\n",
            "  \"smoke\": {smoke},\n",
            "  \"crc\": {{\n",
            "    \"kernel\": \"{kernel}\",\n",
            "    \"hw_available\": {hw_avail},\n",
            "    \"bytewise_gib_s\": {crc_b:.3},\n",
            "    \"slice16_gib_s\": {crc_s16:.3},\n",
            "    \"hw_gib_s\": {crc_hw:.3},\n",
            "    \"hw_over_slice16\": {hw_sp:.2},\n",
            "    \"combine_gib_s\": {crc_c:.3},\n",
            "    \"speedup\": {crc_sp:.2}\n",
            "  }},\n",
            "  \"serialize_crc_frame\": {{\n",
            "    \"legacy_ms\": {lm:.3},\n",
            "    \"fused_ms\": {fm:.3},\n",
            "    \"speedup\": {sp:.2}\n",
            "  }},\n",
            "  \"diff_stream\": {{\n",
            "    \"tensors\": {dt},\n",
            "    \"changed_tensors\": {dc},\n",
            "    \"full_update_ms\": {dum:.3},\n",
            "    \"full_ms\": {dfm:.3},\n",
            "    \"stream_ms\": {dsm:.3},\n",
            "    \"speedup\": {dsp:.2},\n",
            "    \"speedup_vs_full_update\": {dusp:.2}\n",
            "  }},\n",
            "  \"decode\": {{\n",
            "    \"two_pass_ms\": {d2:.3},\n",
            "    \"two_pass_gib_s\": {d2g:.3},\n",
            "    \"one_pass_ms\": {d1:.3},\n",
            "    \"one_pass_gib_s\": {d1g:.3},\n",
            "    \"verified_ms\": {dv:.3},\n",
            "    \"verified_gib_s\": {dvg:.3}\n",
            "  }},\n",
            "  \"history\": [\n{history}\n  ]\n",
            "}}\n"
        ),
        bytes = bytes,
        chunk = CHUNK_BYTES,
        reps = reps,
        smoke = smoke,
        kernel = active_kernel().label(),
        hw_avail = hw_available,
        crc_b = gib / crc_bytewise,
        crc_s16 = slice16_gib_s,
        crc_hw = hw_gib_s,
        hw_sp = if hw_available {
            crc_slice16 / crc_hw
        } else {
            1.0
        },
        crc_c = combine_gib_s,
        crc_sp = crc_bytewise / crc_slice16,
        lm = legacy_ms,
        fm = fused_ms,
        sp = legacy / fused,
        dt = DIFF_TENSORS,
        dc = diff_changed,
        dum = full_update * 1e3,
        dfm = diff_full_ms,
        dsm = diff_stream_ms,
        dsp = diff_full / diff_stream,
        dusp = full_update / diff_stream,
        d2 = two_pass_ms,
        d2g = gib / decode_two_pass,
        d1 = one_pass_ms,
        d1g = gib / decode_one_pass,
        dv = verified_ms,
        dvg = gib / decode_verified,
        history = history_json,
    );
    std::fs::write(&out, &json).expect("write BENCH_hotpath.json");
    println!("{json}");
    println!(
        "hotpath: {:.2} GiB checkpoint  serialize+crc+frame {:.1} ms (legacy) -> {:.1} ms (fused)  ({:.2}x)",
        gib, legacy_ms, fused_ms, legacy / fused
    );
    println!(
        "crc kernel: {} (slice16 {:.2} GiB/s, hw {:.2} GiB/s)  diff 1%: {:.2} ms (full) -> {:.2} ms (stream)  ({:.2}x)",
        active_kernel().label(),
        slice16_gib_s,
        hw_gib_s,
        diff_full_ms,
        diff_stream_ms,
        diff_full / diff_stream
    );
    println!(
        "decode: {:.2} ms / {:.2} GiB/s (two-pass) -> {:.2} ms / {:.2} GiB/s (one-pass) -> {:.2} ms / {:.2} GiB/s (verified)",
        two_pass_ms,
        gib / decode_two_pass,
        one_pass_ms,
        gib / decode_one_pass,
        verified_ms,
        gib / decode_verified
    );
    // CI regression gates: the fused pass must never fall more than 10%
    // behind the legacy three-pass path it replaced, the streaming diff
    // must never fall behind the materializing diff it replaced, and the
    // one-pass decode must never fall behind the two-pass decode.
    if enforce && fused_ms > legacy_ms * 1.10 {
        eprintln!(
            "REGRESSION: fused path {fused_ms:.2} ms is more than 10% behind legacy {legacy_ms:.2} ms"
        );
        std::process::exit(1);
    }
    if enforce && diff_stream_ms > diff_full_ms * 1.10 {
        eprintln!(
            "REGRESSION: streaming diff {diff_stream_ms:.2} ms is more than 10% behind materializing diff {diff_full_ms:.2} ms"
        );
        std::process::exit(1);
    }
    if enforce && one_pass_ms > two_pass_ms * 1.10 {
        eprintln!(
            "REGRESSION: one-pass decode {one_pass_ms:.2} ms is more than 10% behind two-pass decode {two_pass_ms:.2} ms"
        );
        std::process::exit(1);
    }
}
