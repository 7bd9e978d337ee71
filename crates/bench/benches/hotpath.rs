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
//! `decode` (each tensor checksummed by the pass that copies it out) and
//! `decode_verified` (footer compared against a CRC the receiver already
//! holds, no checksum read at all) against the two-pass decode they
//! replaced, rebuilt here from public parts as a whole-body `crc32`
//! followed by the parse; and the chunked receive as the consumer runs it
//! on a reassembled flow, per-chunk verify then `decode_verified`, taking
//! its footer verdict from the flow's verified chunk CRCs
//! (`AssembledFlow::body_crc`) inside the timed row. These rows time the
//! copy a decode makes where it cannot view the bytes: their payloads start
//! one byte past a 4-byte boundary ([`misaligned`]). `verify_then_view_ms`
//! is the same receive as the consumer meets it, over a 4-aligned shared
//! payload: every tensor is a view of the payload, so the receive only
//! checksums. The `crc_copy` section prices the primitive under all of it:
//! `memcpy`, `crc32`, `memcpy` then `crc32`, and `Crc32::update_copying`,
//! tensor by tensor. The `split` section times the two byte passes a
//! delivery splits across the host's cores against the same pass on one
//! share: the fused encode (one share: every tensor appended with
//! `put_bytes`, which copies and checksums on the calling thread) and the
//! receive verify of a drained batch (one share: each chunk's body CRC in
//! turn, what `FlowAssembler::accept` computes inline).
//!
//! Every section runs **hot** — one input, revisited by every repetition,
//! so at the 24 MiB full size (2 MiB under `--test`) it sits in a large
//! last-level cache — and, in a full-size run, **cold**: 128 MiB inputs and
//! outputs in [`COLD_SETS`] distinct copies visited round-robin, 1 GiB in
//! rotation, so every repetition finds its bytes in DRAM. The engine's
//! working set is of the second kind; a pass that reads bytes twice costs
//! little in the first mode and double in the second. `--test` skips the
//! cold mode and never writes the committed `BENCH_hotpath.json`: smoke
//! results go to `VIPER_BENCH_OUT`, by default under `target/`.

use std::hint::black_box;
use std::time::Instant;
use viper_formats::{
    active_kernel, crc32, crc32_bytewise, crc32_combine, crc32_runs, crc32_with, delta,
    share_count, wire, Checkpoint, CheckpointFormat, Crc32, Crc32Kernel, EncodeArena,
    EncodedPayload, Payload, PayloadKind, StreamingEncoder, ViperFormat,
};
use viper_hw::{MachineProfile, SimClock};
use viper_net::{
    chunk_body_crc, chunk_sizes, payload_chunk_crcs, AssembledFlow, ChunkHeader, ChunkedSend,
    Fabric, FlowAssembler, FlowStatus, LinkKind, Message, WireBuf,
};
use viper_tensor::Tensor;

const CHUNK_BYTES: u64 = 4 * 1024 * 1024;

/// Label this era's history entry is recorded under (replaced in place on
/// re-runs, so the array tracks eras, not invocations).
const HISTORY_LABEL: &str = "one-fork-join";

/// Tensors per sample checkpoint (and pieces per `crc_copy` pass).
const TENSORS: usize = 16;

/// Distinct copies of every input and output the cold mode rotates through.
const COLD_SETS: usize = 4;

/// `f32`s per cold checkpoint: 128 MiB, so [`COLD_SETS`] inputs and as many
/// outputs are 1 GiB in rotation, several times any last-level cache.
const COLD_ELEMS: usize = 32 << 20;

fn sample(elems: usize) -> Checkpoint {
    Checkpoint::new(
        "bench",
        1,
        (0..TENSORS)
            .map(|i| {
                (
                    format!("layer{i}/kernel"),
                    Tensor::full(&[elems / TENSORS], i as f32 * 0.5),
                )
            })
            .collect(),
    )
}

/// How many tensors the diff benchmark's fine-tuning-shaped checkpoint
/// carries (1% of them change between iterations).
const DIFF_TENSORS: usize = 200;

/// Base and targets for the streaming-diff benchmark: `DIFF_TENSORS`
/// tensors totalling `elems` f32s, with 1% of the tensors changed in the
/// targets — the fine-tuning shape where a delta is tiny. The first target
/// holds every tensor as an equal copy of its own, so the compare is O(N)
/// byte reads; the second is the save path's shape, `base.clone()` with
/// the same tensors rewritten, whose unchanged tensors share the base's
/// storage and are never read.
fn diff_pair(elems: usize) -> (Checkpoint, Checkpoint, Checkpoint, usize) {
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
    let mut shared = base.clone();
    shared.iteration = 2;
    let changed = (DIFF_TENSORS / 100).max(1);
    for (_, t) in shared.tensors.iter_mut().take(changed) {
        t.map_inplace(|x| x + 1.0);
    }
    let copies = shared.tensors.iter().map(|(name, t)| {
        let copy = Tensor::from_vec(t.as_slice().to_vec(), t.dims()).unwrap();
        (name.clone(), copy)
    });
    let copied = Checkpoint::new("bench", 2, copies.collect());
    (base, copied, shared, changed)
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

/// The streaming diff path as the codec runs it: tensors sharing the
/// base's storage are unchanged unread, a block-wise byte compare flags the
/// rest, and just the changed regions stream into the framed wire form —
/// no intermediate `DeltaCheckpoint`.
fn stream_diff_path(base: &Checkpoint, new: &Checkpoint) -> usize {
    let mut enc = StreamingEncoder::new(CHUNK_BYTES);
    enc.put_bytes(&wire::envelope(PayloadKind::Delta));
    delta::diff_into(base, new, &mut enc).unwrap();
    enc.finish().payload.len()
}

/// The full the codec falls back to with no delta base, encoded as
/// `save_weights` encodes it under delta delivery: the VPWP envelope, then
/// the fused encode, into a (recycled) arena buffer.
fn framed_full_path(ckpt: &Checkpoint, arena: &mut EncodeArena, capacity: usize) -> usize {
    let mut enc = StreamingEncoder::from_arena(arena, capacity, CHUNK_BYTES);
    enc.put_bytes(&wire::envelope(PayloadKind::Full));
    ViperFormat.encode_into(ckpt, &mut enc);
    enc.finish_into(arena).payload.len()
}

/// The fused encode as `save_weights` runs it: split across the host's
/// cores once it is large enough.
fn split_encode(ckpt: &Checkpoint, arena: &mut EncodeArena, capacity: usize) -> EncodedPayload {
    let mut enc = StreamingEncoder::from_arena(arena, capacity, CHUNK_BYTES);
    ViperFormat.encode_into(ckpt, &mut enc);
    enc.finish_into(arena)
}

/// The same encode on one share: `ViperFormat`'s layout through the
/// encoder's public writers, every tensor appended with `put_bytes`, which
/// copies and checksums it at once on the calling thread.
fn one_share_encode(ckpt: &Checkpoint, arena: &mut EncodeArena, capacity: usize) -> EncodedPayload {
    let mut enc = StreamingEncoder::from_arena(arena, capacity, CHUNK_BYTES);
    let mark = enc.mark();
    enc.put_bytes(b"VIPR");
    enc.put_u32(2);
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
        enc.put_bytes(tensor.as_bytes());
    }
    let crc = enc.crc_since(mark);
    enc.put_u32(crc);
    enc.finish_into(arena)
}

/// The receive verify as a drain runs it: one fork-join over the batch's
/// bodies, or, for a batch too small to split (or on a one-core host),
/// the inline checksum of each body.
fn split_verify(batch: &[Message]) -> Vec<Option<u32>> {
    let crcs = FlowAssembler::verify_batch(batch);
    match crcs.is_empty() {
        true => one_share_verify(batch),
        false => crcs,
    }
}

/// The same verify on one share: each chunk's body CRC in turn.
fn one_share_verify(batch: &[Message]) -> Vec<Option<u32>> {
    batch.iter().map(chunk_body_crc).collect()
}

/// Median of `reps` timed runs of `f`, in seconds. `f` is handed the
/// repetition's number, which the cold mode turns into the input set to
/// visit.
fn time<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    median(
        (0..reps)
            .map(|rep| {
                let t0 = Instant::now();
                black_box(f(rep));
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Medians of `reps` timed runs of each side of a gated pair, `f(rep, 0)`
/// and `f(rep, 1)`, in seconds. Every repetition runs both sides, and which
/// one goes first alternates, so that a stretch of host noise, or the
/// cache state one side leaves behind, falls on both sides alike: a gate
/// compares the pair, not two batches timed apart.
fn time_pair<T>(reps: usize, mut f: impl FnMut(usize, usize) -> T) -> [f64; 2] {
    let mut samples = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    for rep in 0..reps {
        for turn in 0..2 {
            let side = (rep + turn) % 2;
            let t0 = Instant::now();
            black_box(f(rep, side));
            samples[side].push(t0.elapsed().as_secs_f64());
        }
    }
    samples.map(median)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The legacy three-pass path: materialize the encoding (which itself
/// re-reads the tensor bytes for the CRC footer), run a separate
/// per-chunk CRC pass over the payload, then frame zero-copy subslices.
fn legacy_path(format: &dyn CheckpointFormat, ckpt: &Checkpoint) -> usize {
    let payload = Payload::from(format.encode(ckpt));
    // A non-empty payload in `CHUNK_BYTES` chunks, as `chunk_sizes` cuts it.
    let chunks: Vec<&[u8]> = payload.chunks(CHUNK_BYTES as usize).collect();
    let crcs = crc32_runs(&chunks, share_count(payload.len()));
    let mut wire = 0usize;
    for (i, chunk) in chunks.iter().enumerate() {
        let offset = i * CHUNK_BYTES as usize;
        let body = payload.slice(offset..offset + chunk.len());
        let header = ChunkHeader {
            flow_id: 1,
            chunk_index: i as u32,
            num_chunks: chunks.len() as u32,
            offset: offset as u64,
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
/// the body for its CRC, then the parse-and-copy read (of a [`misaligned`]
/// payload, which cannot be viewed).
fn two_pass_decode(bytes: &Payload) -> Checkpoint {
    let body_crc = crc32(&bytes[..bytes.len() - 4]);
    ViperFormat.decode_verified(bytes, body_crc).unwrap()
}

/// `bytes` in a shared payload that starts one byte past a 4-byte
/// boundary, so that no tensor payload in it is 4-aligned: a decode of it
/// copies every tensor out, as it does bytes it cannot view.
fn misaligned(bytes: &[u8]) -> Payload {
    let mut buf = Vec::with_capacity(bytes.len() + 1);
    buf.push(0);
    buf.extend_from_slice(bytes);
    Payload::from(buf).slice(1..)
}

/// `payload` sent as a `CHUNK_BYTES`-chunked flow, as the consumer drains
/// it: one batch of chunks whose bodies are views of the payload.
fn received(payload: &Payload) -> Vec<Message> {
    let fabric = Fabric::new(MachineProfile::polaris(), SimClock::new());
    let (producer, consumer) = (fabric.register("p"), fabric.register("c"));
    let opts = ChunkedSend::new(CHUNK_BYTES);
    producer
        .send_chunked("c", "m:1", payload.clone(), LinkKind::GpuDirect, &opts)
        .unwrap();
    std::iter::from_fn(|| consumer.try_recv()).collect()
}

/// `payload` as the consumer's assembler releases it: sent as a
/// `CHUNK_BYTES`-chunked flow and reassembled, a view of the same bytes.
fn assembled(payload: &Payload) -> Box<AssembledFlow> {
    let mut asm = FlowAssembler::new();
    for msg in received(payload) {
        if let FlowStatus::Complete(flow) = asm.accept(msg) {
            return flow;
        }
    }
    panic!("a fault-free flow completes")
}

/// The chunked receive as the consumer runs it on every flow: every chunk
/// is checksummed (what `FlowAssembler::accept` computes inline), then
/// the footer verdict from the verified chunk CRCs, then `decode_verified`,
/// which views each 4-aligned tensor payload and reads the payload again
/// only to copy out the others.
fn two_pass_receive(flow: &AssembledFlow) -> Checkpoint {
    black_box(payload_chunk_crcs(&flow.payload, CHUNK_BYTES));
    ViperFormat
        .decode_verified(&flow.payload, flow.body_crc(0))
        .unwrap()
}

/// `src` into `dst` a tensor-sized piece at a time — the granularity the
/// encoder appends and the reader copies at — by `piece(crc, from, to)`.
/// Returns the CRC the pieces rolled, for the identity check.
fn piecewise(
    src: &[u8],
    dst: &mut Vec<u8>,
    mut piece: impl FnMut(&mut Crc32, &[u8], &mut Vec<u8>),
) -> u32 {
    dst.clear();
    let mut crc = Crc32::new();
    for from in src.chunks(src.len().div_ceil(TENSORS)) {
        piece(&mut crc, from, dst);
    }
    crc.finalize()
}

/// `memcpy` a piece, then checksum the copy: what the encoder's
/// `put_f32s` + `absorb` and the reader's CRC-then-copy blocks both
/// amounted to before `update_copying`.
fn copy_then_crc(crc: &mut Crc32, from: &[u8], to: &mut Vec<u8>) {
    let at = to.len();
    to.extend_from_slice(from);
    crc.update(&to[at..]);
}

/// One pass: each block stored as it is folded into the CRC.
fn copy_while_crc(crc: &mut Crc32, from: &[u8], to: &mut Vec<u8>) {
    crc.update_copying(from, &mut to.spare_capacity_mut()[..from.len()]);
    // SAFETY: `update_copying` initialised the `from.len()` bytes of spare
    // capacity behind `len` (the caller reserved the whole source's worth).
    unsafe { to.set_len(to.len() + from.len()) };
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

/// Median seconds of every timed row at one size and in one cache mode.
struct Rows {
    /// Bytes of one encoded checkpoint.
    bytes: usize,
    reps: usize,
    crc_bytewise: f64,
    crc_slice16: f64,
    /// The hardware kernel's time (the slice-by-16 time where there is none).
    crc_hw: f64,
    crc_combine: f64,
    memcpy: f64,
    crc_only: f64,
    memcpy_then_crc: f64,
    update_copying: f64,
    legacy: f64,
    fused: f64,
    diff_changed: usize,
    diff_full: f64,
    diff_stream: f64,
    diff_shared: f64,
    full_update: f64,
    decode_two_pass: f64,
    decode_one_pass: f64,
    decode_verified: f64,
    verify_then_decode: f64,
    verify_then_view: f64,
    /// Shares the split passes cut a checkpoint of this size into here.
    shares: usize,
    encode_one_share: f64,
    encode_split: f64,
    verify_one_share: f64,
    verify_split: f64,
}

/// Time every section on checkpoints of `elems` f32s. `sets` distinct
/// copies of each input and output are visited round-robin by successive
/// repetitions: one set is the hot mode, [`COLD_SETS`] of 128 MiB the cold
/// one. Sections run one after another and free what the next does not
/// need, which holds the cold mode's peak near 1.3 GiB.
fn measure(elems: usize, reps: usize, sets: usize) -> Rows {
    let format = &ViperFormat as &dyn CheckpointFormat;
    let ckpts: Vec<Checkpoint> = (0..sets)
        .map(|set| {
            let mut ckpt = sample(elems);
            ckpt.iteration += set as u64;
            ckpt
        })
        .collect();
    let bytes = format.encode(&ckpts[0]).len();

    // Producer half. Identity first, outside the timed region: the fused
    // pass must emit byte-identical wire bytes (and the same framed volume).
    let mut arenas: Vec<EncodeArena> = (0..sets).map(|_| EncodeArena::new()).collect();
    {
        let mut enc = StreamingEncoder::new(CHUNK_BYTES);
        ViperFormat.encode_into(&ckpts[0], &mut enc);
        assert_eq!(
            enc.finish().payload.as_slice(),
            &format.encode(&ckpts[0])[..]
        );
    }
    for (ckpt, arena) in ckpts.iter().zip(&mut arenas) {
        assert_eq!(legacy_path(format, ckpt), fused_path(ckpt, arena, bytes));
    }
    let [fused, legacy] = time_pair(reps, |rep, side| {
        let set = rep % sets;
        match side {
            0 => fused_path(&ckpts[set], &mut arenas[set], bytes),
            _ => legacy_path(format, &ckpts[set]),
        }
    });
    // The encode split across the cores against one share: the same bytes
    // and chunk CRCs, through the same (warm) arenas.
    let split = split_encode(&ckpts[0], &mut arenas[0], bytes);
    let one = one_share_encode(&ckpts[0], &mut arenas[0], bytes);
    assert_eq!(split.payload.as_slice(), one.payload.as_slice());
    assert_eq!(split.chunk_crcs, one.chunk_crcs);
    drop((split, one));
    let [encode_split, encode_one_share] = time_pair(reps, |rep, side| {
        let set = rep % sets;
        match side {
            0 => split_encode(&ckpts[set], &mut arenas[set], bytes),
            _ => one_share_encode(&ckpts[set], &mut arenas[set], bytes),
        }
        .payload
        .len()
    });
    drop(arenas);

    // Consumer half: identity first, untimed. The copy rows decode
    // misaligned payloads.
    let payloads: Vec<Payload> = ckpts
        .iter()
        .map(|ckpt| misaligned(&format.encode(ckpt)))
        .collect();
    let body_crcs: Vec<u32> = payloads.iter().map(|p| crc32(&p[..bytes - 4])).collect();
    let flows: Vec<Box<AssembledFlow>> = payloads.iter().map(assembled).collect();
    let shared_tensors = |c: &Checkpoint| c.tensors.iter().filter(|(_, t)| t.is_shared()).count();
    assert_eq!(flows[0].body_crc(0), body_crcs[0]);
    assert_eq!(ViperFormat.decode(&payloads[0]).unwrap(), ckpts[0]);
    assert_eq!(two_pass_decode(&payloads[0]), ckpts[0]);
    let copied = two_pass_receive(&flows[0]);
    assert_eq!(copied, ckpts[0]);
    assert_eq!(shared_tensors(&copied), 0, "the copy rows copy");
    drop(copied);
    assert_eq!(
        payload_chunk_crcs(&payloads[0], CHUNK_BYTES),
        *flows[0].chunk_crcs,
        "the receive checksums what the assembler verified"
    );
    drop(ckpts);
    // The last `sets` decoded checkpoints stay alive, as a consumer's slot
    // keeps the versions it serves: outputs rotate like inputs.
    let mut slot: Vec<Option<Checkpoint>> = (0..sets).map(|_| None).collect();
    let decode = |slot: &mut Vec<Option<Checkpoint>>, how: &dyn Fn(usize) -> Checkpoint| {
        // One untimed visit per set first: whichever row runs first would
        // otherwise pay for the allocator finding its steady state.
        for (set, served) in slot.iter_mut().enumerate() {
            *served = Some(how(set));
        }
        time(reps, |rep| slot[rep % sets] = Some(how(rep % sets)))
    };
    let [decode_one_pass, decode_two_pass] = {
        let how = |set: usize, side: usize| match side {
            0 => ViperFormat.decode(&payloads[set]).unwrap(),
            _ => two_pass_decode(&payloads[set]),
        };
        for (set, served) in slot.iter_mut().enumerate() {
            *served = Some(how(set, 0));
            *served = Some(how(set, 1));
        }
        time_pair(reps, |rep, side| {
            slot[rep % sets] = Some(how(rep % sets, side))
        })
    };
    let decode_verified = decode(&mut slot, &|set| {
        let decoded = ViperFormat.decode_verified(&payloads[set], body_crcs[set]);
        decoded.unwrap()
    });
    let verify_then_decode = decode(&mut slot, &|set| two_pass_receive(&flows[set]));
    drop(flows);
    // The view row decodes the same bytes from aligned buffers of their
    // own, allocated once the copy rows' outputs are gone: its outputs are
    // views of them, so the mode's peak does not grow.
    slot.fill_with(|| None);
    let shared: Vec<Box<AssembledFlow>> = payloads
        .iter()
        .map(|p| assembled(&Payload::from(p.to_vec())))
        .collect();
    let viewed = two_pass_receive(&shared[0]);
    assert_eq!(viewed, ViperFormat.decode(&payloads[0]).unwrap());
    assert_eq!(shared_tensors(&viewed), TENSORS, "the view row views");
    drop(viewed);
    let verify_then_view = decode(&mut slot, &|set| two_pass_receive(&shared[set]));
    drop(slot);
    drop(shared);

    // The receive verify of a whole flow drained as one batch, split
    // across the cores against one share.
    let batches: Vec<Vec<Message>> = payloads.iter().map(received).collect();
    assert_eq!(split_verify(&batches[0]), one_share_verify(&batches[0]));
    let [verify_split, verify_one_share] = time_pair(reps, |rep, side| {
        let batch = &batches[rep % sets];
        match side {
            0 => split_verify(batch),
            _ => one_share_verify(batch),
        }
    });
    drop(batches);

    // The primitive, tensor-sized piece by piece, into preallocated
    // destinations. Identity: both ways copy the source and roll its CRC.
    let mut dsts: Vec<Vec<u8>> = (0..sets).map(|_| vec![0u8; bytes]).collect();
    for copy in [copy_then_crc, copy_while_crc] {
        assert_eq!(
            piecewise(&payloads[0], &mut dsts[0], copy),
            crc32(&payloads[0])
        );
        assert_eq!(dsts[0], payloads[0].as_slice());
    }
    let mut copying = |piece: fn(&mut Crc32, &[u8], &mut Vec<u8>)| {
        time(reps, |rep| {
            piecewise(&payloads[rep % sets], &mut dsts[rep % sets], piece)
        })
    };
    let memcpy = copying(|_, from, to| to.extend_from_slice(from));
    let [update_copying, memcpy_then_crc] = time_pair(reps, |rep, side| {
        let piece: fn(&mut Crc32, &[u8], &mut Vec<u8>) = match side {
            0 => copy_while_crc,
            _ => copy_then_crc,
        };
        piecewise(&payloads[rep % sets], &mut dsts[rep % sets], piece)
    });

    // Checksums alone, over the sources and their copies: `2 * sets`
    // distinct buffers, so the cold mode still rotates 1 GiB.
    let sources = payloads.iter().map(Payload::as_slice);
    let bufs: Vec<&[u8]> = sources.chain(dsts.iter().map(Vec::as_slice)).collect();
    let buf = |rep: usize| bufs[rep % bufs.len()];
    let crc_only = time(reps, |rep| {
        let mut crc = Crc32::new();
        for piece in buf(rep).chunks(bytes.div_ceil(TENSORS)) {
            crc.update(piece);
        }
        crc.finalize()
    });
    let crc_bytewise = time(reps, |rep| crc32_bytewise(buf(rep)));
    // Pin the kernels explicitly: `crc32` itself now dispatches, so the
    // table-kernel baseline must name slice-by-16 rather than trust the
    // dispatcher (which would pick the hardware kernel where available).
    let crc_slice16 = time(reps, |rep| crc32_with(Crc32Kernel::Slice16, buf(rep)));
    let crc_hw = if Crc32Kernel::Clmul.available() {
        time(reps, |rep| crc32_with(Crc32Kernel::Clmul, buf(rep)))
    } else {
        crc_slice16
    };
    // Split-and-combine: per-block CRCs (under the dispatched kernel, as
    // production runs it) merged algebraically — the path viper-net's
    // chunk CRC merge rides.
    let crc_combine = time(reps, |rep| {
        const BLOCK: usize = 256 * 1024;
        let mut acc = 0u32;
        for block in buf(rep).chunks(BLOCK) {
            acc = crc32_combine(acc, crc32(block), block.len() as u64);
        }
        acc
    });
    drop(bufs);
    drop(dsts);
    drop(payloads);

    // Streaming diff at 1% changed tensors: identity first, untimed.
    let pairs: Vec<_> = (0..sets).map(|_| diff_pair(elems)).collect();
    let diff_changed = pairs[0].3;
    {
        let (diff_base, diff_new, diff_shared, _) = &pairs[0];
        let materialized = delta::diff(diff_base, diff_new).unwrap();
        let mut full = StreamingEncoder::new(CHUNK_BYTES);
        full.put_bytes(&wire::envelope(PayloadKind::Delta));
        materialized.encode_into(&mut full);
        let mut stream = StreamingEncoder::new(CHUNK_BYTES);
        stream.put_bytes(&wire::envelope(PayloadKind::Delta));
        delta::diff_into(diff_base, diff_new, &mut stream).unwrap();
        let (full, stream) = (full.finish(), stream.finish());
        assert_eq!(
            full.payload.as_slice(),
            stream.payload.as_slice(),
            "streaming diff wire bytes must match the materializing oracle"
        );
        assert_eq!(full.chunk_crcs, stream.chunk_crcs);
        let mut shared = StreamingEncoder::new(CHUNK_BYTES);
        shared.put_bytes(&wire::envelope(PayloadKind::Delta));
        delta::diff_into(diff_base, diff_shared, &mut shared).unwrap();
        let shared = shared.finish();
        assert_eq!(shared.payload.as_slice(), stream.payload.as_slice());
        assert_eq!(shared.chunk_crcs, stream.chunk_crcs);
    }
    let pair = |rep: usize| (&pairs[rep % sets].0, &pairs[rep % sets].1);
    let [diff_stream, diff_full] = time_pair(reps, |rep, side| {
        let (base, new) = pair(rep);
        match side {
            0 => stream_diff_path(base, new),
            _ => full_diff_path(base, new),
        }
    });
    let diff_shared = time(reps, |rep| {
        stream_diff_path(&pairs[rep % sets].0, &pairs[rep % sets].2)
    });
    // Context row: what shipping this update costs with no delta base at
    // all — the fused full-checkpoint encode the codec falls back to,
    // through per-set arenas warmed by one untimed repetition, as the
    // `fused` row runs.
    let mut arenas: Vec<EncodeArena> = (0..sets).map(|_| EncodeArena::new()).collect();
    let full_bytes = framed_full_path(pair(0).1, &mut arenas[0], 0);
    for (set, arena) in arenas.iter_mut().enumerate().skip(1) {
        framed_full_path(pair(set).1, arena, full_bytes);
    }
    let full_update = time(reps, |rep| {
        framed_full_path(pair(rep).1, &mut arenas[rep % sets], full_bytes)
    });

    Rows {
        bytes,
        reps,
        crc_bytewise,
        crc_slice16,
        crc_hw,
        crc_combine,
        memcpy,
        crc_only,
        memcpy_then_crc,
        update_copying,
        legacy,
        fused,
        diff_changed,
        diff_full,
        diff_stream,
        diff_shared,
        full_update,
        decode_two_pass,
        decode_one_pass,
        decode_verified,
        verify_then_decode,
        verify_then_view,
        shares: share_count(bytes),
        encode_one_share,
        encode_split,
        verify_one_share,
        verify_split,
    }
}

/// `fields` as a JSON object, one `"key": value` per line, its braces at
/// `indent` spaces.
fn object(indent: usize, fields: &[(&str, String)]) -> String {
    let pad = " ".repeat(indent + 2);
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{pad}\"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n{}}}", lines.join(",\n"), " ".repeat(indent))
}

/// `secs` as a JSON number of milliseconds.
fn ms(secs: f64) -> String {
    format!("{:.3}", secs * 1e3)
}

impl Rows {
    fn gib(&self) -> f64 {
        self.bytes as f64 / (1u64 << 30) as f64
    }

    /// The throughput of one pass over the checkpoint in `secs`, as a JSON
    /// number of GiB/s.
    fn gib_s(&self, secs: f64) -> String {
        format!("{:.3}", self.gib() / secs)
    }

    /// The section objects of one cache mode, nested `indent` spaces deep.
    fn sections(&self, indent: usize) -> Vec<(&'static str, String)> {
        let hw_available = Crc32Kernel::Clmul.available();
        let gib_s = |secs: f64| self.gib_s(secs);
        let ratio = |over: f64, under: f64| format!("{:.2}", over / under);
        let crc = [
            ("kernel", format!("\"{}\"", active_kernel().label())),
            ("hw_available", hw_available.to_string()),
            ("bytewise_gib_s", gib_s(self.crc_bytewise)),
            ("slice16_gib_s", gib_s(self.crc_slice16)),
            // 0 where the host has no hardware kernel to time.
            (
                "hw_gib_s",
                match hw_available {
                    true => gib_s(self.crc_hw),
                    false => "0.000".into(),
                },
            ),
            ("hw_over_slice16", ratio(self.crc_slice16, self.crc_hw)),
            ("combine_gib_s", gib_s(self.crc_combine)),
            ("speedup", ratio(self.crc_bytewise, self.crc_slice16)),
        ];
        let crc_copy = [
            ("memcpy_gib_s", gib_s(self.memcpy)),
            ("crc32_gib_s", gib_s(self.crc_only)),
            ("memcpy_then_crc32_gib_s", gib_s(self.memcpy_then_crc)),
            ("update_copying_gib_s", gib_s(self.update_copying)),
            (
                "update_copying_over_memcpy",
                ratio(self.update_copying, self.memcpy),
            ),
            ("speedup", ratio(self.memcpy_then_crc, self.update_copying)),
        ];
        let serialize_crc_frame = [
            ("legacy_ms", ms(self.legacy)),
            ("fused_ms", ms(self.fused)),
            ("speedup", ratio(self.legacy, self.fused)),
        ];
        let diff_stream = [
            ("tensors", DIFF_TENSORS.to_string()),
            ("changed_tensors", self.diff_changed.to_string()),
            ("full_update_ms", ms(self.full_update)),
            ("full_ms", ms(self.diff_full)),
            ("stream_ms", ms(self.diff_stream)),
            ("shared_ms", ms(self.diff_shared)),
            ("speedup", ratio(self.diff_full, self.diff_stream)),
            ("shared_speedup", ratio(self.diff_stream, self.diff_shared)),
            (
                "speedup_vs_full_update",
                ratio(self.full_update, self.diff_stream),
            ),
        ];
        let decode = [
            ("two_pass_ms", ms(self.decode_two_pass)),
            ("two_pass_gib_s", gib_s(self.decode_two_pass)),
            ("one_pass_ms", ms(self.decode_one_pass)),
            ("one_pass_gib_s", gib_s(self.decode_one_pass)),
            ("verified_ms", ms(self.decode_verified)),
            ("verified_gib_s", gib_s(self.decode_verified)),
            ("verify_then_decode_ms", ms(self.verify_then_decode)),
            ("verify_then_decode_gib_s", gib_s(self.verify_then_decode)),
            ("verify_then_view_ms", ms(self.verify_then_view)),
            ("verify_then_view_gib_s", gib_s(self.verify_then_view)),
        ];
        let split = [
            ("shares", self.shares.to_string()),
            ("encode_one_share_ms", ms(self.encode_one_share)),
            ("encode_split_ms", ms(self.encode_split)),
            (
                "encode_speedup",
                ratio(self.encode_one_share, self.encode_split),
            ),
            ("verify_one_share_ms", ms(self.verify_one_share)),
            ("verify_split_ms", ms(self.verify_split)),
            (
                "verify_speedup",
                ratio(self.verify_one_share, self.verify_split),
            ),
        ];
        vec![
            ("crc", object(indent, &crc)),
            ("crc_copy", object(indent, &crc_copy)),
            ("serialize_crc_frame", object(indent, &serialize_crc_frame)),
            ("diff_stream", object(indent, &diff_stream)),
            ("decode", object(indent, &decode)),
            ("split", object(indent, &split)),
        ]
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let enforce = std::env::args().any(|a| a == "--enforce");
    // Cargo runs benches with the package dir as cwd; anchor the artifacts
    // at the workspace root. The committed trajectory is written by
    // full-size runs only; a smoke run goes to VIPER_BENCH_OUT (by default
    // under target/) and refuses to stand in for one.
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let committed = format!("{workspace}/BENCH_hotpath.json");
    let out = std::env::var("VIPER_BENCH_OUT").unwrap_or_else(|_| match smoke {
        true => format!("{workspace}/target/BENCH_hotpath.smoke.json"),
        false => committed.clone(),
    });
    let same_file = |a: &str, b: &str| match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => a == b,
    };
    if smoke && same_file(&out, &committed) {
        eprintln!("--test results are not the committed trajectory: refusing to write {out}");
        std::process::exit(2);
    }

    // 24 MiB of f32 weights full-size; 2 MiB in smoke mode.
    let (elems, reps) = if smoke { (1 << 19, 3) } else { (6 << 20, 9) };
    let hot = measure(elems, reps, 1);
    let cold = (!smoke).then(|| measure(COLD_ELEMS, 3 * COLD_SETS, COLD_SETS));

    let mut entry = vec![
        ("label", format!("\"{HISTORY_LABEL}\"")),
        ("legacy_ms", ms(hot.legacy)),
        ("fused_ms", ms(hot.fused)),
        ("speedup", format!("{:.2}", hot.legacy / hot.fused)),
        ("slice16_gib_s", hot.gib_s(hot.crc_slice16)),
        ("combine_gib_s", hot.gib_s(hot.crc_combine)),
        ("hw_gib_s", hot.gib_s(hot.crc_hw)),
        ("kernel", format!("\"{}\"", active_kernel().label())),
        ("diff_full_ms", ms(hot.diff_full)),
        ("diff_stream_ms", ms(hot.diff_stream)),
        ("diff_shared_ms", ms(hot.diff_shared)),
        ("full_update_ms", ms(hot.full_update)),
        ("decode_two_pass_ms", ms(hot.decode_two_pass)),
        ("decode_one_pass_ms", ms(hot.decode_one_pass)),
        ("decode_verified_ms", ms(hot.decode_verified)),
        ("verify_then_view_ms", ms(hot.verify_then_view)),
        ("copying_gib_s", hot.gib_s(hot.update_copying)),
        ("shares", hot.shares.to_string()),
        ("encode_split_ms", ms(hot.encode_split)),
        ("verify_split_ms", ms(hot.verify_split)),
    ];
    if let Some(cold) = &cold {
        entry.extend([
            ("cold_fused_ms", ms(cold.fused)),
            ("cold_verify_then_decode_ms", ms(cold.verify_then_decode)),
            ("cold_verify_then_view_ms", ms(cold.verify_then_view)),
            ("cold_diff_stream_ms", ms(cold.diff_stream)),
            ("cold_diff_shared_ms", ms(cold.diff_shared)),
            ("cold_full_update_ms", ms(cold.full_update)),
            ("cold_memcpy_gib_s", cold.gib_s(cold.memcpy)),
            (
                "cold_memcpy_then_crc32_gib_s",
                cold.gib_s(cold.memcpy_then_crc),
            ),
            ("cold_copying_gib_s", cold.gib_s(cold.update_copying)),
            ("cold_crc32_gib_s", cold.gib_s(cold.crc_only)),
            ("cold_encode_one_share_ms", ms(cold.encode_one_share)),
            ("cold_encode_split_ms", ms(cold.encode_split)),
            ("cold_verify_one_share_ms", ms(cold.verify_one_share)),
            ("cold_verify_split_ms", ms(cold.verify_split)),
        ]);
    }
    let entry: Vec<String> = entry.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let entry = format!("{{ {} }}", entry.join(", "));

    let old = std::fs::read_to_string(&out).unwrap_or_default();
    let mut history = prior_history(&old);
    // Render the PR-over-PR delta against the newest prior era before
    // appending this one.
    if let Some(prev) = history.last() {
        if let (Some(label), Some(prev_ms)) = (find_str(prev, "label"), find_num(prev, "fused_ms"))
        {
            println!(
                "history: {label} {prev_ms:.2} ms -> {HISTORY_LABEL} {} ms ({:.2}x)",
                ms(hot.fused),
                prev_ms / (hot.fused * 1e3)
            );
        }
    }
    history.push(entry);
    let history: Vec<String> = history.iter().map(|obj| format!("    {obj}")).collect();

    let mut fields = vec![
        ("checkpoint_bytes", hot.bytes.to_string()),
        ("chunk_bytes", CHUNK_BYTES.to_string()),
        ("reps", hot.reps.to_string()),
        ("smoke", smoke.to_string()),
    ];
    fields.extend(hot.sections(2));
    if let Some(cold) = &cold {
        let mut mode = vec![
            ("checkpoint_bytes", cold.bytes.to_string()),
            ("sets", COLD_SETS.to_string()),
            ("reps", cold.reps.to_string()),
        ];
        mode.extend(cold.sections(4));
        fields.push(("cold", object(2, &mode)));
    }
    fields.push(("history", format!("[\n{}\n  ]", history.join(",\n"))));
    let json = object(0, &fields) + "\n";
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("{json}");
    for (mode, r) in [("hot", Some(&hot)), ("cold", cold.as_ref())] {
        let Some(r) = r else { continue };
        println!(
            "{mode}: {:.3} GiB checkpoint  serialize+crc+frame {} ms (legacy) -> {} ms (fused)  ({:.2}x)",
            r.gib(),
            ms(r.legacy),
            ms(r.fused),
            r.legacy / r.fused
        );
        println!(
            "{mode} crc kernel: {} (slice16 {} GiB/s, hw {} GiB/s)  diff 1%: {} ms (full) -> {} ms (stream) -> {} ms (shared)",
            active_kernel().label(),
            r.gib_s(r.crc_slice16),
            r.gib_s(r.crc_hw),
            ms(r.diff_full),
            ms(r.diff_stream),
            ms(r.diff_shared)
        );
        println!(
            "{mode} crc_copy: memcpy {} GiB/s  crc32 {}  memcpy then crc32 {}  update_copying {}  ({:.2}x)",
            r.gib_s(r.memcpy),
            r.gib_s(r.crc_only),
            r.gib_s(r.memcpy_then_crc),
            r.gib_s(r.update_copying),
            r.memcpy_then_crc / r.update_copying
        );
        println!(
            "{mode} decode: {} ms (two-pass) -> {} ms (one-pass) -> {} ms (verified)  chunked: {} ms (verify, then decode) -> {} ms (verify, then view)",
            ms(r.decode_two_pass),
            ms(r.decode_one_pass),
            ms(r.decode_verified),
            ms(r.verify_then_decode),
            ms(r.verify_then_view)
        );
        println!(
            "{mode} split, shares {}: encode {} ms (one share) -> {} ms  verify {} ms (one share) -> {} ms",
            r.shares,
            ms(r.encode_one_share),
            ms(r.encode_split),
            ms(r.verify_one_share),
            ms(r.verify_split)
        );
    }
    // CI regression gates, all on the hot rows (the only ones a smoke run
    // has): the fused pass must never fall more than 10% behind the legacy
    // three-pass path it replaced, the streaming diff never behind the
    // materializing diff, the one-pass decode never behind the two-pass
    // decode, and copying while checksumming never behind copying and then
    // checksumming — under whichever kernel this process dispatched to (CI
    // runs it under the hardware and the forced-portable one). The two
    // sides of each gate are timed as interleaved pairs (`time_pair`).
    let gates = [
        ("fused path", hot.fused, "legacy path", hot.legacy),
        (
            "streaming diff",
            hot.diff_stream,
            "materializing diff",
            hot.diff_full,
        ),
        (
            "one-pass decode",
            hot.decode_one_pass,
            "two-pass decode",
            hot.decode_two_pass,
        ),
        (
            "update_copying",
            hot.update_copying,
            "memcpy then crc32",
            hot.memcpy_then_crc,
        ),
    ];
    for (new, new_secs, old, old_secs) in gates {
        if enforce && new_secs > old_secs * 1.10 {
            eprintln!(
                "REGRESSION: {new} {} ms is more than 10% behind {old} {} ms",
                ms(new_secs),
                ms(old_secs)
            );
            std::process::exit(1);
        }
    }
}
