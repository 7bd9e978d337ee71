//! Fused single-pass encode: serialized bytes land in one buffer, once,
//! with per-chunk CRC32s computed as the bytes arrive.
//!
//! The legacy encode chain read every payload byte three times —
//! serialize into a `Vec`, whole-buffer [`crc32`](crate::crc32) for the
//! format footer, then per-chunk CRCs (and for wire-framed payloads a
//! `wire::frame` re-copy) at send time. [`StreamingEncoder`] collapses
//! that to a single pass: an append *is* the checksum — [`put_f32s`] and
//! [`put_bytes`] fold each block of the source into a rolling
//! [`ChunkCrcs`] as they store it ([`Crc32::update_copying`]), rolling
//! over at every chunk boundary — and [`finish`] emits an
//! [`EncodedPayload`] whose `chunk_crcs` slot straight into
//! `ChunkHeader`s downstream: the transport never re-reads the bytes it
//! ships, and neither does the encoder. Only the few header bytes the
//! fixed-width writers push are checksummed after the fact, by
//! [`absorb`], which every bulk append, [`mark`] and [`finish`] call
//! first; a writer never has to.
//!
//! Format footers (the trailing CRC32 over a format's body) fall out of
//! the same pass: [`mark`] snapshots the stream CRC at the body start,
//! and [`crc_since`] recovers the body-only CRC algebraically with
//! [`crc32_combine`] — `crc(body) = crc(prefix ‖ body) ^
//! shift(crc(prefix), len(body))` — so prepending a wire envelope does
//! not force a second checksum pass.
//!
//! [`EncodeArena`] amortizes the one remaining allocation per save.
//! Ownership rule: the arena holds one `Arc` clone per parked buffer and
//! *never* mutates a buffer while any other view exists — reclaim is
//! gated on `Arc::strong_count == 1`, i.e. on every staging-tier
//! resident, in-flight chunk, retransmit slice, and consumer install
//! having dropped. A buffer that is still referenced simply stays
//! parked; the encoder falls back to a fresh allocation.
//!
//! [`absorb`]: StreamingEncoder::absorb
//! [`put_f32s`]: StreamingEncoder::put_f32s
//! [`put_bytes`]: StreamingEncoder::put_bytes
//! [`Crc32::update_copying`]: crate::Crc32::update_copying
//! [`finish`]: StreamingEncoder::finish
//! [`mark`]: StreamingEncoder::mark
//! [`crc_since`]: StreamingEncoder::crc_since

use crate::checkpoint::{f32s_as_le_bytes, pad_len, put_f32s};
use crate::crc::{crc32_combine, ChunkCrcs};
use crate::payload::Payload;
use std::sync::Arc;

/// The product of a fused encode: the payload bytes (allocated once,
/// possibly recycled from an [`EncodeArena`]) plus the per-chunk CRC32s
/// computed while the bytes were written.
#[derive(Clone, Debug)]
pub struct EncodedPayload {
    /// The encoded bytes, ready to stage/send without further copies.
    pub payload: Payload,
    /// Chunk geometry the CRCs were computed for: maximum bytes per chunk,
    /// `0` meaning "one chunk spanning the whole payload". Matches the
    /// transport's `chunk_sizes` splitting exactly.
    pub chunk_bytes: u64,
    /// CRC32 of each chunk's bytes, in order. Always non-empty (an empty
    /// payload is one empty chunk, mirroring `chunk_sizes`).
    pub chunk_crcs: Arc<Vec<u32>>,
    /// Whether the buffer was recycled from an arena rather than freshly
    /// allocated. Telemetry counts only fresh allocations.
    pub reused: bool,
}

/// A pool of retired encode buffers, one per producer node. Parked buffers
/// are candidates for reuse; a buffer is only handed back to an encoder
/// when the arena holds the *sole* reference to it (see module docs for
/// the ownership rule).
///
/// Reuse picks the **largest** reclaimable slot — when checkpoints vary in
/// size, a big save should find the big retired buffer, not whichever
/// small one happened to park first. The flip side of keeping the largest
/// allocation alive is that a workload which *shrinks* (a producer whose
/// model is pruned or distilled, or one that saves a large model and then
/// a run of small ones) would pin the high-water allocation forever; the
/// arena therefore decays: after [`DECAY_AFTER`] consecutive
/// recycles that used less than half of the arena's high-water capacity,
/// the next reclaim shrinks the buffer down to the caller's size hint.
/// Delta saves never shrink it: a delta is encoded outside the arena, and
/// the only arena encode a delta save makes is its full, when a reader
/// needs one.
///
/// [`DECAY_AFTER`]: EncodeArena::DECAY_AFTER
#[derive(Debug, Default)]
pub struct EncodeArena {
    slots: Vec<Arc<Vec<u8>>>,
    cap: usize,
    reclaimed: u64,
    misses: u64,
    /// Consecutive recycles whose payload used less than half of the
    /// arena's high-water capacity (the largest backing buffer it knows
    /// of). Reset by any save big enough to justify that allocation.
    underuse_streak: u32,
    decays: u64,
}

impl EncodeArena {
    /// Consecutive under-half-capacity saves after which the next reclaim
    /// releases the excess high-water allocation.
    pub const DECAY_AFTER: u32 = 8;

    /// Arena holding up to 4 retired buffers.
    pub fn new() -> Self {
        Self::with_slots(4)
    }

    /// Arena holding up to `cap` retired buffers.
    pub fn with_slots(cap: usize) -> Self {
        EncodeArena {
            slots: Vec::new(),
            cap: cap.max(1),
            reclaimed: 0,
            misses: 0,
            underuse_streak: 0,
            decays: 0,
        }
    }

    /// Take a reusable buffer, cleared and with at least `capacity` bytes
    /// reserved. Among the uniquely owned parked slots the one with the
    /// largest backing capacity wins, so the hottest (biggest) saves keep
    /// hitting the arena. `None` means every parked buffer is still
    /// referenced elsewhere (or the arena is empty) and the caller should
    /// allocate.
    fn take(&mut self, capacity: usize) -> Option<Vec<u8>> {
        let idx = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| Arc::strong_count(s) == 1)
            .max_by_key(|(_, s)| s.capacity())
            .map(|(i, _)| i)?;
        let arc = self.slots.swap_remove(idx);
        let mut buf = Arc::try_unwrap(arc).ok()?;
        buf.clear();
        if self.underuse_streak >= Self::DECAY_AFTER && buf.capacity() > capacity {
            // Sustained underuse: the workload no longer needs the
            // high-water allocation. Drop to the caller's hint and start
            // a fresh streak against the smaller capacity.
            buf.shrink_to(capacity);
            self.underuse_streak = 0;
            self.decays += 1;
        }
        if buf.capacity() < capacity {
            buf.reserve(capacity - buf.capacity());
        }
        self.reclaimed += 1;
        Some(buf)
    }

    /// Park the backing buffer of a finished payload for future reuse.
    /// Oldest slots are evicted beyond the arena's capacity. Also scores
    /// the save against the decay streak: a payload using less than half
    /// of the arena's high-water capacity extends the streak, a save big
    /// enough to justify the retained allocation resets it. (Scoring
    /// against the high-water — not the payload's own backing — matters
    /// when saves ping-pong between a large and a small buffer: the small
    /// buffer's dense recycles say nothing about whether the large one is
    /// still earning its keep.)
    pub fn recycle(&mut self, payload: &Payload) {
        let backing = payload.backing();
        let high_water = self
            .slots
            .iter()
            .map(|s| s.capacity())
            .max()
            .unwrap_or(0)
            .max(backing.capacity());
        if (backing.len() as u128) * 2 < high_water as u128 {
            self.underuse_streak = self.underuse_streak.saturating_add(1);
        } else {
            self.underuse_streak = 0;
        }
        if self.slots.len() == self.cap {
            self.slots.remove(0);
        }
        self.slots.push(Arc::clone(backing));
    }

    /// How many encodes reused a parked buffer.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// How many encodes had to allocate because no parked buffer was free.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// How many reclaims released a high-water allocation after a
    /// sustained underuse streak.
    pub fn decays(&self) -> u64 {
        self.decays
    }

    /// Total bytes of backing capacity currently parked in the arena
    /// (including buffers still referenced elsewhere).
    pub fn retained_capacity(&self) -> usize {
        self.slots.iter().map(|s| s.capacity()).sum()
    }
}

/// Snapshot of the encoder's position and rolling CRC, taken with
/// [`StreamingEncoder::mark`]; feed back to
/// [`StreamingEncoder::crc_since`] to get the CRC of everything written
/// after the mark without re-reading it.
#[derive(Clone, Copy, Debug)]
pub struct StreamMark {
    pos: usize,
    crc: u32,
}

/// Single-pass encoder: append bytes, get chunk-aligned CRCs for free.
/// See the module docs for the dataflow.
#[derive(Debug)]
pub struct StreamingEncoder {
    buf: Vec<u8>,
    reused: bool,
    /// Per-chunk CRCs of `buf[..absorbed]` under the encoder's chunk
    /// geometry.
    crcs: ChunkCrcs,
    /// Bytes of `buf` already fed to `crcs`.
    absorbed: usize,
}

impl StreamingEncoder {
    /// Encoder with a fresh buffer. `chunk_bytes` fixes the CRC chunk
    /// geometry (`0` = single chunk).
    pub fn new(chunk_bytes: u64) -> Self {
        StreamingEncoder {
            buf: Vec::new(),
            reused: false,
            crcs: ChunkCrcs::new(chunk_bytes),
            absorbed: 0,
        }
    }

    /// Encoder drawing its buffer from `arena` when a parked one is free,
    /// allocating `capacity` bytes otherwise.
    pub fn from_arena(arena: &mut EncodeArena, capacity: usize, chunk_bytes: u64) -> Self {
        let (buf, reused) = match arena.take(capacity) {
            Some(buf) => (buf, true),
            None => {
                arena.misses += 1;
                (Vec::with_capacity(capacity), false)
            }
        };
        StreamingEncoder {
            buf,
            reused,
            ..StreamingEncoder::new(chunk_bytes)
        }
    }

    /// Whether the buffer came from an arena (no fresh allocation).
    pub fn reused(&self) -> bool {
        self.reused
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes, checksumming them in the same pass over memory:
    /// whatever small fields are pending are [`absorb`](Self::absorb)ed,
    /// then each block of `bytes` is folded into the chunk CRCs as it is
    /// stored. Nothing re-reads the appended bytes afterwards.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.absorb();
        self.buf.reserve(bytes.len());
        let spare = &mut self.buf.spare_capacity_mut()[..bytes.len()];
        self.crcs.update_copying(bytes, spare);
        self.absorbed += bytes.len();
        // SAFETY: `reserve` left at least `bytes.len()` bytes of capacity
        // behind `len`, and `update_copying` initialised exactly those.
        unsafe { self.buf.set_len(self.absorbed) };
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string (u32 length, then bytes),
    /// matching `checkpoint::put_string`.
    pub fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append `f32`s as little-endian bytes: [`put_bytes`](Self::put_bytes)
    /// of the slice's own byte view, one copy-and-checksum pass.
    pub fn put_f32s(&mut self, data: &[f32]) {
        match f32s_as_le_bytes(data) {
            Some(bytes) => self.put_bytes(bytes),
            None => put_f32s(&mut self.buf, data),
        }
    }

    /// Append the 0-3 zero bytes that bring the body begun at `mark` to a
    /// 4-byte boundary: the pad in front of every tensor payload, so that a
    /// receiver can view the payload in place as `f32`s. Matches
    /// `checkpoint::put_pad` for a body that starts at `mark`.
    pub fn put_pad(&mut self, mark: StreamMark) {
        let pad = pad_len(self.buf.len() - mark.pos);
        self.buf.resize(self.buf.len() + pad, 0);
    }

    /// Feed all not-yet-checksummed bytes into the chunk CRCs. Only the
    /// fixed-width writers (`put_u8` … `put_string`, `put_pad`) leave
    /// bytes pending — a few dozen per tensor record — and every bulk
    /// append, every [`mark`](Self::mark) and [`finish`](Self::finish)
    /// absorbs them first, so a format writer has no call to make.
    pub fn absorb(&mut self) {
        self.crcs.update(&self.buf[self.absorbed..]);
        self.absorbed = self.buf.len();
    }

    /// CRC32 of every byte written so far, folded across chunk boundaries
    /// (no byte is read again). Absorbs pending bytes first.
    pub fn stream_crc(&mut self) -> u32 {
        self.absorb();
        self.crcs.stream_crc()
    }

    /// Snapshot the current position and stream CRC (absorbing pending
    /// bytes). Pair with [`crc_since`](Self::crc_since).
    pub fn mark(&mut self) -> StreamMark {
        StreamMark {
            pos: self.buf.len(),
            crc: self.stream_crc(),
        }
    }

    /// CRC32 of exactly the bytes written since `mark`, derived without
    /// re-reading them: the prefix's contribution is shifted forward and
    /// stripped (see module docs). This is how format footers coexist
    /// with chunk-aligned absorption in one pass.
    pub fn crc_since(&mut self, mark: StreamMark) -> u32 {
        let whole = self.stream_crc();
        let span = (self.buf.len() - mark.pos) as u64;
        whole ^ crc32_combine(mark.crc, 0, span)
    }

    /// Close out the encode: absorb the tail, seal the final (possibly
    /// empty) chunk, and wrap the buffer in a [`Payload`]. The resulting
    /// chunk list matches the transport's `chunk_sizes` geometry for
    /// (`len`, `chunk_bytes`) exactly.
    pub fn finish(self) -> EncodedPayload {
        self.finish_inner(None)
    }

    /// Like [`finish`](Self::finish), additionally parking the buffer's
    /// backing `Arc` in `arena` so a later encode can reclaim it once all
    /// views drop.
    pub fn finish_into(self, arena: &mut EncodeArena) -> EncodedPayload {
        self.finish_inner(Some(arena))
    }

    fn finish_inner(mut self, arena: Option<&mut EncodeArena>) -> EncodedPayload {
        self.absorb();
        let payload = Payload::from(self.buf);
        if let Some(arena) = arena {
            arena.recycle(&payload);
        }
        EncodedPayload {
            payload,
            chunk_bytes: self.crcs.chunk_bytes(),
            chunk_crcs: Arc::new(self.crcs.finish()),
            reused: self.reused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;

    fn filled(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Reference chunk split, mirroring viper-net's `chunk_sizes`.
    fn split_sizes(bytes: u64, chunk_bytes: u64) -> Vec<u64> {
        if bytes == 0 || chunk_bytes == 0 || chunk_bytes >= bytes {
            return vec![bytes];
        }
        let full = bytes / chunk_bytes;
        let rest = bytes % chunk_bytes;
        let mut sizes = vec![chunk_bytes; full as usize];
        if rest > 0 {
            sizes.push(rest);
        }
        sizes
    }

    fn check_geometry(data: &[u8], chunk_bytes: u64) {
        let mut enc = StreamingEncoder::new(chunk_bytes);
        // Ragged writes with interleaved absorbs.
        for (i, piece) in data.chunks(97).enumerate() {
            enc.put_bytes(piece);
            if i % 3 == 0 {
                enc.absorb();
            }
        }
        let out = enc.finish();
        assert_eq!(out.payload.as_slice(), data);
        let sizes = split_sizes(data.len() as u64, chunk_bytes);
        assert_eq!(out.chunk_crcs.len(), sizes.len(), "chunk count");
        let mut off = 0usize;
        for (i, (&crc, &len)) in out.chunk_crcs.iter().zip(sizes.iter()).enumerate() {
            assert_eq!(
                crc,
                crc32(&data[off..off + len as usize]),
                "chunk {i} of {}B/{}B",
                data.len(),
                chunk_bytes
            );
            off += len as usize;
        }
    }

    #[test]
    fn chunk_crcs_match_slice_crcs_across_geometries() {
        for &(len, cb) in &[
            (0usize, 0u64),
            (0, 64),
            (1, 0),
            (1, 64),
            (64, 64),
            (65, 64),
            (128, 64),
            (1000, 64),
            (1000, 0),
            (1000, 4096),
            (4096, 1024),
            (5000, 1024),
        ] {
            check_geometry(&filled(len), cb);
        }
    }

    #[test]
    fn typed_writers_match_manual_layout() {
        let mut enc = StreamingEncoder::new(0);
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(42);
        enc.put_string("hi");
        enc.put_f32s(&[1.5f32, -0.25]);
        let mut want = vec![7u8];
        want.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        want.extend_from_slice(&42u64.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(b"hi");
        want.extend_from_slice(&1.5f32.to_le_bytes());
        want.extend_from_slice(&(-0.25f32).to_le_bytes());
        let out = enc.finish();
        assert_eq!(out.payload.as_slice(), &want[..]);
        assert_eq!(out.chunk_crcs[0], crc32(&want));
    }

    #[test]
    fn put_f32s_crosses_block_boundary() {
        let data: Vec<f32> = (0..3000).map(|i| i as f32 * 0.5 - 700.0).collect();
        let mut enc = StreamingEncoder::new(0);
        enc.put_f32s(&data);
        let mut want = Vec::new();
        for &x in &data {
            want.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(enc.finish().payload.as_slice(), &want[..]);
    }

    #[test]
    fn mark_and_crc_since_strip_prefix() {
        let prefix = filled(123);
        let body = filled(10_000);
        let mut enc = StreamingEncoder::new(256);
        enc.put_bytes(&prefix);
        let mark = enc.mark();
        enc.put_bytes(&body);
        assert_eq!(enc.crc_since(mark), crc32(&body));
        // Mark at the very start degrades to the whole-stream CRC.
        let mut enc = StreamingEncoder::new(0);
        let mark = enc.mark();
        enc.put_bytes(&body);
        assert_eq!(enc.crc_since(mark), crc32(&body));
    }

    #[test]
    fn stream_crc_matches_oneshot() {
        let data = filled(70_001);
        for cb in [0u64, 1024, 4096, 70_001, 1 << 20] {
            let mut enc = StreamingEncoder::new(cb);
            enc.put_bytes(&data);
            assert_eq!(enc.stream_crc(), crc32(&data), "chunk_bytes {cb}");
        }
    }

    #[test]
    fn arena_reuses_only_uniquely_owned_buffers() {
        let mut arena = EncodeArena::with_slots(2);
        let mut enc = StreamingEncoder::from_arena(&mut arena, 1024, 0);
        assert!(!enc.reused(), "empty arena allocates");
        enc.put_bytes(&filled(512));
        let first = enc.finish_into(&mut arena);
        let first_ptr = first.payload.as_slice().as_ptr();

        // Payload still alive: arena must NOT hand the buffer out.
        let mut enc = StreamingEncoder::from_arena(&mut arena, 1024, 0);
        assert!(!enc.reused(), "live payload blocks reclaim");
        enc.put_bytes(&filled(100));
        let second = enc.finish_into(&mut arena);

        // Drop every view of the first payload; now it is reclaimable.
        drop(first);
        let mut enc = StreamingEncoder::from_arena(&mut arena, 256, 0);
        assert!(enc.reused(), "sole-owner buffer is reclaimed");
        enc.put_bytes(&filled(256));
        let third = enc.finish_into(&mut arena);
        assert_eq!(
            third.payload.as_slice().as_ptr(),
            first_ptr,
            "reclaim reuses the allocation"
        );
        assert_eq!(third.payload.as_slice(), &filled(256)[..]);
        assert_eq!(arena.reclaimed(), 1);
        assert_eq!(arena.misses(), 2);
        drop(second);
        drop(third);
    }

    #[test]
    fn arena_evicts_oldest_beyond_capacity() {
        let mut arena = EncodeArena::with_slots(1);
        for _ in 0..3 {
            let mut enc = StreamingEncoder::from_arena(&mut arena, 64, 0);
            enc.put_bytes(&filled(64));
            // Payload dropped immediately; buffer parked.
            let _ = enc.finish_into(&mut arena);
        }
        assert_eq!(arena.slots.len(), 1);
        // Two of the three encodes reclaimed the single parked buffer.
        assert_eq!(arena.reclaimed(), 2);
    }

    #[test]
    fn arena_prefers_largest_reclaimable_slot() {
        let mut arena = EncodeArena::with_slots(4);
        // Park a small and a large retired buffer, both uniquely owned.
        for n in [256usize, 8192, 512] {
            let mut enc = StreamingEncoder::from_arena(&mut arena, n, 0);
            enc.put_bytes(&filled(n));
            let _ = enc.finish_into(&mut arena);
        }
        // All three parked; the NEXT take must pick the 8192-byte slot
        // even though it is neither first nor last.
        let big = arena.slots.iter().map(|s| s.capacity()).max().unwrap();
        assert!(big >= 8192);
        let buf = arena.take(64).expect("reclaimable slot");
        assert_eq!(buf.capacity(), big, "largest slot wins");
    }

    #[test]
    fn arena_decays_high_water_after_sustained_underuse() {
        const BIG: usize = 1 << 16;
        const SMALL: usize = 1 << 10;
        let mut arena = EncodeArena::with_slots(1);
        // One big save establishes the high-water allocation.
        let mut enc = StreamingEncoder::from_arena(&mut arena, BIG, 0);
        enc.put_bytes(&filled(BIG));
        let _ = enc.finish_into(&mut arena);
        let high_water = arena.retained_capacity();
        assert!(high_water >= BIG);

        // A long run of small saves, each reusing (and underusing) the
        // big buffer. The streak builds at recycle; until it reaches
        // DECAY_AFTER, reclaim keeps the full allocation.
        for i in 0..EncodeArena::DECAY_AFTER {
            let mut enc = StreamingEncoder::from_arena(&mut arena, SMALL, 0);
            assert!(enc.reused(), "save {i} reuses the parked buffer");
            enc.put_bytes(&filled(SMALL));
            let _ = enc.finish_into(&mut arena);
        }
        assert_eq!(arena.decays(), 0, "no decay before the streak matures");
        assert_eq!(arena.retained_capacity(), high_water);

        // The streak is mature: the next reclaim releases the excess.
        let mut enc = StreamingEncoder::from_arena(&mut arena, SMALL, 0);
        assert!(enc.reused());
        enc.put_bytes(&filled(SMALL));
        let _ = enc.finish_into(&mut arena);
        assert_eq!(arena.decays(), 1);
        assert!(
            arena.retained_capacity() < high_water / 2,
            "high-water allocation released ({} -> {})",
            high_water,
            arena.retained_capacity()
        );

        // And a dense save resets the streak, so decay does not cascade.
        let mut enc = StreamingEncoder::from_arena(&mut arena, SMALL, 0);
        assert!(enc.reused());
        enc.put_bytes(&filled(SMALL));
        let _ = enc.finish_into(&mut arena);
        assert_eq!(arena.decays(), 1, "dense recycle reset the streak");
    }

    #[test]
    fn empty_encode_is_one_empty_chunk() {
        let out = StreamingEncoder::new(4096).finish();
        assert!(out.payload.is_empty());
        assert_eq!(out.chunk_crcs.len(), 1);
        assert_eq!(out.chunk_crcs[0], crc32(b""));
    }
}
