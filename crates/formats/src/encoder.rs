//! Fused single-pass encode: serialized bytes land in one buffer, once,
//! with per-chunk CRC32s computed as the bytes arrive.
//!
//! The legacy encode chain read every payload byte three times —
//! serialize into a `Vec`, whole-buffer [`crc32`](crate::crc32) for the
//! format footer, then per-chunk CRCs (and for wire-framed payloads a
//! `wire::frame` re-copy) at send time. [`StreamingEncoder`] collapses
//! that to a single pass: an append *is* the checksum — each block of the
//! source is folded into a rolling [`ChunkCrcs`] by the loop that stores
//! it ([`Crc32::update_copying`]), rolling over at every chunk boundary —
//! and [`finish`] emits an [`EncodedPayload`] whose `chunk_crcs` slot
//! straight into `ChunkHeader`s downstream: the transport never re-reads
//! the bytes it ships, and neither does the encoder. Only the few header
//! bytes the fixed-width writers push are checksummed after the fact,
//! when the next bulk append or CRC point comes by; a writer never calls
//! for it.
//!
//! A large encode runs that pass on every core. [`put_f32s`] then queues
//! the tensor's byte view instead of copying it (the encoder borrows the
//! tensor for `'a`), and the header bytes written behind it queue too.
//! The next point that needs the CRC — [`mark`], [`stream_crc`],
//! [`crc_since`] or [`finish`] — copies the whole queue in one fork-join
//! over contiguous, byte-balanced shares: each share copies and
//! checksums its bytes into its own window of the buffer's spare capacity
//! with a `ChunkCrcs` rolled from its chunk phase, and the rollers are
//! stitched with one [`crc32_combine`] per cut. The bytes, chunk CRCs
//! and footer are the one-share pass's, whatever the core count. A small
//! encode (below two 2 MiB shares, or on one core) never queues, so it
//! allocates and forks nothing. [`put_bytes`] of a temporary copies at
//! once.
//!
//! Format footers (the trailing CRC32 over a format's body) fall out of
//! the same pass: [`mark`] snapshots the stream CRC at the body start,
//! and [`crc_since`] recovers the body-only CRC algebraically with
//! [`crc32_combine`] — `crc(body) = crc(prefix ‖ body) ^
//! shift(crc(prefix), len(body))` — so prepending a wire envelope does
//! not force a second checksum pass.
//!
//! [`EncodeArena`] amortizes the one remaining allocation per payload,
//! full or delta: a caller that knows the payload's exact length takes a
//! buffer of that size class. Ownership rule: the arena holds one `Arc`
//! clone per parked buffer and *never* mutates or releases a buffer while
//! any other view exists — reclaim is gated on the arena's clone being the
//! last, i.e. on every in-flight chunk, retransmit slice, PFS object and
//! consumer install having dropped. A buffer that is still referenced
//! simply stays parked; the encoder falls back to a fresh allocation.
//!
//! [`put_f32s`]: StreamingEncoder::put_f32s
//! [`put_bytes`]: StreamingEncoder::put_bytes
//! [`Crc32::update_copying`]: crate::Crc32::update_copying
//! [`finish`]: StreamingEncoder::finish
//! [`mark`]: StreamingEncoder::mark
//! [`stream_crc`]: StreamingEncoder::stream_crc
//! [`crc_since`]: StreamingEncoder::crc_since

use crate::checkpoint::{f32s_as_le_bytes, pad_len, put_f32s};
use crate::crc::{crc32_combine, ChunkCrcs};
use crate::payload::Payload;
use crate::split::cut;
use std::sync::Arc;
use viper_tensor::split::{bounds, fork_join, share_count};

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
/// One size-class rule decides, at every take of `len` bytes: a free
/// parked buffer (one no view outside the arena holds) is reused if its
/// capacity lies in `[len, 2·len]`, and every other free buffer is
/// released. Pinned buffers are left alone. So payloads of one size
/// rotate the same buffers, a buffer never serves a payload of less than
/// half its size, and a high-water buffer that a shrinking workload (or a
/// warm-up full under delta delivery) no longer fits is freed at the next
/// take that finds it free.
#[derive(Debug, Default)]
pub struct EncodeArena {
    slots: Vec<Arc<Vec<u8>>>,
    cap: usize,
    reclaimed: u64,
    misses: u64,
    decays: u64,
}

impl EncodeArena {
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
            decays: 0,
        }
    }

    /// Take a free buffer of `len`'s size class, cleared, releasing every
    /// other free buffer (see the type's docs). `None` means no free
    /// buffer fits and the caller should allocate.
    fn take(&mut self, len: usize) -> Option<Vec<u8>> {
        let (class, mut fit) = (len..=len.saturating_mul(2), None);
        for slot in std::mem::take(&mut self.slots) {
            match Arc::try_unwrap(slot) {
                Err(pinned) => self.slots.push(pinned),
                Ok(buf) if fit.is_none() && class.contains(&buf.capacity()) => fit = Some(buf),
                Ok(_) => self.decays += 1,
            }
        }
        let mut buf = fit?;
        buf.clear();
        self.reclaimed += 1;
        Some(buf)
    }

    /// Park the backing buffer of a finished payload for future reuse.
    /// Oldest slots are evicted beyond the arena's capacity.
    pub fn recycle(&mut self, payload: &Payload) {
        if self.slots.len() == self.cap {
            self.slots.remove(0);
        }
        self.slots.push(Arc::clone(payload.backing()));
    }

    /// How many encodes reused a parked buffer.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// How many encodes had to allocate because no parked buffer was free.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// How many free buffers a take released instead of reusing.
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
/// See the module docs for the dataflow. `'a` is the lifetime of the
/// tensors a [`put_f32s`](Self::put_f32s) may leave queued: they are
/// borrowed until the next CRC point copies them.
#[derive(Debug)]
pub struct StreamingEncoder<'a> {
    buf: Vec<u8>,
    reused: bool,
    /// Per-chunk CRCs of `buf[..absorbed]` under the encoder's chunk
    /// geometry.
    crcs: ChunkCrcs,
    /// Bytes of `buf` already fed to `crcs`.
    absorbed: usize,
    /// Bytes written after `buf` and not yet copied into it.
    queue: Queue<'a>,
    /// Shares a flush (and a [`diff_into`](crate::delta::diff_into)
    /// compare) splits into, when forced; `None` sizes them by the bytes
    /// (`viper_tensor::split::share_count`).
    pub(crate) shares: Option<usize>,
}

/// The stream's tail that a split pass will copy and checksum: the
/// fixed-width bytes written while appends were queued, in `owned`, with
/// each queued append behind the `owned` bytes that precede it.
#[derive(Debug, Default)]
struct Queue<'a> {
    owned: Vec<u8>,
    /// `(owned.len() when queued, the borrowed bytes)`, in stream order.
    borrowed: Vec<(usize, &'a [u8])>,
    borrowed_len: usize,
}

impl<'a> Queue<'a> {
    fn len(&self) -> usize {
        self.owned.len() + self.borrowed_len
    }

    /// The queued stream as consecutive byte runs.
    fn runs(&self) -> Vec<&[u8]> {
        let mut runs = Vec::with_capacity(2 * self.borrowed.len() + 1);
        let mut at = 0;
        for &(until, bytes) in &self.borrowed {
            runs.extend([&self.owned[at..until], bytes]);
            at = until;
        }
        runs.push(&self.owned[at..]);
        runs
    }
}

impl<'a> StreamingEncoder<'a> {
    /// Encoder with a fresh buffer. `chunk_bytes` fixes the CRC chunk
    /// geometry (`0` = single chunk).
    pub fn new(chunk_bytes: u64) -> Self {
        StreamingEncoder {
            buf: Vec::new(),
            reused: false,
            crcs: ChunkCrcs::new(chunk_bytes),
            absorbed: 0,
            queue: Queue::default(),
            shares: None,
        }
    }

    /// Encoder drawing its buffer from `arena` when a free parked one lies
    /// in `capacity`'s size class, allocating `capacity` bytes otherwise.
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

    /// This encoder with every bulk append queued and every flush split
    /// into exactly `shares` shares, whatever the sizes and the host: how
    /// tests pin a split (or the one-share queued path) on small inputs.
    #[cfg(test)]
    pub(crate) fn with_shares(mut self, shares: usize) -> Self {
        self.shares = Some(shares);
        self
    }

    /// Whether the buffer came from an arena (no fresh allocation).
    pub fn reused(&self) -> bool {
        self.reused
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() + self.queue.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the fixed-width writers put their bytes: behind the queued
    /// appends while there are any, in the buffer otherwise.
    fn tail(&mut self) -> &mut Vec<u8> {
        if self.queue.borrowed.is_empty() {
            &mut self.buf
        } else {
            &mut self.queue.owned
        }
    }

    /// Append raw bytes. They are copied at once: checksummed in the same
    /// pass into the buffer, or, behind queued appends, into the queue,
    /// where the flush that copies those checksums them too.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        if !self.queue.borrowed.is_empty() {
            self.queue.owned.extend_from_slice(bytes);
            return;
        }
        self.absorb_buf();
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
        self.tail().push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.tail().extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.tail().extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string (u32 length, then bytes),
    /// matching `checkpoint::put_string`.
    pub fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.tail().extend_from_slice(s.as_bytes());
    }

    /// Append `f32`s as little-endian bytes: the slice's own byte view,
    /// copied and checksummed in one pass. A large encode queues the view
    /// instead (it borrows `data` for `'a`), and the next CRC point —
    /// [`mark`](Self::mark), [`stream_crc`](Self::stream_crc),
    /// [`crc_since`](Self::crc_since) or [`finish`](Self::finish) — copies
    /// everything queued in one fork-join over byte-balanced shares.
    pub fn put_f32s(&mut self, data: &'a [f32]) {
        match f32s_as_le_bytes(data) {
            Some(bytes) if self.queues(bytes.len()) => {
                self.queue.borrowed.push((self.queue.owned.len(), bytes));
                self.queue.borrowed_len += bytes.len();
            }
            Some(bytes) => self.put_bytes(bytes),
            None => put_f32s(self.tail(), data),
        }
    }

    /// Whether an append of `bytes` is queued: always behind an append
    /// already queued, and otherwise when the encode is big enough to
    /// split — judged by the append or by the buffer reserved for the
    /// whole encode — so a small encode runs eagerly, with no queue, no
    /// allocation and no fork.
    fn queues(&self, bytes: usize) -> bool {
        !self.queue.borrowed.is_empty()
            || self.shares.is_some()
            || share_count(bytes.max(self.buf.capacity())) > 1
    }

    /// Append the 0-3 zero bytes that bring the body begun at `mark` to a
    /// 4-byte boundary: the pad in front of every tensor payload, so that a
    /// receiver can view the payload in place as `f32`s. Matches
    /// `checkpoint::put_pad` for a body that starts at `mark`.
    pub fn put_pad(&mut self, mark: StreamMark) {
        let pad = pad_len(self.len() - mark.pos);
        let tail = self.tail();
        tail.resize(tail.len() + pad, 0);
    }

    /// Feed the buffer's not-yet-checksummed bytes into the chunk CRCs.
    /// Only the fixed-width writers (`put_u8` … `put_string`, `put_pad`)
    /// leave bytes pending — a few dozen per tensor record — and every
    /// eager bulk append and every CRC point absorbs them first, so a
    /// format writer has no call to make.
    fn absorb_buf(&mut self) {
        self.crcs.update(&self.buf[self.absorbed..]);
        self.absorbed = self.buf.len();
    }

    /// Bring the chunk CRCs up to every byte written: absorb the buffer's
    /// pending bytes, then copy and checksum the queue in one fork-join.
    /// Each share rolls its own [`ChunkCrcs`] from its chunk phase into
    /// its own window of the buffer's spare capacity; the rollers are
    /// stitched back in order, and only then does the buffer's length
    /// cover the bytes, all of them initialised.
    fn absorb(&mut self) {
        self.absorb_buf();
        if self.queue.borrowed.is_empty() {
            return;
        }
        let total = self.queue.len();
        let at = self.buf.len();
        let shares = self.shares.unwrap_or_else(|| share_count(total));
        let chunk_bytes = self.crcs.chunk_bytes();
        self.buf.reserve(total);
        let runs = self.queue.runs();
        let mut spare = &mut self.buf.spare_capacity_mut()[..total];
        let jobs: Vec<_> = bounds(total, shares)
            .map(|range| {
                let window;
                (window, spare) = std::mem::take(&mut spare).split_at_mut(range.len());
                (
                    ChunkCrcs::at(chunk_bytes, (at + range.start) as u64),
                    window,
                    cut(runs.iter().map(|run| run.len()), range),
                )
            })
            .collect();
        let rolled = fork_join(jobs, |(mut crcs, mut window, pieces)| {
            for (run, piece) in pieces {
                let piece = &runs[run][piece];
                let to;
                (to, window) = std::mem::take(&mut window).split_at_mut(piece.len());
                crcs.update_copying(piece, to);
            }
            debug_assert!(window.is_empty(), "a share's pieces fill its window");
            crcs
        });
        for crcs in rolled {
            self.crcs.append(crcs);
        }
        // SAFETY: `reserve` left `total` bytes of capacity behind `len`,
        // and the shares' windows tile them: each piece of the queue was
        // copied into its own window by `update_copying`.
        unsafe { self.buf.set_len(at + total) };
        self.absorbed = self.buf.len();
        self.queue.owned.clear();
        self.queue.borrowed.clear();
        self.queue.borrowed_len = 0;
    }

    /// CRC32 of every byte written so far, folded across chunk boundaries
    /// (no byte is read again). Copies whatever is queued first.
    pub fn stream_crc(&mut self) -> u32 {
        self.absorb();
        self.crcs.stream_crc()
    }

    /// Snapshot the current position and stream CRC (absorbing pending
    /// bytes). Pair with [`crc_since`](Self::crc_since).
    pub fn mark(&mut self) -> StreamMark {
        StreamMark {
            pos: self.len(),
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

        // Drop every view of the first payload; now it is reclaimable by
        // any take whose size class its 1 KiB lies in.
        drop(first);
        let mut enc = StreamingEncoder::from_arena(&mut arena, 512, 0);
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
        parked(&mut arena, &[64; 3]);
        assert_eq!(arena.slots.len(), 1);
        // Two of the three encodes reclaimed the single parked buffer.
        assert_eq!(arena.reclaimed(), 2);
    }

    /// Park one buffer of each length, dropping every payload.
    fn parked(arena: &mut EncodeArena, lens: &[usize]) {
        for &n in lens {
            let mut enc = StreamingEncoder::from_arena(arena, n, 0);
            enc.put_bytes(&filled(n));
            let _ = enc.finish_into(arena);
        }
    }

    #[test]
    fn arena_reuses_an_in_class_buffer_and_releases_the_other_free_ones() {
        let mut arena = EncodeArena::with_slots(4);
        // Three free buffers: 256, 8192 and 512 bytes. A take of 300
        // bytes fits only the 512-byte one, neither first nor largest.
        parked(&mut arena, &[256, 8192, 512]);
        let buf = arena.take(300).expect("an in-class free buffer");
        assert_eq!(buf.capacity(), 512, "capacity in [len, 2·len] wins");
        assert!(buf.is_empty());
        assert_eq!(arena.decays(), 2, "256 B and 8 KiB are out of class");
        assert_eq!(arena.retained_capacity(), 0);
        // A take that nothing fits releases the free buffers and misses.
        parked(&mut arena, &[64]);
        assert!(arena.take(1024).is_none());
        assert_eq!(arena.decays(), 3);
    }

    #[test]
    fn arena_leaves_pinned_buffers_parked_at_any_size() {
        const BIG: usize = 1 << 16;
        const SMALL: usize = 1 << 10;
        let mut arena = EncodeArena::with_slots(4);
        // A big payload still viewed elsewhere: a run of small saves
        // neither reuses nor releases it.
        let mut enc = StreamingEncoder::from_arena(&mut arena, BIG, 0);
        enc.put_bytes(&filled(BIG));
        let big = enc.finish_into(&mut arena);
        parked(&mut arena, &[SMALL; 3]);
        assert_eq!(arena.misses(), 2, "the big buffer and one small one");
        assert_eq!(arena.reclaimed(), 2, "the small saves rotate one buffer");
        assert_eq!(arena.decays(), 0, "pinned is never released");
        assert_eq!(arena.retained_capacity(), BIG + SMALL);
        // Once the last view drops, the next small take releases it.
        drop(big);
        parked(&mut arena, &[SMALL]);
        assert_eq!(arena.decays(), 1);
        assert_eq!(arena.retained_capacity(), SMALL);
    }

    mod split {
        //! A split encode against the one-share encode: identical bytes,
        //! chunk CRCs and footer, wherever the cuts land.

        use super::super::*;
        use crate::crc::crc32;
        use crate::{delta, wire, Checkpoint, CheckpointFormat, PayloadKind, ViperFormat};
        use proptest::prelude::*;
        use viper_tensor::Tensor;

        /// The encodes compared: eager (no queue), queued in one share,
        /// and queued in two to five shares.
        const SHARES: [Option<usize>; 6] = [None, Some(1), Some(2), Some(3), Some(4), Some(5)];

        fn encoder<'a>(chunk_bytes: u64, shares: Option<usize>) -> StreamingEncoder<'a> {
            let enc = StreamingEncoder::new(chunk_bytes);
            match shares {
                Some(n) => enc.with_shares(n),
                None => enc,
            }
        }

        /// Run `write` under every share count and require one result;
        /// returns it.
        fn same_under_every_split<'a>(
            chunk_bytes: u64,
            write: impl Fn(&mut StreamingEncoder<'a>),
        ) -> EncodedPayload {
            let outs: Vec<EncodedPayload> = SHARES
                .iter()
                .map(|&shares| {
                    let mut enc = encoder(chunk_bytes, shares);
                    write(&mut enc);
                    enc.finish()
                })
                .collect();
            let one = &outs[0];
            for (out, shares) in outs.iter().zip(SHARES) {
                assert_eq!(out.payload.as_slice(), one.payload.as_slice(), "{shares:?}");
                assert_eq!(out.chunk_crcs, one.chunk_crcs, "{shares:?}");
                assert_eq!(out.chunk_bytes, chunk_bytes);
            }
            outs.into_iter().next().expect("six encodes")
        }

        /// The footer closing `bytes` is the CRC of the body behind `skip`.
        fn assert_footer(bytes: &[u8], skip: usize) {
            let (body, footer) = bytes.split_at(bytes.len() - 4);
            assert_eq!(footer, crc32(&body[skip..]).to_le_bytes());
        }

        fn full(ckpt: &Checkpoint, chunk_bytes: u64, envelope: bool) -> EncodedPayload {
            let out = same_under_every_split(chunk_bytes, |enc| {
                if envelope {
                    enc.put_bytes(&wire::envelope(PayloadKind::Full));
                }
                ViperFormat.encode_into(ckpt, enc);
            });
            let skip = if envelope { wire::WIRE_HEADER_BYTES } else { 0 };
            let legacy = ViperFormat.encode(ckpt);
            assert_eq!(&out.payload[skip..], &legacy[..]);
            assert_footer(&out.payload, skip);
            out
        }

        fn tensor(elems: usize, seed: u32) -> Tensor {
            let data = (0..elems as u32)
                .map(|i| (i ^ seed) as f32 * 0.25)
                .collect();
            Tensor::from_vec(data, &[elems]).unwrap()
        }

        /// Model `m`, tensors `a` and `b` of `elems` each: the first
        /// payload starts at byte 44, and the header run of `b` spans
        /// `44 + 4·elems .. 64 + 4·elems`.
        fn two_tensors(elems: usize) -> Checkpoint {
            let tensors = vec![
                ("a".into(), tensor(elems, 1)),
                ("b".into(), tensor(elems, 2)),
            ];
            Checkpoint::new("m", 7, tensors)
        }

        #[test]
        fn a_cut_inside_a_header_run() {
            // Two shares of the queued `a ‖ header(b) ‖ b` cut at
            // 44 + 4·elems + 10: ten bytes into `b`'s header run.
            for chunk_bytes in [0, 7, 64, 4 << 20] {
                full(&two_tensors(250), chunk_bytes, false);
                full(&two_tensors(250), chunk_bytes, true);
            }
        }

        #[test]
        fn a_cut_exactly_on_a_chunk_boundary() {
            // The two-share cut of `two_tensors(250)` is at 1054: make it a
            // chunk boundary, the first of several, and the only one.
            for chunk_bytes in [1054, 527, 1054 / 2 / 17] {
                full(&two_tensors(250), chunk_bytes, false);
            }
            // One tensor of 1000 elems: the cut is at 44 + 2000.
            let one = Checkpoint::new("m", 7, vec![("a".into(), tensor(1000, 3))]);
            for chunk_bytes in [2044, 1022, 4088, 0] {
                full(&one, chunk_bytes, false);
            }
        }

        #[test]
        fn a_cut_inside_a_tensor_at_the_transport_chunk_size() {
            // 9 MiB across three tensors under 4 MiB chunks, the
            // transport's size: cuts land inside payloads, chunks straddle
            // tensors, and the last chunk is short.
            let tensors = (0..3)
                .map(|i| (format!("t{i}"), tensor(786_432, i)))
                .collect();
            let ckpt = Checkpoint::new("big", 1, tensors);
            let out = full(&ckpt, 4 << 20, true);
            assert_eq!(out.chunk_crcs.len(), 3);
        }

        #[test]
        fn empty_and_tensorless_encodes() {
            full(&Checkpoint::new("empty", 0, vec![]), 0, false);
            full(&Checkpoint::new("empty", 0, vec![]), 5, true);
            let zero = Tensor::from_vec(vec![], &[0]).unwrap();
            let ckpt =
                Checkpoint::new("z", 0, vec![("z".into(), zero.clone()), ("y".into(), zero)]);
            full(&ckpt, 3, false);
        }

        fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
            let tensor =
                (1usize..4, 0usize..300, 0u32..=u32::MAX).prop_map(|(rank, elems, seed)| {
                    let mut dims = vec![1; rank];
                    dims[0] = elems;
                    let data = (0..elems as u32)
                        .map(|i| f32::from_bits(i.wrapping_mul(seed)))
                        .collect();
                    Tensor::from_vec(data, &dims).unwrap()
                });
            let named = prop::collection::vec(("[a-z]{1,9}", tensor), 0..6);
            ("[a-z]{0,7}", named).prop_map(|(name, tensors)| {
                let mut seen = std::collections::HashSet::new();
                let tensors = tensors
                    .into_iter()
                    .filter(|(n, _)| seen.insert(n.clone()))
                    .collect();
                Checkpoint::new(name, 3, tensors)
            })
        }

        fn arb_chunk_bytes() -> impl Strategy<Value = u64> {
            prop_oneof![Just(0u64), 1u64..97, Just(128), Just(4 << 20)]
        }

        proptest! {
            /// Random tensor layouts, with and without a wire envelope.
            #[test]
            fn split_full_encode_is_the_one_share_encode(
                ckpt in arb_checkpoint(),
                chunk_bytes in arb_chunk_bytes(),
                envelope in prop_oneof![Just(false), Just(true)],
            ) {
                full(&ckpt, chunk_bytes, envelope);
            }

            /// The delta writer, behind its envelope: every change pattern.
            #[test]
            fn split_delta_encode_is_the_one_share_encode(
                base in arb_checkpoint(),
                changes in prop::collection::vec(prop_oneof![Just(false), Just(true)], 6..7),
                chunk_bytes in arb_chunk_bytes(),
            ) {
                let tensors = base.tensors.iter().zip(&changes).map(|((name, t), &change)| {
                    let t = if change { tensor(t.len(), 9).reshape(t.dims()).unwrap() } else { t.clone() };
                    (name.clone(), t)
                });
                let new = Checkpoint::new(base.model_name.clone(), base.iteration + 1, tensors.collect());
                let out = same_under_every_split(chunk_bytes, |enc| {
                    enc.put_bytes(&wire::envelope(PayloadKind::Delta));
                    delta::diff_into(&base, &new, enc).unwrap();
                });
                let legacy = wire::frame(PayloadKind::Delta, &delta::diff(&base, &new).unwrap().encode());
                prop_assert_eq!(out.payload.as_slice(), &legacy[..]);
                assert_footer(&out.payload, wire::WIRE_HEADER_BYTES);
            }
        }
    }

    #[test]
    fn empty_encode_is_one_empty_chunk() {
        let out = StreamingEncoder::new(4096).finish();
        assert!(out.payload.is_empty());
        assert_eq!(out.chunk_crcs.len(), 1);
        assert_eq!(out.chunk_crcs[0], crc32(b""));
    }
}
