//! CRC32 (IEEE 802.3 polynomial), used for checkpoint integrity footers
//! and per-chunk transport checksums.
//!
//! Several kernels compute the same function, and a [`Crc32Kernel`]
//! dispatch layer picks the fastest one **once, at startup**, after
//! proving it byte-identical to the table reference on a self-test
//! corpus. Every public entry point — [`crc32`] and the streaming
//! [`Crc32`] — routes through the selected kernel, so the fused encoder,
//! the fabric's receive-side chunk verify, and relay re-serve all ride it
//! with no call-site changes:
//!
//! * **CLMUL** — PCLMULQDQ carry-less-multiply folding on `x86_64`
//!   (requires the `pclmulqdq` + `sse4.1` CPU features, detected at
//!   runtime): four 128-bit lanes fold 64 input bytes per iteration,
//!   an order of magnitude past the table kernels on multi-MiB blocks.
//!   The same loop, with its stores compiled in, is the *copying* kernel
//!   behind [`Crc32::update_copying`]: bytes that must be both moved and
//!   checksummed (a tensor entering the encode buffer, a tensor copied
//!   out by a self-verifying decode) are read from memory once instead of
//!   twice.
//! * [`crc32`] via **slice-by-16** — sixteen 256-entry tables consume 16
//!   input bytes per iteration. The portable kernel, and the forced
//!   fallback under `VIPER_FORCE_PORTABLE_CRC=1`.
//! * [`crc32_bytewise`] — the original byte-at-a-time reference, kept as
//!   the equality oracle for tests, the self-test ladder, and the
//!   before/after baseline for the `hotpath` bench.
//!
//! Kernel choice changes **wall-clock speed only**: every kernel returns
//! bit-identical checksums (enforced by the startup self-test and the
//! kernel-equivalence proptests), and no virtual-clock charge anywhere
//! reads the kernel, so simulated timelines are unaffected.
//!
//! [`Crc32`] is the streaming form of [`crc32`]: feed bytes in any split
//! with [`Crc32::update`] (or [`Crc32::update_copying`], which also
//! writes them to a destination) and [`Crc32::finalize`] at the end.
//! [`ChunkCrcs`] rolls one over at every chunk boundary of a stream; the
//! fused encoder checksums through it in the same pass that moves the
//! bytes, as the self-verifying decode does through one [`Crc32`].
//! [`crc32_combine`] stitches independently computed CRCs together
//! (`crc(A ‖ B)` from `crc(A)`, `crc(B)`, `len(B)`), which the encoder's
//! footer derivation, the receiver's range CRCs over verified chunks and
//! the cuts of the split byte passes ride on.

use std::mem::MaybeUninit;

const POLY: u32 = 0xEDB8_8320;

fn byte_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[i] = crc;
        i += 1;
    }
    t
}

/// Sixteen tables: `tables[0]` is the classic bytewise table; `tables[k][b]`
/// advances the CRC of byte `b` through `k` additional zero bytes, letting
/// the main loop fold 16 input bytes per iteration.
fn tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        t[0] = byte_table();
        for k in 1..16 {
            for b in 0..256 {
                let prev = t[k - 1][b];
                t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Slice-by-16 state update: the portable hot-path kernel.
#[inline]
fn update_slice16(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        let d = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
        let e = u32::from_le_bytes([c[12], c[13], c[14], c[15]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][((a >> 24) & 0xFF) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][((b >> 24) & 0xFF) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][((d >> 24) & 0xFF) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][((e >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The portable kernel, optionally copying: slice-by-16 over `src` and,
/// when `COPY`, the same bytes stored to `dst` (which is then exactly as
/// long as `src`) a cache-resident block at a time, so the copy re-reads
/// from L1 what the tables just read from memory.
fn update_portable<const COPY: bool>(mut crc: u32, src: &[u8], dst: &mut [MaybeUninit<u8>]) -> u32 {
    if !COPY {
        return update_slice16(crc, src);
    }
    const BLOCK: usize = 16 * 1024;
    for (from, to) in src.chunks(BLOCK).zip(dst.chunks_mut(BLOCK)) {
        crc = update_slice16(crc, from);
        to.write_copy_of_slice(from);
    }
    crc
}

/// PCLMULQDQ carry-less-multiply folding kernel (`x86_64` only).
///
/// The classic Intel white-paper construction for the *reflected* IEEE
/// polynomial: four 128-bit accumulators fold 64 input bytes per
/// iteration through `x^512`-distance constants, collapse to one lane,
/// fold the remaining 16-byte blocks, then reduce 128 → 64 → 32 bits
/// with a Barrett reduction. Operates on the raw (pre-inverted) CRC
/// state so it splices into the streaming state machine at any offset;
/// sub-16-byte heads/tails go through the slice-by-16 table kernel,
/// which keeps every split byte-exact.
///
/// There is one fold loop. `COPY` compiles a store of every block it
/// loads into it — the copying kernel — and compiles to the plain CRC
/// kernel without. Either way the loop prefetches ahead of its loads: the
/// folds form four dependent chains, which alone keep too few cache
/// misses in flight to stream from DRAM.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::mem::MaybeUninit;

    /// `x^(4·128+32) mod P` and `x^(4·128-32) mod P` (64-byte fold pair),
    /// reflected-domain, bit-reversed with the implicit +1 — the standard
    /// published constants for CRC-32/IEEE.
    const K1: i64 = 0x0001_5444_2bd4;
    const K2: i64 = 0x0001_c6e4_1596;
    /// `x^(128+32) mod P` / `x^(128-32) mod P` (16-byte fold pair).
    const K3: i64 = 0x0001_7519_97d0;
    const K4: i64 = 0x0000_ccaa_009e;
    /// `x^64 mod P` (128 → 64 reduction).
    const K5: i64 = 0x0001_63cd_6124;
    /// The polynomial `P'` and Barrett constant `u'` for the final
    /// 64 → 32 reduction.
    const PX: i64 = 0x0001_db71_0641;
    const UP: i64 = 0x0001_f701_1641;

    /// How far ahead of its loads the fold loop prefetches, in bytes.
    /// Chosen from the `hotpath` bench's cold rows (128 MiB inputs rotated
    /// through a 1 GiB working set; the sweep is in CHANGES.md, PR 20):
    /// CRC-only throughput climbs with the distance until 4 KiB and is
    /// flat beyond, the copying loop is flat from 1 KiB on, and neither
    /// loses anything on cache-resident input.
    const PREFETCH_AHEAD: usize = 4096;

    /// Whether the host CPU can run this kernel.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Raw-state CRC update over `src`, also copying it to `dst` when
    /// `COPY` (`dst` is then exactly as long as `src`; without `COPY` it
    /// is ignored). Arbitrary lengths: the aligned middle runs the folded
    /// SIMD loop, head/tail bytes fall back to the table kernel. Safe
    /// wrapper — callers need not check CPU features beyond [`available`].
    pub(super) fn update<const COPY: bool>(
        state: u32,
        src: &[u8],
        dst: &mut [MaybeUninit<u8>],
    ) -> u32 {
        if src.len() < 64 {
            return super::update_portable::<COPY>(state, src, dst);
        }
        let (src, src_tail) = src.split_at(src.len() & !15);
        let (dst, dst_tail) = dst.split_at_mut(if COPY { src.len() } else { 0 });
        // SAFETY: gated on `available()` by the dispatch layer; `src` is at
        // least 64 bytes and a multiple of 16, and with `COPY` `dst` was
        // just split to the same length.
        let state = unsafe { fold_blocks::<COPY>(state, src, dst) };
        super::update_portable::<COPY>(state, src_tail, dst_tail)
    }

    /// The folded SIMD loop.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`; `src.len()` must be
    /// at least 64 and a multiple of 16; with `COPY`, `dst.len()` must
    /// equal `src.len()`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold_blocks<const COPY: bool>(
        state: u32,
        src: &[u8],
        dst: &mut [MaybeUninit<u8>],
    ) -> u32 {
        use std::arch::x86_64::*;
        debug_assert!(src.len() >= 64 && src.len().is_multiple_of(16));
        debug_assert!(!COPY || dst.len() == src.len());

        /// One 128-bit fold: carry the accumulator `a` forward across the
        /// distance encoded by `keys` and absorb the next block `b`.
        #[inline]
        #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
        unsafe fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
            let lo = _mm_clmulepi64_si128(a, keys, 0x00);
            let hi = _mm_clmulepi64_si128(a, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(lo, hi), b)
        }

        /// Load the 16-byte block at `p` and, when `COPY`, store it at `q`.
        /// `q` advances in step with `p` (wrapping: it is dangling and
        /// never dereferenced without `COPY`).
        #[inline]
        #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
        unsafe fn block<const COPY: bool>(p: *const __m128i, q: *mut __m128i) -> __m128i {
            let b = _mm_loadu_si128(p);
            if COPY {
                _mm_storeu_si128(q, b);
            }
            b
        }

        let mut p = src.as_ptr() as *const __m128i;
        let mut q = dst.as_mut_ptr() as *mut __m128i;
        let mut len = src.len();
        // Seed four lanes with the first 64 bytes; the running CRC state
        // folds into the low dword of the first lane.
        let mut x0 = block::<COPY>(p, q);
        let mut x1 = block::<COPY>(p.add(1), q.wrapping_add(1));
        let mut x2 = block::<COPY>(p.add(2), q.wrapping_add(2));
        let mut x3 = block::<COPY>(p.add(3), q.wrapping_add(3));
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(state as i32));
        p = p.add(4);
        q = q.wrapping_add(4);
        len -= 64;

        let k1k2 = _mm_set_epi64x(K2, K1);
        while len >= 64 {
            // A prefetch never faults, so running past the end of `src`
            // is harmless; the address is formed with wrapping arithmetic
            // because it may lie outside the allocation.
            _mm_prefetch::<_MM_HINT_T0>((p as *const i8).wrapping_add(PREFETCH_AHEAD));
            x0 = fold16(x0, block::<COPY>(p, q), k1k2);
            x1 = fold16(x1, block::<COPY>(p.add(1), q.wrapping_add(1)), k1k2);
            x2 = fold16(x2, block::<COPY>(p.add(2), q.wrapping_add(2)), k1k2);
            x3 = fold16(x3, block::<COPY>(p.add(3), q.wrapping_add(3)), k1k2);
            p = p.add(4);
            q = q.wrapping_add(4);
            len -= 64;
        }

        // Collapse the four lanes into one, then fold the 16-byte tail
        // blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x0, x1, k3k4);
        x = fold16(x, x2, k3k4);
        x = fold16(x, x3, k3k4);
        while len >= 16 {
            x = fold16(x, block::<COPY>(p, q), k3k4);
            p = p.add(1);
            q = q.wrapping_add(1);
            len -= 16;
        }

        // Reduce 128 → 64 bits.
        let lo32 = _mm_set_epi32(0, !0, 0, !0);
        let t = _mm_clmulepi64_si128(x, k3k4, 0x10);
        x = _mm_xor_si128(_mm_srli_si128(x, 8), t);
        let k5 = _mm_set_epi64x(0, K5);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), k5, 0x00);
        x = _mm_xor_si128(_mm_srli_si128(x, 4), t);

        // Barrett reduction 64 → 32 bits.
        let pu = _mm_set_epi64x(UP, PX);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, lo32), pu, 0x00);
        x = _mm_xor_si128(x, t2);
        _mm_extract_epi32(x, 1) as u32
    }
}

/// A CRC32 kernel the dispatch layer can select. All kernels compute the
/// identical function; they differ only in wall-clock speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crc32Kernel {
    /// PCLMULQDQ carry-less-multiply folding (`x86_64` with the
    /// `pclmulqdq` + `sse4.1` features). The hardware kernel.
    Clmul,
    /// Slice-by-16 table kernel. Portable; always available.
    Slice16,
    /// Byte-at-a-time reference. The oracle, never auto-selected.
    Bytewise,
}

impl Crc32Kernel {
    /// Whether this kernel can run on the host CPU.
    pub fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Crc32Kernel::Clmul => clmul::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Crc32Kernel::Clmul => false,
            Crc32Kernel::Slice16 | Crc32Kernel::Bytewise => true,
        }
    }

    /// Stable label for benches, traces, and reports.
    pub fn label(self) -> &'static str {
        match self {
            Crc32Kernel::Clmul => "clmul",
            Crc32Kernel::Slice16 => "slice16",
            Crc32Kernel::Bytewise => "bytewise",
        }
    }

    /// Raw-state update with this specific kernel, also copying `src` to
    /// `dst` when `COPY` (`dst` is then exactly as long as `src`; without
    /// `COPY` it is ignored). Panics if the kernel is not
    /// [`available`](Self::available) on this host.
    fn update_state<const COPY: bool>(
        self,
        state: u32,
        src: &[u8],
        dst: &mut [MaybeUninit<u8>],
    ) -> u32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            Crc32Kernel::Clmul => clmul::update::<COPY>(state, src, dst),
            #[cfg(not(target_arch = "x86_64"))]
            Crc32Kernel::Clmul => unreachable!("CLMUL kernel is x86_64-only"),
            Crc32Kernel::Slice16 => update_portable::<COPY>(state, src, dst),
            Crc32Kernel::Bytewise => {
                if COPY {
                    dst.write_copy_of_slice(src);
                }
                let t = &tables()[0];
                let mut crc = state;
                for &b in src {
                    crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
                }
                crc
            }
        }
    }
}

/// Candidate self-test: run `kernel`, CRC-only and copying, against the
/// slice-by-16 reference over lengths straddling every internal boundary
/// (sub-16 tail, sub-64 seed, lane collapse) plus a split-state
/// continuation, and require bit-identical checksums, a byte-identical
/// copy, and untouched bytes either side of the copy's window. A kernel
/// that fails is skipped, never selected — "fastest *proven-identical*".
fn proves_identical(kernel: Crc32Kernel) -> bool {
    const GUARD: u8 = 0xA5;
    let mut data = [0u8; 257];
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    for b in data.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (s >> 56) as u8;
    }
    let data = &data;
    // Mid-stream splice: state from a ragged prefix must continue exactly.
    let mid = update_slice16(0xFFFF_FFFF, &data[..37]);
    let lens = [0usize, 1, 15, 16, 17, 63, 64, 65, 100, 128, 255, 257];
    let cases = lens.iter().map(|&len| (0xFFFF_FFFF, &data[..len]));
    for (state, src) in cases.chain([(mid, &data[37..])]) {
        let want = update_slice16(state, src);
        if kernel.update_state::<false>(state, src, &mut []) != want {
            return false;
        }
        // The copy lands 3 bytes into a guard-filled buffer, so the
        // destination is not aligned like the source.
        let mut out = [MaybeUninit::new(GUARD); 3 + 257 + 3];
        let window = &mut out[3..3 + src.len()];
        if kernel.update_state::<true>(state, src, window) != want {
            return false;
        }
        // SAFETY: `out` was initialised whole, and a kernel only ever
        // stores source bytes into it, never `MaybeUninit::uninit()`.
        let out = out.map(|b| unsafe { b.assume_init() });
        let (before, rest) = out.split_at(3);
        let (copy, after) = rest.split_at(src.len());
        if copy != src || before.iter().chain(after).any(|&b| b != GUARD) {
            return false;
        }
    }
    true
}

/// The kernel every dispatching entry point uses, chosen once per
/// process: the forced portable kernel if `VIPER_FORCE_PORTABLE_CRC` is
/// set (to anything but `0`/empty), otherwise the fastest available
/// kernel that passes the self-test (`proves_identical`) — CLMUL where
/// the CPU supports it, slice-by-16 everywhere else.
pub fn active_kernel() -> Crc32Kernel {
    use std::sync::OnceLock;
    static ACTIVE: OnceLock<Crc32Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let forced = std::env::var("VIPER_FORCE_PORTABLE_CRC")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if !forced && Crc32Kernel::Clmul.available() && proves_identical(Crc32Kernel::Clmul) {
            return Crc32Kernel::Clmul;
        }
        Crc32Kernel::Slice16
    })
}

/// Raw-state update through the process-wide active kernel; see
/// [`Crc32Kernel::update_state`] for `COPY` and `dst`.
#[inline]
fn update_raw<const COPY: bool>(crc: u32, src: &[u8], dst: &mut [MaybeUninit<u8>]) -> u32 {
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Crc32Kernel::Clmul => clmul::update::<COPY>(crc, src, dst),
        _ => update_portable::<COPY>(crc, src, dst),
    }
}

/// CRC32 of a byte slice, dispatched to the fastest proven kernel (see
/// [`active_kernel`]).
pub fn crc32(bytes: &[u8]) -> u32 {
    !update_raw::<false>(0xFFFF_FFFF, bytes, &mut [])
}

/// CRC32 of a byte slice with an explicitly chosen kernel. For benches
/// and kernel-equivalence tests; production paths use the dispatched
/// [`crc32`]. Panics if `kernel` is unavailable on this host.
pub fn crc32_with(kernel: Crc32Kernel, bytes: &[u8]) -> u32 {
    assert!(
        kernel.available(),
        "kernel {:?} unavailable on this host",
        kernel
    );
    !kernel.update_state::<false>(0xFFFF_FFFF, bytes, &mut [])
}

/// CRC32 of a byte slice, one byte per iteration. Reference implementation;
/// prefer [`crc32`] everywhere outside tests and baselines.
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let t = &tables()[0];
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Streaming CRC32 state: equivalent to [`crc32`] over the concatenation of
/// every slice passed to [`update`](Self::update), regardless of how the
/// input is split. `Copy` so callers can snapshot mid-stream state (the
/// fused encoder peeks at partial-chunk CRCs without consuming them).
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state; `finalize` with no updates yields `crc32(b"")`.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb `bytes` (dispatched to the active kernel; see
    /// [`active_kernel`]).
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update_raw::<false>(self.state, bytes, &mut []);
    }

    /// [`update`](Self::update) that also copies `src` into `dst` in the
    /// same pass over memory: with the hardware kernel each 64-byte block
    /// is stored as it is folded, so bytes that must be both moved and
    /// checksummed are read once. Every byte of `dst` is initialised on
    /// return. Panics unless `dst` is exactly as long as `src`.
    pub fn update_copying(&mut self, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
        self.update_copying_with(active_kernel(), src, dst);
    }

    /// [`update_copying`](Self::update_copying) with an explicitly chosen
    /// kernel, as [`crc32_with`] is to [`crc32`]: for benches and
    /// kernel-equivalence tests. Panics if `kernel` is unavailable on this
    /// host.
    pub fn update_copying_with(
        &mut self,
        kernel: Crc32Kernel,
        src: &[u8],
        dst: &mut [MaybeUninit<u8>],
    ) {
        assert!(kernel.available(), "kernel {kernel:?} unavailable");
        assert_eq!(src.len(), dst.len(), "destination must match the source");
        self.state = kernel.update_state::<true>(self.state, src, dst);
    }

    /// The CRC32 of everything absorbed so far. Non-consuming: the state
    /// remains valid for further updates.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// An operator advancing a CRC across `len` bytes of zeros, the building
/// block of [`crc32_combine`]: multiplication by `x^(8·len)` modulo the
/// CRC polynomial (zlib's `x2nmodp` construction). Building one costs a
/// polynomial multiply per set bit of `len`, a microsecond or two;
/// applying it is one multiply. Precompute once per block length when
/// folding many equally-sized partial CRCs.
#[derive(Clone, Debug)]
pub struct CrcShift {
    /// `x^(8·len) mod P`, reflected like the CRC state.
    op: u32,
}

/// `a · b mod P` over GF(2), both reflected (bit 31 is `x^0`). `a` must be
/// nonzero, which every power of `x` is.
fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `x^(2^k) mod P` for `k` in `0..32`. `P` is primitive of degree 32, so
/// `x` has order `2^32 - 1` and `x^(2^32) = x`: the table wraps.
fn x2n_table() -> &'static [u32; 32] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 32]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 32];
        let mut p = 1u32 << 30; // x^1
        for entry in table.iter_mut() {
            *entry = p;
            p = multmodp(p, p);
        }
        table
    })
}

impl CrcShift {
    /// Operator for `len` zero bytes: `x^(8·len)` as the product of the
    /// tabled `x^(2^k)` over the set bits of `8·len`.
    pub fn new(len: u64) -> Self {
        let table = x2n_table();
        let mut op = 1u32 << 31; // x^0
        let (mut n, mut k) = (len, 3usize);
        while n != 0 {
            if n & 1 != 0 {
                op = multmodp(table[k % 32], op);
            }
            n >>= 1;
            k += 1;
        }
        CrcShift { op }
    }

    /// Advance `crc` across this operator's span of zero bytes.
    pub fn apply(&self, crc: u32) -> u32 {
        multmodp(self.op, crc)
    }
}

/// CRC32 of the concatenation `A ‖ B` given `crc_a = crc32(A)`,
/// `crc_b = crc32(B)`, and `len_b = B.len()` — without touching any bytes.
/// This is the zlib `crc32_combine` identity: shifting `crc_a` across
/// `len_b` zero bytes and XOR-ing `crc_b` accounts for B's contribution
/// exactly. With `crc_a = 0` (the CRC of the empty string) it degrades to
/// a pure shift, which the fused encoder uses to *strip* a known prefix:
/// `crc(B) = crc(A ‖ B) ^ crc32_combine(crc(A), 0, len(B))`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    CrcShift::new(len_b).apply(crc_a) ^ crc_b
}

/// Folds the CRCs of consecutive byte runs into the CRC of their
/// concatenation — [`crc32_combine`] over a sequence, building each shift
/// operator once: a run as long as the one before it reuses that run's
/// [`CrcShift`], so a payload cut into equal chunks plus one odd tail costs
/// two operator builds however many chunks it has.
#[derive(Clone, Debug, Default)]
pub struct CrcFold {
    acc: u32,
    shift: Option<(u64, CrcShift)>,
}

impl CrcFold {
    /// The fold over no bytes; [`crc`](Self::crc) is `crc32(b"")`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a run of `len` bytes whose CRC32 is `crc`.
    pub fn push(&mut self, crc: u32, len: u64) {
        // The shift is linear, so 0 stays 0 over any span: the first run
        // (acc is still the CRC of the empty prefix) needs no operator.
        if self.acc != 0 {
            let built = self.shift.take().filter(|(span, _)| *span == len);
            let built = built.unwrap_or_else(|| (len, CrcShift::new(len)));
            self.acc = self.shift.insert(built).1.apply(self.acc);
        }
        self.acc ^= crc;
    }

    /// CRC32 of every run pushed so far, concatenated.
    pub fn crc(&self) -> u32 {
        self.acc
    }
}

/// CRC32s of the consecutive chunks of a byte stream, rolled as the stream
/// goes by: one [`Crc32`] that is closed out and restarted at every
/// multiple of `chunk_bytes`. The result is the chunk geometry the
/// transport splits a payload into (`chunk_sizes(len, chunk_bytes)`), so
/// the CRCs slot straight into chunk headers. The fused encoder rolls one
/// over the bytes it appends, through
/// [`update_copying`](Self::update_copying) wherever the bytes are also
/// being moved.
#[derive(Debug)]
pub(crate) struct ChunkCrcs {
    /// Bytes per chunk; `0` makes the whole stream one chunk.
    chunk_bytes: u64,
    /// CRCs of completed (full-sized) chunks.
    done: Vec<u32>,
    /// Rolling state of the current, partially-filled chunk.
    state: Crc32,
    /// Bytes of the current partial chunk, counted from its start.
    fill: u64,
    /// Bytes of the first chunk that precede this roller's first byte: `0`
    /// for a roller from the stream's start, the chunk phase of its start
    /// for one share of a split pass (see [`at`](Self::at)).
    phase: u64,
}

impl ChunkCrcs {
    pub(crate) fn new(chunk_bytes: u64) -> Self {
        Self::at(chunk_bytes, 0)
    }

    /// A roller for the bytes from stream position `pos` on: its chunks
    /// close at the stream's boundaries, and its first CRC covers only
    /// the first chunk's bytes from `pos`, until [`append`](Self::append)
    /// stitches it behind the roller of the bytes before `pos`.
    pub(crate) fn at(chunk_bytes: u64, pos: u64) -> Self {
        let phase = match chunk_bytes {
            0 => pos,
            chunk => pos % chunk,
        };
        ChunkCrcs {
            chunk_bytes,
            done: Vec::new(),
            state: Crc32::new(),
            fill: phase,
            phase,
        }
    }

    /// Continue this roller with `later`, the roller of the bytes that
    /// follow it (`later` was made [`at`](Self::at) this roller's stream
    /// position): the chunk the cut falls in is stitched with one
    /// [`crc32_combine`], the rest is taken as it is.
    pub(crate) fn append(&mut self, later: ChunkCrcs) {
        debug_assert_eq!(later.chunk_bytes, self.chunk_bytes, "one chunk geometry");
        debug_assert_eq!(later.phase, self.fill, "rolled from this roller's position");
        let before = self.state.finalize();
        match later.done.split_first() {
            Some((&head, rest)) => {
                let head_len = later.chunk_bytes - later.phase;
                self.done.push(crc32_combine(before, head, head_len));
                self.done.extend_from_slice(rest);
                self.state = later.state;
            }
            None => {
                let len = later.fill - later.phase;
                let crc = crc32_combine(before, later.state.finalize(), len);
                self.state = Crc32 { state: !crc };
            }
        }
        self.fill = later.fill;
    }

    /// The chunk size the CRCs are rolled for (`0` = one chunk).
    pub(crate) fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Absorb `bytes`, closing out chunks as their boundaries pass.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        self.roll::<false>(bytes, &mut []);
    }

    /// [`update`](Self::update) that also copies `src` into `dst` in the
    /// same pass (see [`Crc32::update_copying`]), split at the same chunk
    /// boundaries. Panics unless `dst` is exactly as long as `src`.
    pub(crate) fn update_copying(&mut self, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
        assert_eq!(src.len(), dst.len(), "destination must match the source");
        self.roll::<true>(src, dst);
    }

    fn roll<const COPY: bool>(&mut self, mut src: &[u8], mut dst: &mut [MaybeUninit<u8>]) {
        while !src.is_empty() {
            let room = match self.chunk_bytes {
                0 => usize::MAX,
                chunk => usize::try_from(chunk - self.fill).unwrap_or(usize::MAX),
            };
            let take = room.min(src.len());
            let (now, later) = src.split_at(take);
            let (to, to_later) = std::mem::take(&mut dst).split_at_mut(if COPY { take } else { 0 });
            self.state.state = update_raw::<COPY>(self.state.state, now, to);
            (src, dst) = (later, to_later);
            self.fill += take as u64;
            if self.fill == self.chunk_bytes {
                self.done.push(self.state.finalize());
                self.state = Crc32::new();
                self.fill = 0;
            }
        }
    }

    /// CRC32 of the whole stream so far, folded across the chunk
    /// boundaries with a [`CrcFold`]: no byte is read again.
    pub(crate) fn stream_crc(&self) -> u32 {
        let mut fold = CrcFold::new();
        for &crc in &self.done {
            fold.push(crc, self.chunk_bytes);
        }
        fold.push(self.state.finalize(), self.fill);
        fold.crc()
    }

    /// Seal the final chunk and return every chunk's CRC, in order. Never
    /// empty, like `chunk_sizes`: a trailing partial chunk, the single
    /// chunk of the `chunk_bytes == 0` / short-stream cases, or the empty
    /// stream's lone empty chunk closes the list.
    pub(crate) fn finish(mut self) -> Vec<u32> {
        if self.fill > 0 || self.done.is_empty() {
            self.done.push(self.state.finalize());
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fold_equals_pairwise_combine_and_the_one_shot_crc() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 31 % 251) as u8).collect();
        // Equal runs with an odd tail, ragged runs, empty runs, and data
        // whose leading run checksums to 0 (nothing to shift).
        for lens in [
            &[1000usize, 1000, 1000, 1000, 1000][..],
            &[1024, 1024, 1024, 1024, 904],
            &[1, 0, 4093, 0, 906],
            &[5000],
            &[0, 0],
            &[],
        ] {
            let (mut fold, mut pairwise, mut at) = (CrcFold::new(), 0u32, 0usize);
            for &len in lens {
                let crc = crc32(&data[at..at + len]);
                fold.push(crc, len as u64);
                pairwise = crc32_combine(pairwise, crc, len as u64);
                at += len;
            }
            assert_eq!(fold.crc(), pairwise, "{lens:?}");
            assert_eq!(fold.crc(), crc32(&data[..at]), "{lens:?}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flip() {
        let a = crc32(b"checkpoint-payload");
        let mut flipped = b"checkpoint-payload".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn deterministic() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&data), crc32(&data));
    }

    fn lcg_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_16_matches_bytewise_reference() {
        // Empty and tiny inputs.
        assert_eq!(crc32(b""), crc32_bytewise(b""));
        assert_eq!(crc32(b"x"), crc32_bytewise(b"x"));

        // Every length around the 16-byte kernel boundary, so the remainder
        // loop is exercised for all 16 residues.
        for len in 0..96usize {
            let data = lcg_bytes(0x1234_5678_9abc_def0 + len as u64, len);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len {len}");
        }

        // Unaligned starts: the kernel must not assume 16-byte alignment of
        // the slice pointer.
        let data = lcg_bytes(7, 1024);
        for skip in 0..16usize {
            assert_eq!(
                crc32(&data[skip..]),
                crc32_bytewise(&data[skip..]),
                "skip {skip}"
            );
        }

        // Multi-MiB input with a non-multiple-of-16 tail.
        let big = lcg_bytes(99, 3 * 1024 * 1024 + 5);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn streaming_matches_oneshot_for_any_split() {
        let data = lcg_bytes(11, 4096 + 3);
        let oneshot = crc32(&data);
        for split in [0, 1, 7, 15, 16, 17, 100, 4095, 4096, data.len()] {
            let mut s = Crc32::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finalize(), oneshot, "split {split}");
        }
        // Many tiny updates.
        let mut s = Crc32::new();
        for b in data.chunks(3) {
            s.update(b);
        }
        assert_eq!(s.finalize(), oneshot);
        // finalize is non-consuming / resumable.
        let mut s = Crc32::new();
        s.update(&data[..100]);
        assert_eq!(s.finalize(), crc32(&data[..100]));
        s.update(&data[100..]);
        assert_eq!(s.finalize(), oneshot);
    }

    #[test]
    fn combine_matches_sequential_known_splits() {
        let data = lcg_bytes(21, 3 * 1024 * 1024 + 7);
        let whole = crc32_bytewise(&data);
        for split in [
            0usize,
            1,
            15,
            16,
            4095,
            4096,
            1 << 20,
            data.len() - 1,
            data.len(),
        ] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split {split}"
            );
        }
        // Empty-empty edge.
        assert_eq!(crc32_combine(crc32(b""), crc32(b""), 0), crc32(b""));
    }

    #[test]
    fn combine_strips_known_prefix() {
        // crc(B) = crc(AB) ^ shift(crc(A), len B) — the fused encoder's
        // footer derivation.
        let data = lcg_bytes(33, 70_000);
        let (a, b) = data.split_at(12_345);
        let whole = crc32(&data);
        let stripped = whole ^ crc32_combine(crc32(a), 0, b.len() as u64);
        assert_eq!(stripped, crc32(b));
    }

    #[test]
    fn crc_shift_reuse_equals_fresh_combine() {
        let shift = CrcShift::new(777);
        for crc in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(shift.apply(crc), crc32_combine(crc, 0, 777));
        }
    }

    /// CRC32 of `src` as `kernel`'s copying variant computes it, having
    /// checked the copy it made (at a destination `skew` bytes off the
    /// allocation's alignment) against the source.
    fn crc32_copying(kernel: Crc32Kernel, src: &[u8], skew: usize) -> u32 {
        let mut out = Vec::with_capacity(skew + src.len());
        let mut crc = Crc32::new();
        crc.update_copying_with(
            kernel,
            src,
            &mut out.spare_capacity_mut()[skew..][..src.len()],
        );
        out.spare_capacity_mut()[..skew].fill(MaybeUninit::new(0));
        // SAFETY: the first `skew` bytes were just filled, and
        // `update_copying_with` initialised the `src.len()` behind them.
        unsafe { out.set_len(skew + src.len()) };
        assert_eq!(&out[skew..], src, "kernel {} copy", kernel.label());
        crc.finalize()
    }

    #[test]
    fn every_available_kernel_matches_bytewise_oracle() {
        for kernel in [
            Crc32Kernel::Clmul,
            Crc32Kernel::Slice16,
            Crc32Kernel::Bytewise,
        ] {
            if !kernel.available() {
                continue;
            }
            // Boundary lengths around the 16-byte tail loop, the 64-byte
            // SIMD seed, and the lane-collapse point.
            for len in [
                0usize, 1, 15, 16, 17, 48, 63, 64, 65, 79, 80, 127, 128, 129, 255, 256, 1000,
            ] {
                let data = lcg_bytes(0xC0DE + len as u64, len);
                let want = crc32_bytewise(&data);
                let label = kernel.label();
                assert_eq!(crc32_with(kernel, &data), want, "kernel {label} len {len}");
                assert_eq!(
                    crc32_copying(kernel, &data, len % 7),
                    want,
                    "copying kernel {label} len {len}"
                );
            }
            // Unaligned starts into a large buffer (and, for the copy,
            // differently unaligned destinations).
            let data = lcg_bytes(0xA11A, 65536 + 7);
            for skip in 0..16usize {
                let want = crc32_bytewise(&data[skip..]);
                let label = kernel.label();
                assert_eq!(
                    crc32_with(kernel, &data[skip..]),
                    want,
                    "kernel {label} skip {skip}"
                );
                assert_eq!(
                    crc32_copying(kernel, &data[skip..], 15 - skip),
                    want,
                    "copying kernel {label} skip {skip}"
                );
            }
            // Multi-MiB block (the throughput case the dispatch exists for).
            let big = lcg_bytes(0xB16, 3 * 1024 * 1024 + 9);
            let want = crc32_bytewise(&big);
            assert_eq!(crc32_with(kernel, &big), want, "kernel {}", kernel.label());
            assert_eq!(
                crc32_copying(kernel, &big, 3),
                want,
                "copying kernel {}",
                kernel.label()
            );
        }
    }

    #[test]
    fn chunk_crcs_roll_over_at_every_boundary_however_the_stream_is_fed() {
        let data = lcg_bytes(0xC4C5, 5000);
        for chunk in [0u64, 1, 7, 64, 1000, 1024, 4999, 5000, 5001, 1 << 20] {
            let want: Vec<u32> = match chunk {
                0 => vec![crc32(&data)],
                chunk => data.chunks(chunk as usize).map(crc32).collect(),
            };
            for piece in [1usize, 13, 64, 997, 5000] {
                let mut crcs = ChunkCrcs::new(chunk);
                let mut copy = Vec::with_capacity(data.len());
                // Alternate plain and copying updates over the pieces.
                for (i, src) in data.chunks(piece).enumerate() {
                    if i % 2 == 0 {
                        crcs.update(src);
                        copy.extend_from_slice(src);
                    } else {
                        crcs.update_copying(src, &mut copy.spare_capacity_mut()[..src.len()]);
                        // SAFETY: `update_copying` initialised the
                        // `src.len()` bytes behind `len`.
                        unsafe { copy.set_len(copy.len() + src.len()) };
                    }
                }
                assert_eq!(copy, data, "chunk {chunk} piece {piece}");
                assert_eq!(
                    crcs.stream_crc(),
                    crc32(&data),
                    "chunk {chunk} piece {piece}"
                );
                assert_eq!(crcs.finish(), want, "chunk {chunk} piece {piece}");
            }
        }
        // The empty stream is one empty chunk, whatever the geometry.
        assert_eq!(ChunkCrcs::new(64).finish(), [crc32(b"")]);
        assert_eq!(ChunkCrcs::new(0).finish(), [crc32(b"")]);
    }

    #[test]
    fn clmul_state_splices_with_table_kernel() {
        // Raw-state continuation across kernels: a prefix absorbed by one
        // kernel must hand off exactly to any other (the streaming Crc32
        // relies on this when the dispatch choice differs across tests).
        if !Crc32Kernel::Clmul.available() {
            return;
        }
        let data = lcg_bytes(0x5EED, 10_000);
        for split in [0usize, 1, 16, 37, 64, 100, 4096, 9_999, 10_000] {
            let (head, tail) = data.split_at(split);
            let mid = Crc32Kernel::Slice16.update_state::<false>(0xFFFF_FFFF, head, &mut []);
            let a = Crc32Kernel::Clmul.update_state::<false>(mid, tail, &mut []);
            let b = Crc32Kernel::Slice16.update_state::<false>(mid, tail, &mut []);
            assert_eq!(a, b, "split {split}");
        }
    }

    #[test]
    fn active_kernel_is_proven_identical() {
        let k = active_kernel();
        assert!(k.available());
        assert!(proves_identical(k));
    }
}
