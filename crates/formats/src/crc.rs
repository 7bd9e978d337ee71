//! CRC32 (IEEE 802.3 polynomial), used for checkpoint integrity footers
//! and per-chunk transport checksums.
//!
//! Several kernels compute the same function, and a [`Crc32Kernel`]
//! dispatch layer picks the fastest one **once, at startup**, after
//! proving it byte-identical to the table reference on a self-test
//! corpus. Every public entry point — [`crc32`], the streaming
//! [`Crc32`], and the block-parallel [`crc32_parallel`] — routes through
//! the selected kernel, so the fused encoder, the fabric's receive-side
//! chunk verify, and relay re-serve all ride it with no call-site
//! changes:
//!
//! * **CLMUL** — PCLMULQDQ carry-less-multiply folding on `x86_64`
//!   (requires the `pclmulqdq` + `sse4.1` CPU features, detected at
//!   runtime): four 128-bit lanes fold 64 input bytes per iteration,
//!   an order of magnitude past the table kernels on multi-MiB blocks.
//! * [`crc32`] via **slice-by-16** — sixteen 256-entry tables consume 16
//!   input bytes per iteration. The portable kernel, and the forced
//!   fallback under `VIPER_FORCE_PORTABLE_CRC=1`.
//! * [`crc32_parallel`] — splits large inputs into blocks, checksums them
//!   (with the dispatched kernel) on the rayon pool, and merges the
//!   partial CRCs algebraically with [`crc32_combine`] — no byte is read
//!   twice. On hosts without CLMUL this *is* the accelerated path for
//!   big one-shot checksums: portable block parallelism over the
//!   combine algebra.
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
//! with [`Crc32::update`] and [`Crc32::finalize`] at the end. The fused
//! encoder uses it to checksum serialized bytes in the same pass that
//! produces them. [`crc32_combine`] stitches independently computed CRCs
//! together (`crc(A ‖ B)` from `crc(A)`, `crc(B)`, `len(B)`), which both
//! parallel block CRCs and the encoder's footer derivation ride on.

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
#[cfg(target_arch = "x86_64")]
mod clmul {
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

    /// Whether the host CPU can run this kernel.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Raw-state CRC update over `bytes`. Arbitrary lengths: the aligned
    /// middle runs the folded SIMD loop, head/tail bytes fall back to the
    /// table kernel. Safe wrapper — callers need not check CPU features
    /// beyond [`available`].
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::update_slice16(state, bytes);
        }
        let simd_len = bytes.len() & !15;
        // SAFETY: gated on `available()` by the dispatch layer; the
        // kernel itself only reads `bytes[..simd_len]` via unaligned
        // loads, and `simd_len >= 64` and is a multiple of 16 here.
        let state = unsafe { fold_blocks(state, &bytes[..simd_len]) };
        super::update_slice16(state, &bytes[simd_len..])
    }

    /// The folded SIMD loop. `bytes.len()` must be ≥ 64 and a multiple
    /// of 16.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold_blocks(state: u32, bytes: &[u8]) -> u32 {
        use std::arch::x86_64::*;
        debug_assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));

        /// One 128-bit fold: carry the accumulator `a` forward across the
        /// distance encoded by `keys` and absorb the next block `b`.
        #[inline]
        #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
        unsafe fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
            let lo = _mm_clmulepi64_si128(a, keys, 0x00);
            let hi = _mm_clmulepi64_si128(a, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(lo, hi), b)
        }

        let mut p = bytes.as_ptr() as *const __m128i;
        let mut len = bytes.len();
        // Seed four lanes with the first 64 bytes; the running CRC state
        // folds into the low dword of the first lane.
        let mut x0 = _mm_loadu_si128(p);
        let mut x1 = _mm_loadu_si128(p.add(1));
        let mut x2 = _mm_loadu_si128(p.add(2));
        let mut x3 = _mm_loadu_si128(p.add(3));
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(state as i32));
        p = p.add(4);
        len -= 64;

        let k1k2 = _mm_set_epi64x(K2, K1);
        while len >= 64 {
            x0 = fold16(x0, _mm_loadu_si128(p), k1k2);
            x1 = fold16(x1, _mm_loadu_si128(p.add(1)), k1k2);
            x2 = fold16(x2, _mm_loadu_si128(p.add(2)), k1k2);
            x3 = fold16(x3, _mm_loadu_si128(p.add(3)), k1k2);
            p = p.add(4);
            len -= 64;
        }

        // Collapse the four lanes into one, then fold the 16-byte tail
        // blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x0, x1, k3k4);
        x = fold16(x, x2, k3k4);
        x = fold16(x, x3, k3k4);
        while len >= 16 {
            x = fold16(x, _mm_loadu_si128(p), k3k4);
            p = p.add(1);
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

    /// Raw-state update with this specific kernel. Panics if the kernel
    /// is not [`available`](Self::available) on this host.
    fn update_state(self, state: u32, bytes: &[u8]) -> u32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            Crc32Kernel::Clmul => clmul::update(state, bytes),
            #[cfg(not(target_arch = "x86_64"))]
            Crc32Kernel::Clmul => unreachable!("CLMUL kernel is x86_64-only"),
            Crc32Kernel::Slice16 => update_slice16(state, bytes),
            Crc32Kernel::Bytewise => {
                let t = &tables()[0];
                let mut crc = state;
                for &b in bytes {
                    crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
                }
                crc
            }
        }
    }
}

/// Candidate self-test: run `kernel` against the slice-by-16 reference
/// over lengths straddling every internal boundary (sub-16 tail, sub-64
/// seed, lane collapse) plus a split-state continuation, and require
/// bit-identical answers. A kernel that fails is skipped, never selected
/// — "fastest *proven-identical*".
fn proves_identical(kernel: Crc32Kernel) -> bool {
    let mut data = [0u8; 257];
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    for b in data.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (s >> 56) as u8;
    }
    for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 100, 128, 255, 257] {
        let d = &data[..len];
        if kernel.update_state(0xFFFF_FFFF, d) != update_slice16(0xFFFF_FFFF, d) {
            return false;
        }
    }
    // Mid-stream splice: state from a ragged prefix must continue exactly.
    let mid = update_slice16(0xFFFF_FFFF, &data[..37]);
    kernel.update_state(mid, &data[37..]) == update_slice16(mid, &data[37..])
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

/// Raw-state update through the process-wide active kernel.
#[inline]
fn update_raw(crc: u32, bytes: &[u8]) -> u32 {
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Crc32Kernel::Clmul => clmul::update(crc, bytes),
        _ => update_slice16(crc, bytes),
    }
}

/// CRC32 of a byte slice, dispatched to the fastest proven kernel (see
/// [`active_kernel`]).
pub fn crc32(bytes: &[u8]) -> u32 {
    !update_raw(0xFFFF_FFFF, bytes)
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
    !kernel.update_state(0xFFFF_FFFF, bytes)
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
        self.state = update_raw(self.state, bytes);
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

/// A GF(2) operator advancing a CRC across `len` bytes of zeros, the
/// building block of [`crc32_combine`]. Precompute once per block length
/// when folding many equally-sized partial CRCs: applying the operator is
/// 32 conditional XORs, while building it is ~`log2(len)` 32×32 matrix
/// squarings.
#[derive(Clone, Debug)]
pub struct CrcShift {
    mat: [u32; 32],
}

/// `out[n] = mat * vec[n]` over GF(2): each matrix column is a u32 bit
/// vector; multiplying by a vector XORs the columns selected by its bits.
fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0usize;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

fn gf2_matrix_square(mat: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    for (o, &col) in out.iter_mut().zip(mat.iter()) {
        *o = gf2_times(mat, col);
    }
    out
}

fn gf2_matrix_mult(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    for (o, &col) in out.iter_mut().zip(b.iter()) {
        *o = gf2_times(a, col);
    }
    out
}

impl CrcShift {
    /// Operator for `len` zero bytes (zlib's squaring construction: build
    /// the one-byte operator, then square-and-multiply over the bits of
    /// `len`).
    pub fn new(len: u64) -> Self {
        // One-zero-*bit* operator: row 0 is the polynomial, the rest shift.
        let mut odd = [0u32; 32];
        odd[0] = POLY;
        let mut row = 1u32;
        for col in odd.iter_mut().skip(1) {
            *col = row;
            row <<= 1;
        }
        // 1 bit -> 2 bits -> 4 bits -> 8 bits = one zero byte.
        let even = gf2_matrix_square(&odd);
        let odd = gf2_matrix_square(&even);
        let byte_op = gf2_matrix_square(&odd);

        // Identity, then multiply in byte_op^(2^k) for each set bit of len.
        let mut mat = [0u32; 32];
        for (n, col) in mat.iter_mut().enumerate() {
            *col = 1u32 << n;
        }
        let mut op = byte_op;
        let mut rem = len;
        while rem != 0 {
            if rem & 1 != 0 {
                mat = gf2_matrix_mult(&op, &mat);
            }
            rem >>= 1;
            if rem != 0 {
                op = gf2_matrix_square(&op);
            }
        }
        CrcShift { mat }
    }

    /// Advance `crc` across this operator's span of zero bytes.
    pub fn apply(&self, crc: u32) -> u32 {
        gf2_times(&self.mat, crc)
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

/// Block size for [`crc32_parallel`]: large enough that per-block combine
/// cost (a handful of matrix ops) is noise, small enough to load-balance.
const PAR_BLOCK: usize = 1 << 20;

/// Inputs below this run on the caller's thread; rayon dispatch overhead
/// would dominate.
const PAR_MIN: usize = 4 * PAR_BLOCK;

/// CRC32 of a byte slice, block-parallel: splits into ~1 MiB blocks,
/// checksums them concurrently on the rayon pool, then folds the partial
/// CRCs with [`crc32_combine`]. Falls back to single-threaded [`crc32`]
/// below 4 MiB. Always returns exactly `crc32(bytes)`.
pub fn crc32_parallel(bytes: &[u8]) -> u32 {
    use rayon::prelude::*;
    if bytes.len() < PAR_MIN {
        return crc32(bytes);
    }
    // The vendored rayon shim parallelizes `for_each` over a mutable
    // target, so partial CRCs land positionally in a preallocated vec —
    // the same pattern the chunk-CRC pool uses.
    let nblocks = bytes.len().div_ceil(PAR_BLOCK);
    let mut parts = vec![0u32; nblocks];
    parts.par_iter_mut().enumerate().for_each(|(i, out)| {
        let start = i * PAR_BLOCK;
        let end = (start + PAR_BLOCK).min(bytes.len());
        *out = crc32(&bytes[start..end]);
    });
    let mut fold = CrcFold::new();
    for (i, &crc) in parts.iter().enumerate() {
        let start = i * PAR_BLOCK;
        fold.push(crc, (bytes.len() - start).min(PAR_BLOCK) as u64);
    }
    fold.crc()
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
    fn parallel_matches_sequential() {
        // Below, at, and above the parallel threshold; ragged tails.
        for len in [
            0usize,
            1,
            PAR_MIN - 1,
            PAR_MIN,
            PAR_MIN + 1,
            6 * PAR_BLOCK + 12_345,
        ] {
            let data = lcg_bytes(55 + len as u64, len);
            assert_eq!(crc32_parallel(&data), crc32(&data), "len {len}");
        }
    }

    #[test]
    fn crc_shift_reuse_equals_fresh_combine() {
        let shift = CrcShift::new(777);
        for crc in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(shift.apply(crc), crc32_combine(crc, 0, 777));
        }
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
                assert_eq!(
                    crc32_with(kernel, &data),
                    crc32_bytewise(&data),
                    "kernel {} len {len}",
                    kernel.label()
                );
            }
            // Unaligned starts into a large buffer.
            let data = lcg_bytes(0xA11A, 65536 + 7);
            for skip in 0..16usize {
                assert_eq!(
                    crc32_with(kernel, &data[skip..]),
                    crc32_bytewise(&data[skip..]),
                    "kernel {} skip {skip}",
                    kernel.label()
                );
            }
            // Multi-MiB block (the throughput case the dispatch exists for).
            let big = lcg_bytes(0xB16, 3 * 1024 * 1024 + 9);
            assert_eq!(
                crc32_with(kernel, &big),
                crc32_bytewise(&big),
                "kernel {}",
                kernel.label()
            );
        }
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
            let mid = Crc32Kernel::Slice16.update_state(0xFFFF_FFFF, &data[..split]);
            let a = Crc32Kernel::Clmul.update_state(mid, &data[split..]);
            let b = Crc32Kernel::Slice16.update_state(mid, &data[split..]);
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
