//! Property tests for the CRC32 kernel dispatch layer: every kernel the
//! host can run (hardware carry-less-multiply, slice-by-16, bytewise)
//! must produce identical digests on arbitrary inputs — empty, one byte,
//! unaligned views, split anywhere and recombined — and the runtime
//! dispatcher must honor the `VIPER_FORCE_PORTABLE_CRC` override so CI
//! can pin the portable path on hardware that would otherwise pick the
//! accelerated kernel. The copying variant of every kernel
//! (`Crc32::update_copying`) is held to the same oracle, and to `memcpy`:
//! the destination window equals the source and nothing outside it moves.

use proptest::prelude::*;
use std::mem::MaybeUninit;
use viper_formats::{active_kernel, crc32_bytewise, crc32_combine, crc32_with, Crc32, Crc32Kernel};

/// Whether this process was started with the portable-kernel override
/// (mirrors the dispatcher's own parse: set, non-empty, not "0").
fn available_kernels() -> Vec<Crc32Kernel> {
    [
        Crc32Kernel::Clmul,
        Crc32Kernel::Slice16,
        Crc32Kernel::Bytewise,
    ]
    .into_iter()
    .filter(|k| k.available())
    .collect()
}

/// Byte every destination buffer is filled with before a copy lands in it.
const GUARD: u8 = 0xA5;

/// `prefix` absorbed CRC-only (so the copy starts from an arbitrary
/// mid-stream state), then `src` through `kernel`'s copying variant in the
/// successive calls `cuts` (fractions of its length) split it into, landing
/// `dst_off` bytes into a guard-filled buffer with 64 guard bytes behind.
/// Returns the final CRC and the whole buffer.
fn copy_in_pieces(
    kernel: Crc32Kernel,
    prefix: &[u8],
    src: &[u8],
    cuts: &[f64],
    dst_off: usize,
) -> (u32, Vec<u8>) {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|f| ((src.len() as f64) * f) as usize)
        .collect();
    points.extend([0, src.len()]);
    points.sort_unstable();
    let mut buf = vec![MaybeUninit::new(GUARD); dst_off + src.len() + 64];
    let mut crc = Crc32::new();
    crc.update(prefix);
    for w in points.windows(2) {
        let dst = &mut buf[dst_off + w[0]..dst_off + w[1]];
        crc.update_copying_with(kernel, &src[w[0]..w[1]], dst);
    }
    // SAFETY: every byte was initialised with the guard, and a kernel only
    // ever stores source bytes over them.
    let buf = buf.into_iter().map(|b| unsafe { b.assume_init() });
    (crc.finalize(), buf.collect())
}

/// The two things a copy-and-checksum owes: the CRC of `prefix ‖ src`, and
/// `src` in the destination window with every byte around it untouched.
fn assert_copies_like_memcpy_and_checksums_like_the_oracle(
    kernel: Crc32Kernel,
    prefix: &[u8],
    src: &[u8],
    cuts: &[f64],
    dst_off: usize,
) {
    let (crc, buf) = copy_in_pieces(kernel, prefix, src, cuts, dst_off);
    let label = kernel.label();
    assert_eq!(crc, crc32_bytewise(&[prefix, src].concat()), "{label}: crc");
    let (before, rest) = buf.split_at(dst_off);
    let (window, after) = rest.split_at(src.len());
    assert!(
        window == src,
        "{label}: copied bytes differ from the source"
    );
    assert!(
        before.iter().chain(after).all(|&b| b == GUARD),
        "{label}: wrote outside the destination window"
    );
}

fn forced_portable() -> bool {
    std::env::var("VIPER_FORCE_PORTABLE_CRC")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

proptest! {
    /// Every kernel available on this host computes the bytewise oracle's
    /// digest for arbitrary byte strings, including the empty one.
    #[test]
    fn kernels_match_bytewise_oracle(
        data in prop::collection::vec(0u8..=u8::MAX, 0..8192),
    ) {
        let want = crc32_bytewise(&data);
        for kernel in available_kernels() {
            prop_assert_eq!(
                crc32_with(kernel, &data),
                want,
                "kernel {} diverged on {} bytes",
                kernel.label(),
                data.len()
            );
        }
    }

    /// Unaligned starts: the hardware kernel loads 16-byte lanes, so every
    /// possible misalignment of the view's base pointer must still agree
    /// with the oracle (and with every other kernel).
    #[test]
    fn kernels_agree_on_unaligned_views(
        data in prop::collection::vec(0u8..=u8::MAX, 64..4096),
        offset in 0usize..16,
    ) {
        let view = &data[offset.min(data.len())..];
        let want = crc32_bytewise(view);
        for kernel in available_kernels() {
            prop_assert_eq!(
                crc32_with(kernel, view),
                want,
                "kernel {} diverged at offset {}",
                kernel.label(),
                offset
            );
        }
    }

    /// Split anywhere: a digest computed as two per-kernel halves folded
    /// with `crc32_combine` equals the oracle over the whole, for every
    /// kernel and every cut point — including cuts inside the hardware
    /// kernel's 64-byte fold blocks and its scalar tail.
    #[test]
    fn split_anywhere_recombines_to_oracle(
        data in prop::collection::vec(0u8..=u8::MAX, 0..4096),
        split_frac in 0.0f64..=1.0,
    ) {
        let split = (((data.len() as f64) * split_frac) as usize).min(data.len());
        let (a, b) = data.split_at(split);
        let want = crc32_bytewise(&data);
        for kernel in available_kernels() {
            let combined =
                crc32_combine(crc32_with(kernel, a), crc32_with(kernel, b), b.len() as u64);
            prop_assert_eq!(
                combined,
                want,
                "kernel {} diverged at split {}",
                kernel.label(),
                split
            );
        }
    }

    /// Copy-and-checksum, every kernel: any length, any misalignment of
    /// source and destination (independently, so loads and stores straddle
    /// cache lines differently), any starting state, any split of the
    /// source into successive calls.
    #[test]
    fn copying_kernels_copy_like_memcpy_and_match_the_oracle(
        data in prop::collection::vec(0u8..=u8::MAX, 0..4096 + 64),
        prefix in prop::collection::vec(0u8..=u8::MAX, 0..100),
        src_off in 0usize..64,
        dst_off in 0usize..64,
        cuts in prop::collection::vec(0.0f64..=1.0, 0..6),
    ) {
        let src = &data[src_off.min(data.len())..];
        for kernel in available_kernels() {
            assert_copies_like_memcpy_and_checksums_like_the_oracle(
                kernel, &prefix, src, &cuts, dst_off,
            );
        }
    }

    /// The streaming state machine (which routes through the dispatched
    /// kernel) digests arbitrarily fragmented writes to the oracle value.
    #[test]
    fn streaming_fragments_match_oracle(
        data in prop::collection::vec(0u8..=u8::MAX, 0..4096),
        cuts in prop::collection::vec(0.0f64..=1.0, 0..8),
    ) {
        let mut points: Vec<usize> = cuts
            .iter()
            .map(|f| ((data.len() as f64) * f) as usize)
            .collect();
        points.push(0);
        points.push(data.len());
        points.sort_unstable();
        let mut state = Crc32::new();
        for w in points.windows(2) {
            state.update(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(state.finalize(), crc32_bytewise(&data));
    }
}

/// Edge lengths that straddle every kernel boundary: empty, one byte, the
/// 16-byte lane, the 64-byte fold block, and both sides of each.
#[test]
fn kernels_agree_on_boundary_lengths() {
    let data: Vec<u8> = (0..512u32)
        .map(|i| (i.wrapping_mul(97) >> 3) as u8)
        .collect();
    for len in [
        0usize, 1, 2, 15, 16, 17, 48, 63, 64, 65, 79, 80, 127, 128, 192, 256, 511,
    ] {
        let want = crc32_bytewise(&data[..len]);
        for kernel in available_kernels() {
            assert_eq!(
                crc32_with(kernel, &data[..len]),
                want,
                "kernel {} diverged at len {len}",
                kernel.label()
            );
        }
    }
}

/// MiB-scale copies (the size the kernel exists for: many prefetches run
/// past the end of the source), at every combination of a few source and
/// destination misalignments, whole and in three calls.
#[test]
fn copying_kernels_hold_on_multi_mib_inputs() {
    let data: Vec<u8> = (0..3 * (1 << 20) + 64 + 5usize)
        .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
        .collect();
    for kernel in available_kernels() {
        for (len, src_off, dst_off) in [
            (1 << 20, 0, 0),
            ((1 << 20) + 13, 1, 63),
            (2 * (1 << 20) + 63, 17, 0),
            (3 * (1 << 20) + 5, 63, 33),
        ] {
            let src = &data[src_off..src_off + len];
            for cuts in [&[][..], &[0.25, 0.7]] {
                assert_copies_like_memcpy_and_checksums_like_the_oracle(
                    kernel, b"seed", src, cuts, dst_off,
                );
            }
        }
    }
}

/// The dispatched `update_copying` is the active kernel's: same CRC as
/// `update`, same bytes as the source, and a destination of another length
/// is refused before anything is written.
#[test]
fn dispatched_update_copying_agrees_with_update() {
    let data: Vec<u8> = (0..70_001u32)
        .map(|i| (i.wrapping_mul(97) >> 3) as u8)
        .collect();
    let mut plain = Crc32::new();
    plain.update(&data);
    let mut copying = Crc32::new();
    let mut out = Vec::with_capacity(data.len());
    copying.update_copying(&data, &mut out.spare_capacity_mut()[..data.len()]);
    // SAFETY: `update_copying` initialised the `data.len()` bytes it was given.
    unsafe { out.set_len(data.len()) };
    assert_eq!(copying.finalize(), plain.finalize());
    assert_eq!(out, data);
    let short = std::panic::catch_unwind(|| {
        let mut dst = [MaybeUninit::new(GUARD); 8];
        Crc32::new().update_copying(&[0u8; 9], &mut dst);
    });
    assert!(
        short.is_err(),
        "a 9-byte source must not fit an 8-byte destination"
    );
}

/// The dispatcher's contract: under `VIPER_FORCE_PORTABLE_CRC` the active
/// kernel is the portable slice-by-16 regardless of hardware; otherwise
/// it is one of the kernels the host actually supports. CI runs the suite
/// both ways; either way the choice must be internally consistent.
#[test]
fn dispatch_honors_portable_override() {
    let active = active_kernel();
    if forced_portable() {
        assert_eq!(
            active.label(),
            "slice16",
            "override must pin the portable kernel"
        );
    } else {
        assert!(
            available_kernels().contains(&active),
            "active kernel {} not in the host's available set",
            active.label()
        );
    }
}

/// Exercise the forced-fallback dispatch path even on runs that did not
/// set the override: re-run the dispatch assertion in a child process
/// with `VIPER_FORCE_PORTABLE_CRC=1`, so both sides of the ladder get
/// coverage from a single `cargo test` invocation.
#[test]
fn forced_fallback_subprocess_picks_slice16() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["dispatch_honors_portable_override", "--exact"])
        .env("VIPER_FORCE_PORTABLE_CRC", "1")
        .output()
        .expect("spawn test subprocess");
    assert!(
        out.status.success(),
        "forced-portable dispatch failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
