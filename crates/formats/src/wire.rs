//! Payload-kind framing for delta-aware delivery.
//!
//! When a deployment ships deltas, two byte layouts travel the same wire:
//! full checkpoints ([`crate::ViperFormat`] / [`crate::H5Lite`]) and
//! [`crate::DeltaCheckpoint`]s (VIPD). The receiver must dispatch on an
//! explicit header, never by sniffing body magics — the same rule the
//! chunked transport applies to chunk vs control messages. This module
//! is that header: an 8-byte envelope prepended to the body.
//!
//! ```text
//! magic    : b"VPWP"
//! kind     : u8 (0 = full, 1 = delta)
//! reserved : 3 zero bytes
//! ```
//!
//! The reserved bytes make the envelope a multiple of 4 bytes long, so a
//! body behind it starts as 4-aligned as the buffer does, and its tensor
//! payloads (4-aligned within the body, see [`crate::ViperFormat`]) can be
//! viewed in place by the receiver. Nonzero reserved bytes are
//! [`FormatError::Corrupt`].
//!
//! The envelope exists **only on the wire** and only when the deployment's
//! delta transfer is enabled; durable PFS copies and PFS-staged objects
//! always store raw full-format bytes, and a delta-off deployment's wire
//! bytes are exactly the raw encoding (so the fault-free fast path stays
//! byte-identical to a build without this layer).

use crate::FormatError;

/// Magic bytes opening a wire payload envelope ("VPWP").
pub const WIRE_MAGIC: &[u8; 4] = b"VPWP";

/// Envelope size prepended to the body (magic, kind byte, 3 reserved).
pub const WIRE_HEADER_BYTES: usize = 8;

/// What byte layout a framed wire payload's body uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A complete checkpoint in the deployment's configured format.
    Full,
    /// A [`crate::DeltaCheckpoint`] against an acknowledged base version.
    Delta,
}

impl PayloadKind {
    fn byte(self) -> u8 {
        match self {
            PayloadKind::Full => 0,
            PayloadKind::Delta => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(PayloadKind::Full),
            1 => Some(PayloadKind::Delta),
            _ => None,
        }
    }

    /// Stable label for traces and counters.
    pub fn label(self) -> &'static str {
        match self {
            PayloadKind::Full => "full",
            PayloadKind::Delta => "delta",
        }
    }
}

/// The raw envelope bytes for `kind`, for writers that stream the envelope
/// and body into one buffer (the fused encoder) instead of copying through
/// [`frame`].
pub fn envelope(kind: PayloadKind) -> [u8; WIRE_HEADER_BYTES] {
    let mut out = [0u8; WIRE_HEADER_BYTES];
    out[..4].copy_from_slice(WIRE_MAGIC);
    out[4] = kind.byte();
    out
}

/// Prepend the payload-kind envelope to an encoded body.
pub fn frame(kind: PayloadKind, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WIRE_HEADER_BYTES + body.len());
    out.extend_from_slice(&envelope(kind));
    out.extend_from_slice(body);
    out
}

/// Split a framed wire payload into its kind and body.
pub fn unframe(bytes: &[u8]) -> Result<(PayloadKind, &[u8]), FormatError> {
    if bytes.len() < WIRE_HEADER_BYTES {
        return Err(FormatError::Truncated {
            context: "wire envelope",
        });
    }
    if &bytes[..4] != WIRE_MAGIC {
        return Err(FormatError::BadMagic);
    }
    let kind = PayloadKind::from_byte(bytes[4])
        .ok_or_else(|| FormatError::Corrupt(format!("unknown payload kind {}", bytes[4])))?;
    if bytes[5..WIRE_HEADER_BYTES] != [0; 3] {
        return Err(FormatError::Corrupt(
            "nonzero reserved envelope bytes".into(),
        ));
    }
    Ok((kind, &bytes[WIRE_HEADER_BYTES..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_both_kinds() {
        for kind in [PayloadKind::Full, PayloadKind::Delta] {
            let framed = frame(kind, b"body-bytes");
            assert_eq!(framed.len(), WIRE_HEADER_BYTES + 10);
            let (k, body) = unframe(&framed).unwrap();
            assert_eq!(k, kind);
            assert_eq!(body, b"body-bytes");
        }
    }

    #[test]
    fn envelope_matches_frame_prefix() {
        for kind in [PayloadKind::Full, PayloadKind::Delta] {
            assert_eq!(frame(kind, b"abc")[..WIRE_HEADER_BYTES], envelope(kind));
        }
    }

    #[test]
    fn frame_of_empty_body() {
        let framed = frame(PayloadKind::Full, b"");
        let (k, body) = unframe(&framed).unwrap();
        assert_eq!(k, PayloadKind::Full);
        assert!(body.is_empty());
    }

    #[test]
    fn unframe_rejects_garbage() {
        assert!(matches!(
            unframe(b"VPW"),
            Err(FormatError::Truncated { .. })
        ));
        assert!(matches!(
            unframe(b"XXXX\x00body"),
            Err(FormatError::BadMagic)
        ));
        // Raw format bytes (full checkpoint magic) are not an envelope.
        assert!(matches!(
            unframe(b"VIPR\x01...."),
            Err(FormatError::BadMagic)
        ));
        let mut bad = frame(PayloadKind::Delta, b"x");
        bad[4] = 7;
        assert!(matches!(unframe(&bad), Err(FormatError::Corrupt(_))));
        for reserved in 5..WIRE_HEADER_BYTES {
            let mut bad = frame(PayloadKind::Full, b"x");
            bad[reserved] = 1;
            assert!(matches!(unframe(&bad), Err(FormatError::Corrupt(_))));
        }
    }

    #[test]
    fn the_envelope_keeps_the_body_4_aligned() {
        assert_eq!(WIRE_HEADER_BYTES % 4, 0);
        assert_eq!(envelope(PayloadKind::Delta), *b"VPWP\x01\x00\x00\x00");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PayloadKind::Full.label(), "full");
        assert_eq!(PayloadKind::Delta.label(), "delta");
    }
}
