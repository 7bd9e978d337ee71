//! Copy-free wire buffers: an optional inline chunk header plus a shared
//! body view.
//!
//! Before this type, framing a chunk meant allocating a fresh
//! `Vec<u8>` and copying the chunk body into it behind the 40-byte
//! [`ChunkHeader`](crate::ChunkHeader) — once per chunk per consumer per
//! retransmit round, the dominant memcpy traffic of the delivery path. A
//! [`WireBuf`] instead keeps the header inline (40 bytes on the stack of
//! the `Message`) and the body as a zero-copy [`Payload`] slice of the
//! sender's single serialized checkpoint allocation. The *logical* wire
//! bytes — what timing is charged on, what the fault injector perturbs,
//! and what [`WireBuf::to_vec`] materializes — are exactly
//! `head ++ body`, bit-identical to the old copying frame.

use crate::chunk::ChunkHeader;
use std::sync::Arc;
use viper_formats::Payload;

/// Size of the inline header region (one encoded [`ChunkHeader`]).
pub const HEAD_BYTES: usize = ChunkHeader::WIRE_SIZE;

/// A message payload on the wire: optional inline chunk-frame header plus
/// a shared, immutable body.
///
/// Control payloads are `plain` (no head); chunk
/// frames carry their encoded [`ChunkHeader`] inline so the body can stay
/// a zero-copy subslice of the parent payload.
#[derive(Clone)]
pub struct WireBuf {
    head: Option<[u8; HEAD_BYTES]>,
    body: Payload,
}

impl WireBuf {
    /// An unframed payload (a control frame's bytes).
    pub fn plain(body: impl Into<Payload>) -> Self {
        WireBuf {
            head: None,
            body: body.into(),
        }
    }

    /// A chunk frame: encoded header + body, without copying the body.
    pub fn framed(head: [u8; HEAD_BYTES], body: Payload) -> Self {
        WireBuf {
            head: Some(head),
            body,
        }
    }

    /// Logical wire length: header bytes (if framed) plus body bytes.
    pub fn len(&self) -> usize {
        self.head.map_or(0, |_| HEAD_BYTES) + self.body.len()
    }

    /// Whether the logical wire content is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The inline frame header, when present.
    pub fn head(&self) -> Option<&[u8; HEAD_BYTES]> {
        self.head.as_ref()
    }

    /// The shared body view (everything after the inline header).
    pub fn body(&self) -> &Payload {
        &self.body
    }

    /// The full contiguous bytes, available only for unframed payloads
    /// (framed ones would need a copy to be contiguous — that is the copy
    /// this type exists to avoid).
    pub fn as_contiguous(&self) -> Option<&[u8]> {
        match self.head {
            None => Some(&self.body),
            Some(_) => None,
        }
    }

    /// Materialize the logical wire bytes into an owned vector. This is a
    /// copy; hot paths use it only in tests, fault injection, and
    /// byte-identity comparisons.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        if let Some(head) = &self.head {
            out.extend_from_slice(head);
        }
        out.extend_from_slice(&self.body);
        out
    }

    /// Split off the first [`HEAD_BYTES`] logical bytes, returning them by
    /// value together with a zero-copy view of the rest. For a framed
    /// buffer this is free; for an unframed one it copies only the 40
    /// header bytes and subslices the body. `None` if the buffer is too
    /// short.
    pub fn split_head(&self) -> Option<([u8; HEAD_BYTES], Payload)> {
        match &self.head {
            Some(head) => Some((*head, self.body.clone())),
            None => {
                if self.body.len() < HEAD_BYTES {
                    return None;
                }
                let mut head = [0u8; HEAD_BYTES];
                head.copy_from_slice(&self.body[..HEAD_BYTES]);
                Some((head, self.body.slice(HEAD_BYTES..)))
            }
        }
    }

    /// Take the payload out of an unframed buffer without copying. Framed
    /// buffers materialize their logical bytes (never hit on the
    /// steady-state path: chunk frames are consumed via
    /// [`ChunkHeader::decode_buf`](crate::ChunkHeader::decode_buf), not as
    /// whole payloads).
    pub fn into_payload(self) -> Payload {
        match self.head {
            None => self.body,
            Some(_) => Payload::from(self.to_vec()),
        }
    }
}

impl From<Vec<u8>> for WireBuf {
    fn from(v: Vec<u8>) -> Self {
        WireBuf::plain(v)
    }
}

impl From<Arc<Vec<u8>>> for WireBuf {
    fn from(v: Arc<Vec<u8>>) -> Self {
        WireBuf::plain(Payload::from(v))
    }
}

impl From<Payload> for WireBuf {
    fn from(p: Payload) -> Self {
        WireBuf::plain(p)
    }
}

impl std::fmt::Debug for WireBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WireBuf({}{} bytes)",
            if self.head.is_some() { "framed, " } else { "" },
            self.len()
        )
    }
}

/// Equality is on the logical wire bytes, regardless of head/body split.
impl PartialEq for WireBuf {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (&self.head, &other.head) {
            (None, None) => self.body == other.body,
            (Some(a), Some(b)) => a == b && self.body == other.body,
            _ => self.to_vec() == other.to_vec(),
        }
    }
}

impl PartialEq<[u8]> for WireBuf {
    fn eq(&self, other: &[u8]) -> bool {
        match self.as_contiguous() {
            Some(bytes) => bytes == other,
            None => {
                self.len() == other.len()
                    && self
                        .head
                        .as_ref()
                        .is_some_and(|h| h[..] == other[..HEAD_BYTES])
                    && *self.body == other[HEAD_BYTES..]
            }
        }
    }
}

impl PartialEq<Vec<u8>> for WireBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_of(byte: u8) -> [u8; HEAD_BYTES] {
        [byte; HEAD_BYTES]
    }

    #[test]
    fn plain_buffers_are_contiguous() {
        let w = WireBuf::plain(vec![1u8, 2, 3]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.as_contiguous(), Some(&[1u8, 2, 3][..]));
        assert_eq!(w.to_vec(), vec![1, 2, 3]);
        assert!(w.head().is_none());
    }

    #[test]
    fn framed_buffers_concatenate_logically() {
        let body = Payload::from(vec![9u8; 8]);
        let w = WireBuf::framed(head_of(7), body);
        assert_eq!(w.len(), HEAD_BYTES + 8);
        assert!(w.as_contiguous().is_none());
        let bytes = w.to_vec();
        assert_eq!(&bytes[..HEAD_BYTES], &head_of(7));
        assert_eq!(&bytes[HEAD_BYTES..], &[9u8; 8]);
    }

    #[test]
    fn framed_body_is_not_copied() {
        let parent = Payload::from(vec![5u8; 1024]);
        let body = parent.slice(100..200);
        let w = WireBuf::framed(head_of(1), body);
        assert_eq!(
            w.body().as_slice().as_ptr(),
            unsafe { parent.as_slice().as_ptr().add(100) },
            "body must alias the parent allocation"
        );
    }

    #[test]
    fn split_head_is_free_for_framed() {
        let body = Payload::from(vec![3u8; 16]);
        let w = WireBuf::framed(head_of(2), body.clone());
        let (head, rest) = w.split_head().unwrap();
        assert_eq!(head, head_of(2));
        assert_eq!(rest.as_slice().as_ptr(), body.as_slice().as_ptr());
    }

    #[test]
    fn split_head_subslices_plain() {
        let mut raw = head_of(4).to_vec();
        raw.extend_from_slice(&[8u8; 10]);
        let w = WireBuf::plain(raw);
        let (head, rest) = w.split_head().unwrap();
        assert_eq!(head, head_of(4));
        assert_eq!(&rest[..], &[8u8; 10]);
        // Too-short plain buffers do not split.
        assert!(WireBuf::plain(vec![0u8; HEAD_BYTES - 1])
            .split_head()
            .is_none());
    }

    #[test]
    fn into_payload_zero_copy_when_plain() {
        let p = Payload::from(vec![6u8; 64]);
        let ptr = p.as_slice().as_ptr();
        let out = WireBuf::plain(p).into_payload();
        assert_eq!(out.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn equality_is_on_logical_bytes() {
        let body = vec![1u8; 4];
        let framed = WireBuf::framed(head_of(0), Payload::from(body.clone()));
        let mut raw = head_of(0).to_vec();
        raw.extend_from_slice(&body);
        let plain = WireBuf::plain(raw.clone());
        assert_eq!(framed, plain);
        assert_eq!(plain, framed);
        assert_eq!(framed, raw);
        assert_ne!(framed, WireBuf::plain(vec![0u8; 4]));
    }
}
