//! Shared, immutable payload buffers with zero-copy subslicing.
//!
//! A serialized checkpoint is allocated exactly once — at
//! [`crate::CheckpointFormat::encode`] time — and then travels the whole
//! capture→stage→frame→send→install chain as [`Payload`] handles: an
//! `Arc`-backed view (`buffer`, `start`, `len`) that clones in O(1) and
//! subslices without touching the bytes. Chunk bodies, retransmit rounds,
//! storage-tier residents, and consumer installs all alias the same
//! allocation; the backing buffer is freed when the last view drops.
//!
//! `Payload` is deliberately immutable: every consumer of the delivery path
//! reads the same bytes, so a copy-on-write story is unnecessary and a
//! mutable alias would be a correctness hazard. Subslicing has an inverse,
//! [`Payload::try_join`]: adjacent views of one allocation merge back into
//! one view, which is how multi-chunk reassembly releases the sender's
//! bytes without gathering them. Paths that must own their bytes (fault
//! injection's bit flips, reassembly of chunks that arrived in separate
//! allocations) materialize a `Vec<u8>` and account for it via the
//! `bytes_copied` telemetry counters (see DESIGN.md, "Payload ownership").

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply-cloneable, immutable view into a shared byte buffer.
///
/// Backed by `Arc<Vec<u8>>` rather than `Arc<[u8]>`: converting an existing
/// `Vec<u8>` into `Arc<[u8]>` copies the bytes, while `Arc<Vec<u8>>` adopts
/// the allocation as-is — the whole point of this type.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl Payload {
    /// An empty payload (no allocation beyond the shared empty buffer).
    pub fn empty() -> Self {
        Payload::from(Vec::new())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Zero-copy subview. Shares the backing allocation; only the window
    /// moves. Panics if the range is out of bounds, mirroring slice
    /// indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Payload {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "payload slice {start}..{end} out of bounds for length {}",
            self.len
        );
        Payload {
            buf: Arc::clone(&self.buf),
            start: self.start + start,
            len: end - start,
        }
    }

    /// Inverse of [`Payload::slice`]: the single view covering `self`
    /// followed by `next`, when both window the same allocation and `next`
    /// starts exactly where `self` ends. `None` for views of different
    /// allocations, or with a gap or an overlap between them — the caller
    /// must then copy to concatenate.
    pub fn try_join(&self, next: &Payload) -> Option<Payload> {
        (Arc::ptr_eq(&self.buf, &next.buf) && self.start + self.len == next.start).then(|| {
            Payload {
                buf: Arc::clone(&self.buf),
                start: self.start,
                len: self.len + next.len,
            }
        })
    }

    /// Copy this view out into an owned vector. The one deliberate copy;
    /// callers on the delivery path account for it in `bytes_copied`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Number of strong references to the backing buffer. Used by tests to
    /// assert that retransmit rounds keep in-flight slices alive after the
    /// producer drops its handle.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// The backing allocation. Crate-internal: the encode arena parks a
    /// clone of this `Arc` so the buffer can be reclaimed for the next
    /// save once every outstanding view drops.
    pub(crate) fn backing(&self) -> &Arc<Vec<u8>> {
        &self.buf
    }

    /// Where this view starts in [`backing`](Self::backing): a decode turns
    /// a payload's tensors into views of the allocation at this offset.
    pub(crate) fn start(&self) -> usize {
        self.start
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Payload {
            buf: Arc::new(v),
            start: 0,
            len,
        }
    }
}

impl From<Arc<Vec<u8>>> for Payload {
    fn from(buf: Arc<Vec<u8>>) -> Self {
        let len = buf.len();
        Payload { buf, start: 0, len }
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Self {
        Payload::from(s.to_vec())
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Payload({} bytes @ {}, {} refs)",
            self.len,
            self.start,
            Arc::strong_count(&self.buf)
        )
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_adopts_allocation() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        let p = Payload::from(v);
        assert_eq!(p.as_slice().as_ptr(), ptr, "no copy on adoption");
        assert_eq!(p.len(), 4);
        assert_eq!(p, vec![1u8, 2, 3, 4]);
    }

    #[test]
    fn clone_and_slice_share_the_buffer() {
        let p = Payload::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let c = p.clone();
        let s = p.slice(2..6);
        assert_eq!(p.ref_count(), 3);
        assert_eq!(&s[..], &[2, 3, 4, 5]);
        // Slices point into the parent allocation.
        assert_eq!(s.as_slice().as_ptr(), unsafe {
            p.as_slice().as_ptr().add(2)
        });
        drop(c);
        drop(p);
        // The slice alone keeps the buffer alive.
        assert_eq!(&s[..], &[2, 3, 4, 5]);
        assert_eq!(s.ref_count(), 1);
    }

    #[test]
    fn slice_of_slice_composes_offsets() {
        let p = Payload::from((0u8..32).collect::<Vec<_>>());
        let a = p.slice(8..24);
        let b = a.slice(4..8);
        assert_eq!(&b[..], &[12, 13, 14, 15]);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn try_join_merges_adjacent_views_without_copying() {
        let p = Payload::from((0u8..32).collect::<Vec<_>>());
        let joined = p.slice(4..12).try_join(&p.slice(12..20)).unwrap();
        assert_eq!(joined, p.slice(4..20));
        assert_eq!(joined.as_slice().as_ptr(), unsafe {
            p.as_slice().as_ptr().add(4)
        });
        // Slices of slices compose: adjacency is judged on absolute
        // positions in the allocation, not on how the views were derived.
        let inner = p.slice(8..24);
        let joined = inner.slice(0..4).try_join(&p.slice(12..16)).unwrap();
        assert_eq!(&joined[..], &[8, 9, 10, 11, 12, 13, 14, 15]);
        // Chained joins tile the whole buffer back together.
        let whole = (0..4)
            .map(|i| p.slice(i * 8..(i + 1) * 8))
            .reduce(|acc, next| acc.try_join(&next).unwrap())
            .unwrap();
        assert_eq!(whole.as_slice().as_ptr(), p.as_slice().as_ptr());
        assert_eq!(whole.len(), 32);
    }

    #[test]
    fn try_join_rejects_gaps_overlaps_and_other_allocations() {
        let p = Payload::from(vec![7u8; 32]);
        assert!(p.slice(0..8).try_join(&p.slice(9..16)).is_none(), "gap");
        assert!(p.slice(0..8).try_join(&p.slice(7..16)).is_none(), "overlap");
        assert!(
            p.slice(8..16).try_join(&p.slice(0..8)).is_none(),
            "wrong order"
        );
        // Equal bytes in another allocation are not adjacent to anything.
        let other = Payload::from(vec![7u8; 32]);
        assert!(p.slice(0..8).try_join(&other.slice(8..16)).is_none());
    }

    #[test]
    fn try_join_treats_empty_views_positionally() {
        let p = Payload::from(vec![1u8, 2, 3, 4]);
        // An empty view joins where it sits, and only there.
        assert_eq!(
            p.slice(2..2).try_join(&p.slice(2..4)).unwrap(),
            [3u8, 4][..]
        );
        assert_eq!(
            p.slice(0..2).try_join(&p.slice(2..2)).unwrap(),
            [1u8, 2][..]
        );
        assert!(p.slice(1..1).try_join(&p.slice(2..4)).is_none());
        assert!(p.slice(2..2).try_join(&p.slice(2..2)).unwrap().is_empty());
        // `Payload::empty()` is its own allocation.
        assert!(Payload::empty().try_join(&p).is_none());
        assert!(p.try_join(&Payload::empty()).is_none());
    }

    #[test]
    fn slice_range_forms() {
        let p = Payload::from(vec![9u8; 10]);
        assert_eq!(p.slice(..).len(), 10);
        assert_eq!(p.slice(3..).len(), 7);
        assert_eq!(p.slice(..4).len(), 4);
        assert_eq!(p.slice(2..=5).len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Payload::from(vec![0u8; 4]).slice(2..6);
    }

    #[test]
    fn empty_payload() {
        let p = Payload::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.to_vec(), Vec::<u8>::new());
    }

    #[test]
    fn equality_against_bytes() {
        let p = Payload::from(vec![1u8, 2, 3]);
        assert_eq!(p, [1u8, 2, 3][..]);
        assert_eq!(p, vec![1u8, 2, 3]);
        assert_eq!(vec![1u8, 2, 3], p);
        assert_ne!(p, Payload::from(vec![1u8, 2, 4]));
        assert_eq!(p.slice(1..2), Payload::from(vec![2u8]));
    }

    #[test]
    fn from_arc_shares() {
        let arc = Arc::new(vec![5u8; 16]);
        let p = Payload::from(Arc::clone(&arc));
        assert_eq!(Arc::strong_count(&arc), 2);
        assert_eq!(p.as_slice().as_ptr(), arc.as_ptr());
    }
}
