//! The double-buffered model slot (§4.2).
//!
//! The consumer serves inferences from the *primary* copy while an updated
//! model is prepared as the *alternative* copy: the decoded checkpoint the
//! caller hands to [`ModelSlot::install_if_newer`], which promotes it
//! atomically. Readers never block on a load: they clone an `Arc` under a
//! briefly-held lock, so the swap causes "imperceptible downtime" exactly
//! as the paper describes.

use std::sync::{Arc, RwLock};
use viper_formats::Checkpoint;

/// A double-buffered, atomically-swappable model holder.
#[derive(Debug)]
pub struct ModelSlot {
    primary: RwLock<Option<Arc<Checkpoint>>>,
    swaps: std::sync::atomic::AtomicU64,
}

impl Default for ModelSlot {
    fn default() -> Self {
        ModelSlot {
            primary: RwLock::new(None),
            swaps: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl ModelSlot {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The model currently serving inferences (None before the first load).
    pub fn current(&self) -> Option<Arc<Checkpoint>> {
        self.primary.read().unwrap().clone()
    }

    /// Version (training iteration) of the current model, if any.
    pub fn current_iteration(&self) -> Option<u64> {
        self.primary.read().unwrap().as_ref().map(|c| c.iteration)
    }

    /// Atomically install `ckpt` as the primary iff it is strictly newer
    /// (by training iteration) than the current primary. The staleness
    /// check and the swap happen under one write lock, so concurrent
    /// installers cannot interleave and regress the served model. Returns
    /// the installed checkpoint, or `None` if it was stale.
    pub fn install_if_newer(&self, ckpt: Checkpoint) -> Option<Arc<Checkpoint>> {
        let candidate = Arc::new(ckpt);
        let mut primary = self.primary.write().unwrap();
        let stale = primary
            .as_ref()
            .map(|cur| candidate.iteration <= cur.iteration)
            .unwrap_or(false);
        if stale {
            return None;
        }
        *primary = Some(Arc::clone(&candidate));
        self.swaps
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(candidate)
    }

    /// How many swaps have occurred.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viper_tensor::Tensor;

    fn ckpt(iter: u64) -> Checkpoint {
        Checkpoint::new(
            "m",
            iter,
            vec![("w".into(), Tensor::full(&[2], iter as f32))],
        )
    }

    #[test]
    fn starts_empty() {
        let s = ModelSlot::new();
        assert!(s.current().is_none());
        assert!(s.current_iteration().is_none());
        assert_eq!(s.swap_count(), 0);
    }

    #[test]
    fn install_makes_model_current() {
        let s = ModelSlot::new();
        assert!(s.install_if_newer(ckpt(1)).is_some());
        assert_eq!(s.current_iteration(), Some(1));
        assert_eq!(s.swap_count(), 1);
    }

    #[test]
    fn staging_does_not_disturb_serving() {
        let s = ModelSlot::new();
        s.install_if_newer(ckpt(1));
        // The alternative copy is the caller's decoded checkpoint: serving
        // is untouched until it is handed in.
        let alternative = ckpt(2);
        assert_eq!(s.current_iteration(), Some(1), "prepared but not swapped");
        assert!(s.install_if_newer(alternative).is_some());
        assert_eq!(s.current_iteration(), Some(2));
    }

    #[test]
    fn stale_updates_discarded() {
        let s = ModelSlot::new();
        s.install_if_newer(ckpt(5));
        assert!(
            s.install_if_newer(ckpt(3)).is_none(),
            "older model must not replace newer"
        );
        assert_eq!(s.current_iteration(), Some(5));
        assert!(
            s.install_if_newer(ckpt(5)).is_none(),
            "equal iteration is also stale"
        );
    }

    #[test]
    fn readers_keep_old_model_alive_across_swap() {
        let s = ModelSlot::new();
        s.install_if_newer(ckpt(1));
        let held = s.current().unwrap();
        s.install_if_newer(ckpt(2));
        // The reader's Arc still sees the old weights.
        assert_eq!(held.iteration, 1);
        assert_eq!(s.current_iteration(), Some(2));
    }

    #[test]
    fn install_if_newer_returns_installed_or_none() {
        let s = ModelSlot::new();
        let got = s.install_if_newer(ckpt(2)).expect("fresh install");
        assert_eq!(got.iteration, 2);
        assert!(s.install_if_newer(ckpt(2)).is_none(), "equal is stale");
        assert!(s.install_if_newer(ckpt(1)).is_none(), "older is stale");
        assert_eq!(s.current_iteration(), Some(2));
        assert_eq!(s.swap_count(), 1);
    }

    #[test]
    fn concurrent_installers_never_regress_the_slot() {
        // Two threads racing installs of interleaved versions: with the
        // single-lock install, the slot must end on the global maximum and
        // never serve an iteration older than one it already served.
        let s = std::sync::Arc::new(ModelSlot::new());
        std::thread::scope(|scope| {
            for start in [1u64, 2] {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for i in (start..=200).step_by(2) {
                        s.install_if_newer(ckpt(i));
                    }
                });
            }
            let s = std::sync::Arc::clone(&s);
            scope.spawn(move || {
                let mut last = 0;
                for _ in 0..500 {
                    if let Some(cur) = s.current() {
                        assert!(cur.iteration >= last, "slot regressed");
                        last = cur.iteration;
                    }
                }
            });
        });
        assert_eq!(s.current_iteration(), Some(200));
    }

    #[test]
    fn concurrent_reads_during_swaps() {
        let s = std::sync::Arc::new(ModelSlot::new());
        s.install_if_newer(ckpt(0));
        std::thread::scope(|scope| {
            let writer = {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for i in 1..=100 {
                        s.install_if_newer(ckpt(i));
                    }
                })
            };
            for _ in 0..4 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..200 {
                        let cur = s.current().unwrap();
                        // Versions are monotonically non-decreasing for a reader.
                        assert!(cur.iteration >= last);
                        last = cur.iteration;
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(s.current_iteration(), Some(100));
    }
}
