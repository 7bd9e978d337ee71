//! Property tests for the core framework's pure components: the
//! double-buffered model slot.

use proptest::prelude::*;
use viper::ModelSlot;
use viper_formats::Checkpoint;
use viper_tensor::Tensor;

fn ckpt(name: &str, iter: u64, ntensors: usize) -> Checkpoint {
    Checkpoint::new(
        name,
        iter,
        (0..ntensors)
            .map(|i| (format!("t{i}"), Tensor::full(&[(i + 1) * 3], iter as f32)))
            .collect(),
    )
}

proptest! {
    /// Whatever order updates are installed in, the slot serves the maximum
    /// iteration seen so far — never regressing.
    #[test]
    fn slot_serves_running_maximum(iters in prop::collection::vec(0u64..100, 1..40)) {
        let slot = ModelSlot::new();
        let mut max_seen: Option<u64> = None;
        for &i in &iters {
            let installed = slot.install_if_newer(ckpt("m", i, 1)).is_some();
            let is_new_max = max_seen.map(|m| i > m).unwrap_or(true);
            prop_assert_eq!(installed, is_new_max, "iteration {}", i);
            if is_new_max {
                max_seen = Some(i);
            }
            prop_assert_eq!(slot.current_iteration(), max_seen);
        }
        prop_assert_eq!(slot.swap_count(), {
            // Count strictly-increasing prefix maxima.
            let mut m: Option<u64> = None;
            let mut c = 0u64;
            for &i in &iters {
                if m.map(|x| i > x).unwrap_or(true) {
                    m = Some(i);
                    c += 1;
                }
            }
            c
        });
    }
}
