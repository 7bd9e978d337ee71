//! The one producer → consumer timeline behind [`crate::simulate`] and
//! [`crate::simulate_multi`], in closed form.
//!
//! Three passes, each over one sequence:
//! 1. [`produce`] walks the training iterations and gives every
//!    checkpoint's staged instant, the total stall and the instant the
//!    producer finishes;
//! 2. [`deliver`] derives each checkpoint's discovery (push: `+ notify`;
//!    poll: the next tick) and swap (`+ post_stall`);
//! 3. [`serve`] walks the inference instants; a swap at or before an
//!    inference's instant serves that inference.
//!
//! Every instant is a running sum (`t += t_train` per iteration,
//! `t += stall` per checkpoint, `now += t_infer` per inference), not a
//! product such as `(k - s_iter) * t_train + n * stall`. The two round
//! differently: twenty iterations of 0.1 s sum to 2.0000000000000004 s
//! where the product is 2.0 s, and a checkpoint staged then is discovered
//! by a 1 s poll at 3 s rather than at 2 s. The figures are generated on
//! the running sums, so switching to products would change the model, not
//! simplify it.

use crate::workflow::{Discovery, ModelUpdate};
use viper_hw::UpdateCosts;

/// The producer's side of the timeline.
pub(crate) struct Production {
    /// `(iteration, staged_at)` of every checkpoint, in schedule order.
    pub staged: Vec<(u64, f64)>,
    /// Total checkpoint stall (seconds).
    pub overhead: f64,
    /// When iteration `e_iter` completed (0 if there was none to train).
    pub finished_at: f64,
}

/// Walk iterations `s_iter + 1 ..= e_iter`, stalling `stall` seconds after
/// each checkpoint iteration in `schedule`.
pub(crate) fn produce(
    t_train: f64,
    stall: f64,
    s_iter: u64,
    e_iter: u64,
    schedule: &[u64],
) -> Production {
    assert!(t_train > 0.0, "iteration time must be positive");
    assert!(
        schedule.windows(2).all(|w| w[0] < w[1]),
        "schedule must be strictly ascending"
    );
    assert!(
        schedule.iter().all(|&c| c > s_iter && c <= e_iter),
        "schedule must lie within (s_iter, e_iter]"
    );
    let mut staged = Vec::with_capacity(schedule.len());
    let mut checkpoints = schedule.iter().copied().peekable();
    let mut overhead = 0.0;
    let mut t = 0.0;
    for k in s_iter + 1..=e_iter {
        t += t_train;
        if checkpoints.next_if_eq(&k).is_some() {
            overhead += stall;
            t += stall;
            staged.push((k, t));
        }
    }
    Production {
        staged,
        overhead,
        finished_at: t,
    }
}

/// Discover and swap in every staged checkpoint. `stall` is the capture
/// stall each checkpoint paid before it was staged.
pub(crate) fn deliver(
    staged: &[(u64, f64)],
    stall: f64,
    costs: &UpdateCosts,
    discovery: Discovery,
) -> Vec<ModelUpdate> {
    let post = costs.post_stall.as_secs_f64();
    let notify = costs.notify.as_secs_f64();
    staged
        .iter()
        .zip(1..)
        .map(|(&(iteration, staged_at), version)| {
            let discovered_at = match discovery {
                Discovery::Push => staged_at + notify,
                Discovery::Poll { interval } => {
                    assert!(interval > 0.0, "poll interval must be positive");
                    (staged_at / interval).ceil() * interval
                }
            };
            let swapped_at = discovered_at + post;
            ModelUpdate {
                iteration,
                version,
                staged_at,
                discovered_at,
                swapped_at,
                latency: swapped_at - (staged_at - stall),
            }
        })
        .collect()
}

/// Serve `total_infers` inferences `t_infer` apart from time zero, starting
/// on the model captured at `s_iter`. Returns the CIL and the instant of the
/// last inference (0 if none was served).
pub(crate) fn serve(
    t_infer: f64,
    total_infers: u64,
    s_iter: u64,
    updates: &[ModelUpdate],
    loss_at: &dyn Fn(u64) -> f64,
) -> (f64, f64) {
    assert!(t_infer > 0.0, "inference time must be positive");
    let mut cil = 0.0;
    let mut current = s_iter;
    let mut swaps = updates.iter().peekable();
    let mut now = 0.0;
    for j in 0..total_infers {
        if j > 0 {
            now += t_infer;
        }
        while let Some(u) = swaps.next_if(|u| u.swapped_at <= now) {
            current = u.iteration;
        }
        cil += loss_at(current);
    }
    (cil, now)
}
