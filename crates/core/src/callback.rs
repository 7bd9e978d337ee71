//! The Checkpoint Callback (§4.2): attached to `model.fit()`, it tracks
//! per-iteration training losses and triggers `save_weights` at the
//! scheduled iterations.

use crate::producer::Producer;
use crate::SaveReceipt;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use viper_dnn::{Callback, Model, TrainEvent};
use viper_formats::Checkpoint;

/// When the callback takes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Every `n` iterations (the paper's configurable initial interval).
    EveryN(u64),
    /// At an explicit ascending list of global iterations — the output of
    /// the IPP's fixed-interval or greedy algorithms.
    AtIterations(Vec<u64>),
    /// Record losses only; never checkpoint (warm-up observation mode).
    Never,
}

impl SchedulePolicy {
    fn due(&self, iteration: u64, cursor: &mut usize) -> bool {
        match self {
            SchedulePolicy::EveryN(n) => *n > 0 && iteration.is_multiple_of(*n),
            SchedulePolicy::AtIterations(list) => {
                let mut hit = false;
                while *cursor < list.len() && list[*cursor] <= iteration {
                    hit = list[*cursor] == iteration || hit;
                    *cursor += 1;
                }
                hit
            }
            SchedulePolicy::Never => false,
        }
    }
}

/// Keras-style checkpoint callback wired to a Viper [`Producer`].
pub struct CheckpointCallback {
    producer: Arc<Producer>,
    policy: SchedulePolicy,
    cursor: usize,
    losses: Vec<f64>,
    receipts: Arc<Mutex<VecDeque<SaveReceipt>>>,
    failures: u64,
}

impl CheckpointCallback {
    /// Build a callback that checkpoints per `policy` through `producer`.
    pub fn new(producer: Arc<Producer>, policy: SchedulePolicy) -> Self {
        CheckpointCallback {
            producer,
            policy,
            cursor: 0,
            losses: Vec::new(),
            receipts: Arc::new(Mutex::new(VecDeque::new())),
            failures: 0,
        }
    }

    /// Replace the schedule mid-training (e.g. after the warm-up fit) —
    /// the "adjust checkpoint interval" arrow in the paper's Fig. 3.
    pub fn set_policy(&mut self, policy: SchedulePolicy) {
        self.policy = policy;
        self.cursor = 0;
    }

    /// Losses observed so far (one per iteration) — the IPP's fitting input.
    pub fn losses(&self) -> &[f64] {
        &self.losses
    }

    /// Receipts of completed checkpoints (shared handle, survives the
    /// callback's move into `fit`).
    pub fn receipts(&self) -> Arc<Mutex<VecDeque<SaveReceipt>>> {
        Arc::clone(&self.receipts)
    }

    /// Checkpoints that failed to save (training continues regardless).
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

impl Callback for CheckpointCallback {
    fn on_iteration_end(&mut self, event: &TrainEvent, model: &Model) {
        self.losses.push(event.batch_loss);
        if self.policy.due(event.iteration, &mut self.cursor) {
            let ckpt = Checkpoint::new(model.name(), event.iteration, model.named_weights());
            match self.producer.save_weights(&ckpt) {
                Ok(receipt) => self.receipts.lock().unwrap().push_back(receipt),
                Err(_) => self.failures += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_n_fires_on_multiples() {
        let p = SchedulePolicy::EveryN(3);
        let mut cursor = 0;
        let fired: Vec<u64> = (1..=10).filter(|&i| p.due(i, &mut cursor)).collect();
        assert_eq!(fired, vec![3, 6, 9]);
    }

    #[test]
    fn every_zero_never_fires() {
        let p = SchedulePolicy::EveryN(0);
        let mut cursor = 0;
        assert!(!(1..=10).any(|i| p.due(i, &mut cursor)));
    }

    #[test]
    fn at_iterations_fires_once_each() {
        let p = SchedulePolicy::AtIterations(vec![2, 5, 9]);
        let mut cursor = 0;
        let fired: Vec<u64> = (1..=10).filter(|&i| p.due(i, &mut cursor)).collect();
        assert_eq!(fired, vec![2, 5, 9]);
    }

    #[test]
    fn at_iterations_skips_missed_entries() {
        // If the training loop jumps past an entry (e.g. resumed), the
        // cursor must advance without firing forever.
        let p = SchedulePolicy::AtIterations(vec![2, 5]);
        let mut cursor = 0;
        assert!(!p.due(4, &mut cursor)); // skipped 2 without landing on it
        assert!(p.due(5, &mut cursor));
        assert!(!p.due(6, &mut cursor));
    }

    #[test]
    fn never_never_fires() {
        let p = SchedulePolicy::Never;
        let mut cursor = 0;
        assert!(!(1..=100).any(|i| p.due(i, &mut cursor)));
    }
}
