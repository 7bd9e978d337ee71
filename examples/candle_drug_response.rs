//! CANDLE drug-response scenario: train the TC1 miniature (18-way tumor
//! classification) with Viper checkpointing, comparing the epoch-boundary
//! baseline against the IPP's fixed-interval schedule on the consumer's
//! live test loss (the CIL analogue).
//!
//! Run with: `cargo run --release --example candle_drug_response`

use std::sync::Arc;
use std::time::Duration;
use viper::{planner, CheckpointCallback, Consumer, SchedulePolicy, Viper, ViperConfig};
use viper_dnn::{losses, optimizers, Callback, Dataset, FitConfig, Model, TrainEvent};
use viper_hw::{CaptureMode, Route};

/// Samples the consumer-side test loss every few training iterations —
/// the live analogue of the paper's cumulative inference loss.
struct ConsumerProbe<'a> {
    consumer: &'a Consumer,
    replica: Model,
    test: &'a Dataset,
    every: u64,
    loss_sum: f64,
    samples: u32,
}

impl Callback for ConsumerProbe<'_> {
    fn on_iteration_end(&mut self, event: &TrainEvent, _model: &Model) {
        if !event.iteration.is_multiple_of(self.every) {
            return;
        }
        if let Some(ckpt) = self.consumer.current() {
            self.replica.set_weights(&ckpt.tensors).unwrap();
            self.loss_sum += self
                .replica
                .evaluate(self.test, &losses::SoftmaxCrossEntropy, 64)
                .unwrap();
            self.samples += 1;
        }
    }
}

/// Train the TC1 miniature under one checkpoint policy; report the mean
/// *consumer-side* test loss across the run (lower = fresher replicas).
fn run_policy(
    label: &str,
    policy_for: impl Fn(&ViperConfig, &[f64], u64, u64) -> SchedulePolicy,
) -> f64 {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = Arc::new(viper.producer("p"));
    let consumer = viper.consumer("c", "tc1");

    let mut model = viper_workloads::tc1::build_model(11);
    let (train, test) = viper_workloads::tc1::datasets(0.05, 11);
    let mut opt = optimizers::Sgd::with_momentum(0.004, 0.9);

    // Warm-up epoch: observe losses only.
    let mut callback = CheckpointCallback::new(Arc::clone(&producer), SchedulePolicy::Never);
    let warmup_cfg = FitConfig {
        epochs: 2,
        batch_size: 16,
        shuffle: true,
    };
    model
        .fit(
            &train,
            &losses::SoftmaxCrossEntropy,
            &mut opt,
            &warmup_cfg,
            &mut [&mut callback],
        )
        .unwrap();
    let warmup = callback.losses().to_vec();

    // Push the warm-up model so serving can begin.
    producer
        .save_weights(&viper_formats::Checkpoint::new(
            "tc1",
            model.iteration(),
            model.named_weights(),
        ))
        .unwrap();
    consumer.wait_for_model(Duration::from_secs(10)).unwrap();

    // Fine-tune under the requested policy, sampling consumer quality
    // every few iterations.
    let iters_per_epoch = (train.len() as u64).div_ceil(16);
    let fine_epochs = 8u64;
    let s_iter = model.iteration();
    let e_iter = s_iter + fine_epochs * iters_per_epoch;
    callback.set_policy(policy_for(viper.config(), &warmup, s_iter, e_iter));

    let mut probe = ConsumerProbe {
        consumer: &consumer,
        replica: viper_workloads::tc1::build_model(999),
        test: &test,
        every: 3,
        loss_sum: 0.0,
        samples: 0,
    };
    let cfg = FitConfig {
        epochs: fine_epochs as usize,
        batch_size: 16,
        shuffle: true,
    };
    model
        .fit(
            &train,
            &losses::SoftmaxCrossEntropy,
            &mut opt,
            &cfg,
            &mut [&mut callback, &mut probe],
        )
        .unwrap();
    let mean_loss = probe.loss_sum / probe.samples.max(1) as f64;
    println!(
        "{label:<16} checkpoints: {:>3}  mean consumer test loss: {mean_loss:.3} ({} samples)",
        callback.receipts().lock().unwrap().len(),
        probe.samples,
    );
    mean_loss
}

fn main() {
    println!("CANDLE TC1 (18-way tumor classification), fine-tuning with live serving\n");

    let baseline = run_policy("epoch-baseline", |_c, _w, _s, _e| {
        // One checkpoint per epoch (the traditional strategy).
        SchedulePolicy::EveryN(14) // iters_per_epoch of the miniature at scale 0.05
    });

    let planned = run_policy("ipp-fixed", |config, warmup, s, e| {
        let tlp = planner::fit_warmup(warmup);
        // Price updates for the *miniature's* actual checkpoint (~0.5 MB)
        // and this machine's iteration times — the IPP optimizes the system
        // it actually runs on.
        let params = planner::cost_params(config, 500_000, 10, 0.002, 0.0005);
        let plan = planner::plan_fixed(&tlp, &params, s, e, 50_000);
        println!(
            "  (IPP chose interval {} -> {} checkpoints)",
            plan.interval,
            plan.num_checkpoints()
        );
        SchedulePolicy::AtIterations(plan.checkpoints)
    });

    println!(
        "\nmean consumer test loss — baseline: {baseline:.3}, IPP schedule: {planned:.3} (lower is better)"
    );
}
