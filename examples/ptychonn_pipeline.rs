//! The paper's motivating scenario (§1): online ptychographic image
//! reconstruction. A PtychoNN-style model trains on freshly reconstructed
//! ground truth while an edge consumer uses it to pre-process diffraction
//! patterns — Viper keeps the consumer's replica fresh.
//!
//! The pipeline follows the paper's three stages:
//!  1. training warm-up (no inferences yet, losses observed);
//!  2. switch to inferences (first checkpoint pushed to the edge);
//!  3. fine-tuning with scheduled model updates.
//!
//! Run with: `cargo run --release --example ptychonn_pipeline`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use viper::{planner, CheckpointCallback, SchedulePolicy, Viper, ViperConfig};
use viper_dnn::{losses, optimizers, FitConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};

fn main() {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Async);
    config.flush_to_pfs = true;
    let viper = Viper::new(config);
    let producer = Arc::new(viper.producer("hpc-node"));
    let consumer = viper.consumer("edge-node", "ptychonn");

    let mut model = viper_workloads::ptychonn::build_model(7);
    let (train, test) = viper_workloads::ptychonn::datasets(0.02, 7);
    println!(
        "PtychoNN miniature: {} parameters, {} training samples",
        model.num_parameters(),
        train.len()
    );

    // ---- Stage 1: training warm-up -------------------------------------
    let mut callback = CheckpointCallback::new(Arc::clone(&producer), SchedulePolicy::Never);
    let mut opt = optimizers::Adam::new(0.003);
    let warmup_cfg = FitConfig {
        epochs: 4,
        batch_size: 16,
        shuffle: true,
    };
    model
        .fit(
            &train,
            &losses::Mae,
            &mut opt,
            &warmup_cfg,
            &mut [&mut callback],
        )
        .unwrap();
    let warmup_losses = callback.losses().to_vec();
    println!(
        "warm-up done: {} iterations, loss {:.4} -> {:.4}",
        warmup_losses.len(),
        warmup_losses.first().unwrap(),
        warmup_losses.last().unwrap()
    );

    // ---- Stage 2: switch to inferences ----------------------------------
    let first = Checkpoint::new("ptychonn", model.iteration(), model.named_weights());
    producer.save_weights(&first).unwrap();
    consumer.wait_for_model(Duration::from_secs(10)).unwrap();
    println!(
        "edge consumer armed with warm-up model (iteration {})",
        model.iteration()
    );

    // Plan the fine-tuning checkpoint schedule with the IPP.
    let tlp = planner::fit_warmup(&warmup_losses);
    let s_iter = model.iteration();
    let fine_tune_epochs = 8;
    let iters_per_epoch = (train.len() as u64).div_ceil(16);
    let e_iter = s_iter + fine_tune_epochs * iters_per_epoch;
    let params = planner::cost_params(
        viper.config(),
        4_500_000_000, // paper-scale PtychoNN checkpoint
        60,
        0.06,
        0.005,
    );
    let mut plan = planner::plan_adaptive(&tlp, &params, &warmup_losses, s_iter, e_iter, 40_000);
    if plan.num_checkpoints() < 3 {
        // Short/noisy warm-ups can push the greedy threshold above almost
        // every predicted improvement; fall back to Algorithm 2.
        plan = planner::plan_fixed(&tlp, &params, s_iter, e_iter, 40_000);
    }
    println!(
        "IPP ({} curve, mse {:.2e}) planned {} checkpoints ({}): {:?}",
        tlp.model.family(),
        tlp.mse,
        plan.num_checkpoints(),
        plan.algorithm,
        &plan.checkpoints
    );

    // ---- Stage 3: fine-tuning with live serving -------------------------
    callback.set_policy(SchedulePolicy::AtIterations(plan.checkpoints.clone()));
    let stop = Arc::new(AtomicBool::new(false));
    let inferences = std::thread::scope(|s| {
        let edge = {
            let stop = Arc::clone(&stop);
            let consumer = &consumer;
            let test = &test;
            s.spawn(move || {
                let mut served = 0u64;
                let mut replica = viper_workloads::ptychonn::build_model(1234);
                let mut last_iter = 0;
                while !stop.load(Ordering::Acquire) {
                    if let Some(ckpt) = consumer.current() {
                        if ckpt.iteration != last_iter {
                            replica.set_weights(&ckpt.tensors).unwrap();
                            last_iter = ckpt.iteration;
                            println!("  edge swapped to iteration {last_iter}");
                        }
                        let _ = replica.predict(test.x()).unwrap();
                        served += 1;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                served
            })
        };

        let cfg = FitConfig {
            epochs: fine_tune_epochs as usize,
            batch_size: 16,
            shuffle: true,
        };
        model
            .fit(&train, &losses::Mae, &mut opt, &cfg, &mut [&mut callback])
            .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Release);
        edge.join().unwrap()
    });

    let receipts = callback.receipts();
    println!(
        "fine-tuning done: {} checkpoints pushed, {} inferences served, {} updates applied",
        receipts.lock().unwrap().len(),
        inferences,
        consumer.updates_applied()
    );
    let final_mae = model.evaluate(&test, &losses::Mae, 32).unwrap();
    println!("final test MAE: {final_mae:.4}");
}
