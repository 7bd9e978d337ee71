//! End-to-end workflow: a real miniature model trains on the producer
//! node while a consumer serves inferences from pushed checkpoints —
//! the full §4.2 flow, including the warm-up → IPP → re-schedule loop —
//! and data-parallel producers publishing to the same model name.

use std::sync::Arc;
use std::time::Duration;
use viper::{planner, CheckpointCallback, Consumer, Producer, SchedulePolicy, Viper, ViperConfig};
use viper_dnn::{losses, optimizers, FitConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};
use viper_tensor::Tensor;

fn deployment(route: Route, mode: CaptureMode) -> (Viper, Arc<Producer>, Consumer) {
    let mut config = ViperConfig::default().with_strategy(route, mode);
    config.flush_to_pfs = false;
    let viper = Viper::new(config);
    let producer = Arc::new(viper.producer("producer-node"));
    let consumer = viper.consumer("consumer-node", "nt3");
    (viper, producer, consumer)
}

#[test]
fn training_with_checkpoints_updates_consumer() {
    let (_viper, producer, consumer) = deployment(Route::GpuToGpu, CaptureMode::Sync);

    let mut model = viper_workloads::nt3::build_model(1);
    let (train, _) = viper_workloads::nt3::datasets(0.02, 1);
    let mut callback = CheckpointCallback::new(Arc::clone(&producer), SchedulePolicy::EveryN(4));
    let receipts = callback.receipts();

    let mut opt = optimizers::Sgd::with_momentum(0.02, 0.9);
    let cfg = FitConfig {
        epochs: 4,
        batch_size: 8,
        shuffle: true,
    };
    let report = model
        .fit(
            &train,
            &losses::SoftmaxCrossEntropy,
            &mut opt,
            &cfg,
            &mut [&mut callback],
        )
        .unwrap();

    let expected_ckpts = report.iterations / 4;
    assert_eq!(receipts.lock().unwrap().len() as u64, expected_ckpts);
    assert_eq!(callback.failures(), 0);

    // The consumer eventually serves the latest version.
    let last_version = receipts.lock().unwrap().back().unwrap().version;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while consumer.last_update().map(|u| u.version).unwrap_or(0) < last_version {
        assert!(
            std::time::Instant::now() < deadline,
            "consumer never caught up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let served = consumer.current().unwrap();
    assert_eq!(served.model_name, "nt3");
    assert_eq!(served.iteration, model.iteration());

    // Served weights equal the producer's current weights exactly.
    let mut replica = viper_workloads::nt3::build_model(999);
    replica.set_weights(&served.tensors).unwrap();
    let (_, test) = viper_workloads::nt3::datasets(0.02, 1);
    assert_eq!(
        model.predict(test.x()).unwrap(),
        replica.predict(test.x()).unwrap()
    );
}

#[test]
fn consumer_serves_inferences_while_updates_stream() {
    let (_viper, producer, consumer) = deployment(Route::GpuToGpu, CaptureMode::Async);

    let mut model = viper_workloads::nt3::build_model(2);
    let (train, test) = viper_workloads::nt3::datasets(0.02, 2);
    let mut callback = CheckpointCallback::new(Arc::clone(&producer), SchedulePolicy::EveryN(2));

    // Inference thread hammers the slot while training streams updates.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let inferences_served = std::thread::scope(|s| {
        let handle = {
            let stop = Arc::clone(&stop);
            let consumer = &consumer;
            let test = &test;
            s.spawn(move || {
                let mut inferences = 0u64;
                let mut replica = viper_workloads::nt3::build_model(77);
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    if let Some(ckpt) = consumer.current() {
                        replica.set_weights(&ckpt.tensors).unwrap();
                        let _ = replica.predict(test.x()).unwrap();
                        inferences += 1;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                inferences
            })
        };

        let mut opt = optimizers::Sgd::with_momentum(0.02, 0.9);
        let cfg = FitConfig {
            epochs: 3,
            batch_size: 8,
            shuffle: true,
        };
        model
            .fit(
                &train,
                &losses::SoftmaxCrossEntropy,
                &mut opt,
                &cfg,
                &mut [&mut callback],
            )
            .unwrap();
        // Give the async pipeline a moment to drain, then stop serving.
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, std::sync::atomic::Ordering::Release);
        handle.join().unwrap()
    });

    assert!(
        consumer.updates_applied() > 0,
        "no updates reached the consumer"
    );
    assert!(inferences_served > 0, "no inferences were served");
}

#[test]
fn warmup_then_replan_with_ipp() {
    let (viper, producer, _consumer) = deployment(Route::GpuToGpu, CaptureMode::Sync);

    // Warm-up: observe losses without checkpointing.
    let mut model = viper_workloads::nt3::build_model(3);
    let (train, _) = viper_workloads::nt3::datasets(0.02, 3);
    let mut callback = CheckpointCallback::new(Arc::clone(&producer), SchedulePolicy::Never);
    let mut opt = optimizers::Sgd::with_momentum(0.02, 0.9);
    let cfg = FitConfig {
        epochs: 4,
        batch_size: 4,
        shuffle: true,
    };
    model
        .fit(
            &train,
            &losses::SoftmaxCrossEntropy,
            &mut opt,
            &cfg,
            &mut [&mut callback],
        )
        .unwrap();
    let warmup_losses = callback.losses().to_vec();
    assert!(warmup_losses.len() >= 3);

    // Fit the TLP and plan a schedule for the rest of training.
    let tlp = planner::fit_warmup(&warmup_losses);
    let s_iter = model.iteration();
    let e_iter = s_iter + 100;
    let params = planner::cost_params(viper.config(), 1_700_000_000, 16, 0.05, 0.005);
    let fixed = planner::plan_fixed(&tlp, &params, s_iter, e_iter, 10_000);
    let adaptive = planner::plan_adaptive(&tlp, &params, &warmup_losses, s_iter, e_iter, 10_000);

    // Re-arm the callback with the planned schedule and continue training.
    callback.set_policy(SchedulePolicy::AtIterations(fixed.checkpoints.clone()));
    let receipts = callback.receipts();
    let before = receipts.lock().unwrap().len();
    let cfg2 = FitConfig {
        epochs: 6,
        batch_size: 4,
        shuffle: true,
    };
    model
        .fit(
            &train,
            &losses::SoftmaxCrossEntropy,
            &mut opt,
            &cfg2,
            &mut [&mut callback],
        )
        .unwrap();
    let taken = receipts.lock().unwrap().len() - before;
    let expected: usize = fixed
        .checkpoints
        .iter()
        .filter(|&&c| c > s_iter && c <= model.iteration())
        .count();
    assert_eq!(taken, expected, "callback followed the planned schedule");
    // The greedy plan exists and is well-formed too.
    assert!(adaptive
        .checkpoints
        .iter()
        .all(|&c| c > s_iter && c <= e_iter));
}

#[test]
fn load_weights_api_matches_paper_semantics() {
    let (_viper, producer, consumer) = deployment(Route::HostToHost, CaptureMode::Sync);
    let model = viper_workloads::nt3::build_model(4);

    // save_weights / load_weights: the Fig. 4 two-call API.
    let ckpt = viper_formats::Checkpoint::new("nt3", 10, model.named_weights());
    let receipt = producer.save_weights(&ckpt).unwrap();
    assert_eq!(receipt.version, 1);
    let loaded = consumer.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(loaded.iteration, 10);
    assert_eq!(loaded.tensors.len(), ckpt.tensors.len());

    // A second save produces a strictly newer version.
    let ckpt2 = viper_formats::Checkpoint::new("nt3", 20, model.named_weights());
    let receipt2 = producer.save_weights(&ckpt2).unwrap();
    assert_eq!(receipt2.version, 2);
    let loaded2 = consumer.load_weights(Duration::from_secs(10)).unwrap();
    assert_eq!(loaded2.iteration, 20);
}

/// A sync GPU-route deployment without the background PFS flush.
fn sync_gpu() -> Viper {
    let mut config = ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
    config.flush_to_pfs = false;
    Viper::new(config)
}

fn replica(iter: u64, elems: usize) -> Checkpoint {
    Checkpoint::new(
        "m",
        iter,
        vec![("w".into(), Tensor::full(&[elems], iter as f32))],
    )
}

#[test]
fn data_parallel_producers_interleave_versions() {
    // Two data-parallel trainers checkpoint replicas of the same model;
    // the consumer always converges on the newest iteration.
    let viper = sync_gpu();
    let p0 = viper.producer("rank0");
    let p1 = viper.producer("rank1");
    let consumer = viper.consumer("serving", "m");

    p0.save_weights(&replica(10, 64)).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();
    p1.save_weights(&replica(20, 64)).unwrap();
    consumer.load_weights(Duration::from_secs(10)).unwrap();
    p0.save_weights(&replica(30, 64)).unwrap();
    let last = consumer.load_weights(Duration::from_secs(10)).unwrap();

    assert_eq!(last.iteration, 30);
    // Versions are globally ordered across producers.
    let history = viper.metadata().history("m");
    assert_eq!(
        history.iter().map(|r| r.version).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    assert_eq!(
        history.iter().map(|r| r.iteration).collect::<Vec<_>>(),
        vec![10, 20, 30]
    );
}

#[test]
fn concurrent_data_parallel_saves_are_serializable() {
    let viper = sync_gpu();
    let consumer = viper.consumer("serving", "m");
    std::thread::scope(|s| {
        for rank in 0..4u64 {
            let viper = viper.clone();
            s.spawn(move || {
                let p = viper.producer(&format!("rank{rank}"));
                for k in 0..5u64 {
                    p.save_weights(&replica(rank * 5 + k + 1, 16)).unwrap();
                }
            });
        }
    });
    // 20 saves -> 20 versions, no gaps, no duplicates (keep_versions is 16,
    // so the newest 16 remain).
    let history = viper.metadata().history("m");
    let versions: Vec<u64> = history.iter().map(|r| r.version).collect();
    assert_eq!(versions, (5..=20).collect::<Vec<u64>>());
    let _ = consumer; // consumer kept alive throughout the stampede
}
