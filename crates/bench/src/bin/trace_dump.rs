//! Run a fault-injected producer→consumer session with telemetry enabled
//! and dump the Chrome trace-event JSON (open it at
//! <https://ui.perfetto.dev>).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p viper-bench --bin trace_dump -- \
//!     [--drop 0.2] [--seed 7] [--saves 3] [--out trace.json]
//! ```
//!
//! The trace JSON goes to `--out` (default `trace.json`); the metrics
//! table and a run summary go to stderr, so stdout stays clean for
//! scripting (`--out -` streams the JSON to stdout instead).

use std::time::Duration;
use viper::{Viper, ViperConfig};
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};
use viper_net::{FaultPlan, RetryPolicy};
use viper_telemetry::{chrome, Telemetry};
use viper_tensor::Tensor;

struct Args {
    drop: f64,
    seed: u64,
    saves: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        drop: 0.2,
        seed: 7,
        saves: 3,
        out: "trace.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--drop" => args.drop = value("--drop").parse().expect("--drop: not a number"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: not a number"),
            "--saves" => args.saves = value("--saves").parse().expect("--saves: not a number"),
            "--out" => args.out = value("--out"),
            "--help" | "-h" => {
                eprintln!("usage: trace_dump [--drop P] [--seed N] [--saves N] [--out FILE|-]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }
    args
}

/// A checkpoint spanning several 1 KiB chunks, so the chunked pipeline,
/// CRC verification, and NACK-driven retransmission all engage.
fn ckpt(iter: u64) -> Checkpoint {
    Checkpoint::new(
        "traced-model",
        iter,
        vec![
            ("conv/kernel".into(), Tensor::full(&[750], iter as f32)),
            ("dense/bias".into(), Tensor::full(&[750], 0.5)),
        ],
    )
}

fn main() {
    let args = parse_args();

    let telemetry = Telemetry::enabled();
    let mut config = ViperConfig::default()
        .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
        .with_chunked(1024)
        .with_faults(FaultPlan::seeded(args.seed).with_drop(args.drop))
        .with_retry(RetryPolicy {
            max_retries: 16,
            ack_timeout: Duration::from_millis(100),
            nack_after: Duration::from_millis(2),
            max_nacks: 24,
        })
        .with_telemetry(telemetry.clone());
    config.flush_to_pfs = false;

    let viper = Viper::new(config);
    let producer = viper.producer("train-0");
    let consumer = viper.consumer("serve-0", "traced-model");

    let t0 = viper.clock().now();
    for iter in 1..=args.saves {
        producer
            .save_weights(&ckpt(iter))
            .expect("save_weights failed");
        consumer
            .load_weights(Duration::from_secs(30))
            .expect("consumer never converged");
    }
    let makespan = viper.clock().now().since(t0);

    let json = chrome::export(&telemetry);
    chrome::validate_json(&json).expect("exporter produced invalid JSON");
    chrome::check_nesting(&telemetry.events()).expect("malformed span nesting");

    if args.out == "-" {
        println!("{json}");
    } else {
        std::fs::write(&args.out, &json).expect("write trace file");
    }

    eprintln!(
        "trace_dump: {} saves over a {:.0}%-drop link (seed {})",
        args.saves,
        args.drop * 100.0,
        args.seed
    );
    eprintln!(
        "  virtual makespan {:.6} s, {} events recorded ({} dropped), retransmit rounds {}, NACKs {}",
        makespan.as_secs_f64(),
        telemetry.events().len(),
        telemetry.dropped_events(),
        producer.retransmits(),
        consumer.nacks_sent(),
    );
    if args.out != "-" {
        eprintln!(
            "  wrote {} ({} bytes) — load it at https://ui.perfetto.dev",
            args.out,
            json.len()
        );
    }
    eprintln!("\nmetrics:\n{}", chrome::render_metrics(&telemetry));
}
