//! `e2e`: the capture-to-install benchmark. Drives the live engine
//! (`Viper::new` → `Producer::save_weights` → `Consumer::load_weights`)
//! through six workloads and prints the metrics `/BENCHMARK.json` names.
//! See `benchmark/README.md`.
//!
//! ```text
//! e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! e2e --all [--selfcheck] [--seed N] [--seconds S] [--out FILE]
//! ```

mod json;
mod live;
mod metrics;
mod procfs;
mod replay;
mod run;
mod spans;
mod stats;
mod suite;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage:
  e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
      one run of one workload; --trace 0 prints the end-to-end metrics,
      --trace 1 the per-layer ones; the last stdout line is the result JSON
  e2e --all [--selfcheck] [--seed N] [--seconds S] [--out FILE]
      every workload, untraced then traced, each in a fresh process;
      --selfcheck runs two sets and fails unless they agree
  e2e --list | --manifest
      workload names | the text of /BENCHMARK.json";

struct Args {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    list: bool,
    manifest: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        selfcheck: false,
        list: false,
        manifest: false,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        out: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = Some(value()?),
            "--all" => parsed.all = true,
            "--selfcheck" => parsed.selfcheck = true,
            "--list" => parsed.list = true,
            "--manifest" => parsed.manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// One run in this process. Prints `workload metric value unit` per
/// metric, `# key value` per fact, and the contract's JSON object last.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = workload::find(name).ok_or(format!("unknown workload {name} (try --list)"))?;
    let result = if args.trace {
        run::run_traced(spec, args.seed, args.seconds)
    } else {
        run::run_untraced(spec, args.seed, args.seconds)
    };
    for (name, value) in &result.metrics {
        println!(
            "{} {name} {value:?} {}",
            spec.name,
            run::RunResult::unit_of(name)
        );
    }
    for (key, value) in &result.info {
        println!("# {key} {}", value.render());
    }
    if let Some(out) = &args.out {
        let write = |path: String, text: String| {
            std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))
        };
        write(
            out.clone(),
            result.file_json(&spec, args.seed, args.seconds).render(),
        )?;
        if let Some(spans) = &result.spans {
            write(format!("{out}.spans.json"), spans.to_json().render())?;
        }
        if let Some(trace) = &result.engine_trace {
            write(format!("{out}.chrome.json"), trace.clone())?;
        }
    }
    println!("{}", result.contract_json().render());
    Ok(result.correct())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("e2e: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.list {
        for w in &workload::WORKLOADS {
            println!("{}", w.name);
        }
        Ok(true)
    } else if args.manifest {
        print!("{}", metrics::manifest());
        Ok(true)
    } else if args.all || args.selfcheck {
        suite::run(args.seed, args.seconds, args.out.as_deref(), args.selfcheck)
    } else if let Some(name) = &args.workload {
        run_one(&args, name)
    } else {
        Err("nothing to do: give --workload NAME or --all".to_string())
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: correctness check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{run_block, Deployment};
    use crate::spans::SpanLog;
    use viper_telemetry::Telemetry;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse(&[
            "--workload",
            "tiny_stream_256k",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("the driver's argument order");
        assert_eq!(args.workload.as_deref(), Some("tiny_stream_256k"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    /// All six workloads at 1/64 size, three updates each, live and
    /// replayed, in this process: seconds, not minutes.
    #[test]
    fn smoke_every_workload_installs_bit_identically() {
        for spec in workload::WORKLOADS {
            let small = spec.scaled(64);
            let mut deployment = Deployment::setup(small, 1, Telemetry::enabled());
            let mut spans = SpanLog::new();
            let measured = run_block(&mut deployment, 3, Some(&mut spans));
            assert_eq!(measured.updates(), 3, "{}", spec.name);
            assert_eq!(measured.failed(), 0, "{}", spec.name);
            assert_eq!(deployment.warmup_failures, 0, "{}", spec.name);
            assert_eq!(deployment.delivery_errors(), 0, "{}", spec.name);
            assert_eq!(deployment.producer.pfs_fallbacks(), 0, "{}", spec.name);
            assert_eq!(spans.spans().len(), 9, "three spans per update");

            let first = small.warmup + 4;
            let stages = replay::replay(&small, &mut deployment.inputs, first, &mut spans);
            assert!(stages.correct, "{}", spec.name);
            assert!(stages.stage("formats.encode_ms") > 0.0);
            assert!(stages.blocking_path_ms(&small) > 0.0);
            let delta = small.path == workload::Path::DeltaSparse;
            assert_eq!(
                stages.stage("formats.diff_ms") > 0.0,
                delta,
                "{}",
                spec.name
            );
            assert_eq!(stages.delta_wire_share > 0.0, delta, "{}", spec.name);
        }
    }

    /// The traced run end to end on the smallest workload: every per-layer
    /// metric is present and the files it would write are valid JSON.
    #[test]
    fn traced_run_reports_the_whole_per_layer_catalogue() {
        let spec = workload::find("tiny_stream_256k").expect("known workload");
        let result = run::run_traced(spec, 1, 0.02);
        assert!(result.correct());
        for m in &metrics::PER_LAYER {
            assert!(result.metrics.contains_key(m.name), "{}", m.name);
        }
        assert_eq!(result.metrics.len(), metrics::PER_LAYER.len());
        assert!(result.metrics["telemetry.events_per_update"] > 0.0);
        let validate = viper_telemetry::chrome::validate_json;
        validate(&result.contract_json().render()).expect("contract line");
        validate(&result.file_json(&spec, 1, 0.02).render()).expect("result file");
        validate(&result.spans.expect("traced").to_json().render()).expect("span file");
        validate(&result.engine_trace.expect("traced")).expect("engine trace");
    }
}
