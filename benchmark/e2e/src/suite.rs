//! `--all` and `--selfcheck`: every workload, untraced then traced, each
//! run in a fresh process (so `peak_rss_mib` and the `/proc/self`
//! counters belong to one workload), collected into one table.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::replay::blocking_path;
use crate::run::host_json;
use crate::workload::{Spec, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// `(workload, metric)` → the value exactly as the child printed it (so
/// exact counts compare as text, digit for digit).
type Table = BTreeMap<(String, String), String>;

struct Set {
    table: Table,
    /// `# key value` facts per `(workload, trace)` run.
    facts: BTreeMap<(String, bool), Vec<(String, String)>>,
    correct: bool,
}

fn run_child(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    set: &mut Set,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", spec.name))?;
    set.correct &= output.status.success();
    let facts = set.facts.entry((spec.name.to_string(), trace)).or_default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[..] {
            [workload, metric, value, _unit] if workload == spec.name => {
                println!("{line}");
                set.table.insert(
                    (workload.to_string(), metric.to_string()),
                    value.to_string(),
                );
            }
            ["#", key, value] => facts.push((key.to_string(), value.to_string())),
            _ => {}
        }
    }
    if !output.status.success() {
        eprintln!(
            "e2e: {} (trace {}) exited with {}",
            spec.name, trace as u8, output.status
        );
    }
    Ok(())
}

fn run_set(seed: u64, seconds: f64) -> Result<Set, String> {
    let mut set = Set {
        table: Table::new(),
        facts: BTreeMap::new(),
        correct: true,
    };
    for trace in [false, true] {
        for spec in &WORKLOADS {
            run_child(spec, seed, seconds, trace, &mut set)?;
        }
    }
    Ok(set)
}

fn value(table: &Table, workload: &str, metric: &str) -> Option<f64> {
    table
        .get(&(workload.to_string(), metric.to_string()))?
        .parse()
        .ok()
}

/// The per-layer metrics as a table: one row per metric, one column per
/// workload.
fn print_stage_table(table: &Table) {
    println!("\nstage table (traced pass; rows are per-layer metrics)");
    print!("{:<36}{:<7}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>22}", w.name);
    }
    println!();
    for m in &PER_LAYER {
        print!("{:<36}{:<7}", m.name, m.unit);
        for w in &WORKLOADS {
            match value(table, w.name, m.name) {
                Some(v) => print!(" {v:>22.4}"),
                None => print!(" {:>22}", "-"),
            }
        }
        println!();
    }
}

/// The three largest contributions to an update's blocking path, in ms:
/// replayed stages (times the consumers they run for) and what the replay
/// does not explain.
fn top_stages(table: &Table, spec: &Spec) -> Vec<(&'static str, f64)> {
    let stage = |name| value(table, spec.name, name).unwrap_or(0.0);
    let mut stages = blocking_path(spec, stage);
    stages.push(("core.unattributed_ms", stage("core.unattributed_ms")));
    stages.sort_by(|a, b| b.1.total_cmp(&a.1));
    stages.truncate(3);
    stages
}

fn print_summary(table: &Table) {
    println!("\nsummary (ms)");
    for w in &WORKLOADS {
        let get = |m| value(table, w.name, m).unwrap_or(f64::NAN);
        let top: Vec<String> = top_stages(table, w)
            .iter()
            .map(|(name, ms)| format!("{name}={ms:.2}"))
            .collect();
        println!(
            "{:<24} update_wall_ms_p50={:<10.3} save_stall_wall_ms_p50={:<10.3} top: {}",
            w.name,
            get("update_wall_ms_p50"),
            get("save_stall_wall_ms_p50"),
            top.join(" ")
        );
    }
}

fn set_json(set: &Set, seed: u64, seconds: f64) -> Json {
    let workloads = WORKLOADS.iter().map(|w| {
        let metrics = |names: &mut dyn Iterator<Item = (&'static str, &'static str)>| {
            Json::obj(names.filter_map(|(name, unit)| {
                let v = value(&set.table, w.name, name)?;
                let entry = Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
                Some((name, entry))
            }))
        };
        // Facts arrive as JSON text the child rendered; embed them as is.
        let facts = |trace| {
            let facts = set.facts.get(&(w.name.to_string(), trace));
            Json::obj(
                facts
                    .into_iter()
                    .flatten()
                    .map(|(key, v)| (key.as_str(), Json::Raw(v.clone()))),
            )
        };
        let top = top_stages(&set.table, w)
            .into_iter()
            .map(|(name, ms)| Json::obj([("stage", Json::str(name)), ("ms", Json::Num(ms))]))
            .collect();
        Json::obj([
            ("name", Json::str(w.name)),
            ("why", Json::str(w.why)),
            (
                "end_to_end",
                metrics(&mut END_TO_END.iter().map(|m| (m.name, m.unit))),
            ),
            ("untraced_run", facts(false)),
            (
                "per_layer",
                metrics(&mut PER_LAYER.iter().map(|m| (m.name, m.unit))),
            ),
            ("traced_run", facts(true)),
            ("top_stages", Json::Arr(top)),
        ])
    });
    Json::obj([
        ("benchmark", Json::str("e2e")),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Num(seconds)),
        ("host", host_json()),
        ("correct", Json::Bool(set.correct)),
        ("workloads", Json::Arr(workloads.collect())),
    ])
}

/// Relative amount by which `b` is worse than `a` (negative when better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare two sets of the same build. Returns the findings; empty means
/// the benchmark repeats within its own bounds.
fn compare(a: &Table, b: &Table) -> Vec<String> {
    let mut findings = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            match (value(a, w.name, m.name), value(b, w.name, m.name)) {
                (Some(x), Some(y)) => {
                    // Same build, so neither set is "the parent": either
                    // direction beyond the bound is a disagreement.
                    let drift = worsening(m.better, x, y)
                        .abs()
                        .max(worsening(m.better, y, x).abs());
                    if drift > m.bound {
                        findings.push(format!(
                            "spread: {} {} {x} vs {y} ({:.1}% > {:.0}%)",
                            w.name,
                            m.name,
                            drift * 100.0,
                            m.bound * 100.0
                        ));
                    }
                }
                _ => findings.push(format!("missing: {} {}", w.name, m.name)),
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let key = (w.name.to_string(), m.name.to_string());
            if a.get(&key) != b.get(&key) {
                findings.push(format!(
                    "determinism: {} {} {:?} vs {:?}",
                    w.name,
                    m.name,
                    a.get(&key),
                    b.get(&key)
                ));
            }
        }
    }
    findings
}

pub fn run(seed: u64, seconds: f64, out: Option<&str>, selfcheck: bool) -> Result<bool, String> {
    let first = run_set(seed, seconds)?;
    print_stage_table(&first.table);
    print_summary(&first.table);
    if let Some(out) = out {
        std::fs::write(out, set_json(&first, seed, seconds).render_pretty())
            .map_err(|e| format!("write {out}: {e}"))?;
    }
    let mut ok = first.correct;
    if selfcheck {
        println!("\nselfcheck: second set of the same build");
        let second = run_set(seed, seconds)?;
        ok &= second.correct;
        let findings = compare(&first.table, &second.table);
        for finding in &findings {
            println!("selfcheck {finding}");
        }
        println!(
            "selfcheck: {}",
            if findings.is_empty() {
                "two sets agree"
            } else {
                "FAILED"
            }
        );
        ok &= findings.is_empty();
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: &[(&str, &str, &str)]) -> Table {
        entries
            .iter()
            .map(|(w, m, v)| ((w.to_string(), m.to_string()), v.to_string()))
            .collect()
    }

    fn full_table(update_wall: &str, chunks: &str) -> Table {
        let mut t = Table::new();
        for w in &WORKLOADS {
            for m in &END_TO_END {
                t.insert((w.name.into(), m.name.into()), "10.0".into());
            }
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                t.insert((w.name.into(), m.name.into()), "3.0".into());
            }
        }
        t.extend(table(&[
            ("tiny_stream_256k", "update_wall_ms_p50", update_wall),
            ("tiny_stream_256k", "net.chunks_per_update", chunks),
        ]));
        t
    }

    #[test]
    fn selfcheck_passes_within_bounds_and_names_what_does_not_repeat() {
        let base = full_table("10.0", "3.0");
        assert!(
            compare(&base, &full_table("12.0", "3.0")).is_empty(),
            "20% < 25%"
        );
        let findings = compare(&base, &full_table("14.0", "3.5"));
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].starts_with("spread: tiny_stream_256k update_wall_ms_p50"));
        assert!(findings[1].starts_with("determinism: tiny_stream_256k net.chunks_per_update"));
        // Either set being the slow one counts.
        assert_eq!(compare(&full_table("14.0", "3.0"), &base).len(), 1);
        let mut partial = base.clone();
        partial.remove(&("tiny_stream_256k".to_string(), "setup_s".to_string()));
        assert!(compare(&base, &partial)[0].starts_with("missing:"));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!(worsening(Better::Lower, 10.0, 11.0) > 0.0);
        assert!(worsening(Better::Higher, 10.0, 11.0) < 0.0);
    }

    #[test]
    fn top_stages_weighs_consumer_side_stages_by_the_fan_out() {
        let fanout = &WORKLOADS[3];
        assert_eq!(fanout.consumers, 6);
        let t = table(&[
            (fanout.name, "formats.encode_ms", "20.0"),
            (fanout.name, "formats.decode_ms", "5.0"),
            (fanout.name, "metastore.put_us", "9000.0"),
            (fanout.name, "core.unattributed_ms", "25.0"),
            (fanout.name, "formats.apply_ms", "99.0"),
        ]);
        let top = top_stages(&t, fanout);
        assert_eq!(top[0], ("formats.decode_ms", 30.0), "six decodes in series");
        assert_eq!(top[1], ("core.unattributed_ms", 25.0));
        assert_eq!(
            top[2],
            ("formats.encode_ms", 20.0),
            "apply is off this path"
        );
    }
}
