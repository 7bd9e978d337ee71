//! The metric catalogue: the same names, units, directions and bounds as
//! `/BENCHMARK.json` (a unit test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The timing bounds are the widest the manifest allows. Between quiet
/// runs on the host this was written on each metric repeats within 2-3 %,
/// but the host's other tenants move every timing by 10-30 % for minutes
/// at a time (README, "Why the best block is reported"), and a bound
/// inside that noise would reject changes at random.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "update_wall_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "save_stall_wall_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_gib_s",
        unit: "GiB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_update",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly for a given seed and build.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn gauge(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 53] = [
    timed("formats.encode_ms", "ms"),
    timed("formats.decode_ms", "ms"),
    gauge("formats.crc_gib_s", "GiB/s", Higher),
    timed("formats.diff_ms", "ms"),
    timed("formats.apply_ms", "ms"),
    count("formats.delta_wire_share", "share", Lower),
    count("formats.encoded_bytes", "bytes", Lower),
    count("formats.arena_reuse_share", "share", Higher),
    timed("net.send_ms", "ms"),
    timed("net.recv_ms", "ms"),
    timed("net.verify_ms", "ms"),
    timed("net.assemble_ms", "ms"),
    count("net.bytes_copied_per_update", "bytes", Lower),
    count("net.chunks_per_update", "count", Lower),
    count("net.retransmit_share", "share", Lower),
    count("net.retransmits_per_update", "count", Lower),
    count("net.nacks_per_update", "count", Lower),
    count("net.corrupt_chunks", "count", Lower),
    count("net.stale_feedback", "count", Lower),
    count("net.timers_fired", "count", Lower),
    timed("net.reactor_roundtrip_us", "us"),
    timed("metastore.put_us", "us"),
    timed("metastore.notify_us", "us"),
    timed("hw.tier_write_us", "us"),
    timed("hw.tier_read_us", "us"),
    count("hw.virtual_update_ms_p50", "ms", Lower),
    count("hw.virtual_stall_ms_p50", "ms", Lower),
    gauge("hw.model_over_wall", "ratio", Higher),
    timed("core.install_us", "us"),
    timed("core.update_wall_ms_tail", "ms"),
    gauge("core.update_wall_tail_pct", "%", Higher),
    timed("core.update_wall_ms_max", "ms"),
    timed("core.unattributed_ms", "ms"),
    gauge("core.unattributed_share", "share", Lower),
    count("core.delta_sends_share", "share", Higher),
    count("core.delta_fallbacks", "count", Lower),
    count("core.fulls_requested", "count", Lower),
    count("core.apply_tensor_copies_per_update", "count", Lower),
    count("core.relay_reserves_per_update", "count", Lower),
    count("core.group_acks_per_update", "count", Lower),
    count("core.reparent_events", "count", Lower),
    count("core.pfs_fallbacks", "count", Lower),
    count("core.deliveries_exhausted", "count", Lower),
    count("core.flows_abandoned", "count", Lower),
    count("core.updates_superseded", "count", Lower),
    gauge("telemetry.traced_overhead_share", "share", Lower),
    count("telemetry.events_per_update", "count", Lower),
    count("telemetry.dropped_events", "count", Lower),
    timed("telemetry.export_ms", "ms"),
    gauge("proc.minor_faults_per_update", "count", Lower),
    gauge("proc.sys_cpu_share", "share", Lower),
    gauge("proc.ctx_switches_per_update", "count", Lower),
    gauge("proc.threads", "count", Lower),
];

/// The benchmark's command line as the driver types it, from the root of
/// a checkout; it appends `--workload .. --seed .. --seconds .. --trace ..`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/e2e/Cargo.toml",
    "--",
];

/// Seconds of timed updates per run (`--seconds` as the driver passes it).
pub const RUN_SECONDS: u32 = 10;

/// The text of `/BENCHMARK.json`, generated from this catalogue so the
/// contract and the binary cannot drift apart (`e2e --manifest`).
pub fn manifest() -> String {
    let quoted = |items: &[&str]| {
        let items: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        items.join(", ")
    };
    let block = |entries: Vec<String>| entries.join(",\n    ");
    let workloads = crate::workload::WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        quoted(&COMMAND),
        block(workloads),
        block(end_to_end),
        block(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `e2e --manifest`");
        viper_telemetry::chrome::validate_json(&committed).expect("manifest is JSON");
    }

    #[test]
    fn names_and_units_fit_the_manifest_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{name}: {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
