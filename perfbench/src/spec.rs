//! The benchmark's definition: its workloads and metrics, each with
//! the reason it was chosen, and the `BENCHMARK.json` they render to.
//!
//! This table is the single source of truth. `lra-perfbench --spec`
//! prints `BENCHMARK.json`, and a test pins the committed file to that
//! output. The file format only carries a `why` for workloads, so the
//! reasons for the metrics, and the end-to-end metric each per-layer
//! metric should move, live here.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a set of inputs and the layers it stresses.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric a user of the allocator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub why: &'static str,
}

/// A metric of one layer, measured by the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move, and on which
    /// workload that shows.
    pub moves: &'static str,
}

/// The command the benchmark runs, from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: &[&str] = &["perfbench"];

/// Seconds one run measures. Host speed on a shared machine drifts
/// slowly (jit-huge throughput moved between 330 and 800 functions/s
/// within an hour on a 2-vCPU host), so short runs keep ten runs of a
/// workload within a few minutes of each other; the median over a
/// run's passes absorbs the faster noise.
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch-jit-huge",
        why: "504 JIT methods under the Portfolio policy, cache cleared per pass: the exact tier takes most of the time, so exact-tier work shows here and cache work does not",
    },
    Workload {
        name: "batch-heuristic",
        why: "lao-kernels under BFPL and specjvm98 under LH, the paper's heuristics on its corpora: analysis, instance, verify and heuristic work shows; no exact tier, cache or service",
    },
    Workload {
        name: "service-mixed",
        why: "in-process TCP server, 2 closed-loop connections, textio-printed JIT methods with 80% hot repeats: the only path through textio, proto, TCP, the queue and cache hits",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        why: "input generation, textio printing, pipeline construction, server bind and client connect; median of repeated set-ups, so work moved out of the timed passes shows",
    },
    EndToEnd {
        name: "functions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        why: "throughput a JIT or batch compiler gets: functions allocated per wall-clock second, median over timed passes",
    },
    EndToEnd {
        name: "fn_time_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        why: "typical time a caller waits for one function's registers",
    },
    EndToEnd {
        name: "fn_time_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        why: "tail wait, set by the largest methods and by exact-tier escalations; at least 10 samples lie beyond it",
    },
    EndToEnd {
        name: "total_spill_cost",
        unit: "cost",
        better: Better::Lower,
        bound: 0.01,
        why: "the paper's quality measure: spill cost summed over one pass; deterministic, so every pass must agree",
    },
    EndToEnd {
        name: "converged_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        why: "share of functions whose spill loop ended with nothing left to spill",
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        why: "rows Ok and verified over rows attempted; a wrong row (error, infeasible, differing from the reference or direct row) fails the run instead",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        why: "VmHWM of the workload's process: memory a long-lived allocator holds",
    },
];

const EXACT: &str =
    "fn_time_p50_ms, fn_time_p99_ms and functions_per_s on batch-jit-huge, maybe its total_spill_cost; nothing on batch-heuristic";
const FRONT: &str = "functions_per_s on batch-heuristic; a small share of batch-jit-huge";
const WIRE: &str = "fn_time_p50_ms on service-mixed; nothing on the batch workloads";
const COUNT: &str = "exact work count: compare as a count, not as a speed-up";

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer { name: "core.pipeline_ms", unit: "ms", better: Better::Lower, moves: "every time metric: allocate_item_with time summed over the traced pass" },
    PerLayer { name: "core.pipeline_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.unattributed_share", unit: "ratio", better: Better::Lower, moves: "share of core.pipeline_ms the replay does not cover: escalation and orchestration" },
    PerLayer { name: "core.instance_ms", unit: "ms", better: Better::Lower, moves: FRONT },
    PerLayer { name: "core.instance_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.instance_vertices", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.instance_edges", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.cheap_ms", unit: "ms", better: Better::Lower, moves: "fn_time_p50_ms and total_spill_cost on batch-heuristic" },
    PerLayer { name: "core.cheap_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.exact_ms", unit: "ms", better: Better::Lower, moves: EXACT },
    PerLayer { name: "core.exact_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.escalations", unit: "count", better: Better::Lower, moves: EXACT },
    PerLayer { name: "core.certified", unit: "count", better: Better::Higher, moves: EXACT },
    PerLayer { name: "core.exact_wins", unit: "count", better: Better::Higher, moves: EXACT },
    PerLayer { name: "core.exact_win_ratio", unit: "ratio", better: Better::Higher, moves: EXACT },
    PerLayer { name: "core.verify_ms", unit: "ms", better: Better::Lower, moves: FRONT },
    PerLayer { name: "core.verify_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.verify_unknown", unit: "count", better: Better::Lower, moves: "ok_share on batch-jit-huge and service-mixed: replayed rounds the verifier could not decide" },
    PerLayer { name: "core.rounds", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.spilled_values", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "core.cache_hit_ratio", unit: "ratio", better: Better::Higher, moves: "functions_per_s and fn_time_p50_ms on service-mixed; 0 on batch-jit-huge" },
    PerLayer { name: "core.cache_lookups", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "ir.analysis_ms", unit: "ms", better: Better::Lower, moves: FRONT },
    PerLayer { name: "ir.analysis_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "ir.reanalyse_ms", unit: "ms", better: Better::Lower, moves: FRONT },
    PerLayer { name: "ir.reanalyse_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "ir.spill_costs_ms", unit: "ms", better: Better::Lower, moves: FRONT },
    PerLayer { name: "ir.spill_costs_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "ir.rewrite_ms", unit: "ms", better: Better::Lower, moves: FRONT },
    PerLayer { name: "ir.rewrite_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "ir.textio_print_ms", unit: "ms", better: Better::Lower, moves: WIRE },
    PerLayer { name: "ir.textio_print_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "ir.textio_parse_ms", unit: "ms", better: Better::Lower, moves: WIRE },
    PerLayer { name: "ir.textio_parse_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "service.direct_p50_ms", unit: "ms", better: Better::Lower, moves: "fn_time_p50_ms on service-mixed: the stream through allocate_item_with, no queue, no wire" },
    PerLayer { name: "service.inproc_p50_ms", unit: "ms", better: Better::Lower, moves: "fn_time_p50_ms on service-mixed: the stream through AllocationService::submit and Ticket::wait" },
    PerLayer { name: "service.tcp_p50_ms", unit: "ms", better: Better::Lower, moves: "fn_time_p50_ms on service-mixed: the stream through the TCP server" },
    PerLayer { name: "service.replay_requests", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "service.queue_overhead_ms", unit: "ms", better: Better::Lower, moves: WIRE },
    PerLayer { name: "service.wire_overhead_ms", unit: "ms", better: Better::Lower, moves: WIRE },
    PerLayer { name: "service.proto_ms", unit: "ms", better: Better::Lower, moves: WIRE },
    PerLayer { name: "service.proto_calls", unit: "count", better: Better::Lower, moves: COUNT },
    PerLayer { name: "service.queue_high_water", unit: "count", better: Better::Lower, moves: WIRE },
    PerLayer { name: "trace.untraced_pipeline_ms", unit: "ms", better: Better::Lower, moves: "the untraced allocate_item_with time of the same functions, the base of trace.overhead_share" },
    PerLayer { name: "trace.overhead_share", unit: "ratio", better: Better::Lower, moves: "how much the replay slows the traced core.pipeline_ms; nothing end to end, which is measured untraced" },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric as a run reports it.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    /// Why it was chosen, or what it should move.
    pub about: &'static str,
}

/// The metrics a run reports: the end-to-end ones untraced, the
/// per-layer ones traced.
pub fn reported(trace: bool) -> Vec<Reported> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| Reported {
                name: m.name,
                unit: m.unit,
                about: m.moves,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| Reported {
                name: m.name,
                unit: m.unit,
                about: m.why,
            })
            .collect()
    }
}

/// A JSON string literal (the table holds no characters that need
/// more than quote and backslash escapes).
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn list(items: &[&str]) -> String {
    let parts: Vec<String> = items.iter().map(|s| quoted(s)).collect();
    format!("[{}]", parts.join(", "))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"command\": {},\n", list(COMMAND));
    out += &format!("  \"paths\": {},\n", list(PATHS));
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    out += &format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n"));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out += &format!("  \"end_to_end\": [\n{}\n  ],\n", rows.join(",\n"));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect();
    out += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_reasons_fit_the_file_format() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for w in WORKLOADS {
            assert!(
                !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        for m in END_TO_END {
            assert!(is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(!m.why.is_empty(), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(is_unit(m.unit), "{}", m.name);
            assert!(!m.moves.is_empty(), "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_layer_timing_has_a_call_count() {
        let names: HashSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for m in PER_LAYER {
            if let Some(stem) = m.name.strip_suffix("_ms") {
                if stem.ends_with("_p50") || stem.ends_with("_overhead") {
                    assert!(names.contains("service.replay_requests"));
                } else if m.name != "trace.untraced_pipeline_ms" {
                    let calls = format!("{stem}_calls");
                    assert!(names.contains(calls.as_str()), "{} has no {calls}", m.name);
                }
            }
        }
    }

    #[test]
    fn the_committed_benchmark_json_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `lra-perfbench --spec`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
