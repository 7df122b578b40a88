//! The benchmark's vocabulary — workloads, end-to-end metrics, per-layer
//! metrics — and the report one run prints. `BENCHMARK.json` repeats the
//! lists below; a self-test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A workload and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "serve_repeat",
        why: "Repeat traffic over 12 cached circuits: cache reads, wire, scheduler window and event loop carry the request; where memoisation must show and ingest work must not.",
    },
    WorkloadDef {
        name: "serve_unique",
        why: "Every request a never-seen circuit (BENCH and binary AIGER): cache writes, both parsers, AIG transform, plan and kernel on every request; memoisation predicts no change here.",
    },
    WorkloadDef {
        name: "infer_large",
        why: "Offline predict_into over the five Table III designs (2k-21k nodes) after ingesting an 83k-node one: the CSR kernel undiluted; 10^5-node ingest lands in setup_s and peak_rss_mb.",
    },
    WorkloadDef {
        name: "train_epoch",
        why: "One Engine::train epoch per operation: the autodiff tape, backward and Adam instead of the CSR kernel, so a shared-code change that helps inference and costs training shows.",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A gated end-to-end metric.
pub struct EndToEndDef {
    /// Metric name, the same on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen; derived from
    /// the A/A evidence in the README, not guessed.
    pub bound: f64,
}

/// The five end-to-end metrics, in report order.
pub const END_TO_END: [EndToEndDef; 5] = [
    EndToEndDef {
        name: "throughput_nodes_s",
        unit: "nodes/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "within_limit_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// An ungated per-layer metric.
pub struct LayerDef {
    /// Metric name, prefixed by its layer (= crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric it should move, as `workload/metric`.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric a `--trace 1` run prints. Serve metrics that
/// depend on the traffic carry a `.repeat` / `.unique` suffix: every traced
/// run measures both kinds (its own phase for the workload's kind, a short
/// burst for the other), so a name means the same thing on every workload.
pub const PER_LAYER: &[LayerDef] = &[
    // netlist
    layer(
        "netlist.parse_bench.ns_per_node",
        "ns",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    // aig
    layer(
        "aig.from_netlist.ns_per_node",
        "ns",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "aig.optimize.ns_per_node",
        "ns",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "aig.aiger_read.ns_per_node",
        "ns",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "aig.from_netlist.ns_per_node_100k",
        "ns",
        Lower,
        "infer_large/setup_s",
    ),
    layer(
        "aig.optimize.ns_per_node_100k",
        "ns",
        Lower,
        "infer_large/setup_s",
    ),
    // sim
    layer(
        "sim.simulate.ns_per_node",
        "ns",
        Lower,
        "train_epoch/setup_s",
    ),
    // gnn: ingest side
    layer(
        "gnn.encode.ns_per_node",
        "ns",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "gnn.encode.ns_per_node_100k",
        "ns",
        Lower,
        "infer_large/setup_s",
    ),
    layer(
        "gnn.fingerprint.ns_per_node",
        "ns",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "gnn.plan.ns_per_node",
        "ns",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    // gnn: kernel
    layer(
        "gnn.kernel.ns_per_node",
        "ns",
        Lower,
        "infer_large/throughput_nodes_s",
    ),
    layer(
        "gnn.kernel.ns_per_node_100k",
        "ns",
        Lower,
        "infer_large/throughput_nodes_s",
    ),
    layer(
        "gnn.kernel.us_per_level",
        "us",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "gnn.kernel.level_agg_share",
        "share",
        Lower,
        "infer_large/throughput_nodes_s",
    ),
    layer(
        "gnn.kernel.regress_share",
        "share",
        Lower,
        "infer_large/throughput_nodes_s",
    ),
    layer(
        "gnn.kernel.computed_flops_per_node",
        "count",
        Lower,
        "infer_large/throughput_nodes_s",
    ),
    layer(
        "gnn.kernel.achieved_gflops",
        "GFLOP/s",
        Higher,
        "infer_large/throughput_nodes_s",
    ),
    // gnn: other uses
    layer(
        "gnn.fuse.ns_per_node",
        "ns",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer("gnn.embed.ns_per_node", "ns", Lower, "none"),
    layer(
        "gnn.tape_forward.ns_per_node",
        "ns",
        Lower,
        "train_epoch/throughput_nodes_s",
    ),
    // nn
    layer(
        "nn.backward.ns_per_node",
        "ns",
        Lower,
        "train_epoch/throughput_nodes_s",
    ),
    layer(
        "nn.optim_step.us_per_step",
        "us",
        Lower,
        "train_epoch/throughput_nodes_s",
    ),
    layer(
        "nn.tape.vars_per_node",
        "count",
        Lower,
        "train_epoch/peak_rss_mb",
    ),
    // core
    layer(
        "core.trainer.self_share",
        "share",
        Lower,
        "train_epoch/throughput_nodes_s",
    ),
    layer(
        "core.evaluate.ns_per_node",
        "ns",
        Lower,
        "train_epoch/setup_s",
    ),
    // dataset
    layer(
        "dataset.generate.ns_per_node",
        "ns",
        Lower,
        "infer_large/setup_s",
    ),
    layer(
        "dataset.label.ns_per_node",
        "ns",
        Lower,
        "train_epoch/setup_s",
    ),
    // engine
    layer("engine.build.ms", "ms", Lower, "serve_repeat/setup_s"),
    layer(
        "engine.prepare.ns_per_node",
        "ns",
        Lower,
        "train_epoch/setup_s",
    ),
    layer(
        "engine.prepare_unlabelled.ns_per_node",
        "ns",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "engine.prepare_unlabelled.self_share",
        "share",
        Lower,
        "infer_large/setup_s",
    ),
    layer(
        "engine.session.batch_speedup",
        "ratio",
        Higher,
        "serve_repeat/throughput_nodes_s",
    ),
    // serve.cache
    layer(
        "serve.cache.hit_share.repeat",
        "share",
        Higher,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.cache.hit_share.unique",
        "share",
        Higher,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.cache.entries.repeat",
        "count",
        Lower,
        "serve_repeat/peak_rss_mb",
    ),
    layer(
        "serve.cache.entries.unique",
        "count",
        Lower,
        "serve_unique/peak_rss_mb",
    ),
    // serve.scheduler
    layer(
        "serve.scheduler.mean_batch.repeat",
        "count",
        Higher,
        "serve_repeat/throughput_nodes_s",
    ),
    layer(
        "serve.scheduler.mean_batch.unique",
        "count",
        Higher,
        "serve_unique/throughput_nodes_s",
    ),
    layer(
        "serve.scheduler.dedup_share.repeat",
        "share",
        Higher,
        "serve_repeat/throughput_nodes_s",
    ),
    layer(
        "serve.scheduler.dedup_share.unique",
        "share",
        Higher,
        "serve_unique/throughput_nodes_s",
    ),
    layer(
        "serve.scheduler.batch_ms_p50.repeat",
        "ms",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.scheduler.batch_ms_p50.unique",
        "ms",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.scheduler.overhead_ms_p50",
        "ms",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.scheduler.rejected",
        "count",
        Lower,
        "serve_repeat/within_limit_share",
    ),
    layer(
        "serve.scheduler.failed",
        "count",
        Lower,
        "serve_repeat/within_limit_share",
    ),
    // serve.server
    layer(
        "serve.server.stage_parse_ms_p50.repeat",
        "ms",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.server.stage_parse_ms_p50.unique",
        "ms",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.server.stage_encode_ms_p50.unique",
        "ms",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.server.stage_plan_ms_p50.unique",
        "ms",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.server.stage_infer_ms_p50.repeat",
        "ms",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.server.stage_infer_ms_p50.unique",
        "ms",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.server.stage_respond_ms_p50.repeat",
        "ms",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.server.stage_respond_ms_p50.unique",
        "ms",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.server.request_ms_p50.repeat",
        "ms",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.server.request_ms_p50.unique",
        "ms",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.server.unattributed_share.repeat",
        "share",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.server.unattributed_share.unique",
        "share",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    // serve.wire / eventloop / client
    layer(
        "serve.wire.noop_rtt_us_p50",
        "us",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.wire.client_minus_server_ms_mean.repeat",
        "ms",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.wire.client_minus_server_ms_mean.unique",
        "ms",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.wire.request_bytes_mean.repeat",
        "B",
        Lower,
        "serve_repeat/latency_p50_ms",
    ),
    layer(
        "serve.wire.request_bytes_mean.unique",
        "B",
        Lower,
        "serve_unique/latency_p50_ms",
    ),
    layer(
        "serve.eventloop.wakeups_per_request.repeat",
        "count",
        Lower,
        "serve_repeat/throughput_nodes_s",
    ),
    layer(
        "serve.eventloop.wakeups_per_request.unique",
        "count",
        Lower,
        "serve_unique/throughput_nodes_s",
    ),
    layer(
        "serve.client.latency_tail_ms.repeat",
        "ms",
        Lower,
        "serve_repeat/within_limit_share",
    ),
    layer(
        "serve.client.latency_tail_ms.unique",
        "ms",
        Lower,
        "serve_unique/within_limit_share",
    ),
    // telemetry / process / run: measured on the traced workload itself
    layer("telemetry.trace_overhead_share", "share", Lower, "none"),
    layer("process.cpu_s_per_mnode", "s", Lower, "none"),
    layer(
        "process.involuntary_ctx_switches_per_op",
        "count",
        Lower,
        "none",
    ),
    layer("run.latency_p90_ms", "ms", Lower, "none"),
    layer("run.throughput_cv", "share", Lower, "none"),
];

/// The command `BENCHMARK.json` names: cargo builds the package (into
/// `CARGO_TARGET_DIR`, from the checkout's own sources) and runs it.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmarks/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the lists above so the manifest and
/// the binary cannot drift apart.
pub fn benchmark_json() -> String {
    let quote = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quote(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"benchmarks\"],");
    let _ = writeln!(out, "  \"run_seconds\": {},", crate::DEFAULT_SECONDS);
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Value printed for a per-layer metric whose source (a telemetry series,
/// usually) no longer exists: the run goes on, the reader is warned.
pub const ABSENT: f64 = -1.0;

/// What one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Output checks, `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Metric values by name.
    values: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-layer metrics that could not be measured, with the reason.
    absent: Vec<(&'static str, String)>,
    /// Free-form lines for the human reader (sample counts, percentiles).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric. The name must be one of [`END_TO_END`] or
    /// [`PER_LAYER`] — a typo is a bug in the benchmark, so it panics.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not defined in report.rs"));
        self.values.insert(name, (value, unit));
    }

    /// Marks a per-layer metric as not measurable this run.
    pub fn set_absent(&mut self, name: &str, reason: impl Into<String>) {
        self.set(name, ABSENT);
        let name = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| *n == name)
            .expect("absent metrics are per-layer metrics");
        self.absent.push((name, reason.into()));
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, passed, _)| *passed)
    }

    /// The metric names the final JSON line must carry for this mode.
    pub fn expected_names(trace: bool) -> Vec<&'static str> {
        if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The human-readable part: every metric by name with its unit, the
    /// operation counts and the verdict of every check.
    pub fn render_text(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        let _ = writeln!(
            out,
            "operations attempted {} succeeded {} failed {} correct {}",
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.correct()
        );
        for (name, (value, unit)) in &self.values {
            // A per-layer metric names the end-to-end pair it should move.
            match PER_LAYER.iter().find(|m| m.name == *name) {
                Some(m) if m.moves != "none" => {
                    let _ = writeln!(out, "metric {name} {value} {unit} -> {}", m.moves);
                }
                _ => {
                    let _ = writeln!(out, "metric {name} {value} {unit}");
                }
            }
        }
        for (name, reason) in &self.absent {
            let _ = writeln!(out, "absent {name}: {reason} (printed as {ABSENT})");
        }
        for (name, passed, detail) in &self.checks {
            let verdict = if *passed { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {name} {verdict} {detail}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {note}");
        }
        out
    }

    /// The final line: one JSON object with exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    ///
    /// # Panics
    ///
    /// Panics if a metric the mode requires was never recorded — the
    /// contract wants every one, every run.
    pub fn render_json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in Report::expected_names(trace).into_iter().enumerate() {
            let (value, unit) = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { ABSENT };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// Whether `name` is made of the characters the contract allows.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name `{name}`");
            assert!(seen.insert(name), "name `{name}` used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}`"
            );
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_layer_metric_points_at_a_defined_pair() {
        for m in PER_LAYER {
            if m.moves == "none" {
                continue;
            }
            let (workload, metric) = m.moves.split_once('/').expect("workload/metric");
            assert!(WORKLOADS.iter().any(|w| w.name == workload), "{}", m.name);
            assert!(END_TO_END.iter().any(|e| e.name == metric), "{}", m.name);
        }
    }

    fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
        object
            .as_object()
            .and_then(|o| o.get(key))
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
    }

    fn text(value: &Value) -> &str {
        match value {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = root
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let workloads: Vec<(String, String)> = field(&root, "workloads")
            .as_array()
            .expect("array")
            .iter()
            .map(|w| (text(field(w, "name")).into(), text(field(w, "why")).into()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let number = |v: &Value| match v {
            Value::Float(f) => *f,
            Value::UInt(u) => *u as f64,
            other => panic!("expected a number, got {other:?}"),
        };
        let end_to_end: Vec<(String, String, String, f64)> = field(&root, "end_to_end")
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).into(),
                    text(field(m, "unit")).into(),
                    text(field(m, "better")).into(),
                    number(field(m, "bound")),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.word().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, ours);

        let per_layer: Vec<(String, String, String)> = field(&root, "per_layer")
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).into(),
                    text(field(m, "unit")).into(),
                    text(field(m, "better")).into(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.word().into()))
            .collect();
        assert_eq!(per_layer, ours);

        let paths = field(&root, "paths").as_array().expect("array");
        assert_eq!(paths.len(), 1);
        assert_eq!(text(&paths[0]), "benchmarks");
        assert!(json.len() <= 64 * 1024);
    }

    #[test]
    fn json_line_carries_exactly_the_modes_metrics() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            report.set(m.name, 1.5 + i as f64);
        }
        report.check("finite", true, "");
        let line = report.render_json(false);
        let parsed: Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&String> = parsed.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = field(&parsed, "metrics").as_object().expect("object");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"correct\": true"));
        report.check("golden", false, "off by one");
        assert!(report.render_json(false).contains("\"correct\": false"));
        assert!(report.render_text("h").contains("check golden FAILED"));
    }
}
