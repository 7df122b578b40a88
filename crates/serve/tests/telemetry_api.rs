//! Integration tests of the telemetry surface: the `metrics` /
//! `metrics_text` wire verbs, consistency of the counters and histograms
//! under concurrent load, and the slow-request log counter.

use deepgate::core::DeepGateConfig;
use deepgate::prelude::*;
use deepgate_serve::{ServeConfig, Server};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const FULL_ADDER: &str = "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(sum)\nOUTPUT(cout)\nx = XOR(a, b)\nsum = XOR(x, cin)\ng1 = AND(a, b)\ng2 = AND(x, cin)\ncout = OR(g1, g2)\n";

fn quick_engine() -> Engine {
    Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 8,
            num_iterations: 2,
            regressor_hidden: 4,
            ..DeepGateConfig::default()
        })
        .build()
        .expect("valid configuration")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("server is listening");
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn roundtrip(&mut self, request: &str) -> Value {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("request written");
        self.writer.flush().expect("request flushed");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response arrives");
        serde_json::from_str(&line).expect("response is JSON")
    }

    /// Scrapes the `metrics` verb and returns the metrics object.
    fn scrape(&mut self) -> Value {
        let response = self.roundtrip(r#"{"id": "m", "op": "metrics"}"#);
        response
            .as_object()
            .and_then(|o| o.get("metrics"))
            .cloned()
            .expect("metrics response carries a `metrics` object")
    }
}

/// A distinct `width`-input AND-tree circuit per width, so the hammer
/// traffic exercises cache hits and concurrent workers on several circuits
/// at once. Distinct input counts guarantee distinct structural fingerprints —
/// the AIG transform simplifies away repeated-literal and inverter-chain
/// tricks, so gate-level variations of the same inputs can collapse.
fn chain_bench(width: usize) -> String {
    let mut bench = String::new();
    for i in 0..width {
        bench.push_str(&format!("INPUT(x{i})\n"));
    }
    bench.push_str("OUTPUT(y)\nw1 = AND(x0, x1)\n");
    for i in 2..width {
        bench.push_str(&format!("w{i} = AND(w{}, x{i})\n", i - 1));
    }
    bench.push_str(&format!("y = NOT(w{})\n", width - 1));
    bench
}

fn counter(metrics: &Value, name: &str) -> u64 {
    let counters = metrics.as_object().expect("metrics object")["counters"]
        .as_object()
        .expect("counters object");
    match counters.get(name) {
        Some(Value::UInt(v)) => *v,
        None => 0,
        other => panic!("counter `{name}` is not an unsigned integer: {other:?}"),
    }
}

fn histogram<'a>(metrics: &'a Value, name: &str) -> &'a std::collections::BTreeMap<String, Value> {
    metrics.as_object().expect("metrics object")["histograms"]
        .as_object()
        .expect("histograms object")[name]
        .as_object()
        .unwrap_or_else(|| panic!("histogram `{name}` missing"))
}

fn uint(fields: &std::collections::BTreeMap<String, Value>, key: &str) -> u64 {
    match &fields[key] {
        Value::UInt(v) => *v,
        other => panic!("`{key}` is not an unsigned integer: {other:?}"),
    }
}

/// Asserts the invariants every histogram must satisfy within ONE snapshot:
/// the bucket counts sum to `count`, and the percentiles are monotone up to
/// the exact maximum.
fn assert_histogram_consistent(metrics: &Value, name: &str) {
    let h = histogram(metrics, name);
    let count = uint(h, "count");
    let bucket_total: u64 = h["buckets"]
        .as_array()
        .expect("buckets array")
        .iter()
        .map(|pair| {
            let pair = pair.as_array().expect("bucket pair");
            match &pair[1] {
                Value::UInt(n) => *n,
                other => panic!("bucket count is not an unsigned integer: {other:?}"),
            }
        })
        .sum();
    assert_eq!(
        bucket_total, count,
        "`{name}`: bucket counts must sum to the snapshot count"
    );
    let (p50, p90, p99, max) = (
        uint(h, "p50"),
        uint(h, "p90"),
        uint(h, "p99"),
        uint(h, "max"),
    );
    assert!(
        p50 <= p90 && p90 <= p99 && p99 <= max,
        "`{name}`: percentiles must be monotone, got p50={p50} p90={p90} p99={p99} max={max}"
    );
}

#[test]
fn hammer_metrics_stay_consistent_under_concurrent_load() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 12;
    let server = Server::start(
        quick_engine(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connects");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                for r in 0..REQUESTS_PER_CLIENT {
                    // Three distinct circuits cycled across all clients:
                    // plenty of cache hits, and concurrent jobs sharing one
                    // cached circuit.
                    let bench = chain_bench(2 + (c + r) % 3);
                    let request = serde_json::to_string(&Value::Object(
                        [
                            ("id".to_string(), Value::UInt(r as u64)),
                            ("bench".to_string(), Value::Str(bench)),
                        ]
                        .into_iter()
                        .collect(),
                    ))
                    .expect("request serialises");
                    writer
                        .write_all(format!("{request}\n").as_bytes())
                        .expect("request written");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("response arrives");
                    let response: Value = serde_json::from_str(&line).expect("JSON response");
                    assert!(
                        response
                            .as_object()
                            .is_some_and(|o| o.contains_key("probs")),
                        "predict failed mid-hammer: {line}"
                    );
                }
            })
        })
        .collect();

    // Scrape while the hammer runs: every snapshot must be internally
    // consistent, and counters must be monotone across snapshots.
    let mut observer = Client::connect(&server);
    let mut last_predicts = 0u64;
    for _ in 0..5 {
        let metrics = observer.scrape();
        for name in [
            "request_latency_ns",
            "scheduler_queue_wait_ns",
            "stage_infer_ns",
        ] {
            assert_histogram_consistent(&metrics, name);
        }
        let predicts = counter(&metrics, "requests_predict_total");
        assert!(
            predicts >= last_predicts,
            "counter went backwards: {last_predicts} -> {predicts}"
        );
        last_predicts = predicts;
        std::thread::sleep(Duration::from_millis(2));
    }

    for client in clients {
        client.join().expect("client thread panicked");
    }

    // Quiescent: exact accounting. Every series below comes from ONE
    // `metrics` response.
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    let metrics = observer.scrape();

    assert_eq!(counter(&metrics, "requests_predict_total"), total);
    assert_eq!(counter(&metrics, "scheduler_submitted_total"), total);
    assert_eq!(counter(&metrics, "scheduler_completed_total"), total);
    assert_eq!(counter(&metrics, "scheduler_failed_total"), 0);
    assert_eq!(counter(&metrics, "request_errors_total"), 0);

    // The resilience series are on the surface from the first scrape, and a
    // healthy, deadline-free run trips none of them.
    let counters = metrics.as_object().expect("metrics object")["counters"]
        .as_object()
        .expect("counters object");
    for name in [
        "scheduler_deadline_shed_total",
        "worker_panics_recovered_total",
        "worker_respawns_total",
        "request_panics_recovered_total",
        "connections_reaped_total",
        "connections_rejected_total",
        "write_timeouts_total",
    ] {
        assert_eq!(
            counters.get(name),
            Some(&Value::UInt(0)),
            "`{name}` must exist and be zero in a fault-free run"
        );
    }

    // The request-latency histogram counts exactly the predict requests,
    // and every stage that runs on every predict matches it.
    for name in [
        "request_latency_ns",
        "stage_parse_ns",
        "stage_infer_ns",
        "stage_respond_ns",
    ] {
        assert_histogram_consistent(&metrics, name);
        assert_eq!(
            uint(histogram(&metrics, name), "count"),
            total,
            "`{name}` must record once per predict request"
        );
    }

    // Cache accounting: every predict resolves through exactly one of the
    // three outcomes, and the stage histograms agree — `Encode` runs unless
    // the text memo hit, `Plan` only on a full miss.
    let text_hits = counter(&metrics, "cache_text_hits_total");
    let fingerprint_hits = counter(&metrics, "cache_fingerprint_hits_total");
    let misses = counter(&metrics, "cache_misses_total");
    assert_eq!(text_hits + fingerprint_hits + misses, total);
    // At least one miss per distinct circuit; concurrent first requests of
    // the same circuit may each count a legitimate miss before the first
    // insert lands.
    assert!(
        (3..=total).contains(&misses),
        "three distinct circuits were served, got {misses} misses"
    );
    assert_eq!(
        uint(histogram(&metrics, "stage_encode_ns"), "count"),
        fingerprint_hits + misses
    );
    assert_eq!(uint(histogram(&metrics, "stage_plan_ns"), "count"), misses);

    // Per-job accounting: every job popped records one queue wait, and
    // with nothing shed or rejected every submitted job is popped.
    assert_histogram_consistent(&metrics, "scheduler_queue_wait_ns");
    assert_eq!(
        uint(histogram(&metrics, "scheduler_queue_wait_ns"), "count"),
        total
    );

    // Plans are built on cache misses only — a job runs the plan its
    // circuit was cached with — and the kernel runs once per live job,
    // repeats of one cached circuit included.
    assert_eq!(uint(histogram(&metrics, "engine_plan_ns"), "count"), misses);
    assert_eq!(
        uint(histogram(&metrics, "gnn_circuit_nodes"), "count"),
        counter(&metrics, "scheduler_completed_total")
    );
    assert_eq!(
        uint(histogram(&metrics, "engine_predict_ns"), "count"),
        total
    );

    // The kernel recorded each CSR level's width along the way.
    assert!(
        uint(histogram(&metrics, "gnn_csr_level_width"), "count") > 0,
        "gnn_csr_level_width must record per processed level"
    );
    assert_histogram_consistent(&metrics, "gnn_csr_level_width");

    // Nothing is queued once the hammer has drained.
    let gauges = metrics.as_object().expect("metrics object")["gauges"]
        .as_object()
        .expect("gauges object");
    assert_eq!(gauges["queue_depth"], Value::UInt(0));
    assert!(counter(&metrics, "connections_accepted_total") >= (CLIENTS + 1) as u64);

    // The direct API view agrees with the wire view at quiescence.
    let snapshot = server.metrics().snapshot();
    assert_eq!(snapshot.counter("requests_predict_total"), total);
    assert_eq!(snapshot.counter("scheduler_completed_total"), total);
    server.shutdown();
}

#[test]
fn metrics_text_verb_renders_prometheus_exposition() {
    let server = Server::start(quick_engine(), ServeConfig::default()).expect("server binds");
    let mut client = Client::connect(&server);
    let request = serde_json::to_string(&Value::Object(
        [
            ("id".to_string(), Value::UInt(1)),
            ("bench".to_string(), Value::Str(FULL_ADDER.to_string())),
        ]
        .into_iter()
        .collect(),
    ))
    .expect("request serialises");
    client.roundtrip(&request);

    let response = client.roundtrip(r#"{"id": 2, "op": "metrics_text"}"#);
    let Some(Value::Str(text)) = response.as_object().and_then(|o| o.get("metrics_text")) else {
        panic!("expected a `metrics_text` string, got {response:?}");
    };
    assert!(text.contains("# TYPE deepgate_requests_predict_total counter"));
    assert!(text.contains("deepgate_requests_predict_total 1"));
    assert!(text.contains("# TYPE deepgate_request_latency_ns histogram"));
    assert!(text.contains("deepgate_request_latency_ns_count 1"));
    assert!(text.contains("deepgate_request_latency_ns_bucket{le=\"+Inf\"} 1"));
    assert!(text.contains("# TYPE deepgate_queue_depth gauge"));
    assert!(text.contains("deepgate_scheduler_queue_wait_ns_count 1"));
    assert!(text.contains("deepgate_gnn_levels_total"));
    server.shutdown();
}

#[test]
fn zero_slow_threshold_counts_every_predict() {
    let server = Server::start(
        quick_engine(),
        ServeConfig {
            slow_request_threshold: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let mut client = Client::connect(&server);
    let request = serde_json::to_string(&Value::Object(
        [("bench".to_string(), Value::Str(FULL_ADDER.to_string()))]
            .into_iter()
            .collect(),
    ))
    .expect("request serialises");
    for _ in 0..3 {
        client.roundtrip(&request);
    }
    // Non-predict verbs never hit the slow log.
    client.roundtrip(r#"{"op": "stats"}"#);
    let metrics = client.scrape();
    assert_eq!(counter(&metrics, "slow_requests_total"), 3);
    server.shutdown();
}

#[test]
fn per_verb_counters_split_the_traffic() {
    let server = Server::start(quick_engine(), ServeConfig::default()).expect("server binds");
    let mut client = Client::connect(&server);
    client.roundtrip(r#"{"op": "stats"}"#);
    client.roundtrip(r#"{"op": "metrics_text"}"#);
    client.roundtrip(r#"{"op": "frobnicate"}"#);
    client.roundtrip("not json at all");
    let metrics = client.scrape();
    assert_eq!(counter(&metrics, "requests_stats_total"), 1);
    assert_eq!(counter(&metrics, "requests_metrics_text_total"), 1);
    assert_eq!(counter(&metrics, "requests_metrics_total"), 1);
    assert_eq!(counter(&metrics, "requests_unknown_total"), 2);
    assert_eq!(counter(&metrics, "request_errors_total"), 2);
    assert_eq!(counter(&metrics, "requests_predict_total"), 0);
    // No predicts: the stage histograms stay empty.
    assert_eq!(uint(histogram(&metrics, "request_latency_ns"), "count"), 0);
    server.shutdown();
}
