//! Living documentation of the `deepgate-serve` wire protocol: starts the
//! server on an ephemeral port, talks to it over a plain TCP socket exactly
//! as any non-Rust client would, and prints every request/response pair.
//!
//! ```bash
//! cargo run --release --example serve_demo
//! ```
//!
//! The protocol is newline-delimited JSON — one object per line:
//!
//! - `{"id": …, "bench": "<BENCH text>"}` → `{"id": …, "probs": […]}`
//!   (`id` is echoed verbatim and may be any JSON value)
//! - `{"id": …, "aiger": "<AIGER-ASCII>"}` /
//!   `{"id": …, "aiger_b64": "<base64 .aag/.aig>", "latch": "cut" | "unroll:<k>"}`
//!   → `{"id": …, "probs": […]}` — AIGER ingestion; binary files travel
//!   base64-encoded, and sequential circuits pick a latch policy (default
//!   `cut`)
//! - `{"id": …, "op": "stats"}` → `{"id": …, "stats": {…}}`
//! - `{"id": …, "op": "metrics"}` → `{"id": …, "metrics": {"counters": {…},
//!   "gauges": {…}, "histograms": {…}}}` — one consistent telemetry
//!   snapshot: per-verb counters, per-stage latency histograms with
//!   p50/p90/p99, scheduler and cache series
//! - `{"id": …, "op": "metrics_text"}` → the same snapshot in Prometheus
//!   text exposition format
//! - `{"id": …, "op": "shutdown"}` → `{"id": …, "ok": true}`, then the
//!   server drains gracefully
//! - anything malformed → `{"id": …, "error": "…"}`

use deepgate::aig::aiger::{random_aig, write_aig};
use deepgate::prelude::*;
use deepgate_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A handful of circuits a client might ask about, in the BENCH interchange
/// format requests travel in.
const CIRCUITS: [(&str, &str); 3] = [
    (
        "full_adder",
        "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(sum)\nOUTPUT(cout)\n\
         x = XOR(a, b)\nsum = XOR(x, cin)\ng1 = AND(a, b)\ng2 = AND(x, cin)\ncout = OR(g1, g2)\n",
    ),
    (
        "mux2",
        "INPUT(s)\nINPUT(d0)\nINPUT(d1)\nOUTPUT(y)\n\
         ns = NOT(s)\na = AND(d0, ns)\nb = AND(d1, s)\ny = OR(a, b)\n",
    ),
    (
        "majority3",
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(m)\n\
         ab = AND(a, b)\nbc = AND(b, c)\nac = AND(a, c)\nm = OR(ab, bc, ac)\n",
    ),
];

fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &str,
) -> std::io::Result<String> {
    println!("→ {request}");
    writer.write_all(request.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut response = String::new();
    reader.read_line(&mut response)?;
    let response = response.trim_end().to_string();
    println!("← {response}\n");
    Ok(response)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small untrained model keeps the demo instant; swap in
    // `Engine::from_checkpoint_file("model.json")?` to serve real weights.
    let engine = Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 16,
            num_iterations: 3,
            regressor_hidden: 8,
            ..DeepGateConfig::default()
        })
        .build()?;

    // Every scheduler knob in one place; port 0 = ephemeral.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 256,
        workers: 2,
        cache_capacity: 32,
        // Zero threshold: every predict request logs one slow-request line
        // to stderr, naming its dominant stage — watch for them between the
        // request/response pairs below.
        slow_request_threshold: Some(Duration::ZERO),
        // Resilience defaults: no server-side deadline cap, stock connection
        // hygiene limits, no fault injection.
        ..ServeConfig::default()
    };
    let server = Server::start(engine, config)?;
    println!("deepgate-serve listening on {}\n", server.local_addr());

    let stream = TcpStream::connect(server.local_addr())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;

    // Predictions: one request per circuit, plus a repeat of the first to
    // show the structural cache (watch `cache.hits` in the stats below).
    for (index, (name, bench)) in CIRCUITS
        .iter()
        .enumerate()
        .chain(std::iter::once((CIRCUITS.len(), &CIRCUITS[0])))
    {
        let mut request = std::collections::BTreeMap::new();
        request.insert("id".to_string(), serde_json::Value::UInt(index as u64));
        request.insert("name".to_string(), serde_json::Value::Str(name.to_string()));
        request.insert(
            "bench".to_string(),
            serde_json::Value::Str(bench.to_string()),
        );
        let line = serde_json::to_string(&serde_json::Value::Object(request))?;
        let response = roundtrip(&mut reader, &mut writer, &line)?;
        assert!(
            response.contains("probs"),
            "expected predictions, got: {response}"
        );
    }

    // AIGER ingestion: a latch-bearing circuit as binary `.aig` bytes,
    // base64-encoded onto the wire, served under both latch policies. The
    // policy is part of the cache key — these are two distinct circuits.
    let sequential = random_aig(5, 3, 2, 12);
    let aig_bytes = write_aig(&sequential).expect("canonical AIG serialises");
    for (id, latch) in [("a-cut", "cut"), ("a-unroll", "unroll:2")] {
        let request = format!(
            r#"{{"id": "{id}", "name": "toggle", "aiger_b64": "{}", "latch": "{latch}"}}"#,
            deepgate_serve::b64::encode(&aig_bytes)
        );
        let response = roundtrip(&mut reader, &mut writer, &request)?;
        assert!(
            response.contains("probs"),
            "expected predictions, got: {response}"
        );
    }

    // The stats verb: scheduler, cache and connection counters.
    roundtrip(&mut reader, &mut writer, r#"{"id": "s", "op": "stats"}"#)?;

    // The metrics verb: the full telemetry snapshot. Print the per-stage
    // latency breakdown a monitoring agent would alert on.
    {
        println!("→ {{\"id\": \"m\", \"op\": \"metrics\"}}");
        writer.write_all(b"{\"id\": \"m\", \"op\": \"metrics\"}\n")?;
        writer.flush()?;
        let mut response = String::new();
        reader.read_line(&mut response)?;
        let parsed: serde_json::Value = serde_json::from_str(&response)?;
        let metrics = parsed
            .as_object()
            .and_then(|o| o.get("metrics"))
            .and_then(serde_json::Value::as_object)
            .expect("metrics response carries a `metrics` object");
        let histograms = metrics["histograms"]
            .as_object()
            .expect("histograms object");
        println!("← per-stage latency breakdown (from one snapshot):");
        for (name, histogram) in histograms {
            let Some(fields) = histogram.as_object() else {
                continue;
            };
            let uint = |key: &str| match fields.get(key) {
                Some(serde_json::Value::UInt(v)) => *v,
                _ => 0,
            };
            if name.starts_with("stage_") || name == "request_latency_ns" {
                println!(
                    "    {name:<22} count {:>3}  p50 {:>9} ns  p99 {:>9} ns  max {:>9} ns",
                    uint("count"),
                    uint("p50"),
                    uint("p99"),
                    uint("max"),
                );
            }
        }
        let counters = metrics["counters"].as_object().expect("counters object");
        let counter = |name: &str| match counters.get(name) {
            Some(serde_json::Value::UInt(v)) => *v,
            _ => 0,
        };
        let predicts = counter("requests_predict_total");
        println!(
            "    predicts {predicts}, cache {} hits / {} misses, slow-logged {}\n",
            counter("cache_text_hits_total") + counter("cache_fingerprint_hits_total"),
            counter("cache_misses_total"),
            counter("slow_requests_total"),
        );
        // The demo sent 6 predicts; the telemetry must account for all of
        // them, in every series that records once per predict.
        assert_eq!(predicts, 6, "six predict requests were sent");
        assert_eq!(counter("slow_requests_total"), predicts);
        let latency = histograms["request_latency_ns"]
            .as_object()
            .expect("request_latency_ns object");
        assert!(
            matches!(latency.get("count"), Some(serde_json::Value::UInt(n)) if *n == predicts),
            "request_latency_ns must record once per predict"
        );
    }

    // The same snapshot as Prometheus text exposition, for scrape-based
    // monitoring. Two lines are plenty to show the shape.
    {
        println!("→ {{\"id\": \"t\", \"op\": \"metrics_text\"}}");
        writer.write_all(b"{\"id\": \"t\", \"op\": \"metrics_text\"}\n")?;
        writer.flush()?;
        let mut response = String::new();
        reader.read_line(&mut response)?;
        let parsed: serde_json::Value = serde_json::from_str(&response)?;
        let text = parsed
            .as_object()
            .and_then(|o| o.get("metrics_text"))
            .and_then(|v| match v {
                serde_json::Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .expect("metrics_text response carries text");
        assert!(text.contains("deepgate_requests_predict_total 6"));
        let shown: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("requests_predict_total") || l.contains("latency_ns_count"))
            .collect();
        println!(
            "← {} lines of Prometheus exposition, e.g.:",
            text.lines().count()
        );
        for line in shown {
            println!("    {line}");
        }
        println!();
    }

    // Graceful shutdown: the verb is acknowledged, then the server drains.
    roundtrip(&mut reader, &mut writer, r#"{"id": "q", "op": "shutdown"}"#)?;
    server.wait();
    println!("server drained cleanly");
    Ok(())
}
