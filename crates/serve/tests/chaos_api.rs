//! Chaos tests: a deterministic [`FaultPlan`] drives failures through every
//! stage of the serving path — parse, encode, plan, infer, respond — and the
//! server must keep its invariants: every request gets exactly one terminal
//! response, the scheduler keeps draining after worker panics, expired
//! requests are shed with matching telemetry, and registry snapshots stay
//! internally consistent.

use deepgate::core::DeepGateConfig;
use deepgate::prelude::*;
use deepgate::telemetry::Stage;
use deepgate_serve::fault::{FaultKind, FaultPlan};
use deepgate_serve::{ServeConfig, Server};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Once};
use std::time::Duration;

/// Injected panics unwind through real recovery paths; without a filter the
/// default hook spams the test log with expected backtraces. Keep everything
/// else (real bugs must stay loud).
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !message.contains("injected fault") {
                previous(info);
            }
        }));
    });
}

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

/// A BENCH netlist of `n` chained NOT gates — distinct `n` gives distinct
/// structure, so every circuit is a fresh cache miss.
fn chain_bench(n: usize) -> String {
    let mut bench = String::from("INPUT(a)\nOUTPUT(y)\nw0 = NOT(a)\n");
    for i in 1..n {
        bench.push_str(&format!("w{i} = NOT(w{})\n", i - 1));
    }
    bench.push_str(&format!("y = NOT(w{})\n", n - 1));
    bench
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

    fn predict(&mut self, id: u64, bench: &str) -> Value {
        let request = serde_json::to_string(&Value::Object(
            [
                ("id".to_string(), Value::UInt(id)),
                ("bench".to_string(), Value::Str(bench.to_string())),
            ]
            .into_iter()
            .collect(),
        ))
        .expect("request serialises");
        self.roundtrip(&request)
    }

    fn predict_with_deadline(&mut self, id: u64, bench: &str, deadline_ms: u64) -> Value {
        let request = serde_json::to_string(&Value::Object(
            [
                ("id".to_string(), Value::UInt(id)),
                ("bench".to_string(), Value::Str(bench.to_string())),
                ("deadline_ms".to_string(), Value::UInt(deadline_ms)),
            ]
            .into_iter()
            .collect(),
        ))
        .expect("request serialises");
        self.roundtrip(&request)
    }
}

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|o| o.get(name))
        .unwrap_or_else(|| panic!("response lacks `{name}`: {value:?}"))
}

fn uint(value: &Value) -> u64 {
    match value {
        Value::UInt(n) => *n,
        other => panic!("expected unsigned integer, got {other:?}"),
    }
}

fn error_of(response: &Value) -> &str {
    match field(response, "error") {
        Value::Str(message) => message,
        other => panic!("error is not a string: {other:?}"),
    }
}

/// Every histogram in a `metrics` snapshot must be internally consistent:
/// its per-bucket counts sum to its total count. A panic that corrupted a
/// histogram mid-record would break this.
fn assert_bucket_sums_consistent(metrics: &Value) {
    let histograms = field(metrics, "histograms")
        .as_object()
        .expect("histograms object");
    assert!(!histograms.is_empty(), "snapshot has histograms");
    for (name, histogram) in histograms {
        let count = uint(field(histogram, "count"));
        let bucket_sum: u64 = field(histogram, "buckets")
            .as_array()
            .expect("buckets array")
            .iter()
            .map(|bucket| {
                let pair = bucket.as_array().expect("bucket is [le, count]");
                uint(&pair[1])
            })
            .sum();
        assert_eq!(
            bucket_sum, count,
            "histogram `{name}`: bucket counts sum to {bucket_sum} but count is {count}"
        );
    }
}

/// The scripted chaos run: a seeded plan fires a known fault at a known
/// request in every stage, and each fault lands as exactly one error
/// response on the right request while the server keeps serving.
#[test]
fn scripted_faults_in_every_stage_each_cost_exactly_one_response() {
    silence_injected_panics();
    // Full-rate limited rules fire on exactly the first N checks of their
    // stage, in insertion order — the request schedule below is exact.
    let plan = Arc::new(
        FaultPlan::seeded(2026)
            .inject_limited(Stage::Parse, FaultKind::IoError, 1.0, 2)
            .inject_limited(Stage::Parse, FaultKind::Panic, 1.0, 2)
            .inject_limited(Stage::Encode, FaultKind::IoError, 1.0, 2)
            .inject_limited(Stage::Plan, FaultKind::Panic, 1.0, 2)
            .inject_limited(Stage::Infer, FaultKind::Panic, 1.0, 3)
            .inject_limited(
                Stage::Respond,
                FaultKind::Delay(Duration::from_millis(5)),
                1.0,
                2,
            ),
    );
    let server = Server::start(
        quick_engine(),
        ServeConfig {
            workers: 1,
            faults: Some(Arc::clone(&plan)),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(&server);

    // Sixteen structurally distinct circuits walk the plan through its
    // stages: requests 0-1 die at parse (I/O), 2-3 at parse (panic), 4-5 at
    // encode (I/O), 6-7 at plan (panic), 8-10 at infer (worker panic), and
    // 11-15 must succeed — the budgets are spent.
    let benches: Vec<String> = (0..16).map(|i| chain_bench(4 + i)).collect();
    for (i, bench) in benches.iter().enumerate() {
        let response = client.predict(i as u64, bench);
        let want: &[&str] = match i {
            0 | 1 => &["io-error at stage parse"],
            2 | 3 => &["request handling panicked", "panic at stage parse"],
            4 | 5 => &["io-error at stage encode"],
            6 | 7 => &["request handling panicked", "panic at stage plan"],
            8..=10 => &["worker panicked", "panic at stage infer"],
            _ => &[],
        };
        if want.is_empty() {
            assert!(
                field(&response, "probs").as_array().is_some(),
                "request {i} must succeed once budgets are spent: {response:?}"
            );
        } else {
            let error = error_of(&response);
            for needle in want {
                assert!(
                    error.contains(needle),
                    "request {i}: error `{error}` should mention `{needle}`"
                );
            }
        }
    }
    assert!(plan.exhausted(), "all limited budgets spent");
    assert_eq!(plan.fired(), 13, "2+2+2+2+3 faults plus 2 respond delays");
    for (stage, fired) in [
        (Stage::Parse, 4),
        (Stage::Encode, 2),
        (Stage::Plan, 2),
        (Stage::Infer, 3),
        (Stage::Respond, 2),
    ] {
        assert_eq!(plan.fired_at(stage), fired, "fired at {}", stage.name());
    }

    // The already-cached circuits, resubmitted with an impossible budget:
    // each is accepted, shed when popped, and answered with
    // `DeadlineExceeded` — never silently dropped.
    for i in 0..4u64 {
        let response = client.predict_with_deadline(100 + i, &benches[11 + i as usize], 0);
        assert!(
            error_of(&response).contains("deadline exceeded"),
            "expired request {i} must be shed: {response:?}"
        );
    }

    // One snapshot ties the whole run together. The faulted stages happened
    // before scheduler submission except infer, so: 8 submissions from the
    // fault phase (3 failed by worker panics, 5 completed) plus 4 shed.
    let stats = field(&client.roundtrip(r#"{"op": "stats"}"#), "stats").clone();
    let scheduler = field(&stats, "scheduler");
    assert_eq!(uint(field(scheduler, "submitted")), 12);
    assert_eq!(uint(field(scheduler, "completed")), 5);
    assert_eq!(uint(field(scheduler, "failed")), 3);
    assert_eq!(uint(field(scheduler, "deadline_shed")), 4);
    assert_eq!(uint(field(scheduler, "worker_panics_recovered")), 3);
    assert_eq!(uint(field(scheduler, "worker_respawns")), 0);
    assert_eq!(uint(field(&stats, "request_panics_recovered")), 4);
    // One infer-hook check per live job: the 8 fault-phase submissions;
    // the shed jobs never reach it.
    assert_eq!(plan.checks_at(Stage::Infer), 8);

    // The same identities on the metrics surface, and every histogram's
    // buckets must still sum to its count after panics tore through the
    // recording paths.
    let metrics = field(&client.roundtrip(r#"{"op": "metrics"}"#), "metrics").clone();
    let counters = field(&metrics, "counters");
    assert_eq!(uint(field(counters, "scheduler_deadline_shed_total")), 4);
    assert_eq!(uint(field(counters, "worker_panics_recovered_total")), 3);
    assert_eq!(uint(field(counters, "request_panics_recovered_total")), 4);
    assert_bucket_sums_consistent(&metrics);

    // The scheduler drains cleanly after three worker panics: shutdown
    // returns instead of hanging on a dead or wedged worker.
    drop(client);
    server.shutdown();
}

/// The unscripted soak: fractional rates fire pseudo-randomly (but
/// reproducibly) across all stages while a client pipelines mixed traffic.
/// The server must answer every request exactly once and its accounting
/// identity must hold at quiescence.
#[test]
fn random_rate_chaos_answers_every_request_exactly_once() {
    silence_injected_panics();
    let plan = Arc::new(
        FaultPlan::seeded(7)
            .inject(Stage::Parse, FaultKind::IoError, 0.05)
            .inject(Stage::Parse, FaultKind::Panic, 0.05)
            .inject(Stage::Encode, FaultKind::IoError, 0.2)
            .inject(Stage::Plan, FaultKind::Panic, 0.2)
            .inject(Stage::Infer, FaultKind::Panic, 0.15)
            .inject(
                Stage::Respond,
                FaultKind::Delay(Duration::from_millis(1)),
                0.1,
            ),
    );
    let server = Server::start(
        quick_engine(),
        ServeConfig {
            workers: 2,
            faults: Some(Arc::clone(&plan)),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(&server);

    let mut outcomes = (0usize, 0usize); // (successes, errors)
    for i in 0..60u64 {
        // A mix of fresh structures, repeats (cache hits) and impossible
        // deadlines, so every code path sees faults.
        let bench = chain_bench(3 + (i as usize % 11));
        let response = if i % 7 == 3 {
            client.predict_with_deadline(i, &bench, 0)
        } else {
            client.predict(i, &bench)
        };
        // Exactly one terminal response per request: either probabilities
        // or an error — and when the response carries an id (faults before
        // parsing complete lose it), it is this request's id.
        let object = response.as_object().expect("response is an object");
        let succeeded = object.contains_key("probs");
        assert!(
            succeeded != object.contains_key("error"),
            "response must be exactly one of probs/error: {response:?}"
        );
        if let Some(id) = object.get("id") {
            assert_eq!(uint(id), i, "response id matches the request");
        }
        if succeeded {
            outcomes.0 += 1;
        } else {
            outcomes.1 += 1;
        }
    }
    assert!(outcomes.0 > 0, "some requests succeed under chaos");
    assert!(outcomes.1 > 0, "seed 7 injects at least one fault in 60");
    assert!(plan.fired() > 0, "the plan actually fired");

    // Quiescent accounting: everything submitted was answered one way.
    let stats = field(&client.roundtrip(r#"{"op": "stats"}"#), "stats").clone();
    let scheduler = field(&stats, "scheduler");
    let submitted = uint(field(scheduler, "submitted"));
    let answered = uint(field(scheduler, "completed"))
        + uint(field(scheduler, "failed"))
        + uint(field(scheduler, "deadline_shed"));
    assert_eq!(
        submitted, answered,
        "submitted == completed + failed + deadline_shed at quiescence"
    );
    // One job per infer-hook check: every job that was not shed checks the
    // hook once, and each injected panic fails exactly its own job (the
    // plan injects no other infer fault, and every circuit is valid).
    let shed = uint(field(scheduler, "deadline_shed"));
    assert_eq!(plan.checks_at(Stage::Infer), submitted - shed);
    let panics = uint(field(scheduler, "worker_panics_recovered"));
    assert_eq!(panics, plan.fired_at(Stage::Infer));
    assert_eq!(uint(field(scheduler, "failed")), panics);
    let metrics = field(&client.roundtrip(r#"{"op": "metrics"}"#), "metrics").clone();
    assert_bucket_sums_consistent(&metrics);

    drop(client);
    server.shutdown();
}
