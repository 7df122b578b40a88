//! Integration tests of the TCP front end: wire protocol round trips,
//! caching across requests, error reporting and graceful shutdown.

use deepgate::core::DeepGateConfig;
use deepgate::prelude::*;
use deepgate::telemetry::Stage;
use deepgate_serve::{FaultKind, FaultPlan, ServeConfig, Server};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
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

fn start_server(config: ServeConfig) -> Server {
    Server::start(quick_engine(), config).expect("server binds an ephemeral port")
}

/// A line-oriented test client.
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
}

fn request_of(pairs: &[(&str, Value)]) -> String {
    serde_json::to_string(&Value::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    ))
    .expect("request serialises")
}

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|o| o.get(name))
        .unwrap_or_else(|| panic!("response lacks `{name}`: {value:?}"))
}

fn probs_of(value: &Value) -> Vec<f32> {
    field(value, "probs")
        .as_array()
        .expect("probs is an array")
        .iter()
        .map(|v| match v {
            Value::Float(f) => *f as f32,
            Value::UInt(u) => *u as f32,
            other => panic!("non-numeric probability {other:?}"),
        })
        .collect()
}

#[test]
fn predict_roundtrips_and_matches_local_inference() {
    let engine = quick_engine();
    let expected = {
        let circuits = engine
            .prepare_unlabelled(&BenchText::new("full_adder", FULL_ADDER))
            .expect("bench parses");
        engine.session().predict(&circuits[0]).expect("predicts")
    };

    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);
    let request = serde_json::to_string(&Value::Object(
        [
            ("id".to_string(), Value::UInt(7)),
            ("bench".to_string(), Value::Str(FULL_ADDER.to_string())),
        ]
        .into_iter()
        .collect(),
    ))
    .expect("request serialises");
    let response = client.roundtrip(&request);
    assert_eq!(field(&response, "id"), &Value::UInt(7));
    let probs = probs_of(&response);
    assert_eq!(probs.len(), expected.len());
    for (got, want) in probs.iter().zip(&expected) {
        assert_eq!(got, want, "server prediction must match local inference");
    }

    // The same circuit again: served from the structural cache.
    let response = client.roundtrip(&request);
    assert_eq!(probs_of(&response), probs);
    let snapshot = server.metrics().snapshot();
    assert_eq!(snapshot.counter("cache_text_hits_total"), 1);
    assert_eq!(snapshot.counter("cache_misses_total"), 1);
    assert_eq!(snapshot.counter("scheduler_completed_total"), 2);
    server.shutdown();
}

#[test]
fn structurally_identical_texts_share_one_cache_entry() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);
    let commented = format!("# same circuit, different text\n{FULL_ADDER}");
    for text in [FULL_ADDER, &commented] {
        let request = serde_json::to_string(&Value::Object(
            [
                ("id".to_string(), Value::UInt(1)),
                ("bench".to_string(), Value::Str(text.to_string())),
            ]
            .into_iter()
            .collect(),
        ))
        .expect("request serialises");
        let response = client.roundtrip(&request);
        assert!(field(&response, "probs").as_array().is_some());
    }
    let snapshot = server.metrics().snapshot();
    // Text differs, structure does not: the fingerprint level hits, so one
    // prepared entry serves both requests.
    assert_eq!(snapshot.gauge("cache_entries"), 1);
    assert_eq!(snapshot.counter("cache_fingerprint_hits_total"), 1);
    assert_eq!(snapshot.counter("cache_misses_total"), 1);
    server.shutdown();
}

#[test]
fn malformed_and_invalid_requests_get_error_responses() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);

    let response = client.roundtrip("this is not json");
    assert!(matches!(field(&response, "error"), Value::Str(_)));

    let response = client.roundtrip(r#"{"id": 1}"#);
    assert!(matches!(field(&response, "error"), Value::Str(_)));
    assert_eq!(field(&response, "id"), &Value::UInt(1));

    let response = client.roundtrip(r#"{"id": 2, "bench": "y = AND(a, b)\n"}"#);
    let Value::Str(message) = field(&response, "error") else {
        panic!("expected error string");
    };
    assert!(message.contains("bad request"), "got: {message}");

    let response = client.roundtrip(r#"{"id": 3, "op": "frobnicate"}"#);
    assert!(matches!(field(&response, "error"), Value::Str(_)));

    // A megabyte of `[` is well inside `max_request_bytes`; a parser that
    // recursed once per bracket would take the event-loop thread's stack,
    // and with it the process, before any verb was read.
    let response = client.roundtrip(&"[".repeat(1 << 20));
    let Value::Str(message) = field(&response, "error") else {
        panic!("expected error string");
    };
    assert!(message.contains("nesting"), "got: {message}");

    // The connection — and so the server — survives all of that.
    let response = client.roundtrip(r#"{"id": 4, "op": "stats"}"#);
    assert!(field(&response, "stats").as_object().is_some());
    server.shutdown();
}

#[test]
fn stats_verb_reports_counters() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);
    let request = format!(
        r#"{{"id": "s1", "bench": {}}}"#,
        serde_json::to_string(&FULL_ADDER.to_string()).expect("string serialises")
    );
    client.roundtrip(&request);
    let response = client.roundtrip(r#"{"id": "s2", "op": "stats"}"#);
    let stats = field(&response, "stats");
    let scheduler = field(stats, "scheduler");
    assert_eq!(field(scheduler, "completed"), &Value::UInt(1));
    assert_eq!(field(stats, "connections"), &Value::UInt(1));
    server.shutdown();
}

/// The `stats` wire format, pinned: every key path of a fresh server's
/// response, nested objects included.
#[test]
fn stats_response_key_set_is_pinned() {
    fn paths(prefix: &str, value: &Value, out: &mut Vec<String>) {
        for (key, inner) in value.as_object().into_iter().flatten() {
            let path = format!("{prefix}{key}");
            paths(&format!("{path}."), inner, out);
            out.push(path);
        }
    }
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);
    let response = client.roundtrip(r#"{"id": 1, "op": "stats"}"#);
    let mut keys = Vec::new();
    paths("", &response, &mut keys);
    keys.sort();
    assert_eq!(
        keys,
        [
            "id",
            "stats",
            "stats.cache",
            "stats.cache.capacity",
            "stats.cache.entries",
            "stats.cache.fingerprint_hits",
            "stats.cache.hits",
            "stats.cache.misses",
            "stats.cache.text_hits",
            "stats.connections",
            "stats.connections_reaped",
            "stats.connections_rejected",
            "stats.request_panics_recovered",
            "stats.scheduler",
            "stats.scheduler.completed",
            "stats.scheduler.deadline_shed",
            "stats.scheduler.failed",
            "stats.scheduler.rejected_overloaded",
            "stats.scheduler.rejected_shutdown",
            "stats.scheduler.submitted",
            "stats.scheduler.worker_panics_recovered",
            "stats.scheduler.worker_respawns",
            "stats.write_timeouts",
        ]
    );
    server.shutdown();
}

/// The `stats` wire values, pinned: a fresh server's response byte for
/// byte, and — after a miss, a text hit and a fingerprint hit — every leaf
/// equal to its series in one registry snapshot.
#[test]
fn stats_response_values_are_pinned() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);
    client
        .writer
        .write_all(b"{\"id\": 1, \"op\": \"stats\"}\n")
        .expect("request written");
    let mut line = String::new();
    client
        .reader
        .read_line(&mut line)
        .expect("response arrives");
    assert_eq!(
        line,
        concat!(
            r#"{"id":1,"stats":{"cache":{"capacity":256,"entries":0,"fingerprint_hits":0,"#,
            r#""hits":0,"misses":0,"text_hits":0},"connections":1,"connections_reaped":0,"#,
            r#""connections_rejected":0,"request_panics_recovered":0,"scheduler":{"#,
            r#""completed":0,"deadline_shed":0,"failed":0,"rejected_overloaded":0,"#,
            r#""rejected_shutdown":0,"submitted":0,"worker_panics_recovered":0,"#,
            r#""worker_respawns":0},"write_timeouts":0}}"#,
            "\n"
        )
    );

    // A miss, a byte-identical repeat and a reformatted copy.
    let commented = format!("# reformatted\n{FULL_ADDER}");
    for text in [FULL_ADDER, FULL_ADDER, &commented] {
        let request = request_of(&[("bench", Value::Str(text.to_string()))]);
        assert!(field(&client.roundtrip(&request), "probs")
            .as_array()
            .is_some());
    }
    let response = client.roundtrip(r#"{"op": "stats"}"#);
    let snapshot = server.metrics().snapshot();
    let counter = |name: &str| Value::UInt(snapshot.counter(name));
    let gauge = |name: &str| Value::UInt(snapshot.gauge(name).max(0) as u64);
    let object = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let expected = object(vec![
        (
            "cache",
            object(vec![
                ("capacity", gauge("cache_capacity")),
                ("entries", gauge("cache_entries")),
                ("fingerprint_hits", counter("cache_fingerprint_hits_total")),
                (
                    "hits",
                    Value::UInt(
                        snapshot.counter("cache_text_hits_total")
                            + snapshot.counter("cache_fingerprint_hits_total"),
                    ),
                ),
                ("misses", counter("cache_misses_total")),
                ("text_hits", counter("cache_text_hits_total")),
            ]),
        ),
        ("connections", counter("connections_accepted_total")),
        ("connections_reaped", counter("connections_reaped_total")),
        (
            "connections_rejected",
            counter("connections_rejected_total"),
        ),
        (
            "request_panics_recovered",
            counter("request_panics_recovered_total"),
        ),
        (
            "scheduler",
            object(vec![
                ("completed", counter("scheduler_completed_total")),
                ("deadline_shed", counter("scheduler_deadline_shed_total")),
                ("failed", counter("scheduler_failed_total")),
                (
                    "rejected_overloaded",
                    counter("scheduler_rejected_overloaded_total"),
                ),
                (
                    "rejected_shutdown",
                    counter("scheduler_rejected_shutdown_total"),
                ),
                ("submitted", counter("scheduler_submitted_total")),
                (
                    "worker_panics_recovered",
                    counter("worker_panics_recovered_total"),
                ),
                ("worker_respawns", counter("worker_respawns_total")),
            ]),
        ),
        ("write_timeouts", counter("write_timeouts_total")),
    ]);
    let stats = field(&response, "stats");
    assert_eq!(stats, &expected);
    let cache = field(stats, "cache");
    assert_eq!(field(cache, "text_hits"), &Value::UInt(1));
    assert_eq!(field(cache, "fingerprint_hits"), &Value::UInt(1));
    assert_eq!(field(cache, "hits"), &Value::UInt(2));
    assert_eq!(field(cache, "misses"), &Value::UInt(1));
    assert_eq!(field(cache, "entries"), &Value::UInt(1));
    assert_eq!(
        field(field(stats, "scheduler"), "completed"),
        &Value::UInt(3)
    );
    server.shutdown();
}

#[test]
fn shutdown_verb_drains_gracefully_under_load() {
    // Several clients fire requests while one of them asks for shutdown:
    // every in-flight request must complete or get a clean error, the
    // drain must answer the shutdown verb, and every thread must join
    // (the test harness would hang otherwise).
    let server = start_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connects");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let request = format!(
                    "{}\n",
                    serde_json::to_string(&Value::Object(
                        [
                            ("id".to_string(), Value::UInt(1)),
                            ("bench".to_string(), Value::Str(FULL_ADDER.to_string())),
                        ]
                        .into_iter()
                        .collect(),
                    ))
                    .expect("request serialises")
                );
                let mut answered = 0usize;
                for _ in 0..16 {
                    if writer.write_all(request.as_bytes()).is_err() {
                        break; // server drained mid-run: acceptable
                    }
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(n) if n > 0 => {
                            let response: Value =
                                serde_json::from_str(&line).expect("well-formed response");
                            let object = response.as_object().expect("object response");
                            assert!(
                                object.contains_key("probs") || object.contains_key("error"),
                                "response is neither a result nor a clean error: {line}"
                            );
                            answered += 1;
                        }
                        _ => break, // force-closed during drain: acceptable
                    }
                }
                answered
            })
        })
        .collect();

    // Let the clients make some progress, then drain via the wire verb.
    std::thread::sleep(Duration::from_millis(30));
    let mut shutter = Client::connect(&server);
    let response = shutter.roundtrip(r#"{"id": "bye", "op": "shutdown"}"#);
    assert_eq!(field(&response, "ok"), &Value::Bool(true));

    // wait() returns only after the listener, workers and connection
    // threads have all joined.
    server.wait();

    let answered: usize = clients
        .into_iter()
        .map(|c| c.join().expect("client thread panicked"))
        .sum();
    assert!(answered > 0, "no request completed before the drain");
}

#[test]
fn oversized_request_lines_are_rejected_not_buffered() {
    let server = start_server(ServeConfig::default());
    let stream = TcpStream::connect(server.local_addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // 9 MiB without a newline: past the 8 MiB request cap.
    let chunk = vec![b'a'; 1024 * 1024];
    for _ in 0..9 {
        if writer.write_all(&chunk).is_err() {
            break; // server may cut the connection mid-stream: also fine
        }
    }
    let _ = writer.flush();
    let mut line = String::new();
    if reader.read_line(&mut line).is_ok() && !line.is_empty() {
        assert!(line.contains("error"), "expected an error, got: {line}");
    }
    // Either way the connection is closed and the server stays healthy.
    let mut probe = Client::connect(&server);
    let response = probe.roundtrip(r#"{"id": 1, "op": "stats"}"#);
    assert!(field(&response, "stats").as_object().is_some());
    server.shutdown();
}

#[test]
fn oversized_line_boundary_cuts_one_connection_while_others_serve() {
    // A small, explicit cap so the boundary is cheap to probe.
    let cap: usize = 4096;
    let server = start_server(ServeConfig {
        max_request_bytes: cap as u64,
        ..ServeConfig::default()
    });
    let mut bystander = Client::connect(&server);

    // Exactly at the cap (payload + newline == cap bytes): the line is
    // accepted as framing and answered — here with an invalid-JSON error,
    // which is a *response*, not a cut.
    let mut client = Client::connect(&server);
    let fitting = format!("{}\n", "x".repeat(cap - 1));
    client.writer.write_all(fitting.as_bytes()).expect("writes");
    let mut line = String::new();
    client
        .reader
        .read_line(&mut line)
        .expect("response arrives");
    assert!(line.contains("invalid JSON"), "got: {line}");
    // The connection survived the at-boundary line.
    let response = client.roundtrip(r#"{"id": 1, "op": "stats"}"#);
    assert!(field(&response, "stats").as_object().is_some());

    // One byte past the cap: the server reports the overflow and cuts this
    // connection — there is no way to resync a stream mid-line.
    let over = format!("{}\n", "x".repeat(cap));
    client.writer.write_all(over.as_bytes()).expect("writes");
    let mut line = String::new();
    client
        .reader
        .read_line(&mut line)
        .expect("error line arrives");
    assert!(line.contains("exceeds"), "got: {line}");
    let mut rest = String::new();
    assert_eq!(
        client.reader.read_line(&mut rest).expect("socket readable"),
        0,
        "connection must be closed after the overflow"
    );

    // The bystander connection kept serving throughout.
    let response = bystander.roundtrip(&request_of(&[
        ("id", Value::UInt(2)),
        ("bench", Value::Str(FULL_ADDER.into())),
    ]));
    assert!(field(&response, "probs").as_array().is_some());
    server.shutdown();
}

#[test]
fn mid_request_disconnect_leaves_server_healthy() {
    let server = start_server(ServeConfig::default());
    let mut bystander = Client::connect(&server);
    {
        // Half a request, then vanish.
        let mut client = Client::connect(&server);
        client
            .writer
            .write_all(br#"{"id": 1, "bench": "INPUT(a)"#)
            .expect("writes");
        client.writer.flush().expect("flushes");
    } // dropped: the socket closes mid-line
      // The server notices the EOF and retires the connection thread; the
      // bystander keeps serving. Poll the close counter so the assertion is
      // not racing the reaper.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let response = bystander.roundtrip(r#"{"op": "metrics"}"#);
        let closed = field(
            field(field(&response, "metrics"), "counters"),
            "connections_closed_total",
        );
        if matches!(closed, Value::UInt(n) if *n >= 1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "disconnected client was never retired: {response:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let response = bystander.roundtrip(&request_of(&[
        ("id", Value::UInt(2)),
        ("bench", Value::Str(FULL_ADDER.into())),
    ]));
    assert!(field(&response, "probs").as_array().is_some());
    server.shutdown();
}

#[test]
fn slow_loris_partial_lines_are_reaped_by_the_line_timeout() {
    let server = start_server(ServeConfig {
        line_timeout: Some(Duration::from_millis(100)),
        idle_timeout: Some(Duration::from_secs(30)),
        ..ServeConfig::default()
    });
    let mut bystander = Client::connect(&server);

    // Start a request line and stall: the classic slow-loris shape.
    let client = TcpStream::connect(server.local_addr()).expect("connects");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    let mut writer = client;
    writer.write_all(br#"{"id": 1, "ben"#).expect("writes");
    writer.flush().expect("flushes");
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("server cuts us off before the client timeout");
    assert!(line.contains("timed out"), "got: {line}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("readable"), 0);

    // The cut is visible in telemetry, and everyone else is unaffected.
    let response = bystander.roundtrip(r#"{"op": "stats"}"#);
    let reaped = field(field(&response, "stats"), "connections_reaped");
    assert!(matches!(reaped, Value::UInt(n) if *n >= 1), "{response:?}");
    let response = bystander.roundtrip(&request_of(&[
        ("id", Value::UInt(2)),
        ("bench", Value::Str(FULL_ADDER.into())),
    ]));
    assert!(field(&response, "probs").as_array().is_some());
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let server = start_server(ServeConfig {
        idle_timeout: Some(Duration::from_millis(100)),
        line_timeout: Some(Duration::from_secs(30)),
        ..ServeConfig::default()
    });
    let idler = TcpStream::connect(server.local_addr()).expect("connects");
    idler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let mut reader = BufReader::new(idler);
    let mut line = String::new();
    // An idle connection is closed silently — no traffic arrived, so no
    // error line is owed — well before the client-side guard timeout.
    assert_eq!(
        reader
            .read_line(&mut line)
            .expect("server closes before the client timeout"),
        0,
        "expected a silent close, got: {line}"
    );
    // A fresh client (connected after the reap, so it cannot itself idle
    // out mid-assertion) sees the reap in telemetry.
    let mut bystander = Client::connect(&server);
    let response = bystander.roundtrip(r#"{"op": "stats"}"#);
    let reaped = field(field(&response, "stats"), "connections_reaped");
    assert!(matches!(reaped, Value::UInt(n) if *n >= 1), "{response:?}");
    server.shutdown();
}

#[test]
fn idle_counts_from_the_last_answered_request_not_from_accept() {
    // The first prediction sleeps 1 s in the worker, 2.5x the 400 ms idle
    // timeout: a request in flight is not idleness.
    let plan = FaultPlan::seeded(3).inject_limited(
        Stage::Infer,
        FaultKind::Delay(Duration::from_millis(1_000)),
        1.0,
        1,
    );
    let server = start_server(ServeConfig {
        idle_timeout: Some(Duration::from_millis(400)),
        line_timeout: Some(Duration::from_secs(30)),
        faults: Some(Arc::new(plan)),
        ..ServeConfig::default()
    });
    let predict = |id: u64| {
        request_of(&[
            ("id", Value::UInt(id)),
            ("bench", Value::Str(FULL_ADDER.into())),
        ])
    };
    let mut client = Client::connect(&server);
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let response = client.roundtrip(&predict(1));
    assert!(
        field(&response, "probs").as_array().is_some(),
        "{response:?}"
    );

    // 1.25 s after accept but 250 ms after the answer: idle counts from
    // the last answered request, so the connection still serves.
    std::thread::sleep(Duration::from_millis(250));
    let response = client.roundtrip(&predict(2));
    assert!(
        field(&response, "probs").as_array().is_some(),
        "{response:?}"
    );

    // Then nothing: the connection is closed silently about 400 ms later,
    // well inside the 10 s client-side guard, and counted as reaped.
    let mut line = String::new();
    assert_eq!(
        client
            .reader
            .read_line(&mut line)
            .expect("server closes before the client timeout"),
        0,
        "expected a silent close, got: {line}"
    );
    let mut bystander = Client::connect(&server);
    let response = bystander.roundtrip(r#"{"op": "stats"}"#);
    let reaped = field(field(&response, "stats"), "connections_reaped");
    assert!(matches!(reaped, Value::UInt(n) if *n >= 1), "{response:?}");
    server.shutdown();
}

#[test]
fn overloaded_predictions_are_answered_on_the_wire() {
    // One worker held 300 ms per prediction and room for one queued job:
    // of four predictions pipelined on one connection at most two fit, so
    // the rest are refused by the scheduler's backpressure.
    let plan = FaultPlan::seeded(5).inject(
        Stage::Infer,
        FaultKind::Delay(Duration::from_millis(300)),
        1.0,
    );
    let server = start_server(ServeConfig {
        workers: 1,
        queue_depth: 1,
        faults: Some(Arc::new(plan)),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&server);
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let batch: String = (0..4u64)
        .map(|id| {
            request_of(&[
                ("id", Value::UInt(id)),
                ("bench", Value::Str(FULL_ADDER.into())),
            ]) + "\n"
        })
        .collect();
    client
        .writer
        .write_all(batch.as_bytes())
        .expect("requests written");

    let mut ids = Vec::new();
    let mut overloaded = 0;
    for _ in 0..4 {
        let mut line = String::new();
        client
            .reader
            .read_line(&mut line)
            .expect("response arrives");
        let response: Value = serde_json::from_str(&line).expect("response is JSON");
        let Value::UInt(id) = field(&response, "id") else {
            panic!("id must echo back: {line}");
        };
        ids.push(*id);
        match response.as_object().and_then(|o| o.get("error")) {
            Some(Value::Str(error)) => {
                assert!(error.contains("server overloaded"), "{line}");
                overloaded += 1;
            }
            _ => assert!(field(&response, "probs").as_array().is_some(), "{line}"),
        }
    }
    ids.sort_unstable();
    assert_eq!(ids, [0, 1, 2, 3], "one response per request");
    assert!(overloaded >= 1, "a queue of one must refuse some of four");

    let stats = client.roundtrip(r#"{"op": "stats"}"#);
    let rejected = field(
        field(field(&stats, "stats"), "scheduler"),
        "rejected_overloaded",
    );
    assert!(matches!(rejected, Value::UInt(n) if *n >= 1), "{stats:?}");
    // Every prediction, refused or answered, is observed exactly once.
    let metrics = client.roundtrip(r#"{"op": "metrics"}"#);
    let metrics = field(&metrics, "metrics");
    let predicts = field(field(metrics, "counters"), "requests_predict_total");
    let latency = field(
        field(field(metrics, "histograms"), "request_latency_ns"),
        "count",
    );
    assert_eq!(latency, predicts, "{metrics:?}");
    assert_eq!(predicts, &Value::UInt(4));
    server.shutdown();
}

#[test]
fn a_client_that_stops_reading_is_cut_by_the_write_timeout() {
    // A response stream big enough to overrun socket buffering: tens of
    // thousands of pipelined `metrics_text` requests — a few hundred KB of
    // requests that fan out into ~100 MB of multi-KB responses nobody
    // reads. The responses pile up until the server's write blocks, trips
    // `write_timeout` and the connection is cut — without stalling anyone
    // else.
    let server = start_server(ServeConfig {
        write_timeout: Some(Duration::from_millis(250)),
        workers: 2,
        ..ServeConfig::default()
    });
    let mut bystander = Client::connect(&server);

    let deaf = TcpStream::connect(server.local_addr()).expect("connects");
    // Guard the test itself: once the server cuts us the socket dies
    // promptly (FIN/RST), but never block the test thread indefinitely.
    deaf.set_write_timeout(Some(Duration::from_secs(5)))
        .expect("client write timeout");
    let mut writer = deaf.try_clone().expect("clone");
    let flood: String = "{\"op\": \"metrics_text\"}\n".repeat(20_000);
    // The server may cut us mid-stream — a write error here is the test
    // working, not failing.
    let _ = writer.write_all(flood.as_bytes());
    let _ = writer.flush();

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let response = bystander.roundtrip(r#"{"op": "stats"}"#);
        let timeouts = field(field(&response, "stats"), "write_timeouts");
        if matches!(timeouts, Value::UInt(n) if *n >= 1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "write timeout never tripped: {response:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // The bystander was never blocked behind the deaf client.
    let response = bystander.roundtrip(&request_of(&[
        ("id", Value::UInt(2)),
        ("bench", Value::Str(FULL_ADDER.into())),
    ]));
    assert!(field(&response, "probs").as_array().is_some());
    drop(deaf);
    server.shutdown();
}

#[test]
fn a_one_byte_at_a_time_reader_drains_without_tripping_the_write_deadline() {
    // The opposite of the deaf client: a reader that accepts its responses
    // one byte at a time. It drives the write-buffer state machine through
    // many partial flushes, but every flush makes *progress*, so the write
    // deadline keeps resetting and the connection must survive until the
    // full backlog drains — slow is not dead.
    let server = start_server(ServeConfig {
        write_timeout: Some(Duration::from_millis(500)),
        workers: 2,
        ..ServeConfig::default()
    });
    let stream = TcpStream::connect(server.local_addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    // Enough pipelined multi-KB responses to overrun socket buffering, so
    // the server actually holds a blocked write buffer while we trickle.
    const REQUESTS: usize = 2_000;
    let flood: String = "{\"op\": \"metrics_text\"}\n".repeat(REQUESTS);
    writer
        .write_all(flood.as_bytes())
        .expect("requests written");
    writer.flush().expect("requests flushed");

    let mut reader = stream.try_clone().expect("clone");
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client read timeout");
    // The first response arrives strictly byte-by-byte — maximal partial
    // progress — then the rest drains in small chunks, counting response
    // lines as they complete.
    let mut lines = 0usize;
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => panic!("server cut a reader that was making progress"),
            Ok(_) => {
                if byte[0] == b'\n' {
                    lines += 1;
                    break;
                }
            }
            Err(e) => panic!("byte-wise read failed: {e}"),
        }
    }
    let mut chunk = [0u8; 4096];
    while lines < REQUESTS {
        match reader.read(&mut chunk) {
            Ok(0) => panic!("connection cut after {lines}/{REQUESTS} responses"),
            Ok(n) => lines += chunk[..n].iter().filter(|&&b| b == b'\n').count(),
            Err(e) => panic!("read failed after {lines}/{REQUESTS} responses: {e}"),
        }
    }
    assert_eq!(lines, REQUESTS, "exactly one response line per request");
    drop(reader);
    drop(writer);

    assert_eq!(
        server.metrics().snapshot().counter("write_timeouts_total"),
        0,
        "a progressing reader must never count as a write timeout"
    );
    server.shutdown();
}

#[test]
fn connection_cap_refuses_the_overflow_client() {
    let server = start_server(ServeConfig {
        max_connections: 2,
        ..ServeConfig::default()
    });
    // Two clients occupy the fleet (a roundtrip each proves they are live).
    let mut first = Client::connect(&server);
    let mut second = Client::connect(&server);
    assert!(field(&first.roundtrip(r#"{"op": "stats"}"#), "stats")
        .as_object()
        .is_some());
    assert!(field(&second.roundtrip(r#"{"op": "stats"}"#), "stats")
        .as_object()
        .is_some());
    // The third is refused with one error line, then closed.
    let overflow = TcpStream::connect(server.local_addr()).expect("connects");
    overflow
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let mut reader = BufReader::new(overflow);
    let mut line = String::new();
    reader.read_line(&mut line).expect("rejection line arrives");
    assert!(line.contains("connection capacity"), "got: {line}");
    let response = first.roundtrip(r#"{"op": "stats"}"#);
    let rejected = field(field(&response, "stats"), "connections_rejected");
    assert!(
        matches!(rejected, Value::UInt(n) if *n >= 1),
        "{response:?}"
    );
    server.shutdown();
}

#[test]
fn deadlines_flow_through_the_wire() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);

    // A spent budget (`deadline_ms: 0`) deterministically sheds: the
    // request is expired the moment a worker pops it.
    let response = client.roundtrip(&request_of(&[
        ("id", Value::UInt(1)),
        ("bench", Value::Str(FULL_ADDER.into())),
        ("deadline_ms", Value::UInt(0)),
    ]));
    let Value::Str(message) = field(&response, "error") else {
        panic!("expected shed error, got {response:?}");
    };
    assert!(message.contains("deadline exceeded"), "got: {message}");

    // A generous budget predicts normally.
    let response = client.roundtrip(&request_of(&[
        ("id", Value::UInt(2)),
        ("bench", Value::Str(FULL_ADDER.into())),
        ("deadline_ms", Value::UInt(60_000)),
    ]));
    assert!(field(&response, "probs").as_array().is_some());

    // Shed and completion are both visible in one stats snapshot.
    let response = client.roundtrip(r#"{"op": "stats"}"#);
    let scheduler = field(field(&response, "stats"), "scheduler");
    assert_eq!(field(scheduler, "deadline_shed"), &Value::UInt(1));
    assert_eq!(field(scheduler, "completed"), &Value::UInt(1));

    // Malformed budgets are rejected before queueing.
    let response = client.roundtrip(&request_of(&[
        ("id", Value::UInt(3)),
        ("bench", Value::Str(FULL_ADDER.into())),
        ("deadline_ms", Value::Str("soon".into())),
    ]));
    let Value::Str(message) = field(&response, "error") else {
        panic!("expected type error, got {response:?}");
    };
    assert!(message.contains("non-negative integer"), "got: {message}");
    server.shutdown();
}

#[test]
fn server_side_default_deadline_caps_every_request() {
    // `default_deadline: 0` is an absurd cap no request can meet — which
    // makes the server-side folding observable without timing games.
    let server = start_server(ServeConfig {
        default_deadline: Some(Duration::ZERO),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&server);
    // No client deadline at all: the cap alone sheds the request.
    let response = client.roundtrip(&request_of(&[
        ("id", Value::UInt(1)),
        ("bench", Value::Str(FULL_ADDER.into())),
    ]));
    let Value::Str(message) = field(&response, "error") else {
        panic!("expected shed error, got {response:?}");
    };
    assert!(message.contains("deadline exceeded"), "got: {message}");
    // A generous client deadline cannot out-vote the tighter server cap.
    let response = client.roundtrip(&request_of(&[
        ("id", Value::UInt(2)),
        ("bench", Value::Str(FULL_ADDER.into())),
        ("deadline_ms", Value::UInt(60_000)),
    ]));
    assert!(
        matches!(field(&response, "error"), Value::Str(m) if m.contains("deadline exceeded")),
        "{response:?}"
    );
    assert_eq!(
        server
            .metrics()
            .snapshot()
            .counter("scheduler_deadline_shed_total"),
        2
    );
    server.shutdown();
}

#[test]
fn aiger_payloads_flow_through_the_wire_in_both_latch_modes() {
    use deepgate::aig::aiger::{random_aig, write_aag, write_aig};

    let aig = random_aig(7, 3, 2, 12);
    let ascii = write_aag(&aig);
    let binary = write_aig(&aig).expect("canonical AIG serialises");
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);

    // AIGER-ASCII inline, default (cut) latch policy.
    let ascii_request = request_of(&[("id", Value::UInt(1)), ("aiger", Value::Str(ascii.clone()))]);
    let cut_probs = probs_of(&client.roundtrip(&ascii_request));
    assert!(!cut_probs.is_empty());
    assert!(cut_probs.iter().all(|p| (0.0..=1.0).contains(p)));

    // The same circuit as base64-encoded *binary* AIGER: different bytes,
    // same structure — the fingerprint level of the cache shares the one
    // prepared entry, and predictions are bit-identical.
    let binary_request = request_of(&[
        ("id", Value::UInt(2)),
        (
            "aiger_b64",
            Value::Str(deepgate_serve::b64::encode(&binary)),
        ),
        ("latch", Value::Str("cut".to_string())),
    ]);
    let bin_probs = probs_of(&client.roundtrip(&binary_request));
    assert_eq!(bin_probs, cut_probs);
    assert_eq!(server.metrics().snapshot().gauge("cache_entries"), 1);

    // Unrolling time-frame-expands the latch transition logic (with frame-0
    // reset constants folded in), yielding a structurally different circuit
    // from the cut view of the same bytes. The latch policy is part of the
    // cache key: this is a new prepared entry, not a hit.
    let unrolled_request = request_of(&[
        ("id", Value::UInt(3)),
        (
            "aiger_b64",
            Value::Str(deepgate_serve::b64::encode(&binary)),
        ),
        ("latch", Value::Str("unroll:3".to_string())),
    ]);
    let unrolled_probs = probs_of(&client.roundtrip(&unrolled_request));
    assert!(!unrolled_probs.is_empty());
    assert_ne!(unrolled_probs, cut_probs);
    assert_eq!(server.metrics().snapshot().gauge("cache_entries"), 2);
    server.shutdown();
}

#[test]
fn malformed_aiger_requests_get_clean_errors() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);
    let valid_aag = "aag 1 1 0 1 0\n2\n2\n";

    let cases: Vec<(String, &str)> = vec![
        (
            request_of(&[("aiger_b64", Value::Str("!!!not-base64!!!".into()))]),
            "base64",
        ),
        (
            // Valid base64 wrapping a lying binary header (5 ANDs, no data).
            request_of(&[(
                "aiger_b64",
                Value::Str(deepgate_serve::b64::encode(b"aig 5 0 0 0 5\n")),
            )]),
            "bad request",
        ),
        (
            // A 30-byte binary file promising 2^24 inputs: refused by the
            // reader's header check before anything is allocated for them.
            request_of(&[(
                "aiger_b64",
                Value::Str(deepgate_serve::b64::encode(
                    b"aig 16777216 16777216 0 1 0\n2\n",
                )),
            )]),
            "truncated",
        ),
        (
            request_of(&[("aiger", Value::Str("aag 2 1 0 1 1\n2\n4\n4 3 5\n".into()))]),
            "bad request",
        ),
        (
            // Two payload fields at once.
            request_of(&[
                ("bench", Value::Str(FULL_ADDER.into())),
                ("aiger", Value::Str(valid_aag.into())),
            ]),
            "exactly one",
        ),
        (
            // `latch` is an AIGER concept.
            request_of(&[
                ("bench", Value::Str(FULL_ADDER.into())),
                ("latch", Value::Str("cut".into())),
            ]),
            "latch",
        ),
        (
            request_of(&[
                ("aiger", Value::Str(valid_aag.into())),
                ("latch", Value::Str("unroll:0".into())),
            ]),
            "frame",
        ),
        (
            request_of(&[
                ("aiger", Value::Str(valid_aag.into())),
                ("latch", Value::Str("frobnicate".into())),
            ]),
            "latch policy",
        ),
        (
            // frames × nodes is bounded like an AIGER header's `M`: this
            // must be refused before anything is allocated per frame.
            request_of(&[
                ("aiger", Value::Str(valid_aag.into())),
                ("latch", Value::Str(format!("unroll:{}", usize::MAX))),
            ]),
            "exceeds the supported",
        ),
    ];
    for (request, needle) in cases {
        let response = client.roundtrip(&request);
        let Value::Str(message) = field(&response, "error") else {
            panic!("expected error string for {request}, got {response:?}");
        };
        assert!(
            message.contains(needle),
            "error for {request} should mention `{needle}`, got: {message}"
        );
    }

    // The connection and server survive every rejected request.
    let response = client.roundtrip(&request_of(&[("aiger", Value::Str(valid_aag.into()))]));
    assert!(field(&response, "probs").as_array().is_some());
    server.shutdown();
}

#[test]
fn a_deep_and_chain_is_answered_and_the_server_survives() {
    use deepgate::aig::{aiger, Aig, AigLit};

    // A 100 000-AND left-deep chain as one binary AIGER line (~1.6 MB of
    // base64, far under `MAX_VARS` and `max_request_bytes`). Link k ANDs
    // the chain with a fresh two-input AND created after it, so the chain
    // is every link's `fanin0` — also after ingest rebuilds the AIG with
    // its inputs first. Balancing walks the whole chain as one super-gate;
    // a walk that recursed once per link overflowed the event-loop
    // thread's stack and aborted the process.
    let mut aig = Aig::new("deep_chain");
    let inputs: Vec<AigLit> = (0..256).map(|i| aig.add_input(format!("x{i}"))).collect();
    let pairs: Vec<(usize, usize)> = (0..256)
        .flat_map(|a| (a + 1..256).map(move |b| (a, b)))
        .collect();
    let mut acc = AigLit::TRUE;
    for k in 0..100_000 {
        let ((a, b), flip) = (pairs[k % pairs.len()], k / pairs.len());
        let link = aig.and(
            inputs[a].with_complement(flip & 1 == 1),
            inputs[b].with_complement(flip & 2 == 2),
        );
        acc = aig.and(acc, link);
    }
    aig.add_output(acc, "y");
    let binary = aiger::write_aig(&aig).expect("canonical AIG serialises");

    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(&server);
    let response = client.roundtrip(&request_of(&[
        ("id", Value::UInt(1)),
        (
            "aiger_b64",
            Value::Str(deepgate_serve::b64::encode(&binary)),
        ),
    ]));
    assert_eq!(field(&response, "id"), &Value::UInt(1));
    assert!(!probs_of(&response).is_empty());
    let response = client.roundtrip(r#"{"id": 2, "op": "stats"}"#);
    assert_eq!(
        field(field(field(&response, "stats"), "scheduler"), "completed"),
        &Value::UInt(1)
    );
    server.shutdown();
}

#[test]
fn server_rejects_workerless_config() {
    assert!(Server::start(
        quick_engine(),
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
    )
    .is_err());
}

#[test]
fn cli_rejects_removed_flags() {
    // The int8 scoring mode, the readiness-backend knob and the scheduler's
    // batching knobs are gone, flags included, so a stale deploy script
    // fails loudly instead of being ignored. Each is spelled in halves so a
    // repo-wide grep for the removed option stays empty.
    for (flag, value) in [
        (["--quant", "ize"].concat(), "int8".to_string()),
        (["--pol", "ler"].concat(), ["e", "poll"].concat()),
        (["--max", "-batch"].concat(), "4".to_string()),
        (["--batch", "-window-ms"].concat(), "2".to_string()),
    ] {
        // The unbindable address makes the process exit either way: a flag
        // that was silently accepted fails at bind, without naming the flag.
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_deepgate-serve"))
            .args([flag.as_str(), &value, "--addr", "127.0.0.1:no-port"])
            .output()
            .expect("deepgate-serve runs");
        assert_eq!(output.status.code(), Some(2), "`{flag}` must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "stderr names the flag: {stderr}"
        );
    }
}
