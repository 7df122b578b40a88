//! C10K-grade harness for the event-driven front end: hundreds of
//! concurrent connections held open simultaneously, every request answered
//! exactly once, `connections_open` peaking at the full fleet size, and —
//! the point of the event loop — the server's OS thread count staying flat
//! (one event loop + the configured workers) instead of one thread per
//! connection.

use deepgate::core::DeepGateConfig;
use deepgate::Engine;
use deepgate_serve::{ServeConfig, Server};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const FULL_ADDER: &str = "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(sum)\nOUTPUT(cout)\nx = XOR(a, b)\nsum = XOR(x, cin)\ng1 = AND(a, b)\ng2 = AND(x, cin)\ncout = OR(g1, g2)\n";

/// Serialises the fleet's `connect` calls. A simultaneous 512-SYN burst
/// overruns the listener's kernel accept backlog, and with syncookies a
/// client's `connect` can return while the server-side socket only
/// materialises once the client sends data — pacing the handshakes keeps
/// the backlog drained so every connection is real.
static CONNECT: Mutex<()> = Mutex::new(());

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

/// How many live threads of this process belong to the serving stack.
/// Thread names truncate to 15 bytes in `/proc`, so every server thread
/// ("deepgate-serve-loop", "deepgate-serve-worker-N") reads as the same
/// "deepgate-serve-" prefix — which is exactly what we want to count.
#[cfg(target_os = "linux")]
fn server_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task list")
        .filter(|entry| {
            let comm = entry.as_ref().expect("task entry").path().join("comm");
            std::fs::read_to_string(comm)
                .is_ok_and(|name| name.trim_end().starts_with("deepgate-serve"))
        })
        .count()
}

fn gauge(metrics: &Value, name: &str) -> u64 {
    let gauges = metrics
        .as_object()
        .and_then(|o| o.get("metrics"))
        .and_then(|m| m.as_object())
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.as_object())
        .unwrap_or_else(|| panic!("no gauges in {metrics:?}"));
    match gauges.get(name) {
        Some(Value::UInt(v)) => *v,
        Some(Value::Int(v)) if *v >= 0 => *v as u64,
        other => panic!("gauge `{name}` missing or negative: {other:?}"),
    }
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
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response arrives");
        serde_json::from_str(&line).expect("response is JSON")
    }
}

/// `fleet` clients all connect and hold their sockets open, the gauge and
/// thread count are checked at peak, then every client round-trips a
/// predict and a stats request on its held connection — every wakeup of
/// the event loop scanning the whole fleet's `pollfd` array.
#[test]
fn c10k_512_concurrent_connections_flat_thread_count() {
    let (fleet, workers) = (512, 2);
    #[cfg(target_os = "linux")]
    let thread_baseline = server_thread_count();
    let server = Arc::new(
        Server::start(
            quick_engine(),
            ServeConfig {
                workers,
                max_connections: fleet + 8,
                queue_depth: 2 * fleet,
                ..ServeConfig::default()
            },
        )
        .expect("server binds"),
    );
    let connected = Arc::new(Barrier::new(fleet + 1));
    let release = Arc::new(Barrier::new(fleet + 1));
    let responses = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..fleet)
        .map(|i| {
            let server = Arc::clone(&server);
            let connected = Arc::clone(&connected);
            let release = Arc::clone(&release);
            let responses = Arc::clone(&responses);
            std::thread::spawn(move || {
                let mut client = {
                    let _pace = CONNECT.lock().unwrap_or_else(|e| e.into_inner());
                    Client::connect(&server)
                };
                // A probe the server skips silently (empty line): its data
                // forces a handshake that raced the accept queue to
                // materialise server-side before the peak-fleet check.
                client.writer.write_all(b"\n").expect("probe written");
                // Hold the socket open until every peer has connected and
                // the peak-fleet checks have run.
                connected.wait();
                release.wait();
                let request = serde_json::to_string(&Value::Object(
                    [
                        ("id".to_string(), Value::UInt(i as u64)),
                        ("bench".to_string(), Value::Str(FULL_ADDER.to_string())),
                    ]
                    .into_iter()
                    .collect(),
                ))
                .expect("request serialises");
                let response = client.roundtrip(&request);
                let fields = response.as_object().expect("object response");
                assert_eq!(
                    fields.get("id"),
                    Some(&Value::UInt(i as u64)),
                    "response routed to the wrong request: {response:?}"
                );
                assert!(
                    fields.get("probs").is_some(),
                    "predict failed: {response:?}"
                );
                responses.fetch_add(1, Ordering::SeqCst);
                // A second round trip on the same socket proves the stream
                // stayed aligned: exactly one response line per request,
                // nothing extra buffered in between.
                let stats = client.roundtrip(r#"{"op": "stats"}"#);
                assert!(
                    stats.as_object().is_some_and(|o| o.contains_key("stats")),
                    "stream desynchronised: {stats:?}"
                );
            })
        })
        .collect();
    connected.wait();

    // Every client socket is connected and held. Admission is asynchronous
    // (the event loop accepts after the client's connect returns), so poll
    // the gauge up to a deadline.
    let mut control = Client::connect(&server);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open = gauge(
            &control.roundtrip(r#"{"op": "metrics"}"#),
            "connections_open",
        );
        if open >= fleet as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connections_open peaked at {open}, wanted >= {fleet}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The flat-thread-model claim, measured at peak fleet: one event loop
    // plus the workers, regardless of connection count (the blocking front
    // end would sit at `fleet + 1` threads here). The fleet's full adders
    // stay far under the kernel's split threshold (2 048 nodes), so no
    // worker starts a per-prediction level helper thread either (those are
    // named "deepgate-gnn-level", outside the prefix counted here).
    #[cfg(target_os = "linux")]
    {
        let during = server_thread_count();
        assert!(
            during.saturating_sub(thread_baseline) <= workers + 3,
            "thread count not flat: {during} serving threads for {fleet} \
             connections (baseline {thread_baseline}, budget {})",
            workers + 3
        );
    }

    release.wait();
    for handle in handles {
        handle.join().expect("client thread");
    }
    assert_eq!(
        responses.load(Ordering::SeqCst),
        fleet,
        "every request must get exactly one terminal response"
    );
    let accepted = server
        .metrics()
        .snapshot()
        .counter("connections_accepted_total");
    assert!(
        accepted >= fleet as u64,
        "accepted {accepted} connections, expected at least {fleet}"
    );
    server.shutdown();
}
