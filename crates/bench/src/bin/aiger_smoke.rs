//! End-to-end AIGER smoke test, run in CI: generates a small corpus of
//! latch-bearing circuits, round-trips each through the ASCII and binary
//! AIGER writers/parsers on disk, then serves the binary `.aig` files
//! through a live `deepgate-serve` TCP server in both latch-ingestion
//! modes (`cut` and `unroll:2`) and checks the predictions come back.
//!
//! Exits non-zero (panics) on any failure; prints a one-line summary on
//! success.
//!
//! ```bash
//! cargo run --release -p deepgate-bench --bin aiger_smoke
//! ```

use deepgate::aig::aiger::{parse_auto, random_aig, write_aag, write_aig};
use deepgate::prelude::*;
use deepgate_serve::{b64, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

/// `(seed, inputs, latches, ands)` shapes covering combinational,
/// latch-heavy and mixed circuits.
const CORPUS: [(u64, usize, usize, usize); 4] = [
    (11, 3, 2, 16),
    (12, 5, 4, 40),
    (13, 4, 0, 24),
    (14, 2, 6, 48),
];

fn quick_engine() -> Engine {
    Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 8,
            num_iterations: 2,
            regressor_hidden: 4,
            ..DeepGateConfig::default()
        })
        .build()
        .expect("valid engine configuration")
}

/// The canonical form minus the comment section, which carries the design
/// name and legitimately differs between a generated circuit (`rand-<seed>`)
/// and one parsed back under a caller-supplied name.
fn canon_body(aag: &str) -> &str {
    aag.split("\nc\n").next().unwrap_or(aag)
}

/// Writes both formats to disk, parses them back through the public file
/// path, and checks canonical-form equality (structural isomorphism).
fn file_roundtrip(dir: &Path, index: usize, engine: &Engine) -> Vec<u8> {
    let (seed, inputs, latches, ands) = CORPUS[index];
    let aig = random_aig(seed, inputs, latches, ands);
    let canon = write_aag(&aig);
    let binary = write_aig(&aig).expect("canonical AIG serialises");

    let aag_path = dir.join(format!("smoke_{index}.aag"));
    let aig_path = dir.join(format!("smoke_{index}.aig"));
    std::fs::write(&aag_path, &canon).expect("write .aag");
    std::fs::write(&aig_path, &binary).expect("write .aig");

    for path in [&aag_path, &aig_path] {
        let bytes = std::fs::read(path).expect("read corpus file back");
        let parsed = parse_auto(&bytes, "smoke").expect("corpus file parses");
        assert_eq!(
            canon_body(&write_aag(&parsed)),
            canon_body(&canon),
            "{} must round-trip to the same canonical form",
            path.display()
        );
        // The engine ingests the file end-to-end (cut policy by default).
        let circuits = engine
            .prepare_unlabelled(&AigerFile::new(path))
            .expect("engine ingests corpus file");
        assert_eq!(circuits.len(), 1);
    }
    binary
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, request: &str) -> String {
    writer.write_all(request.as_bytes()).expect("send request");
    writer.write_all(b"\n").expect("send newline");
    writer.flush().expect("flush request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    response
}

fn main() {
    let dir = std::env::temp_dir().join(format!("deepgate_aiger_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create corpus dir");

    let engine = quick_engine();
    let binaries: Vec<Vec<u8>> = (0..CORPUS.len())
        .map(|i| file_roundtrip(&dir, i, &engine))
        .collect();
    eprintln!(
        "[aiger_smoke] {} circuits round-tripped through {} (.aag + .aig)",
        CORPUS.len(),
        dir.display()
    );

    // Serve the binary corpus over TCP in both latch-ingestion modes.
    let server = Server::start(engine, ServeConfig::default()).expect("server binds");
    let stream = TcpStream::connect(server.local_addr()).expect("connect to server");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let mut served = 0usize;
    for (index, binary) in binaries.iter().enumerate() {
        for latch in ["cut", "unroll:2"] {
            let request = format!(
                r#"{{"id": {index}, "aiger_b64": "{}", "latch": "{latch}"}}"#,
                b64::encode(binary)
            );
            let response = roundtrip(&mut reader, &mut writer, &request);
            assert!(
                response.contains("probs"),
                "expected predictions for circuit {index} ({latch}), got: {response}"
            );
            served += 1;
        }
    }

    // Malformed payloads come back as clean errors, not dropped connections.
    let response = roundtrip(
        &mut reader,
        &mut writer,
        r#"{"id": "bad", "aiger_b64": "%%%"}"#,
    );
    assert!(
        response.contains("error"),
        "malformed base64 must yield an error, got: {response}"
    );
    let response = roundtrip(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"id": "bad2", "aiger_b64": "{}"}}"#,
            b64::encode(b"aig 9 0 0 0 9\n")
        ),
    );
    assert!(
        response.contains("error"),
        "truncated binary AIGER must yield an error, got: {response}"
    );
    // A 30-byte binary header promising 2^24 inputs is refused before the
    // reader allocates anything for them.
    let response = roundtrip(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"id": "bad3", "aiger_b64": "{}"}}"#,
            b64::encode(b"aig 16777216 16777216 0 1 0\n2\n")
        ),
    );
    assert!(
        response.contains("error") && response.contains("truncated"),
        "a hostile binary header must yield an error, got: {response}"
    );

    let response = roundtrip(&mut reader, &mut writer, r#"{"id": "q", "op": "shutdown"}"#);
    assert!(response.contains("ok"), "shutdown not acknowledged");
    server.wait();

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "[aiger_smoke] OK: {served} predictions served over TCP ({} circuits x 2 latch modes), malformed inputs rejected cleanly",
        CORPUS.len()
    );
}
