//! `deepgate-serve` — serve a DeepGate checkpoint over TCP.
//!
//! ```bash
//! deepgate-serve --checkpoint model.json --addr 127.0.0.1:7878 \
//!     --workers 4 --queue-depth 1024
//! ```
//!
//! Without `--checkpoint` a freshly initialised (untrained) model is served —
//! useful for protocol smoke tests and load experiments, since inference
//! cost does not depend on the weight values.
//!
//! The process runs until a client sends the `{"op":"shutdown"}` verb, then
//! drains gracefully and exits.

use deepgate::core::DeepGateConfig;
use deepgate::Engine;
use deepgate_serve::{ServeConfig, Server};
use std::time::Duration;

const USAGE: &str = "\
usage: deepgate-serve [options]
  --checkpoint <path>    checkpoint written by Engine::save_checkpoint
                         (default: fresh untrained model)
  --addr <host:port>     listen address (default 127.0.0.1:7878, port 0 = ephemeral)
  --queue-depth <n>      bounded queue depth (default 1024)
  --workers <n>          worker threads, one request each at a time
                         (default: CPU count)
  --cache <n>            structural cache capacity (default 256)
  --slow-ms <n>          log predict requests slower than n milliseconds,
                         naming the dominant stage (0 logs every request;
                         default: disabled)
  --default-deadline-ms <n>
                         server-side budget applied to every predict request;
                         the tighter of this and the client's `deadline_ms`
                         wins (0 = disabled; default: disabled)
  --idle-timeout-ms <n>  reap connections idle between requests for n ms
                         (0 = never; default 120000)
  --line-timeout-ms <n>  cut connections that stall mid-request-line for n ms
                         (0 = never; default 30000)
  --write-timeout-ms <n> cut connections whose responses stall in the socket
                         for n ms (0 = never; default 30000)
  --max-connections <n>  refuse connections beyond n concurrent clients
                         (0 = unlimited; default 1024)
  --max-request-bytes <n>
                         reject request lines longer than n bytes
                         (default 8388608)
  --help                 print this help";

fn fail(message: &str) -> ! {
    eprintln!("deepgate-serve: {message}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut checkpoint: Option<String> = None;
    let mut config = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    };

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--checkpoint" => checkpoint = Some(value("--checkpoint")),
            "--addr" => config.addr = value("--addr"),
            "--queue-depth" => config.queue_depth = parse(&value("--queue-depth"), "--queue-depth"),
            "--workers" => config.workers = parse(&value("--workers"), "--workers"),
            "--cache" => config.cache_capacity = parse(&value("--cache"), "--cache"),
            "--slow-ms" => {
                config.slow_request_threshold =
                    Some(Duration::from_millis(
                        parse(&value("--slow-ms"), "--slow-ms") as u64,
                    ))
            }
            "--default-deadline-ms" => {
                config.default_deadline = optional_ms(parse(
                    &value("--default-deadline-ms"),
                    "--default-deadline-ms",
                ))
            }
            "--idle-timeout-ms" => {
                config.idle_timeout =
                    optional_ms(parse(&value("--idle-timeout-ms"), "--idle-timeout-ms"))
            }
            "--line-timeout-ms" => {
                config.line_timeout =
                    optional_ms(parse(&value("--line-timeout-ms"), "--line-timeout-ms"))
            }
            "--write-timeout-ms" => {
                config.write_timeout =
                    optional_ms(parse(&value("--write-timeout-ms"), "--write-timeout-ms"))
            }
            "--max-connections" => {
                config.max_connections = parse(&value("--max-connections"), "--max-connections")
            }
            "--max-request-bytes" => {
                config.max_request_bytes =
                    parse(&value("--max-request-bytes"), "--max-request-bytes") as u64
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    let engine = match &checkpoint {
        Some(path) => Engine::from_checkpoint_file(path)
            .unwrap_or_else(|e| fail(&format!("loading checkpoint `{path}`: {e}"))),
        None => {
            eprintln!("[deepgate-serve] no --checkpoint: serving a fresh untrained model");
            Engine::builder()
                .model(DeepGateConfig {
                    hidden_dim: 32,
                    num_iterations: 6,
                    ..DeepGateConfig::default()
                })
                .build()
                .unwrap_or_else(|e| fail(&format!("building default model: {e}")))
        }
    };

    let server = Server::start(engine, config.clone())
        .unwrap_or_else(|e| fail(&format!("starting server: {e}")));
    eprintln!(
        "[deepgate-serve] listening on {} via poll(2) event loop (queue_depth={}, workers={}, cache={})",
        server.local_addr(),
        config.queue_depth,
        config.workers,
        config.cache_capacity,
    );
    eprintln!(
        "[deepgate-serve] resilience: default_deadline={:?}, idle_timeout={:?}, line_timeout={:?}, write_timeout={:?}, max_connections={}, max_request_bytes={}",
        config.default_deadline,
        config.idle_timeout,
        config.line_timeout,
        config.write_timeout,
        config.max_connections,
        config.max_request_bytes,
    );
    server.wait();
    let snapshot = server.metrics().snapshot();
    eprintln!(
        "[deepgate-serve] drained: {} completed, {} failed, cache {}/{} hits/misses",
        snapshot.counter("scheduler_completed_total"),
        snapshot.counter("scheduler_failed_total"),
        snapshot.counter("cache_text_hits_total")
            + snapshot.counter("cache_fingerprint_hits_total"),
        snapshot.counter("cache_misses_total")
    );
}

fn parse(text: &str, flag: &str) -> usize {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("{flag} expects an unsigned integer, got `{text}`")))
}

/// The `0 = disabled` convention for millisecond flags.
fn optional_ms(ms: usize) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms as u64))
}
