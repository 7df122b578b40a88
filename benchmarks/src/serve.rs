//! The two serving workloads: an in-process [`Server`] on loopback TCP,
//! one closed-loop client thread per connection, one request outstanding
//! each. `serve_repeat` cycles a fixed pool (cache reads); `serve_unique`
//! never sends the same circuit twice (cache writes, full ingest).

use crate::checks::Digest;
use crate::inputs::{self, PoolCircuit, UniqueRequest};
use crate::phase::{thread_involuntary_switches, OpSample, Phase, ProcSample};
use crate::spans::Tracer;
use deepgate::telemetry::Snapshot;
use deepgate::{AigerBytes, BenchText, Engine, InferenceSession};
use deepgate_serve::{b64, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Which traffic the clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Uniform draws from the 12-circuit pool.
    Repeat,
    /// A new `random_logic` circuit per request.
    Unique,
}

impl Traffic {
    /// Suffix of the traffic-dependent per-layer metric names.
    pub fn suffix(self) -> &'static str {
        match self {
            Traffic::Repeat => "repeat",
            Traffic::Unique => "unique",
        }
    }

    /// The fixed latency limit of `within_limit_share`, seconds.
    pub fn limit_s(self) -> f64 {
        match self {
            Traffic::Repeat => 0.040,
            Traffic::Unique => 0.060,
        }
    }

    /// Connections the clients hold, one request outstanding each. Repeat
    /// traffic uses one per core of the box the bounds were derived on: hits
    /// come back fast enough that both requests always share a batch (mean
    /// batch 2.0), so the scheduler's window, fusion and dedup are in the
    /// path. Unique traffic uses one: with two, whether a request catches
    /// the other's 2 ms window depends on its ingest time, the batch-size
    /// mix drifts from run to run (mean batch 1.40–1.58), and the median
    /// flips between the latency of a lone request and of a pair — measured
    /// run-to-run spread of the p50 9 % with two connections, 3 % with one.
    pub fn connections(self) -> usize {
        match self {
            Traffic::Repeat => 2,
            Traffic::Unique => 1,
        }
    }
}

/// Unique requests served during set-up so first-touch costs (allocator
/// growth, lazily built tables) are paid before the measured phase.
const UNIQUE_PRIME: u64 = 16;

/// The priming requests come from this fixed stream, not the workload's:
/// `setup_s` then times the same circuits on every seed, and their answers
/// can be pinned in the golden file for every seed.
const PRIME_STREAM_SEED: u64 = 0xC0FF_EE00;

/// One in this many `serve_unique` responses is kept and compared with the
/// offline prediction of the same circuit after the phase.
const UNIQUE_CHECK_EVERY: u64 = 16;

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(server: &Server) -> Conn {
        let stream = TcpStream::connect(server.local_addr()).expect("loopback connect");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            line: String::new(),
        }
    }

    /// Sends one line, reads one line back.
    fn round_trip(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Extracts `probs` from a response line, or the server's error message.
/// A hand-rolled scan keeps the client cheap: it shares two cores with the
/// server it is measuring.
pub fn parse_probs(line: &str, expect_id: u64) -> Result<Vec<f32>, String> {
    if let Some(at) = line.find("\"error\"") {
        return Err(format!(
            "server error: {}",
            &line[at..line.len().min(at + 160)]
        ));
    }
    let id_tag = format!("\"id\":{expect_id},");
    if !line.contains(&id_tag) {
        return Err(format!("response does not echo id {expect_id}"));
    }
    let start = line
        .find("\"probs\":[")
        .ok_or_else(|| "response has no `probs`".to_string())?
        + "\"probs\":[".len();
    let end = line[start..]
        .find(']')
        .ok_or_else(|| "unterminated `probs`".to_string())?
        + start;
    let body = &line[start..end];
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|v| {
            v.trim()
                .parse::<f64>()
                .map(|f| f as f32)
                .map_err(|e| format!("bad probability `{v}`: {e}"))
        })
        .collect()
}

/// All probabilities finite and inside `[0, 1]`.
pub fn probs_in_range(probs: &[f32]) -> bool {
    probs
        .iter()
        .all(|p| p.is_finite() && (0.0..=1.0).contains(p))
}

/// Same length and the same bits in every position.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A response kept for the after-phase comparison with the offline path.
pub struct SampledResponse {
    /// The request that produced it.
    pub request: UniqueRequest,
    /// The probabilities the server answered.
    pub probs: Vec<f32>,
}

/// A running server with its clients and the reference predictions.
pub struct ServeState {
    traffic: Traffic,
    seed: u64,
    server: Server,
    conns: Vec<Conn>,
    /// The repeat pool (both traffics keep it: the unique replay uses none
    /// of it, but the probes borrow it).
    pub pool: Vec<PoolCircuit>,
    /// `InferenceSession::predict` of every pool circuit, same weights.
    pub pool_reference: Vec<Vec<f32>>,
    /// Offline twin of the server's model: same seeded weights.
    pub reference_engine: Engine,
    /// Session over [`ServeState::reference_engine`].
    pub reference_session: InferenceSession,
    next_id: u64,
    next_unique: u64,
    /// Sampled `serve_unique` responses awaiting their check.
    pub sampled: Vec<SampledResponse>,
    /// Mean request line length of the last phase, bytes.
    pub request_bytes_mean: f64,
    /// Digests of the answers to the `serve_unique` priming requests, for
    /// the golden comparison.
    pub prime_digests: Vec<(String, Digest)>,
}

/// The engine every workload serves and predicts with: the default
/// configuration (d = 64, T = 10) from its seeded initialisation, so the
/// weights are the same on every run.
pub fn default_engine() -> Engine {
    Engine::builder()
        .build()
        .expect("the default configuration is valid")
}

/// Prepares a request's circuit offline, the way the server's ingest does.
fn prepare_offline(engine: &Engine, request: &UniqueRequest) -> deepgate::gnn::CircuitGraph {
    let circuits = match request.kind {
        inputs::PayloadKind::Bench => engine.prepare_unlabelled(&BenchText::new(
            request.name.as_str(),
            request.payload.as_str(),
        )),
        inputs::PayloadKind::AigerB64 => {
            let bytes = b64::decode(&request.payload).expect("own base64 decodes");
            engine.prepare_unlabelled(&AigerBytes::new(request.name.as_str(), bytes))
        }
    };
    circuits
        .expect("generated circuits ingest")
        .pop()
        .expect("one circuit per request")
}

/// Prepares a pool circuit offline, the way the server's ingest does.
pub fn prepare_pool_circuit(engine: &Engine, circuit: &PoolCircuit) -> deepgate::gnn::CircuitGraph {
    engine
        .prepare_unlabelled(&BenchText::new(
            circuit.name.as_str(),
            circuit.bench.as_str(),
        ))
        .expect("pool circuits ingest")
        .pop()
        .expect("one circuit per text")
}

impl ServeState {
    /// Cold start to ready-to-measure: engine, server, connections, and
    /// the first answers (`serve_repeat`: every pool circuit once, so the
    /// cache is warm; `serve_unique`: the first requests of the stream).
    pub fn start(traffic: Traffic, seed: u64) -> ServeState {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(default_engine(), config).expect("server starts on loopback");
        let conns = (0..traffic.connections())
            .map(|_| Conn::open(&server))
            .collect();
        let reference_engine = default_engine();
        let reference_session = reference_engine.session();
        let pool = inputs::repeat_pool();
        let pool_reference = pool
            .iter()
            .map(|c| {
                reference_session
                    .predict(&prepare_pool_circuit(&reference_engine, c))
                    .expect("pool circuits predict")
            })
            .collect();
        let mut state = ServeState {
            traffic,
            seed,
            server,
            conns,
            pool,
            pool_reference,
            reference_engine,
            reference_session,
            next_id: 0,
            next_unique: 0,
            sampled: Vec::new(),
            request_bytes_mean: 0.0,
            prime_digests: Vec::new(),
        };
        state.prime();
        state
    }

    fn prime(&mut self) {
        match self.traffic {
            Traffic::Repeat => {
                for index in 0..self.pool.len() {
                    let id = self.next_id;
                    self.next_id += 1;
                    let c = &self.pool[index];
                    let line = inputs::predict_line(id, &c.name, "bench", &c.bench);
                    let conn = &mut self.conns[index % self.traffic.connections()];
                    let probs = conn
                        .round_trip(&line)
                        .and_then(|response| parse_probs(response, id))
                        .expect("priming request answered");
                    assert!(
                        bits_equal(&probs, &self.pool_reference[index]),
                        "served probabilities of {} differ from InferenceSession::predict",
                        c.name
                    );
                }
            }
            Traffic::Unique => {
                for index in 0..UNIQUE_PRIME {
                    let id = self.next_id;
                    self.next_id += 1;
                    let request = inputs::unique_request(PRIME_STREAM_SEED, index);
                    let line = inputs::predict_line(
                        id,
                        &request.name,
                        request.kind.field(),
                        &request.payload,
                    );
                    let conn = &mut self.conns[(index as usize) % self.traffic.connections()];
                    let probs = conn
                        .round_trip(&line)
                        .and_then(|response| parse_probs(response, id))
                        .expect("priming request answered");
                    assert!(probs_in_range(&probs) && !probs.is_empty());
                    self.prime_digests.push((request.name, Digest::of(&probs)));
                }
            }
        }
    }

    /// The traffic kind.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// One registry snapshot of the server.
    pub fn snapshot(&self) -> Snapshot {
        self.server.metrics().snapshot()
    }

    /// Median round trip of `count` `stats` requests on an idle server,
    /// microseconds: the wire + event-loop floor no inference work can
    /// undercut.
    pub fn noop_rtt_us(&mut self, count: usize) -> Vec<f64> {
        let conn = &mut self.conns[0];
        (0..count)
            .filter_map(|_| {
                let start = Instant::now();
                conn.round_trip("{\"id\":0,\"op\":\"stats\"}\n").ok()?;
                Some(start.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    }

    /// Runs the closed loop for `duration`: every connection sends its next
    /// request as soon as the previous answer arrived. With `record` false
    /// the operations are discarded (warm-up). Spans, when the tracer is
    /// enabled, are one `serve.client.request` per round trip.
    pub fn run_phase(&mut self, duration: Duration, record: bool, tracer: &mut Tracer) -> Phase {
        let traffic = self.traffic;
        let seed = self.seed;
        let pool = &self.pool;
        let pool_reference = &self.pool_reference;
        let id_base = self.next_id;
        let unique_base = self.next_unique;
        let epoch = Instant::now();
        let before = ProcSample::now();
        let deadline = epoch + duration;
        let trace_enabled = tracer.enabled();
        let results: Vec<ClientResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || {
                        client_loop(ClientJob {
                            conn,
                            conn_index: c,
                            traffic,
                            seed,
                            pool,
                            pool_reference,
                            id_base,
                            unique_base,
                            epoch,
                            deadline,
                            trace_enabled,
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let after = ProcSample::now();
        let mut phase = Phase {
            cpu_s: after.cpu_s - before.cpu_s,
            involuntary_switches: after
                .involuntary_switches
                .saturating_sub(before.involuntary_switches),
            ..Phase::default()
        };
        let (mut bytes, mut requests) = (0u64, 0u64);
        for result in results {
            self.next_id = self.next_id.max(result.next_id);
            self.next_unique = self.next_unique.max(result.next_unique);
            phase.wall_s = phase.wall_s.max(result.end_s);
            phase.involuntary_switches += result.involuntary_switches;
            bytes += result.request_bytes;
            requests += result.ops.len() as u64;
            if record {
                phase.ops.extend(result.ops);
                for failure in result.failures {
                    if phase.failures.len() < 8 {
                        phase.failures.push(failure);
                    }
                }
                self.sampled.extend(result.sampled);
                tracer.absorb(result.tracer);
            }
        }
        self.request_bytes_mean = bytes as f64 / requests.max(1) as f64;
        phase
    }

    /// Compares every sampled `serve_unique` response with
    /// `InferenceSession::predict` of the same circuit (bit-equal), draining
    /// the samples. Returns `(checked, mismatches)`.
    pub fn verify_sampled(&mut self) -> (usize, usize) {
        let sampled = std::mem::take(&mut self.sampled);
        let mut mismatches = 0;
        for sample in &sampled {
            let graph = prepare_offline(&self.reference_engine, &sample.request);
            let expected = self
                .reference_session
                .predict(&graph)
                .expect("sampled circuits predict");
            if !bits_equal(&sample.probs, &expected) {
                mismatches += 1;
            }
        }
        (sampled.len(), mismatches)
    }

    /// Stops the server: drains, joins every thread.
    pub fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

struct ClientJob<'a> {
    conn: &'a mut Conn,
    conn_index: usize,
    traffic: Traffic,
    seed: u64,
    pool: &'a [PoolCircuit],
    pool_reference: &'a [Vec<f32>],
    id_base: u64,
    unique_base: u64,
    epoch: Instant,
    deadline: Instant,
    trace_enabled: bool,
}

struct ClientResult {
    ops: Vec<OpSample>,
    failures: Vec<String>,
    sampled: Vec<SampledResponse>,
    tracer: Tracer,
    end_s: f64,
    next_id: u64,
    next_unique: u64,
    request_bytes: u64,
    involuntary_switches: u64,
}

fn client_loop(job: ClientJob<'_>) -> ClientResult {
    let mut result = ClientResult {
        ops: Vec::new(),
        failures: Vec::new(),
        sampled: Vec::new(),
        tracer: Tracer::new(job.trace_enabled, job.epoch),
        end_s: 0.0,
        next_id: job.id_base,
        next_unique: job.unique_base,
        request_bytes: 0,
        involuntary_switches: 0,
    };
    // Repeat traffic re-seeds per phase from the phase's first id, so
    // warm-up and measurement draw different stretches of the stream.
    let mut draws = inputs::repeat_stream(job.seed ^ job.id_base, job.conn_index, job.pool.len());
    let stride = job.traffic.connections() as u64;
    let mut k = 0u64;
    while Instant::now() < job.deadline {
        // Ids and unique indices interleave across connections, so no two
        // connections ever send the same one.
        let id = job.id_base + k * stride + job.conn_index as u64;
        let (line, expected, unique) = match job.traffic {
            Traffic::Repeat => {
                let index = draws.next().expect("endless stream");
                let c = &job.pool[index];
                (
                    inputs::predict_line(id, &c.name, "bench", &c.bench),
                    Some(&job.pool_reference[index]),
                    None,
                )
            }
            Traffic::Unique => {
                let index = job.unique_base + k * stride + job.conn_index as u64;
                let request = inputs::unique_request(job.seed, index);
                let line =
                    inputs::predict_line(id, &request.name, request.kind.field(), &request.payload);
                (line, None, Some((index, request)))
            }
        };
        k += 1;
        result.request_bytes += line.len() as u64;
        let start = Instant::now();
        let answer = job
            .conn
            .round_trip(&line)
            .and_then(|response| parse_probs(response, id));
        let end = Instant::now();
        result.tracer.record("serve.client.request", id, start, end);
        let (nodes, ok) = match answer {
            Ok(probs) => {
                let valid = !probs.is_empty()
                    && probs_in_range(&probs)
                    && expected.is_none_or(|reference| bits_equal(&probs, reference));
                if !valid {
                    result
                        .failures
                        .push(format!("request {id}: wrong probabilities"));
                }
                let nodes = probs.len() as u64;
                if let Some((index, request)) = unique {
                    if valid && index % UNIQUE_CHECK_EVERY == 0 {
                        result.sampled.push(SampledResponse { request, probs });
                    }
                }
                (nodes, valid)
            }
            Err(message) => {
                result.failures.push(format!("request {id}: {message}"));
                (0, false)
            }
        };
        result.ops.push(OpSample {
            start_s: start.duration_since(job.epoch).as_secs_f64(),
            seconds: end.duration_since(start).as_secs_f64(),
            nodes,
            ok,
        });
        result.end_s = end.duration_since(job.epoch).as_secs_f64();
    }
    result.next_id = job.id_base + k * stride;
    result.next_unique = job.unique_base + k * stride;
    result.involuntary_switches = thread_involuntary_switches();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_scanner_reads_probs_errors_and_ids() {
        let probs = parse_probs("{\"id\":7,\"probs\":[0.5,0.25,1.0]}", 7).expect("parses");
        assert_eq!(probs, vec![0.5, 0.25, 1.0]);
        assert!(parse_probs("{\"id\":8,\"probs\":[0.5]}", 7).is_err());
        assert!(parse_probs("{\"error\":\"bad request\",\"id\":7}", 7)
            .unwrap_err()
            .contains("server error"));
        assert!(parse_probs("{\"id\":7,\"ok\":true}", 7).is_err());
        assert!(
            probs_in_range(&[0.0, 1.0]) && !probs_in_range(&[1.5]) && !probs_in_range(&[f32::NAN])
        );
        // f32 → shortest f64 text → f32 is the identity the bit-equality
        // check relies on.
        let x = 0.123_456_79_f32;
        let line = format!("{{\"id\":1,\"probs\":[{}]}}", x as f64);
        assert_eq!(
            parse_probs(&line, 1).expect("parses")[0].to_bits(),
            x.to_bits()
        );
    }
}
