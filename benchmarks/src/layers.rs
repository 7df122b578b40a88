//! Per-layer probes: the benchmark timing calls into each crate's public
//! functions from outside, on the workloads' own kinds of input. Every
//! traced run executes the whole suite, so every per-layer metric has a
//! value on every workload.

use crate::delta::{Delta, MissingSeries};
use crate::inputs::{self, PayloadKind, HUGE_DESIGN, INFER_POOL};
use crate::phase::Phase;
use crate::report::Report;
use crate::serve::{self, ServeState, Traffic};
use crate::spans::Tracer;
use crate::stats;
use crate::train::{self, NUM_PATTERNS};
use deepgate::aig::{aiger, opt, Aig};
use deepgate::dataset::labelled_circuit_from_aig;
use deepgate::gnn::{masked_l1_loss, CircuitGraph, ProbabilityModel};
use deepgate::netlist::{bench, Netlist};
use deepgate::nn::{Adam, Graph};
use deepgate::sim::SignalProbability;
use deepgate::telemetry::{Registry, Snapshot};
use deepgate::{
    CircuitSource, Engine, EngineMetrics, InferenceSession, LargeDesignSource, NetlistSource,
    PreparedCircuit,
};
use deepgate_serve::{b64, Scheduler, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `f` as a span and returns its result with its wall seconds.
fn timed<T>(tracer: &mut Tracer, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = tracer.span(name, op, |_| f());
    (value, start.elapsed().as_secs_f64())
}

fn ns_per(seconds: f64, nodes: usize) -> f64 {
    seconds * 1e9 / nodes.max(1) as f64
}

/// Records `result` under `name`, or marks the metric absent when the
/// telemetry series it reads is gone — never a failed run.
fn set_or_absent(report: &mut Report, name: &str, result: Result<f64, MissingSeries>) {
    match result {
        Ok(value) if value.is_finite() => report.set(name, value),
        Ok(_) => report.set_absent(name, "not a finite number (nothing recorded)"),
        Err(missing) => {
            eprintln!("warning: {name}: {missing}");
            report.set_absent(name, missing.to_string());
        }
    }
}

/// Share of cache lookups between two snapshots that hit (text memo or
/// structural fingerprint). Also the validity check of the serve pair.
pub fn cache_hit_share(before: &Snapshot, after: &Snapshot) -> Result<f64, MissingSeries> {
    let delta = Delta { before, after };
    let hits =
        delta.counter("cache_text_hits_total")? + delta.counter("cache_fingerprint_hits_total")?;
    Ok(hits / (hits + delta.counter("cache_misses_total")?).max(1.0))
}

/// The serve-layer metrics of one traffic kind, from the server's own
/// registry as a delta over `phase` plus the client's view of that phase.
pub fn serve_metrics(
    report: &mut Report,
    traffic: Traffic,
    before: &Snapshot,
    after: &Snapshot,
    phase: &Phase,
    request_bytes_mean: f64,
) {
    let delta = Delta { before, after };
    let suffix = traffic.suffix();
    let name = |stem: &str| format!("{stem}.{suffix}");
    let ratio =
        |num: Result<f64, MissingSeries>, den: Result<f64, MissingSeries>| Ok(num? / den?.max(1.0));

    set_or_absent(
        report,
        &name("serve.cache.hit_share"),
        cache_hit_share(before, after),
    );
    set_or_absent(
        report,
        &name("serve.cache.entries"),
        delta.gauge("cache_entries"),
    );

    set_or_absent(
        report,
        &name("serve.scheduler.mean_batch"),
        ratio(
            delta.counter("scheduler_batched_requests_total"),
            delta.counter("scheduler_batches_total"),
        ),
    );
    set_or_absent(
        report,
        &name("serve.scheduler.dedup_share"),
        ratio(
            delta.counter("scheduler_deduplicated_total"),
            delta.counter("scheduler_batched_requests_total"),
        ),
    );
    let ms_p50 = |series: &str| delta.histogram_percentile(series, 0.5).map(|ns| ns / 1e6);
    set_or_absent(
        report,
        &name("serve.scheduler.batch_ms_p50"),
        ms_p50("batch_latency_ns"),
    );

    // Encode and plan never run on a cache hit, so those two stages are
    // reported for unique traffic only.
    let stages: &[&str] = match traffic {
        Traffic::Repeat => &["parse", "infer", "respond"],
        Traffic::Unique => &["parse", "encode", "plan", "infer", "respond"],
    };
    for stage in stages {
        set_or_absent(
            report,
            &name(&format!("serve.server.stage_{stage}_ms_p50")),
            ms_p50(&format!("stage_{stage}_ns")),
        );
    }
    let server_p50 = ms_p50("request_latency_ns");
    set_or_absent(report, &name("serve.server.request_ms_p50"), server_p50);
    // 1 − Σ stage time / Σ request time: what no stage histogram explains.
    let stage_sum = ["parse", "encode", "plan", "infer", "respond"]
        .iter()
        .try_fold(0.0, |acc, stage| {
            Ok(acc + delta.histogram_sum(&format!("stage_{stage}_ns"))?)
        });
    let unattributed = stage_sum.and_then(|stages: f64| {
        Ok(1.0 - stages / delta.histogram_sum("request_latency_ns")?.max(1.0))
    });
    set_or_absent(
        report,
        &name("serve.server.unattributed_share"),
        unattributed,
    );

    // Means, not medians: the registry's sum and count are exact, its
    // percentiles are not, and this difference is a few percent of either.
    let latencies = phase.latencies_ms();
    let client_mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let server_mean = delta
        .histogram_sum("request_latency_ns")
        .and_then(|sum| Ok(sum / delta.histogram_count("request_latency_ns")?.max(1.0) / 1e6));
    set_or_absent(
        report,
        &name("serve.wire.client_minus_server_ms_mean"),
        server_mean.map(|server| client_mean - server),
    );
    report.set(&name("serve.wire.request_bytes_mean"), request_bytes_mean);
    set_or_absent(
        report,
        &name("serve.eventloop.wakeups_per_request"),
        ratio(
            delta.counter("eventloop_wakeups_total"),
            delta.counter("requests_predict_total"),
        ),
    );
    // Highest percentile with at least ten samples beyond it.
    let tail = stats::highest_supported_percentile(latencies.len()).unwrap_or(0.5);
    report.set(
        &name("serve.client.latency_tail_ms"),
        stats::percentile(&latencies, tail),
    );
    report.notes.push(format!(
        "serve.client.latency_tail_ms.{suffix} is {} of {} round trips",
        stats::percentile_label(tail),
        latencies.len()
    ));
}

/// Rejected and failed requests over one phase, for the two count metrics
/// that sum over both traffic kinds.
pub fn scheduler_trouble(before: &Snapshot, after: &Snapshot) -> Trouble {
    let delta = Delta { before, after };
    (
        delta.counter("scheduler_rejected_overloaded_total"),
        delta.counter("scheduler_failed_total"),
    )
}

/// A short burst of one traffic kind against a fresh server, for the
/// traced runs of workloads that do not serve that kind themselves.
/// Returns the rejected/failed counts of the burst.
pub fn serve_burst(
    report: &mut Report,
    traffic: Traffic,
    seed: u64,
    duration: Duration,
) -> Trouble {
    let mut state = ServeState::start(traffic, seed);
    let mut off = Tracer::new(false, Instant::now());
    state.run_phase(duration / 4, false, &mut off);
    let before = state.snapshot();
    let phase = state.run_phase(duration, true, &mut off);
    let after = state.snapshot();
    serve_metrics(
        report,
        traffic,
        &before,
        &after,
        &phase,
        state.request_bytes_mean,
    );
    if phase.failed() > 0 {
        report.check(
            format!("burst.{}", traffic.suffix()),
            false,
            format!(
                "{} of {} burst requests failed",
                phase.failed(),
                phase.attempted()
            ),
        );
    }
    state.stop();
    scheduler_trouble(&before, &after)
}

/// Seconds one circuit spent in each stage of a hand walk.
#[derive(Debug, Default, Clone, Copy)]
struct WalkTimes {
    parse_s: f64,
    read_s: f64,
    from_s: f64,
    opt_s: f64,
    encode_s: f64,
    finger_s: f64,
    plan_s: f64,
}

impl WalkTimes {
    fn add(&mut self, other: &WalkTimes) {
        self.parse_s += other.parse_s;
        self.read_s += other.read_s;
        self.from_s += other.from_s;
        self.opt_s += other.opt_s;
        self.encode_s += other.encode_s;
        self.finger_s += other.finger_s;
        self.plan_s += other.plan_s;
    }
}

/// Walks a netlist by hand through the stages `Engine::prepare_unlabelled`
/// and `InferenceSession::prepare` run — `aig.from_netlist` → `aig.optimize`
/// → `gnn.encode` → `gnn.fingerprint` → `gnn.plan` — one span each.
fn walk_netlist(
    tracer: &mut Tracer,
    op: u64,
    netlist: &Netlist,
    session: &InferenceSession,
) -> (PreparedCircuit, WalkTimes) {
    let mut times = WalkTimes::default();
    let (aig, s) = timed(tracer, "aig.from_netlist", op, || {
        Aig::from_netlist(netlist).expect("generated netlists map")
    });
    times.from_s = s;
    let (aig, s) = timed(tracer, "aig.optimize", op, || opt::optimize(&aig, 2));
    times.opt_s = s;
    let ((graph, _), s) = timed(tracer, "gnn.encode", op, || CircuitGraph::from_aig(&aig));
    times.encode_s = s;
    drop(aig);
    let (_, s) = timed(tracer, "gnn.fingerprint", op, || graph.fingerprint());
    times.finger_s = s;
    let (prepared, s) = timed(tracer, "gnn.plan", op, || session.prepare(graph));
    times.plan_s = s;
    (prepared, times)
}

/// Walks one request payload through the server's miss path by hand:
/// its parser (`netlist.parse_bench` or `aig.aiger_read`), then
/// [`walk_netlist`].
fn hand_walk(
    tracer: &mut Tracer,
    op: u64,
    request: &inputs::UniqueRequest,
    session: &InferenceSession,
) -> (Netlist, PreparedCircuit, WalkTimes) {
    let (mut parse_s, mut read_s) = (0.0, 0.0);
    let netlist = match request.kind {
        PayloadKind::Bench => {
            let (netlist, s) = timed(tracer, "netlist.parse_bench", op, || {
                bench::parse(&request.payload, request.name.as_str()).expect("own BENCH parses")
            });
            parse_s = s;
            netlist
        }
        PayloadKind::AigerB64 => {
            let bytes = b64::decode(&request.payload).expect("own base64 decodes");
            let (aig, s) = timed(tracer, "aig.aiger_read", op, || {
                aiger::parse_auto(&bytes, request.name.as_str()).expect("own AIGER parses")
            });
            read_s = s;
            aig.to_netlist()
        }
    };
    let (prepared, mut times) = walk_netlist(tracer, op, &netlist, session);
    times.parse_s = parse_s;
    times.read_s = read_s;
    (netlist, prepared, times)
}

/// After a traced serve phase: sampled payloads of the workload's own
/// traffic walked by hand through the stages the server runs on a miss,
/// as child spans of one `serve.replay` root each, so the trace shows where
/// a request's time goes layer by layer. Up to 200 payloads, 2 s.
pub fn replay_misses(tracer: &mut Tracer, state: &ServeState, seed: u64) {
    const PAYLOADS: u64 = 200;
    const BUDGET: Duration = Duration::from_secs(2);
    let started = Instant::now();
    let session = &state.reference_session;
    let mut draws = inputs::repeat_stream(seed ^ 0x004E_91A7, 0, state.pool.len());
    let mut out = Vec::new();
    for i in 0..PAYLOADS {
        if started.elapsed() > BUDGET {
            break;
        }
        let op = 2_000_000 + i;
        let request = match state.traffic() {
            Traffic::Repeat => {
                let c = &state.pool[draws.next().expect("endless stream")];
                inputs::UniqueRequest {
                    name: c.name.clone(),
                    kind: PayloadKind::Bench,
                    payload: c.bench.clone(),
                }
            }
            Traffic::Unique => inputs::unique_request(seed, 3_000_000 + i),
        };
        tracer.span("serve.replay", op, |t| {
            let (_, prepared, _) = hand_walk(t, op, &request, session);
            t.span("gnn.kernel", op, |_| {
                session
                    .predict_into(&prepared, &mut out)
                    .expect("replayed circuits predict")
            });
        });
    }
}

/// An engine whose telemetry is attached to a registry of its own, for the
/// probes that read the program's kernel series.
pub fn metered_engine() -> (Registry, Engine) {
    let registry = Registry::new();
    let engine = Engine::builder()
        .metrics(Arc::new(EngineMetrics::registered(&registry)))
        .build()
        .expect("the default configuration is valid");
    (registry, engine)
}

/// Floating-point operations of one prediction, **computed** from the
/// model's dimensions and the circuit's node and edge counts (not
/// measured): per direction and iteration, attention costs ~6·d per edge
/// and the GRU 6·d·(d_in + d) + 10·d per node; the regressor 2·(d·h + h)
/// per node once.
fn computed_flops(engine: &Engine, graph: &CircuitGraph) -> f64 {
    let config = engine.model_config();
    let d = config.hidden_dim as f64;
    let d_in = d + config.feature_dim as f64;
    let h = config.regressor_hidden as f64;
    let directions = if config.reverse_layer { 2.0 } else { 1.0 };
    let edges = (graph.edges.len() + graph.skip_edges.len()) as f64;
    let nodes = graph.num_nodes as f64;
    let per_pass = 6.0 * d * edges + nodes * (6.0 * d * (d_in + d) + 10.0 * d);
    config.num_iterations as f64 * directions * per_pass + nodes * 2.0 * (d * h + h)
}

/// Rejected and failed request counts of a phase, or the series that is gone.
pub type Trouble = (Result<f64, MissingSeries>, Result<f64, MissingSeries>);

/// The probe suite. `seed` picks the sample circuits; `own` is the serve
/// traffic the workload's own phase already reported, with that phase's
/// rejected/failed counts, if the workload serves.
pub fn run_probes(
    report: &mut Report,
    tracer: &mut Tracer,
    seed: u64,
    own: Option<(Traffic, Trouble)>,
) {
    let engine = serve::default_engine();
    let session = engine.session();
    let mut op = 1_000_000u64;
    let mut next_op = || {
        op += 1;
        op
    };

    // ---- netlist / aig / gnn ingest on serve_unique-sized circuits -------
    const SAMPLE: u64 = 32;
    let mut total = WalkTimes::default();
    let (mut parse_nodes, mut read_nodes, mut sample_nodes) = (0usize, 0usize, 0usize);
    let mut unlabelled_s = 0.0;
    for i in 0..SAMPLE {
        let request = inputs::unique_request(seed, 1_000_000 + i);
        let id = next_op();
        let (netlist, prepared, times) = hand_walk(tracer, id, &request, &session);
        total.add(&times);
        let source = NetlistSource::new(vec![netlist]);
        let (_, s) = timed(tracer, "engine.prepare_unlabelled", id, || {
            engine.prepare_unlabelled(&source).expect("netlists ingest")
        });
        unlabelled_s += s;
        let nodes = prepared.circuit().num_nodes;
        match request.kind {
            PayloadKind::Bench => parse_nodes += nodes,
            PayloadKind::AigerB64 => read_nodes += nodes,
        }
        sample_nodes += nodes;
    }
    let WalkTimes {
        parse_s,
        read_s,
        from_s,
        opt_s,
        encode_s,
        finger_s,
        plan_s,
    } = total;
    report.set(
        "netlist.parse_bench.ns_per_node",
        ns_per(parse_s, parse_nodes),
    );
    report.set("aig.aiger_read.ns_per_node", ns_per(read_s, read_nodes));
    report.set("aig.from_netlist.ns_per_node", ns_per(from_s, sample_nodes));
    report.set("aig.optimize.ns_per_node", ns_per(opt_s, sample_nodes));
    report.set("gnn.encode.ns_per_node", ns_per(encode_s, sample_nodes));
    report.set(
        "gnn.fingerprint.ns_per_node",
        ns_per(finger_s, sample_nodes),
    );
    report.set("gnn.plan.ns_per_node", ns_per(plan_s, sample_nodes));
    report.set(
        "engine.prepare_unlabelled.ns_per_node",
        ns_per(unlabelled_s, sample_nodes),
    );
    report.set(
        "engine.prepare_unlabelled.self_share",
        1.0 - (from_s + opt_s + encode_s) / unlabelled_s.max(1e-12),
    );

    // ---- the same stages at 10^5 nodes, then the kernel on the result ----
    let id = next_op();
    let (netlist, generate_s) = timed(tracer, "dataset.generate", id, || {
        HUGE_DESIGN.design.generate(HUGE_DESIGN.scale)
    });
    let (huge, huge_times) = walk_netlist(tracer, id, &netlist, &session);
    drop(netlist);
    let huge_nodes = huge.circuit().num_nodes;
    let mut out = Vec::new();
    let (_, kernel_100k) = timed(tracer, "gnn.kernel", id, || {
        session
            .predict_into(&huge, &mut out)
            .expect("the 10^5-node design predicts")
    });
    report.check(
        "probe.huge_design_output",
        out.len() == huge_nodes && serve::probs_in_range(&out),
        format!("{huge_nodes} nodes"),
    );
    drop(huge);
    report.set(
        "dataset.generate.ns_per_node",
        ns_per(generate_s, huge_nodes),
    );
    report.set(
        "aig.from_netlist.ns_per_node_100k",
        ns_per(huge_times.from_s, huge_nodes),
    );
    report.set(
        "aig.optimize.ns_per_node_100k",
        ns_per(huge_times.opt_s, huge_nodes),
    );
    report.set(
        "gnn.encode.ns_per_node_100k",
        ns_per(huge_times.encode_s, huge_nodes),
    );
    report.set(
        "gnn.kernel.ns_per_node_100k",
        ns_per(kernel_100k, huge_nodes),
    );

    // ---- the kernel at 5k nodes, metered for its two internal shares ------
    let (registry, metered_engine) = metered_engine();
    let metered = metered_engine.session();
    let mid_spec = INFER_POOL[1];
    let mid_graph = engine
        .prepare_unlabelled(&LargeDesignSource::new(mid_spec.design, mid_spec.scale))
        .expect("generated designs ingest")
        .pop()
        .expect("one design");
    let mid_nodes = mid_graph.num_nodes;
    let mid_flops = computed_flops(&engine, &mid_graph);
    let mid = session.prepare(mid_graph.clone());
    let kernel_times: Vec<f64> = (0..3)
        .map(|_| {
            timed(tracer, "gnn.kernel", next_op(), || {
                session
                    .predict_into(&mid, &mut out)
                    .expect("80386 predicts")
            })
            .1
        })
        .collect();
    let kernel_s = stats::median(&kernel_times);
    report.set("gnn.kernel.ns_per_node", ns_per(kernel_s, mid_nodes));
    report.set(
        "gnn.kernel.computed_flops_per_node",
        mid_flops / mid_nodes as f64,
    );
    report.set("gnn.kernel.achieved_gflops", mid_flops / kernel_s / 1e9);
    let mid_metered = metered.prepare(mid_graph.clone());
    let before = registry.snapshot();
    metered
        .predict_into(&mid_metered, &mut out)
        .expect("80386 predicts");
    let after = registry.snapshot();
    let delta = Delta {
        before: &before,
        after: &after,
    };
    let predict_ns = delta.histogram_sum("engine_predict_ns");
    for (metric, series) in [
        ("gnn.kernel.level_agg_share", "gnn_level_agg_ns"),
        ("gnn.kernel.regress_share", "gnn_regress_ns"),
    ] {
        let share = delta
            .histogram_sum(series)
            .and_then(|part| Ok(part / predict_ns.clone()?.max(1.0)));
        set_or_absent(report, metric, share);
    }

    // ---- the legacy embedding path (moves no gated metric) ---------------
    let (_, embed_s) = timed(tracer, "gnn.embed", next_op(), || {
        engine.embeddings(&mid_graph).expect("80386 embeds")
    });
    report.set("gnn.embed.ns_per_node", ns_per(embed_s, mid_nodes));

    // ---- small circuits: per-level cost, fusion, batching ----------------
    let pool = inputs::repeat_pool();
    let pool_graphs: Vec<CircuitGraph> = pool
        .iter()
        .map(|c| serve::prepare_pool_circuit(&engine, c))
        .collect();
    let pool_nodes: usize = pool_graphs.iter().map(|g| g.num_nodes).sum();
    let pool_levels: usize = pool_graphs.iter().map(|g| g.max_level).sum();
    let prepared: Vec<_> = pool_graphs
        .iter()
        .map(|g| Arc::new(session.prepare(g.clone())))
        .collect();
    let mut sequential = Vec::new();
    let mut batched = Vec::new();
    let mut fuse = Vec::new();
    let mut bare_ms: Vec<f64> = Vec::new();
    for round in 0..3 {
        let (_, s) = timed(tracer, "gnn.kernel", next_op(), || {
            for p in &prepared {
                let start = Instant::now();
                session.predict_into(p, &mut out).expect("pool predicts");
                if round > 0 {
                    bare_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
        });
        sequential.push(s);
        let (_, s) = timed(tracer, "gnn.fuse", next_op(), || {
            session.prepare_batch(&pool_graphs).expect("pool fuses")
        });
        fuse.push(s);
        let (_, s) = timed(tracer, "engine.session.predict_batch", next_op(), || {
            session
                .predict_batch(&pool_graphs)
                .expect("pool predicts as a batch")
        });
        batched.push(s);
    }
    let iterations = engine.model_config().num_iterations;
    report.set(
        "gnn.kernel.us_per_level",
        stats::median(&sequential) * 1e6 / (pool_levels * iterations).max(1) as f64,
    );
    report.set(
        "gnn.fuse.ns_per_node",
        ns_per(stats::median(&fuse), pool_nodes),
    );
    report.set(
        "engine.session.batch_speedup",
        stats::median(&sequential) / stats::median(&batched).max(1e-12),
    );

    // ---- scheduler overhead: direct Scheduler::predict minus bare kernel --
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    match Scheduler::new(engine.session(), &config) {
        Ok(scheduler) => {
            let mut direct_ms = Vec::new();
            for round in 0..3 {
                for p in &prepared {
                    let (result, s) = timed(tracer, "serve.scheduler.predict", next_op(), || {
                        scheduler.predict(Arc::clone(p))
                    });
                    if round > 0 && result.is_ok() {
                        direct_ms.push(s * 1e3);
                    }
                }
            }
            scheduler.shutdown();
            report.set(
                "serve.scheduler.overhead_ms_p50",
                stats::median(&direct_ms) - stats::median(&bare_ms),
            );
        }
        Err(e) => report.set_absent("serve.scheduler.overhead_ms_p50", e.to_string()),
    }

    // ---- training path: tape forward, backward, optimiser step -----------
    let mut train_engine = Engine::builder()
        .num_patterns(NUM_PATTERNS)
        .trainer(deepgate::core::TrainerConfig {
            epochs: 1,
            ..Default::default()
        })
        .build()
        .expect("the default configuration is valid");
    let (train_netlists, _) = timed(tracer, "dataset.generate", next_op(), || {
        train::train_source()
            .netlists()
            .expect("suite designs generate")
    });
    let aigs: Vec<Aig> = train_netlists
        .iter()
        .map(|n| opt::optimize(&Aig::from_netlist(n).expect("suite designs map"), 2))
        .collect();
    let (simulated, sim_s) = timed(tracer, "sim.simulate", next_op(), || {
        aigs.iter()
            .map(|aig| SignalProbability::simulate(aig, NUM_PATTERNS, seed).expect("simulates"))
            .collect::<Vec<_>>()
    });
    let sim_nodes: usize = simulated.iter().map(SignalProbability::len).sum();
    report.set("sim.simulate.ns_per_node", ns_per(sim_s, sim_nodes));
    let (labelled, label_s) = timed(tracer, "dataset.label", next_op(), || {
        aigs.iter()
            .map(|aig| labelled_circuit_from_aig(aig, NUM_PATTERNS, seed).expect("labels"))
            .collect::<Vec<CircuitGraph>>()
    });
    let set_nodes: usize = labelled.iter().map(|g| g.num_nodes).sum();
    report.set("dataset.label.ns_per_node", ns_per(label_s, set_nodes));
    let prepare_times: Vec<f64> = (0..3)
        .map(|_| {
            timed(tracer, "engine.prepare", next_op(), || {
                train_engine
                    .prepare(&train::train_source())
                    .expect("prepares")
            })
            .1
        })
        .collect();
    report.set(
        "engine.prepare.ns_per_node",
        ns_per(stats::median(&prepare_times), set_nodes),
    );
    let build_times: Vec<f64> = (0..5)
        .map(|_| timed(tracer, "engine.build", next_op(), serve::default_engine).1 * 1e3)
        .collect();
    report.set("engine.build.ms", stats::median(&build_times));

    // A hand-rolled epoch on a copy of the weights: the steps
    // `Trainer::train` performs, timed one by one. An untimed epoch first,
    // so neither side of the comparison pays the first touch of the tape's
    // half gigabyte.
    train_engine.train(&labelled, &[]).expect("trains");
    let grad_clip = train_engine.trainer_config().grad_clip;
    let model = train_engine.model();
    let mut store = model.store().clone();
    let mut adam = Adam::with_defaults(train_engine.trainer_config().learning_rate);
    let (mut forward_s, mut backward_s, mut step_s, mut vars) = (0.0, 0.0, 0.0, 0usize);
    let hand_id = next_op();
    let (_, hand_epoch_s) = timed(tracer, "core.trainer.hand_rolled_epoch", hand_id, || {
        for circuit in &labelled {
            let mut tape = Graph::new();
            let start = Instant::now();
            let pred = model
                .try_forward(&mut tape, &store, circuit)
                .expect("labelled circuits match the model");
            forward_s += start.elapsed().as_secs_f64();
            let loss = masked_l1_loss(&mut tape, pred, circuit).expect("circuits are labelled");
            vars += tape.len();
            let start = Instant::now();
            tape.backward(loss, &mut store);
            backward_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            store.clip_grad_norm(grad_clip);
            adam.step(&mut store);
            store.zero_grad();
            step_s += start.elapsed().as_secs_f64();
        }
    });
    report.set("gnn.tape_forward.ns_per_node", ns_per(forward_s, set_nodes));
    report.set("nn.backward.ns_per_node", ns_per(backward_s, set_nodes));
    report.set(
        "nn.optim_step.us_per_step",
        step_s * 1e6 / labelled.len().max(1) as f64,
    );
    report.set(
        "nn.tape.vars_per_node",
        vars as f64 / set_nodes.max(1) as f64,
    );
    report.notes.push(format!(
        "hand-rolled epoch {:.1} ms = forward {:.1} + backward {:.1} + step {:.1} + rest",
        hand_epoch_s * 1e3,
        forward_s * 1e3,
        backward_s * 1e3,
        step_s * 1e3
    ));
    let (_, epoch_s) = timed(tracer, "engine.train", next_op(), || {
        train_engine.train(&labelled, &[]).expect("trains")
    });
    report.set(
        "core.trainer.self_share",
        1.0 - (forward_s + backward_s + step_s) / epoch_s.max(1e-12),
    );
    let eval_graph = labelled_circuit_from_aig(
        &opt::optimize(
            &Aig::from_netlist(&INFER_POOL[0].design.generate(INFER_POOL[0].scale))
                .expect("arbiter maps"),
            2,
        ),
        NUM_PATTERNS,
        seed,
    )
    .expect("labels");
    let (_, eval_s) = timed(tracer, "core.evaluate", next_op(), || {
        train_engine
            .evaluate(std::slice::from_ref(&eval_graph))
            .expect("evaluates")
    });
    report.set(
        "core.evaluate.ns_per_node",
        ns_per(eval_s, eval_graph.num_nodes),
    );

    // ---- serve layers: the traffic kind(s) the workload did not run ------
    let burst = Duration::from_millis(1500);
    let own_traffic = own.as_ref().map(|(traffic, _)| *traffic);
    let (mut rejected, mut failed) = own.map_or((Ok(0.0), Ok(0.0)), |(_, trouble)| trouble);
    for traffic in [Traffic::Repeat, Traffic::Unique] {
        if own_traffic == Some(traffic) {
            continue;
        }
        let (r, f) = serve_burst(report, traffic, seed ^ 0xB0_0057, burst);
        rejected = rejected.and_then(|sum: f64| Ok(sum + r?));
        failed = failed.and_then(|sum: f64| Ok(sum + f?));
    }
    set_or_absent(report, "serve.scheduler.rejected", rejected);
    set_or_absent(report, "serve.scheduler.failed", failed);

    // Wire floor: `stats` round trips on an idle server.
    let mut idle = ServeState::start(Traffic::Repeat, seed);
    let rtts = idle.noop_rtt_us(300);
    report.set(
        "serve.wire.noop_rtt_us_p50",
        stats::median(&rtts[rtts.len().min(50)..]),
    );
    idle.stop();
}
