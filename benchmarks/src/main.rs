//! `deepgate-benchmarks` — the repo benchmark. One binary, four workloads,
//! five gated end-to-end metrics, per-layer probes measured from outside.
//!
//! ```text
//! deepgate-benchmarks --workload <name> --seed <u64> [--seconds 20] [--trace 0|1]
//! deepgate-benchmarks --all [--seed 1] [--seconds 20] [--trace 0|1]
//! deepgate-benchmarks --aa <n> [--workload <name>] [--seconds 20]
//! deepgate-benchmarks --workload <name> --write-golden
//! ```
//!
//! See `benchmarks/README.md` for what each workload and metric means.
#![forbid(unsafe_code)]

mod aa;
mod checks;
mod delta;
mod infer;
mod inputs;
mod layers;
mod phase;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use checks::{Digest, Observed, GOLDEN_SEED};
use phase::Phase;
use report::{Report, WORKLOADS};
use serve::Traffic;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Run length when `--seconds` is not given: the `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

/// Untimed traffic before a measured serve phase, so the scheduler, the
/// sockets and the allocator are in steady state.
const SERVE_WARMUP: Duration = Duration::from_secs(2);

/// Untimed epochs before the measured training phase (the first epoch pays
/// first-touch costs and is ~1.5× slower).
const TRAIN_WARMUP_EPOCHS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
    aa: Option<usize>,
    write_golden: bool,
    manifest: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: deepgate-benchmarks --workload <{}> --seed <u64> [--seconds {DEFAULT_SECONDS}] [--trace 0|1]\n       \
         deepgate-benchmarks --all [--seed <u64>] [--seconds N] [--trace 0|1]\n       \
         deepgate-benchmarks --aa <n> [--workload <name>] [--seconds N]\n       \
         deepgate-benchmarks (--workload <name> | --all) --write-golden\n       \
         deepgate-benchmarks --benchmark-json   (prints the BENCHMARK.json this binary implements)",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        all: false,
        aa: None,
        write_golden: false,
        manifest: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs {what}"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if options.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--aa" => {
                let n: usize = value("a pair count")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                if n == 0 {
                    return Err("--aa needs at least one pair".into());
                }
                options.aa = Some(n);
            }
            "--all" => options.all = true,
            "--benchmark-json" => options.manifest = true,
            "--write-golden" => options.write_golden = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if let Some(name) = &options.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload `{name}`\n{}", usage()));
        }
    }
    if options.workload.is_none() && !options.all && options.aa.is_none() && !options.manifest {
        return Err(usage());
    }
    if options.write_golden {
        options.seed = GOLDEN_SEED;
    }
    Ok(options)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if options.manifest {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(pairs) = options.aa {
        return aa::run(pairs, options.workload.as_deref(), options.seconds);
    }
    if options.all {
        return aa::run_all(&options);
    }
    let workload = options.workload.clone().expect("checked by parse_args");
    let report = run_workload(&workload, &options, process_start);
    let header = format!(
        "workload {workload} seed {} seconds {} trace {} threads {}",
        options.seed,
        options.seconds,
        u8::from(options.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    print!("{}", report.render_text(&header));
    println!("{}", report.render_json(options.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The output directory for traces, inside the benchmark's own directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Fills the four phase-derived end-to-end metrics (everything but
/// `setup_s`) and the operation counts.
fn set_end_to_end(report: &mut Report, phase: &Phase, limit_s: impl Fn(u64) -> f64) {
    report.attempted = phase.attempted();
    report.failed = phase.failed();
    let latencies = phase.latencies_ms();
    report.set("throughput_nodes_s", phase.throughput_nodes_s());
    report.set("latency_p50_ms", stats::percentile(&latencies, 0.5));
    report.set("within_limit_share", phase.within_limit_share(limit_s));
    report.set("peak_rss_mb", phase::peak_rss_mib());
    report.notes.push(format!(
        "latency_p50_ms is the median of {} operations over {:.2} s",
        latencies.len(),
        phase.wall_s
    ));
    if let Some(tail) = stats::highest_supported_percentile(latencies.len()) {
        report.notes.push(format!(
            "latency {} {:.3} ms (highest percentile with ten samples beyond it), max {:.3} ms",
            stats::percentile_label(tail),
            stats::percentile(&latencies, tail),
            latencies.last().copied().unwrap_or(0.0)
        ));
    }
    // The in-run noise picture: a host stall shows as a dip in one window.
    let windows: Vec<String> = phase
        .window_rates((phase.wall_s / 10.0).max(1.0))
        .iter()
        .map(|rate| format!("{rate:.0}"))
        .collect();
    report.notes.push(format!(
        "throughput per tenth of the phase, nodes/s: {}",
        windows.join(" ")
    ));
    for failure in &phase.failures {
        report.notes.push(format!("failure: {failure}"));
    }
}

/// Fills the per-layer metrics that describe the traced workload itself.
fn set_run_metrics(report: &mut Report, phase: &Phase, overhead_share: f64) {
    let latencies = phase.latencies_ms();
    report.set("run.latency_p90_ms", stats::percentile(&latencies, 0.9));
    let window_s = (phase.wall_s / 10.0).max(1.0);
    report.set(
        "run.throughput_cv",
        stats::coefficient_of_variation(&phase.window_rates(window_s)),
    );
    report.set(
        "process.cpu_s_per_mnode",
        phase.cpu_s / (phase.nodes_ok().max(1) as f64 / 1e6),
    );
    report.set(
        "process.involuntary_ctx_switches_per_op",
        phase.involuntary_switches as f64 / phase.attempted().max(1) as f64,
    );
    report.set("telemetry.trace_overhead_share", overhead_share);
}

/// Merges the operations of several phase segments into one phase.
fn merge(segments: Vec<Phase>) -> Phase {
    let mut merged = Phase::default();
    for segment in segments {
        let offset = merged.wall_s;
        merged.ops.extend(segment.ops.into_iter().map(|mut op| {
            op.start_s += offset;
            op
        }));
        merged.wall_s += segment.wall_s;
        merged.cpu_s += segment.cpu_s;
        merged.involuntary_switches += segment.involuntary_switches;
        merged.failures.extend(segment.failures);
    }
    merged
}

/// Runs a traced run's phase as alternating untraced/traced segments of
/// the same length and returns all operations plus the share of throughput
/// tracing cost: `1 − traced / untraced`.
fn traced_segments(
    total: Duration,
    tracer: &mut Tracer,
    mut run: impl FnMut(Duration, &mut Tracer) -> Phase,
) -> (Phase, f64) {
    const SEGMENTS: u32 = 8;
    let mut off = Tracer::new(false, Instant::now());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for segment in 0..SEGMENTS {
        if segment % 2 == 0 {
            plain.push(run(total / SEGMENTS, &mut off));
        } else {
            traced.push(run(total / SEGMENTS, tracer));
        }
    }
    let rate = |phases: &[Phase]| {
        let nodes: u64 = phases.iter().map(Phase::nodes_ok).sum();
        let wall: f64 = phases.iter().map(|p| p.wall_s).sum();
        nodes as f64 / wall.max(1e-9)
    };
    let overhead = 1.0 - rate(&traced) / rate(&plain).max(1e-9);
    // Interleave back into run order.
    let mut ordered = Vec::new();
    let (mut plain, mut traced) = (plain.into_iter(), traced.into_iter());
    while let (Some(p), Some(t)) = (plain.next(), traced.next()) {
        ordered.push(p);
        ordered.push(t);
    }
    (merge(ordered), overhead)
}

fn write_trace(report: &mut Report, workload: &str, seed: u64, tracer: &Tracer) {
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(workload, seed, tracer.spans())));
    match written {
        Ok(()) => {
            report.notes.push(format!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ));
            for (name, (count, total, own)) in spans::totals_by_name(tracer.spans()) {
                report.notes.push(format!(
                    "span {name}: {count} × total {:.1} ms, self {:.1} ms",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                ));
            }
        }
        Err(e) => report.check("trace.written", false, format!("{}: {e}", path.display())),
    }
}

fn golden(report: &mut Report, workload: &str, options: &Options, observed: &Observed) {
    if options.write_golden {
        match checks::write_golden(workload, observed) {
            Ok(()) => report.notes.push(format!(
                "golden: wrote {} labels to {}",
                observed.digests.len() + observed.scalars.len(),
                checks::golden_path().display()
            )),
            Err(e) => report.check("golden.written", false, e.to_string()),
        }
        return;
    }
    let (compared, wrong) = checks::compare_with_golden(workload, observed);
    report.check(
        "golden",
        wrong.is_empty(),
        format!("{compared} labels compared; mismatches: {wrong:?}"),
    );
}

fn run_workload(workload: &str, options: &Options, process_start: Instant) -> Report {
    match workload {
        "serve_repeat" => run_serve(Traffic::Repeat, workload, options, process_start),
        "serve_unique" => run_serve(Traffic::Unique, workload, options, process_start),
        "infer_large" => run_infer(workload, options, process_start),
        "train_epoch" => run_train(workload, options, process_start),
        other => unreachable!("parse_args admitted unknown workload {other}"),
    }
}

fn run_serve(
    traffic: Traffic,
    workload: &str,
    options: &Options,
    process_start: Instant,
) -> Report {
    let mut report = Report::default();
    let seed = options.seed;
    let (mut state, setup_s, repeats) =
        phase::measure_setup(process_start, || serve::ServeState::start(traffic, seed));
    report
        .notes
        .push(format!("setup_s is the median of {repeats} cold set-ups"));
    let mut off = Tracer::new(false, Instant::now());
    state.run_phase(SERVE_WARMUP, false, &mut off);
    let measured = Duration::from_secs(options.seconds);
    let mut tracer = Tracer::new(options.trace, Instant::now());

    let before = state.snapshot();
    let (phase, overhead) = if options.trace {
        traced_segments(measured / 2, &mut tracer, |d, t| {
            state.run_phase(d, true, t)
        })
    } else {
        (state.run_phase(measured, true, &mut off), 0.0)
    };
    let after = state.snapshot();

    set_end_to_end(&mut report, &phase, |_| traffic.limit_s());
    report.set("setup_s", setup_s);

    // Validity: the pair of workloads only means something if one really
    // reads the cache and the other really misses it.
    match (traffic, layers::cache_hit_share(&before, &after)) {
        (_, Err(missing)) => report
            .notes
            .push(format!("cache hit share unavailable: {missing}")),
        (Traffic::Repeat, Ok(share)) => {
            report.check(
                "cache.hit_share>=0.99",
                share >= 0.99,
                format!("{share:.4}"),
            );
        }
        (Traffic::Unique, Ok(share)) => {
            report.check(
                "cache.hit_share<=0.01",
                share <= 0.01,
                format!("{share:.4}"),
            );
        }
    }
    let (checked, mismatches) = state.verify_sampled();
    if traffic == Traffic::Unique {
        report.check(
            "served==InferenceSession::predict",
            mismatches == 0 && checked > 0,
            format!("{checked} sampled responses (1 in 16), {mismatches} differ"),
        );
    } else {
        report.check(
            "served==InferenceSession::predict",
            phase.failed() == 0,
            format!(
                "every response compared bit for bit with the offline prediction of its circuit ({} pool circuits)",
                state.pool.len()
            ),
        );
    }
    let small = state
        .pool
        .iter()
        .map(|c| serve::prepare_pool_circuit(&state.reference_engine, c))
        .find(|g| g.num_nodes <= 300)
        .expect("the pool has circuits under 300 nodes");
    kernel_vs_tape_check(
        &mut report,
        &state.reference_engine,
        &state.reference_session,
        &small,
    );

    let mut observed = Observed::default();
    match traffic {
        Traffic::Repeat => {
            for (c, probs) in state.pool.iter().zip(&state.pool_reference) {
                observed.digests.insert(c.name.clone(), Digest::of(probs));
            }
        }
        Traffic::Unique => observed.digests.extend(state.prime_digests.iter().cloned()),
    }
    golden(&mut report, workload, options, &observed);

    if options.trace {
        layers::replay_misses(&mut tracer, &state, seed);
        set_run_metrics(&mut report, &phase, overhead);
        layers::serve_metrics(
            &mut report,
            traffic,
            &before,
            &after,
            &phase,
            state.request_bytes_mean,
        );
        let trouble = layers::scheduler_trouble(&before, &after);
        state.stop();
        layers::run_probes(&mut report, &mut tracer, seed, Some((traffic, trouble)));
        write_trace(&mut report, workload, seed, &tracer);
    } else {
        state.stop();
    }
    report
}

fn kernel_vs_tape_check(
    report: &mut Report,
    engine: &deepgate::Engine,
    session: &deepgate::InferenceSession,
    circuit: &deepgate::gnn::CircuitGraph,
) {
    match checks::kernel_vs_tape(engine, session, circuit) {
        Ok(diff) => report.check(
            "kernel==tape(1e-5)",
            diff <= 1e-5,
            format!(
                "max |kernel − try_forward| = {diff:.2e} on {} ({} nodes)",
                circuit.name, circuit.num_nodes
            ),
        ),
        Err(e) => report.check("kernel==tape(1e-5)", false, e),
    }
}

fn run_infer(workload: &str, options: &Options, process_start: Instant) -> Report {
    let mut report = Report::default();
    let seed = options.seed;
    let (mut state, setup_s, repeats) =
        phase::measure_setup(process_start, || infer::InferState::start(seed));
    report.notes.push(format!(
        "setup_s is the median of {repeats} cold set-up(s); pool {} nodes per cycle + {} ({} nodes) ingested and planned",
        state.pool_nodes(),
        inputs::HUGE_DESIGN.name,
        state.huge.circuit().num_nodes
    ));
    let outputs_fine = state.warm_up();
    report.check(
        "outputs.finite_in_range_right_length",
        outputs_fine,
        format!("{} designs", state.pool.len()),
    );
    let measured = Duration::from_secs(options.seconds);
    let mut tracer = Tracer::new(options.trace, Instant::now());
    let (phase, overhead) = if options.trace {
        traced_segments(measured / 2, &mut tracer, |d, t| state.run_phase(d, t))
    } else {
        let mut off = Tracer::new(false, Instant::now());
        (state.run_phase(measured, &mut off), 0.0)
    };
    set_end_to_end(&mut report, &phase, infer::limit_s);
    report.set("setup_s", setup_s);
    report.check(
        "outputs.repeatable",
        phase.failed() == 0,
        "every prediction bit-equal to the first prediction of its design",
    );

    let small = serve::prepare_pool_circuit(&state.engine, &inputs::repeat_pool()[0]);
    kernel_vs_tape_check(&mut report, &state.engine, &state.session, &small);

    let mut observed = Observed::default();
    for design in &state.pool {
        observed
            .digests
            .insert(design.spec.name.to_string(), Digest::of(&design.reference));
    }
    golden(&mut report, workload, options, &observed);

    if options.trace {
        set_run_metrics(&mut report, &phase, overhead);
        kernel_attribution(&mut report, &mut tracer, &state);
        drop(state);
        layers::run_probes(&mut report, &mut tracer, seed, None);
        write_trace(&mut report, workload, seed, &tracer);
    }
    report
}

/// How much of an `infer_large` operation is the kernel: a pass over the
/// three smallest designs through a session whose telemetry is attached,
/// comparing the program's own `engine_predict_ns` (recorded around the
/// kernel call only) with the operation time seen from outside.
fn kernel_attribution(report: &mut Report, tracer: &mut Tracer, state: &infer::InferState) {
    let (registry, engine) = layers::metered_engine();
    let session = engine.session();
    let mut out = Vec::new();
    let mut outside_ns = 0.0;
    for (i, design) in state.pool.iter().take(3).enumerate() {
        let prepared = session.prepare(design.prepared.circuit().clone());
        let start = Instant::now();
        tracer.span("engine.session.predict_into", 4_000_000 + i as u64, |_| {
            session
                .predict_into(&prepared, &mut out)
                .expect("pool designs predict")
        });
        outside_ns += start.elapsed().as_nanos() as f64;
    }
    let snapshot = registry.snapshot();
    match snapshot.histogram("engine_predict_ns") {
        Some(kernel) if kernel.count > 0 => {
            let share = kernel.sum as f64 / outside_ns.max(1.0);
            report.check(
                "kernel_share_of_operation>=0.9",
                share >= 0.9,
                format!(
                    "engine_predict_ns covers {:.2} % of predict_into on 3 designs",
                    share * 100.0
                ),
            );
        }
        _ => report
            .notes
            .push("kernel attribution skipped: engine_predict_ns is not in the registry".into()),
    }
}

fn run_train(workload: &str, options: &Options, process_start: Instant) -> Report {
    let mut report = Report::default();
    let seed = options.seed;
    let (mut state, setup_s, repeats) =
        phase::measure_setup(process_start, || train::TrainState::start(seed));
    let set_nodes = state.set_nodes();
    report.notes.push(format!(
        "setup_s is the median of {repeats} cold set-ups; training set {} circuits, {set_nodes} nodes; {} large designs labelled, {} evaluated",
        state.set.len(),
        state.eval_pool.len(),
        train::EVAL_DESIGNS
    ));
    let error_before = state
        .engine
        .evaluate(&state.eval_pool[..train::EVAL_DESIGNS]);
    let mut off = Tracer::new(false, Instant::now());
    state.warm_up(TRAIN_WARMUP_EPOCHS);
    let measured = Duration::from_secs(options.seconds);
    let mut tracer = Tracer::new(options.trace, Instant::now());
    let (phase, overhead) = if options.trace {
        traced_segments(measured / 2, &mut tracer, |d, t| state.run_phase(d, t))
    } else {
        (state.run_phase(measured, &mut off), 0.0)
    };
    set_end_to_end(&mut report, &phase, |_| train::limit_s(set_nodes));
    report.set("setup_s", setup_s);

    let first = state.losses.first().copied().unwrap_or(f64::NAN);
    let last = state.losses.last().copied().unwrap_or(f64::NAN);
    report.check(
        "loss.finite_and_falling",
        state.losses.iter().all(|l| l.is_finite()) && last < first,
        format!(
            "epoch 1 loss {first:.6} → epoch {} loss {last:.6}",
            state.losses.len()
        ),
    );
    let error_after = state
        .engine
        .evaluate(&state.eval_pool[..train::EVAL_DESIGNS]);
    match (&error_before, &error_after) {
        (Ok(before), Ok(after)) => report.check(
            "evaluate.finite",
            before.is_finite() && after.is_finite() && (0.0..=1.0).contains(after),
            format!("prediction error on the large designs {before:.4} → {after:.4}"),
        ),
        (b, a) => report.check("evaluate.finite", false, format!("{b:?} / {a:?}")),
    }
    let small = state
        .set
        .iter()
        .filter(|c| c.num_nodes <= 300)
        .max_by_key(|c| c.num_nodes)
        .expect("the training set has a circuit under 300 nodes");
    kernel_vs_tape_check(&mut report, &state.engine, &state.engine.session(), small);

    let mut observed = Observed::default();
    if seed == GOLDEN_SEED {
        for epoch in [1usize, 5] {
            if let Some(loss) = state.losses.get(epoch - 1) {
                observed
                    .scalars
                    .insert(format!("loss_epoch_{epoch}"), *loss);
            }
        }
    }
    golden(&mut report, workload, options, &observed);

    if options.trace {
        set_run_metrics(&mut report, &phase, overhead);
        drop(state);
        layers::run_probes(&mut report, &mut tracer, seed, None);
        write_trace(&mut report, workload, seed, &tracer);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn command_line_is_validated() {
        let o = parse_args(&args(&[
            "--workload",
            "infer_large",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("infer_large"), 9, 3, true)
        );
        assert_eq!(
            parse_args(&args(&["--all"])).expect("valid").seconds,
            DEFAULT_SECONDS
        );
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "infer_large", "--bogus"])).is_err());
        assert!(parse_args(&args(&["--workload", "infer_large", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seconds", "0", "--all"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
        let golden = parse_args(&args(&[
            "--workload",
            "train_epoch",
            "--seed",
            "7",
            "--write-golden",
        ]))
        .expect("valid");
        assert_eq!(golden.seed, GOLDEN_SEED);
    }

    #[test]
    fn merged_segments_keep_every_operation_on_one_timeline() {
        let segment = |start: f64| Phase {
            wall_s: 2.0,
            ops: vec![phase::OpSample {
                start_s: start,
                seconds: 1.0,
                nodes: 10,
                ok: true,
            }],
            ..Phase::default()
        };
        let merged = merge(vec![segment(0.5), segment(0.25)]);
        assert_eq!(merged.wall_s, 4.0);
        assert_eq!(merged.ops[1].start_s, 2.25);
        assert_eq!(merged.throughput_nodes_s(), 5.0);
    }
}
