//! The span layer: per-request, per-stage latency tracing.

use crate::{Histogram, Registry};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The stages of the serving request path, from TCP read to response write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Request-line JSON parsing and payload extraction.
    Parse,
    /// Circuit ingestion: format parsing, AIG transformation and graph
    /// encoding (skipped on a structural-cache hit).
    Encode,
    /// Inference-plan construction (skipped on a structural-cache hit).
    Plan,
    /// Queueing, batching and model execution.
    Infer,
    /// Response serialisation and the socket write.
    Respond,
}

impl Stage {
    /// Every stage, in request-path order.
    pub const ALL: [Stage; 5] = [
        Stage::Parse,
        Stage::Encode,
        Stage::Plan,
        Stage::Infer,
        Stage::Respond,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// The stage's snake_case name, used in metric series and log records.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Encode => "encode",
            Stage::Plan => "plan",
            Stage::Infer => "infer",
            Stage::Respond => "respond",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The per-stage latency breakdown of one request.
///
/// A trace is created when the request line arrives and accumulates stage
/// durations as the request moves through the path — via the closure-based
/// [`RequestTrace::time`], or [`RequestTrace::add`] for a span measured
/// elsewhere. Stages that never ran (e.g. `Encode`/`Plan` on a cache hit)
/// stay untouched and are not folded into the per-stage histograms, so each
/// stage histogram's count reflects how often that stage actually executed.
#[derive(Debug)]
pub struct RequestTrace {
    started: Instant,
    stage_ns: [u64; Stage::COUNT],
    touched: [bool; Stage::COUNT],
}

impl RequestTrace {
    /// Starts a trace; total latency is measured from this instant.
    pub fn start() -> Self {
        RequestTrace {
            started: Instant::now(),
            stage_ns: [0; Stage::COUNT],
            touched: [false; Stage::COUNT],
        }
    }

    /// Runs `f`, attributing its wall time to `stage`.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(stage, start.elapsed());
        out
    }

    /// Attributes an already-measured duration to `stage`.
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.stage_ns[stage.index()] += u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.touched[stage.index()] = true;
    }

    /// Nanoseconds attributed to `stage` so far.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Whether `stage` ran at all.
    pub fn ran(&self, stage: Stage) -> bool {
        self.touched[stage.index()]
    }

    /// Wall time since the trace started.
    pub fn total(&self) -> Duration {
        self.started.elapsed()
    }

    /// The instant the trace started — the request's arrival anchor, e.g.
    /// for deadline arithmetic (`arrival + budget`).
    pub fn started_at(&self) -> Instant {
        self.started
    }

    /// The stage that consumed the most time, if any stage ran.
    pub fn dominant(&self) -> Option<Stage> {
        Stage::ALL
            .into_iter()
            .filter(|s| self.ran(*s))
            .max_by_key(|s| self.stage_ns(*s))
    }
}

/// One registered histogram per [`Stage`] plus a total-latency histogram —
/// the aggregation target completed request traces fold into.
#[derive(Debug, Clone)]
pub struct StageSet {
    stages: [Arc<Histogram>; Stage::COUNT],
    /// End-to-end request latency (TCP read to response write).
    pub total: Arc<Histogram>,
}

impl StageSet {
    /// Registers `stage_<name>_ns` histograms for every stage and
    /// `<total_name>` for the end-to-end latency.
    pub fn registered(registry: &Registry, total_name: &str) -> Self {
        StageSet {
            stages: Stage::ALL
                .map(|stage| registry.histogram(&format!("stage_{}_ns", stage.name()))),
            total: registry.histogram(total_name),
        }
    }

    /// The histogram of one stage.
    pub fn stage(&self, stage: Stage) -> &Arc<Histogram> {
        &self.stages[stage.index()]
    }

    /// Folds a completed trace in: every stage that ran records its
    /// nanoseconds, and the total histogram records the end-to-end wall
    /// time.
    pub fn observe(&self, trace: &RequestTrace) {
        for stage in Stage::ALL {
            if trace.ran(stage) {
                self.stages[stage.index()].record(trace.stage_ns(stage));
            }
        }
        self.total.record_duration(trace.total());
    }
}

/// The slow-request log: renders a structured one-line record for any
/// request whose end-to-end latency crosses a threshold, naming the
/// dominant stage.
#[derive(Debug, Clone, Copy)]
pub struct SlowLog {
    threshold: Duration,
}

impl SlowLog {
    /// Creates a slow log with the given threshold. A zero threshold logs
    /// every request — useful for demos and smoke tests.
    pub fn new(threshold: Duration) -> Self {
        SlowLog { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Renders the log record for a completed trace if it crossed the
    /// threshold. The record is one line of `key=value` pairs: the verb and
    /// request label, total milliseconds, the dominant stage, and the
    /// milliseconds of every stage that ran.
    pub fn check(&self, verb: &str, label: &str, trace: &RequestTrace) -> Option<String> {
        let total = trace.total();
        if total < self.threshold {
            return None;
        }
        let mut line = format!(
            "slow-request verb={verb} name={label} total_ms={:.3}",
            total.as_secs_f64() * 1e3,
        );
        if let Some(dominant) = trace.dominant() {
            let _ = write!(line, " dominant={}", dominant.name());
        }
        for stage in Stage::ALL {
            if trace.ran(stage) {
                let _ = write!(
                    line,
                    " {}_ms={:.3}",
                    stage.name(),
                    trace.stage_ns(stage) as f64 / 1e6,
                );
            }
        }
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_accumulate_through_closures() {
        let mut trace = RequestTrace::start();
        trace.time(Stage::Parse, || {
            std::thread::sleep(Duration::from_micros(200))
        });
        trace.time(Stage::Infer, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        trace.add(Stage::Infer, Duration::from_millis(1));
        assert!(trace.ran(Stage::Parse));
        assert!(trace.ran(Stage::Infer));
        assert!(!trace.ran(Stage::Encode));
        assert!(trace.stage_ns(Stage::Infer) >= 3_000_000);
        assert_eq!(trace.dominant(), Some(Stage::Infer));
        assert!(trace.total() >= Duration::from_millis(2));
    }

    #[test]
    fn untouched_trace_has_no_dominant_stage() {
        let trace = RequestTrace::start();
        assert_eq!(trace.dominant(), None);
    }

    #[test]
    fn stage_set_only_records_stages_that_ran() {
        let registry = Registry::new();
        let set = StageSet::registered(&registry, "request_latency_ns");
        let mut trace = RequestTrace::start();
        trace.add(Stage::Parse, Duration::from_micros(5));
        trace.add(Stage::Infer, Duration::from_micros(50));
        set.observe(&trace);
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("stage_parse_ns").expect("exists").count, 1);
        assert_eq!(snap.histogram("stage_infer_ns").expect("exists").count, 1);
        assert_eq!(snap.histogram("stage_encode_ns").expect("exists").count, 0);
        assert_eq!(
            snap.histogram("request_latency_ns").expect("exists").count,
            1
        );
    }

    #[test]
    fn slow_log_names_the_dominant_stage() {
        let slow = SlowLog::new(Duration::ZERO);
        let mut trace = RequestTrace::start();
        trace.add(Stage::Encode, Duration::from_millis(1));
        trace.add(Stage::Infer, Duration::from_millis(40));
        trace.add(Stage::Respond, Duration::from_micros(10));
        let line = slow
            .check("predict", "c6288", &trace)
            .expect("zero threshold logs everything");
        assert!(line.starts_with("slow-request verb=predict name=c6288 total_ms="));
        assert!(line.contains("dominant=infer"));
        assert!(line.contains("infer_ms=40.000"));
        assert!(line.contains("encode_ms=1.000"));
        assert!(!line.contains("plan_ms"), "plan never ran: {line}");
    }

    #[test]
    fn slow_log_threshold_filters() {
        let slow = SlowLog::new(Duration::from_secs(3600));
        let mut trace = RequestTrace::start();
        trace.add(Stage::Infer, Duration::from_millis(1));
        assert_eq!(slow.check("predict", "tiny", &trace), None);
        assert_eq!(slow.threshold(), Duration::from_secs(3600));
    }
}
