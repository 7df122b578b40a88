//! [`ServeMetrics`] — the server's telemetry registry and the shared handles
//! every serving subsystem records through.

use deepgate::telemetry::{Counter, Gauge, Histogram, Registry, Snapshot, StageSet};
use deepgate::EngineMetrics;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Telemetry handles of the request scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerMetrics {
    /// `scheduler_submitted_total` — requests accepted into the queue.
    pub submitted: Arc<Counter>,
    /// `scheduler_completed_total` — requests answered with predictions.
    pub completed: Arc<Counter>,
    /// `scheduler_failed_total` — requests answered with an engine error.
    pub failed: Arc<Counter>,
    /// `scheduler_rejected_overloaded_total` — submissions rejected on a
    /// full queue.
    pub rejected_overloaded: Arc<Counter>,
    /// `scheduler_rejected_shutdown_total` — submissions rejected (or
    /// queued requests flushed) during drain.
    pub rejected_shutdown: Arc<Counter>,
    /// `scheduler_deadline_shed_total` — requests whose deadline expired
    /// before inference, shed when popped with `DeadlineExceeded`.
    pub deadline_shed: Arc<Counter>,
    /// `worker_panics_recovered_total` — inferences that panicked and were
    /// converted to internal errors (the worker survives and keeps
    /// draining).
    pub worker_panics_recovered: Arc<Counter>,
    /// `worker_respawns_total` — worker threads that died anyway and were
    /// replaced, so queue capacity is never lost.
    pub worker_respawns: Arc<Counter>,
    /// `queue_depth` — requests queued right now.
    pub queue_depth: Arc<Gauge>,
    /// `scheduler_queue_wait_ns` — time a job spent queued, one record per
    /// job popped by a worker (shed jobs included).
    pub queue_wait_ns: Arc<Histogram>,
}

impl SchedulerMetrics {
    /// Registers the scheduler's series in `registry`.
    pub fn registered(registry: &Registry) -> Self {
        SchedulerMetrics {
            submitted: registry.counter("scheduler_submitted_total"),
            completed: registry.counter("scheduler_completed_total"),
            failed: registry.counter("scheduler_failed_total"),
            rejected_overloaded: registry.counter("scheduler_rejected_overloaded_total"),
            rejected_shutdown: registry.counter("scheduler_rejected_shutdown_total"),
            deadline_shed: registry.counter("scheduler_deadline_shed_total"),
            worker_panics_recovered: registry.counter("worker_panics_recovered_total"),
            worker_respawns: registry.counter("worker_respawns_total"),
            queue_depth: registry.gauge("queue_depth"),
            queue_wait_ns: registry.histogram("scheduler_queue_wait_ns"),
        }
    }
}

/// Telemetry handles of the structural circuit cache.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    /// `cache_text_hits_total` — requests served from the text-hash memo
    /// (byte-identical repeat, parsing skipped entirely).
    pub text_hits: Arc<Counter>,
    /// `cache_fingerprint_hits_total` — requests served from the
    /// structural level after a parse (textually new, structurally known).
    pub fingerprint_hits: Arc<Counter>,
    /// `cache_misses_total` — requests prepared from scratch.
    pub misses: Arc<Counter>,
    /// `cache_entries` — prepared circuits currently held.
    pub entries: Arc<Gauge>,
    /// `cache_capacity` — configured capacity (set once at construction).
    pub capacity: Arc<Gauge>,
}

impl CacheMetrics {
    /// Registers the cache's series in `registry`.
    pub fn registered(registry: &Registry) -> Self {
        CacheMetrics {
            text_hits: registry.counter("cache_text_hits_total"),
            fingerprint_hits: registry.counter("cache_fingerprint_hits_total"),
            misses: registry.counter("cache_misses_total"),
            entries: registry.gauge("cache_entries"),
            capacity: registry.gauge("cache_capacity"),
        }
    }
}

/// The server's telemetry: one [`Registry`] holding every series of the
/// request path — per-verb counters, per-stage latency histograms,
/// connection lifecycle, scheduler, cache, engine and GNN kernel — plus the
/// shared handles the subsystems record through.
///
/// Everything reads back out through a single [`Registry::snapshot`], so
/// the `stats`, `metrics` and `metrics_text` wire verbs report one
/// consistent point-in-time view instead of polling subsystems at
/// different instants.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    /// Engine + GNN kernel stage series (attach to the engine).
    pub engine: Arc<EngineMetrics>,
    /// Scheduler series (hand to [`crate::Scheduler::with_metrics`]).
    pub scheduler: SchedulerMetrics,
    /// Cache series (hand to [`crate::CircuitCache::with_metrics`]).
    pub cache: CacheMetrics,
    /// `requests_predict_total` — predict requests received.
    pub requests_predict: Arc<Counter>,
    /// `requests_stats_total` — `stats` verb requests.
    pub requests_stats: Arc<Counter>,
    /// `requests_metrics_total` — `metrics` verb requests.
    pub requests_metrics: Arc<Counter>,
    /// `requests_metrics_text_total` — `metrics_text` verb requests.
    pub requests_metrics_text: Arc<Counter>,
    /// `requests_shutdown_total` — `shutdown` verb requests.
    pub requests_shutdown: Arc<Counter>,
    /// `requests_unknown_total` — lines with an unknown verb or unparsable
    /// framing.
    pub requests_unknown: Arc<Counter>,
    /// `request_errors_total` — responses that carried an `error` field.
    pub request_errors: Arc<Counter>,
    /// `slow_requests_total` — predict requests over the slow-log
    /// threshold.
    pub slow_requests: Arc<Counter>,
    /// `stage_{parse,encode,plan,infer,respond}_ns` + `request_latency_ns`
    /// — the per-stage breakdown of predict requests.
    pub stages: StageSet,
    /// `connections_accepted_total` — connections accepted since start.
    pub connections_accepted: Arc<Counter>,
    /// `connections_closed_total` — connection threads that finished.
    pub connections_closed: Arc<Counter>,
    /// `connections_open` — connections being served right now.
    pub connections_open: Arc<Gauge>,
    /// `connections_reaped_total` — connections cut by the hygiene layer:
    /// idle past `idle_timeout`, or trickling a request line past
    /// `line_timeout` (slow-loris).
    pub connections_reaped: Arc<Counter>,
    /// `connections_rejected_total` — connections refused at accept because
    /// `max_connections` were already open.
    pub connections_rejected: Arc<Counter>,
    /// `write_timeouts_total` — response writes that timed out on a client
    /// that stopped reading (the connection is dropped).
    pub write_timeouts: Arc<Counter>,
    /// `request_panics_recovered_total` — request-handler panics converted
    /// into error responses instead of dropped connections.
    pub request_panics_recovered: Arc<Counter>,
    /// `eventloop_wakeups_total` — poller waits that returned (readiness,
    /// a hygiene deadline, or a wake from the scheduler).
    pub eventloop_wakeups: Arc<Counter>,
    /// `eventloop_completions_total` — scheduler completions routed back to
    /// their connections by the event loop.
    pub eventloop_completions: Arc<Counter>,
    /// `write_backpressure_pauses_total` — connections whose request reading
    /// was paused because their response buffer crossed the high watermark.
    pub write_backpressure: Arc<Counter>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Creates a fresh registry and registers every serving series in it.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let engine = Arc::new(EngineMetrics::registered(&registry));
        let scheduler = SchedulerMetrics::registered(&registry);
        let cache = CacheMetrics::registered(&registry);
        ServeMetrics {
            requests_predict: registry.counter("requests_predict_total"),
            requests_stats: registry.counter("requests_stats_total"),
            requests_metrics: registry.counter("requests_metrics_total"),
            requests_metrics_text: registry.counter("requests_metrics_text_total"),
            requests_shutdown: registry.counter("requests_shutdown_total"),
            requests_unknown: registry.counter("requests_unknown_total"),
            request_errors: registry.counter("request_errors_total"),
            slow_requests: registry.counter("slow_requests_total"),
            stages: StageSet::registered(&registry, "request_latency_ns"),
            connections_accepted: registry.counter("connections_accepted_total"),
            connections_closed: registry.counter("connections_closed_total"),
            connections_open: registry.gauge("connections_open"),
            connections_reaped: registry.counter("connections_reaped_total"),
            connections_rejected: registry.counter("connections_rejected_total"),
            write_timeouts: registry.counter("write_timeouts_total"),
            request_panics_recovered: registry.counter("request_panics_recovered_total"),
            eventloop_wakeups: registry.counter("eventloop_wakeups_total"),
            eventloop_completions: registry.counter("eventloop_completions_total"),
            write_backpressure: registry.counter("write_backpressure_pauses_total"),
            engine,
            scheduler,
            cache,
            registry,
        }
    }

    /// The registry every series lives in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One consistent snapshot of every series.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

/// Renders a registry snapshot as the structured JSON of the `metrics` wire
/// verb: `counters` and `gauges` as name→value objects, `histograms` as
/// name→`{count, sum, max, p50, p90, p99, buckets}` with `buckets` a list of
/// `[upper_bound, count]` pairs (non-empty buckets only, ascending).
pub fn snapshot_to_value(snapshot: &Snapshot) -> Value {
    let counters: BTreeMap<String, Value> = snapshot
        .counters
        .iter()
        .map(|(name, &v)| (name.clone(), Value::UInt(v)))
        .collect();
    let gauges: BTreeMap<String, Value> = snapshot
        .gauges
        .iter()
        .map(|(name, &v)| {
            let value = if v >= 0 {
                Value::UInt(v as u64)
            } else {
                Value::Int(v)
            };
            (name.clone(), value)
        })
        .collect();
    let histograms: BTreeMap<String, Value> = snapshot
        .histograms
        .iter()
        .map(|(name, h)| {
            let mut entry = BTreeMap::new();
            entry.insert("count".to_string(), Value::UInt(h.count));
            entry.insert("sum".to_string(), Value::UInt(h.sum));
            entry.insert("max".to_string(), Value::UInt(h.max));
            entry.insert("p50".to_string(), Value::UInt(h.percentile(0.50)));
            entry.insert("p90".to_string(), Value::UInt(h.percentile(0.90)));
            entry.insert("p99".to_string(), Value::UInt(h.percentile(0.99)));
            entry.insert(
                "buckets".to_string(),
                Value::Array(
                    h.buckets
                        .iter()
                        .map(|b| Value::Array(vec![Value::UInt(b.le), Value::UInt(b.count)]))
                        .collect(),
                ),
            );
            (name.clone(), Value::Object(entry))
        })
        .collect();
    let mut root = BTreeMap::new();
    root.insert("counters".to_string(), Value::Object(counters));
    root.insert("gauges".to_string(), Value::Object(gauges));
    root.insert("histograms".to_string(), Value::Object(histograms));
    Value::Object(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_metrics_share_one_registry() {
        let metrics = ServeMetrics::new();
        metrics.requests_predict.inc();
        metrics.scheduler.submitted.inc();
        metrics.cache.misses.inc();
        metrics.engine.predict_ns.record(1_000);
        metrics.engine.gnn.levels_total.add(4);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("requests_predict_total"), 1);
        assert_eq!(snap.counter("scheduler_submitted_total"), 1);
        assert_eq!(snap.counter("cache_misses_total"), 1);
        assert_eq!(snap.counter("gnn_levels_total"), 4);
        assert_eq!(
            snap.histogram("engine_predict_ns").expect("series").count,
            1
        );
        // Stage histograms exist even before any request.
        assert!(snap.histogram("stage_infer_ns").is_some());
        assert!(snap.histogram("request_latency_ns").is_some());
    }

    #[test]
    fn snapshot_value_carries_percentiles_and_buckets() {
        let metrics = ServeMetrics::new();
        for v in [100u64, 200, 400, 800, 100_000] {
            metrics.scheduler.queue_wait_ns.record(v);
        }
        metrics.scheduler.queue_depth.set(-1); // gauges may be negative
        let value = snapshot_to_value(&metrics.snapshot());
        let root = value.as_object().expect("object");
        let histograms = root["histograms"].as_object().expect("object");
        let h = histograms["scheduler_queue_wait_ns"]
            .as_object()
            .expect("object");
        assert_eq!(h["count"], Value::UInt(5));
        assert_eq!(h["max"], Value::UInt(100_000));
        let (Value::UInt(p50), Value::UInt(p99)) = (&h["p50"], &h["p99"]) else {
            panic!("percentiles must be unsigned integers");
        };
        assert!(p50 <= p99);
        let buckets = h["buckets"].as_array().expect("array");
        assert!(!buckets.is_empty());
        let gauges = root["gauges"].as_object().expect("object");
        assert_eq!(gauges["queue_depth"], Value::Int(-1));
    }
}
