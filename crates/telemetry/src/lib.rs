//! Std-only observability primitives for the DeepGate serving stack.
//!
//! Every layer of the request path — the TCP front end, the scheduler, the
//! structural cache, the engine facade and the GNN inference kernel — records
//! into the primitives of this crate; the `metrics` and `metrics_text` wire
//! verbs of `deepgate-serve` read them back out. Three design rules keep the
//! overhead negligible on the hot path:
//!
//! - **Lock-free recording.** [`Counter`], [`Gauge`] and [`Histogram`] are
//!   plain atomics (a histogram is a fixed array of them); recording is a
//!   handful of relaxed atomic ops, never a lock, never an allocation.
//! - **Fixed log-bucket histograms.** [`Histogram`] buckets values on a
//!   log-linear scale (8 sub-buckets per power of two, ≤ ~12% relative
//!   error), covering the full `u64` range in 496 buckets — nanosecond
//!   latencies and million-node circuit sizes share one implementation.
//!   p50/p90/p99 come from the bucket counts; the maximum is tracked exactly.
//! - **One registry, one snapshot.** Metrics register by name in a
//!   [`Registry`]; [`Registry::snapshot`] walks every series in a single
//!   pass, so consumers (the `stats`/`metrics` verbs) assemble their view
//!   from one read instead of polling subsystems at different instants.
//!
//! The span layer ([`Stage`], [`RequestTrace`]) gives each request a
//! per-stage latency breakdown from TCP read to response write; [`StageSet`]
//! folds completed traces into per-stage histograms and [`SlowLog`] renders
//! structured one-line records for requests over a threshold, naming the
//! dominant stage.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metric;
mod registry;
mod span;

pub use metric::{Bucket, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Registry, Snapshot};
pub use span::{RequestTrace, SlowLog, Stage, StageSet};
