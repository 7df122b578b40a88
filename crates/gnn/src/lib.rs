//! DAG-GNN framework and baseline model zoo for the DeepGate reproduction.
//!
//! The DeepGate paper compares its model against three GNN families — GCN,
//! DAG-ConvGNN and DAG-RecGNN — each instantiated with four aggregator
//! designs (Conv. Sum, Attention, DeepSet, GatedSum). This crate provides:
//!
//! - [`CircuitGraph`] — the learning representation of a circuit: one-hot
//!   gate-type features, logic levels, the edge list, optional
//!   signal-probability labels and the reconvergence skip edges.
//! - [`InferencePlan`] — the one level schedule (*topological batching*):
//!   nodes packed level by level, each level's fan-in (forward, skip edges
//!   and their positional encodings folded in) and fan-out (reverse) rows in
//!   CSR form. The training tape and the tape-free inference kernel
//!   ([`DagRecGnn::predict_planned`], reading the weights in place out of
//!   the same `ParamStore`) both walk it.
//! - [`Aggregator`] — the four aggregation functions of the paper. Attention
//!   is one fused tape op (`Graph::attention`) running the kernel's own
//!   attention walk; the other three are gather / scatter-add compositions
//!   of `deepgate-nn`'s generic ops.
//! - On the training tape the level-by-level models keep every node's state
//!   in the variable that computed it (`state.rs`, addressed by packed row):
//!   updating a level records nothing and reads are `Graph::gather_from`, so
//!   a tape costs O((nodes + edges) · T) whatever the circuit's depth.
//! - [`Gcn`], [`DagConvGnn`], [`DagRecGnn`] — the baseline models, all
//!   implementing [`ProbabilityModel`] so the trainer and the benchmark
//!   harness treat every model uniformly.
//!
//! The DeepGate model itself (attention + skip connections + fixed gate-type
//! input) lives in `deepgate-core` and reuses the same building blocks.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregator;
mod csr;
mod dag_conv;
mod dag_rec;
mod error;
mod gcn;
mod graph;
mod handoff;
mod metrics;
mod model;
mod state;

pub use aggregator::{Aggregator, AggregatorKind};
pub use csr::InferencePlan;
pub use dag_conv::{DagConvConfig, DagConvGnn};
pub use dag_rec::{DagRecConfig, DagRecGnn};
pub use error::GnnError;
pub use gcn::{Gcn, GcnConfig};
pub use graph::{CircuitGraph, FeatureEncoding, SkipEdge, StructuralHasher};
pub use metrics::GnnMetrics;
pub use model::{check_encoding, evaluate_prediction_error, masked_l1_loss, ProbabilityModel};
