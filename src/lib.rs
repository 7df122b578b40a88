//! # DeepGate (reproduction)
//!
//! A from-scratch Rust reproduction of *DeepGate: Learning Neural
//! Representations of Logic Gates* (Li et al., DAC 2022), redesigned around
//! a single serving-oriented API:
//!
//! - [`Engine`] / [`EngineBuilder`] — one coherent surface over circuit
//!   ingestion, AIG transformation, simulation labelling, training,
//!   evaluation and checkpointing.
//! - [`CircuitSource`] — one trait unifying every input format: BENCH
//!   text/files ([`BenchText`], [`BenchFile`]), AIGER ASCII and binary with
//!   latch-aware ingestion ([`AigerBytes`], [`AigerFile`],
//!   [`LatchPolicy`]), in-memory netlists ([`NetlistSource`]) and the
//!   synthetic benchmark generators ([`SuiteSource`], [`LargeDesignSource`]).
//! - [`DeepGateError`] — one crate-spanning error enum; every public entry
//!   point returns `Result`, never panics on user input.
//! - [`InferenceSession`] — the batched serving hot path:
//!   [`InferenceSession::predict_batch`] fans a batch of circuits across
//!   worker threads and reuses per-circuit edge plans and output buffers.
//!
//! ## Quickstart
//!
//! ```rust
//! use deepgate::prelude::*;
//!
//! fn main() -> Result<(), DeepGateError> {
//!     // A full adder in the BENCH interchange format.
//!     let bench = "\
//!         INPUT(a)\nINPUT(b)\nINPUT(cin)\n\
//!         OUTPUT(sum)\nOUTPUT(cout)\n\
//!         x = XOR(a, b)\nsum = XOR(x, cin)\n\
//!         g1 = AND(a, b)\ng2 = AND(x, cin)\ncout = OR(g1, g2)\n";
//!
//!     // Build an engine (small configuration so this doctest is quick) and
//!     // prepare the circuit: AIG mapping + simulated probability labels.
//!     let mut engine = Engine::builder()
//!         .model(DeepGateConfig { hidden_dim: 8, num_iterations: 2,
//!                                 regressor_hidden: 4, ..DeepGateConfig::default() })
//!         .trainer(TrainerConfig { epochs: 2, ..TrainerConfig::default() })
//!         .num_patterns(512)
//!         .build()?;
//!     let circuits = engine.prepare(&BenchText::new("full_adder", bench))?;
//!
//!     // Train briefly, then serve predictions through a batched session.
//!     engine.train(&circuits, &[])?;
//!     let session = engine.session();
//!     let batch = session.predict_batch(&circuits)?;
//!     assert_eq!(batch[0].len(), circuits[0].num_nodes);
//!     Ok(())
//! }
//! ```
//!
//! ## Layering
//!
//! The engine composes the individual workspace crates, all re-exported for
//! direct access:
//!
//! - [`netlist`] — gate-level netlist IR, the BENCH reader and writer,
//!   the fluent builder.
//! - [`aig`] — And-Inverter Graphs, netlist→AIG mapping, optimisation
//!   passes, reconvergence analysis (the logic-synthesis substrate).
//! - [`sim`] — bit-parallel logic simulation and probability labelling.
//! - [`nn`] — minimal tensor / reverse-mode autodiff substrate.
//! - [`gnn`] — DAG-GNN framework and the baseline model zoo.
//! - [`core`] — the DeepGate model, trainer and evaluation metrics.
//! - [`dataset`] — benchmark-suite and large-design generators and the
//!   labelling step [`Engine::prepare`] runs on every circuit.
//!
//! The `deepgate-serve` crate (`crates/serve`) layers a concurrent
//! inference server on top of this facade: one job per worker thread over
//! [`InferenceSession`], a structural circuit cache keyed by
//! [`gnn::CircuitGraph::fingerprint`], and a newline-delimited-JSON TCP
//! front end.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use deepgate_aig as aig;
pub use deepgate_core as core;
pub use deepgate_dataset as dataset;
pub use deepgate_gnn as gnn;
pub use deepgate_netlist as netlist;
pub use deepgate_nn as nn;
pub use deepgate_sim as sim;
pub use deepgate_telemetry as telemetry;

mod engine;
mod error;
mod fan_out;
mod metrics;
mod session;
mod source;

pub use deepgate_aig::LatchPolicy;
pub use engine::{Engine, EngineBuilder};
pub use error::DeepGateError;
pub use metrics::EngineMetrics;
pub use session::{InferenceSession, PreparedCircuit};
pub use source::{
    AigerBytes, AigerFile, BenchFile, BenchText, CircuitSource, LargeDesignSource, NetlistSource,
    SuiteSource,
};

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::{
        AigerBytes, AigerFile, BenchFile, BenchText, CircuitSource, DeepGateError, Engine,
        EngineBuilder, InferenceSession, LargeDesignSource, NetlistSource, PreparedCircuit,
        SuiteSource,
    };
    pub use deepgate_aig::{Aig, AigLit, LatchPolicy};
    pub use deepgate_core::{DeepGate, DeepGateConfig, Trainer, TrainerConfig};
    pub use deepgate_dataset::SuiteKind;
    pub use deepgate_gnn::{Aggregator, CircuitGraph, DagRecGnn, Gcn, GnnError};
    pub use deepgate_netlist::{Dag, GateKind, Netlist, NodeId};
    pub use deepgate_nn::{Graph, Tensor};
    pub use deepgate_sim::SignalProbability;
}
