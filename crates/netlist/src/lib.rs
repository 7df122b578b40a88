//! Gate-level netlist intermediate representation for the DeepGate reproduction.
//!
//! This crate provides the circuit front-end of the system described in
//! *DeepGate: Learning Neural Representations of Logic Gates* (DAC 2022):
//!
//! - [`Netlist`] — a directed acyclic graph of logic gates with named primary
//!   inputs and outputs, supporting the common combinational gate alphabet
//!   (AND/NAND/OR/NOR/XOR/XNOR/NOT/BUF/MUX plus constants).
//! - [`GateKind`] — the gate alphabet together with bit- and word-level
//!   evaluation.
//! - [`mod@bench`] — a reader and writer for the ISCAS/BENCH text format, the
//!   interchange format used by the benchmark suites cited in the paper.
//! - [`verilog`] — a reader and writer for the structural gate-level
//!   Verilog subset the IWLS/OpenCores benchmarks circulate in.
//! - [`graph`] — DAG utilities shared by the whole workspace: topological
//!   ordering, levelisation, fan-out counting and basic structural
//!   statistics.
//! - [`builder`] — a small fluent API for constructing circuits in code, used
//!   heavily by the synthetic benchmark generators of `deepgate-dataset`.
//!
//! # Example
//!
//! ```rust
//! use deepgate_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), deepgate_netlist::NetlistError> {
//! let mut n = Netlist::new("toy");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate(GateKind::And, &[a, b])?;
//! n.mark_output(g, "y");
//! assert_eq!(n.num_gates(), 1);
//! assert_eq!(n.levels().max_level, 1);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod builder;
mod error;
mod gate;
pub mod graph;
mod netlist;
pub mod stats;
pub mod verilog;

pub use builder::NetlistBuilder;
pub use error::NetlistError;
pub use gate::GateKind;
pub use graph::{Levels, TopoOrder};
pub use netlist::{Netlist, Node, NodeId};
pub use stats::NetlistStats;
