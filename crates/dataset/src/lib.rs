//! Synthetic benchmark suites, the large evaluation designs and the
//! labelling step of the DeepGate reproduction.
//!
//! The paper trains on 10,824 sub-circuits extracted from four benchmark
//! suites (ITC'99, IWLS'05, EPFL, OpenCores) and evaluates generalisation on
//! five much larger designs. The original benchmark files are not
//! redistributable, so this crate generates *synthetic stand-ins* with
//! matching structural statistics (the module docs of [`suites`] and
//! [`large`] give the substitution rationale):
//!
//! - [`generators`] — parameterised combinational building blocks (adders,
//!   multipliers, squarers, arbiters, ALUs, decoders, parity networks,
//!   random control logic).
//! - [`suites`] — per-suite design mixes that reproduce the size and depth
//!   ranges of Table I.
//! - [`large`] — the five large evaluation designs of Table III (arbiter,
//!   squarer, multiplier and two processor-like datapaths).
//! - [`labelled_circuit_from_netlist`] / [`labelled_circuit_from_aig`] —
//!   label every node with its logic-simulated signal probability and
//!   encode the circuit graph. The AIG mapping, optimisation and per-circuit
//!   label seeds around this step belong to `deepgate::Engine::prepare`,
//!   the one path from a netlist to a labelled graph.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
mod label;
pub mod large;
pub mod suites;

pub use label::{labelled_circuit_from_aig, labelled_circuit_from_netlist};
pub use large::LargeDesign;
pub use suites::SuiteKind;
