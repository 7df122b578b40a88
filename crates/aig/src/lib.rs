//! And-Inverter Graphs and the logic-synthesis substrate of the DeepGate
//! reproduction.
//!
//! The DeepGate paper normalises every circuit into the And-Inverter Graph
//! (AIG) format using the ABC logic-synthesis tool before learning. This
//! crate is the from-scratch substitute for that step:
//!
//! - [`Aig`] — an AIG with complemented edges ([`AigLit`]), structural
//!   hashing and constant folding on construction, stored in the AIGER
//!   numbering: node 0 is the constant, then the inputs, then the latch
//!   states, then one `[AigLit; 2]` per AND. A node's kind is the index
//!   range it falls in ([`Aig::inputs`], [`Aig::latch_states`],
//!   [`Aig::ands`]), so inputs and latches are declared before the first
//!   AND. It implements [`Dag`](deepgate_netlist::Dag), the circuit
//!   interface the analyses read, with its latch states as free sources.
//! - [`Aig::from_netlist`] — maps an arbitrary gate-level
//!   [`Netlist`](deepgate_netlist::Netlist) (AND/OR/XOR/NAND/NOR/MUX/…)
//!   into AIG form, the equivalent of ABC's `strash`; [`Aig::to_netlist`]
//!   expands it back into the explicit PI/AND/NOT netlist the learning
//!   front-end consumes. The round trip is the identity on every AIG the
//!   latch policies and [`opt::optimize`] make.
//! - [`opt`] — light optimisation passes (dead-node sweeping, AND-tree
//!   balancing, constant propagation) that inject the structural inductive
//!   bias the paper attributes to logic synthesis. Every pass, and the latch
//!   policies, rebuild an AIG through one walk: map the sources, rebuild
//!   each AND through the map, translate the outputs and next-states. Every
//!   walk is a forward sweep or an explicit stack, so circuit depth never
//!   reaches the call stack.
//! - [`recon`] — reconvergence analysis: for every node, the closest
//!   fan-out stem through which two of its input cones reconverge, plus the
//!   logic-level distance. These records drive DeepGate's skip connections.
//! - [`aiger`] — the full AIGER subsystem: one reader and one writer for
//!   both encodings, ASCII (`aag`) and binary (`aig`), latch-aware, with the
//!   [`LatchPolicy`] ingestion modes (cut latch boundaries or unroll time
//!   frames).
//!
//! # Example
//!
//! ```rust
//! use deepgate_netlist::{GateKind, Netlist};
//! use deepgate_aig::Aig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut n = Netlist::new("xor");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let y = n.add_gate(GateKind::Xor, &[a, b])?;
//! n.mark_output(y, "y");
//!
//! let aig = Aig::from_netlist(&n)?;
//! // XOR maps to three AND nodes: (a·¬b) + (¬a·b) = ¬(¬(a·¬b)·¬(¬a·b)).
//! assert_eq!(aig.num_ands(), 3);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig;
pub mod aiger;
mod error;
mod lit;
pub mod opt;
pub mod recon;

pub use aig::{Aig, AigLatch};
pub use aiger::{AigerError, LatchPolicy};
pub use error::AigError;
pub use lit::AigLit;
pub use recon::{ReconvergenceAnalysis, ReconvergenceConfig, ReconvergenceInfo};
