//! Bit-parallel logic simulation and signal-probability labelling.
//!
//! DeepGate is supervised with the *signal probability* of every gate — the
//! probability that the gate evaluates to logic `1` under uniformly random
//! primary-input patterns. The paper obtains these labels by simulating up to
//! 100k random patterns per circuit. This crate is that simulator, written
//! once for any [`Dag`](deepgate_netlist::Dag) — an `Aig`, its PI/AND/NOT
//! expansion or an original-gate `Netlist`:
//!
//! - [`simulate_words`] — 64-way bit-parallel evaluation of a pattern word
//!   per node, input count and circuit checked: the circuit's program run
//!   over one row, into a fresh `Vec`.
//! - [`SignalProbability`] — Monte-Carlo estimation over many pattern words
//!   and exhaustive enumeration for circuits with at most 20 sources, one
//!   validate-compile-count pass. Each walk of the program evaluates
//!   [`SignalProbability::BLOCK_ROWS`] rows and counts the ones as it makes
//!   each node's words. A pass large enough to pay for a thread splits its
//!   rows into one contiguous range per core, each counted on its own
//!   scoped thread; a small one runs on the caller. A thread makes the rows
//!   of its range itself, into buffers allocated once before any thread
//!   starts, so a pass allocates nothing per row. An AIG's latch states are
//!   free sources, like its primary inputs.
//! - [`PatternSource`] — seeded random pattern generation so every label in
//!   the dataset pipeline is reproducible; a thread opens the one stream at
//!   its first row, so the split never moves a bit.
//!
//! Every pass runs the circuit's
//! [`WordProgram`](deepgate_netlist::WordProgram), compiled once by
//! [`Dag::program`](deepgate_netlist::Dag::program): one op per node, gate
//! arities checked when it is built, AND/NOT/BUF as one branch-free masked
//! AND.
//!
//! # Example
//!
//! ```rust
//! use deepgate_aig::Aig;
//! use deepgate_sim::SignalProbability;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut aig = Aig::new("and2");
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let y = aig.and(a, b);
//! aig.add_output(y, "y");
//!
//! let probs = SignalProbability::simulate(&aig, 2048, 1)?;
//! // P(a·b = 1) = 0.25 under uniform inputs.
//! assert!((probs.of(y.node()) - 0.25).abs() < 0.05);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod patterns;
mod probability;
mod simulator;

pub use error::SimError;
pub use patterns::PatternSource;
pub use probability::SignalProbability;
pub use simulator::simulate_words;
