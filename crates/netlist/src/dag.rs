//! The circuit interface every analysis reads.

use crate::WordProgram;
use std::fmt::Display;

/// A circuit as a DAG whose node ids `0..num_nodes()` are a topological
/// order: every fan-in of a node precedes it.
///
/// [`Netlist`](crate::Netlist) and `deepgate_aig::Aig` each state their
/// nodes once through this trait, and every analysis is written once
/// against it: levels and fan-out counts here, reconvergence in
/// `deepgate-aig`, simulation in `deepgate-sim` (which reads a circuit from
/// several threads, hence `Sync`).
pub trait Dag: Sync {
    /// The error [`Dag::validate`] reports.
    type Error: Display;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of sources: the free nodes one input word each drives in
    /// [`Dag::program`] — the primary inputs in declaration order, then
    /// an AIG's latch states in latch-table order (the order `Aig::to_netlist`
    /// gives them as pseudo-inputs).
    fn num_sources(&self) -> usize;

    /// The fan-ins of node `i`, in argument order (none for a source or a
    /// constant). Panics if `i` is out of range.
    fn fanins(&self, i: usize) -> impl Iterator<Item = usize> + '_;

    /// The nodes observed from outside the circuit, once per observation:
    /// the primary outputs, then an AIG's latch next-states.
    fn sinks(&self) -> impl Iterator<Item = usize> + '_;

    /// This circuit compiled for simulation: one op per node, in node
    /// order, source `k` the `k`-th source node. Gate arities are checked
    /// once, here, so [`WordProgram::run`] evaluates rows of 64 patterns
    /// with no check per node. The circuit must be valid;
    /// `deepgate_sim::simulate_words` is the checked one-row form.
    fn program(&self) -> WordProgram;

    /// Checks the invariants the other methods rely on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    fn validate(&self) -> Result<(), Self::Error>;

    /// The logic level of every node — 0 for a node without fan-ins, else
    /// one above its deepest fan-in — and the maximum level (the circuit
    /// depth, 0 when no node has fan-ins).
    fn levels(&self) -> (Vec<usize>, usize) {
        let mut level = vec![0usize; self.num_nodes()];
        let mut max_level = 0;
        for i in 0..level.len() {
            if let Some(deepest) = self.fanins(i).map(|f| level[f]).max() {
                level[i] = deepest + 1;
                max_level = max_level.max(level[i]);
            }
        }
        (level, max_level)
    }

    /// Number of fan-outs of every node: how many fan-ins and sinks read it.
    fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_nodes()];
        for i in 0..counts.len() {
            for f in self.fanins(i) {
                counts[f] += 1;
            }
        }
        for s in self.sinks() {
            counts[s] += 1;
        }
        counts
    }
}
