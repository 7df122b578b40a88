//! The circuit interface every analysis reads.

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
    /// [`Dag::eval_words`] — the primary inputs in declaration order, then
    /// an AIG's latch states in latch-table order (the order `Aig::to_netlist`
    /// gives them as pseudo-inputs).
    fn num_sources(&self) -> usize;

    /// The fan-ins of node `i`, in argument order (none for a source or a
    /// constant). Panics if `i` is out of range.
    fn fanins(&self, i: usize) -> impl Iterator<Item = usize> + '_;

    /// The nodes observed from outside the circuit, once per observation:
    /// the primary outputs, then an AIG's latch next-states.
    fn sinks(&self) -> impl Iterator<Item = usize> + '_;

    /// One sweep of 64 patterns: `sources[k]` holds 64 patterns of source
    /// `k`; writes one word per node into `values`, bit `b` of word `i` the
    /// value of node `i` under pattern `b`. Every word of `values` is
    /// overwritten and nothing is allocated, so one buffer serves any number
    /// of sweeps. The circuit must be valid, `sources` hold
    /// [`Dag::num_sources`] words and `values` [`Dag::num_nodes`];
    /// `deepgate_sim::simulate_words` is the checked form that returns a
    /// fresh `Vec`.
    fn eval_words(&self, sources: &[u64], values: &mut [u64]);

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
