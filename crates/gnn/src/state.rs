//! Where the level-by-level models keep node states on the autodiff tape.

use deepgate_nn::{Graph, GruCell, ParamStore, Var};
use std::ops::Range;

/// How a level model records its GRU update over the input rows `[message |
/// fixed]`: [`GruCell::forward`], or, in the gradient tests, the
/// generic-op oracle it replaced.
pub(crate) type Combine = fn(&GruCell, &mut Graph, &ParamStore, Var, Option<Var>, Var) -> Var;

/// `generic_gru`, the generic-op GRU oracle: `deepgate-nn`'s own test-only
/// copy, not a second one.
#[cfg(test)]
#[path = "../../nn/src/oracle.rs"]
pub(crate) mod oracle;

/// The current hidden state of every node, kept where it was computed: a
/// locator `node → (Var, row)` instead of one `[num_nodes, d]` variable.
/// Nodes are addressed in the *packed* order of the circuit's
/// [`crate::InferencePlan`], where a level is a row range.
///
/// Updating a level is [`NodeStates::write`] — it repoints the level's
/// nodes at the rows of the small variable the GRU just produced and records
/// nothing on the tape — and every read is one [`Graph::gather_from`], so a
/// level costs tape memory and backward time proportional to its own rows
/// and edges, not to the circuit.
///
/// The values read are bit-for-bit the values written. The formulation this
/// replaces rebuilt the whole state per level as
/// `keep_mask ⊙ h + scatter_add(updated)`, whose `h·1 + 0` on kept rows and
/// `h·0 + new` on updated rows copy every finite value too, with one
/// exception: a `-0.0` came back as `+0.0` (`-0.0 + 0.0 = +0.0`). The CSR
/// inference kernel never did that, so the tape now agrees with it on that
/// value as well.
#[derive(Debug)]
pub(crate) struct NodeStates {
    initial: Var,
    loc: Vec<(Var, usize)>,
    /// The picks of the read in progress, reused from read to read.
    picks: Vec<(Var, usize)>,
}

impl NodeStates {
    /// Packed node `p` starts at row `p` of `initial` (`[num_nodes, d]`).
    pub(crate) fn new(g: &Graph, initial: Var) -> Self {
        let loc = (0..g.value(initial).rows())
            .map(|row| (initial, row))
            .collect();
        NodeStates {
            initial,
            loc,
            picks: Vec::new(),
        }
    }

    /// The `i`-th node of the level `nodes` now lives in row `i` of
    /// `updated`.
    pub(crate) fn write(&mut self, nodes: Range<usize>, updated: Var) {
        for (row, node) in nodes.enumerate() {
            self.loc[node] = (updated, row);
        }
    }

    /// The states of `nodes`, in order, as one `[nodes.len(), d]` variable.
    pub(crate) fn read(&mut self, g: &mut Graph, nodes: impl IntoIterator<Item = usize>) -> Var {
        self.picks.clear();
        self.picks
            .extend(nodes.into_iter().map(|node| self.loc[node]));
        g.gather_from(&self.picks)
    }

    /// All node states in original node order (`[num_nodes, d]`), through
    /// the plan's `perm` (original → packed) — the single full-size read,
    /// taken once before the regressor.
    pub(crate) fn read_all(&mut self, g: &mut Graph, perm: &[u32]) -> Var {
        if perm.is_empty() {
            // A circuit without nodes: the `[0, d]` embedding keeps its width.
            return self.initial;
        }
        self.read(g, perm.iter().map(|&packed| packed as usize))
    }
}
