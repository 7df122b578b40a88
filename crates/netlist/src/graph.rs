//! DAG utilities over [`Netlist`]: topological ordering, levelisation and
//! fan-out counting.
//!
//! These are the structural primitives shared by the logic-synthesis
//! substitute (`deepgate-aig`), the simulator (`deepgate-sim`) and the
//! topological batching used by the GNN models (`deepgate-gnn`).

use crate::{GateKind, Netlist, NodeId};

/// A topological ordering of netlist nodes (fan-ins before fan-outs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoOrder {
    order: Vec<NodeId>,
}

impl TopoOrder {
    /// The node ids in topological order.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.order
    }

    /// Iterates over the node ids in topological order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().copied()
    }

    /// Number of nodes in the ordering.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Logic levels of every node in a netlist.
///
/// Primary inputs and constants sit at level 0; every gate sits one level
/// above its deepest fan-in. `max_level` is the circuit depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// Per-node logic level, indexed by [`NodeId::index`].
    pub level: Vec<usize>,
    /// The maximum level over all nodes (0 for a netlist with no gates).
    pub max_level: usize,
}

impl Levels {
    /// The level of a given node.
    pub fn of(&self, id: NodeId) -> usize {
        self.level[id.index()]
    }
}

/// Computes a topological order of the netlist.
///
/// Because [`Netlist::add_gate`](crate::Netlist::add_gate) requires fan-ins
/// to exist before use, ascending id order is already topological; this
/// function exists so downstream code does not rely on that invariant.
pub fn topo_order(netlist: &Netlist) -> TopoOrder {
    let order = (0..netlist.len() as u32).map(NodeId).collect();
    TopoOrder { order }
}

/// Computes logic levels for every node (inputs at level 0).
pub fn levels(netlist: &Netlist) -> Levels {
    let mut level = vec![0usize; netlist.len()];
    let mut max_level = 0;
    for (id, node) in netlist.iter() {
        if node.kind.is_source() {
            level[id.index()] = 0;
        } else {
            let l = node
                .fanins
                .iter()
                .map(|f| level[f.index()])
                .max()
                .unwrap_or(0)
                + 1;
            level[id.index()] = l;
            max_level = max_level.max(l);
        }
    }
    Levels { level, max_level }
}

/// Counts, for every node, how many gate fan-ins plus primary outputs consume
/// it.
pub fn fanout_counts(netlist: &Netlist) -> Vec<usize> {
    let mut counts = vec![0usize; netlist.len()];
    for (_, node) in netlist.iter() {
        for f in &node.fanins {
            counts[f.index()] += 1;
        }
    }
    for (id, _) in netlist.outputs() {
        counts[id.index()] += 1;
    }
    counts
}

/// Counts how many nodes of each [`GateKind`] appear in the netlist,
/// indexed by [`GateKind::one_hot_index`].
pub fn kind_histogram(netlist: &Netlist) -> [usize; GateKind::ALL.len()] {
    let mut hist = [0usize; GateKind::ALL.len()];
    for (_, node) in netlist.iter() {
        hist[node.kind.one_hot_index()] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn chain(depth: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let mut prev = n.add_input("a");
        for _ in 0..depth {
            prev = n.add_gate(GateKind::Not, &[prev]).unwrap();
        }
        n.mark_output(prev, "y");
        n
    }

    #[test]
    fn levels_of_chain_match_depth() {
        let n = chain(5);
        let lv = levels(&n);
        assert_eq!(lv.max_level, 5);
        assert_eq!(lv.of(NodeId(0)), 0);
        assert_eq!(lv.of(NodeId(5)), 5);
    }

    #[test]
    fn topo_order_respects_fanins() {
        let n = chain(4);
        let order = topo_order(&n);
        assert_eq!(order.len(), n.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; n.len()];
            for (i, id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for (id, node) in n.iter() {
            for f in &node.fanins {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let mut n = Netlist::new("f");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Or, &[a, g1]).unwrap();
        n.mark_output(g1, "o1");
        n.mark_output(g2, "o2");
        let counts = fanout_counts(&n);
        assert_eq!(counts[a.index()], 2); // g1, g2
        assert_eq!(counts[b.index()], 1); // g1
        assert_eq!(counts[g1.index()], 2); // g2 + output
        assert_eq!(counts[g2.index()], 1); // output only
    }

    #[test]
    fn kind_histogram_counts() {
        let mut n = Netlist::new("h");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let _ = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let _ = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let hist = kind_histogram(&n);
        assert_eq!(hist[GateKind::Input.one_hot_index()], 2);
        assert_eq!(hist[GateKind::And.one_hot_index()], 1);
        assert_eq!(hist[GateKind::Xor.one_hot_index()], 1);
        assert_eq!(hist.iter().sum::<usize>(), 4);
    }

    #[test]
    fn empty_netlist_levels() {
        let n = Netlist::new("empty");
        let lv = levels(&n);
        assert_eq!(lv.max_level, 0);
        assert!(lv.level.is_empty());
        assert!(topo_order(&n).is_empty());
    }
}
