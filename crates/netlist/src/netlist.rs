use crate::{GateKind, Levels, NetlistError, NetlistStats, TopoOrder};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node inside a [`Netlist`].
///
/// Node ids are dense, start at zero and are stable for the lifetime of the
/// netlist (nodes are never removed).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// One node (primary input, constant or gate) of a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// The gate kind of this node.
    pub kind: GateKind,
    /// Fan-in node ids, in argument order.
    pub fanins: Vec<NodeId>,
    /// Optional signal name (always present for primary inputs).
    pub name: Option<String>,
}

/// A combinational gate-level netlist represented as a DAG.
///
/// This is the unified circuit representation the rest of the workspace
/// consumes: BENCH files parse into it, synthetic benchmark generators build
/// it, and `deepgate-aig` maps it into And-Inverter-Graph form.
///
/// # Example
///
/// ```rust
/// use deepgate_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), deepgate_netlist::NetlistError> {
/// let mut n = Netlist::new("majority");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let ab = n.add_gate(GateKind::And, &[a, b])?;
/// let bc = n.add_gate(GateKind::And, &[b, c])?;
/// let ac = n.add_gate(GateKind::And, &[a, c])?;
/// let maj = n.add_gate(GateKind::Or, &[ab, bc, ac])?;
/// n.mark_output(maj, "maj");
/// assert_eq!(n.num_inputs(), 3);
/// assert_eq!(n.num_gates(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<(NodeId, String)>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Total number of nodes (inputs, constants and gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (nodes that are not primary inputs or constants).
    pub fn num_gates(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_gate()).count()
    }

    /// Primary input node ids, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs as `(node, name)` pairs, in declaration order.
    pub fn outputs(&self) -> &[(NodeId, String)] {
        &self.outputs
    }

    /// Access a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Access a node by id, returning `None` when out of range.
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Iterate over `(id, node)` pairs in id order (which is a valid
    /// topological order because fan-ins must exist before use).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Adds a primary input with the given name and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: GateKind::Input,
            fanins: Vec::new(),
            name: Some(name.into()),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a constant node and returns its id.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: if value {
                GateKind::Const1
            } else {
                GateKind::Const0
            },
            fanins: Vec::new(),
            name: None,
        });
        id
    }

    /// Adds a gate of the given kind with the given fan-ins and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the fan-in count is illegal
    /// for `kind`, and [`NetlistError::UnknownNode`] if a fan-in id does not
    /// exist yet. Because fan-ins must already exist, insertion order is a
    /// topological order and cycles cannot be constructed through this API.
    pub fn add_gate(&mut self, kind: GateKind, fanins: &[NodeId]) -> Result<NodeId, NetlistError> {
        if !kind.accepts_arity(fanins.len()) {
            return Err(NetlistError::ArityMismatch {
                kind: kind.mnemonic(),
                got: fanins.len(),
            });
        }
        for &f in fanins {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownNode(f.index()));
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            fanins: fanins.to_vec(),
            name: None,
        });
        Ok(id)
    }

    /// Adds a gate and assigns a signal name to it.
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::add_gate`].
    pub fn add_named_gate(
        &mut self,
        kind: GateKind,
        fanins: &[NodeId],
        name: impl Into<String>,
    ) -> Result<NodeId, NetlistError> {
        let id = self.add_gate(kind, fanins)?;
        self.nodes[id.index()].name = Some(name.into());
        Ok(id)
    }

    /// Marks `node` as a primary output under `name`. A node may drive
    /// multiple outputs.
    pub fn mark_output(&mut self, node: NodeId, name: impl Into<String>) {
        self.outputs.push((node, name.into()));
    }

    /// Returns the signal name of a node if it has one.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes[id.index()].name.as_deref()
    }

    /// Looks up a node id by signal name (inputs and named gates).
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.iter()
            .find(|(_, n)| n.name.as_deref() == Some(name))
            .map(|(id, _)| id)
    }

    /// Returns node ids in a valid topological order (fan-ins before fan-outs).
    pub fn topo_order(&self) -> TopoOrder {
        crate::graph::topo_order(self)
    }

    /// Computes the logic level of every node (inputs and constants are level
    /// 0, a gate is one more than its deepest fan-in).
    pub fn levels(&self) -> Levels {
        crate::graph::levels(self)
    }

    /// Number of fan-outs of every node (how many gates or outputs consume it).
    pub fn fanout_counts(&self) -> Vec<usize> {
        crate::graph::fanout_counts(self)
    }

    /// Structural statistics of the netlist (gate histogram, depth, fan-out).
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }

    /// Checks internal invariants: fan-in ids in range, arities legal, every
    /// output refers to an existing node, primary inputs have no fan-ins.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, node) in self.iter() {
            if !node.kind.accepts_arity(node.fanins.len()) {
                return Err(NetlistError::ArityMismatch {
                    kind: node.kind.mnemonic(),
                    got: node.fanins.len(),
                });
            }
            for &f in &node.fanins {
                if f.index() >= self.nodes.len() {
                    return Err(NetlistError::UnknownNode(f.index()));
                }
                if f.index() >= id.index() {
                    return Err(NetlistError::Cycle {
                        from: f.index(),
                        to: id.index(),
                    });
                }
            }
        }
        for (node, _) in &self.outputs {
            if node.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownNode(node.index()));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: {} nodes ({} PIs, {} gates, {} POs)",
            self.name,
            self.len(),
            self.num_inputs(),
            self.num_gates(),
            self.num_outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut n = Netlist::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let cin = n.add_input("cin");
        let axb = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let sum = n.add_gate(GateKind::Xor, &[axb, cin]).unwrap();
        let ab = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let c2 = n.add_gate(GateKind::And, &[axb, cin]).unwrap();
        let cout = n.add_gate(GateKind::Or, &[ab, c2]).unwrap();
        n.mark_output(sum, "sum");
        n.mark_output(cout, "cout");
        n
    }

    #[test]
    fn construction_and_counts() {
        let n = full_adder();
        assert_eq!(n.len(), 8);
        assert_eq!(n.num_inputs(), 3);
        assert_eq!(n.num_gates(), 5);
        assert_eq!(n.num_outputs(), 2);
        assert!(n.validate().is_ok());
        assert!(n.to_string().contains("fa"));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let err = n.add_gate(GateKind::Not, &[a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { got: 2, .. }));
    }

    #[test]
    fn unknown_fanin_is_reported() {
        let mut n = Netlist::new("bad");
        let err = n.add_gate(GateKind::Buf, &[NodeId(7)]).unwrap_err();
        assert_eq!(err, NetlistError::UnknownNode(7));
    }

    #[test]
    fn names_resolve() {
        let n = full_adder();
        let a = n.find_by_name("a").unwrap();
        assert_eq!(n.node(a).kind, GateKind::Input);
        assert!(n.find_by_name("missing").is_none());
        assert_eq!(n.node_name(a), Some("a"));
    }

    #[test]
    fn constants_are_sources() {
        let mut n = Netlist::new("c");
        let zero = n.add_const(false);
        let one = n.add_const(true);
        assert!(n.node(zero).kind.is_source());
        assert!(n.node(one).kind.is_source());
        assert_eq!(n.num_gates(), 0);
    }

    #[test]
    fn display_of_node_id() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(usize::from(NodeId(4)), 4);
    }

    #[test]
    fn validate_detects_forward_reference_cycle() {
        // Hand-construct a broken netlist through serde to bypass the API.
        let mut n = full_adder();
        // Introduce an illegal forward edge by swapping a fan-in.
        n.nodes[3].fanins[0] = NodeId(7);
        assert!(matches!(n.validate(), Err(NetlistError::Cycle { .. })));
    }
}
