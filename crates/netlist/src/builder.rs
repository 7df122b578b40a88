//! Fluent construction helpers for building circuits in code.
//!
//! The synthetic benchmark generators in `deepgate-dataset` need to build
//! word-level arithmetic and control structures (adders, multipliers,
//! multiplexer trees, priority encoders). [`NetlistBuilder`] provides the
//! word-level helpers so those generators stay readable.

use crate::{GateKind, Netlist, NetlistError, NodeId};

/// A fluent builder over [`Netlist`] with word-level (multi-bit) helpers.
///
/// # Example
///
/// ```rust
/// use deepgate_netlist::NetlistBuilder;
///
/// # fn main() -> Result<(), deepgate_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("adder4");
/// let a = b.input_word("a", 4);
/// let c = b.input_word("b", 4);
/// let (sum, carry) = b.ripple_add(&a, &c)?;
/// b.output_word("sum", &sum);
/// b.output("cout", carry);
/// let netlist = b.finish();
/// assert_eq!(netlist.num_inputs(), 8);
/// assert_eq!(netlist.num_outputs(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    netlist: Netlist,
}

impl NetlistBuilder {
    /// Creates a builder for a new design.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            netlist: Netlist::new(name),
        }
    }

    /// Consumes the builder and returns the built netlist.
    pub fn finish(self) -> Netlist {
        self.netlist
    }

    /// Read-only access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Adds a single primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        self.netlist.add_input(name)
    }

    /// Adds `width` primary inputs named `name[0]` … `name[width-1]`
    /// (LSB first).
    pub fn input_word(&mut self, name: &str, width: usize) -> Vec<NodeId> {
        (0..width)
            .map(|i| self.netlist.add_input(format!("{name}[{i}]")))
            .collect()
    }

    /// Adds a constant node.
    pub fn constant(&mut self, value: bool) -> NodeId {
        self.netlist.add_const(value)
    }

    /// Marks a node as a primary output.
    pub fn output(&mut self, name: impl Into<String>, node: NodeId) {
        self.netlist.mark_output(node, name);
    }

    /// Marks each bit of a word as a primary output `name[i]`.
    pub fn output_word(&mut self, name: &str, bits: &[NodeId]) {
        for (i, &bit) in bits.iter().enumerate() {
            self.netlist.mark_output(bit, format!("{name}[{i}]"));
        }
    }

    /// Adds a gate.
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::add_gate`].
    pub fn gate(&mut self, kind: GateKind, fanins: &[NodeId]) -> Result<NodeId, NetlistError> {
        self.netlist.add_gate(kind, fanins)
    }

    /// Convenience: 2-input AND.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.netlist
            .add_gate(GateKind::And, &[a, b])
            .expect("fixed arity")
    }

    /// Convenience: 2-input OR.
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.netlist
            .add_gate(GateKind::Or, &[a, b])
            .expect("fixed arity")
    }

    /// Convenience: 2-input XOR.
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.netlist
            .add_gate(GateKind::Xor, &[a, b])
            .expect("fixed arity")
    }

    /// Convenience: inverter.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.netlist
            .add_gate(GateKind::Not, &[a])
            .expect("fixed arity")
    }

    /// Convenience: 2:1 multiplexer (`sel ? b : a`).
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.netlist
            .add_gate(GateKind::Mux, &[sel, a, b])
            .expect("fixed arity")
    }

    /// A full adder; returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NodeId, b: NodeId, cin: NodeId) -> (NodeId, NodeId) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, cin);
        let ab = self.and2(a, b);
        let c2 = self.and2(axb, cin);
        let cout = self.or2(ab, c2);
        (sum, cout)
    }

    /// Ripple-carry addition of two equal-width words; returns
    /// `(sum_bits, carry_out)`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the words have different
    /// widths (reported as an arity error on the first mismatching bit) —
    /// in practice the words must simply be the same length.
    pub fn ripple_add(
        &mut self,
        a: &[NodeId],
        b: &[NodeId],
    ) -> Result<(Vec<NodeId>, NodeId), NetlistError> {
        if a.len() != b.len() || a.is_empty() {
            return Err(NetlistError::ArityMismatch {
                kind: "ripple_add",
                got: a.len().min(b.len()),
            });
        }
        let mut carry = self.constant(false);
        let mut sum = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            sum.push(s);
            carry = c;
        }
        Ok((sum, carry))
    }

    /// Array multiplier of two equal-width words; returns the `2*width`
    /// product bits (LSB first).
    ///
    /// # Errors
    ///
    /// Returns an error if the words have different widths or are empty.
    pub fn array_multiply(
        &mut self,
        a: &[NodeId],
        b: &[NodeId],
    ) -> Result<Vec<NodeId>, NetlistError> {
        if a.len() != b.len() || a.is_empty() {
            return Err(NetlistError::ArityMismatch {
                kind: "array_multiply",
                got: a.len().min(b.len()),
            });
        }
        let width = a.len();
        let zero = self.constant(false);
        // Partial products accumulated row by row with ripple adders.
        let mut acc: Vec<NodeId> = vec![zero; 2 * width];
        for (j, &bj) in b.iter().enumerate() {
            // Row j of partial products, shifted left by j.
            let mut row: Vec<NodeId> = vec![zero; 2 * width];
            for (i, &ai) in a.iter().enumerate() {
                row[i + j] = self.and2(ai, bj);
            }
            let (sum, carry) = self.ripple_add(&acc, &row)?;
            // Carry out of a 2*width-bit accumulator never fires for an
            // n x n multiply; keep the sum bits.
            let _ = carry;
            acc = sum;
        }
        Ok(acc)
    }

    /// Balanced reduction of a list of nodes with the given associative gate
    /// kind (AND/OR/XOR). Returns the single reduced node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn reduce(&mut self, kind: GateKind, nodes: &[NodeId]) -> NodeId {
        assert!(!nodes.is_empty(), "cannot reduce an empty node list");
        let mut layer: Vec<NodeId> = nodes.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(
                        self.netlist
                            .add_gate(kind, &[pair[0], pair[1]])
                            .expect("binary arity accepted"),
                    );
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Selects one of `2^sel.len()` data inputs with a binary-encoded select
    /// word, as a tree of 2:1 multiplexers.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 2^sel.len()`.
    pub fn mux_tree(&mut self, sel: &[NodeId], data: &[NodeId]) -> NodeId {
        assert_eq!(
            data.len(),
            1usize << sel.len(),
            "mux tree needs 2^sel data inputs"
        );
        let mut layer: Vec<NodeId> = data.to_vec();
        for &s in sel {
            let mut next = Vec::with_capacity(layer.len() / 2);
            for pair in layer.chunks(2) {
                next.push(self.mux(s, pair[0], pair[1]));
            }
            layer = next;
        }
        layer[0]
    }

    /// Equality comparator between two equal-width words (1 when equal).
    ///
    /// # Panics
    ///
    /// Panics if the words have different widths or are empty.
    pub fn equals(&mut self, a: &[NodeId], b: &[NodeId]) -> NodeId {
        assert!(!a.is_empty() && a.len() == b.len());
        let bits: Vec<NodeId> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                self.netlist
                    .add_gate(GateKind::Xnor, &[x, y])
                    .expect("fixed arity")
            })
            .collect();
        self.reduce(GateKind::And, &bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dag;

    #[test]
    fn ripple_add_structure() {
        let mut b = NetlistBuilder::new("add");
        let x = b.input_word("x", 4);
        let y = b.input_word("y", 4);
        let (sum, cout) = b.ripple_add(&x, &y).unwrap();
        b.output_word("s", &sum);
        b.output("cout", cout);
        let n = b.finish();
        assert!(n.validate().is_ok());
        assert_eq!(n.num_inputs(), 8);
        assert_eq!(n.num_outputs(), 5);
        assert!(n.num_gates() >= 4 * 5); // 5 gates per full adder
    }

    #[test]
    fn ripple_add_rejects_mismatched_widths() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.input_word("x", 3);
        let y = b.input_word("y", 4);
        assert!(b.ripple_add(&x, &y).is_err());
        assert!(b.ripple_add(&[], &[]).is_err());
    }

    #[test]
    fn multiplier_structure() {
        let mut b = NetlistBuilder::new("mul");
        let x = b.input_word("x", 3);
        let y = b.input_word("y", 3);
        let p = b.array_multiply(&x, &y).unwrap();
        assert_eq!(p.len(), 6);
        b.output_word("p", &p);
        let n = b.finish();
        assert!(n.validate().is_ok());
        assert!(n.num_gates() > 9);
    }

    #[test]
    fn reduce_builds_balanced_tree() {
        let mut b = NetlistBuilder::new("tree");
        let xs = b.input_word("x", 8);
        let root = b.reduce(GateKind::And, &xs);
        b.output("y", root);
        let n = b.finish();
        // Balanced tree over 8 leaves: 7 AND gates, depth 3.
        assert_eq!(n.num_gates(), 7);
        assert_eq!(n.levels().1, 3);
    }

    #[test]
    fn reduce_handles_odd_counts() {
        let mut b = NetlistBuilder::new("tree5");
        let xs = b.input_word("x", 5);
        let root = b.reduce(GateKind::Or, &xs);
        b.output("y", root);
        let n = b.finish();
        assert_eq!(n.num_gates(), 4);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn reduce_empty_panics() {
        let mut b = NetlistBuilder::new("t");
        b.reduce(GateKind::And, &[]);
    }

    #[test]
    fn mux_tree_selects() {
        let mut b = NetlistBuilder::new("mux");
        let sel = b.input_word("s", 2);
        let data = b.input_word("d", 4);
        let y = b.mux_tree(&sel, &data);
        b.output("y", y);
        let n = b.finish();
        assert!(n.validate().is_ok());
        assert_eq!(n.num_gates(), 3); // 2 + 1 muxes
    }

    #[test]
    fn equality_comparator() {
        let mut b = NetlistBuilder::new("eq");
        let x = b.input_word("x", 4);
        let y = b.input_word("y", 4);
        let eq = b.equals(&x, &y);
        b.output("eq", eq);
        let n = b.finish();
        assert!(n.validate().is_ok());
        assert_eq!(n.num_gates(), 4 + 3); // 4 XNOR + 3 AND
    }
}
