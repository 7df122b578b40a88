//! The learning representation of a circuit: node features, logic levels,
//! the edge list, labels and reconvergence skip edges. The level-by-level
//! propagation order over them is compiled in one place,
//! [`crate::InferencePlan`].

use deepgate_aig::recon::ReconvergenceAnalysis;
use deepgate_aig::Aig;
use deepgate_netlist::{Dag, GateKind, Netlist};
use deepgate_nn::Tensor;

/// How gate types are encoded as node feature vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureEncoding {
    /// Three-symbol alphabet of the AIG representation: primary input /
    /// constant, AND gate, NOT gate. This is the encoding DeepGate uses
    /// after circuit transformation.
    AigGates,
    /// One-hot over the full [`GateKind`] alphabet, used for the "without
    /// circuit transformation" ablation of Table IV.
    AllGates,
}

impl FeatureEncoding {
    /// Dimensionality of the node feature vectors under this encoding.
    pub fn dimension(self) -> usize {
        match self {
            FeatureEncoding::AigGates => 3,
            FeatureEncoding::AllGates => GateKind::ALL.len(),
        }
    }

    /// Feature index of a gate kind under this encoding.
    ///
    /// # Panics
    ///
    /// Panics for [`FeatureEncoding::AigGates`] if the kind is not part of
    /// the PI/AND/NOT alphabet (e.g. an OR gate in a netlist that was not
    /// transformed to AIG form).
    pub fn index_of(self, kind: GateKind) -> usize {
        match self {
            FeatureEncoding::AigGates => match kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::And => 1,
                GateKind::Not => 2,
                other => panic!("gate kind {other} is not part of the AIG alphabet"),
            },
            FeatureEncoding::AllGates => kind.one_hot_index(),
        }
    }
}

/// A skip-connection edge from a fan-out stem to a reconvergence node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEdge {
    /// Node index of the source fan-out stem.
    pub source: usize,
    /// Node index of the reconvergence node.
    pub target: usize,
    /// Logic-level difference between the two.
    pub level_difference: usize,
}

/// A circuit prepared for GNN consumption.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitGraph {
    /// Design name.
    pub name: String,
    /// Number of nodes.
    pub num_nodes: usize,
    /// The feature encoding in use.
    pub encoding: FeatureEncoding,
    /// `[num_nodes, encoding.dimension()]` one-hot gate-type features.
    pub features: Tensor,
    /// Per-node logic level.
    pub levels: Vec<usize>,
    /// Maximum logic level (circuit depth).
    pub max_level: usize,
    /// `true` for nodes that are logic gates (not primary inputs or
    /// constants); evaluation metrics are computed over these nodes.
    pub gate_mask: Vec<bool>,
    /// Directed edges `(fanin, node)` of the circuit DAG, grouped by `node`
    /// in ascending order with each node's fan-ins in netlist order
    /// (duplicates kept).
    pub edges: Vec<(usize, usize)>,
    /// Skip edges from reconvergence analysis, in ascending target order
    /// (at most one per node).
    pub skip_edges: Vec<SkipEdge>,
    /// Optional per-node signal-probability labels.
    pub labels: Option<Vec<f32>>,
}

impl CircuitGraph {
    /// Builds a circuit graph from a gate-level netlist.
    ///
    /// `labels`, when given, must hold one signal probability per netlist
    /// node (indexed by [`deepgate_netlist::NodeId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `encoding` is [`FeatureEncoding::AigGates`] and the netlist
    /// contains gates outside the PI/AND/NOT alphabet, or if `labels` has the
    /// wrong length.
    pub fn from_netlist(
        netlist: &Netlist,
        encoding: FeatureEncoding,
        labels: Option<Vec<f32>>,
    ) -> Self {
        let n = netlist.len();
        if let Some(l) = &labels {
            assert_eq!(l.len(), n, "labels must cover every netlist node");
        }
        let mut features = Tensor::zeros(n, encoding.dimension());
        let mut gate_mask = vec![false; n];
        for (id, node) in netlist.iter() {
            features.set(id.index(), encoding.index_of(node.kind), 1.0);
            gate_mask[id.index()] = node.kind.is_gate();
        }
        let (levels, max_level) = netlist.levels();

        let mut edges = Vec::new();
        for (id, node) in netlist.iter() {
            for f in &node.fanins {
                edges.push((f.index(), id.index()));
            }
        }

        let recon = ReconvergenceAnalysis::of(netlist);
        let mut skip_edges = Vec::new();
        for (target, info) in recon.per_node().iter().enumerate() {
            if let Some(info) = info {
                skip_edges.push(SkipEdge {
                    source: info.source,
                    target,
                    level_difference: info.level_difference,
                });
            }
        }

        CircuitGraph {
            name: netlist.name().to_string(),
            num_nodes: n,
            encoding,
            features,
            levels,
            max_level,
            gate_mask,
            edges,
            skip_edges,
            labels,
        }
    }

    /// Builds a circuit graph from an AIG by expanding it into an explicit
    /// PI/AND/NOT netlist first. Returns the graph together with the
    /// expanded netlist (which is what labels must be computed against).
    ///
    /// Sequential AIGs are implicitly cut at latch boundaries (latch state
    /// nodes become pseudo primary inputs); apply a
    /// [`LatchPolicy`](deepgate_aig::LatchPolicy) first to choose the latch
    /// treatment explicitly and keep next-state cones observable.
    pub fn from_aig(aig: &Aig) -> (Self, Netlist) {
        let netlist = aig.to_netlist();
        let graph = CircuitGraph::from_netlist(&netlist, FeatureEncoding::AigGates, None);
        (graph, netlist)
    }

    /// Attaches per-node labels (signal probabilities).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the node count.
    pub fn set_labels(&mut self, labels: Vec<f32>) {
        assert_eq!(labels.len(), self.num_nodes, "label count mismatch");
        self.labels = Some(labels);
    }

    /// The skip edge ending at `target`, if that node is a reconvergence
    /// node.
    pub fn skip_edge_for(&self, target: usize) -> Option<SkipEdge> {
        let found = self.skip_edges.binary_search_by_key(&target, |e| e.target);
        found.ok().map(|i| self.skip_edges[i])
    }

    /// Number of logic-gate nodes (excludes primary inputs and constants).
    pub fn num_gates(&self) -> usize {
        self.gate_mask.iter().filter(|&&g| g).count()
    }

    /// Labels as a `[num_nodes, 1]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if no labels are attached.
    pub fn label_tensor(&self) -> Tensor {
        let labels = self
            .labels
            .as_ref()
            .expect("circuit graph has no labels attached");
        Tensor::column(labels)
    }

    /// A canonical 128-bit structural fingerprint of the circuit.
    ///
    /// The fingerprint covers everything inference depends on — feature
    /// encoding, per-node features, logic levels, gate mask, edges and skip
    /// edges — and deliberately excludes the design name and labels, so two
    /// separately parsed copies of the same circuit collide on purpose. This
    /// is the cache key of the serving layer's structural circuit cache
    /// (`deepgate-serve`): repeated circuits skip preparation entirely.
    pub fn fingerprint(&self) -> u128 {
        let mut h = StructuralHasher::new();
        h.write(self.encoding.dimension() as u64);
        h.write(self.num_nodes as u64);
        h.write(self.max_level as u64);
        for &v in self.features.as_slice() {
            h.write(v.to_bits() as u64);
        }
        for &level in &self.levels {
            h.write(level as u64);
        }
        for &gate in &self.gate_mask {
            h.write(gate as u64);
        }
        h.write(self.edges.len() as u64);
        for &(src, dst) in &self.edges {
            h.write(src as u64);
            h.write(dst as u64);
        }
        h.write(self.skip_edges.len() as u64);
        for edge in &self.skip_edges {
            h.write(edge.source as u64);
            h.write(edge.target as u64);
            h.write(edge.level_difference as u64);
        }
        h.finish()
    }
}

/// Two interleaved FNV-1a streams with distinct offsets, combined into a
/// 128-bit digest. Not cryptographic — collision resistance only needs to be
/// good enough for cache keying, where a collision costs a wrong prediction
/// for one request, and 2^-128 is far below hardware error rates.
///
/// Shared by [`CircuitGraph::fingerprint`] and the serving layer's
/// request-text memo (`deepgate-serve`), so both keys evolve together.
#[derive(Debug, Clone)]
pub struct StructuralHasher {
    a: u64,
    b: u64,
}

impl StructuralHasher {
    const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
    const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        StructuralHasher {
            a: Self::OFFSET_A,
            b: Self::OFFSET_B,
        }
    }

    /// Mixes in one `u64` (little-endian byte order).
    pub fn write(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Mixes in raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(Self::PRIME);
            self.b = (self.b ^ byte.rotate_left(3) as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

impl Default for StructuralHasher {
    fn default() -> Self {
        StructuralHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_netlist::GateKind;

    fn small_netlist() -> Netlist {
        let mut n = Netlist::new("g");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = n.add_gate(GateKind::And, &[g1, g2]).unwrap();
        n.mark_output(g3, "y");
        n
    }

    #[test]
    fn features_are_one_hot() {
        let n = small_netlist();
        let graph = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        assert_eq!(graph.features.shape(), [5, 3]);
        for i in 0..graph.num_nodes {
            let row_sum: f32 = graph.features.row(i).iter().sum();
            assert_eq!(row_sum, 1.0);
        }
        // PI rows have feature 0 set; AND rows feature 1; NOT rows feature 2.
        assert_eq!(graph.features.get(0, 0), 1.0);
        assert_eq!(graph.features.get(2, 1), 1.0);
        assert_eq!(graph.features.get(3, 2), 1.0);
        assert_eq!(graph.num_gates(), 3);
    }

    #[test]
    fn all_gates_encoding_has_full_dimension() {
        let n = small_netlist();
        let graph = CircuitGraph::from_netlist(&n, FeatureEncoding::AllGates, None);
        assert_eq!(graph.features.cols(), GateKind::ALL.len());
    }

    #[test]
    #[should_panic(expected = "not part of the AIG alphabet")]
    fn aig_encoding_rejects_foreign_gates() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let _ = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        let _ = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
    }

    #[test]
    fn skip_edges_found_for_reconvergent_netlist() {
        let n = small_netlist();
        let graph = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        // g3 reconverges on g1 (through the direct edge and through g2).
        assert_eq!(graph.skip_edges.len(), 1);
        let edge = graph.skip_edges[0];
        assert_eq!(edge.source, 2);
        assert_eq!(edge.target, 4);
        assert_eq!(graph.skip_edge_for(4), Some(edge));
        assert_eq!(graph.skip_edge_for(1), None);
    }

    #[test]
    fn fingerprint_is_structural() {
        // Same structure, different names/labels: identical fingerprints.
        let mut a = CircuitGraph::from_netlist(&small_netlist(), FeatureEncoding::AigGates, None);
        let mut renamed = small_netlist();
        renamed.set_name("other");
        let mut b = CircuitGraph::from_netlist(&renamed, FeatureEncoding::AigGates, None);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.set_labels(vec![0.5; a.num_nodes]);
        b.set_labels(vec![0.25; b.num_nodes]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_structures() {
        let base = CircuitGraph::from_netlist(&small_netlist(), FeatureEncoding::AigGates, None);
        // Different encoding of the same netlist.
        let wide = CircuitGraph::from_netlist(&small_netlist(), FeatureEncoding::AllGates, None);
        assert_ne!(base.fingerprint(), wide.fingerprint());
        // One extra gate.
        let mut bigger = small_netlist();
        let a = bigger.find_by_name("a").expect("input `a` exists");
        let extra = bigger.add_gate(GateKind::Not, &[a]).unwrap();
        bigger.mark_output(extra, "z");
        let bigger = CircuitGraph::from_netlist(&bigger, FeatureEncoding::AigGates, None);
        assert_ne!(base.fingerprint(), bigger.fingerprint());
        // Two side-by-side copies in one netlist differ from a single copy.
        let mut doubled = small_netlist();
        let c = doubled.add_input("c");
        let d = doubled.add_input("d");
        let h1 = doubled.add_gate(GateKind::And, &[c, d]).unwrap();
        let h2 = doubled.add_gate(GateKind::Not, &[h1]).unwrap();
        let h3 = doubled.add_gate(GateKind::And, &[h1, h2]).unwrap();
        doubled.mark_output(h3, "y2");
        let doubled = CircuitGraph::from_netlist(&doubled, FeatureEncoding::AigGates, None);
        assert_eq!(doubled.num_nodes, 2 * base.num_nodes);
        assert_ne!(base.fingerprint(), doubled.fingerprint());
    }

    #[test]
    fn labels_roundtrip() {
        let n = small_netlist();
        let mut graph = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        graph.set_labels(vec![0.5, 0.5, 0.25, 0.75, 0.1875]);
        let t = graph.label_tensor();
        assert_eq!(t.shape(), [5, 1]);
        assert_eq!(t.get(2, 0), 0.25);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn wrong_label_count_panics() {
        let n = small_netlist();
        let mut graph = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        graph.set_labels(vec![0.1]);
    }

    #[test]
    fn from_aig_expands_and_builds() {
        let mut aig = Aig::new("x");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output(x, "y");
        let (graph, netlist) = CircuitGraph::from_aig(&aig);
        assert_eq!(graph.num_nodes, netlist.len());
        assert_eq!(graph.encoding, FeatureEncoding::AigGates);
        assert!(graph.num_gates() > 0);
    }

    /// A toggle flip-flop (`q' = q XOR en`, output `q`) under both latch
    /// policies, then `from_aig`: distinct structures, distinct fingerprints.
    #[test]
    fn latch_policies_then_from_aig_build_distinct_graphs() {
        use deepgate_aig::LatchPolicy;
        let mut aig = Aig::new("toggle");
        let en = aig.add_input("en");
        let q = aig.add_latch("q");
        let next = aig.xor(q, en);
        aig.set_latch_next(0, next);
        aig.add_output(q, "y");
        let graph_under = |policy: LatchPolicy| {
            policy
                .apply(&aig)
                .map(|combinational| CircuitGraph::from_aig(&combinational))
        };

        let (cut, cut_netlist) = graph_under(LatchPolicy::Cut).expect("cut policy applies");
        assert_eq!(cut_netlist.num_inputs(), 2); // en + pseudo-input q
        assert_eq!(cut_netlist.num_outputs(), 2); // y + q_next

        let (unrolled, unrolled_netlist) =
            graph_under(LatchPolicy::Unroll(3)).expect("unroll policy applies");
        assert_eq!(unrolled_netlist.num_outputs(), 3); // y@0..y@2
        assert_ne!(cut.fingerprint(), unrolled.fingerprint());

        assert!(graph_under(LatchPolicy::Unroll(0)).is_err());
    }
}
