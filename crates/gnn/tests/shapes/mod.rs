//! Circuit shapes shared by the kernel parity suite (`csr_parity.rs`) and
//! the crate's own tests (the level-schedule oracle in `src/csr.rs`, the
//! gradient oracles in `src/dag_rec.rs`), which include this file by path —
//! so it names no `deepgate_gnn` type.
#![allow(dead_code)]

use deepgate_aig::Aig;
use deepgate_netlist::{GateKind, Netlist, NodeId};
use proptest::prelude::*;

/// Expands an arbitrary netlist into AIG-gate (PI / AND / NOT) form — the
/// mapping the engine facade runs before it builds a circuit graph.
pub fn expand(netlist: &Netlist) -> Netlist {
    Aig::from_netlist(netlist)
        .expect("maps to AIG")
        .to_netlist()
}

/// A NOT/buffer chain: the deepest, narrowest shape — every CSR level has
/// width 1, stressing per-level overhead and the reverse pass ordering.
pub fn shape_chain(depth: usize) -> Netlist {
    let mut n = Netlist::new("chain");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let mut cur = n.add_gate(GateKind::And, &[a, b]).unwrap();
    for _ in 0..depth {
        cur = n.add_gate(GateKind::Not, &[cur]).unwrap();
    }
    n.mark_output(cur, "y");
    n
}

/// A balanced AND tree: maximally wide levels that shrink geometrically —
/// the dense-slice best case for the CSR walk.
pub fn shape_tree(leaves: usize) -> Netlist {
    let mut n = Netlist::new("tree");
    let mut layer: Vec<NodeId> = (0..leaves).map(|i| n.add_input(format!("x{i}"))).collect();
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            next.push(if pair.len() == 2 {
                n.add_gate(GateKind::And, &[pair[0], pair[1]]).unwrap()
            } else {
                pair[0]
            });
        }
        layer = next;
    }
    n.mark_output(layer[0], "y");
    n
}

/// The full adder: XOR decomposition introduces inverters and reconvergent
/// sharing through the AIG mapping, with two outputs.
pub fn shape_full_adder() -> Netlist {
    let mut n = Netlist::new("full_adder");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let cin = n.add_input("cin");
    let x = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
    let sum = n.add_gate(GateKind::Xor, &[x, cin]).unwrap();
    let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
    let g2 = n.add_gate(GateKind::And, &[x, cin]).unwrap();
    let cout = n.add_gate(GateKind::Or, &[g1, g2]).unwrap();
    n.mark_output(sum, "sum");
    n.mark_output(cout, "cout");
    n
}

/// A reconvergent diamond: one stem fans out and reconverges, producing
/// skip edges (the `use_skip_connections` path) on a minimal circuit.
pub fn shape_diamond() -> Netlist {
    let mut n = Netlist::new("diamond");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let stem = n.add_gate(GateKind::And, &[a, b]).unwrap();
    let left = n.add_gate(GateKind::Not, &[stem]).unwrap();
    let right = n.add_gate(GateKind::And, &[stem, c]).unwrap();
    let join = n.add_gate(GateKind::And, &[left, right]).unwrap();
    n.mark_output(join, "y");
    n
}

/// Mixed gate kinds (NAND/NOR/XOR/OR): the AIG mapping spreads these across
/// several levels with inverters, so per-type regressor masks see every
/// node class.
pub fn shape_mixed() -> Netlist {
    let mut n = Netlist::new("mixed");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let d = n.add_input("d");
    let g1 = n.add_gate(GateKind::Nand, &[a, b]).unwrap();
    let g2 = n.add_gate(GateKind::Nor, &[c, d]).unwrap();
    let g3 = n.add_gate(GateKind::Xor, &[g1, g2]).unwrap();
    let g4 = n.add_gate(GateKind::Or, &[g3, a]).unwrap();
    n.mark_output(g4, "y");
    n.mark_output(g2, "m");
    n
}

/// A wide multi-output comb: many independent 2-input gates at level 1 —
/// one wide CSR level, no depth, every gate an output.
pub fn shape_comb(width: usize) -> Netlist {
    let mut n = Netlist::new("comb");
    let inputs: Vec<NodeId> = (0..=width).map(|i| n.add_input(format!("x{i}"))).collect();
    for i in 0..width {
        let g = n
            .add_gate(GateKind::And, &[inputs[i], inputs[i + 1]])
            .unwrap();
        n.mark_output(g, format!("y{i}"));
    }
    n
}

/// A ladder with long-range reuse: every rung reuses an early stem, giving
/// many skip edges with large, varied level differences.
pub fn shape_ladder(rungs: usize) -> Netlist {
    let mut n = Netlist::new("ladder");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let stem = n.add_gate(GateKind::And, &[a, b]).unwrap();
    let mut cur = stem;
    for _ in 0..rungs {
        let inv = n.add_gate(GateKind::Not, &[cur]).unwrap();
        cur = n.add_gate(GateKind::And, &[inv, stem]).unwrap();
    }
    n.mark_output(cur, "y");
    n
}

/// The fixed shape suite: ≥7 structurally distinct circuit families.
pub fn shape_suite() -> Vec<Netlist> {
    vec![
        shape_chain(9),
        shape_tree(16),
        shape_full_adder(),
        shape_diamond(),
        shape_mixed(),
        shape_comb(12),
        shape_ladder(6),
    ]
}

/// A funnel: four inputs narrowing through three, two and one AND gate, so
/// the forward levels are exactly 3, 2 and 1 rows wide — a pair plus an odd
/// row, one pair and a lone row for the kernel's two-rows-at-a-time GRU
/// input pass.
pub fn shape_funnel() -> Netlist {
    let mut n = Netlist::new("funnel");
    let mut layer: Vec<NodeId> = (0..4).map(|i| n.add_input(format!("x{i}"))).collect();
    while layer.len() > 1 {
        layer = layer
            .windows(2)
            .map(|w| n.add_gate(GateKind::And, &[w[0], w[1]]).unwrap())
            .collect();
    }
    n.mark_output(layer[0], "y");
    n
}

/// Strategy: a random valid combinational netlist, as (gate kind, fan-in
/// picks) build steps over a random input count — the same construction the
/// workspace-level property suite uses.
pub fn random_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
    let gate_steps = prop::collection::vec((0usize..6, any::<u64>(), any::<u64>()), 1..max_gates);
    (2usize..6, gate_steps).prop_map(|(num_inputs, steps)| {
        let mut netlist = Netlist::new("prop");
        let mut signals: Vec<NodeId> = (0..num_inputs)
            .map(|i| netlist.add_input(format!("x{i}")))
            .collect();
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Not,
        ];
        for (kind_idx, pick_a, pick_b) in steps {
            let kind = kinds[kind_idx];
            let a = signals[(pick_a % signals.len() as u64) as usize];
            let b = signals[(pick_b % signals.len() as u64) as usize];
            let id = if kind == GateKind::Not {
                netlist.add_gate(kind, &[a]).expect("valid arity")
            } else {
                netlist.add_gate(kind, &[a, b]).expect("valid arity")
            };
            signals.push(id);
        }
        let last = *signals.last().expect("at least one signal");
        netlist.mark_output(last, "y");
        let mid = signals[signals.len() / 2];
        netlist.mark_output(mid, "m");
        netlist
    })
}
