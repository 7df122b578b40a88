//! Parity suite for the CSR level-packed inference kernel.
//!
//! The CSR kernel ([`deepgate_gnn::CompiledKernel`]) is the one inference
//! executor; the autodiff-tape forward ([`ProbabilityModel::try_forward`],
//! the definition training optimises) is the ground truth. This suite is
//! the exactness gate: the kernel must be *bit-exact* with the tape
//! (`to_bits` equality, not epsilon closeness) for **both** the per-node
//! probabilities and the final hidden states `h_v^T`, on a fixed suite of
//! ≥7 circuit shapes and on proptest-random circuits, across every
//! aggregator, model variant and hidden width in `HIDDEN_DIMS`.

use deepgate_aig::Aig;
use deepgate_gnn::{
    AggregatorKind, CircuitGraph, DagRecConfig, DagRecGnn, FeatureEncoding, ProbabilityModel,
};
use deepgate_netlist::{GateKind, Netlist, NodeId};
use deepgate_nn::{Graph, ParamStore};
use proptest::prelude::*;

/// Hidden widths swept by every test: 8 and 64 take the kernel's
/// monomorphic fixed-width loops, 12 its runtime-width fallback.
const HIDDEN_DIMS: [usize; 3] = [8, 12, 64];

/// Expands an arbitrary netlist into AIG-gate form and builds its graph —
/// the same pipeline the engine facade runs.
fn graph_of(netlist: &Netlist) -> CircuitGraph {
    let aig = Aig::from_netlist(netlist).expect("maps to AIG");
    CircuitGraph::from_netlist(&aig.to_netlist(), FeatureEncoding::AigGates, None)
}

/// A NOT/buffer chain: the deepest, narrowest shape — every CSR level has
/// width 1, stressing per-level overhead and the reverse pass ordering.
fn shape_chain(depth: usize) -> Netlist {
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
fn shape_tree(leaves: usize) -> Netlist {
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
fn shape_full_adder() -> Netlist {
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
fn shape_diamond() -> Netlist {
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
fn shape_mixed() -> Netlist {
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
fn shape_comb(width: usize) -> Netlist {
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
fn shape_ladder(rungs: usize) -> Netlist {
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
fn shape_suite() -> Vec<CircuitGraph> {
    vec![
        graph_of(&shape_chain(9)),
        graph_of(&shape_tree(16)),
        graph_of(&shape_full_adder()),
        graph_of(&shape_diamond()),
        graph_of(&shape_mixed()),
        graph_of(&shape_comb(12)),
        graph_of(&shape_ladder(6)),
    ]
}

fn config(
    kind: AggregatorKind,
    hidden_dim: usize,
    (fix, skip, per_type): (bool, bool, bool),
) -> DagRecConfig {
    DagRecConfig {
        hidden_dim,
        num_iterations: 3,
        regressor_hidden: 8,
        aggregator: kind,
        fix_gate_input: fix,
        use_skip_connections: skip,
        per_type_regressor: per_type,
        ..DagRecConfig::default()
    }
}

/// Fails naming the first index at which two value sequences differ in any
/// bit.
fn first_bit_difference(what: &str, tape: &[f32], csr: &[f32]) -> Result<(), String> {
    if tape.len() != csr.len() {
        return Err(format!(
            "{what}: tape has {} values, CSR {}",
            tape.len(),
            csr.len()
        ));
    }
    match tape
        .iter()
        .zip(csr)
        .position(|(t, c)| t.to_bits() != c.to_bits())
    {
        Some(i) => Err(format!(
            "{what} {i} diverges: tape {} vs CSR {}",
            tape[i], csr[i]
        )),
        None => Ok(()),
    }
}

/// Compares the CSR kernel with the tape forward on one circuit: final
/// hidden states (`forward_hidden` vs the kernel's embeddings) and
/// probabilities (`try_forward` vs `predict_into`), each on a fresh tape.
fn kernel_matches_tape(
    model: &DagRecGnn,
    store: &ParamStore,
    circuit: &CircuitGraph,
) -> Result<(), String> {
    let iterations = model.config().num_iterations;
    let plan = model.plan(circuit);
    let kernel = model.compile(store);

    let mut tape = Graph::new();
    let hidden = model.forward_hidden(&mut tape, store, circuit);
    let embeddings = kernel
        .embeddings(&plan, iterations)
        .expect("CSR kernel embeds");
    if embeddings.shape() != tape.value(hidden).shape() {
        return Err(format!(
            "hidden shape: tape {:?} vs CSR {:?}",
            tape.value(hidden).shape(),
            embeddings.shape()
        ));
    }
    first_bit_difference(
        "hidden value",
        tape.value(hidden).as_slice(),
        embeddings.as_slice(),
    )?;

    let mut tape = Graph::new();
    let probs = model
        .try_forward(&mut tape, store, circuit)
        .expect("tape forward runs");
    let mut csr = Vec::new();
    kernel
        .predict_into(&plan, iterations, &mut csr, None)
        .expect("CSR kernel predicts");
    first_bit_difference("node", tape.value(probs).as_slice(), &csr)
}

#[test]
fn csr_is_bit_exact_with_the_tape_on_the_shape_suite_for_every_aggregator() {
    for circuit in shape_suite() {
        for kind in AggregatorKind::ALL {
            for variant in [
                (false, false, false),
                (true, false, false),
                (true, true, true),
            ] {
                for hidden_dim in HIDDEN_DIMS {
                    let mut store = ParamStore::new();
                    let model = DagRecGnn::new(&mut store, config(kind, hidden_dim, variant));
                    if let Err(e) = kernel_matches_tape(&model, &store, &circuit) {
                        panic!(
                            "{} kind={kind:?} d={hidden_dim} (fix, skip, per_type)={variant:?}: {e}",
                            circuit.name
                        );
                    }
                }
            }
        }
    }
}

/// A funnel: four inputs narrowing through three, two and one AND gate, so
/// the forward levels are exactly 3, 2 and 1 rows wide — a pair plus an odd
/// row, one pair and a lone row for the kernel's two-rows-at-a-time GRU
/// input pass.
fn shape_funnel() -> Netlist {
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

#[test]
fn csr_is_bit_exact_with_the_tape_on_levels_one_two_and_three_rows_wide() {
    let circuit = graph_of(&shape_funnel());
    let widths: Vec<usize> = circuit
        .forward_batches
        .iter()
        .map(|batch| batch.targets.len())
        .collect();
    assert_eq!(widths, [3, 2, 1], "the funnel must pin these level widths");
    for kind in AggregatorKind::ALL {
        for hidden_dim in HIDDEN_DIMS {
            let mut store = ParamStore::new();
            let model = DagRecGnn::new(&mut store, config(kind, hidden_dim, (true, true, true)));
            if let Err(e) = kernel_matches_tape(&model, &store, &circuit) {
                panic!("funnel kind={kind:?} d={hidden_dim}: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The CSR kernel is bit-exact with the tape on random circuits under
    /// the full DeepGate configuration, for every aggregator and width.
    #[test]
    fn csr_is_bit_exact_with_the_tape_on_random_circuits(
        netlist in random_netlist(30),
        kind in 0usize..4,
        width in 0usize..3,
    ) {
        let circuit = graph_of(&netlist);
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(
            &mut store,
            config(AggregatorKind::ALL[kind], HIDDEN_DIMS[width], (true, true, false)),
        );
        let outcome = kernel_matches_tape(&model, &store, &circuit);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Strategy: a random valid combinational netlist, as (gate kind, fan-in
/// picks) build steps over a random input count — the same construction the
/// workspace-level property suite uses.
fn random_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
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
