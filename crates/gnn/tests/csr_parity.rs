//! Parity suite for the CSR level-packed inference kernel.
//!
//! The CSR kernel ([`DagRecGnn::predict_planned`] /
//! [`DagRecGnn::embed_planned`]) is the one inference executor; the
//! autodiff-tape forward ([`ProbabilityModel::try_forward`], the definition
//! training optimises) is the ground truth. Both read the weights in place
//! out of the same `ParamStore`. This suite is
//! the exactness gate: the kernel must be *bit-exact* with the tape
//! (`to_bits` equality, not epsilon closeness) for **both** the per-node
//! probabilities and the final hidden states `h_v^T`, on a fixed suite of
//! ≥7 circuit shapes and on proptest-random circuits, across every
//! aggregator, model variant and hidden width in `HIDDEN_DIMS`.

use deepgate_gnn::{
    AggregatorKind, CircuitGraph, DagRecConfig, DagRecGnn, FeatureEncoding, ProbabilityModel,
};
use deepgate_netlist::Netlist;
use deepgate_nn::{Graph, ParamStore};
use proptest::prelude::*;

mod shapes;
use shapes::{expand, random_netlist, shape_funnel, shape_suite};

/// Hidden widths swept by every test: 8 and 64 take the kernel's
/// monomorphic fixed-width loops, 12 its runtime-width fallback.
const HIDDEN_DIMS: [usize; 3] = [8, 12, 64];

/// Expands an arbitrary netlist into AIG-gate form and builds its graph —
/// the same pipeline the engine facade runs.
fn graph_of(netlist: &Netlist) -> CircuitGraph {
    CircuitGraph::from_netlist(&expand(netlist), FeatureEncoding::AigGates, None)
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

    let mut tape = Graph::new();
    let hidden = model
        .forward_hidden(&mut tape, store, circuit)
        .expect("tape forward runs");
    let embeddings = model
        .embed_planned(store, &plan, iterations)
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
    model
        .predict_planned(store, &plan, iterations, &mut csr, None)
        .expect("CSR kernel predicts");
    first_bit_difference("node", tape.value(probs).as_slice(), &csr)
}

#[test]
fn csr_is_bit_exact_with_the_tape_on_the_shape_suite_for_every_aggregator() {
    for circuit in shape_suite().iter().map(graph_of) {
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

#[test]
fn csr_is_bit_exact_with_the_tape_on_levels_one_two_and_three_rows_wide() {
    let circuit = graph_of(&shape_funnel());
    let widths: Vec<usize> = (1..=circuit.max_level)
        .map(|level| circuit.levels.iter().filter(|&&l| l == level).count())
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
