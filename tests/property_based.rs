//! Property-based tests over the core data structures and invariants,
//! spanning the netlist, AIG and simulation crates plus the unified
//! Engine/InferenceSession facade.

use deepgate::aig::aiger::random_aig;
use deepgate::aig::{opt, Aig, ReconvergenceAnalysis, ReconvergenceConfig};
use deepgate::gnn::{CircuitGraph, FeatureEncoding};
use deepgate::netlist::{bench, GateKind, Netlist, NodeId};
use deepgate::prelude::*;
use deepgate::sim::simulate_words;
use proptest::prelude::*;

/// The probabilities of an AIG's outputs: each literal's node probability,
/// or one minus it when complemented. Exact whenever the pattern count is a
/// power of two, as every count over it is then a dyadic fraction.
fn aig_outputs(aig: &Aig, probs: &SignalProbability) -> Vec<f64> {
    let of_lit = |lit: AigLit| {
        let p = probs.of(lit.node());
        if lit.is_complemented() {
            1.0 - p
        } else {
            p
        }
    };
    aig.outputs().iter().map(|&(lit, _)| of_lit(lit)).collect()
}

/// The probabilities of a netlist's outputs.
fn netlist_outputs(netlist: &Netlist, probs: &SignalProbability) -> Vec<f64> {
    let outputs = netlist.outputs().iter();
    outputs.map(|(id, _)| probs.of(id.index())).collect()
}

/// Strategy: a random valid combinational netlist description, as a list of
/// (gate kind index, fan-in picks) build steps over a fixed input count.
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
        // Also expose a mid signal to create multi-output circuits.
        let mid = signals[signals.len() / 2];
        netlist.mark_output(mid, "m");
        netlist
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The AIG mapping is functionally equivalent to the original netlist on
    /// random input words.
    #[test]
    fn aig_mapping_is_functionally_equivalent(
        netlist in random_netlist(40),
        seed in any::<u64>(),
    ) {
        let aig = Aig::from_netlist(&netlist).expect("maps to AIG");
        prop_assert!(aig.validate().is_ok());
        let words: Vec<u64> = (0..netlist.num_inputs())
            .map(|i| seed.rotate_left(i as u32 * 7).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let nv = simulate_words(&netlist, &words).expect("simulates");
        let av = simulate_words(&aig, &words).expect("simulates");
        for (k, (lit, _)) in aig.outputs().iter().enumerate() {
            let (orig, _) = netlist.outputs()[k];
            let expected = nv[orig.index()];
            let raw = av[lit.node()];
            let got = if lit.is_complemented() { !raw } else { raw };
            prop_assert_eq!(expected, got);
        }
    }

    /// Optimisation passes never change circuit functionality and never
    /// increase the AND count.
    #[test]
    fn optimisation_preserves_function_and_size(
        netlist in random_netlist(40),
        seed in any::<u64>(),
    ) {
        let aig = Aig::from_netlist(&netlist).expect("maps to AIG");
        let optimized = opt::optimize(&aig, 3);
        prop_assert!(optimized.validate().is_ok());
        prop_assert!(optimized.num_ands() <= aig.num_ands());
        let words: Vec<u64> = (0..aig.num_inputs())
            .map(|i| seed.rotate_right(i as u32 * 5) ^ 0xA5A5_5A5A_F0F0_0F0F)
            .collect();
        let before = simulate_words(&aig, &words).expect("simulates");
        let after = simulate_words(&optimized, &words).expect("simulates");
        for (k, (lit_b, _)) in aig.outputs().iter().enumerate() {
            let (lit_a, _) = optimized.outputs()[k];
            let vb = { let v = before[lit_b.node()]; if lit_b.is_complemented() { !v } else { v } };
            let va = { let v = after[lit_a.node()]; if lit_a.is_complemented() { !v } else { v } };
            prop_assert_eq!(vb, va);
        }
    }

    /// BENCH round-trips preserve structure counts.
    #[test]
    fn bench_roundtrip_preserves_counts(netlist in random_netlist(30)) {
        let text = bench::write(&netlist);
        let parsed = bench::parse(&text, "prop").expect("round-trip");
        prop_assert!(parsed.validate().is_ok());
        prop_assert_eq!(parsed.num_inputs(), netlist.num_inputs());
        prop_assert_eq!(parsed.num_outputs(), netlist.num_outputs());
    }

    /// Circuit-graph invariants hold for arbitrary circuits: one-hot
    /// features, edges pointing from lower to higher levels, forward levels
    /// covering every gate exactly once, and skip edges connecting genuine
    /// fan-out stems to later nodes.
    #[test]
    fn circuit_graph_invariants(netlist in random_netlist(40)) {
        let aig = Aig::from_netlist(&netlist).expect("maps to AIG");
        let expanded = aig.to_netlist();
        let graph = CircuitGraph::from_netlist(&expanded, FeatureEncoding::AigGates, None);
        // One-hot features.
        for i in 0..graph.num_nodes {
            let sum: f32 = graph.features.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
        }
        // Edges go forward in level.
        for &(src, dst) in &graph.edges {
            prop_assert!(graph.levels[src] < graph.levels[dst]);
        }
        // The forward levels (≥ 1) are exactly the gates, so the level
        // schedule updates every gate once per sweep.
        for (i, &level) in graph.levels.iter().enumerate() {
            prop_assert_eq!(level >= 1, graph.gate_mask[i]);
        }
        // Skip edges reference earlier stems with consistent level distance.
        let fanouts = expanded.fanout_counts();
        for edge in &graph.skip_edges {
            prop_assert!(fanouts[edge.source] >= 2);
            prop_assert!(graph.levels[edge.target] > graph.levels[edge.source]);
            prop_assert_eq!(
                graph.levels[edge.target] - graph.levels[edge.source],
                edge.level_difference
            );
        }
    }

    /// Reconvergence analysis is stable under the level-distance bound: a
    /// tighter bound can only find fewer reconvergence nodes.
    #[test]
    fn reconvergence_monotone_in_level_bound(netlist in random_netlist(40)) {
        let aig = Aig::from_netlist(&netlist).expect("maps to AIG");
        let tight = ReconvergenceAnalysis::with_config(
            &aig,
            ReconvergenceConfig { max_level_distance: 4, max_tracked_stems: 48 },
        );
        let loose = ReconvergenceAnalysis::with_config(
            &aig,
            ReconvergenceConfig { max_level_distance: 64, max_tracked_stems: 48 },
        );
        prop_assert!(tight.num_reconvergence_nodes() <= loose.num_reconvergence_nodes());
    }

    /// An AIG and its PI/AND/NOT expansion are one circuit to the simulator:
    /// every latch state is a free source in the expansion's pseudo-input
    /// order, so the output probabilities agree bit for bit under one seed
    /// and under exhaustive enumeration, and a latch state reads ½ whatever
    /// its reset value (`random_aig` cycles them through 0, 1 and none).
    #[test]
    fn aig_probabilities_equal_their_expansion_with_latches_as_sources(
        seed in any::<u64>(),
        shape in 0usize..4,
    ) {
        let (inputs, latches, ands) = [(6, 0, 40), (3, 1, 30), (5, 3, 80), (4, 6, 120)][shape];
        let aig = random_aig(seed, inputs, latches, ands);
        let netlist = aig.to_netlist();
        let aig_probs = SignalProbability::simulate(&aig, 4096, seed).expect("simulates");
        let netlist_probs = SignalProbability::simulate(&netlist, 4096, seed).expect("simulates");
        prop_assert_eq!(aig_outputs(&aig, &aig_probs), netlist_outputs(&netlist, &netlist_probs));
        for (state, latch) in aig.latch_states().zip(aig.latches()) {
            let p = aig_probs.of(state);
            prop_assert!((p - 0.5).abs() < 0.05, "latch {} reads {}", latch.name, p);
        }
        let aig_exact = SignalProbability::exact(&aig).expect("at most 10 sources");
        let netlist_exact = SignalProbability::exact(&netlist).expect("at most 10 sources");
        prop_assert_eq!(aig_outputs(&aig, &aig_exact), netlist_outputs(&netlist, &netlist_exact));
    }
}

/// Exhaustive enumeration reads a labelling netlist and the AIG it maps to
/// alike: on every suite design with at most 12 inputs, the exact output
/// probabilities of both are the same fractions.
#[test]
fn exact_probabilities_of_a_netlist_equal_those_of_its_aig() {
    let mut checked = 0;
    for suite in SuiteKind::ALL {
        for index in 0..10 {
            let netlist = suite.generate_design(index, 42, 0.1);
            if netlist.num_inputs() > 12 {
                continue;
            }
            let aig = Aig::from_netlist(&netlist).expect("maps to AIG");
            let netlist_exact = SignalProbability::exact(&netlist).expect("at most 12 inputs");
            let aig_exact = SignalProbability::exact(&aig).expect("at most 12 inputs");
            assert_eq!(
                aig_outputs(&aig, &aig_exact),
                netlist_outputs(&netlist, &netlist_exact),
                "{suite:?} design {index}"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 8,
        "only {checked} designs with at most 12 inputs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine facade invariants on arbitrary circuits: `prepare` labels
    /// every node with a probability, `predict_batch` returns one
    /// probability vector per circuit, and the batched path is bit-identical
    /// to the single-circuit path.
    #[test]
    fn engine_prepares_and_serves_arbitrary_circuits(netlist in random_netlist(25)) {
        let engine = Engine::builder()
            .model(DeepGateConfig {
                hidden_dim: 8,
                num_iterations: 1,
                regressor_hidden: 4,
                ..DeepGateConfig::default()
            })
            .num_patterns(256)
            .build()
            .expect("valid configuration");
        let circuits = engine
            .prepare(&NetlistSource::from(netlist))
            .expect("prepare succeeds");
        for circuit in &circuits {
            let labels = circuit.labels.as_ref().expect("prepared circuits are labelled");
            prop_assert_eq!(labels.len(), circuit.num_nodes);
            prop_assert!(labels.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        let session = engine.into_session();
        let batch = session.predict_batch(&circuits).expect("serves");
        prop_assert_eq!(batch.len(), circuits.len());
        for (predictions, circuit) in batch.iter().zip(&circuits) {
            prop_assert_eq!(predictions.len(), circuit.num_nodes);
            prop_assert!(predictions.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let single = session.predict(circuit).expect("serves");
            prop_assert!(single.iter().zip(predictions).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
