//! Integration tests spanning the whole workspace through the unified
//! facade: netlist front-end → AIG transformation → simulation labelling →
//! circuit-graph encoding → Engine training → InferenceSession serving.

use deepgate::dataset::{generators, LargeDesign, SuiteKind};
use deepgate::gnn::{CircuitGraph, FeatureEncoding, ProbabilityModel};
use deepgate::netlist::bench;
use deepgate::prelude::*;

/// A small engine configuration every test can afford.
fn quick_engine() -> Engine {
    Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 16,
            num_iterations: 2,
            regressor_hidden: 8,
            ..DeepGateConfig::default()
        })
        .trainer(TrainerConfig {
            epochs: 10,
            learning_rate: 3e-3,
            ..TrainerConfig::default()
        })
        .num_patterns(2_048)
        .build()
        .expect("valid quick configuration")
}

#[test]
fn bench_roundtrip_preserves_signal_probabilities() {
    // Write a generated circuit to BENCH text, parse it back through the
    // CircuitSource layer and check that the simulated probabilities agree —
    // the parser, writer and simulator must be mutually consistent.
    let original = generators::alu(4);
    let text = bench::write(&original);
    let parsed = BenchText::new("alu4", text)
        .netlists()
        .expect("round-trip parse")
        .remove(0);
    let p_original = SignalProbability::simulate(&original, 8192, 5).unwrap();
    let p_parsed = SignalProbability::simulate(&parsed, 8192, 5).unwrap();
    // Compare per-output probabilities by name.
    for (id, name) in original.outputs() {
        let other = parsed
            .outputs()
            .iter()
            .find(|(_, n)| n == name)
            .map(|(i, _)| *i)
            .expect("output preserved");
        let a = p_original.of(id.index());
        let b = p_parsed.of(other.index());
        assert!((a - b).abs() < 0.03, "{name}: {a} vs {b}");
    }
}

#[test]
fn aig_transformation_preserves_output_probabilities() {
    // The logic-synthesis substitute must preserve functionality: output
    // signal probabilities before and after AIG mapping + optimisation agree.
    use deepgate::aig::opt;
    for netlist in [
        generators::comparator(5),
        generators::counter_next_state(6),
        generators::masked_arbiter(6),
    ] {
        let aig = Aig::from_netlist(&netlist).unwrap();
        let optimized = opt::optimize(&aig, 3);
        let p_netlist = SignalProbability::simulate(&netlist, 16_384, 9).unwrap();
        let p_aig = SignalProbability::simulate(&optimized, 16_384, 9).unwrap();
        for (k, (lit, name)) in optimized.outputs().iter().enumerate() {
            let (orig_id, _) = netlist.outputs()[k];
            let expected = p_netlist.of(orig_id.index());
            let raw = p_aig.of(lit.node());
            let got = if lit.is_complemented() {
                1.0 - raw
            } else {
                raw
            };
            assert!(
                (expected - got).abs() < 0.03,
                "{}: output {name} {expected} vs {got}",
                netlist.name()
            );
        }
    }
}

#[test]
fn engine_overfits_a_single_circuit() {
    // Sanity check of the full learning stack: the engine must be able to
    // fit the probabilities of one small circuit almost exactly.
    let mut engine = Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 24,
            num_iterations: 3,
            regressor_hidden: 16,
            ..DeepGateConfig::default()
        })
        .trainer(TrainerConfig {
            epochs: 40,
            learning_rate: 5e-3,
            eval_every: 0,
            ..TrainerConfig::default()
        })
        .num_patterns(8_192)
        .label_seed(3)
        .build()
        .unwrap();
    let circuits = engine
        .prepare(&NetlistSource::from(generators::alu(4)))
        .unwrap();
    let before = engine.evaluate(&circuits).unwrap();
    engine.train(&circuits, &[]).unwrap();
    let after = engine.evaluate(&circuits).unwrap();
    assert!(
        after < before * 0.5 && after < 0.1,
        "did not overfit: {before:.4} -> {after:.4}"
    );
}

#[test]
fn dataset_pipeline_feeds_engine_training_end_to_end() {
    let mut engine = quick_engine();
    let mut circuits = Vec::new();
    for suite in [SuiteKind::Epfl, SuiteKind::Itc99] {
        let source = SuiteSource::new(suite, 4).seed(0).size_scale(0.1);
        circuits.extend(engine.prepare(&source).unwrap());
    }
    assert_eq!(circuits.len(), 8);
    let test = circuits.split_off(7);
    let history = engine.train(&circuits, &test).unwrap();
    assert_eq!(history.epochs.len(), 10);
    assert!(history.best_valid_error().is_some());
}

#[test]
fn checkpointed_engine_generalises_to_unseen_design() {
    // Train on tiny circuits, checkpoint through a file, reload into a new
    // engine and serve a reduced large design — Table III's inference path
    // exercised end to end through the facade.
    let mut engine = quick_engine();
    engine
        .fit(&NetlistSource::new(vec![
            generators::ripple_carry_adder(4),
            generators::parity_tree(8),
            generators::priority_arbiter(6),
        ]))
        .unwrap();

    let dir = std::env::temp_dir().join("deepgate_engine_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpoint.json");
    engine.save_checkpoint(&path).unwrap();
    let restored = Engine::builder()
        .from_checkpoint_file(&path)
        .unwrap()
        .build()
        .unwrap();

    let large = engine
        .prepare(&LargeDesignSource::new(LargeDesign::Arbiter, 0.05))
        .unwrap();
    let original_error = engine.evaluate(&large).unwrap();
    let restored_error = restored.evaluate(&large).unwrap();
    assert!((original_error - restored_error).abs() < 1e-6);
    // An error of 0.5 would mean the model is no better than predicting the
    // complement; even a briefly trained model should do clearly better.
    assert!(restored_error < 0.45, "error {restored_error}");

    // The restored engine serves the same predictions through a session.
    let session = restored.into_session();
    let batch = session.predict_batch(&large).unwrap();
    assert_eq!(batch.len(), large.len());
    assert_eq!(batch[0].len(), large[0].num_nodes);
}

#[test]
fn untransformed_and_transformed_graphs_share_the_pipeline() {
    // The Table IV ablation uses both encodings; both must flow through the
    // same engine pipeline, selected by one builder switch.
    let raw_engine = Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 8,
            num_iterations: 1,
            regressor_hidden: 4,
            feature_dim: FeatureEncoding::AllGates.dimension(),
            ..DeepGateConfig::default()
        })
        .transform_to_aig(false)
        .num_patterns(4_096)
        .label_seed(3)
        .build()
        .unwrap();
    let source = NetlistSource::from(generators::counter_next_state(5));
    let raw: Vec<CircuitGraph> = raw_engine.prepare(&source).unwrap();
    assert_eq!(
        raw[0].features.cols(),
        FeatureEncoding::AllGates.dimension()
    );

    let aig_engine = quick_engine();
    let transformed = aig_engine.prepare(&source).unwrap();
    assert_eq!(transformed[0].features.cols(), 3);
    // Both prepared variants carry simulated probabilities for every node.
    for graph in [&raw[0], &transformed[0]] {
        assert!(graph
            .labels
            .as_ref()
            .unwrap()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }
}

/// The exactness contract, pinned from outside: an FNV digest of the
/// `to_bits` of default-configuration DeepGate predictions (seeded
/// initialisation, d = 64, T = 10) on two generated circuits. The tape and
/// the kernel read one level schedule, so `csr_parity` cannot see an edit
/// that reorders a row's edges for both of them; this does. The digests
/// were recorded before the schedules were merged (PR 22's commit).
#[test]
fn default_deepgate_prediction_bits_are_pinned() {
    use deepgate::gnn::StructuralHasher;
    let model = DeepGate::new(DeepGateConfig::default());
    let pinned: [(Netlist, bool, u128); 2] = [
        (
            generators::squarer(4),
            true,
            0x6404ad31b5c7fd39132a2daa7ff33c76,
        ),
        (
            generators::priority_arbiter(12),
            false,
            0xd117e4b3abda3e62c47134eb21d26d42,
        ),
    ];
    for (netlist, reconvergent, expected) in pinned {
        let aig = Aig::from_netlist(&netlist).expect("maps to AIG");
        let (circuit, _) = CircuitGraph::from_aig(&aig);
        assert_eq!(!circuit.skip_edges.is_empty(), reconvergent);
        let mut digest = StructuralHasher::new();
        for p in model.try_predict(model.store(), &circuit).unwrap() {
            digest.write(p.to_bits() as u64);
        }
        assert_eq!(
            digest.finish(),
            expected,
            "{}: {} nodes, {} skip edges, digest {:#034x}",
            circuit.name,
            circuit.num_nodes,
            circuit.skip_edges.len(),
            digest.finish()
        );
    }
}

/// The training contract, pinned from outside: an FNV digest of the
/// `to_bits` of every parameter and every epoch loss after two epochs of
/// [`Trainer`] on default-configuration DeepGate (seeded initialisation,
/// d = 64, T = 10) over two small labelled circuits, one reconvergent with
/// skip edges. The benchmark's loss golden holds at 1e-4 and the gradient
/// oracles at 1e-5; this holds the whole backward — every weight gradient's
/// accumulation order and zero-skip — to the bit. The digest was recorded
/// before the backward stopped transposing activations and computing
/// gradients for constant inputs.
#[test]
fn default_deepgate_training_bits_are_pinned() {
    use deepgate::gnn::StructuralHasher;
    let engine = Engine::builder()
        .num_patterns(1_024)
        .label_seed(5)
        .build()
        .expect("valid configuration");
    let mut circuits = Vec::new();
    for netlist in [generators::squarer(3), generators::priority_arbiter(12)] {
        circuits.extend(engine.prepare(&NetlistSource::from(netlist)).unwrap());
    }
    assert!(!circuits[0].skip_edges.is_empty(), "reconvergent first");
    assert!(circuits[1].skip_edges.is_empty());
    let mut deepgate = DeepGate::new(DeepGateConfig::default());
    let model = deepgate.model().clone();
    let mut trainer = Trainer::new(TrainerConfig {
        epochs: 2,
        eval_every: 0,
        ..TrainerConfig::default()
    });
    let history = trainer
        .train(&model, deepgate.store_mut(), &circuits, &[])
        .unwrap();
    let mut digest = StructuralHasher::new();
    for epoch in &history.epochs {
        digest.write(epoch.train_loss.to_bits());
    }
    let store = deepgate.store();
    for id in store.ids() {
        for v in store.value(id).as_slice() {
            digest.write(u64::from(v.to_bits()));
        }
    }
    assert_eq!(
        digest.finish(),
        0x4d9d1c3350f186e7e9f2712dbc6eb4f6,
        "{:?}: {} and {} nodes, digest {:#034x}",
        history
            .epochs
            .iter()
            .map(|e| e.train_loss)
            .collect::<Vec<_>>(),
        circuits[0].num_nodes,
        circuits[1].num_nodes,
        digest.finish()
    );
}

/// The reconvergence analysis, pinned from outside: the skip-edge count and
/// the structural fingerprint (which covers every skip edge's source, target
/// and level difference) of the `infer_large` benchmark's designs — the five
/// Table III designs at their pool scales plus the 83k-node multiplier —
/// through the serving ingest: AIG mapping, two optimisation rounds,
/// PI/AND/NOT expansion. The values were recorded with the quadratic
/// analysis, before stem sets were merged in one pass and freed after their
/// last reader, so the stem that wins a tie and the stems that survive the
/// per-node cap are held to that definition at 10^3–10^5 nodes, not only on
/// small random circuits.
#[test]
fn table_iii_skip_edges_are_pinned() {
    use deepgate::aig::opt;
    let pinned: [(LargeDesign, f64, usize, u128); 6] = [
        (
            LargeDesign::Arbiter,
            1.0,
            23,
            0x2f6ac981e958c3eb8ba35c5fa03771b7,
        ),
        (
            LargeDesign::Processor80386,
            1.0,
            917,
            0x5dbb7da04004a4fc7cf9bacab2980cc4,
        ),
        (
            LargeDesign::ViperProcessor,
            1.0,
            1617,
            0x3c49284aafbd68db6f091004ea35d6e8,
        ),
        (
            LargeDesign::Squarer,
            0.5,
            4653,
            0xf65d4f18e9180e0141a6040a804f31aa,
        ),
        (
            LargeDesign::Multiplier,
            0.5,
            6082,
            0xcb75b574f3281841afb9778a932fbc5b,
        ),
        (
            LargeDesign::Multiplier,
            1.0,
            24418,
            0x0a1c72ecd5b74ed9625d3c5eceff1f67,
        ),
    ];
    for (design, scale, skip_edges, fingerprint) in pinned {
        let aig = Aig::from_netlist(&design.generate(scale)).expect("maps to AIG");
        let (circuit, _) = CircuitGraph::from_aig(&opt::optimize(&aig, 2));
        assert_eq!(
            (circuit.skip_edges.len(), circuit.fingerprint()),
            (skip_edges, fingerprint),
            "{design}@{scale}: {} nodes, {} skip edges, fingerprint {:#034x}",
            circuit.num_nodes,
            circuit.skip_edges.len(),
            circuit.fingerprint()
        );
    }
}
