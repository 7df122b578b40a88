//! Tests of the unified Engine facade: CircuitSource ingestion, Result-based
//! error reporting (no panics on user input) and the batched
//! InferenceSession serving path.

use deepgate::core::average_prediction_error;
use deepgate::dataset::generators;
use deepgate::gnn::{FeatureEncoding, ProbabilityModel};
use deepgate::nn::NnError;
use deepgate::prelude::*;
use serde_json::Value;

#[path = "../crates/netlist/tests/bench_corpus/mod.rs"]
mod bench_corpus;

const FULL_ADDER: &str = "\
INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
x = XOR(a, b)
sum = XOR(x, cin)
g1 = AND(a, b)
g2 = AND(x, cin)
cout = OR(g1, g2)
";

/// A tiny netlist inside the PI/AND/NOT alphabet the AIG encoding accepts.
fn and_only_netlist() -> Netlist {
    let mut n = Netlist::new("and_chain");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
    let g2 = n.add_gate(GateKind::And, &[g1, c]).unwrap();
    n.mark_output(g2, "y");
    n
}

fn quick_engine() -> Engine {
    Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 12,
            num_iterations: 2,
            regressor_hidden: 8,
            ..DeepGateConfig::default()
        })
        .trainer(TrainerConfig {
            epochs: 5,
            learning_rate: 3e-3,
            ..TrainerConfig::default()
        })
        .num_patterns(1_024)
        .build()
        .expect("valid configuration")
}

#[test]
fn bench_text_to_predict_batch_end_to_end() {
    // BENCH string → Engine::prepare → train → InferenceSession::predict_batch.
    let mut engine = quick_engine();
    let circuits = engine
        .prepare(&BenchText::new("full_adder", FULL_ADDER))
        .unwrap();
    assert_eq!(circuits.len(), 1);
    assert!(circuits[0].labels.is_some());
    engine.train(&circuits, &[]).unwrap();

    let session = engine.session();
    let batch = session.predict_batch(&circuits).unwrap();
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].len(), circuits[0].num_nodes);
    assert!(batch[0].iter().all(|&p| (0.0..=1.0).contains(&p)));

    // Every prediction entry point agrees with the single-circuit path bit
    // for bit: the batch, the engine, and the model's own `try_predict`.
    let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let single = bits(&session.predict(&circuits[0]).unwrap());
    let model = engine.model();
    assert_eq!(bits(&batch[0]), single);
    assert_eq!(bits(&engine.predict(&circuits[0]).unwrap()), single);
    let direct = model.try_predict(model.store(), &circuits[0]).unwrap();
    assert_eq!(bits(&direct), single);

    // `Engine::evaluate` is the trainer's average prediction error.
    let shared = average_prediction_error(model, model.store(), &circuits).unwrap();
    assert_eq!(
        engine.evaluate(&circuits).unwrap().to_bits(),
        shared.to_bits()
    );
}

#[test]
fn reverse_declared_bench_chain_is_prepared() {
    // A 64 000-gate NOT chain, each gate declared before the gate it reads:
    // resolving it by repeated sweeps over the gate list took minutes.
    let mut text = String::from("INPUT(g0)\nOUTPUT(g64000)\n");
    for k in (1..=64_000).rev() {
        text.push_str(&format!("g{k} = NOT(g{})\n", k - 1));
    }
    let circuits = quick_engine()
        .prepare_unlabelled(&BenchText::new("reverse_chain", text))
        .unwrap();
    assert_eq!(circuits.len(), 1);
}

#[test]
fn aiger_binary_flows_through_the_engine_in_both_latch_modes() {
    // A random sequential AIG serialised to binary AIGER must prepare,
    // train and predict end-to-end under both latch treatments.
    let aig = deepgate::aig::aiger::random_aig(21, 3, 2, 16);
    let bytes = deepgate::aig::aiger::write_aig(&aig).expect("valid aig serialises");

    let mut engine = quick_engine();
    let cut = engine
        .prepare(&AigerBytes::new("seq", bytes.clone()).latch_policy(LatchPolicy::Cut))
        .unwrap();
    let unrolled = engine
        .prepare(&AigerBytes::new("seq", bytes).latch_policy(LatchPolicy::Unroll(2)))
        .unwrap();
    assert_eq!(cut.len(), 1);
    assert_eq!(unrolled.len(), 1);
    assert_ne!(
        cut[0].fingerprint(),
        unrolled[0].fingerprint(),
        "latch policies must yield structurally distinct graphs"
    );
    engine.train(&cut, &[]).unwrap();
    let probs = engine.session().predict(&unrolled[0]).unwrap();
    assert_eq!(probs.len(), unrolled[0].num_nodes);
    assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
}

/// `unroll:3` is the one ingest an interface-first AIG numbers differently
/// (every frame's inputs now come before the first AND, not after the
/// previous frame's ANDs). Its AIGER text reads the same under both
/// numberings, and so does the graph the engine prepares from it: the
/// engine maps the netlist back to an AIG inputs first either way.
#[test]
fn unrolled_aiger_text_and_graph_are_pinned() {
    use deepgate::aig::aiger;
    use deepgate::gnn::StructuralHasher;
    let aig = aiger::random_aig(1234, 3, 4, 24);
    let mut digest = StructuralHasher::new();
    digest.write_bytes(aiger::write_aag(&aig.unroll(3).expect("3 frames")).as_bytes());
    assert_eq!(
        digest.finish(),
        0x09b5c9144c157fdfb3422da2ff57f8d8,
        "text digest {:#034x}",
        digest.finish()
    );
    let bytes = aiger::write_aig(&aig).expect("valid aig serialises");
    let source = AigerBytes::new("seq", bytes).latch_policy(LatchPolicy::Unroll(3));
    let graphs = quick_engine().prepare_unlabelled(&source).unwrap();
    assert_eq!(
        graphs[0].fingerprint(),
        0x9d849a253242b0266257840a1d29b6aa,
        "graph fingerprint {:#034x}",
        graphs[0].fingerprint()
    );
}

#[test]
fn malformed_aiger_is_an_error_not_a_panic() {
    let engine = quick_engine();
    let err = engine
        .prepare(&AigerBytes::new("bad", b"aig 1 0 0 0 1\n".to_vec()))
        .unwrap_err();
    assert!(matches!(err, DeepGateError::Aig(_)));
}

/// Every truncated or byte-corrupted copy of a BENCH fixture over all the
/// reader's gate kinds is a `DeepGateError` or goes through preparation,
/// labelling and prediction like clean text: never a panic.
#[test]
fn damaged_bench_text_is_an_error_or_a_prediction_not_a_panic() {
    let engine = quick_engine();
    let session = engine.session();
    let mut out = Vec::new();
    let (mut failed, mut predicted) = (0, 0);
    for (what, text) in bench_corpus::damaged() {
        let source = BenchText::new("damaged", text);
        let Ok(graphs) = engine.prepare_unlabelled(&source) else {
            failed += 1;
            continue;
        };
        let labelled = engine
            .prepare(&source)
            .unwrap_or_else(|err| panic!("{what} prepares unlabelled but not labelled: {err}"));
        assert_eq!(labelled.len(), graphs.len(), "{what}");
        for graph in graphs {
            let num_nodes = graph.num_nodes;
            session
                .predict_into(&session.prepare(graph), &mut out)
                .unwrap_or_else(|err| panic!("{what} prepares but does not predict: {err}"));
            assert_eq!(out.len(), num_nodes, "{what}");
            assert!(out.iter().all(|p| (0.0..=1.0).contains(p)), "{what}");
        }
        predicted += 1;
    }
    assert!(
        failed > 0 && predicted > 0,
        "{failed} failed, {predicted} predicted"
    );
}

#[test]
fn suite_source_feeds_fit() {
    let mut engine = quick_engine();
    let history = engine
        .fit(&SuiteSource::new(SuiteKind::Epfl, 2).seed(5).size_scale(0.1))
        .unwrap();
    assert_eq!(history.epochs.len(), 5);
}

#[test]
fn training_on_unlabelled_circuits_is_an_error_not_a_panic() {
    let netlist = and_only_netlist();
    let unlabelled = CircuitGraph::from_netlist(&netlist, FeatureEncoding::AigGates, None);
    let mut engine = quick_engine();
    let err = engine
        .train(std::slice::from_ref(&unlabelled), &[])
        .unwrap_err();
    assert!(matches!(
        err,
        DeepGateError::Gnn(GnnError::UnlabelledCircuit { .. })
    ));
    let err = engine.evaluate(&[unlabelled]).unwrap_err();
    assert!(matches!(
        err,
        DeepGateError::Gnn(GnnError::UnlabelledCircuit { .. })
    ));
}

#[test]
fn prediction_label_length_mismatch_is_an_error_not_a_panic() {
    use deepgate::gnn::evaluate_prediction_error;
    let engine = quick_engine();
    let circuits = engine
        .prepare(&BenchText::new("full_adder", FULL_ADDER))
        .unwrap();
    let too_short = vec![0.5f32; 2];
    let err = evaluate_prediction_error(&too_short, &circuits[0]).unwrap_err();
    assert!(matches!(err, GnnError::LengthMismatch { got: 2, .. }));
}

#[test]
fn encoding_mismatch_is_an_error_not_a_panic() {
    // An AIG-configured engine fed a 12-feature raw-netlist graph must
    // refuse politely.
    let netlist = generators::parity_tree(4);
    let mut wrong = CircuitGraph::from_netlist(&netlist, FeatureEncoding::AllGates, None);
    wrong.set_labels(vec![0.5; wrong.num_nodes]);
    let mut engine = quick_engine();
    assert!(matches!(
        engine.predict(&wrong).unwrap_err(),
        DeepGateError::Gnn(GnnError::EncodingMismatch { .. })
    ));
    assert!(matches!(
        engine.embeddings(&wrong).unwrap_err(),
        DeepGateError::Gnn(GnnError::EncodingMismatch { .. })
    ));
    assert!(matches!(
        engine.train(&[wrong.clone()], &[]).unwrap_err(),
        DeepGateError::Gnn(GnnError::EncodingMismatch { .. })
    ));
    let session = engine.session();
    assert!(matches!(
        session.predict_batch(&[wrong]).unwrap_err(),
        DeepGateError::Gnn(GnnError::EncodingMismatch { .. })
    ));
}

#[test]
fn embeddings_equal_the_training_forwards_final_hidden_states() {
    // The DeepGate configuration (attention, fixed gate input, skip
    // connections, per-type regressor) on a reconvergent circuit: every
    // embedding row must equal, bit for bit, the same row of the tape's
    // final hidden states — which also pins original node order.
    let engine = quick_engine();
    let circuits = engine
        .prepare_unlabelled(&BenchText::new("full_adder", FULL_ADDER))
        .unwrap();
    let circuit = &circuits[0];
    assert!(!circuit.skip_edges.is_empty(), "circuit has skip edges");

    let embeddings = engine.embeddings(circuit).unwrap();
    assert_eq!(
        embeddings.shape(),
        [circuit.num_nodes, engine.model_config().hidden_dim]
    );

    let model = engine.model();
    let mut tape = Graph::new();
    let hidden = model
        .model()
        .forward_hidden(&mut tape, model.store(), circuit)
        .unwrap();
    let hidden = tape.value(hidden);
    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for node in 0..circuit.num_nodes {
        assert_eq!(
            bits(embeddings.row(node)),
            bits(hidden.row(node)),
            "node {node}"
        );
    }
}

#[test]
fn builder_rejects_inconsistent_configuration() {
    assert!(matches!(
        Engine::builder().num_patterns(0).build().unwrap_err(),
        DeepGateError::Config(_)
    ));
    assert!(matches!(
        Engine::builder()
            .model(DeepGateConfig {
                hidden_dim: 0,
                ..DeepGateConfig::default()
            })
            .build()
            .unwrap_err(),
        DeepGateError::Config(_)
    ));
    assert!(matches!(
        Engine::builder()
            .transform_to_aig(false) // needs feature_dim 12, default is 3
            .build()
            .unwrap_err(),
        DeepGateError::Config(_)
    ));
    assert!(matches!(
        Engine::builder()
            .from_checkpoint_json("not json")
            .build()
            .unwrap_err(),
        DeepGateError::Nn(_)
    ));
    // A checkpoint carries its own feature_dim; restoring an AIG-trained
    // model into a raw-netlist pipeline must fail at build time.
    let aig_checkpoint = quick_engine().checkpoint_json().unwrap();
    assert!(matches!(
        Engine::builder()
            .from_checkpoint_json(aig_checkpoint)
            .transform_to_aig(false)
            .build()
            .unwrap_err(),
        DeepGateError::Config(_)
    ));
}

/// `Engine::prepare` labels its netlists one after another, each spreading
/// its simulation rows across the cores; the graphs and label bits are
/// pinned to those of the per-netlist fan-out it replaced, on a suite whose
/// 4 096 patterns (64 rows) split between threads.
#[test]
fn prepare_of_a_multi_netlist_suite_is_pinned() {
    use deepgate::gnn::StructuralHasher;
    let engine = Engine::builder().num_patterns(4_096).build().unwrap();
    let graphs = engine
        .prepare(&SuiteSource::new(SuiteKind::Epfl, 4).seed(5).size_scale(0.1))
        .unwrap();
    let mut digest = StructuralHasher::new();
    for graph in &graphs {
        digest.write((graph.fingerprint() >> 64) as u64);
        digest.write(graph.fingerprint() as u64);
        for label in graph.labels.as_ref().expect("labelled") {
            digest.write(u64::from(label.to_bits()));
        }
    }
    let nodes: Vec<usize> = graphs.iter().map(|g| g.num_nodes).collect();
    assert_eq!(
        digest.finish(),
        0x1ff90b97c298c5ca22925f58a6213468,
        "{nodes:?} nodes, digest {:#034x}",
        digest.finish()
    );
}

#[test]
fn plan_from_differently_configured_model_is_rejected() {
    // Prepare under a model without skip connections, predict under one
    // with them: the plan's edge lists would be wrong, so this must error.
    let engine = quick_engine();
    let circuits = engine
        .prepare(&BenchText::new("full_adder", FULL_ADDER))
        .unwrap();
    let no_skip = Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 12,
            num_iterations: 2,
            regressor_hidden: 8,
            use_skip_connections: false,
            ..DeepGateConfig::default()
        })
        .build()
        .unwrap()
        .into_session();
    let prepared = no_skip.prepare(circuits[0].clone());
    let with_skip = engine.into_session();
    let mut out = Vec::new();
    assert!(matches!(
        with_skip.predict_into(&prepared, &mut out).unwrap_err(),
        DeepGateError::Gnn(GnnError::PlanMismatch)
    ));
}

#[test]
fn train_error_leaves_weights_untouched() {
    // An encoding mismatch anywhere in the batch must be caught before any
    // optimiser step mutates the model.
    let mut engine = quick_engine();
    let good = engine
        .prepare(&BenchText::new("full_adder", FULL_ADDER))
        .unwrap();
    let mut wrong =
        CircuitGraph::from_netlist(&generators::parity_tree(4), FeatureEncoding::AllGates, None);
    wrong.set_labels(vec![0.5; wrong.num_nodes]);
    let before = engine.predict(&good[0]).unwrap();
    let err = engine.train(&[good[0].clone(), wrong], &[]).unwrap_err();
    assert!(matches!(
        err,
        DeepGateError::Gnn(GnnError::EncodingMismatch { .. })
    ));
    let after = engine.predict(&good[0]).unwrap();
    assert_eq!(before, after, "weights changed despite train() erroring");
}

#[test]
fn empty_batch_is_reported() {
    let engine = quick_engine();
    let session = engine.into_session();
    assert!(matches!(
        session.predict_batch(&[]).unwrap_err(),
        DeepGateError::EmptyBatch
    ));
    assert!(matches!(
        session.prepare_batch(&[]).unwrap_err(),
        DeepGateError::EmptyBatch
    ));
}

#[test]
fn batched_predictions_agree_with_single_circuit_predictions() {
    // The batched path runs the same per-circuit plans as the single path.
    let engine = quick_engine();
    let circuits = engine
        .prepare(
            &SuiteSource::new(SuiteKind::Iwls, 3)
                .seed(11)
                .size_scale(0.1),
        )
        .unwrap();
    let session = engine.into_session();
    let batch = session.predict_batch(&circuits).unwrap();
    assert_eq!(batch.len(), circuits.len());
    for (circuit, predictions) in circuits.iter().zip(&batch) {
        let single = session.predict(circuit).unwrap();
        assert_eq!(single.len(), predictions.len());
        for (x, y) in single.iter().zip(predictions) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Circuits large enough to cut their wide levels between the calling
/// thread and a helper: every prediction of the batch starts its helper
/// beside the batch's own fan-out, and the batch still finishes with every
/// probability equal, bit for bit, to serial `predict_into`'s.
#[test]
fn predict_batch_of_split_circuits_equals_serial_predict_into() {
    use deepgate::telemetry::Registry;
    use deepgate::EngineMetrics;
    use std::sync::Arc;

    let registry = Registry::new();
    let engine = Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 8,
            num_iterations: 2,
            regressor_hidden: 4,
            ..DeepGateConfig::default()
        })
        .metrics(Arc::new(EngineMetrics::registered(&registry)))
        .build()
        .unwrap();
    let netlists = (16..20).map(generators::array_multiplier).collect();
    let circuits = engine
        .prepare_unlabelled(&NetlistSource::new(netlists))
        .unwrap();
    let session = engine.session();
    let batch = session.predict_batch(&circuits).unwrap();
    let split = registry.snapshot().counter("gnn_levels_split_total");
    assert!(split > 0, "the batch must take the two-thread path");

    assert_eq!(batch.len(), circuits.len());
    for (circuit, probs) in circuits.iter().zip(&batch) {
        let mut serial = Vec::new();
        let prepared = session.prepare(circuit.clone());
        session.predict_into(&prepared, &mut serial).unwrap();
        assert_eq!(serial.len(), probs.len());
        for (x, y) in serial.iter().zip(probs) {
            assert_eq!(x.to_bits(), y.to_bits(), "{}", circuit.name);
        }
    }
}

#[test]
fn predict_batch_results_are_index_aligned_with_inputs() {
    // The batch's circuits run in parallel and finish in arbitrary
    // order; results must nevertheless come back index-aligned
    // with the inputs. Circuits of distinct sizes make any permutation
    // detectable by length alone, and values are checked against the
    // single-circuit path for exact identity.
    let engine = quick_engine();
    let mut circuits = Vec::new();
    for (i, count) in [(0u64, 4usize), (1, 2), (2, 5), (3, 1), (4, 3)] {
        circuits.extend(
            engine
                .prepare(
                    &SuiteSource::new(SuiteKind::Epfl, count)
                        .seed(100 + i)
                        .size_scale(0.08),
                )
                .unwrap(),
        );
    }
    // Distinct node counts guarantee misrouting would change lengths.
    let sizes: Vec<usize> = circuits.iter().map(|c| c.num_nodes).collect();
    assert!(sizes.iter().any(|&s| s != sizes[0]), "sizes must vary");

    let session = engine.into_session();
    let batch = session.predict_batch(&circuits).unwrap();
    assert_eq!(batch.len(), circuits.len());
    for (index, (circuit, predictions)) in circuits.iter().zip(&batch).enumerate() {
        assert_eq!(
            predictions.len(),
            circuit.num_nodes,
            "result {index} is not aligned with input {index}"
        );
        let single = session.predict(circuit).unwrap();
        assert_eq!(
            &single, predictions,
            "result {index} differs from the single-circuit path"
        );
    }

    // Repeated batches preserve the same order.
    for _ in 0..2 {
        assert_eq!(session.predict_batch(&circuits).unwrap(), batch);
    }
}

#[test]
fn prepared_batches_agree_with_fresh_predictions() {
    let engine = quick_engine();
    let circuits = engine
        .prepare(
            &SuiteSource::new(SuiteKind::Iwls, 3)
                .seed(11)
                .size_scale(0.1),
        )
        .unwrap();
    let session = engine.into_session();
    let fresh = session.predict_batch(&circuits).unwrap();

    // Two rounds: steady-state serving repeats itself bit for bit.
    for _ in 0..2 {
        let out = session.predict_batch(&circuits).unwrap();
        assert_eq!(out.len(), fresh.len());
        for (a, b) in fresh.iter().zip(&out) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    // The single-circuit prepared path agrees too.
    let prepared = session.prepare_batch(&circuits).unwrap();
    assert_eq!(prepared.len(), circuits.len());
    let mut buf = Vec::new();
    for ((single, circuit), want) in prepared.iter().zip(&circuits).zip(&fresh) {
        assert_eq!(single.circuit().num_nodes, circuit.num_nodes);
        session.predict_into(single, &mut buf).unwrap();
        assert_eq!(buf.len(), want.len());
        for (x, y) in buf.iter().zip(want) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn checkpoint_roundtrips_through_builder_json() {
    let engine = quick_engine();
    let json = engine.checkpoint_json().unwrap();
    let restored = Engine::builder()
        .from_checkpoint_json(json)
        .build()
        .unwrap();
    assert_eq!(restored.model_config(), engine.model_config());
    let circuits = engine
        .prepare(&BenchText::new("full_adder", FULL_ADDER))
        .unwrap();
    let a = engine.predict(&circuits[0]).unwrap();
    let b = restored.predict(&circuits[0]).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// `quick_engine()`'s checkpoint with its top-level object edited.
fn edited_checkpoint(edit: impl FnOnce(&mut Value)) -> String {
    let json = quick_engine().checkpoint_json().unwrap();
    let mut checkpoint: Value = serde_json::from_str(&json).unwrap();
    edit(&mut checkpoint);
    serde_json::to_string(&checkpoint).unwrap()
}

/// The object under `key` of a JSON object.
fn field<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Object(map) => map.get_mut(key).expect("field present"),
        _ => panic!("not an object"),
    }
}

#[test]
fn checkpoint_config_larger_than_its_weights_is_refused_before_allocating() {
    // ~200 bytes promising a 100 000-wide model (~40 GB of weights) and
    // carrying none: refused before the model is built.
    let json = edited_checkpoint(|c| {
        *field(field(c, "config"), "hidden_dim") = Value::UInt(100_000);
        *field(c, "weights") = Value::Object(Default::default());
    });
    assert!(json.len() < 400, "{} bytes", json.len());
    let err = Engine::builder()
        .from_checkpoint_json(json)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, DeepGateError::Nn(NnError::ShapeMismatch { .. })),
        "{err}"
    );
}

#[test]
fn checkpoint_tensor_shorter_than_its_shape_is_refused() {
    // The header still says [3, 12]; one value follows it. An unused
    // tensor carries the 35 missing values, so the file as a whole holds
    // as many weights as the configuration needs.
    let json = edited_checkpoint(|c| {
        let weights = field(c, "weights");
        let mut padding = field(weights, "dagrec.embed.weight").clone();
        *field(&mut padding, "rows") = Value::UInt(1);
        *field(&mut padding, "cols") = Value::UInt(35);
        *field(&mut padding, "data") = Value::Array(vec![Value::Float(0.5); 35]);
        let tensor = field(weights, "dagrec.embed.weight");
        *field(tensor, "data") = Value::Array(vec![Value::Float(0.5)]);
        match weights {
            Value::Object(map) => map.insert("padding".to_string(), padding),
            _ => unreachable!("weights are an object"),
        };
    });
    let err = Engine::builder()
        .from_checkpoint_json(json)
        .build()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            DeepGateError::Nn(NnError::ShapeMismatch { expected, got, .. })
                if expected == &[36] && got == &[1]
        ),
        "{err}"
    );
}

#[test]
fn checkpoint_weight_beyond_f32_range_is_refused() {
    // A finite JSON number that no f32 can hold must not load as infinity.
    let json = edited_checkpoint(|c| {
        let bias = field(field(c, "weights"), "dagrec.embed.bias");
        match field(bias, "data") {
            Value::Array(data) => data[0] = Value::Float(1e39),
            _ => panic!("tensor data is an array"),
        }
    });
    let err = Engine::builder()
        .from_checkpoint_json(json)
        .build()
        .unwrap_err();
    assert!(
        matches!(&err, DeepGateError::Nn(NnError::Serde(_))),
        "{err}"
    );
}

#[test]
fn checkpoint_with_zero_iterations_is_refused_like_a_fresh_config() {
    let json = edited_checkpoint(|c| {
        *field(field(c, "config"), "num_iterations") = Value::UInt(0);
    });
    let err = Engine::builder()
        .from_checkpoint_json(json)
        .build()
        .unwrap_err();
    assert!(
        matches!(&err, DeepGateError::Config(m) if m == "checkpoint num_iterations must be at least 1"),
        "{err}"
    );
}

#[test]
fn checkpoint_with_the_largest_seed_loads_and_predicts_like_its_source() {
    // The layer constructors derive one sub-seed per layer from the config
    // seed; a seed at `u64::MAX` must wrap, not overflow.
    let json = edited_checkpoint(|c| {
        *field(field(c, "config"), "seed") = Value::UInt(u64::MAX);
    });
    let restored = Engine::builder()
        .from_checkpoint_json(json)
        .build()
        .unwrap();
    let engine = quick_engine();
    let circuits = engine
        .prepare(&BenchText::new("full_adder", FULL_ADDER))
        .unwrap();
    // The file's weights replace the seeded initialisation.
    let a = engine.predict(&circuits[0]).unwrap();
    let b = restored.predict(&circuits[0]).unwrap();
    assert_eq!(
        a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
}

/// The checkpoint format, pinned from outside: a digest of the
/// `to_checkpoint()` bytes of a small seeded model. Key names, key order,
/// number formatting and every weight bit are covered; a change to how the
/// configuration or a tensor is written moves the digest.
#[test]
fn checkpoint_bytes_of_a_seeded_model_are_pinned() {
    use deepgate::gnn::StructuralHasher;
    let model = DeepGate::new(DeepGateConfig {
        hidden_dim: 4,
        num_iterations: 2,
        regressor_hidden: 4,
        skip_encoding_frequencies: 2,
        seed: 7,
        ..DeepGateConfig::default()
    });
    let json = model.to_checkpoint().unwrap();
    let mut digest = StructuralHasher::new();
    digest.write_bytes(json.as_bytes());
    assert_eq!(
        (json.len(), digest.finish()),
        (10_005, 0x23e2bc91f9d9812e82df1c5f72c7b8b0),
        "{} bytes, digest {:#034x}",
        json.len(),
        digest.finish()
    );
}

#[test]
fn engine_metrics_record_every_pipeline_stage() {
    use deepgate::telemetry::Registry;
    use deepgate::EngineMetrics;
    use std::sync::Arc;

    let registry = Registry::new();
    let metrics = Arc::new(EngineMetrics::registered(&registry));
    let engine = Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 12,
            num_iterations: 2,
            regressor_hidden: 8,
            ..DeepGateConfig::default()
        })
        .metrics(Arc::clone(&metrics))
        .build()
        .unwrap();

    // Instrumented inference must be bit-identical to the plain path.
    let plain = quick_engine();
    let circuits = engine
        .prepare(&BenchText::new("full_adder", FULL_ADDER))
        .unwrap();
    let expected = {
        let c = plain
            .prepare(&BenchText::new("full_adder", FULL_ADDER))
            .unwrap();
        plain.predict(&c[0]).unwrap()
    };
    let session = engine.session();
    let prepared = session.prepare(circuits[0].clone());
    let mut out = Vec::new();
    session.predict_into(&prepared, &mut out).unwrap();
    assert_eq!(out, expected);

    // The batched path records the same series, once per circuit.
    let outs = session
        .predict_batch(&[circuits[0].clone(), circuits[0].clone()])
        .unwrap();
    assert_eq!(outs, [expected.clone(), expected]);

    let snap = registry.snapshot();
    // One circuit ingested; one plan built and one prediction timed per
    // prepared circuit (one single, two batched).
    assert_eq!(snap.histogram("engine_ingest_ns").unwrap().count, 1);
    assert_eq!(snap.histogram("engine_plan_ns").unwrap().count, 3);
    let predicts = snap.histogram("engine_predict_ns").unwrap().count;
    assert_eq!(predicts, 3);

    // The GNN kernel series follow the predictions: one circuit-size record
    // per prediction, one regression pass per prediction, and level
    // aggregations accumulate across recurrence iterations.
    assert_eq!(snap.histogram("gnn_circuit_nodes").unwrap().count, predicts);
    assert_eq!(snap.histogram("gnn_regress_ns").unwrap().count, predicts);
    assert!(snap.histogram("gnn_level_agg_ns").unwrap().count > 0);
    assert!(snap.counter("gnn_levels_total") > 0);

    // The engine hands its handles to every session it opens.
    assert!(engine.engine_metrics().is_some());
}
