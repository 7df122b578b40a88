//! Reproduces Table III: generalisation of DeepGate and the DeepSet baseline
//! to five designs that are far larger than the training circuits.

use deepgate_bench::{
    build_dataset, fmt_error, fmt_reduction, train_and_evaluate, ExperimentSettings, Report, Scale,
};
use deepgate_dataset::{labelled_circuit_from_aig, LargeDesign};
use deepgate_gnn::{
    evaluate_prediction_error, AggregatorKind, DagRecConfig, DagRecGnn, ProbabilityModel,
};
use deepgate_nn::ParamStore;

fn main() {
    let scale = Scale::from_args();
    let settings = ExperimentSettings::for_scale(scale);
    let dataset = build_dataset(&settings, true);

    // Train the two contenders on the small sub-circuit dataset only.
    let mut deepset_store = ParamStore::new();
    let deepset = DagRecGnn::new(
        &mut deepset_store,
        DagRecConfig {
            feature_dim: 3,
            hidden_dim: settings.hidden_dim,
            num_iterations: settings.num_iterations,
            aggregator: AggregatorKind::DeepSet,
            reverse_layer: true,
            fix_gate_input: false,
            use_skip_connections: false,
            skip_encoding_frequencies: 8,
            regressor_hidden: settings.hidden_dim / 2,
            per_type_regressor: false,
            seed: 5,
        },
    );
    let _ = train_and_evaluate(&deepset, &mut deepset_store, &dataset, &settings);

    let mut deepgate_store = ParamStore::new();
    let deepgate = DagRecGnn::new(
        &mut deepgate_store,
        DagRecConfig {
            feature_dim: 3,
            hidden_dim: settings.hidden_dim,
            num_iterations: settings.num_iterations,
            aggregator: AggregatorKind::Attention,
            reverse_layer: true,
            fix_gate_input: true,
            use_skip_connections: true,
            skip_encoding_frequencies: 8,
            regressor_hidden: settings.hidden_dim / 2,
            per_type_regressor: true,
            seed: 5,
        },
    );
    let _ = train_and_evaluate(&deepgate, &mut deepgate_store, &dataset, &settings);

    // Evaluate on the large designs, unseen during training.
    let mut report = Report::new("table3", "Table III (large circuits)", scale);
    for design in LargeDesign::ALL {
        let netlist = design.generate(settings.large_design_scale);
        let aig = deepgate_aig::Aig::from_netlist(&netlist).expect("netlist maps to AIG");
        let circuit = labelled_circuit_from_aig(&aig, settings.num_patterns, 99)
            .expect("labelling large design");
        let (_, depth) = aig.levels();
        eprintln!(
            "[table3] {design}: {} nodes, {} levels",
            circuit.num_nodes, depth
        );
        let deepset_error =
            evaluate_prediction_error(&deepset.predict(&deepset_store, &circuit), &circuit)
                .expect("labelled circuit");
        let deepgate_error =
            evaluate_prediction_error(&deepgate.predict(&deepgate_store, &circuit), &circuit)
                .expect("labelled circuit");
        report.push_row(
            design.label(),
            vec![
                ("#Nodes".to_string(), circuit.num_nodes.to_string()),
                ("Levels".to_string(), depth.to_string()),
                ("DeepSet".to_string(), fmt_error(deepset_error)),
                ("DeepGate".to_string(), fmt_error(deepgate_error)),
                (
                    "Reduction".to_string(),
                    fmt_reduction(deepset_error, deepgate_error),
                ),
                (
                    "Paper DeepSet".to_string(),
                    fmt_error(design.paper_deepset_error()),
                ),
                (
                    "Paper DeepGate".to_string(),
                    fmt_error(design.paper_deepgate_error()),
                ),
            ],
        );
    }
    report.print();
    report.save();
}
