//! Reproduces Table IV: the effect of the AIG circuit transformation.
//! DeepGate is trained (i) on the original gate types, (ii) on the AIG form
//! of the same circuits, and (iii) evaluated with a model pre-trained on the
//! merged AIG dataset of all suites.

use deepgate_bench::{
    build_dataset, build_dataset_for_suites, fmt_error, train_and_evaluate, ExperimentSettings,
    Report, Scale,
};
use deepgate_core::average_prediction_error;
use deepgate_dataset::SuiteKind;
use deepgate_gnn::{AggregatorKind, DagRecConfig, DagRecGnn};
use deepgate_nn::ParamStore;

fn main() {
    let scale = Scale::from_args();
    let settings = ExperimentSettings::for_scale(scale);

    // The pre-trained model: DeepGate trained on the merged AIG dataset.
    let merged = build_dataset(&settings, true);
    let mut pretrained_store = ParamStore::new();
    let pretrained = DagRecGnn::new(&mut pretrained_store, deepgate_config(&settings, 3));
    let _ = train_and_evaluate(&pretrained, &mut pretrained_store, &merged, &settings);

    let mut report = Report::new("table4", "Table IV (circuit transformation)", scale);
    for suite in [SuiteKind::Epfl, SuiteKind::Iwls] {
        // Without transformation: original gate types, 12-d one-hot features.
        let raw = build_dataset_for_suites(&settings, false, vec![suite]);
        let mut raw_store = ParamStore::new();
        let raw_model = DagRecGnn::new(&mut raw_store, deepgate_config(&settings, 12));
        let raw_error = train_and_evaluate(&raw_model, &mut raw_store, &raw, &settings);

        // With transformation: AIG form of the same designs.
        let aig = build_dataset_for_suites(&settings, true, vec![suite]);
        let mut aig_store = ParamStore::new();
        let aig_model = DagRecGnn::new(&mut aig_store, deepgate_config(&settings, 3));
        let aig_error = train_and_evaluate(&aig_model, &mut aig_store, &aig, &settings);

        // Pre-trained on the merged dataset, evaluated on this suite's test
        // split without further fine-tuning.
        let pretrained_error = average_prediction_error(&pretrained, &pretrained_store, &aig.test)
            .expect("experiment circuits are labelled");

        report.push_row(
            suite.label(),
            vec![
                ("w/o Tran.".to_string(), fmt_error(raw_error)),
                ("w/ Tran.".to_string(), fmt_error(aig_error)),
                ("Pre-trained".to_string(), fmt_error(pretrained_error)),
            ],
        );
    }
    report.print();
    report.save();
}

fn deepgate_config(settings: &ExperimentSettings, feature_dim: usize) -> DagRecConfig {
    DagRecConfig {
        feature_dim,
        hidden_dim: settings.hidden_dim,
        num_iterations: settings.num_iterations,
        aggregator: AggregatorKind::Attention,
        reverse_layer: true,
        fix_gate_input: true,
        use_skip_connections: true,
        skip_encoding_frequencies: 8,
        regressor_hidden: settings.hidden_dim / 2,
        per_type_regressor: false,
        seed: 11,
    }
}
