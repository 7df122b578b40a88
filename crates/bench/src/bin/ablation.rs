//! Ablation of DeepGate's design choices beyond the paper's tables: the
//! reversed propagation layer, the fixed gate-type input, the skip
//! connections and the per-gate-type regressor are disabled one at a time.

use deepgate_bench::{
    build_dataset, fmt_error, train_and_evaluate, ExperimentSettings, Report, Scale,
};
use deepgate_gnn::{AggregatorKind, DagRecConfig, DagRecGnn};
use deepgate_nn::ParamStore;

fn main() {
    let scale = Scale::from_args();
    let settings = ExperimentSettings::for_scale(scale);
    let dataset = build_dataset(&settings, true);
    let mut report = Report::new("ablation", "DeepGate design-choice ablation", scale);

    let base = DagRecConfig {
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
        seed: 23,
    };
    let variants: Vec<(&str, DagRecConfig)> = vec![
        ("DeepGate (full)", base),
        (
            "w/o reversed layer",
            DagRecConfig {
                reverse_layer: false,
                ..base
            },
        ),
        (
            "w/o fixed gate input",
            DagRecConfig {
                fix_gate_input: false,
                ..base
            },
        ),
        (
            "w/o skip connections",
            DagRecConfig {
                use_skip_connections: false,
                ..base
            },
        ),
        (
            "single regressor head",
            DagRecConfig {
                per_type_regressor: false,
                ..base
            },
        ),
    ];

    for (label, config) in variants {
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(&mut store, config);
        let error = train_and_evaluate(&model, &mut store, &dataset, &settings);
        report.push_row(
            label,
            vec![("Avg. Prediction Error".to_string(), fmt_error(error))],
        );
    }
    report.print();
    report.save();
}
