//! Reproduces the recurrence-iteration study of Section IV-D2: a trained
//! DeepGate model is evaluated with the inference iteration count T swept
//! from 1 to 50; the prediction error converges around T = 10.

use deepgate_bench::{
    build_dataset, fmt_error, train_and_evaluate, ExperimentSettings, Report, Scale,
};
use deepgate_gnn::{evaluate_prediction_error, AggregatorKind, DagRecConfig, DagRecGnn};
use deepgate_nn::ParamStore;

fn main() {
    let scale = Scale::from_args();
    let settings = ExperimentSettings::for_scale(scale);
    let dataset = build_dataset(&settings, true);

    let mut store = ParamStore::new();
    let model = DagRecGnn::new(
        &mut store,
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
            seed: 17,
        },
    );
    let _ = train_and_evaluate(&model, &mut store, &dataset, &settings);

    let sweep: &[usize] = &[1, 2, 3, 5, 8, 10, 15, 20, 30, 50];
    let mut report = Report::new(
        "fig_iterations",
        "Sec. IV-D2 (error vs recurrence iterations T)",
        scale,
    );
    for &t in sweep {
        let error: f64 = dataset
            .test
            .iter()
            .map(|c| {
                evaluate_prediction_error(&model.predict_with_iterations(&store, c, t), c)
                    .expect("experiment circuits are labelled")
            })
            .sum::<f64>()
            / dataset.test.len().max(1) as f64;
        report.push_row(
            format!("T = {t}"),
            vec![("Avg. Prediction Error".to_string(), fmt_error(error))],
        );
    }
    report.print();
    report.save();
}
