//! Reproduces Table II: the comparison of DeepGate with GCN, DAG-ConvGNN and
//! DAG-RecGNN baselines across aggregator designs, measured by average
//! prediction error on the held-out split.

use deepgate_bench::{
    build_dataset, fmt_error, train_and_evaluate, ExperimentSettings, Report, Scale,
};
use deepgate_gnn::{
    AggregatorKind, DagConvConfig, DagConvGnn, DagRecConfig, DagRecGnn, Gcn, GcnConfig,
};
use deepgate_nn::ParamStore;

fn main() {
    let scale = Scale::from_args();
    let settings = ExperimentSettings::for_scale(scale);
    let dataset = build_dataset(&settings, true);
    let mut report = Report::new("table2", "Table II (model comparison)", scale);

    // GCN baselines.
    for kind in AggregatorKind::ALL {
        let mut store = ParamStore::new();
        let model = Gcn::new(
            &mut store,
            GcnConfig {
                feature_dim: 3,
                hidden_dim: settings.hidden_dim,
                num_layers: 3,
                aggregator: kind,
                seed: 1,
            },
        );
        let error = train_and_evaluate(&model, &mut store, &dataset, &settings);
        push(&mut report, "GCN", kind.label(), error);
    }

    // DAG-ConvGNN baselines.
    for kind in AggregatorKind::ALL {
        let mut store = ParamStore::new();
        let model = DagConvGnn::new(
            &mut store,
            DagConvConfig {
                feature_dim: 3,
                hidden_dim: settings.hidden_dim,
                num_layers: 3,
                aggregator: kind,
                seed: 2,
            },
        );
        let error = train_and_evaluate(&model, &mut store, &dataset, &settings);
        push(&mut report, "DAG-ConvGNN", kind.label(), error);
    }

    // DAG-RecGNN baselines (the paper reports Conv. Sum, DeepSet, GatedSum).
    for kind in [
        AggregatorKind::ConvSum,
        AggregatorKind::DeepSet,
        AggregatorKind::GatedSum,
    ] {
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(&mut store, rec_config(&settings, kind, false, false));
        let error = train_and_evaluate(&model, &mut store, &dataset, &settings);
        push(
            &mut report,
            &format!("DAG-RecGNN (T={})", settings.num_iterations),
            kind.label(),
            error,
        );
    }

    // DeepGate: attention without and with skip connections.
    for use_skip in [false, true] {
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(
            &mut store,
            rec_config(&settings, AggregatorKind::Attention, true, use_skip),
        );
        let error = train_and_evaluate(&model, &mut store, &dataset, &settings);
        let label = if use_skip {
            "Attention w/ SC"
        } else {
            "Attention w/o SC"
        };
        push(
            &mut report,
            &format!("DeepGate (T={})", settings.num_iterations),
            label,
            error,
        );
    }

    report.print();
    report.save();
}

fn rec_config(
    settings: &ExperimentSettings,
    aggregator: AggregatorKind,
    fix_gate_input: bool,
    use_skip_connections: bool,
) -> DagRecConfig {
    DagRecConfig {
        feature_dim: 3,
        hidden_dim: settings.hidden_dim,
        num_iterations: settings.num_iterations,
        aggregator,
        reverse_layer: true,
        fix_gate_input,
        use_skip_connections,
        skip_encoding_frequencies: 8,
        regressor_hidden: settings.hidden_dim / 2,
        per_type_regressor: fix_gate_input,
        seed: 3,
    }
}

fn push(report: &mut Report, model: &str, aggregator: &str, error: f64) {
    report.push_row(
        model,
        vec![
            ("Aggregator".to_string(), aggregator.to_string()),
            ("Avg. Prediction Error".to_string(), fmt_error(error)),
        ],
    );
}
