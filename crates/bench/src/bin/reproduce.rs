//! `reproduce --table <1|2|3|4|iterations|ablation> [--full]`: runs one of
//! the DeepGate paper's experiments (see the `deepgate_bench` crate docs for
//! the list) and writes its report. Every circuit comes from
//! `deepgate::Engine::prepare` through the crate's `labelling_engine`.

use deepgate::LargeDesignSource;
use deepgate_bench::{
    build_dataset, fmt_error, fmt_reduction, labelling_engine, train_and_evaluate, train_dag_rec,
    CircuitStats, ExperimentSettings, Report,
};
use deepgate_core::average_prediction_error;
use deepgate_dataset::{LargeDesign, SuiteKind};
use deepgate_gnn::{
    evaluate_prediction_error, AggregatorKind, DagConvConfig, DagConvGnn, DagRecConfig, DagRecGnn,
    Gcn, GcnConfig, ProbabilityModel,
};
use deepgate_nn::ParamStore;

const USAGE: &str = "usage: reproduce --table <1|2|3|4|iterations|ablation> [--full]";

/// An experiment: runs at the given settings and returns its report.
type Experiment = fn(&ExperimentSettings) -> Report;

/// The experiments `--table` selects from, by name.
const TABLES: [(&str, Experiment); 6] = [
    ("1", table1),
    ("2", table2),
    ("3", table3),
    ("4", table4),
    ("iterations", iterations),
    ("ablation", ablation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ((_, experiment), full) = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("reproduce: {message}\n{USAGE}");
        std::process::exit(2);
    });
    let settings = if full {
        ExperimentSettings::FULL
    } else {
        ExperimentSettings::QUICK
    };
    let report = experiment(&settings);
    report.print();
    report.save();
}

/// Parses `--table <name>` (required) and `--full`; anything else is an
/// error.
fn parse_args(args: &[String]) -> Result<(&'static (&'static str, Experiment), bool), String> {
    let mut table = None;
    let mut full = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--table" => {
                let name = args.next().ok_or("--table needs a value")?;
                let found = TABLES.iter().find(|(known, _)| known == name);
                table = Some(found.ok_or_else(|| format!("unknown table `{name}`"))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((table.ok_or("missing --table")?, full))
}

/// Table I: the statistics of the circuit training dataset (#sub-circuits,
/// node range and level range per benchmark suite).
fn table1(s: &ExperimentSettings) -> Report {
    let dataset = build_dataset(s, true, &SuiteKind::ALL);
    let range = |[low, high]: [usize; 2]| format!("[{low}-{high}]");
    let row = |stats: CircuitStats, paper: usize| {
        [
            ("#Subcircuits", stats.count.to_string()),
            ("#Node", range(stats.nodes)),
            ("#Level", range(stats.levels)),
            ("Paper #Subcircuits", paper.to_string()),
        ]
    };
    let mut report = Report::new("table1", "Table I (dataset statistics)", s.scale);
    for &(suite, stats) in &dataset.suite_stats {
        report.push_row(suite.label(), row(stats, suite.paper_subcircuit_count()));
    }
    let all = CircuitStats::of(dataset.train.iter().chain(&dataset.test));
    let paper = SuiteKind::ALL.iter().map(|k| k.paper_subcircuit_count());
    report.push_row("Total", row(all, paper.sum()));
    report
}

/// The DAG-RecGNN baseline: DeepGate's recurrence under its seed, with
/// `aggregator` and without the fixed gate input, skip connections or
/// per-gate-type regressor heads.
fn dag_rec_baseline(deepgate: DagRecConfig, aggregator: AggregatorKind) -> DagRecConfig {
    DagRecConfig {
        aggregator,
        fix_gate_input: false,
        use_skip_connections: false,
        per_type_regressor: false,
        ..deepgate
    }
}

/// Table II's recurrent rows as (model, aggregator, config): the DAG-RecGNN
/// baselines the paper reports (Conv. Sum, DeepSet, GatedSum), then DeepGate
/// without and with skip connections.
fn table2_recurrent(s: &ExperimentSettings) -> [(String, &'static str, DagRecConfig); 5] {
    let deepgate = s.deepgate(3, true);
    let baseline = |kind: AggregatorKind| {
        let name = format!("DAG-RecGNN (T={})", s.num_iterations);
        (name, kind.label(), dag_rec_baseline(deepgate, kind))
    };
    let ours = format!("DeepGate (T={})", s.num_iterations);
    let without_sc = DagRecConfig {
        use_skip_connections: false,
        ..deepgate
    };
    [
        baseline(AggregatorKind::ConvSum),
        baseline(AggregatorKind::DeepSet),
        baseline(AggregatorKind::GatedSum),
        (ours.clone(), "Attention w/o SC", without_sc),
        (ours, "Attention w/ SC", deepgate),
    ]
}

/// Table II: DeepGate against the GCN, DAG-ConvGNN and DAG-RecGNN baselines
/// across aggregator designs, by average prediction error on the held-out
/// split.
fn table2(s: &ExperimentSettings) -> Report {
    let dataset = build_dataset(s, true, &SuiteKind::ALL);
    let mut report = Report::new("table2", "Table II (model comparison)", s.scale);
    let mut run = |name: &str, aggregator: &str, model: &dyn ProbabilityModel, mut store| {
        let error = train_and_evaluate(model, &mut store, &dataset, s);
        let values = [
            ("Aggregator", aggregator.to_string()),
            ("Avg. Prediction Error", fmt_error(error)),
        ];
        report.push_row(name, values);
    };
    for kind in AggregatorKind::ALL {
        let mut store = ParamStore::new();
        let config = GcnConfig {
            hidden_dim: s.hidden_dim,
            aggregator: kind,
            seed: 1,
            ..GcnConfig::default()
        };
        let model = Gcn::new(&mut store, config);
        run("GCN", kind.label(), &model, store);
    }
    for kind in AggregatorKind::ALL {
        let mut store = ParamStore::new();
        let config = DagConvConfig {
            hidden_dim: s.hidden_dim,
            aggregator: kind,
            seed: 2,
            ..DagConvConfig::default()
        };
        let model = DagConvGnn::new(&mut store, config);
        run("DAG-ConvGNN", kind.label(), &model, store);
    }
    for (name, aggregator, config) in table2_recurrent(s) {
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(&mut store, config);
        run(&name, aggregator, &model, store);
    }
    report
}

/// Table III's contenders: the DeepSet baseline and DeepGate.
fn table3_models(s: &ExperimentSettings) -> [DagRecConfig; 2] {
    let deepgate = s.deepgate(5, true);
    let deepset = dag_rec_baseline(deepgate, AggregatorKind::DeepSet);
    [deepset, deepgate]
}

/// Table III: generalisation of DeepGate and the DeepSet baseline to five
/// designs far larger than the training circuits. Each design is prepared
/// like the training set (mapped, optimised, labelled); `Levels` is the
/// depth of its circuit graph.
fn table3(s: &ExperimentSettings) -> Report {
    // Train the two contenders on the small sub-circuit dataset only.
    let dataset = build_dataset(s, true, &SuiteKind::ALL);
    let models = table3_models(s).map(|config| train_dag_rec(config, &dataset, s));
    let engine = labelling_engine(s, true);
    let mut report = Report::new("table3", "Table III (large circuits)", s.scale);
    for design in LargeDesign::ALL {
        let source = LargeDesignSource::new(design, s.large_design_scale);
        let circuit = engine
            .prepare(&source)
            .expect("labelling large design")
            .remove(0);
        let (nodes, depth) = (circuit.num_nodes, circuit.max_level);
        eprintln!("[table3] {design}: {nodes} nodes, {depth} levels");
        let [deepset, deepgate] = models.each_ref().map(|(model, store, _)| {
            let probs = model.try_predict(store, &circuit).expect("AIG circuit");
            evaluate_prediction_error(&probs, &circuit).expect("labelled circuit")
        });
        report.push_row(
            design.label(),
            [
                ("#Nodes", nodes.to_string()),
                ("Levels", depth.to_string()),
                ("DeepSet", fmt_error(deepset)),
                ("DeepGate", fmt_error(deepgate)),
                ("Reduction", fmt_reduction(deepset, deepgate)),
                ("Paper DeepSet", fmt_error(design.paper_deepset_error())),
                ("Paper DeepGate", fmt_error(design.paper_deepgate_error())),
            ],
        );
    }
    report
}

/// Table IV's DeepGate at a node-feature width: 3 for AIG circuits, 12 for
/// the original gate types.
fn table4_deepgate(s: &ExperimentSettings, feature_dim: usize) -> DagRecConfig {
    DagRecConfig {
        feature_dim,
        ..s.deepgate(11, false)
    }
}

/// Table IV: the effect of the AIG circuit transformation. DeepGate is
/// trained (i) on the original gate types, (ii) on the AIG form of the same
/// circuits, and (iii) evaluated with a model pre-trained on the merged AIG
/// dataset of all suites.
fn table4(s: &ExperimentSettings) -> Report {
    let merged = build_dataset(s, true, &SuiteKind::ALL);
    let (pretrained, pretrained_store, _) = train_dag_rec(table4_deepgate(s, 3), &merged, s);
    let mut report = Report::new("table4", "Table IV (circuit transformation)", s.scale);
    for suite in [SuiteKind::Epfl, SuiteKind::Iwls] {
        let raw = build_dataset(s, false, &[suite]);
        let (_, _, raw_error) = train_dag_rec(table4_deepgate(s, 12), &raw, s);
        let aig = build_dataset(s, true, &[suite]);
        let (_, _, aig_error) = train_dag_rec(table4_deepgate(s, 3), &aig, s);
        // Pre-trained on the merged dataset, evaluated on this suite's test
        // split without further fine-tuning.
        let pretrained_error = average_prediction_error(&pretrained, &pretrained_store, &aig.test)
            .expect("experiment circuits are labelled");
        report.push_row(
            suite.label(),
            [
                ("w/o Tran.", fmt_error(raw_error)),
                ("w/ Tran.", fmt_error(aig_error)),
                ("Pre-trained", fmt_error(pretrained_error)),
            ],
        );
    }
    report
}

/// The DeepGate whose inference iteration count Sec. IV-D2 sweeps.
fn iterations_deepgate(s: &ExperimentSettings) -> DagRecConfig {
    s.deepgate(17, true)
}

/// Sec. IV-D2: a trained DeepGate evaluated with the inference iteration
/// count T swept from 1 to 50; the prediction error converges around
/// T = 10.
fn iterations(s: &ExperimentSettings) -> Report {
    let dataset = build_dataset(s, true, &SuiteKind::ALL);
    let (model, store, _) = train_dag_rec(iterations_deepgate(s), &dataset, s);
    let reproduces = "Sec. IV-D2 (error vs recurrence iterations T)";
    let mut report = Report::new("fig_iterations", reproduces, s.scale);
    let plans: Vec<_> = dataset.test.iter().map(|c| model.plan(c)).collect();
    let mut probs = Vec::new();
    for t in [1, 2, 3, 5, 8, 10, 15, 20, 30, 50] {
        let mut total = 0.0;
        for (c, plan) in dataset.test.iter().zip(&plans) {
            model
                .predict_planned(&store, plan, t, &mut probs, None)
                .expect("AIG circuit");
            total +=
                evaluate_prediction_error(&probs, c).expect("experiment circuits are labelled");
        }
        let error = total / dataset.test.len().max(1) as f64;
        report.push_row(
            format!("T = {t}"),
            [("Avg. Prediction Error", fmt_error(error))],
        );
    }
    report
}

/// The ablation's variants: DeepGate, then each of its design choices
/// disabled alone.
fn ablation_variants(s: &ExperimentSettings) -> [(&'static str, DagRecConfig); 5] {
    let base = s.deepgate(23, true);
    let without = |label, disable: fn(&mut DagRecConfig)| {
        let mut config = base;
        disable(&mut config);
        (label, config)
    };
    [
        ("DeepGate (full)", base),
        without("w/o reversed layer", |c| c.reverse_layer = false),
        without("w/o fixed gate input", |c| c.fix_gate_input = false),
        without("w/o skip connections", |c| c.use_skip_connections = false),
        without("single regressor head", |c| c.per_type_regressor = false),
    ]
}

/// Ablation of DeepGate's design choices beyond the paper's tables: the
/// reversed propagation layer, the fixed gate-type input, the skip
/// connections and the per-gate-type regressor are disabled one at a time.
fn ablation(s: &ExperimentSettings) -> Report {
    let dataset = build_dataset(s, true, &SuiteKind::ALL);
    let mut report = Report::new("ablation", "DeepGate design-choice ablation", s.scale);
    for (label, config) in ablation_variants(s) {
        let (_, _, error) = train_dag_rec(config, &dataset, s);
        report.push_row(label, [("Avg. Prediction Error", fmt_error(error))]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn table_flag_accepts_exactly_the_six_names() {
        let names: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["1", "2", "3", "4", "iterations", "ablation"]);
        assert!(USAGE.contains(&format!("--table <{}>", names.join("|"))));
        for name in names {
            let ((parsed, _), full) = parse_args(&args(&["--table", name])).unwrap();
            assert_eq!((*parsed, full), (name, false));
            let ((parsed, _), full) = parse_args(&args(&["--full", "--table", name])).unwrap();
            assert_eq!((*parsed, full), (name, true));
        }
        for bad in [
            &["--table", "5"][..],
            &["--table", "table2"],
            &["--table", "fig_iterations"],
            &["--table", ""],
            &["--table"],
            &[],
            &["--full"],
            &["--table", "1", "--quick"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    // The oracle: every model configuration the tables have always trained,
    // written out field by field as each table once spelled it by hand (Table
    // II's recurrent models, Table III's two, Table IV's DeepGate, Sec.
    // IV-D2's and the ablation's). A helper that drifts from these moves a
    // published number.

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

    fn table3_literals(settings: &ExperimentSettings) -> [DagRecConfig; 2] {
        [
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
        ]
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

    fn fig_iterations_literal(settings: &ExperimentSettings) -> DagRecConfig {
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
        }
    }

    fn ablation_literals(settings: &ExperimentSettings) -> Vec<(&'static str, DagRecConfig)> {
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
        vec![
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
        ]
    }

    #[test]
    fn every_table_builds_the_models_it_always_built() {
        for s in [ExperimentSettings::QUICK, ExperimentSettings::FULL] {
            let t = s.num_iterations;
            let mut table2 = Vec::new();
            for kind in [
                AggregatorKind::ConvSum,
                AggregatorKind::DeepSet,
                AggregatorKind::GatedSum,
            ] {
                let config = rec_config(&s, kind, false, false);
                table2.push((format!("DAG-RecGNN (T={t})"), kind.label(), config));
            }
            for (use_skip, label) in [(false, "Attention w/o SC"), (true, "Attention w/ SC")] {
                let config = rec_config(&s, AggregatorKind::Attention, true, use_skip);
                table2.push((format!("DeepGate (T={t})"), label, config));
            }
            assert_eq!(table2_recurrent(&s).to_vec(), table2);
            assert_eq!(table3_models(&s), table3_literals(&s));
            assert_eq!(table4_deepgate(&s, 3), deepgate_config(&s, 3));
            assert_eq!(table4_deepgate(&s, 12), deepgate_config(&s, 12));
            assert_eq!(iterations_deepgate(&s), fig_iterations_literal(&s));
            assert_eq!(ablation_variants(&s).to_vec(), ablation_literals(&s));
        }
    }

    /// The closed form a checkpoint's configuration is bounded by counts
    /// exactly the weights of every model the experiments build.
    #[test]
    fn closed_form_weight_count_matches_every_experiment_model() {
        for s in [ExperimentSettings::QUICK, ExperimentSettings::FULL] {
            let mut configs = table2_recurrent(&s).map(|(_, _, config)| config).to_vec();
            configs.extend(table3_models(&s));
            configs.extend([table4_deepgate(&s, 3), table4_deepgate(&s, 12)]);
            configs.push(iterations_deepgate(&s));
            configs.extend(ablation_variants(&s).map(|(_, config)| config));
            for config in configs {
                let mut store = ParamStore::new();
                DagRecGnn::new(&mut store, config);
                assert_eq!(config.num_weights(), store.num_weights(), "{config:?}");
            }
        }
    }
}
