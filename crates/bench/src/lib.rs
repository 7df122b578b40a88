//! Shared infrastructure for `reproduce`, the binary that regenerates the
//! tables and figures of the DeepGate paper:
//!
//! ```text
//! cargo run --release -p deepgate-bench --bin reproduce -- --table <name> [--full]
//! ```
//!
//! Without `--full`, its one scale switch, an experiment runs at the quick
//! scale, which finishes on a laptop CPU in minutes and preserves the
//! qualitative shape of the results (model ordering, relative improvements)
//! rather than absolute values.
//!
//! Every circuit an experiment trains or scores is prepared by
//! [`deepgate::Engine::prepare`], the path serving and the benchmark
//! measure: AIG mapping and optimisation (unless Table IV asks for raw
//! gates), simulation labelling and graph encoding, under the label seed
//! of [`labelling_engine`].
//!
//! | `--table` | reproduces | report in `target/experiments/` |
//! |---|---|---|
//! | `1` | Table I — dataset statistics | `table1.json` |
//! | `2` | Table II — model / aggregator comparison | `table2.json` |
//! | `3` | Table III — generalisation to five large designs | `table3.json` |
//! | `4` | Table IV — effect of the AIG transformation | `table4.json` |
//! | `iterations` | Section IV-D2 — error vs recurrence iterations | `fig_iterations.json` |
//! | `ablation` | extra ablation of DeepGate's design choices | `ablation.json` |
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use deepgate::{Engine, SuiteSource};
use deepgate_core::{DeepGateConfig, Trainer, TrainerConfig};
use deepgate_dataset::SuiteKind;
use deepgate_gnn::{CircuitGraph, DagRecConfig, DagRecGnn, FeatureEncoding, ProbabilityModel};
use deepgate_nn::ParamStore;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fs;
use std::time::Instant;

/// Experiment-wide hyper-parameters of one scale.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSettings {
    /// Scale label for report headers (`quick` or `full`).
    pub scale: &'static str,
    /// Designs generated per suite.
    pub designs_per_suite: usize,
    /// Design size scale factor.
    pub size_scale: f64,
    /// Simulation patterns per circuit.
    pub num_patterns: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Hidden dimension of every model.
    pub hidden_dim: usize,
    /// Recurrence iterations T for recurrent models.
    pub num_iterations: usize,
    /// Scale factor for the large designs of Table III.
    pub large_design_scale: f64,
}

impl ExperimentSettings {
    /// Reduced scale that completes in minutes on a CPU.
    pub const QUICK: ExperimentSettings = ExperimentSettings {
        scale: "quick",
        designs_per_suite: 16,
        size_scale: 0.2,
        num_patterns: 4_096,
        epochs: 20,
        learning_rate: 3e-3,
        hidden_dim: 32,
        num_iterations: 6,
        large_design_scale: 0.15,
    };

    /// Paper scale (hours of CPU time).
    pub const FULL: ExperimentSettings = ExperimentSettings {
        scale: "full",
        designs_per_suite: 64,
        size_scale: 1.0,
        num_patterns: 100_000,
        epochs: 60,
        learning_rate: 1e-4,
        hidden_dim: 64,
        num_iterations: 10,
        large_design_scale: 1.0,
    };

    /// DeepGate as the experiments train it: the paper's model
    /// ([`DeepGateConfig`]'s defaults) at this scale's width and depth, with
    /// a regressor half as wide, under an experiment's own `seed` and
    /// regressor-head choice.
    pub fn deepgate(&self, seed: u64, per_type_regressor: bool) -> DagRecConfig {
        DeepGateConfig {
            hidden_dim: self.hidden_dim,
            num_iterations: self.num_iterations,
            regressor_hidden: self.hidden_dim / 2,
            per_type_regressor,
            seed,
            ..DeepGateConfig::default()
        }
        .to_dag_rec_config()
    }
}

/// The seed of every experiment's suite designs, labels and train/test split.
const SEED: u64 = 42;

/// The engine every experiment prepares its circuits with: this scale's
/// `num_patterns`, label seed 42 and the AIG transformation on or off. Its
/// model is never trained; it only carries the feature width the pipeline
/// checks (3 for AIG circuits, 12 for raw gates).
pub fn labelling_engine(settings: &ExperimentSettings, transform_to_aig: bool) -> Engine {
    let encoding = if transform_to_aig {
        FeatureEncoding::AigGates
    } else {
        FeatureEncoding::AllGates
    };
    let model = DeepGateConfig {
        feature_dim: encoding.dimension(),
        ..DeepGateConfig::default()
    };
    Engine::builder()
        .model(model)
        .num_patterns(settings.num_patterns)
        .label_seed(SEED)
        .transform_to_aig(transform_to_aig)
        .build()
        .expect("experiment pipeline settings are valid")
}

/// Table I's statistics of a set of circuits: how many, and their node and
/// level ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitStats {
    /// Number of circuits.
    pub count: usize,
    /// Smallest and largest node count.
    pub nodes: [usize; 2],
    /// Smallest and largest logic depth.
    pub levels: [usize; 2],
}

impl CircuitStats {
    /// The statistics of `circuits`.
    pub fn of<'a>(circuits: impl Iterator<Item = &'a CircuitGraph> + Clone) -> CircuitStats {
        let range = |values: Vec<usize>| {
            let min = values.iter().min().copied().unwrap_or(0);
            [min, values.into_iter().max().unwrap_or(0)]
        };
        CircuitStats {
            count: circuits.clone().count(),
            nodes: range(circuits.clone().map(|c| c.num_nodes).collect()),
            levels: range(circuits.map(|c| c.max_level).collect()),
        }
    }
}

/// An experiment's labelled circuits, shuffled and split 85/15 into train
/// and test sets.
#[derive(Debug)]
pub struct Dataset {
    /// Training circuits.
    pub train: Vec<CircuitGraph>,
    /// Held-out test circuits.
    pub test: Vec<CircuitGraph>,
    /// Each suite's statistics, in the order of the suites.
    pub suite_stats: Vec<(SuiteKind, CircuitStats)>,
}

/// Prepares `designs_per_suite` designs of each of `suites` through
/// [`labelling_engine`] (generation seed 42), then shuffles them and
/// splits them 85/15, printing timing information. Panics if
/// preparation fails (invalid settings).
pub fn build_dataset(
    settings: &ExperimentSettings,
    transform_to_aig: bool,
    suites: &[SuiteKind],
) -> Dataset {
    let start = Instant::now();
    let engine = labelling_engine(settings, transform_to_aig);
    let mut all = Vec::new();
    let mut suite_stats = Vec::new();
    for &suite in suites {
        let source = SuiteSource::new(suite, settings.designs_per_suite)
            .seed(SEED)
            .size_scale(settings.size_scale);
        let circuits = engine.prepare(&source).expect("suite designs prepare");
        suite_stats.push((suite, CircuitStats::of(circuits.iter())));
        all.extend(circuits);
    }
    let mut rng = SmallRng::seed_from_u64(SEED + 0xD5);
    all.shuffle(&mut rng);
    let train_count = ((all.len() as f64) * 0.85).round() as usize;
    let test = all.split_off(train_count);
    let dataset = Dataset {
        train: all,
        test,
        suite_stats,
    };
    eprintln!(
        "[dataset] {} circuits ({} train / {} test), transform={}, {:.1}s",
        dataset.train.len() + dataset.test.len(),
        dataset.train.len(),
        dataset.test.len(),
        transform_to_aig,
        start.elapsed().as_secs_f64()
    );
    dataset
}

/// Trains a model on a dataset and returns the average prediction error on
/// the test split. Panics if training fails: the experiment datasets are
/// always labelled, so a failure here is a harness bug, not user input.
pub fn train_and_evaluate<M: ProbabilityModel + ?Sized>(
    model: &M,
    store: &mut ParamStore,
    dataset: &Dataset,
    settings: &ExperimentSettings,
) -> f64 {
    let start = Instant::now();
    let mut trainer = Trainer::new(TrainerConfig {
        epochs: settings.epochs,
        learning_rate: settings.learning_rate,
        grad_clip: 5.0,
        shuffle_seed: 7,
        eval_every: 0,
    });
    let history = trainer
        .train(model, store, &dataset.train, &dataset.test)
        .expect("experiment circuits are labelled");
    let error = history.best_valid_error().unwrap_or_else(|| {
        deepgate_core::average_prediction_error(model, store, &dataset.test)
            .expect("experiment circuits are labelled")
    });
    eprintln!(
        "[train] {}: final loss {:.4}, test error {:.4}, {:.1}s",
        model.name(),
        history.final_train_loss().unwrap_or(0.0),
        error,
        start.elapsed().as_secs_f64()
    );
    error
}

/// Builds a recurrent DAG-GNN from `config` and trains it with
/// [`train_and_evaluate`]; returns the model, its weights and its test
/// error.
pub fn train_dag_rec(
    config: DagRecConfig,
    dataset: &Dataset,
    settings: &ExperimentSettings,
) -> (DagRecGnn, ParamStore, f64) {
    let mut store = ParamStore::new();
    let model = DagRecGnn::new(&mut store, config);
    let error = train_and_evaluate(&model, &mut store, dataset, settings);
    (model, store, error)
}

/// One row of an experiment report.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Row label (model name, design name, …).
    pub label: String,
    /// Named values of the row.
    pub values: Vec<(String, String)>,
}

/// A full experiment report: a table plus metadata, printed to stdout and
/// saved as JSON under `target/experiments/`.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment identifier (e.g. `table2`).
    pub experiment: String,
    /// Paper artefact being reproduced (e.g. `Table II`).
    pub reproduces: String,
    /// Scale label.
    pub scale: String,
    /// The rows.
    pub rows: Vec<ReportRow>,
}

serde::fields!(Serialize for ReportRow { label, values });
serde::fields!(Serialize for Report { experiment, reproduces, scale, rows });

impl Report {
    /// Creates an empty report.
    pub fn new(experiment: &str, reproduces: &str, scale: &str) -> Self {
        Report {
            experiment: experiment.to_string(),
            reproduces: reproduces.to_string(),
            scale: scale.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of named values.
    pub fn push_row<'a>(
        &mut self,
        label: impl Into<String>,
        values: impl IntoIterator<Item = (&'a str, String)>,
    ) {
        self.rows.push(ReportRow {
            label: label.into(),
            values: values
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        });
    }

    /// Prints the report as an aligned text table.
    pub fn print(&self) {
        println!();
        println!(
            "=== {} — reproduces {} (scale: {}) ===",
            self.experiment, self.reproduces, self.scale
        );
        let Some(first) = self.rows.first() else {
            println!("(no rows)");
            return;
        };
        let header = first.values.iter().map(|(k, _)| k.as_str());
        let mut lines: Vec<Vec<&str>> = vec![std::iter::once("").chain(header).collect()];
        for row in &self.rows {
            let values = row.values.iter().map(|(_, v)| v.as_str());
            lines.push(std::iter::once(row.label.as_str()).chain(values).collect());
        }
        let mut widths = vec![0; lines[0].len()];
        for cells in &lines {
            for (width, cell) in widths.iter_mut().zip(cells) {
                *width = (*width).max(cell.len());
            }
        }
        for (i, cells) in lines.iter().enumerate() {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            println!("| {} |", padded.join(" | "));
            if i == 0 {
                let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
                println!("|{}|", rule.join("|"));
            }
        }
        println!();
    }

    /// Saves the report as JSON under `target/experiments/<experiment>.json`.
    /// Failures to write are reported on stderr but do not abort the
    /// experiment.
    pub fn save(&self) {
        let path = format!("target/experiments/{}.json", self.experiment);
        let json = serde_json::to_string_pretty(self).expect("a report of strings serialises");
        match fs::create_dir_all("target/experiments").and_then(|()| fs::write(&path, json)) {
            Ok(()) => eprintln!("[report] saved {path}"),
            Err(e) => eprintln!("[report] could not write {path}: {e}"),
        }
    }
}

/// Formats an error value the way the paper's tables do.
pub fn fmt_error(value: f64) -> String {
    format!("{value:.4}")
}

/// Formats a relative reduction percentage.
pub fn fmt_reduction(baseline: f64, improved: f64) -> String {
    if baseline <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:.2}%", (baseline - improved) / baseline * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_aig::{opt, Aig};
    use deepgate_dataset::{labelled_circuit_from_aig, labelled_circuit_from_netlist};
    use deepgate_sim::SimError;

    /// The oracle: the dataset generator the experiments ran before they
    /// prepared their circuits through the engine, kept as it was (its
    /// configuration fixed to the experiments' seed 42 and 85/15 split, its
    /// `par_iter` a plain iterator — the fan-out never changed a result).
    fn generate_oracle(
        settings: &ExperimentSettings,
        transform_to_aig: bool,
        suites: &[SuiteKind],
    ) -> Result<Dataset, SimError> {
        let (seed, train_fraction) = (42u64, 0.85);
        let mut all: Vec<(SuiteKind, CircuitGraph)> = Vec::new();
        let mut suite_stats = Vec::new();
        for &suite in suites {
            let designs: Vec<_> = (0..settings.designs_per_suite)
                .map(|index| suite.generate_design(index, seed, settings.size_scale))
                .collect();
            let graphs: Result<Vec<CircuitGraph>, SimError> = designs
                .iter()
                .enumerate()
                .map(|(index, netlist)| {
                    let label_seed = seed ^ ((index as u64 + 1) << 20);
                    if transform_to_aig {
                        let aig = Aig::from_netlist(netlist)
                            .map_err(|e| SimError::InvalidCircuit(e.to_string()))?;
                        let aig = opt::optimize(&aig, 2);
                        labelled_circuit_from_aig(&aig, settings.num_patterns, label_seed)
                    } else {
                        labelled_circuit_from_netlist(
                            netlist,
                            FeatureEncoding::AllGates,
                            settings.num_patterns,
                            label_seed,
                        )
                    }
                })
                .collect();
            let graphs = graphs?;
            let stats = CircuitStats {
                count: graphs.len(),
                nodes: [
                    graphs.iter().map(|g| g.num_nodes).min().unwrap_or(0),
                    graphs.iter().map(|g| g.num_nodes).max().unwrap_or(0),
                ],
                levels: [
                    graphs.iter().map(|g| g.max_level).min().unwrap_or(0),
                    graphs.iter().map(|g| g.max_level).max().unwrap_or(0),
                ],
            };
            suite_stats.push((suite, stats));
            all.extend(graphs.into_iter().map(|g| (suite, g)));
        }

        // Deterministic shuffled train/test split.
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0xD5));
        all.shuffle(&mut rng);
        let train_count = ((all.len() as f64) * train_fraction).round() as usize;
        let train_count = train_count.min(all.len());
        let mut train = Vec::with_capacity(train_count);
        let mut test = Vec::with_capacity(all.len() - train_count);
        for (i, (_, graph)) in all.into_iter().enumerate() {
            if i < train_count {
                train.push(graph);
            } else {
                test.push(graph);
            }
        }
        Ok(Dataset {
            train,
            test,
            suite_stats,
        })
    }

    /// What the oracle compares of a circuit graph: its name, size, edges,
    /// skip edges and labels bit for bit.
    fn fingerprint(circuit: &CircuitGraph) -> impl PartialEq + std::fmt::Debug + '_ {
        let labels = circuit
            .labels
            .as_ref()
            .map(|labels| labels.iter().map(|p| p.to_bits()).collect::<Vec<_>>());
        (
            &circuit.name,
            circuit.num_nodes,
            &circuit.edges,
            &circuit.skip_edges,
            labels,
        )
    }

    #[test]
    fn engine_prepared_dataset_equals_the_old_generator() {
        let settings = ExperimentSettings {
            designs_per_suite: 4,
            size_scale: 0.1,
            num_patterns: 512,
            ..ExperimentSettings::QUICK
        };
        let suites = [SuiteKind::Epfl, SuiteKind::Iwls];
        for transform_to_aig in [true, false] {
            let dataset = build_dataset(&settings, transform_to_aig, &suites);
            let oracle = generate_oracle(&settings, transform_to_aig, &suites).unwrap();
            assert_eq!((dataset.train.len(), dataset.test.len()), (7, 1));
            for (got, want) in [
                (&dataset.train, &oracle.train),
                (&dataset.test, &oracle.test),
            ] {
                let got: Vec<_> = got.iter().map(fingerprint).collect();
                let want: Vec<_> = want.iter().map(fingerprint).collect();
                assert_eq!(got, want, "transform_to_aig = {transform_to_aig}");
            }
            assert_eq!(dataset.suite_stats, oracle.suite_stats);
        }
    }

    #[test]
    fn settings_scale_with_mode() {
        let quick = ExperimentSettings::QUICK;
        let full = ExperimentSettings::FULL;
        assert!(full.designs_per_suite > quick.designs_per_suite);
        assert!(full.num_patterns > quick.num_patterns);
        assert_eq!(full.num_iterations, 10);
        assert_eq!((quick.scale, full.scale), ("quick", "full"));
    }

    #[test]
    fn report_formatting() {
        let mut report = Report::new("test", "Table X", "quick");
        report.push_row("ModelA", [("Error", fmt_error(0.12345))]);
        assert_eq!(report.rows[0].values[0].0, "Error");
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].values[0].1, "0.1235");
        report.print();
    }

    /// The report format, pinned: the saved JSON of a fixed two-row report.
    const PINNED: &str = r#"{
  "experiment": "table9",
  "reproduces": "Table IX",
  "rows": [
    {
      "label": "ModelA",
      "values": [
        [
          "Error",
          "0.1235"
        ],
        [
          "Nodes",
          "12"
        ]
      ]
    },
    {
      "label": "ModelB",
      "values": [
        [
          "Error",
          "0.5000"
        ],
        [
          "Nodes",
          "7"
        ]
      ]
    }
  ],
  "scale": "quick"
}"#;

    #[test]
    fn report_json_is_pinned() {
        let mut report = Report::new("table9", "Table IX", "quick");
        report.push_row(
            "ModelA",
            [("Error", fmt_error(0.12345)), ("Nodes", "12".to_string())],
        );
        report.push_row(
            "ModelB",
            [("Error", fmt_error(0.5)), ("Nodes", "7".to_string())],
        );
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert_eq!(json, PINNED);
    }

    #[test]
    fn reduction_formatting() {
        assert_eq!(fmt_reduction(0.04, 0.01), "75.00%");
        assert_eq!(fmt_reduction(0.0, 0.01), "n/a");
    }
}
