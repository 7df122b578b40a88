//! Shared infrastructure for the experiment binaries that regenerate the
//! tables and figures of the DeepGate paper.
//!
//! Every binary runs at paper scale with `--full`, its one scale switch;
//! without it, the quick scale finishes on a laptop CPU in minutes and
//! preserves the qualitative shape of the results (model ordering, relative
//! improvements) rather than absolute values.
//!
//! Binaries:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — dataset statistics |
//! | `table2` | Table II — model / aggregator comparison |
//! | `table3` | Table III — generalisation to five large designs |
//! | `table4` | Table IV — effect of the AIG transformation |
//! | `fig_iterations` | Section IV-D2 — error vs recurrence iterations |
//! | `ablation` | extra ablation of DeepGate's design choices |
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use deepgate_core::{Trainer, TrainerConfig};
use deepgate_dataset::{Dataset, DatasetConfig, SuiteKind};
use deepgate_gnn::ProbabilityModel;
use deepgate_nn::ParamStore;
use serde::Serialize;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// The scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced-scale configuration that completes in minutes on a CPU.
    Quick,
    /// Paper-scale configuration (hours of CPU time).
    Full,
}

impl Scale {
    /// [`Scale::Full`] when `--full` is on the command line, else
    /// [`Scale::Quick`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// A short label for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Experiment-wide hyper-parameters derived from the scale.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSettings {
    /// Scale the settings were derived from.
    pub scale: Scale,
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
    /// Settings for a scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => ExperimentSettings {
                scale,
                designs_per_suite: 16,
                size_scale: 0.2,
                num_patterns: 4_096,
                epochs: 20,
                learning_rate: 3e-3,
                hidden_dim: 32,
                num_iterations: 6,
                large_design_scale: 0.15,
            },
            Scale::Full => ExperimentSettings {
                scale,
                designs_per_suite: 64,
                size_scale: 1.0,
                num_patterns: 100_000,
                epochs: 60,
                learning_rate: 1e-4,
                hidden_dim: 64,
                num_iterations: 10,
                large_design_scale: 1.0,
            },
        }
    }

    /// The dataset configuration used by the training experiments.
    pub fn dataset_config(&self, transform_to_aig: bool, suites: Vec<SuiteKind>) -> DatasetConfig {
        DatasetConfig {
            suites,
            designs_per_suite: self.designs_per_suite,
            num_patterns: self.num_patterns,
            transform_to_aig,
            optimize: true,
            train_fraction: 0.85,
            size_scale: self.size_scale,
            seed: 42,
        }
    }

    /// The trainer configuration used by the training experiments.
    pub fn trainer_config(&self) -> TrainerConfig {
        TrainerConfig {
            epochs: self.epochs,
            learning_rate: self.learning_rate,
            grad_clip: 5.0,
            shuffle_seed: 7,
            eval_every: 0,
        }
    }
}

/// Generates the shared training dataset for an experiment, printing timing
/// information.
///
/// # Panics
///
/// Panics if dataset generation fails (invalid settings).
pub fn build_dataset(settings: &ExperimentSettings, transform_to_aig: bool) -> Dataset {
    build_dataset_for_suites(settings, transform_to_aig, SuiteKind::ALL.to_vec())
}

/// Generates a dataset restricted to specific suites.
///
/// # Panics
///
/// Panics if dataset generation fails (invalid settings).
pub fn build_dataset_for_suites(
    settings: &ExperimentSettings,
    transform_to_aig: bool,
    suites: Vec<SuiteKind>,
) -> Dataset {
    let start = Instant::now();
    let config = settings.dataset_config(transform_to_aig, suites);
    let dataset = Dataset::generate(&config).expect("dataset generation");
    eprintln!(
        "[dataset] {} circuits ({} train / {} test), transform={}, {:.1}s",
        dataset.len(),
        dataset.train.len(),
        dataset.test.len(),
        transform_to_aig,
        start.elapsed().as_secs_f64()
    );
    dataset
}

/// Trains a model on a dataset and returns the average prediction error on
/// the test split.
///
/// # Panics
///
/// Panics if training fails (the experiment datasets are always labelled,
/// so a failure here is a harness bug, not user input).
pub fn train_and_evaluate<M: ProbabilityModel + ?Sized>(
    model: &M,
    store: &mut ParamStore,
    dataset: &Dataset,
    settings: &ExperimentSettings,
) -> f64 {
    let start = Instant::now();
    let mut trainer = Trainer::new(settings.trainer_config());
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

/// One row of an experiment report.
#[derive(Debug, Clone, Serialize)]
pub struct ReportRow {
    /// Row label (model name, design name, …).
    pub label: String,
    /// Named values of the row.
    pub values: Vec<(String, String)>,
}

/// A full experiment report: a table plus metadata, printed to stdout and
/// saved as JSON under `target/experiments/`.
#[derive(Debug, Clone, Serialize)]
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

impl Report {
    /// Creates an empty report.
    pub fn new(experiment: &str, reproduces: &str, scale: Scale) -> Self {
        Report {
            experiment: experiment.to_string(),
            reproduces: reproduces.to_string(),
            scale: scale.label().to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<(String, String)>) {
        self.rows.push(ReportRow {
            label: label.into(),
            values,
        });
    }

    /// Prints the report as an aligned text table.
    pub fn print(&self) {
        println!();
        println!(
            "=== {} — reproduces {} (scale: {}) ===",
            self.experiment, self.reproduces, self.scale
        );
        if self.rows.is_empty() {
            println!("(no rows)");
            return;
        }
        let headers: Vec<String> = std::iter::once("".to_string())
            .chain(self.rows[0].values.iter().map(|(k, _)| k.clone()))
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            widths[0] = widths[0].max(row.label.len());
            for (i, (_, v)) in row.values.iter().enumerate() {
                widths[i + 1] = widths[i + 1].max(v.len());
            }
        }
        let print_line = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            println!("| {} |", line.join(" | "));
        };
        print_line(&headers);
        println!(
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let cells: Vec<String> = std::iter::once(row.label.clone())
                .chain(row.values.iter().map(|(_, v)| v.clone()))
                .collect();
            print_line(&cells);
        }
        println!();
    }

    /// Saves the report as JSON under `target/experiments/<experiment>.json`.
    /// Failures to write are reported on stderr but do not abort the
    /// experiment.
    pub fn save(&self) {
        let dir = PathBuf::from("target/experiments");
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("[report] could not create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.json", self.experiment));
        match serde_json::to_string_pretty(self) {
            Ok(json) => {
                if let Err(e) = fs::write(&path, json) {
                    eprintln!("[report] could not write {}: {e}", path.display());
                } else {
                    eprintln!("[report] saved {}", path.display());
                }
            }
            Err(e) => eprintln!("[report] serialisation failed: {e}"),
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

    #[test]
    fn settings_scale_with_mode() {
        let quick = ExperimentSettings::for_scale(Scale::Quick);
        let full = ExperimentSettings::for_scale(Scale::Full);
        assert!(full.designs_per_suite > quick.designs_per_suite);
        assert!(full.num_patterns > quick.num_patterns);
        assert_eq!(full.num_iterations, 10);
        assert_eq!(Scale::Quick.label(), "quick");
    }

    #[test]
    fn report_formatting() {
        let mut report = Report::new("test", "Table X", Scale::Quick);
        report.push_row("ModelA", vec![("Error".to_string(), fmt_error(0.12345))]);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].values[0].1, "0.1235");
        report.print();
    }

    #[test]
    fn reduction_formatting() {
        assert_eq!(fmt_reduction(0.04, 0.01), "75.00%");
        assert_eq!(fmt_reduction(0.0, 0.01), "n/a");
    }
}
