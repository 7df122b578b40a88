//! Reproduces Table I: the statistics of the circuit training dataset
//! (#sub-circuits, node range and level range per benchmark suite).

use deepgate_bench::{build_dataset, ExperimentSettings, Report, Scale};
use deepgate_dataset::SuiteKind;

fn main() {
    let scale = Scale::from_args();
    let settings = ExperimentSettings::for_scale(scale);
    let dataset = build_dataset(&settings, true);

    let mut report = Report::new("table1", "Table I (dataset statistics)", scale);
    let mut total = 0usize;
    let mut global_min_nodes = usize::MAX;
    let mut global_max_nodes = 0usize;
    let mut global_min_level = usize::MAX;
    let mut global_max_level = 0usize;
    for stats in &dataset.suite_stats {
        total += stats.num_subcircuits;
        global_min_nodes = global_min_nodes.min(stats.min_nodes);
        global_max_nodes = global_max_nodes.max(stats.max_nodes);
        global_min_level = global_min_level.min(stats.min_level);
        global_max_level = global_max_level.max(stats.max_level);
        report.push_row(
            stats.suite.label(),
            vec![
                (
                    "#Subcircuits".to_string(),
                    stats.num_subcircuits.to_string(),
                ),
                (
                    "#Node".to_string(),
                    format!("[{}-{}]", stats.min_nodes, stats.max_nodes),
                ),
                (
                    "#Level".to_string(),
                    format!("[{}-{}]", stats.min_level, stats.max_level),
                ),
                (
                    "Paper #Subcircuits".to_string(),
                    stats.suite.paper_subcircuit_count().to_string(),
                ),
            ],
        );
    }
    report.push_row(
        "Total",
        vec![
            ("#Subcircuits".to_string(), total.to_string()),
            (
                "#Node".to_string(),
                format!("[{global_min_nodes}-{global_max_nodes}]"),
            ),
            (
                "#Level".to_string(),
                format!("[{global_min_level}-{global_max_level}]"),
            ),
            (
                "Paper #Subcircuits".to_string(),
                SuiteKind::ALL
                    .iter()
                    .map(|s| s.paper_subcircuit_count())
                    .sum::<usize>()
                    .to_string(),
            ),
        ],
    );
    report.print();
    report.save();
}
