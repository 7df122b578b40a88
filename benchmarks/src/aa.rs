//! `--aa <n>`: the noise gate. Per workload, 2n runs of this same binary,
//! alternately assigned to side A and side B, compared the way a parent
//! and a change would be. Same code on both sides, so every gap is noise;
//! a gap beyond a metric's bound means the bound (or the metric) is wrong.
//! `--all` shares the subprocess plumbing.

use crate::report::{Better, END_TO_END, WORKLOADS};
use crate::{checks, stats, Options};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// One finished child run: its metrics and verdict.
struct RunResult {
    metrics: BTreeMap<String, f64>,
    correct: bool,
    failed: u64,
}

/// Runs this binary once more with the given arguments; its report goes to
/// our stderr (so stdout stays a clean table), its last line is parsed.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} seed {seed} printed nothing ({})", output.status))?;
    let parsed: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload} seed {seed}: last line: {e}"))?;
    let root = parsed.as_object().ok_or("last line is not an object")?;
    let mut metrics = BTreeMap::new();
    if let Some(map) = root.get("metrics").and_then(Value::as_object) {
        for (name, entry) in map {
            let value = entry
                .as_object()
                .and_then(|e| e.get("value"))
                .and_then(checks::number);
            if let Some(value) = value {
                metrics.insert(name.clone(), value);
            }
        }
    }
    Ok(RunResult {
        metrics,
        correct: matches!(root.get("correct"), Some(Value::Bool(true))),
        failed: match root.get("failed") {
            Some(Value::UInt(u)) => *u,
            _ => 0,
        },
    })
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's bad
/// direction (negative when `b` is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The A/A session. Exits non-zero when any gap exceeds its bound or any
/// run was incorrect.
pub fn run(pairs: usize, only: Option<&str>, seconds: u64) -> ExitCode {
    let mut violations = Vec::new();
    println!(
        "A/A noise gate: {pairs} alternating pairs per workload, {seconds} s per run, same binary on both sides"
    );
    println!(
        "{:<13} {:<20} {:>12} {:>12} {:>23} {:>23} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "q1–q3 A", "q1–q3 B", "gap", "bound"
    );
    for workload in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let (mut a, mut b): (Vec<RunResult>, Vec<RunResult>) = (Vec::new(), Vec::new());
        for run in 0..2 * pairs {
            // Pairs alternate which side goes first: A B, B A, A B, …
            let pair = run / 2;
            let first_is_a = pair % 2 == 0;
            let is_a = (run % 2 == 0) == first_is_a;
            let seed = 100 + run as u64;
            match run_child(workload.name, seed, seconds, false, false) {
                Ok(result) => {
                    if !result.correct || result.failed > 0 {
                        violations.push(format!(
                            "{} seed {seed}: incorrect run ({} failed operations)",
                            workload.name, result.failed
                        ));
                    }
                    if is_a { &mut a } else { &mut b }.push(result);
                }
                Err(message) => violations.push(message),
            }
        }
        for metric in &END_TO_END {
            let side = |runs: &[RunResult]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (side(&a), side(&b));
            if va.is_empty() || vb.is_empty() {
                violations.push(format!("{}/{}: no values", workload.name, metric.name));
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
            // Same code on both sides: whichever direction the gap points,
            // it is noise, so gate on its size.
            let gap = worsening(metric.better, ma, mb).abs();
            let verdict = if gap > metric.bound { "  OVER" } else { "" };
            println!(
                "{:<13} {:<20} {:>12.4} {:>12.4} {:>11.4}–{:<11.4} {:>11.4}–{:<11.4} {:>7.2}% {:>5.0}%{verdict}",
                workload.name,
                metric.name,
                ma,
                mb,
                qa.0,
                qa.1,
                qb.0,
                qb.1,
                gap * 100.0,
                metric.bound * 100.0
            );
            if gap > metric.bound {
                violations.push(format!(
                    "{}/{}: A/A gap {:.1} % exceeds the bound {:.0} %",
                    workload.name,
                    metric.name,
                    gap * 100.0,
                    metric.bound * 100.0
                ));
            }
        }
    }
    if violations.is_empty() {
        println!("A/A: every gap within its bound");
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            println!("A/A violation: {violation}");
        }
        ExitCode::from(1)
    }
}

/// `--all`: every workload once, each in a fresh process (set-up time and
/// peak memory are per process), reports echoed in order.
pub fn run_all(options: &Options) -> ExitCode {
    let mut ok = true;
    for workload in &WORKLOADS {
        let result = if options.write_golden {
            run_golden_child(workload.name, options.seconds)
        } else {
            run_child(
                workload.name,
                options.seed,
                options.seconds,
                options.trace,
                true,
            )
            .map(|r| r.correct)
        };
        match result {
            Ok(correct) => ok &= correct,
            Err(message) => {
                eprintln!("{message}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_golden_child(workload: &str, seconds: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload, "--write-golden"])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    Ok(status.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }
}
