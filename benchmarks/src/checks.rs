//! Output checks shared by the workloads: digests against
//! `data/golden.json`, and the kernel-versus-training-path comparison.

use deepgate::gnn::{CircuitGraph, ProbabilityModel};
use deepgate::nn::Graph;
use deepgate::{Engine, InferenceSession};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The committed digests (written by `--write-golden`).
const GOLDEN: &str = include_str!("../data/golden.json");

/// Where `--write-golden` writes.
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/golden.json")
}

/// The seed whose seed-dependent outputs (the `serve_unique` stream, the
/// training losses) are pinned in the golden file.
pub const GOLDEN_SEED: u64 = 1;

/// Absolute tolerance on probabilities and their sum per node.
const PROB_TOLERANCE: f64 = 1e-5;

/// Relative tolerance on training losses.
const LOSS_TOLERANCE: f64 = 1e-4;

/// A compact fingerprint of one probability vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// Vector length (graph nodes).
    pub nodes: usize,
    /// Sum of all probabilities.
    pub sum: f64,
    /// Sixteen values at evenly spaced indices.
    pub samples: Vec<f64>,
}

impl Digest {
    /// Digests a probability vector.
    pub fn of(probs: &[f32]) -> Digest {
        let n = probs.len();
        let samples = (0..16)
            .map(|i| {
                if n == 0 {
                    0.0
                } else {
                    probs[i * (n - 1) / 15] as f64
                }
            })
            .collect();
        Digest {
            nodes: n,
            sum: probs.iter().map(|&p| p as f64).sum(),
            samples,
        }
    }

    fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("nodes".to_string(), Value::UInt(self.nodes as u64));
        map.insert("sum".to_string(), Value::Float(self.sum));
        map.insert(
            "samples".to_string(),
            Value::Array(self.samples.iter().map(|&s| Value::Float(s)).collect()),
        );
        Value::Object(map)
    }

    fn from_value(value: &Value) -> Option<Digest> {
        let map = value.as_object()?;
        Some(Digest {
            nodes: number(map.get("nodes")?)? as usize,
            sum: number(map.get("sum")?)?,
            samples: map
                .get("samples")?
                .as_array()?
                .iter()
                .map(number)
                .collect::<Option<Vec<f64>>>()?,
        })
    }

    /// Whether `other` is this digest within the tolerances: node count
    /// exact, samples within 1e-5, the sum within 1e-5 per node.
    pub fn matches(&self, other: &Digest) -> bool {
        self.nodes == other.nodes
            && (self.sum - other.sum).abs() <= PROB_TOLERANCE * self.nodes.max(1) as f64
            && self.samples.len() == other.samples.len()
            && self
                .samples
                .iter()
                .zip(&other.samples)
                .all(|(a, b)| (a - b).abs() <= PROB_TOLERANCE)
    }
}

/// A JSON number of any flavour as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// What a run produced that the golden file pins, keyed by a label
/// (circuit name, `loss_epoch_1`, …).
#[derive(Debug, Default, Clone)]
pub struct Observed {
    /// Probability-vector digests.
    pub digests: BTreeMap<String, Digest>,
    /// Scalars compared at 1e-4 relative (training losses).
    pub scalars: BTreeMap<String, f64>,
}

impl Observed {
    fn to_value(&self) -> Value {
        let mut map: BTreeMap<String, Value> = self
            .digests
            .iter()
            .map(|(k, d)| (k.clone(), d.to_value()))
            .collect();
        map.extend(
            self.scalars
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v))),
        );
        Value::Object(map)
    }
}

/// Compares a run's observations with the golden section of its workload.
/// Labels the golden file does not pin are skipped (a short run reaches
/// fewer epochs); a pinned label the run did not produce is skipped too.
/// Returns `(compared, mismatching labels)`.
pub fn compare_with_golden(workload: &str, observed: &Observed) -> (usize, Vec<String>) {
    let golden: Value = match serde_json::from_str(GOLDEN) {
        Ok(value) => value,
        Err(e) => return (0, vec![format!("golden.json does not parse: {e}")]),
    };
    let Some(section) = golden
        .as_object()
        .and_then(|root| root.get(workload))
        .and_then(Value::as_object)
    else {
        return (0, vec![format!("golden.json has no `{workload}` section")]);
    };
    let mut compared = 0;
    let mut wrong = Vec::new();
    for (label, digest) in &observed.digests {
        if let Some(expected) = section.get(label).and_then(Digest::from_value) {
            compared += 1;
            if !expected.matches(digest) {
                wrong.push(label.clone());
            }
        }
    }
    for (label, value) in &observed.scalars {
        if let Some(expected) = section.get(label).and_then(number) {
            compared += 1;
            if (value - expected).abs() > LOSS_TOLERANCE * expected.abs() {
                wrong.push(format!("{label} ({value} vs {expected})"));
            }
        }
    }
    (compared, wrong)
}

/// Rewrites the golden file's section for `workload`, keeping the others.
pub fn write_golden(workload: &str, observed: &Observed) -> std::io::Result<()> {
    let path = golden_path();
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|value| value.as_object().cloned())
        .unwrap_or_default();
    root.insert("seed".to_string(), Value::UInt(GOLDEN_SEED));
    root.insert(workload.to_string(), observed.to_value());
    let text = serde_json::to_string_pretty(&Value::Object(root))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, text + "\n")
}

/// Largest absolute difference between the inference kernel and the
/// training path on one circuit. The training path is
/// `ProbabilityModel::try_forward` on a fresh tape with the values read
/// back through `Graph::value` — not `ProbabilityModel::predict`, which the
/// model overrides with the kernel itself.
pub fn kernel_vs_tape(
    engine: &Engine,
    session: &InferenceSession,
    circuit: &CircuitGraph,
) -> Result<f64, String> {
    let kernel = session.predict(circuit).map_err(|e| e.to_string())?;
    let model = engine.model();
    let mut tape = Graph::new();
    let var = model
        .try_forward(&mut tape, model.store(), circuit)
        .map_err(|e| e.to_string())?;
    let taped = tape.value(var).as_slice();
    if taped.len() != kernel.len() {
        return Err(format!(
            "tape gave {} values, kernel {}",
            taped.len(),
            kernel.len()
        ));
    }
    Ok(kernel
        .iter()
        .zip(taped)
        .map(|(a, b)| (*a as f64 - *b as f64).abs())
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_round_trips_and_tolerates_only_small_drift() {
        let probs: Vec<f32> = (0..100).map(|i| i as f32 / 100.0).collect();
        let digest = Digest::of(&probs);
        assert_eq!(digest.nodes, 100);
        assert_eq!(digest.samples.len(), 16);
        assert_eq!(digest.samples[0], 0.0);
        assert_eq!(digest.samples[15], probs[99] as f64);
        let back = Digest::from_value(&digest.to_value()).expect("round trip");
        assert!(digest.matches(&back));

        let mut drifted = probs.clone();
        drifted[0] += 5e-6;
        assert!(digest.matches(&Digest::of(&drifted)));
        drifted[0] += 1e-3;
        assert!(!digest.matches(&Digest::of(&drifted)));
        assert!(!digest.matches(&Digest::of(&probs[..99])));
    }

    #[test]
    fn golden_file_parses_and_names_the_golden_seed() {
        let golden: Value = serde_json::from_str(GOLDEN).expect("golden.json parses");
        let root = golden.as_object().expect("object");
        assert_eq!(root.get("seed").and_then(number), Some(GOLDEN_SEED as f64));
        for workload in crate::report::WORKLOADS {
            assert!(
                root.get(workload.name).and_then(Value::as_object).is_some(),
                "golden.json lacks {}",
                workload.name
            );
        }
    }
}
