//! Signal-probability estimation — the supervision labels of DeepGate.

use crate::{simulate_aig_words, simulate_netlist_words, PatternSource, SimError};
use deepgate_aig::Aig;
use deepgate_netlist::Netlist;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Maximum number of primary inputs supported by exhaustive enumeration.
const MAX_EXACT_INPUTS: usize = 20;

/// Per-node signal probabilities of a circuit: the probability of each node
/// evaluating to logic `1` under uniformly random primary inputs.
///
/// Probabilities are indexed by node index (AIG node index or
/// [`NodeId::index`](deepgate_netlist::NodeId) for netlists), so
/// `probs.of(i)` aligns with the circuit the labels were computed from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalProbability {
    values: Vec<f64>,
    num_patterns: u64,
    exact: bool,
}

impl SignalProbability {
    /// Estimates signal probabilities of an [`Aig`] by simulating
    /// `num_patterns` random patterns (rounded up to a multiple of 64),
    /// seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoPatterns`] if `num_patterns` is zero and
    /// [`SimError::InvalidCircuit`] if the AIG fails validation.
    pub fn simulate(aig: &Aig, num_patterns: usize, seed: u64) -> Result<Self, SimError> {
        if num_patterns == 0 {
            return Err(SimError::NoPatterns);
        }
        aig.validate()
            .map_err(|e| SimError::InvalidCircuit(e.to_string()))?;
        Ok(Self::monte_carlo(
            aig.num_inputs(),
            aig.len(),
            num_patterns,
            seed,
            |row| simulate_aig_words(aig, row),
        ))
    }

    /// Estimates signal probabilities of a gate-level [`Netlist`] by random
    /// simulation. Used for the "without AIG transformation" experiments
    /// (Table IV), where the model is trained directly on the original gate
    /// types.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoPatterns`] if `num_patterns` is zero and
    /// [`SimError::InvalidCircuit`] if the netlist fails validation.
    pub fn simulate_netlist(
        netlist: &Netlist,
        num_patterns: usize,
        seed: u64,
    ) -> Result<Self, SimError> {
        if num_patterns == 0 {
            return Err(SimError::NoPatterns);
        }
        netlist
            .validate()
            .map_err(|e| SimError::InvalidCircuit(e.to_string()))?;
        Ok(Self::monte_carlo(
            netlist.num_inputs(),
            netlist.len(),
            num_patterns,
            seed,
            |row| simulate_netlist_words(netlist, row),
        ))
    }

    /// The Monte-Carlo estimate of both `simulate*` constructors: one-counts
    /// of `num_nodes` nodes summed over word rows of random input patterns,
    /// each row simulated by `simulate_row` (rows run in parallel).
    fn monte_carlo(
        num_inputs: usize,
        num_nodes: usize,
        num_patterns: usize,
        seed: u64,
        simulate_row: impl Fn(&[u64]) -> Result<Vec<u64>, SimError> + Sync,
    ) -> Self {
        let num_words = num_patterns.div_ceil(64);
        let mut source = PatternSource::new(num_inputs, seed);
        let rows = source.word_rows(num_words);
        let ones: Vec<u64> = rows
            .par_iter()
            .map(|row| {
                let values = simulate_row(row).expect("input count matches");
                values
                    .iter()
                    .map(|w| w.count_ones() as u64)
                    .collect::<Vec<u64>>()
            })
            .reduce(
                || vec![0u64; num_nodes],
                |mut acc, row_counts| {
                    for (a, c) in acc.iter_mut().zip(row_counts) {
                        *a += c;
                    }
                    acc
                },
            );
        let total = (num_words * 64) as f64;
        SignalProbability {
            values: ones.iter().map(|&c| c as f64 / total).collect(),
            num_patterns: (num_words * 64) as u64,
            exact: false,
        }
    }

    /// Computes exact signal probabilities of an [`Aig`] by exhaustively
    /// enumerating all `2^n` input combinations.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyInputsForExact`] if the AIG has more than
    /// 20 primary inputs.
    pub fn exact(aig: &Aig) -> Result<Self, SimError> {
        let n = aig.num_inputs();
        if n > MAX_EXACT_INPUTS {
            return Err(SimError::TooManyInputsForExact {
                inputs: n,
                max: MAX_EXACT_INPUTS,
            });
        }
        aig.validate()
            .map_err(|e| SimError::InvalidCircuit(e.to_string()))?;
        let total_patterns: u64 = 1u64 << n;
        // Enumerate patterns in blocks of 64 by composing the counter bits.
        let num_words = (total_patterns as usize).div_ceil(64);
        let mut ones = vec![0u64; aig.len()];
        let mut counted = 0u64;
        for block in 0..num_words {
            let mut row = vec![0u64; n];
            let remaining = (total_patterns - counted).min(64);
            for bit in 0..remaining {
                let pattern = block as u64 * 64 + bit;
                for (i, word) in row.iter_mut().enumerate() {
                    if (pattern >> i) & 1 == 1 {
                        *word |= 1u64 << bit;
                    }
                }
            }
            let mask: u64 = if remaining == 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
            let values = simulate_aig_words(aig, &row)?;
            for (o, v) in ones.iter_mut().zip(values) {
                *o += (v & mask).count_ones() as u64;
            }
            counted += remaining;
        }
        Ok(SignalProbability {
            values: ones
                .iter()
                .map(|&c| c as f64 / total_patterns as f64)
                .collect(),
            num_patterns: total_patterns,
            exact: true,
        })
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Probability of node `index` being logic `1`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn of(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// All per-node probabilities, indexed by node index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of simulated patterns the estimate is based on.
    pub fn num_patterns(&self) -> u64 {
        self.num_patterns
    }

    /// Whether the probabilities are exact (exhaustive enumeration) rather
    /// than Monte-Carlo estimates.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Mean absolute difference against another probability vector of the
    /// same length — the *average prediction error* metric of the paper
    /// (Eq. 8) when comparing predictions against simulated labels.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn mean_absolute_difference(&self, other: &[f64]) -> f64 {
        assert_eq!(self.values.len(), other.len(), "length mismatch");
        if self.values.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .values
            .iter()
            .zip(other)
            .map(|(a, b)| (a - b).abs())
            .sum();
        sum / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_aig::AigLit;

    fn two_level_aig() -> (Aig, AigLit, AigLit) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let y = aig.or(ab, c);
        aig.add_output(y, "y");
        (aig, ab, y)
    }

    #[test]
    fn exact_probabilities_match_theory() {
        let (aig, ab, y) = two_level_aig();
        let probs = SignalProbability::exact(&aig).unwrap();
        assert!(probs.is_exact());
        assert_eq!(probs.len(), aig.len());
        // P(a·b) = 1/4; P(a·b + c) = 1 - (3/4)(1/2) = 5/8.
        assert!((probs.of(ab.node()) - 0.25).abs() < 1e-9);
        // y is an OR built as ¬(¬ab·¬c): the node probability is that of the
        // inner AND; resolve via the output literal.
        let (lit, _) = aig.outputs()[0];
        let node_p = probs.of(lit.node());
        let p = if lit.is_complemented() {
            1.0 - node_p
        } else {
            node_p
        };
        assert!((p - 0.625).abs() < 1e-9);
        let _ = y;
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let (aig, _, _) = two_level_aig();
        let exact = SignalProbability::exact(&aig).unwrap();
        let mc = SignalProbability::simulate(&aig, 16_384, 3).unwrap();
        assert!(!mc.is_exact());
        assert_eq!(mc.len(), exact.len());
        let err = exact.mean_absolute_difference(mc.values());
        assert!(err < 0.02, "monte carlo error too large: {err}");
    }

    #[test]
    fn netlist_probabilities_match_aig_probabilities() {
        use deepgate_netlist::{GateKind, Netlist};
        let mut n = Netlist::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        n.mark_output(x, "y");
        let aig = Aig::from_netlist(&n).unwrap();
        let np = SignalProbability::simulate_netlist(&n, 8192, 11).unwrap();
        let _ap = SignalProbability::simulate(&aig, 8192, 11).unwrap();
        // P(xor) = 0.5.
        assert!((np.of(x.index()) - 0.5).abs() < 0.03);
    }

    #[test]
    fn inputs_have_probability_half() {
        let (aig, _, _) = two_level_aig();
        let probs = SignalProbability::simulate(&aig, 32_768, 5).unwrap();
        for &i in aig.inputs() {
            assert!((probs.of(i) - 0.5).abs() < 0.02);
        }
        // The constant node is always 0.
        assert_eq!(probs.of(0), 0.0);
    }

    #[test]
    fn pattern_count_rounds_up_to_word() {
        let (aig, _, _) = two_level_aig();
        let probs = SignalProbability::simulate(&aig, 1, 0).unwrap();
        assert_eq!(probs.num_patterns(), 64);
    }

    #[test]
    fn error_cases() {
        let (aig, _, _) = two_level_aig();
        assert!(matches!(
            SignalProbability::simulate(&aig, 0, 0),
            Err(SimError::NoPatterns)
        ));
        let mut big = Aig::new("big");
        for i in 0..30 {
            big.add_input(format!("x{i}"));
        }
        assert!(matches!(
            SignalProbability::exact(&big),
            Err(SimError::TooManyInputsForExact { inputs: 30, .. })
        ));
    }

    #[test]
    fn mean_absolute_difference_zero_on_self() {
        let (aig, _, _) = two_level_aig();
        let probs = SignalProbability::exact(&aig).unwrap();
        assert_eq!(probs.mean_absolute_difference(probs.values()), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mean_absolute_difference_panics_on_length_mismatch() {
        let (aig, _, _) = two_level_aig();
        let probs = SignalProbability::exact(&aig).unwrap();
        let _ = probs.mean_absolute_difference(&[0.0]);
    }
}
