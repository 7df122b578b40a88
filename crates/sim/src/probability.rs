//! Signal-probability estimation — the supervision labels of DeepGate.

use crate::{PatternSource, SimError};
use deepgate_netlist::Dag;
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::thread;

/// Maximum number of sources supported by exhaustive enumeration.
const MAX_EXACT_INPUTS: usize = 20;

/// Per-node signal probabilities of a circuit: the probability of each node
/// evaluating to logic `1` under uniformly random sources ([`Dag`]: the
/// primary inputs, then an AIG's latch states). A latch state is free
/// whatever its reset value, like the pseudo-input `Aig::to_netlist` makes
/// of it, so an AIG and its expansion agree on the nodes they share.
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
    /// Estimates the signal probabilities of a circuit — an AIG, its
    /// PI/AND/NOT expansion or an original-gate netlist (Table IV) — by
    /// simulating `num_patterns` random patterns (rounded up to a multiple of
    /// 64) from a [`PatternSource`] seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoPatterns`] if `num_patterns` is zero and
    /// [`SimError::InvalidCircuit`] if the circuit fails validation.
    pub fn simulate(dag: &impl Dag, num_patterns: usize, seed: u64) -> Result<Self, SimError> {
        if num_patterns == 0 {
            return Err(SimError::NoPatterns);
        }
        let rows = PatternSource::new(dag.num_sources(), seed).word_rows(num_patterns.div_ceil(64));
        Self::count(dag, &rows)
    }

    /// Computes the exact signal probabilities of a circuit by enumerating
    /// all `2^n` combinations of its `n` sources.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyInputsForExact`] if the circuit has more
    /// than 20 sources and [`SimError::InvalidCircuit`] if it fails
    /// validation.
    pub fn exact(dag: &impl Dag) -> Result<Self, SimError> {
        let n = dag.num_sources();
        if n > MAX_EXACT_INPUTS {
            return Err(SimError::TooManyInputsForExact {
                inputs: n,
                max: MAX_EXACT_INPUTS,
            });
        }
        // Bit `b` of row `r` is pattern `64 r + b`, which drives source `k`
        // with bit `k` of its index. Under 64 patterns (n < 6) the one row
        // repeats all 2^n of them 64 / 2^n times, which leaves every count
        // over 64 the same fraction, bit for bit.
        let rows: Vec<Vec<u64>> = (0..(1usize << n).div_ceil(64))
            .map(|row| {
                (0..n)
                    .map(|k| {
                        (0..64)
                            .filter(|b| ((64 * row + b) >> k) & 1 == 1)
                            .fold(0u64, |word, b| word | 1 << b)
                    })
                    .collect()
            })
            .collect();
        let probs = Self::count(dag, &rows)?;
        Ok(SignalProbability {
            num_patterns: 1 << n,
            exact: true,
            ..probs
        })
    }

    /// The pass behind [`SignalProbability::simulate`] and
    /// [`SignalProbability::exact`]: validates the circuit, then counts each
    /// node's ones over the source word `rows` and divides by the patterns
    /// they hold. The rows are cut into one contiguous chunk per core; each
    /// scoped thread folds its chunk into its own count vector, so the pass
    /// holds one vector per thread, not one per row. Counts are integers, so
    /// the split never moves a bit.
    fn count(dag: &impl Dag, rows: &[Vec<u64>]) -> Result<Self, SimError> {
        dag.validate().map_err(SimError::invalid)?;
        let count_chunk = |chunk: &[Vec<u64>]| {
            let mut ones = vec![0u64; dag.num_nodes()];
            for row in chunk {
                for (count, word) in ones.iter_mut().zip(dag.eval_words(row)) {
                    *count += u64::from(word.count_ones());
                }
            }
            ones
        };
        let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut chunks = rows.chunks(rows.len().div_ceil(threads).max(1));
        let first = chunks.next().unwrap_or_default();
        let ones = thread::scope(|scope| {
            let helpers: Vec<_> = chunks
                .map(|chunk| scope.spawn(move || count_chunk(chunk)))
                .collect();
            let mut ones = count_chunk(first);
            for helper in helpers {
                let counts = helper.join().unwrap_or_else(|panic| resume_unwind(panic));
                for (total, count) in ones.iter_mut().zip(counts) {
                    *total += count;
                }
            }
            ones
        });
        let total = rows.len() * 64;
        Ok(SignalProbability {
            values: ones.iter().map(|&c| c as f64 / total as f64).collect(),
            num_patterns: total as u64,
            exact: false,
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
    use deepgate_aig::{Aig, AigLit};

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
        let np = SignalProbability::simulate(&n, 8192, 11).unwrap();
        let ap = SignalProbability::simulate(&aig, 8192, 11).unwrap();
        // P(xor) = 0.5, and both forms see the same input words.
        assert!((np.of(x.index()) - 0.5).abs() < 0.03);
        let (lit, _) = aig.outputs()[0];
        let p = ap.of(lit.node());
        let p = if lit.is_complemented() { 1.0 - p } else { p };
        assert_eq!(p, np.of(x.index()));
        let exact = SignalProbability::exact(&n).unwrap();
        assert_eq!(exact.of(x.index()), 0.5);
        assert_eq!(exact.num_patterns(), 4);
    }

    #[test]
    fn latch_states_are_free_sources() {
        // A latch reset to 1 still reads as a free source, like an input.
        let mut aig = Aig::new("seq");
        let a = aig.add_input("a");
        let q = aig.add_latch("q");
        aig.set_latch_init(0, Some(true));
        let y = aig.and(a, q);
        aig.set_latch_next(0, y);
        aig.add_output(y, "y");
        let exact = SignalProbability::exact(&aig).unwrap();
        assert_eq!(exact.of(q.node()), 0.5);
        assert_eq!(exact.of(y.node()), 0.25);
        let mc = SignalProbability::simulate(&aig, 4096, 2).unwrap();
        assert!((mc.of(q.node()) - 0.5).abs() < 0.05);
    }

    #[test]
    fn counts_split_across_threads_equal_one_sequential_fold() {
        // 37 rows do not split evenly between cores.
        let (aig, _, _) = two_level_aig();
        let rows = PatternSource::new(aig.num_sources(), 9).word_rows(37);
        let mut ones = vec![0u64; aig.num_nodes()];
        for row in &rows {
            for (count, word) in ones.iter_mut().zip(aig.eval_words(row)) {
                *count += u64::from(word.count_ones());
            }
        }
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let expected: Vec<f64> = ones.iter().map(|&c| c as f64 / (37.0 * 64.0)).collect();
        let probs = SignalProbability::count(&aig, &rows).unwrap();
        assert_eq!(bits(probs.values()), bits(&expected));
    }

    #[test]
    fn inputs_have_probability_half() {
        let (aig, _, _) = two_level_aig();
        let probs = SignalProbability::simulate(&aig, 32_768, 5).unwrap();
        for i in aig.inputs() {
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
