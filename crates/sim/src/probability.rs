//! Signal-probability estimation — the supervision labels of DeepGate.

use crate::{PatternSource, SimError};
use deepgate_netlist::Dag;
use std::num::NonZeroUsize;
use std::sync::OnceLock;
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
#[derive(Debug, Clone, PartialEq)]
pub struct SignalProbability {
    values: Vec<f64>,
    num_patterns: u64,
    exact: bool,
}

/// The core count, read once per process: asking the system costs ~24 µs
/// on a 2-vCPU Linux guest, as much as labelling a small circuit with 64
/// patterns.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Row `r` of the exhaustive enumeration: bit `b` of source `k`'s word is bit
/// `k` of pattern `64 r + b`. Sources 0–5 are the same mask in every row;
/// source `k ≥ 6` is all ones or all zeros, by bit `k − 6` of `r`.
fn exhaustive_row(r: usize, row: &mut [u64]) {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    for (k, word) in row.iter_mut().enumerate() {
        *word = match LOW.get(k) {
            Some(&mask) => mask,
            None => ((r >> (k - 6)) as u64 & 1).wrapping_neg(),
        };
    }
}

/// One counting thread's buffers, all allocated before any thread starts:
/// its count of ones per node, one evaluated row and one source row.
struct Lane {
    ones: Vec<u64>,
    values: Vec<u64>,
    row: Vec<u64>,
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
        let sources = dag.num_sources();
        // Each thread opens the one stream at its first row, so every row
        // holds the words a single sequential source gives it.
        Self::count(dag, num_patterns.div_ceil(64), |first| {
            let mut patterns = PatternSource::new(sources, seed);
            patterns.skip_rows(first);
            move |_, row: &mut [u64]| patterns.fill_row(row)
        })
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
        // Under 64 patterns (n < 6) the one row repeats all 2^n of them
        // 64 / 2^n times, which leaves every count over 64 the same
        // fraction, bit for bit.
        let probs = Self::count(dag, (1usize << n).div_ceil(64), |_| exhaustive_row)?;
        Ok(SignalProbability {
            num_patterns: 1 << n,
            exact: true,
            ..probs
        })
    }

    /// The pass behind [`SignalProbability::simulate`] and
    /// [`SignalProbability::exact`]: validates the circuit, then counts each
    /// node's ones over `rows` rows of source words and divides by the
    /// patterns they hold. The rows are cut into one contiguous range per
    /// core, each counted on its own scoped thread into the [`Lane`]
    /// allocated for it up front. `open(first)` returns the maker that writes
    /// row `r` of a range starting at `first`, on the thread that evaluates
    /// it. So the pass allocates nothing per row, and its peak depends on
    /// neither the row count nor thread timing. Counts are integers, so the
    /// split never moves a bit.
    fn count<R: FnMut(usize, &mut [u64])>(
        dag: &impl Dag,
        rows: usize,
        open: impl Fn(usize) -> R + Sync,
    ) -> Result<Self, SimError> {
        dag.validate().map_err(SimError::invalid)?;
        let chunk = rows.div_ceil(cores()).max(1);
        let mut lanes: Vec<Lane> = (0..rows.div_ceil(chunk))
            .map(|_| Lane {
                ones: vec![0; dag.num_nodes()],
                values: vec![0; dag.num_nodes()],
                row: vec![0; dag.num_sources()],
            })
            .collect();
        let count_range = |first: usize, lane: &mut Lane| {
            let mut next_row = open(first);
            for r in first..rows.min(first + chunk) {
                next_row(r, &mut lane.row);
                dag.eval_words(&lane.row, &mut lane.values);
                for (count, word) in lane.ones.iter_mut().zip(&lane.values) {
                    *count += u64::from(word.count_ones());
                }
            }
        };
        if let Some((lane, helpers)) = lanes.split_first_mut() {
            // The scope joins the helpers, and re-raises a helper's panic.
            thread::scope(|scope| {
                for (t, lane) in helpers.iter_mut().enumerate() {
                    scope.spawn(move || count_range((t + 1) * chunk, lane));
                }
                count_range(0, lane);
            });
        }
        let mut lanes = lanes.into_iter().map(|lane| lane.ones);
        let mut ones = lanes.next().unwrap_or_default();
        for counts in lanes {
            for (total, count) in ones.iter_mut().zip(counts) {
                *total += count;
            }
        }
        let total = rows * 64;
        Ok(SignalProbability {
            values: ones.into_iter().map(|c| c as f64 / total as f64).collect(),
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

    /// The row-table fold the streaming pass replaced, kept as its oracle:
    /// every row built up front, one fresh node vector evaluated per row,
    /// the counts folded on one thread.
    fn row_table_fold(dag: &impl Dag, rows: &[Vec<u64>]) -> Vec<u64> {
        let mut ones = vec![0u64; dag.num_nodes()];
        for row in rows {
            let values = crate::simulate_words(dag, row).unwrap();
            for (count, word) in ones.iter_mut().zip(values) {
                *count += u64::from(word.count_ones());
            }
        }
        let total = (rows.len() * 64) as f64;
        ones.iter().map(|&c| (c as f64 / total).to_bits()).collect()
    }

    /// `count` rows of one sequential stream, drawn straight from the
    /// generator: the rows `simulate` must count, however it splits them.
    fn random_rows(sources: usize, seed: u64, count: usize) -> Vec<Vec<u64>> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut row = || (0..sources).map(|_| rng.gen()).collect();
        (0..count).map(|_| row()).collect()
    }

    /// The old exhaustive row table: bit `b` of source `k` in row `r` is bit
    /// `k` of pattern `64 r + b`.
    fn exhaustive_rows(sources: usize) -> Vec<Vec<u64>> {
        let word = |row: usize, k: usize| {
            (0..64)
                .filter(|b| ((64 * row + b) >> k) & 1 == 1)
                .fold(0u64, |word, b| word | 1 << b)
        };
        let rows = (1usize << sources).div_ceil(64);
        (0..rows)
            .map(|row| (0..sources).map(|k| word(row, k)).collect())
            .collect()
    }

    /// `sources` inputs, two constants and `gates` gates of every kind but
    /// `Input`, fan-ins picked by a fixed LCG; and the same circuit as an
    /// AIG.
    fn random_circuit(sources: usize, gates: usize) -> (deepgate_netlist::Netlist, Aig) {
        use deepgate_netlist::{GateKind, Netlist};
        let mut netlist = Netlist::new("stream");
        let mut nodes = vec![netlist.add_const(false), netlist.add_const(true)];
        nodes.extend((0..sources).map(|i| netlist.add_input(format!("x{i}"))));
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ sources as u64;
        let mut pick = |len: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % len
        };
        let kinds = &GateKind::ALL[3..];
        for g in 0..gates {
            let kind = kinds[g % kinds.len()];
            let arity = match kind {
                GateKind::Buf | GateKind::Not => 1,
                GateKind::Mux => 3,
                _ => 2 + g % 2,
            };
            let fanins: Vec<_> = (0..arity).map(|_| nodes[pick(nodes.len())]).collect();
            nodes.push(netlist.add_gate(kind, &fanins).unwrap());
        }
        netlist.mark_output(*nodes.last().unwrap(), "y");
        let aig = Aig::from_netlist(&netlist).unwrap();
        (netlist, aig)
    }

    fn bits(probs: &SignalProbability) -> Vec<u64> {
        probs.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn streamed_random_rows_equal_the_row_table_fold() {
        // 37 rows do not split evenly between cores.
        let (netlist, aig) = random_circuit(9, 60);
        for patterns in [64usize, 128, 192, 2_368, 15_000] {
            let rows = random_rows(9, 17, patterns.div_ceil(64));
            let probs = SignalProbability::simulate(&netlist, patterns, 17).unwrap();
            assert_eq!(
                bits(&probs),
                row_table_fold(&netlist, &rows),
                "netlist, {patterns}"
            );
            assert_eq!(probs.num_patterns(), rows.len() as u64 * 64);
            let probs = SignalProbability::simulate(&aig, patterns, 17).unwrap();
            assert_eq!(bits(&probs), row_table_fold(&aig, &rows), "aig, {patterns}");
        }
    }

    #[test]
    fn streamed_exhaustive_rows_equal_the_row_table_fold() {
        for sources in (0..=8).chain([12]) {
            let (netlist, aig) = random_circuit(sources, 40);
            let rows = exhaustive_rows(sources);
            let probs = SignalProbability::exact(&netlist).unwrap();
            assert_eq!(
                bits(&probs),
                row_table_fold(&netlist, &rows),
                "netlist, {sources}"
            );
            assert_eq!(probs.num_patterns(), 1 << sources);
            let probs = SignalProbability::exact(&aig).unwrap();
            assert_eq!(bits(&probs), row_table_fold(&aig, &rows), "aig, {sources}");
        }
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
