use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded source of random simulation patterns.
///
/// Each call to [`PatternSource::fill_row`] writes one row: one `u64` per
/// primary input, i.e. 64 independent uniformly-random input patterns packed
/// bit-parallel. The stream is fully determined by the seed, which keeps the
/// dataset labelling pipeline reproducible.
#[derive(Debug, Clone)]
pub struct PatternSource {
    rng: SmallRng,
    num_inputs: usize,
}

impl PatternSource {
    /// Creates a pattern source for a circuit with `num_inputs` primary
    /// inputs, seeded with `seed`.
    pub fn new(num_inputs: usize, seed: u64) -> Self {
        PatternSource {
            rng: SmallRng::seed_from_u64(seed),
            num_inputs,
        }
    }

    /// Number of primary inputs each row covers.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Writes the next row of pattern words into `row`: one `u64` (64
    /// patterns) per primary input.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not hold [`PatternSource::num_inputs`] words.
    pub fn fill_row(&mut self, row: &mut [u64]) {
        assert_eq!(row.len(), self.num_inputs, "one word per input");
        for word in row {
            *word = self.rng.gen();
        }
    }

    /// Draws and discards the words of the next `rows` rows, so the next
    /// [`PatternSource::fill_row`] writes the row that many calls later: how
    /// a labelling thread opens the stream at its first row.
    pub(crate) fn skip_rows(&mut self, rows: usize) {
        for _ in 0..rows * self.num_inputs {
            self.rng.gen::<u64>();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next `count` rows of `source`.
    fn rows(source: &mut PatternSource, count: usize) -> Vec<Vec<u64>> {
        let mut row = vec![0; source.num_inputs()];
        (0..count)
            .map(|_| {
                source.fill_row(&mut row);
                row.clone()
            })
            .collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = PatternSource::new(5, 42);
        let mut b = PatternSource::new(5, 42);
        assert_eq!(rows(&mut a, 10), rows(&mut b, 10));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = PatternSource::new(5, 1);
        let mut b = PatternSource::new(5, 2);
        assert_ne!(rows(&mut a, 4), rows(&mut b, 4));
    }

    #[test]
    fn skipped_rows_are_the_rows_a_full_stream_makes() {
        let all = rows(&mut PatternSource::new(3, 7), 9);
        for first in 0..9 {
            let mut source = PatternSource::new(3, 7);
            source.skip_rows(first);
            assert_eq!(
                rows(&mut source, 9 - first),
                all[first..],
                "from row {first}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one word per input")]
    fn row_shape() {
        let mut source = PatternSource::new(7, 3);
        assert_eq!(source.num_inputs(), 7);
        source.fill_row(&mut [0; 6]);
    }

    #[test]
    fn bits_are_roughly_balanced() {
        // Sanity check that the generator is not obviously biased.
        let mut source = PatternSource::new(1, 9);
        let ones: u32 = rows(&mut source, 256)
            .iter()
            .map(|row| row[0].count_ones())
            .sum();
        let total = 256 * 64;
        let ratio = ones as f64 / total as f64;
        assert!((0.45..0.55).contains(&ratio), "ratio {ratio}");
    }
}
