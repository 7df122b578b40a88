use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense, row-major 2-D tensor of `f32` values.
///
/// All shapes in the DeepGate models are two-dimensional (`[nodes, features]`
/// or `[features_in, features_out]`), so the tensor type is deliberately
/// restricted to two dimensions; vectors are represented as `[n, 1]` or
/// `[1, n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

serde::fields!(Serialize, Deserialize for Tensor { rows, cols, data });

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a `[n, 1]` column tensor from a slice.
    pub fn column(values: &[f32]) -> Self {
        Tensor {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Samples a tensor with entries drawn from a normal distribution with
    /// the given standard deviation (Box-Muller, seeded).
    pub fn randn(rows: usize, cols: usize, std: f32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            data.push(mag * (2.0 * std::f32::consts::PI * u2).cos() * std);
            if data.len() < rows * cols {
                data.push(mag * (2.0 * std::f32::consts::PI * u2).sin() * std);
            }
        }
        Tensor { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialisation for a `[fan_in, fan_out]` weight
    /// matrix.
    pub fn xavier_uniform(fan_in: usize, fan_out: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let data = (0..fan_in * fan_out)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Tensor {
            rows: fan_in,
            cols: fan_out,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shape as `[rows, cols]`.
    pub fn shape(&self) -> [usize; 2] {
        [self.rows, self.cols]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix multiplication `self @ other`: every output element sums its
    /// products in ascending `k`, skipping zero entries of `self` — the
    /// crate's one product kernel, also behind the fused ops' backwards.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        add_products(&mut out.data, other.cols, &[(&self.data, &other.data)]);
        out
    }

    /// The transpose of the tensor.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise map.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Element-wise combination of two equally-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "element-wise op shape mismatch"
        );
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// The row-major data, moved out.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Fills the tensor with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tensor [{} x {}]", self.rows, self.cols)
    }
}

/// The crate's one dense product kernel, behind [`Tensor::matmul`] and the
/// fused ops' backwards: `out += Σ_i a_i @ v_i` for `out` `[rows, n]`, terms
/// `a_i` `[rows, k_i]` and `v_i` `[k_i, n]`, all row-major. Output row `r`
/// adds `a_i[r][j] · v_i[j]` term after term, `j` ascending, skipping zero
/// `a_i[r][j]`. Rows go two at a time, sharing each `v` row while it is
/// loaded, and columns in register blocks of 64, 16 and 8, so a block's
/// partial sums stay in registers across the whole walk; a last partial
/// block overlaps the one before it and writes only its new columns. None of
/// that blocking reorders a sum.
pub(crate) fn add_products(out: &mut [f32], n: usize, terms: &[(&[f32], &[f32])]) {
    products::<false>(out, n, terms);
}

/// [`add_products`] with every `a_i` read transposed in place: `out +=
/// Σ_i a_iᵀ @ v_i` for `a_i` `[k_i, rows]` — a weight gradient `inputᵀ
/// dout` straight from the input rows, without a transposed copy. Output
/// element `(r, c)` adds `a_i[j][r] · v_i[j][c]`, `j` ascending, skipping
/// zero `a_i[j][r]`: the chain [`add_products`] runs over an explicit
/// transpose, bit for bit. A one-column `out` (a score layer) walks `j`
/// outermost instead, one axpy of `a_i` row `j` per step, vectorised across
/// `r` with the zero-skip as a select; each element's chain is unchanged.
pub(crate) fn add_transposed_products(out: &mut [f32], n: usize, terms: &[(&[f32], &[f32])]) {
    if n != 1 {
        return products::<true>(out, n, terms);
    }
    let rows = out.len();
    if rows == 0 {
        return;
    }
    for &(a, v) in terms {
        for (arow, &g) in a.chunks_exact(rows).zip(v) {
            for (o, &x) in out.iter_mut().zip(arow) {
                *o = if x != 0.0 { *o + x * g } else { *o };
            }
        }
    }
}

/// Row sums into `out` (`[n]`): `out[c] += rows[r][c]`, `r` ascending — a
/// bias gradient, the chain [`add_products`] runs for a row of ones.
pub(crate) fn add_row_sums(out: &mut [f32], rows: &[f32]) {
    if out.is_empty() {
        return;
    }
    for row in rows.chunks_exact(out.len()) {
        for (o, &g) in out.iter_mut().zip(row) {
            *o += g;
        }
    }
}

/// The walk behind [`add_products`] (`T = false`) and
/// [`add_transposed_products`] (`T = true`).
fn products<const T: bool>(out: &mut [f32], n: usize, terms: &[(&[f32], &[f32])]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in (0..rows - rows % 2).step_by(2) {
        product_rows::<2, T>(out, n, r, terms);
    }
    if rows % 2 == 1 {
        product_rows::<1, T>(out, n, rows - 1, terms);
    }
}

fn product_rows<const R: usize, const T: bool>(
    out: &mut [f32],
    n: usize,
    r: usize,
    terms: &[(&[f32], &[f32])],
) {
    if n < 8 {
        for c in 0..n {
            product_block::<R, 1, T>(out, n, r, c, 0, terms);
        }
        return;
    }
    let mut c = 0;
    while c + 64 <= n {
        product_block::<R, 64, T>(out, n, r, c, 0, terms);
        c += 64;
    }
    while c + 16 <= n {
        product_block::<R, 16, T>(out, n, r, c, 0, terms);
        c += 16;
    }
    while c + 8 <= n {
        product_block::<R, 8, T>(out, n, r, c, 0, terms);
        c += 8;
    }
    if c < n {
        product_block::<R, 8, T>(out, n, r, n - 8, 8 - (n - c), terms);
    }
}

/// Rows `r..r + R`, columns `c..c + W` of [`products`], written back from
/// column `c + skip` on. `a` is read as `[rows, k]` or, with `T`, as
/// `[k, rows]`.
#[inline(always)]
fn product_block<const R: usize, const W: usize, const T: bool>(
    out: &mut [f32],
    n: usize,
    r: usize,
    c: usize,
    skip: usize,
    terms: &[(&[f32], &[f32])],
) {
    let rows = out.len() / n;
    let mut acc = [[0.0f32; W]; R];
    for (i, bank) in acc.iter_mut().enumerate() {
        bank.copy_from_slice(&out[(r + i) * n + c..][..W]);
    }
    for &(a, v) in terms {
        let k = v.len() / n;
        for j in 0..k {
            let vj = &v[j * n + c..][..W];
            for (i, bank) in acc.iter_mut().enumerate() {
                let s = if T {
                    a[j * rows + r + i]
                } else {
                    a[(r + i) * k + j]
                };
                if s != 0.0 {
                    for l in 0..W {
                        bank[l] += s * vj[l];
                    }
                }
            }
        }
    }
    for (i, bank) in acc.iter().enumerate() {
        out[(r + i) * n + c + skip..][..W - skip].copy_from_slice(&bank[skip..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), [2, 2]);
        assert_eq!(t.get(1, 0), 3.0);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        let mut t = t;
        t.set(0, 1, 9.0);
        assert_eq!(t.get(0, 1), 9.0);
        t.row_mut(1)[0] = 7.0;
        assert_eq!(t.row(1), &[7.0, 4.0]);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(Tensor::column(&[1.0, 2.0]).shape(), [2, 1]);
        assert!(t.to_string().contains("2 x 2"));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let eye = Tensor::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Every register block and row pairing of [`add_products`] against the
    /// plain k-outer loop it replaced, bit for bit: widths below, at and
    /// between the 8/16/64 blocks (the last block overlapping its
    /// predecessor), odd and even row counts, two terms of different inner
    /// widths, a non-zero starting `out`, and zero entries under an
    /// `INFINITY`, which a dropped or shared zero-skip turns into NaN.
    #[test]
    fn add_products_equals_the_plain_k_outer_loop_bit_for_bit() {
        fn plain(out: &mut [f32], n: usize, terms: &[(&[f32], &[f32])]) {
            for (a, v) in terms {
                let k = v.len() / n;
                for (r, row) in out.chunks_exact_mut(n).enumerate() {
                    for j in 0..k {
                        let s = a[r * k + j];
                        if s == 0.0 {
                            continue;
                        }
                        for (o, &b) in row.iter_mut().zip(&v[j * n..(j + 1) * n]) {
                            *o += s * b;
                        }
                    }
                }
            }
        }
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for n in [1, 3, 8, 12, 16, 24, 64, 75, 150] {
            for rows in [1, 2, 3, 5] {
                let mut a1 = Tensor::randn(rows, 7, 1.0, n as u64);
                let a2 = Tensor::randn(rows, 4, 1.0, 2 * n as u64);
                let mut v1 = Tensor::randn(7, n, 1.0, 3 * n as u64);
                let v2 = Tensor::randn(4, n, 1.0, 4 * n as u64);
                // Even rows skip the first INFINITY, odd rows the second, so
                // each row of a pair keeps its own zero-skip.
                for r in 0..rows {
                    a1.set(r, if r % 2 == 0 { 2 } else { 5 }, 0.0);
                }
                v1.set(2, n - 1, f32::INFINITY);
                v1.set(5, 0, f32::INFINITY);
                let terms = [
                    (a1.as_slice(), v1.as_slice()),
                    (a2.as_slice(), v2.as_slice()),
                ];
                let start = Tensor::randn(rows, n, 1.0, 5 * n as u64);
                let (mut got, mut want) = (start.clone(), start);
                add_products(got.as_mut_slice(), n, &terms);
                plain(want.as_mut_slice(), n, &terms);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "n = {n}, {rows} rows"
                );
                assert!(got.as_slice().iter().all(|v| !v.is_nan()));
            }
        }
    }

    /// The in-place weight-gradient products against [`add_products`] on
    /// an explicit transpose, bit for bit: one-column (score layer, the
    /// axpy walk), 8-, 64- and 67-column gradients, odd and even input row
    /// counts, two terms, a non-zero starting `out`, and an exact-zero input
    /// under an `INFINITY` gradient, whose zero-skip must hold (`0 · inf` is
    /// NaN). The bias row sums against a row of ones the same way.
    #[test]
    fn transposed_products_equal_add_products_on_an_explicit_transpose_bit_for_bit() {
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for n in [1, 8, 64, 67] {
            for rows in [1, 2, 3, 5, 7] {
                for width in [1, 3, 64, 67] {
                    let seed = (n * 1000 + rows * 10 + width) as u64;
                    let mut x1 = Tensor::randn(rows, width, 1.0, seed);
                    let x2 = Tensor::randn(rows, width, 1.0, seed + 1);
                    let mut g1 = Tensor::randn(rows, n, 1.0, seed + 2);
                    let g2 = Tensor::randn(rows, n, 1.0, seed + 3);
                    // Input row 0 is zero in column `width - 1` under an
                    // infinite gradient row; the other rows must keep it.
                    x1.set(0, width - 1, 0.0);
                    g1.set(0, n - 1, f32::INFINITY);
                    if rows > 2 {
                        x1.set(2, 0, 0.0);
                    }
                    let start = Tensor::randn(width, n, 1.0, seed + 4);
                    let (mut got, mut want) = (start.clone(), start);
                    add_transposed_products(
                        got.as_mut_slice(),
                        n,
                        &[
                            (x1.as_slice(), g1.as_slice()),
                            (x2.as_slice(), g2.as_slice()),
                        ],
                    );
                    let (x1t, x2t) = (x1.transpose(), x2.transpose());
                    add_products(
                        want.as_mut_slice(),
                        n,
                        &[
                            (x1t.as_slice(), g1.as_slice()),
                            (x2t.as_slice(), g2.as_slice()),
                        ],
                    );
                    let what = format!("n = {n}, {rows} rows, width {width}");
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{what}");
                    assert!(got.as_slice().iter().all(|v| !v.is_nan()), "{what}");

                    let bias = Tensor::randn(1, n, 1.0, seed + 5);
                    let (mut got, mut want) = (bias.clone(), bias);
                    add_row_sums(got.as_mut_slice(), g2.as_slice());
                    let ones = vec![1.0f32; rows];
                    add_products(want.as_mut_slice(), n, &[(&ones, g2.as_slice())]);
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "bias: {what}");
                }
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, 10.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[7.0, 12.0]);
        assert_eq!(a.map(|v| v * v).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.norm() - (30.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(Tensor::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn random_initialisers_are_seeded() {
        let a = Tensor::randn(4, 4, 1.0, 7);
        let b = Tensor::randn(4, 4, 1.0, 7);
        assert_eq!(a, b);
        let c = Tensor::xavier_uniform(16, 16, 3);
        let d = Tensor::xavier_uniform(16, 16, 4);
        assert_ne!(c, d);
        let bound = (6.0f32 / 32.0).sqrt();
        assert!(c.as_slice().iter().all(|v| v.abs() <= bound + 1e-6));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }
}
