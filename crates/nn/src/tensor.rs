use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major 2-D tensor of `f32` values.
///
/// All shapes in the DeepGate models are two-dimensional (`[nodes, features]`
/// or `[features_in, features_out]`), so the tensor type is deliberately
/// restricted to two dimensions; vectors are represented as `[n, 1]` or
/// `[1, n]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

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

    /// Matrix multiplication `self @ other`.
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
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let row_out = &mut out.data[i * other.cols..(i + 1) * other.cols];
                let row_b = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in row_out.iter_mut().zip(row_b) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self.transpose() @ other` without building the transpose. Every
    /// output element sums its products in the same (ascending-row) order as
    /// the two-step form, so the results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}^T @ {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        for i in 0..self.rows {
            let row_b = &other.data[i * other.cols..(i + 1) * other.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let row_out = &mut out.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in row_out.iter_mut().zip(row_b) {
                    *o += a * b;
                }
            }
        }
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

    #[test]
    fn matmul_tn_is_bit_identical_to_transpose_then_matmul() {
        let mut a = Tensor::randn(5, 7, 1.0, 11);
        a.set(2, 3, 0.0);
        let b = Tensor::randn(5, 6, 1.0, 12);
        let fused = a.matmul_tn(&b);
        let two_step = a.transpose().matmul(&b);
        assert_eq!(fused.shape(), [7, 6]);
        for (x, y) in fused.as_slice().iter().zip(two_step.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
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
