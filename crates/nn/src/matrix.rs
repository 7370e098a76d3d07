//! A small row-major matrix for weights and gradients.

use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// Layer weights use the convention `rows = fan_out`, `cols = fan_in`, so
/// row `k` holds the incoming weights of output neuron `k` — the same
/// neuron-major order in which SNNAC streams weights into its PE SRAM
/// banks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows (fan-out for weight matrices).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (fan-in for weight matrices).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Sets an element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `y = selfᵀ · x` (transposed matrix-vector product, used to
    /// back-propagate deltas) into a caller-owned buffer; the buffer is
    /// overwritten, not accumulated into.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn t_matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "t_matvec dimension mismatch");
        assert_eq!(y.len(), self.cols, "t_matvec output mismatch");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            let row = self.row(r);
            for (yc, w) in y.iter_mut().zip(row) {
                *yc += w * xr;
            }
        }
    }

    /// Rank-1 update `self += a·bᵀ` (gradient accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows` or `b.len() != cols`.
    pub fn add_outer(&mut self, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), self.rows, "outer rows mismatch");
        assert_eq!(b.len(), self.cols, "outer cols mismatch");
        for (r, &ar) in a.iter().enumerate() {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, bc) in row.iter_mut().zip(b) {
                *w += ar * bc;
            }
        }
    }

    /// Multiplies every element by `scale`.
    pub fn scale(&mut self, scale: f64) {
        for a in &mut self.data {
            *a *= scale;
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_matvec_is_transpose() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Mᵀ·[1, -1] = [1-4, 2-5, 3-6]; stale output is overwritten.
        let mut y = [9.0; 3];
        m.t_matvec_into(&[1.0, -1.0], &mut y);
        assert_eq!(y, [-3.0, -3.0, -3.0]);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 8.0);
        m.add_outer(&[-1.0, -1.0], &[1.0, 1.0]);
        assert_eq!(m.get(0, 0), 2.0);
    }

    #[test]
    fn scale_and_fill_zero() {
        let mut a = Matrix::from_vec(1, 2, vec![6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "t_matvec dimension mismatch")]
    fn matvec_checks_len() {
        let m = Matrix::zeros(2, 2);
        m.t_matvec_into(&[1.0], &mut [0.0; 2]);
    }
}
