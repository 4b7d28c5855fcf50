//! LU factorisation with partial pivoting, generic over the scalar.
//!
//! MNA systems in this workspace are small (tens to a few hundred
//! unknowns), so they are assembled and factored densely. The factors
//! are sparse, though. On the longest RDL link decks, L keeps 621 of its
//! 4,465 strict-lower entries and U 684 of 4,560 with the diagonal
//! (Glass 2.5D at 5,980 µm, n = 95); APX at 8,000 µm (n = 125) keeps
//! 1,026 of 7,750 and 1,109 of 7,875, so 13–15 % overall.
//! [`Matrix::lu`] therefore compresses L and U into per-row lists of
//! their nonzero entries, and [`Lu::solve_into`] walks only those.
//!
//! The result is the dense substitution's, bit for bit. The lists keep
//! the dense loops' ascending column order, so the terms that remain
//! are subtracted in the same order. A skipped term was `acc - 0·x`,
//! which returns `acc` unchanged whenever `acc` is nonzero (and `x` is
//! finite). The only possible difference is the sign of an exact zero:
//! `-0 - (-0)` is `+0` where the skipped term leaves `-0`. On the
//! production decks not even that happens. Pivoting, elimination order
//! and unknown ordering are those of the dense factorisation. The
//! factorisation is reusable: transient analysis factors once and
//! re-solves per step.

use crate::complex::Complex64;
use crate::CircuitError;

/// Scalar types the solver works over.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Magnitude for pivot selection.
    fn magnitude(self) -> f64;
}

impl Scalar for f64 {
    fn zero() -> f64 {
        0.0
    }
    fn one() -> f64 {
        1.0
    }
    fn magnitude(self) -> f64 {
        self.abs()
    }
}

impl Scalar for Complex64 {
    fn zero() -> Complex64 {
        Complex64::ZERO
    }
    fn one() -> Complex64 {
        Complex64::ONE
    }
    fn magnitude(self) -> f64 {
        self.abs()
    }
}

/// A dense row-major matrix.
#[derive(Debug, Clone)]
pub struct Matrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Matrix<T> {
        Matrix {
            n,
            data: vec![T::zero(); n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.n + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.n + c] = v;
    }

    /// Adds `v` to element `(r, c)` — the MNA stamp primitive.
    pub fn add(&mut self, r: usize, c: usize, v: T) {
        let i = r * self.n + c;
        self.data[i] = self.data[i] + v;
    }

    /// Factors the matrix in place (Doolittle LU with partial pivoting).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] if a pivot underflows.
    pub fn lu(mut self) -> Result<Lu<T>, CircuitError> {
        if techlib::faults::armed("circuit.lu") {
            // Injected fault: report the factorisation as singular at the
            // first pivot, the same error a genuinely degenerate system
            // would produce.
            return Err(CircuitError::SingularMatrix { pivot: 0 });
        }
        techlib::obs::add(techlib::obs::CIRCUIT_LU_FACTOR, 1);
        let n = self.n;
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot.
            let mut p = k;
            let mut best = self.get(k, k).magnitude();
            for r in (k + 1)..n {
                let m = self.get(r, k).magnitude();
                if m > best {
                    best = m;
                    p = r;
                }
            }
            if best < 1e-300 {
                return Err(CircuitError::SingularMatrix { pivot: k });
            }
            if p != k {
                for c in 0..n {
                    let a = self.get(k, c);
                    let b = self.get(p, c);
                    self.set(k, c, b);
                    self.set(p, c, a);
                }
                perm.swap(k, p);
            }
            let pivot = self.get(k, k);
            for r in (k + 1)..n {
                let factor = self.get(r, k) / pivot;
                self.set(r, k, factor);
                for c in (k + 1)..n {
                    let v = self.get(r, c) - factor * self.get(k, c);
                    self.set(r, c, v);
                }
            }
        }
        let mut lower = SparseRows::new(n);
        let mut upper = SparseRows::new(n);
        let mut diag = Vec::with_capacity(n);
        for r in 0..n {
            lower.push_row((0..r).map(|c| (c, self.get(r, c))));
            upper.push_row(((r + 1)..n).map(|c| (c, self.get(r, c))));
            diag.push(self.get(r, r));
        }
        Ok(Lu {
            perm,
            lower,
            upper,
            diag,
        })
    }
}

/// Row-compressed strict triangle of a factor: row `r`'s entries that
/// are not exactly zero, as `(column, value)` in ascending column order.
#[derive(Debug, Clone)]
struct SparseRows<T> {
    /// Row `r` is `entries[start[r]..start[r + 1]]`.
    start: Vec<usize>,
    entries: Vec<(usize, T)>,
}

impl<T: Scalar> SparseRows<T> {
    fn new(n: usize) -> SparseRows<T> {
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        SparseRows {
            start,
            entries: Vec::new(),
        }
    }

    fn push_row(&mut self, row: impl Iterator<Item = (usize, T)>) {
        self.entries.extend(row.filter(|&(_, v)| v != T::zero()));
        self.start.push(self.entries.len());
    }

    fn row(&self, r: usize) -> &[(usize, T)] {
        &self.entries[self.start[r]..self.start[r + 1]]
    }
}

/// A reusable LU factorisation: the row permutation, the nonzero
/// entries of the unit-lower factor L and of the strict upper factor U,
/// and U's diagonal.
#[derive(Debug, Clone)]
pub struct Lu<T> {
    perm: Vec<usize>,
    lower: SparseRows<T>,
    upper: SparseRows<T>,
    diag: Vec<T>,
}

impl<T: Scalar> Lu<T> {
    /// Solves `A x = b`. Counts one `circuit.lu_solve`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        techlib::obs::add(techlib::obs::CIRCUIT_LU_SOLVE, 1);
        let mut x = vec![T::zero(); self.diag.len()];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into a caller-provided buffer — the allocation-
    /// free form the transient stepper uses once per time step. Not
    /// counted: a caller that solves many times counts its solves once.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not match the matrix
    /// dimension.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) {
        let n = self.diag.len();
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "solution length mismatch");
        // Apply permutation.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // Forward substitution (L has unit diagonal).
        for r in 1..n {
            let mut acc = x[r];
            for &(c, v) in self.lower.row(r) {
                acc = acc - v * x[c];
            }
            x[r] = acc;
        }
        // Back substitution.
        for r in (0..n).rev() {
            let mut acc = x[r];
            for &(c, v) in self.upper.row(r) {
                acc = acc - v * x[c];
            }
            x[r] = acc / self.diag[r];
        }
    }
}

/// Convenience: solve `A x = b` in one call.
///
/// # Errors
///
/// Returns [`CircuitError::SingularMatrix`] if `a` is singular.
pub fn solve<T: Scalar>(a: Matrix<T>, b: &[T]) -> Result<Vec<T>, CircuitError> {
    Ok(a.lu()?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_2x2_real() {
        let mut a = Matrix::<f64>::zeros(2);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 3.0);
        let x = solve(a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = Matrix::<f64>::zeros(2);
        a.set(0, 0, 0.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 0.0);
        let x = solve(a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = Matrix::<f64>::zeros(2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        assert!(matches!(
            solve(a, &[1.0, 2.0]),
            Err(CircuitError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn solves_complex_system() {
        // (1+i) x = 2i  =>  x = 2i/(1+i) = 1+i
        let mut a = Matrix::<Complex64>::zeros(1);
        a.set(0, 0, Complex64::new(1.0, 1.0));
        let x = solve(a, &[Complex64::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex64::new(1.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn factorisation_is_reusable() {
        let mut a = Matrix::<f64>::zeros(2);
        a.set(0, 0, 4.0);
        a.set(1, 1, 2.0);
        let lu = a.lu().unwrap();
        let x1 = lu.solve(&[4.0, 2.0]);
        let x2 = lu.solve(&[8.0, 6.0]);
        assert_eq!(x1, vec![1.0, 1.0]);
        assert_eq!(x2, vec![2.0, 3.0]);
    }

    #[test]
    fn factors_keep_only_nonzero_entries_in_column_order() {
        // A tridiagonal system factors without fill: L and U keep one
        // off-diagonal entry per row, and a decoupled row keeps none.
        let n = 5;
        let mut a = Matrix::<f64>::zeros(n);
        for r in 0..n - 1 {
            a.set(r, r, 4.0);
            if r + 1 < n - 1 {
                a.set(r, r + 1, -1.0);
                a.set(r + 1, r, -1.0);
            }
        }
        a.set(n - 1, n - 1, 2.0);
        let lu = a.lu().unwrap();
        for r in 0..n - 1 {
            let expect_lower: Vec<usize> = (r.saturating_sub(1)..r).collect();
            let expect_upper: Vec<usize> = ((r + 1)..(r + 2).min(n - 1)).collect();
            let lower: Vec<usize> = lu.lower.row(r).iter().map(|e| e.0).collect();
            let upper: Vec<usize> = lu.upper.row(r).iter().map(|e| e.0).collect();
            assert_eq!(lower, expect_lower, "row {r}");
            assert_eq!(upper, expect_upper, "row {r}");
        }
        assert!(lu.lower.row(n - 1).is_empty() && lu.upper.row(n - 1).is_empty());
        let x = lu.solve(&[3.0, 2.0, 2.0, 3.0, 4.0]);
        for (xi, want) in x.iter().zip([1.0, 1.0, 1.0, 1.0, 2.0]) {
            assert!((xi - want).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn random_5x5_round_trip() {
        // A·x recovered by solve must equal the original x.
        let n = 5;
        let mut a = Matrix::<f64>::zeros(n);
        let mut seed = 1u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for r in 0..n {
            for c in 0..n {
                a.set(r, c, next() + if r == c { 3.0 } else { 0.0 });
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let mut b = vec![0.0; n];
        for (r, bi) in b.iter_mut().enumerate() {
            for (c, &xc) in x_true.iter().enumerate() {
                *bi += a.get(r, c) * xc;
            }
        }
        let x = solve(a, &b).unwrap();
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9);
        }
    }
}
