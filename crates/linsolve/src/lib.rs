//! Linear-system solving for the Markov frequency models.
//!
//! The PLDI 1994 estimators translate a control-flow graph (or call graph)
//! into a system of `n` linear equations in `n` unknowns — one per basic
//! block or function — and solve it with "ordinary methods for linear
//! systems" (§5.1). This crate provides that substrate two ways:
//!
//! - the default sparse, SCC-aware solver ([`sparse`], used by
//!   [`FlowSystem::solve`]): CSR adjacency, Tarjan condensation, and
//!   per-component solves, so the acyclic bulk of a CFG costs
//!   `O(V + E)` instead of `O(n³)`;
//! - the original dense path ([`Matrix`] Gaussian elimination with
//!   partial pivoting plus a globally damped power-iteration fallback,
//!   [`FlowSystem::solve_dense`]), kept as the reference baseline for
//!   the property tests.
//!
//! The damped fallback handles systems no direct method can (e.g.
//! graphs containing loops that can never exit, which make `I - A`
//! singular).
//!
//! # Examples
//!
//! Solving the `strchr` system from Figure 7 of the paper:
//!
//! ```
//! use linsolve::Matrix;
//!
//! // Unknowns: entry, while, if, return1, incr, return2.
//! let a = Matrix::from_rows(&[
//!     vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
//!     vec![-1.0, 1.0, 0.0, 0.0, -1.0, 0.0],
//!     vec![0.0, -0.8, 1.0, 0.0, 0.0, 0.0],
//!     vec![0.0, 0.0, -0.2, 1.0, 0.0, 0.0],
//!     vec![0.0, 0.0, -0.8, 0.0, 1.0, 0.0],
//!     vec![0.0, -0.2, 0.0, 0.0, 0.0, 1.0],
//! ]);
//! let x = a.solve(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
//! assert!((x[1] - 2.7777).abs() < 1e-3); // the paper's "test count of 2.78"
//! ```

#![warn(missing_docs)]

mod matrix;
mod solve;
pub mod sparse;

pub use matrix::Matrix;
pub use solve::{solve_flow, FlowSolveError, FlowSystem, SolveError};
pub use sparse::{solve_sparse, tarjan_scc, Components, Csr, Successors};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let m = Matrix::identity(3);
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn strchr_figure7() {
        // Figure 7(b) of the paper: the matrix for strchr with branch
        // probabilities 0.8/0.2, solved to entry=1, while=2.78, if=2.22,
        // return1=0.44, incr=1.78, return2=0.56.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![-1.0, 1.0, 0.0, 0.0, -1.0, 0.0],
            vec![0.0, -0.8, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, -0.2, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, -0.8, 0.0, 1.0, 0.0],
            vec![0.0, -0.2, 0.0, 0.0, 0.0, 1.0],
        ]);
        let x = a.solve(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let expected = [1.0, 2.7778, 2.2222, 0.4444, 1.7778, 0.5556];
        for (got, want) in x.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }
}
