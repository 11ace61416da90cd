//! Flow-system solving on top of the sparse SCC solver (with the dense
//! [`Matrix`] path retained as a reference baseline).
//!
//! Both Markov models in the paper have the same shape: a directed graph
//! whose arcs carry multipliers, plus an *injection* (the entry block gets
//! frequency 1; `main` gets invocation count 1). The frequency of every
//! node satisfies
//!
//! ```text
//! freq(n) = inject(n) + Σ_{arc a: src→n} weight(a) · freq(src)
//! ```
//!
//! i.e. `(I − Wᵀ) x = inject` where `W[s][t]` is the total arc weight from
//! `s` to `t`. [`FlowSystem`] builds and solves that system. The default
//! [`FlowSystem::solve`] exploits the graph's sparsity and SCC structure
//! (see [`crate::sparse`]); [`FlowSystem::solve_dense`] is the original
//! `O(n³)` Gaussian elimination, kept as the oracle the property tests
//! compare against.

use std::error::Error;
use std::fmt;

use crate::sparse;
use crate::Matrix;

/// Error returned by [`Matrix::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No pivot above the numerical tolerance exists in `column`; the
    /// system has no unique solution.
    Singular {
        /// The elimination column at which the zero pivot appeared.
        column: usize,
    },
    /// The matrix is not square, or the right-hand side has the wrong length.
    DimensionMismatch {
        /// Matrix row count.
        rows: usize,
        /// Matrix column count.
        cols: usize,
        /// Right-hand-side length.
        rhs: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular { column } => {
                write!(f, "singular system: no usable pivot in column {column}")
            }
            SolveError::DimensionMismatch { rows, cols, rhs } => write!(
                f,
                "dimension mismatch: {rows}x{cols} matrix with rhs of length {rhs}"
            ),
        }
    }
}

impl Error for SolveError {}

/// Error returned by [`FlowSystem::solve`] and [`solve_flow`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlowSolveError {
    /// The direct solve failed and the damped iteration did not converge.
    DidNotConverge {
        /// Iterations attempted before giving up.
        iterations: usize,
        /// The max-norm step size at the final iteration — how far the
        /// fixed point still was when the budget ran out. Useful for
        /// diagnosing pathological systems (e.g. the Figure 8
        /// recursion): a residual just above tolerance means "almost
        /// settled", a huge one means genuine divergence.
        residual: f64,
    },
    /// An arc or injection referenced a node index out of range.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the system.
        len: usize,
    },
}

impl fmt::Display for FlowSolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowSolveError::DidNotConverge {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "flow iteration did not converge after {iterations} rounds \
                     (final residual {residual:.3e})"
                )
            }
            FlowSolveError::NodeOutOfRange { node, len } => {
                write!(f, "arc references node {node} but system has {len} nodes")
            }
        }
    }
}

impl Error for FlowSolveError {}

/// A weighted flow graph together with an injection vector.
///
/// # Examples
///
/// A two-block loop whose back edge has probability 0.8 executes the body
/// five times per entry:
///
/// ```
/// use linsolve::FlowSystem;
///
/// let mut sys = FlowSystem::new(2);
/// sys.inject(0, 1.0);
/// sys.add_arc(0, 1, 1.0); // entry -> header
/// sys.add_arc(1, 1, 0.8); // header -> header (back edge)
/// let freq = sys.solve().unwrap();
/// assert!((freq[1] - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowSystem {
    n: usize,
    arcs: Vec<(usize, usize, f64)>,
    inject: Vec<f64>,
    /// First out-of-range node passed to [`FlowSystem::inject`];
    /// reported by [`FlowSystem::solve`] like a malformed arc.
    bad_inject: Option<usize>,
}

impl FlowSystem {
    /// Creates a system with `n` nodes, no arcs, and zero injection.
    pub fn new(n: usize) -> Self {
        FlowSystem {
            n,
            arcs: Vec::new(),
            inject: vec![0.0; n],
            bad_inject: None,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the system has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `amount` of external flow into `node` (e.g. 1.0 for the entry).
    ///
    /// An out-of-range `node` is recorded and reported as
    /// [`FlowSolveError::NodeOutOfRange`] by [`FlowSystem::solve`],
    /// matching how [`FlowSystem::add_arc`] treats bad indices.
    ///
    /// ```
    /// use linsolve::{FlowSolveError, FlowSystem};
    ///
    /// let mut sys = FlowSystem::new(2);
    /// sys.inject(7, 1.0); // out of range: deferred, not a panic
    /// assert!(matches!(
    ///     sys.solve(),
    ///     Err(FlowSolveError::NodeOutOfRange { node: 7, len: 2 })
    /// ));
    /// ```
    pub fn inject(&mut self, node: usize, amount: f64) {
        if node >= self.n {
            self.bad_inject.get_or_insert(node);
            return;
        }
        self.inject[node] += amount;
    }

    /// Adds an arc carrying `weight` times the source's frequency into `dst`.
    /// Parallel arcs accumulate.
    pub fn add_arc(&mut self, src: usize, dst: usize, weight: f64) {
        self.arcs.push((src, dst, weight));
    }

    /// Iterates over the (src, dst, accumulated weight) arcs.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.arcs.iter().copied()
    }

    /// Checks indices recorded by [`FlowSystem::inject`].
    fn validate(&self) -> Result<(), FlowSolveError> {
        match self.bad_inject {
            Some(node) => Err(FlowSolveError::NodeOutOfRange { node, len: self.n }),
            None => Ok(()),
        }
    }

    /// Builds the dense `(I − Wᵀ)` matrix of the system.
    fn system_matrix(&self) -> Result<Matrix, FlowSolveError> {
        let mut m = Matrix::identity(self.n);
        for &(src, dst, w) in &self.arcs {
            if src >= self.n || dst >= self.n {
                return Err(FlowSolveError::NodeOutOfRange {
                    node: src.max(dst),
                    len: self.n,
                });
            }
            m[(dst, src)] -= w;
        }
        Ok(m)
    }

    /// Solves for the frequency of every node.
    ///
    /// The graph is condensed into strongly connected components and
    /// solved component-by-component in topological order: acyclic
    /// regions cost `O(V + E)`, and each cyclic component gets a small
    /// local direct solve, with a damped fixed-point iteration (the
    /// truncation of the infinite execution) only when that component
    /// is singular — e.g. a loop that can never exit. See
    /// [`crate::sparse`] for the full architecture.
    ///
    /// # Errors
    ///
    /// Returns [`FlowSolveError::NodeOutOfRange`] for malformed arcs or
    /// injections and [`FlowSolveError::DidNotConverge`] if a singular
    /// component's fallback iteration fails to settle.
    pub fn solve(&self) -> Result<Vec<f64>, FlowSolveError> {
        self.validate()?;
        sparse::solve_sparse(self.n, &self.arcs, &self.inject)
    }

    /// Solves the system with the original dense `O(n³)` elimination,
    /// falling back to a globally damped fixed-point iteration when the
    /// matrix is singular.
    ///
    /// [`FlowSystem::solve`] is faster on every graph and identical in
    /// result up to floating-point reassociation; this path is kept as
    /// the reference implementation the property tests oracle against.
    ///
    /// # Errors
    ///
    /// See [`FlowSystem::solve`].
    pub fn solve_dense(&self) -> Result<Vec<f64>, FlowSolveError> {
        self.validate()?;
        if self.n == 0 {
            return Ok(Vec::new());
        }
        let m = self.system_matrix()?;
        match m.solve(&self.inject) {
            Ok(x) => Ok(x),
            Err(SolveError::Singular { .. }) => self.solve_damped(sparse::DAMPING),
            Err(SolveError::DimensionMismatch { .. }) => {
                unreachable!("system_matrix is square by construction")
            }
        }
    }

    /// Damped fixed-point iteration: `x ← inject + damping · Wᵀ x`.
    fn solve_damped(&self, damping: f64) -> Result<Vec<f64>, FlowSolveError> {
        let mut x = self.inject.clone();
        let mut residual = f64::INFINITY;
        for _ in 0..sparse::MAX_ITERS {
            let mut next = self.inject.clone();
            for &(src, dst, w) in &self.arcs {
                next[dst] += damping * w * x[src];
            }
            residual = next
                .iter()
                .zip(&x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            x = next;
            if residual < sparse::TOLERANCE {
                return Ok(x);
            }
        }
        Err(FlowSolveError::DidNotConverge {
            iterations: sparse::MAX_ITERS,
            residual,
        })
    }
}

/// Convenience wrapper: solves a flow system given as arc and injection lists.
///
/// # Errors
///
/// See [`FlowSystem::solve`].
pub fn solve_flow(
    n: usize,
    arcs: &[(usize, usize, f64)],
    inject: &[(usize, f64)],
) -> Result<Vec<f64>, FlowSolveError> {
    let mut sys = FlowSystem::new(n);
    for &(s, d, w) in arcs {
        sys.add_arc(s, d, w);
    }
    for &(node, amount) in inject {
        sys.inject(node, amount);
    }
    sys.solve()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_flow() {
        // entry -> a -> b, all probability 1: every node runs once.
        let x = solve_flow(3, &[(0, 1, 1.0), (1, 2, 1.0)], &[(0, 1.0)]).unwrap();
        for v in x {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn diamond_splits_flow() {
        // 0 -> {1: .8, 2: .2} -> 3
        let x = solve_flow(
            4,
            &[(0, 1, 0.8), (0, 2, 0.2), (1, 3, 1.0), (2, 3, 1.0)],
            &[(0, 1.0)],
        )
        .unwrap();
        assert!((x[1] - 0.8).abs() < 1e-12);
        assert!((x[2] - 0.2).abs() < 1e-12);
        assert!((x[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_loop_amplifies() {
        // Geometric series: 1 / (1 - 0.8) = 5.
        let x = solve_flow(1, &[(0, 0, 0.8)], &[(0, 1.0)]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn inescapable_loop_falls_back_to_damped() {
        // Probability-1 self loop: the direct treatment is singular; the
        // damped model yields a large but finite frequency.
        let x = solve_flow(1, &[(0, 0, 1.0)], &[(0, 1.0)]).unwrap();
        assert!(x[0] > 100.0);
        assert!(x[0].is_finite());
    }

    #[test]
    fn out_of_range_arc_is_an_error() {
        let mut sys = FlowSystem::new(1);
        sys.add_arc(0, 3, 1.0);
        assert!(matches!(
            sys.solve(),
            Err(FlowSolveError::NodeOutOfRange { node: 3, len: 1 })
        ));
    }

    #[test]
    fn out_of_range_inject_is_an_error_not_a_panic() {
        let mut sys = FlowSystem::new(2);
        sys.inject(0, 1.0);
        sys.inject(9, 1.0);
        sys.add_arc(0, 1, 0.5);
        assert!(matches!(
            sys.solve(),
            Err(FlowSolveError::NodeOutOfRange { node: 9, len: 2 })
        ));
        assert!(matches!(
            sys.solve_dense(),
            Err(FlowSolveError::NodeOutOfRange { node: 9, len: 2 })
        ));
    }

    #[test]
    fn empty_system_solves_to_empty() {
        assert!(FlowSystem::new(0).solve().unwrap().is_empty());
    }

    #[test]
    fn sparse_matches_dense_on_strchr() {
        // The Figure 7 system: a loop, a diamond, and two exits.
        let mut sys = FlowSystem::new(6);
        sys.inject(0, 1.0);
        for (s, d, w) in [
            (0, 1, 1.0),
            (1, 2, 0.8),
            (2, 3, 0.2),
            (2, 4, 0.8),
            (4, 1, 1.0),
            (1, 5, 0.2),
        ] {
            sys.add_arc(s, d, w);
        }
        let sparse = sys.solve().unwrap();
        let dense = sys.solve_dense().unwrap();
        for (a, b) in sparse.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-9, "{sparse:?} vs {dense:?}");
        }
        assert!((sparse[1] - 2.7778).abs() < 1e-3);
    }

    #[test]
    fn errors_display() {
        let e = FlowSolveError::DidNotConverge {
            iterations: 5,
            residual: 0.25,
        };
        let msg = format!("{e}");
        assert!(msg.contains("5"));
        assert!(msg.contains("2.500e-1"), "{msg}");
        let e = SolveError::Singular { column: 2 };
        assert!(format!("{e}").contains("column 2"));
    }
}
