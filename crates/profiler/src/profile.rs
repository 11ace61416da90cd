//! Execution profiles and profile aggregation.
//!
//! A [`Profile`] is what the paper's instrumented gcc produced per run:
//! basic-block counts, branch outcome counts, call-site counts, and
//! function invocation counts. §3 describes the aggregation used when
//! profiles *predict* other runs: normalize every profile to the same
//! total basic-block count, then sum.

use minic::sema::{BranchId, CallSiteId, FuncId};

/// Dynamic counts from one program run. Every table is dense:
/// per-function rows are indexed by [`FuncId`], block rows by
/// [`BlockId`](flowgraph::BlockId) and edge rows by the CFG's edge
/// numbering ([`Cfg::edges`](flowgraph::Cfg::edges)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// `block_counts[func][block]` = times the block executed.
    pub block_counts: Vec<Vec<u64>>,
    /// `(taken, not_taken)` per registered branch site.
    pub branch_counts: Vec<(u64, u64)>,
    /// Executions of each call site (builtins included).
    pub call_site_counts: Vec<u64>,
    /// Invocations of each function.
    pub func_counts: Vec<u64>,
    /// `edge_counts[func][edge]` = times the CFG edge was traversed,
    /// by the CFG's edge id.
    pub edge_counts: Vec<Vec<u64>>,
    /// Abstract cost units accumulated per function: one per
    /// expression node evaluated and per block entered, plus
    /// [`CALL_COST`](crate::runtime::CALL_COST) per call; serve's
    /// `profile` method reports it as `cost`.
    pub func_cost: Vec<u64>,
}

impl Profile {
    /// Creates an all-zero profile shaped for the given program.
    pub fn for_program(program: &flowgraph::Program) -> Self {
        let module = &program.module;
        let rows = |n: fn(&flowgraph::Cfg) -> usize| -> Vec<Vec<u64>> {
            program
                .cfgs
                .iter()
                .map(|c| vec![0; c.as_ref().map_or(0, n)])
                .collect()
        };
        Profile {
            block_counts: rows(flowgraph::Cfg::len),
            branch_counts: vec![(0, 0); module.side.branches.len()],
            call_site_counts: vec![0; module.side.call_sites.len()],
            func_counts: vec![0; module.functions.len()],
            edge_counts: rows(|c| c.edges().count()),
            func_cost: vec![0; module.functions.len()],
        }
    }

    /// Total basic-block executions across the program.
    pub fn total_block_count(&self) -> u64 {
        self.block_counts.iter().flatten().sum()
    }

    /// Total dynamic branch executions (both directions).
    pub fn total_branches(&self) -> u64 {
        self.branch_counts.iter().map(|&(t, n)| t + n).sum()
    }

    /// The block counts of one function.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn blocks_of(&self, f: FuncId) -> &[u64] {
        &self.block_counts[f.0 as usize]
    }

    /// The edge counts of one function, by edge id.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn edges_of(&self, f: FuncId) -> &[u64] {
        &self.edge_counts[f.0 as usize]
    }

    /// Times branch `b` was taken / not taken.
    pub fn branch(&self, b: BranchId) -> (u64, u64) {
        self.branch_counts[b.0 as usize]
    }

    /// Invocation count of `f`.
    pub fn calls_of(&self, f: FuncId) -> u64 {
        self.func_counts[f.0 as usize]
    }

    /// Execution count of call site `s`.
    pub fn site(&self, s: CallSiteId) -> u64 {
        self.call_site_counts[s.0 as usize]
    }
}

/// A profile with fractional counts: the normalized sum of several
/// [`Profile`]s (§3), used when profiles predict other inputs.
#[derive(Debug, Clone, Default)]
pub struct AggregateProfile {
    /// `block_freqs[func][block]`, normalized-and-summed.
    pub block_freqs: Vec<Vec<f64>>,
    /// `(taken, not_taken)` per branch, normalized-and-summed.
    pub branch_freqs: Vec<(f64, f64)>,
    /// Call-site frequencies.
    pub call_site_freqs: Vec<f64>,
    /// Function invocation frequencies.
    pub func_freqs: Vec<f64>,
}

/// Normalizes each profile to a common total block count and sums them.
///
/// The common scale is the mean of the totals, so aggregating a single
/// profile reproduces it exactly.
///
/// # Panics
///
/// Panics if `profiles` is empty or the profiles have different shapes.
pub fn aggregate(profiles: &[&Profile]) -> AggregateProfile {
    assert!(
        !profiles.is_empty(),
        "aggregate requires at least one profile"
    );
    let totals: Vec<f64> = profiles
        .iter()
        .map(|p| p.total_block_count() as f64)
        .collect();
    let target = totals.iter().sum::<f64>() / totals.len() as f64;
    let scales: Vec<f64> = totals
        .iter()
        .map(|&t| if t > 0.0 { target / t } else { 0.0 })
        .collect();

    let mut agg = AggregateProfile {
        block_freqs: profiles[0]
            .block_counts
            .iter()
            .map(|v| vec![0.0; v.len()])
            .collect(),
        branch_freqs: vec![(0.0, 0.0); profiles[0].branch_counts.len()],
        call_site_freqs: vec![0.0; profiles[0].call_site_counts.len()],
        func_freqs: vec![0.0; profiles[0].func_counts.len()],
    };
    for (p, &s) in profiles.iter().zip(&scales) {
        for (f, blocks) in p.block_counts.iter().enumerate() {
            assert_eq!(
                blocks.len(),
                agg.block_freqs[f].len(),
                "profile shape mismatch"
            );
            for (b, &c) in blocks.iter().enumerate() {
                agg.block_freqs[f][b] += c as f64 * s;
            }
        }
        for (i, &(t, n)) in p.branch_counts.iter().enumerate() {
            agg.branch_freqs[i].0 += t as f64 * s;
            agg.branch_freqs[i].1 += n as f64 * s;
        }
        for (i, &c) in p.call_site_counts.iter().enumerate() {
            agg.call_site_freqs[i] += c as f64 * s;
        }
        for (i, &c) in p.func_counts.iter().enumerate() {
            agg.func_freqs[i] += c as f64 * s;
        }
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile(scale: u64) -> Profile {
        Profile {
            block_counts: vec![vec![10 * scale, 2 * scale]],
            branch_counts: vec![(8 * scale, 2 * scale)],
            call_site_counts: vec![3 * scale],
            func_counts: vec![scale],
            edge_counts: vec![vec![2 * scale]],
            func_cost: vec![100 * scale],
        }
    }

    #[test]
    fn aggregate_of_one_is_identity() {
        let p = tiny_profile(1);
        let a = aggregate(&[&p]);
        assert_eq!(a.block_freqs[0], vec![10.0, 2.0]);
        assert_eq!(a.branch_freqs[0], (8.0, 2.0));
    }

    #[test]
    fn aggregate_normalizes_scale() {
        // A run 5× longer should not dominate: after normalization both
        // contribute equally, and relative shape is preserved.
        let p1 = tiny_profile(1);
        let p5 = tiny_profile(5);
        let a = aggregate(&[&p1, &p5]);
        let ratio = a.block_freqs[0][0] / a.block_freqs[0][1];
        assert!((ratio - 5.0).abs() < 1e-9);
        // Each normalized profile totals 36 blocks (mean of 12 and 60).
        let total: f64 = a.block_freqs[0].iter().sum();
        assert!((total - 72.0).abs() < 1e-9);
    }

    #[test]
    fn totals() {
        let p = tiny_profile(2);
        assert_eq!(p.total_block_count(), 24);
        assert_eq!(p.total_branches(), 20);
    }

    #[test]
    #[should_panic(expected = "at least one profile")]
    fn aggregate_empty_panics() {
        aggregate(&[]);
    }
}
