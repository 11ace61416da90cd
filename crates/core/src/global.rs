//! Whole-program frequency estimates.
//!
//! The abstract promises "arc and basic block frequency estimates for
//! the entire program": combining the per-invocation intra-procedural
//! block frequencies with the inter-procedural invocation estimates
//! yields a single global ranking of every basic block (and every CFG
//! arc) in the program. The paper only ranks *call sites* globally
//! (§5.3); this module extends the same composition to blocks and
//! arcs, scored with the same weight-matching metric.

use crate::inter::InterEstimates;
use crate::intra::{edge_probabilities, IntraEstimates};
use crate::metric::weight_matching;
use flowgraph::{BlockId, Program};
use minic::sema::FuncId;
use profiler::Profile;

/// A globally-ranked basic block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalBlock {
    /// The owning function.
    pub func: FuncId,
    /// The block within it.
    pub block: BlockId,
    /// Estimated whole-run execution count.
    pub freq: f64,
}

/// A globally-ranked CFG arc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalArc {
    /// The owning function.
    pub func: FuncId,
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Estimated whole-run traversal count.
    pub freq: f64,
}

/// Estimates the whole-run execution count of every basic block:
/// per-invocation block frequency × estimated function invocations.
pub fn global_blocks(
    program: &Program,
    intra: &IntraEstimates,
    inter: &InterEstimates,
) -> Vec<GlobalBlock> {
    let mut out = Vec::new();
    for f in program.defined_ids() {
        let inv = inter.of(f);
        for (b, &freq) in intra.blocks_of(f).iter().enumerate() {
            out.push(GlobalBlock {
                func: f,
                block: BlockId(b as u32),
                freq: freq * inv,
            });
        }
    }
    out
}

/// Estimates the whole-run traversal count of every CFG arc: source
/// block's global frequency × the arc's (smart-prediction) probability.
pub fn global_arcs(
    program: &Program,
    intra: &IntraEstimates,
    inter: &InterEstimates,
) -> Vec<GlobalArc> {
    let mut out = Vec::new();
    for f in program.defined_ids() {
        let inv = inter.of(f);
        let cfg = program.cfg(f);
        let probs = edge_probabilities(program, cfg, &intra.predictions);
        let blocks = intra.blocks_of(f);
        for (src, outs) in probs.iter().enumerate() {
            for &(dst, p) in outs {
                out.push(GlobalArc {
                    func: f,
                    from: BlockId(src as u32),
                    to: dst,
                    freq: blocks[src] * p * inv,
                });
            }
        }
    }
    out
}

/// Weight-matching score of the global block ranking against a
/// profile, at `cutoff`. This is the "basic blocks from different
/// functions compete against each other" regime the paper reserves for
/// call sites.
pub fn global_block_score(
    program: &Program,
    intra: &IntraEstimates,
    inter: &InterEstimates,
    profiles: &[Profile],
    cutoff: f64,
) -> f64 {
    let blocks = global_blocks(program, intra, inter);
    let est: Vec<f64> = blocks.iter().map(|b| b.freq).collect();
    let mut sum = 0.0;
    for p in profiles {
        let actual: Vec<f64> = blocks
            .iter()
            .map(|b| p.blocks_of(b.func)[b.block.0 as usize] as f64)
            .collect();
        sum += weight_matching(&est, &actual, cutoff);
    }
    sum / profiles.len().max(1) as f64
}

/// Weight-matching score of the global arc ranking against profiled
/// edge counts, at `cutoff`.
pub fn global_arc_score(
    program: &Program,
    intra: &IntraEstimates,
    inter: &InterEstimates,
    profiles: &[Profile],
    cutoff: f64,
) -> f64 {
    let arcs = global_arcs(program, intra, inter);
    let est: Vec<f64> = arcs.iter().map(|a| a.freq).collect();
    let mut sum = 0.0;
    for p in profiles {
        let actual: Vec<f64> = arcs
            .iter()
            .map(|a| {
                p.edge_counts
                    .get(&(a.func, a.from, a.to))
                    .copied()
                    .unwrap_or(0) as f64
            })
            .collect();
        sum += weight_matching(&est, &actual, cutoff);
    }
    sum / profiles.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inter::{estimate_invocations, InterEstimator};
    use crate::intra::{estimate_program, IntraEstimator};
    use profiler::RunConfig;

    fn setup(src: &str) -> (Program, IntraEstimates, InterEstimates, Profile) {
        let module = minic::compile(src).expect("compiles");
        let program = flowgraph::build_program(module);
        let ia = estimate_program(&program, IntraEstimator::Smart);
        let ie = estimate_invocations(&program, &ia, InterEstimator::Markov);
        let profile = profiler::run(&program, &RunConfig::default())
            .expect("runs")
            .profile;
        (program, ia, ie, profile)
    }

    const SRC: &str = r#"
        int work(int n) {
            int i, s = 0;
            for (i = 0; i < n; i++) s += i * i;
            return s;
        }
        int rare(int n) { return n + 1; }
        int main(void) {
            int i, t = 0;
            for (i = 0; i < 40; i++) t += work(10);
            t += rare(t);
            return t & 255;
        }
    "#;

    #[test]
    fn hot_inner_block_tops_the_global_ranking() {
        let (program, ia, ie, _) = setup(SRC);
        let mut blocks = global_blocks(&program, &ia, &ie);
        blocks.sort_by(|a, b| b.freq.total_cmp(&a.freq));
        let top_fn = blocks[0].func;
        assert_eq!(
            program.module.function(top_fn).name,
            "work",
            "the inner loop of `work` should be globally hottest"
        );
    }

    #[test]
    fn global_block_score_is_high_on_simple_program() {
        let (program, ia, ie, profile) = setup(SRC);
        let s = global_block_score(&program, &ia, &ie, &[profile], 0.25);
        assert!(s > 0.8, "score {s}");
    }

    #[test]
    fn arc_estimates_cover_every_cfg_edge() {
        let (program, ia, ie, profile) = setup(SRC);
        let arcs = global_arcs(&program, &ia, &ie);
        // Each profiled edge must appear among the estimated arcs.
        for (f, from, to) in profile.edge_counts.keys() {
            assert!(
                arcs.iter()
                    .any(|a| a.func == *f && a.from == *from && a.to == *to),
                "missing arc {f:?} {from:?}->{to:?}"
            );
        }
        let s = global_arc_score(&program, &ia, &ie, &[profile], 0.25);
        assert!(s > 0.7, "arc score {s}");
    }
}
