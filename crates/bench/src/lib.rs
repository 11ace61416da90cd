//! # bench — the suite loader, the corpus engine and the measured Fig 10
//!
//! [`load`] compiles and profiles suite programs as
//! *(program, input)* tasks on the worker pool, through the artifact
//! cache; [`corpus`] streams generated programs through the same
//! pipeline at volume; [`fig10_measured_program`] runs the paper's §6
//! selective-optimization experiment on the real optimizer. `sfe` and
//! the `experiments` binary print their results; the paper's other
//! tables and figures are private to `experiments` (see DESIGN.md for
//! the experiment index).

#![warn(missing_docs)]

pub mod corpus;

use cache::{ArtifactKind, Cache};
use estimators::ranking::Ranking;
use flowgraph::Program;
use profiler::{CompiledProgram, Profile, RunConfig};
use std::collections::HashMap;
use std::sync::OnceLock;
use suite::BenchProgram;

/// A compiled-and-profiled suite program.
pub struct ProgramData {
    /// The suite entry.
    pub bench: BenchProgram,
    /// The compiled program.
    pub program: Program,
    /// One profile per standard input.
    pub profiles: Vec<Profile>,
}

/// One profile, by cache lookup when possible, by execution otherwise
/// (writing through on a miss). The unit of work the pool schedules.
/// `image` yields the image to run and is called only on a miss, so a
/// fully cached program is never compiled. At `opt_level` > 0 the
/// image is the optimized one and the entry is an
/// [`ArtifactKind::OptProfile`] keyed by the level and the pass
/// pipeline version, so a level change or an optimizer change always
/// re-executes.
fn profile_one<'a>(
    bench: BenchProgram,
    image: impl FnOnce() -> &'a CompiledProgram,
    opt_level: u8,
    input: Vec<u8>,
    cache: Option<&Cache>,
) -> Profile {
    let config = RunConfig::with_input(input);
    let kind = if opt_level == 0 {
        ArtifactKind::Profile
    } else {
        ArtifactKind::OptProfile {
            opt_level,
            pipeline_version: opt::PASS_PIPELINE_VERSION,
        }
    };
    cache::get_or_run(cache, kind, bench.source, &config, || {
        image().execute(&config, None).map(|out| out.profile)
    })
    .unwrap_or_else(|e| panic!("{}: runtime error at -O{opt_level}: {e}", bench.name))
}

/// Compiles and lowers a suite program.
///
/// # Panics
///
/// Panics with the rendered diagnostic if it does not compile.
fn compile_bench(bench: BenchProgram) -> Program {
    bench
        .compile()
        .unwrap_or_else(|e| panic!("{}: {}", bench.name, e.render(bench.source)))
}

/// Compiles and profiles the whole suite on the global pool with no
/// artifact cache (a few seconds of work cold).
pub fn load_suite() -> Vec<ProgramData> {
    load(&suite::all(), pool::global(), None, 0)
}

/// Compiles and profiles `benches` as *(program, input)* tasks on
/// `pool`, consulting `cache` per input, and returns them in the order
/// given. `load(&[p], &Pool::new(1), None, 0)` loads one program on
/// the calling thread alone.
///
/// A program is compiled only when one of its profiles misses the
/// cache, once, by the first such task. At `opt_level` > 0 it is then
/// also optimized at that level (full budget, static-estimate
/// frequencies — no profiling needed to build the plan), and profiles
/// hit the [`ArtifactKind::OptProfile`] cache. The returned profiles
/// then carry optimized `func_cost`; all count counters are identical
/// to unoptimized runs by the optimizer's contract.
///
/// Two flat maps: one task per program parses it and builds its
/// CFGs, then one task per *(program, input)* pair profiles, so
/// workers drain a single task supply and a straggler program's
/// inputs spread across every idle core. Both maps return in input
/// order, so the output is byte-identical for any pool size and any
/// task interleaving (asserted by `tests/determinism.rs`), and every
/// task's spans nest under `bench.load_suite`. Panics if a program
/// fails to compile or run: suite programs are well-formed.
pub fn load(
    benches: &[BenchProgram],
    pool: &pool::Pool,
    cache: Option<&Cache>,
    opt_level: u8,
) -> Vec<ProgramData> {
    let _sp = obs::span("bench.load_suite");
    let mut loaded = pool.map(benches, |&bench| {
        let program = compile_bench(bench);
        obs::counter_add("bench.programs", 1);
        (program, OnceLock::new(), bench.inputs())
    });
    let counts: Vec<usize> = loaded.iter().map(|(_, _, inputs)| inputs.len()).collect();
    let runs: Vec<(usize, Vec<u8>)> = loaded
        .iter_mut()
        .enumerate()
        .flat_map(|(i, (_, _, inputs))| std::mem::take(inputs).into_iter().map(move |x| (i, x)))
        .collect();
    // A program's image is built by the first of its inputs whose
    // profile misses the cache, so a warm run compiles nothing.
    let image = |i: usize| {
        let (program, cell, _) = &loaded[i];
        cell.get_or_init(|| {
            let cp = profiler::compile(program);
            if opt_level == 0 {
                return cp;
            }
            optimize_at_level(program, &cp, opt_level).0
        })
    };
    let mut profiles = pool
        .map(runs, |(i, input)| {
            profile_one(benches[i], || image(i), opt_level, input, cache)
        })
        .into_iter();
    benches
        .iter()
        .zip(loaded)
        .zip(counts)
        .map(|((&bench, (program, _, _)), n)| {
            let profiles: Vec<Profile> = profiles.by_ref().take(n).collect();
            obs::counter_add("bench.profiles", n as u64);
            ProgramData {
                bench,
                program,
                profiles,
            }
        })
        .collect()
}

/// The suite programs the measured Fig 10 experiment optimizes:
/// compress (the paper's subject) plus three structurally different
/// codes — branchy logic, set-cover heuristics, and straight-line
/// numerics.
pub const FIG10_PROGRAMS: [&str; 4] = ["compress", "eqntott", "espresso", "cholesky"];

/// One ranking's measured curve: VM steps (and wall time) on the
/// held-out input after optimizing the top-`k` functions.
#[derive(Debug, Clone)]
pub struct Fig10Curve {
    /// Ranking provider name ("static" / "profile" / "oracle").
    pub ranking: &'static str,
    /// Measured VM steps per budget increment.
    pub steps: Vec<u64>,
    /// `baseline_steps / steps[i]`.
    pub speedups: Vec<f64>,
    /// Optimized-run wall time per budget increment, milliseconds.
    pub wall_ms: Vec<f64>,
}

/// The measured Fig 10 result for one program.
#[derive(Debug, Clone)]
pub struct Fig10Program {
    /// Suite program name.
    pub name: &'static str,
    /// The x axis: number of functions whose optimization was budgeted.
    pub ks: Vec<usize>,
    /// Unoptimized VM steps on the held-out input.
    pub baseline_steps: u64,
    /// Function names in static rank order (hottest first).
    pub static_order: Vec<String>,
    /// One curve per ranking provider.
    pub curves: Vec<Fig10Curve>,
}

/// Builds an [`opt::OptPlan`] that budgets the `k` hottest functions
/// of `ranking` and steers every frequency-guided pass with the
/// ranking's block and call-site frequencies.
pub fn plan_from_ranking(
    ranking: &Ranking,
    cp: &CompiledProgram,
    level: u8,
    k: usize,
) -> opt::OptPlan {
    let mut budgeted = vec![false; cp.funcs.len()];
    for f in ranking.order.iter().take(k) {
        budgeted[f.0 as usize] = true;
    }
    opt::OptPlan {
        level,
        budgeted,
        block_freqs: ranking.block_freqs.clone(),
        site_freqs: ranking.site_freqs.clone(),
        inline_budget: opt::default_inline_budget(cp),
    }
}

/// The `-O<level>` image of `program` (`cp` is its compiled image), as
/// `sfe run` and `sfe suite` build it: every function budgeted, every
/// frequency-guided pass steered by the static estimates, so no
/// profile run is needed to build the plan.
pub fn optimize_at_level(
    program: &Program,
    cp: &CompiledProgram,
    level: u8,
) -> (CompiledProgram, opt::OptStats) {
    let ranking = Ranking::static_estimate(program);
    opt::optimize(cp, &plan_from_ranking(&ranking, cp, level, cp.funcs.len()))
}

/// Runs the measured Fig 10 experiment for one suite program at the
/// standard budgets: 0 through 6 functions, then all of them.
///
/// The last standard input is held out for measurement; the rest are
/// the training set for the "profile" ranking. Each optimized run is
/// checked byte-identical to the unoptimized baseline. Each distinct
/// optimized image runs once: a cell whose image has the same
/// [`ir_fingerprint`](profiler::bytecode::Parts::ir_fingerprint) as
/// the baseline (every k = 0 cell) or as an earlier cell reuses that
/// run's steps and wall time.
///
/// # Panics
///
/// Panics if the program fails to run or an optimized run diverges
/// from the baseline output — both indicate optimizer bugs.
pub fn fig10_measured_program(name: &'static str) -> Fig10Program {
    let program = suite::by_name(name)
        .expect("suite program")
        .compile()
        .expect("compiles");
    let ks: Vec<usize> = (0..=6).chain([program.defined_ids().len()]).collect();
    fig10_measure(name, program, &ks, true)
}

/// [`fig10_measured_program`] on a compiled `program` at the budgets
/// `ks`; `reuse: false` runs every cell, even repeated images (the
/// reference the smoke test checks reuse against).
fn fig10_measure(name: &'static str, program: Program, ks: &[usize], reuse: bool) -> Fig10Program {
    let _sp = obs::span("bench.fig10_measured");
    let bench = suite::by_name(name).expect("suite program");
    let cp = profiler::compile(&program);

    let mut inputs = bench.inputs();
    let holdout = inputs.pop().expect("suite programs have inputs");
    let holdout_cfg = RunConfig::with_input(holdout);
    let t0 = std::time::Instant::now();
    let baseline = cp.execute(&holdout_cfg, None).expect("holdout runs");
    let baseline_ms = t0.elapsed().as_secs_f64() * 1e3;

    let training: Vec<Profile> = inputs
        .into_iter()
        .map(|input| {
            cp.execute(&RunConfig::with_input(input), None)
                .expect("training input runs")
                .profile
        })
        .collect();
    let training_refs: Vec<&Profile> = training.iter().collect();

    let rankings = [
        Ranking::static_estimate(&program),
        Ranking::measured(&program, &training_refs),
        Ranking::oracle(&program, &baseline.profile),
    ];

    // Recosting can move a run across the step limit in either
    // direction near the boundary; 4x headroom keeps the measurement
    // about steps, not the limit.
    let opt_cfg = RunConfig {
        max_steps: holdout_cfg.max_steps.saturating_mul(4),
        ..holdout_cfg.clone()
    };

    // (steps, wall ms) of every image run so far, by fingerprint.
    let mut runs: HashMap<u128, (u64, f64)> = HashMap::new();
    if reuse {
        runs.insert(cp.ir_fingerprint(), (baseline.steps, baseline_ms));
    }
    let curves = rankings
        .iter()
        .map(|ranking| {
            let mut steps = Vec::with_capacity(ks.len());
            let mut wall_ms = Vec::with_capacity(ks.len());
            for &k in ks {
                let plan = plan_from_ranking(ranking, &cp, 3, k);
                let (ocp, _stats) = opt::optimize(&cp, &plan);
                let fingerprint = ocp.ir_fingerprint();
                let (s, ms) = match runs.get(&fingerprint) {
                    Some(&run) => run,
                    None => {
                        let t0 = std::time::Instant::now();
                        let out = ocp.execute(&opt_cfg, None).expect("optimized holdout runs");
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        assert_eq!(
                            out.output, baseline.output,
                            "{name} @ {} k={k}: optimized output diverged",
                            ranking.name
                        );
                        assert_eq!(out.exit_code, baseline.exit_code, "{name} k={k}: exit");
                        if reuse {
                            runs.insert(fingerprint, (out.steps, ms));
                        }
                        (out.steps, ms)
                    }
                };
                steps.push(s);
                wall_ms.push(ms);
            }
            let speedups = steps
                .iter()
                .map(|&s| baseline.steps as f64 / s as f64)
                .collect();
            Fig10Curve {
                ranking: ranking.name,
                steps,
                speedups,
                wall_ms,
            }
        })
        .collect();

    Fig10Program {
        name,
        ks: ks.to_vec(),
        baseline_steps: baseline.steps,
        static_order: rankings[0]
            .order
            .iter()
            .map(|&f| program.module.function(f).name.clone())
            .collect(),
        curves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_measured_smoke() {
        // The CI smoke: compress at three budget points. Static-ranked
        // speedup must land within 10% of profile-ranked at every
        // point, and the full budget must clear the 1.90x bar
        // (measured 1.96x; ~3% margin for op-stream jitter).
        let compress = || suite::by_name("compress").unwrap().compile().unwrap();
        let p = fig10_measure("compress", compress(), &[0, 4, 16], true);
        let curve = |name: &str| {
            &p.curves
                .iter()
                .find(|c| c.ranking == name)
                .expect("ranking present")
                .speedups
        };
        let st = curve("static");
        let pr = curve("profile");
        assert_eq!(st[0], 1.0, "k=0 is the identity");
        assert_eq!(pr[0], 1.0, "k=0 is the identity");
        for (s, p) in st.iter().zip(pr) {
            assert!(s / p > 0.90, "static {s:.3} vs profile {p:.3}");
        }
        assert!(
            st[2] >= 1.90,
            "full-budget compress speedup {:.3} below 1.90x",
            st[2]
        );
        // Full budget optimizes every function: the rankings agree.
        let or = curve("oracle");
        assert!((st[2] - or[2]).abs() / or[2] < 0.10);
        // Exact optimized step counts at k=4 and k=16: the optimizer's
        // cost model must not depend on how the VM places its profile
        // counters (it lifts the fully instrumented op stream).
        let steps = |name: &str| {
            p.curves
                .iter()
                .find(|c| c.ranking == name)
                .expect("ranking present")
                .steps[1..]
                .to_vec()
        };
        assert_eq!(steps("static"), [615_208, 490_204]);
        assert_eq!(steps("profile"), [558_786, 508_896]);
        // k = 0 optimizes nothing: its cells reuse the baseline run.
        for c in &p.curves {
            assert_eq!(c.steps[0], p.baseline_steps, "{} k=0", c.ranking);
        }
        // Reusing repeated images changes no result: a reference that
        // executes every cell measures the same steps.
        let reference = fig10_measure("compress", compress(), &[0, 4, 16], false);
        assert_eq!(reference.baseline_steps, p.baseline_steps);
        for (r, c) in reference.curves.iter().zip(&p.curves) {
            assert_eq!((r.ranking, &r.steps), (c.ranking, &c.steps));
        }
    }
}
