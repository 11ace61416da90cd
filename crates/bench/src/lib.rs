//! # bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation from
//! the reproduction's own suite and profiles. The `experiments` binary
//! prints them; the functions here return structured data so the
//! integration tests can assert on the same numbers (see DESIGN.md for
//! the experiment index).

#![warn(missing_docs)]

pub mod corpus;

use cache::codec::Artifact;
use cache::{ArtifactKey, ArtifactKind, BytecodeMeta, Cache};
use estimators::eval;
use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_program, IntraEstimator};
use estimators::missrate::{miss_rates, MissRates};
use estimators::ranking::Ranking;
use flowgraph::Program;
use minic::sema::FuncId;
use profiler::{CompiledProgram, ExecScratch, Profile, RunConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
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
/// At `opt_level` > 0 `compiled` is the optimized image and the entry
/// is an [`ArtifactKind::OptProfile`] keyed by the level and the pass
/// pipeline version, so a level change or an optimizer change always
/// re-executes.
fn profile_one(
    bench: BenchProgram,
    compiled: &CompiledProgram,
    opt_level: u8,
    input: Vec<u8>,
    cache: Option<&Cache>,
) -> Profile {
    let config = RunConfig::with_input(input);
    let key = cache.map(|_| {
        if opt_level == 0 {
            ArtifactKey::derive(ArtifactKind::Profile, bench.source, &config)
        } else {
            ArtifactKey::derive_opt(bench.source, &config, opt_level, opt::PASS_PIPELINE_VERSION)
        }
    });
    if let (Some(c), Some(k)) = (cache, key) {
        let hit = if opt_level == 0 {
            c.load_profile(k)
        } else {
            c.load_opt_profile(k)
        };
        if let Some(profile) = hit {
            return profile;
        }
    }
    let out = compiled
        .execute(&config, &mut ExecScratch::default(), None)
        .unwrap_or_else(|e| panic!("{}: runtime error at -O{opt_level}: {e}", bench.name));
    if let (Some(c), Some(k)) = (cache, key) {
        let profile = out.profile.clone();
        c.store(
            k,
            &if opt_level == 0 {
                Artifact::Profile(profile)
            } else {
                Artifact::OptProfile(profile)
            },
        );
    }
    out.profile
}

/// Records the compiled image's summary stats in the cache (skipped
/// when already present — compilation is sub-millisecond, so the meta
/// entry exists for capacity diagnostics, not to avoid work).
fn store_bytecode_meta(bench: BenchProgram, compiled: &CompiledProgram, cache: Option<&Cache>) {
    let Some(c) = cache else { return };
    let key = ArtifactKey::derive(
        ArtifactKind::BytecodeMeta,
        bench.source,
        &RunConfig::default(),
    );
    if c.load(key).is_some() {
        return;
    }
    let (n_ops, n_funcs, n_blocks, data_words) = compiled.image_stats();
    c.store(
        key,
        &Artifact::BytecodeMeta(BytecodeMeta {
            n_ops,
            n_funcs,
            n_blocks,
            data_words,
        }),
    );
}

/// Compiles and profiles one suite program on the global pool, with
/// no artifact cache.
///
/// # Panics
///
/// Panics if the program fails to compile or run — suite programs are
/// expected to be well-formed.
pub fn load_program(bench: BenchProgram) -> ProgramData {
    load_program_with(bench, pool::global(), None)
}

/// Compiles and profiles one suite program: compilation happens on
/// the calling thread, then each input becomes one pool task that
/// consults `cache` before executing and writes through after.
/// Profiles return in input order for any pool size.
///
/// # Panics
///
/// See [`load_program`].
pub fn load_program_with(
    bench: BenchProgram,
    pool: &pool::Pool,
    cache: Option<&Cache>,
) -> ProgramData {
    let _sp = obs::span("bench.load_program");
    let program = bench
        .compile()
        .unwrap_or_else(|e| panic!("{}: {}", bench.name, e.render(bench.source)));
    let compiled = profiler::compile(&program);
    store_bytecode_meta(bench, &compiled, cache);
    let inputs = bench.inputs();
    let mut profiles: Vec<Option<Profile>> = Vec::new();
    profiles.resize_with(inputs.len(), || None);
    pool.scope(|s| {
        for (slot, input) in profiles.iter_mut().zip(inputs) {
            let compiled = &compiled;
            s.spawn(move |_| *slot = Some(profile_one(bench, compiled, 0, input, cache)));
        }
    });
    let profiles: Vec<Profile> = profiles
        .into_iter()
        .map(|p| p.expect("pool task filled its profile slot"))
        .collect();
    obs::counter_add("bench.programs", 1);
    obs::counter_add("bench.profiles", profiles.len() as u64);
    ProgramData {
        bench,
        program,
        profiles,
    }
}

/// Compiles and profiles the whole suite on the global pool with no
/// artifact cache (a few seconds of work cold).
pub fn load_suite() -> Vec<ProgramData> {
    load_suite_with(pool::global(), None, 0)
}

/// Compiles and profiles the whole suite as *(program, input)* tasks
/// on `pool`, consulting `cache` per input.
///
/// At `opt_level` > 0 every program is optimized at that level (full
/// budget, static-estimate frequencies — no profiling needed to build
/// the plan) before profiling, and profiles hit the
/// [`ArtifactKind::OptProfile`] cache. The returned profiles then carry
/// optimized `func_cost`; all count counters are identical to
/// unoptimized runs by the optimizer's contract.
///
/// One compile task per program fans out one profile task per input
/// into the same scope, so workers drain a single global task supply:
/// a straggler program's inputs spread across every idle core instead
/// of serializing on the thread that compiled it. Results merge into
/// pre-sized slots indexed by (program, input) position, so the
/// output is byte-identical in Table 1 order for any pool size and
/// any task interleaving (asserted by `tests/determinism.rs`).
pub fn load_suite_with(
    pool: &pool::Pool,
    cache: Option<&Cache>,
    opt_level: u8,
) -> Vec<ProgramData> {
    // Worker threads carry their own span stacks, so per-program
    // spans show up as overlapping roots; this span is the wall-clock
    // envelope of the whole fan-out.
    let _sp = obs::span("bench.load_suite");
    let benches = suite::all();
    struct Slot {
        program: Option<Program>,
        profiles: Vec<Option<Profile>>,
    }
    let mut slots: Vec<Slot> = benches
        .iter()
        .map(|b| {
            let mut profiles = Vec::new();
            profiles.resize_with(b.inputs().len(), || None);
            Slot {
                program: None,
                profiles,
            }
        })
        .collect();
    pool.scope(|s| {
        for (&bench, slot) in benches.iter().zip(slots.iter_mut()) {
            s.spawn(move |s| {
                // Split the slot borrow so the program half stays here
                // while each profile half moves into an input task.
                let Slot { program, profiles } = slot;
                let compiled_program = bench
                    .compile()
                    .unwrap_or_else(|e| panic!("{}: {}", bench.name, e.render(bench.source)));
                let cp = profiler::compile(&compiled_program);
                let compiled = if opt_level == 0 {
                    store_bytecode_meta(bench, &cp, cache);
                    cp
                } else {
                    let ranking = estimators::ranking::StaticRanking::new(&compiled_program);
                    let plan = plan_from_ranking(&ranking, &cp, opt_level, cp.funcs.len());
                    opt::optimize(&cp, &plan).0
                };
                let compiled = Arc::new(compiled);
                *program = Some(compiled_program);
                for (prof_slot, input) in profiles.iter_mut().zip(bench.inputs()) {
                    let compiled = Arc::clone(&compiled);
                    s.spawn(move |_| {
                        *prof_slot = Some(profile_one(bench, &compiled, opt_level, input, cache));
                    });
                }
                obs::counter_add("bench.programs", 1);
            });
        }
    });
    benches
        .into_iter()
        .zip(slots)
        .map(|(bench, slot)| {
            let profiles: Vec<Profile> = slot
                .profiles
                .into_iter()
                .map(|p| p.expect("pool task filled its profile slot"))
                .collect();
            obs::counter_add("bench.profiles", profiles.len() as u64);
            ProgramData {
                bench,
                program: slot.program.expect("compile task filled its slot"),
                profiles,
            }
        })
        .collect()
}

/// The `strchr` running example used by Table 2 and Figures 1/3/6/7.
pub const STRCHR_EXAMPLE: &str = r#"
char *strchr(char *str, int c) {
    while (*str) {
        if (*str == c) return str;
        str++;
    }
    return 0;
}

char buf[4];

int main(void) {
    buf[0] = 'a'; buf[1] = 'b'; buf[2] = 'c'; buf[3] = '\0';
    strchr(buf, 'a');
    strchr(buf, 'b');
    return 0;
}
"#;

/// The Figure 8 recursion pathology.
pub const COUNT_NODES_EXAMPLE: &str = r#"
struct tree_node { struct tree_node *left; struct tree_node *right; };

int count_nodes(struct tree_node *node) {
    if (node == 0) return 0;
    else return count_nodes(node->left) + count_nodes(node->right) + 1;
}

int main(void) { return count_nodes(0); }
"#;

/// Table 2: the weight-matching worked example.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-block (actual, estimated) counts for strchr, in block order.
    pub rows: Vec<(f64, f64)>,
    /// Score at the 20% cutoff.
    pub score_20: f64,
    /// Score at the 60% cutoff.
    pub score_60: f64,
}

/// Computes Table 2 from an actual run of the strchr example.
pub fn table2() -> Table2 {
    let module = minic::compile(STRCHR_EXAMPLE).expect("strchr example compiles");
    let program = flowgraph::build_program(module);
    let out = profiler::run(&program, &RunConfig::default()).expect("runs");
    let f = program.function_id("strchr").expect("strchr exists");
    let actual: Vec<f64> = out.profile.blocks_of(f).iter().map(|&c| c as f64).collect();
    let est = estimators::intra::estimate_function(&program, f, IntraEstimator::Smart);
    let rows = actual.iter().copied().zip(est.iter().copied()).collect();
    Table2 {
        rows,
        score_20: estimators::weight_matching(&est, &actual, 0.2),
        score_60: estimators::weight_matching(&est, &actual, 0.6),
    }
}

/// Figure 2 rows: per-program miss rates plus the dynamic fraction of
/// control transfers that are `switch` dispatches (the paper excludes
/// switches, noting they are "less than 3% of dynamic branches").
pub fn fig2(suite_data: &[ProgramData]) -> Vec<(&'static str, MissRates, f64)> {
    suite_data
        .iter()
        .map(|d| {
            let preds = estimators::predict_module(&d.program.module);
            let rates = miss_rates(&d.program.module, &preds, &d.profiles);
            // Dynamic switch executions = executions of blocks ending
            // in a Switch terminator.
            let mut switch_execs = 0u64;
            for p in &d.profiles {
                for f in d.program.defined_ids() {
                    let cfg = d.program.cfg(f);
                    for b in &cfg.blocks {
                        if matches!(b.term, flowgraph::Terminator::Switch { .. }) {
                            switch_execs += p.blocks_of(f)[b.id.0 as usize];
                        }
                    }
                }
            }
            let total = rates.dynamic_branches + switch_execs;
            let frac = if total > 0 {
                switch_execs as f64 / total as f64
            } else {
                0.0
            };
            (d.bench.name, rates, frac)
        })
        .collect()
}

/// Figure 8 data: the pathological self-arc weight and the repaired
/// invocation estimate for `count_nodes`.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// The raw self-arc weight (the paper derives 1.6).
    pub self_arc_weight: f64,
    /// The Markov estimate after repair.
    pub repaired_estimate: f64,
}

/// Computes Figure 8's numbers.
pub fn fig8() -> Fig8 {
    let module = minic::compile(COUNT_NODES_EXAMPLE).expect("example compiles");
    let program = flowgraph::build_program(module);
    let ia = estimate_program(&program, IntraEstimator::Smart);
    let local = estimators::inter::local_site_freqs(&program, &ia);
    let cn = program.function_id("count_nodes").expect("exists");
    let self_arc_weight: f64 = program
        .callgraph
        .direct
        .iter()
        .filter(|a| a.caller == cn && a.callee == Some(cn))
        .map(|a| local[&a.site.0])
        .sum();
    let ie = estimate_invocations(&program, &ia, InterEstimator::Markov);
    Fig8 {
        self_arc_weight,
        repaired_estimate: ie.of(cn),
    }
}

/// Figure 10: selective optimization of compress.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// The x axis: number of functions optimized.
    pub ks: Vec<usize>,
    /// Speedups per ordering: (label, speedup per k).
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Function names in the static (Markov) rank order.
    pub static_order: Vec<String>,
}

/// Runs the Figure 10 experiment: optimize the top-k functions of
/// compress under three orderings, measure on a held-out input.
pub fn fig10() -> Fig10 {
    let bench = suite::by_name("compress").expect("compress in suite");
    let program = bench.compile().expect("compiles");
    let profiles = bench.profiles(&program).expect("runs");

    // The held-out measurement input (not among the standard four).
    let holdout: Vec<u8> = {
        let mut text = String::new();
        for i in 0..220 {
            text.push_str(&format!(
                "packet {} from node{} flags={:x} crc={:x}\n",
                i * 37 % 1000,
                i % 13,
                (i * 2654435761u64) & 0xFF,
                (i * 40503) & 0xFFFF,
            ));
        }
        text.into_bytes()
    };
    let measured = profiler::run(&program, &RunConfig::with_input(holdout))
        .expect("holdout runs")
        .profile;

    let funcs = program.defined_ids();
    let rank = |score: &dyn Fn(FuncId) -> f64| -> Vec<FuncId> {
        let mut order = funcs.clone();
        order.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then(a.cmp(&b)));
        order
    };

    // (a) static Markov estimate of function invocations.
    let ia = estimate_program(&program, IntraEstimator::Smart);
    let ie = estimate_invocations(&program, &ia, InterEstimator::Markov);
    let static_order = rank(&|f| ie.of(f));
    // (b) the first profile.
    let first = &profiles[0];
    let profile_order = rank(&|f| first.calls_of(f) as f64);
    // (c) the normalized aggregate of the remaining profiles.
    let rest: Vec<&Profile> = profiles[1..].iter().collect();
    let agg = profiler::aggregate(&rest);
    let agg_order = rank(&|f| agg.func_freqs[f.0 as usize]);

    let ks: Vec<usize> = (0..=6).chain([funcs.len()]).collect();
    let speedups = |order: &[FuncId]| -> Vec<f64> {
        ks.iter()
            .map(|&k| {
                let set: HashSet<FuncId> = order.iter().take(k).copied().collect();
                profiler::cost::speedup(&measured, &set)
            })
            .collect()
    };

    Fig10 {
        ks: ks.clone(),
        series: vec![
            ("estimate", speedups(&static_order)),
            ("profile", speedups(&profile_order)),
            ("aggregate", speedups(&agg_order)),
        ],
        static_order: static_order
            .iter()
            .map(|&f| program.module.function(f).name.clone())
            .collect(),
    }
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

/// Figure 10 with *measured* speedups: the optimizer actually runs.
#[derive(Debug, Clone)]
pub struct Fig10Measured {
    /// One result per program in [`FIG10_PROGRAMS`].
    pub programs: Vec<Fig10Program>,
}

/// Builds an [`opt::OptPlan`] that budgets the `k` hottest functions
/// of `ranking` and steers every frequency-guided pass with the
/// ranking's block and call-site frequencies.
pub fn plan_from_ranking(
    ranking: &dyn estimators::ranking::Ranking,
    cp: &CompiledProgram,
    level: u8,
    k: usize,
) -> opt::OptPlan {
    let mut budgeted = vec![false; cp.funcs.len()];
    for f in ranking.func_order().into_iter().take(k) {
        budgeted[f.0 as usize] = true;
    }
    opt::OptPlan {
        level,
        budgeted,
        block_freqs: ranking.block_freqs(),
        site_freqs: ranking.site_freqs(),
        inline_budget: opt::default_inline_budget(cp),
    }
}

/// Runs the measured Fig 10 experiment for one suite program at the
/// standard budgets: 0 through 6 functions, then all of them.
///
/// # Panics
///
/// As [`fig10_measured_one`].
pub fn fig10_measured_program(name: &'static str) -> Fig10Program {
    let program = suite::by_name(name)
        .expect("suite program")
        .compile()
        .expect("compiles");
    let ks: Vec<usize> = (0..=6).chain([program.defined_ids().len()]).collect();
    fig10_measure(name, program, &ks, true)
}

/// Runs the measured Fig 10 experiment for one suite program.
///
/// The last standard input is held out for measurement; the rest are
/// the training set for the "profile" ranking. Each optimized run is
/// checked byte-identical to the unoptimized baseline. Each distinct
/// optimized image runs once: a cell whose image has the same
/// [`CompiledProgram::ir_fingerprint`] as the baseline (every k = 0
/// cell) or as an earlier cell reuses that run's steps and wall time.
///
/// # Panics
///
/// Panics if the program fails to run or an optimized run diverges
/// from the baseline output — both indicate optimizer bugs.
pub fn fig10_measured_one(name: &'static str, ks: &[usize]) -> Fig10Program {
    let program = suite::by_name(name)
        .expect("suite program")
        .compile()
        .expect("compiles");
    fig10_measure(name, program, ks, true)
}

/// [`fig10_measured_one`] on a compiled `program`; `reuse: false` runs
/// every cell, even repeated images (the reference the smoke test
/// checks reuse against).
fn fig10_measure(name: &'static str, program: Program, ks: &[usize], reuse: bool) -> Fig10Program {
    let _sp = obs::span("bench.fig10_measured");
    let bench = suite::by_name(name).expect("suite program");
    let cp = profiler::compile(&program);

    let mut inputs = bench.inputs();
    let holdout = inputs.pop().expect("suite programs have inputs");
    let holdout_cfg = RunConfig::with_input(holdout);
    let t0 = std::time::Instant::now();
    let baseline = cp
        .execute(&holdout_cfg, &mut ExecScratch::default(), None)
        .expect("holdout runs");
    let baseline_ms = t0.elapsed().as_secs_f64() * 1e3;

    let training: Vec<Profile> = inputs
        .into_iter()
        .map(|input| {
            cp.execute(
                &RunConfig::with_input(input),
                &mut ExecScratch::default(),
                None,
            )
            .expect("training input runs")
            .profile
        })
        .collect();
    let training_refs: Vec<&Profile> = training.iter().collect();

    let st = estimators::ranking::StaticRanking::new(&program);
    let pr = estimators::ranking::ProfileRanking::measured(&program, &training_refs);
    let or = estimators::ranking::ProfileRanking::oracle(&program, &baseline.profile);
    let rankings: [&dyn estimators::ranking::Ranking; 3] = [&st, &pr, &or];

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
                let plan = plan_from_ranking(*ranking, &cp, 3, k);
                let (ocp, _stats) = opt::optimize(&cp, &plan);
                let fingerprint = ocp.ir_fingerprint();
                let (s, ms) = match runs.get(&fingerprint) {
                    Some(&run) => run,
                    None => {
                        let t0 = std::time::Instant::now();
                        let out = ocp
                            .execute(&opt_cfg, &mut ExecScratch::default(), None)
                            .expect("optimized holdout runs");
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        assert_eq!(
                            out.output,
                            baseline.output,
                            "{name} @ {} k={k}: optimized output diverged",
                            ranking.name()
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
                ranking: ranking.name(),
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
        static_order: st
            .func_order()
            .iter()
            .map(|&f| program.module.function(f).name.clone())
            .collect(),
        curves,
    }
}

/// The full measured Fig 10: every program in [`FIG10_PROGRAMS`] at
/// the standard budgets.
pub fn fig10_measured() -> Fig10Measured {
    let programs = FIG10_PROGRAMS
        .iter()
        .map(|&name| fig10_measured_program(name))
        .collect();
    Fig10Measured { programs }
}

/// Ablation results for the design choices DESIGN.md calls out.
#[derive(Debug, Clone, Default)]
pub struct Ablation {
    /// Suite-average miss rate of the full predictor.
    pub full_miss: f64,
    /// `(heuristic, miss rate without it)`, suite-averaged.
    pub heuristic_miss: Vec<(&'static str, f64)>,
    /// `(loop count, Figure 4 smart average)` for the loop-guess sweep.
    pub loop_sweep: Vec<(f64, f64)>,
    /// `(confidence, Figure 4 smart average)` for the paper's footnote
    /// 5 ("the exact value chosen did not have a significant effect").
    pub confidence_sweep: Vec<(f64, f64)>,
    /// Figure 4 averages for (smart, Markov@0.8, Markov calibrated) —
    /// the §5.1 open question about probability-emitting predictors.
    pub calibrated: [f64; 3],
}

/// Runs every ablation over the profiled suite.
pub fn ablation(suite_data: &[ProgramData]) -> Ablation {
    use estimators::branch::{predict_module_with, Heuristic, PredictorConfig};
    use estimators::intra::{estimate_program_with, IntraOptions};
    use estimators::missrate::miss_rates;

    let avg_miss = |config: &PredictorConfig| -> f64 {
        let mut sum = 0.0;
        for d in suite_data {
            let preds = predict_module_with(&d.program.module, config);
            sum += miss_rates(&d.program.module, &preds, &d.profiles).static_pred;
        }
        sum / suite_data.len() as f64
    };
    let avg_intra = |options: &IntraOptions, which: IntraEstimator| -> f64 {
        let mut sum = 0.0;
        for d in suite_data {
            let est = estimate_program_with(&d.program, which, options);
            sum += eval::intra_score(&d.program, &est, &d.profiles, 0.05);
        }
        sum / suite_data.len() as f64
    };

    let full_miss = avg_miss(&PredictorConfig::default());
    let heuristic_miss = [
        ("pointer", Heuristic::Pointer),
        ("error-call", Heuristic::ErrorCall),
        ("store-use", Heuristic::StoreUse),
        ("and-chain", Heuristic::AndChain),
        ("opcode", Heuristic::Opcode),
    ]
    .into_iter()
    .map(|(name, h)| (name, avg_miss(&PredictorConfig::without(h))))
    .collect();

    let loop_sweep = [2.0, 3.0, 5.0, 8.0, 16.0]
        .into_iter()
        .map(|lc| {
            let options = IntraOptions {
                loop_count: lc,
                ..IntraOptions::default()
            };
            (lc, avg_intra(&options, IntraEstimator::Smart))
        })
        .collect();

    let confidence_sweep = [0.6, 0.7, 0.8, 0.9, 0.95]
        .into_iter()
        .map(|conf| {
            let options = IntraOptions {
                predictor: PredictorConfig {
                    confidence: conf,
                    ..PredictorConfig::default()
                },
                ..IntraOptions::default()
            };
            (conf, avg_intra(&options, IntraEstimator::Smart))
        })
        .collect();

    let calibrated_options = IntraOptions {
        predictor: PredictorConfig {
            calibrated: true,
            ..PredictorConfig::default()
        },
        ..IntraOptions::default()
    };
    let calibrated = [
        avg_intra(&IntraOptions::default(), IntraEstimator::Smart),
        avg_intra(&IntraOptions::default(), IntraEstimator::Markov),
        avg_intra(&calibrated_options, IntraEstimator::Markov),
    ];

    Ablation {
        full_miss,
        heuristic_miss,
        loop_sweep,
        confidence_sweep,
        calibrated,
    }
}

/// Extension results: trip-count refinement and whole-program rankings.
#[derive(Debug, Clone, Default)]
pub struct Extensions {
    /// `(program, smart score, smart+trip score, recognized loops)` —
    /// Figure 4 methodology with the §4.1 trip-count refinement.
    pub trip_rows: Vec<(&'static str, f64, f64, usize)>,
    /// `(program, global block score, global arc score)` at 25% — the
    /// abstract's "estimates for the entire program".
    pub global_rows: Vec<(&'static str, f64, f64)>,
}

/// Runs the extension experiments over the profiled suite.
pub fn extensions(suite_data: &[ProgramData]) -> Extensions {
    use estimators::intra::{estimate_program_with, IntraOptions};

    let mut trip_rows = Vec::new();
    let mut global_rows = Vec::new();
    for d in suite_data {
        let smart = estimate_program(&d.program, IntraEstimator::Smart);
        let trip_options = IntraOptions {
            trip_counts: true,
            ..IntraOptions::default()
        };
        let smart_trip = estimate_program_with(&d.program, IntraEstimator::Smart, &trip_options);
        let recognized = estimators::tripcount::trip_counts(&d.program.module).len();
        trip_rows.push((
            d.bench.name,
            eval::intra_score(&d.program, &smart, &d.profiles, 0.05),
            eval::intra_score(&d.program, &smart_trip, &d.profiles, 0.05),
            recognized,
        ));

        let ie = estimate_invocations(&d.program, &smart, InterEstimator::Markov);
        global_rows.push((
            d.bench.name,
            estimators::global::global_block_score(&d.program, &smart, &ie, &d.profiles, 0.25),
            estimators::global::global_arc_score(&d.program, &smart, &ie, &d.profiles, 0.25),
        ));
    }
    Extensions {
        trip_rows,
        global_rows,
    }
}

/// Column means over a table of per-program score rows.
pub fn averages<const N: usize>(rows: &[(&'static str, [f64; N])]) -> [f64; N] {
    let mut out = [0.0; N];
    if rows.is_empty() {
        return out;
    }
    for (_, r) in rows {
        for (o, v) in out.iter_mut().zip(r.iter()) {
            *o += v;
        }
    }
    for o in out.iter_mut() {
        *o /= rows.len() as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Developer tool, not a check: dumps the frequency-weighted op
    /// digrams the superinstruction miner ranks, for the Fig 10
    /// programs under their static plans. Run with
    /// `cargo test -p bench --release digram_dump -- --ignored --nocapture`.
    #[test]
    #[ignore = "diagnostic dump for mined-superinstruction selection"]
    fn digram_dump() {
        for name in FIG10_PROGRAMS {
            let bench = suite::by_name(name).expect("suite program");
            let program = bench.compile().expect("compiles");
            let cp = profiler::compile(&program);
            let st = estimators::ranking::StaticRanking::new(&program);
            let plan = plan_from_ranking(&st, &cp, 3, cp.funcs.len());
            println!("== {name}");
            for (pair, w) in opt::digram_stats(&cp, &plan).into_iter().take(20) {
                println!("  {w:>14.0}  {pair}");
            }
        }
    }

    #[test]
    fn table2_matches_the_paper() {
        let t = table2();
        assert_eq!(t.rows.len(), 5, "strchr has five blocks");
        // 100% at 20%, 7/8 = 88% at 60% (the paper's scores).
        assert!((t.score_20 - 1.0).abs() < 1e-9, "{t:?}");
        assert!((t.score_60 - 7.0 / 8.0).abs() < 1e-9, "{t:?}");
        // Actual totals: while 3, if 3, return1 2, incr 1, return2 0.
        let mut actual: Vec<f64> = t.rows.iter().map(|r| r.0).collect();
        actual.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(actual, vec![0.0, 1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn fig8_matches_the_paper() {
        let f = fig8();
        assert!((f.self_arc_weight - 1.6).abs() < 1e-9, "{f:?}");
        assert!(f.repaired_estimate > 0.0 && f.repaired_estimate.is_finite());
    }

    #[test]
    fn ablation_and_extensions_are_sane_on_a_subset() {
        let subset: Vec<ProgramData> = ["alvinn", "cc", "awk"]
            .iter()
            .map(|n| load_program(suite::by_name(n).unwrap()))
            .collect();

        let a = ablation(&subset);
        assert!(a.full_miss > 0.0 && a.full_miss < 1.0);
        assert_eq!(a.heuristic_miss.len(), 5);
        for (_, miss) in &a.heuristic_miss {
            assert!((0.0..=1.0).contains(miss));
        }
        assert_eq!(a.loop_sweep.len(), 5);
        assert_eq!(a.confidence_sweep.len(), 5);
        for (_, score) in a.loop_sweep.iter().chain(&a.confidence_sweep) {
            assert!((0.0..=1.0).contains(score));
        }

        let e = extensions(&subset);
        assert_eq!(e.trip_rows.len(), 3);
        let alvinn = e.trip_rows.iter().find(|r| r.0 == "alvinn").unwrap();
        assert!(alvinn.3 > 10, "alvinn is all constant-bound loops");
        // Trip counts never hurt alvinn.
        assert!(alvinn.2 >= alvinn.1 - 1e-9);
        for (_, blocks, arcs) in &e.global_rows {
            assert!((0.0..=1.0).contains(blocks));
            assert!((0.0..=1.0).contains(arcs));
        }
    }

    #[test]
    fn fig2_switch_fraction_is_small() {
        // The paper: switches are "less than 3% of dynamic branches on
        // average". Check on the switch-heaviest programs.
        let subset: Vec<ProgramData> = ["cc", "gs"]
            .iter()
            .map(|n| load_program(suite::by_name(n).unwrap()))
            .collect();
        for (name, rates, frac) in fig2(&subset) {
            assert!(rates.dynamic_branches > 0, "{name}");
            assert!((0.0..0.25).contains(&frac), "{name}: switch frac {frac}");
        }
    }

    #[test]
    fn fig10_measured_smoke() {
        // The CI smoke: compress at three budget points. Static-ranked
        // speedup must land within 10% of profile-ranked at every
        // point, and the full budget must clear the 1.90x bar
        // (measured 1.96x; ~3% margin for op-stream jitter).
        let p = fig10_measured_one("compress", &[0, 4, 16]);
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
        let program = suite::by_name("compress").unwrap().compile().unwrap();
        let reference = fig10_measure("compress", program, &[0, 4, 16], false);
        assert_eq!(reference.baseline_steps, p.baseline_steps);
        for (r, c) in reference.curves.iter().zip(&p.curves) {
            assert_eq!((r.ranking, &r.steps), (c.ranking, &c.steps));
        }
    }

    #[test]
    fn fig10_static_finds_the_hot_functions() {
        let f = fig10();
        // The top-4 static picks should include the hot four; compress
        // is dominated by next_byte/find_code/emit_code/compress_stream
        // (hash_pair and put_byte are also hot contenders).
        let hot = [
            "next_byte",
            "find_code",
            "emit_code",
            "compress_stream",
            "hash_pair",
            "put_byte",
        ];
        let top: Vec<&str> = f.static_order.iter().take(4).map(|s| s.as_str()).collect();
        for name in &top {
            assert!(hot.contains(name), "unexpected hot pick {name}: {top:?}");
        }
        // Speedup grows monotonically-ish and optimizing everything
        // beats optimizing nothing.
        for (_, s) in &f.series {
            assert!((s[0] - 1.0).abs() < 1e-9);
            assert!(s[s.len() - 1] > 1.5, "{s:?}");
        }
    }
}
