//! The differential oracles.
//!
//! [`check_source`] runs one MiniC program through seven independent
//! cross-checks; any disagreement is a bug in (at least) one of the
//! crates under test:
//!
//! 1. **Round trip** — parse → pretty-print → reparse → reprint must be
//!    a fixpoint (`print(parse(print(parse(src)))) == print(parse(src))`),
//!    the reprinted program must still compile, and it must behave
//!    exactly like the original (exit code and output).
//! 2. **VM vs AST walker** — `profiler::run` (bytecode VM) and
//!    `profiler::run_ast` (tree-walking reference) must agree on exit
//!    code, output, step count, and the *entire* profile.
//! 3. **Sparse vs dense solver** — the flow system derived from each
//!    CFG with uniform branch splits must solve to the same answer via
//!    `FlowSystem::solve` (sparse SCC path) and `solve_dense`; a
//!    *closed* variant (a weight-1 back edge from every return block to
//!    the entry) is intentionally singular and must still return
//!    finite, non-negative frequencies from both paths' damped
//!    fallbacks.
//! 4. **Structural invariants** — the measured profile must conserve
//!    flow through every CFG block (inflow + entry injection = count =
//!    outflow), branch taken/not-taken totals must match the counts of
//!    the blocks owning each branch, and call-site counts must be
//!    consistent with function invocation counts.
//! 5. **Estimator sanity** — every intra and inter estimator must
//!    produce finite, non-negative, run-to-run deterministic estimates.
//! 6. **Optimizer equivalence** — the program optimized at `-O3` with
//!    every function budgeted must produce the same exit code, output
//!    bytes, and *count* profile counters (blocks, edges, branches,
//!    call sites, function entries) as the unoptimized VM. Only
//!    `steps` and `func_cost` — the quantities the optimizer exists to
//!    change — are excluded. Both the compiled and the optimized
//!    bytecode must also pass `profiler::bytecode::verify`.
//! 7. **Reuse agreement** — the static reuse estimate must be finite,
//!    non-negative, and normalized (mass sums to 1, or is all-zero
//!    when the program touches no traced memory); the exact reuse
//!    trace must be bit-identical between the bytecode VM and the AST
//!    walker, invariant under merge order (the property pool fan-out
//!    relies on), and collecting it must not perturb the frequency
//!    profile, step count, or output of the run.

use flowgraph::{Program, Terminator};
use linsolve::FlowSystem;
use minic::sema::CalleeKind;
use profiler::{ExecScratch, Profile, RunConfig, RunOutcome};

/// Limits for one differential check.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Step budget per interpreter run (generated programs are
    /// fuel-bounded far below this; hitting it is itself a failure).
    pub max_steps: u64,
    /// Call-depth budget.
    pub max_call_depth: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_steps: 30_000_000,
            max_call_depth: 10_000,
        }
    }
}

/// Which oracle rejected the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The program did not compile (a generator bug, or a front-end
    /// regression on valid input).
    Compile,
    /// Oracle 1: pretty-print round trip.
    RoundTrip,
    /// Oracle 2: VM vs AST-walker disagreement.
    VmMismatch,
    /// Oracle 3: sparse vs dense solver disagreement.
    SolverMismatch,
    /// Oracle 4: a profile/CFG structural invariant does not hold.
    Invariant,
    /// Oracle 5: estimator produced NaN/∞/negative or non-deterministic
    /// output.
    Estimator,
    /// Oracle 6: the optimized program diverged from the unoptimized
    /// VM (output, exit state, or a count profile counter).
    OptMismatch,
    /// Oracle 7: the static reuse estimate is malformed, or the exact
    /// reuse traces of the VM and the AST walker disagree, or tracing
    /// perturbed the run.
    ReuseMismatch,
    /// The program faulted at runtime (generated programs are total by
    /// construction, so this is a generator or interpreter bug).
    Runtime,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Compile => "compile",
            FailureKind::RoundTrip => "round-trip",
            FailureKind::VmMismatch => "vm-mismatch",
            FailureKind::SolverMismatch => "solver-mismatch",
            FailureKind::Invariant => "invariant",
            FailureKind::Estimator => "estimator",
            FailureKind::OptMismatch => "opt-mismatch",
            FailureKind::ReuseMismatch => "reuse-mismatch",
            FailureKind::Runtime => "runtime",
        };
        f.write_str(s)
    }
}

/// A rejected program.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle fired.
    pub kind: FailureKind,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl Failure {
    fn new(kind: FailureKind, detail: impl Into<String>) -> Self {
        Failure {
            kind,
            detail: detail.into(),
        }
    }
}

/// Summary statistics of one passing check (used by the CLI to show
/// that the corpus actually exercises the surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Interpreter steps of the profiling run.
    pub steps: u64,
    /// Defined functions.
    pub funcs: usize,
    /// Total CFG blocks.
    pub blocks: usize,
    /// Bytes of program output.
    pub output_len: usize,
}

/// Runs all seven oracles over `src`. Returns summary statistics on
/// success and the first disagreement otherwise.
pub fn check_source(src: &str, config: &CheckConfig) -> Result<CheckStats, Failure> {
    // Compile (front end under test).
    let module =
        minic::compile(src).map_err(|e| Failure::new(FailureKind::Compile, e.render(src)))?;

    // Oracle 1: pretty-print round trip.
    round_trip(src, config)?;

    // Oracle 2: VM vs AST walker.
    let program = flowgraph::build_program(module);
    let run_config = RunConfig {
        input: Vec::new(),
        max_steps: config.max_steps,
        max_call_depth: config.max_call_depth,
    };
    let vm = profiler::run(&program, &run_config)
        .map_err(|e| Failure::new(FailureKind::Runtime, format!("vm: {e:?}")))?;
    let ast = profiler::run_ast(&program, &run_config)
        .map_err(|e| Failure::new(FailureKind::Runtime, format!("run_ast: {e:?}")))?;
    compare_outcomes(&vm, &ast)?;

    // Oracle 4 before 3: the invariants also validate the profile the
    // solver comparison's block counts are sanity-checked against.
    profile_invariants(&program, &vm.profile)?;

    // Oracle 3: sparse vs dense flow solving on CFG-derived systems.
    solver_agreement(&program)?;

    // Oracle 5: estimator sanity.
    estimator_sanity(&program)?;

    // Oracle 6: the optimizing backend against the unoptimized run.
    optimizer_equivalence(&program, &vm, &run_config)?;

    // Oracle 7: the reuse estimator and the exact tracing mode.
    reuse_agreement(&program, &vm, &run_config)?;

    Ok(CheckStats {
        steps: vm.steps,
        funcs: program.cfgs.iter().flatten().count(),
        blocks: program.cfgs.iter().flatten().map(|c| c.blocks.len()).sum(),
        output_len: vm.output.len(),
    })
}

// ---------------------------------------------------------------------
// Oracle 1: round trip
// ---------------------------------------------------------------------

fn round_trip(src: &str, config: &CheckConfig) -> Result<(), Failure> {
    let unit1 =
        minic::parser::parse(src).map_err(|e| Failure::new(FailureKind::Compile, e.render(src)))?;
    let printed1 = minic::pretty::print_unit(&unit1);
    let unit2 = minic::parser::parse(&printed1).map_err(|e| {
        Failure::new(
            FailureKind::RoundTrip,
            format!(
                "pretty output fails to reparse: {}\n--- printed ---\n{printed1}",
                e.render(&printed1)
            ),
        )
    })?;
    let printed2 = minic::pretty::print_unit(&unit2);
    if printed1 != printed2 {
        let diff = first_diff_line(&printed1, &printed2);
        return Err(Failure::new(
            FailureKind::RoundTrip,
            format!("print(reparse(print(src))) is not a fixpoint:\n{diff}"),
        ));
    }
    // Behavioral equivalence of the reprinted program.
    let m1 = minic::compile(src).map_err(|e| Failure::new(FailureKind::Compile, e.render(src)))?;
    let m2 = minic::compile(&printed1).map_err(|e| {
        Failure::new(
            FailureKind::RoundTrip,
            format!("pretty output fails sema: {}", e.render(&printed1)),
        )
    })?;
    let run_config = RunConfig {
        input: Vec::new(),
        max_steps: config.max_steps,
        max_call_depth: config.max_call_depth,
    };
    let p1 = flowgraph::build_program(m1);
    let p2 = flowgraph::build_program(m2);
    let r1 = profiler::run(&p1, &run_config)
        .map_err(|e| Failure::new(FailureKind::Runtime, format!("original: {e:?}")))?;
    let r2 = profiler::run(&p2, &run_config).map_err(|e| {
        Failure::new(
            FailureKind::RoundTrip,
            format!("reprinted program faults: {e:?}"),
        )
    })?;
    if r1.exit_code != r2.exit_code || r1.output != r2.output {
        return Err(Failure::new(
            FailureKind::RoundTrip,
            format!(
                "reprinted program behaves differently: exit {} vs {}, output {:?} vs {:?}",
                r1.exit_code,
                r2.exit_code,
                String::from_utf8_lossy(&r1.output),
                String::from_utf8_lossy(&r2.output),
            ),
        ));
    }
    Ok(())
}

fn first_diff_line(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}:\n  first : {la}\n  second: {lb}", i + 1);
        }
    }
    format!(
        "line counts differ: {} vs {}",
        a.lines().count(),
        b.lines().count()
    )
}

// ---------------------------------------------------------------------
// Oracle 2: VM vs AST walker
// ---------------------------------------------------------------------

fn compare_outcomes(vm: &RunOutcome, ast: &RunOutcome) -> Result<(), Failure> {
    if vm.exit_code != ast.exit_code {
        return Err(Failure::new(
            FailureKind::VmMismatch,
            format!("exit code: vm {} vs ast {}", vm.exit_code, ast.exit_code),
        ));
    }
    if vm.output != ast.output {
        return Err(Failure::new(
            FailureKind::VmMismatch,
            format!(
                "output: vm {:?} vs ast {:?}",
                String::from_utf8_lossy(&vm.output),
                String::from_utf8_lossy(&ast.output)
            ),
        ));
    }
    if vm.steps != ast.steps {
        return Err(Failure::new(
            FailureKind::VmMismatch,
            format!("steps: vm {} vs ast {}", vm.steps, ast.steps),
        ));
    }
    if vm.profile != ast.profile {
        return Err(Failure::new(
            FailureKind::VmMismatch,
            profile_diff(&vm.profile, &ast.profile),
        ));
    }
    Ok(())
}

fn profile_diff(vm: &Profile, ast: &Profile) -> String {
    if vm.block_counts != ast.block_counts {
        for (f, (a, b)) in vm.block_counts.iter().zip(&ast.block_counts).enumerate() {
            if a != b {
                return format!("profile block_counts differ in func {f}: vm {a:?} vs ast {b:?}");
            }
        }
    }
    if vm.branch_counts != ast.branch_counts {
        return format!(
            "profile branch_counts differ: vm {:?} vs ast {:?}",
            vm.branch_counts, ast.branch_counts
        );
    }
    if vm.call_site_counts != ast.call_site_counts {
        return format!(
            "profile call_site_counts differ: vm {:?} vs ast {:?}",
            vm.call_site_counts, ast.call_site_counts
        );
    }
    if vm.func_counts != ast.func_counts {
        return format!(
            "profile func_counts differ: vm {:?} vs ast {:?}",
            vm.func_counts, ast.func_counts
        );
    }
    if vm.edge_counts != ast.edge_counts {
        return "profile edge_counts differ".to_string();
    }
    "profile func_cost differs".to_string()
}

// ---------------------------------------------------------------------
// Oracle 4: structural invariants
// ---------------------------------------------------------------------

fn profile_invariants(program: &Program, profile: &Profile) -> Result<(), Failure> {
    let module = &program.module;
    for cfg in program.cfgs.iter().flatten() {
        let f = cfg.func;
        let fi = f.0 as usize;
        let counts = &profile.block_counts[fi];
        let invocations = profile.func_counts[fi];
        let name = &module.functions[fi].name;
        let preds = cfg.predecessors();

        // Flow conservation: inflow (+ entry injection) == count ==
        // outflow (for non-return blocks).
        for b in &cfg.blocks {
            let bi = b.id.0 as usize;
            let mut inflow: u64 = preds[bi]
                .iter()
                .map(|p| {
                    profile
                        .edge_counts
                        .get(&(f, *p, b.id))
                        .copied()
                        .unwrap_or(0)
                })
                .sum();
            if b.id == cfg.entry {
                inflow += invocations;
            }
            if inflow != counts[bi] {
                return Err(Failure::new(
                    FailureKind::Invariant,
                    format!(
                        "flow not conserved into {name} block {bi}: inflow {inflow} != count {}",
                        counts[bi]
                    ),
                ));
            }
            if !matches!(b.term, Terminator::Return(_)) {
                let outflow: u64 = cfg
                    .successors(b.id)
                    .iter()
                    .map(|s| {
                        profile
                            .edge_counts
                            .get(&(f, b.id, *s))
                            .copied()
                            .unwrap_or(0)
                    })
                    .sum();
                if outflow != counts[bi] {
                    return Err(Failure::new(
                        FailureKind::Invariant,
                        format!(
                            "flow not conserved out of {name} block {bi}: outflow {outflow} != count {}",
                            counts[bi]
                        ),
                    ));
                }
            }
        }

        // Every invocation leaves through exactly one return block.
        let returns: u64 = cfg
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Return(_)))
            .map(|b| counts[b.id.0 as usize])
            .sum();
        if returns != invocations {
            return Err(Failure::new(
                FailureKind::Invariant,
                format!("{name}: {invocations} invocations but {returns} returns"),
            ));
        }

        // Branch taken+not-taken totals match the owning blocks.
        let mut branch_expect: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        for b in &cfg.blocks {
            if let Terminator::Branch {
                branch: Some(bid), ..
            } = &b.term
            {
                *branch_expect.entry(bid.0).or_insert(0) += counts[b.id.0 as usize];
            }
        }
        for (bid, expect) in branch_expect {
            let (taken, not_taken) = profile.branch_counts[bid as usize];
            if taken + not_taken != expect {
                return Err(Failure::new(
                    FailureKind::Invariant,
                    format!(
                        "{name}: branch {bid} taken {taken} + not-taken {not_taken} != block count {expect}"
                    ),
                ));
            }
        }
    }

    // Call accounting: every user-function invocation is either the
    // initial call of `main` or comes through exactly one registered
    // call site (direct or indirect).
    let total_invocations: u64 = profile.func_counts.iter().sum();
    let mut from_sites: u64 = 0;
    for cs in &module.side.call_sites {
        match cs.callee {
            CalleeKind::Direct(_) | CalleeKind::Indirect => {
                from_sites += profile.call_site_counts[cs.id.0 as usize];
            }
            CalleeKind::Builtin(_) => {}
        }
    }
    if total_invocations != from_sites + 1 {
        return Err(Failure::new(
            FailureKind::Invariant,
            format!(
                "call accounting: {total_invocations} invocations != {from_sites} site executions + 1 (main)"
            ),
        ));
    }
    // Per-function strict accounting where indirect calls cannot reach
    // (the function's address is never taken).
    for func in &module.functions {
        let fi = func.id.0 as usize;
        if program.cfgs[fi].is_none() {
            continue;
        }
        if func.name == "main" {
            if profile.func_counts[fi] != 1 {
                return Err(Failure::new(
                    FailureKind::Invariant,
                    format!("main invoked {} times", profile.func_counts[fi]),
                ));
            }
            continue;
        }
        if module.side.address_taken.contains_key(&func.id) {
            continue;
        }
        let direct: u64 = program
            .callgraph
            .calls_to(func.id)
            .map(|arc| profile.call_site_counts[arc.site.0 as usize])
            .sum();
        if direct != profile.func_counts[fi] {
            return Err(Failure::new(
                FailureKind::Invariant,
                format!(
                    "{}: {} direct call-site executions but {} invocations (address never taken)",
                    func.name, direct, profile.func_counts[fi]
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Oracle 3: sparse vs dense solver
// ---------------------------------------------------------------------

fn solver_agreement(program: &Program) -> Result<(), Failure> {
    for cfg in program.cfgs.iter().flatten() {
        let name = &program.module.functions[cfg.func.0 as usize].name;
        let n = cfg.blocks.len();

        // Well-conditioned system: uniform split over successors.
        // Generated loops always keep a conditional exit inside every
        // cycle, so the spectral radius stays below 1 and both solver
        // paths must agree tightly.
        let mut sys = FlowSystem::new(n);
        sys.inject(cfg.entry.0 as usize, 1.0);
        for b in &cfg.blocks {
            let succs = cfg.successors(b.id);
            if succs.is_empty() {
                continue;
            }
            let w = 1.0 / succs.len() as f64;
            for s in succs {
                sys.add_arc(b.id.0 as usize, s.0 as usize, w);
            }
        }
        let sparse = sys.solve().map_err(|e| {
            Failure::new(
                FailureKind::SolverMismatch,
                format!("{name}: sparse solve failed on uniform system: {e:?}"),
            )
        })?;
        let dense = sys.solve_dense().map_err(|e| {
            Failure::new(
                FailureKind::SolverMismatch,
                format!("{name}: dense solve failed on uniform system: {e:?}"),
            )
        })?;
        for (i, (a, b)) in sparse.iter().zip(&dense).enumerate() {
            let tol = 1e-6 * a.abs().max(b.abs()).max(1.0);
            if (a - b).abs() > tol {
                return Err(Failure::new(
                    FailureKind::SolverMismatch,
                    format!("{name} block {i}: sparse {a} vs dense {b}"),
                ));
            }
        }

        // Closed stochastic variant: the uniform splits plus a weight-1
        // back edge from every return block to the entry. Out-weights
        // stay ≤ 1 (so damped solutions are provably non-negative), but
        // the reachable graph becomes one closed recurrent component and
        // `I − Wᵀ` goes singular — both paths must engage their damped
        // fallbacks and still produce finite, non-negative frequencies.
        // (A super-stochastic system — out-weight > 1 — would be the
        // wrong probe: its damped solution legitimately goes negative,
        // e.g. a weight-2 self loop solves to 1/(1 − 0.999·2) < 0.)
        let mut closed = FlowSystem::new(n);
        closed.inject(cfg.entry.0 as usize, 1.0);
        for b in &cfg.blocks {
            let succs = cfg.successors(b.id);
            if succs.is_empty() {
                closed.add_arc(b.id.0 as usize, cfg.entry.0 as usize, 1.0);
                continue;
            }
            let w = 1.0 / succs.len() as f64;
            for s in succs {
                closed.add_arc(b.id.0 as usize, s.0 as usize, w);
            }
        }
        for (path, result) in [("sparse", closed.solve()), ("dense", closed.solve_dense())] {
            let freqs = result.map_err(|e| {
                Failure::new(
                    FailureKind::SolverMismatch,
                    format!("{name}: {path} solve failed on closed singular system: {e:?}"),
                )
            })?;
            for (i, v) in freqs.iter().enumerate() {
                if !v.is_finite() || *v < 0.0 {
                    return Err(Failure::new(
                        FailureKind::SolverMismatch,
                        format!(
                            "{name} block {i}: {path} closed-system frequency {v} not finite/non-negative"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Oracle 6: optimizer equivalence
// ---------------------------------------------------------------------

/// Optimizes under two plans and demands byte-identical behavior from
/// each: the full `-O3` everything-budgeted configuration (the most
/// aggressive the pipeline supports), and a randomized plan — level,
/// per-function budget membership, inline budget, and block/site heat
/// all drawn from an RNG seeded by the program's IR fingerprint — so
/// partial-budget and skewed-heat decision paths are differentially
/// tested too. Count counters are compared individually; `steps` and
/// `func_cost` are the optimizer's outputs and are intentionally
/// excluded.
fn optimizer_equivalence(
    program: &Program,
    vm: &RunOutcome,
    run_config: &RunConfig,
) -> Result<(), Failure> {
    let cp = profiler::compile(program);
    verified(&cp, "compiled")?;
    let full = opt::OptPlan::full(&cp, 3);
    let randomized = random_plan(&cp);
    for (label, plan) in [("full -O3", &full), ("randomized", &randomized)] {
        plan_equivalence(&cp, plan, vm, run_config)
            .map_err(|f| Failure::new(f.kind, format!("{label} plan: {}", f.detail)))?;
    }
    Ok(())
}

/// A plan with every knob drawn from a deterministic RNG: random opt
/// level, a random subset of functions budgeted, a random slice of
/// the default inline budget, and random (even nonsensical: wrong
/// lengths, zero, skewed) heat vectors. Heat and budgets only steer
/// *which* transforms run — any draw must preserve behavior.
fn random_plan(cp: &profiler::bytecode::CompiledProgram) -> opt::OptPlan {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(cp.ir_fingerprint() as u64);
    let mut plan = opt::OptPlan::full(cp, rng.gen_range(1..=3u8));
    for b in plan.budgeted.iter_mut() {
        *b = *b && rng.gen_bool(0.7);
    }
    plan.inline_budget = rng.gen_range(0..=opt::default_inline_budget(cp).max(1));
    for freqs in plan.block_freqs.iter_mut() {
        let n = rng.gen_range(0..=8usize);
        *freqs = (0..n).map(|_| rng.gen_range(0..1_000u64) as f64).collect();
    }
    for s in plan.site_freqs.iter_mut() {
        *s = rng.gen_range(0..1_000u64) as f64;
    }
    plan
}

/// The bytecode invariants the VM's unchecked fast path relies on.
fn verified(cp: &profiler::bytecode::CompiledProgram, what: &str) -> Result<(), Failure> {
    profiler::bytecode::verify(cp).map_err(|e| {
        Failure::new(
            FailureKind::OptMismatch,
            format!("{what} bytecode fails verification: {e}"),
        )
    })
}

/// One plan's half of oracle 6.
fn plan_equivalence(
    cp: &profiler::bytecode::CompiledProgram,
    plan: &opt::OptPlan,
    vm: &RunOutcome,
    run_config: &RunConfig,
) -> Result<(), Failure> {
    let (ocp, _stats) = opt::optimize(cp, plan);
    verified(&ocp, "optimized")?;
    // Recosting changes the step count, so a run near the limit could
    // cross it in either direction; 4x headroom keeps the oracle about
    // semantics (the unoptimized run completed well under the limit).
    let opt_config = RunConfig {
        max_steps: run_config.max_steps.saturating_mul(4),
        ..run_config.clone()
    };
    let out = ocp
        .execute(&opt_config, &mut ExecScratch::default(), None)
        .map_err(|e| {
            Failure::new(
                FailureKind::OptMismatch,
                format!("optimized program faults: {e:?}"),
            )
        })?;
    if out.exit_code != vm.exit_code {
        return Err(Failure::new(
            FailureKind::OptMismatch,
            format!("exit code: opt {} vs vm {}", out.exit_code, vm.exit_code),
        ));
    }
    if out.output != vm.output {
        return Err(Failure::new(
            FailureKind::OptMismatch,
            format!(
                "output: opt {:?} vs vm {:?}",
                String::from_utf8_lossy(&out.output),
                String::from_utf8_lossy(&vm.output)
            ),
        ));
    }
    let opt_p = &out.profile;
    let vm_p = &vm.profile;
    if opt_p.block_counts != vm_p.block_counts {
        return Err(Failure::new(
            FailureKind::OptMismatch,
            format!(
                "block counts: opt {:?} vs vm {:?}",
                opt_p.block_counts, vm_p.block_counts
            ),
        ));
    }
    if opt_p.branch_counts != vm_p.branch_counts {
        return Err(Failure::new(
            FailureKind::OptMismatch,
            format!(
                "branch counts: opt {:?} vs vm {:?}",
                opt_p.branch_counts, vm_p.branch_counts
            ),
        ));
    }
    if opt_p.call_site_counts != vm_p.call_site_counts {
        return Err(Failure::new(
            FailureKind::OptMismatch,
            format!(
                "call-site counts: opt {:?} vs vm {:?}",
                opt_p.call_site_counts, vm_p.call_site_counts
            ),
        ));
    }
    if opt_p.func_counts != vm_p.func_counts {
        return Err(Failure::new(
            FailureKind::OptMismatch,
            format!(
                "func counts: opt {:?} vs vm {:?}",
                opt_p.func_counts, vm_p.func_counts
            ),
        ));
    }
    if opt_p.edge_counts != vm_p.edge_counts {
        return Err(Failure::new(
            FailureKind::OptMismatch,
            "edge counts differ".to_string(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Oracle 5: estimator sanity
// ---------------------------------------------------------------------

fn estimator_sanity(program: &Program) -> Result<(), Failure> {
    use estimators::inter::{estimate_invocations, InterEstimator};
    use estimators::intra::{estimate_program, IntraEstimator};

    let kinds = [
        IntraEstimator::Loop,
        IntraEstimator::Smart,
        IntraEstimator::Markov,
    ];
    let mut markov = None;
    for kind in kinds {
        let first = estimate_program(program, kind);
        let second = estimate_program(program, kind);
        for cfg in program.cfgs.iter().flatten() {
            let name = &program.module.functions[cfg.func.0 as usize].name;
            let a = first.blocks_of(cfg.func);
            let b = second.blocks_of(cfg.func);
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                if !x.is_finite() || *x < 0.0 {
                    return Err(Failure::new(
                        FailureKind::Estimator,
                        format!("intra {kind:?} {name} block {i}: estimate {x}"),
                    ));
                }
                if x != y {
                    return Err(Failure::new(
                        FailureKind::Estimator,
                        format!("intra {kind:?} {name} block {i}: non-deterministic {x} vs {y}"),
                    ));
                }
            }
        }
        if kind == IntraEstimator::Markov {
            markov = Some(first);
        }
    }

    let intra = markov.expect("Markov runs last");
    for which in InterEstimator::ALL {
        let first = estimate_invocations(program, &intra, which);
        let second = estimate_invocations(program, &intra, which);
        for func in &program.module.functions {
            if program.cfgs[func.id.0 as usize].is_none() {
                continue;
            }
            let x = first.of(func.id);
            let y = second.of(func.id);
            if !x.is_finite() || x < 0.0 {
                return Err(Failure::new(
                    FailureKind::Estimator,
                    format!("inter {} {}: estimate {x}", which.name(), func.name),
                ));
            }
            if x != y {
                return Err(Failure::new(
                    FailureKind::Estimator,
                    format!(
                        "inter {} {}: non-deterministic {x} vs {y}",
                        which.name(),
                        func.name
                    ),
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Oracle 7: reuse estimator and exact tracing
// ---------------------------------------------------------------------

/// Checks the memory-reuse subsystem end to end: the static estimate
/// is well-formed, the exact traces of the two execution engines are
/// bit-identical, merging is order-invariant, and the tracing tap is
/// observationally free.
fn reuse_agreement(
    program: &Program,
    vm: &RunOutcome,
    run_config: &RunConfig,
) -> Result<(), Failure> {
    // The static prediction: finite, non-negative, normalized.
    let est = reuse::estimate(program);
    let mass = est.mass();
    if mass.iter().any(|v| !v.is_finite() || *v < 0.0) {
        return Err(Failure::new(
            FailureKind::ReuseMismatch,
            format!("estimate mass has a non-finite or negative cell: {mass:?}"),
        ));
    }
    let total: f64 = mass.iter().sum();
    if total != 0.0 && (total - 1.0).abs() > 1e-6 {
        return Err(Failure::new(
            FailureKind::ReuseMismatch,
            format!("estimate mass sums to {total}, expected 0 or 1"),
        ));
    }

    // The exact trace, from both engines.
    let objects = profiler::ObjectMap::for_module(&program.module);
    let mut tap = profiler::ReuseCollector::new(objects.clone());
    let vm_out = profiler::compile(program)
        .execute(run_config, &mut ExecScratch::default(), Some(&mut tap))
        .map_err(|e| {
            Failure::new(
                FailureKind::ReuseMismatch,
                format!("traced vm run faults where plain run succeeded: {e:?}"),
            )
        })?;
    let vm_trace = tap.finish();
    let (ast_out, ast_trace) = profiler::run_ast_traced(program, run_config).map_err(|e| {
        Failure::new(
            FailureKind::ReuseMismatch,
            format!("traced ast run faults where plain run succeeded: {e:?}"),
        )
    })?;
    if vm_trace != ast_trace {
        return Err(Failure::new(
            FailureKind::ReuseMismatch,
            format!("vm trace {vm_trace:?} vs ast trace {ast_trace:?}"),
        ));
    }

    // Tracing must not perturb the run it observes — in either engine
    // (oracle 2 already pins plain VM == plain AST walker).
    for (engine, out) in [("vm", &vm_out), ("ast", &ast_out)] {
        if out.profile != vm.profile || out.steps != vm.steps || out.output != vm.output {
            return Err(Failure::new(
                FailureKind::ReuseMismatch,
                format!("tracing perturbed the {engine} profile, step count, or output"),
            ));
        }
    }

    // Merge is a plain per-bin sum: commutative, with the empty trace
    // as identity — the property pool fan-out at any size relies on.
    let mut ab = profiler::ReuseTrace::empty(&objects);
    ab.merge(&vm_trace);
    ab.merge(&ast_trace);
    let mut ba = profiler::ReuseTrace::empty(&objects);
    ba.merge(&ast_trace);
    ba.merge(&vm_trace);
    if ab != ba {
        return Err(Failure::new(
            FailureKind::ReuseMismatch,
            "trace merge is not order-invariant".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_known_good_program() {
        let src = r#"
            int add(int a, int b) { return a + b; }
            int main(void) {
                int i;
                int acc = 0;
                for (i = 0; i < 5; i++) { acc = add(acc, i); }
                printf("%d\n", acc);
                return acc & 255;
            }
        "#;
        let stats = check_source(src, &CheckConfig::default()).expect("clean program");
        assert!(stats.steps > 0);
        assert_eq!(stats.funcs, 2);
    }

    #[test]
    fn rejects_programs_that_do_not_compile() {
        let err = check_source("int main(void) { return x; }", &CheckConfig::default())
            .expect_err("undefined variable");
        assert_eq!(err.kind, FailureKind::Compile);
    }
}
