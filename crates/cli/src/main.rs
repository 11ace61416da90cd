//! `sfe` — static frequency estimation for MiniC programs.
//!
//! The command-line face of the PLDI 1994 reproduction: point it at a
//! MiniC source file and it reports, *without running the program*,
//! which blocks, functions, and call sites are likely hot — optionally
//! validating the estimates against a real profiled run.
//!
//! ```text
//! sfe report    prog.c            # hot functions + call sites (static)
//! sfe blocks    prog.c [func]     # per-block estimates (loop/smart/markov)
//! sfe branches  prog.c            # per-branch predictions + heuristics
//! sfe callsites prog.c            # ranked call sites (inlining candidates)
//! sfe dot       prog.c [func]     # Graphviz CFG (or call graph)
//! sfe run       prog.c [input]    # run, then compare estimate vs. profile
//! sfe suite                       # full pipeline over the 14-program suite
//! sfe reuse    [program|file.c]   # predicted vs traced reuse-distance histograms
//! sfe fig10    [program]          # measured speedup-vs-budget curves (Fig 10)
//! sfe corpus   [flags]            # weight matching over a generated corpus
//! sfe pretty    prog.c            # parse + pretty-print
//! sfe serve    [flags]            # resident estimator service (JSON-RPC)
//! sfe storm    [flags]            # synthetic-client load driver for the service
//! ```
//!
//! `sfe serve` flags:
//!
//! ```text
//! --addr <host:port>  serve over TCP instead of stdin/stdout
//! --suite             preload the 14 suite programs (with their inputs)
//! ```
//!
//! The service speaks the `serve/v1` NDJSON protocol (one request and
//! one response per line; see crate `serve`): `load`/`update` compile
//! a program into the incremental database, `estimate`/`profile`/
//! `score` read from it, `shutdown` drains and exits. An `update` that
//! edits one function recomputes only that function's CFG and flow
//! solves; everything untouched is reused, bit for bit. Each request
//! runs on its connection's thread, one thread per connection.
//!
//! `sfe storm` flags:
//!
//! ```text
//! --clients <n>        concurrent clients (default 4)
//! --requests <n>       requests per client (default 100)
//! --seed <n>           workload seed (default 1)
//! --update-pct <n>     percentage of requests that are updates, 0 to 100 (default 20)
//! --addr <host:port>   drive a live daemon instead of an in-process database
//! --assert-qps <x>     exit nonzero if sustained q/s falls below x
//! --assert-p99-ms <x>  exit nonzero if p99 latency exceeds x milliseconds
//! ```
//!
//! `sfe corpus` flags:
//!
//! ```text
//! --count <n>        programs to evaluate (default 1000)
//! --seed <n>         first generator seed (default 1)
//! --buckets <spec>   comma-separated strata: recursion,indirect,loopskew,switch (default all)
//! --jobs <n>         threads, at most 256 (default: global pool / SFE_POOL_THREADS)
//! ```
//!
//! Global flags (any command):
//!
//! ```text
//! --trace               print the aggregated span tree + counters to stderr
//! --metrics-out <path>  write schema-stable metrics JSON (obs-metrics/v1)
//! --cache-dir <path>    artifact cache directory (`suite`, default ./cache; `reuse`, `serve`)
//! --no-cache            disable the artifact cache entirely
//! --opt-level <0..3>    run optimized bytecode (`run`, `suite`); default 0
//! ```
//!
//! `--opt-level` selects the estimator-guided optimizing backend
//! (crate `opt`): 1 = constant folding + dead-code elimination, 2 = +
//! superinstruction fusion and hot-path layout, 3 = + frequency-guided
//! inlining. Frequencies come from the static Markov estimators — no
//! profile run is needed to build the plan.
//!
//! `sfe suite` caches its profiles by default: the first run fills
//! `./cache` and later runs replay it in tens of milliseconds with
//! byte-identical scores. The cache is content-addressed, so edited
//! sources or inputs re-profile automatically; corrupt entries are
//! recomputed, never trusted.
//!
//! Output that stdout cannot take ends the run: a reader that closed
//! the pipe (`sfe suite | head -1`) exits 0 quietly; any other write
//! error is one `sfe:` line on stderr and exit 1.

#![warn(missing_docs)]

use estimators::{callsite, inter, intra, predict_module, weight_matching};
use flowgraph::Program;
use std::process::ExitCode;

/// The command's output: `write!(Out, ..)` and `writeln!(Out, ..)`
/// print to stdout. A write that fails ends the process in
/// [`stdout_failed`].
struct Out;

impl Out {
    fn write_fmt(&mut self, args: std::fmt::Arguments) {
        use std::io::Write;
        if let Err(e) = std::io::stdout().write_fmt(args) {
            stdout_failed(&e);
        }
    }
}

/// A closed reader is a normal end (exit 0, nothing on stderr); any
/// other stdout error is reported and exits 1.
fn stdout_failed(e: &std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("sfe: cannot write to stdout: {e}");
    std::process::exit(1);
}

fn main() -> ExitCode {
    // Pull the global telemetry flags out first; everything left is
    // the positional `<command> <file> [arg]` form.
    let mut trace = false;
    let mut metrics_out: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut opt_level: u8 = 0;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--trace" => trace = true,
            "--metrics-out" => match raw.next() {
                Some(p) => metrics_out = Some(p),
                None => {
                    eprintln!("sfe: --metrics-out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--cache-dir" => match raw.next() {
                Some(p) => cache_dir = Some(p),
                None => {
                    eprintln!("sfe: --cache-dir needs a path");
                    return ExitCode::from(2);
                }
            },
            "--no-cache" => no_cache = true,
            "--opt-level" => match raw.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n <= 3 => opt_level = n,
                _ => {
                    eprintln!("sfe: --opt-level needs a value in 0..=3");
                    return ExitCode::from(2);
                }
            },
            _ => args.push(a),
        }
    }
    if trace || metrics_out.is_some() {
        obs::set_enabled(true);
    }
    let code = dispatch(&args, cache_dir.as_deref(), no_cache, opt_level);
    // A last line without a newline is still buffered. A command that
    // already failed keeps its own exit code.
    if let Err(e) = std::io::Write::flush(&mut std::io::stdout()) {
        if code == ExitCode::SUCCESS {
            stdout_failed(&e);
        }
    }
    // Spans all closed by now (dispatch returned); flush telemetry.
    if trace || metrics_out.is_some() {
        obs::set_enabled(false);
        let metrics = obs::snapshot();
        if trace {
            eprint!("{}", metrics.render_trace());
        }
        if let Some(path) = metrics_out {
            if let Err(e) = std::fs::write(&path, metrics.to_json()) {
                eprintln!("sfe: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    code
}

fn dispatch(args: &[String], cache_dir: Option<&str>, no_cache: bool, opt_level: u8) -> ExitCode {
    if args.first().map(String::as_str) == Some("suite") {
        return suite_report(cache_dir, no_cache, opt_level);
    }
    if args.first().map(String::as_str) == Some("reuse") {
        return reuse_cmd(args.get(1).map(String::as_str), cache_dir, no_cache);
    }
    if args.first().map(String::as_str) == Some("fig10") {
        return fig10_report(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("corpus") {
        return corpus_report(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_cmd(&args[1..], cache_dir, no_cache);
    }
    if args.first().map(String::as_str) == Some("storm") {
        return storm_cmd(&args[1..]);
    }
    if args.len() < 2 {
        eprintln!(
            "usage: sfe [--trace] [--metrics-out <path>] [--cache-dir <path>] [--no-cache] \
             [--opt-level <n>] \
             <report|blocks|branches|callsites|dot|run|suite|reuse|fig10|corpus|pretty|serve|storm> \
             [file.c] [arg]"
        );
        return ExitCode::from(2);
    }
    let command = args[0].as_str();
    let path = &args[1];
    let extra = args.get(2).map(String::as_str);

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sfe: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if command == "pretty" {
        return pretty(&src);
    }
    let module = match minic::compile(&src) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sfe: {}", e.render(&src));
            return ExitCode::FAILURE;
        }
    };
    let program = flowgraph::build_program(module);

    match command {
        "report" => report(&program),
        "blocks" => blocks(&program, extra),
        "branches" => branches(&program, &src),
        "callsites" => callsites(&program, &src),
        "dot" => dot(&program, extra),
        "run" => run(&program, extra, opt_level),
        other => {
            eprintln!("sfe: unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}

fn pretty(src: &str) -> ExitCode {
    match minic::parser::parse(src) {
        Ok(unit) => {
            write!(Out, "{}", minic::pretty::print_unit(&unit));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sfe: {}", e.render(src));
            ExitCode::FAILURE
        }
    }
}

fn report(program: &Program) -> ExitCode {
    let ia = intra::estimate_program(program, intra::IntraEstimator::Smart);
    let ie = inter::estimate_invocations(program, &ia, inter::InterEstimator::Markov);

    writeln!(
        Out,
        "== estimated function invocation counts (Markov call-graph model) =="
    );
    let mut funcs = program.defined_ids();
    // total_cmp: a NaN estimate (damped fallback on a singular call
    // graph) must rank deterministically, not abort the report.
    funcs.sort_by(|&a, &b| ie.of(b).total_cmp(&ie.of(a)));
    for f in &funcs {
        let func = program.module.function(*f);
        writeln!(
            Out,
            "{:>12.2}  {} ({} blocks)",
            ie.of(*f),
            func.name,
            program.cfg(*f).len()
        );
    }

    writeln!(
        Out,
        "\n== hottest call sites (invocation × local frequency) =="
    );
    let mut sites = callsite::estimate_sites(program, &ia, &ie);
    sites.sort_by(|a, b| b.freq.total_cmp(&a.freq));
    for s in sites.iter().take(10) {
        let cs = &program.module.side.call_sites[s.site.0 as usize];
        let caller = &program.module.function(cs.caller).name;
        let callee = match cs.callee {
            minic::sema::CalleeKind::Direct(f) => program.module.function(f).name.clone(),
            _ => "<indirect>".into(),
        };
        writeln!(Out, "{:>12.2}  {caller} -> {callee}", s.freq);
    }
    ExitCode::SUCCESS
}

fn blocks(program: &Program, func: Option<&str>) -> ExitCode {
    let loop_est = intra::estimate_program(program, intra::IntraEstimator::Loop);
    let smart = intra::estimate_program(program, intra::IntraEstimator::Smart);
    let markov = intra::estimate_program(program, intra::IntraEstimator::Markov);
    for f in program.defined_ids() {
        let name = &program.module.function(f).name;
        if let Some(want) = func {
            if name != want {
                continue;
            }
        }
        writeln!(Out, "== {name} ==");
        writeln!(
            Out,
            "{:>6} {:>10} {:>10} {:>10}",
            "block", "loop", "smart", "markov"
        );
        for b in 0..program.cfg(f).len() {
            writeln!(
                Out,
                "{:>6} {:>10.3} {:>10.3} {:>10.3}",
                format!("B{b}"),
                loop_est.blocks_of(f)[b],
                smart.blocks_of(f)[b],
                markov.blocks_of(f)[b]
            );
        }
    }
    ExitCode::SUCCESS
}

fn branches(program: &Program, src: &str) -> ExitCode {
    let preds = predict_module(&program.module);
    writeln!(
        Out,
        "{:>6} {:<10} {:>6} {:>6} {:<10}",
        "line", "context", "dir", "p", "heuristic"
    );
    for b in &program.module.side.branches {
        let pred = preds[b.id];
        let func = &program.module.function(b.func).name;
        let context = format!("{:?}", b.kind).to_lowercase();
        let heuristic = format!("{:?}", pred.heuristic);
        writeln!(
            Out,
            "{:>6} {context:<10} {:>6} {:>6.2} {heuristic:<10}  ({func})",
            span_line(program, b, src),
            if pred.taken { "T" } else { "F" },
            pred.prob_taken,
        );
    }
    ExitCode::SUCCESS
}

fn span_line(program: &Program, b: &minic::sema::Branch, src: &str) -> usize {
    // The condition expression's span is not stored on Branch; find it
    // by walking the owning function for the node.
    let mut line = 0;
    if let Some(body) = &program.module.function(b.func).body {
        body.walk_exprs(&mut |e| {
            if e.id == b.cond {
                line = e.span.line(src);
            }
        });
    }
    line
}

fn callsites(program: &Program, src: &str) -> ExitCode {
    let ia = intra::estimate_program(program, intra::IntraEstimator::Smart);
    let ie = inter::estimate_invocations(program, &ia, inter::InterEstimator::Markov);
    let mut sites = callsite::estimate_sites(program, &ia, &ie);
    sites.sort_by(|a, b| b.freq.total_cmp(&a.freq));
    writeln!(Out, "{:>12} {:>6}  call", "est.freq", "line");
    for s in &sites {
        let cs = &program.module.side.call_sites[s.site.0 as usize];
        let caller = &program.module.function(cs.caller).name;
        let callee = match cs.callee {
            minic::sema::CalleeKind::Direct(f) => program.module.function(f).name.clone(),
            _ => continue,
        };
        writeln!(
            Out,
            "{:>12.2} {:>6}  {caller} -> {callee}",
            s.freq,
            cs.span.line(src)
        );
    }
    ExitCode::SUCCESS
}

fn dot(program: &Program, func: Option<&str>) -> ExitCode {
    match func {
        Some(name) => {
            let Some(f) = program.function_id(name) else {
                eprintln!("sfe: no function `{name}`");
                return ExitCode::FAILURE;
            };
            let est = intra::estimate_function(program, f, intra::IntraEstimator::Markov);
            write!(
                Out,
                "{}",
                flowgraph::dot::cfg_to_dot(&program.module, program.cfg(f), Some(&est))
            );
        }
        None => write!(
            Out,
            "{}",
            flowgraph::dot::callgraph_to_dot(&program.module, &program.callgraph)
        ),
    }
    ExitCode::SUCCESS
}

fn run(program: &Program, input_path: Option<&str>, opt_level: u8) -> ExitCode {
    let input = match input_path {
        Some(p) => match std::fs::read(p) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("sfe: cannot read input {p}: {e}");
                return ExitCode::from(2);
            }
        },
        None => Vec::new(),
    };
    let config = profiler::RunConfig::with_input(input);
    let compiled = profiler::compile(program);
    let (compiled, stats) = if opt_level > 0 {
        let (ocp, stats) = bench::optimize_at_level(program, &compiled, opt_level);
        (ocp, Some(stats))
    } else {
        (compiled, None)
    };
    let out = match compiled.execute(&config, None) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sfe: runtime error: {e}");
            return ExitCode::FAILURE;
        }
    };
    write!(Out, "{}", out.stdout());
    eprintln!("[exit {} after {} steps]", out.exit_code, out.steps);
    if let Some(stats) = stats {
        eprintln!(
            "[-O{opt_level}: {} inlined, {} folded, {} blocks dropped, {} fused]",
            stats.inlined_calls, stats.folded, stats.dce_blocks, stats.fused
        );
    }

    // Estimate-vs-actual summary.
    let ia = intra::estimate_program(program, intra::IntraEstimator::Smart);
    let ie = inter::estimate_invocations(program, &ia, inter::InterEstimator::Markov);
    let funcs = program.defined_ids();
    let est: Vec<f64> = funcs.iter().map(|&f| ie.of(f)).collect();
    let actual: Vec<f64> = funcs
        .iter()
        .map(|&f| out.profile.calls_of(f) as f64)
        .collect();
    let score = weight_matching(&est, &actual, 0.25);
    eprintln!(
        "[function-invocation weight-matching vs this run @25%: {:.0}%]",
        score * 100.0
    );
    for (i, &f) in funcs.iter().enumerate() {
        eprintln!(
            "[{:>10.2} est | {:>10} actual]  {}",
            est[i],
            actual[i],
            program.module.function(f).name
        );
    }
    ExitCode::SUCCESS
}

/// The artifact cache a command runs with: none under `--no-cache`
/// or without a directory, else the store at `dir`. A directory that
/// cannot be opened is a warning, and the command runs uncached.
fn open_cache(dir: Option<&str>, no_cache: bool) -> Option<cache::Cache> {
    let dir = dir.filter(|_| !no_cache)?;
    match cache::Cache::open(dir) {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!("sfe: cannot open cache dir {dir}: {e}; running uncached");
            None
        }
    }
}

/// Runs the entire pipeline over the 14-program suite: compile, lower,
/// profile every standard input, estimate, and weight-match — the
/// full-system traced run `--trace`/`--metrics-out` are built for.
///
/// Profiles come from the artifact cache when warm (default dir
/// `./cache`, override with `--cache-dir`, disable with `--no-cache`).
fn suite_report(cache_dir: Option<&str>, no_cache: bool, opt_level: u8) -> ExitCode {
    let cache = open_cache(Some(cache_dir.unwrap_or("cache")), no_cache);
    let data = bench::load(&suite::all(), pool::global(), cache.as_ref(), opt_level);
    writeln!(
        Out,
        "{:<12} {:>8} {:>8} {:>12}  {:>6} {:>6}",
        "program", "funcs", "blocks", "steps", "inv@25", "cs@25"
    );
    for d in &data {
        let estimates = estimators::estimate_all(&d.program);
        let scores = estimators::eval::score_estimates(&d.program, &estimates, &d.profiles);
        let steps: u64 = d
            .profiles
            .iter()
            .map(|p| p.func_cost.iter().sum::<u64>())
            .sum();
        writeln!(
            Out,
            "{:<12} {:>8} {:>8} {:>12}  {:>5.0}% {:>5.0}%",
            d.bench.name,
            d.program.defined_ids().len(),
            d.program.total_blocks(),
            steps,
            scores.invocation[inter::InterEstimator::Markov as usize] * 100.0,
            scores.callsite[1] * 100.0,
        );
    }
    ExitCode::SUCCESS
}

/// `sfe reuse [program|file.c]`: the static memory-reuse estimator.
///
/// Predicts each suite program's per-object reuse-distance histogram
/// without executing it (crate `reuse`), collects the exact histogram
/// with the profiler's tracing mode, and weight-matches the two. With
/// no argument, prints the suite-wide table; with a program name (or
/// a `.c` path), a per-object breakdown. Traces are cached as
/// `ReuseProfile` artifacts under their own key space, and the traced
/// runs for a program's inputs fan out on the global pool — the
/// merged histogram is a plain per-bin sum, so it is byte-identical
/// for any pool size.
fn reuse_cmd(which: Option<&str>, cache_dir: Option<&str>, no_cache: bool) -> ExitCode {
    // Only with `--cache-dir`: the reuse table is fast enough
    // warm-or-cold that surprise `./cache` writes aren't worth it
    // outside `sfe suite`.
    let cache = open_cache(cache_dir, no_cache);

    // A `.c` path gets a one-off detailed report on empty input.
    if let Some(arg) = which {
        if suite::by_name(arg).is_none() {
            let src = match std::fs::read_to_string(arg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("sfe: `{arg}` is neither a suite program nor a readable file: {e}");
                    return ExitCode::from(2);
                }
            };
            return match reuse_eval(arg, &src, vec![Vec::new()], cache.as_ref(), true) {
                Some(_) => ExitCode::SUCCESS,
                None => ExitCode::FAILURE,
            };
        }
    }

    match which {
        Some(name) => {
            let p = suite::by_name(name).expect("checked above");
            match reuse_eval(p.name, p.source, p.inputs(), cache.as_ref(), true) {
                Some(_) => ExitCode::SUCCESS,
                None => ExitCode::FAILURE,
            }
        }
        None => {
            writeln!(
                Out,
                "{:<12} {:>8} {:>6} {:>12} {:>12}  {:>8}",
                "program", "objects", "sites", "traced", "predicted", "match@25"
            );
            let mut ok = true;
            for p in suite::all() {
                ok &= reuse_eval(p.name, p.source, p.inputs(), cache.as_ref(), false).is_some();
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Short human label for a reuse-distance bin.
fn bin_label(bin: usize) -> String {
    match bin {
        0 => "0".to_string(),
        reuse::COLD_BIN => "cold".to_string(),
        k => format!("<2^{k}"),
    }
}

/// Estimates, traces (cached, pool-parallel over inputs), merges, and
/// scores one program. Prints a table row (or a detailed per-object
/// breakdown). `None` on compile or runtime failure.
fn reuse_eval(
    name: &str,
    source: &str,
    inputs: Vec<Vec<u8>>,
    cache: Option<&cache::Cache>,
    detail: bool,
) -> Option<f64> {
    let module = match minic::compile(source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sfe: {name}: {}", e.render(source));
            return None;
        }
    };
    let program = flowgraph::build_program(module);
    let est = reuse::estimate(&program);

    let compiled = profiler::compile(&program);
    let objects = profiler::ObjectMap::for_module(&program.module);
    let traces = pool::global().map(inputs, |input| {
        let config = profiler::RunConfig::with_input(input);
        let kind = cache::ArtifactKind::ReuseProfile;
        cache::get_or_run(cache, kind, source, &config, || {
            let mut tap = profiler::ReuseCollector::new(objects.clone());
            compiled
                .execute(&config, Some(&mut tap))
                .map(|_| tap.finish())
        })
    });
    let mut merged: Option<profiler::ReuseTrace> = None;
    for trace in traces {
        match trace {
            Ok(t) => match &mut merged {
                None => merged = Some(t),
                Some(m) => m.merge(&t),
            },
            Err(e) => {
                eprintln!("sfe: {name}: runtime error while tracing: {e}");
                return None;
            }
        }
    }
    let trace = merged.expect("at least one input");
    let score = reuse::score(&est, &trace);

    if detail {
        writeln!(Out, "{name}: predicted vs traced reuse distances");
        writeln!(
            Out,
            "{:<16} {:>12} {:>12} {:>10} {:>10}",
            "object", "predicted", "traced", "est.bin", "got.bin"
        );
        for (i, obj) in trace.objects.iter().enumerate() {
            let traced_total: u64 = obj.hist.iter().sum();
            let predicted_total: f64 = est.hists[i].iter().sum();
            if traced_total == 0 && predicted_total == 0.0 {
                continue;
            }
            let est_bin = est.hists[i]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(b, _)| b);
            let got_bin = obj
                .hist
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map_or(0, |(b, _)| b);
            writeln!(
                Out,
                "{:<16} {:>12.0} {:>12} {:>10} {:>10}",
                obj.name,
                predicted_total,
                traced_total,
                bin_label(est_bin),
                bin_label(got_bin)
            );
        }
        writeln!(
            Out,
            "[reuse weight-matching vs exact trace @25%: {:.0}%  ({} traced accesses)]",
            score * 100.0,
            trace.events
        );
    } else {
        writeln!(
            Out,
            "{:<12} {:>8} {:>6} {:>12} {:>12}  {:>7.0}%",
            name,
            trace.objects.len(),
            est.hists
                .iter()
                .filter(|h| h.iter().sum::<f64>() > 0.0)
                .count(),
            trace.events,
            est.total().round(),
            score * 100.0
        );
    }
    Some(score)
}

/// `sfe fig10 [--json] [program]`: the measured Figure 10 experiment —
/// optimize the top-k functions under each ranking provider and report
/// the VM steps actually saved on a held-out input. `--json` swaps the
/// table for one machine-readable document (schema `fig10/v1`).
fn fig10_report(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut which: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            name if which.is_none() && !name.starts_with('-') => which = Some(name),
            other => {
                eprintln!("sfe: fig10 does not understand `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let names: Vec<&'static str> = match which {
        None => bench::FIG10_PROGRAMS.to_vec(),
        Some(name) => match bench::FIG10_PROGRAMS.iter().find(|&&p| p == name) {
            Some(&p) => vec![p],
            None => {
                eprintln!(
                    "sfe: fig10 runs on {}; got `{name}`",
                    bench::FIG10_PROGRAMS.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    if json {
        return fig10_json(&names);
    }
    writeln!(
        Out,
        "Figure 10 (measured): speedup vs optimization budget, -O3, held-out input"
    );
    for name in names {
        let p = bench::fig10_measured_program(name);
        writeln!(Out);
        writeln!(
            Out,
            "{} (baseline {} steps on held-out input)",
            p.name, p.baseline_steps
        );
        write!(Out, "  {:<10}", "k");
        for k in &p.ks {
            write!(Out, " {k:>7}");
        }
        writeln!(Out);
        for c in &p.curves {
            write!(Out, "  {:<10}", c.ranking);
            for v in &c.speedups {
                write!(Out, " {v:>7.3}");
            }
            writeln!(Out);
        }
        write!(Out, "  {:<10}", "wall ms");
        let static_curve = &p.curves[0];
        for w in &static_curve.wall_ms {
            write!(Out, " {w:>7.2}");
        }
        writeln!(Out, "  (static-ranked runs)");
        writeln!(
            Out,
            "  static rank order: {}",
            p.static_order[..p.static_order.len().min(6)].join(", ")
        );
    }
    ExitCode::SUCCESS
}

/// The machine-readable half of `sfe fig10`: one JSON document with
/// every requested program's measured curves (schema `fig10/v1`).
fn fig10_json(names: &[&'static str]) -> ExitCode {
    use obs::json::Value;
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let nums = |xs: &[f64]| Value::Arr(xs.iter().map(|&v| Value::Num(v)).collect());
    let programs: Vec<Value> = names
        .iter()
        .map(|&name| {
            let p = bench::fig10_measured_program(name);
            let curves: Vec<Value> = p
                .curves
                .iter()
                .map(|c| {
                    obj(vec![
                        ("ranking", Value::Str(c.ranking.to_string())),
                        ("speedups", nums(&c.speedups)),
                        ("wall_ms", nums(&c.wall_ms)),
                    ])
                })
                .collect();
            obj(vec![
                ("baseline_steps", Value::Num(p.baseline_steps as f64)),
                ("curves", Value::Arr(curves)),
                (
                    "ks",
                    Value::Arr(p.ks.iter().map(|&k| Value::Num(k as f64)).collect()),
                ),
                ("name", Value::Str(p.name.to_string())),
                (
                    "static_order",
                    Value::Arr(
                        p.static_order
                            .iter()
                            .map(|f| Value::Str(f.clone()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("programs", Value::Arr(programs)),
        ("schema", Value::Str("fig10/v1".to_string())),
    ]);
    writeln!(Out, "{doc}");
    ExitCode::SUCCESS
}

fn corpus_report(args: &[String]) -> ExitCode {
    use bench::corpus::{run_corpus, CorpusConfig, HEURISTICS};

    let mut cfg = CorpusConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> Result<u64, ExitCode> {
            it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                eprintln!("sfe: corpus {what} needs a number");
                ExitCode::from(2)
            })
        };
        match a.as_str() {
            "--count" => match num("--count") {
                Ok(n) => cfg.count = n,
                Err(c) => return c,
            },
            "--seed" => match num("--seed") {
                Ok(n) => cfg.first_seed = n,
                Err(c) => return c,
            },
            "--jobs" => match num("--jobs") {
                Ok(n) => cfg.jobs = Some(n as usize),
                Err(c) => return c,
            },
            "--buckets" => match it.next().map(|s| bench::corpus::parse_buckets(s)) {
                Some(Ok(features)) => cfg.features = features,
                Some(Err(e)) => {
                    eprintln!("sfe: {e}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("sfe: corpus --buckets needs a spec");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "sfe: unknown corpus flag `{other}` (see --count, --seed, --buckets, --jobs)"
                );
                return ExitCode::from(2);
            }
        }
    }
    let Some(end_seed) = cfg.first_seed.checked_add(cfg.count) else {
        eprintln!(
            "sfe: corpus seeds {}.. + {} programs run past the largest seed",
            cfg.first_seed, cfg.count
        );
        return ExitCode::from(2);
    };

    let r = run_corpus(&cfg);
    writeln!(
        Out,
        "corpus: {} programs (seeds {}..{end_seed})",
        r.requested, cfg.first_seed
    );
    writeln!(
        Out,
        "  evaluated {} | duplicates {} | vm errors {}",
        r.evaluated, r.duplicates, r.errors
    );
    writeln!(
        Out,
        "  {:.1} programs/sec over {:.2} s | latency p50 {:.2} ms p99 {:.2} ms",
        r.programs_per_sec, r.elapsed_s, r.p50_ms, r.p99_ms
    );
    let rss = r.peak_rss_bytes.map_or("n/a".to_string(), |b| {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    });
    writeln!(Out, "  jobs {} | peak rss {}", r.jobs, rss);
    writeln!(Out, "  aggregate digest {:016x}", r.aggregate_digest());
    writeln!(Out);
    write!(Out, "  {:<14} {:>6}", "bucket", "n");
    for h in HEURISTICS {
        write!(Out, " {h:>12}");
    }
    writeln!(Out, "   (median weight-matching score)");
    for b in r.buckets.iter().chain(std::iter::once(&r.total)) {
        write!(Out, "  {:<14} {:>6}", b.label, b.count);
        for q in b.quantiles() {
            write!(Out, " {:>12.3}", q[1]);
        }
        writeln!(Out);
    }
    writeln!(Out);
    writeln!(Out, "  quartiles over all programs (p25 / p50 / p75):");
    for (h, q) in HEURISTICS.iter().zip(r.total.quantiles()) {
        writeln!(Out, "    {h:<12} {:.3} / {:.3} / {:.3}", q[0], q[1], q[2]);
    }
    ExitCode::SUCCESS
}

/// `sfe serve`: run the resident estimator service (crate `serve`)
/// over stdin/stdout, or over TCP with `--addr`.
fn serve_cmd(args: &[String], cache_dir: Option<&str>, no_cache: bool) -> ExitCode {
    use serve::db::ServeDb;

    let mut addr: Option<String> = None;
    let mut preload_suite = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => {
                    eprintln!("sfe: serve --addr needs host:port");
                    return ExitCode::from(2);
                }
            },
            "--suite" => preload_suite = true,
            other => {
                eprintln!("sfe: unknown serve flag `{other}` (see --addr, --suite)");
                return ExitCode::from(2);
            }
        }
    }

    let db = std::sync::Arc::new(ServeDb::new(open_cache(cache_dir, no_cache)));
    if preload_suite {
        for p in suite::all() {
            if let Err(e) = db.upsert_with_inputs(p.name, p.source, Some(p.inputs())) {
                eprintln!("sfe: suite preload failed for {}: {}", p.name, e.message());
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "sfe serve: preloaded {} suite programs",
            db.program_names().len()
        );
    }

    match addr {
        None => match serve::server::serve_stdio(&db) {
            Ok(n) => {
                eprintln!("sfe serve: handled {n} requests");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sfe serve: {e}");
                ExitCode::FAILURE
            }
        },
        Some(addr) => match serve::server::spawn_tcp(db, &addr) {
            Ok(server) => {
                // Parsed by scripts (the CI smoke step) to discover the
                // bound port when `:0` was requested.
                writeln!(Out, "sfe serve: listening on {}", server.addr());
                match server.join() {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("sfe serve: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("sfe serve: cannot bind {addr}: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// `sfe storm`: drive the service with the deterministic synthetic
/// workload and report q/s, latency percentiles, and digests. With
/// `--assert-qps` / `--assert-p99-ms` the exit code gates CI.
fn storm_cmd(args: &[String]) -> ExitCode {
    use serve::storm::{run_in_process, run_tcp, StormConfig};

    let mut config = StormConfig::default();
    let mut addr: Option<String> = None;
    let mut assert_qps: Option<f64> = None;
    let mut assert_p99_ms: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // The flag's value, or `None` after a diagnostic that names
        // the flag and its valid range.
        let mut num = |what: &str, valid: std::ops::RangeInclusive<u64>| -> Option<u64> {
            let n = it.next().and_then(|s| s.parse().ok());
            let n = n.filter(|n| valid.contains(n));
            if n.is_none() {
                let (lo, hi) = valid.into_inner();
                let hi = if hi == u64::MAX {
                    String::new()
                } else {
                    format!("={hi}")
                };
                eprintln!("sfe: storm {what} needs a number in {lo}..{hi}");
            }
            n
        };
        match a.as_str() {
            "--clients" => match num("--clients", 1..=u64::MAX) {
                Some(n) => config.clients = n as usize,
                None => return ExitCode::from(2),
            },
            "--requests" => match num("--requests", 0..=u64::MAX) {
                Some(n) => config.requests = n as usize,
                None => return ExitCode::from(2),
            },
            "--seed" => match num("--seed", 0..=u64::MAX) {
                Some(n) => config.seed = n,
                None => return ExitCode::from(2),
            },
            "--update-pct" => match num("--update-pct", 0..=100) {
                Some(n) => config.update_pct = n as u32,
                None => return ExitCode::from(2),
            },
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => {
                    eprintln!("sfe: storm --addr needs host:port");
                    return ExitCode::from(2);
                }
            },
            "--assert-qps" => match it.next().map(|s| s.parse()) {
                Some(Ok(x)) => assert_qps = Some(x),
                _ => {
                    eprintln!("sfe: storm --assert-qps needs a number");
                    return ExitCode::from(2);
                }
            },
            "--assert-p99-ms" => match it.next().map(|s| s.parse()) {
                Some(Ok(x)) => assert_p99_ms = Some(x),
                _ => {
                    eprintln!("sfe: storm --assert-p99-ms needs a number");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "sfe: unknown storm flag `{other}` (see --clients, --requests, --seed, \
                     --update-pct, --addr, --assert-qps, --assert-p99-ms)"
                );
                return ExitCode::from(2);
            }
        }
    }

    let report = match addr {
        Some(addr) => match run_tcp(&config, &addr) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sfe storm: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => run_in_process(&config, &std::sync::Arc::new(serve::db::ServeDb::new(None))),
    };

    writeln!(Out, "{}", report.to_value(&config));

    let mut ok = true;
    if report.errors > 0 {
        eprintln!("sfe storm: {} error responses", report.errors);
        ok = false;
    }
    if let Some(min) = assert_qps {
        if report.qps < min {
            eprintln!("sfe storm: qps {:.1} below floor {min}", report.qps);
            ok = false;
        }
    }
    if let Some(max) = assert_p99_ms {
        if report.p99_us as f64 / 1000.0 > max {
            eprintln!(
                "sfe storm: p99 {:.2} ms above ceiling {max} ms",
                report.p99_us as f64 / 1000.0
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
