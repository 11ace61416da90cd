//! The `fuzzgen` CLI: generate, check, and minimize MiniC programs.
//!
//! ```text
//! fuzzgen [--seed N] [--count M] [--minimize] [--out DIR] [--emit N] [--quiet]
//! ```
//!
//! Runs seeds `N, N+1, …, N+M-1` through the six differential oracles
//! and reports every failure with its one-line reproduction recipe.
//! With `--minimize`, each failing program is shrunk (preserving the
//! failing oracle) and written to `DIR` (default `tests/corpus/`) next
//! to the failure metadata, ready to be checked in as a regression
//! test. `--emit N` prints the generated source for one seed and exits.

use fuzzgen::{check_source, generate, minimize, CheckConfig, FailureKind};
use std::process::ExitCode;

struct Options {
    seed: u64,
    count: u64,
    minimize: bool,
    out_dir: String,
    emit: Option<u64>,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 1,
        count: 100,
        minimize: false,
        out_dir: "tests/corpus".to_string(),
        emit: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = parse_u64(&value("--seed")?)?,
            "--count" => opts.count = parse_u64(&value("--count")?)?,
            "--minimize" => opts.minimize = true,
            "--out" => opts.out_dir = value("--out")?,
            "--emit" => opts.emit = Some(parse_u64(&value("--emit")?)?),
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: fuzzgen [--seed N] [--count M] [--minimize] \
                     [--out DIR] [--emit N] [--quiet]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzzgen: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(seed) = opts.emit {
        print!("{}", generate(seed).render());
        return ExitCode::SUCCESS;
    }

    let mut failures = 0u64;
    let mut total_steps = 0u64;
    let mut total_blocks = 0usize;
    for seed in opts.seed..opts.seed + opts.count {
        let config = CheckConfig {
            plan_seed: seed,
            ..CheckConfig::default()
        };
        match check_source(&generate(seed).render(), &config) {
            Ok(stats) => {
                total_steps += stats.steps;
                total_blocks += stats.blocks;
                if !opts.quiet && (seed - opts.seed + 1) % 100 == 0 {
                    eprintln!(
                        "  … {} seeds clean ({} steps, {} blocks so far)",
                        seed - opts.seed + 1,
                        total_steps,
                        total_blocks
                    );
                }
            }
            Err(failure) => {
                failures += 1;
                println!("FAIL seed {seed} [{}]", failure.kind);
                println!("  {}", failure.detail.replace('\n', "\n  "));
                println!("  reproduce: fuzzgen --seed {seed} --count 1 --minimize");
                if opts.minimize {
                    report_minimized(seed, failure.kind, &opts.out_dir, &config);
                }
            }
        }
    }
    if failures == 0 {
        println!(
            "{} seeds ({}..{}) passed all seven oracles: {} interpreter steps, {} CFG blocks",
            opts.count,
            opts.seed,
            opts.seed + opts.count - 1,
            total_steps,
            total_blocks
        );
        ExitCode::SUCCESS
    } else {
        println!("{failures}/{} seeds failed", opts.count);
        ExitCode::FAILURE
    }
}

fn report_minimized(seed: u64, kind: FailureKind, out_dir: &str, config: &CheckConfig) {
    let prog = generate(seed);
    let min = minimize(
        prog,
        |p| matches!(check_source(&p.render(), config), Err(f) if f.kind == kind),
    );
    let src = min.render();
    let failure = match check_source(&src, config) {
        Err(f) => f,
        Ok(_) => {
            eprintln!("  minimizer lost the failure for seed {seed}; keeping it unminimized");
            return;
        }
    };
    let header = format!(
        "/* fuzzgen counterexample: seed {seed}, oracle {kind}.\n\
         * {}\n\
         * Regenerate with: fuzzgen --seed {seed} --count 1 --minimize\n\
         */\n",
        failure.detail.lines().next().unwrap_or(""),
    );
    let path = format!("{out_dir}/seed{seed}_{kind}.c");
    match std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, format!("{header}{src}")))
    {
        Ok(()) => println!("  minimized to {} lines -> {path}", src.lines().count()),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
