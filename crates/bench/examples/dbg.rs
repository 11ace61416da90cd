//! Dev utility: compile and run a MiniC file.
//! Usage: cargo run -p bench --example dbg -- file.c [input-file]

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let src = std::fs::read_to_string(&args[1]).expect("read source");
    let input = if args.len() > 2 {
        std::fs::read(&args[2]).expect("read input")
    } else {
        Vec::new()
    };
    let module = match minic::compile(&src) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}", e.render(&src));
            std::process::exit(1);
        }
    };
    let program = flowgraph::build_program(module);
    let t0 = std::time::Instant::now();
    match profiler::run(&program, &profiler::RunConfig::with_input(input)) {
        Ok(out) => {
            print!("{}", out.stdout());
            eprintln!(
                "exit={} steps={} blocks={} time={:?}",
                out.exit_code,
                out.steps,
                out.profile.total_block_count(),
                t0.elapsed()
            );
        }
        Err(e) => {
            eprintln!("runtime error: {e}");
            std::process::exit(1);
        }
    }
}
