//! Parse → pretty-print → re-parse round trips over the entire
//! 14-program suite, plus semantic-preservation checks: the printed
//! program must compile to a CFG with identical structure and produce
//! identical profiles on the same inputs.

use minic::parser::parse;
use minic::pretty::print_unit;

#[test]
fn whole_suite_print_parse_idempotent() {
    for bench in suite::all() {
        let unit1 = parse(bench.source)
            .unwrap_or_else(|e| panic!("{}: {}", bench.name, e.render(bench.source)));
        let printed1 = print_unit(&unit1);
        let unit2 = parse(&printed1)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {}", bench.name, e.render(&printed1)));
        let printed2 = print_unit(&unit2);
        assert_eq!(printed1, printed2, "{} not idempotent", bench.name);
    }
}

#[test]
fn printed_programs_behave_identically() {
    // The printed form is a different token stream but must be the
    // same program: equal output and equal block counts on one input.
    for name in ["compress", "cc", "bison", "sc"] {
        let bench = suite::by_name(name).unwrap();
        let original = bench.compile().expect("original compiles");

        let printed = print_unit(&parse(bench.source).unwrap());
        let module = minic::compile(&printed)
            .unwrap_or_else(|e| panic!("{name}: printed source fails: {}", e.render(&printed)));
        let reprinted_program = flowgraph::build_program(module);

        let input = bench.inputs().into_iter().next().unwrap();
        let a = profiler::run(&original, &profiler::RunConfig::with_input(input.clone()))
            .expect("original runs");
        let b = profiler::run(&reprinted_program, &profiler::RunConfig::with_input(input))
            .expect("printed runs");
        assert_eq!(a.stdout(), b.stdout(), "{name}: outputs differ");
        assert_eq!(a.exit_code, b.exit_code, "{name}: exit codes differ");
        assert_eq!(
            a.profile.total_block_count(),
            b.profile.total_block_count(),
            "{name}: dynamic block counts differ"
        );
    }
}
