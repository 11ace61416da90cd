//! # suite — the 14-program benchmark corpus
//!
//! This crate reproduces Table 1 of the paper: fourteen C programs —
//! the SPEC92 C benchmarks plus six others — rewritten in MiniC so the
//! whole pipeline (front end → CFG → profiles → estimators) can run
//! them. Each program mirrors the *structural* property its original
//! contributes to the paper's analysis:
//!
//! | program | structural role |
//! |---|---|
//! | `compress` | 16 functions, 4 hot — the Figure 10 experiment |
//! | `xlisp` | all builtins called through pointers; GC + REPL hot |
//! | `gs` | most functions reachable only indirectly (§5.2.1's hard case) |
//! | `espresso`, `eqntott` | branchy combinational-logic codes |
//! | `cc` | a compiler: branchy, pointer-chasing, recursive |
//! | `sc`, `awk`, `bison` | utilities with skewed loop counts |
//! | `cholesky`, `mpeg`, `water`, `alvinn`, `ear` | numeric codes with simple control flow |
//!
//! Every program has at least four deterministic inputs (§3 evaluated
//! "four or more" inputs per program). The crate is data only: sources,
//! inputs and the compile step; `bench::load` profiles programs on
//! their inputs.
//!
//! ```
//! let p = suite::by_name("compress").unwrap();
//! let program = p.compile().unwrap();
//! assert_eq!(program.defined_ids().len(), 16);
//! ```

#![warn(missing_docs)]

pub mod inputs;

use flowgraph::Program;
use minic::CompileError;

/// One benchmark program: source, metadata, and inputs.
#[derive(Debug, Clone, Copy)]
pub struct BenchProgram {
    /// Program name (Table 1).
    pub name: &'static str,
    /// One-line description (Table 1).
    pub description: &'static str,
    /// MiniC source text.
    pub source: &'static str,
}

impl BenchProgram {
    /// Number of source lines (Table 1's "Lines" column).
    pub fn lines(&self) -> usize {
        self.source.lines().count()
    }

    /// Compiles and lowers the program.
    ///
    /// # Errors
    ///
    /// Returns the front end's error; the shipped sources always
    /// compile, so this is only fallible for modified sources.
    pub fn compile(&self) -> Result<Program, CompileError> {
        let module = minic::compile(self.source)?;
        Ok(flowgraph::build_program(module))
    }

    /// The standard (deterministic) input set, four or more inputs.
    pub fn inputs(&self) -> Vec<Vec<u8>> {
        inputs::inputs_for(self.name)
    }
}

macro_rules! programs {
    ($(($name:literal, $file:literal, $desc:literal)),* $(,)?) => {
        /// All 14 programs, in Table 1 order.
        pub fn all() -> Vec<BenchProgram> {
            vec![
                $(BenchProgram {
                    name: $name,
                    description: $desc,
                    source: include_str!(concat!("../programs/", $file)),
                },)*
            ]
        }
    };
}

programs![
    ("alvinn", "alvinn.c", "Back-propagation on a neural net"),
    ("compress", "compress.c", "Unix compression utility (LZW)"),
    ("ear", "ear.c", "Simulate sound processing in the ear"),
    (
        "eqntott",
        "eqntott.c",
        "Translate boolean functions to truth table"
    ),
    ("espresso", "espresso.c", "Minimize boolean functions"),
    (
        "cc",
        "cc.c",
        "Miniature optimizing C-like compiler (gcc stand-in)"
    ),
    ("sc", "sc.c", "Unix spreadsheet"),
    ("xlisp", "xlisp.c", "Lisp interpreter"),
    ("awk", "awk.c", "Unix pattern-matching utility"),
    (
        "bison",
        "bison.c",
        "Parser generator core (grammar set analysis)"
    ),
    (
        "cholesky",
        "cholesky.c",
        "Cholesky-factorize a banded SPD matrix"
    ),
    ("gs", "gs.c", "PostScript-style previewer (stack machine)"),
    (
        "mpeg",
        "mpeg.c",
        "Play MPEG video (IDCT + motion compensation)"
    ),
    ("water", "water.c", "Simulate a system of water molecules"),
];

/// Finds a program by name.
pub fn by_name(name: &str) -> Option<BenchProgram> {
    all().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_programs_with_inputs() {
        let programs = all();
        assert_eq!(programs.len(), 14);
        for p in &programs {
            assert!(p.inputs().len() >= 4, "{} needs at least 4 inputs", p.name);
            assert!(p.lines() > 50, "{} is suspiciously short", p.name);
        }
    }

    #[test]
    fn every_program_compiles() {
        for p in all() {
            match p.compile() {
                Ok(prog) => {
                    assert!(prog.function_id("main").is_some(), "{} has main", p.name)
                }
                Err(e) => panic!("{} failed to compile: {}", p.name, e.render(p.source)),
            }
        }
    }

    #[test]
    fn compress_has_sixteen_functions() {
        let p = by_name("compress").unwrap().compile().unwrap();
        assert_eq!(p.defined_ids().len(), 16, "Figure 10 needs 16 functions");
    }

    #[test]
    fn gs_is_mostly_indirect() {
        // The paper's point about gs: about half its functions are only
        // reachable through pointers.
        let p = by_name("gs").unwrap().compile().unwrap();
        let total = p.defined_ids().len();
        let indirect = p.module.side.address_taken_funcs().count();
        assert!(
            indirect * 2 >= total - 10,
            "gs should have many address-taken functions: {indirect}/{total}"
        );
        assert!(!p.callgraph.indirect.is_empty());
    }

    #[test]
    fn xlisp_builtins_are_address_taken() {
        let p = by_name("xlisp").unwrap().compile().unwrap();
        assert!(
            p.module.side.address_taken_funcs().count() >= 40,
            "xlisp should register 40+ builtins by pointer, got {}",
            p.module.side.address_taken_funcs().count()
        );
    }

    #[test]
    fn inputs_are_deterministic() {
        for p in all() {
            assert_eq!(p.inputs(), p.inputs(), "{} inputs vary", p.name);
        }
    }
}
