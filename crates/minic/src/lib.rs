//! # minic — a C-subset front end for static frequency estimation
//!
//! This crate is the reproduction's stand-in for the modified GNU C
//! compiler used in *Accurate Static Estimators for Program
//! Optimization* (PLDI 1994). The paper augmented gcc with an explicit
//! AST and CFG per function and dumped them for off-line analysis; here
//! the front end is built from scratch for **MiniC**, a C subset rich
//! enough to express the paper's 14-program suite and every idiom its
//! branch heuristics key on (pointer NULL tests, `abort`/`exit` calls,
//! `&&` chains, loops, `switch`, `goto`, function pointers, recursion).
//!
//! The pipeline is [`lexer`] → [`parser`] → [`sema`], conveniently
//! wrapped by [`compile`]:
//!
//! ```
//! let module = minic::compile(r#"
//!     int fib(int n) {
//!         if (n < 2) return n;
//!         return fib(n - 1) + fib(n - 2);
//!     }
//! "#).expect("valid MiniC");
//! assert!(module.function_id("fib").is_some());
//! assert_eq!(module.side.call_sites.len(), 2);
//! ```
//!
//! Downstream crates consume the [`sema::Module`]: `flowgraph` lowers
//! each function body to a CFG, `profiler` interprets those CFGs, and
//! `estimators` implements the paper's static analyses over both.

#![warn(missing_docs)]

pub mod access;
pub mod ast;
pub mod builtins;
pub mod error;
pub mod fold;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod token;
pub mod types;

pub use error::CompileError;
pub use sema::Module;

/// Compiles MiniC source text to an analyzed [`Module`].
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error. Use
/// [`CompileError::render`] with the same source to get a message with
/// a line number.
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let _sp = obs::span("minic.compile");
    let unit = {
        let _sp = obs::span("minic.parse");
        parser::parse(src)?
    };
    let _sp = obs::span("minic.sema");
    sema::analyze(unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let m = compile("int main(void) { return 0; }").unwrap();
        assert_eq!(m.functions.len(), 1);
    }

    #[test]
    fn compile_reports_errors_with_lines() {
        let src = "int main(void) {\n  return x;\n}";
        let err = compile(src).unwrap_err();
        assert!(err.render(src).contains("line 2"));
    }
}
