//! Deterministic single-function source edits, for the incremental
//! differential suite and the storm driver's update traffic.
//!
//! Two flavors:
//!
//! - [`mutate`] rewrites one expression inside one function of a
//!   fuzzgen [`Prog`] (semantics-preserving *totality*: fuzzgen bodies
//!   bound every loop and recursion with guard counters and fuel, so
//!   changing a condition's value never makes a program diverge);
//! - [`edit_function_source`] inserts a no-op statement at the top of
//!   the n-th defined function of arbitrary MiniC source (suite
//!   programs), using the parser's own span for the body brace — no
//!   textual pattern matching.
//!
//! Both are driven by a caller-owned xorshift state, so a (seed,
//! client) pair replays the identical edit sequence on every run — the
//! property the storm determinism test and the differential suite key
//! off.

use fuzzgen::gen::{Prog, Stmt};
use minic::ast::Item;

/// One step of the xorshift64 generator (never returns 0 for a nonzero
/// state; callers seed with a nonzero constant).
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Rewrites one expression in one function of `prog`, chosen by `rng`.
/// Returns `false` when the chosen program has no editable expression
/// (rare; callers skip the update in that case).
pub fn mutate(prog: &mut Prog, rng: &mut u64) -> bool {
    let n_funcs = prog.funcs.len();
    if n_funcs == 0 {
        return false;
    }
    let start = (xorshift(rng) % n_funcs as u64) as usize;
    let op = xorshift(rng);
    let pick = xorshift(rng);
    for off in 0..n_funcs {
        let f = &mut prog.funcs[(start + off) % n_funcs];
        let total = count_exprs(&mut f.body);
        if total == 0 {
            continue;
        }
        let mut k = (pick % total as u64) as usize;
        return mutate_kth(&mut f.body, &mut k, op);
    }
    false
}

/// All generated expressions are int-typed (conditions, scrutinees,
/// return values), so int-preserving wrappers keep the program
/// compiling; the guard counters keep it terminating.
fn apply(e: &mut String, op: u64) {
    *e = match op % 3 {
        0 => format!("({e}) + 1"),
        1 => format!("!({e})"),
        _ => format!("({e}) | 1"),
    };
}

fn count_exprs(stmts: &mut Vec<Stmt>) -> usize {
    let mut n = 0;
    for s in stmts {
        n += s.exprs_mut().len();
        for v in s.child_vecs_mut() {
            n += count_exprs(v);
        }
    }
    n
}

fn mutate_kth(stmts: &mut Vec<Stmt>, k: &mut usize, op: u64) -> bool {
    for s in stmts {
        for e in s.exprs_mut() {
            if *k == 0 {
                apply(e, op);
                return true;
            }
            *k -= 1;
        }
        for v in s.child_vecs_mut() {
            if mutate_kth(v, k, op) {
                return true;
            }
        }
    }
    false
}

/// Inserts a no-op statement (`0;`) at the top of the `ordinal`-th
/// *defined* function of `src`. Returns `None` if `src` does not parse
/// or has no such function. The edit is intentionally minimal: it
/// changes exactly one function's content fingerprint while leaving
/// every other declaration's text and ordinal untouched.
pub fn edit_function_source(src: &str, ordinal: usize) -> Option<String> {
    let unit = minic::parser::parse(src).ok()?;
    let body = unit
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Function(fd) => fd.body.as_ref(),
            _ => None,
        })
        .nth(ordinal)?;
    // The body is a block statement; its span starts at the `{`.
    let brace = body.span.lo as usize;
    if src.as_bytes().get(brace) != Some(&b'{') {
        return None;
    }
    let mut out = String::with_capacity(src.len() + 3);
    out.push_str(&src[..brace + 1]);
    out.push_str(" 0;");
    out.push_str(&src[brace + 1..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutate_is_deterministic_and_compiles() {
        for seed in 0..20u64 {
            let mut a = fuzzgen::gen::generate(seed);
            let mut b = fuzzgen::gen::generate(seed);
            let mut ra = (0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x1234_5678_9abc_def1)) | 1;
            let mut rb = ra;
            let ma = mutate(&mut a, &mut ra);
            let mb = mutate(&mut b, &mut rb);
            assert_eq!(ma, mb);
            assert_eq!(a.render(), b.render(), "seed {seed}");
            if ma {
                let src = a.render();
                let unit = minic::parser::parse(&src).expect("mutant parses");
                minic::sema::analyze(unit).expect("mutant analyzes");
            }
        }
    }

    #[test]
    fn source_edit_touches_one_function() {
        let src = "int f(int x) { return x + 1; }\nint main(void) { return f(2); }\n";
        let edited = edit_function_source(src, 0).unwrap();
        assert!(
            edited.contains("int f(int x) { 0; return x + 1; }"),
            "{edited}"
        );
        assert!(
            edited.contains("int main(void) { return f(2); }"),
            "{edited}"
        );
        let unit = minic::parser::parse(&edited).expect("edited source parses");
        minic::sema::analyze(unit).expect("edited source analyzes");
        assert!(edit_function_source(src, 2).is_none());
    }
}
