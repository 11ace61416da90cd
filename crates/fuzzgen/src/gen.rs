//! The typed, seed-deterministic MiniC program generator.
//!
//! A generated program is first built as a small structured IR
//! ([`Prog`] / [`Stmt`]) and then rendered to MiniC source. Keeping the
//! IR around (rather than emitting text directly) is what makes
//! [`crate::minimize()`] possible: the minimizer mutates the IR and
//! re-renders, so every shrink candidate is well-formed by
//! construction.
//!
//! # Guarantees
//!
//! Every generated program **terminates** and is **fully defined**:
//!
//! - every loop's condition is `(guard++ < limit) && (...)`, where the
//!   guard counter is a dedicated local — `break`/`continue`/`goto`
//!   cannot skip the increment because it lives in the condition
//!   itself (or the `for` step);
//! - every backward `goto` is guarded by a monotone counter;
//! - every function except `main` opens with a global-fuel check
//!   (`if (rfuel-- <= 0) return p0;`), so direct, mutual, and
//!   function-pointer recursion all bottom out;
//! - integer division and remainder denominators are `(e | 1)`
//!   (never zero), shift amounts are masked to `& 7`, and array
//!   indices are masked to the power-of-two array length;
//! - pointers are only ever assigned the addresses of live objects
//!   (globals, or locals of the same function) and are initialized at
//!   declaration; function pointers are assigned in `main`'s prologue
//!   before any other call can run.
//!
//! The surface covered: pointers, arrays, structs (copy assignment,
//! `.` and `->` access), function pointers, direct and mutual
//! recursion, `switch` with fallthrough and shared labels,
//! forward/backward `goto` (including jumps *into* loop bodies),
//! `break`/`continue`, short-circuit `&&`/`||`, the ternary operator,
//! pre/post increment, compound assignment, comma expressions, `char`
//! and `float` arithmetic, and casts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Length of every generated array (power of two so indices can be
/// masked in-bounds).
pub const ARRAY_LEN: usize = 8;

/// A generated switch arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Distinct `case` values (empty for a pure `default` arm).
    pub labels: Vec<i64>,
    /// Whether this arm carries `default:`.
    pub is_default: bool,
    /// The arm body.
    pub body: Vec<Stmt>,
    /// Whether the arm ends in `break;` (otherwise it falls through).
    pub has_break: bool,
}

/// A generated statement. Loop forms carry the index of their guard
/// counter (`t{guard}`) and an iteration budget; goto forms carry the
/// index of their label (`lab{label}`).
#[derive(Debug, Clone)]
pub enum Stmt {
    /// An opaque single statement (assignment, call, `printf`, ...),
    /// stored as text including the trailing `;`.
    Raw(String),
    /// `if (cond) { .. } else { .. }` (else branch may be empty).
    If(String, Vec<Stmt>, Vec<Stmt>),
    /// `t = 0; while ((t++ < limit) && (cond)) { .. }`
    While {
        /// Guard counter index.
        guard: usize,
        /// Iteration budget.
        limit: u32,
        /// Extra condition (any int expression).
        cond: String,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `t = 0; do { .. } while ((++t < limit) && (cond));`
    DoWhile {
        /// Guard counter index.
        guard: usize,
        /// Iteration budget.
        limit: u32,
        /// Extra condition.
        cond: String,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (t = 0; (t < limit) && (cond); t++) { .. }`
    For {
        /// Guard counter index.
        guard: usize,
        /// Iteration budget.
        limit: u32,
        /// Extra condition.
        cond: String,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `switch ((scrut) & 3) { arms }`
    Switch {
        /// Scrutinee (masked by the renderer).
        scrut: String,
        /// The arms, in order.
        arms: Vec<Arm>,
    },
    /// `break;` (generated only inside loops or switches).
    Break,
    /// `continue;` (generated only inside loops).
    Continue,
    /// `return expr;`
    Return(String),
    /// `lab: ; body; if (t++ < limit) goto lab;` — a guarded backward
    /// goto forming an irreducible-looking loop.
    BackGoto {
        /// Guard counter index.
        guard: usize,
        /// Budget of extra traversals.
        limit: u32,
        /// Label index.
        label: usize,
        /// Statements between the label and the goto.
        body: Vec<Stmt>,
    },
    /// `if (cond) goto lab; skipped; lab: ;` — a forward skip.
    FwdGoto {
        /// The guard condition.
        cond: String,
        /// Label index.
        label: usize,
        /// Statements the goto jumps over.
        skipped: Vec<Stmt>,
    },
    /// `if (t++ < 1) goto lab; while ((u++ < limit) && (cond)) {
    /// before; lab: ; after; }` — a forward goto *into* a loop body,
    /// skipping the loop header on the first traversal.
    GotoIntoLoop {
        /// Guard counter for the one-shot jump.
        guard: usize,
        /// Guard counter for the loop (monotone: no reset, because the
        /// goto would skip it).
        lguard: usize,
        /// Loop iteration budget.
        limit: u32,
        /// Label index.
        label: usize,
        /// Extra loop condition.
        cond: String,
        /// Body statements before the label.
        before: Vec<Stmt>,
        /// Body statements after the label.
        after: Vec<Stmt>,
    },
}

impl Stmt {
    /// Mutable references to every nested statement list, for the
    /// minimizer.
    pub fn child_vecs_mut(&mut self) -> Vec<&mut Vec<Stmt>> {
        match self {
            Stmt::If(_, t, e) => vec![t, e],
            Stmt::While { body, .. }
            | Stmt::DoWhile { body, .. }
            | Stmt::For { body, .. }
            | Stmt::BackGoto { body, .. } => vec![body],
            Stmt::FwdGoto { skipped, .. } => vec![skipped],
            Stmt::GotoIntoLoop { before, after, .. } => vec![before, after],
            Stmt::Switch { arms, .. } => arms.iter_mut().map(|a| &mut a.body).collect(),
            _ => Vec::new(),
        }
    }

    /// Mutable references to every embedded condition/scrutinee
    /// expression, for the minimizer. (`Raw` statements are opaque;
    /// the minimizer drops them whole instead.)
    pub fn exprs_mut(&mut self) -> Vec<&mut String> {
        match self {
            Stmt::If(c, _, _)
            | Stmt::While { cond: c, .. }
            | Stmt::DoWhile { cond: c, .. }
            | Stmt::For { cond: c, .. }
            | Stmt::Switch { scrut: c, .. }
            | Stmt::Return(c)
            | Stmt::FwdGoto { cond: c, .. }
            | Stmt::GotoIntoLoop { cond: c, .. } => vec![c],
            _ => Vec::new(),
        }
    }
}

/// A generated function: `int f{idx}(int p0, int p1)`, or `main`.
#[derive(Debug, Clone)]
pub struct Func {
    /// Position in [`Prog::funcs`]; non-main functions are named
    /// `f{idx}`.
    pub idx: usize,
    /// Whether this is `main` (no parameters, no fuel guard).
    pub is_main: bool,
    /// The generated body (renderer adds declarations, the fuel guard,
    /// and a trailing return around it).
    pub body: Vec<Stmt>,
    /// Number of `int v{i}` locals.
    pub n_vars: usize,
    /// Initial values of the locals.
    pub var_init: Vec<i64>,
    /// Number of loop/goto guard counters `t{i}`.
    pub n_guards: usize,
    /// Number of labels `lab{i}`.
    pub n_labels: usize,
    /// Whether the function declares `int la[ARRAY_LEN]`.
    pub has_local_array: bool,
    /// Whether the function declares `float w0`.
    pub has_float: bool,
    /// Whether the function declares `char c0`.
    pub has_char: bool,
    /// Whether the function declares `struct S st` (and `sp = &gs`).
    pub has_struct: bool,
    /// Whether the function declares `int *pp`.
    pub has_ptr: bool,
}

/// A whole generated program.
#[derive(Debug, Clone)]
pub struct Prog {
    /// The seed that produced it.
    pub seed: u64,
    /// Emit `struct S` and struct-typed code.
    pub use_struct: bool,
    /// Emit `float` code.
    pub use_floats: bool,
    /// Emit `int *` code.
    pub use_ptrs: bool,
    /// Emit the global function pointer and calls through it.
    pub use_fnptr: bool,
    /// Global recursion fuel (`int rfuel = fuel;`).
    pub fuel: u32,
    /// Initial values of `g0..g2`.
    pub global_init: [i64; 3],
    /// Initial values of `ga[ARRAY_LEN]`.
    pub array_init: [i64; ARRAY_LEN],
    /// Which function `main`'s prologue points `gfp` at.
    pub fnptr_target: usize,
    /// The functions; the last one is `main`.
    pub funcs: Vec<Func>,
}

impl Prog {
    /// Number of non-main functions.
    pub fn n_funcs(&self) -> usize {
        self.funcs.len() - 1
    }
}

// ---------------------------------------------------------------------
// Precedence-aware expression text
// ---------------------------------------------------------------------

/// An expression rendered as text, remembering its top-level C
/// precedence so parentheses are inserted only where grouping demands
/// them — a deliberately *minimal* parenthesization, so the round-trip
/// oracle exercises the pretty-printer's own precedence logic.
///
/// Builders append into one buffer per expression: a compound reuses
/// its leading operand's text when that needs no parentheses, and
/// otherwise allocates once at the size it will reach.
#[derive(Debug, Clone)]
struct CExpr {
    text: String,
    prec: u8,
}

fn atom(s: impl Into<String>) -> CExpr {
    CExpr {
        text: s.into(),
        prec: 16,
    }
}

fn lit(v: i64) -> CExpr {
    if v < 0 {
        atom(format!("({v})"))
    } else {
        atom(v.to_string())
    }
}

/// Appends `e` to `out`, parenthesized if its precedence is below `min`.
fn sub(out: &mut String, e: &CExpr, min: u8) {
    if e.prec < min {
        out.push('(');
        out.push_str(&e.text);
        out.push(')');
    } else {
        out.push_str(&e.text);
    }
}

/// The buffer of a compound whose text starts with `a` at minimum
/// precedence `min`, with room for `more` bytes after it: `a`'s own
/// text when it needs no parentheses, else a fresh `(a)`.
fn lead(a: CExpr, min: u8, more: usize) -> String {
    if a.prec >= min {
        let mut text = a.text;
        text.reserve(more);
        text
    } else {
        let mut text = String::with_capacity(a.text.len() + 2 + more);
        sub(&mut text, &a, min);
        text
    }
}

/// The buffer of a compound whose text starts with the literal
/// `prefix`, with room for `more` bytes after it.
fn prefixed(prefix: &str, more: usize) -> String {
    let mut text = String::with_capacity(prefix.len() + more);
    text.push_str(prefix);
    text
}

/// Left-associative binary operator at precedence `prec`.
fn bin(op: &str, prec: u8, a: CExpr, b: &CExpr) -> CExpr {
    let mut text = lead(a, prec, op.len() + b.text.len() + 4);
    text.push(' ');
    text.push_str(op);
    text.push(' ');
    sub(&mut text, b, prec + 1);
    CExpr { text, prec }
}

/// Prefix unary operator; the operand is parenthesized unless primary,
/// which also prevents token gluing like `--x` from nested negation.
fn unary(op: &str, a: &CExpr) -> CExpr {
    let mut text = prefixed(op, a.text.len() + 2);
    sub(&mut text, a, 16);
    CExpr { text, prec: 14 }
}

fn ternary(c: CExpr, t: &CExpr, e: &CExpr) -> CExpr {
    let mut text = lead(c, 4, t.text.len() + e.text.len() + 10);
    text.push_str(" ? ");
    sub(&mut text, t, 3);
    text.push_str(" : ");
    sub(&mut text, e, 3);
    CExpr { text, prec: 3 }
}

/// `callee(a, b)`; `callee` arrives as the start of the buffer.
fn call(mut text: String, args: &[CExpr; 2]) -> CExpr {
    text.reserve(args[0].text.len() + args[1].text.len() + 8);
    text.push('(');
    sub(&mut text, &args[0], 3);
    text.push_str(", ");
    sub(&mut text, &args[1], 3);
    text.push(')');
    CExpr { text, prec: 15 }
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/// Maximum statement-nesting depth.
const MAX_DEPTH: u32 = 3;
/// Maximum expression-nesting depth.
const MAX_EXPR_DEPTH: u32 = 4;
/// Statement budget per function body.
const MAX_STMTS: u32 = 14;

/// Generates the program for `seed`.
pub fn generate(seed: u64) -> Prog {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_funcs = rng.gen_range(1..=4usize);
    let use_struct = rng.gen_bool(0.6);
    let use_floats = rng.gen_bool(0.5);
    let use_ptrs = rng.gen_bool(0.6);
    let use_fnptr = rng.gen_bool(0.5);
    let mut prog = Prog {
        seed,
        use_struct,
        use_floats,
        use_ptrs,
        use_fnptr,
        fuel: rng.gen_range(40..=140),
        global_init: [
            rng.gen_range(-9..=20),
            rng.gen_range(-9..=20),
            rng.gen_range(-9..=20),
        ],
        array_init: std::array::from_fn(|_| rng.gen_range(-5..=9)),
        fnptr_target: rng.gen_range(0..n_funcs),
        funcs: Vec::new(),
    };
    for idx in 0..=n_funcs {
        let is_main = idx == n_funcs;
        let mut g = FuncGen {
            rng: &mut rng,
            n_funcs,
            use_fnptr,
            is_main,
            n_vars: 0,
            n_guards: 0,
            n_labels: 0,
            has_local_array: false,
            has_float: false,
            has_char: false,
            has_struct: false,
            has_ptr: false,
        };
        g.n_vars = g.rng.gen_range(3..=5);
        g.has_local_array = g.rng.gen_bool(0.4);
        g.has_float = use_floats && g.rng.gen_bool(0.6);
        g.has_char = g.rng.gen_bool(0.35);
        g.has_struct = use_struct && g.rng.gen_bool(0.6);
        g.has_ptr = use_ptrs && g.rng.gen_bool(0.6);
        let budget = g.rng.gen_range(5..=MAX_STMTS);
        let body = g.stmts(budget, 0, false, false);
        let (n_vars, n_guards, n_labels) = (g.n_vars, g.n_guards, g.n_labels);
        let (has_local_array, has_float, has_char, has_struct, has_ptr) = (
            g.has_local_array,
            g.has_float,
            g.has_char,
            g.has_struct,
            g.has_ptr,
        );
        let var_init = (0..n_vars).map(|_| rng.gen_range(-9..=30)).collect();
        prog.funcs.push(Func {
            idx,
            is_main,
            body,
            n_vars,
            var_init,
            n_guards,
            n_labels,
            has_local_array,
            has_float,
            has_char,
            has_struct,
            has_ptr,
        });
    }
    prog
}

/// Per-function generation state.
struct FuncGen<'a> {
    rng: &'a mut StdRng,
    n_funcs: usize,
    use_fnptr: bool,
    is_main: bool,
    n_vars: usize,
    n_guards: usize,
    n_labels: usize,
    has_local_array: bool,
    has_float: bool,
    has_char: bool,
    has_struct: bool,
    has_ptr: bool,
}

impl FuncGen<'_> {
    fn fresh_guard(&mut self) -> usize {
        self.n_guards += 1;
        self.n_guards - 1
    }

    fn fresh_label(&mut self) -> usize {
        self.n_labels += 1;
        self.n_labels - 1
    }

    // ---- expressions ----

    /// A readable int-valued atom (rvalue).
    fn int_atom(&mut self) -> CExpr {
        loop {
            match self.rng.gen_range(0..10u32) {
                0 | 1 => return lit(self.rng.gen_range(-9..=99)),
                2 | 3 => {
                    let v = self.rng.gen_range(0..self.n_vars);
                    return atom(format!("v{v}"));
                }
                4 => return atom(format!("g{}", self.rng.gen_range(0..3u32))),
                5 => {
                    if !self.is_main {
                        return atom(format!("p{}", self.rng.gen_range(0..2u32)));
                    }
                }
                6 => {
                    let idx = self.rng.gen_range(0..ARRAY_LEN);
                    if self.has_local_array && self.rng.gen_bool(0.5) {
                        return atom(format!("la[{idx}]"));
                    }
                    return atom(format!("ga[{idx}]"));
                }
                7 => {
                    if self.has_struct {
                        let field = if self.rng.gen_bool(0.5) { "x" } else { "y" };
                        return match self.rng.gen_range(0..3u32) {
                            0 => atom(format!("st.{field}")),
                            1 => atom(format!("gs.{field}")),
                            _ => atom(format!("sp->{field}")),
                        };
                    }
                }
                8 => {
                    if self.has_ptr {
                        return atom("*pp");
                    }
                }
                _ => {
                    if self.has_char {
                        return atom("c0");
                    }
                }
            }
        }
    }

    /// A mutable int location (lvalue text).
    fn int_lvalue(&mut self) -> String {
        loop {
            match self.rng.gen_range(0..8u32) {
                0..=2 => return format!("v{}", self.rng.gen_range(0..self.n_vars)),
                3 => return format!("g{}", self.rng.gen_range(0..3u32)),
                4 => {
                    let idx = self.rng.gen_range(0..ARRAY_LEN);
                    if self.has_local_array && self.rng.gen_bool(0.5) {
                        return format!("la[{idx}]");
                    }
                    return format!("ga[{idx}]");
                }
                5 => {
                    if self.has_struct {
                        let field = if self.rng.gen_bool(0.5) { "x" } else { "y" };
                        let base = match self.rng.gen_range(0..3u32) {
                            0 => "st",
                            1 => "gs",
                            _ => return format!("sp->{field}"),
                        };
                        return format!("{base}.{field}");
                    }
                }
                6 => {
                    if self.has_ptr {
                        return "*pp".to_string();
                    }
                }
                _ => {
                    if !self.is_main {
                        return format!("p{}", self.rng.gen_range(0..2u32));
                    }
                }
            }
        }
    }

    /// An int-valued expression of bounded depth. All division,
    /// remainder, shift, and indexing forms are safe by construction.
    fn int_expr(&mut self, depth: u32) -> CExpr {
        if depth >= MAX_EXPR_DEPTH || self.rng.gen_bool(0.3) {
            return self.int_atom();
        }
        let a = self.int_expr(depth + 1);
        match self.rng.gen_range(0..20u32) {
            0 => bin("+", 12, a, &self.int_expr(depth + 1)),
            1 => bin("-", 12, a, &self.int_expr(depth + 1)),
            2 => bin("*", 13, a, &self.int_expr(depth + 1)),
            3 => {
                // Safe division: the denominator has its low bit set.
                let d = self.int_expr(depth + 1);
                let nz = bin("|", 6, d, &lit(1));
                let op = if self.rng.gen_bool(0.5) { "/" } else { "%" };
                bin(op, 13, a, &nz)
            }
            4 => {
                let s = self.int_expr(depth + 1);
                let masked = bin("&", 8, s, &lit(7));
                let op = if self.rng.gen_bool(0.5) { "<<" } else { ">>" };
                bin(op, 11, a, &masked)
            }
            5 => bin("&", 8, a, &self.int_expr(depth + 1)),
            6 => bin("|", 6, a, &self.int_expr(depth + 1)),
            7 => bin("^", 7, a, &self.int_expr(depth + 1)),
            8 | 9 => {
                let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6usize)];
                let prec = if op == "==" || op == "!=" { 9 } else { 10 };
                bin(op, prec, a, &self.int_expr(depth + 1))
            }
            10 => bin("&&", 5, a, &self.int_expr(depth + 1)),
            11 => bin("||", 4, a, &self.int_expr(depth + 1)),
            12 => unary(["-", "!", "~"][self.rng.gen_range(0..3usize)], &a),
            13 => ternary(a, &self.int_expr(depth + 1), &self.int_expr(depth + 1)),
            14 => {
                // Masked dynamic indexing.
                let base = if self.has_local_array && self.rng.gen_bool(0.5) {
                    "la"
                } else {
                    "ga"
                };
                let mut text = prefixed(base, a.text.len() + 8);
                text.push('[');
                sub(&mut text, &a, 8);
                let _ = write!(text, " & {}]", ARRAY_LEN - 1);
                CExpr { text, prec: 15 }
            }
            15 => self.call_expr(depth),
            16 => {
                if self.has_float {
                    let f = self.float_expr(depth + 1);
                    let mut text = prefixed("(int) ", f.text.len() + 2);
                    sub(&mut text, &f, 14);
                    CExpr { text, prec: 14 }
                } else {
                    a
                }
            }
            17 => {
                // Pre/post increment of a plain variable, as a value.
                let v = self.rng.gen_range(0..self.n_vars);
                if self.rng.gen_bool(0.5) {
                    CExpr {
                        text: format!("v{v}++"),
                        prec: 15,
                    }
                } else {
                    CExpr {
                        text: format!("++v{v}"),
                        prec: 14,
                    }
                }
            }
            18 => {
                // Comma expression.
                let b = self.int_expr(depth + 1);
                let mut text = String::with_capacity(a.text.len() + b.text.len() + 8);
                text.push('(');
                sub(&mut text, &a, 2);
                text.push_str(", ");
                sub(&mut text, &b, 2);
                text.push(')');
                CExpr { text, prec: 16 }
            }
            _ => {
                // Embedded assignment.
                let mut text = self.int_lvalue();
                let b = self.int_expr(depth + 1);
                text.reserve(b.text.len() + 5);
                text.push_str(" = ");
                sub(&mut text, &b, 2);
                CExpr { text, prec: 2 }
            }
        }
    }

    /// A call to a generated function (or through the function
    /// pointer); every callee is fuel-guarded, so this is always safe.
    fn call_expr(&mut self, depth: u32) -> CExpr {
        if self.n_funcs == 0 {
            return self.int_atom();
        }
        let args = [self.int_expr(depth + 1), self.int_expr(depth + 1)];
        if self.use_fnptr && self.rng.gen_bool(0.3) {
            call(String::from("gfp"), &args)
        } else {
            let target = self.rng.gen_range(0..self.n_funcs);
            call(format!("f{target}"), &args)
        }
    }

    /// A float-valued expression (only called when `has_float`).
    fn float_expr(&mut self, depth: u32) -> CExpr {
        if depth >= MAX_EXPR_DEPTH || self.rng.gen_bool(0.4) {
            return match self.rng.gen_range(0..3u32) {
                0 => atom("w0"),
                1 => {
                    let whole = self.rng.gen_range(0..9u32);
                    atom(format!("{whole}.5"))
                }
                _ => {
                    let i = self.int_atom();
                    let mut text = prefixed("(float) ", i.text.len() + 2);
                    sub(&mut text, &i, 14);
                    CExpr { text, prec: 14 }
                }
            };
        }
        let a = self.float_expr(depth + 1);
        let b = self.float_expr(depth + 1);
        let op = ["+", "-", "*"][self.rng.gen_range(0..3usize)];
        bin(op, if op == "*" { 13 } else { 12 }, a, &b)
    }

    // ---- statements ----

    /// Generates about `budget` statements at nesting `depth`.
    fn stmts(&mut self, budget: u32, depth: u32, in_loop: bool, in_switch: bool) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut left = budget;
        while left > 0 {
            let s = self.stmt(&mut left, depth, in_loop, in_switch);
            let is_return = matches!(s, Stmt::Return(_));
            out.push(s);
            if is_return {
                break;
            }
        }
        out
    }

    fn stmt(&mut self, left: &mut u32, depth: u32, in_loop: bool, in_switch: bool) -> Stmt {
        *left = left.saturating_sub(1);
        let structural_ok = depth < MAX_DEPTH && *left >= 2;
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            // Simple statements: the bulk.
            0..=34 => Stmt::Raw(self.raw_stmt()),
            35..=44 if structural_ok => {
                let sub_budget = self.sub_budget(left);
                let then_b = self.stmts(sub_budget, depth + 1, in_loop, in_switch);
                let else_b = if self.rng.gen_bool(0.5) {
                    let sub_budget = self.sub_budget(left);
                    self.stmts(sub_budget, depth + 1, in_loop, in_switch)
                } else {
                    Vec::new()
                };
                Stmt::If(self.int_expr(0).text, then_b, else_b)
            }
            45..=58 if structural_ok => {
                let guard = self.fresh_guard();
                let limit = self.rng.gen_range(1..=5u32);
                let cond = self.int_expr(1).text;
                let sub_budget = self.sub_budget(left);
                let body = self.stmts(sub_budget, depth + 1, true, false);
                match self.rng.gen_range(0..3u32) {
                    0 => Stmt::While {
                        guard,
                        limit,
                        cond,
                        body,
                    },
                    1 => Stmt::For {
                        guard,
                        limit,
                        cond,
                        body,
                    },
                    _ => Stmt::DoWhile {
                        guard,
                        limit,
                        cond,
                        body,
                    },
                }
            }
            59..=66 if structural_ok => {
                let scrut = self.int_expr(1).text;
                let arms = self.switch_arms(left, depth);
                Stmt::Switch { scrut, arms }
            }
            67..=71 if structural_ok => {
                let guard = self.fresh_guard();
                let label = self.fresh_label();
                let sub_budget = self.sub_budget(left);
                // The goto body must not re-enter via other labels;
                // generated gotos are self-contained, so plain stmts.
                let body = self.stmts(sub_budget, depth + 1, in_loop, in_switch);
                Stmt::BackGoto {
                    guard,
                    limit: self.rng.gen_range(1..=3u32),
                    label,
                    body,
                }
            }
            72..=76 if structural_ok => {
                let label = self.fresh_label();
                let cond = self.int_expr(1).text;
                let sub_budget = self.sub_budget(left);
                let skipped = self.stmts(sub_budget, depth + 1, in_loop, in_switch);
                Stmt::FwdGoto {
                    cond,
                    label,
                    skipped,
                }
            }
            77..=80 if structural_ok => {
                let guard = self.fresh_guard();
                let lguard = self.fresh_guard();
                let label = self.fresh_label();
                let cond = self.int_expr(1).text;
                let b1 = self.sub_budget(left);
                let before = self.stmts(b1, depth + 1, true, false);
                let b2 = self.sub_budget(left);
                let after = self.stmts(b2, depth + 1, true, false);
                Stmt::GotoIntoLoop {
                    guard,
                    lguard,
                    limit: self.rng.gen_range(2..=5u32),
                    label,
                    cond,
                    before,
                    after,
                }
            }
            81..=84 if in_loop || in_switch => Stmt::Break,
            85..=86 if in_loop => Stmt::Continue,
            87..=88 => Stmt::Return(self.return_expr()),
            _ => Stmt::Raw(self.raw_stmt()),
        }
    }

    fn sub_budget(&mut self, left: &mut u32) -> u32 {
        let take = self.rng.gen_range(1..=(*left).clamp(1, 4));
        *left = left.saturating_sub(take);
        take
    }

    fn return_expr(&mut self) -> String {
        let e = self.int_expr(1);
        bin("&", 8, e, &lit(255)).text
    }

    fn switch_arms(&mut self, left: &mut u32, depth: u32) -> Vec<Arm> {
        let mut values = [0i64, 1, 2, 3];
        // Shuffle the candidate case values.
        for i in (1..values.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            values.swap(i, j);
        }
        let n_arms = self.rng.gen_range(1..=3usize);
        let default_at = if self.rng.gen_bool(0.7) {
            Some(self.rng.gen_range(0..=n_arms.min(2)))
        } else {
            None
        };
        let mut arms = Vec::new();
        let mut vi = 0usize;
        for a in 0..n_arms {
            let is_default = default_at == Some(a);
            let n_labels = if is_default && self.rng.gen_bool(0.5) {
                0
            } else {
                self.rng.gen_range(1..=2usize).min(values.len() - vi)
            };
            if n_labels == 0 && !is_default {
                continue;
            }
            let labels = values[vi..vi + n_labels].to_vec();
            vi += n_labels;
            let sub_budget = self.sub_budget(left);
            let body = self.stmts(sub_budget, depth + 1, false, true);
            // The final arm always breaks (fallthrough off the end is
            // fine too, but this keeps arm order irrelevant to later
            // minimizer reorderings).
            let has_break = a + 1 == n_arms || self.rng.gen_bool(0.6);
            arms.push(Arm {
                labels,
                is_default,
                body,
                has_break,
            });
            if vi >= values.len() {
                break;
            }
        }
        if arms.is_empty() {
            arms.push(Arm {
                labels: vec![0],
                is_default: false,
                body: vec![Stmt::Raw(self.raw_stmt())],
                has_break: true,
            });
        }
        arms
    }

    /// One simple statement as text.
    fn raw_stmt(&mut self) -> String {
        match self.rng.gen_range(0..24u32) {
            0..=7 => {
                let lv = self.int_lvalue();
                let e = self.int_expr(0);
                assign(lv, "=", &e)
            }
            8..=10 => {
                let lv = self.int_lvalue();
                let op = ["+=", "-=", "*=", "&=", "|=", "^="][self.rng.gen_range(0..6usize)];
                let e = self.int_expr(1);
                assign(lv, op, &e)
            }
            11 => {
                let mut lv = self.int_lvalue();
                if self.rng.gen_bool(0.5) {
                    lv.push_str("++;");
                    lv
                } else {
                    let mut text = prefixed("--", lv.len() + 1);
                    text.push_str(&lv);
                    text.push(';');
                    text
                }
            }
            12 | 13 => {
                let e = self.int_expr(1);
                let mut text = prefixed("printf(\"%d \", ", e.text.len() + 4);
                sub(&mut text, &e, 3);
                text.push_str(");");
                text
            }
            14 | 15 => {
                if self.n_funcs > 0 {
                    let mut text = self.call_expr(0).text;
                    text.push(';');
                    text
                } else {
                    let mut lv = self.int_lvalue();
                    lv.push_str(" = 1;");
                    lv
                }
            }
            16 => {
                if self.has_float {
                    let f = self.float_expr(0);
                    assign(String::from("w0"), "=", &f)
                } else {
                    let lv = self.int_lvalue();
                    let e = self.int_expr(1);
                    assign(lv, "=", &e)
                }
            }
            17 | 18 => {
                if self.has_ptr {
                    match self.rng.gen_range(0..4u32) {
                        0 => format!("pp = &g{};", self.rng.gen_range(0..3u32)),
                        1 => format!("pp = &v{};", self.rng.gen_range(0..self.n_vars)),
                        2 => {
                            let e = self.int_expr(1);
                            let mut text = prefixed("pp = &ga[", e.text.len() + 10);
                            sub(&mut text, &e, 8);
                            let _ = write!(text, " & {}];", ARRAY_LEN - 1);
                            text
                        }
                        _ => {
                            let e = self.int_expr(1);
                            assign(String::from("*pp"), "=", &e)
                        }
                    }
                } else {
                    let lv = self.int_lvalue();
                    let e = self.int_expr(1);
                    assign(lv, "=", &e)
                }
            }
            19 => {
                if self.has_struct {
                    match self.rng.gen_range(0..3u32) {
                        0 => "st = gs;".to_string(),
                        1 => "gs = st;".to_string(),
                        _ => {
                            if self.rng.gen_bool(0.5) {
                                "sp = &gs;".to_string()
                            } else {
                                "sp = &st;".to_string()
                            }
                        }
                    }
                } else {
                    let lv = self.int_lvalue();
                    format!("{lv} = {lv} + 1;")
                }
            }
            20 => {
                if self.use_fnptr && self.n_funcs > 0 {
                    format!("gfp = f{};", self.rng.gen_range(0..self.n_funcs))
                } else {
                    let mut lv = self.int_lvalue();
                    lv.push_str(" = 0;");
                    lv
                }
            }
            21 => {
                if self.has_char {
                    let e = self.int_expr(1);
                    assign(String::from("c0"), "=", &e)
                } else {
                    let lv = self.int_lvalue();
                    let e = self.int_expr(1);
                    assign(lv, "=", &e)
                }
            }
            _ => {
                // Chained / multi-effect statement: a, b or nested
                // assignment.
                let mut a = self.int_lvalue();
                let b = self.int_lvalue();
                let e = self.int_expr(1);
                a.push_str(" = ");
                a.push_str(&b);
                assign(a, "=", &e)
            }
        }
    }
}

/// The statement `{lhs} {op} {e};`, with `e` at assignment precedence,
/// written into `lhs`'s buffer.
fn assign(mut lhs: String, op: &str, e: &CExpr) -> String {
    lhs.reserve(op.len() + e.text.len() + 5);
    lhs.push(' ');
    lhs.push_str(op);
    lhs.push(' ');
    sub(&mut lhs, e, 2);
    lhs.push(';');
    lhs
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

impl Prog {
    /// Renders the program to MiniC source.
    pub fn render(&self) -> String {
        // Generated programs average about 2.5 KB of text.
        let mut out = String::with_capacity(4096);
        if self.use_struct {
            if self.use_floats {
                out.push_str("struct S { int x; int y; float w; };\n\n");
            } else {
                out.push_str("struct S { int x; int y; };\n\n");
            }
        }
        let _ = writeln!(out, "int rfuel = {};", self.fuel);
        for (i, v) in self.global_init.iter().enumerate() {
            let _ = writeln!(out, "int g{i} = {v};");
        }
        let _ = write!(out, "int ga[{ARRAY_LEN}] = {{");
        write_list(&mut out, self.array_init.iter().copied());
        out.push_str("};\n");
        if self.use_struct {
            out.push_str("struct S gs;\n");
        }
        out.push('\n');
        for i in 0..self.n_funcs() {
            let _ = writeln!(out, "int f{i}(int p0, int p1);");
        }
        if self.use_fnptr {
            out.push_str("int (*gfp)(int, int);\n");
        }
        out.push('\n');
        for f in &self.funcs {
            self.render_func(f, &mut out);
            out.push('\n');
        }
        out
    }

    fn render_func(&self, f: &Func, out: &mut String) {
        if f.is_main {
            out.push_str("int main(void) {\n");
        } else {
            let _ = writeln!(out, "int f{}(int p0, int p1) {{", f.idx);
        }
        // Declarations.
        for (i, v) in f.var_init.iter().enumerate() {
            let _ = writeln!(out, "    int v{i} = {v};");
        }
        if f.n_guards > 0 {
            out.push_str("    int ");
            for i in 0..f.n_guards {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "t{i} = 0");
            }
            out.push_str(";\n");
        }
        if f.has_local_array {
            let _ = write!(out, "    int la[{ARRAY_LEN}] = {{");
            write_list(out, (0..ARRAY_LEN as i64).map(|i| i * 3 - 5));
            out.push_str("};\n");
        }
        if f.has_float {
            out.push_str("    float w0 = 1.5;\n");
        }
        if f.has_char {
            out.push_str("    char c0 = 'k';\n");
        }
        if f.has_struct {
            out.push_str("    struct S st;\n    struct S *sp = &gs;\n");
        }
        if f.has_ptr {
            out.push_str("    int *pp = &g0;\n");
        }
        // Prologue.
        if !f.is_main {
            out.push_str("    if (rfuel-- <= 0) return p0 & 255;\n");
        }
        if f.has_struct {
            out.push_str("    st.x = v0;\n    st.y = 2;\n");
            if self.use_floats {
                out.push_str("    st.w = 0.5;\n");
            }
        }
        if f.is_main && self.use_fnptr {
            let _ = writeln!(out, "    gfp = f{};", self.fnptr_target);
        }
        for s in &f.body {
            render_stmt(s, 1, out);
        }
        // Trailing return (unreachable if the body always returns).
        if f.is_main {
            out.push_str(
                "    printf(\"end %d %d %d\\n\", (g0 + g1 + g2) & 255, v0 & 255, ga[3] & 255);\n",
            );
            out.push_str("    return (v0 + v1 + g0) & 255;\n");
        } else {
            out.push_str("    return (v0 + p0) & 255;\n");
        }
        out.push_str("}\n");
    }
}

/// Writes `values` separated by `", "`.
fn write_list(out: &mut String, values: impl Iterator<Item = i64>) {
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("    ");
    }
}

fn render_block(stmts: &[Stmt], indent: usize, out: &mut String) {
    out.push_str(" {\n");
    for s in stmts {
        render_stmt(s, indent + 1, out);
    }
    pad(indent, out);
    out.push_str("}\n");
}

fn render_stmt(s: &Stmt, indent: usize, out: &mut String) {
    match s {
        Stmt::Raw(text) => {
            pad(indent, out);
            out.push_str(text);
            out.push('\n');
        }
        Stmt::If(cond, then_b, else_b) => {
            pad(indent, out);
            out.push_str("if (");
            out.push_str(cond);
            out.push(')');
            render_block(then_b, indent, out);
            if !else_b.is_empty() {
                pad(indent, out);
                out.push_str("else");
                render_block(else_b, indent, out);
            }
        }
        Stmt::While {
            guard,
            limit,
            cond,
            body,
        } => {
            pad(indent, out);
            let _ = writeln!(out, "t{guard} = 0;");
            pad(indent, out);
            let _ = write!(out, "while (t{guard}++ < {limit} && ({cond}))");
            render_block(body, indent, out);
        }
        Stmt::DoWhile {
            guard,
            limit,
            cond,
            body,
        } => {
            pad(indent, out);
            let _ = writeln!(out, "t{guard} = 0;");
            pad(indent, out);
            out.push_str("do");
            render_block(body, indent, out);
            // render_block leaves "}\n"; rewrite the tail to attach the
            // do-while condition.
            out.truncate(out.len() - 2);
            let _ = writeln!(out, "}} while (++t{guard} < {limit} && ({cond}));");
        }
        Stmt::For {
            guard,
            limit,
            cond,
            body,
        } => {
            pad(indent, out);
            let _ = write!(
                out,
                "for (t{guard} = 0; t{guard} < {limit} && ({cond}); t{guard}++)"
            );
            render_block(body, indent, out);
        }
        Stmt::Switch { scrut, arms } => {
            pad(indent, out);
            let _ = writeln!(out, "switch (({scrut}) & 3) {{");
            for arm in arms {
                for l in &arm.labels {
                    pad(indent, out);
                    let _ = writeln!(out, "case {l}:");
                }
                if arm.is_default {
                    pad(indent, out);
                    out.push_str("default:\n");
                }
                for s in &arm.body {
                    render_stmt(s, indent + 1, out);
                }
                if arm.has_break {
                    pad(indent + 1, out);
                    out.push_str("break;\n");
                }
            }
            pad(indent, out);
            out.push_str("}\n");
        }
        Stmt::Break => {
            pad(indent, out);
            out.push_str("break;\n");
        }
        Stmt::Continue => {
            pad(indent, out);
            out.push_str("continue;\n");
        }
        Stmt::Return(e) => {
            pad(indent, out);
            out.push_str("return ");
            out.push_str(e);
            out.push_str(";\n");
        }
        Stmt::BackGoto {
            guard,
            limit,
            label,
            body,
        } => {
            let _ = writeln!(out, "lab{label}: ;");
            for s in body {
                render_stmt(s, indent, out);
            }
            pad(indent, out);
            let _ = writeln!(out, "if (t{guard}++ < {limit}) goto lab{label};");
        }
        Stmt::FwdGoto {
            cond,
            label,
            skipped,
        } => {
            pad(indent, out);
            let _ = writeln!(out, "if ({cond}) goto lab{label};");
            for s in skipped {
                render_stmt(s, indent, out);
            }
            let _ = writeln!(out, "lab{label}: ;");
        }
        Stmt::GotoIntoLoop {
            guard,
            lguard,
            limit,
            label,
            cond,
            before,
            after,
        } => {
            pad(indent, out);
            let _ = writeln!(out, "if (t{guard}++ < 1) goto lab{label};");
            pad(indent, out);
            let _ = writeln!(out, "while (t{lguard}++ < {limit} && ({cond})) {{");
            for s in before {
                render_stmt(s, indent + 1, out);
            }
            let _ = writeln!(out, "lab{label}: ;");
            for s in after {
                render_stmt(s, indent + 1, out);
            }
            pad(indent, out);
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            let a = generate(seed).render();
            let b = generate(seed).render();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn generated_programs_compile() {
        for seed in 0..50 {
            let src = generate(seed).render();
            if let Err(e) = minic::compile(&src) {
                panic!("seed {seed} failed to compile: {}\n{src}", e.render(&src));
            }
        }
    }

    #[test]
    fn seeds_vary_the_program() {
        let a = generate(1).render();
        let b = generate(2).render();
        assert_ne!(a, b);
    }
}
