//! The instrumenting CFG interpreter.
//!
//! This is the reproduction's substitute for the paper's instrumented
//! native binaries: it executes a [`flowgraph::Program`] directly on its
//! CFGs, counting basic blocks, edges, branch directions, call sites,
//! and function invocations — exactly the quantities the paper's
//! profiling runs collected. An abstract cost model (one unit per
//! expression node evaluated, plus block and call overheads) stands in
//! for wall-clock time in the Figure 10 selective-optimization
//! experiment.
//!
//! Memory is word-addressed: address 0 is NULL, static data and the
//! heap live at low addresses, and the stack lives above
//! [`STACK_BASE`]. Every scalar occupies one word.

use crate::profile::Profile;
use crate::reuse::{MemTap, NoTap, ObjectMap, ReuseCollector, ReuseTrace};
use flowgraph::{BlockId, Cfg, Instr, Program, Terminator};
use minic::ast::{BinOp, Expr, ExprKind, UnOp};
use minic::builtins::Builtin;
use minic::sema::{CalleeKind, FuncId, InitWord, Resolution};
use minic::types::Type;
use std::error::Error;
use std::fmt;

/// First address of the stack region.
pub const STACK_BASE: u64 = 1 << 40;

/// Cost units charged per function call (on top of per-expression units).
pub const CALL_COST: u64 = 4;

/// A runtime value: one machine word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer / char word.
    Int(i64),
    /// Floating word.
    Float(f64),
    /// Pointer word (0 = NULL).
    Ptr(u64),
    /// Function pointer.
    Fn(FuncId),
}

/// Hashes the exact bit pattern: floats by [`f64::to_bits`], so `0.0`
/// and `-0.0` (which behave differently under division) hash apart.
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match *self {
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Ptr(p) => p.hash(state),
            Value::Fn(f) => f.hash(state),
        }
    }
}

impl Value {
    /// C truthiness.
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
            Value::Ptr(p) => p != 0,
            Value::Fn(_) => true,
        }
    }

    /// The value as an integer word (C integer conversion).
    pub fn to_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => v as i64,
            Value::Ptr(p) => p as i64,
            Value::Fn(f) => f.0 as i64,
        }
    }

    /// The value as a float (C floating conversion).
    pub fn to_float(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
            Value::Ptr(p) => p as f64,
            Value::Fn(f) => f.0 as f64,
        }
    }

    /// The value as a pointer word (function values decay to NULL).
    pub fn to_ptr(self) -> u64 {
        match self {
            Value::Ptr(p) => p,
            Value::Int(v) => v as u64,
            Value::Float(v) => v as u64,
            Value::Fn(_) => 0,
        }
    }
}

/// Errors the interpreter can report.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Load or store through a NULL pointer.
    NullDeref,
    /// Address outside any allocated region.
    OutOfBounds {
        /// The offending address.
        addr: u64,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// The configured step budget was exhausted.
    StepLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// Call depth exceeded the configured maximum.
    StackOverflow {
        /// The depth limit.
        limit: usize,
    },
    /// An indirect call reached a value that is not a function.
    NotAFunction,
    /// A call reached a function with no body.
    Undefined {
        /// The function's name.
        name: String,
    },
    /// The program called `abort()`.
    Aborted,
    /// The program has no `main` function.
    NoMain,
    /// Anything else (bad builtin arguments, etc.).
    Other(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NullDeref => write!(f, "null pointer dereference"),
            RuntimeError::OutOfBounds { addr } => write!(f, "wild address {addr:#x}"),
            RuntimeError::DivByZero => write!(f, "integer division by zero"),
            RuntimeError::StepLimit { limit } => write!(f, "exceeded step limit {limit}"),
            RuntimeError::StackOverflow { limit } => {
                write!(f, "call depth exceeded {limit}")
            }
            RuntimeError::NotAFunction => write!(f, "indirect call through a non-function"),
            RuntimeError::Undefined { name } => {
                write!(f, "call to undefined function `{name}`")
            }
            RuntimeError::Aborted => write!(f, "program called abort()"),
            RuntimeError::NoMain => write!(f, "program has no `main` function"),
            RuntimeError::Other(msg) => f.write_str(msg),
        }
    }
}

impl Error for RuntimeError {}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Bytes served to `getchar()`.
    pub input: Vec<u8>,
    /// Abort the run after this many evaluation steps.
    pub max_steps: u64,
    /// Maximum MiniC call depth.
    pub max_call_depth: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            input: Vec::new(),
            max_steps: 400_000_000,
            max_call_depth: 50_000,
        }
    }
}

impl RunConfig {
    /// A config serving the given input bytes with default limits.
    pub fn with_input(input: impl Into<Vec<u8>>) -> Self {
        RunConfig {
            input: input.into(),
            ..RunConfig::default()
        }
    }
}

/// The result of a successful (or `exit()`ed) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// `main`'s return value or the `exit()` status.
    pub exit_code: i64,
    /// The collected profile.
    pub profile: Profile,
    /// Everything the program printed.
    pub output: Vec<u8>,
    /// Evaluation steps consumed.
    pub steps: u64,
}

impl RunOutcome {
    /// The program output as UTF-8 (lossy).
    pub fn stdout(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

/// Runs `main` by walking the CFG/AST directly and collects a profile.
///
/// This is the original tree-walking interpreter, retained as the
/// differential-testing oracle for the bytecode VM behind
/// [`crate::run`] — exactly as `linsolve`'s dense solver is the oracle
/// for the sparse one. The two must agree on exit code, output,
/// steps, and the full [`Profile`]; `tests/properties.rs` enforces
/// this on random programs.
///
/// # Errors
///
/// Returns a [`RuntimeError`] on any dynamic error (null dereference,
/// step-limit exhaustion, `abort()`, missing `main`, …).
///
/// # Examples
///
/// ```
/// use profiler::{run_ast, RunConfig};
///
/// let module = minic::compile(r#"
///     int main(void) {
///         int i, s = 0;
///         for (i = 0; i < 10; i++) s += i;
///         printf("%d\n", s);
///         return 0;
///     }
/// "#).unwrap();
/// let program = flowgraph::build_program(module);
/// let out = run_ast(&program, &RunConfig::default()).unwrap();
/// assert_eq!(out.stdout(), "45\n");
/// assert_eq!(out.exit_code, 0);
/// ```
pub fn run_ast(program: &Program, config: &RunConfig) -> Result<RunOutcome, RuntimeError> {
    on_interp_thread(program, config, NoTap).map(|(out, _)| out)
}

/// [`run_ast`] with exact reuse-distance tracing: the walker's
/// `load`/`store` feed every successful *data-segment* access (never
/// the locals stack) into a [`ReuseCollector`] partitioned by the
/// module's global layout. The differential oracle for the bytecode
/// VM's traced [`crate::CompiledProgram::execute`] — both must produce
/// bit-identical traces.
///
/// # Errors
///
/// Returns the same [`RuntimeError`]s as [`run_ast`].
pub fn run_ast_traced(
    program: &Program,
    config: &RunConfig,
) -> Result<(RunOutcome, ReuseTrace), RuntimeError> {
    let tap = ReuseCollector::new(ObjectMap::for_module(&program.module));
    on_interp_thread(program, config, tap).map(|(out, tap)| (out, tap.finish()))
}

/// Runs on a dedicated roomy-stack thread (deep MiniC recursion nests
/// Rust stack frames) and hands the tap back with the outcome.
fn on_interp_thread<T: MemTap + Send>(
    program: &Program,
    config: &RunConfig,
    tap: T,
) -> Result<(RunOutcome, T), RuntimeError> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("minic-interp".into())
            .stack_size(512 << 20)
            .spawn_scoped(scope, || run_on_this_thread(program, config, tap))
            .expect("spawning the interpreter thread")
            .join()
            .expect("interpreter thread panicked")
    })
}

fn run_on_this_thread<T: MemTap>(
    program: &Program,
    config: &RunConfig,
    tap: T,
) -> Result<(RunOutcome, T), RuntimeError> {
    let main = program
        .module
        .function_id("main")
        .ok_or(RuntimeError::NoMain)?;
    let mut interp = Interp::new(program, config, tap);
    interp.load_statics();
    let result = interp.call_function(main, Vec::new());
    let exit_code = match result {
        Ok(v) => v.to_int(),
        Err(Abort::Exit(code)) => code,
        Err(Abort::Error(e)) => return Err(e),
    };
    Ok((
        RunOutcome {
            exit_code,
            profile: interp.profile,
            output: interp.output,
            steps: interp.steps,
        },
        interp.tap,
    ))
}

/// A compact classification of an expression's type, precomputed per
/// AST node so the hot evaluation loop never touches a `HashMap` or
/// clones a `Type`. Shared with the bytecode compiler, which uses the
/// same classification to pick type-specialized opcodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeTy {
    pub(crate) class: TyClass,
    /// Element size in words for pointer-like types (1 otherwise).
    pub(crate) elem: u32,
    /// Total size in words (aggregates; 1 for scalars).
    pub(crate) size: u32,
}

/// Storage class of a slot, driving value conversion on store. Public
/// so the optimizer crate can interpret typed bytecode operands.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub enum TyClass {
    /// Integer / char word.
    Int,
    /// Floating word.
    Float,
    /// Data pointer word.
    Ptr,
    /// Function pointer word.
    FnPtr,
    /// Aggregate (struct / array) — handled by address, never converted.
    Agg,
    /// `void` and friends — never stored.
    Other,
}

impl NodeTy {
    pub(crate) const DEFAULT: NodeTy = NodeTy {
        class: TyClass::Int,
        elem: 1,
        size: 1,
    };

    pub(crate) fn of(ty: &Type, structs: &minic::types::StructLayouts) -> NodeTy {
        match ty {
            Type::Int | Type::Char => NodeTy::DEFAULT,
            Type::Float => NodeTy {
                class: TyClass::Float,
                elem: 1,
                size: 1,
            },
            Type::Ptr(inner) => NodeTy {
                class: TyClass::Ptr,
                elem: match &**inner {
                    Type::Void => 1,
                    t => t.size_words(structs) as u32,
                },
                size: 1,
            },
            Type::FnPtr(_) => NodeTy {
                class: TyClass::FnPtr,
                elem: 1,
                size: 1,
            },
            Type::Array(elem, n) => NodeTy {
                class: TyClass::Agg,
                elem: elem.size_words(structs) as u32,
                size: (elem.size_words(structs) * n) as u32,
            },
            Type::Struct(id) => NodeTy {
                class: TyClass::Agg,
                elem: 1,
                size: structs.layout(*id).size as u32,
            },
            Type::Void => NodeTy {
                class: TyClass::Other,
                elem: 1,
                size: 1,
            },
        }
    }

    pub(crate) fn is_ptr_like(self) -> bool {
        matches!(self.class, TyClass::Ptr | TyClass::Agg)
    }
}

/// Dense per-node lookup tables.
///
/// `NodeId`s are namespaced per declaration in `DECL_ID_STRIDE`-sized
/// chunks (so an unchanged decl reparses to identical ids), which
/// makes the raw id space sparse: a 16-function program's ids reach
/// `16 << 20`. The tables therefore index through a per-decl
/// `base`/`span` compression — slot `base[decl] + (id & mask)` — so
/// storage stays proportional to the number of nodes, not the id
/// range, while lookups remain two array reads.
pub(crate) struct NodeTables {
    /// Per-decl base offset into the dense tables.
    base: Vec<u32>,
    /// Per-decl slot count (max keyed in-decl offset + 1).
    span: Vec<u32>,
    ty: Vec<NodeTy>,
    resolution: Vec<Option<Resolution>>,
    call_site: Vec<u32>,
    branch: Vec<u32>,
    str_idx: Vec<u32>,
    member_off: Vec<u32>,
    sizeof_val: Vec<i64>,
}

pub(crate) const NONE32: u32 = u32::MAX;

const DECL_SHIFT: u32 = minic::ast::DECL_ID_STRIDE.trailing_zeros();
const DECL_MASK: u32 = minic::ast::DECL_ID_STRIDE - 1;

impl NodeTables {
    pub(crate) fn build(program: &Program) -> Self {
        let side = &program.module.side;
        let structs = &program.module.structs;

        // Member offsets need the base expression's struct type; the
        // walk is collected up front so these ids count toward spans.
        let mut member_offs: Vec<(minic::ast::NodeId, u32)> = Vec::new();
        for cfg in program.cfgs.iter().flatten() {
            cfg.walk_exprs(&mut |_, e| {
                if let ExprKind::Member(base, field, arrow) = &e.kind {
                    let Some(bt) = side.expr_types.get(&base.id) else {
                        return;
                    };
                    let sid = if *arrow {
                        match bt.pointee() {
                            Some(Type::Struct(s)) => *s,
                            _ => return,
                        }
                    } else {
                        match bt {
                            Type::Struct(s) => *s,
                            _ => return,
                        }
                    };
                    if let Some(f) = structs.layout(sid).field(field) {
                        member_offs.push((e.id, f.offset as u32));
                    }
                }
            });
        }

        let mut span: Vec<u32> = Vec::new();
        for n in side
            .expr_types
            .keys()
            .chain(side.resolutions.keys())
            .chain(side.call_site_of.keys())
            .chain(side.branch_of.keys())
            .chain(side.str_of.keys())
            .chain(side.const_values.keys())
            .chain(member_offs.iter().map(|(n, _)| n))
        {
            let d = (n.0 >> DECL_SHIFT) as usize;
            if d >= span.len() {
                span.resize(d + 1, 0);
            }
            span[d] = span[d].max((n.0 & DECL_MASK) + 1);
        }
        let mut base = Vec::with_capacity(span.len());
        let mut total = 0u32;
        for &s in &span {
            base.push(total);
            total += s;
        }
        let slots = total as usize;

        let mut t = NodeTables {
            base,
            span,
            ty: vec![NodeTy::DEFAULT; slots],
            resolution: vec![None; slots],
            call_site: vec![NONE32; slots],
            branch: vec![NONE32; slots],
            str_idx: vec![NONE32; slots],
            member_off: vec![NONE32; slots],
            sizeof_val: vec![0; slots],
        };
        for (n, ty) in &side.expr_types {
            let i = t.slot(*n).expect("keyed id is in span");
            t.ty[i] = NodeTy::of(ty, structs);
        }
        for (n, r) in &side.resolutions {
            let i = t.slot(*n).expect("keyed id is in span");
            t.resolution[i] = Some(*r);
        }
        for (n, s) in &side.call_site_of {
            let i = t.slot(*n).expect("keyed id is in span");
            t.call_site[i] = s.0;
        }
        for (n, b) in &side.branch_of {
            let i = t.slot(*n).expect("keyed id is in span");
            t.branch[i] = b.0;
        }
        for (n, s) in &side.str_of {
            let i = t.slot(*n).expect("keyed id is in span");
            t.str_idx[i] = *s as u32;
        }
        for (n, v) in &side.const_values {
            if let Some(i64v) = v.as_int() {
                let i = t.slot(*n).expect("keyed id is in span");
                t.sizeof_val[i] = i64v;
            }
        }
        for &(n, off) in &member_offs {
            let i = t.slot(n).expect("keyed id is in span");
            t.member_off[i] = off;
        }
        t
    }

    /// Compressed slot for `n`, or `None` for an id no table keys —
    /// accessors then return the same sentinel a dense table would
    /// have held.
    #[inline]
    fn slot(&self, n: minic::ast::NodeId) -> Option<usize> {
        let d = (n.0 >> DECL_SHIFT) as usize;
        let off = n.0 & DECL_MASK;
        if off < *self.span.get(d)? {
            Some(self.base[d] as usize + off as usize)
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn ty(&self, n: minic::ast::NodeId) -> NodeTy {
        self.slot(n).map_or(NodeTy::DEFAULT, |i| self.ty[i])
    }

    #[inline]
    pub(crate) fn resolution(&self, n: minic::ast::NodeId) -> Option<Resolution> {
        self.slot(n).and_then(|i| self.resolution[i])
    }

    #[inline]
    pub(crate) fn call_site(&self, n: minic::ast::NodeId) -> u32 {
        self.slot(n).map_or(NONE32, |i| self.call_site[i])
    }

    #[inline]
    pub(crate) fn branch(&self, n: minic::ast::NodeId) -> u32 {
        self.slot(n).map_or(NONE32, |i| self.branch[i])
    }

    #[inline]
    pub(crate) fn str_idx(&self, n: minic::ast::NodeId) -> u32 {
        self.slot(n).map_or(NONE32, |i| self.str_idx[i])
    }

    #[inline]
    pub(crate) fn member_off(&self, n: minic::ast::NodeId) -> u32 {
        self.slot(n).map_or(NONE32, |i| self.member_off[i])
    }

    #[inline]
    pub(crate) fn sizeof_val(&self, n: minic::ast::NodeId) -> i64 {
        self.slot(n).map_or(0, |i| self.sizeof_val[i])
    }
}

/// Non-local control flow out of `eval`.
enum Abort {
    Exit(i64),
    Error(RuntimeError),
}

impl From<RuntimeError> for Abort {
    fn from(e: RuntimeError) -> Self {
        Abort::Error(e)
    }
}

type VResult = Result<Value, Abort>;

struct Interp<'p, T: MemTap> {
    /// Reuse-trace tap: [`NoTap`] in normal runs (every `T::ACTIVE`
    /// check monomorphizes away), a [`ReuseCollector`] under
    /// [`run_ast_traced`]. Fires on successful data-segment accesses
    /// only, mirroring the bytecode VM's tap placement exactly.
    tap: T,
    program: &'p Program,
    tables: NodeTables,
    data: Vec<Value>,
    stack: Vec<Value>,
    global_addr: Vec<u64>,
    str_addr: Vec<u64>,
    profile: Profile,
    output: Vec<u8>,
    input: &'p [u8],
    input_pos: usize,
    steps: u64,
    max_steps: u64,
    depth: usize,
    max_depth: usize,
    rng: u64,
    cur_fn: FuncId,
    fp: usize,
}

impl<'p, T: MemTap> Interp<'p, T> {
    fn new(program: &'p Program, config: &'p RunConfig, tap: T) -> Self {
        Interp {
            tap,
            program,
            tables: NodeTables::build(program),
            data: Vec::new(),
            stack: Vec::new(),
            global_addr: Vec::new(),
            str_addr: Vec::new(),
            profile: Profile::for_program(program),
            output: Vec::new(),
            input: &config.input,
            input_pos: 0,
            steps: 0,
            max_steps: config.max_steps,
            depth: 0,
            max_depth: config.max_call_depth,
            rng: 0x2545F4914F6CDD1D,
            cur_fn: FuncId(0),
            fp: 0,
        }
    }

    // ----- memory -----

    fn alloc_static(&mut self, words: usize) -> u64 {
        let addr = self.data.len() as u64 + 1;
        self.data.extend(std::iter::repeat_n(Value::Int(0), words));
        addr
    }

    fn load(&mut self, addr: u64) -> Result<Value, RuntimeError> {
        if addr == 0 {
            return Err(RuntimeError::NullDeref);
        }
        if addr >= STACK_BASE {
            let i = (addr - STACK_BASE) as usize;
            self.stack
                .get(i)
                .copied()
                .ok_or(RuntimeError::OutOfBounds { addr })
        } else {
            let i = (addr - 1) as usize;
            let v = self
                .data
                .get(i)
                .copied()
                .ok_or(RuntimeError::OutOfBounds { addr })?;
            if T::ACTIVE {
                self.tap.access(addr);
            }
            Ok(v)
        }
    }

    fn store(&mut self, addr: u64, v: Value) -> Result<(), RuntimeError> {
        if addr == 0 {
            return Err(RuntimeError::NullDeref);
        }
        if addr >= STACK_BASE {
            let i = (addr - STACK_BASE) as usize;
            match self.stack.get_mut(i) {
                Some(slot) => {
                    *slot = v;
                    Ok(())
                }
                None => Err(RuntimeError::OutOfBounds { addr }),
            }
        } else {
            let i = (addr - 1) as usize;
            match self.data.get_mut(i) {
                Some(slot) => {
                    *slot = v;
                    if T::ACTIVE {
                        self.tap.access(addr);
                    }
                    Ok(())
                }
                None => Err(RuntimeError::OutOfBounds { addr }),
            }
        }
    }

    fn copy_words(&mut self, dst: u64, src: u64, n: usize) -> Result<(), RuntimeError> {
        for i in 0..n as u64 {
            let v = self.load(src + i)?;
            self.store(dst + i, v)?;
        }
        Ok(())
    }

    fn load_statics(&mut self) {
        // Globals first, then string literals, then the heap grows.
        let module = &self.program.module;
        for g in &module.globals {
            let addr = self.alloc_static(g.size);
            self.global_addr.push(addr);
        }
        for s in &module.strings {
            let addr = self.alloc_static(s.len() + 1);
            for (i, b) in s.bytes().enumerate() {
                self.data[(addr - 1) as usize + i] = Value::Int(b as i64);
            }
            self.str_addr.push(addr);
        }
        // Resolve initializer words (done after all addresses exist).
        for g in &module.globals {
            let base = self.global_addr[g.id.0 as usize];
            for (i, w) in g.init.iter().enumerate() {
                let v = match *w {
                    InitWord::Int(x) => Value::Int(x),
                    InitWord::Float(x) => Value::Float(x),
                    InitWord::StrPtr(idx) => Value::Ptr(self.str_addr[idx]),
                    InitWord::Fn(fid) => Value::Fn(fid),
                    InitWord::GlobalAddr(gid) => Value::Ptr(self.global_addr[gid.0 as usize]),
                };
                self.data[(base - 1) as usize + i] = v;
            }
        }
    }

    // ----- type helpers -----

    #[inline]
    fn nty(&self, e: &Expr) -> NodeTy {
        self.tables.ty(e.id)
    }

    fn is_aggregate(ty: &Type) -> bool {
        matches!(ty, Type::Struct(_) | Type::Array(_, _))
    }

    // ----- execution -----

    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        self.profile.func_cost[self.cur_fn.0 as usize] += 1;
        if self.steps > self.max_steps {
            return Err(RuntimeError::StepLimit {
                limit: self.max_steps,
            });
        }
        Ok(())
    }

    fn call_function(&mut self, fid: FuncId, args: Vec<Value>) -> VResult {
        let func = self.program.module.function(fid);
        let Some(cfg) = self.program.cfg_opt(fid) else {
            return Err(RuntimeError::Undefined {
                name: func.name.clone(),
            }
            .into());
        };
        if self.depth >= self.max_depth {
            return Err(RuntimeError::StackOverflow {
                limit: self.max_depth,
            }
            .into());
        }
        self.depth += 1;
        let saved_fn = self.cur_fn;
        let saved_fp = self.fp;
        self.cur_fn = fid;
        self.fp = self.stack.len();
        self.stack
            .extend(std::iter::repeat_n(Value::Int(0), func.frame_size));
        self.profile.func_counts[fid.0 as usize] += 1;
        self.profile.func_cost[fid.0 as usize] += CALL_COST;

        // Bind parameters (structs are copied by value).
        for (i, arg) in args.into_iter().enumerate().take(func.param_count) {
            let local = &func.locals[i];
            let addr = STACK_BASE + (self.fp + local.offset) as u64;
            if Self::is_aggregate(&local.ty) {
                let n = local.size;
                let src = arg.to_ptr();
                self.copy_words(addr, src, n)?;
            } else {
                let v = convert_for_store(&local.ty, arg);
                self.store(addr, v)?;
            }
        }

        let result = self.run_cfg(cfg);

        self.stack.truncate(self.fp);
        self.fp = saved_fp;
        self.cur_fn = saved_fn;
        self.depth -= 1;
        result
    }

    fn run_cfg(&mut self, cfg: &Cfg) -> VResult {
        let fidx = cfg.func.0 as usize;
        let mut prev: Option<BlockId> = None;
        let mut cur = cfg.entry;
        loop {
            self.tick()?;
            self.profile.block_counts[fidx][cur.0 as usize] += 1;
            if let Some(p) = prev {
                *self
                    .profile
                    .edge_counts
                    .entry((cfg.func, p, cur))
                    .or_insert(0) += 1;
            }
            let block = cfg.block(cur);
            for instr in &block.instrs {
                self.exec_instr(instr)?;
            }
            let next = match &block.term {
                Terminator::Goto(t) => *t,
                Terminator::Branch {
                    cond,
                    branch,
                    then_blk,
                    else_blk,
                } => {
                    let taken = self.eval(cond)?.truthy();
                    if let Some(b) = branch {
                        let slot = &mut self.profile.branch_counts[b.0 as usize];
                        if taken {
                            slot.0 += 1;
                        } else {
                            slot.1 += 1;
                        }
                    }
                    if taken {
                        *then_blk
                    } else {
                        *else_blk
                    }
                }
                Terminator::Switch {
                    scrut,
                    cases,
                    default,
                    ..
                } => {
                    let v = self.eval(scrut)?.to_int();
                    cases
                        .iter()
                        .find(|&&(c, _)| c == v)
                        .map(|&(_, t)| t)
                        .unwrap_or(*default)
                }
                Terminator::Return(e) => {
                    return match e {
                        Some(e) => self.eval(e),
                        None => Ok(Value::Int(0)),
                    };
                }
            };
            prev = Some(cur);
            cur = next;
        }
    }

    fn exec_instr(&mut self, instr: &Instr) -> Result<(), Abort> {
        match instr {
            Instr::Eval(e) => {
                self.eval(e)?;
            }
            Instr::Init {
                local,
                word,
                ty,
                value,
            } => {
                let v = self.eval(value)?;
                let func = self.program.module.function(self.cur_fn);
                let base = STACK_BASE + (self.fp + func.locals[local.0 as usize].offset) as u64;
                if Self::is_aggregate(ty) {
                    let n = ty.size_words(&self.program.module.structs);
                    self.copy_words(base + *word as u64, v.to_ptr(), n)?;
                } else {
                    let v = convert_for_store(ty, v);
                    self.store(base + *word as u64, v)?;
                }
            }
            Instr::InitStr {
                local,
                word,
                str_idx,
                pad_to,
            } => {
                let func = self.program.module.function(self.cur_fn);
                let base =
                    STACK_BASE + (self.fp + func.locals[local.0 as usize].offset + word) as u64;
                let s: &str = &self.program.module.strings[*str_idx];
                for (i, b) in s.bytes().enumerate() {
                    self.store(base + i as u64, Value::Int(b as i64))?;
                }
                for i in s.len()..*pad_to {
                    self.store(base + i as u64, Value::Int(0))?;
                }
            }
            Instr::InitZero { local, word, len } => {
                let func = self.program.module.function(self.cur_fn);
                let base =
                    STACK_BASE + (self.fp + func.locals[local.0 as usize].offset + word) as u64;
                for i in 0..*len as u64 {
                    self.store(base + i, Value::Int(0))?;
                }
            }
        }
        Ok(())
    }

    /// The address of an lvalue expression.
    fn place(&mut self, e: &Expr) -> Result<u64, Abort> {
        self.tick()?;
        match &e.kind {
            ExprKind::Ident(_) => {
                match self
                    .tables
                    .resolution(e.id)
                    .expect("sema resolved every name")
                {
                    Resolution::Local(lid) => {
                        let func = self.program.module.function(self.cur_fn);
                        Ok(STACK_BASE + (self.fp + func.locals[lid.0 as usize].offset) as u64)
                    }
                    Resolution::Global(gid) => Ok(self.global_addr[gid.0 as usize]),
                    Resolution::Func(_) | Resolution::Builtin(_) | Resolution::EnumConst(_) => {
                        Err(RuntimeError::Other("constant is not an lvalue".into()).into())
                    }
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let v = self.eval(inner)?;
                Ok(v.to_ptr())
            }
            ExprKind::Index(base, idx) => {
                let bt = self.nty(base);
                let addr = if bt.class == TyClass::Agg {
                    self.place(base)?
                } else {
                    self.eval(base)?.to_ptr()
                };
                let i = self.eval(idx)?.to_int();
                Ok(addr.wrapping_add_signed(i.wrapping_mul(bt.elem as i64)))
            }
            ExprKind::Member(base, _, arrow) => {
                let offset = self.tables.member_off(e.id);
                if offset == NONE32 {
                    return Err(RuntimeError::Other("member on non-struct".into()).into());
                }
                let addr = if *arrow {
                    self.eval(base)?.to_ptr()
                } else {
                    self.place(base)?
                };
                if addr == 0 {
                    return Err(RuntimeError::NullDeref.into());
                }
                Ok(addr + offset as u64)
            }
            ExprKind::Cast(_, inner) => self.place(inner),
            _ => Err(RuntimeError::Other(format!(
                "expression is not an lvalue: {:?}",
                std::mem::discriminant(&e.kind)
            ))
            .into()),
        }
    }

    /// Loads from a place, or returns the address for aggregates.
    fn load_from(&mut self, e: &Expr, addr: u64) -> VResult {
        if self.nty(e).class == TyClass::Agg {
            Ok(Value::Ptr(addr))
        } else {
            Ok(self.load(addr)?)
        }
    }

    fn eval(&mut self, e: &Expr) -> VResult {
        self.tick()?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::StrLit(_) => {
                let idx = self.tables.str_idx(e.id);
                Ok(Value::Ptr(self.str_addr[idx as usize]))
            }
            ExprKind::Ident(_) => {
                match self
                    .tables
                    .resolution(e.id)
                    .expect("sema resolved every name")
                {
                    Resolution::Func(fid) => Ok(Value::Fn(fid)),
                    Resolution::EnumConst(v) => Ok(Value::Int(v)),
                    Resolution::Builtin(_) => {
                        Err(RuntimeError::Other("builtin used as a value".into()).into())
                    }
                    _ => {
                        let addr = self.place(e)?;
                        self.load_from(e, addr)
                    }
                }
            }
            ExprKind::Unary(op, inner) => self.eval_unary(e, *op, inner),
            ExprKind::Binary(op, a, b) => {
                let ta = self.nty(a);
                let tb = self.nty(b);
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                Ok(self.arith(*op, va, vb, ta, tb)?)
            }
            ExprKind::LogAnd(a, b) => {
                if !self.eval(a)?.truthy() {
                    Ok(Value::Int(0))
                } else {
                    Ok(Value::Int(self.eval(b)?.truthy() as i64))
                }
            }
            ExprKind::LogOr(a, b) => {
                if self.eval(a)?.truthy() {
                    Ok(Value::Int(1))
                } else {
                    Ok(Value::Int(self.eval(b)?.truthy() as i64))
                }
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let lty = self.nty(lhs);
                let addr = self.place(lhs)?;
                let rv = self.eval(rhs)?;
                let result = match op {
                    None => {
                        if lty.class == TyClass::Agg {
                            self.copy_words(addr, rv.to_ptr(), lty.size as usize)?;
                            Value::Ptr(addr)
                        } else {
                            let v = convert_for_class(lty.class, rv);
                            self.store(addr, v)?;
                            v
                        }
                    }
                    Some(op) => {
                        let rty = self.nty(rhs);
                        let cur = self.load(addr)?;
                        let v = self.arith(*op, cur, rv, lty, rty)?;
                        let v = convert_for_class(lty.class, v);
                        self.store(addr, v)?;
                        v
                    }
                };
                Ok(result)
            }
            ExprKind::Call(callee, args) => self.eval_call(e, callee, args),
            ExprKind::Index(_, _) | ExprKind::Member(_, _, _) => {
                let addr = self.place(e)?;
                self.load_from(e, addr)
            }
            ExprKind::Cond(c, t, f) => {
                let taken = self.eval(c)?.truthy();
                let b = self.tables.branch(e.id);
                if b != NONE32 {
                    let slot = &mut self.profile.branch_counts[b as usize];
                    if taken {
                        slot.0 += 1;
                    } else {
                        slot.1 += 1;
                    }
                }
                if taken {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            ExprKind::Cast(_, inner) => {
                let v = self.eval(inner)?;
                Ok(convert_for_class(self.nty(e).class, v))
            }
            ExprKind::SizeofType(_) | ExprKind::SizeofExpr(_) => {
                Ok(Value::Int(self.tables.sizeof_val(e.id)))
            }
            ExprKind::Comma(a, b) => {
                self.eval(a)?;
                self.eval(b)
            }
        }
    }

    fn eval_unary(&mut self, e: &Expr, op: UnOp, inner: &Expr) -> VResult {
        match op {
            UnOp::Neg => {
                let v = self.eval(inner)?;
                Ok(match v {
                    Value::Float(f) => Value::Float(-f),
                    other => Value::Int(other.to_int().wrapping_neg()),
                })
            }
            UnOp::Not => {
                let v = self.eval(inner)?;
                Ok(Value::Int(!v.truthy() as i64))
            }
            UnOp::BitNot => {
                let v = self.eval(inner)?;
                Ok(Value::Int(!v.to_int()))
            }
            UnOp::Deref => {
                let nt = self.nty(e);
                // `*f` on a function pointer is the function pointer.
                if nt.class == TyClass::FnPtr && self.nty(inner).class == TyClass::FnPtr {
                    return self.eval(inner);
                }
                let addr = self.eval(inner)?.to_ptr();
                if nt.class == TyClass::Agg {
                    Ok(Value::Ptr(addr))
                } else if addr == 0 {
                    Err(RuntimeError::NullDeref.into())
                } else {
                    Ok(self.load(addr)?)
                }
            }
            UnOp::Addr => {
                // `&f` yields the function pointer itself.
                if let ExprKind::Ident(_) = &inner.kind {
                    if let Some(Resolution::Func(fid)) =
                        self.program.module.side.resolutions.get(&inner.id)
                    {
                        return Ok(Value::Fn(*fid));
                    }
                }
                let addr = self.place(inner)?;
                Ok(Value::Ptr(addr))
            }
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                let nt = self.nty(inner);
                let addr = self.place(inner)?;
                let old = self.load(addr)?;
                let step = if nt.class == TyClass::Ptr {
                    nt.elem as i64
                } else {
                    1
                };
                let delta = match op {
                    UnOp::PreInc | UnOp::PostInc => step,
                    _ => -step,
                };
                let new = match old {
                    Value::Float(f) => Value::Float(f + delta as f64),
                    Value::Ptr(p) => Value::Ptr(p.wrapping_add_signed(delta)),
                    other => Value::Int(other.to_int().wrapping_add(delta)),
                };
                self.store(addr, new)?;
                Ok(match op {
                    UnOp::PostInc | UnOp::PostDec => old,
                    _ => new,
                })
            }
        }
    }

    fn arith(
        &mut self,
        op: BinOp,
        va: Value,
        vb: Value,
        ta: NodeTy,
        tb: NodeTy,
    ) -> Result<Value, RuntimeError> {
        use BinOp::*;
        let a_ptr = ta.is_ptr_like();
        let b_ptr = tb.is_ptr_like();
        if op.is_comparison() {
            let cmp = if matches!(va, Value::Float(_)) || matches!(vb, Value::Float(_)) {
                let (x, y) = (va.to_float(), vb.to_float());
                // IEEE comparison is the *specified* behaviour here (C
                // source semantics), not an ordering bug — see clippy.toml.
                #[allow(clippy::disallowed_methods)]
                x.partial_cmp(&y)
            } else {
                Some(va.to_int().cmp(&vb.to_int()))
            };
            let Some(ord) = cmp else {
                return Ok(Value::Int(0)); // NaN compares false
            };
            let r = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                Eq => ord.is_eq(),
                Ne => ord.is_ne(),
                _ => unreachable!(),
            };
            return Ok(Value::Int(r as i64));
        }
        match op {
            Add if a_ptr || b_ptr => {
                let (p, i, elem) = if a_ptr {
                    (va.to_ptr(), vb.to_int(), ta.elem as i64)
                } else {
                    (vb.to_ptr(), va.to_int(), tb.elem as i64)
                };
                Ok(Value::Ptr(p.wrapping_add_signed(i.wrapping_mul(elem))))
            }
            Sub if a_ptr && b_ptr => {
                let elem = (ta.elem as i64).max(1);
                let diff = va.to_ptr() as i64 - vb.to_ptr() as i64;
                Ok(Value::Int(diff / elem))
            }
            Sub if a_ptr => {
                let elem = ta.elem as i64;
                Ok(Value::Ptr(
                    va.to_ptr()
                        .wrapping_add_signed(-(vb.to_int().wrapping_mul(elem))),
                ))
            }
            Add | Sub | Mul | Div
                if matches!(va, Value::Float(_)) || matches!(vb, Value::Float(_)) =>
            {
                let (x, y) = (va.to_float(), vb.to_float());
                Ok(Value::Float(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => unreachable!(),
                }))
            }
            Add => Ok(Value::Int(va.to_int().wrapping_add(vb.to_int()))),
            Sub => Ok(Value::Int(va.to_int().wrapping_sub(vb.to_int()))),
            Mul => Ok(Value::Int(va.to_int().wrapping_mul(vb.to_int()))),
            Div => {
                let d = vb.to_int();
                if d == 0 {
                    return Err(RuntimeError::DivByZero);
                }
                Ok(Value::Int(va.to_int().wrapping_div(d)))
            }
            Rem => {
                let d = vb.to_int();
                if d == 0 {
                    return Err(RuntimeError::DivByZero);
                }
                Ok(Value::Int(va.to_int().wrapping_rem(d)))
            }
            Shl => Ok(Value::Int(
                va.to_int().wrapping_shl((vb.to_int() & 63) as u32),
            )),
            Shr => Ok(Value::Int(
                va.to_int().wrapping_shr((vb.to_int() & 63) as u32),
            )),
            BitAnd => Ok(Value::Int(va.to_int() & vb.to_int())),
            BitOr => Ok(Value::Int(va.to_int() | vb.to_int())),
            BitXor => Ok(Value::Int(va.to_int() ^ vb.to_int())),
            Lt | Le | Gt | Ge | Eq | Ne => unreachable!("handled above"),
        }
    }

    fn eval_call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> VResult {
        let site = self.tables.call_site(e.id) as usize;
        self.profile.call_site_counts[site] += 1;
        let cs = &self.program.module.side.call_sites[site];
        match cs.callee {
            CalleeKind::Direct(fid) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                self.call_function(fid, argv)
            }
            CalleeKind::Builtin(b) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                self.profile.func_cost[self.cur_fn.0 as usize] += CALL_COST;
                self.builtin(b, &argv)
            }
            CalleeKind::Indirect => {
                let f = self.eval(callee)?;
                let Value::Fn(fid) = f else {
                    return Err(RuntimeError::NotAFunction.into());
                };
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                self.call_function(fid, argv)
            }
        }
    }

    // ----- builtins -----

    fn read_cstring(&mut self, mut addr: u64) -> Result<String, RuntimeError> {
        let mut out = String::new();
        for _ in 0..1_000_000 {
            let v = self.load(addr)?;
            let c = v.to_int();
            if c == 0 {
                return Ok(out);
            }
            out.push((c as u8) as char);
            addr += 1;
        }
        Err(RuntimeError::Other("unterminated string".into()))
    }

    fn write_cstring(&mut self, addr: u64, s: &str) -> Result<(), RuntimeError> {
        for (i, b) in s.bytes().enumerate() {
            self.store(addr + i as u64, Value::Int(b as i64))?;
        }
        self.store(addr + s.len() as u64, Value::Int(0))?;
        Ok(())
    }

    fn format(&mut self, fmt: &str, args: &[Value]) -> Result<String, RuntimeError> {
        let mut out = String::new();
        let mut chars = fmt.chars().peekable();
        let mut next = 0usize;
        let take = |next: &mut usize| -> Value {
            let v = args.get(*next).copied().unwrap_or(Value::Int(0));
            *next += 1;
            v
        };
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            // Skip flags/width/precision; honor the conversion letter.
            let mut conv = None;
            let mut _width = String::new();
            while let Some(&c2) = chars.peek() {
                if c2.is_ascii_digit() || matches!(c2, '-' | '+' | '.' | ' ' | '0' | 'l' | 'h') {
                    _width.push(c2);
                    chars.next();
                } else {
                    conv = chars.next();
                    break;
                }
            }
            match conv {
                Some('d') | Some('i') | Some('u') => {
                    out.push_str(&take(&mut next).to_int().to_string())
                }
                Some('x') => out.push_str(&format!("{:x}", take(&mut next).to_int())),
                Some('o') => out.push_str(&format!("{:o}", take(&mut next).to_int())),
                Some('c') => {
                    let v = take(&mut next).to_int();
                    out.push((v as u8) as char);
                }
                Some('s') => {
                    let p = take(&mut next).to_ptr();
                    out.push_str(&self.read_cstring(p)?);
                }
                Some('f') => out.push_str(&format!("{:.6}", take(&mut next).to_float())),
                Some('g') | Some('e') => out.push_str(&format!("{}", take(&mut next).to_float())),
                Some('%') => out.push('%'),
                Some(other) => {
                    out.push('%');
                    out.push(other);
                }
                None => out.push('%'),
            }
        }
        Ok(out)
    }

    fn builtin(&mut self, b: Builtin, args: &[Value]) -> VResult {
        let arg = |i: usize| args.get(i).copied().unwrap_or(Value::Int(0));
        Ok(match b {
            Builtin::Printf => {
                let fmt = self.read_cstring(arg(0).to_ptr())?;
                let s = self.format(&fmt, &args[1.min(args.len())..])?;
                self.output.extend_from_slice(s.as_bytes());
                Value::Int(s.len() as i64)
            }
            Builtin::Sprintf => {
                let buf = arg(0).to_ptr();
                let fmt = self.read_cstring(arg(1).to_ptr())?;
                let s = self.format(&fmt, &args[2.min(args.len())..])?;
                self.write_cstring(buf, &s)?;
                Value::Int(s.len() as i64)
            }
            Builtin::Putchar => {
                self.output.push(arg(0).to_int() as u8);
                arg(0)
            }
            Builtin::Puts => {
                let s = self.read_cstring(arg(0).to_ptr())?;
                self.output.extend_from_slice(s.as_bytes());
                self.output.push(b'\n');
                Value::Int(0)
            }
            Builtin::Getchar => {
                if self.input_pos < self.input.len() {
                    let c = self.input[self.input_pos];
                    self.input_pos += 1;
                    Value::Int(c as i64)
                } else {
                    Value::Int(-1)
                }
            }
            Builtin::Malloc => {
                let n = arg(0).to_int().max(1) as usize;
                Value::Ptr(self.alloc_static(n))
            }
            Builtin::Calloc => {
                let n = (arg(0).to_int().max(0) as usize) * (arg(1).to_int().max(1) as usize);
                Value::Ptr(self.alloc_static(n.max(1)))
            }
            Builtin::Free => Value::Int(0),
            Builtin::Memset => {
                let p = arg(0).to_ptr();
                let v = arg(1).to_int();
                let n = arg(2).to_int().max(0) as u64;
                for i in 0..n {
                    self.store(p + i, Value::Int(v))?;
                }
                Value::Ptr(p)
            }
            Builtin::Memcpy => {
                let d = arg(0).to_ptr();
                let s = arg(1).to_ptr();
                let n = arg(2).to_int().max(0) as usize;
                self.copy_words(d, s, n)?;
                Value::Ptr(d)
            }
            Builtin::Strlen => {
                let s = self.read_cstring(arg(0).to_ptr())?;
                Value::Int(s.len() as i64)
            }
            Builtin::Strcpy => {
                let d = arg(0).to_ptr();
                let s = self.read_cstring(arg(1).to_ptr())?;
                self.write_cstring(d, &s)?;
                Value::Ptr(d)
            }
            Builtin::Strncpy => {
                let d = arg(0).to_ptr();
                let s = self.read_cstring(arg(1).to_ptr())?;
                let n = arg(2).to_int().max(0) as usize;
                let truncated: String = s.chars().take(n).collect();
                for (i, ch) in truncated.bytes().enumerate() {
                    self.store(d + i as u64, Value::Int(ch as i64))?;
                }
                for i in truncated.len()..n {
                    self.store(d + i as u64, Value::Int(0))?;
                }
                Value::Ptr(d)
            }
            Builtin::Strcmp => {
                let a = self.read_cstring(arg(0).to_ptr())?;
                let b2 = self.read_cstring(arg(1).to_ptr())?;
                Value::Int(match a.cmp(&b2) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                })
            }
            Builtin::Strncmp => {
                let n = arg(2).to_int().max(0) as usize;
                let a: String = self
                    .read_cstring(arg(0).to_ptr())?
                    .chars()
                    .take(n)
                    .collect();
                let b2: String = self
                    .read_cstring(arg(1).to_ptr())?
                    .chars()
                    .take(n)
                    .collect();
                Value::Int(match a.cmp(&b2) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                })
            }
            Builtin::Strcat => {
                let d = arg(0).to_ptr();
                let a = self.read_cstring(d)?;
                let b2 = self.read_cstring(arg(1).to_ptr())?;
                self.write_cstring(d + a.len() as u64, &b2)?;
                Value::Ptr(d)
            }
            Builtin::Atoi => {
                let s = self.read_cstring(arg(0).to_ptr())?;
                Value::Int(s.trim().parse::<i64>().unwrap_or(0))
            }
            Builtin::Abs => Value::Int(arg(0).to_int().wrapping_abs()),
            Builtin::Exit => return Err(Abort::Exit(arg(0).to_int())),
            Builtin::Abort => return Err(RuntimeError::Aborted.into()),
            Builtin::Rand => {
                // xorshift64*: deterministic across runs.
                let mut x = self.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng = x;
                Value::Int(((x.wrapping_mul(0x2545F4914F6CDD1D)) >> 33) as i64)
            }
            Builtin::Srand => {
                self.rng = (arg(0).to_int() as u64) | 1;
                Value::Int(0)
            }
            Builtin::Sqrt => Value::Float(arg(0).to_float().sqrt()),
            Builtin::Fabs => Value::Float(arg(0).to_float().abs()),
            Builtin::Sin => Value::Float(arg(0).to_float().sin()),
            Builtin::Cos => Value::Float(arg(0).to_float().cos()),
            Builtin::Exp => Value::Float(arg(0).to_float().exp()),
            Builtin::Log => Value::Float(arg(0).to_float().ln()),
            Builtin::Pow => Value::Float(arg(0).to_float().powf(arg(1).to_float())),
            Builtin::Floor => Value::Float(arg(0).to_float().floor()),
            Builtin::Ceil => Value::Float(arg(0).to_float().ceil()),
        })
    }
}

/// Converts a value for storage into a slot of the given class.
pub fn convert_for_class(class: TyClass, v: Value) -> Value {
    match class {
        TyClass::Int => Value::Int(v.to_int()),
        TyClass::Float => Value::Float(v.to_float()),
        TyClass::Ptr => Value::Ptr(v.to_ptr()),
        TyClass::FnPtr => match v {
            Value::Fn(f) => Value::Fn(f),
            other => Value::Ptr(other.to_ptr()),
        },
        TyClass::Agg | TyClass::Other => v,
    }
}

/// Converts a value for storage into a slot of type `ty`.
fn convert_for_store(ty: &Type, v: Value) -> Value {
    match ty {
        Type::Int | Type::Char => Value::Int(v.to_int()),
        Type::Float => Value::Float(v.to_float()),
        Type::Ptr(_) => Value::Ptr(v.to_ptr()),
        Type::FnPtr(_) => match v {
            Value::Fn(f) => Value::Fn(f),
            other => Value::Ptr(other.to_ptr()),
        },
        _ => v,
    }
}
