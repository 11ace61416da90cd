//! The C runtime both engines share.
//!
//! The bytecode VM ([`crate::bytecode`]) and the AST walker behind
//! [`crate::run_ast`] differ only in how they evaluate a program's own
//! code. Everything else a run touches lives here, once: the runtime
//! [`Value`] and [`RuntimeError`], the static image (`StaticLayout`),
//! the address space (`Memory`: data segment, heap and live stack,
//! watched by the reuse tap) and the C library every builtin call
//! reaches (`Libc`: formatting, strings, input, output and `rand`).
//!
//! Memory is word-addressed: address 0 is NULL, static data and the
//! heap live at low addresses, and the stack lives above
//! [`STACK_BASE`]. Every scalar occupies one word.

use crate::profile::Profile;
use crate::reuse::MemTap;
use flowgraph::Program;
use minic::ast::Expr;
use minic::builtins::Builtin;
use minic::sema::{FuncId, InitWord, Module};
use minic::side::DeclIndex;
use minic::types::{Type, MAX_STATIC_WORDS};
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
    /// A call's frame would take the live stack (every active frame
    /// together) past [`MAX_STATIC_WORDS`] words — or, in the VM, its
    /// register window past as many registers.
    StackBudget {
        /// The budget, in words.
        limit: usize,
    },
    /// `printf`, `puts` or `putchar` would take the program's output
    /// past [`MAX_STATIC_WORDS`] bytes.
    OutputBudget {
        /// The budget, in bytes.
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
            RuntimeError::StackBudget { limit } => {
                write!(f, "call would take the live stack past {limit} words")
            }
            RuntimeError::OutputBudget { limit } => {
                write!(f, "program output would pass {limit} bytes")
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

/// Non-local control flow out of a builtin or an engine: `exit()` or
/// an error.
pub(crate) enum Abort {
    Exit(i64),
    Error(RuntimeError),
}

impl From<RuntimeError> for Abort {
    fn from(e: RuntimeError) -> Self {
        Abort::Error(e)
    }
}

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

/// Each expression's [`NodeTy`], in one column over the slots of the
/// module's shared [`DeclIndex`]: one linear pass over sema's type
/// column fills it, and a lookup is the same two array reads as sema's
/// own columns. Ids without a slot or a type read as
/// [`NodeTy::DEFAULT`].
pub(crate) struct NodeTables<'p> {
    index: &'p DeclIndex,
    ty: Vec<NodeTy>,
}

impl<'p> NodeTables<'p> {
    pub(crate) fn build(program: &'p Program) -> Self {
        let module = &program.module;
        let ty = module
            .side
            .types()
            .iter()
            .map(|t| {
                t.as_ref()
                    .map_or(NodeTy::DEFAULT, |t| NodeTy::of(t, &module.structs))
            })
            .collect();
        NodeTables {
            index: module.side.index(),
            ty,
        }
    }

    #[inline]
    pub(crate) fn ty(&self, n: minic::ast::NodeId) -> NodeTy {
        self.index.slot(n).map_or(NodeTy::DEFAULT, |i| self.ty[i])
    }
}

/// The word offset of the field member expression `e` selects, as
/// sema resolved it; `None` when `e` is no member access of `module`.
/// A reused CFG's expressions keep their node ids but not their
/// symbols, so the engines read this column, never the field's name.
pub(crate) fn member_offset(module: &Module, e: &Expr) -> Option<u32> {
    module.side.field_offset(e.id).map(|off| off as u32)
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

/// Where a module's static data lives: its globals in declaration
/// order from address 1, then its string literals, each with its NUL.
/// Addresses are observable (the heap grows past the image, and a
/// reuse trace names objects by them), so every engine and the
/// reuse [`ObjectMap`](crate::ObjectMap) read this one layout.
pub(crate) struct StaticLayout {
    /// Each global's first word, by `GlobalId`.
    pub(crate) global_addr: Vec<u64>,
    /// Each string literal's first byte, by string index.
    pub(crate) str_addr: Vec<u64>,
    /// The first address past the globals, where the strings start.
    pub(crate) strings_at: u64,
    /// The image's length in words; the heap starts past it.
    len: usize,
}

impl StaticLayout {
    /// Lays out `module`'s globals and string literals.
    pub(crate) fn of(module: &Module) -> Self {
        let mut next = 1u64;
        let mut place = |words: usize| {
            let addr = next;
            next += words as u64;
            addr
        };
        let global_addr = module.globals.iter().map(|g| place(g.size)).collect();
        let strings_at = place(0);
        let str_addr = module.strings.iter().map(|s| place(s.len() + 1)).collect();
        StaticLayout {
            global_addr,
            str_addr,
            strings_at,
            len: (next - 1) as usize,
        }
    }

    /// The image's words: string bytes and resolved global
    /// initializers, zero elsewhere.
    pub(crate) fn image(&self, module: &Module) -> Vec<Value> {
        let mut data = vec![Value::Int(0); self.len];
        for (s, &addr) in module.strings.iter().zip(&self.str_addr) {
            for (i, b) in s.bytes().enumerate() {
                data[(addr - 1) as usize + i] = Value::Int(b as i64);
            }
        }
        for g in &module.globals {
            let base = (self.global_addr[g.id.0 as usize] - 1) as usize;
            for (i, w) in g.init.iter().enumerate() {
                data[base + i] = match *w {
                    InitWord::Int(x) => Value::Int(x),
                    InitWord::Float(x) => Value::Float(x),
                    InitWord::StrPtr(idx) => Value::Ptr(self.str_addr[idx]),
                    InitWord::Fn(fid) => Value::Fn(fid),
                    InitWord::GlobalAddr(gid) => Value::Ptr(self.global_addr[gid.0 as usize]),
                };
            }
        }
        data
    }
}

/// The address space of one run: the data segment (the static image,
/// then the heap) and the live stack. `tap` sees every successful
/// data-segment access and never a stack one.
pub(crate) struct Memory<T: MemTap> {
    /// Address `a` in `1..STACK_BASE` is `data[a - 1]`.
    pub(crate) data: Vec<Value>,
    /// Address `STACK_BASE + i` is `stack[i]`.
    pub(crate) stack: Vec<Value>,
    pub(crate) tap: T,
    /// The static image's length: the heap starts past it.
    heap_base: usize,
}

impl<T: MemTap> Memory<T> {
    /// A run's memory whose data segment starts as `data` (the static
    /// image); `stack` is emptied, keeping its capacity.
    pub(crate) fn new(data: Vec<Value>, mut stack: Vec<Value>, tap: T) -> Self {
        stack.clear();
        Memory {
            heap_base: data.len(),
            data,
            stack,
            tap,
        }
    }

    #[inline]
    pub(crate) fn load(&mut self, addr: u64) -> Result<Value, RuntimeError> {
        if addr == 0 {
            return Err(RuntimeError::NullDeref);
        }
        if addr >= STACK_BASE {
            let i = self.stack_index(addr)?;
            // SAFETY: `stack_index` checked `i < stack.len()`.
            return Ok(unsafe { self.stack.as_mut_ptr().add(i).read() });
        }
        let v = self.data.get((addr - 1) as usize).copied();
        let v = v.ok_or(RuntimeError::OutOfBounds { addr })?;
        if T::ACTIVE {
            self.tap.access(addr);
        }
        Ok(v)
    }

    #[inline]
    pub(crate) fn store(&mut self, addr: u64, v: Value) -> Result<(), RuntimeError> {
        if addr == 0 {
            return Err(RuntimeError::NullDeref);
        }
        if addr >= STACK_BASE {
            let i = self.stack_index(addr)?;
            // SAFETY: as in `load`.
            unsafe { self.stack.as_mut_ptr().add(i).write(v) };
            return Ok(());
        }
        let slot = self.data.get_mut((addr - 1) as usize);
        *slot.ok_or(RuntimeError::OutOfBounds { addr })? = v;
        if T::ACTIVE {
            self.tap.access(addr);
        }
        Ok(())
    }

    /// The live-stack index of `addr` (at or past [`STACK_BASE`]), or
    /// the out-of-bounds error. Stack words are read and written only
    /// through `Vec::as_mut_ptr`, which creates no reference to the
    /// slice: the VM caches a frame base derived the same way and keeps
    /// using it across these accesses, which a `&mut` slice of the
    /// stack would invalidate.
    #[inline(always)]
    fn stack_index(&self, addr: u64) -> Result<usize, RuntimeError> {
        let i = addr - STACK_BASE;
        if i < self.stack.len() as u64 {
            Ok(i as usize)
        } else {
            Err(RuntimeError::OutOfBounds { addr })
        }
    }

    pub(crate) fn copy_words(&mut self, dst: u64, src: u64, n: usize) -> Result<(), RuntimeError> {
        for i in 0..n as u64 {
            let v = self.load(src + i)?;
            self.store(dst + i, v)?;
        }
        Ok(())
    }

    /// Pushes a zeroed frame of `words` words and returns its first
    /// stack index. The live stack holds at most [`MAX_STATIC_WORDS`]
    /// words: a frame past that is [`RuntimeError::StackBudget`],
    /// refused before any of it is allocated.
    pub(crate) fn push_frame(&mut self, words: usize) -> Result<usize, RuntimeError> {
        let fp = self.stack.len();
        if words > MAX_STATIC_WORDS - fp {
            return Err(RuntimeError::StackBudget {
                limit: MAX_STATIC_WORDS,
            });
        }
        self.stack.resize(fp + words, Value::Int(0));
        Ok(fp)
    }

    /// Appends `count * size` zeroed words (at least one) to the data
    /// segment and returns the first one's address. A run's heap holds
    /// at most [`MAX_STATIC_WORDS`] words: a request past that, or one
    /// whose size overflows, returns NULL, as C's `malloc` does when
    /// memory runs out.
    fn heap_alloc(&mut self, count: i64, size: i64) -> u64 {
        let words = (count.max(0) as usize).checked_mul(size.max(1) as usize);
        let used = self.data.len() - self.heap_base;
        match words.map(|w| w.max(1)) {
            Some(n) if n <= MAX_STATIC_WORDS - used => {
                let addr = self.data.len() as u64 + 1;
                self.data.resize(self.data.len() + n, Value::Int(0));
                addr
            }
            _ => 0,
        }
    }

    /// Reads the NUL-terminated string at `addr` into `out` (cleared
    /// first), one `char` per word's low byte — a byte ≥ 128 becomes a
    /// two-byte UTF-8 `char`, and the string functions see it so.
    /// More than a million words without a NUL is an error.
    fn read_cstring(&mut self, mut addr: u64, out: &mut String) -> Result<(), RuntimeError> {
        out.clear();
        for _ in 0..1_000_000 {
            let c = self.load(addr)?.to_int();
            if c == 0 {
                return Ok(());
            }
            out.push((c as u8) as char);
            addr += 1;
        }
        Err(RuntimeError::Other("unterminated string".into()))
    }

    /// How many words from `addr` on can be stored before the end of
    /// its segment (data or stack), and the error a store just past
    /// them raises.
    fn room(&self, addr: u64) -> (usize, RuntimeError) {
        let (index, len) = if addr >= STACK_BASE {
            (addr - STACK_BASE, self.stack.len())
        } else {
            (addr.wrapping_sub(1), self.data.len())
        };
        let room = (len as u64).saturating_sub(index);
        let past = if addr == 0 {
            RuntimeError::NullDeref
        } else {
            RuntimeError::OutOfBounds { addr: addr + room }
        };
        (room as usize, past)
    }

    /// Stores the bytes of `s`, then a NUL, from `addr` on.
    fn write_cstring(&mut self, addr: u64, s: &str) -> Result<(), RuntimeError> {
        for (i, b) in s.bytes().enumerate() {
            self.store(addr + i as u64, Value::Int(b as i64))?;
        }
        self.store(addr + s.len() as u64, Value::Int(0))
    }
}

/// The C library's three reusable string buffers: two operands and
/// one formatted result. The VM keeps them across runs with its other
/// per-thread recycled buffers, so a `printf` or `strcmp` allocates
/// nothing once they have grown.
#[derive(Default)]
pub(crate) struct StrBufs {
    a: String,
    b: String,
    out: String,
}

impl StrBufs {
    /// Drops any buffer whose capacity passed `max` bytes.
    pub(crate) fn trim(&mut self, max: usize) {
        for s in [&mut self.a, &mut self.b, &mut self.out] {
            if s.capacity() > max {
                *s = String::new();
            }
        }
    }

    /// The largest buffer capacity.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.a
            .capacity()
            .max(self.b.capacity())
            .max(self.out.capacity())
    }
}

/// The C library of one run: every [`Builtin`], its `getchar` input,
/// its output and its `rand` state.
pub(crate) struct Libc<'a> {
    input: &'a [u8],
    input_pos: usize,
    /// Everything the program printed: at most [`MAX_STATIC_WORDS`]
    /// bytes, past which output is [`RuntimeError::OutputBudget`].
    pub(crate) output: Vec<u8>,
    rng: u64,
    pub(crate) bufs: StrBufs,
}

impl<'a> Libc<'a> {
    pub(crate) fn new(input: &'a [u8], bufs: StrBufs) -> Self {
        Libc {
            input,
            input_pos: 0,
            output: Vec::new(),
            rng: 0x2545F4914F6CDD1D,
            bufs,
        }
    }

    /// Runs builtin `b` on `args`; a missing argument reads as
    /// `Int(0)`.
    pub(crate) fn call<T: MemTap>(
        &mut self,
        mem: &mut Memory<T>,
        b: Builtin,
        args: &[Value],
    ) -> Result<Value, Abort> {
        let arg = |i: usize| args.get(i).copied().unwrap_or(Value::Int(0));
        let rest = |i: usize| &args[i.min(args.len())..];
        let StrBufs { a, b: b2, out } = &mut self.bufs;
        Ok(match b {
            Builtin::Printf => {
                mem.read_cstring(arg(0).to_ptr(), a)?;
                let room = MAX_STATIC_WORDS - self.output.len();
                let past = RuntimeError::OutputBudget {
                    limit: MAX_STATIC_WORDS,
                };
                format(mem, a, rest(1), out, b2, room, past)?;
                emit(&mut self.output, out.as_bytes())?;
                Value::Int(out.len() as i64)
            }
            Builtin::Sprintf => {
                let dst = arg(0).to_ptr();
                mem.read_cstring(arg(1).to_ptr(), a)?;
                // The result and its NUL must fit before the end of the
                // destination's segment: formatting stops with the error
                // the first store past it would raise, so the result
                // cannot grow beyond what memory could ever hold.
                let (words, past) = mem.room(dst);
                format(mem, a, rest(2), out, b2, words.saturating_sub(1), past)?;
                mem.write_cstring(dst, out)?;
                Value::Int(out.len() as i64)
            }
            Builtin::Putchar => {
                emit(&mut self.output, &[arg(0).to_int() as u8])?;
                arg(0)
            }
            Builtin::Puts => {
                mem.read_cstring(arg(0).to_ptr(), a)?;
                a.push('\n');
                emit(&mut self.output, a.as_bytes())?;
                Value::Int(0)
            }
            Builtin::Getchar => match self.input.get(self.input_pos) {
                Some(&c) => {
                    self.input_pos += 1;
                    Value::Int(c as i64)
                }
                None => Value::Int(-1),
            },
            Builtin::Malloc => Value::Ptr(mem.heap_alloc(arg(0).to_int(), 1)),
            Builtin::Calloc => Value::Ptr(mem.heap_alloc(arg(0).to_int(), arg(1).to_int())),
            Builtin::Free => Value::Int(0),
            Builtin::Memset => {
                let p = arg(0).to_ptr();
                for i in 0..arg(2).to_int().max(0) as u64 {
                    mem.store(p + i, Value::Int(arg(1).to_int()))?;
                }
                Value::Ptr(p)
            }
            Builtin::Memcpy => {
                let n = arg(2).to_int().max(0) as usize;
                mem.copy_words(arg(0).to_ptr(), arg(1).to_ptr(), n)?;
                Value::Ptr(arg(0).to_ptr())
            }
            Builtin::Strlen => {
                mem.read_cstring(arg(0).to_ptr(), a)?;
                Value::Int(a.len() as i64)
            }
            Builtin::Strcpy => {
                mem.read_cstring(arg(1).to_ptr(), a)?;
                mem.write_cstring(arg(0).to_ptr(), a)?;
                Value::Ptr(arg(0).to_ptr())
            }
            Builtin::Strncpy => {
                let d = arg(0).to_ptr();
                mem.read_cstring(arg(1).to_ptr(), a)?;
                let n = arg(2).to_int().max(0) as usize;
                // The bytes of the first `n` chars, then NULs up to `n`
                // words: a char ≥ 128 copies as its two UTF-8 bytes.
                let end = a.char_indices().nth(n).map_or(a.len(), |(i, _)| i);
                for (i, &byte) in a.as_bytes()[..end].iter().enumerate() {
                    mem.store(d + i as u64, Value::Int(byte as i64))?;
                }
                for i in end..n {
                    mem.store(d + i as u64, Value::Int(0))?;
                }
                Value::Ptr(d)
            }
            Builtin::Strcmp => {
                mem.read_cstring(arg(0).to_ptr(), a)?;
                mem.read_cstring(arg(1).to_ptr(), b2)?;
                Value::Int(a.as_str().cmp(b2) as i64)
            }
            Builtin::Strncmp => {
                let n = arg(2).to_int().max(0) as usize;
                mem.read_cstring(arg(0).to_ptr(), a)?;
                mem.read_cstring(arg(1).to_ptr(), b2)?;
                Value::Int(a.chars().take(n).cmp(b2.chars().take(n)) as i64)
            }
            Builtin::Strcat => {
                let d = arg(0).to_ptr();
                mem.read_cstring(d, a)?;
                mem.read_cstring(arg(1).to_ptr(), b2)?;
                mem.write_cstring(d + a.len() as u64, b2)?;
                Value::Ptr(d)
            }
            Builtin::Atoi => {
                mem.read_cstring(arg(0).to_ptr(), a)?;
                Value::Int(a.trim().parse::<i64>().unwrap_or(0))
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

/// Appends `bytes` to the program's output, or refuses to take it past
/// [`MAX_STATIC_WORDS`] bytes.
fn emit(output: &mut Vec<u8>, bytes: &[u8]) -> Result<(), RuntimeError> {
    if bytes.len() > MAX_STATIC_WORDS - output.len() {
        return Err(RuntimeError::OutputBudget {
            limit: MAX_STATIC_WORDS,
        });
    }
    output.extend_from_slice(bytes);
    Ok(())
}

/// Writes `x` as C's `%.{digits}e` does: one digit, the point and
/// `digits` more (no point when `digits` is 0), then `e`, the
/// exponent's sign and at least two exponent digits. A non-finite `x`
/// is written as `%f` writes it.
fn c_exponent(out: &mut String, digits: usize, x: f64) -> std::fmt::Result {
    use std::fmt::Write as _;
    let start = out.len();
    write!(out, "{x:.digits$e}")?;
    let Some(at) = out[start..].find('e').map(|at| start + at) else {
        return Ok(());
    };
    let exp: i32 = out[at + 1..]
        .parse()
        .expect("Rust writes a decimal exponent");
    out.truncate(at);
    let sign = if exp < 0 { '-' } else { '+' };
    write!(out, "e{sign}{:02}", exp.unsigned_abs())
}

/// `printf`-style formatting of `fmt` into `out` (cleared first);
/// `tmp` holds each conversion's text before it is padded. A
/// conversion takes C's flags `-`, `0`, `+`, space and `#` (a `0x`
/// prefix on a nonzero `%x`, `0X` on `%X`, a leading `0` on `%o`; zero
/// padding goes after the prefix), a width, a `.precision` (digits
/// for `%f` and `%e`, most characters for `%s`, fewest digits for
/// `%d`/`%i`/`%u`/`%x`/`%X`/`%o`) and the length letters `l` and `h`,
/// which change nothing. A width or precision is decimal or `*`, which
/// takes the next argument as an `int`: a negative `*` width sets the
/// `-` flag, and a negative `*` precision counts as none. `%u` prints
/// as `%d`. `%e` with a precision prints C's spelling (`1.5e+00`);
/// without one, and `%g` always, it prints Rust's shortest round-trip
/// form (padded, but with no precision). A missing argument reads as
/// `Int(0)`. A result longer than `room` bytes is
/// the error `past`, found at the conversion that passes it and before
/// its padding or digits are written, so a huge width or precision
/// allocates nothing.
fn format<T: MemTap>(
    mem: &mut Memory<T>,
    fmt: &str,
    args: &[Value],
    out: &mut String,
    tmp: &mut String,
    room: usize,
    past: RuntimeError,
) -> Result<(), RuntimeError> {
    use std::fmt::Write as _;
    out.clear();
    let mut args = args.iter().copied();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let (mut left, mut zero, mut plus, mut space, mut alt) =
            (false, false, false, false, false);
        while let Some(flag) = chars.next_if(|c| matches!(c, '-' | '0' | '+' | ' ' | '#')) {
            match flag {
                '-' => left = true,
                '0' => zero = true,
                '+' => plus = true,
                '#' => alt = true,
                _ => space = true,
            }
        }
        let mut take = || args.next().unwrap_or(Value::Int(0));
        let width = match chars.next_if_eq(&'*') {
            Some(_) => {
                let w = take().to_int();
                left |= w < 0;
                usize::try_from(w.unsigned_abs()).unwrap_or(usize::MAX)
            }
            None => number(&mut chars),
        };
        let prec = match chars.next_if_eq(&'.').map(|_| chars.next_if_eq(&'*')) {
            Some(Some(_)) => usize::try_from(take().to_int()).ok(),
            Some(None) => Some(number(&mut chars)),
            None => None,
        };
        while chars.next_if(|c| matches!(c, 'l' | 'h')).is_some() {}
        let sign_of = |negative: bool| {
            if negative {
                "-"
            } else if plus {
                "+"
            } else if space {
                " "
            } else {
                ""
            }
        };
        tmp.clear();
        // The conversion's sign, and whether it is numeric (so a
        // `0` flag pads it with zeros) and an integer (so a precision
        // is its fewest digits).
        let (sign, numeric, integer) = match chars.next() {
            Some(conv @ ('d' | 'i' | 'u' | 'x' | 'X' | 'o')) => {
                let v = take().to_int();
                let w = match conv {
                    'x' => write!(tmp, "{v:x}"),
                    'X' => write!(tmp, "{v:X}"),
                    'o' => write!(tmp, "{v:o}"),
                    _ => write!(tmp, "{}", v.unsigned_abs()),
                };
                w.expect("writing to a String cannot fail");
                if prec == Some(0) && v == 0 {
                    tmp.clear(); // C prints no digits for a zero
                }
                if conv == 'o' && alt && !tmp.starts_with('0') {
                    tmp.insert(0, '0'); // a digit, so a precision counts it
                }
                let sign = match conv {
                    'x' if alt && v != 0 => "0x",
                    'X' if alt && v != 0 => "0X",
                    'x' | 'X' | 'o' => "",
                    _ => sign_of(v < 0),
                };
                (sign, true, true)
            }
            Some(conv @ ('f' | 'e' | 'g')) => {
                let x = take().to_float();
                match (conv, prec) {
                    ('f', _) | ('e', Some(_)) => {
                        let digits = prec.unwrap_or(6);
                        if digits > room.saturating_sub(out.len()) {
                            return Err(past);
                        }
                        if conv == 'f' {
                            write!(tmp, "{:.*}", digits, x.abs())
                        } else {
                            c_exponent(tmp, digits, x.abs())
                        }
                    }
                    _ => write!(tmp, "{}", x.abs()),
                }
                .expect("writing to a String cannot fail");
                (
                    sign_of(x.is_sign_negative() && !x.is_nan()),
                    x.is_finite(),
                    false,
                )
            }
            Some('c') => {
                tmp.push((take().to_int() as u8) as char);
                ("", false, false)
            }
            Some('s') => {
                mem.read_cstring(take().to_ptr(), tmp)?;
                if let Some((cut, _)) = prec.and_then(|p| tmp.char_indices().nth(p)) {
                    tmp.truncate(cut);
                }
                ("", false, false)
            }
            // `%%`, a lone `%` and an unknown conversion print as
            // they are, unpadded.
            literal => {
                out.push('%');
                out.extend(literal.filter(|&c| c != '%'));
                if out.len() > room {
                    return Err(past);
                }
                continue;
            }
        };
        let len = tmp.chars().count();
        let zeros = match prec {
            Some(p) if integer => p.saturating_sub(len),
            _ if zero && numeric && !left => width.saturating_sub(sign.len() + len),
            _ => 0,
        };
        let spaces = width.saturating_sub(zeros.saturating_add(sign.len() + len));
        let pads = zeros.saturating_add(spaces);
        if pads.saturating_add(sign.len() + tmp.len()) > room.saturating_sub(out.len()) {
            return Err(past);
        }
        let pad = |out: &mut String, c: char, n: usize| out.extend(std::iter::repeat_n(c, n));
        if !left {
            pad(out, ' ', spaces);
        }
        out.push_str(sign);
        pad(out, '0', zeros);
        out.push_str(tmp);
        if left {
            pad(out, ' ', spaces);
        }
    }
    Ok(())
}

/// A decimal width or precision; one too large for `usize` saturates.
fn number(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> usize {
    let mut n = 0usize;
    while let Some(d) = chars.next_if(char::is_ascii_digit) {
        n = n
            .saturating_mul(10)
            .saturating_add(d as usize - '0' as usize);
    }
    n
}
