//! Semantic analysis: name resolution, type checking, struct layout,
//! frame layout, and registration of the entities the estimators and the
//! profiler need (call sites, branch sites, switch sites, address-taken
//! functions, folded constants).
//!
//! The analysis is deliberately permissive in the tradition of pre-ANSI
//! C — the suite programs are ported K&R-style code — but it rejects the
//! mistakes that would make the interpreter misbehave (unknown names,
//! calling non-functions, member access on non-structs, arity mismatch
//! on direct calls, `goto` to a missing label).

use crate::ast::*;
use crate::builtins::Builtin;
use crate::error::{CompileError, ErrorKind};
use crate::fold::{fold, ConstValue, FoldEnv};
use crate::token::Span;
use crate::types::*;
use std::collections::HashMap;

/// Identifies a function within a [`Module`].
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a global variable within a [`Module`].
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Identifies a local variable (including parameters) within a function.
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Identifies a call site within a [`Module`].
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSiteId(pub u32);

/// Identifies a two-way branch site within a [`Module`].
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchId(pub u32);

/// Identifies a `switch` site within a [`Module`].
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u32);

/// What a name in an expression refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// A local variable or parameter of the enclosing function.
    Local(LocalId),
    /// A global variable.
    Global(GlobalId),
    /// A user-defined function.
    Func(FuncId),
    /// A builtin library function.
    Builtin(Builtin),
    /// An `enum` constant with its value.
    EnumConst(i64),
}

/// Who a call site calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalleeKind {
    /// A direct call to a user function.
    Direct(FuncId),
    /// A direct call to a builtin.
    Builtin(Builtin),
    /// A call through a function pointer.
    Indirect,
}

/// A registered call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// This site's id (index into [`SideTables::call_sites`]).
    pub id: CallSiteId,
    /// The function containing the call.
    pub caller: FuncId,
    /// Who is called.
    pub callee: CalleeKind,
    /// The `Call` expression node.
    pub expr: NodeId,
    /// Source location.
    pub span: Span,
}

/// The syntactic context of a two-way branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// An `if` condition.
    If,
    /// A `while` condition.
    While,
    /// A `do … while` condition.
    DoWhile,
    /// A `for` condition.
    For,
    /// A `?:` condition.
    Ternary,
}

impl BranchKind {
    /// Whether this branch controls a loop back edge.
    pub fn is_loop(self) -> bool {
        matches!(
            self,
            BranchKind::While | BranchKind::DoWhile | BranchKind::For
        )
    }
}

/// A registered two-way branch site.
#[derive(Debug, Clone)]
pub struct Branch {
    /// This branch's id (index into [`SideTables::branches`]).
    pub id: BranchId,
    /// The containing function.
    pub func: FuncId,
    /// The statement (or `?:` expression) node that owns the branch.
    pub owner: NodeId,
    /// The condition expression node.
    pub cond: NodeId,
    /// The syntactic context.
    pub kind: BranchKind,
    /// `Some(direction)` if the condition folds to a constant. Such
    /// branches are predicted but excluded from miss-rate scoring (§2).
    pub const_cond: Option<bool>,
}

/// A registered `switch` site.
#[derive(Debug, Clone)]
pub struct SwitchInfo {
    /// This switch's id.
    pub id: SwitchId,
    /// The containing function.
    pub func: FuncId,
    /// The `switch` statement node.
    pub owner: NodeId,
    /// Number of `case` labels on each section (default counts as one).
    pub section_labels: Vec<usize>,
    /// Whether any section is `default`.
    pub has_default: bool,
}

/// A compile-time word value used in global initialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitWord {
    /// An integer word.
    Int(i64),
    /// A float word.
    Float(f64),
    /// A pointer to entry `usize` of the module string table.
    StrPtr(usize),
    /// A function pointer.
    Fn(FuncId),
    /// The address of a global variable.
    GlobalAddr(GlobalId),
}

/// A global variable after analysis.
#[derive(Debug, Clone)]
pub struct Global {
    /// This global's id.
    pub id: GlobalId,
    /// Variable name.
    pub name: String,
    /// Resolved type.
    pub ty: Type,
    /// Size in words.
    pub size: usize,
    /// Initial contents, padded with `Int(0)` to `size`.
    pub init: Vec<InitWord>,
    /// Source location.
    pub span: Span,
}

/// A local variable (or parameter) after analysis.
#[derive(Debug, Clone)]
pub struct Local {
    /// This local's id within its function.
    pub id: LocalId,
    /// Variable name.
    pub name: String,
    /// Resolved type (parameters have array types decayed).
    pub ty: Type,
    /// Offset of the first word within the frame.
    pub offset: usize,
    /// Size in words.
    pub size: usize,
}

/// A function after analysis.
#[derive(Debug, Clone)]
pub struct Function {
    /// This function's id.
    pub id: FuncId,
    /// Function name.
    pub name: String,
    /// Resolved signature.
    pub sig: FuncSig,
    /// Number of parameters (the first `param_count` locals).
    pub param_count: usize,
    /// All locals, parameters first.
    pub locals: Vec<Local>,
    /// Total frame size in words.
    pub frame_size: usize,
    /// The body; `None` for bodiless prototypes.
    pub body: Option<Stmt>,
    /// Source location.
    pub span: Span,
}

impl Function {
    /// Whether the function has a body.
    pub fn is_defined(&self) -> bool {
        self.body.is_some()
    }
}

/// Side tables keyed by [`NodeId`], produced by analysis.
#[derive(Debug, Clone, Default)]
pub struct SideTables {
    /// The type of every expression node.
    pub expr_types: HashMap<NodeId, Type>,
    /// What every `Ident` node refers to.
    pub resolutions: HashMap<NodeId, Resolution>,
    /// Every call site, indexed by [`CallSiteId`].
    pub call_sites: Vec<CallSite>,
    /// Call-site id of each `Call` expression node.
    pub call_site_of: HashMap<NodeId, CallSiteId>,
    /// Every two-way branch, indexed by [`BranchId`].
    pub branches: Vec<Branch>,
    /// Branch id of each owning statement / `?:` node.
    pub branch_of: HashMap<NodeId, BranchId>,
    /// Every `switch`, indexed by [`SwitchId`].
    pub switches: Vec<SwitchInfo>,
    /// Switch id of each `switch` statement node.
    pub switch_of: HashMap<NodeId, SwitchId>,
    /// Folded constant values (branch conditions, case labels, sizeofs).
    pub const_values: HashMap<NodeId, ConstValue>,
    /// Case label values of each switch, per section.
    pub case_values: HashMap<SwitchId, Vec<Vec<i64>>>,
    /// String-table index of each string literal node.
    pub str_of: HashMap<NodeId, usize>,
    /// Static count of address-of operations per function (function
    /// names used as values). Drives the paper's *pointer node*.
    pub address_taken: HashMap<FuncId, u32>,
    /// The local allocated for each declaration node ([`VarDecl::id`]).
    pub local_of_decl: HashMap<NodeId, LocalId>,
}

/// A fully analyzed translation unit.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Struct layouts.
    pub structs: StructLayouts,
    /// `enum` constants by name.
    pub enum_consts: HashMap<String, i64>,
    /// Global variables.
    pub globals: Vec<Global>,
    /// Functions (defined and prototypes), in declaration order.
    pub functions: Vec<Function>,
    /// All distinct string literals.
    pub strings: Vec<String>,
    /// Analysis side tables.
    pub side: SideTables,
}

impl Module {
    /// Finds a function by name.
    pub fn function_id(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this module.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Looks up a global.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this module.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// The type of an expression node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not typed (i.e. not an expression of this
    /// module).
    pub fn type_of(&self, id: NodeId) -> &Type {
        &self.side.expr_types[&id]
    }

    /// All call sites contained in the given function.
    pub fn call_sites_in(&self, f: FuncId) -> impl Iterator<Item = &CallSite> {
        self.side.call_sites.iter().filter(move |c| c.caller == f)
    }

    /// All branch sites contained in the given function.
    pub fn branches_in(&self, f: FuncId) -> impl Iterator<Item = &Branch> {
        self.side.branches.iter().filter(move |b| b.func == f)
    }

    /// Functions with bodies, in declaration order.
    pub fn defined_functions(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter().filter(|f| f.is_defined())
    }
}

/// Runs semantic analysis over a parsed unit. The unit's function
/// bodies move into the returned [`Module`]; nothing is copied.
///
/// # Errors
///
/// Returns the first semantic error found.
pub fn analyze(unit: Unit) -> Result<Module, CompileError> {
    let mut cx = Checker::new();
    cx.collect_enums(&unit)?;
    cx.collect_structs(&unit)?;
    cx.collect_functions_and_globals(&unit)?;
    cx.check_globals(&unit)?;
    cx.check_functions(unit)?;
    Ok(cx.finish())
}

struct Checker {
    structs: StructLayouts,
    enum_consts: HashMap<String, i64>,
    globals: Vec<Global>,
    functions: Vec<Function>,
    strings: Vec<String>,
    string_ids: HashMap<String, usize>,
    side: SideTables,
    global_ids: HashMap<String, GlobalId>,
    func_ids: HashMap<String, FuncId>,
    /// Functions that have a *definition* (body) in this unit; bodies
    /// themselves are attached in a later phase, so redefinition checks
    /// cannot rely on `Function::is_defined` during collection.
    defined_fns: std::collections::HashSet<FuncId>,
    // Per-function state:
    scopes: Vec<HashMap<String, LocalId>>,
    cur_func: FuncId,
    cur_locals: Vec<Local>,
    cur_frame: usize,
    labels: Vec<String>,
    gotos: Vec<(String, Span)>,
    loop_depth: usize,
    switch_depth: usize,
}

struct SizeEnv<'a> {
    checker: &'a Checker,
}

impl FoldEnv for SizeEnv<'_> {
    fn sizeof_typename(&self, ty: &TypeName) -> Option<i64> {
        let t = self.checker.resolve_type_quiet(ty)?;
        t.try_size_words(&self.checker.structs).map(|n| n as i64)
    }
    fn sizeof_expr(&self, e: &Expr) -> Option<i64> {
        let t = self.checker.side.expr_types.get(&e.id)?;
        t.try_size_words(&self.checker.structs).map(|n| n as i64)
    }
    fn ident_value(&self, name: &str) -> Option<ConstValue> {
        self.checker
            .enum_consts
            .get(name)
            .map(|&v| ConstValue::Int(v))
    }
}

impl Checker {
    fn new() -> Self {
        Checker {
            structs: StructLayouts::new(),
            enum_consts: HashMap::new(),
            globals: Vec::new(),
            functions: Vec::new(),
            strings: Vec::new(),
            string_ids: HashMap::new(),
            side: SideTables::default(),
            global_ids: HashMap::new(),
            func_ids: HashMap::new(),
            defined_fns: std::collections::HashSet::new(),
            scopes: Vec::new(),
            cur_func: FuncId(0),
            cur_locals: Vec::new(),
            cur_frame: 0,
            labels: Vec::new(),
            gotos: Vec::new(),
            loop_depth: 0,
            switch_depth: 0,
        }
    }

    fn finish(self) -> Module {
        Module {
            structs: self.structs,
            enum_consts: self.enum_consts,
            globals: self.globals,
            functions: self.functions,
            strings: self.strings,
            side: self.side,
        }
    }

    fn err(&self, span: Span, msg: impl Into<String>) -> CompileError {
        CompileError::new(ErrorKind::Sema, msg.into(), span)
    }

    fn intern_string(&mut self, s: &str) -> usize {
        if let Some(&i) = self.string_ids.get(s) {
            return i;
        }
        let i = self.strings.len();
        self.strings.push(s.to_string());
        self.string_ids.insert(s.to_string(), i);
        i
    }

    // ----- phase 0: enums -----

    fn collect_enums(&mut self, unit: &Unit) -> Result<(), CompileError> {
        for item in &unit.items {
            let Item::Enum(ed) = item else { continue };
            let mut next = 0i64;
            for (name, value) in &ed.variants {
                if self.enum_consts.contains_key(name) {
                    return Err(self.err(ed.span, format!("enum constant `{name}` redefined")));
                }
                if let Some(e) = value {
                    let env = SizeEnv { checker: self };
                    next = fold(e, &env).and_then(ConstValue::as_int).ok_or_else(|| {
                        self.err(e.span, "enum value must be an integer constant")
                    })?;
                }
                self.enum_consts.insert(name.clone(), next);
                next += 1;
            }
        }
        Ok(())
    }

    // ----- phase 1: structs -----

    fn collect_structs(&mut self, unit: &Unit) -> Result<(), CompileError> {
        for item in &unit.items {
            let Item::Struct(sd) = item else { continue };
            if self.structs.by_name(&sd.name).is_some() {
                return Err(self.err(sd.span, format!("struct `{}` redefined", sd.name)));
            }
            // Layout fields. Fields may reference previously defined
            // structs by value, or any struct (including this one)
            // behind a pointer. We push a placeholder first so
            // pointer-to-self resolves.
            let id = self.structs.push(StructLayout {
                name: sd.name.clone(),
                fields: Vec::new(),
                size: 0,
            });
            let mut fields = Vec::new();
            let mut offset = 0usize;
            for (fname, fty) in &sd.fields {
                let ty = self.resolve_type(fty, sd.span)?;
                if matches!(ty, Type::Void) {
                    return Err(self.err(sd.span, format!("field `{fname}` has type void")));
                }
                if let Type::Struct(sid) = ty {
                    if sid == id {
                        return Err(
                            self.err(sd.span, format!("struct `{}` contains itself", sd.name))
                        );
                    }
                }
                let size = ty.size_words(&self.structs);
                fields.push(FieldLayout {
                    name: fname.clone(),
                    ty,
                    offset,
                });
                offset += size;
            }
            // Replace the placeholder.
            let slot = id.0 as usize;
            let layout = StructLayout {
                name: sd.name.clone(),
                fields,
                size: offset.max(1),
            };
            // Safe: push() appended a placeholder at `slot`.
            *self.structs_mut(slot) = layout;
        }
        Ok(())
    }

    fn structs_mut(&mut self, slot: usize) -> &mut StructLayout {
        // StructLayouts does not expose mutation publicly; rebuild in place.
        // We keep a small private accessor here via unsafe-free trick:
        // reconstruct the whole table.
        // (Simplest: StructLayouts stores a Vec; add a crate-private fn.)
        self.structs.layout_mut(slot)
    }

    // ----- type resolution -----

    fn resolve_type(&self, ty: &TypeName, span: Span) -> Result<Type, CompileError> {
        match ty {
            TypeName::Base(BaseType::Void) => Ok(Type::Void),
            TypeName::Base(BaseType::Int) => Ok(Type::Int),
            TypeName::Base(BaseType::Char) => Ok(Type::Char),
            TypeName::Base(BaseType::Float) => Ok(Type::Float),
            TypeName::Base(BaseType::Struct(name)) => self
                .structs
                .by_name(name)
                .map(Type::Struct)
                .ok_or_else(|| self.err(span, format!("unknown struct `{name}`"))),
            TypeName::Ptr(inner) => Ok(Type::Ptr(Box::new(self.resolve_type(inner, span)?))),
            TypeName::Array(inner, dim) => {
                let elem = self.resolve_type(inner, span)?;
                if matches!(elem, Type::Void) {
                    return Err(self.err(span, "array of void is not a valid type"));
                }
                let n = match dim {
                    Some(e) => {
                        let env = SizeEnv { checker: self };
                        fold(e, &env)
                            .and_then(ConstValue::as_int)
                            .filter(|&n| n > 0)
                            .ok_or_else(|| {
                                self.err(e.span, "array dimension must be a positive constant")
                            })? as usize
                    }
                    None => 0, // unsized; sized by initializer or decays
                };
                Ok(Type::Array(Box::new(elem), n))
            }
            TypeName::FnPtr(ret, params) => {
                let ret = self.resolve_type(ret, span)?;
                let params = params
                    .iter()
                    .map(|p| self.resolve_type(p, span).map(|t| t.decayed()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Type::FnPtr(Box::new(FuncSig {
                    ret,
                    params,
                    varargs: false,
                })))
            }
        }
    }

    fn resolve_type_quiet(&self, ty: &TypeName) -> Option<Type> {
        self.resolve_type(ty, Span::default()).ok()
    }

    /// `sizeof` of a resolved type, as a diagnostic (never an abort)
    /// when the type has no size — `sizeof(void)`, `sizeof(*p)` on a
    /// `void *p`, and friends used to panic deep in [`Type::size_words`].
    fn sizeof_value(&self, t: &Type, span: Span) -> Result<i64, CompileError> {
        t.try_size_words(&self.structs)
            .map(|n| n as i64)
            .ok_or_else(|| {
                self.err(
                    span,
                    format!("`sizeof` applied to `{t}`, which has no size"),
                )
            })
    }

    // ----- phase 2: signatures and globals -----

    fn collect_functions_and_globals(&mut self, unit: &Unit) -> Result<(), CompileError> {
        for item in &unit.items {
            match item {
                Item::Function(fd) => {
                    let ret = self.resolve_type(&fd.ret, fd.span)?;
                    let params: Vec<Type> = fd
                        .params
                        .iter()
                        .map(|p| self.resolve_type(&p.ty, p.span).map(|t| t.decayed()))
                        .collect::<Result<_, _>>()?;
                    let sig = FuncSig {
                        ret,
                        params,
                        varargs: false,
                    };
                    if let Some(&fid) = self.func_ids.get(&fd.name) {
                        let existing = &self.functions[fid.0 as usize];
                        if existing.sig != sig {
                            return Err(self.err(
                                fd.span,
                                format!("conflicting declarations of `{}`", fd.name),
                            ));
                        }
                        if fd.body.is_some() {
                            if self.defined_fns.contains(&fid) {
                                return Err(
                                    self.err(fd.span, format!("function `{}` redefined", fd.name))
                                );
                            }
                            self.defined_fns.insert(fid);
                        }
                        continue;
                    }
                    let id = FuncId(self.functions.len() as u32);
                    self.func_ids.insert(fd.name.clone(), id);
                    if fd.body.is_some() {
                        self.defined_fns.insert(id);
                    }
                    self.functions.push(Function {
                        id,
                        name: fd.name.clone(),
                        sig,
                        param_count: fd.params.len(),
                        locals: Vec::new(),
                        frame_size: 0,
                        body: None,
                        span: fd.span,
                    });
                }
                Item::Globals(decls) => {
                    for d in decls {
                        let ty = self.resolve_type(&d.ty, d.span)?;
                        let ty = self.size_from_init(ty, d);
                        let Some(size) = ty.try_size_words(&self.structs) else {
                            return Err(
                                self.err(d.span, format!("global `{}` has type void", d.name))
                            );
                        };
                        if self.global_ids.contains_key(&d.name) {
                            return Err(self.err(d.span, format!("global `{}` redefined", d.name)));
                        }
                        let id = GlobalId(self.globals.len() as u32);
                        self.global_ids.insert(d.name.clone(), id);
                        self.globals.push(Global {
                            id,
                            name: d.name.clone(),
                            ty,
                            size,
                            init: Vec::new(),
                            span: d.span,
                        });
                    }
                }
                Item::Struct(_) | Item::Enum(_) => {}
            }
        }
        Ok(())
    }

    /// Gives unsized arrays (`int a[] = {...}` / `char s[] = "..."`)
    /// their length from the initializer.
    fn size_from_init(&self, ty: Type, d: &VarDecl) -> Type {
        let Type::Array(elem, 0) = &ty else { return ty };
        match &d.init {
            Some(Initializer::List(items)) => Type::Array(elem.clone(), items.len().max(1)),
            Some(Initializer::Expr(Expr {
                kind: ExprKind::StrLit(s),
                ..
            })) => Type::Array(elem.clone(), s.len() + 1),
            _ => ty,
        }
    }

    // ----- phase 3: global initializers -----

    fn check_globals(&mut self, unit: &Unit) -> Result<(), CompileError> {
        for item in &unit.items {
            let Item::Globals(decls) = item else { continue };
            for d in decls {
                let gid = self.global_ids[&d.name];
                let ty = self.globals[gid.0 as usize].ty.clone();
                let size = self.globals[gid.0 as usize].size;
                let mut words = Vec::new();
                if let Some(init) = &d.init {
                    self.flatten_init(&ty, init, &mut words, d.span)?;
                }
                if words.len() > size {
                    return Err(self.err(
                        d.span,
                        format!(
                            "initializer for `{}` has {} words but the object holds {}",
                            d.name,
                            words.len(),
                            size
                        ),
                    ));
                }
                words.resize(size, InitWord::Int(0));
                self.globals[gid.0 as usize].init = words;
            }
        }
        Ok(())
    }

    /// Flattens an initializer into words, checking shape against `ty`.
    fn flatten_init(
        &mut self,
        ty: &Type,
        init: &Initializer,
        out: &mut Vec<InitWord>,
        span: Span,
    ) -> Result<(), CompileError> {
        match (ty, init) {
            (Type::Array(elem, n), Initializer::List(items)) => {
                if items.len() > *n {
                    return Err(self.err(span, "too many initializers for array"));
                }
                let start = out.len();
                for item in items {
                    self.flatten_init(elem, item, out, span)?;
                }
                out.resize(start + elem.size_words(&self.structs) * n, InitWord::Int(0));
                Ok(())
            }
            (Type::Array(elem, n), Initializer::Expr(e)) if matches!(**elem, Type::Char) => {
                // char s[n] = "...";
                if let ExprKind::StrLit(s) = &e.kind {
                    if s.len() + 1 > *n {
                        return Err(self.err(e.span, "string too long for array"));
                    }
                    let start = out.len();
                    for b in s.bytes() {
                        out.push(InitWord::Int(b as i64));
                    }
                    out.push(InitWord::Int(0));
                    out.resize(start + n, InitWord::Int(0));
                    Ok(())
                } else {
                    Err(self.err(e.span, "char array initializer must be a string"))
                }
            }
            (Type::Struct(sid), Initializer::List(items)) => {
                let fields: Vec<Type> = self
                    .structs
                    .layout(*sid)
                    .fields
                    .iter()
                    .map(|f| f.ty.clone())
                    .collect();
                let total = self.structs.layout(*sid).size;
                if items.len() > fields.len() {
                    return Err(self.err(span, "too many initializers for struct"));
                }
                let start = out.len();
                for (item, fty) in items.iter().zip(fields.iter()) {
                    self.flatten_init(fty, item, out, span)?;
                }
                out.resize(start + total, InitWord::Int(0));
                Ok(())
            }
            (_, Initializer::Expr(e)) => {
                let w = self.const_init_word(ty, e)?;
                out.push(w);
                Ok(())
            }
            (_, Initializer::List(items)) => {
                // `{ expr }` initializing a scalar.
                if items.len() == 1 {
                    self.flatten_init(ty, &items[0], out, span)
                } else {
                    Err(self.err(span, "brace initializer on a scalar"))
                }
            }
        }
    }

    /// Evaluates a scalar global initializer to a word.
    fn const_init_word(&mut self, ty: &Type, e: &Expr) -> Result<InitWord, CompileError> {
        // Strings, function names, and &global are address constants.
        match &e.kind {
            ExprKind::StrLit(s) => {
                let idx = self.intern_string(s);
                self.side.str_of.insert(e.id, idx);
                return Ok(InitWord::StrPtr(idx));
            }
            ExprKind::Ident(name) => {
                if let Some(&fid) = self.func_ids.get(name) {
                    *self.side.address_taken.entry(fid).or_insert(0) += 1;
                    return Ok(InitWord::Fn(fid));
                }
            }
            ExprKind::Unary(UnOp::Addr, inner) => {
                if let ExprKind::Ident(name) = &inner.kind {
                    if let Some(&fid) = self.func_ids.get(name) {
                        *self.side.address_taken.entry(fid).or_insert(0) += 1;
                        return Ok(InitWord::Fn(fid));
                    }
                    if let Some(&gid) = self.global_ids.get(name) {
                        return Ok(InitWord::GlobalAddr(gid));
                    }
                }
            }
            _ => {}
        }
        let env = SizeEnv { checker: self };
        let v = fold(e, &env)
            .ok_or_else(|| self.err(e.span, "global initializer is not a constant"))?;
        Ok(match (ty, v) {
            (Type::Float, v) => InitWord::Float(v.as_float()),
            (_, ConstValue::Int(i)) => InitWord::Int(i),
            (_, ConstValue::Float(f)) => InitWord::Int(f as i64),
        })
    }

    // ----- phase 4: function bodies -----

    fn check_functions(&mut self, unit: Unit) -> Result<(), CompileError> {
        for item in unit.items {
            let Item::Function(fd) = item else { continue };
            let Some(body) = fd.body else { continue };
            let fid = self.func_ids[&fd.name];
            self.cur_func = fid;
            self.cur_locals = Vec::new();
            self.cur_frame = 0;
            self.scopes = vec![HashMap::new()];
            self.labels.clear();
            self.gotos.clear();
            self.loop_depth = 0;
            self.switch_depth = 0;

            // Parameters become the first locals; array params decay.
            for p in &fd.params {
                let ty = self.resolve_type(&p.ty, p.span)?.decayed();
                self.add_local(&p.name, ty, p.span)?;
            }

            // Collect labels up front so forward gotos resolve.
            body.walk(&mut |s| {
                if let StmtKind::Label(name, _) = &s.kind {
                    self.labels.push(name.clone());
                }
            });

            self.check_stmt(&body)?;

            for (label, span) in std::mem::take(&mut self.gotos) {
                if !self.labels.contains(&label) {
                    return Err(self.err(span, format!("goto to undefined label `{label}`")));
                }
            }

            let f = &mut self.functions[fid.0 as usize];
            f.locals = std::mem::take(&mut self.cur_locals);
            f.frame_size = self.cur_frame;
            f.body = Some(body);
        }
        Ok(())
    }

    fn add_local(&mut self, name: &str, ty: Type, span: Span) -> Result<LocalId, CompileError> {
        let Some(size) = ty.try_size_words(&self.structs) else {
            return Err(self.err(span, format!("variable `{name}` has type void")));
        };
        let size = size.max(1);
        let id = LocalId(self.cur_locals.len() as u32);
        self.cur_locals.push(Local {
            id,
            name: name.to_string(),
            ty,
            offset: self.cur_frame,
            size,
        });
        self.cur_frame += size;
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name.to_string(), id);
        Ok(id)
    }

    fn lookup(&self, name: &str) -> Option<Resolution> {
        for scope in self.scopes.iter().rev() {
            if let Some(&lid) = scope.get(name) {
                return Some(Resolution::Local(lid));
            }
        }
        if let Some(&gid) = self.global_ids.get(name) {
            return Some(Resolution::Global(gid));
        }
        if let Some(&fid) = self.func_ids.get(name) {
            return Some(Resolution::Func(fid));
        }
        if let Some(&v) = self.enum_consts.get(name) {
            return Some(Resolution::EnumConst(v));
        }
        Builtin::from_name(name).map(Resolution::Builtin)
    }

    fn register_branch(&mut self, owner: NodeId, cond: &Expr, kind: BranchKind) {
        let env = SizeEnv { checker: self };
        let const_cond = fold(cond, &env).map(ConstValue::as_bool);
        let id = BranchId(self.side.branches.len() as u32);
        self.side.branches.push(Branch {
            id,
            func: self.cur_func,
            owner,
            cond: cond.id,
            kind,
            const_cond,
        });
        self.side.branch_of.insert(owner, id);
    }

    fn check_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match &s.kind {
            StmtKind::Expr(e) => {
                self.type_expr(e)?;
            }
            StmtKind::Decl(decls) => {
                for d in decls {
                    let ty = self.resolve_type(&d.ty, d.span)?;
                    let ty = self.size_from_init(ty, d);
                    if let Type::Array(_, 0) = ty {
                        return Err(
                            self.err(d.span, format!("array `{}` has unknown size", d.name))
                        );
                    }
                    if let Some(init) = &d.init {
                        self.check_local_init(&ty, init, d.span)?;
                    }
                    let lid = self.add_local(&d.name, ty, d.span)?;
                    self.side.local_of_decl.insert(d.id, lid);
                }
            }
            StmtKind::If(cond, then, els) => {
                self.scalar_cond(cond)?;
                self.register_branch(s.id, cond, BranchKind::If);
                self.check_stmt(then)?;
                if let Some(e) = els {
                    self.check_stmt(e)?;
                }
            }
            StmtKind::While(cond, body) => {
                self.scalar_cond(cond)?;
                self.register_branch(s.id, cond, BranchKind::While);
                self.loop_depth += 1;
                self.check_stmt(body)?;
                self.loop_depth -= 1;
            }
            StmtKind::DoWhile(body, cond) => {
                self.loop_depth += 1;
                self.check_stmt(body)?;
                self.loop_depth -= 1;
                self.scalar_cond(cond)?;
                self.register_branch(s.id, cond, BranchKind::DoWhile);
            }
            StmtKind::For(init, cond, step, body) => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.check_stmt(i)?;
                }
                if let Some(c) = cond {
                    self.scalar_cond(c)?;
                    self.register_branch(s.id, c, BranchKind::For);
                }
                if let Some(st) = step {
                    self.type_expr(st)?;
                }
                self.loop_depth += 1;
                self.check_stmt(body)?;
                self.loop_depth -= 1;
                self.scopes.pop();
            }
            StmtKind::Switch(scrut, sections) => {
                let t = self.type_expr(scrut)?;
                if !t.is_integral() {
                    return Err(self.err(scrut.span, "switch on a non-integer"));
                }
                let mut section_labels = Vec::new();
                let mut has_default = false;
                let mut case_values: Vec<Vec<i64>> = Vec::new();
                let mut seen: Vec<i64> = Vec::new();
                for sec in sections {
                    let mut vals = Vec::new();
                    for l in &sec.labels {
                        let env = SizeEnv { checker: self };
                        let v = fold(l, &env).and_then(ConstValue::as_int).ok_or_else(|| {
                            self.err(l.span, "case label must be an integer constant")
                        })?;
                        if seen.contains(&v) {
                            return Err(self.err(l.span, format!("duplicate case label {v}")));
                        }
                        seen.push(v);
                        self.side.const_values.insert(l.id, ConstValue::Int(v));
                        vals.push(v);
                    }
                    if sec.is_default {
                        if has_default {
                            return Err(self.err(s.span, "multiple default labels"));
                        }
                        has_default = true;
                    }
                    section_labels.push(sec.labels.len() + usize::from(sec.is_default));
                    case_values.push(vals);
                }
                let id = SwitchId(self.side.switches.len() as u32);
                self.side.switches.push(SwitchInfo {
                    id,
                    func: self.cur_func,
                    owner: s.id,
                    section_labels,
                    has_default,
                });
                self.side.switch_of.insert(s.id, id);
                self.side.case_values.insert(id, case_values);
                self.switch_depth += 1;
                for sec in sections {
                    self.scopes.push(HashMap::new());
                    for st in &sec.body {
                        self.check_stmt(st)?;
                    }
                    self.scopes.pop();
                }
                self.switch_depth -= 1;
            }
            StmtKind::Break => {
                if self.loop_depth == 0 && self.switch_depth == 0 {
                    return Err(self.err(s.span, "break outside loop or switch"));
                }
            }
            StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(self.err(s.span, "continue outside loop"));
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.type_expr(e)?;
                }
            }
            StmtKind::Goto(label) => {
                self.gotos.push((label.clone(), s.span));
            }
            StmtKind::Label(_, inner) => self.check_stmt(inner)?,
            StmtKind::Block(stmts) => {
                self.scopes.push(HashMap::new());
                for st in stmts {
                    self.check_stmt(st)?;
                }
                self.scopes.pop();
            }
            StmtKind::Empty => {}
        }
        Ok(())
    }

    fn check_local_init(
        &mut self,
        ty: &Type,
        init: &Initializer,
        span: Span,
    ) -> Result<(), CompileError> {
        match (ty, init) {
            (Type::Array(elem, n), Initializer::List(items)) => {
                if items.len() > *n {
                    return Err(self.err(span, "too many initializers for array"));
                }
                for item in items {
                    self.check_local_init(elem, item, span)?;
                }
                Ok(())
            }
            (Type::Array(elem, _), Initializer::Expr(e))
                if matches!(**elem, Type::Char) && matches!(e.kind, ExprKind::StrLit(_)) =>
            {
                self.type_expr(e)?;
                Ok(())
            }
            (Type::Struct(sid), Initializer::List(items)) => {
                let fields: Vec<Type> = self
                    .structs
                    .layout(*sid)
                    .fields
                    .iter()
                    .map(|f| f.ty.clone())
                    .collect();
                if items.len() > fields.len() {
                    return Err(self.err(span, "too many initializers for struct"));
                }
                for (item, fty) in items.iter().zip(fields.iter()) {
                    self.check_local_init(fty, item, span)?;
                }
                Ok(())
            }
            (_, Initializer::Expr(e)) => {
                self.type_expr(e)?;
                Ok(())
            }
            (_, Initializer::List(items)) if items.len() == 1 => {
                self.check_local_init(ty, &items[0], span)
            }
            _ => Err(self.err(span, "initializer shape does not match type")),
        }
    }

    fn scalar_cond(&mut self, e: &Expr) -> Result<(), CompileError> {
        let t = self.type_expr(e)?;
        if !t.is_scalar() {
            return Err(self.err(e.span, format!("condition has non-scalar type {t}")));
        }
        Ok(())
    }

    /// Types an expression, recording the result in the side table.
    fn type_expr(&mut self, e: &Expr) -> Result<Type, CompileError> {
        let t = self.type_expr_inner(e)?;
        self.side.expr_types.insert(e.id, t.clone());
        Ok(t)
    }

    fn type_expr_inner(&mut self, e: &Expr) -> Result<Type, CompileError> {
        match &e.kind {
            ExprKind::IntLit(_) => Ok(Type::Int),
            ExprKind::FloatLit(_) => Ok(Type::Float),
            ExprKind::StrLit(s) => {
                let idx = self.intern_string(s);
                self.side.str_of.insert(e.id, idx);
                Ok(Type::Ptr(Box::new(Type::Char)))
            }
            ExprKind::Ident(name) => {
                let res = self
                    .lookup(name)
                    .ok_or_else(|| self.err(e.span, format!("unknown name `{name}`")))?;
                self.side.resolutions.insert(e.id, res);
                match res {
                    Resolution::Local(lid) => Ok(self.cur_locals[lid.0 as usize].ty.clone()),
                    Resolution::Global(gid) => Ok(self.globals[gid.0 as usize].ty.clone()),
                    Resolution::Func(fid) => {
                        // A function name used as a value: counts as a
                        // static address-of (§5.2.1). Direct-call callees
                        // are exempted by `type_call`, which bypasses
                        // this path for the callee node.
                        *self.side.address_taken.entry(fid).or_insert(0) += 1;
                        Ok(Type::FnPtr(Box::new(
                            self.functions[fid.0 as usize].sig.clone(),
                        )))
                    }
                    Resolution::Builtin(b) => Ok(Type::FnPtr(Box::new(FuncSig {
                        ret: b.return_type(),
                        params: Vec::new(),
                        varargs: true,
                    }))),
                    Resolution::EnumConst(v) => {
                        self.side.const_values.insert(e.id, ConstValue::Int(v));
                        Ok(Type::Int)
                    }
                }
            }
            ExprKind::Unary(op, inner) => self.type_unary(e, *op, inner),
            ExprKind::Binary(op, a, b) => self.type_binary(e, *op, a, b),
            ExprKind::LogAnd(a, b) | ExprKind::LogOr(a, b) => {
                let ta = self.type_expr(a)?;
                let tb = self.type_expr(b)?;
                if !ta.is_scalar() || !tb.is_scalar() {
                    return Err(self.err(e.span, "logical operator on non-scalar"));
                }
                Ok(Type::Int)
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let tl = self.type_expr(lhs)?;
                if !self.is_lvalue(lhs) {
                    return Err(self.err(lhs.span, "assignment to non-lvalue"));
                }
                let tr = self.type_expr(rhs)?;
                if let Some(op) = op {
                    // Compound assignment: p += n allowed for pointers.
                    if tl.is_pointer_like() {
                        if !matches!(op, BinOp::Add | BinOp::Sub) || !tr.is_integral() {
                            return Err(self.err(e.span, "invalid compound assignment on pointer"));
                        }
                    } else if !tl.is_arithmetic() || !tr.is_arithmetic() {
                        return Err(self.err(e.span, "compound assignment on non-arithmetic"));
                    }
                } else {
                    self.check_assignable(&tl, &tr, e.span)?;
                }
                Ok(tl)
            }
            ExprKind::Call(callee, args) => self.type_call(e, callee, args),
            ExprKind::Index(base, idx) => {
                let tb = self.type_expr(base)?;
                let ti = self.type_expr(idx)?;
                if !ti.is_integral() {
                    return Err(self.err(idx.span, "array index is not an integer"));
                }
                tb.pointee().cloned().ok_or_else(|| {
                    self.err(base.span, format!("indexing into non-pointer type {tb}"))
                })
            }
            ExprKind::Member(base, field, arrow) => {
                let tb = self.type_expr(base)?;
                let sid = if *arrow {
                    match tb.pointee() {
                        Some(Type::Struct(sid)) => *sid,
                        _ => {
                            return Err(self.err(e.span, format!("`->` on non-struct-pointer {tb}")))
                        }
                    }
                } else {
                    match tb {
                        Type::Struct(sid) => sid,
                        _ => return Err(self.err(e.span, format!("`.` on non-struct {tb}"))),
                    }
                };
                let layout = self.structs.layout(sid);
                layout.field(field).map(|f| f.ty.clone()).ok_or_else(|| {
                    self.err(
                        e.span,
                        format!("struct `{}` has no field `{field}`", layout.name),
                    )
                })
            }
            ExprKind::Cond(c, t, f) => {
                self.scalar_cond(c)?;
                self.register_branch(e.id, c, BranchKind::Ternary);
                let tt = self.type_expr(t)?;
                let tf = self.type_expr(f)?;
                Ok(unify(&tt, &tf))
            }
            ExprKind::Cast(tyname, inner) => {
                let target = self.resolve_type(tyname, e.span)?;
                self.type_expr(inner)?;
                Ok(target)
            }
            ExprKind::SizeofType(tyname) => {
                let t = self.resolve_type(tyname, e.span)?;
                let n = self.sizeof_value(&t, e.span)?;
                self.side.const_values.insert(e.id, ConstValue::Int(n));
                Ok(Type::Int)
            }
            ExprKind::SizeofExpr(inner) => {
                let t = self.type_expr(inner)?;
                let n = self.sizeof_value(&t, e.span)?;
                self.side.const_values.insert(e.id, ConstValue::Int(n));
                Ok(Type::Int)
            }
            ExprKind::Comma(a, b) => {
                self.type_expr(a)?;
                self.type_expr(b)
            }
        }
    }

    fn type_unary(&mut self, e: &Expr, op: UnOp, inner: &Expr) -> Result<Type, CompileError> {
        // `&f` for a function name is the function pointer itself.
        if op == UnOp::Addr {
            if let ExprKind::Ident(name) = &inner.kind {
                if let Some(Resolution::Func(_)) = self.lookup(name) {
                    return self.type_expr(inner); // counts the address-of
                }
            }
        }
        let ti = self.type_expr(inner)?;
        match op {
            UnOp::Neg => {
                if !ti.is_arithmetic() {
                    return Err(self.err(e.span, "negation of non-arithmetic"));
                }
                Ok(ti)
            }
            UnOp::Not => {
                if !ti.is_scalar() {
                    return Err(self.err(e.span, "`!` on non-scalar"));
                }
                Ok(Type::Int)
            }
            UnOp::BitNot => {
                if !ti.is_integral() {
                    return Err(self.err(e.span, "`~` on non-integer"));
                }
                Ok(Type::Int)
            }
            UnOp::Deref => {
                let t = ti.decayed();
                match t {
                    Type::Ptr(inner) if matches!(*inner, Type::Void) => Err(self.err(
                        e.span,
                        "cannot dereference a void pointer (cast it to an object pointer first)",
                    )),
                    Type::Ptr(inner) => Ok(*inner),
                    // `*f` on a function pointer is the function pointer.
                    Type::FnPtr(_) => Ok(t),
                    _ => Err(self.err(e.span, format!("dereference of non-pointer {ti}"))),
                }
            }
            UnOp::Addr => {
                if !self.is_lvalue(inner) {
                    return Err(self.err(e.span, "`&` of non-lvalue"));
                }
                Ok(Type::Ptr(Box::new(ti)))
            }
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                if !self.is_lvalue(inner) {
                    return Err(self.err(e.span, "increment of non-lvalue"));
                }
                if !ti.is_arithmetic() && !matches!(ti, Type::Ptr(_)) {
                    return Err(self.err(e.span, format!("increment of type {ti}")));
                }
                Ok(ti)
            }
        }
    }

    fn type_binary(
        &mut self,
        e: &Expr,
        op: BinOp,
        a: &Expr,
        b: &Expr,
    ) -> Result<Type, CompileError> {
        let ta = self.type_expr(a)?.decayed();
        let tb = self.type_expr(b)?.decayed();
        if op.is_comparison() {
            let ok = (ta.is_arithmetic() && tb.is_arithmetic())
                || (ta.is_pointer_like() && tb.is_pointer_like())
                || (ta.is_pointer_like() && tb.is_integral())
                || (ta.is_integral() && tb.is_pointer_like());
            if !ok {
                return Err(self.err(e.span, format!("cannot compare {ta} with {tb}")));
            }
            return Ok(Type::Int);
        }
        match op {
            BinOp::Add => match (&ta, &tb) {
                (Type::Ptr(_), t) if t.is_integral() => Ok(ta),
                (t, Type::Ptr(_)) if t.is_integral() => Ok(tb),
                _ if ta.is_arithmetic() && tb.is_arithmetic() => Ok(promote(&ta, &tb)),
                _ => Err(self.err(e.span, format!("cannot add {ta} and {tb}"))),
            },
            BinOp::Sub => match (&ta, &tb) {
                (Type::Ptr(_), t) if t.is_integral() => Ok(ta),
                (Type::Ptr(_), Type::Ptr(_)) => Ok(Type::Int),
                _ if ta.is_arithmetic() && tb.is_arithmetic() => Ok(promote(&ta, &tb)),
                _ => Err(self.err(e.span, format!("cannot subtract {tb} from {ta}"))),
            },
            BinOp::Mul | BinOp::Div => {
                if ta.is_arithmetic() && tb.is_arithmetic() {
                    Ok(promote(&ta, &tb))
                } else {
                    Err(self.err(e.span, format!("arithmetic on {ta} and {tb}")))
                }
            }
            BinOp::Rem | BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
                if ta.is_integral() && tb.is_integral() {
                    Ok(Type::Int)
                } else {
                    Err(self.err(e.span, format!("integer operation on {ta} and {tb}")))
                }
            }
            _ => unreachable!("comparisons handled above"),
        }
    }

    fn type_call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> Result<Type, CompileError> {
        // Determine callee kind. A bare identifier naming a function or
        // builtin is a direct call and does NOT count as address-taken.
        let mut kind = None;
        if let ExprKind::Ident(name) = &callee.kind {
            match self.lookup(name) {
                Some(Resolution::Func(fid)) => {
                    self.side
                        .resolutions
                        .insert(callee.id, Resolution::Func(fid));
                    let sig = self.functions[fid.0 as usize].sig.clone();
                    self.side
                        .expr_types
                        .insert(callee.id, Type::FnPtr(Box::new(sig)));
                    kind = Some(CalleeKind::Direct(fid));
                }
                Some(Resolution::Builtin(b)) => {
                    self.side
                        .resolutions
                        .insert(callee.id, Resolution::Builtin(b));
                    self.side.expr_types.insert(
                        callee.id,
                        Type::FnPtr(Box::new(FuncSig {
                            ret: b.return_type(),
                            params: Vec::new(),
                            varargs: true,
                        })),
                    );
                    kind = Some(CalleeKind::Builtin(b));
                }
                _ => {}
            }
        }
        let (kind, ret) = match kind {
            Some(CalleeKind::Direct(fid)) => {
                let sig = &self.functions[fid.0 as usize].sig;
                if args.len() != sig.params.len() {
                    return Err(self.err(
                        e.span,
                        format!(
                            "`{}` takes {} arguments, {} given",
                            self.functions[fid.0 as usize].name,
                            sig.params.len(),
                            args.len()
                        ),
                    ));
                }
                (CalleeKind::Direct(fid), sig.ret.clone())
            }
            Some(CalleeKind::Builtin(b)) => (CalleeKind::Builtin(b), b.return_type()),
            _ => {
                // Indirect: callee must be a function pointer.
                let tc = self.type_expr(callee)?;
                match tc {
                    Type::FnPtr(sig) => (CalleeKind::Indirect, sig.ret.clone()),
                    other => {
                        return Err(
                            self.err(callee.span, format!("call of non-function type {other}"))
                        )
                    }
                }
            }
            #[allow(unreachable_patterns)]
            Some(CalleeKind::Indirect) => unreachable!(),
        };
        for a in args {
            self.type_expr(a)?;
        }
        let id = CallSiteId(self.side.call_sites.len() as u32);
        self.side.call_sites.push(CallSite {
            id,
            caller: self.cur_func,
            callee: kind,
            expr: e.id,
            span: e.span,
        });
        self.side.call_site_of.insert(e.id, id);
        Ok(ret)
    }

    fn check_assignable(&self, tl: &Type, tr: &Type, span: Span) -> Result<(), CompileError> {
        let tr = tr.decayed();
        let ok = match (tl, &tr) {
            _ if tl.is_arithmetic() && tr.is_arithmetic() => true,
            (Type::Ptr(_), Type::Ptr(_)) => true, // permissive, as in K&R C
            (Type::Ptr(_), t) if t.is_integral() => true, // p = 0
            (t, Type::Ptr(_)) if t.is_integral() => true,
            (Type::FnPtr(_), Type::FnPtr(_)) => true,
            (Type::FnPtr(_), t) | (t, Type::FnPtr(_)) if t.is_integral() => true,
            (Type::Ptr(_), Type::FnPtr(_)) | (Type::FnPtr(_), Type::Ptr(_)) => true,
            (Type::Struct(a), Type::Struct(b)) => a == b,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(self.err(span, format!("cannot assign {tr} to {tl}")))
        }
    }

    fn is_lvalue(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Ident(_) => matches!(
                self.side.resolutions.get(&e.id),
                Some(Resolution::Local(_)) | Some(Resolution::Global(_))
            ),
            ExprKind::Unary(UnOp::Deref, _) => true,
            ExprKind::Index(_, _) => true,
            ExprKind::Member(_, _, _) => true,
            ExprKind::Cast(_, inner) => self.is_lvalue(inner),
            _ => false,
        }
    }
}

/// Usual arithmetic conversions: float wins, otherwise int.
fn promote(a: &Type, b: &Type) -> Type {
    if matches!(a, Type::Float) || matches!(b, Type::Float) {
        Type::Float
    } else {
        Type::Int
    }
}

/// Unifies the two arms of a `?:`.
fn unify(a: &Type, b: &Type) -> Type {
    if a == b {
        return a.clone();
    }
    if a.is_arithmetic() && b.is_arithmetic() {
        return promote(a, b);
    }
    // Pointer vs. 0, or two pointer types: take the pointer side.
    if a.is_pointer_like() {
        return a.decayed();
    }
    if b.is_pointer_like() {
        return b.decayed();
    }
    a.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn module(src: &str) -> Module {
        let unit = parse(src).unwrap();
        match analyze(unit) {
            Ok(m) => m,
            Err(e) => panic!("sema failed: {}", e.render(src)),
        }
    }

    fn sema_err(src: &str) -> CompileError {
        let unit = parse(src).unwrap();
        analyze(unit).expect_err("expected a semantic error")
    }

    #[test]
    fn analyzes_strchr() {
        let m = module(
            r#"
            char *strchr(char *str, int c) {
                while (*str) {
                    if (*str == c) return str;
                    str++;
                }
                return 0;
            }
            "#,
        );
        let f = m.function(m.function_id("strchr").unwrap());
        assert_eq!(f.param_count, 2);
        assert_eq!(m.side.branches.len(), 2);
        let kinds: Vec<_> = m.side.branches.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&BranchKind::While));
        assert!(kinds.contains(&BranchKind::If));
    }

    #[test]
    fn call_sites_are_registered() {
        let m = module(
            r#"
            int helper(int x) { return x + 1; }
            int main(void) {
                int v = helper(1) + helper(2);
                printf("%d\n", v);
                return 0;
            }
            "#,
        );
        assert_eq!(m.side.call_sites.len(), 3);
        let direct = m
            .side
            .call_sites
            .iter()
            .filter(|c| matches!(c.callee, CalleeKind::Direct(_)))
            .count();
        assert_eq!(direct, 2);
    }

    #[test]
    fn address_taken_counts_static_uses() {
        let m = module(
            r#"
            int f(int x) { return x; }
            int g(int x) { return x + 1; }
            int (*table[2])(int);
            int main(void) {
                int (*p)(int) = f;
                table[0] = &f;
                table[1] = g;
                p = f;
                return p(0) + f(1);
            }
            "#,
        );
        let f = m.function_id("f").unwrap();
        let g = m.function_id("g").unwrap();
        // f: initializer, &f, p = f  → 3 static uses (the direct call f(1) is not one).
        assert_eq!(m.side.address_taken.get(&f), Some(&3));
        assert_eq!(m.side.address_taken.get(&g), Some(&1));
        // Two calls: p(0) indirect, f(1) direct.
        let indirect = m
            .side
            .call_sites
            .iter()
            .filter(|c| c.callee == CalleeKind::Indirect)
            .count();
        assert_eq!(indirect, 1);
    }

    #[test]
    fn constant_branch_is_flagged() {
        let m = module("int f(void) { if (1) return 1; while (0) {} return 0; }");
        assert_eq!(m.side.branches.len(), 2);
        assert_eq!(m.side.branches[0].const_cond, Some(true));
        assert_eq!(m.side.branches[1].const_cond, Some(false));
    }

    #[test]
    fn switch_sections_and_labels() {
        let m = module(
            r#"
            int f(int n) {
                switch (n) {
                    case 1: return 10;
                    case 2:
                    case 3: return 20;
                    default: return 0;
                }
            }
            "#,
        );
        assert_eq!(m.side.switches.len(), 1);
        let sw = &m.side.switches[0];
        assert_eq!(sw.section_labels, vec![1, 2, 1]);
        assert!(sw.has_default);
    }

    #[test]
    fn struct_layout_and_member_access() {
        let m = module(
            r#"
            struct pair { int a; float b; };
            struct node { struct pair p; struct node *next; };
            int f(struct node *n) { return n->p.a; }
            "#,
        );
        let sid = m.structs.by_name("node").unwrap();
        assert_eq!(m.structs.layout(sid).size, 3);
        assert_eq!(m.structs.layout(sid).field("next").unwrap().offset, 2);
    }

    #[test]
    fn global_initializers_flatten() {
        let m = module(
            r#"
            int nums[4] = {1, 2, 3};
            char msg[] = "hi";
            char *p = "yo";
            struct s { int x; int y; };
            struct s pt = { 7 };
            "#,
        );
        assert_eq!(
            m.globals[0].init,
            vec![
                InitWord::Int(1),
                InitWord::Int(2),
                InitWord::Int(3),
                InitWord::Int(0)
            ]
        );
        // "hi" + NUL
        assert_eq!(m.globals[1].size, 3);
        assert_eq!(m.globals[1].init[0], InitWord::Int(104));
        assert!(matches!(m.globals[2].init[0], InitWord::StrPtr(_)));
        assert_eq!(m.globals[3].init, vec![InitWord::Int(7), InitWord::Int(0)]);
    }

    #[test]
    fn function_pointer_global_table() {
        let m = module(
            r#"
            int one(void) { return 1; }
            int two(void) { return 2; }
            int (*ops[2])(void) = { one, two };
            "#,
        );
        assert_eq!(
            m.globals[0].init,
            vec![InitWord::Fn(FuncId(0)), InitWord::Fn(FuncId(1))]
        );
    }

    #[test]
    fn frame_layout_allocates_arrays() {
        let m = module("int f(int a) { int buf[10]; int x; return a + x + buf[0]; }");
        let f = m.function(m.function_id("f").unwrap());
        assert_eq!(f.frame_size, 12);
        assert_eq!(f.locals[1].offset, 1);
        assert_eq!(f.locals[1].size, 10);
        assert_eq!(f.locals[2].offset, 11);
    }

    #[test]
    fn errors_are_caught() {
        assert!(sema_err("int f(void) { return x; }")
            .message()
            .contains("unknown name"));
        assert!(sema_err("int f(void) { break; }")
            .message()
            .contains("break"));
        assert!(sema_err("int f(void) { goto nowhere; }")
            .message()
            .contains("undefined label"));
        assert!(sema_err("int f(int x) { return f(x, 1); }")
            .message()
            .contains("arguments"));
        assert!(
            sema_err("struct s { int x; }; int f(struct s v) { return v.y; }")
                .message()
                .contains("no field")
        );
        assert!(sema_err("int f(void) { int x; return *x; }")
            .message()
            .contains("dereference"));
        assert!(sema_err("int f(void) { 3 = 4; return 0; }")
            .message()
            .contains("lvalue"));
        assert!(sema_err("int x; int x;").message().contains("redefined"));
        assert!(sema_err("struct s { struct s inner; };")
            .message()
            .contains("contains itself"));
        assert!(
            sema_err("int f(int n) { switch (n) { case 1: case 1: return 0; } return 1; }")
                .message()
                .contains("duplicate case")
        );
    }

    #[test]
    fn sizeof_is_folded() {
        let m = module(
            r#"
            struct big { int a[10]; int b; };
            int f(void) { return sizeof(struct big) + sizeof(int); }
            "#,
        );
        let vals: Vec<i64> = m
            .side
            .const_values
            .values()
            .filter_map(|v| v.as_int())
            .collect();
        assert!(vals.contains(&11));
        assert!(vals.contains(&1));
    }

    #[test]
    fn goto_forward_reference_resolves() {
        module("int f(int n) { if (n) goto done; n = 1; done: return n; }");
    }

    #[test]
    fn ternary_registers_branch() {
        let m = module("int f(int a) { return a ? 1 : 2; }");
        assert_eq!(m.side.branches.len(), 1);
        assert_eq!(m.side.branches[0].kind, BranchKind::Ternary);
    }

    #[test]
    fn params_decay_to_pointers() {
        let m = module("int sum(int a[], int n) { int s = 0; while (n--) s += a[n]; return s; }");
        let f = m.function(m.function_id("sum").unwrap());
        assert_eq!(f.locals[0].ty, Type::Ptr(Box::new(Type::Int)));
    }

    // The void-size family used to escape sema as a process abort
    // ("void has no size" deep in Type::size_words). Each shape must
    // instead produce a rendered diagnostic with a source line.

    #[test]
    fn sizeof_void_is_a_diagnostic() {
        let src = "int main(void) {\n  return sizeof(void);\n}";
        let e = sema_err(src);
        let msg = e.render(src);
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("has no size"), "{msg}");
    }

    #[test]
    fn sizeof_deref_of_void_ptr_is_a_diagnostic() {
        let src = "int main(void) {\n  void *p;\n  return sizeof(*p);\n}";
        let msg = sema_err(src).render(src);
        assert!(msg.contains("void pointer"), "{msg}");
    }

    #[test]
    fn array_of_void_is_a_diagnostic() {
        let msg_local = sema_err("int main(void) { void a[3]; return 0; }");
        assert!(
            msg_local.message().contains("array of void"),
            "{}",
            msg_local.message()
        );
        let msg_global = sema_err("void g[4]; int main(void) { return 0; }");
        assert!(
            msg_global.message().contains("array of void"),
            "{}",
            msg_global.message()
        );
    }

    #[test]
    fn sizeof_array_of_void_in_dimension_is_a_diagnostic() {
        // The const-folding path (SizeEnv) must also refuse to size
        // void rather than abort: here sizeof(void) feeds an array
        // dimension, so folding fails and the dimension is rejected.
        let e = sema_err("int main(void) { int a[sizeof(void)]; return 0; }");
        assert!(
            e.message().contains("dimension") || e.message().contains("has no size"),
            "{}",
            e.message()
        );
    }

    #[test]
    fn void_pointer_arithmetic_still_allowed() {
        // The diagnostics must not over-reach: comparing/advancing a
        // void* (no deref, no sizeof) stays legal MiniC.
        module("int f(void *q) { return q + 1 != q; } int main(void) { return f(0); }");
    }
}
