//! The MiniC abstract syntax tree.
//!
//! Every expression and statement carries a [`NodeId`] assigned during
//! parsing. Semantic analysis attaches information (types, resolutions,
//! call-site and branch ids) to nodes via side tables keyed by `NodeId`,
//! so the tree itself stays immutable.
//!
//! Statement-level expression slots — expression statements, loop and
//! `if` conditions, the `for` step, the `switch` scrutinee, the
//! `return` value and initializer expressions — hold an [`Arc<Expr>`]:
//! the CFG shares these trees with the AST instead of copying them.
//! `Arc`'s `Debug`, `PartialEq` and `Hash` delegate to the expression,
//! so dumps and comparisons read exactly as if the slot held the
//! expression itself.
//!
//! Every name — identifiers, string literals, fields, labels,
//! declaration names, struct tags — is a [`Symbol`] of the unit's
//! [`Unit::names`] interner.

use crate::symbol::{Interner, Symbol};
use crate::token::Span;
use std::fmt;
use std::sync::Arc;

/// A unique id for an AST node within one translation unit.
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The id stride reserved per top-level declaration: the parser aligns
/// the generator to the next multiple before each item, so every
/// declaration owns a private id namespace. A declaration whose text is
/// unchanged between two parses of an edited translation unit therefore
/// keeps the *same* node ids as long as its ordinal position is stable —
/// the property the incremental serve database relies on to reuse
/// per-function artifacts keyed by `NodeId` across edits.
pub const DECL_ID_STRIDE: u32 = 1 << 20;

/// `id >> DECL_SHIFT` is the id namespace a node belongs to.
pub const DECL_SHIFT: u32 = DECL_ID_STRIDE.trailing_zeros();

/// `id & DECL_MASK` is a node's offset within its namespace.
pub const DECL_MASK: u32 = DECL_ID_STRIDE - 1;

/// Hands out fresh [`NodeId`]s and records how many ids each
/// [`DECL_ID_STRIDE`] namespace used (see [`Unit::decl_spans`]).
#[derive(Debug, Default)]
pub struct NodeIdGen {
    next: u32,
    /// First id of the open declaration.
    start: u32,
    /// Ids used per namespace by the declarations closed so far.
    spans: Vec<u32>,
}

impl NodeIdGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        NodeIdGen::default()
    }

    /// Returns a fresh id.
    pub fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }

    /// Starts a new declaration: closes the open one's span and rounds
    /// the next id up to a multiple of [`DECL_ID_STRIDE`], returning it.
    /// Ids stay unique (never reused) even when the multiple would
    /// overflow `u32` — alignment is then skipped and allocation simply
    /// continues sequentially, trading id stability for correctness on
    /// pathological (> 4k-declaration) units.
    pub fn align(&mut self) -> NodeId {
        self.close();
        if !self.next.is_multiple_of(DECL_ID_STRIDE) {
            if let Some(aligned) = self.next.checked_add(DECL_MASK).map(|n| n & !DECL_MASK) {
                self.next = aligned;
            }
        }
        self.start = self.next;
        NodeId(self.next)
    }

    /// Records the ids `start..next` in the spans of the namespaces
    /// they fall in. Every namespace's ids form a prefix of it — a
    /// namespace is entered only at its first id, by [`align`] or by
    /// sequential allocation running over from the one before — so a
    /// span is one past the largest offset used.
    ///
    /// [`align`]: NodeIdGen::align
    fn close(&mut self) {
        let (mut lo, hi) = (self.start, self.next);
        while lo < hi {
            let d = (lo >> DECL_SHIFT) as usize;
            let used = (hi - 1).min(lo | DECL_MASK) - (lo & !DECL_MASK) + 1;
            if self.spans.len() <= d {
                self.spans.resize(d + 1, 0);
            }
            self.spans[d] = used;
            lo = (lo | DECL_MASK).saturating_add(1).min(hi);
        }
        self.start = self.next;
    }

    /// Number of ids handed out so far (== one past the largest).
    pub fn count(&self) -> usize {
        self.next as usize
    }

    /// Closes the open declaration and returns the ids used per
    /// namespace, indexed by `id >> DECL_SHIFT`.
    pub fn into_spans(mut self) -> Vec<u32> {
        self.close();
        self.spans
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*p`
    Deref,
    /// `&x`
    Addr,
    /// `++x`
    PreInc,
    /// `--x`
    PreDec,
    /// `x++`
    PostInc,
    /// `x--`
    PostDec,
}

/// Binary operators (excluding assignment and short-circuit forms, which
/// have their own expression kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl BinOp {
    /// Returns `true` for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Base (non-derived) syntactic types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BaseType {
    /// `void`
    Void,
    /// `int`, `long`, `unsigned` — all map to a 64-bit integer.
    Int,
    /// `char`
    Char,
    /// `float` / `double` — both map to `f64`.
    Float,
    /// `struct Name`
    Struct(Symbol),
}

/// A syntactic type, prior to resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeName {
    /// A base type.
    Base(BaseType),
    /// Pointer to a type.
    Ptr(Box<TypeName>),
    /// Array of a type; the length expression is folded during sema.
    /// `None` means unsized (`[]`), legal for parameters and
    /// initializer-sized globals.
    Array(Box<TypeName>, Option<Box<Expr>>),
    /// Pointer to function: return type and parameter types.
    FnPtr(Box<TypeName>, Vec<TypeName>),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Unique node id (side-table key).
    pub id: NodeId,
    /// Source location.
    pub span: Span,
    /// The expression itself.
    pub kind: ExprKind,
}

/// The expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer (or char) literal.
    IntLit(i64),
    /// Floating literal.
    FloatLit(f64),
    /// String literal.
    StrLit(Symbol),
    /// A name: variable, function, or builtin.
    Ident(Symbol),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Short-circuit `&&`.
    LogAnd(Box<Expr>, Box<Expr>),
    /// Short-circuit `||`.
    LogOr(Box<Expr>, Box<Expr>),
    /// Assignment; `op` is `Some` for compound forms like `+=`.
    Assign(Option<BinOp>, Box<Expr>, Box<Expr>),
    /// Function call (callee may be a name or an arbitrary expression).
    Call(Box<Expr>, Vec<Expr>),
    /// Array indexing `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Member access `s.f` (arrow = `false`) or `p->f` (arrow = `true`).
    Member(Box<Expr>, Symbol, bool),
    /// Conditional `c ? t : e`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Cast `(T)e`.
    Cast(TypeName, Box<Expr>),
    /// `sizeof(T)`.
    SizeofType(TypeName),
    /// `sizeof expr`.
    SizeofExpr(Box<Expr>),
    /// Comma expression `a, b`.
    Comma(Box<Expr>, Box<Expr>),
}

/// A single declared local or global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Node id of the declaration itself.
    pub id: NodeId,
    /// Source location.
    pub span: Span,
    /// Variable name.
    pub name: Symbol,
    /// Declared type.
    pub ty: TypeName,
    /// Optional initializer.
    pub init: Option<Initializer>,
}

/// An initializer: a scalar expression or a brace-enclosed list.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// `= expr`
    Expr(Arc<Expr>),
    /// `= { a, b, ... }` (possibly nested)
    List(Vec<Initializer>),
}

/// One `case`/`default` section of a `switch` body. Execution falls
/// through from one section to the next unless a `break` intervenes.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSection {
    /// The `case` label expressions (folded to constants in sema);
    /// empty labels plus `is_default` covers `default:`.
    pub labels: Vec<Expr>,
    /// Whether this section carries the `default:` label.
    pub is_default: bool,
    /// The statements in the section.
    pub body: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Unique node id (side-table key).
    pub id: NodeId,
    /// Source location.
    pub span: Span,
    /// The statement itself.
    pub kind: StmtKind,
}

/// The statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Expression statement.
    Expr(Arc<Expr>),
    /// Local declarations, e.g. `int x = 1, *p;`.
    Decl(Vec<VarDecl>),
    /// `if (cond) then [else els]`
    If(Arc<Expr>, Box<Stmt>, Option<Box<Stmt>>),
    /// `while (cond) body`
    While(Arc<Expr>, Box<Stmt>),
    /// `do body while (cond);`
    DoWhile(Box<Stmt>, Arc<Expr>),
    /// `for (init; cond; step) body` — init may be a declaration.
    For(
        Option<Box<Stmt>>,
        Option<Arc<Expr>>,
        Option<Arc<Expr>>,
        Box<Stmt>,
    ),
    /// `switch (scrutinee) { sections }`
    Switch(Arc<Expr>, Vec<SwitchSection>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return [expr];`
    Return(Option<Arc<Expr>>),
    /// `goto label;`
    Goto(Symbol),
    /// `label: stmt`
    Label(Symbol, Box<Stmt>),
    /// `{ stmts }`
    Block(Vec<Stmt>),
    /// `;`
    Empty,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Node id.
    pub id: NodeId,
    /// Parameter name ([`Symbol::EMPTY`] when unnamed).
    pub name: Symbol,
    /// Declared type.
    pub ty: TypeName,
    /// Source location.
    pub span: Span,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDecl {
    /// Node id.
    pub id: NodeId,
    /// Struct tag.
    pub name: Symbol,
    /// Fields in declaration order.
    pub fields: Vec<(Symbol, TypeName)>,
    /// Source location.
    pub span: Span,
}

/// An `enum` definition: named integer constants.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDecl {
    /// Node id.
    pub id: NodeId,
    /// Enum tag ([`Symbol::EMPTY`] for anonymous enums).
    pub name: Symbol,
    /// Variants in declaration order, with optional explicit values.
    pub variants: Vec<(Symbol, Option<Expr>)>,
    /// Source location.
    pub span: Span,
}

/// A function definition or prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Node id.
    pub id: NodeId,
    /// Function name.
    pub name: Symbol,
    /// Return type.
    pub ret: TypeName,
    /// Parameters.
    pub params: Vec<Param>,
    /// `None` for a prototype; `Some(block)` for a definition.
    pub body: Option<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A struct definition.
    Struct(StructDecl),
    /// An enum definition.
    Enum(EnumDecl),
    /// One or more global variable declarations.
    Globals(Vec<VarDecl>),
    /// A function definition or prototype.
    Function(FunctionDecl),
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Unit {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// One past the largest node id allocated. Ids are namespaced per
    /// declaration (see [`DECL_ID_STRIDE`]), so this is the raw, sparse
    /// id range — a 16-function unit reaches `16 << 20` — and nothing
    /// should be sized from it; side tables size from
    /// [`decl_spans`](Unit::decl_spans).
    pub node_count: usize,
    /// Ids used per namespace, indexed by `id >> DECL_SHIFT`: namespace
    /// `d` holds exactly the ids from `d << DECL_SHIFT` up to, not
    /// including, `(d << DECL_SHIFT) + decl_spans[d]`. Side tables are
    /// sized from these counts.
    pub decl_spans: Vec<u32>,
    /// The spelling of every [`Symbol`] in the unit.
    pub names: Interner,
}

impl Expr {
    /// Visits this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(&mut |c| c.walk(f));
    }

    /// Calls `f` on each direct sub-expression, left to right. This is
    /// the one place that knows which [`ExprKind`] variants have
    /// children.
    pub fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match &self.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Ident(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Unary(_, a)
            | ExprKind::Cast(_, a)
            | ExprKind::SizeofExpr(a)
            | ExprKind::Member(a, _, _) => f(a),
            ExprKind::Binary(_, a, b)
            | ExprKind::LogAnd(a, b)
            | ExprKind::LogOr(a, b)
            | ExprKind::Assign(_, a, b)
            | ExprKind::Index(a, b)
            | ExprKind::Comma(a, b) => {
                f(a);
                f(b);
            }
            ExprKind::Call(callee, args) => {
                f(callee);
                for a in args {
                    f(a);
                }
            }
            ExprKind::Cond(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
        }
    }
}

impl Stmt {
    /// Visits this statement and all nested statements, pre-order.
    /// Expressions are not visited; see [`Stmt::walk_exprs`].
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::If(_, t, e) => {
                t.walk(f);
                if let Some(e) = e {
                    e.walk(f);
                }
            }
            StmtKind::While(_, b) | StmtKind::DoWhile(b, _) | StmtKind::Label(_, b) => b.walk(f),
            StmtKind::For(init, _, _, b) => {
                if let Some(i) = init {
                    i.walk(f);
                }
                b.walk(f);
            }
            StmtKind::Switch(_, sections) => {
                for s in sections {
                    for st in &s.body {
                        st.walk(f);
                    }
                }
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    s.walk(f);
                }
            }
            StmtKind::Expr(_)
            | StmtKind::Decl(_)
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Return(_)
            | StmtKind::Goto(_)
            | StmtKind::Empty => {}
        }
    }

    /// Visits every expression contained in this statement subtree
    /// (conditions, initializers, and expression statements), pre-order.
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        self.walk(&mut |s| match &s.kind {
            StmtKind::Expr(e) => e.walk(f),
            StmtKind::Decl(ds) => {
                for d in ds {
                    if let Some(init) = &d.init {
                        walk_init(init, f);
                    }
                }
            }
            StmtKind::If(c, _, _) | StmtKind::While(c, _) | StmtKind::DoWhile(_, c) => c.walk(f),
            StmtKind::For(_, cond, step, _) => {
                // init statement is visited by `walk` itself.
                if let Some(c) = cond {
                    c.walk(f);
                }
                if let Some(s) = step {
                    s.walk(f);
                }
            }
            StmtKind::Switch(scrut, sections) => {
                scrut.walk(f);
                for sec in sections {
                    for l in &sec.labels {
                        l.walk(f);
                    }
                }
            }
            StmtKind::Return(Some(e)) => e.walk(f),
            _ => {}
        });
    }
}

fn walk_init<'a>(init: &'a Initializer, f: &mut dyn FnMut(&'a Expr)) {
    match init {
        Initializer::Expr(e) => e.walk(f),
        Initializer::List(items) => {
            for i in items {
                walk_init(i, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(idgen: &mut NodeIdGen, v: i64) -> Expr {
        Expr {
            id: idgen.fresh(),
            span: Span::default(),
            kind: ExprKind::IntLit(v),
        }
    }

    #[test]
    fn walk_visits_all_subexpressions() {
        let mut g = NodeIdGen::new();
        let e = Expr {
            id: g.fresh(),
            span: Span::default(),
            kind: ExprKind::Binary(
                BinOp::Add,
                Box::new(lit(&mut g, 1)),
                Box::new(lit(&mut g, 2)),
            ),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn node_id_gen_is_sequential() {
        let mut g = NodeIdGen::new();
        assert_eq!(g.fresh(), NodeId(0));
        assert_eq!(g.fresh(), NodeId(1));
        assert_eq!(g.count(), 2);
    }

    #[test]
    fn spans_count_each_namespaces_ids() {
        let mut g = NodeIdGen::new();
        assert_eq!(g.align(), NodeId(0));
        g.fresh();
        g.fresh();
        g.fresh();
        // A declaration with no nodes leaves the next one its namespace.
        assert_eq!(g.align(), NodeId(DECL_ID_STRIDE));
        assert_eq!(g.align(), NodeId(DECL_ID_STRIDE));
        g.fresh();
        assert_eq!(g.into_spans(), vec![3, 1]);
    }

    #[test]
    fn a_declaration_larger_than_its_stride_spills_into_the_next_namespace() {
        let mut g = NodeIdGen::new();
        g.align();
        for _ in 0..DECL_ID_STRIDE + 5 {
            g.fresh();
        }
        assert_eq!(g.align(), NodeId(2 * DECL_ID_STRIDE));
        g.fresh();
        g.fresh();
        assert_eq!(g.into_spans(), vec![DECL_ID_STRIDE, 5, 2]);
    }

    #[test]
    fn past_the_last_namespace_ids_run_on_sequentially() {
        let namespaces = (u32::MAX >> DECL_SHIFT) as usize + 1;
        let mut g = NodeIdGen::new();
        for _ in 0..namespaces + 2 {
            g.align();
            g.fresh();
        }
        let spans = g.into_spans();
        assert_eq!(spans.len(), namespaces);
        assert!(spans[..namespaces - 1].iter().all(|&s| s == 1));
        assert_eq!(spans[namespaces - 1], 3);
    }

    #[test]
    fn binop_comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
