//! Recursive-descent parser for MiniC.
//!
//! The grammar is a C subset chosen to cover the idioms the PLDI 1994
//! branch heuristics exploit: pointer tests, error calls, loops of every
//! flavour, `switch` with fallthrough, `goto`, function pointers, and
//! recursion. There are no typedefs, so the classic cast/expression
//! ambiguity is resolved by one token of lookahead for type keywords.

use crate::ast::*;
use crate::error::{CompileError, ErrorKind};
use crate::lexer::lex;
use crate::symbol::{Interner, Symbol};
use crate::token::{Describe, Keyword, Punct, Span, Token, TokenKind};
use std::sync::Arc;

/// Parses a translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// let unit = minic::parser::parse("int add(int a, int b) { return a + b; }").unwrap();
/// assert_eq!(unit.items.len(), 1);
/// ```
pub fn parse(src: &str) -> Result<Unit, CompileError> {
    let mut names = Interner::new();
    let tokens = lex(src, &mut names)?;
    let mut p = Parser {
        tokens,
        names,
        pos: 0,
        ids: NodeIdGen::new(),
        depth: 0,
        height: 0,
    };
    let mut items = Vec::new();
    while !p.at_eof() {
        // Give each top-level declaration its own id namespace (see
        // [`DECL_ID_STRIDE`]): an unchanged declaration at an unchanged
        // ordinal re-parses to identical node ids, which is what lets
        // the incremental database reuse its side-table-keyed artifacts.
        p.ids.align();
        items.push(p.item()?);
    }
    Ok(Unit {
        items,
        node_count: p.ids.count(),
        decl_spans: p.ids.into_spans(),
        names: p.names,
    })
}

/// The deepest nesting the parser accepts, counted in levels of its
/// one depth counter: statements, initializer braces, declarators,
/// assignment-level and unary expressions, `?:` else-arms, and each
/// `*`, `[]` or function-pointer layer of a declared type open one
/// level; an expression tree may not reach below this depth either.
///
/// Every later pass over a declaration — sema, constant folding,
/// lowering, the pretty-printer, the AST walker and the estimators' AST
/// walks — recurses along the tree, so this bound is what keeps them
/// off the end of the stack. In an unoptimized build on a 2 MiB thread
/// stack (the smallest any pipeline worker gets) every shape measured
/// (nested blocks, `if`s, parentheses, calls, unary operators, long
/// sums) survives at least 1.8× this depth; real programs stay below a
/// few dozen levels.
pub const MAX_NESTING: u32 = 128;

struct Parser {
    tokens: Vec<Token>,
    /// The unit's names; the parser interns only the text of
    /// concatenated string literals.
    names: Interner,
    pos: usize,
    ids: NodeIdGen,
    /// Nesting depth of the construct being parsed (see
    /// [`MAX_NESTING`]).
    depth: u32,
    /// Height of the expression tree most recently returned by an
    /// expression function (a leaf is 1).
    height: u32,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    /// Consumes the current token (never moving past `Eof`) and
    /// returns its span.
    fn bump(&mut self) -> Span {
        let span = self.tokens[self.pos].span;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        span
    }

    /// The current token as diagnostics name it.
    fn found(&self) -> Describe<'_> {
        self.peek().describe(&self.names)
    }

    /// Consumes the current token if it is an identifier.
    fn take_ident(&mut self) -> Option<Symbol> {
        match *self.peek() {
            TokenKind::Ident(s) => {
                self.bump();
                Some(s)
            }
            _ => None,
        }
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        if self.peek() == &TokenKind::Kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Span, CompileError> {
        if self.peek() == &TokenKind::Punct(p) {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected `{}`, found {}", p.as_str(), self.found())))
        }
    }

    fn expect_ident(&mut self) -> Result<(Symbol, Span), CompileError> {
        let sp = self.span();
        match self.take_ident() {
            Some(s) => Ok((s, sp)),
            None => Err(self.err(format!("expected identifier, found {}", self.found()))),
        }
    }

    fn err(&self, msg: String) -> CompileError {
        CompileError::new(ErrorKind::Parse, msg, self.span())
    }

    fn fresh(&mut self) -> NodeId {
        self.ids.fresh()
    }

    fn too_deep(&self) -> CompileError {
        self.err(format!("nesting too deep (more than {MAX_NESTING} levels)"))
    }

    /// Opens one more nesting level for the rest of the enclosing
    /// [`Parser::nest`] call.
    fn charge(&mut self) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    /// Runs `f` one nesting level deeper, releasing that level and any
    /// [`Parser::charge`]d inside `f` when it returns.
    fn nest<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        let saved = self.depth;
        self.charge()?;
        let out = f(self);
        self.depth = saved;
        out
    }

    /// Builds an expression node whose tallest child has height
    /// `below`, rejecting it if the tree would reach past
    /// [`MAX_NESTING`] from where it is being parsed.
    fn expr_node(&mut self, span: Span, kind: ExprKind, below: u32) -> Result<Expr, CompileError> {
        self.height = below + 1;
        if self.depth + self.height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(Expr {
            id: self.fresh(),
            span,
            kind,
        })
    }

    // ----- types and declarators -----

    /// Is the current token the start of a type?
    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Kw(
                Keyword::Int
                    | Keyword::Char
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Long
                    | Keyword::Unsigned
                    | Keyword::Void
                    | Keyword::Struct
                    | Keyword::Const
                    | Keyword::Static
                    | Keyword::Extern
                    | Keyword::Enum
            )
        )
    }

    /// Parses storage-class/qualifier keywords and a base type.
    fn base_type(&mut self) -> Result<BaseType, CompileError> {
        // Skip storage classes and qualifiers.
        while self.eat_kw(Keyword::Static)
            || self.eat_kw(Keyword::Extern)
            || self.eat_kw(Keyword::Const)
        {}
        let base = match self.peek() {
            TokenKind::Kw(Keyword::Void) => {
                self.bump();
                BaseType::Void
            }
            TokenKind::Kw(Keyword::Int) => {
                self.bump();
                BaseType::Int
            }
            TokenKind::Kw(Keyword::Char) => {
                self.bump();
                BaseType::Char
            }
            TokenKind::Kw(Keyword::Float) | TokenKind::Kw(Keyword::Double) => {
                self.bump();
                BaseType::Float
            }
            TokenKind::Kw(Keyword::Long) => {
                self.bump();
                // `long`, `long int`, `long long` — all Int.
                self.eat_kw(Keyword::Long);
                self.eat_kw(Keyword::Int);
                BaseType::Int
            }
            TokenKind::Kw(Keyword::Unsigned) => {
                self.bump();
                self.eat_kw(Keyword::Long);
                self.eat_kw(Keyword::Char);
                self.eat_kw(Keyword::Int);
                BaseType::Int
            }
            TokenKind::Kw(Keyword::Struct) => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                BaseType::Struct(name)
            }
            TokenKind::Kw(Keyword::Enum) => {
                // `enum Name` in type position: enums are ints.
                self.bump();
                self.expect_ident()?;
                BaseType::Int
            }
            _ => return Err(self.err(format!("expected a type, found {}", self.found()))),
        };
        // `const` can trail the base type too.
        while self.eat_kw(Keyword::Const) {}
        Ok(base)
    }

    /// Parses `*`s and optional `const`s following a base type; also
    /// returns how many pointer levels it added.
    fn pointer_suffix(&mut self, mut ty: TypeName) -> Result<(TypeName, u32), CompileError> {
        let mut levels = 0;
        while self.eat_punct(Punct::Star) {
            while self.eat_kw(Keyword::Const) {}
            self.charge()?;
            levels += 1;
            ty = TypeName::Ptr(Box::new(ty));
        }
        Ok((ty, levels))
    }

    /// Parses a declarator after the base type: pointers, a name (or a
    /// parenthesized function-pointer form), and array suffixes.
    /// Returns `(name, type, span)`. `allow_anon` permits a missing name
    /// (for prototypes' parameters).
    fn declarator(
        &mut self,
        base: &BaseType,
        allow_anon: bool,
    ) -> Result<(Symbol, TypeName, Span), CompileError> {
        self.nest(|p| p.declarator_inner(base, allow_anon))
    }

    fn declarator_inner(
        &mut self,
        base: &BaseType,
        allow_anon: bool,
    ) -> Result<(Symbol, TypeName, Span), CompileError> {
        let start = self.span();
        let (ty, _) = self.pointer_suffix(TypeName::Base(base.clone()))?;

        // Function-pointer declarator: `( * name [dims] ) ( params )`.
        if self.peek() == &TokenKind::Punct(Punct::LParen)
            && self.peek2() == &TokenKind::Punct(Punct::Star)
        {
            self.bump(); // (
            self.bump(); // *
            let (name, _) = self.expect_ident()?;
            self.charge()?;
            let mut inner_dims = Vec::new();
            while self.eat_punct(Punct::LBracket) {
                self.charge()?;
                let dim = if self.peek() == &TokenKind::Punct(Punct::RBracket) {
                    None
                } else {
                    Some(Box::new(self.assign_expr()?))
                };
                self.expect_punct(Punct::RBracket)?;
                inner_dims.push(dim);
            }
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::LParen)?;
            let (params, _varargs) = self.param_types()?;
            self.expect_punct(Punct::RParen)?;
            let mut full = TypeName::FnPtr(Box::new(ty), params);
            for dim in inner_dims.into_iter().rev() {
                full = TypeName::Array(Box::new(full), dim);
            }
            return Ok((name, full, start.to(self.prev_span())));
        }

        let name = match self.take_ident() {
            Some(s) => s,
            None if allow_anon => Symbol::EMPTY,
            None => return Err(self.err(format!("expected a name, found {}", self.found()))),
        };

        // Array suffixes.
        let mut dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            self.charge()?;
            let dim = if self.peek() == &TokenKind::Punct(Punct::RBracket) {
                None
            } else {
                Some(Box::new(self.assign_expr()?))
            };
            self.expect_punct(Punct::RBracket)?;
            dims.push(dim);
        }
        let mut full = ty;
        for dim in dims.into_iter().rev() {
            full = TypeName::Array(Box::new(full), dim);
        }
        Ok((name, full, start.to(self.prev_span())))
    }

    /// Parses the parameter-type list of a function-pointer declarator or
    /// prototype. Returns (types, varargs).
    fn param_types(&mut self) -> Result<(Vec<TypeName>, bool), CompileError> {
        let mut out = Vec::new();
        if self.peek() == &TokenKind::Punct(Punct::RParen) {
            return Ok((out, false));
        }
        loop {
            if self.at_varargs() {
                self.bump_varargs();
                return Ok((out, true));
            }
            let base = self.base_type()?;
            let (_name, ty, _) = self.declarator(&base, true)?;
            // `void` alone means no parameters.
            if ty == TypeName::Base(BaseType::Void) && out.is_empty() {
                return Ok((out, false));
            }
            out.push(ty);
            if !self.eat_punct(Punct::Comma) {
                return Ok((out, false));
            }
        }
    }

    fn at_varargs(&self) -> bool {
        // `...` lexes as three dots.
        self.peek() == &TokenKind::Punct(Punct::Dot)
    }

    fn bump_varargs(&mut self) {
        while self.eat_punct(Punct::Dot) {}
    }

    /// Parses a cast/sizeof type name: base type + pointers only; also
    /// returns the type's height.
    fn type_name(&mut self) -> Result<(TypeName, u32), CompileError> {
        let base = self.base_type()?;
        let (ty, levels) = self.pointer_suffix(TypeName::Base(base))?;
        Ok((ty, levels + 1))
    }

    // ----- items -----

    fn item(&mut self) -> Result<Item, CompileError> {
        // enum definition? `enum [Name] { ... };`
        if self.peek() == &TokenKind::Kw(Keyword::Enum) {
            let next_is_brace = self.peek2() == &TokenKind::Punct(Punct::LBrace);
            let named_def = matches!(self.peek2(), TokenKind::Ident(_)) && {
                let i = (self.pos + 2).min(self.tokens.len() - 1);
                self.tokens[i].kind == TokenKind::Punct(Punct::LBrace)
            };
            if next_is_brace || named_def {
                return self.enum_def().map(Item::Enum);
            }
        }
        // struct definition?
        if self.peek() == &TokenKind::Kw(Keyword::Struct) {
            if let TokenKind::Ident(_) = self.peek2() {
                // Look one further: `{` means a definition.
                let i = (self.pos + 2).min(self.tokens.len() - 1);
                if self.tokens[i].kind == TokenKind::Punct(Punct::LBrace) {
                    return self.struct_def().map(Item::Struct);
                }
            }
        }
        // Otherwise: type, declarator, then function or globals.
        let start = self.span();
        let base = self.base_type()?;
        // `struct x;` forward declaration: tolerate and skip.
        if matches!(base, BaseType::Struct(_)) && self.eat_punct(Punct::Semi) {
            return Ok(Item::Globals(Vec::new()));
        }
        let (name, ty, dspan) = self.declarator(&base, false)?;

        if self.peek() == &TokenKind::Punct(Punct::LParen) && !matches!(ty, TypeName::Array(_, _)) {
            // A function: `ty name ( params ) body-or-;`
            return self.function(name, ty, start).map(Item::Function);
        }

        // Globals.
        let mut decls = Vec::new();
        let init = self.opt_initializer()?;
        decls.push(VarDecl {
            id: self.fresh(),
            span: dspan,
            name,
            ty,
            init,
        });
        while self.eat_punct(Punct::Comma) {
            let (name, ty, dspan) = self.declarator(&base, false)?;
            let init = self.opt_initializer()?;
            decls.push(VarDecl {
                id: self.fresh(),
                span: dspan,
                name,
                ty,
                init,
            });
        }
        self.expect_punct(Punct::Semi)?;
        Ok(Item::Globals(decls))
    }

    fn enum_def(&mut self) -> Result<EnumDecl, CompileError> {
        let start = self.span();
        self.bump(); // enum
        let name = self.take_ident().unwrap_or(Symbol::EMPTY);
        self.expect_punct(Punct::LBrace)?;
        let mut variants = Vec::new();
        while self.peek() != &TokenKind::Punct(Punct::RBrace) {
            let (vname, _) = self.expect_ident()?;
            let value = if self.eat_punct(Punct::Assign) {
                Some(self.cond_expr()?)
            } else {
                None
            };
            variants.push((vname, value));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RBrace)?;
        self.expect_punct(Punct::Semi)?;
        Ok(EnumDecl {
            id: self.fresh(),
            name,
            variants,
            span: start.to(self.prev_span()),
        })
    }

    fn struct_def(&mut self) -> Result<StructDecl, CompileError> {
        let start = self.span();
        self.bump(); // struct
        let (name, _) = self.expect_ident()?;
        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &TokenKind::Punct(Punct::RBrace) {
            let base = self.base_type()?;
            loop {
                let (fname, fty, _) = self.declarator(&base, false)?;
                fields.push((fname, fty));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::Semi)?;
        }
        self.expect_punct(Punct::RBrace)?;
        self.expect_punct(Punct::Semi)?;
        Ok(StructDecl {
            id: self.fresh(),
            name,
            fields,
            span: start.to(self.prev_span()),
        })
    }

    fn function(
        &mut self,
        name: Symbol,
        ret: TypeName,
        start: Span,
    ) -> Result<FunctionDecl, CompileError> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::Punct(Punct::RParen) {
            loop {
                if self.at_varargs() {
                    self.bump_varargs();
                    break;
                }
                let pstart = self.span();
                let base = self.base_type()?;
                let (pname, pty, _) = self.declarator(&base, true)?;
                if pty == TypeName::Base(BaseType::Void)
                    && params.is_empty()
                    && pname == Symbol::EMPTY
                {
                    break;
                }
                params.push(Param {
                    id: self.fresh(),
                    name: pname,
                    ty: pty,
                    span: pstart.to(self.prev_span()),
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        let body = if self.eat_punct(Punct::Semi) {
            None
        } else {
            Some(self.block()?)
        };
        Ok(FunctionDecl {
            id: self.fresh(),
            name,
            ret,
            params,
            body,
            span: start.to(self.prev_span()),
        })
    }

    // ----- statements -----

    fn block(&mut self) -> Result<Stmt, CompileError> {
        let start = self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::Punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.err("unterminated block".into()));
            }
            stmts.push(self.stmt()?);
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(Stmt {
            id: self.fresh(),
            span: start.to(self.prev_span()),
            kind: StmtKind::Block(stmts),
        })
    }

    fn decl_stmt(&mut self) -> Result<Stmt, CompileError> {
        let start = self.span();
        let base = self.base_type()?;
        let mut decls = Vec::new();
        loop {
            let (name, ty, dspan) = self.declarator(&base, false)?;
            let init = self.opt_initializer()?;
            decls.push(VarDecl {
                id: self.fresh(),
                span: dspan,
                name,
                ty,
                init,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt {
            id: self.fresh(),
            span: start.to(self.prev_span()),
            kind: StmtKind::Decl(decls),
        })
    }

    fn opt_initializer(&mut self) -> Result<Option<Initializer>, CompileError> {
        if !self.eat_punct(Punct::Assign) {
            return Ok(None);
        }
        Ok(Some(self.initializer()?))
    }

    fn initializer(&mut self) -> Result<Initializer, CompileError> {
        self.nest(Self::initializer_inner)
    }

    fn initializer_inner(&mut self) -> Result<Initializer, CompileError> {
        if self.eat_punct(Punct::LBrace) {
            let mut items = Vec::new();
            if self.peek() != &TokenKind::Punct(Punct::RBrace) {
                loop {
                    items.push(self.initializer()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                    // Trailing comma.
                    if self.peek() == &TokenKind::Punct(Punct::RBrace) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RBrace)?;
            Ok(Initializer::List(items))
        } else {
            Ok(Initializer::Expr(Arc::new(self.assign_expr()?)))
        }
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nest(Self::stmt_inner)
    }

    /// Dispatches on the statement's first token. Each statement form
    /// has its own function so that the frames on the recursion path
    /// stay small (see [`MAX_NESTING`]).
    fn stmt_inner(&mut self) -> Result<Stmt, CompileError> {
        let start = self.span();
        if matches!(self.peek(), TokenKind::Ident(_))
            && self.peek2() == &TokenKind::Punct(Punct::Colon)
        {
            return self.label_stmt(start);
        }
        if self.at_type() {
            return self.decl_stmt();
        }
        match self.peek() {
            TokenKind::Punct(Punct::LBrace) => self.block(),
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(self.stmt_node(start, StmtKind::Empty))
            }
            TokenKind::Kw(Keyword::If) => self.if_stmt(start),
            TokenKind::Kw(Keyword::While) => self.while_stmt(start),
            TokenKind::Kw(Keyword::Do) => self.do_stmt(start),
            TokenKind::Kw(Keyword::For) => self.for_stmt(start),
            TokenKind::Kw(Keyword::Switch) => self.switch_stmt(start),
            TokenKind::Kw(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(self.stmt_node(start, StmtKind::Break))
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(self.stmt_node(start, StmtKind::Continue))
            }
            TokenKind::Kw(Keyword::Return) => self.return_stmt(start),
            TokenKind::Kw(Keyword::Goto) => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                self.expect_punct(Punct::Semi)?;
                let span = start.to(self.prev_span());
                Ok(self.stmt_node(span, StmtKind::Goto(name)))
            }
            _ => {
                let e = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                let span = start.to(self.prev_span());
                Ok(self.stmt_node(span, StmtKind::Expr(Arc::new(e))))
            }
        }
    }

    fn stmt_node(&mut self, span: Span, kind: StmtKind) -> Stmt {
        Stmt {
            id: self.fresh(),
            span,
            kind,
        }
    }

    fn label_stmt(&mut self, start: Span) -> Result<Stmt, CompileError> {
        let name = self.take_ident().unwrap_or(Symbol::EMPTY);
        self.bump(); // :
        let inner = self.stmt()?;
        let span = start.to(self.prev_span());
        Ok(self.stmt_node(span, StmtKind::Label(name, Box::new(inner))))
    }

    fn if_stmt(&mut self, start: Span) -> Result<Stmt, CompileError> {
        self.bump();
        self.expect_punct(Punct::LParen)?;
        let cond = Arc::new(self.expr()?);
        self.expect_punct(Punct::RParen)?;
        let then = Box::new(self.stmt()?);
        let els = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        let span = start.to(self.prev_span());
        Ok(self.stmt_node(span, StmtKind::If(cond, then, els)))
    }

    fn while_stmt(&mut self, start: Span) -> Result<Stmt, CompileError> {
        self.bump();
        self.expect_punct(Punct::LParen)?;
        let cond = Arc::new(self.expr()?);
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.stmt()?);
        let span = start.to(self.prev_span());
        Ok(self.stmt_node(span, StmtKind::While(cond, body)))
    }

    fn do_stmt(&mut self, start: Span) -> Result<Stmt, CompileError> {
        self.bump();
        let body = Box::new(self.stmt()?);
        if !self.eat_kw(Keyword::While) {
            return Err(self.err("expected `while` after `do` body".into()));
        }
        self.expect_punct(Punct::LParen)?;
        let cond = Arc::new(self.expr()?);
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::Semi)?;
        let span = start.to(self.prev_span());
        Ok(self.stmt_node(span, StmtKind::DoWhile(body, cond)))
    }

    fn for_stmt(&mut self, start: Span) -> Result<Stmt, CompileError> {
        self.bump();
        self.expect_punct(Punct::LParen)?;
        let init = if self.eat_punct(Punct::Semi) {
            None
        } else if self.at_type() {
            Some(Box::new(self.decl_stmt()?))
        } else {
            let e = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            let span = e.span;
            Some(Box::new(self.stmt_node(span, StmtKind::Expr(Arc::new(e)))))
        };
        let cond = if self.peek() == &TokenKind::Punct(Punct::Semi) {
            None
        } else {
            Some(Arc::new(self.expr()?))
        };
        self.expect_punct(Punct::Semi)?;
        let step = if self.peek() == &TokenKind::Punct(Punct::RParen) {
            None
        } else {
            Some(Arc::new(self.expr()?))
        };
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.stmt()?);
        let span = start.to(self.prev_span());
        Ok(self.stmt_node(span, StmtKind::For(init, cond, step, body)))
    }

    fn return_stmt(&mut self, start: Span) -> Result<Stmt, CompileError> {
        self.bump();
        let e = if self.peek() == &TokenKind::Punct(Punct::Semi) {
            None
        } else {
            Some(Arc::new(self.expr()?))
        };
        self.expect_punct(Punct::Semi)?;
        let span = start.to(self.prev_span());
        Ok(self.stmt_node(span, StmtKind::Return(e)))
    }

    fn switch_stmt(&mut self, start: Span) -> Result<Stmt, CompileError> {
        self.bump(); // switch
        self.expect_punct(Punct::LParen)?;
        let scrut = Arc::new(self.expr()?);
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let mut sections = Vec::new();
        while self.peek() != &TokenKind::Punct(Punct::RBrace) {
            // A section: one or more labels, then statements.
            let mut labels = Vec::new();
            let mut is_default = false;
            loop {
                if self.eat_kw(Keyword::Case) {
                    labels.push(self.expr_no_comma_colon()?);
                    self.expect_punct(Punct::Colon)?;
                } else if self.eat_kw(Keyword::Default) {
                    is_default = true;
                    self.expect_punct(Punct::Colon)?;
                } else {
                    break;
                }
            }
            if labels.is_empty() && !is_default {
                return Err(self.err("expected `case` or `default` in switch body".into()));
            }
            let mut body = Vec::new();
            while !matches!(
                self.peek(),
                TokenKind::Kw(Keyword::Case)
                    | TokenKind::Kw(Keyword::Default)
                    | TokenKind::Punct(Punct::RBrace)
            ) {
                if self.at_eof() {
                    return Err(self.err("unterminated switch body".into()));
                }
                body.push(self.stmt()?);
            }
            sections.push(SwitchSection {
                labels,
                is_default,
                body,
            });
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(Stmt {
            id: self.fresh(),
            span: start.to(self.prev_span()),
            kind: StmtKind::Switch(scrut, sections),
        })
    }

    /// Case labels use conditional-expression precedence (no comma, and
    /// the `:` belongs to the label, not a ternary).
    fn expr_no_comma_colon(&mut self) -> Result<Expr, CompileError> {
        // Ternaries in case labels would be bizarre; parse at binary level.
        self.binary_expr(0)
    }

    // ----- expressions -----
    //
    // Every expression function leaves the height of the tree it
    // returns in `self.height`; [`Parser::expr_node`] combines child
    // heights and rejects a node whose subtree would reach deeper than
    // [`MAX_NESTING`] from the root of its declaration.

    fn expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.assign_expr()?;
        while self.eat_punct(Punct::Comma) {
            let below = self.height;
            let rhs = self.assign_expr()?;
            let below = below.max(self.height);
            let span = e.span.to(rhs.span);
            e = self.expr_node(span, ExprKind::Comma(Box::new(e), Box::new(rhs)), below)?;
        }
        Ok(e)
    }

    fn assign_expr(&mut self) -> Result<Expr, CompileError> {
        self.nest(Self::assign_expr_inner)
    }

    fn assign_expr_inner(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.cond_expr()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => Some(None),
            TokenKind::Punct(Punct::PlusEq) => Some(Some(BinOp::Add)),
            TokenKind::Punct(Punct::MinusEq) => Some(Some(BinOp::Sub)),
            TokenKind::Punct(Punct::StarEq) => Some(Some(BinOp::Mul)),
            TokenKind::Punct(Punct::SlashEq) => Some(Some(BinOp::Div)),
            TokenKind::Punct(Punct::PercentEq) => Some(Some(BinOp::Rem)),
            TokenKind::Punct(Punct::AmpEq) => Some(Some(BinOp::BitAnd)),
            TokenKind::Punct(Punct::PipeEq) => Some(Some(BinOp::BitOr)),
            TokenKind::Punct(Punct::CaretEq) => Some(Some(BinOp::BitXor)),
            TokenKind::Punct(Punct::ShlEq) => Some(Some(BinOp::Shl)),
            TokenKind::Punct(Punct::ShrEq) => Some(Some(BinOp::Shr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let below = self.height;
            let rhs = self.assign_expr()?;
            let below = below.max(self.height);
            let span = lhs.span.to(rhs.span);
            return self.expr_node(
                span,
                ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
                below,
            );
        }
        Ok(lhs)
    }

    fn cond_expr(&mut self) -> Result<Expr, CompileError> {
        let cond = self.binary_expr(0)?;
        if self.eat_punct(Punct::Question) {
            let below = self.height;
            let then = self.assign_expr()?;
            let below = below.max(self.height);
            self.expect_punct(Punct::Colon)?;
            let els = self.nest(Self::cond_expr)?;
            let below = below.max(self.height);
            let span = cond.span.to(els.span);
            return self.expr_node(
                span,
                ExprKind::Cond(Box::new(cond), Box::new(then), Box::new(els)),
                below,
            );
        }
        Ok(cond)
    }

    /// Precedence-climbing over binary operators. Level 0 = `||`.
    fn binary_expr(&mut self, min_level: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (level, kind) = match self.peek() {
                TokenKind::Punct(Punct::PipePipe) => (0, OpKind::Or),
                TokenKind::Punct(Punct::AmpAmp) => (1, OpKind::And),
                TokenKind::Punct(Punct::Pipe) => (2, OpKind::Bin(BinOp::BitOr)),
                TokenKind::Punct(Punct::Caret) => (3, OpKind::Bin(BinOp::BitXor)),
                TokenKind::Punct(Punct::Amp) => (4, OpKind::Bin(BinOp::BitAnd)),
                TokenKind::Punct(Punct::EqEq) => (5, OpKind::Bin(BinOp::Eq)),
                TokenKind::Punct(Punct::Ne) => (5, OpKind::Bin(BinOp::Ne)),
                TokenKind::Punct(Punct::Lt) => (6, OpKind::Bin(BinOp::Lt)),
                TokenKind::Punct(Punct::Le) => (6, OpKind::Bin(BinOp::Le)),
                TokenKind::Punct(Punct::Gt) => (6, OpKind::Bin(BinOp::Gt)),
                TokenKind::Punct(Punct::Ge) => (6, OpKind::Bin(BinOp::Ge)),
                TokenKind::Punct(Punct::Shl) => (7, OpKind::Bin(BinOp::Shl)),
                TokenKind::Punct(Punct::Shr) => (7, OpKind::Bin(BinOp::Shr)),
                TokenKind::Punct(Punct::Plus) => (8, OpKind::Bin(BinOp::Add)),
                TokenKind::Punct(Punct::Minus) => (8, OpKind::Bin(BinOp::Sub)),
                TokenKind::Punct(Punct::Star) => (9, OpKind::Bin(BinOp::Mul)),
                TokenKind::Punct(Punct::Slash) => (9, OpKind::Bin(BinOp::Div)),
                TokenKind::Punct(Punct::Percent) => (9, OpKind::Bin(BinOp::Rem)),
                _ => break,
            };
            if level < min_level {
                break;
            }
            self.bump();
            let below = self.height;
            let rhs = self.binary_expr(level + 1)?;
            let below = below.max(self.height);
            let span = lhs.span.to(rhs.span);
            let kind = match kind {
                OpKind::Or => ExprKind::LogOr(Box::new(lhs), Box::new(rhs)),
                OpKind::And => ExprKind::LogAnd(Box::new(lhs), Box::new(rhs)),
                OpKind::Bin(op) => ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
            };
            lhs = self.expr_node(span, kind, below)?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        self.nest(Self::unary_expr_inner)
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, CompileError> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::Addr),
            TokenKind::Punct(Punct::PlusPlus) => Some(UnOp::PreInc),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnOp::PreDec),
            TokenKind::Punct(Punct::Plus) => {
                // Unary plus: skip it.
                self.bump();
                return self.unary_expr();
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary_expr()?;
            let span = start.to(e.span);
            let below = self.height;
            return self.expr_node(span, ExprKind::Unary(op, Box::new(e)), below);
        }
        if self.peek() == &TokenKind::Kw(Keyword::Sizeof) {
            self.bump();
            if self.peek() == &TokenKind::Punct(Punct::LParen) && self.peek2_is_type() {
                self.bump();
                let (ty, levels) = self.type_name()?;
                self.expect_punct(Punct::RParen)?;
                let span = start.to(self.prev_span());
                return self.expr_node(span, ExprKind::SizeofType(ty), levels);
            }
            let e = self.unary_expr()?;
            let span = start.to(e.span);
            let below = self.height;
            return self.expr_node(span, ExprKind::SizeofExpr(Box::new(e)), below);
        }
        // Cast?
        if self.peek() == &TokenKind::Punct(Punct::LParen) && self.peek2_is_type() {
            self.bump();
            let (ty, levels) = self.type_name()?;
            self.expect_punct(Punct::RParen)?;
            let e = self.unary_expr()?;
            let span = start.to(e.span);
            let below = self.height.max(levels);
            return self.expr_node(span, ExprKind::Cast(ty, Box::new(e)), below);
        }
        self.postfix_expr()
    }

    fn peek2_is_type(&self) -> bool {
        matches!(
            self.peek2(),
            TokenKind::Kw(
                Keyword::Int
                    | Keyword::Char
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Long
                    | Keyword::Unsigned
                    | Keyword::Void
                    | Keyword::Struct
                    | Keyword::Const
            )
        )
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary_expr()?;
        loop {
            let lo = e.span;
            let mut below = self.height;
            let kind = match self.peek() {
                TokenKind::Punct(Punct::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::Punct(Punct::RParen) {
                        loop {
                            args.push(self.assign_expr()?);
                            below = below.max(self.height);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                    ExprKind::Call(Box::new(e), args)
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.expr()?;
                    below = below.max(self.height);
                    self.expect_punct(Punct::RBracket)?;
                    ExprKind::Index(Box::new(e), Box::new(idx))
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    ExprKind::Member(Box::new(e), name, false)
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    ExprKind::Member(Box::new(e), name, true)
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    ExprKind::Unary(UnOp::PostInc, Box::new(e))
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    ExprKind::Unary(UnOp::PostDec, Box::new(e))
                }
                _ => return Ok(e),
            };
            let span = lo.to(self.prev_span());
            e = self.expr_node(span, kind, below)?;
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, CompileError> {
        let start = self.span();
        let kind = match *self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                ExprKind::IntLit(v)
            }
            TokenKind::Float(v) => {
                self.bump();
                ExprKind::FloatLit(v)
            }
            TokenKind::Str(first) => {
                self.bump();
                // Adjacent string literals concatenate.
                if let TokenKind::Str(_) = self.peek() {
                    let mut text = self.names[first].to_string();
                    while let TokenKind::Str(s) = *self.peek() {
                        text.push_str(&self.names[s]);
                        self.bump();
                    }
                    ExprKind::StrLit(self.names.intern(&text))
                } else {
                    ExprKind::StrLit(first)
                }
            }
            TokenKind::Ident(name) => {
                self.bump();
                ExprKind::Ident(name)
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                return Ok(e);
            }
            _ => return Err(self.err(format!("expected an expression, found {}", self.found()))),
        };
        let span = start.to(self.prev_span());
        self.expr_node(span, kind, 0)
    }
}

enum OpKind {
    Or,
    And,
    Bin(BinOp),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Unit {
        match parse(src) {
            Ok(u) => u,
            Err(e) => panic!("parse failed: {}", e.render(src)),
        }
    }

    fn only_fn(unit: &Unit) -> &FunctionDecl {
        for item in &unit.items {
            if let Item::Function(f) = item {
                return f;
            }
        }
        panic!("no function found");
    }

    #[test]
    fn parses_strchr() {
        let unit = parse_ok(
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
        let f = only_fn(&unit);
        assert_eq!(&unit.names[f.name], "strchr");
        assert_eq!(f.params.len(), 2);
        assert!(f.body.is_some());
    }

    #[test]
    fn parses_struct_and_globals() {
        let unit = parse_ok(
            r#"
            struct node { int value; struct node *next; };
            int counts[100];
            struct node *head = 0;
            char *msg = "hi";
            int table[3] = {1, 2, 3};
            "#,
        );
        assert_eq!(unit.items.len(), 5);
        assert!(matches!(unit.items[0], Item::Struct(_)));
    }

    #[test]
    fn parses_function_pointers() {
        let unit = parse_ok(
            r#"
            int add(int a, int b) { return a + b; }
            int (*op)(int, int) = add;
            int (*table[4])(int, int);
            int apply(int (*f)(int, int), int x) { return f(x, x); }
            "#,
        );
        assert_eq!(unit.items.len(), 4);
    }

    #[test]
    fn parses_control_flow_zoo() {
        parse_ok(
            r#"
            int f(int n) {
                int i, acc = 0;
                for (i = 0; i < n; i++) acc += i;
                do { acc--; } while (acc > 100);
                switch (n) {
                    case 1: acc = 1; break;
                    case 2:
                    case 3: acc = 2; break;
                    default: acc = 0;
                }
                if (n > 0 && acc < 5) goto out;
                while (n--) continue;
            out:
                return acc ? acc : -1;
            }
            "#,
        );
    }

    #[test]
    fn parses_casts_and_sizeof() {
        let unit = parse_ok(
            r#"
            int g(void) {
                char *p;
                int n = sizeof(int);
                int m = sizeof p;
                p = (char *) 0;
                float x = (float) n;
                return n + m + (int) x;
            }
            "#,
        );
        let f = only_fn(&unit);
        assert_eq!(f.params.len(), 0);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let unit = parse_ok("int x = 1 + 2 * 3;");
        let Item::Globals(gs) = &unit.items[0] else {
            panic!()
        };
        let Some(Initializer::Expr(e)) = &gs[0].init else {
            panic!()
        };
        let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind else {
            panic!("expected + at top, got {:?}", e.kind)
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn assignment_is_right_associative() {
        let unit = parse_ok("int f(int a, int b, int c) { a = b = c; return a; }");
        let f = only_fn(&unit);
        let Some(Stmt {
            kind: StmtKind::Block(stmts),
            ..
        }) = &f.body
        else {
            panic!()
        };
        let StmtKind::Expr(e) = &stmts[0].kind else {
            panic!()
        };
        let ExprKind::Assign(None, _, rhs) = &e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Assign(None, _, _)));
    }

    #[test]
    fn dangling_else_binds_to_nearest_if() {
        let unit =
            parse_ok("int f(int a, int b) { if (a) if (b) return 1; else return 2; return 0; }");
        let f = only_fn(&unit);
        let Some(Stmt {
            kind: StmtKind::Block(stmts),
            ..
        }) = &f.body
        else {
            panic!()
        };
        let StmtKind::If(_, inner, outer_else) = &stmts[0].kind else {
            panic!()
        };
        assert!(outer_else.is_none());
        assert!(matches!(inner.kind, StmtKind::If(_, _, Some(_))));
    }

    #[test]
    fn adjacent_strings_concatenate() {
        let unit = parse_ok(r#"char *s = "ab" "cd";"#);
        let Item::Globals(gs) = &unit.items[0] else {
            panic!()
        };
        let Some(Initializer::Expr(e)) = &gs[0].init else {
            panic!()
        };
        assert_eq!(e.kind, ExprKind::StrLit(unit.names.get("abcd").unwrap()));
    }

    #[test]
    fn prototypes_have_no_body() {
        let unit = parse_ok("int helper(int x);");
        let f = only_fn(&unit);
        assert!(f.body.is_none());
    }

    #[test]
    fn comma_expression_in_for() {
        parse_ok("int f(int n) { int i, j; for (i = 0, j = n; i < j; i++, j--) ; return 0; }");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("int f( { }").is_err());
        assert!(parse("int 3x;").is_err());
        assert!(parse("int f(void) { return }").is_err());
        assert!(parse("int f(void) { switch (1) { int x; } }").is_err());
    }

    #[test]
    fn node_ids_are_unique() {
        let unit = parse_ok("int f(int a) { return a + 1; }");
        let f = only_fn(&unit);
        let mut seen = std::collections::HashSet::new();
        f.body.as_ref().unwrap().walk_exprs(&mut |e| {
            assert!(seen.insert(e.id), "duplicate node id {:?}", e.id);
        });
        assert!(unit.node_count >= seen.len());
    }
}
