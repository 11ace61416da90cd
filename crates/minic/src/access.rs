//! Static array-access metadata.
//!
//! The reuse estimator needs to know, for every memory-access site in
//! a program, *which object* it touches and *how the address moves*
//! as enclosing loops advance. This module classifies the two shapes
//! MiniC array code is made of:
//!
//! - [`array_access`]: an `Index` chain rooted at a global array
//!   (`a[i]`, `grid[r][c]`), decomposed into per-dimension index
//!   expressions and their word strides;
//! - [`scalar_global`]: a bare global scalar (`n`, `seed`).
//!
//! Anything else — pointer arithmetic, locals (which live on the VM
//! stack and are never traced), struct members — is left to the
//! estimator's irregular-access fallback.

use crate::ast::{Expr, ExprKind};
use crate::sema::{GlobalId, LocalId, Module, Resolution};
use crate::types::Type;
use std::collections::HashSet;

/// A variable mentioned by an expression (the resolutions that can
/// change between loop iterations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRef {
    /// A local or parameter of the enclosing function.
    Local(LocalId),
    /// A global.
    Global(GlobalId),
}

/// One classified global-array access site: `global[indices[0]]...`,
/// where stepping `indices[k]` by one moves the address by
/// `strides[k]` words.
#[derive(Debug, Clone)]
pub struct ArrayAccess<'a> {
    /// The array being indexed.
    pub global: GlobalId,
    /// Index expressions, outermost dimension first.
    pub indices: Vec<&'a Expr>,
    /// Words per unit step of each index (parallel to `indices`).
    pub strides: Vec<usize>,
}

/// Classifies `e` as a global-array access (`a[i]`, `grid[r][c]`, …).
///
/// Returns `None` for anything that is not a pure `Index` chain over
/// a global of array type — including partially-indexed arrays whose
/// value is an aggregate (row pointers), which reach memory through
/// later arithmetic the static model does not follow.
pub fn array_access<'a>(module: &Module, e: &'a Expr) -> Option<ArrayAccess<'a>> {
    let mut indices: Vec<&'a Expr> = Vec::new();
    let mut base = e;
    while let ExprKind::Index(b, i) = &base.kind {
        indices.push(i);
        base = b;
    }
    if indices.is_empty() {
        return None;
    }
    indices.reverse();
    let ExprKind::Ident(_) = base.kind else {
        return None;
    };
    let Some(Resolution::Global(gid)) = module.side.resolution(base.id) else {
        return None;
    };
    // Peel one array layer per index, collecting element strides.
    let mut ty = &module.globals[gid.0 as usize].ty;
    let mut strides = Vec::with_capacity(indices.len());
    for _ in &indices {
        let Type::Array(elem, _) = ty else {
            return None; // over-indexed or not an array at this depth
        };
        strides.push(elem.size_words(&module.structs));
        ty = elem;
    }
    if matches!(ty, Type::Array(..) | Type::Struct(_)) {
        return None; // aggregate-valued: not a scalar word access
    }
    Some(ArrayAccess {
        global: gid,
        indices,
        strides,
    })
}

/// Classifies `e` as a bare global *scalar* read/write target.
pub fn scalar_global(module: &Module, e: &Expr) -> Option<GlobalId> {
    let ExprKind::Ident(_) = e.kind else {
        return None;
    };
    let Some(Resolution::Global(gid)) = module.side.resolution(e.id) else {
        return None;
    };
    let g = &module.globals[gid.0 as usize];
    (g.ty.size_words(&module.structs) == 1 && !matches!(g.ty, Type::Array(..))).then_some(gid)
}

/// Collects every local and global variable mentioned anywhere in `e`
/// into `out`. Drives the estimator's "does this index vary with that
/// loop?" classification.
pub fn collect_vars(module: &Module, e: &Expr, out: &mut HashSet<VarRef>) {
    if let ExprKind::Ident(_) = e.kind {
        match module.side.resolution(e.id) {
            Some(Resolution::Local(lid)) => {
                out.insert(VarRef::Local(lid));
            }
            Some(Resolution::Global(gid)) => {
                out.insert(VarRef::Global(gid));
            }
            _ => {}
        }
    }
    e.for_each_child(&mut |c| collect_vars(module, c, out));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        crate::compile(src).expect("valid MiniC")
    }

    /// Finds the first expression in `main` satisfying `pred`, walking
    /// statements via the pretty-printed positions is overkill — we
    /// just scan every statement expression tree.
    fn find_expr<'m>(m: &'m Module, pred: &dyn Fn(&Expr) -> bool) -> &'m Expr {
        fn walk<'a>(e: &'a Expr, pred: &dyn Fn(&Expr) -> bool, hit: &mut Option<&'a Expr>) {
            if hit.is_some() {
                return;
            }
            if pred(e) {
                *hit = Some(e);
                return;
            }
            e.for_each_child(&mut |c| walk(c, pred, hit));
        }
        fn walk_stmt<'a>(
            s: &'a crate::ast::Stmt,
            pred: &dyn Fn(&Expr) -> bool,
            hit: &mut Option<&'a Expr>,
        ) {
            use crate::ast::StmtKind::*;
            match &s.kind {
                Expr(e) | Return(Some(e)) => walk(e, pred, hit),
                If(c, t, e) => {
                    walk(c, pred, hit);
                    walk_stmt(t, pred, hit);
                    if let Some(e) = e {
                        walk_stmt(e, pred, hit);
                    }
                }
                While(c, b) => {
                    walk(c, pred, hit);
                    walk_stmt(b, pred, hit);
                }
                DoWhile(b, c) => {
                    walk_stmt(b, pred, hit);
                    walk(c, pred, hit);
                }
                Switch(c, sections) => {
                    walk(c, pred, hit);
                    for sec in sections {
                        for s in &sec.body {
                            walk_stmt(s, pred, hit);
                        }
                    }
                }
                For(i, c, u, b) => {
                    if let Some(i) = i {
                        walk_stmt(i, pred, hit);
                    }
                    if let Some(c) = c {
                        walk(c, pred, hit);
                    }
                    if let Some(u) = u {
                        walk(u, pred, hit);
                    }
                    walk_stmt(b, pred, hit);
                }
                Block(stmts) => {
                    for s in stmts {
                        walk_stmt(s, pred, hit);
                    }
                }
                Label(_, s) => walk_stmt(s, pred, hit),
                Decl(decls) => {
                    for d in decls {
                        if let Some(crate::ast::Initializer::Expr(e)) = &d.init {
                            walk(e, pred, hit);
                        }
                    }
                }
                _ => {}
            }
        }
        let main = m.function_id("main").expect("main");
        let body = m.functions[main.0 as usize].body.as_ref().expect("body");
        let mut hit = None;
        walk_stmt(body, pred, &mut hit);
        hit.expect("expression not found")
    }

    #[test]
    fn classifies_2d_global_array() {
        let m = module(
            "int grid[3][4];\n\
             int main(void) { int r = 1, c = 2; return grid[r][c]; }",
        );
        let e = find_expr(&m, &|e| matches!(e.kind, ExprKind::Index(..)));
        let acc = array_access(&m, e).expect("classified");
        assert_eq!(m.globals[acc.global.0 as usize].name, "grid");
        assert_eq!(acc.strides, vec![4, 1]);
        assert_eq!(acc.indices.len(), 2);
    }

    #[test]
    fn rejects_partial_index_and_locals() {
        let m = module(
            "int grid[3][4];\n\
             int main(void) { int loc[8]; loc[0] = 1; return grid[1][1] + loc[0]; }",
        );
        // A local array access never classifies (locals are untraced).
        let e = find_expr(&m, &|e| {
            if let ExprKind::Index(b, _) = &e.kind {
                matches!(b.kind, ExprKind::Ident(n) if &m.names[n] == "loc")
            } else {
                false
            }
        });
        assert!(array_access(&m, e).is_none());
    }

    #[test]
    fn scalar_global_and_vars() {
        let m = module(
            "int n; int a[4];\n\
             int main(void) { int i = 0; return a[i + n]; }",
        );
        let scalar = find_expr(
            &m,
            &|e| matches!(e.kind, ExprKind::Ident(s) if &m.names[s] == "n"),
        );
        assert!(scalar_global(&m, scalar).is_some());
        let arr = find_expr(
            &m,
            &|e| matches!(e.kind, ExprKind::Ident(s) if &m.names[s] == "a"),
        );
        assert!(scalar_global(&m, arr).is_none(), "arrays are not scalars");
        let idx = find_expr(&m, &|e| matches!(e.kind, ExprKind::Index(..)));
        let mut vars = HashSet::new();
        collect_vars(&m, idx, &mut vars);
        // Mentions the array global, the loop local, and `n`.
        assert_eq!(vars.len(), 3);
    }
}
