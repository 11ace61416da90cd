//! Compile-time constant folding.
//!
//! Folding serves three purposes in the paper's methodology:
//!
//! 1. Array dimensions and `case` labels must be integer constants.
//! 2. Global initializers are evaluated at compile time.
//! 3. Branches whose controlling expression is a constant are *predicted
//!    but not scored* — counting them would make miss rates look
//!    artificially low (§2, citing Fisher & Freudenberger).

use crate::ast::{BinOp, Expr, ExprKind, UnOp};
use crate::symbol::Symbol;

/// A folded compile-time value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstValue {
    /// An integer (or char) constant.
    Int(i64),
    /// A floating constant.
    Float(f64),
}

impl ConstValue {
    /// Interprets the constant as a branch condition.
    pub fn as_bool(self) -> bool {
        match self {
            ConstValue::Int(v) => v != 0,
            ConstValue::Float(v) => v != 0.0,
        }
    }

    /// The integer value, if integral.
    pub fn as_int(self) -> Option<i64> {
        match self {
            ConstValue::Int(v) => Some(v),
            ConstValue::Float(_) => None,
        }
    }

    /// The value as a float (integers convert).
    pub fn as_float(self) -> f64 {
        match self {
            ConstValue::Int(v) => v as f64,
            ConstValue::Float(v) => v,
        }
    }
}

/// Environment for folding: resolves `sizeof` queries and identifiers
/// that are known constants (none in plain MiniC, but sema may supply
/// folded globals).
pub trait FoldEnv {
    /// The size in words of the named type, if known.
    fn sizeof_typename(&self, ty: &crate::ast::TypeName) -> Option<i64>;
    /// The size in words of the given expression's type, if known.
    fn sizeof_expr(&self, e: &Expr) -> Option<i64>;
    /// A constant value for an identifier, if it has one.
    fn ident_value(&self, name: Symbol) -> Option<ConstValue>;
}

/// A [`FoldEnv`] that knows nothing; folds pure literal arithmetic only.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEnv;

impl FoldEnv for NoEnv {
    fn sizeof_typename(&self, _ty: &crate::ast::TypeName) -> Option<i64> {
        None
    }
    fn sizeof_expr(&self, _e: &Expr) -> Option<i64> {
        None
    }
    fn ident_value(&self, _name: Symbol) -> Option<ConstValue> {
        None
    }
}

/// Attempts to fold `e` to a constant.
///
/// Returns `None` for anything not compile-time evaluable (including
/// division by a constant zero, which C leaves undefined).
///
/// # Examples
///
/// ```
/// use minic::fold::{fold, ConstValue, NoEnv};
/// use minic::parser::parse;
/// use minic::ast::{Item, Initializer};
///
/// let unit = parse("int x = (3 + 4) * 2;").unwrap();
/// let Item::Globals(gs) = &unit.items[0] else { unreachable!() };
/// let Some(Initializer::Expr(e)) = &gs[0].init else { unreachable!() };
/// assert_eq!(fold(e, &NoEnv), Some(ConstValue::Int(14)));
/// ```
pub fn fold(e: &Expr, env: &dyn FoldEnv) -> Option<ConstValue> {
    use ConstValue::*;
    Some(match &e.kind {
        ExprKind::IntLit(v) => Int(*v),
        ExprKind::FloatLit(v) => Float(*v),
        ExprKind::Ident(name) => env.ident_value(*name)?,
        ExprKind::SizeofType(ty) => Int(env.sizeof_typename(ty)?),
        ExprKind::SizeofExpr(inner) => Int(env.sizeof_expr(inner)?),
        ExprKind::Cast(ty, inner) => {
            let v = fold(inner, env)?;
            // Only scalar casts fold; pointer casts of constants stay
            // integer-valued.
            use crate::ast::{BaseType, TypeName};
            match ty {
                TypeName::Base(BaseType::Float) => Float(v.as_float()),
                TypeName::Base(BaseType::Int) | TypeName::Base(BaseType::Char) => match v {
                    Int(i) => Int(i),
                    Float(f) => Int(f as i64),
                },
                _ => return None,
            }
        }
        ExprKind::Unary(op, inner) => {
            let v = fold(inner, env)?;
            match (op, v) {
                (UnOp::Neg, Int(i)) => Int(i.wrapping_neg()),
                (UnOp::Neg, Float(f)) => Float(-f),
                (UnOp::Not, v) => Int(!v.as_bool() as i64),
                (UnOp::BitNot, Int(i)) => Int(!i),
                _ => return None,
            }
        }
        ExprKind::Binary(op, a, b) => {
            let va = fold(a, env)?;
            let vb = fold(b, env)?;
            fold_binary(*op, va, vb)?
        }
        ExprKind::LogAnd(a, b) => {
            let va = fold(a, env)?;
            if !va.as_bool() {
                Int(0)
            } else {
                Int(fold(b, env)?.as_bool() as i64)
            }
        }
        ExprKind::LogOr(a, b) => {
            let va = fold(a, env)?;
            if va.as_bool() {
                Int(1)
            } else {
                Int(fold(b, env)?.as_bool() as i64)
            }
        }
        ExprKind::Cond(c, t, f) => {
            let vc = fold(c, env)?;
            if vc.as_bool() {
                fold(t, env)?
            } else {
                fold(f, env)?
            }
        }
        ExprKind::Comma(_, b) => fold(b, env)?,
        _ => return None,
    })
}

fn fold_binary(op: BinOp, a: ConstValue, b: ConstValue) -> Option<ConstValue> {
    use ConstValue::*;
    // Mixed int/float promotes to float, as in C.
    if matches!(a, Float(_)) || matches!(b, Float(_)) {
        let (x, y) = (a.as_float(), b.as_float());
        return Some(match op {
            BinOp::Add => Float(x + y),
            BinOp::Sub => Float(x - y),
            BinOp::Mul => Float(x * y),
            BinOp::Div => Float(x / y),
            BinOp::Lt => Int((x < y) as i64),
            BinOp::Le => Int((x <= y) as i64),
            BinOp::Gt => Int((x > y) as i64),
            BinOp::Ge => Int((x >= y) as i64),
            BinOp::Eq => Int((x == y) as i64),
            BinOp::Ne => Int((x != y) as i64),
            _ => return None, // no bitwise ops on floats
        });
    }
    let (x, y) = (a.as_int()?, b.as_int()?);
    Some(match op {
        BinOp::Add => Int(x.wrapping_add(y)),
        BinOp::Sub => Int(x.wrapping_sub(y)),
        BinOp::Mul => Int(x.wrapping_mul(y)),
        BinOp::Div => {
            if y == 0 {
                return None;
            }
            Int(x.wrapping_div(y))
        }
        BinOp::Rem => {
            if y == 0 {
                return None;
            }
            Int(x.wrapping_rem(y))
        }
        BinOp::Shl => Int(x.wrapping_shl(y as u32)),
        BinOp::Shr => Int(x.wrapping_shr(y as u32)),
        BinOp::BitAnd => Int(x & y),
        BinOp::BitOr => Int(x | y),
        BinOp::BitXor => Int(x ^ y),
        BinOp::Lt => Int((x < y) as i64),
        BinOp::Le => Int((x <= y) as i64),
        BinOp::Gt => Int((x > y) as i64),
        BinOp::Ge => Int((x >= y) as i64),
        BinOp::Eq => Int((x == y) as i64),
        BinOp::Ne => Int((x != y) as i64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Initializer, Item};
    use crate::parser::parse;

    fn fold_init(src: &str) -> Option<ConstValue> {
        let unit = parse(src).unwrap();
        let Item::Globals(gs) = &unit.items[0] else {
            panic!()
        };
        let Some(Initializer::Expr(e)) = &gs[0].init else {
            panic!()
        };
        fold(e, &NoEnv)
    }

    #[test]
    fn folds_arithmetic() {
        assert_eq!(fold_init("int x = 2 + 3 * 4;"), Some(ConstValue::Int(14)));
        assert_eq!(
            fold_init("int x = (1 << 4) | 3;"),
            Some(ConstValue::Int(19))
        );
        assert_eq!(fold_init("int x = -5 % 3;"), Some(ConstValue::Int(-2)));
        assert_eq!(fold_init("int x = 10 / 4;"), Some(ConstValue::Int(2)));
    }

    #[test]
    fn folds_floats_with_promotion() {
        assert_eq!(
            fold_init("float x = 1 + 0.5;"),
            Some(ConstValue::Float(1.5))
        );
        assert_eq!(fold_init("int x = 2.5 > 2;"), Some(ConstValue::Int(1)));
    }

    #[test]
    fn folds_logic_and_ternary() {
        assert_eq!(fold_init("int x = 1 && 0;"), Some(ConstValue::Int(0)));
        assert_eq!(fold_init("int x = 0 || 3;"), Some(ConstValue::Int(1)));
        assert_eq!(fold_init("int x = !0;"), Some(ConstValue::Int(1)));
        assert_eq!(fold_init("int x = 1 ? 7 : 8;"), Some(ConstValue::Int(7)));
    }

    #[test]
    fn folds_casts() {
        assert_eq!(fold_init("int x = (int) 2.9;"), Some(ConstValue::Int(2)));
        assert_eq!(
            fold_init("float x = (float) 3;"),
            Some(ConstValue::Float(3.0))
        );
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        assert_eq!(fold_init("int x = 1 / 0;"), None);
        assert_eq!(fold_init("int x = 1 % 0;"), None);
    }

    #[test]
    fn non_constants_do_not_fold() {
        assert_eq!(fold_init("int x = y;"), None);
    }

    #[test]
    fn short_circuit_ignores_unfoldable_rhs() {
        assert_eq!(fold_init("int x = 0 && y;"), Some(ConstValue::Int(0)));
        assert_eq!(fold_init("int x = 1 || y;"), Some(ConstValue::Int(1)));
    }

    #[test]
    fn const_value_accessors() {
        assert!(ConstValue::Int(3).as_bool());
        assert!(!ConstValue::Float(0.0).as_bool());
        assert_eq!(ConstValue::Int(3).as_int(), Some(3));
        assert_eq!(ConstValue::Float(2.0).as_int(), None);
        assert_eq!(ConstValue::Int(2).as_float(), 2.0);
    }
}
