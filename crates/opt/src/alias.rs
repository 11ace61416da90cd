//! Frame-slot alias analysis: proves a callee's address-taken locals
//! never escape, so its frame can be merged into a caller's by the
//! inliner.
//!
//! Splicing a callee relocates its locals from a fresh frame at the
//! top of the stack to a bump-allocated region inside the caller's
//! frame. Every *direct* slot access (`LoadLocal`, `StoreLocal`, …)
//! is rebased by the splice and keeps working; the hazard is a
//! *materialized* frame address (`LeaLocal`, `IndexAddrLeaL`): its
//! numeric value differs between the two layouts, so any operation
//! that observes that value — or lets it outlive the inlined body —
//! can diverge from the unoptimized run.
//!
//! The analysis is a flow-insensitive taint fixpoint over the callee's
//! op range. Frame-address materializations seed the taint; taint
//! propagates through copies, pointer arithmetic with clean offsets,
//! and stores into statically-addressed frame slots. The callee is
//! *contained* (inlinable) iff no tainted value ever:
//!
//! - has its numeric value observed: converted to an int/float class,
//!   compared against a clean value, fed to `Num`-mode arithmetic or
//!   a `SwitchJump`, or negated/complemented;
//! - escapes the activation: stored through a pointer or into a
//!   global, returned, or passed to any call (direct, indirect, or
//!   builtin).
//!
//! Two *tainted* operands may be compared or differenced freely: all
//! tainted values in one activation are addresses into the same frame
//! region, and the splice shifts them uniformly, so their ordering and
//! differences are invariant. Likewise truthiness tests are safe — a
//! frame address is a large nonzero word in both layouts — and plain
//! dereference through a tainted pointer is safe because the pointee
//! slot moves together with the address.
//!
//! Flow-insensitivity is sound here (taint only ever grows along any
//! path) and cheap: inlinable callees are at most `MAX_INLINE_OPS`
//! ops, and the fixpoint is quadratic in that bound at worst.

use profiler::bytecode::{ArithMode, Op};
use profiler::runtime::TyClass;
use std::collections::HashSet;

/// Whether any op in `ops` materializes a frame address at all. When
/// false the taint analysis is vacuous and the body trivially safe.
pub fn takes_frame_address(ops: &[Op]) -> bool {
    ops.iter().any(|op| {
        matches!(
            op,
            Op::LeaLocal { .. } | Op::IndexAddrLeaL { .. } | Op::LoadIdxLeaL { .. }
        )
    })
}

/// The arithmetic-mode taint rule: given the operands' taint, either
/// the result's taint, or `None` when the combination observes a
/// tainted address (escape).
fn mode_rule(mode: ArithMode, ta: bool, tb: bool) -> Option<bool> {
    match mode {
        // Comparing two tainted addresses is shift-invariant;
        // tainted-vs-clean observes the absolute value.
        ArithMode::Cmp(_) => (ta == tb).then_some(false),
        ArithMode::PtrDiff(_) => (ta == tb).then_some(false),
        // ptr ± int derives a pointer in the same frame region; a
        // tainted integer operand would observe an address.
        ArithMode::PtrAddL(_) => (!tb).then_some(ta),
        ArithMode::PtrAddR(_) => (!ta).then_some(tb),
        ArithMode::PtrSubInt(_) => (!tb).then_some(ta),
        // Plain numeric arithmetic observes operand values.
        ArithMode::Num(_) => (!ta && !tb).then_some(false),
    }
}

/// A store class that preserves pointer values verbatim. `Int`/`Float`
/// conversion of a tainted pointer observes its numeric value.
fn class_preserves_ptr(class: TyClass) -> bool {
    !matches!(class, TyClass::Int | TyClass::Float)
}

struct Taint {
    regs: HashSet<u16>,
    slots: HashSet<u32>,
}

impl Taint {
    fn r(&self, r: u16) -> bool {
        self.regs.contains(&r)
    }
    fn s(&self, off: u32) -> bool {
        self.slots.contains(&off)
    }
    /// Any frame slot tainted — the conservative answer for
    /// dynamically indexed frame reads.
    fn any_slot(&self) -> bool {
        !self.slots.is_empty()
    }
    fn taint_reg(&mut self, r: u16, t: bool) -> bool {
        t && self.regs.insert(r)
    }
    fn taint_slot(&mut self, off: u32, t: bool) -> bool {
        t && self.slots.insert(off)
    }
}

/// Runs taint propagation over `ops` to a fixpoint.
fn propagate(ops: &[Op]) -> Taint {
    let mut t = Taint {
        regs: HashSet::new(),
        slots: HashSet::new(),
    };
    loop {
        let mut changed = false;
        for op in ops {
            changed |= match *op {
                Op::LeaLocal { dst, .. } => t.taint_reg(dst, true),
                Op::IndexAddrLeaL { dst, idx_off, .. } => {
                    // Seeds taint regardless of the index slot; the
                    // escape pass rejects a tainted index.
                    let _ = idx_off;
                    t.taint_reg(dst, true)
                }
                Op::ToPtr { dst, src } => t.taint_reg(dst, t.r(src)),
                Op::Conv { dst, src, .. } => t.taint_reg(dst, t.r(src)),
                Op::LoadLocal { dst, off } => t.taint_reg(dst, t.s(off)),
                Op::LoadLocal2 { dst, off_a, off_b } => {
                    let a = t.taint_reg(dst, t.s(off_a));
                    let b = t.taint_reg(dst + 1, t.s(off_b));
                    a | b
                }
                Op::LoadLocalImm { dst, off, .. } => t.taint_reg(dst, t.s(off)),
                Op::StoreLocal { off, src, dst, .. } => {
                    let v = t.r(src);
                    t.taint_slot(off, v) | t.taint_reg(dst, v)
                }
                // Deref through a tainted pointer reads a frame slot,
                // which may hold a tainted value stored by aliasing.
                Op::Load { dst, addr, .. } => t.taint_reg(dst, t.r(addr) && t.any_slot()),
                Op::LoadIdx { dst, base, .. } => t.taint_reg(dst, t.r(base) && t.any_slot()),
                Op::LoadIdxLL { dst, off_a, .. } => t.taint_reg(dst, t.s(off_a) && t.any_slot()),
                Op::LoadIdxLeaL { dst, .. } => t.taint_reg(dst, t.any_slot()),
                Op::IndexAddr { dst, base, .. } => t.taint_reg(dst, t.r(base)),
                Op::IndexAddrLL { dst, off_a, .. } => t.taint_reg(dst, t.s(off_a)),
                Op::MemberAddr { dst, src, .. } => t.taint_reg(dst, t.r(src)),
                Op::IncDecLocal { dst, off, .. } => t.taint_reg(dst, t.s(off)),
                Op::IncDec { dst, addr, .. } => t.taint_reg(dst, t.r(addr) && t.any_slot()),
                Op::CopyWords { dst, dst_addr, .. } => t.taint_reg(dst, t.r(dst_addr)),
                Op::Arith {
                    dst, a, b, mode, ..
                } => {
                    let v = mode_rule(mode, t.r(a), t.r(b)).unwrap_or(false);
                    t.taint_reg(dst, v)
                }
                Op::ArithLL {
                    dst,
                    off_a,
                    off_b,
                    mode,
                    ..
                } => {
                    let v = mode_rule(mode, t.s(off_a), t.s(off_b)).unwrap_or(false);
                    t.taint_reg(dst, v)
                }
                Op::ArithLI { dst, off, mode, .. } => {
                    let v = mode_rule(mode, t.s(off), false).unwrap_or(false);
                    t.taint_reg(dst, v)
                }
                Op::ArithRL { dst, off, mode, .. } => {
                    let v = mode_rule(mode, t.r(dst), t.s(off)).unwrap_or(false);
                    t.taint_reg(dst, v)
                }
                Op::ArithRI { dst, mode, .. } => {
                    let v = mode_rule(mode, t.r(dst), false).unwrap_or(false);
                    t.taint_reg(dst, v)
                }
                Op::StoreRR {
                    off,
                    a,
                    b,
                    mode,
                    dst,
                    ..
                } => {
                    let v = mode_rule(mode, t.r(a), t.r(b)).unwrap_or(false);
                    t.taint_slot(off, v) | t.taint_reg(dst, v)
                }
                Op::StoreLL {
                    off,
                    off_a,
                    off_b,
                    mode,
                    dst,
                    ..
                } => {
                    let v = mode_rule(mode, t.s(off_a), t.s(off_b)).unwrap_or(false);
                    t.taint_slot(off, v) | t.taint_reg(dst, v)
                }
                Op::StoreLI {
                    off,
                    off_a,
                    mode,
                    dst,
                    ..
                } => {
                    let v = mode_rule(mode, t.s(off_a), false).unwrap_or(false);
                    t.taint_slot(off, v) | t.taint_reg(dst, v)
                }
                Op::StoreRL {
                    off,
                    off_b,
                    mode,
                    dst,
                    ..
                } => {
                    let v = mode_rule(mode, t.r(dst), t.s(off_b)).unwrap_or(false);
                    t.taint_slot(off, v) | t.taint_reg(dst, v)
                }
                Op::StoreRI { off, mode, dst, .. } => {
                    let v = mode_rule(mode, t.r(dst), false).unwrap_or(false);
                    t.taint_slot(off, v) | t.taint_reg(dst, v)
                }
                Op::RmwLocal {
                    off,
                    src,
                    mode,
                    dst,
                    ..
                } => {
                    let v = mode_rule(mode, t.s(off), t.r(src)).unwrap_or(false);
                    t.taint_slot(off, v) | t.taint_reg(dst, v)
                }
                _ => false,
            };
        }
        if !changed {
            return t;
        }
    }
}

/// Whether a tainted value escapes or is observed anywhere in `ops`,
/// under the final taint assignment `t`.
fn escapes(ops: &[Op], t: &Taint) -> bool {
    let call_args_tainted = |argbase: u16, nargs: u16| (argbase..argbase + nargs).any(|r| t.r(r));
    ops.iter().any(|op| match *op {
        // Value observation.
        Op::Neg { src, .. } | Op::BitNot { src, .. } => t.r(src),
        Op::Conv { src, class, .. } => t.r(src) && !class_preserves_ptr(class),
        Op::SwitchJump { src, .. } => t.r(src),
        Op::Arith { a, b, mode, .. } => mode_rule(mode, t.r(a), t.r(b)).is_none(),
        Op::ArithLL {
            off_a, off_b, mode, ..
        } => mode_rule(mode, t.s(off_a), t.s(off_b)).is_none(),
        Op::ArithLI { off, mode, .. } => mode_rule(mode, t.s(off), false).is_none(),
        Op::ArithRL { dst, off, mode, .. } => mode_rule(mode, t.r(dst), t.s(off)).is_none(),
        Op::ArithRI { dst, mode, .. } => mode_rule(mode, t.r(dst), false).is_none(),
        Op::CmpBranchLL { off_a, off_b, .. } => t.s(off_a) != t.s(off_b),
        Op::CmpBranchLI { off, .. } => t.s(off),
        Op::CmpBranchRR { a, b, .. } => t.r(a) != t.r(b),
        Op::CmpBranchRL { a, off, .. } => t.r(a) != t.s(off),
        Op::CmpBranchRI { a, .. } => t.r(a),
        // Indexing by an address observes it.
        Op::IndexAddr { idx, .. } | Op::LoadIdx { idx, .. } => t.r(idx),
        Op::IndexAddrLL { off_b, .. } | Op::LoadIdxLL { off_b, .. } => t.s(off_b),
        Op::IndexAddrPL { idx_off, .. }
        | Op::IndexAddrLeaL { idx_off, .. }
        | Op::LoadIdxPL { idx_off, .. }
        | Op::LoadIdxLeaL { idx_off, .. } => t.s(idx_off),
        // Escape beyond the activation.
        Op::StoreLocal { src, class, .. } => t.r(src) && !class_preserves_ptr(class),
        Op::StoreGlobal { src, .. } => t.r(src),
        Op::Store { src, .. } => t.r(src),
        Op::Rmw { addr, src, .. } => t.r(src) || (t.r(addr) && t.any_slot()),
        Op::RmwLocal {
            off,
            src,
            mode,
            class,
            ..
        } => mode_rule(mode, t.s(off), t.r(src))
            .map(|v| v && !class_preserves_ptr(class))
            .unwrap_or(true),
        Op::RmwGlobal { src, mode, .. } => mode_rule(mode, false, t.r(src)) != Some(false),
        Op::StoreRR {
            a, b, mode, class, ..
        } => mode_rule(mode, t.r(a), t.r(b))
            .map(|v| v && !class_preserves_ptr(class))
            .unwrap_or(true),
        Op::StoreLL {
            off_a,
            off_b,
            mode,
            class,
            ..
        } => mode_rule(mode, t.s(off_a), t.s(off_b))
            .map(|v| v && !class_preserves_ptr(class))
            .unwrap_or(true),
        Op::StoreLI {
            off_a, mode, class, ..
        } => mode_rule(mode, t.s(off_a), false)
            .map(|v| v && !class_preserves_ptr(class))
            .unwrap_or(true),
        Op::StoreRL {
            dst,
            off_b,
            mode,
            class,
            ..
        } => mode_rule(mode, t.r(dst), t.s(off_b))
            .map(|v| v && !class_preserves_ptr(class))
            .unwrap_or(true),
        Op::StoreRI {
            dst, mode, class, ..
        } => mode_rule(mode, t.r(dst), false)
            .map(|v| v && !class_preserves_ptr(class))
            .unwrap_or(true),
        // A tainted value copied wholesale could smuggle a frame
        // address out through the destination pointer.
        Op::CopyWords { dst_addr, src, .. } => (t.r(dst_addr) || t.r(src)) && t.any_slot(),
        Op::Ret { src, .. } => t.r(src),
        Op::CallDirect { argbase, nargs, .. } => call_args_tainted(argbase, nargs),
        Op::CallBuiltin { argbase, nargs, .. } => call_args_tainted(argbase, nargs),
        Op::CallIndirect {
            callee,
            argbase,
            nargs,
            ..
        } => t.r(callee) || call_args_tainted(argbase, nargs),
        _ => false,
    })
}

/// Whether a callee body's frame addresses are *contained*: every
/// materialized frame address is only ever dereferenced, compared
/// against sibling frame addresses, or offset by clean integers —
/// never observed numerically, stored beyond the frame, returned, or
/// passed onward. Contained callees are safe to inline even though
/// the splice relocates their frame.
pub fn frame_contained(ops: &[Op]) -> bool {
    if !takes_frame_address(ops) {
        return true;
    }
    let t = propagate(ops);
    !escapes(ops, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::ast::BinOp;

    fn lea(dst: u16) -> Op {
        Op::LeaLocal { dst, off: 0 }
    }

    #[test]
    fn no_address_taken_is_trivially_contained() {
        let ops = [
            Op::LoadLocal { dst: 0, off: 0 },
            Op::Ret { src: 0, tick: 1 },
        ];
        assert!(frame_contained(&ops));
    }

    #[test]
    fn deref_only_is_contained() {
        let ops = [
            lea(0),
            Op::Load {
                dst: 1,
                addr: 0,
                tick: 1,
            },
            Op::Store {
                addr: 0,
                src: 2,
                class: TyClass::Int,
                dst: 2,
                tick: 1,
            },
            Op::Ret { src: 1, tick: 1 },
        ];
        assert!(frame_contained(&ops));
    }

    #[test]
    fn returning_frame_address_escapes() {
        let ops = [lea(0), Op::Ret { src: 0, tick: 1 }];
        assert!(!frame_contained(&ops));
    }

    #[test]
    fn passing_frame_address_to_call_escapes() {
        let ops = [
            lea(3),
            Op::CallDirect {
                func: 7,
                argbase: 3,
                nargs: 1,
                dst: 3,
                tick: 1,
            },
            Op::Ret { src: 3, tick: 1 },
        ];
        assert!(!frame_contained(&ops));
    }

    #[test]
    fn tainted_vs_tainted_compare_is_contained() {
        let ops = [
            lea(0),
            Op::ToPtr { dst: 1, src: 0 },
            Op::Arith {
                dst: 2,
                a: 0,
                b: 1,
                mode: ArithMode::Cmp(BinOp::Lt),
                tick: 1,
            },
            Op::Ret { src: 2, tick: 1 },
        ];
        assert!(frame_contained(&ops));
    }

    #[test]
    fn tainted_vs_clean_compare_escapes() {
        let ops = [
            lea(0),
            Op::Const {
                dst: 1,
                v: profiler::Value::Int(0),
            },
            Op::Arith {
                dst: 2,
                a: 0,
                b: 1,
                mode: ArithMode::Cmp(BinOp::Eq),
                tick: 1,
            },
            Op::Ret { src: 2, tick: 1 },
        ];
        assert!(!frame_contained(&ops));
    }

    #[test]
    fn pointer_walk_with_clean_offset_is_contained() {
        let ops = [
            lea(0),
            Op::Const {
                dst: 1,
                v: profiler::Value::Int(1),
            },
            Op::Arith {
                dst: 0,
                a: 0,
                b: 1,
                mode: ArithMode::PtrAddL(1),
                tick: 1,
            },
            Op::Load {
                dst: 2,
                addr: 0,
                tick: 1,
            },
            Op::Ret { src: 2, tick: 1 },
        ];
        assert!(frame_contained(&ops));
    }

    #[test]
    fn frame_address_through_slot_roundtrip_tracked() {
        // &x stored into a (Ptr-class) local, reloaded, returned: the
        // taint survives the slot round-trip and the Ret rejects it.
        let ops = [
            lea(0),
            Op::StoreLocal {
                off: 4,
                src: 0,
                class: TyClass::Ptr,
                dst: 0,
            },
            Op::LoadLocal { dst: 1, off: 4 },
            Op::Ret { src: 1, tick: 1 },
        ];
        assert!(!frame_contained(&ops));
    }

    #[test]
    fn numeric_observation_escapes() {
        let ops = [
            lea(0),
            Op::Conv {
                dst: 1,
                src: 0,
                class: TyClass::Int,
            },
            Op::Ret { src: 1, tick: 1 },
        ];
        assert!(!frame_contained(&ops));
    }
}
