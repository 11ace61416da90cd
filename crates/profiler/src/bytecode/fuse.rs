//! The superinstruction pair rules shared by the compiler and the
//! optimizer.
//!
//! The compiler's emitter tries [`fuse_pair`] on every op it emits
//! against the op before it (within a label region), and the
//! optimizer's `fuse` pass runs the same rules over its hot chunks.
//! Rules that are safe only under the emitter's register discipline
//! (operand loads folded into `Arith*`, `IndexAddr*` and `CmpBranch*`)
//! stay in the emitter; see the `compile` module docs.

use super::{Field, Op};
use crate::runtime::Value;

/// Fuses the adjacent pair `a; b` into one op, or `None` when no rule
/// matches.
///
/// The contract: the fused op writes every register and frame slot the
/// pair wrote, with the same values, so it is safe wherever the pair
/// is. It may drop a step charge: the `Arith → StoreLocal` rules keep
/// no tick of the arithmetic, so a caller that must keep every tick
/// compares the charges itself.
#[inline] // each emitter call site knows `b`'s variant
pub fn fuse_pair(a: Op, b: Op) -> Option<Op> {
    match (a, b) {
        (
            Op::LoadLocal { dst, off },
            Op::LoadLocal {
                dst: d2,
                off: off_b,
            },
        ) if dst.checked_add(1) == Some(d2) => Some(Op::LoadLocal2 {
            dst,
            off_a: off,
            off_b,
        }),
        (
            Op::LoadLocal { dst, off },
            Op::Const {
                dst: d2,
                v: Value::Int(imm),
            },
        ) if dst.checked_add(1) == Some(d2) => Some(Op::LoadLocalImm { dst, off, imm }),
        (
            Op::IndexAddr {
                dst,
                base,
                idx,
                elem,
            },
            Op::Load {
                dst: d2,
                addr,
                tick,
            },
        ) if addr == dst && d2 == dst => Some(Op::LoadIdx {
            dst,
            base,
            idx,
            elem,
            tick,
        }),
        (
            Op::IndexAddrLL {
                dst,
                off_a,
                off_b,
                elem,
            },
            Op::Load {
                dst: d2,
                addr,
                tick,
            },
        ) if addr == dst && d2 == dst => Some(Op::LoadIdxLL {
            dst,
            off_a,
            off_b,
            elem,
            tick,
        }),
        (
            Op::IndexAddrPL {
                dst,
                base,
                idx_off,
                elem,
            },
            Op::Load {
                dst: d2,
                addr,
                tick,
            },
        ) if addr == dst && d2 == dst => Some(Op::LoadIdxPL {
            dst,
            base,
            idx_off,
            elem,
            tick,
        }),
        (
            Op::IndexAddrLeaL {
                dst,
                lea_off,
                idx_off,
                elem,
            },
            Op::Load {
                dst: d2,
                addr,
                tick,
            },
        ) if addr == dst && d2 == dst => Some(Op::LoadIdxLeaL {
            dst,
            lea_off,
            idx_off,
            elem,
            tick,
        }),
        // The arithmetic's raw result register is transient: the
        // store rewrites it with the converted value.
        (
            Op::Arith {
                dst, a, b, mode, ..
            },
            Op::StoreLocal {
                off,
                src,
                class,
                dst: d2,
            },
        ) if src == dst && d2 == dst => Some(Op::StoreRR {
            off,
            a,
            b,
            mode,
            class,
            dst,
        }),
        (
            Op::ArithLL {
                dst,
                off_a,
                off_b,
                mode,
                ..
            },
            Op::StoreLocal {
                off,
                src,
                class,
                dst: d2,
            },
        ) if src == dst && d2 == dst => Some(Op::StoreLL {
            off,
            off_a,
            off_b,
            mode,
            class,
            dst,
        }),
        (
            Op::ArithLI {
                dst,
                off: off_a,
                imm,
                mode,
                ..
            },
            Op::StoreLocal {
                off,
                src,
                class,
                dst: d2,
            },
        ) if src == dst && d2 == dst => Some(Op::StoreLI {
            off,
            off_a,
            imm,
            mode,
            class,
            dst,
        }),
        (
            Op::ArithRL {
                dst,
                off: off_b,
                mode,
                ..
            },
            Op::StoreLocal {
                off,
                src,
                class,
                dst: d2,
            },
        ) if src == dst && d2 == dst => Some(Op::StoreRL {
            off,
            off_b,
            mode,
            class,
            dst,
        }),
        (
            Op::ArithRI { dst, imm, mode, .. },
            Op::StoreLocal {
                off,
                src,
                class,
                dst: d2,
            },
        ) if src == dst && d2 == dst => Some(Op::StoreRI {
            off,
            imm,
            mode,
            class,
            dst,
        }),
        _ => None,
    }
}

/// The step charge `op` carries: the sum of its [`Field::Tick`]s.
pub(super) fn ticks(mut op: Op) -> u32 {
    let mut n = 0;
    op.fields(|field| {
        if let Field::Tick(t) = field {
            n += *t;
        }
    });
    n
}
