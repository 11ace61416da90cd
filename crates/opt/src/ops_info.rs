//! Structural metadata about [`Op`]s: which fields are jump targets,
//! register operands, frame offsets, or tick payloads.
//!
//! The optimizer rewrites ops generically (retargeting jumps when
//! chunks move, rebasing registers and frame slots when a callee is
//! spliced into its caller), so every field of every op must be
//! classified exactly once: here, except the jump targets, which
//! `Op::for_each_target` classifies for the VM's verifier too. Fields that *look* like offsets but
//! are not frame-relative — [`Op::MemberAddr`]'s struct-member offset,
//! the static-data indices of the `*Global` ops, the absolute data
//! addresses in [`Op::IndexAddrPL`]/[`Op::LoadIdxPL`] — are
//! deliberately left untouched by the rebase helpers.

use profiler::bytecode::Op;

/// Register operands of one op, for chunk-local liveness.
#[derive(Debug, Default)]
pub struct RegUses {
    /// Registers read individually.
    pub reads: Vec<u16>,
    /// A contiguous read range `(base, len)` — call arguments.
    pub read_range: Option<(u16, u16)>,
    /// Registers written (always written on success).
    pub writes: Vec<u16>,
    /// No side effect beyond `writes`, and infallible: the op can be
    /// deleted when every written register is overwritten before any
    /// read.
    pub pure: bool,
}

/// Classifies one op's register operands.
pub fn reg_uses(op: &Op) -> RegUses {
    let mut u = RegUses::default();
    match *op {
        Op::Tick(_)
        | Op::BumpSite(_)
        | Op::BumpFunc(_)
        | Op::BumpBranch { .. }
        | Op::InitWordsLocal { .. }
        | Op::ZeroLocal { .. }
        | Op::Jump { .. }
        | Op::CmpBranchLL { .. }
        | Op::CmpBranchLI { .. }
        | Op::EdgeJump { .. }
        | Op::Fail(_) => {}
        Op::Mov { dst, src } => {
            u.reads.push(src);
            u.writes.push(dst);
            u.pure = true;
        }
        Op::Const { dst, .. } => {
            u.writes.push(dst);
            u.pure = true;
        }
        Op::LeaLocal { dst, .. } | Op::LoadLocal { dst, .. } | Op::LoadGlobal { dst, .. } => {
            u.writes.push(dst);
            u.pure = true;
        }
        Op::LoadLocal2 { dst, .. } | Op::LoadLocalImm { dst, .. } => {
            u.writes.push(dst);
            u.writes.push(dst + 1);
            u.pure = true;
        }
        Op::StoreLocal { src, dst, .. } | Op::StoreGlobal { src, dst, .. } => {
            u.reads.push(src);
            u.writes.push(dst);
        }
        Op::Load { dst, addr, .. } => {
            u.reads.push(addr);
            u.writes.push(dst);
        }
        Op::Store { addr, src, dst, .. } => {
            u.reads.push(addr);
            u.reads.push(src);
            u.writes.push(dst);
        }
        Op::CopyWords {
            dst_addr, src, dst, ..
        } => {
            u.reads.push(dst_addr);
            u.reads.push(src);
            u.writes.push(dst);
        }
        Op::ToPtr { dst, src }
        | Op::Bool { dst, src }
        | Op::LogicNot { dst, src }
        | Op::Neg { dst, src }
        | Op::BitNot { dst, src }
        | Op::Conv { dst, src, .. } => {
            u.reads.push(src);
            u.writes.push(dst);
            u.pure = true;
        }
        Op::IndexAddr { dst, base, idx, .. } => {
            u.reads.push(base);
            u.reads.push(idx);
            u.writes.push(dst);
            u.pure = true;
        }
        Op::IndexAddrLL { dst, .. }
        | Op::IndexAddrPL { dst, .. }
        | Op::IndexAddrLeaL { dst, .. } => {
            u.writes.push(dst);
            u.pure = true;
        }
        Op::LoadIdx { dst, base, idx, .. } => {
            u.reads.push(base);
            u.reads.push(idx);
            u.writes.push(dst);
        }
        Op::LoadIdxLL { dst, .. } | Op::LoadIdxPL { dst, .. } | Op::LoadIdxLeaL { dst, .. } => {
            u.writes.push(dst);
        }
        Op::MemberAddr { dst, src, .. } => {
            u.reads.push(src);
            u.writes.push(dst);
        }
        Op::IncDecLocal { dst, .. } | Op::IncDecGlobal { dst, .. } => {
            u.writes.push(dst);
        }
        Op::IncDec { dst, addr, .. } => {
            u.reads.push(addr);
            u.writes.push(dst);
        }
        Op::Arith {
            dst, a, b, mode, ..
        } => {
            u.reads.push(a);
            u.reads.push(b);
            u.writes.push(dst);
            u.pure = !mode.fallible();
        }
        Op::ArithLL { dst, mode, .. } | Op::ArithLI { dst, mode, .. } => {
            u.writes.push(dst);
            u.pure = !mode.fallible();
        }
        Op::ArithRL { dst, mode, .. } | Op::ArithRI { dst, mode, .. } => {
            u.reads.push(dst);
            u.writes.push(dst);
            u.pure = !mode.fallible();
        }
        Op::StoreRR { a, b, dst, .. } => {
            u.reads.push(a);
            u.reads.push(b);
            u.writes.push(dst);
        }
        Op::StoreLL { dst, .. } | Op::StoreLI { dst, .. } => {
            u.writes.push(dst);
        }
        Op::StoreRL { dst, .. } | Op::StoreRI { dst, .. } => {
            u.reads.push(dst);
            u.writes.push(dst);
        }
        Op::RmwLocal { src, dst, .. } | Op::RmwGlobal { src, dst, .. } => {
            u.reads.push(src);
            u.writes.push(dst);
        }
        Op::Rmw { addr, src, dst, .. } => {
            u.reads.push(addr);
            u.reads.push(src);
            u.writes.push(dst);
        }
        Op::JumpIfFalse { src, .. }
        | Op::JumpIfTrue { src, .. }
        | Op::CondBranch { src, .. }
        | Op::SwitchJump { src, .. }
        | Op::CheckFn { src, .. }
        | Op::Ret { src, .. } => {
            u.reads.push(src);
        }
        Op::CmpBranchRR { a, b, .. } => {
            u.reads.push(a);
            u.reads.push(b);
        }
        Op::CmpBranchRL { a, .. } | Op::CmpBranchRI { a, .. } => {
            u.reads.push(a);
        }
        Op::CallDirect {
            argbase,
            nargs,
            dst,
            ..
        } => {
            u.read_range = Some((argbase, nargs));
            u.writes.push(dst);
        }
        Op::CallIndirect {
            callee,
            argbase,
            nargs,
            dst,
            ..
        } => {
            u.reads.push(callee);
            u.read_range = Some((argbase, nargs));
            u.writes.push(dst);
        }
        Op::CallBuiltin {
            argbase,
            nargs,
            dst,
            ..
        } => {
            u.read_range = Some((argbase, nargs));
            u.writes.push(dst);
        }
        Op::ConstRet { .. } => {}
        Op::ConstJump { dst, .. }
        | Op::IncDecLEdge { dst, .. }
        | Op::LoadLBranch { dst, .. }
        | Op::ArithGI { dst, .. } => {
            u.writes.push(dst);
        }
        Op::StoreLEdge { src, .. } => {
            u.reads.push(src);
            u.writes.push(src);
        }
        Op::CmpBranchRCI { a, dst, .. } => {
            u.reads.push(a);
            u.writes.push(dst);
        }
        Op::ArithRLJumpF { dst, .. } => {
            u.reads.push(dst);
            u.writes.push(dst);
        }
        Op::LoadIdxLR { dst, idx, .. } => {
            u.reads.push(idx);
            u.writes.push(dst);
        }
    }
    u
}

/// The jump targets of `op` (not counting switch tables; the fields
/// themselves are classified by [`Op::for_each_target`]).
pub fn targets(op: &Op) -> Vec<u32> {
    let mut out = Vec::new();
    let mut copy = *op;
    copy.for_each_target(|t| out.push(*t));
    out
}

/// The op's batched-tick payload, if it carries one.
pub fn tick_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Load { tick, .. }
        | Op::Store { tick, .. }
        | Op::CopyWords { tick, .. }
        | Op::LoadIdx { tick, .. }
        | Op::LoadIdxLL { tick, .. }
        | Op::LoadIdxPL { tick, .. }
        | Op::LoadIdxLeaL { tick, .. }
        | Op::MemberAddr { tick, .. }
        | Op::IncDec { tick, .. }
        | Op::Arith { tick, .. }
        | Op::ArithLL { tick, .. }
        | Op::ArithLI { tick, .. }
        | Op::ArithRL { tick, .. }
        | Op::ArithRI { tick, .. }
        | Op::RmwLocal { tick, .. }
        | Op::RmwGlobal { tick, .. }
        | Op::Rmw { tick, .. }
        | Op::Jump { tick, .. }
        | Op::JumpIfFalse { tick, .. }
        | Op::JumpIfTrue { tick, .. }
        | Op::CondBranch { tick, .. }
        | Op::CmpBranchLL { tick, .. }
        | Op::CmpBranchLI { tick, .. }
        | Op::CmpBranchRR { tick, .. }
        | Op::CmpBranchRL { tick, .. }
        | Op::CmpBranchRI { tick, .. }
        | Op::SwitchJump { tick, .. }
        | Op::EdgeJump { tick, .. }
        | Op::CheckFn { tick, .. }
        | Op::CallDirect { tick, .. }
        | Op::CallIndirect { tick, .. }
        | Op::CallBuiltin { tick, .. }
        | Op::Ret { tick, .. }
        | Op::ConstJump { tick, .. }
        | Op::ConstRet { tick, .. }
        | Op::StoreLEdge { tick, .. }
        | Op::IncDecLEdge { tick, .. }
        | Op::LoadLBranch { tick, .. }
        | Op::ArithGI { tick, .. }
        | Op::CmpBranchRCI { tick, .. }
        | Op::ArithRLJumpF { tick, .. }
        | Op::LoadIdxLR { tick, .. } => Some(tick),
        _ => None,
    }
}

/// Ops that only bump profile counters: free under the dispatch-cost
/// model (and zero-tick in the original stream).
pub fn is_zero_cost(op: &Op) -> bool {
    matches!(
        op,
        Op::BumpSite(_) | Op::BumpFunc(_) | Op::BumpBranch { .. }
    )
}

/// Whether `op` can write memory through a pointer or run arbitrary
/// code — anything after which no frame-slot value can be assumed
/// (frame addresses escape via `LeaLocal`, so stores through pointers
/// and calls may alias any slot).
pub fn clobbers_frame(op: &Op) -> bool {
    matches!(
        op,
        Op::Store { .. }
            | Op::CopyWords { .. }
            | Op::IncDec { .. }
            | Op::Rmw { .. }
            | Op::CallDirect { .. }
            | Op::CallIndirect { .. }
            | Op::CallBuiltin { .. }
            | Op::StoreLEdge { .. }
            | Op::IncDecLEdge { .. }
    )
}

/// Adds `rb` to every register field (inlining a callee at register
/// base `rb`).
pub fn rebase_regs(op: &mut Op, rb: u16) {
    match op {
        Op::Mov { dst, src }
        | Op::ToPtr { dst, src }
        | Op::Bool { dst, src }
        | Op::LogicNot { dst, src }
        | Op::Neg { dst, src }
        | Op::BitNot { dst, src }
        | Op::Conv { dst, src, .. }
        | Op::MemberAddr { dst, src, .. } => {
            *dst += rb;
            *src += rb;
        }
        Op::Const { dst, .. }
        | Op::LeaLocal { dst, .. }
        | Op::LoadLocal { dst, .. }
        | Op::LoadLocal2 { dst, .. }
        | Op::LoadLocalImm { dst, .. }
        | Op::LoadGlobal { dst, .. }
        | Op::IndexAddrLL { dst, .. }
        | Op::IndexAddrPL { dst, .. }
        | Op::IndexAddrLeaL { dst, .. }
        | Op::LoadIdxLL { dst, .. }
        | Op::LoadIdxPL { dst, .. }
        | Op::LoadIdxLeaL { dst, .. }
        | Op::IncDecLocal { dst, .. }
        | Op::IncDecGlobal { dst, .. }
        | Op::ArithLL { dst, .. }
        | Op::ArithLI { dst, .. }
        | Op::ArithRL { dst, .. }
        | Op::ArithRI { dst, .. }
        | Op::StoreLL { dst, .. }
        | Op::StoreLI { dst, .. }
        | Op::StoreRL { dst, .. }
        | Op::StoreRI { dst, .. } => *dst += rb,
        Op::StoreLocal { src, dst, .. }
        | Op::StoreGlobal { src, dst, .. }
        | Op::RmwLocal { src, dst, .. }
        | Op::RmwGlobal { src, dst, .. } => {
            *src += rb;
            *dst += rb;
        }
        Op::Load { dst, addr, .. } | Op::IncDec { dst, addr, .. } => {
            *dst += rb;
            *addr += rb;
        }
        Op::Store { addr, src, dst, .. } | Op::Rmw { addr, src, dst, .. } => {
            *addr += rb;
            *src += rb;
            *dst += rb;
        }
        Op::CopyWords {
            dst_addr, src, dst, ..
        } => {
            *dst_addr += rb;
            *src += rb;
            *dst += rb;
        }
        Op::IndexAddr { dst, base, idx, .. } => {
            *dst += rb;
            *base += rb;
            *idx += rb;
        }
        Op::LoadIdx { dst, base, idx, .. } => {
            *dst += rb;
            *base += rb;
            *idx += rb;
        }
        Op::Arith { dst, a, b, .. } | Op::StoreRR { a, b, dst, .. } => {
            *dst += rb;
            *a += rb;
            *b += rb;
        }
        Op::JumpIfFalse { src, .. }
        | Op::JumpIfTrue { src, .. }
        | Op::CondBranch { src, .. }
        | Op::SwitchJump { src, .. }
        | Op::CheckFn { src, .. }
        | Op::Ret { src, .. } => *src += rb,
        Op::CmpBranchRR { a, b, .. } => {
            *a += rb;
            *b += rb;
        }
        Op::CmpBranchRL { a, .. } | Op::CmpBranchRI { a, .. } => *a += rb,
        Op::ConstJump { dst, .. }
        | Op::StoreLEdge { src: dst, .. }
        | Op::IncDecLEdge { dst, .. }
        | Op::LoadLBranch { dst, .. }
        | Op::ArithGI { dst, .. }
        | Op::ArithRLJumpF { dst, .. } => *dst += rb,
        Op::CmpBranchRCI { a, dst, .. } => {
            *a += rb;
            *dst += rb;
        }
        Op::LoadIdxLR { dst, idx, .. } => {
            *dst += rb;
            *idx += rb;
        }
        Op::ConstRet { .. } => {}
        Op::CallDirect { argbase, dst, .. } | Op::CallBuiltin { argbase, dst, .. } => {
            *argbase += rb;
            *dst += rb;
        }
        Op::CallIndirect {
            callee,
            argbase,
            dst,
            ..
        } => {
            *callee += rb;
            *argbase += rb;
            *dst += rb;
        }
        Op::Tick(_)
        | Op::BumpSite(_)
        | Op::BumpFunc(_)
        | Op::BumpBranch { .. }
        | Op::InitWordsLocal { .. }
        | Op::ZeroLocal { .. }
        | Op::Jump { .. }
        | Op::CmpBranchLL { .. }
        | Op::CmpBranchLI { .. }
        | Op::EdgeJump { .. }
        | Op::Fail(_) => {}
    }
}

/// Adds `fb` to every frame-offset field (inlining a callee at frame
/// base `fb`). Struct-member offsets, static-data indices, and
/// absolute data addresses are not frame-relative and stay put.
pub fn rebase_frame(op: &mut Op, fb: u32) {
    match op {
        Op::LeaLocal { off, .. }
        | Op::LoadLocal { off, .. }
        | Op::LoadLocalImm { off, .. }
        | Op::StoreLocal { off, .. }
        | Op::InitWordsLocal { off, .. }
        | Op::ZeroLocal { off, .. }
        | Op::IncDecLocal { off, .. }
        | Op::ArithLI { off, .. }
        | Op::ArithRL { off, .. }
        | Op::RmwLocal { off, .. }
        | Op::CmpBranchLI { off, .. }
        | Op::CmpBranchRL { off, .. } => *off += fb,
        Op::LoadLocal2 { off_a, off_b, .. }
        | Op::IndexAddrLL { off_a, off_b, .. }
        | Op::LoadIdxLL { off_a, off_b, .. }
        | Op::ArithLL { off_a, off_b, .. }
        | Op::CmpBranchLL { off_a, off_b, .. } => {
            *off_a += fb;
            *off_b += fb;
        }
        Op::IndexAddrPL { idx_off, .. } | Op::LoadIdxPL { idx_off, .. } => *idx_off += fb,
        Op::IndexAddrLeaL {
            lea_off, idx_off, ..
        }
        | Op::LoadIdxLeaL {
            lea_off, idx_off, ..
        } => {
            *lea_off += fb;
            *idx_off += fb;
        }
        Op::StoreRR { off, .. } | Op::StoreRI { off, .. } => *off += fb,
        Op::StoreLL {
            off, off_a, off_b, ..
        } => {
            *off += fb;
            *off_a += fb;
            *off_b += fb;
        }
        Op::StoreLI { off, off_a, .. } => {
            *off += fb;
            *off_a += fb;
        }
        Op::StoreRL { off, off_b, .. } => {
            *off += fb;
            *off_b += fb;
        }
        Op::StoreLEdge { off, .. }
        | Op::IncDecLEdge { off, .. }
        | Op::LoadLBranch { off, .. }
        | Op::ArithRLJumpF { off, .. }
        | Op::LoadIdxLR { off, .. } => *off += fb,
        _ => {}
    }
}
