//! A linear checker for the invariants the dispatch loop takes on
//! trust.
//!
//! The fast path reads registers, frame slots, static data and the op
//! stream without bounds checks, and indexes the counter arrays and
//! side tables with compiler-emitted indices. Two producers emit
//! bytecode — the compiler and the optimizer's lowering — so
//! [`verify`] states those invariants once and checks them after
//! both (in every build) and in the differential fuzzer. A violation
//! is a diagnostic naming the function, pc and operand, never UB.

use super::{CompiledProgram, FuncMeta, Op, SwitchTable, NONE32};

/// Checks every invariant the VM relies on:
///
/// - register operands lie below the function's `max_regs`;
/// - frame offsets (and zeroed / initialized frame ranges) lie below
///   its `frame_size`;
/// - static-data indices fall inside `data_image`;
/// - jump and switch targets fall inside the function's `code` range,
///   and so does its entry;
/// - edge, branch, call-site and function counter indices, and image,
///   fail and switch-table indices, are in range;
/// - direct calls name functions with a body;
/// - every block ends in a control transfer, and no function can run
///   off the end of its code;
/// - each function's counter plan stays inside the edge, block and
///   branch arrays.
///
/// # Errors
///
/// Returns a diagnostic for the first violation found.
pub fn verify(cp: &CompiledProgram) -> Result<(), String> {
    if let Some(main) = cp.main {
        if main.0 as usize >= cp.funcs.len() {
            return Err(format!("main id {} outside the function table", main.0));
        }
    }
    if cp.block_lens.len() != cp.funcs.len() || cp.counters.len() != cp.funcs.len() {
        return Err("per-function tables disagree in length".into());
    }
    let mut regs = Vec::new();
    let mut offs = Vec::new();
    for (f, meta) in cp.funcs.iter().enumerate() {
        if meta.entry == NONE32 {
            continue;
        }
        let fail = |pc: u32, msg: String| Err(format!("function `{}` pc {pc}: {msg}", meta.name));
        let (start, end) = meta.code;
        if start >= end || end as usize > cp.ops.len() {
            return fail(
                start,
                format!("code range {start}..{end} is empty or out of the stream"),
            );
        }
        if !(start..end).contains(&meta.entry) {
            return fail(meta.entry, "entry outside the code range".into());
        }
        if !cp.ops[end as usize - 1].is_terminator() {
            return fail(end - 1, "the code can run off its end".into());
        }
        for pc in start..end {
            let op = cp.ops[pc as usize];
            regs.clear();
            offs.clear();
            operands(&op, &mut regs, &mut offs);
            if let Some(r) = regs.iter().find(|&&r| r as u32 >= meta.max_regs) {
                return fail(
                    pc,
                    format!("register {r} outside a window of {}", meta.max_regs),
                );
            }
            if let Some(o) = offs.iter().find(|&&o| o >= meta.frame_size) {
                return fail(
                    pc,
                    format!("frame offset {o} outside a frame of {}", meta.frame_size),
                );
            }
            if let Err(msg) = check_indices(cp, meta, &op) {
                return fail(pc, msg);
            }
            let mut bad_target = None;
            let mut targets = op;
            targets.for_each_target(|t| {
                if !(start..end).contains(t) {
                    bad_target = Some(*t);
                }
            });
            if let Some(t) = bad_target {
                return fail(pc, format!("jump target {t} outside the code range"));
            }
        }
        check_blocks(meta, &cp.ops).or_else(|(pc, msg)| fail(pc, msg))?;
        check_plan(cp, f).or_else(|msg| fail(start, msg))?;
    }
    Ok(())
}

/// Index checks that need the program's tables.
fn check_indices(cp: &CompiledProgram, meta: &FuncMeta, op: &Op) -> Result<(), String> {
    let within = |what: &str, i: u32, n: usize, none_ok: bool| {
        if (none_ok && i == NONE32) || (i as usize) < n {
            Ok(())
        } else {
            Err(format!("{what} index {i} outside 0..{n}"))
        }
    };
    match *op {
        Op::BumpSite(i) => within("call-site counter", i, cp.n_sites, false),
        Op::BumpFunc(f) => within("function counter", f, cp.funcs.len(), false),
        Op::BumpBranch { branch, .. }
        | Op::CondBranch { branch, .. }
        | Op::CmpBranchLL { branch, .. }
        | Op::CmpBranchLI { branch, .. }
        | Op::CmpBranchRR { branch, .. }
        | Op::CmpBranchRL { branch, .. }
        | Op::CmpBranchRI { branch, .. }
        | Op::LoadLBranch { branch, .. }
        | Op::CmpBranchRCI { branch, .. } => within("branch counter", branch, cp.n_branches, true),
        Op::EdgeJump { edge, .. } | Op::StoreLEdge { edge, .. } | Op::IncDecLEdge { edge, .. } => {
            within("edge counter", edge, cp.edge_keys.len(), true)
        }
        Op::LoadGlobal { idx, .. }
        | Op::StoreGlobal { idx, .. }
        | Op::IncDecGlobal { idx, .. }
        | Op::RmwGlobal { idx, .. }
        | Op::ArithGI { idx, .. } => within("static-data", idx, cp.data_image.len(), false),
        Op::InitWordsLocal { off, img } => {
            within("image", img, cp.images.len(), false)?;
            let n = cp.images[img as usize].len() as u64;
            if u64::from(off) + n > u64::from(meta.frame_size) {
                return Err(format!("image {img} overruns the frame at offset {off}"));
            }
            Ok(())
        }
        Op::ZeroLocal { off, len } => {
            if u64::from(off) + u64::from(len) > u64::from(meta.frame_size) {
                return Err(format!("zeroing {len} words at {off} overruns the frame"));
            }
            Ok(())
        }
        Op::Fail(i) => within("fail", i, cp.fails.len(), false),
        Op::CallDirect { func, .. } => {
            within("callee", func, cp.funcs.len(), false)?;
            if cp.funcs[func as usize].entry == NONE32 {
                return Err(format!("direct call of bodiless function {func}"));
            }
            Ok(())
        }
        Op::SwitchJump { table, .. } => {
            within("switch table", table, cp.switch_tables.len(), false)?;
            let (start, end) = meta.code;
            let ok = |t: u32| (start..end).contains(&t);
            let fine = match &cp.switch_tables[table as usize] {
                SwitchTable::Dense {
                    targets, default, ..
                } => ok(*default) && targets.iter().all(|&t| t == NONE32 || ok(t)),
                SwitchTable::Sorted {
                    keys,
                    targets,
                    default,
                } => keys.len() == targets.len() && ok(*default) && targets.iter().all(|&t| ok(t)),
            };
            if fine {
                Ok(())
            } else {
                Err(format!("switch table {table} jumps outside the code range"))
            }
        }
        _ => Ok(()),
    }
}

/// Every block of compiled (not optimized) code ends in a control
/// transfer: an unconditional one, or a conditional whose fall-through
/// is the next block.
fn check_blocks(meta: &FuncMeta, ops: &[Op]) -> Result<(), (u32, String)> {
    let bp = &meta.block_pc;
    if bp.windows(2).any(|w| w[0] >= w[1]) {
        return Err((meta.code.0, "block starts are not ascending".into()));
    }
    for (b, &start) in bp.iter().enumerate() {
        let end = bp.get(b + 1).copied().unwrap_or(meta.code.1);
        if !(meta.code.0..meta.code.1).contains(&start) {
            return Err((start, format!("block {b} starts outside the code range")));
        }
        let mut last = ops[end as usize - 1];
        let mut conditional = false;
        last.for_each_target(|_| conditional = true);
        if !last.is_terminator() && !conditional {
            return Err((
                end - 1,
                format!("block {b} does not end in a control transfer"),
            ));
        }
    }
    Ok(())
}

/// The rebuild only touches the function's own edges, blocks and
/// branches.
fn check_plan(cp: &CompiledProgram, f: usize) -> Result<(), String> {
    let plan = &cp.counters[f];
    let (lo, hi) = plan.edges;
    let n_blocks = cp.block_lens[f];
    if lo > hi || hi as usize > cp.edge_keys.len() || plan.n_blocks != n_blocks {
        return Err("counter plan outside the edge or block arrays".into());
    }
    if n_blocks > 0 && plan.entry >= n_blocks {
        return Err(format!(
            "counter plan entry {} outside the blocks",
            plan.entry
        ));
    }
    let in_edges = |e: u32| (lo..hi).contains(&e);
    if cp.edge_keys[lo as usize..hi as usize]
        .iter()
        .any(|&(ef, s, d)| ef.0 as usize != f || s.0 >= n_blocks || d.0 >= n_blocks)
    {
        return Err("edge key outside the function".into());
    }
    if plan
        .peel
        .iter()
        .any(|p| p.leaf > n_blocks || p.other > n_blocks || (p.edge != NONE32 && !in_edges(p.edge)))
    {
        return Err("peeling step outside the function".into());
    }
    if plan
        .branches
        .iter()
        .any(|&(b, t, e)| b as usize >= cp.n_branches || !in_edges(t) || !in_edges(e))
    {
        return Err("derived branch outside the branch or edge arrays".into());
    }
    Ok(())
}

/// Collects the op's register operands into `regs` and its frame
/// offsets into `offs` (`MemberAddr`'s struct offset and the static
/// addresses of the `*PL` forms are not frame offsets).
fn operands(op: &Op, regs: &mut Vec<u16>, offs: &mut Vec<u32>) {
    let range = |regs: &mut Vec<u16>, base: u16, n: u16| {
        if n > 0 {
            regs.push(base);
            regs.push(base.saturating_add(n - 1));
        }
    };
    match *op {
        Op::Tick(_)
        | Op::BumpSite(_)
        | Op::BumpFunc(_)
        | Op::BumpBranch { .. }
        | Op::Jump { .. }
        | Op::EdgeJump { .. }
        | Op::Fail(_)
        | Op::ConstRet { .. } => {}
        Op::Mov { dst, src }
        | Op::ToPtr { dst, src }
        | Op::Bool { dst, src }
        | Op::LogicNot { dst, src }
        | Op::Neg { dst, src }
        | Op::BitNot { dst, src }
        | Op::Conv { dst, src, .. }
        | Op::MemberAddr { dst, src, .. } => regs.extend([dst, src]),
        Op::Const { dst, .. }
        | Op::LoadGlobal { dst, .. }
        | Op::IncDecGlobal { dst, .. }
        | Op::ArithGI { dst, .. }
        | Op::ConstJump { dst, .. }
        | Op::ArithRI { dst, .. } => regs.push(dst),
        Op::LeaLocal { dst, off }
        | Op::LoadLocal { dst, off }
        | Op::IncDecLocal { dst, off, .. }
        | Op::ArithLI { dst, off, .. }
        | Op::ArithRL { dst, off, .. }
        | Op::IncDecLEdge { dst, off, .. }
        | Op::LoadLBranch { dst, off, .. }
        | Op::ArithRLJumpF { dst, off, .. }
        | Op::StoreRI { dst, off, .. } => {
            regs.push(dst);
            offs.push(off);
        }
        Op::LoadLocal2 { dst, off_a, off_b } => {
            regs.extend([dst, dst.saturating_add(1)]);
            offs.extend([off_a, off_b]);
        }
        Op::LoadLocalImm { dst, off, .. } => {
            regs.extend([dst, dst.saturating_add(1)]);
            offs.push(off);
        }
        Op::StoreLocal { off, src, dst, .. } | Op::RmwLocal { off, src, dst, .. } => {
            regs.extend([src, dst]);
            offs.push(off);
        }
        Op::StoreGlobal { src, dst, .. } | Op::RmwGlobal { src, dst, .. } => {
            regs.extend([src, dst])
        }
        Op::Load { dst, addr, .. } | Op::IncDec { dst, addr, .. } => regs.extend([dst, addr]),
        Op::Store { addr, src, dst, .. } | Op::Rmw { addr, src, dst, .. } => {
            regs.extend([addr, src, dst])
        }
        Op::CopyWords {
            dst_addr, src, dst, ..
        } => regs.extend([dst_addr, src, dst]),
        Op::InitWordsLocal { off, .. } | Op::ZeroLocal { off, .. } => offs.push(off),
        Op::IndexAddr { dst, base, idx, .. } | Op::LoadIdx { dst, base, idx, .. } => {
            regs.extend([dst, base, idx])
        }
        Op::IndexAddrLL {
            dst, off_a, off_b, ..
        }
        | Op::LoadIdxLL {
            dst, off_a, off_b, ..
        }
        | Op::ArithLL {
            dst, off_a, off_b, ..
        } => {
            regs.push(dst);
            offs.extend([off_a, off_b]);
        }
        Op::IndexAddrPL { dst, idx_off, .. } | Op::LoadIdxPL { dst, idx_off, .. } => {
            regs.push(dst);
            offs.push(idx_off);
        }
        Op::IndexAddrLeaL {
            dst,
            lea_off,
            idx_off,
            ..
        }
        | Op::LoadIdxLeaL {
            dst,
            lea_off,
            idx_off,
            ..
        } => {
            regs.push(dst);
            offs.extend([lea_off, idx_off]);
        }
        Op::Arith { dst, a, b, .. } => regs.extend([dst, a, b]),
        Op::StoreRR { off, a, b, dst, .. } => {
            regs.extend([a, b, dst]);
            offs.push(off);
        }
        Op::StoreLL {
            off,
            off_a,
            off_b,
            dst,
            ..
        } => {
            regs.push(dst);
            offs.extend([off, off_a, off_b]);
        }
        Op::StoreLI {
            off, off_a, dst, ..
        } => {
            regs.push(dst);
            offs.extend([off, off_a]);
        }
        Op::StoreRL {
            off, off_b, dst, ..
        } => {
            regs.push(dst);
            offs.extend([off, off_b]);
        }
        Op::JumpIfFalse { src, .. }
        | Op::JumpIfTrue { src, .. }
        | Op::CondBranch { src, .. }
        | Op::SwitchJump { src, .. }
        | Op::CheckFn { src, .. }
        | Op::Ret { src, .. } => regs.push(src),
        Op::CmpBranchLL { off_a, off_b, .. } => offs.extend([off_a, off_b]),
        Op::CmpBranchLI { off, .. } => offs.push(off),
        Op::CmpBranchRR { a, b, .. } => regs.extend([a, b]),
        Op::CmpBranchRL { a, off, .. } => {
            regs.push(a);
            offs.push(off);
        }
        Op::CmpBranchRI { a, .. } => regs.push(a),
        Op::CmpBranchRCI { a, dst, .. } => regs.extend([a, dst]),
        Op::CallDirect {
            argbase,
            nargs,
            dst,
            ..
        }
        | Op::CallBuiltin {
            argbase,
            nargs,
            dst,
            ..
        } => {
            regs.push(dst);
            range(regs, argbase, nargs);
        }
        Op::CallIndirect {
            callee,
            argbase,
            nargs,
            dst,
            ..
        } => {
            regs.extend([callee, dst]);
            range(regs, argbase, nargs);
        }
        Op::StoreLEdge { off, src, .. } => {
            regs.push(src);
            offs.push(off);
        }
        Op::LoadIdxLR { dst, off, idx, .. } => {
            regs.extend([dst, idx]);
            offs.push(off);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> CompiledProgram {
        let module = minic::compile(src).expect("valid MiniC");
        super::super::compile(&flowgraph::build_program(module))
    }

    const LOOP: &str = r#"
        int g[4];
        int t;
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 4; i++) { g[i] = i; s += g[i]; }
            switch (s) { case 1: return 1; case 6: s = 2; break; default: s = 3; }
            t = s;
            return t;
        }
    "#;

    #[test]
    fn compiled_code_verifies() {
        assert_eq!(verify(&compiled(LOOP)), Ok(()));
    }

    #[test]
    fn corrupted_code_is_a_diagnostic() {
        let good = compiled(LOOP);
        let f = good.main.unwrap().0 as usize;
        let (start, end) = good.funcs[f].code;

        let mut cp = good.clone();
        cp.funcs[f].max_regs = 0;
        assert!(verify(&cp).unwrap_err().contains("register"));

        let mut cp = good.clone();
        cp.funcs[f].frame_size = 0;
        assert!(verify(&cp).unwrap_err().contains("frame"));

        let mut cp = good.clone();
        cp.data_image.clear();
        assert!(verify(&cp).unwrap_err().contains("static-data"));

        let mut cp = good.clone();
        cp.edge_keys.clear();
        assert!(verify(&cp).is_err());

        let mut cp = good.clone();
        let jump = (start..end)
            .find(|&pc| matches!(cp.ops[pc as usize], Op::EdgeJump { .. }))
            .expect("a loop has an edge stub");
        cp.ops[jump as usize].for_each_target(|t| *t = end + 7);
        assert!(verify(&cp).unwrap_err().contains("jump target"));

        let mut cp = good.clone();
        cp.ops[end as usize - 1] = Op::Tick(1);
        assert!(verify(&cp).unwrap_err().contains("run off"));
    }
}
