//! A linear checker for the invariants the dispatch loop takes on
//! trust.
//!
//! The fast path reads registers, frame slots, static data and the op
//! stream without bounds checks, and indexes the counter arrays and
//! side tables with compiler-emitted indices. Two producers emit
//! bytecode — the compiler and the optimizer's lowering — so
//! [`verify`] states those invariants once. It runs in one place,
//! [`CompiledProgram::new`](super::CompiledProgram::new), the only
//! constructor of an image the VM runs, which both producers build
//! through in every build. Which field of an op is a register, a frame
//! offset, a jump target or a table index comes from [`Op::fields`],
//! the same description the optimizer rewrites by. A violation is a
//! diagnostic naming the function, pc and operand, never UB.

use super::{Field, FuncMeta, Op, Parts, SwitchTable, Table, NONE32};

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
/// - each function's counter plan, prototypes' too, stays inside the
///   edge and branch arrays and its own blocks.
///
/// # Errors
///
/// Returns a diagnostic for the first violation found.
pub fn verify(cp: &Parts) -> Result<(), String> {
    if let Some(main) = cp.main {
        if main.0 as usize >= cp.funcs.len() {
            return Err(format!("main id {} outside the function table", main.0));
        }
    }
    if cp.counters.len() != cp.funcs.len() {
        return Err("per-function tables disagree in length".into());
    }
    for (f, meta) in cp.funcs.iter().enumerate() {
        let fail = |pc: u32, msg: String| Err(format!("function `{}` pc {pc}: {msg}", meta.name));
        // Every function's counter range becomes its profile edge row.
        check_plan(cp, f).or_else(|msg| fail(meta.code.0, msg))?;
        if meta.entry == NONE32 {
            continue;
        }
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
            let mut bad = None;
            let mut fields = op;
            fields.fields(|field| {
                if let Err(b) = check_field(cp, meta, field) {
                    bad = bad.or(Some(b));
                }
            });
            if let Some(b) = bad {
                return fail(pc, b.message(cp, meta));
            }
            check_span(cp, meta, op).or_else(|msg| fail(pc, msg))?;
        }
        check_blocks(meta, &cp.ops).or_else(|(pc, msg)| fail(pc, msg))?;
    }
    Ok(())
}

/// An operand the dispatch loop could not trust, rendered only when
/// verification fails.
#[derive(Clone, Copy)]
enum Bad {
    Register(u32),
    Frame(u32),
    Target(u32),
    Index(Table, u32),
    Bodiless(u32),
    Switch(u32),
}

impl Bad {
    fn message(self, cp: &Parts, meta: &FuncMeta) -> String {
        match self {
            Bad::Register(r) => format!("register {r} outside a window of {}", meta.max_regs),
            Bad::Frame(o) => format!("frame offset {o} outside a frame of {}", meta.frame_size),
            Bad::Target(t) => format!("jump target {t} outside the code range"),
            Bad::Index(table, i) => {
                let (what, n, _) = table_len(cp, table);
                format!("{what} index {i} outside 0..{n}")
            }
            Bad::Bodiless(f) => format!("direct call of bodiless function {f}"),
            Bad::Switch(t) => format!("switch table {t} jumps outside the code range"),
        }
    }
}

/// Checks one field of an op against its function's window, frame
/// and code range and the program's tables. Inlined into each arm of
/// `Op::fields`, a passing field costs a compare or two.
#[inline(always)]
fn check_field(cp: &Parts, meta: &FuncMeta, field: Field<'_>) -> Result<(), Bad> {
    let reg = |r: u32| {
        if r < meta.max_regs {
            Ok(())
        } else {
            Err(Bad::Register(r))
        }
    };
    match field {
        Field::Read(r) | Field::Write(r) | Field::ReadWrite(r) => reg(u32::from(*r)),
        Field::WritePair(r) => reg(u32::from(*r) + 1),
        Field::Args(_, 0) | Field::Tick(_) => Ok(()),
        Field::Args(base, n) => reg(u32::from(*base) + u32::from(n) - 1),
        Field::Frame(&mut o) if o >= meta.frame_size => Err(Bad::Frame(o)),
        Field::Target(&mut t) if !(meta.code.0..meta.code.1).contains(&t) => Err(Bad::Target(t)),
        Field::Frame(_) | Field::Target(_) => Ok(()),
        Field::Index(table, &mut i) => {
            let (_, n, none_ok) = table_len(cp, table);
            if !((none_ok && i == NONE32) || (i as usize) < n) {
                Err(Bad::Index(table, i))
            } else if table == Table::Callee && cp.funcs[i as usize].entry == NONE32 {
                Err(Bad::Bodiless(i))
            } else if table == Table::Switch && !switch_fine(cp, meta, i) {
                Err(Bad::Switch(i))
            } else {
                Ok(())
            }
        }
    }
}

/// A side table's name and length, and whether [`NONE32`] ("not
/// counted") is a valid index into it.
#[inline(always)]
fn table_len(cp: &Parts, table: Table) -> (&'static str, usize, bool) {
    match table {
        Table::Site => ("call-site counter", cp.n_sites, false),
        Table::Func => ("function counter", cp.funcs.len(), false),
        Table::Callee => ("callee", cp.funcs.len(), false),
        Table::Branch => ("branch counter", cp.n_branches, true),
        Table::Edge => ("edge counter", cp.edge_keys.len(), true),
        Table::Data => ("static-data", cp.data_image.len(), false),
        Table::Image => ("image", cp.images.len(), false),
        Table::Fail => ("fail", cp.fails.len(), false),
        Table::Switch => ("switch table", cp.switch_tables.len(), false),
    }
}

/// Whether switch table `i` only jumps inside the function.
fn switch_fine(cp: &Parts, meta: &FuncMeta, i: u32) -> bool {
    let mut sw = cp.switch_tables[i as usize].clone();
    let mut fine =
        !matches!(&sw, SwitchTable::Sorted { keys, targets, .. } if keys.len() != targets.len());
    sw.for_each_target(|t| fine &= (meta.code.0..meta.code.1).contains(t));
    fine
}

/// The two ops that write a run of frame words must stay inside the
/// frame (their first word is a [`Field::Frame`] too).
fn check_span(cp: &Parts, meta: &FuncMeta, op: Op) -> Result<(), String> {
    let (off, len) = match op {
        Op::InitWordsLocal { off, img } => (off, cp.images[img as usize].len() as u64),
        Op::ZeroLocal { off, len } => (off, u64::from(len)),
        _ => return Ok(()),
    };
    if u64::from(off) + len > u64::from(meta.frame_size) {
        return Err(format!("{len} words at offset {off} overrun the frame"));
    }
    Ok(())
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
fn check_plan(cp: &Parts, f: usize) -> Result<(), String> {
    let plan = &cp.counters[f];
    let (lo, hi) = plan.edges;
    let n_blocks = plan.n_blocks;
    if lo > hi || hi as usize > cp.edge_keys.len() {
        return Err("counter plan outside the edge array".into());
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
        .any(|&(s, d)| s.0 >= n_blocks || d.0 >= n_blocks)
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

#[cfg(test)]
mod tests {
    use super::super::CompiledProgram;
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
    fn the_constructor_accepts_the_compilers_parts_after_a_round_trip() {
        let cp = compiled(LOOP);
        let fingerprint = cp.ir_fingerprint();
        let again = CompiledProgram::new(cp.into_parts()).expect("compiled parts verify");
        assert_eq!(again.ir_fingerprint(), fingerprint);
    }

    #[test]
    fn corrupted_code_is_a_diagnostic() {
        let good = compiled(LOOP);
        let f = good.main.unwrap().0 as usize;
        let (start, end) = good.funcs[f].code;
        // Each corrupted image is refused by `verify` and, with the
        // same message, by the one constructor of a runnable image.
        let refused = |cp: Parts| {
            let msg = verify(&cp).unwrap_err();
            assert_eq!(CompiledProgram::new(cp).unwrap_err(), msg);
            msg
        };

        let mut cp = good.clone().into_parts();
        cp.funcs[f].max_regs = 0;
        assert!(refused(cp).contains("register"));

        let mut cp = good.clone().into_parts();
        cp.funcs[f].frame_size = 0;
        assert!(refused(cp).contains("frame"));

        let mut cp = good.clone().into_parts();
        cp.data_image.clear();
        assert!(refused(cp).contains("static-data"));

        let mut cp = good.clone().into_parts();
        cp.edge_keys.clear();
        refused(cp);

        let mut cp = good.clone().into_parts();
        let jump = (start..end)
            .find(|&pc| matches!(cp.ops[pc as usize], Op::EdgeJump { .. }))
            .expect("a loop has an edge stub");
        cp.ops[jump as usize].for_each_target(|t| *t = end + 7);
        assert!(refused(cp).contains("jump target"));

        let mut cp = good.clone().into_parts();
        cp.ops[end as usize - 1] = Op::Tick(1);
        assert!(refused(cp).contains("run off"));
    }

    #[test]
    fn pair_writes_and_argument_ranges_are_checked_to_their_last_register() {
        let mut good = compiled(LOOP).into_parts();
        let f = good.main.unwrap().0 as usize;
        let n = 8;
        good.funcs[f].max_regs = u32::from(n);
        let start = good.funcs[f].code.0 as usize;
        assert!(!good.ops[start].is_terminator());
        let with = |op: Op| {
            let mut cp = good.clone();
            cp.ops[start] = op;
            verify(&cp)
        };
        let outside = format!("register {n} outside a window of {n}");
        for dst in [n - 2, n - 1] {
            let pair = Op::LoadLocal2 {
                dst,
                off_a: 0,
                off_b: 0,
            };
            let imm = Op::LoadLocalImm {
                dst,
                off: 0,
                imm: 7,
            };
            for op in [pair, imm] {
                if dst == n - 2 {
                    assert_eq!(with(op), Ok(()), "{op:?}");
                } else {
                    assert!(with(op).unwrap_err().contains(&outside), "{op:?}");
                }
            }
        }
        for argbase in [n - 3, n - 2] {
            let call = Op::CallBuiltin {
                b: minic::builtins::Builtin::Abs,
                argbase,
                nargs: 3,
                dst: 0,
                tick: 1,
            };
            if argbase == n - 3 {
                assert_eq!(with(call), Ok(()));
            } else {
                assert!(with(call).unwrap_err().contains(&outside));
            }
        }
    }
}
