//! Lowering MiniC function bodies to control-flow graphs.
//!
//! The lowering is structural and direct: each statement contributes
//! instructions to the current block, and control constructs create the
//! usual header / body / latch / join blocks. Short-circuit `&&`/`||`
//! and `?:` stay *inside* expressions (the interpreter evaluates them
//! lazily), matching the paper's AST-level treatment where source-level
//! branches, not machine branches, are the unit of prediction.
//!
//! Every block records an `anchor` — the AST node whose frequency the
//! AST-based estimators assign to it (the first statement lowered into
//! the block, or a loop condition / `for`-step expression).
//!
//! Lowering copies no expression: each instruction and terminator takes
//! another reference to the AST slot's [`Arc<Expr>`].

use crate::cfg::{Block, BlockId, Cfg, Instr, Terminator};
use minic::ast::{Expr, ExprKind, Initializer, NodeId, Stmt, StmtKind};
use minic::sema::{Function, LocalId, Module};
use minic::symbol::Symbol;
use minic::types::Type;
use std::sync::Arc;

/// Lowers one defined function to a (simplified) CFG.
///
/// # Panics
///
/// Panics if the function has no body; callers should lower only
/// [`Function::is_defined`] functions.
pub fn lower_function(module: &Module, func: &Function) -> Cfg {
    let body = func
        .body
        .as_ref()
        .expect("lower_function requires a defined function");
    let mut lw = Lowerer {
        module,
        func,
        blocks: Vec::new(),
        cur: BlockId(0),
        break_stack: Vec::new(),
        continue_stack: Vec::new(),
        labels: Vec::new(),
    };
    let entry = lw.new_block();
    lw.cur = entry;
    lw.lower_stmt(body);
    if !lw.terminated() {
        lw.set_term(Terminator::Return(None));
    }
    let blocks = lw
        .blocks
        .into_iter()
        .enumerate()
        .map(|(i, bb)| Block {
            id: BlockId(i as u32),
            instrs: bb.instrs,
            term: bb.term.unwrap_or(Terminator::Return(None)),
            anchor: bb.anchor,
        })
        .collect();
    let cfg = Cfg {
        func: func.id,
        blocks,
        entry,
    };
    crate::simplify::simplify(cfg)
}

struct BlockBuilder {
    instrs: Vec<Instr>,
    term: Option<Terminator>,
    anchor: Option<NodeId>,
}

struct Lowerer<'m> {
    module: &'m Module,
    func: &'m Function,
    blocks: Vec<BlockBuilder>,
    cur: BlockId,
    break_stack: Vec<BlockId>,
    continue_stack: Vec<BlockId>,
    /// The block of each label seen so far (functions have few).
    labels: Vec<(Symbol, BlockId)>,
}

impl Lowerer<'_> {
    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockBuilder {
            instrs: Vec::new(),
            term: None,
            anchor: None,
        });
        id
    }

    fn terminated(&self) -> bool {
        self.blocks[self.cur.0 as usize].term.is_some()
    }

    fn set_term(&mut self, t: Terminator) {
        let b = &mut self.blocks[self.cur.0 as usize];
        if b.term.is_none() {
            b.term = Some(t);
        }
    }

    fn anchor(&mut self, bid: BlockId, node: NodeId) {
        let b = &mut self.blocks[bid.0 as usize];
        if b.anchor.is_none() {
            b.anchor = Some(node);
        }
    }

    fn push(&mut self, instr: Instr) {
        self.blocks[self.cur.0 as usize].instrs.push(instr);
    }

    /// Starts a fresh block if the current one is already terminated
    /// (code after `return`/`goto`/`break`; unreachable unless labeled).
    fn fresh_if_terminated(&mut self) {
        if self.terminated() {
            self.cur = self.new_block();
        }
    }

    /// Builds a conditional-branch terminator. Branches whose condition
    /// sema folded to a constant become unconditional jumps — the paper
    /// corrects for constant tests the same way a compiler's dead-code
    /// elimination would (§2); the branch site remains registered so it
    /// is still *predicted*, just never executed or scored.
    fn branch_term(
        &self,
        owner: NodeId,
        cond: &Arc<Expr>,
        then_blk: BlockId,
        else_blk: BlockId,
    ) -> Terminator {
        let branch = self.module.side.branch(owner);
        if let Some(bid) = branch {
            if let Some(v) = self.module.side.branches[bid.0 as usize].const_cond {
                return Terminator::Goto(if v { then_blk } else { else_blk });
            }
        }
        Terminator::Branch {
            cond: Arc::clone(cond),
            branch,
            then_blk,
            else_blk,
        }
    }

    fn label_block(&mut self, name: Symbol) -> BlockId {
        if let Some(&(_, b)) = self.labels.iter().find(|&&(l, _)| l == name) {
            return b;
        }
        let b = self.new_block();
        self.labels.push((name, b));
        b
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        self.fresh_if_terminated();
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Expr(e) => {
                self.anchor(self.cur, s.id);
                self.push(Instr::Eval(Arc::clone(e)));
            }
            StmtKind::Decl(decls) => {
                self.anchor(self.cur, s.id);
                for d in decls {
                    let Some(init) = &d.init else { continue };
                    let local = self
                        .module
                        .side
                        .local(d.id)
                        .expect("sema allocated every declared local");
                    let ty = self.func.locals[local.0 as usize].ty.clone();
                    self.flatten_local_init(local, &ty, init, 0);
                }
            }
            StmtKind::If(cond, then_s, else_s) => {
                self.anchor(self.cur, s.id);
                let then_b = self.new_block();
                let join = self.new_block();
                let else_b = if else_s.is_some() {
                    self.new_block()
                } else {
                    join
                };
                let term = self.branch_term(s.id, cond, then_b, else_b);
                self.set_term(term);
                self.cur = then_b;
                self.anchor(then_b, then_s.id);
                self.lower_stmt(then_s);
                self.set_term(Terminator::Goto(join));
                if let Some(else_s) = else_s {
                    self.cur = else_b;
                    self.anchor(else_b, else_s.id);
                    self.lower_stmt(else_s);
                    self.set_term(Terminator::Goto(join));
                }
                self.cur = join;
            }
            StmtKind::While(cond, body) => {
                let header = self.new_block();
                let body_b = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Goto(header));
                self.cur = header;
                self.anchor(header, cond.id);
                let term = self.branch_term(s.id, cond, body_b, exit);
                self.set_term(term);
                self.break_stack.push(exit);
                self.continue_stack.push(header);
                self.cur = body_b;
                self.anchor(body_b, body.id);
                self.lower_stmt(body);
                self.set_term(Terminator::Goto(header));
                self.break_stack.pop();
                self.continue_stack.pop();
                self.cur = exit;
            }
            StmtKind::DoWhile(body, cond) => {
                let body_b = self.new_block();
                let cond_b = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Goto(body_b));
                self.break_stack.push(exit);
                self.continue_stack.push(cond_b);
                self.cur = body_b;
                self.anchor(body_b, body.id);
                self.lower_stmt(body);
                self.set_term(Terminator::Goto(cond_b));
                self.break_stack.pop();
                self.continue_stack.pop();
                self.cur = cond_b;
                self.anchor(cond_b, cond.id);
                let term = self.branch_term(s.id, cond, body_b, exit);
                self.set_term(term);
                self.cur = exit;
            }
            StmtKind::For(init, cond, step, body) => {
                if let Some(init) = init {
                    self.lower_stmt(init);
                    self.fresh_if_terminated();
                }
                let header = self.new_block();
                let body_b = self.new_block();
                let exit = self.new_block();
                let latch = if step.is_some() {
                    self.new_block()
                } else {
                    header
                };
                self.set_term(Terminator::Goto(header));
                self.cur = header;
                match cond {
                    Some(c) => {
                        self.anchor(header, c.id);
                        let term = self.branch_term(s.id, c, body_b, exit);
                        self.set_term(term);
                    }
                    None => {
                        self.anchor(header, s.id);
                        self.set_term(Terminator::Goto(body_b));
                    }
                }
                self.break_stack.push(exit);
                self.continue_stack.push(latch);
                self.cur = body_b;
                self.anchor(body_b, body.id);
                self.lower_stmt(body);
                self.set_term(Terminator::Goto(latch));
                self.break_stack.pop();
                self.continue_stack.pop();
                if let Some(step) = step {
                    self.cur = latch;
                    self.anchor(latch, step.id);
                    self.push(Instr::Eval(Arc::clone(step)));
                    self.set_term(Terminator::Goto(header));
                }
                self.cur = exit;
            }
            StmtKind::Switch(scrut, sections) => {
                self.anchor(self.cur, s.id);
                let exit = self.new_block();
                let section_blocks: Vec<BlockId> =
                    sections.iter().map(|_| self.new_block()).collect();
                let switch_id = self
                    .module
                    .side
                    .switch(s.id)
                    .expect("sema registered every switch");
                let case_values = self.module.side.case_values(switch_id);
                let mut cases = Vec::new();
                let mut default = exit;
                for (i, sec) in sections.iter().enumerate() {
                    for &v in &case_values[i] {
                        cases.push((v, section_blocks[i]));
                    }
                    if sec.is_default {
                        default = section_blocks[i];
                    }
                }
                self.set_term(Terminator::switch(
                    Arc::clone(scrut),
                    switch_id,
                    cases,
                    default,
                ));
                self.break_stack.push(exit);
                for (i, sec) in sections.iter().enumerate() {
                    self.cur = section_blocks[i];
                    for (j, st) in sec.body.iter().enumerate() {
                        if j == 0 {
                            self.anchor(section_blocks[i], st.id);
                        }
                        self.lower_stmt(st);
                    }
                    // Fall through to the next section (or exit).
                    let next = section_blocks.get(i + 1).copied().unwrap_or(exit);
                    self.set_term(Terminator::Goto(next));
                }
                self.break_stack.pop();
                self.cur = exit;
            }
            StmtKind::Break => {
                self.anchor(self.cur, s.id);
                let target = *self
                    .break_stack
                    .last()
                    .expect("sema rejects break outside loop/switch");
                self.set_term(Terminator::Goto(target));
            }
            StmtKind::Continue => {
                self.anchor(self.cur, s.id);
                let target = *self
                    .continue_stack
                    .last()
                    .expect("sema rejects continue outside loop");
                self.set_term(Terminator::Goto(target));
            }
            StmtKind::Return(e) => {
                self.anchor(self.cur, s.id);
                self.set_term(Terminator::Return(e.as_ref().map(Arc::clone)));
            }
            StmtKind::Goto(name) => {
                self.anchor(self.cur, s.id);
                let target = self.label_block(*name);
                self.set_term(Terminator::Goto(target));
            }
            StmtKind::Label(name, inner) => {
                let lbl = self.label_block(*name);
                self.set_term(Terminator::Goto(lbl));
                self.cur = lbl;
                self.anchor(lbl, inner.id);
                self.lower_stmt(inner);
            }
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.lower_stmt(st);
                }
            }
        }
    }

    /// Flattens a local initializer into `Init*` instructions.
    fn flatten_local_init(&mut self, local: LocalId, ty: &Type, init: &Initializer, word: usize) {
        match (ty, init) {
            (Type::Array(elem, n), Initializer::List(items)) => {
                let esize = elem.size_words(&self.module.structs);
                for (i, item) in items.iter().enumerate() {
                    self.flatten_local_init(local, elem, item, word + i * esize);
                }
                let used = items.len() * esize;
                let total = n * esize;
                if used < total {
                    self.push(Instr::InitZero {
                        local,
                        word: word + used,
                        len: total - used,
                    });
                }
            }
            (Type::Array(elem, n), Initializer::Expr(e))
                if matches!(**elem, Type::Char) && matches!(e.kind, ExprKind::StrLit(_)) =>
            {
                let str_idx = self
                    .module
                    .side
                    .str_index(e.id)
                    .expect("sema interned every string literal");
                self.push(Instr::InitStr {
                    local,
                    word,
                    str_idx,
                    pad_to: *n,
                });
            }
            (Type::Struct(sid), Initializer::List(items)) => {
                let layout = self.module.structs.layout(*sid);
                let fields: Vec<(usize, Type)> = layout
                    .fields
                    .iter()
                    .map(|f| (f.offset, f.ty.clone()))
                    .collect();
                let total = layout.size;
                let mut used = 0;
                for (item, (off, fty)) in items.iter().zip(fields.iter()) {
                    self.flatten_local_init(local, fty, item, word + off);
                    used = off + fty.size_words(&self.module.structs);
                }
                if used < total {
                    self.push(Instr::InitZero {
                        local,
                        word: word + used,
                        len: total - used,
                    });
                }
            }
            (_, Initializer::Expr(e)) => {
                self.push(Instr::Init {
                    local,
                    word,
                    ty: ty.clone(),
                    value: Arc::clone(e),
                });
            }
            (_, Initializer::List(items)) if items.len() == 1 => {
                self.flatten_local_init(local, ty, &items[0], word);
            }
            _ => unreachable!("sema validated initializer shapes"),
        }
    }
}
