//! The AST walker: the bytecode VM's oracle.
//!
//! It executes a [`flowgraph::Program`] directly on its CFGs and
//! expression trees, counting basic blocks, edges, branch directions,
//! call sites, function invocations and abstract cost units (one per
//! expression node evaluated, plus block and call overheads). The VM
//! derives the same counts by compiling — op selection and fusion,
//! register and frame layout, counter placement and rebuild, the
//! optimizer's rewrites — and must agree with this plain reading of
//! the tree. Memory, the static image and the C library are not
//! compiled: both engines run the one copy in [`crate::runtime`].

use crate::profile::Profile;
use crate::reuse::{MemTap, NoTap, ObjectMap, ReuseCollector, ReuseTrace};
use crate::runtime::{
    convert_for_class, member_offset, Abort, Libc, Memory, NodeTables, NodeTy, RunConfig,
    RunOutcome, RuntimeError, StaticLayout, StrBufs, TyClass, Value, CALL_COST, STACK_BASE,
};
use flowgraph::{Cfg, EdgeIds, Instr, Program, Terminator};
use minic::ast::{BinOp, Expr, ExprKind, UnOp};
use minic::sema::{CalleeKind, FuncId, Resolution};
use minic::types::Type;

/// Runs `main` by walking the CFG/AST directly and collects a profile.
///
/// This is the original tree-walking interpreter, retained as the
/// differential-testing oracle for the bytecode VM behind
/// [`crate::run`] — exactly as `linsolve`'s dense solver is the oracle
/// for the sparse one. The two must agree on exit code, output,
/// steps, and the full [`Profile`]; `crates/profiler/tests/vm_oracle.rs`
/// enforces this on random programs, and so does the fuzzer's oracle 2
/// (`fuzzgen`).
///
/// # Errors
///
/// Returns a [`RuntimeError`] on any dynamic error (null dereference,
/// step-limit exhaustion, `abort()`, missing `main`, …).
///
/// # Examples
///
/// ```
/// use profiler::{run_ast, RunConfig};
///
/// let module = minic::compile(r#"
///     int main(void) {
///         int i, s = 0;
///         for (i = 0; i < 10; i++) s += i;
///         printf("%d\n", s);
///         return 0;
///     }
/// "#).unwrap();
/// let program = flowgraph::build_program(module);
/// let out = run_ast(&program, &RunConfig::default()).unwrap();
/// assert_eq!(out.stdout(), "45\n");
/// assert_eq!(out.exit_code, 0);
/// ```
pub fn run_ast(program: &Program, config: &RunConfig) -> Result<RunOutcome, RuntimeError> {
    on_interp_thread(program, config, NoTap).map(|(out, _)| out)
}

/// [`run_ast`] with exact reuse-distance tracing: the walker's
/// `load`/`store` feed every successful *data-segment* access (never
/// the locals stack) into a [`ReuseCollector`] partitioned by the
/// module's global layout. The differential oracle for the bytecode
/// VM's traced [`crate::CompiledProgram::execute`] — both must produce
/// bit-identical traces.
///
/// # Errors
///
/// Returns the same [`RuntimeError`]s as [`run_ast`].
pub fn run_ast_traced(
    program: &Program,
    config: &RunConfig,
) -> Result<(RunOutcome, ReuseTrace), RuntimeError> {
    let tap = ReuseCollector::new(ObjectMap::for_module(&program.module));
    on_interp_thread(program, config, tap).map(|(out, tap)| (out, tap.finish()))
}

/// Runs on a dedicated roomy-stack thread (deep MiniC recursion nests
/// Rust stack frames) and hands the tap back with the outcome.
fn on_interp_thread<T: MemTap + Send>(
    program: &Program,
    config: &RunConfig,
    tap: T,
) -> Result<(RunOutcome, T), RuntimeError> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("minic-interp".into())
            .stack_size(512 << 20)
            .spawn_scoped(scope, || run_on_this_thread(program, config, tap))
            .expect("spawning the interpreter thread")
            .join()
            .expect("interpreter thread panicked")
    })
}

fn run_on_this_thread<T: MemTap>(
    program: &Program,
    config: &RunConfig,
    tap: T,
) -> Result<(RunOutcome, T), RuntimeError> {
    let main = program
        .module
        .function_id("main")
        .ok_or(RuntimeError::NoMain)?;
    let layout = StaticLayout::of(&program.module);
    let image = layout.image(&program.module);
    let mut interp = Interp {
        mem: Memory::new(image, Vec::new(), tap),
        libc: Libc::new(&config.input, StrBufs::default()),
        layout,
        program,
        tables: NodeTables::build(program),
        profile: Profile::for_program(program),
        edge_ids: (program.cfgs.iter())
            .map(|c| c.as_ref().map(Cfg::edge_ids).unwrap_or_default())
            .collect(),
        steps: 0,
        max_steps: config.max_steps,
        depth: 0,
        max_depth: config.max_call_depth,
        cur_fn: FuncId(0),
        fp: 0,
    };
    let exit_code = match interp.call_function(main, Vec::new()) {
        Ok(v) => v.to_int(),
        Err(Abort::Exit(code)) => code,
        Err(Abort::Error(e)) => return Err(e),
    };
    Ok((
        RunOutcome {
            exit_code,
            profile: interp.profile,
            output: interp.libc.output,
            steps: interp.steps,
        },
        interp.mem.tap,
    ))
}

type VResult = Result<Value, Abort>;

struct Interp<'p, T: MemTap> {
    /// The address space. Its tap is [`NoTap`] in normal runs (every
    /// `T::ACTIVE` check monomorphizes away) and a [`ReuseCollector`]
    /// under [`run_ast_traced`].
    mem: Memory<T>,
    libc: Libc<'p>,
    layout: StaticLayout,
    program: &'p Program,
    tables: NodeTables<'p>,
    profile: Profile,
    /// Each function's [`Cfg::edge_ids`], for bumping edge rows.
    edge_ids: Vec<EdgeIds>,
    steps: u64,
    max_steps: u64,
    depth: usize,
    max_depth: usize,
    cur_fn: FuncId,
    fp: usize,
}

impl<'p, T: MemTap> Interp<'p, T> {
    // ----- type helpers -----

    #[inline]
    fn nty(&self, e: &Expr) -> NodeTy {
        self.tables.ty(e.id)
    }

    fn is_aggregate(ty: &Type) -> bool {
        matches!(ty, Type::Struct(_) | Type::Array(_, _))
    }

    // ----- execution -----

    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        self.profile.func_cost[self.cur_fn.0 as usize] += 1;
        if self.steps > self.max_steps {
            return Err(RuntimeError::StepLimit {
                limit: self.max_steps,
            });
        }
        Ok(())
    }

    fn call_function(&mut self, fid: FuncId, args: Vec<Value>) -> VResult {
        let func = self.program.module.function(fid);
        let Some(cfg) = self.program.cfg_opt(fid) else {
            return Err(RuntimeError::Undefined {
                name: func.name.clone(),
            }
            .into());
        };
        if self.depth >= self.max_depth {
            return Err(RuntimeError::StackOverflow {
                limit: self.max_depth,
            }
            .into());
        }
        let fp = self.mem.push_frame(func.frame_size)?;
        self.depth += 1;
        let saved_fn = self.cur_fn;
        let saved_fp = self.fp;
        self.cur_fn = fid;
        self.fp = fp;
        self.profile.func_counts[fid.0 as usize] += 1;
        self.profile.func_cost[fid.0 as usize] += CALL_COST;

        // Bind parameters (structs are copied by value).
        for (i, arg) in args.into_iter().enumerate().take(func.param_count) {
            let local = &func.locals[i];
            let addr = STACK_BASE + (self.fp + local.offset) as u64;
            if Self::is_aggregate(&local.ty) {
                let n = local.size;
                let src = arg.to_ptr();
                self.mem.copy_words(addr, src, n)?;
            } else {
                let v = convert_for_store(&local.ty, arg);
                self.mem.store(addr, v)?;
            }
        }

        let result = self.run_cfg(cfg);

        self.mem.stack.truncate(self.fp);
        self.fp = saved_fp;
        self.cur_fn = saved_fn;
        self.depth -= 1;
        result
    }

    fn run_cfg(&mut self, cfg: &Cfg) -> VResult {
        let fidx = cfg.func.0 as usize;
        let mut cur = cfg.entry;
        loop {
            self.tick()?;
            self.profile.block_counts[fidx][cur.0 as usize] += 1;
            let block = cfg.block(cur);
            for instr in &block.instrs {
                self.exec_instr(instr)?;
            }
            let next = match &block.term {
                Terminator::Goto(t) => *t,
                Terminator::Branch {
                    cond,
                    branch,
                    then_blk,
                    else_blk,
                } => {
                    let taken = self.eval(cond)?.truthy();
                    if let Some(b) = branch {
                        let slot = &mut self.profile.branch_counts[b.0 as usize];
                        if taken {
                            slot.0 += 1;
                        } else {
                            slot.1 += 1;
                        }
                    }
                    if taken {
                        *then_blk
                    } else {
                        *else_blk
                    }
                }
                Terminator::Switch {
                    scrut,
                    cases,
                    default,
                    ..
                } => {
                    let v = self.eval(scrut)?.to_int();
                    cases
                        .iter()
                        .find(|&&(c, _)| c == v)
                        .map(|&(_, t)| t)
                        .unwrap_or(*default)
                }
                Terminator::Return(e) => {
                    return match e {
                        Some(e) => self.eval(e),
                        None => Ok(Value::Int(0)),
                    };
                }
            };
            let edge = (cfg.edge_id(&self.edge_ids[fidx], cur, next))
                .expect("the next block is a successor");
            self.profile.edge_counts[fidx][edge] += 1;
            cur = next;
        }
    }

    fn exec_instr(&mut self, instr: &Instr) -> Result<(), Abort> {
        match instr {
            Instr::Eval(e) => {
                self.eval(e)?;
            }
            Instr::Init {
                local,
                word,
                ty,
                value,
            } => {
                let v = self.eval(value)?;
                let func = self.program.module.function(self.cur_fn);
                let base = STACK_BASE + (self.fp + func.locals[local.0 as usize].offset) as u64;
                if Self::is_aggregate(ty) {
                    let n = ty.size_words(&self.program.module.structs);
                    self.mem.copy_words(base + *word as u64, v.to_ptr(), n)?;
                } else {
                    let v = convert_for_store(ty, v);
                    self.mem.store(base + *word as u64, v)?;
                }
            }
            Instr::InitStr {
                local,
                word,
                str_idx,
                pad_to,
            } => {
                let func = self.program.module.function(self.cur_fn);
                let base =
                    STACK_BASE + (self.fp + func.locals[local.0 as usize].offset + word) as u64;
                let s: &str = &self.program.module.strings[*str_idx];
                for (i, b) in s.bytes().enumerate() {
                    self.mem.store(base + i as u64, Value::Int(b as i64))?;
                }
                for i in s.len()..*pad_to {
                    self.mem.store(base + i as u64, Value::Int(0))?;
                }
            }
            Instr::InitZero { local, word, len } => {
                let func = self.program.module.function(self.cur_fn);
                let base =
                    STACK_BASE + (self.fp + func.locals[local.0 as usize].offset + word) as u64;
                for i in 0..*len as u64 {
                    self.mem.store(base + i, Value::Int(0))?;
                }
            }
        }
        Ok(())
    }

    /// The address of an lvalue expression.
    fn place(&mut self, e: &Expr) -> Result<u64, Abort> {
        self.tick()?;
        match &e.kind {
            ExprKind::Ident(_) => {
                match self
                    .program
                    .module
                    .side
                    .resolution(e.id)
                    .expect("sema resolved every name")
                {
                    Resolution::Local(lid) => {
                        let func = self.program.module.function(self.cur_fn);
                        Ok(STACK_BASE + (self.fp + func.locals[lid.0 as usize].offset) as u64)
                    }
                    Resolution::Global(gid) => Ok(self.layout.global_addr[gid.0 as usize]),
                    Resolution::Func(_) | Resolution::Builtin(_) | Resolution::EnumConst(_) => {
                        Err(RuntimeError::Other("constant is not an lvalue".into()).into())
                    }
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let v = self.eval(inner)?;
                Ok(v.to_ptr())
            }
            ExprKind::Index(base, idx) => {
                let bt = self.nty(base);
                let addr = if bt.class == TyClass::Agg {
                    self.place(base)?
                } else {
                    self.eval(base)?.to_ptr()
                };
                let i = self.eval(idx)?.to_int();
                Ok(addr.wrapping_add_signed(i.wrapping_mul(bt.elem as i64)))
            }
            ExprKind::Member(base, _, arrow) => {
                let Some(offset) = member_offset(&self.program.module, e) else {
                    return Err(RuntimeError::Other("member on non-struct".into()).into());
                };
                let addr = if *arrow {
                    self.eval(base)?.to_ptr()
                } else {
                    self.place(base)?
                };
                if addr == 0 {
                    return Err(RuntimeError::NullDeref.into());
                }
                Ok(addr + offset as u64)
            }
            ExprKind::Cast(_, inner) => self.place(inner),
            _ => Err(RuntimeError::Other(format!(
                "expression is not an lvalue: {:?}",
                std::mem::discriminant(&e.kind)
            ))
            .into()),
        }
    }

    /// Loads from a place, or returns the address for aggregates.
    fn load_from(&mut self, e: &Expr, addr: u64) -> VResult {
        if self.nty(e).class == TyClass::Agg {
            Ok(Value::Ptr(addr))
        } else {
            Ok(self.mem.load(addr)?)
        }
    }

    fn eval(&mut self, e: &Expr) -> VResult {
        self.tick()?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::StrLit(_) => {
                let idx = self.program.module.side.str_index(e.id);
                Ok(Value::Ptr(
                    self.layout.str_addr[idx.expect("sema interned every string literal")],
                ))
            }
            ExprKind::Ident(_) => {
                match self
                    .program
                    .module
                    .side
                    .resolution(e.id)
                    .expect("sema resolved every name")
                {
                    Resolution::Func(fid) => Ok(Value::Fn(fid)),
                    Resolution::EnumConst(v) => Ok(Value::Int(v)),
                    Resolution::Builtin(_) => {
                        Err(RuntimeError::Other("builtin used as a value".into()).into())
                    }
                    _ => {
                        let addr = self.place(e)?;
                        self.load_from(e, addr)
                    }
                }
            }
            ExprKind::Unary(op, inner) => self.eval_unary(e, *op, inner),
            ExprKind::Binary(op, a, b) => {
                let ta = self.nty(a);
                let tb = self.nty(b);
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                Ok(self.arith(*op, va, vb, ta, tb)?)
            }
            ExprKind::LogAnd(a, b) => {
                if !self.eval(a)?.truthy() {
                    Ok(Value::Int(0))
                } else {
                    Ok(Value::Int(self.eval(b)?.truthy() as i64))
                }
            }
            ExprKind::LogOr(a, b) => {
                if self.eval(a)?.truthy() {
                    Ok(Value::Int(1))
                } else {
                    Ok(Value::Int(self.eval(b)?.truthy() as i64))
                }
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let lty = self.nty(lhs);
                let addr = self.place(lhs)?;
                let rv = self.eval(rhs)?;
                let result = match op {
                    None => {
                        if lty.class == TyClass::Agg {
                            self.mem.copy_words(addr, rv.to_ptr(), lty.size as usize)?;
                            Value::Ptr(addr)
                        } else {
                            let v = convert_for_class(lty.class, rv);
                            self.mem.store(addr, v)?;
                            v
                        }
                    }
                    Some(op) => {
                        let rty = self.nty(rhs);
                        let cur = self.mem.load(addr)?;
                        let v = self.arith(*op, cur, rv, lty, rty)?;
                        let v = convert_for_class(lty.class, v);
                        self.mem.store(addr, v)?;
                        v
                    }
                };
                Ok(result)
            }
            ExprKind::Call(callee, args) => self.eval_call(e, callee, args),
            ExprKind::Index(_, _) | ExprKind::Member(_, _, _) => {
                let addr = self.place(e)?;
                self.load_from(e, addr)
            }
            ExprKind::Cond(c, t, f) => {
                let taken = self.eval(c)?.truthy();
                if let Some(b) = self.program.module.side.branch(e.id) {
                    let slot = &mut self.profile.branch_counts[b.0 as usize];
                    if taken {
                        slot.0 += 1;
                    } else {
                        slot.1 += 1;
                    }
                }
                if taken {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            ExprKind::Cast(_, inner) => {
                let v = self.eval(inner)?;
                Ok(convert_for_class(self.nty(e).class, v))
            }
            ExprKind::SizeofType(_) | ExprKind::SizeofExpr(_) => {
                let v = self.program.module.side.const_value(e.id);
                Ok(Value::Int(v.and_then(|v| v.as_int()).unwrap_or(0)))
            }
            ExprKind::Comma(a, b) => {
                self.eval(a)?;
                self.eval(b)
            }
        }
    }

    fn eval_unary(&mut self, e: &Expr, op: UnOp, inner: &Expr) -> VResult {
        match op {
            UnOp::Neg => {
                let v = self.eval(inner)?;
                Ok(match v {
                    Value::Float(f) => Value::Float(-f),
                    other => Value::Int(other.to_int().wrapping_neg()),
                })
            }
            UnOp::Not => {
                let v = self.eval(inner)?;
                Ok(Value::Int(!v.truthy() as i64))
            }
            UnOp::BitNot => {
                let v = self.eval(inner)?;
                Ok(Value::Int(!v.to_int()))
            }
            UnOp::Deref => {
                let nt = self.nty(e);
                // `*f` on a function pointer is the function pointer.
                if nt.class == TyClass::FnPtr && self.nty(inner).class == TyClass::FnPtr {
                    return self.eval(inner);
                }
                let addr = self.eval(inner)?.to_ptr();
                if nt.class == TyClass::Agg {
                    Ok(Value::Ptr(addr))
                } else if addr == 0 {
                    Err(RuntimeError::NullDeref.into())
                } else {
                    Ok(self.mem.load(addr)?)
                }
            }
            UnOp::Addr => {
                // `&f` yields the function pointer itself.
                if let ExprKind::Ident(_) = &inner.kind {
                    if let Some(Resolution::Func(fid)) =
                        self.program.module.side.resolution(inner.id)
                    {
                        return Ok(Value::Fn(fid));
                    }
                }
                let addr = self.place(inner)?;
                Ok(Value::Ptr(addr))
            }
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                let nt = self.nty(inner);
                let addr = self.place(inner)?;
                let old = self.mem.load(addr)?;
                let step = if nt.class == TyClass::Ptr {
                    nt.elem as i64
                } else {
                    1
                };
                let delta = match op {
                    UnOp::PreInc | UnOp::PostInc => step,
                    _ => -step,
                };
                let new = match old {
                    Value::Float(f) => Value::Float(f + delta as f64),
                    Value::Ptr(p) => Value::Ptr(p.wrapping_add_signed(delta)),
                    other => Value::Int(other.to_int().wrapping_add(delta)),
                };
                self.mem.store(addr, new)?;
                Ok(match op {
                    UnOp::PostInc | UnOp::PostDec => old,
                    _ => new,
                })
            }
        }
    }

    fn arith(
        &mut self,
        op: BinOp,
        va: Value,
        vb: Value,
        ta: NodeTy,
        tb: NodeTy,
    ) -> Result<Value, RuntimeError> {
        use BinOp::*;
        let a_ptr = ta.is_ptr_like();
        let b_ptr = tb.is_ptr_like();
        if op.is_comparison() {
            let cmp = if matches!(va, Value::Float(_)) || matches!(vb, Value::Float(_)) {
                let (x, y) = (va.to_float(), vb.to_float());
                // IEEE comparison is the *specified* behaviour here (C
                // source semantics), not an ordering bug — see clippy.toml.
                #[allow(clippy::disallowed_methods)]
                x.partial_cmp(&y)
            } else {
                Some(va.to_int().cmp(&vb.to_int()))
            };
            let Some(ord) = cmp else {
                return Ok(Value::Int(0)); // NaN compares false
            };
            let r = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                Eq => ord.is_eq(),
                Ne => ord.is_ne(),
                _ => unreachable!(),
            };
            return Ok(Value::Int(r as i64));
        }
        match op {
            Add if a_ptr || b_ptr => {
                let (p, i, elem) = if a_ptr {
                    (va.to_ptr(), vb.to_int(), ta.elem as i64)
                } else {
                    (vb.to_ptr(), va.to_int(), tb.elem as i64)
                };
                Ok(Value::Ptr(p.wrapping_add_signed(i.wrapping_mul(elem))))
            }
            Sub if a_ptr && b_ptr => {
                let elem = (ta.elem as i64).max(1);
                let diff = va.to_ptr() as i64 - vb.to_ptr() as i64;
                Ok(Value::Int(diff / elem))
            }
            Sub if a_ptr => {
                let elem = ta.elem as i64;
                Ok(Value::Ptr(
                    va.to_ptr()
                        .wrapping_add_signed(-(vb.to_int().wrapping_mul(elem))),
                ))
            }
            Add | Sub | Mul | Div
                if matches!(va, Value::Float(_)) || matches!(vb, Value::Float(_)) =>
            {
                let (x, y) = (va.to_float(), vb.to_float());
                Ok(Value::Float(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => unreachable!(),
                }))
            }
            Add => Ok(Value::Int(va.to_int().wrapping_add(vb.to_int()))),
            Sub => Ok(Value::Int(va.to_int().wrapping_sub(vb.to_int()))),
            Mul => Ok(Value::Int(va.to_int().wrapping_mul(vb.to_int()))),
            Div => {
                let d = vb.to_int();
                if d == 0 {
                    return Err(RuntimeError::DivByZero);
                }
                Ok(Value::Int(va.to_int().wrapping_div(d)))
            }
            Rem => {
                let d = vb.to_int();
                if d == 0 {
                    return Err(RuntimeError::DivByZero);
                }
                Ok(Value::Int(va.to_int().wrapping_rem(d)))
            }
            Shl => Ok(Value::Int(
                va.to_int().wrapping_shl((vb.to_int() & 63) as u32),
            )),
            Shr => Ok(Value::Int(
                va.to_int().wrapping_shr((vb.to_int() & 63) as u32),
            )),
            BitAnd => Ok(Value::Int(va.to_int() & vb.to_int())),
            BitOr => Ok(Value::Int(va.to_int() | vb.to_int())),
            BitXor => Ok(Value::Int(va.to_int() ^ vb.to_int())),
            Lt | Le | Gt | Ge | Eq | Ne => unreachable!("handled above"),
        }
    }

    fn eval_call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> VResult {
        let site = self.program.module.side.call_site(e.id);
        let site = site.expect("sema registered every call site").0 as usize;
        self.profile.call_site_counts[site] += 1;
        let cs = &self.program.module.side.call_sites[site];
        match cs.callee {
            CalleeKind::Direct(fid) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                self.call_function(fid, argv)
            }
            CalleeKind::Builtin(b) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                self.profile.func_cost[self.cur_fn.0 as usize] += CALL_COST;
                self.libc.call(&mut self.mem, b, &argv)
            }
            CalleeKind::Indirect => {
                let f = self.eval(callee)?;
                let Value::Fn(fid) = f else {
                    return Err(RuntimeError::NotAFunction.into());
                };
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                self.call_function(fid, argv)
            }
        }
    }
}

/// Converts a value for storage into a slot of type `ty`.
fn convert_for_store(ty: &Type, v: Value) -> Value {
    match ty {
        Type::Int | Type::Char => Value::Int(v.to_int()),
        Type::Float => Value::Float(v.to_float()),
        Type::Ptr(_) => Value::Ptr(v.to_ptr()),
        Type::FnPtr(_) => match v {
            Value::Fn(f) => Value::Fn(f),
            other => Value::Ptr(other.to_ptr()),
        },
        _ => v,
    }
}
