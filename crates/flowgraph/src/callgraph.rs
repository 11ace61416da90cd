//! The program call graph.
//!
//! Nodes are functions; arcs are call sites. Calls through function
//! pointers cannot be resolved statically, so — exactly as in §5.2.1 of
//! the paper — they are collected separately and later routed through a
//! synthetic *pointer node* whose out-arcs target every address-taken
//! function, weighted by the static count of address-of operations.

use crate::cfg::BlockId;
use crate::Program;
use minic::sema::{CallSiteId, CalleeKind, FuncId};

/// One call-graph arc: a single call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallArc {
    /// The calling function.
    pub caller: FuncId,
    /// The call site.
    pub site: CallSiteId,
    /// The block containing the site.
    pub block: BlockId,
    /// The target: a user function, or `None` for an indirect call.
    pub callee: Option<FuncId>,
}

/// The call graph of a whole program.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All direct arcs (calls to defined or prototype functions).
    pub direct: Vec<CallArc>,
    /// All indirect arcs (calls through pointers).
    pub indirect: Vec<CallArc>,
    /// Block of every call site (builtin calls included), indexed by
    /// [`CallSiteId`]; `None` for a site in no CFG.
    pub site_block: Vec<Option<BlockId>>,
}

impl CallGraph {
    /// Builds the call graph by scanning every CFG for call expressions.
    pub fn build(program: &Program) -> Self {
        let module = &program.module;
        let mut cg = CallGraph {
            site_block: vec![None; module.side.call_sites.len()],
            ..CallGraph::default()
        };
        for cfg in program.cfgs.iter().flatten() {
            cfg.walk_exprs(&mut |block, e| {
                let Some(site) = module.side.call_site(e.id) else {
                    return;
                };
                cg.site_block[site.0 as usize] = Some(block);
                let cs = &module.side.call_sites[site.0 as usize];
                match cs.callee {
                    CalleeKind::Direct(callee) => cg.direct.push(CallArc {
                        caller: cfg.func,
                        site,
                        block,
                        callee: Some(callee),
                    }),
                    CalleeKind::Indirect => cg.indirect.push(CallArc {
                        caller: cfg.func,
                        site,
                        block,
                        callee: None,
                    }),
                    CalleeKind::Builtin(_) => {}
                }
            });
        }
        cg
    }

    /// All direct arcs into `f`.
    pub fn calls_to(&self, f: FuncId) -> impl Iterator<Item = &CallArc> {
        self.direct.iter().filter(move |a| a.callee == Some(f))
    }
}
