//! # flowgraph — CFGs and call graphs for MiniC
//!
//! This crate turns an analyzed [`minic::Module`] into the graph
//! structures the PLDI 1994 estimators operate on:
//!
//! - a [`cfg::Cfg`] per defined function (lowered by [`lower`],
//!   cleaned by [`simplify`]), which the profiler also executes;
//! - the whole-program [`callgraph::CallGraph`];
//! - graph analyses in [`analysis`] (dominators, natural loops,
//!   Tarjan SCC — the machinery behind the Markov model's recursion
//!   repair);
//! - DOT rendering in [`dot`].
//!
//! The usual entry point is [`build_program`]:
//!
//! ```
//! let module = minic::compile("int main(void) { return 0; }").unwrap();
//! let program = flowgraph::build_program(module);
//! let main = program.function_id("main").unwrap();
//! assert_eq!(program.cfg(main).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod callgraph;
pub mod cfg;
pub mod dot;
pub mod lower;
pub mod simplify;

pub use callgraph::CallGraph;
pub use cfg::{Block, BlockId, Cfg, Instr, Terminator};

use minic::sema::{FuncId, Module};

/// A module together with the CFG of every defined function and the
/// program call graph — the unit the profiler and estimators consume.
#[derive(Debug, Clone)]
pub struct Program {
    /// The analyzed module.
    pub module: Module,
    /// CFGs indexed by [`FuncId`]; `None` for bodiless prototypes.
    pub cfgs: Vec<Option<Cfg>>,
    /// The call graph.
    pub callgraph: CallGraph,
}

impl Program {
    /// Finds a function by name (delegates to the module).
    pub fn function_id(&self, name: &str) -> Option<FuncId> {
        self.module.function_id(name)
    }

    /// The CFG of a defined function.
    ///
    /// # Panics
    ///
    /// Panics if `f` has no body.
    pub fn cfg(&self, f: FuncId) -> &Cfg {
        self.cfgs[f.0 as usize]
            .as_ref()
            .expect("function has no body (prototype)")
    }

    /// The CFG of `f`, or `None` for prototypes.
    pub fn cfg_opt(&self, f: FuncId) -> Option<&Cfg> {
        self.cfgs.get(f.0 as usize).and_then(|c| c.as_ref())
    }

    /// Ids of all defined functions, in declaration order.
    pub fn defined_ids(&self) -> Vec<FuncId> {
        self.module
            .functions
            .iter()
            .filter(|f| f.is_defined())
            .map(|f| f.id)
            .collect()
    }

    /// Total number of basic blocks across all defined functions.
    pub fn total_blocks(&self) -> usize {
        self.cfgs.iter().flatten().map(|c| c.blocks.len()).sum()
    }
}

/// Lowers every defined function of `module` and builds the call graph.
/// The module moves into the returned [`Program`]; nothing is copied.
pub fn build_program(module: Module) -> Program {
    let _sp = obs::span("flowgraph.build");
    let cfgs: Vec<Option<Cfg>> = {
        let _sp = obs::span("flowgraph.lower");
        module
            .functions
            .iter()
            .map(|f| f.body.as_ref().map(|_| lower::lower_function(&module, f)))
            .collect()
    };
    let mut program = Program {
        module,
        cfgs,
        callgraph: CallGraph::default(),
    };
    {
        let _sp = obs::span("flowgraph.callgraph");
        program.callgraph = CallGraph::build(&program);
    }
    obs::counter_add("flowgraph.functions", program.defined_ids().len() as u64);
    obs::counter_add("flowgraph.blocks", program.total_blocks() as u64);
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Terminator;

    fn program(src: &str) -> Program {
        let module = minic::compile(src).expect("valid MiniC");
        build_program(module)
    }

    #[test]
    fn strchr_has_paper_shape() {
        let p = program(
            r#"
            char *strchr(char *str, int c) {
                while (*str) {
                    if (*str == c) return str;
                    str++;
                }
                return 0;
            }
            "#,
        );
        // The paper's Figure 6 draws a virtual "entry" node; the real
        // blocks are the five Table 2 scores: while, if, return1, incr,
        // return2.
        let cfg = p.cfg(p.function_id("strchr").unwrap());
        assert_eq!(cfg.len(), 5, "expected the paper's 5 real blocks");
        // Exactly two conditional branches.
        let branches = cfg
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Branch { .. }))
            .count();
        assert_eq!(branches, 2);
        // Two returns.
        let returns = cfg
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Return(_)))
            .count();
        assert_eq!(returns, 2);
    }

    #[test]
    fn straight_line_merges_to_one_block() {
        let p = program("int f(int a) { int b = a + 1; int c = b * 2; return c; }");
        let cfg = p.cfg(p.function_id("f").unwrap());
        assert_eq!(cfg.len(), 1);
    }

    #[test]
    fn if_else_makes_a_diamond() {
        let p = program("int f(int a) { int r; if (a) { r = 1; } else { r = 2; } return r; }");
        let cfg = p.cfg(p.function_id("f").unwrap());
        assert_eq!(cfg.len(), 4);
    }

    #[test]
    fn for_loop_blocks() {
        let p = program("int f(int n) { int i, s = 0; for (i = 0; i < n; i++) s += i; return s; }");
        let cfg = p.cfg(p.function_id("f").unwrap());
        // entry, header, body(+latch merged), exit.
        assert!(cfg.len() >= 4 && cfg.len() <= 5, "got {} blocks", cfg.len());
        let loops = analysis::natural_loops(cfg);
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn infinite_loop_drops_exit() {
        let p = program("int f(void) { while (1) { } return 0; }");
        let cfg = p.cfg(p.function_id("f").unwrap());
        // No return block is reachable.
        assert!(cfg
            .blocks
            .iter()
            .all(|b| !matches!(b.term, Terminator::Return(_))));
    }

    #[test]
    fn switch_terminator_carries_cases() {
        let p = program(
            r#"
            int f(int n) {
                int r = 0;
                switch (n) {
                    case 1: r = 10; break;
                    case 2: r = 20; /* fallthrough */
                    case 3: r += 1; break;
                    default: r = -1;
                }
                return r;
            }
            "#,
        );
        let cfg = p.cfg(p.function_id("f").unwrap());
        let sw = cfg
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Terminator::Switch { cases, .. } => Some(cases.clone()),
                _ => None,
            })
            .expect("switch terminator");
        assert_eq!(sw.len(), 3);
    }

    #[test]
    fn goto_creates_loop() {
        let p = program(
            r#"
            int f(int n) {
                int s = 0;
            top:
                s += n;
                n--;
                if (n > 0) goto top;
                return s;
            }
            "#,
        );
        let cfg = p.cfg(p.function_id("f").unwrap());
        assert_eq!(analysis::natural_loops(cfg).len(), 1);
    }

    #[test]
    fn loop_forest_links_triple_nest() {
        let p = program(
            r#"
            int f(int n) {
                int i, j, k, s = 0;
                for (i = 0; i < n; i++) {
                    for (j = 0; j < n; j++) {
                        for (k = 0; k < n; k++) s += k;
                        s += j;
                    }
                    s += i;
                }
                return s;
            }
            "#,
        );
        let cfg = p.cfg(p.function_id("f").unwrap());
        let forest = analysis::LoopForest::compute(cfg);
        assert_eq!(forest.loops.len(), 3);
        let depths: Vec<usize> = forest.loops.iter().map(|l| l.depth).collect();
        assert_eq!(depths, vec![3, 2, 1], "innermost-first ordering");
        assert_eq!(forest.loops[0].parent, Some(1));
        assert_eq!(forest.loops[1].parent, Some(2));
        assert_eq!(forest.loops[2].parent, None);
        assert_eq!(forest.loops[2].children, vec![1]);
        // The innermost header's nest climbs all three loops.
        let inner_header = forest.loops[0].header;
        assert_eq!(forest.nest_of(inner_header), vec![0, 1, 2]);
        // The entry block is outside every loop.
        assert_eq!(forest.innermost(cfg.entry), None);
    }

    #[test]
    fn loop_forest_merges_shared_headers() {
        // `continue` and the bottom of the body both branch back to
        // the header: two back edges, one merged loop.
        let p = program(
            r#"
            int f(int n) {
                int i, s = 0;
                for (i = 0; i < n; i++) {
                    if (i & 1) continue;
                    s += i;
                }
                return s;
            }
            "#,
        );
        let cfg = p.cfg(p.function_id("f").unwrap());
        let forest = analysis::LoopForest::compute(cfg);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].depth, 1);
    }

    #[test]
    fn do_while_executes_body_first() {
        let p = program("int f(int n) { int s = 0; do { s++; } while (s < n); return s; }");
        let cfg = p.cfg(p.function_id("f").unwrap());
        let loops = analysis::natural_loops(cfg);
        assert_eq!(loops.len(), 1);
        // Entry flows into the body, not into a test-first header: the
        // loop header (target of the back edge) has 2 predecessors.
        let preds = cfg.predecessors();
        assert_eq!(preds[loops[0].header.0 as usize].len(), 2);
    }

    #[test]
    fn code_after_return_is_removed() {
        let p = program("int f(void) { return 1; { int x = 2; x++; } }");
        let cfg = p.cfg(p.function_id("f").unwrap());
        assert_eq!(cfg.len(), 1);
    }

    #[test]
    fn call_graph_direct_and_indirect() {
        let p = program(
            r#"
            int leaf(int x) { return x; }
            int mid(int x) { return leaf(x) + leaf(x + 1); }
            int main(void) {
                int (*fp)(int) = leaf;
                return mid(1) + fp(2);
            }
            "#,
        );
        let cg = &p.callgraph;
        assert_eq!(cg.direct.len(), 3); // leaf×2 from mid, mid from main
        assert_eq!(cg.indirect.len(), 1);
        let mid = p.function_id("mid").unwrap();
        assert_eq!(cg.calls_from(mid).count(), 2);
        let leaf = p.function_id("leaf").unwrap();
        assert_eq!(cg.calls_to(leaf).count(), 2);
    }

    #[test]
    fn recursion_shows_in_scc() {
        let p = program(
            r#"
            int odd(int n);
            int even(int n) { if (n == 0) return 1; return odd(n - 1); }
            int odd(int n) { if (n == 0) return 0; return even(n - 1); }
            int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
            int main(void) { return even(4) + fact(3); }
            "#,
        );
        let adj = p.callgraph.adjacency(p.module.functions.len());
        let sccs = analysis::tarjan_scc(&adj);
        let even = p.function_id("even").unwrap().0 as usize;
        let fact = p.function_id("fact").unwrap().0 as usize;
        let main = p.function_id("main").unwrap().0 as usize;
        assert!(analysis::in_cycle(&adj, &sccs, even));
        assert!(analysis::in_cycle(&adj, &sccs, fact));
        assert!(!analysis::in_cycle(&adj, &sccs, main));
    }

    #[test]
    fn anchors_cover_most_blocks() {
        let p = program(
            r#"
            int f(int n) {
                int s = 0;
                while (n > 0) {
                    if (n % 2) s += n;
                    n--;
                }
                return s;
            }
            "#,
        );
        let cfg = p.cfg(p.function_id("f").unwrap());
        let anchored = cfg.blocks.iter().filter(|b| b.anchor.is_some()).count();
        assert!(anchored >= cfg.len() - 1, "{anchored}/{}", cfg.len());
    }

    #[test]
    fn dominators_basic() {
        let p = program("int f(int a) { if (a) a++; else a--; return a; }");
        let cfg = p.cfg(p.function_id("f").unwrap());
        let dom = analysis::Dominators::compute(cfg);
        for b in &cfg.blocks {
            assert!(dom.dominates(cfg.entry, b.id));
        }
    }

    #[test]
    fn dot_output_renders() {
        let p = program("int f(int a) { if (a) return 1; return 0; }");
        let cfg = p.cfg(p.function_id("f").unwrap());
        let dot = dot::cfg_to_dot(&p.module, cfg, None);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("entry"));
        let cgdot = dot::callgraph_to_dot(&p.module, &p.callgraph);
        assert!(cgdot.contains("digraph callgraph"));
    }
}
