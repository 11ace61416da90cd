//! Graphviz (DOT) rendering of CFGs and call graphs, for debugging and
//! for reproducing the paper's Figure 6 (the annotated `strchr` CFG).

use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, Terminator};
use minic::sema::Module;
use std::fmt::Write as _;

/// Renders a CFG as a DOT digraph. Optional per-block annotations (e.g.
/// estimated or profiled frequencies) are printed in each node label.
pub fn cfg_to_dot(module: &Module, cfg: &Cfg, annot: Option<&[f64]>) -> String {
    let name = &module.function(cfg.func).name;
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{name}\" {{");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for b in &cfg.blocks {
        let mut label = format!("B{}", b.id.0);
        if b.id == cfg.entry {
            label.push_str(" (entry)");
        }
        if let Some(vals) = annot {
            let _ = write!(label, "\\nfreq={:.3}", vals[b.id.0 as usize]);
        }
        let _ = write!(label, "\\n{} instrs", b.instrs.len());
        let _ = writeln!(out, "  b{} [label=\"{label}\"];", b.id.0);
    }
    for b in &cfg.blocks {
        match &b.term {
            Terminator::Goto(t) => {
                let _ = writeln!(out, "  b{} -> b{};", b.id.0, t.0);
            }
            Terminator::Branch {
                then_blk, else_blk, ..
            } => {
                let _ = writeln!(out, "  b{} -> b{} [label=\"T\"];", b.id.0, then_blk.0);
                let _ = writeln!(out, "  b{} -> b{} [label=\"F\"];", b.id.0, else_blk.0);
            }
            Terminator::Switch { cases, default, .. } => {
                for (v, t) in cases {
                    let _ = writeln!(out, "  b{} -> b{} [label=\"{v}\"];", b.id.0, t.0);
                }
                let _ = writeln!(out, "  b{} -> b{} [label=\"default\"];", b.id.0, default.0);
            }
            Terminator::Return(_) => {}
        }
    }
    out.push_str("}\n");
    out
}

/// Renders the direct call graph as a DOT digraph.
pub fn callgraph_to_dot(module: &Module, cg: &CallGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph callgraph {{");
    for f in &module.functions {
        let shape = if f.is_defined() { "ellipse" } else { "box" };
        let _ = writeln!(out, "  f{} [label=\"{}\", shape={shape}];", f.id.0, f.name);
    }
    let mut seen = std::collections::HashSet::new();
    for arc in &cg.direct {
        let callee = arc.callee.expect("direct arc");
        if seen.insert((arc.caller, callee)) {
            let _ = writeln!(out, "  f{} -> f{};", arc.caller.0, callee.0);
        }
    }
    if !cg.indirect.is_empty() {
        let _ = writeln!(out, "  ptr [label=\"(pointer node)\", shape=diamond];");
        let mut callers = std::collections::HashSet::new();
        for arc in &cg.indirect {
            if callers.insert(arc.caller) {
                let _ = writeln!(out, "  f{} -> ptr [style=dashed];", arc.caller.0);
            }
        }
        for (fid, _) in module.side.address_taken_funcs() {
            let _ = writeln!(out, "  ptr -> f{} [style=dashed];", fid.0);
        }
    }
    out.push_str("}\n");
    out
}
