//! Global usage analysis and dead-global elimination.
//!
//! The optimizer runs the elimination twice when it has entry points.
//!
//! *Before* the passes, it prunes the program to what the entries
//! reach. A tenant's module is compiled together with the whole
//! prelude, and usually calls a handful of its ~95 bindings; every
//! pass only acts on reachable code, so optimising and re-checking the
//! rest would be work thrown away.
//!
//! *After* the passes, it drops what they orphaned. Function
//! specialisation leaves the constrained originals behind with no
//! remaining callers, the dictionary pass orphans selectors whose every
//! projection became a direct instance-method call, and the
//! worker/wrapper split strands wrappers once every call site has
//! inlined them. Kept, all of them would still be lowered, compiled
//! into the environment engine's [`CodeProgram`], and carried through
//! every run — paying compile time and code size for bindings no
//! execution can reach.
//!
//! The analysis is a reachability walk over the top-level call graph
//! ([`globals_of`] collects each binding's referenced globals) from an
//! explicit *entry-point set*. The driver chooses the set: `main` when
//! the program defines it, every global otherwise — and callers can
//! name their own (see `levity-driver`'s `compile_*_entries`). A
//! binding outside the reachable set cannot influence any run from the
//! entries, so dropping it is outcome-exact by construction; the
//! re-typecheck after the pass certifies no reachable binding lost a
//! callee.
//!
//! [`CodeProgram`]: levity_m::compile::CodeProgram

use std::collections::HashSet;

use levity_core::symbol::Symbol;
use levity_ir::terms::Program;

use super::subst::globals_of;

/// The set of globals reachable from `entries` through top-level
/// bindings' bodies. Entries that name no binding contribute nothing.
pub fn reachable_globals(prog: &Program, entries: &HashSet<Symbol>) -> HashSet<Symbol> {
    let mut reachable: HashSet<Symbol> = HashSet::new();
    let mut work: Vec<Symbol> = entries
        .iter()
        .copied()
        .filter(|n| prog.binding(*n).is_some())
        .collect();
    while let Some(name) = work.pop() {
        if !reachable.insert(name) {
            continue;
        }
        if let Some(bind) = prog.binding(name) {
            let mut callees = Vec::new();
            globals_of(&bind.expr, &mut callees);
            for callee in callees {
                if !reachable.contains(&callee) {
                    work.push(callee);
                }
            }
        }
    }
    reachable
}

/// Drops every binding not reachable from `entries`. Returns the
/// pruned program and the number of bindings eliminated. Datatype
/// declarations are kept — they carry no code.
pub fn eliminate_dead_globals(prog: &Program, entries: &HashSet<Symbol>) -> (Program, usize) {
    let keep = reachable_globals(prog, entries);
    let before = prog.bindings.len();
    let bindings: Vec<_> = prog
        .bindings
        .iter()
        .filter(|b| keep.contains(&b.name))
        .cloned()
        .collect();
    let dropped = before - bindings.len();
    (
        Program {
            data_decls: prog.data_decls.clone(),
            bindings,
        },
        dropped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_ir::terms::{CoreExpr, TopBind};
    use levity_ir::typecheck::TypeEnv;
    use levity_ir::types::Type;

    fn prog() -> Program {
        let env = TypeEnv::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let bind = |name: &str, expr: CoreExpr| TopBind {
            name: name.into(),
            ty: ih.clone(),
            expr,
        };
        Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![
                bind("main", CoreExpr::Global("helper".into())),
                bind("helper", CoreExpr::int(1)),
                bind("orphan", CoreExpr::Global("orphanHelper".into())),
                bind("orphanHelper", CoreExpr::int(2)),
            ],
        }
    }

    #[test]
    fn reachability_follows_the_call_graph() {
        let p = prog();
        let entries: HashSet<Symbol> = ["main".into()].into();
        let r = reachable_globals(&p, &entries);
        assert!(r.contains(&Symbol::intern("main")));
        assert!(r.contains(&Symbol::intern("helper")));
        assert!(!r.contains(&Symbol::intern("orphan")));
        assert!(!r.contains(&Symbol::intern("orphanHelper")));
    }

    #[test]
    fn elimination_drops_exactly_the_unreachable() {
        let p = prog();
        let entries: HashSet<Symbol> = ["main".into()].into();
        let (out, dropped) = eliminate_dead_globals(&p, &entries);
        assert_eq!(dropped, 2);
        assert_eq!(out.bindings.len(), 2);
        assert!(out.binding("main".into()).is_some());
        assert!(out.binding("orphan".into()).is_none());
    }

    #[test]
    fn an_entry_point_keeps_an_otherwise_dead_global() {
        let p = prog();
        let entries: HashSet<Symbol> = ["main".into(), "orphan".into()].into();
        let (out, dropped) = eliminate_dead_globals(&p, &entries);
        assert_eq!(dropped, 0);
        assert_eq!(out.bindings.len(), 4, "orphan pulls in orphanHelper");
    }

    #[test]
    fn unknown_entries_are_ignored() {
        let p = prog();
        let entries: HashSet<Symbol> = ["main".into(), "noSuchGlobal".into()].into();
        let (out, dropped) = eliminate_dead_globals(&p, &entries);
        assert_eq!(dropped, 2);
        assert_eq!(out.bindings.len(), 2);
    }
}
