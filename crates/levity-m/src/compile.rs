//! One-time compilation of [`MExpr`] trees into pre-resolved [`Code`].
//!
//! The Figure 6 machine passes parameters "by substitution"; the paper
//! itself notes that a real machine would pass them in registers
//! instead, which is possible precisely because every substituted value
//! has a known width (§6.2). This module is the first half of that real
//! machine: a compilation pass that resolves every variable occurrence
//! to a de-Bruijn *frame slot* — an index into the runtime environment
//! of [`crate::env::EnvMachine`] — so that β-reduction becomes an O(1)
//! environment extension instead of an O(|body|) tree rebuild.
//!
//! What compilation precomputes:
//!
//! * **Variable occurrences** become [`CAtom::Local`] indices (0 = the
//!   innermost binder). Free variables compile to [`CAtom::Unbound`],
//!   which reproduces the substitution machine's `UnboundVariable`
//!   error lazily, at the same evaluation point.
//! * **Binders** keep their [`Binder`] (name + register class): the
//!   §6.2 width check survives the representation change because every
//!   environment extension is still checked against the binder's
//!   precomputed [`levity_core::rep::Slot`] class. A levity-polymorphic
//!   binder is as unrepresentable in [`Code`] as it is in [`MExpr`].
//! * **Global references** become [`GlobalId`] indices into a
//!   [`CodeProgram`], whose bodies are compiled exactly once and shared
//!   (`Arc`) across every run.
//! * **Case alternatives** become shared `Arc<[CAlt]>`, so a CASE
//!   transition pushes its frame without cloning the alternatives.
//!
//! Scoping mirrors [`crate::subst`]: `let` binds its variable in both
//! the right-hand side (cyclic thunks) and the body; `let!` only in the
//! body; case-field binders bind in their alternative's right-hand
//! side, with the *last* of two same-named binders shadowing the first.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use levity_core::symbol::Symbol;

use crate::machine::Globals;
use crate::syntax::{Addr, Alt, Atom, Binder, DataCon, Literal, MExpr, PrimOp};

/// A compiled join-point definition: the body is compiled against the
/// definition-site scope extended by the parameters, and the
/// environment engine snapshots the definition-site [`crate::env::Env`]
/// when the `join` is evaluated.
#[derive(Clone, Debug, PartialEq)]
pub struct CJoin {
    /// The join point's (program-unique) name.
    pub name: Symbol,
    /// Parameters with their register classes.
    pub params: Arc<[Binder]>,
    /// The compiled continuation body.
    pub body: Arc<Code>,
}

/// Index of a compiled global in a [`CodeProgram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// A compiled atom: argument positions after variable resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CAtom {
    /// A de-Bruijn index into the runtime environment (0 = innermost
    /// binder).
    Local(u32),
    /// A literal.
    Lit(Literal),
    /// A pre-resolved heap address (only in terms built at runtime).
    Addr(Addr),
    /// A variable that was free at compile time; resolving it at
    /// runtime reproduces `UnboundVariable` at the same program point
    /// as the substitution machine.
    Unbound(Symbol),
}

/// A compiled case alternative.
#[derive(Clone, Debug, PartialEq)]
pub enum CAlt {
    /// `C y₁ … yₙ -> t`, fields bound innermost-last.
    Con(Arc<DataCon>, Arc<[Binder]>, Arc<Code>),
    /// `lit -> t`.
    Lit(Literal, Arc<Code>),
}

/// A compiled `M` expression: same shape as [`MExpr`], with variables
/// resolved to environment slots and shared alternative/argument lists.
#[derive(Clone, Debug, PartialEq)]
pub enum Code {
    /// An atom in expression position.
    Atom(CAtom),
    /// `t a`.
    App(Arc<Code>, CAtom),
    /// `λy. t`; evaluates to a closure capturing the environment.
    Lam(Binder, Arc<Code>),
    /// `let p = t₁ in t₂`; the binder (kept for readback) scopes over
    /// both `t₁` and `t₂`.
    LetLazy(Symbol, Arc<Code>, Arc<Code>),
    /// `let! y = t₁ in t₂`; the binder scopes over `t₂` only.
    LetStrict(Binder, Arc<Code>, Arc<Code>),
    /// `case t of alts [default]`.
    Case(Arc<Code>, Arc<[CAlt]>, Option<(Binder, Arc<Code>)>),
    /// A saturated constructor application. The constructor is behind
    /// an `Arc` so building and copying constructor *values* never
    /// re-clones its field-class vector.
    Con(Arc<DataCon>, Arc<[CAtom]>),
    /// A saturated primitive operation.
    Prim(PrimOp, Arc<[CAtom]>),
    /// `(# a₁, …, aₙ #)`.
    MultiVal(Arc<[CAtom]>),
    /// `case t of (# y₁, …, yₙ #) -> t₂`.
    CaseMulti(Arc<Code>, Arc<[Binder]>, Arc<Code>),
    /// `join j params = t₁ in t₂`: records the continuation (no
    /// allocation) and continues with `t₂`.
    LetJoin(Arc<CJoin>, Arc<Code>),
    /// `jump j a₁ … aₙ`: transfers control to the join body under its
    /// definition-site environment extended by the arguments.
    Jump(Symbol, Arc<[CAtom]>),
    /// A resolved reference to a compiled global (name kept for
    /// readback).
    Global(GlobalId, Symbol),
    /// A reference to a global absent at compile time; evaluating it
    /// reproduces `UnknownGlobal`.
    UnknownGlobal(Symbol),
    /// `error`: aborts the machine (rule ERR).
    Error(String),
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Code is displayed via readback-free structural printing; the
        // de-Bruijn indices are shown as `%i`.
        match self {
            Code::Atom(a) => write!(f, "{a:?}"),
            Code::App(t, a) => write!(f, "({t} {a:?})"),
            Code::Lam(b, t) => write!(f, "\\{b}. {t}"),
            Code::LetLazy(p, rhs, body) => write!(f, "let {p} = {rhs} in {body}"),
            Code::LetStrict(b, rhs, body) => write!(f, "let! {b} = {rhs} in {body}"),
            Code::Case(s, _, _) => write!(f, "case {s} of {{…}}"),
            Code::Con(c, args) => write!(f, "{c}[{args:?}]"),
            Code::Prim(op, args) => write!(f, "({op} {args:?})"),
            Code::MultiVal(args) => write!(f, "(# {args:?} #)"),
            Code::CaseMulti(s, _, t) => write!(f, "case {s} of (# … #) -> {t}"),
            Code::LetJoin(def, body) => write!(f, "join {} = {} in {body}", def.name, def.body),
            Code::Jump(j, args) => write!(f, "jump {j} {args:?}"),
            Code::Global(_, g) => write!(f, "@{g}"),
            Code::UnknownGlobal(g) => write!(f, "@{g}"),
            Code::Error(msg) => write!(f, "error \"{msg}\""),
        }
    }
}

/// A whole compiled program: every global body compiled exactly once,
/// shared by reference across machine runs.
#[derive(Clone, Debug, Default)]
pub struct CodeProgram {
    ids: HashMap<Symbol, GlobalId>,
    names: Vec<Symbol>,
    bodies: Vec<Arc<Code>>,
}

impl CodeProgram {
    /// Compiles every global definition. Bodies may reference each
    /// other freely (mutual recursion): ids are assigned to all names
    /// first, then each body is compiled against the full table.
    pub fn compile(globals: &Globals) -> CodeProgram {
        let mut entries: Vec<(Symbol, &Arc<MExpr>)> = globals.iter().collect();
        // Deterministic id assignment (HashMap iteration order is not),
        // keyed on the names' text: symbols have no order of their own
        // (see `Symbol`). Source-level names come before the
        // compiler-minted `$`-prefixed ones (workers, specialisations).
        entries.sort_by_cached_key(|(name, _)| {
            let text = name.as_str();
            (text.starts_with('$'), text)
        });
        let mut program = CodeProgram::default();
        for (ix, (name, _)) in entries.iter().enumerate() {
            program.ids.insert(*name, GlobalId(ix as u32));
            program.names.push(*name);
        }
        for (_, body) in &entries {
            let code = compile_in(&program, &mut Vec::new(), body);
            program.bodies.push(code);
        }
        program
    }

    /// Compiles a closed entry term against this program's globals.
    /// This is the per-run cost of the environment engine: one
    /// traversal of the (typically tiny) entry expression.
    pub fn compile_entry(&self, t: &Arc<MExpr>) -> Arc<Code> {
        compile_in(self, &mut Vec::new(), t)
    }

    /// Resolves a global name to its id.
    pub fn lookup(&self, name: Symbol) -> Option<GlobalId> {
        self.ids.get(&name).copied()
    }

    /// The compiled body of a global.
    pub fn body(&self, id: GlobalId) -> &Arc<Code> {
        &self.bodies[id.0 as usize]
    }

    /// The name of a global.
    pub fn name(&self, id: GlobalId) -> Symbol {
        self.names[id.0 as usize]
    }

    /// Number of compiled globals.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }
}

/// Resolves a variable against the compile-time scope stack; innermost
/// binder wins, so index 0 is the top of the stack.
fn resolve_var(scope: &[Symbol], name: Symbol) -> Option<u32> {
    scope
        .iter()
        .rev()
        .position(|bound| *bound == name)
        .map(|ix| ix as u32)
}

fn compile_atom(scope: &[Symbol], a: Atom) -> CAtom {
    match a {
        Atom::Var(x) => match resolve_var(scope, x) {
            Some(ix) => CAtom::Local(ix),
            None => CAtom::Unbound(x),
        },
        Atom::Lit(l) => CAtom::Lit(l),
        Atom::Addr(addr) => CAtom::Addr(addr),
    }
}

fn compile_atoms(scope: &[Symbol], args: &[Atom]) -> Arc<[CAtom]> {
    args.iter().map(|a| compile_atom(scope, *a)).collect()
}

fn compile_in(program: &CodeProgram, scope: &mut Vec<Symbol>, t: &Arc<MExpr>) -> Arc<Code> {
    Arc::new(match &**t {
        MExpr::Atom(a) => Code::Atom(compile_atom(scope, *a)),
        MExpr::App(fun, arg) => {
            let arg = compile_atom(scope, *arg);
            Code::App(compile_in(program, scope, fun), arg)
        }
        MExpr::Lam(binder, body) => {
            scope.push(binder.name);
            let body = compile_in(program, scope, body);
            scope.pop();
            Code::Lam(*binder, body)
        }
        MExpr::LetLazy(p, rhs, body) => {
            // The binder scopes over both rhs (cyclic thunks) and body.
            scope.push(*p);
            let rhs = compile_in(program, scope, rhs);
            let body = compile_in(program, scope, body);
            scope.pop();
            Code::LetLazy(*p, rhs, body)
        }
        MExpr::LetStrict(binder, rhs, body) => {
            let rhs = compile_in(program, scope, rhs);
            scope.push(binder.name);
            let body = compile_in(program, scope, body);
            scope.pop();
            Code::LetStrict(*binder, rhs, body)
        }
        MExpr::Case(scrut, alts, def) => {
            let scrut = compile_in(program, scope, scrut);
            let alts: Arc<[CAlt]> = alts
                .iter()
                .map(|alt| match alt {
                    Alt::Con(c, binders, rhs) => {
                        let depth = scope.len();
                        scope.extend(binders.iter().map(|b| b.name));
                        let rhs = compile_in(program, scope, rhs);
                        scope.truncate(depth);
                        CAlt::Con(Arc::new(c.clone()), binders.iter().copied().collect(), rhs)
                    }
                    Alt::Lit(l, rhs) => CAlt::Lit(*l, compile_in(program, scope, rhs)),
                })
                .collect();
            let def = def.as_ref().map(|(b, rhs)| {
                scope.push(b.name);
                let rhs = compile_in(program, scope, rhs);
                scope.pop();
                (*b, rhs)
            });
            Code::Case(scrut, alts, def)
        }
        MExpr::Con(c, args) => Code::Con(Arc::new(c.clone()), compile_atoms(scope, args)),
        MExpr::Prim(op, args) => Code::Prim(*op, compile_atoms(scope, args)),
        MExpr::MultiVal(args) => Code::MultiVal(compile_atoms(scope, args)),
        MExpr::CaseMulti(scrut, binders, body) => {
            let scrut = compile_in(program, scope, scrut);
            let depth = scope.len();
            scope.extend(binders.iter().map(|b| b.name));
            let body = compile_in(program, scope, body);
            scope.truncate(depth);
            Code::CaseMulti(scrut, binders.iter().copied().collect(), body)
        }
        MExpr::Global(g) => match program.lookup(*g) {
            Some(id) => Code::Global(id, *g),
            None => Code::UnknownGlobal(*g),
        },
        MExpr::LetJoin(def, body) => {
            // The join body sees the definition-site scope plus its own
            // parameters; the join *name* is not a term variable, so it
            // never enters the scope stack.
            let depth = scope.len();
            scope.extend(def.params.iter().map(|b| b.name));
            let jbody = compile_in(program, scope, &def.body);
            scope.truncate(depth);
            let body = compile_in(program, scope, body);
            Code::LetJoin(
                Arc::new(CJoin {
                    name: def.name,
                    params: def.params.iter().copied().collect(),
                    body: jbody,
                }),
                body,
            )
        }
        MExpr::Jump(j, args) => Code::Jump(*j, compile_atoms(scope, args)),
        MExpr::Error(msg) => Code::Error(msg.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_core::rep::Slot;

    fn atom_var(name: &str) -> Atom {
        Atom::Var(Symbol::intern(name))
    }

    #[test]
    fn variables_resolve_to_de_bruijn_indices() {
        // λa. λb. a — `a` is one binder out, so index 1.
        let t = MExpr::lams([Binder::int("a"), Binder::int("b")], MExpr::var("a"));
        let code = CodeProgram::default().compile_entry(&t);
        let Code::Lam(_, inner) = &*code else {
            panic!("expected lambda")
        };
        let Code::Lam(_, body) = &**inner else {
            panic!("expected lambda")
        };
        assert_eq!(**body, Code::Atom(CAtom::Local(1)));
    }

    #[test]
    fn innermost_binder_shadows() {
        // λx. λx. x resolves to the inner binder (index 0).
        let t = MExpr::lams([Binder::int("x"), Binder::ptr("x")], MExpr::var("x"));
        let code = CodeProgram::default().compile_entry(&t);
        let Code::Lam(_, inner) = &*code else {
            panic!("expected lambda")
        };
        let Code::Lam(b, body) = &**inner else {
            panic!("expected lambda")
        };
        assert_eq!(b.class, Slot::Ptr);
        assert_eq!(**body, Code::Atom(CAtom::Local(0)));
    }

    #[test]
    fn free_variables_compile_to_unbound() {
        let t = MExpr::var("ghost");
        let code = CodeProgram::default().compile_entry(&t);
        assert_eq!(*code, Code::Atom(CAtom::Unbound(Symbol::intern("ghost"))));
    }

    #[test]
    fn lazy_let_binder_scopes_over_rhs_and_body() {
        // let p = p in p — both occurrences hit the binder (cyclic).
        let t = MExpr::let_lazy("p", MExpr::var("p"), MExpr::var("p"));
        let code = CodeProgram::default().compile_entry(&t);
        let Code::LetLazy(_, rhs, body) = &*code else {
            panic!("expected let")
        };
        assert_eq!(**rhs, Code::Atom(CAtom::Local(0)));
        assert_eq!(**body, Code::Atom(CAtom::Local(0)));
    }

    #[test]
    fn strict_let_binder_scopes_over_body_only() {
        // let! y = y in y — rhs `y` is free, body `y` is bound.
        let t = MExpr::let_strict(Binder::int("y"), MExpr::var("y"), MExpr::var("y"));
        let code = CodeProgram::default().compile_entry(&t);
        let Code::LetStrict(_, rhs, body) = &*code else {
            panic!("expected let!")
        };
        assert_eq!(**rhs, Code::Atom(CAtom::Unbound(Symbol::intern("y"))));
        assert_eq!(**body, Code::Atom(CAtom::Local(0)));
    }

    #[test]
    fn case_alt_binders_bind_their_rhs() {
        let t = MExpr::case_int_hash(MExpr::var("s"), "i", MExpr::var("i"));
        let code = CodeProgram::default().compile_entry(&t);
        let Code::Case(scrut, alts, _) = &*code else {
            panic!("expected case")
        };
        assert_eq!(**scrut, Code::Atom(CAtom::Unbound(Symbol::intern("s"))));
        let CAlt::Con(_, binders, rhs) = &alts[0] else {
            panic!("expected con alt")
        };
        assert_eq!(binders.len(), 1);
        assert_eq!(**rhs, Code::Atom(CAtom::Local(0)));
    }

    #[test]
    fn multi_field_binders_index_innermost_last() {
        // case s of (# a, b #) -> a: `a` is the first of two pushed
        // binders, so its index is 1; `b` would be 0.
        let t = Arc::new(MExpr::CaseMulti(
            MExpr::var("s"),
            vec![Binder::int("a"), Binder::int("b")],
            Arc::new(MExpr::Prim(
                PrimOp::AddI,
                vec![atom_var("a"), atom_var("b")],
            )),
        ));
        let code = CodeProgram::default().compile_entry(&t);
        let Code::CaseMulti(_, _, body) = &*code else {
            panic!("expected case-multi")
        };
        let Code::Prim(_, args) = &**body else {
            panic!("expected prim")
        };
        assert_eq!(&**args, &[CAtom::Local(1), CAtom::Local(0)]);
    }

    #[test]
    fn globals_resolve_to_ids_and_unknowns_are_kept() {
        let mut globals = Globals::new();
        globals.define("f", MExpr::int(1));
        let program = CodeProgram::compile(&globals);
        assert_eq!(program.len(), 1);
        let known = program.compile_entry(&MExpr::global("f"));
        let id = program.lookup(Symbol::intern("f")).unwrap();
        assert_eq!(*known, Code::Global(id, Symbol::intern("f")));
        assert_eq!(program.name(id), Symbol::intern("f"));
        let unknown = program.compile_entry(&MExpr::global("nope"));
        assert_eq!(*unknown, Code::UnknownGlobal(Symbol::intern("nope")));
    }

    #[test]
    fn mutually_recursive_globals_compile() {
        let mut globals = Globals::new();
        globals.define("even", MExpr::global("odd"));
        globals.define("odd", MExpr::global("even"));
        let program = CodeProgram::compile(&globals);
        let even = program.lookup(Symbol::intern("even")).unwrap();
        let odd = program.lookup(Symbol::intern("odd")).unwrap();
        assert_eq!(
            **program.body(even),
            Code::Global(odd, Symbol::intern("odd"))
        );
        assert_eq!(
            **program.body(odd),
            Code::Global(even, Symbol::intern("even"))
        );
    }
}
