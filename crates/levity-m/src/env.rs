//! The environment (closure) engine: a CEK/STG-style evaluator for
//! pre-compiled [`Code`] that passes parameters through an environment
//! instead of substituting into the term.
//!
//! [`crate::machine::Machine`] is the executable reference semantics —
//! a literal transcription of Figure 6, where PAPP/IPOP rebuild the
//! λ-body with `subst_atom` on every β-step. This engine takes the
//! paper's own hint that "in a real machine, of course, parameters to
//! functions would be passed in registers" (§6.2): a λ evaluates to a
//! *closure* capturing its environment, application *extends* the
//! environment (one O(1) cons onto a persistent list), and every
//! variable occurrence was resolved to a frame slot by
//! [`crate::compile`].
//!
//! The transition structure mirrors Figure 6 one-for-one — same rules,
//! same evaluation order, same heap discipline (thunks, blackholes,
//! updates), same width checks against each binder's precomputed
//! register class. Because the engines take structurally identical
//! steps, **every** [`MachineStats`] counter (including `steps` and
//! `max_stack`) and every outcome, `error` abort and [`MachineError`]
//! agree with the substitution machine; the differential test suite in
//! `tests/differential.rs` enforces this on the whole corpus. Heap
//! addresses even coincide, since both engines allocate in the same
//! event order.
//!
//! Final values are *read back* into the public [`Value`] type:
//! closures decompile to the same substituted λ-term the reference
//! machine would have produced.

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use levity_core::symbol::Symbol;

use crate::compile::{CAlt, CAtom, CJoin, Code, CodeProgram};
use crate::machine::{MachineError, MachineStats, RunOutcome, Value};
use crate::prim::apply_prim;
use crate::syntax::{Addr, Alt, Atom, Binder, JoinDef, Literal, MExpr};

// Pointer discipline, chosen for the serving workload: the *compiled
// program* is shared across worker threads (hence `Arc` spines in
// `crate::compile`), but a running machine is strictly thread-local —
// so the hot loop must never pay an atomic reference-count bump.
// Static code is **borrowed** (`&'p Code`: the program outlives the
// machine, so entering a code node is a pointer copy), and the
// runtime structures the machine itself builds (environment chains,
// join scopes, constructor argument blocks) use plain `Rc`. Measured
// on the sum_to/num_class ladders, the all-`Arc` variant of this
// engine was ~2.6× slower — the entire gap was refcount traffic.

/// A persistent runtime environment: a shared cons-list of resolved
/// atoms. Extension and capture are O(1); looking up de-Bruijn index
/// `i` walks `i` links (small in practice: lambda bodies are shallow).
#[derive(Clone, Debug, Default)]
pub struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    atom: Atom,
    next: Env,
}

// Iterative drop: an environment chain can grow with the workload (one
// link per binding), and the derived recursive drop of a long chain
// overflows the *native* stack — fatal in a serving worker. Walk the
// links, stopping at the first one another handle still shares.
impl Drop for Env {
    fn drop(&mut self) {
        let mut cur = self.0.take();
        while let Some(node) = cur {
            match Rc::try_unwrap(node) {
                Ok(mut node) => cur = node.next.0.take(),
                Err(_shared) => break,
            }
        }
    }
}

impl Env {
    /// The empty environment.
    pub fn nil() -> Env {
        Env(None)
    }

    /// Extends the environment with one binding (index 0 of the result).
    #[must_use]
    #[inline]
    pub fn push(&self, atom: Atom) -> Env {
        Env(Some(Rc::new(EnvNode {
            atom,
            next: self.clone(),
        })))
    }

    /// Looks up de-Bruijn index `ix`. Panics if out of range — the
    /// compiler only emits indices below the static binding depth.
    #[inline]
    pub fn get(&self, ix: u32) -> Atom {
        let mut node = self.0.as_deref().expect("environment index out of range");
        for _ in 0..ix {
            node = node
                .next
                .0
                .as_deref()
                .expect("environment index out of range");
        }
        node.atom
    }

    /// Number of bindings (test/debug helper; O(n)).
    pub fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = &self.0;
        while let Some(node) = cur.as_deref() {
            n += 1;
            cur = &node.next.0;
        }
        n
    }
}

/// A runtime value of the environment engine. Differs from [`Value`]
/// only at functions, which are closures over an [`Env`] rather than
/// substituted terms.
#[derive(Clone, Debug)]
pub enum EValue<'p> {
    /// `λy. t` plus its captured environment.
    Clos(Binder, &'p Code, Env),
    /// A saturated constructor value. The descriptor is borrowed from
    /// the program and the argument block is shared, so copying a
    /// constructor value (VAL lookups, thunk updates) is one
    /// reference-count bump, never a field copy.
    Con(&'p crate::syntax::DataCon, Rc<[Atom]>),
    /// A literal.
    Lit(Literal),
    /// An unboxed multi-value.
    Multi(Vec<Atom>),
}

impl fmt::Display for EValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Must render exactly like [`Value`]: these strings reach
        // MachineError payloads that the differential suite compares.
        match self {
            EValue::Clos(b, _, _) => write!(f, "<function \\{b}>"),
            EValue::Con(c, args) => {
                write!(f, "{c}[")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            EValue::Lit(l) => write!(f, "{l}"),
            EValue::Multi(args) => {
                write!(f, "(#")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, " {a}")?;
                }
                write!(f, " #)")
            }
        }
    }
}

/// A heap cell of the environment engine: thunks are (code, env) pairs.
#[derive(Clone, Debug)]
enum ECell<'p> {
    Thunk(&'p Code, Env),
    Value(EValue<'p>),
    Blackhole,
}

/// Join points in scope: a persistent cons-list of (compiled
/// definition, definition-site environment). Mirrors the reference
/// machine's [`crate::machine::JoinScope`] — in particular it is
/// **captured by every frame that resumes evaluation**, so a jump taken
/// after a recursive call returns resolves against its own activation's
/// definitions (a flat machine-global map would be clobbered by the
/// callee re-executing the same static `join`).
#[derive(Clone, Debug, Default)]
struct EJoinScope<'p>(Option<Rc<EJoinNode<'p>>>);

#[derive(Debug)]
struct EJoinNode<'p> {
    def: &'p CJoin,
    env: Env,
    next: EJoinScope<'p>,
}

// Same iterative drop as [`Env`]: scope chains are usually shallow,
// but a worker must never die to a deep one.
impl Drop for EJoinScope<'_> {
    fn drop(&mut self) {
        let mut cur = self.0.take();
        while let Some(node) = cur {
            match Rc::try_unwrap(node) {
                Ok(mut node) => cur = node.next.0.take(),
                Err(_shared) => break,
            }
        }
    }
}

impl<'p> EJoinScope<'p> {
    fn nil() -> EJoinScope<'p> {
        EJoinScope(None)
    }

    #[must_use]
    fn push(&self, def: &'p CJoin, env: Env) -> EJoinScope<'p> {
        EJoinScope(Some(Rc::new(EJoinNode {
            def,
            env,
            next: self.clone(),
        })))
    }

    /// Resolves a jump target; innermost definition wins. Returns the
    /// definition, its definition-site environment, and the scope at
    /// its definition site (for the body's own jumps).
    fn get(&self, name: Symbol) -> Option<(&'p CJoin, Env, EJoinScope<'p>)> {
        let mut cur = self;
        while let Some(node) = cur.0.as_deref() {
            if node.def.name == name {
                return Some((node.def, node.env.clone(), EJoinScope(cur.0.clone())));
            }
            cur = &node.next;
        }
        None
    }
}

/// A stack frame, mirroring [`crate::machine::Frame`] with captured
/// environments where the reference machine stores substituted terms.
#[derive(Clone, Debug)]
enum EFrame<'p> {
    // No join scope: a λ body starts with no joins in scope, exactly
    // like the reference machine's `Frame::App` (see the invariant
    // note there).
    App(Atom),
    Force(Addr),
    LetStrict(Binder, &'p Code, Env, EJoinScope<'p>),
    Case(&'p [CAlt], Option<(Binder, &'p Code)>, Env, EJoinScope<'p>),
    CaseMulti(&'p [Binder], &'p Code, Env, EJoinScope<'p>),
}

enum EControl<'p> {
    Eval(&'p Code, Env, EJoinScope<'p>),
    Ret(EValue<'p>),
}

/// The environment-based evaluator for compiled programs.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use levity_m::compile::CodeProgram;
/// use levity_m::env::EnvMachine;
/// use levity_m::machine::{Globals, RunOutcome, Value};
/// use levity_m::syntax::{Atom, Binder, Literal, MExpr};
///
/// // (λi. i) 42#
/// let t = MExpr::app(
///     MExpr::lam(Binder::int("i"), MExpr::var("i")),
///     Atom::Lit(Literal::Int(42)),
/// );
/// let program = CodeProgram::compile(&Globals::new());
/// let entry = program.compile_entry(&t);
/// let mut machine = EnvMachine::new(&program);
/// let outcome = machine.run(&entry)?;
/// assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::Int(42))));
/// # Ok::<(), levity_m::machine::MachineError>(())
/// ```
///
/// The machine borrows the program (and the entry code) for its whole
/// lifetime `'p`: a run never bumps a reference count on static code,
/// which is what keeps thread-shared (`Arc`-spined) programs as cheap
/// to interpret as thread-local ones.
#[derive(Debug)]
pub struct EnvMachine<'p> {
    heap: Vec<ECell<'p>>,
    stack: Vec<EFrame<'p>>,
    program: &'p CodeProgram,
    stats: MachineStats,
    fuel: u64,
    alloc_limit: u64,
}

impl<'p> EnvMachine<'p> {
    /// A machine over the given compiled program with default fuel.
    pub fn new(program: &'p CodeProgram) -> EnvMachine<'p> {
        EnvMachine {
            heap: Vec::new(),
            stack: Vec::new(),
            program,
            stats: MachineStats::default(),
            fuel: crate::machine::Machine::DEFAULT_FUEL,
            alloc_limit: u64::MAX,
        }
    }

    /// Replaces the fuel limit.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Caps the estimated words this run may allocate; exceeding it
    /// fails with [`MachineError::AllocLimitExceeded`].
    pub fn set_alloc_limit(&mut self, words: u64) {
        self.alloc_limit = words;
    }

    /// Fails if the accumulated allocation estimate exceeds the cap.
    #[inline]
    fn check_alloc_limit(&self) -> Result<(), MachineError> {
        if self.stats.allocated_words > self.alloc_limit {
            Err(MachineError::AllocLimitExceeded {
                limit: self.alloc_limit,
            })
        } else {
            Ok(())
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Current heap size in cells.
    pub fn heap_size(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    fn alloc(&mut self, cell: ECell<'p>) -> Addr {
        let addr = Addr(self.heap.len() as u64);
        self.heap.push(cell);
        addr
    }

    /// Resolves a compiled atom to a runtime atom against the current
    /// environment.
    #[inline]
    fn resolve(&self, a: CAtom, env: &Env) -> Result<Atom, MachineError> {
        match a {
            CAtom::Local(ix) => Ok(env.get(ix)),
            CAtom::Lit(l) => Ok(Atom::Lit(l)),
            CAtom::Unbound(x) => Err(MachineError::UnboundVariable(x)),
        }
    }

    fn resolve_all(&self, args: &[CAtom], env: &Env) -> Result<Vec<Atom>, MachineError> {
        args.iter().map(|a| self.resolve(*a, env)).collect()
    }

    /// Resolves a compiled atom to a literal, for primops.
    #[inline]
    fn literal_of(&self, a: CAtom, env: &Env) -> Result<Literal, MachineError> {
        match self.resolve(a, env)? {
            Atom::Lit(l) => Ok(l),
            Atom::Addr(addr) => match &self.heap[addr.0 as usize] {
                ECell::Value(EValue::Lit(l)) => Ok(*l),
                _ => Err(MachineError::InvalidState(format!(
                    "primop argument at {addr} is not an evaluated literal"
                ))),
            },
            Atom::Var(_) => unreachable!("resolved"),
        }
    }

    /// Width check: binder class must equal atom class (§6.2). The
    /// binder's class was fixed at compile time, so this is a register
    /// class comparison, never a type-level question. Delegates to the
    /// one shared implementation in [`crate::machine`].
    #[inline]
    fn check_class(&self, binder: Binder, atom: Atom) -> Result<(), MachineError> {
        crate::machine::check_atom_class(binder, atom)
    }

    /// Turns a value into an atom, storing boxed values in the heap.
    fn value_to_atom(&mut self, w: EValue<'p>) -> Result<Atom, MachineError> {
        match w {
            EValue::Lit(l) => Ok(Atom::Lit(l)),
            EValue::Clos(..) | EValue::Con(..) => {
                let addr = self.alloc(ECell::Value(w));
                Ok(Atom::Addr(addr))
            }
            EValue::Multi(_) => Err(MachineError::InvalidState(
                "a multi-value cannot be bound to a single register".to_owned(),
            )),
        }
    }

    /// Runs compiled code to completion or abort. Mirrors
    /// [`crate::machine::Machine::run`] transition-for-transition.
    ///
    /// # Errors
    ///
    /// [`MachineError`] on broken invariants or fuel exhaustion;
    /// `error` is reported as `Ok(RunOutcome::Error(..))` (rule ERR).
    pub fn run(&mut self, entry: &'p Code) -> Result<RunOutcome, MachineError> {
        let mut control = EControl::Eval(entry, Env::nil(), EJoinScope::nil());
        loop {
            // ERR: ⟨error; S; H⟩ → ⊥, whatever the stack holds.
            if let EControl::Eval(Code::Error(msg), _, _) = &control {
                return Ok(RunOutcome::Error(msg.clone()));
            }
            if self.stats.steps >= self.fuel {
                return Err(MachineError::OutOfFuel { limit: self.fuel });
            }
            self.stats.steps += 1;
            control = match control {
                EControl::Eval(code, env, joins) => self.step_eval(code, env, joins)?,
                EControl::Ret(w) => match self.stack.pop() {
                    None => return Ok(RunOutcome::Value(self.readback_value(w))),
                    Some(frame) => self.step_ret(w, frame)?,
                },
            };
        }
    }

    fn eval_atom(&mut self, atom: Atom) -> Result<EControl<'p>, MachineError> {
        match atom {
            Atom::Lit(l) => Ok(EControl::Ret(EValue::Lit(l))),
            Atom::Addr(a) => {
                let ix = a.0 as usize;
                match &self.heap[ix] {
                    // VAL
                    ECell::Value(w) => {
                        self.stats.var_lookups += 1;
                        Ok(EControl::Ret(w.clone()))
                    }
                    // EVAL (with blackholing). Thunk bodies never jump
                    // to enclosing joins (lazy right-hand sides fail
                    // the escape analysis): fresh join scope.
                    ECell::Thunk(code, env) => {
                        self.stats.thunk_forces += 1;
                        let code = *code;
                        let env = env.clone();
                        self.heap[ix] = ECell::Blackhole;
                        self.push(EFrame::Force(a));
                        Ok(EControl::Eval(code, env, EJoinScope::nil()))
                    }
                    ECell::Blackhole => Err(MachineError::Loop),
                }
            }
            Atom::Var(_) => unreachable!("resolved"),
        }
    }

    fn step_eval(
        &mut self,
        code: &'p Code,
        env: Env,
        joins: EJoinScope<'p>,
    ) -> Result<EControl<'p>, MachineError> {
        match code {
            Code::Atom(a) => {
                let atom = self.resolve(*a, &env)?;
                self.eval_atom(atom)
            }
            // PAPP / IAPP: arguments are resolved before the function
            // is evaluated, exactly as the reference machine resolves
            // them before pushing the frame.
            Code::App(fun, arg) => {
                let arg = self.resolve(*arg, &env)?;
                self.push(EFrame::App(arg));
                Ok(EControl::Eval(fun, env, joins))
            }
            Code::Lam(binder, body) => Ok(EControl::Ret(EValue::Clos(*binder, body, env))),
            // LET: the thunk captures the environment *including* its
            // own address (cyclic thunks give recursion through the
            // heap), where the reference machine substitutes the
            // address into the rhs.
            Code::LetLazy(_, rhs, body) => {
                let addr = self.alloc(ECell::Blackhole);
                let env2 = env.push(Atom::Addr(addr));
                self.heap[addr.0 as usize] = ECell::Thunk(rhs, env2.clone());
                self.stats.thunk_allocs += 1;
                self.stats.allocated_words += 2;
                self.check_alloc_limit()?;
                Ok(EControl::Eval(body, env2, joins))
            }
            // SLET
            Code::LetStrict(binder, rhs, body) => {
                self.push(EFrame::LetStrict(*binder, body, env.clone(), joins.clone()));
                Ok(EControl::Eval(rhs, env, joins))
            }
            // CASE: pushing the frame borrows the compiled alternatives.
            Code::Case(scrut, alts, def) => {
                self.push(EFrame::Case(
                    alts,
                    def.as_ref().map(|(b, rhs)| (*b, &**rhs)),
                    env.clone(),
                    joins.clone(),
                ));
                Ok(EControl::Eval(scrut, env, joins))
            }
            Code::Con(c, args) => {
                let args: Rc<[Atom]> = self.resolve_all(args, &env)?.into();
                self.stats.con_allocs += 1;
                self.stats.allocated_words += 1 + args.len() as u64;
                self.check_alloc_limit()?;
                Ok(EControl::Ret(EValue::Con(c, args)))
            }
            Code::Prim(op, args) => {
                // Every current primop has arity ≤ 2: resolve into a
                // stack buffer instead of allocating a vector on every
                // operation. Oversaturated applications fall back to a
                // vector and still reach `apply_prim`, so its verdict
                // (and the prim_ops counter) matches the reference
                // machine exactly.
                let mut buf = [Literal::Int(0); 2];
                let mut overflow = Vec::new();
                let lits: &[Literal] = if args.len() <= 2 {
                    for (slot, a) in buf.iter_mut().zip(args.iter()) {
                        *slot = self.literal_of(*a, &env)?;
                    }
                    &buf[..args.len()]
                } else {
                    for a in args.iter() {
                        overflow.push(self.literal_of(*a, &env)?);
                    }
                    &overflow
                };
                self.stats.prim_ops += 1;
                Ok(EControl::Ret(EValue::Lit(apply_prim(*op, lits)?)))
            }
            Code::MultiVal(args) => Ok(EControl::Ret(EValue::Multi(self.resolve_all(args, &env)?))),
            Code::CaseMulti(scrut, binders, body) => {
                self.push(EFrame::CaseMulti(binders, body, env.clone(), joins.clone()));
                Ok(EControl::Eval(scrut, env, joins))
            }
            // JOIN: extend the scope with (definition, environment
            // snapshot); no allocation in the machine's cost model, one
            // transition — in lock-step with the reference machine.
            Code::LetJoin(def, body) => {
                let joins = joins.push(def, env.clone());
                Ok(EControl::Eval(body, env, joins))
            }
            // JUMP: resolve the arguments in the *jump-site* env, then
            // continue in the definition-site env extended by them and
            // the definition-site join scope. No frames — a goto,
            // exactly like the reference machine.
            Code::Jump(j, args) => {
                let (def, defenv, defscope) = joins.get(*j).ok_or(MachineError::UnknownJoin(*j))?;
                if def.params.len() != args.len() {
                    return Err(MachineError::InvalidState(format!(
                        "join point `{j}` arity mismatch"
                    )));
                }
                let args = self.resolve_all(args, &env)?;
                let mut env2 = defenv;
                for (b, a) in def.params.iter().zip(args.iter()) {
                    self.check_class(*b, *a)?;
                    env2 = env2.push(*a);
                }
                self.stats.jumps += 1;
                Ok(EControl::Eval(&def.body, env2, defscope))
            }
            // Globals were resolved to ids at compile time: entering
            // one is an indexed fetch of an already-compiled body. A
            // global body is closed — empty env, empty join scope.
            Code::Global(id, _) => Ok(EControl::Eval(
                self.program.body(*id),
                Env::nil(),
                EJoinScope::nil(),
            )),
            Code::UnknownGlobal(g) => Err(MachineError::UnknownGlobal(*g)),
            Code::Error(_) => unreachable!("handled in run()"),
        }
    }

    fn step_ret(&mut self, w: EValue<'p>, frame: EFrame<'p>) -> Result<EControl<'p>, MachineError> {
        match frame {
            // PPOP / IPOP, width-checked: β-reduction is an O(1)
            // environment extension instead of a body rebuild. Fresh
            // join scope — jumps never cross a λ.
            EFrame::App(arg) => match w {
                EValue::Clos(binder, body, env) => {
                    self.check_class(binder, arg)?;
                    Ok(EControl::Eval(body, env.push(arg), EJoinScope::nil()))
                }
                other => Err(MachineError::AppliedNonFunction(other.to_string())),
            },
            // FCE: thunk update.
            EFrame::Force(addr) => {
                self.heap[addr.0 as usize] = ECell::Value(w.clone());
                self.stats.updates += 1;
                Ok(EControl::Ret(w))
            }
            // ILET (extended to boxed strict lets).
            EFrame::LetStrict(binder, body, env, joins) => {
                let atom = match &w {
                    EValue::Lit(l) => Atom::Lit(*l),
                    EValue::Clos(..) | EValue::Con(..) => self.value_to_atom(w.clone())?,
                    EValue::Multi(_) => {
                        return Err(MachineError::InvalidState(
                            "let! of a multi-value; use case-of-multi".to_owned(),
                        ))
                    }
                };
                self.check_class(binder, atom)?;
                Ok(EControl::Eval(body, env.push(atom), joins))
            }
            // IMAT (extended to arbitrary constructors and literal alts).
            EFrame::Case(alts, def, env, joins) => match &w {
                EValue::Con(c, fields) => {
                    for alt in alts.iter() {
                        if let CAlt::Con(c2, binders, rhs) = alt {
                            if c2.name == c.name {
                                if binders.len() != fields.len() {
                                    return Err(MachineError::InvalidState(format!(
                                        "constructor {c} arity mismatch in case"
                                    )));
                                }
                                let mut env2 = env;
                                for (b, a) in binders.iter().zip(fields.iter()) {
                                    self.check_class(*b, *a)?;
                                    env2 = env2.push(*a);
                                }
                                return Ok(EControl::Eval(rhs, env2, joins));
                            }
                        }
                    }
                    self.take_default(w, def, env, joins)
                }
                EValue::Lit(l) => {
                    for alt in alts.iter() {
                        if let CAlt::Lit(l2, rhs) = alt {
                            if l2 == l {
                                return Ok(EControl::Eval(rhs, env, joins));
                            }
                        }
                    }
                    self.take_default(w, def, env, joins)
                }
                EValue::Clos(..) => self.take_default(w, def, env, joins),
                EValue::Multi(_) => Err(MachineError::InvalidState(
                    "case on a multi-value; use case-of-multi".to_owned(),
                )),
            },
            EFrame::CaseMulti(binders, body, env, joins) => match w {
                EValue::Multi(fields) => {
                    if binders.len() != fields.len() {
                        return Err(MachineError::InvalidState(
                            "multi-value arity mismatch".to_owned(),
                        ));
                    }
                    let mut env2 = env;
                    for (b, a) in binders.iter().zip(fields.iter()) {
                        self.check_class(*b, *a)?;
                        env2 = env2.push(*a);
                    }
                    Ok(EControl::Eval(body, env2, joins))
                }
                other => Err(MachineError::InvalidState(format!(
                    "case-of-multi scrutinee evaluated to {other}"
                ))),
            },
        }
    }

    fn take_default(
        &mut self,
        w: EValue<'p>,
        def: Option<(Binder, &'p Code)>,
        env: Env,
        joins: EJoinScope<'p>,
    ) -> Result<EControl<'p>, MachineError> {
        match def {
            Some((binder, rhs)) => {
                let atom = self.value_to_atom(w)?;
                self.check_class(binder, atom)?;
                Ok(EControl::Eval(rhs, env.push(atom), joins))
            }
            None => Err(MachineError::NoMatchingAlt(w.to_string())),
        }
    }

    #[inline]
    fn push(&mut self, frame: EFrame<'p>) {
        self.stack.push(frame);
        self.stats.max_stack = self.stats.max_stack.max(self.stack.len());
    }

    /// Converts an engine value into the public [`Value`] type.
    /// Closures decompile to the λ-term the reference machine would
    /// hold: the captured environment is substituted back into the
    /// body at each free occurrence.
    fn readback_value(&self, w: EValue<'_>) -> Value {
        match w {
            EValue::Lit(l) => Value::Lit(l),
            EValue::Con(c, args) => Value::Con(c.clone(), args.to_vec()),
            EValue::Multi(args) => Value::Multi(args),
            EValue::Clos(binder, body, env) => {
                let mut names = vec![binder.name];
                Value::Lam(binder, readback(body, &mut names, &env))
            }
        }
    }
}

/// Decompiles code back to an [`MExpr`], substituting environment atoms
/// at free occurrences and restoring binder names elsewhere. `names`
/// holds the binders entered during readback (innermost last); indices
/// beyond it index the captured environment. Shared with the bytecode
/// engine, whose closures keep their λ body as tree code for exactly
/// this purpose.
pub(crate) fn readback(code: &Code, names: &mut Vec<Symbol>, env: &Env) -> Arc<MExpr> {
    let atom_of = |names: &[Symbol], a: CAtom| -> Atom {
        match a {
            CAtom::Local(ix) => {
                let ix = ix as usize;
                if ix < names.len() {
                    Atom::Var(names[names.len() - 1 - ix])
                } else {
                    env.get((ix - names.len()) as u32)
                }
            }
            CAtom::Lit(l) => Atom::Lit(l),
            CAtom::Unbound(x) => Atom::Var(x),
        }
    };
    Arc::new(match code {
        Code::Atom(a) => MExpr::Atom(atom_of(names, *a)),
        Code::App(fun, arg) => {
            let arg = atom_of(names, *arg);
            MExpr::App(readback(fun, names, env), arg)
        }
        Code::Lam(binder, body) => {
            names.push(binder.name);
            let body = readback(body, names, env);
            names.pop();
            MExpr::Lam(*binder, body)
        }
        Code::LetLazy(p, rhs, body) => {
            names.push(*p);
            let rhs = readback(rhs, names, env);
            let body = readback(body, names, env);
            names.pop();
            MExpr::LetLazy(*p, rhs, body)
        }
        Code::LetStrict(binder, rhs, body) => {
            let rhs = readback(rhs, names, env);
            names.push(binder.name);
            let body = readback(body, names, env);
            names.pop();
            MExpr::LetStrict(*binder, rhs, body)
        }
        Code::Case(scrut, alts, def) => {
            let scrut = readback(scrut, names, env);
            let alts: Arc<[Alt]> = alts
                .iter()
                .map(|alt| match alt {
                    CAlt::Con(c, binders, rhs) => {
                        let depth = names.len();
                        names.extend(binders.iter().map(|b| b.name));
                        let rhs = readback(rhs, names, env);
                        names.truncate(depth);
                        Alt::Con((**c).clone(), binders.to_vec(), rhs)
                    }
                    CAlt::Lit(l, rhs) => Alt::Lit(*l, readback(rhs, names, env)),
                })
                .collect();
            let def = def.as_ref().map(|(b, rhs)| {
                names.push(b.name);
                let rhs = readback(rhs, names, env);
                names.pop();
                (*b, rhs)
            });
            MExpr::Case(scrut, alts, def)
        }
        Code::Con(c, args) => MExpr::Con(
            (**c).clone(),
            args.iter().map(|a| atom_of(names, *a)).collect(),
        ),
        Code::Prim(op, args) => MExpr::Prim(*op, args.iter().map(|a| atom_of(names, *a)).collect()),
        Code::MultiVal(args) => MExpr::MultiVal(args.iter().map(|a| atom_of(names, *a)).collect()),
        Code::CaseMulti(scrut, binders, body) => {
            let scrut = readback(scrut, names, env);
            let depth = names.len();
            names.extend(binders.iter().map(|b| b.name));
            let body = readback(body, names, env);
            names.truncate(depth);
            MExpr::CaseMulti(scrut, binders.to_vec(), body)
        }
        Code::LetJoin(def, body) => {
            let depth = names.len();
            names.extend(def.params.iter().map(|b| b.name));
            let jbody = readback(&def.body, names, env);
            names.truncate(depth);
            let body = readback(body, names, env);
            MExpr::LetJoin(
                Arc::new(JoinDef {
                    name: def.name,
                    params: def.params.to_vec(),
                    body: jbody,
                }),
                body,
            )
        }
        Code::Jump(j, args) => MExpr::Jump(*j, args.iter().map(|a| atom_of(names, *a)).collect()),
        Code::Global(_, g) | Code::UnknownGlobal(g) => MExpr::Global(*g),
        Code::Error(msg) => MExpr::Error(msg.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Globals;
    use crate::syntax::{DataCon, PrimOp};

    fn int_atom(n: i64) -> Atom {
        Atom::Lit(Literal::Int(n))
    }

    fn run(t: Arc<MExpr>) -> RunOutcome {
        run_with(Globals::new(), t).expect("machine failure")
    }

    fn run_with(globals: Globals, t: Arc<MExpr>) -> Result<RunOutcome, MachineError> {
        let program = CodeProgram::compile(&globals);
        let entry = program.compile_entry(&t);
        let mut machine = EnvMachine::new(&program);
        machine.run(&entry)
    }

    #[test]
    fn env_lookup_walks_de_bruijn_links() {
        let env = Env::nil().push(int_atom(1)).push(int_atom(2));
        assert_eq!(env.get(0), int_atom(2));
        assert_eq!(env.get(1), int_atom(1));
        assert_eq!(env.depth(), 2);
    }

    #[test]
    fn beta_reduction_extends_the_environment() {
        let t = MExpr::app(MExpr::lam(Binder::int("i"), MExpr::var("i")), int_atom(42));
        assert_eq!(run(t), RunOutcome::Value(Value::Lit(Literal::Int(42))));
    }

    #[test]
    fn closures_capture_their_environment() {
        // ((λa. λb. a) 10#) 20# — `a` must come from the captured env.
        let t = MExpr::apps(
            MExpr::lams([Binder::int("a"), Binder::int("b")], MExpr::var("a")),
            [int_atom(10), int_atom(20)],
        );
        assert_eq!(run(t), RunOutcome::Value(Value::Lit(Literal::Int(10))));
    }

    #[test]
    fn lambda_results_read_back_as_substituted_terms() {
        // (λa. λb. +# a b) 1# returns λb with a:=1# substituted —
        // exactly what the substitution machine produces.
        let t = MExpr::app(
            MExpr::lams(
                [Binder::int("a"), Binder::int("b")],
                MExpr::prim(
                    PrimOp::AddI,
                    vec![Atom::Var("a".into()), Atom::Var("b".into())],
                ),
            ),
            int_atom(1),
        );
        let out = run(t);
        let RunOutcome::Value(Value::Lam(b, body)) = out else {
            panic!("expected a lambda result, got {out:?}")
        };
        assert_eq!(b, Binder::int("b"));
        assert_eq!(body.to_string(), "(+# 1# b)");
    }

    #[test]
    fn lazy_lets_share_work_through_the_heap() {
        let t = MExpr::let_lazy(
            "p",
            MExpr::con_int_hash(int_atom(7)),
            MExpr::case_int_hash(
                MExpr::var("p"),
                "a",
                MExpr::case_int_hash(
                    MExpr::var("p"),
                    "b",
                    MExpr::prim(
                        PrimOp::AddI,
                        vec![Atom::Var("a".into()), Atom::Var("b".into())],
                    ),
                ),
            ),
        );
        let program = CodeProgram::compile(&Globals::new());
        let entry = program.compile_entry(&t);
        let mut m = EnvMachine::new(&program);
        let out = m.run(&entry).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(14))));
        assert_eq!(m.stats().thunk_forces, 1, "sharing: forced once");
        assert_eq!(m.stats().var_lookups, 1, "second use is a VAL lookup");
        assert_eq!(m.stats().updates, 1);
    }

    #[test]
    fn cyclic_thunks_blackhole_on_self_demand() {
        let body = MExpr::case_int_hash(
            MExpr::var("p"),
            "i",
            MExpr::con_int_hash(Atom::Var("i".into())),
        );
        let t = MExpr::let_lazy(
            "p",
            body,
            MExpr::case_int_hash(MExpr::var("p"), "i", MExpr::var("i")),
        );
        assert_eq!(run_with(Globals::new(), t).unwrap_err(), MachineError::Loop);
    }

    #[test]
    fn width_check_still_guards_every_binding() {
        let t = MExpr::app(MExpr::lam(Binder::ptr("p"), MExpr::var("p")), int_atom(1));
        let err = run_with(Globals::new(), t).unwrap_err();
        assert!(matches!(err, MachineError::ClassMismatch { .. }));
    }

    #[test]
    fn globals_run_with_empty_environments() {
        let acc = Symbol::intern("acc");
        let n = Symbol::intern("n");
        let body = MExpr::case(
            MExpr::prim(PrimOp::EqI, vec![Atom::Var(n), int_atom(0)]),
            vec![Alt::Lit(Literal::Int(1), MExpr::var("acc"))],
            Some((
                Binder::int("_t"),
                MExpr::let_strict(
                    Binder::int("acc2"),
                    MExpr::prim(PrimOp::AddI, vec![Atom::Var(acc), Atom::Var(n)]),
                    MExpr::let_strict(
                        Binder::int("n2"),
                        MExpr::prim(PrimOp::SubI, vec![Atom::Var(n), int_atom(1)]),
                        MExpr::apps(
                            MExpr::global("sumTo#"),
                            [Atom::Var("acc2".into()), Atom::Var("n2".into())],
                        ),
                    ),
                ),
            )),
        );
        let def = MExpr::lams([Binder::int("acc"), Binder::int("n")], body);
        let mut globals = Globals::new();
        globals.define("sumTo#", def);
        let main = MExpr::apps(MExpr::global("sumTo#"), [int_atom(0), int_atom(100)]);
        let program = CodeProgram::compile(&globals);
        let entry = program.compile_entry(&main);
        let mut m = EnvMachine::new(&program);
        let out = m.run(&entry).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(5050))));
        assert_eq!(m.stats().allocated_words, 0, "unboxed loop never allocates");
    }

    #[test]
    fn errors_abort_and_unbound_variables_fail() {
        let t = MExpr::let_strict(Binder::int("i"), MExpr::error("boom"), MExpr::int(5));
        assert_eq!(run(t), RunOutcome::Error("boom".to_owned()));
        assert!(matches!(
            run_with(Globals::new(), MExpr::var("ghost")).unwrap_err(),
            MachineError::UnboundVariable(_)
        ));
        assert!(matches!(
            run_with(Globals::new(), MExpr::global("nope")).unwrap_err(),
            MachineError::UnknownGlobal(_)
        ));
    }

    #[test]
    fn multi_values_stay_in_registers() {
        let t = Arc::new(MExpr::CaseMulti(
            Arc::new(MExpr::MultiVal(vec![int_atom(3), int_atom(4)])),
            vec![Binder::int("a"), Binder::int("b")],
            MExpr::prim(
                PrimOp::AddI,
                vec![Atom::Var("a".into()), Atom::Var("b".into())],
            ),
        ));
        let program = CodeProgram::compile(&Globals::new());
        let entry = program.compile_entry(&t);
        let mut m = EnvMachine::new(&program);
        let out = m.run(&entry).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(7))));
        assert_eq!(m.stats().allocated_words, 0);
    }

    #[test]
    fn case_selects_constructor_alternatives() {
        let true_con = DataCon::nullary("True", 1);
        let false_con = DataCon::nullary("False", 0);
        let t = MExpr::case(
            Arc::new(MExpr::Con(true_con.clone(), vec![])),
            vec![
                Alt::Con(false_con, vec![], MExpr::int(0)),
                Alt::Con(true_con, vec![], MExpr::int(1)),
            ],
            None,
        );
        assert_eq!(run(t), RunOutcome::Value(Value::Lit(Literal::Int(1))));
    }

    #[test]
    fn join_points_capture_their_definition_environment() {
        // λa. join j q = +# q a in case a of { 0# -> jump j 7#; _ -> a }
        // — the join body's `a` must resolve against the env captured
        // when the join was *defined*.
        let def = Arc::new(JoinDef {
            name: Symbol::intern("j%t%0"),
            params: vec![Binder::int("q")],
            body: MExpr::prim(
                PrimOp::AddI,
                vec![Atom::Var("q".into()), Atom::Var("a".into())],
            ),
        });
        let t = MExpr::app(
            MExpr::lam(
                Binder::int("a"),
                MExpr::let_join(
                    def,
                    MExpr::case(
                        MExpr::var("a"),
                        vec![Alt::Lit(
                            Literal::Int(0),
                            MExpr::jump("j%t%0", vec![int_atom(7)]),
                        )],
                        Some((Binder::int("_d"), MExpr::var("a"))),
                    ),
                ),
            ),
            int_atom(0),
        );
        let program = CodeProgram::compile(&Globals::new());
        let entry = program.compile_entry(&t);
        let mut m = EnvMachine::new(&program);
        let out = m.run(&entry).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(7))));
        assert_eq!(m.stats().jumps, 1);
        assert_eq!(m.stats().allocated_words, 0);
    }

    #[test]
    fn fuel_exhaustion_matches_the_reference_machine() {
        let mut globals = Globals::new();
        globals.define("spin", MExpr::global("spin"));
        let program = CodeProgram::compile(&globals);
        let entry = program.compile_entry(&MExpr::global("spin"));
        let mut m = EnvMachine::new(&program);
        m.set_fuel(1000);
        assert!(matches!(
            m.run(&entry).unwrap_err(),
            MachineError::OutOfFuel { limit: 1000 }
        ));
    }
}
