//! The machine language **M** of *Levity Polymorphism* (PLDI 2017, §6.2).
//!
//! `M` is a λ-calculus in A-normal form whose operational semantics works
//! with an explicit stack and heap and "is quite close to how a concrete
//! machine would behave. All operations must work with data of known,
//! fixed width; `M` does not support levity polymorphism."
//!
//! * [`syntax`] — the grammar (Figure 5), with every variable carrying a
//!   register class; extended with primops, general constructors,
//!   unboxed multi-values and globals for the full pipeline;
//! * [`machine`] — the transition rules (Figure 6): lazy `let` allocates
//!   thunks, `Force` frames implement thunk update (sharing), `App`
//!   frames pass width-checked atoms, and `error` aborts;
//! * [`subst`] — atom substitution, "implementable" precisely because
//!   atoms have known width;
//! * [`compile`] — one-time compilation of [`MExpr`] to pre-resolved
//!   [`compile::Code`]: variables become environment slots, globals
//!   become indices, alternatives become shared slices;
//! * [`env`] — the environment (closure) engine over compiled code: a
//!   fast tree-walking evaluator, differentially tested against
//!   [`machine`];
//! * [`bytecode`] — the bytecode compiler: [`compile::Code`] trees
//!   flattened into contiguous instruction vectors with per-class
//!   register assignment and fused superinstructions;
//! * [`regmachine`] — the register machine over that bytecode, with one
//!   operand stack per §6.2 register class — unboxed hot paths run with
//!   no tag checks at all;
//! * [`verify`] — the static bytecode verifier: an abstract interpreter
//!   that proves the per-class register discipline before execution, so
//!   [`regmachine::BcMachine::run_verified`] can elide the dynamic
//!   checks the verifier discharged;
//! * [`gc`] — the precise copying collector for the bytecode engine,
//!   whose safepoint pointer maps are the verifier's retained per-pc
//!   heights — representation knowledge (§6.2) making GC precise
//!   without per-object tag bitmaps;
//! * [`prim`] — the `+#`/`+##` primitive operations.
//!
//! The three execution engines implement the same semantics. The
//! substitution machine stays as the executable reference — it *is*
//! Figure 6 — the environment engine agrees with it on every counter,
//! and the register machine is the default engine, the one serving and
//! the benchmarks run on (select with [`Engine`]).
//!
//! The machine is instrumented ([`machine::MachineStats`]): steps, thunk
//! allocations, forces, updates and constructor allocations — the
//! quantities behind the §2.1 boxed-vs-unboxed gap.
//!
//! # Example
//!
//! ```
//! use levity_m::machine::{Machine, RunOutcome, Value};
//! use levity_m::syntax::{Atom, Binder, Literal, MExpr, PrimOp};
//!
//! // let! i = 40# +# 2# in I#[i]
//! let t = MExpr::let_strict(
//!     Binder::int("i"),
//!     MExpr::prim(PrimOp::AddI, vec![Atom::Lit(Literal::Int(40)), Atom::Lit(Literal::Int(2))]),
//!     MExpr::con_int_hash(Atom::Var("i".into())),
//! );
//! let mut machine = Machine::new();
//! let outcome = machine.run(t)?;
//! assert_eq!(outcome.value().and_then(Value::as_boxed_int), Some(42));
//! # Ok::<(), levity_m::machine::MachineError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bytecode;
pub mod compile;
pub mod env;
pub mod gc;
pub mod machine;
pub mod prim;
pub mod regmachine;
pub mod subst;
pub mod syntax;
pub mod verify;

pub use bytecode::{BcEntry, BcProgram};
pub use compile::CodeProgram;
pub use env::EnvMachine;
pub use machine::{Globals, Machine, MachineError, MachineStats, RunOutcome, Value};
pub use regmachine::{run_bytecode, BcMachine};
pub use syntax::{Addr, Alt, Atom, Binder, DataCon, Literal, MExpr, PrimOp};
pub use verify::{verify, VerifiedEntry, VerifiedProgram, VerifyError, VerifyErrorKind};

/// Which execution engine to run `M` code on.
///
/// All three engines implement the Figure 6 semantics and agree on
/// outcomes, errors, and allocation counters; the subst/env pair agree
/// on *every* [`MachineStats`] counter. The differential suite in
/// `tests/differential.rs` enforces this.
///
/// [`MachineStats::steps`] counts Figure 6 transitions on
/// [`Engine::Subst`] and [`Engine::Env`], but bytecode instructions
/// (fused ones included) on the default, [`Engine::Bytecode`]. Code
/// that checks the paper's step model names [`Engine::Subst`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The reference substitution machine ([`machine::Machine`]):
    /// Figure 6 transcribed literally, β-reduction by `subst_atom`.
    /// Its `steps` counter is the Figure 6 step model.
    Subst,
    /// The environment (closure) engine ([`env::EnvMachine`]) over
    /// pre-compiled [`compile::Code`]: β-reduction by O(1) environment
    /// extension. Counter-exact against the reference. It never
    /// collects, so it ignores heap caps and nursery sizes.
    Env,
    /// The flat-bytecode register machine ([`regmachine::BcMachine`])
    /// over [`bytecode::BcProgram`]: per-class operand stacks, fused
    /// superinstructions, join jumps as gotos. Same outcomes, errors
    /// and allocation counters; `steps` counts bytecode instructions.
    /// The default: the fastest engine, and the only one that collects
    /// garbage and enforces a live-heap cap.
    #[default]
    Bytecode,
}
