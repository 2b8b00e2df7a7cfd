//! End-to-end driver for the levity-polymorphism pipeline.
//!
//! Ties every crate together: parse ([`levity_surface`]), elaborate with
//! rep-variable inference and dictionary translation ([`levity_infer`]),
//! lint and levity-check the Core ([`levity_ir`]), lower to A-normal
//! form ([`levity_compile`]) and run on the stack/heap machine
//! ([`levity_m`]).
//!
//! The [`prelude`] is written in the surface language itself and
//! includes the paper's showcase definitions: levity-polymorphic `($)`
//! and `(.)` (§7.2), `myError` (§3.3/§5.2), and `Num`/`Eq`/`Ord` classes
//! with instances at both lifted and unlifted types (§7.3).
//!
//! # Example: the paper's `sumTo` at both representations (§2.1)
//!
//! ```
//! use levity_driver::pipeline::compile_with_prelude;
//!
//! let src = r#"
//! sumTo# :: Int# -> Int# -> Int#
//! sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }
//!
//! main :: Int#
//! main = sumTo# 0# 100#
//! "#;
//! let compiled = compile_with_prelude(src)?;
//! let (out, stats) = compiled.run("main", 10_000_000).unwrap();
//! assert_eq!(out.value().and_then(|v| v.as_int()), Some(5050));
//! // The unboxed loop allocates nothing (§2.1: "no memory traffic").
//! assert_eq!(stats.allocated_words, 0);
//! # Ok::<(), levity_driver::pipeline::PipelineError>(())
//! ```

#![warn(missing_docs)]

pub mod pipeline;
pub mod prelude;

pub use levity_compile::opt::{OptLevel, OptReport};
pub use pipeline::{
    compile_module_entries, compile_prelude, compile_source, compile_source_entries,
    compile_source_opt, compile_with_prelude, compile_with_prelude_entries,
    compile_with_prelude_opt, Compiled, PipelineError, RunLimits,
};
pub use prelude::PRELUDE;

#[cfg(test)]
mod tests;
