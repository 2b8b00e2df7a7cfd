//! Compile-once/run-many serving layer for the levity pipeline.
//!
//! The elaborate→optimise→lower pipeline costs milliseconds; a compiled
//! program evaluates in microseconds. This crate amortises the former
//! and parallelises the latter: an [`EvalService`] owns a fixed pool of
//! worker threads, a bounded request queue, and a content-addressed
//! [`cache::ProgramCache`] of [`levity_driver::Compiled`] programs —
//! the expensive pipeline runs **once per distinct source program**, and
//! the resulting `Arc`-spined program is shared read-only across every
//! worker (the PR-8 `Rc` → `Arc` refactor is what makes that sharing
//! sound; `Compiled: Send + Sync` is asserted at compile time in the
//! driver).
//!
//! Multi-tenant resource policy, per request:
//!
//! * **fuel metering** — a machine-step budget layered on
//!   [`MachineStats::steps`]; an over-budget request is killed with
//!   [`ServeError::FuelExhausted`], never allowed to monopolise a
//!   worker ([`ServeConfig::max_fuel`] caps whatever the request asks
//!   for);
//! * **allocation caps** — a words-allocated budget enforced at every
//!   allocation site in all three engines
//!   ([`ServeError::AllocCapExceeded`]);
//! * **live-heap caps** — a residency budget enforced by the bytecode
//!   engine's copying collector after each collection
//!   ([`ServeError::HeapCapExceeded`]): long-lived workers stay
//!   bounded under allocation churn, while a request whose *reachable*
//!   data outgrows the cap is killed. It applies on the default
//!   engine; a request that sets it (or a GC nursery) on an engine
//!   that never collects is refused with [`ServeError::UnsupportedKnob`]
//!   instead of running uncapped;
//! * **load shedding** — the request queue is a bounded
//!   `mpsc::sync_channel`; when it is full, [`EvalService::submit`]
//!   rejects immediately with [`ServeError::Overloaded`] instead of
//!   queueing without bound and collapsing under overload.
//!
//! Everything is `std`-only: threads, channels, atomics.
//!
//! # Example
//!
//! ```
//! use levity_serve::{EvalRequest, EvalService, ServeConfig};
//!
//! let service = EvalService::start(ServeConfig::default());
//! let src = "main :: Int#\nmain = 3# +# 4#\n";
//! // First request compiles; the second hits the cache.
//! let first = service.call(EvalRequest::source(src)).unwrap();
//! let again = service.call(EvalRequest::source(src)).unwrap();
//! assert_eq!(first.outcome.value().and_then(|v| v.as_int()), Some(7));
//! assert!(!first.cache_hit);
//! assert!(again.cache_hit);
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod corpus;
pub mod service;

pub use cache::{content_hash, CacheStats, ProgramCache};
pub use service::{
    EvalRequest, EvalResponse, EvalService, ServeConfig, ServeCounters, ServeError, Ticket,
};

// Re-exported so service users name engines/limits without an extra
// dependency edge.
pub use levity_driver::pipeline::RunLimits;
pub use levity_m::machine::{MachineError, MachineStats, RunOutcome};
pub use levity_m::Engine;
