//! The multi-worker evaluation service.
//!
//! An [`EvalService`] is a fixed pool of worker threads behind a
//! *bounded* request queue. Requests carry source text; workers resolve
//! them through the shared [`ProgramCache`] (compile-once) and evaluate
//! the chosen entry point under per-request [`RunLimits`]. Three
//! policies keep one tenant from starving the rest:
//!
//! * the queue is a `mpsc::sync_channel` of fixed depth — when it is
//!   full, [`EvalService::submit`] fails fast with
//!   [`ServeError::Overloaded`] instead of buffering without bound;
//! * every request runs under a fuel budget, clamped to
//!   [`ServeConfig::max_fuel`] — a divergent program dies with
//!   [`ServeError::FuelExhausted`], and the worker moves on;
//! * every request may carry an allocation cap, enforced at each
//!   allocation site in the engines — an allocation bomb dies with
//!   [`ServeError::AllocCapExceeded`];
//! * every request may carry a *live-heap* cap, enforced by the
//!   bytecode engine after each collection — a request whose
//!   reachable data outgrows the cap dies with
//!   [`ServeError::HeapCapExceeded`], while high-churn/low-residency
//!   programs run indefinitely under a bounded heap.
//!
//! The heap knobs ([`EvalRequest::heap_cap`], [`EvalRequest::gc_nursery`])
//! only mean something on the collecting engine, [`Engine::Bytecode`]
//! (the default). A request that sets one on [`Engine::Subst`] or
//! [`Engine::Env`] is refused at the door with
//! [`ServeError::UnsupportedKnob`] rather than run without the limit
//! it asked for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};

use levity_driver::pipeline::RunLimits;
use levity_m::machine::{Machine, MachineError, MachineStats, RunOutcome};
use levity_m::Engine;

use crate::cache::{CacheStats, ProgramCache};

/// Configuration for [`EvalService::start`]. Every submitted program
/// is compiled the same way, with the prelude in scope at `O2`.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Queue depth: requests admitted but not yet picked up by a
    /// worker. A full queue sheds load ([`ServeError::Overloaded`]).
    pub queue_depth: usize,
    /// Fuel budget for requests that do not ask for one.
    pub default_fuel: u64,
    /// Hard ceiling on per-request fuel: a request asking for more is
    /// clamped, so no tenant can buy an unbounded time slice.
    pub max_fuel: u64,
    /// Allocation cap (words) for requests that do not ask for one.
    /// `None` = unlimited.
    pub default_alloc_words: Option<u64>,
    /// Maximum distinct programs the compile cache retains; beyond it
    /// the cache evicts (compile failures first). Keeps a tenant
    /// spraying distinct programs from growing the cache without
    /// bound.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            default_fuel: Machine::DEFAULT_FUEL,
            max_fuel: Machine::DEFAULT_FUEL,
            default_alloc_words: None,
            cache_capacity: 256,
        }
    }
}

/// One evaluation request: a source program plus per-request knobs.
#[derive(Clone, Debug)]
pub struct EvalRequest {
    source: String,
    entry: String,
    engine: Engine,
    fuel: Option<u64>,
    alloc_words: Option<u64>,
    heap_bytes: Option<u64>,
    gc_nursery: Option<usize>,
}

impl EvalRequest {
    /// A request to evaluate `main` of `source` on the default engine
    /// ([`Engine::Bytecode`]) under the service's default limits.
    pub fn source(source: impl Into<String>) -> EvalRequest {
        EvalRequest {
            source: source.into(),
            entry: "main".to_string(),
            engine: Engine::default(),
            fuel: None,
            alloc_words: None,
            heap_bytes: None,
            gc_nursery: None,
        }
    }

    /// Evaluate this entry point instead of `main`.
    pub fn entry(mut self, entry: impl Into<String>) -> EvalRequest {
        self.entry = entry.into();
        self
    }

    /// Evaluate on this engine.
    pub fn engine(mut self, engine: Engine) -> EvalRequest {
        self.engine = engine;
        self
    }

    /// Request this fuel budget (clamped to [`ServeConfig::max_fuel`]).
    pub fn fuel(mut self, fuel: u64) -> EvalRequest {
        self.fuel = Some(fuel);
        self
    }

    /// Request this allocation cap, in estimated words.
    pub fn alloc_cap(mut self, words: u64) -> EvalRequest {
        self.alloc_words = Some(words);
        self
    }

    /// Cap the *live* heap at this many bytes: after each collection
    /// the bytecode engine checks that the reachable data fits, and
    /// kills the request with [`ServeError::HeapCapExceeded`]
    /// otherwise. Unlike [`Self::alloc_cap`], churn that the collector
    /// reclaims does not count. Only the bytecode engine collects: on
    /// any other engine the request is refused with
    /// [`ServeError::UnsupportedKnob`].
    pub fn heap_cap(mut self, bytes: u64) -> EvalRequest {
        self.heap_bytes = Some(bytes);
        self
    }

    /// Override the bytecode engine's GC nursery (collection trigger)
    /// for this request, in heap cells. Mostly a testing knob: tiny
    /// nurseries force frequent collections. Refused with
    /// [`ServeError::UnsupportedKnob`] on any other engine.
    pub fn gc_nursery(mut self, cells: usize) -> EvalRequest {
        self.gc_nursery = Some(cells);
        self
    }

    /// Refuses a heap knob on an engine that never collects.
    fn check_knobs(&self) -> Result<(), ServeError> {
        let knob = if self.heap_bytes.is_some() {
            "heap_cap"
        } else if self.gc_nursery.is_some() {
            "gc_nursery"
        } else {
            return Ok(());
        };
        match self.engine {
            Engine::Bytecode => Ok(()),
            engine @ (Engine::Subst | Engine::Env) => {
                Err(ServeError::UnsupportedKnob { engine, knob })
            }
        }
    }
}

/// A successful evaluation.
#[derive(Clone, Debug)]
pub struct EvalResponse {
    /// Value or program-level `error` (⊥) — both are *successful*
    /// evaluations from the service's point of view.
    pub outcome: RunOutcome,
    /// The machine counters for this run.
    pub stats: MachineStats,
    /// Whether the program came out of the cache (`true`) or was
    /// compiled for this request (`false`).
    pub cache_hit: bool,
    /// Index of the worker thread that ran the request.
    pub worker: usize,
}

/// Why a request was not served.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The bounded queue was full; the request was shed at the door.
    /// Retry with backoff.
    Overloaded,
    /// The service has been shut down.
    ShutDown,
    /// The program failed to compile (pipeline error, pretty-printed).
    Compile(String),
    /// The request exceeded its fuel budget and was killed.
    FuelExhausted {
        /// The step budget that was exhausted.
        fuel: u64,
    },
    /// The request exceeded its allocation cap and was killed.
    AllocCapExceeded {
        /// The cap (words) that was exceeded.
        limit: u64,
    },
    /// The request's *live* data exceeded its heap cap even after a
    /// collection, and it was killed.
    HeapCapExceeded {
        /// The cap (bytes) that was exceeded.
        limit: u64,
    },
    /// The request set a heap knob (`heap_cap` or `gc_nursery`) on an
    /// engine that never collects, so the knob could not be honoured;
    /// it was refused before being queued.
    UnsupportedKnob {
        /// The engine the request named.
        engine: Engine,
        /// The knob it cannot honour.
        knob: &'static str,
    },
    /// The machine rejected the program (stuck term, unknown global …).
    Machine(MachineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request queue full; load shed"),
            ServeError::ShutDown => write!(f, "service is shut down"),
            ServeError::Compile(e) => write!(f, "compilation failed: {e}"),
            ServeError::FuelExhausted { fuel } => {
                write!(f, "request killed: fuel budget of {fuel} steps exhausted")
            }
            ServeError::AllocCapExceeded { limit } => {
                write!(
                    f,
                    "request killed: allocation cap of {limit} words exceeded"
                )
            }
            ServeError::HeapCapExceeded { limit } => {
                write!(f, "request killed: live heap cap of {limit} bytes exceeded")
            }
            ServeError::UnsupportedKnob { engine, knob } => {
                write!(
                    f,
                    "request rejected: {knob} needs a collecting engine, and {engine:?} never collects"
                )
            }
            ServeError::Machine(e) => write!(f, "machine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A snapshot of the service's lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests fully evaluated to an [`EvalResponse`].
    pub completed: u64,
    /// Requests rejected at the door because the queue was full.
    pub shed: u64,
    /// Requests killed by the fuel meter.
    pub fuel_killed: u64,
    /// Requests killed by the allocation cap.
    pub alloc_killed: u64,
    /// Requests killed by the live-heap cap.
    pub heap_killed: u64,
    /// Requests whose program failed to compile.
    pub compile_failed: u64,
    /// Requests refused at the door for setting a heap knob on an
    /// engine that never collects ([`ServeError::UnsupportedKnob`]).
    pub knob_rejected: u64,
    /// Program-cache counters (hits/misses/collisions).
    pub cache: CacheStats,
}

/// A handle on an in-flight request, returned by
/// [`EvalService::submit`]. [`Ticket::wait`] blocks for the result.
#[derive(Debug)]
pub struct Ticket {
    reply: Receiver<Result<EvalResponse, ServeError>>,
}

impl Ticket {
    /// Blocks until the request completes.
    pub fn wait(self) -> Result<EvalResponse, ServeError> {
        // A dropped sender means the worker pool died mid-request —
        // only possible during shutdown.
        self.reply.recv().unwrap_or(Err(ServeError::ShutDown))
    }
}

struct Job {
    request: EvalRequest,
    reply: SyncSender<Result<EvalResponse, ServeError>>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    fuel_killed: AtomicU64,
    alloc_killed: AtomicU64,
    heap_killed: AtomicU64,
    compile_failed: AtomicU64,
    knob_rejected: AtomicU64,
}

struct Shared {
    cache: ProgramCache,
    counters: Counters,
    config: ServeConfig,
}

/// The evaluation service: a worker pool plus a bounded queue over a
/// shared [`ProgramCache`]. See the [crate docs](crate) for the full
/// resource-policy story.
pub struct EvalService {
    queue: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl EvalService {
    /// Spawns the worker pool and returns the running service.
    pub fn start(config: ServeConfig) -> EvalService {
        let workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            cache: ProgramCache::with_capacity(config.cache_capacity),
            counters: Counters::default(),
            config,
        });
        let handles = (0..workers)
            .map(|index| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("levity-serve-{index}"))
                    .spawn(move || worker_loop(index, &rx, &shared))
                    .expect("spawn worker")
            })
            .collect();
        EvalService {
            queue: Some(tx),
            workers: handles,
            shared,
        }
    }

    /// Enqueues a request without blocking. Fails fast with
    /// [`ServeError::Overloaded`] when the queue is full, and with
    /// [`ServeError::UnsupportedKnob`] when the request sets a heap
    /// knob its engine cannot honour.
    pub fn submit(&self, request: EvalRequest) -> Result<Ticket, ServeError> {
        let queue = self.queue.as_ref().ok_or(ServeError::ShutDown)?;
        if let Err(e) = request.check_knobs() {
            self.shared
                .counters
                .knob_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            request,
            reply: reply_tx,
        };
        match queue.try_send(job) {
            Ok(()) => {
                self.shared
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { reply: reply_rx })
            }
            Err(TrySendError::Full(_)) => {
                self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShutDown),
        }
    }

    /// Submits and waits: `submit(request)?.wait()`.
    pub fn call(&self, request: EvalRequest) -> Result<EvalResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// A snapshot of the service's lifetime counters.
    pub fn counters(&self) -> ServeCounters {
        let c = &self.shared.counters;
        ServeCounters {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            fuel_killed: c.fuel_killed.load(Ordering::Relaxed),
            alloc_killed: c.alloc_killed.load(Ordering::Relaxed),
            heap_killed: c.heap_killed.load(Ordering::Relaxed),
            compile_failed: c.compile_failed.load(Ordering::Relaxed),
            knob_rejected: c.knob_rejected.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
        }
    }

    /// Number of distinct programs resident in the cache.
    pub fn cached_programs(&self) -> usize {
        self.shared.cache.len()
    }

    /// Stops accepting requests, drains the queue, and joins the
    /// workers. Already-queued requests still complete.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Dropping the sender closes the channel; workers exit when
        // the queue drains.
        drop(self.queue.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(index: usize, rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    loop {
        // Lock only to dequeue; blocking in `recv` under the lock
        // would serialize nothing but the idle wait, yet keeping the
        // critical section to the handoff makes that explicit.
        let job = {
            let rx = rx.lock().expect("queue poisoned");
            rx.recv()
        };
        let Ok(job) = job else {
            return; // Channel closed: shutdown.
        };
        let result = process(index, &job.request, shared);
        bump_outcome_counters(&result, &shared.counters);
        // The client may have dropped its ticket; that is not the
        // worker's problem.
        let _ = job.reply.send(result);
    }
}

fn process(worker: usize, req: &EvalRequest, shared: &Shared) -> Result<EvalResponse, ServeError> {
    let config = &shared.config;
    let (compiled, cache_hit) = shared.cache.get_or_compile(&req.source);
    let compiled = compiled.map_err(ServeError::Compile)?;
    let limits = RunLimits {
        fuel: req.fuel.unwrap_or(config.default_fuel).min(config.max_fuel),
        alloc_words: req.alloc_words.or(config.default_alloc_words),
        heap_bytes: req.heap_bytes,
        gc_nursery: req.gc_nursery,
    };
    match compiled.run_with_limits(&req.entry, req.engine, limits) {
        Ok((outcome, stats)) => Ok(EvalResponse {
            outcome,
            stats,
            cache_hit,
            worker,
        }),
        Err(MachineError::OutOfFuel { limit }) => Err(ServeError::FuelExhausted { fuel: limit }),
        Err(MachineError::AllocLimitExceeded { limit }) => {
            Err(ServeError::AllocCapExceeded { limit })
        }
        Err(MachineError::HeapLimitExceeded { limit }) => {
            Err(ServeError::HeapCapExceeded { limit })
        }
        Err(e) => Err(ServeError::Machine(e)),
    }
}

fn bump_outcome_counters(result: &Result<EvalResponse, ServeError>, counters: &Counters) {
    let counter = match result {
        Ok(_) => &counters.completed,
        Err(ServeError::FuelExhausted { .. }) => &counters.fuel_killed,
        Err(ServeError::AllocCapExceeded { .. }) => &counters.alloc_killed,
        Err(ServeError::HeapCapExceeded { .. }) => &counters.heap_killed,
        Err(ServeError::Compile(_)) => &counters.compile_failed,
        Err(_) => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD: &str = "main :: Int#\nmain = 3# +# 4#\n";

    fn small_service(workers: usize) -> EvalService {
        EvalService::start(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn evaluates_and_caches() {
        let service = small_service(2);
        let first = service.call(EvalRequest::source(ADD)).unwrap();
        let again = service.call(EvalRequest::source(ADD)).unwrap();
        assert_eq!(first.outcome.value().and_then(|v| v.as_int()), Some(7));
        assert_eq!(again.outcome.value().and_then(|v| v.as_int()), Some(7));
        assert!(!first.cache_hit);
        assert!(again.cache_hit);
        let counters = service.counters();
        assert_eq!(counters.completed, 2);
        assert_eq!(counters.cache.misses, 1);
        assert_eq!(counters.cache.hits, 1);
        service.shutdown();
    }

    #[test]
    fn fuel_budget_kills_divergent_programs() {
        let service = small_service(1);
        let spin = "spin :: Int# -> Int#\nspin n = spin (n +# 1#)\nmain :: Int#\nmain = spin 0#\n";
        let err = service
            .call(EvalRequest::source(spin).fuel(10_000))
            .unwrap_err();
        assert_eq!(err, ServeError::FuelExhausted { fuel: 10_000 });
        assert_eq!(service.counters().fuel_killed, 1);
        service.shutdown();
    }

    #[test]
    fn requested_fuel_is_clamped_to_max_fuel() {
        let service = EvalService::start(ServeConfig {
            workers: 1,
            max_fuel: 5_000,
            ..ServeConfig::default()
        });
        let spin = "spin :: Int# -> Int#\nspin n = spin (n +# 1#)\nmain :: Int#\nmain = spin 0#\n";
        // The tenant asks for a huge budget; the service clamps it.
        let err = service
            .call(EvalRequest::source(spin).fuel(u64::MAX))
            .unwrap_err();
        assert_eq!(err, ServeError::FuelExhausted { fuel: 5_000 });
        service.shutdown();
    }

    #[test]
    fn alloc_cap_kills_allocation_bombs() {
        let service = small_service(1);
        // Builds a boxed list cell (plus an `I#` box) per iteration —
        // allocation the optimizer cannot remove.
        let boxy = "data Chain = End | Link Int Chain\n\
                    build :: Int# -> Chain\n\
                    build n = case n of { 0# -> End; _ -> Link (I# n) (build (n -# 1#)) }\n\
                    len :: Chain -> Int#\n\
                    len xs = case xs of { End -> 0#; Link h t -> 1# +# len t }\n\
                    main :: Int#\n\
                    main = len (build 100000#)\n";
        let err = service
            .call(EvalRequest::source(boxy).alloc_cap(64))
            .unwrap_err();
        assert!(
            matches!(err, ServeError::AllocCapExceeded { .. }),
            "{err:?}"
        );
        assert_eq!(service.counters().alloc_killed, 1);
        service.shutdown();
    }

    #[test]
    fn compile_errors_are_reported_not_fatal() {
        let service = small_service(1);
        let err = service
            .call(EvalRequest::source("main :: Int#\nmain = nope\n"))
            .unwrap_err();
        assert!(matches!(err, ServeError::Compile(_)), "{err:?}");
        // The service is still alive.
        let ok = service.call(EvalRequest::source(ADD)).unwrap();
        assert_eq!(ok.outcome.value().and_then(|v| v.as_int()), Some(7));
        service.shutdown();
    }

    #[test]
    fn custom_entry_and_engine() {
        let service = small_service(1);
        let src = "double :: Int# -> Int#\ndouble x = x +# x\nten :: Int#\nten = double 5#\n";
        for engine in [Engine::Subst, Engine::Env, Engine::Bytecode] {
            let resp = service
                .call(EvalRequest::source(src).entry("ten").engine(engine))
                .unwrap();
            assert_eq!(resp.outcome.value().and_then(|v| v.as_int()), Some(10));
        }
        service.shutdown();
    }

    #[test]
    fn heap_knobs_on_non_collecting_engines_are_rejected() {
        let service = small_service(1);
        let refused = [
            (
                Engine::Subst,
                EvalRequest::source(ADD).heap_cap(4096),
                "heap_cap",
            ),
            (
                Engine::Env,
                EvalRequest::source(ADD).heap_cap(4096),
                "heap_cap",
            ),
            (
                Engine::Subst,
                EvalRequest::source(ADD).gc_nursery(64),
                "gc_nursery",
            ),
            (
                Engine::Env,
                EvalRequest::source(ADD).gc_nursery(64),
                "gc_nursery",
            ),
        ];
        for (n, (engine, req, knob)) in refused.into_iter().enumerate() {
            let err = service.submit(req.engine(engine)).unwrap_err();
            assert_eq!(err, ServeError::UnsupportedKnob { engine, knob });
            let counters = service.counters();
            assert_eq!(counters.knob_rejected, n as u64 + 1);
            // Refused at the door: never queued, never compiled.
            assert_eq!(counters.submitted, 0);
            assert_eq!(counters.cache.misses, 0);
        }
        // The service still serves: the same knobs on the collecting
        // engine, and a plain request on the refused engines.
        let ok = service
            .call(EvalRequest::source(ADD).heap_cap(4096).gc_nursery(64))
            .unwrap();
        assert_eq!(ok.outcome.value().and_then(|v| v.as_int()), Some(7));
        for engine in [Engine::Subst, Engine::Env] {
            let ok = service
                .call(EvalRequest::source(ADD).engine(engine))
                .unwrap();
            assert_eq!(ok.outcome.value().and_then(|v| v.as_int()), Some(7));
        }
        let counters = service.counters();
        assert_eq!(counters.completed, 3);
        assert_eq!(counters.knob_rejected, 4);
        service.shutdown();
    }

    #[test]
    fn full_queue_sheds_load() {
        // One worker, depth-1 queue. Park the worker on a slow request,
        // fill the queue, and watch the next submit bounce.
        let service = EvalService::start(ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        });
        let slow = "spin :: Int# -> Int#\nspin n = spin (n +# 1#)\nmain :: Int#\nmain = spin 0#\n";
        let running = service
            .submit(EvalRequest::source(slow).fuel(20_000_000))
            .unwrap();
        // Give the worker a moment to pick the job up, then fill the
        // queue. Even if it has not dequeued yet, depth 1 + 2 submits
        // guarantees at least one shed.
        let mut shed = 0;
        let mut queued = Vec::new();
        for _ in 0..3 {
            match service.submit(EvalRequest::source(ADD)) {
                Ok(t) => queued.push(t),
                Err(ServeError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected: {e:?}"),
            }
        }
        assert!(shed >= 1, "at least one request shed");
        assert_eq!(service.counters().shed, shed);
        // The slow request eventually dies of fuel exhaustion and the
        // queued ones complete.
        assert!(matches!(
            running.wait(),
            Err(ServeError::FuelExhausted { .. })
        ));
        for t in queued {
            assert_eq!(
                t.wait().unwrap().outcome.value().and_then(|v| v.as_int()),
                Some(7)
            );
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let service = small_service(2);
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| service.submit(EvalRequest::source(ADD)).unwrap())
            .collect();
        service.shutdown();
        for t in tickets {
            assert_eq!(
                t.wait().unwrap().outcome.value().and_then(|v| v.as_int()),
                Some(7)
            );
        }
    }
}
