//! End-to-end tests of the serving layer (`levity-serve`) — the
//! multithread smoke test for the `Rc` → `Arc` spine refactor.
//!
//! Two shapes:
//!
//! * a service-level test driving an in-process [`EvalService`] with
//!   concurrent client threads over the mixed corpus, asserting
//!   correctness of every response, the cache-hit counters
//!   (compile-once), the fuel kill on a divergent program, and load
//!   shedding when the queue is full;
//! * an engine-level stress test running *one shared* [`Compiled`]
//!   program on 8 threads simultaneously, asserting every thread's
//!   outcome and full [`MachineStats`] equal the single-threaded run —
//!   the `Arc`-spined program really is immutable under concurrency.

use std::sync::Arc;
use std::thread;

use levity::driver::{compile_with_prelude, Compiled, RunLimits};
use levity::m::Engine;
use levity_serve::corpus::{expected_int, CorpusProgram, CHURN, MIXED_CORPUS, SPIN};
use levity_serve::{EvalRequest, EvalService, ServeConfig, ServeError};

const CLIENTS: usize = 8;
const ROUNDS: usize = 6;

/// Concurrent clients over the mixed corpus: every response correct,
/// the pipeline ran exactly once per distinct program, a divergent
/// tenant dies by fuel, and a full queue sheds instead of queueing.
#[test]
fn service_end_to_end_under_concurrency() {
    let service = Arc::new(EvalService::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    }));

    // Phase 1: N client threads × M rounds over the whole corpus.
    thread::scope(|s| {
        for client in 0..CLIENTS {
            let service = Arc::clone(&service);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger the starting program per client/round so
                    // requests collide on the cache from the start.
                    for i in 0..MIXED_CORPUS.len() {
                        let prog = &MIXED_CORPUS[(client + round + i) % MIXED_CORPUS.len()];
                        let resp = service
                            .call(EvalRequest::source(prog.source))
                            .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
                        assert_eq!(
                            expected_int(&resp.outcome),
                            Some(prog.expected),
                            "{} returned a wrong answer under concurrency",
                            prog.name
                        );
                    }
                }
            });
        }
    });

    let counters = service.counters();
    let total = (CLIENTS * ROUNDS * MIXED_CORPUS.len()) as u64;
    assert_eq!(counters.completed, total);
    // Compile-once: one miss per distinct program, everything else hit.
    assert_eq!(counters.cache.misses, MIXED_CORPUS.len() as u64);
    assert_eq!(counters.cache.hits, total - MIXED_CORPUS.len() as u64);
    assert_eq!(counters.cache.collisions, 0);

    // Phase 2: a divergent program is killed by the fuel meter, with a
    // structured error — the worker survives to serve the next request.
    let err = service
        .call(EvalRequest::source(SPIN).fuel(50_000))
        .unwrap_err();
    assert_eq!(err, ServeError::FuelExhausted { fuel: 50_000 });
    assert_eq!(service.counters().fuel_killed, 1);
    let after = service
        .call(EvalRequest::source(MIXED_CORPUS[0].source))
        .unwrap();
    assert_eq!(expected_int(&after.outcome), Some(MIXED_CORPUS[0].expected));

    Arc::into_inner(service)
        .expect("all clients done")
        .shutdown();
}

/// A single worker with a depth-1 queue: park it on a slow request,
/// overfill the queue, and assert deterministic shedding.
#[test]
fn full_queue_sheds_deterministically() {
    let service = EvalService::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    // ~20M steps of spin keeps the one worker busy far longer than the
    // submit loop below, and the fuel meter guarantees it ends.
    let parked = service
        .submit(EvalRequest::source(SPIN).fuel(20_000_000))
        .unwrap();
    let mut queued = Vec::new();
    let mut shed = 0u64;
    for _ in 0..4 {
        match service.submit(EvalRequest::source(MIXED_CORPUS[0].source)) {
            Ok(t) => queued.push(t),
            Err(ServeError::Overloaded) => shed += 1,
            Err(e) => panic!("unexpected: {e:?}"),
        }
    }
    // Worker holds one job at most; queue holds one more: of 4 extra
    // submits at least 2 must shed, whatever the interleaving.
    assert!(shed >= 2, "expected ≥2 sheds, got {shed}");
    assert_eq!(service.counters().shed, shed);
    assert!(matches!(
        parked.wait(),
        Err(ServeError::FuelExhausted { .. })
    ));
    for t in queued {
        let resp = t.wait().unwrap();
        assert_eq!(expected_int(&resp.outcome), Some(MIXED_CORPUS[0].expected));
    }
    service.shutdown();
}

/// One compiled program, 8 threads, 3 engines: outcomes and *every*
/// counter in `MachineStats` must match the single-threaded run. This
/// is the direct witness that the shared `Arc` spines are read-only.
#[test]
fn shared_compiled_program_is_deterministic_across_8_threads() {
    const THREADS: usize = 8;
    let limits = RunLimits::fuel(50_000_000);
    for prog in [
        &MIXED_CORPUS[0], // unboxed loop
        &MIXED_CORPUS[3], // CPR constructor returns
        &MIXED_CORPUS[4], // allocation churn
    ] {
        let compiled: Arc<Compiled> =
            Arc::new(compile_with_prelude(prog.source).unwrap_or_else(|e| panic!("{e}")));
        for engine in [Engine::Subst, Engine::Env, Engine::Bytecode] {
            let (baseline_out, baseline_stats) = compiled
                .run_with_limits("main", engine, limits)
                .unwrap_or_else(|e| panic!("{}/{engine:?}: {e}", prog.name));
            assert_eq!(
                expected_int(&baseline_out),
                Some(prog.expected),
                "{}",
                prog.name
            );
            thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let compiled = Arc::clone(&compiled);
                        s.spawn(move || compiled.run_with_limits("main", engine, limits).unwrap())
                    })
                    .collect();
                for h in handles {
                    let (out, stats) = h.join().unwrap();
                    assert_eq!(
                        out, baseline_out,
                        "{}/{engine:?}: outcome diverged across threads",
                        prog.name
                    );
                    assert_eq!(
                        stats, baseline_stats,
                        "{}/{engine:?}: MachineStats diverged across threads",
                        prog.name
                    );
                }
            });
        }
    }
}

/// The soak test the copying collector exists for: one worker serving
/// a long run of allocation-churn requests under a *live-heap* cap far
/// below the program's cumulative allocation. Before the collector,
/// the bytecode heap only ever grew, so a residency bound this tight
/// was unenforceable — cumulative allocation for one churn request is
/// ~100× the cap. Now every request must complete correctly inside the
/// cap (the collector keeps residency at the live set, which is one
/// 24-cell chain) and must actually collect along the way.
#[test]
fn soak_churn_requests_stay_inside_a_live_heap_cap() {
    // 10k requests in release CI (`LEVITY_SOAK_REQUESTS=10000`); a
    // shorter default keeps plain debug `cargo test` quick while still
    // covering hundreds of collections.
    let requests: usize = std::env::var("LEVITY_SOAK_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let service = EvalService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut collections = 0u64;
    let mut bytes_copied = 0u64;
    for i in 0..requests {
        let req = EvalRequest::source(CHURN.source)
            .engine(Engine::Bytecode)
            .gc_nursery(256)
            .heap_cap(64 * 1024);
        let resp = service
            .call(req)
            .unwrap_or_else(|e| panic!("churn request {i} failed: {e}"));
        assert_eq!(
            expected_int(&resp.outcome),
            Some(CHURN.expected),
            "churn request {i} returned a wrong answer"
        );
        collections += resp.stats.collections;
        bytes_copied += resp.stats.bytes_copied;
    }
    assert!(
        collections > 0,
        "churn never triggered a collection — the nursery knob is dead"
    );
    // The residency bound itself: `heap_cap` kills any request whose
    // live set exceeds 64KiB after a collection, so mere completion is
    // the bound — but pin the reported numbers too: what survives each
    // collection averages far below the cap (the live set is one
    // 24-cell chain, not the cumulative allocation).
    assert!(
        bytes_copied <= collections * 64 * 1024,
        "collections retained more than the residency cap on average"
    );
    service.shutdown();
}

/// The residency cap as a tenancy policy: a request whose *live* data
/// outgrows its cap is killed with a structured error and its own
/// counter, and the worker survives to serve the next request. It holds
/// whether the request names the bytecode engine or names none: the
/// default engine collects, so a tenant's cap applies by default.
#[test]
fn over_residency_request_is_killed_and_counted() {
    assert_eq!(Engine::default(), Engine::Bytecode);
    let service = EvalService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for (n, engine) in [Some(Engine::Bytecode), None].into_iter().enumerate() {
        let capped = |src: &str| {
            let req = EvalRequest::source(src).gc_nursery(64).heap_cap(4096);
            match engine {
                Some(engine) => req.engine(engine),
                None => req,
            }
        };
        // ALLOC_HEAVY keeps a 300-cell chain fully reachable — no
        // amount of collecting fits that in 4KiB.
        let err = service.call(capped(MIXED_CORPUS[4].source)).unwrap_err();
        assert_eq!(
            err,
            ServeError::HeapCapExceeded { limit: 4096 },
            "{engine:?}"
        );
        assert_eq!(service.counters().heap_killed, n as u64 + 1);
        // Same cap, churn-shaped traffic: lives happily within it.
        let resp = service.call(capped(CHURN.source)).unwrap();
        assert_eq!(expected_int(&resp.outcome), Some(CHURN.expected));
        assert!(resp.stats.collections > 0, "{engine:?}");
    }
    service.shutdown();
}

/// The corpus expectations themselves stay honest: every program also
/// passes through the plain (serverless) pipeline.
#[test]
fn corpus_expectations_match_the_plain_pipeline() {
    for CorpusProgram {
        name,
        source,
        expected,
    } in MIXED_CORPUS
    {
        let compiled = compile_with_prelude(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (out, _) = compiled.run("main", 50_000_000).unwrap();
        assert_eq!(expected_int(&out), Some(expected), "{name}");
    }
}
