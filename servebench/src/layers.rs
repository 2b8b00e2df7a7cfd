//! Per-layer metrics: from the service's responses and counters, from
//! the traced replay, and from direct runs of every corpus program on
//! both production engines.

use std::time::Instant;

use levity_driver::pipeline::compile_with_prelude;
use levity_serve::corpus::{expected_int, CorpusProgram, CHURN, MIXED_CORPUS};
use levity_serve::{Engine, MachineStats, ServeConfig};

use crate::gen::churn;
use crate::load::LoadRun;
use crate::replay::{limits_for, Replay, PHASES, PROGRAM_COUNTS};
use crate::report::{median, Metrics};

/// Layers the replay's spans belong to, named by span prefix.
const LAYERS: [&str; 7] = ["replay", "driver", "surface", "infer", "ir", "compile", "m"];

pub fn service_metrics(
    m: &mut Metrics,
    run: &LoadRun,
    replay: &Replay,
    (rss_per_cached_kib, programs): (f64, usize),
) {
    let latencies = |hit: bool| -> Vec<f64> {
        run.samples
            .iter()
            .filter(|s| s.cache_hit == Some(hit))
            .map(|s| f64::from(s.latency_ms))
            .collect()
    };
    let hits = latencies(true);
    let misses = latencies(false);
    m.add("serve.hit_latency_p50_ms", median(&hits), "ms", hits.len());
    m.add(
        "serve.miss_latency_p50_ms",
        median(&misses),
        "ms",
        misses.len(),
    );
    let overhead = if hits.is_empty() || replay.hit_run_us.is_empty() {
        0.0
    } else {
        median(&hits) * 1e3 - median(&replay.hit_run_us)
    };
    m.add(
        "serve.dispatch_overhead_us",
        overhead,
        "us",
        hits.len().min(replay.hit_run_us.len()),
    );
    let c = &run.counters;
    let lookups = c.cache.hits + c.cache.misses;
    m.add(
        "serve.hit_ratio",
        c.cache.hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    let n = run.samples.len();
    m.add("serve.evictions", c.cache.evictions as f64, "count", n);
    m.add("serve.shed", c.shed as f64, "count", n);
    m.add("serve.fuel_killed", c.fuel_killed as f64, "count", n);
    m.add("serve.heap_killed", c.heap_killed as f64, "count", n);
    m.add("serve.compile_failed", c.compile_failed as f64, "count", n);
    m.add(
        "serve.rss_per_cached_kib",
        rss_per_cached_kib,
        "KiB",
        programs,
    );

    // The collector runs only on churn requests (bytecode engine, small
    // nursery), which only tenant-mix sends.
    let gc = &run.gc;
    let churn = gc.responses as usize;
    let per = |total: u64| total as f64 / gc.responses.max(1) as f64;
    for (name, total, unit) in [
        ("collections", gc.collections, "count"),
        ("bytes_copied", gc.bytes_copied, "bytes"),
        ("gc_steps", gc.gc_steps, "count"),
    ] {
        m.add(format!("m.{name}"), total as f64, unit, churn);
        m.add(format!("m.{name}_per_churn"), per(total), unit, churn);
    }
}

/// The median of `f` over `items`.
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

pub fn replay_metrics(m: &mut Metrics, replay: &Replay) {
    let compiles = &replay.compiles;
    let n = compiles.len();
    m.add(
        "driver.compile_us",
        median_of(compiles, |c| c.driver_us),
        "us",
        n,
    );
    let bytes = median_of(compiles, |c| c.source_bytes as f64);
    m.add("driver.source_bytes", bytes, "bytes", n);
    let unattributed = median_of(compiles, |c| {
        c.driver_us - c.phase_us.iter().map(|(_, us)| us).sum::<f64>()
    });
    m.add("driver.unattributed_us", unattributed, "us", n);
    let tokens = median_of(compiles, |c| c.tokens as f64);
    m.add("surface.tokens", tokens, "count", n);
    for phase in PHASES {
        let times: Vec<f64> = compiles
            .iter()
            .flat_map(|c| c.phase_us.iter().filter(|(p, _)| *p == phase))
            .map(|(_, us)| *us)
            .collect();
        m.add(format!("{phase}_us"), median(&times), "us", times.len());
    }

    let programs: Vec<&[usize; 8]> = compiles.iter().filter_map(|c| c.program.as_ref()).collect();
    for (i, name) in PROGRAM_COUNTS.into_iter().enumerate() {
        let value = median_of(&programs, |p| p[i] as f64);
        m.add(name, value, "count", programs.len());
    }

    let traced: f64 = compiles.iter().map(|c| c.traced_us).sum();
    let untraced: f64 = compiles.iter().map(|c| c.driver_us).sum();
    m.add(
        "trace.overhead_frac",
        if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        },
        "ratio",
        n,
    );
    let by_layer = replay.tracer.self_time_by_layer();
    let requests = replay.requests.max(1) as f64;
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        m.add(
            format!("trace.self_us.{layer}"),
            ns as f64 / 1e3 / requests,
            "us",
            replay.requests as usize,
        );
    }
}

/// Direct runs of each corpus program, `churn` included, on the
/// environment and bytecode engines.
pub struct CorpusRuns {
    /// (program, engine, median run µs, runs, stats of one run)
    pub rows: Vec<(&'static str, &'static str, f64, usize, MachineStats)>,
    pub attempted: u64,
    pub failed: u64,
}

const RUN_REPS: usize = 15;

pub fn corpus_runs(config: &ServeConfig) -> CorpusRuns {
    let mut out = CorpusRuns {
        rows: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let churn_req = churn();
    let programs: Vec<&CorpusProgram> = MIXED_CORPUS.iter().chain([&CHURN]).collect();
    for prog in programs {
        out.attempted += 1;
        let Ok(compiled) = compile_with_prelude(prog.source) else {
            out.failed += 1;
            continue;
        };
        // Churn runs under the limits tenant-mix sends it with.
        let limits = if prog.name == CHURN.name {
            limits_for(&churn_req, config)
        } else {
            levity_driver::RunLimits::fuel(config.default_fuel)
        };
        for (engine, engine_name) in [(Engine::Env, "env"), (Engine::Bytecode, "bytecode")] {
            let mut times = Vec::with_capacity(RUN_REPS);
            let mut stats = MachineStats::default();
            for rep in 0..=RUN_REPS {
                let t0 = Instant::now();
                let result = compiled.run_with_limits("main", engine, limits);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                out.attempted += 1;
                match result {
                    Ok((outcome, s)) if expected_int(&outcome) == Some(prog.expected) => {
                        stats = s;
                        // The first run warms caches and is not timed.
                        if rep > 0 {
                            times.push(us);
                        }
                    }
                    _ => out.failed += 1,
                }
            }
            out.rows
                .push((prog.name, engine_name, median(&times), times.len(), stats));
        }
    }
    out
}

pub fn run_metrics(m: &mut Metrics, runs: &CorpusRuns) {
    for (prog, engine, us, n, _) in &runs.rows {
        m.add(format!("m.run_us.{prog}.{engine}"), *us, "us", *n);
    }
    // Step counts differ between engines; report the default engine's.
    for (prog, engine, _, n, stats) in &runs.rows {
        if *engine == "env" {
            m.add(format!("m.steps.{prog}"), stats.steps as f64, "count", *n);
            m.add(
                format!("m.allocated_words.{prog}"),
                stats.allocated_words as f64,
                "count",
                *n,
            );
        }
    }
}
