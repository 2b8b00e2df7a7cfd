//! End-to-end serving benchmark for the levity pipeline.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload hot-mix --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Runs one workload (`hot-mix`, `cold-compile`, `tenant-mix`) from a
//! seed against a real `EvalService`: `nproc` closed-loop clients, a
//! service with `workers = nproc` and `ServeConfig::default()`
//! otherwise. Every response is checked against its expected outcome.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it prints the per-layer metrics, from the service's responses and
//! counters and from a separate traced replay through the layers'
//! public functions, whose spans it writes to `servebench/out/`. Each
//! metric is printed with its unit and sample count; the last line is
//! one JSON object. Any request that misses its expected outcome makes
//! the command exit with code 1. See `servebench/METRICS.md`.

mod gen;
mod layers;
mod load;
mod replay;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use levity_serve::ServeConfig;

use gen::Workload;
use report::{median, proc_status_kib, Metrics};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload <hot-mix|cold-compile|tenant-mix> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = ServeConfig {
        workers: nproc,
        ..ServeConfig::default()
    };
    println!(
        "servebench: workload={} seed={} seconds={} trace={} clients={nproc} workers={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setup_s = Vec::new();
    let mut first_setup_rss_kib = 0.0;
    let mut service = None;
    for rep in 0..SETUP_REPS {
        let rss_before = proc_status_kib("VmRSS");
        let (s, took, warm_failed) = load::set_up(args.workload, config);
        if rep == 0 {
            first_setup_rss_kib = proc_status_kib("VmRSS") - rss_before;
        }
        attempted += args.workload.warm_set().len() as u64;
        failed += warm_failed;
        setup_s.push(took.as_secs_f64());
        // Shut the previous set-up down; the last one serves the load.
        if let Some(old) = service.replace(s) {
            old.shutdown();
        }
    }
    let service = service.expect("at least one set-up");

    let run = load::closed_loop(
        &service,
        args.workload,
        args.seed,
        nproc,
        config.cache_capacity,
        Duration::from_secs(args.seconds),
    );
    service.shutdown();

    let ok = run.samples.iter().filter(|s| s.ok).count();
    attempted += run.samples.len() as u64;
    failed += (run.samples.len() - ok) as u64;
    let win = load::windowed(&run.samples, args.workload.window_requests(), &run.host);
    println!(
        "requests={} ok={ok} fail_frac={:.6} elapsed_s={:.3} steal={:.4} \
         windows={}/{} of {} requests p99_windows={}/{} of {} requests",
        run.samples.len(),
        (run.samples.len() - ok) as f64 / run.samples.len().max(1) as f64,
        run.elapsed.as_secs_f64(),
        win.steal,
        win.windows.1,
        win.windows.0,
        args.workload.window_requests(),
        win.p99_windows.1,
        win.p99_windows.0,
        load::P99_WINDOW,
    );

    let mut metrics = Metrics::default();
    if !args.trace {
        let n = run.samples.len();
        metrics.add("throughput_rps", win.throughput_rps, "1/s", ok);
        metrics.add("latency_p50_ms", win.p50_ms, "ms", n);
        metrics.add("latency_p99_ms", win.p99_ms, "ms", n);
        let peak_kib = run.peak_rss_kib.unwrap_or_else(|| proc_status_kib("VmHWM"));
        metrics.add("peak_rss_mib", peak_kib / 1024.0, "MiB", 1);
        metrics.add("setup_s", median(&setup_s), "s", setup_s.len());
    } else {
        let budget = Duration::from_secs(args.seconds.div_ceil(4));
        let replay = replay::replay(args.workload, args.seed, &config, budget, 5_000);
        for line in replay.mismatches.iter().take(20) {
            eprintln!("servebench: mismatch: {line}");
        }
        attempted += replay.attempted;
        failed += replay.failed;
        let runs = layers::corpus_runs(&config);
        attempted += runs.attempted;
        failed += runs.failed;

        // RSS growth per program while the cache fills: over the timed
        // phase when the cache reaches capacity there, else over the
        // first set-up, which warms a fresh process's cache (service
        // start included).
        let rss_per_cached_kib = match (run.fill, run.start) {
            (Some((rss, cached)), (rss0, cached0)) => {
                let gained = cached - cached0;
                ((rss - rss0) / gained.max(1) as f64, gained)
            }
            (None, _) => {
                let warmed = args.workload.warm_set().len();
                (first_setup_rss_kib / warmed as f64, warmed)
            }
        };
        layers::service_metrics(&mut metrics, &run, &replay, rss_per_cached_kib);
        layers::replay_metrics(&mut metrics, &replay);
        layers::run_metrics(&mut metrics, &runs);

        let path = PathBuf::from("servebench/out").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match replay.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} spans of {} replayed requests written to {}",
                replay.tracer.spans().len(),
                replay.requests,
                path.display()
            ),
            Err(e) => eprintln!("servebench: could not write {}: {e}", path.display()),
        }
    }

    metrics.print_lines();
    println!("{}", metrics.result_json(attempted, failed));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
