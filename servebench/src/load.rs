//! Set-up and the closed-loop load against a real `EvalService`.
//!
//! Each client thread sends its next request only after the previous
//! one returned: `Ticket` offers only a blocking `wait()`, so an open
//! loop driven from outside the service would have to wait on tickets
//! in order, which distorts the latencies it reports.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use levity_serve::corpus::expected_int;
use levity_serve::{
    EvalResponse, EvalService, MachineStats, ServeConfig, ServeCounters, ServeError, Ticket,
};

use crate::gen::{Expect, Kind, Request, Stage, Workload};
use crate::report::{median, percentile, proc_status_kib};

/// Whether a service result is the outcome the request expects.
pub fn is_expected(req: &Request, result: &Result<EvalResponse, ServeError>) -> bool {
    match (req.expect, result) {
        (Expect::Int(want), Ok(resp)) => expected_int(&resp.outcome) == Some(want),
        (Expect::FuelExhausted(want), Err(ServeError::FuelExhausted { fuel })) => *fuel == want,
        (Expect::CompileError(stage), Err(ServeError::Compile(msg))) => {
            stage_of_message(msg) == Some(stage)
        }
        _ => false,
    }
}

/// The stage a flattened `PipelineError` message names.
fn stage_of_message(msg: &str) -> Option<Stage> {
    [
        ("parse error", Stage::Parse),
        ("elaboration failed", Stage::Elaborate),
        ("core lint failed", Stage::CoreLint),
        ("levity restrictions violated", Stage::Levity),
        ("lowering failed", Stage::Lower),
        ("bytecode verification failed", Stage::Verify),
    ]
    .into_iter()
    .find_map(|(prefix, stage)| msg.starts_with(prefix).then_some(stage))
}

/// One set-up: start the service and compile every program of the
/// workload's warm set through it. Returns the service, the set-up
/// time, and how many warm requests missed their expected outcome.
pub fn set_up(workload: Workload, config: ServeConfig) -> (EvalService, Duration, u64) {
    let start = Instant::now();
    let service = EvalService::start(config);
    let failed = workload
        .warm_set()
        .iter()
        .filter(|req| !is_expected(req, &service.call(req.to_eval())))
        .count() as u64;
    (service, start.elapsed(), failed)
}

/// One completed request of the timed phase, kept small: the samples
/// live in the measured process, so they count in its peak RSS.
pub struct Sample {
    pub ok: bool,
    /// `EvalResponse::cache_hit`, for requests that returned a response.
    pub cache_hit: Option<bool>,
    /// From `submit` to `wait` returning.
    pub latency_ms: f32,
    /// When `wait` returned, from the start of the timed phase.
    pub done_ms: f32,
}

/// Collector work summed over the churn responses of the timed phase.
#[derive(Clone, Copy, Default)]
pub struct GcTotals {
    pub responses: u64,
    pub collections: u64,
    pub bytes_copied: u64,
    pub gc_steps: u64,
}

impl GcTotals {
    fn add(&mut self, stats: &MachineStats) {
        self.responses += 1;
        self.collections += stats.collections;
        self.bytes_copied += stats.bytes_copied;
        self.gc_steps += stats.gc_steps;
    }

    fn merge(mut self, other: GcTotals) -> GcTotals {
        self.responses += other.responses;
        self.collections += other.collections;
        self.bytes_copied += other.bytes_copied;
        self.gc_steps += other.gc_steps;
        self
    }
}

pub struct LoadRun {
    /// In completion order.
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    /// Counter growth over the timed phase.
    pub counters: ServeCounters,
    pub gc: GcTotals,
    /// `VmHWM` (KiB) once `Workload::rss_after_requests` requests had
    /// completed, if they did.
    pub peak_rss_kib: Option<f64>,
    /// RSS (KiB) and resident programs when the timed phase started.
    pub start: (f64, usize),
    /// RSS (KiB) and resident programs when the cache first reached its
    /// capacity, if it did.
    pub fill: Option<(f64, usize)>,
    /// The machine's CPU ticks over the timed phase, sampled every
    /// [`HOST_SAMPLE_EVERY`].
    pub host: Vec<HostTicks>,
}

/// Cumulative CPU ticks of the whole machine, from `/proc/stat`.
#[derive(Clone, Copy)]
pub struct HostTicks {
    /// From the start of the timed phase.
    pub at_ms: f32,
    /// Ticks the hypervisor ran something else on this machine's CPUs.
    pub steal: u64,
    /// All ticks.
    pub total: u64,
}

const HOST_SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// `(steal, total)` of the `cpu` line of `/proc/stat`.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Runs `clients` closed-loop clients for `duration`, drawing requests
/// `0, 1, 2, …` of the workload's sequence in order.
pub fn closed_loop(
    service: &EvalService,
    workload: Workload,
    seed: u64,
    clients: usize,
    capacity: usize,
    duration: Duration,
) -> LoadRun {
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let peak_rss = OnceLock::new();
    let fill = OnceLock::new();
    let before = service.counters();
    let rss_start = (proc_status_kib("VmRSS"), service.cached_programs());
    let start = Instant::now();
    let deadline = start + duration;
    let stop = AtomicBool::new(false);
    let (mut samples, gc, host) = thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut host = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if let Some((steal, total)) = host_ticks() {
                    host.push(HostTicks {
                        at_ms: (start.elapsed().as_secs_f64() * 1e3) as f32,
                        steal,
                        total,
                    });
                }
                thread::sleep(HOST_SAMPLE_EVERY);
            }
            host
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    let mut gc = GcTotals::default();
                    while Instant::now() < deadline {
                        let req = workload.request(seed, next.fetch_add(1, Ordering::Relaxed));
                        let eval = req.to_eval();
                        let sent = Instant::now();
                        let result = service.submit(eval).and_then(Ticket::wait);
                        let done = Instant::now();
                        let cache_hit = result.as_ref().ok().map(|r| r.cache_hit);
                        // The fill check runs on misses only, which
                        // already paid for a compile.
                        if cache_hit == Some(false) && fill.get().is_none() {
                            let cached = service.cached_programs();
                            if cached >= capacity {
                                let _ = fill.set((proc_status_kib("VmRSS"), cached));
                            }
                        }
                        let done_count = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if done_count == workload.rss_after_requests() {
                            let _ = peak_rss.set(proc_status_kib("VmHWM"));
                        }
                        if let (Kind::Churn, Ok(resp)) = (req.kind, &result) {
                            gc.add(&resp.stats);
                        }
                        samples.push(Sample {
                            ok: is_expected(&req, &result),
                            cache_hit,
                            latency_ms: ((done - sent).as_secs_f64() * 1e3) as f32,
                            done_ms: ((done - start).as_secs_f64() * 1e3) as f32,
                        });
                    }
                    (samples, gc)
                })
            })
            .collect();
        let (samples, gc) = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .fold(
                (Vec::new(), GcTotals::default()),
                |(mut all, gc), (s, g)| {
                    all.extend(s);
                    (all, gc.merge(g))
                },
            );
        stop.store(true, Ordering::Relaxed);
        let host = sampler.join().expect("the host sampler panicked");
        (samples, gc, host)
    });
    samples.sort_by(|a, b| a.done_ms.total_cmp(&b.done_ms));
    let elapsed = start.elapsed();
    let after = service.counters();
    LoadRun {
        samples,
        elapsed,
        counters: counter_delta(&before, &after),
        gc,
        peak_rss_kib: peak_rss.get().copied(),
        start: rss_start,
        fill: fill.get().copied(),
        host,
    }
}

/// Throughput and latency of the timed phase, each the median over
/// windows of completed requests of that window's value.
///
/// Only the windows with the least CPU taken by the hypervisor count:
/// those whose steal share is at most the 25th percentile of the
/// windows' steal shares, which on an undisturbed machine is every
/// window. On the shared reference container, a window's p99 rose
/// from about 1.4 ms at no steal to 9-11 ms at 20% steal on `hot-mix`,
/// while the p50 moved by a tenth; so steal, not the program, set the
/// run's p99 whenever other tenants were busy.
pub struct Windowed {
    /// Ok requests per second of each window's span, median.
    pub throughput_rps: f64,
    /// Each window's p50 latency, median.
    pub p50_ms: f64,
    /// Windows of `window` samples, and how many of them counted.
    pub windows: (usize, usize),
    /// The p99 latency of each window of [`P99_WINDOW`] samples, which
    /// has at least ten samples beyond its p99, median. The windows
    /// start every [`P99_STRIDE`] samples, so they overlap and a run
    /// with few thousand requests still has many of them.
    pub p99_ms: f64,
    pub p99_windows: (usize, usize),
    /// Steal share of the whole timed phase.
    pub steal: f64,
}

pub const P99_WINDOW: usize = 1_000;
pub const P99_STRIDE: usize = 100;

/// Splits `samples` (in completion order) into consecutive windows of
/// `window` samples, dropping a short tail, and into overlapping
/// windows for p99.
pub fn windowed(samples: &[Sample], window: usize, host: &[HostTicks]) -> Windowed {
    let p_of = |w: &[Sample], p: f64| {
        let mut lat: Vec<f64> = w.iter().map(|s| f64::from(s.latency_ms)).collect();
        percentile(&mut lat, p).map_or(0.0, |(v, _)| v)
    };
    // (steal share, throughput, p50) of each consecutive window.
    let mut rows = Vec::new();
    let mut prev_end_ms = 0.0f32;
    let n = (samples.len() / window).max(1);
    for w in samples.chunks((samples.len() / n).max(1)).take(n) {
        let end_ms = w.last().map_or(prev_end_ms, |s| s.done_ms);
        let ok = w.iter().filter(|s| s.ok).count();
        let span_s = f64::from(end_ms - prev_end_ms) / 1e3;
        let rps = if span_s > 0.0 {
            ok as f64 / span_s
        } else {
            0.0
        };
        rows.push((steal_share(host, prev_end_ms, end_ms), rps, p_of(w, 50.0)));
        prev_end_ms = end_ms;
    }
    let p99_rows: Vec<(f64, f64)> = if samples.len() <= P99_WINDOW {
        vec![(0.0, p_of(samples, 99.0))]
    } else {
        (0..=samples.len() - P99_WINDOW)
            .step_by(P99_STRIDE)
            .map(|start| {
                let w = &samples[start..start + P99_WINDOW];
                let sent_ms = w[0].done_ms - w[0].latency_ms;
                let end_ms = w[w.len() - 1].done_ms;
                (steal_share(host, sent_ms, end_ms), p_of(w, 99.0))
            })
            .collect()
    };
    let quiet = least_stolen(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
    let rows: Vec<_> = rows.iter().filter(|r| r.0 <= quiet).collect();
    let p99_quiet = least_stolen(&p99_rows.iter().map(|r| r.0).collect::<Vec<_>>());
    let p99s: Vec<f64> = p99_rows
        .iter()
        .filter(|r| r.0 <= p99_quiet)
        .map(|r| r.1)
        .collect();
    let end_ms = samples.last().map_or(0.0, |s| s.done_ms);
    Windowed {
        throughput_rps: median(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        p50_ms: median(&rows.iter().map(|r| r.2).collect::<Vec<_>>()),
        windows: (n, rows.len()),
        p99_ms: median(&p99s),
        p99_windows: (p99_rows.len(), p99s.len()),
        steal: steal_share(host, 0.0, end_ms),
    }
}

/// The 25th percentile of the windows' steal shares.
fn least_stolen(shares: &[f64]) -> f64 {
    let mut shares = shares.to_vec();
    percentile(&mut shares, 25.0).map_or(0.0, |(v, _)| v)
}

/// The share of the machine's CPU ticks between `from_ms` and `to_ms`
/// that the hypervisor stole, from the samples around that span.
fn steal_share(host: &[HostTicks], from_ms: f32, to_ms: f32) -> f64 {
    let at = |ms: f32| host.iter().rev().find(|h| h.at_ms <= ms).or(host.first());
    match (at(from_ms), at(to_ms)) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

fn counter_delta(a: &ServeCounters, b: &ServeCounters) -> ServeCounters {
    let mut d = *b;
    d.submitted -= a.submitted;
    d.completed -= a.completed;
    d.shed -= a.shed;
    d.fuel_killed -= a.fuel_killed;
    d.alloc_killed -= a.alloc_killed;
    d.heap_killed -= a.heap_killed;
    d.compile_failed -= a.compile_failed;
    d.cache.hits -= a.cache.hits;
    d.cache.misses -= a.cache.misses;
    d.cache.collisions -= a.cache.collisions;
    d.cache.evictions -= a.cache.evictions;
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five windows of 1,000 requests: one per millisecond at 1 ms
    /// latency, except the middle window, stalled ten times over.
    fn stalled_run() -> Vec<Sample> {
        let mut samples = Vec::new();
        let mut done_ms = 0.0f32;
        for w in 0..5 {
            let slow = if w == 2 { 10.0 } else { 1.0 };
            for _ in 0..1_000 {
                done_ms += slow;
                samples.push(Sample {
                    ok: true,
                    cache_hit: Some(true),
                    latency_ms: slow,
                    done_ms,
                });
            }
        }
        samples
    }

    #[test]
    fn windowed_medians_ignore_a_stalled_window() {
        let w = windowed(&stalled_run(), 1_000, &[]);
        assert_eq!((w.windows, w.p99_windows), ((5, 5), (41, 41)));
        assert!((w.throughput_rps - 1_000.0).abs() < 1e-6);
        assert_eq!((w.p50_ms, w.p99_ms, w.steal), (1.0, 1.0, 0.0));
    }

    #[test]
    fn windows_with_steal_do_not_count() {
        // The hypervisor takes a tenth of the machine during the stall,
        // from 2 s to 12 s, and nothing before or after it.
        let host: Vec<HostTicks> = (0..=30)
            .map(|k| {
                let at_ms = k as f32 * 500.0;
                HostTicks {
                    at_ms,
                    steal: 10 * (k.clamp(4, 24) - 4),
                    total: 100 * k,
                }
            })
            .collect();
        let w = windowed(&stalled_run(), 1_000, &host);
        // The stalled window and the p99 windows overlapping it are out.
        assert_eq!((w.windows, w.p99_windows), ((5, 4), (41, 22)));
        assert!((w.throughput_rps - 1_000.0).abs() < 1e-6);
        assert_eq!((w.p50_ms, w.p99_ms), (1.0, 1.0));
        assert!((w.steal - 200.0 / 2_800.0).abs() < 1e-9);
    }
}
