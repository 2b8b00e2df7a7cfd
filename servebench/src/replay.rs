//! The traced replay: each workload request is sent through the
//! layers' public functions instead of the service, with a span around
//! every call, and every replayed compile is cross-checked against
//! `compile_with_prelude_entries` on the same source.
//!
//! The replay compiles a source once, the first time the sequence sends
//! it, as the service's cache does, and runs every request. Span tree
//! of one request: `replay.request` → `driver.compile` → one span per
//! phase, and `replay.request` → `m.run`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use levity_compile::lower::lower_program;
use levity_compile::opt::{optimise_program, OptLevel};
use levity_core::symbol::Symbol;
use levity_driver::pipeline::{compile_with_prelude_entries, Compiled};
use levity_driver::{PipelineError, RunLimits, PRELUDE};
use levity_infer::elaborate::elaborate_module;
use levity_ir::levity::check_program_levity;
use levity_ir::typecheck::check_program;
use levity_m::bytecode::BcProgram;
use levity_m::compile::CodeProgram;
use levity_m::machine::{MachineError, MachineStats, RunOutcome};
use levity_serve::corpus::expected_int;
use levity_serve::ServeConfig;
use levity_surface::lexer::lex;
use levity_surface::parser::parse_module;

use crate::gen::{Expect, Kind, Request, Stage, Workload};
use crate::trace::{Span, Tracer};

/// The compile phases, in pipeline order, as span names.
pub const PHASES: [&str; 9] = [
    "surface.parse",
    "infer.elaborate",
    "ir.typecheck",
    "ir.levity_check",
    "compile.optimise",
    "compile.lower",
    "m.code",
    "m.bytecode",
    "m.verify",
];

/// `compile_source_entries` at `O2` with the default entry set, over
/// the prelude plus `source`, one span per layer call.
pub fn traced_compile(tr: &mut Tracer, request: u64, source: &str) -> Result<Compiled, Stage> {
    tr.span(request, "driver.compile", |tr| {
        let mut combined = String::with_capacity(PRELUDE.len() + source.len() + 1);
        combined.push_str(PRELUDE);
        combined.push('\n');
        combined.push_str(source);
        let module = tr
            .span(request, PHASES[0], |_| parse_module(&combined))
            .map_err(|_| Stage::Parse)?;
        let elaborated = tr
            .span(request, PHASES[1], |_| elaborate_module(&module))
            .map_err(|_| Stage::Elaborate)?;
        let env = tr
            .span(request, PHASES[2], |_| check_program(&elaborated.program))
            .map_err(|_| Stage::CoreLint)?;
        let diags = tr.span(request, PHASES[3], |_| {
            check_program_levity(&env, &elaborated.program)
        });
        if diags.has_errors() {
            return Err(Stage::Levity);
        }
        let main = Symbol::intern("main");
        let entry_points: Vec<Symbol> = if elaborated.program.binding(main).is_some() {
            vec![main]
        } else {
            elaborated.program.bindings.iter().map(|b| b.name).collect()
        };
        let entry_set: HashSet<Symbol> = entry_points.iter().copied().collect();
        let (program, opt_report, env) = tr
            .span(request, PHASES[4], |_| {
                optimise_program(&elaborated.program, Some(&entry_set))
            })
            .map_err(|_| Stage::CoreLint)?;
        let globals = tr
            .span(request, PHASES[5], |_| lower_program(&env, &program))
            .map_err(|_| Stage::Lower)?;
        let code = Arc::new(tr.span(request, PHASES[6], |_| CodeProgram::compile(&globals)));
        let bytecode = Arc::new(tr.span(request, PHASES[7], |_| BcProgram::compile(&code)));
        let verified = tr
            .span(request, PHASES[8], |_| levity_m::verify(&bytecode))
            .map_err(|_| Stage::Verify)?;
        Ok(Compiled {
            elaborated,
            program,
            opt_level: OptLevel::O2,
            opt_report,
            entry_points,
            globals,
            code,
            bytecode,
            verified,
        })
    })
}

/// The limits the service runs `req` under.
pub fn limits_for(req: &Request, config: &ServeConfig) -> RunLimits {
    RunLimits {
        fuel: req.fuel.unwrap_or(config.default_fuel).min(config.max_fuel),
        alloc_words: config.default_alloc_words,
        heap_bytes: req.heap_cap,
        gc_nursery: req.gc_nursery,
    }
}

type RunResult = Result<(RunOutcome, MachineStats), MachineError>;

fn run(compiled: &Compiled, req: &Request, config: &ServeConfig) -> RunResult {
    compiled.run_with_limits("main", req.engine, limits_for(req, config))
}

/// What a run or compile ended in, comparable across the replay, the
/// driver and the expectation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ended {
    Int(Option<i64>),
    FuelExhausted(u64),
    CompileError(Stage),
    Other,
}

fn ended(result: &RunResult) -> Ended {
    match result {
        Ok((out, _)) => Ended::Int(expected_int(out)),
        Err(MachineError::OutOfFuel { limit }) => Ended::FuelExhausted(*limit),
        Err(_) => Ended::Other,
    }
}

fn expected(req: &Request) -> Ended {
    match req.expect {
        Expect::Int(v) => Ended::Int(Some(v)),
        Expect::FuelExhausted(f) => Ended::FuelExhausted(f),
        Expect::CompileError(s) => Ended::CompileError(s),
    }
}

/// Bytecode size of a compiled program: instructions over all chunks,
/// and the chunk count.
pub fn bytecode_size(compiled: &Compiled) -> (usize, usize) {
    let chunks = &compiled.bytecode.chunks;
    (chunks.iter().map(|c| c.code.len()).sum(), chunks.len())
}

/// One replayed compile.
pub struct CompileRecord {
    /// Untraced `compile_with_prelude_entries` wall time.
    pub driver_us: f64,
    /// The traced `driver.compile` span.
    pub traced_us: f64,
    /// Each phase span that ran, by name.
    pub phase_us: Vec<(&'static str, f64)>,
    pub source_bytes: usize,
    pub tokens: usize,
    /// Present when the compile succeeded.
    pub program: Option<[usize; 8]>,
}

/// Size and optimizer counts of a compiled program, reported as
/// per-layer metrics under these names, in this order.
pub const PROGRAM_COUNTS: [&str; 8] = [
    "compile.bindings_in",
    "compile.bindings_out",
    "compile.dead_globals",
    "compile.specialised",
    "compile.inlined",
    "compile.workers",
    "m.bc_instrs",
    "m.chunks",
];

fn program_counts(c: &Compiled) -> [usize; 8] {
    let (bc_instrs, chunks) = bytecode_size(c);
    [
        c.elaborated.program.bindings.len(),
        c.program.bindings.len(),
        c.opt_report.dead_globals,
        c.opt_report.specialised,
        c.opt_report.inlined,
        c.opt_report.workers,
        bc_instrs,
        chunks,
    ]
}

pub struct Replay {
    pub tracer: Tracer,
    pub compiles: Vec<CompileRecord>,
    /// Direct `run_with_limits` times of requests the service would
    /// answer from its cache with a response (hot and churn requests).
    pub hit_run_us: Vec<f64>,
    pub requests: u64,
    pub attempted: u64,
    pub failed: u64,
    /// One line per mismatch, for the report.
    pub mismatches: Vec<String>,
}

/// Replays requests `0, 1, 2, …` of the workload until `budget` is
/// spent or `max_requests` have run.
pub fn replay(
    workload: Workload,
    seed: u64,
    config: &ServeConfig,
    budget: Duration,
    max_requests: u64,
) -> Replay {
    let mut out = Replay {
        tracer: Tracer::new(),
        compiles: Vec::new(),
        hit_run_us: Vec::new(),
        requests: 0,
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
    };
    // Kept apart from `out` until the end: the span closures borrow it.
    let mut tracer = Tracer::new();
    // Cold sources never repeat, so only the others stay resident.
    let mut programs: HashMap<String, Result<Arc<Compiled>, Stage>> = HashMap::new();
    let start = Instant::now();
    while out.requests < max_requests && start.elapsed() < budget {
        let index = out.requests;
        let req = workload.request(seed, index);
        out.requests += 1;
        let known = programs.get(&req.source).cloned();
        let fresh = known.is_none();
        // The untraced driver compile runs outside the request's spans,
        // before or after them by index parity, so neither side always
        // pays for interning the program's new names.
        let mut driver = (fresh && index % 2 == 1).then(|| driver_compile(&req.source));
        let first_span = tracer.spans().len();
        let (compiled, result) = tracer.span(index, "replay.request", |tr| {
            let compiled =
                known.unwrap_or_else(|| traced_compile(tr, index, &req.source).map(Arc::new));
            let result = match &compiled {
                Ok(compiled) => {
                    let before = tr.spans().len();
                    let result = tr.span(index, "m.run", |_| run(compiled, &req, config));
                    if matches!(req.kind, Kind::Hot | Kind::Churn) {
                        out.hit_run_us
                            .push(tr.spans()[before].duration_ns() as f64 / 1e3);
                    }
                    ended(&result)
                }
                Err(stage) => Ended::CompileError(*stage),
            };
            (compiled, result)
        });
        if fresh {
            let driver = driver.take().unwrap_or_else(|| driver_compile(&req.source));
            let spans = &tracer.spans()[first_span..];
            cross_check(&mut out, spans, index, &req, config, &compiled, driver);
            if req.kind != Kind::Cold {
                programs.insert(req.source.clone(), compiled);
            }
        }
        out.attempted += 1;
        if result != expected(&req) {
            out.failed += 1;
            out.mismatches.push(format!(
                "request {index} ({}): got {result:?}, expected {:?}",
                req.label, req.expect
            ));
        }
    }
    out.tracer = tracer;
    out
}

/// `compile_with_prelude_entries` as the service's cache calls it, and
/// its wall time in microseconds.
fn driver_compile(source: &str) -> (Result<Compiled, PipelineError>, f64) {
    let t0 = Instant::now();
    let compiled = compile_with_prelude_entries(source, OptLevel::O2, None);
    (compiled, t0.elapsed().as_secs_f64() * 1e6)
}

/// Records the replayed compile whose spans are `spans`, and a mismatch
/// if the replay and the driver disagree on the failing stage, the
/// bytecode size or the evaluated outcome.
fn cross_check(
    out: &mut Replay,
    spans: &[Span],
    index: u64,
    req: &Request,
    config: &ServeConfig,
    traced: &Result<Arc<Compiled>, Stage>,
    (driver, driver_us): (Result<Compiled, PipelineError>, f64),
) {
    let traced_us = spans
        .iter()
        .find(|s| s.name == "driver.compile")
        .map_or(0.0, |s| s.duration_ns() as f64 / 1e3);
    let phase_us = spans
        .iter()
        .filter(|s| PHASES.contains(&s.name))
        .map(|s| (s.name, s.duration_ns() as f64 / 1e3))
        .collect();
    let source_bytes = PRELUDE.len() + 1 + req.source.len();
    let tokens = lex(&format!("{PRELUDE}\n{}", req.source)).map_or(0, |t| t.len());

    out.attempted += 1;
    let (agree, program) = match (traced, &driver) {
        (Ok(replayed), Ok(driven)) => {
            let agree = bytecode_size(replayed) == bytecode_size(driven)
                && ended(&run(replayed, req, config)) == ended(&run(driven, req, config));
            (agree, Some(program_counts(replayed)))
        }
        (Err(stage), Err(err)) => (*stage == Stage::of(err), None),
        _ => (false, None),
    };
    if !agree {
        out.failed += 1;
        out.mismatches.push(format!(
            "request {index} ({}): the replay and compile_with_prelude_entries disagree",
            req.label
        ));
    }
    out.compiles.push(CompileRecord {
        driver_us,
        traced_us,
        phase_us,
        source_bytes,
        tokens,
        program,
    });
}
