//! Seeded request generation for the three workloads.
//!
//! A workload is an infinite, indexed request sequence: request `i` of
//! seed `s` depends only on `(s, i)`, so the same seed gives the same
//! sequence no matter which client thread claims which index. Every
//! request carries its expected outcome, taken from the corpus, from
//! the generator's own arithmetic, or from the structured-error kind a
//! hostile request must end in — never from the compiler under test.

use levity_driver::PipelineError;
use levity_serve::corpus::{CorpusProgram, CHURN, MIXED_CORPUS, SPIN};
use levity_serve::{Engine, EvalRequest};

/// Live-heap cap sent with churn requests, as the serving soak sends it.
pub const CHURN_HEAP_CAP: u64 = 64 * 1024;
/// GC nursery sent with churn requests, as the serving soak sends it:
/// small enough that every churn request collects.
pub const CHURN_NURSERY: usize = 256;
/// Fuel a hostile `SPIN` request asks for; it must be killed by it.
pub const SPIN_FUEL: u64 = 100_000;

/// Fixed sources the pipeline must reject, one per rejecting stage a
/// tenant can reach: parse, elaboration, and the section 5.1 levity
/// check.
pub const ILL_TYPED: [(&str, Stage); 3] = [
    ("main :: Int#\nmain = (1# +#\n", Stage::Parse),
    ("main :: Int#\nmain = notInScope 1#\n", Stage::Elaborate),
    (
        "ident :: forall (r :: Rep) (a :: TYPE r). a -> a\n\
         ident x = x\n\
         main :: Int#\n\
         main = 1#\n",
        Stage::Levity,
    ),
];

/// The pipeline stage a program fails in, as both the traced replay and
/// `levity_driver::PipelineError` report it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Parse,
    Elaborate,
    CoreLint,
    Levity,
    Lower,
    Verify,
}

impl Stage {
    pub fn of(err: &PipelineError) -> Stage {
        match err {
            PipelineError::Parse(_) => Stage::Parse,
            PipelineError::Elaborate(_) => Stage::Elaborate,
            PipelineError::CoreLint(..) => Stage::CoreLint,
            PipelineError::Levity(_) => Stage::Levity,
            PipelineError::Lower(_) => Stage::Lower,
            PipelineError::Verify(_) => Stage::Verify,
        }
    }
}

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotMix,
    ColdCompile,
    TenantMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotMix, Workload::ColdCompile, Workload::TenantMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotMix => "hot-mix",
            Workload::ColdCompile => "cold-compile",
            Workload::TenantMix => "tenant-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Completed requests after which `peak_rss_mib` is read: a fixed
    /// amount of work, so that a faster service does not report more
    /// memory only because it served more distinct programs. Each is
    /// reached after the cache has filled, and within the first third
    /// of a 40 s run even on a machine running at half speed.
    pub fn rss_after_requests(self) -> u64 {
        match self {
            Workload::HotMix => 10_000,
            Workload::ColdCompile => 600,
            Workload::TenantMix => 3_500,
        }
    }

    /// Completed requests per window of the timed phase behind
    /// `throughput_rps` and `latency_p50_ms`: whole blocks of the mix,
    /// about half a second of load on the reference container.
    pub fn window_requests(self) -> usize {
        let blocks = match self {
            Workload::HotMix => 15,
            Workload::ColdCompile => 2,
            Workload::TenantMix => 5,
        };
        blocks * BLOCK as usize
    }

    /// The fixed programs a server would know before its first request:
    /// they are compiled (and checked) during set-up.
    pub fn warm_set(self) -> Vec<Request> {
        let mut set: Vec<Request> = MIXED_CORPUS.iter().map(corpus_request).collect();
        if self == Workload::TenantMix {
            set.push(churn());
        }
        set
    }

    /// Request `index` of this workload under `seed`. Each block of
    /// [`BLOCK`] consecutive requests holds every kind and program in
    /// its exact share, in a seeded order, so a run's mix does not
    /// drift with the seed.
    pub fn request(self, seed: u64, index: u64) -> Request {
        let mut rng = Rng::for_request(seed, index);
        let slot = block_slot(seed, index);
        match self {
            Workload::HotMix => hot(slot),
            Workload::ColdCompile => cold(&mut rng, index, shape(slot)),
            Workload::TenantMix => match slot {
                0..=79 => hot(slot),
                80..=87 => {
                    let shape = shape(rng.below(BLOCK));
                    cold(&mut rng, index, shape)
                }
                88..=95 => churn(),
                96..=97 => Request {
                    kind: Kind::Spin,
                    label: "spin",
                    source: SPIN.to_string(),
                    engine: Engine::default(),
                    fuel: Some(SPIN_FUEL),
                    heap_cap: None,
                    gc_nursery: None,
                    expect: Expect::FuelExhausted(SPIN_FUEL),
                },
                _ => {
                    let (source, stage) = ILL_TYPED[rng.below(ILL_TYPED.len() as u64) as usize];
                    Request {
                        kind: Kind::IllTyped,
                        label: "ill-typed",
                        source: source.to_string(),
                        engine: Engine::default(),
                        fuel: None,
                        heap_cap: None,
                        gc_nursery: None,
                        expect: Expect::CompileError(stage),
                    }
                }
            },
        }
    }
}

/// Requests per block of the stratified mix.
pub const BLOCK: u64 = 100;

/// The slot request `index` takes in a seeded shuffle of `0..BLOCK`
/// drawn for its block.
fn block_slot(seed: u64, index: u64) -> u64 {
    let mut rng = Rng::for_request(seed ^ 0xb10c_b10c_b10c_b10c, index / BLOCK);
    let mut order: Vec<u64> = (0..BLOCK).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order[(index % BLOCK) as usize]
}

/// What kind of traffic a request is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A corpus program the cache already holds.
    Hot,
    /// A distinct generated program: always a compile.
    Cold,
    /// `CHURN` on the bytecode engine under a live-heap cap.
    Churn,
    /// `SPIN` under a small fuel budget.
    Spin,
    /// A fixed source the pipeline rejects.
    IllTyped,
}

/// The outcome a request must end in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `main` evaluates to this integer (boxed or unboxed).
    Int(i64),
    /// The fuel meter kills the run at exactly this budget.
    FuelExhausted(u64),
    /// The pipeline rejects the source in this stage.
    CompileError(Stage),
}

/// One generated request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub kind: Kind,
    /// Program label for reports (`sum-unboxed`, `cold`, …).
    pub label: &'static str,
    pub source: String,
    pub engine: Engine,
    pub fuel: Option<u64>,
    pub heap_cap: Option<u64>,
    pub gc_nursery: Option<usize>,
    pub expect: Expect,
}

impl Request {
    /// The service request, with every knob the tenant did not set left
    /// at its default.
    pub fn to_eval(&self) -> EvalRequest {
        let mut req = EvalRequest::source(self.source.clone());
        if self.engine != Engine::default() {
            req = req.engine(self.engine);
        }
        if let Some(fuel) = self.fuel {
            req = req.fuel(fuel);
        }
        if let Some(bytes) = self.heap_cap {
            req = req.heap_cap(bytes);
        }
        if let Some(cells) = self.gc_nursery {
            req = req.gc_nursery(cells);
        }
        req
    }
}

/// The corpus hit for a block slot: every program takes an equal share.
fn hot(slot: u64) -> Request {
    corpus_request(&MIXED_CORPUS[(slot % MIXED_CORPUS.len() as u64) as usize])
}

fn corpus_request(prog: &CorpusProgram) -> Request {
    Request {
        kind: Kind::Hot,
        label: prog.name,
        source: prog.source.to_string(),
        engine: Engine::default(),
        fuel: None,
        heap_cap: None,
        gc_nursery: None,
        expect: Expect::Int(prog.expected),
    }
}

/// A churn request, sent the way the serving soak sends it.
pub fn churn() -> Request {
    Request {
        kind: Kind::Churn,
        label: CHURN.name,
        source: CHURN.source.to_string(),
        engine: Engine::Bytecode,
        fuel: None,
        heap_cap: Some(CHURN_HEAP_CAP),
        gc_nursery: Some(CHURN_NURSERY),
        expect: Expect::Int(CHURN.expected),
    }
}

fn cold(rng: &mut Rng, index: u64, shape: Shape) -> Request {
    let (source, value) = cold_program(rng, index, shape);
    Request {
        kind: Kind::Cold,
        label: "cold",
        source,
        engine: Engine::default(),
        fuel: None,
        heap_cap: None,
        gc_nursery: None,
        expect: Expect::Int(value),
    }
}

/// Most user functions in a generated chain.
pub const MAX_CHAIN: u64 = 20;
/// Largest generated loop bound.
pub const MAX_BOUND: u64 = 60;

/// The template of a generated program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    UnboxedLoop,
    BoxedLoop,
    ClassDispatch,
    CprPair,
    /// A chain of this many user functions (1 to [`MAX_CHAIN`]).
    Chain(u64),
}

/// The shape for a block slot: 20 slots each for the four loop
/// templates, and one slot for every chain length from 1 to
/// [`MAX_CHAIN`].
fn shape(slot: u64) -> Shape {
    const LOOP_SLOTS: u64 = (BLOCK - MAX_CHAIN) / 4;
    match slot / LOOP_SLOTS {
        0 => Shape::UnboxedLoop,
        1 => Shape::BoxedLoop,
        2 => Shape::ClassDispatch,
        3 => Shape::CprPair,
        _ => Shape::Chain(slot - 4 * LOOP_SLOTS + 1),
    }
}

/// A distinct program of the given shape, following the corpus
/// programs, and the value of its `main`, computed here by plain
/// arithmetic. Every name embeds `index`, so no two requests of one run
/// share a source; a seeded prefix and seeded constants make the
/// programs of two seeds differ.
pub fn cold_program(rng: &mut Rng, index: u64, shape: Shape) -> (String, i64) {
    // Consonants only: no prefix can spell a keyword.
    const LETTERS: &[u8] = b"bcdfghjkmnpqrstvwxz";
    let prefix: String = (0..3)
        .map(|_| LETTERS[rng.below(LETTERS.len() as u64) as usize] as char)
        .collect();
    let f = format!("{prefix}{index}");
    let n = 5 + rng.below(MAX_BOUND - 4) as i64;
    let a = rng.below(1000) as i64;
    let c = rng.below(10) as i64;
    let triangle = n * (n + 1) / 2;
    match shape {
        Shape::UnboxedLoop => (
            format!(
                "{f} :: Int# -> Int# -> Int#\n\
                 {f} acc n = case n of {{ 0# -> acc; _ -> {f} (acc +# n +# {c}#) (n -# 1#) }}\n\
                 main :: Int#\n\
                 main = {f} {a}# {n}#\n"
            ),
            a + triangle + c * n,
        ),
        Shape::BoxedLoop => (
            format!(
                "{f} :: Int -> Int -> Int\n\
                 {f} acc n = case n of {{ I# k -> case k of {{ 0# -> acc; _ -> {f} (acc + n + {c}) (n - 1) }} }}\n\
                 main :: Int\n\
                 main = {f} {a} {n}\n"
            ),
            a + triangle + c * n,
        ),
        Shape::ClassDispatch => (
            format!(
                "{f} :: Int# -> Int# -> Int#\n\
                 {f} acc n = case n of {{ 0# -> acc; _ -> {f} (acc + n + {c}#) (n - 1#) }}\n\
                 main :: Int#\n\
                 main = {f} {a}# {n}#\n"
            ),
            a + triangle + c * n,
        ),
        Shape::CprPair => {
            let t = format!("P{prefix}{index}");
            (
                format!(
                    "data {t} = {t} Int# Int#\n\
                     {f}s :: Int# -> {t}\n\
                     {f}s n = {t} (n +# {c}#) (n +# n)\n\
                     {f} :: Int# -> Int# -> Int#\n\
                     {f} acc n = case n of {{ 0# -> acc; _ -> case {f}s n of {{ {t} x y -> {f} (acc +# x +# y) (n -# 1#) }} }}\n\
                     main :: Int#\n\
                     main = {f} {a}# {n}#\n"
                ),
                a + 3 * triangle + c * n,
            )
        }
        Shape::Chain(len) => {
            let mut src = format!("{f}c0 :: Int# -> Int#\n{f}c0 x = x +# {c}#\n");
            // `{f}c{j} x = {f}c{j-1} (x op k)`: main's argument passes
            // through the ops from the outermost function inwards.
            let mut ops = Vec::new();
            for j in 1..len {
                let (op, k) = match rng.below(3) {
                    0 => ("+#", rng.below(50) as i64),
                    1 => ("-#", rng.below(50) as i64),
                    _ => ("*#", 2),
                };
                src.push_str(&format!(
                    "{f}c{j} :: Int# -> Int#\n{f}c{j} x = {f}c{} (x {op} {k}#)\n",
                    j - 1
                ));
                ops.push((op, k));
            }
            let value = ops.iter().rev().fold(a, |x, &(op, k)| match op {
                "+#" => x + k,
                "-#" => x - k,
                _ => x * k,
            });
            src.push_str(&format!("main :: Int#\nmain = {f}c{} {a}#\n", len - 1));
            (src, value + c)
        }
    }
}

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator for request `index` of `seed`: independent of the
    /// order in which requests are drawn.
    pub fn for_request(seed: u64, index: u64) -> Rng {
        let mut mix = Rng(seed ^ 0x5851_f42d_4c95_7f2d);
        let base = mix.next_u64();
        let mut rng = Rng(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_driver::pipeline::compile_with_prelude;
    use levity_serve::corpus::expected_int;

    #[test]
    fn same_seed_gives_the_identical_sequence() {
        for w in Workload::ALL {
            for i in 0..200 {
                assert_eq!(w.request(7, i), w.request(7, i), "{} #{i}", w.name());
            }
        }
    }

    #[test]
    fn different_seeds_give_different_cold_programs() {
        for i in 0..50 {
            let a = Workload::ColdCompile.request(1, i);
            let b = Workload::ColdCompile.request(2, i);
            assert_ne!(a.source, b.source, "request {i}");
        }
    }

    #[test]
    fn cold_programs_of_one_seed_are_distinct() {
        let sources: std::collections::HashSet<String> = (0..500)
            .map(|i| Workload::ColdCompile.request(3, i).source)
            .collect();
        assert_eq!(sources.len(), 500);
    }

    /// Every block of [`BLOCK`] requests holds each kind in its exact
    /// share, each corpus program equally often, and every shape.
    #[test]
    fn every_block_holds_the_exact_mix() {
        for block in [0, 1, 57] {
            let indices = block * BLOCK..(block + 1) * BLOCK;
            let mut kinds = [0usize; 5];
            let mut programs = std::collections::HashMap::new();
            for i in indices.clone() {
                let req = Workload::TenantMix.request(11, i);
                kinds[req.kind as usize] += 1;
                if req.kind == Kind::Hot {
                    *programs.entry(req.label).or_insert(0) += 1;
                }
            }
            assert_eq!(kinds, [80, 8, 8, 2, 2], "block {block}");
            assert!(programs.values().all(|n| *n == 16), "{programs:?}");

            let mut slots: Vec<u64> = indices.map(|i| block_slot(4, i)).collect();
            slots.sort_unstable();
            assert_eq!(slots, (0..BLOCK).collect::<Vec<_>>());
        }
    }

    #[test]
    fn generated_program_sizes_stay_in_the_recorded_range() {
        // A run sends well under 100,000 requests; names grow with the
        // index, so sample both ends.
        let lens: Vec<usize> = (0..2_000)
            .chain(98_000..100_000)
            .map(|i| Workload::ColdCompile.request(5, i).source.len())
            .collect();
        assert!(lens.iter().all(|len| (60..=1_500).contains(len)));
    }

    /// The generator's arithmetic agrees with the evaluator on every
    /// template, including the shortest and longest chains.
    #[test]
    fn generated_expectations_match_evaluation() {
        let shapes = [
            Shape::UnboxedLoop,
            Shape::BoxedLoop,
            Shape::ClassDispatch,
            Shape::CprPair,
            Shape::Chain(1),
            Shape::Chain(2),
            Shape::Chain(9),
            Shape::Chain(MAX_CHAIN),
        ];
        for (i, shape) in shapes.into_iter().enumerate() {
            for seed in [1, 2, 3] {
                let mut rng = Rng::for_request(seed, i as u64);
                let (source, want) = cold_program(&mut rng, i as u64, shape);
                let compiled = compile_with_prelude(&source)
                    .unwrap_or_else(|e| panic!("{shape:?}: {e}\n{source}"));
                let (out, _) = compiled.run("main", 10_000_000).unwrap();
                assert_eq!(expected_int(&out), Some(want), "{source}");
            }
        }
    }

    #[test]
    fn ill_typed_sources_fail_in_their_stage() {
        for (src, stage) in ILL_TYPED {
            let err = compile_with_prelude(src).expect_err(src);
            assert_eq!(Stage::of(&err), stage, "{src}: {err}");
        }
    }
}
