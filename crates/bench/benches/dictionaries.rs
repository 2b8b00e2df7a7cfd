//! E7 — §7.3: what does class dispatch cost? The same unboxed loop with
//! the primop `+#` directly vs through the levity-polymorphic `Num Int#`
//! dictionary.
//!
//! The paper's claim is about *expressiveness*, not speed ("levity
//! polymorphism does not make code go faster"); this bench quantifies
//! the dictionary indirection that the expressiveness costs, and shows
//! the compiled loop is otherwise identical.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use levity_driver::{compile_with_prelude, compile_with_prelude_opt, OptLevel};
use levity_m::Engine;

const DIRECT: &str = "loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc; _ -> loop (acc +# n) (n -# 1#) }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

const CLASSY: &str = "loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc; _ -> loop (acc + n) (n - 1#) }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

/// Boxed dictionary dispatch for comparison: Num Int.
const CLASSY_BOXED: &str = "loop :: Int -> Int -> Int\n\
     loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + n) (n - 1) } }\n\
     main :: Int\n\
     main = loop 0 LIMIT\n";

/// The §7.3 loop driven through a constrained *function*: `step` is a
/// genuine `Num a => a -> a` helper that threads its dictionary at
/// runtime at O0; the function specialiser clones it per call-site
/// dictionary and the dictionary pass discharges the clone. The `Int#`
/// flavour uses the `forall (a :: TYPE IntRep)` shape §5.1 admits (the
/// binder's representation is concrete even though its type is not).
const POLY_FN_UNBOXED: &str = "step :: forall (a :: TYPE IntRep). Num a => a -> a\n\
     step x = x + x\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc; _ -> loop (acc + step n) (n - 1#) }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

/// The same helper shape at boxed `Int` (`a` defaults to `Type`).
const POLY_FN_BOXED: &str = "step :: Num a => a -> a\n\
     step x = x + x\n\
     loop :: Int -> Int -> Int\n\
     loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + step n) (n - 1) } }\n\
     main :: Int\n\
     main = loop 0 LIMIT\n";

/// What the specialised `Int#` helper loop must compile down to: the
/// direct primop equivalent, the denominator of the ≤1.1x step claim.
const POLY_FN_DIRECT: &str = "loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc; _ -> loop (acc +# (n +# n)) (n -# 1#) }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

fn compiled(src: &str, n: u64) -> levity_driver::Compiled {
    compile_with_prelude(&src.replace("LIMIT", &n.to_string())).expect("compiles")
}

fn print_report(n: u64) {
    // The dispatch-cost narrative is a claim about the unoptimized
    // translation, so those columns compile at O0; the timed benchmarks
    // below run at the default level, where specialisation +
    // worker/wrapper close the gap to the direct primop. Steps are the
    // Figure 6 model, counted on the reference engine.
    let at = |src: &str, lvl| {
        compile_with_prelude_opt(&src.replace("LIMIT", &n.to_string()), lvl).expect("compiles")
    };
    let fig6 = |c: &levity_driver::Compiled| {
        c.run_with_engine("main", u64::MAX / 2, Engine::Subst)
            .unwrap()
    };
    let d = compiled(DIRECT, n);
    let d0 = at(DIRECT, OptLevel::O0);
    let c0 = at(CLASSY, OptLevel::O0);
    let b0 = at(CLASSY_BOXED, OptLevel::O0);
    let c = compiled(CLASSY, n);
    let b = compiled(CLASSY_BOXED, n);
    let (dv, ds) = fig6(&d);
    let (_, d0s) = fig6(&d0);
    let (_, c0s) = fig6(&c0);
    let (_, b0s) = fig6(&b0);
    let (cv, cs) = fig6(&c);
    let (bv, bs) = fig6(&b);
    assert_eq!(
        dv.value().and_then(|v| v.as_int()),
        cv.value().and_then(|v| v.as_int())
    );
    assert_eq!(
        dv.value().and_then(|v| v.as_int()),
        bv.value().and_then(|v| v.as_boxed_int())
    );
    eprintln!("\n== E7 (section 7.3): 3# + 4# works — at what cost? ({n} iterations) ==");
    eprintln!(
        "{:<26} {:>12} {:>14} {:>14}",
        "", "direct +#", "Num Int# (+)", "Num Int (+)"
    );
    eprintln!(
        "{:<26} {:>12} {:>14} {:>14}",
        "machine steps (O0)", d0s.steps, c0s.steps, b0s.steps
    );
    eprintln!(
        "{:<26} {:>12} {:>14} {:>14}",
        "machine steps (O2)", ds.steps, cs.steps, bs.steps
    );
    eprintln!(
        "{:<26} {:>12} {:>14} {:>14}",
        "words allocated (O2)", ds.allocated_words, cs.allocated_words, bs.allocated_words
    );
    eprintln!(
        "dictionary overhead at Int#: {:.2}x steps unoptimized; after specialisation \
         + worker/wrapper: {:.2}x\n",
        c0s.steps as f64 / d0s.steps as f64,
        cs.steps as f64 / ds.steps as f64
    );

    // The constrained-function ladder: `step :: Num a => a -> a`
    // driving the loop. O0 threads the dictionary through every call;
    // at O2 the function specialiser must bring the Int# flavour to
    // within 1.1x of the direct primop loop, with the dictionary-
    // threading original eliminated.
    let pd = at(POLY_FN_DIRECT, OptLevel::O2);
    let pu0 = at(POLY_FN_UNBOXED, OptLevel::O0);
    let pu = at(POLY_FN_UNBOXED, OptLevel::O2);
    let pb0 = at(POLY_FN_BOXED, OptLevel::O0);
    let pb = at(POLY_FN_BOXED, OptLevel::O2);
    let (pdv, pds) = fig6(&pd);
    let (_, pu0s) = fig6(&pu0);
    let (puv, pus) = fig6(&pu);
    let (_, pb0s) = fig6(&pb0);
    let (pbv, pbs) = fig6(&pb);
    assert_eq!(
        pdv.value().and_then(|v| v.as_int()),
        puv.value().and_then(|v| v.as_int())
    );
    assert_eq!(
        pdv.value().and_then(|v| v.as_int()),
        pbv.value().and_then(|v| v.as_boxed_int())
    );
    assert!(pu.opt_report.fn_specialised >= 1, "{:?}", pu.opt_report);
    assert!(pu.opt_report.dead_globals >= 1, "{:?}", pu.opt_report);
    assert!(
        pu.program.binding("step".into()).is_none(),
        "the specialised-away original must be eliminated"
    );
    let ratio = pus.steps as f64 / pds.steps as f64;
    assert!(
        ratio <= 1.1,
        "dict_poly_fn at Int# must reach <=1.1x of the direct primop loop, got {ratio:.3}x"
    );
    let boxed_ratio = pbs.steps as f64 / pds.steps as f64;
    assert!(
        boxed_ratio <= 1.1,
        "dict_poly_fn at Int must reach <=1.1x of the direct primop loop, got {boxed_ratio:.3}x"
    );
    eprintln!("== dict_poly_fn: a `Num a => a -> a` helper drives the loop ==");
    eprintln!(
        "{:<26} {:>12} {:>14} {:>14}",
        "", "direct +#", "helper @Int#", "helper @Int"
    );
    eprintln!(
        "{:<26} {:>12} {:>14} {:>14}",
        "machine steps (O0)", pds.steps, pu0s.steps, pb0s.steps
    );
    eprintln!(
        "{:<26} {:>12} {:>14} {:>14}",
        "machine steps (O2)", pds.steps, pus.steps, pbs.steps
    );
    eprintln!(
        "{:<26} {:>12} {:>14} {:>14}",
        "words allocated (O2)", pds.allocated_words, pus.allocated_words, pbs.allocated_words
    );
    eprintln!(
        "constrained-function overhead at Int#: {:.2}x steps unoptimized; after \
         function specialisation: {:.2}x (originals eliminated: {} globals dropped)\n",
        pu0s.steps as f64 / pds.steps as f64,
        ratio,
        pu.opt_report.dead_globals
    );
}

fn bench_dictionaries(c: &mut Criterion) {
    print_report(2_000);
    let mut group = c.benchmark_group("num_class");
    group.sample_size(10);
    for n in [500u64, 2_000] {
        let direct = compiled(DIRECT, n);
        let classy = compiled(CLASSY, n);
        let boxed = compiled(CLASSY_BOXED, n);
        let poly = compiled(POLY_FN_UNBOXED, n);
        let poly_boxed = compiled(POLY_FN_BOXED, n);
        group.bench_with_input(BenchmarkId::new("direct_primop", n), &n, |bch, _| {
            bch.iter(|| {
                direct
                    .run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("dict_unboxed", n), &n, |bch, _| {
            bch.iter(|| {
                classy
                    .run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("dict_boxed", n), &n, |bch, _| {
            bch.iter(|| {
                boxed
                    .run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("dict_poly_fn", n), &n, |bch, _| {
            bch.iter(|| {
                poly.run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("dict_poly_fn_boxed", n), &n, |bch, _| {
            bch.iter(|| {
                poly_boxed
                    .run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        // The dispatch ladder's endpoints on the Engine-3 flat register
        // machine: the direct loop and the specialised dictionary loop
        // (identical after optimisation, so their bytecode times should
        // track each other too).
        group.bench_with_input(BenchmarkId::new("direct_primop_bc", n), &n, |bch, _| {
            bch.iter(|| {
                direct
                    .run_with_engine("main", u64::MAX / 2, Engine::Bytecode)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("dict_unboxed_bc", n), &n, |bch, _| {
            bch.iter(|| {
                classy
                    .run_with_engine("main", u64::MAX / 2, Engine::Bytecode)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dictionaries);
criterion_main!(benches);
