//! E1 — §2.1: the cost of boxing. `sumTo` over boxed `Int` vs unboxed
//! `Int#`, both compiled from surface source and run on the `M` machine.
//!
//! The paper reports >200x wall-clock on real hardware. On an
//! interpreted substrate both sides pay interpreter overhead, so the
//! ratio compresses; the *shape* — unboxed wins, boxed allocates O(n)
//! while unboxed allocates exactly nothing — is the reproduced result,
//! and the allocation counts are deterministic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use levity_driver::{compile_with_prelude, compile_with_prelude_opt, OptLevel};
use levity_m::Engine;

const BOXED: &str = "sumTo :: Int -> Int -> Int\n\
     sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
     main :: Int\n\
     main = sumTo 0 LIMIT\n";

const UNBOXED: &str = "sumTo# :: Int# -> Int# -> Int#\n\
     sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
     main :: Int#\n\
     main = sumTo# 0# LIMIT#\n";

fn compiled(src: &str, n: u64) -> levity_driver::Compiled {
    compile_with_prelude(&src.replace("LIMIT", &n.to_string())).expect("compiles")
}

fn print_report(n: u64) {
    // The §2.1 claim is about the *compilation scheme* for boxed code,
    // so the narrative column compiles at O0; the optimized column shows
    // what the levity-directed optimizer makes of the same source. Steps
    // are the Figure 6 model, counted on the reference engine.
    let b0 = compile_with_prelude_opt(&BOXED.replace("LIMIT", &n.to_string()), OptLevel::O0)
        .expect("compiles");
    let b = compiled(BOXED, n);
    let u = compiled(UNBOXED, n);
    let (b0o, b0s) = b0
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    let (bo, bs) = b
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    let (uo, us) = u
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    assert_eq!(
        bo.value().and_then(|v| v.as_boxed_int()),
        uo.value().and_then(|v| v.as_int())
    );
    assert_eq!(
        b0o.value().and_then(|v| v.as_boxed_int()),
        bo.value().and_then(|v| v.as_boxed_int())
    );
    eprintln!("\n== E1 (section 2.1): sumTo 1..{n} ==");
    eprintln!(
        "{:<22} {:>12} {:>12} {:>12}",
        "", "boxed (O0)", "boxed (O2)", "unboxed"
    );
    eprintln!(
        "{:<22} {:>12} {:>12} {:>12}",
        "machine steps", b0s.steps, bs.steps, us.steps
    );
    eprintln!(
        "{:<22} {:>12} {:>12} {:>12}",
        "words allocated", b0s.allocated_words, bs.allocated_words, us.allocated_words
    );
    eprintln!(
        "{:<22} {:>12} {:>12} {:>12}",
        "thunks forced", b0s.thunk_forces, bs.thunk_forces, us.thunk_forces
    );
    eprintln!(
        "{:<22} {:>12} {:>12} {:>12}",
        "constructor allocs", b0s.con_allocs, bs.con_allocs, us.con_allocs
    );
    let o2_ratio = bs.steps as f64 / us.steps as f64;
    eprintln!(
        "steps ratio (O0/unboxed): {:.2}x (paper: >200x wall-clock); \
         the optimizer's worker/wrapper closes it to {:.2}x\n",
        b0s.steps as f64 / us.steps as f64,
        o2_ratio,
    );
    // The PR-5 acceptance criterion, enforced where the numbers are
    // produced: the boxed loop at O2 must stay within 1.1x of the
    // direct primop loop's step count and allocate ~0 words/iteration.
    assert!(
        o2_ratio <= 1.1,
        "sum_to/boxed at O2 must reach <=1.1x of the unboxed loop, got {o2_ratio:.3}x"
    );
    assert!(
        bs.allocated_words <= 8,
        "sum_to/boxed at O2 must allocate ~0 words/iteration, got {}",
        bs.allocated_words
    );
}

/// The CPR ladder: an accumulating divMod-style loop whose helper
/// returns a two-field product, against the hand-written unboxed-tuple
/// equivalent the CPR worker must compile down to.
const CPR_BOXED: &str = "data QR = QR Int# Int#\n\
     divMod# :: Int# -> Int# -> QR\n\
     divMod# n d = case n <# d of { 1# -> QR 0# n; _ -> case divMod# (n -# d) d of { QR q r -> QR (q +# 1#) r } }\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc; _ -> case divMod# n 3# of { QR q r -> loop (acc +# q +# r) (n -# 1#) } }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

const CPR_TUPLE: &str = "divModU :: Int# -> Int# -> (# Int#, Int# #)\n\
     divModU n d = case n <# d of { 1# -> (# 0#, n #); _ -> case divModU (n -# d) d of { (# q, r #) -> (# q +# 1#, r #) } }\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc; _ -> case divModU n 3# of { (# q, r #) -> loop (acc +# q +# r) (n -# 1#) } }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

/// Steps are the Figure 6 model, counted on the reference engine.
fn print_cpr_report(n: u64) {
    let b0 = compile_with_prelude_opt(&CPR_BOXED.replace("LIMIT", &n.to_string()), OptLevel::O0)
        .expect("compiles");
    let b = compiled(CPR_BOXED, n);
    let u = compiled(CPR_TUPLE, n);
    assert!(b.opt_report.cpr_workers >= 1, "{:?}", b.opt_report);
    let (b0o, b0s) = b0
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    let (bo, bs) = b
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    let (uo, us) = u
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    assert_eq!(
        bo.value().and_then(|v| v.as_int()),
        uo.value().and_then(|v| v.as_int())
    );
    assert_eq!(
        b0o.value().and_then(|v| v.as_int()),
        bo.value().and_then(|v| v.as_int())
    );
    eprintln!("\n== CPR: accumulating divMod loop, product result vs hand-written tuples ({n} iterations) ==");
    eprintln!(
        "{:<22} {:>14} {:>14} {:>14}",
        "", "product (O0)", "product (O2)", "tuples"
    );
    eprintln!(
        "{:<22} {:>14} {:>14} {:>14}",
        "machine steps", b0s.steps, bs.steps, us.steps
    );
    eprintln!(
        "{:<22} {:>14} {:>14} {:>14}",
        "words allocated", b0s.allocated_words, bs.allocated_words, us.allocated_words
    );
    eprintln!(
        "{:<22} {:>14} {:>14} {:>14}",
        "constructor allocs", b0s.con_allocs, bs.con_allocs, us.con_allocs
    );
    let ratio = bs.steps as f64 / us.steps as f64;
    eprintln!(
        "product-result overhead: {:.2}x steps unoptimized; after CPR: {ratio:.2}x\n",
        b0s.steps as f64 / us.steps as f64,
    );
    assert!(
        ratio <= 1.1,
        "the CPR'd product loop must reach <=1.1x of the tuple loop, got {ratio:.3}x"
    );
    assert_eq!(
        bs.allocated_words, 0,
        "the CPR'd loop must allocate nothing per iteration"
    );
}

fn bench_cpr(c: &mut Criterion) {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let sizes: &[u64] = if smoke { &[50] } else { &[200, 1_000] };
    print_cpr_report(if smoke { 50 } else { 1_000 });
    let mut group = c.benchmark_group("cpr");
    group.sample_size(10);
    for &n in sizes {
        let b = compiled(CPR_BOXED, n);
        let u = compiled(CPR_TUPLE, n);
        group.bench_with_input(BenchmarkId::new("boxed_product", n), &n, |bch, _| {
            bch.iter(|| {
                b.run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("tuple_direct", n), &n, |bch, _| {
            bch.iter(|| {
                u.run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        // The same programs on the Engine-3 flat register machine.
        group.bench_with_input(BenchmarkId::new("boxed_product_bc", n), &n, |bch, _| {
            bch.iter(|| {
                b.run_with_engine("main", u64::MAX / 2, Engine::Bytecode)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("tuple_direct_bc", n), &n, |bch, _| {
            bch.iter(|| {
                u.run_with_engine("main", u64::MAX / 2, Engine::Bytecode)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_sum_to(c: &mut Criterion) {
    // CI smoke mode: one small size, just enough to prove the whole
    // compile-and-run path works under the bench profile without
    // spending CI minutes on statistics.
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let sizes: &[u64] = if smoke { &[50] } else { &[200, 1_000, 5_000] };
    print_report(if smoke { 50 } else { 5_000 });
    let mut group = c.benchmark_group("sum_to");
    group.sample_size(10);
    for &n in sizes {
        let b = compiled(BOXED, n);
        let u = compiled(UNBOXED, n);
        group.bench_with_input(BenchmarkId::new("boxed", n), &n, |bch, _| {
            bch.iter(|| {
                b.run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("unboxed", n), &n, |bch, _| {
            bch.iter(|| {
                u.run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        // The same programs on the Engine-3 flat register machine.
        group.bench_with_input(BenchmarkId::new("boxed_bc", n), &n, |bch, _| {
            bch.iter(|| {
                b.run_with_engine("main", u64::MAX / 2, Engine::Bytecode)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("unboxed_bc", n), &n, |bch, _| {
            bch.iter(|| {
                u.run_with_engine("main", u64::MAX / 2, Engine::Bytecode)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sum_to, bench_cpr);
criterion_main!(benches);
