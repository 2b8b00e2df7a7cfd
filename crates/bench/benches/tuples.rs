//! E3 — §2.3: unboxed tuples are erased completely. A `divMod` loop
//! returning a boxed `Pair Int Int` vs an unboxed `(# Int#, Int# #)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use levity_driver::compile_with_prelude;
use levity_m::Engine;

const UNBOXED: &str = "divMod# :: Int# -> Int# -> (# Int#, Int# #)\n\
     divMod# n k = (# quotInt# n k, remInt# n k #)\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc;\n\
       _ -> case divMod# n 7# of { (# q, r #) -> loop (acc +# q +# r) (n -# 1#) } }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

const BOXED: &str = "divModB :: Int# -> Int# -> Pair Int Int\n\
     divModB n k = MkPair (I# (quotInt# n k)) (I# (remInt# n k))\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc;\n\
       _ -> case divModB n 7# of { MkPair q r ->\n\
              case q of { I# qq -> case r of { I# rr -> loop (acc +# qq +# rr) (n -# 1#) } } } }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

/// Nested vs flat tuples: same registers, different kinds (§4.2).
const NESTED: &str = "mk :: Int# -> (# Int#, (# Int#, Int# #) #)\n\
     mk n = (# n, (# n +# 1#, n *# 2# #) #)\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc;\n\
       _ -> case mk n of { (# a, bc #) -> case bc of { (# b, c #) -> loop (acc +# a +# b +# c) (n -# 1#) } } }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

const FLAT: &str = "mk :: Int# -> (# Int#, Int#, Int# #)\n\
     mk n = (# n, n +# 1#, n *# 2# #)\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc;\n\
       _ -> case mk n of { (# a, b, c #) -> loop (acc +# a +# b +# c) (n -# 1#) } }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

fn compiled(src: &str, n: u64) -> levity_driver::Compiled {
    compile_with_prelude(&src.replace("LIMIT", &n.to_string())).expect("compiles")
}

/// Steps are the Figure 6 model, counted on the reference engine.
fn print_report(n: u64) {
    let b = compiled(BOXED, n);
    let u = compiled(UNBOXED, n);
    let (_, bs) = b
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    let (_, us) = u
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    eprintln!("\n== E3 (section 2.3): divMod loop, {n} iterations ==");
    eprintln!("{:<22} {:>12} {:>12}", "", "boxed pair", "(# , #)");
    eprintln!(
        "{:<22} {:>12} {:>12}",
        "words allocated", bs.allocated_words, us.allocated_words
    );
    eprintln!(
        "{:<22} {:>12} {:>12}",
        "constructor allocs", bs.con_allocs, us.con_allocs
    );
    eprintln!("{:<22} {:>12} {:>12}", "machine steps", bs.steps, us.steps);

    let nested = compiled(NESTED, n);
    let flat = compiled(FLAT, n);
    let (no, ns) = nested
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    let (fo, fs) = flat
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .unwrap();
    assert_eq!(
        no.value().and_then(|v| v.as_int()),
        fo.value().and_then(|v| v.as_int())
    );
    eprintln!(
        "\nnested vs flat tuples (section 4.2): both allocate {} / {} words;",
        ns.allocated_words, fs.allocated_words
    );
    eprintln!(
        "step counts {} vs {} — nesting is computationally irrelevant\n",
        ns.steps, fs.steps
    );
}

fn bench_tuples(c: &mut Criterion) {
    print_report(2_000);
    let mut group = c.benchmark_group("div_mod");
    group.sample_size(10);
    for n in [500u64, 2_000] {
        let b = compiled(BOXED, n);
        let u = compiled(UNBOXED, n);
        group.bench_with_input(BenchmarkId::new("boxed_pair", n), &n, |bch, _| {
            bch.iter(|| {
                b.run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("unboxed_tuple", n), &n, |bch, _| {
            bch.iter(|| {
                u.run_with_engine("main", u64::MAX / 2, Engine::Env)
                    .unwrap()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("tuple_nesting");
    group.sample_size(10);
    let nested = compiled(NESTED, 1_000);
    let flat = compiled(FLAT, 1_000);
    group.bench_function("nested", |bch| {
        bch.iter(|| {
            nested
                .run_with_engine("main", u64::MAX / 2, Engine::Env)
                .unwrap()
        })
    });
    group.bench_function("flat", |bch| {
        bch.iter(|| {
            flat.run_with_engine("main", u64::MAX / 2, Engine::Env)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tuples);
criterion_main!(benches);
