//! E1 — the §2.1 experiment: `sumTo` with boxed `Int` vs unboxed `Int#`.
//!
//! The paper: 10,000,000 iterations run in under 0.01s unboxed but more
//! than 2s boxed. Our substrate is the instrumented `M` interpreter, so
//! we report machine statistics (exact, deterministic) *and* wall time.
//! Both come from the reference engine (`Engine::Subst`), whose steps
//! are Figure 6 transitions; the default bytecode engine counts
//! bytecode instructions instead.
//!
//! ```sh
//! cargo run --release --example sum_to
//! ```

use std::time::Instant;

use levity::driver::compile_with_prelude;
use levity::m::Engine;

const BOXED: &str = "sumTo :: Int -> Int -> Int\n\
     sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
     main :: Int\n\
     main = sumTo 0 N\n";

const UNBOXED: &str = "sumTo# :: Int# -> Int# -> Int#\n\
     sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
     main :: Int#\n\
     main = sumTo# 0# N#\n";

fn run(source: &str, n: u64) -> (i64, levity::m::machine::MachineStats, f64) {
    let source = source.replace('N', &n.to_string());
    let compiled = compile_with_prelude(&source).expect("compiles");
    let start = Instant::now();
    let (out, stats) = compiled
        .run_with_engine("main", u64::MAX / 2, Engine::Subst)
        .expect("runs");
    let secs = start.elapsed().as_secs_f64();
    let value = out
        .value()
        .and_then(|v| v.as_int().or_else(|| v.as_boxed_int()))
        .expect("integer result");
    (value, stats, secs)
}

fn main() {
    let n = 30_000;
    println!("sumTo 1..{n} — boxed Int vs unboxed Int# (section 2.1)\n");
    let (bv, bs, bt) = run(BOXED, n);
    let (uv, us, ut) = run(UNBOXED, n);
    assert_eq!(bv, uv, "both versions must agree");

    println!("{:<22} {:>14} {:>14}", "", "boxed Int", "unboxed Int#");
    println!("{:<22} {:>14} {:>14}", "machine steps", bs.steps, us.steps);
    println!(
        "{:<22} {:>14} {:>14}",
        "words allocated", bs.allocated_words, us.allocated_words
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "thunks forced", bs.thunk_forces, us.thunk_forces
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "constructor allocs", bs.con_allocs, us.con_allocs
    );
    println!("{:<22} {:>14.4} {:>14.4}", "wall seconds", bt, ut);
    println!(
        "\nslowdown of boxed over unboxed: {:.1}x time, {}x allocation (paper: >200x time on real hardware)",
        bt / ut,
        bs.allocated_words
            .checked_div(us.allocated_words)
            .map_or_else(|| "∞".to_owned(), |r| r.to_string())
    );
    println!("result: {bv}");
}
