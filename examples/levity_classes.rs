//! E7 — §7.3: one `Num` class, instances at lifted *and* unlifted types.
//!
//! "We can now happily write 3# + 4#": the class variable has kind
//! `TYPE r`, the dictionary is an ordinary boxed record, and the method
//! selectors are levity-polymorphic but bind only the dictionary.
//!
//! ```sh
//! cargo run --example levity_classes
//! ```

use levity::core::pretty::PrintOptions;
use levity::driver::compile_with_prelude;
use levity::m::Engine;

fn main() {
    let source = r#"
-- One polymorphic squaring function per representation "family":
-- the class picks the implementation, the kind picks the registers.
squareInt :: Int -> Int
squareInt x = x * x

squareIntU :: Int# -> Int#
squareIntU x = x * x

squareDoubleU :: Double# -> Double#
squareDoubleU x = x * x

sumSquares :: Int# -> Int# -> Int#
sumSquares a b = squareIntU a + squareIntU b

main :: Int#
main = case squareInt 6 of { I# boxed ->
         boxed + sumSquares 3# 4# + double2Int# (squareDoubleU 1.5##) }
"#;

    let compiled = compile_with_prelude(source).expect("compiles");

    println!("the §7.3 class, as elaborated by this pipeline:\n");
    for m in ["+", "*", "abs", "negate"] {
        let t = compiled.signature(m, &PrintOptions::explicit()).unwrap();
        println!("  ({m}) :: {t}");
    }
    println!("\n(`Num a -> …` is the dictionary argument; `Num` dictionaries are");
    println!(" ordinary boxed records, so the selectors obey section 5.1.)\n");

    // Steps and lookups on the reference engine: Figure 6 transitions.
    let (outcome, stats) = compiled
        .run_with_engine("main", 10_000_000, Engine::Subst)
        .expect("runs");
    println!("main = 36 + (9 + 16) + 2 = {outcome:?}");
    println!(
        "machine: {} steps, {} var lookups (dictionary fetches included)",
        stats.steps, stats.var_lookups
    );
}
