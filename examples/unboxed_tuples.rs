//! E3 — §2.3: `divMod` returning a boxed pair vs an unboxed tuple.
//!
//! "During compilation, the unboxed tuple is erased completely":
//! watch the allocation counters. The counters come from the reference
//! engine (`Engine::Subst`), so "machine steps" are Figure 6 transitions.
//!
//! ```sh
//! cargo run --example unboxed_tuples
//! ```

use levity::driver::compile_with_prelude;
use levity::m::Engine;

const UNBOXED: &str = "divMod# :: Int# -> Int# -> (# Int#, Int# #)\n\
     divMod# n k = (# quotInt# n k, remInt# n k #)\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc;\n\
       _ -> case divMod# n 3# of { (# q, r #) -> loop (acc +# q +# r) (n -# 1#) } }\n\
     main :: Int#\n\
     main = loop 0# 2000#\n";

const BOXED: &str = "divModB :: Int# -> Int# -> Pair Int Int\n\
     divModB n k = MkPair (I# (quotInt# n k)) (I# (remInt# n k))\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc;\n\
       _ -> case divModB n 3# of { MkPair q r ->\n\
              case q of { I# qq -> case r of { I# rr -> loop (acc +# qq +# rr) (n -# 1#) } } } }\n\
     main :: Int#\n\
     main = loop 0# 2000#\n";

fn main() {
    let unboxed = compile_with_prelude(UNBOXED).expect("unboxed compiles");
    let boxed = compile_with_prelude(BOXED).expect("boxed compiles");
    let (uo, us) = unboxed
        .run_with_engine("main", 1_000_000_000, Engine::Subst)
        .expect("runs");
    let (bo, bs) = boxed
        .run_with_engine("main", 1_000_000_000, Engine::Subst)
        .expect("runs");
    assert_eq!(
        uo.value().and_then(|v| v.as_int()),
        bo.value().and_then(|v| v.as_int())
    );

    println!("divMod over 2000 iterations (section 2.3)\n");
    println!("{:<22} {:>14} {:>14}", "", "boxed (q, r)", "(# q, r #)");
    println!(
        "{:<22} {:>14} {:>14}",
        "words allocated", bs.allocated_words, us.allocated_words
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "constructor allocs", bs.con_allocs, us.con_allocs
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "thunks forced", bs.thunk_forces, us.thunk_forces
    );
    println!("{:<22} {:>14} {:>14}", "machine steps", bs.steps, us.steps);
    println!(
        "\nthe unboxed tuple \"does not exist at runtime, at all\": {} words allocated",
        us.allocated_words
    );
    println!("result (both): {uo:?}");
}
