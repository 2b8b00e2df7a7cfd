//! Golden-bytecode snapshot tests: the Engine 3 compiler's flat code,
//! pinned.
//!
//! Each corpus program below (the same thirteen programs the
//! golden-Core suite pins) compiles at the default level and the
//! disassembly of its whole [`BcProgram`] — every global's chunk, in
//! program order, with resolved jump offsets, frame sizes and fused
//! superinstructions spelled out — is snapshotted into
//! `tests/golden/<name>.bc`. A change anywhere in the bytecode
//! compiler (new fusion, different frame layout, reordered blocks)
//! shows up as a reviewable diff of compiler *output*, not as bench
//! noise three PRs later.
//!
//! The disassembler is deterministic by construction: registers are
//! named by class and slot (`w0`, `p1`, `f2`, `d3`), jump targets are
//! resolved pcs, and binder names in `binds [...]` come from the
//! machine lowering's per-function numbering, not the optimizer's
//! process-global fresh counter (pinned by
//! `disassembly_is_stable_across_recompilations` below). Globals are
//! numbered by name — source-level names first, then the compiler's
//! `$`-prefixed ones — never by intern order, which other threads
//! change (pinned by `artifacts_do_not_depend_on_intern_order`).
//!
//! To regenerate after an intentional bytecode-compiler change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_bytecode
//! ```

use std::path::PathBuf;

use levity::core::symbol::Symbol;
use levity::driver::compile_with_prelude;

/// The snapshot corpus — kept in lockstep with `golden_core.rs`, so
/// every pinned Core program also pins the flat code it lowers to.
const GOLDEN: &[(&str, &str)] = &[
    (
        "sum_to_boxed",
        "sumTo :: Int -> Int -> Int\n\
         sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
         main :: Int\n\
         main = sumTo 0 5000\n",
    ),
    (
        "sum_to_unboxed",
        "sumTo# :: Int# -> Int# -> Int#\n\
         sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
         main :: Int#\n\
         main = sumTo# 0# 5000#\n",
    ),
    (
        "dict_unboxed",
        "loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> loop (acc + n) (n - 1#) }\n\
         main :: Int#\n\
         main = loop 0# 2000#\n",
    ),
    (
        "dict_boxed",
        "loop :: Int -> Int -> Int\n\
         loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + n) (n - 1) } }\n\
         main :: Int\n\
         main = loop 0 2000\n",
    ),
    (
        "dict_poly_fn",
        "step :: forall (a :: TYPE IntRep). Num a => a -> a\n\
         step x = x + x\n\
         loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> loop (acc + step n) (n - 1#) }\n\
         main :: Int#\n\
         main = loop 0# 2000#\n",
    ),
    (
        "dict_poly_fn_boxed",
        "step :: Num a => a -> a\n\
         step x = x + x\n\
         loop :: Int -> Int -> Int\n\
         loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + step n) (n - 1) } }\n\
         main :: Int\n\
         main = loop 0 2000\n",
    ),
    (
        "spec_square",
        "square :: Num a => a -> a\n\
         square x = x * x\n\
         main :: Int\n\
         main = square 7\n",
    ),
    (
        // The tentpole CPR shape; its worker's loop header must pin the
        // `cmp+br …; prim.w …; call.fw` triple fusion.
        "cpr_divmod",
        "data QR = QR Int# Int#\n\
         divMod# :: Int# -> Int# -> QR\n\
         divMod# n d = case n <# d of { 1# -> QR 0# n; _ -> case divMod# (n -# d) d of { QR q r -> QR (q +# 1#) r } }\n\
         loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> case divMod# n 3# of { QR q r -> loop (acc +# q +# r) (n -# 1#) } }\n\
         main :: Int#\n\
         main = loop 0# 5000#\n",
    ),
    (
        // The tail self-call lowers to a `prim.call.w` back-edge.
        "cpr_accumulator",
        "data QR = QR Int# Int#\n\
         spin :: Int# -> Int# -> QR\n\
         spin acc n = case n of { 0# -> QR acc n; _ -> spin (acc +# n) (n -# 1#) }\n\
         main :: Int#\n\
         main = case spin 0# 5000# of { QR s z -> s +# z }\n",
    ),
    (
        // Negative space: no unboxed-tuple returns, so no `ret.multi.w`
        // may appear for `mk`.
        "cpr_escape",
        "data QR = QR Int# Int#\n\
         mk :: Int# -> QR\n\
         mk n = case n <# 0# of { 1# -> QR 0# n; _ -> case mk (n -# 1#) of { QR a b -> QR (a +# n) b } }\n\
         main :: QR\n\
         main = mk 3#\n",
    ),
    (
        // Join points lower to moves + `goto` back into the chunk.
        "join_diamond",
        "data QR = QR Int# Int#\n\
         pick :: Int# -> Int# -> QR\n\
         pick a b = case (case a <# b of { 1# -> QR a b; _ -> QR b a }) of { QR x y -> QR (x +# 100#) y }\n\
         use :: Int# -> Int#\n\
         use n = case pick n 5# of { QR u v -> u +# (v *# 2#) +# (u -# v) +# (u *# v) }\n\
         main :: Int#\n\
         main = use 3#\n",
    ),
    (
        "tuple_divmod",
        "divMod# :: Int# -> Int# -> (# Int#, Int# #)\n\
         divMod# n k = (# quotInt# n k, remInt# n k #)\n\
         useBoth :: Int# -> Int# -> Int#\n\
         useBoth n k = case divMod# n k of { (# q, r #) -> q +# r }\n\
         main :: Int#\n\
         main = useBoth 17# 5#\n",
    ),
    (
        "spec_mutual",
        "bounce :: Num a => a -> Int# -> a\n\
         bounce x n = case n of { 0# -> x; _ -> rebound (x + x) (n -# 1#) }\n\
         rebound :: Num a => a -> Int# -> a\n\
         rebound x n = case n of { 0# -> x; _ -> bounce (x * x) (n -# 1#) }\n\
         main :: Int\n\
         main = bounce 2 3#\n",
    ),
];

fn disasm(src: &str, name: &str) -> String {
    compile_with_prelude(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .bytecode
        .disasm()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.bc"))
}

#[test]
fn flat_bytecode_matches_the_committed_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut mismatches: Vec<String> = Vec::new();
    for (name, src) in GOLDEN {
        let rendered = disasm(src, name);
        let path = golden_path(name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == rendered => {}
            Ok(expected) => {
                let diff: Vec<String> = expected
                    .lines()
                    .zip(rendered.lines())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .take(5)
                    .map(|(i, (a, b))| format!("  line {}: {a:?}\n       now: {b:?}", i + 1))
                    .collect();
                mismatches.push(format!(
                    "{name}: golden bytecode differs ({} vs {} lines){}{}",
                    expected.lines().count(),
                    rendered.lines().count(),
                    if diff.is_empty() { "" } else { "\n" },
                    diff.join("\n")
                ));
            }
            Err(_) => mismatches.push(format!("{name}: missing golden file {path:?}")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "bytecode-compiler output drifted from the committed golden snapshots:\n{}\n\n\
         If the change is intentional, regenerate with:\n    UPDATE_GOLDEN=1 cargo test --test golden_bytecode\n\
         and commit the updated tests/golden/*.bc files.",
        mismatches.join("\n")
    );
}

/// Two independent compilations of the same source must disassemble
/// byte-identically, even with other compilations interleaved (the
/// optimizer's process-global fresh-name counter must not leak into
/// the flat code's rendering).
#[test]
fn disassembly_is_stable_across_recompilations() {
    let (name, src) = GOLDEN.iter().find(|(n, _)| *n == "cpr_divmod").unwrap();
    let a = disasm(src, name);
    let _ = compile_with_prelude("f :: Int -> Int\nf x = x + x\nmain :: Int\nmain = f 1\n");
    let b = disasm(src, name);
    assert_eq!(a, b, "disassembly must not depend on compilation order");
}

/// The globals the committed snapshots name (workers and
/// specialisations included): every chunk label without a `!fast`,
/// `.lamN` or `.thunkN` suffix.
fn snapshot_globals() -> Vec<String> {
    let mut names: Vec<String> = GOLDEN
        .iter()
        .flat_map(|(name, _)| {
            let text = std::fs::read_to_string(golden_path(name)).unwrap();
            text.lines()
                .filter_map(|l| l.strip_prefix("chunk "))
                .filter_map(|l| l.split(' ').next())
                .filter(|label| !label.contains(['!', '.']))
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Compiled artifacts must not depend on the process's intern history.
/// Several threads each first intern the snapshots' own global names in
/// a scrambled order, mixed with fresh names, so those names get symbol
/// ids in an order no sequential run produces (and named so that it
/// runs first under `--test-threads=1`, before any other test has
/// interned them). Then every thread compiles the whole corpus at once,
/// and every disassembly must still match its committed snapshot.
#[test]
fn artifacts_do_not_depend_on_intern_order() {
    const THREADS: u64 = 4;
    let names = snapshot_globals();
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let mut names = names.clone();
            std::thread::spawn(move || {
                // Fisher-Yates with a per-thread xorshift64.
                let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2 * t + 1);
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for i in (1..names.len()).rev() {
                    names.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                for (i, name) in names.iter().enumerate() {
                    let _ = Symbol::intern(&format!("intern-order-{t}-{i}-{:x}", next()));
                    let _ = Symbol::intern(name);
                }
                GOLDEN
                    .iter()
                    .map(|(name, src)| (*name, disasm(src, name)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for thread in threads {
        for (name, rendered) in thread.join().unwrap() {
            let expected = std::fs::read_to_string(golden_path(name)).unwrap();
            assert!(
                expected == rendered,
                "{name}: bytecode depends on intern order:\n{rendered}"
            );
        }
    }
}

/// The snapshots must actually contain the shapes they pin: the CPR
/// worker's loop header is the fully fused compare-call, the
/// accumulator's back-edge is a fused tail self-call, and the escaping
/// product keeps its box (no word-stack multi-returns).
#[test]
fn snapshots_contain_the_shapes_they_pin() {
    let by_name = |n: &str| GOLDEN.iter().find(|(g, _)| *g == n).unwrap().1;
    let divmod = disasm(by_name("cpr_divmod"), "cpr_divmod");
    assert!(
        divmod.contains("cmp+br <#") && divmod.contains("; call.fw"),
        "cpr_divmod must pin the fused loop header:\n{divmod}"
    );
    let acc = disasm(by_name("cpr_accumulator"), "cpr_accumulator");
    assert!(
        acc.contains("call.self.w"),
        "cpr_accumulator must pin the fused tail self-call:\n{acc}"
    );
    let escape = disasm(by_name("cpr_escape"), "cpr_escape");
    assert!(
        !escape.contains("ret.multi.w"),
        "cpr_escape's result escapes unscrutinised; it must keep its box:\n{escape}"
    );
}
