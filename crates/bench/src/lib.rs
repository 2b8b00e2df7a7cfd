//! Benchmark crate: the criterion suites live in `benches/`; this
//! library holds the machinery for the CI bench-regression gate
//! (`src/bin/bench_gate.rs`).
//!
//! The gate consumes two formats:
//!
//! * the committed `BENCH_*.json` files at the repository root
//!   (hand-recorded per PR, schema: `{"benches": {"<name>": {"min_ns":
//!   N, "mean_ns": N, "max_ns": N}, …}}`), parsed by a deliberately
//!   minimal JSON reader — the container vendors no serde, and the
//!   schema is ours;
//! * the live output of the vendored criterion shim (`bench: <name> ...
//!   min X ns, mean Y ns, max Z ns (...)`), parsed line-wise.

#![warn(missing_docs)]

use std::collections::BTreeMap;

/// One benchmark's recorded numbers, nanoseconds per iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchEntry {
    /// Fastest sample.
    pub min_ns: f64,
    /// Mean over samples — what the gate compares.
    pub mean_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// A named set of benchmark results (ordered for stable output).
pub type BenchSet = BTreeMap<String, BenchEntry>;

/// Parses a committed `BENCH_*.json` file: finds the `"benches"` object
/// and reads each `"name": {"min_ns": …, "mean_ns": …, "max_ns": …}`
/// entry. Tolerant of the surrounding metadata keys, strict about the
/// entry schema.
///
/// # Errors
///
/// A human-readable description of the first malformed construct.
pub fn parse_bench_json(text: &str) -> Result<BenchSet, String> {
    let start = text
        .find("\"benches\"")
        .ok_or("no \"benches\" key in file")?;
    let rest = &text[start..];
    let open = rest.find('{').ok_or("\"benches\" key has no object")?;
    let mut out = BenchSet::new();
    let mut cursor = &rest[open + 1..];
    loop {
        cursor = cursor.trim_start_matches([' ', '\t', '\n', '\r', ',']);
        if cursor.starts_with('}') || cursor.is_empty() {
            break;
        }
        let (name, after_name) = parse_string(cursor)?;
        let after_colon = after_name
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after \"{name}\""))?;
        let obj_start = after_colon
            .trim_start()
            .strip_prefix('{')
            .ok_or_else(|| format!("expected an object for \"{name}\""))?;
        let obj_end = obj_start
            .find('}')
            .ok_or_else(|| format!("unterminated object for \"{name}\""))?;
        let body = &obj_start[..obj_end];
        let field = |key: &str| -> Result<f64, String> {
            let k = format!("\"{key}\"");
            let at = body
                .find(&k)
                .ok_or_else(|| format!("\"{name}\" is missing {key}"))?;
            let after = body[at + k.len()..]
                .trim_start()
                .strip_prefix(':')
                .ok_or_else(|| format!("expected ':' after {key} in \"{name}\""))?;
            let num: String = after
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            num.parse()
                .map_err(|_| format!("bad number for {key} in \"{name}\": {num:?}"))
        };
        out.insert(
            name.clone(),
            BenchEntry {
                min_ns: field("min_ns")?,
                mean_ns: field("mean_ns")?,
                max_ns: field("max_ns")?,
            },
        );
        cursor = &obj_start[obj_end + 1..];
    }
    Ok(out)
}

fn parse_string(s: &str) -> Result<(String, &str), String> {
    let inner = s
        .strip_prefix('"')
        .ok_or_else(|| format!("expected a string at {:?}", &s[..s.len().min(20)]))?;
    let end = inner.find('"').ok_or("unterminated string")?;
    Ok((inner[..end].to_owned(), &inner[end + 1..]))
}

/// Parses the vendored criterion shim's stdout: every
/// `bench: <name> ... min X ns, mean Y ns, max Z ns (…)` line.
pub fn parse_bench_lines(text: &str) -> BenchSet {
    let mut out = BenchSet::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("bench: ") else {
            continue;
        };
        let Some((name, nums)) = rest.split_once(" ... ") else {
            continue;
        };
        let grab = |key: &str| -> Option<f64> {
            let at = nums.find(key)?;
            let tail = nums[at + key.len()..].trim_start();
            let digits: String = tail
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            digits.parse().ok()
        };
        if let (Some(min), Some(mean), Some(max)) = (grab("min"), grab("mean"), grab("max")) {
            out.insert(
                name.to_owned(),
                BenchEntry {
                    min_ns: min,
                    mean_ns: mean,
                    max_ns: max,
                },
            );
        }
    }
    out
}

/// Renders a [`BenchSet`] in the committed `BENCH_*.json` schema (used
/// to upload the fresh CI run as a workflow artifact).
pub fn render_bench_json(set: &BenchSet, note: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"note\": \"{note}\",\n"));
    out.push_str("  \"benches\": {\n");
    let mut first = true;
    for (name, e) in set {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    \"{name}\": {{ \"min_ns\": {}, \"mean_ns\": {}, \"max_ns\": {} }}",
            e.min_ns, e.mean_ns, e.max_ns
        ));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// A regression found by [`compare`].
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline mean (ns).
    pub baseline_ns: f64,
    /// Candidate mean (ns).
    pub candidate_ns: f64,
    /// `candidate / baseline`.
    pub ratio: f64,
}

/// Compares `candidate` against `baseline` over their common names:
/// every mean that grew by more than `tolerance`× is a regression.
/// Names present on only one side are ignored (suites grow over time;
/// the smoke run covers a subset).
pub fn compare(baseline: &BenchSet, candidate: &BenchSet, tolerance: f64) -> Vec<Regression> {
    compare_with_floor(baseline, candidate, tolerance, 0.0, f64::INFINITY)
}

/// [`compare`] with an absolute-time floor: a regression where both
/// means sit under `floor_ns` is ignored unless its ratio exceeds
/// `floor_ratio`. Sub-microsecond entries jitter by multiples on noisy
/// CI runners — a 700 ns mean "regressing" to 1.2 µs is scheduling
/// noise, while a genuine pathology (say 50×) still trips even below
/// the floor. The gate runs with a 50 µs floor and a 3× floor ratio.
pub fn compare_with_floor(
    baseline: &BenchSet,
    candidate: &BenchSet,
    tolerance: f64,
    floor_ns: f64,
    floor_ratio: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, base) in baseline {
        let Some(cand) = candidate.get(name) else {
            continue;
        };
        if base.mean_ns <= 0.0 {
            continue;
        }
        let ratio = cand.mean_ns / base.mean_ns;
        if ratio <= tolerance {
            continue;
        }
        let under_floor = base.mean_ns < floor_ns && cand.mean_ns < floor_ns;
        if under_floor && ratio <= floor_ratio {
            continue;
        }
        out.push(Regression {
            name: name.clone(),
            baseline_ns: base.mean_ns,
            candidate_ns: cand.mean_ns,
            ratio,
        });
    }
    out
}

/// Renders the full baseline-vs-candidate comparison as an aligned
/// table (used by `bench_gate --explain`, so a green CI log still shows
/// what was compared against what). Verdicts match
/// [`compare_with_floor`] exactly: an entry the floor forgives reads
/// `forgiven (floor)`, never `REGRESSION` — the table must never
/// contradict the gate's exit status. Candidate-only names — a group
/// recorded for the first time, like `serve/*` on the PR that adds its
/// bench — are listed as `new (ungated)` rather than dropped: a first
/// appearance has no baseline to gate against, but a silent omission
/// reads as "covered" when it is not.
pub fn comparison_table(
    baseline: &BenchSet,
    candidate: &BenchSet,
    tolerance: f64,
    floor_ns: f64,
    floor_ratio: f64,
) -> String {
    let mut out = String::new();
    let width = candidate
        .keys()
        .chain(baseline.keys().filter(|k| candidate.contains_key(*k)))
        .map(|k| k.len())
        .max()
        .unwrap_or(9)
        .max("benchmark".len());
    out.push_str(&format!(
        "{:<width$} {:>14} {:>14} {:>8}  verdict\n",
        "benchmark", "baseline ns", "candidate ns", "ratio"
    ));
    for (name, base) in baseline {
        let Some(cand) = candidate.get(name) else {
            continue;
        };
        let ratio = if base.mean_ns > 0.0 {
            cand.mean_ns / base.mean_ns
        } else {
            f64::NAN
        };
        let under_floor = base.mean_ns < floor_ns && cand.mean_ns < floor_ns;
        let verdict = if ratio.is_nan() {
            "skipped (zero baseline)"
        } else if ratio <= tolerance {
            "ok"
        } else if under_floor && ratio <= floor_ratio {
            "forgiven (floor)"
        } else {
            "REGRESSION"
        };
        out.push_str(&format!(
            "{name:<width$} {:>14.0} {:>14.0} {:>7.2}x  {verdict}\n",
            base.mean_ns, cand.mean_ns, ratio
        ));
    }
    for (name, cand) in candidate {
        if baseline.contains_key(name) {
            continue;
        }
        out.push_str(&format!(
            "{name:<width$} {:>14} {:>14.0} {:>8}  new (ungated)\n",
            "-", cand.mean_ns, "-"
        ));
    }
    out
}

/// Orders committed baseline files: `BENCH_baseline.json` is oldest
/// (0), `BENCH_pr<N>.json` sorts by `N`. Unknown names sort oldest so a
/// stray file can never masquerade as the newest baseline.
pub fn baseline_rank(file_name: &str) -> u64 {
    if file_name == "BENCH_baseline.json" {
        return 0;
    }
    file_name
        .strip_prefix("BENCH_pr")
        .and_then(|s| s.strip_suffix(".json"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "note": "x",
      "benches": {
        "sum_to/boxed/200": { "min_ns": 100, "mean_ns": 110, "max_ns": 130 },
        "num_class/dict_boxed/2000": { "min_ns": 5, "mean_ns": 6.5, "max_ns": 9 }
      }
    }"#;

    #[test]
    fn parses_committed_json() {
        let set = parse_bench_json(SAMPLE).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set["sum_to/boxed/200"].mean_ns, 110.0);
        assert_eq!(set["num_class/dict_boxed/2000"].mean_ns, 6.5);
    }

    #[test]
    fn parses_the_real_committed_files() {
        // The schema contract with the repository root: every committed
        // baseline must stay parseable, or the gate silently guards
        // nothing.
        for file in [
            "BENCH_baseline.json",
            "BENCH_pr2.json",
            "BENCH_pr3.json",
            "BENCH_pr4.json",
            "BENCH_pr5.json",
            "BENCH_pr6.json",
            "BENCH_pr8.json",
            "BENCH_pr9.json",
            "BENCH_pr10.json",
            "BENCH_pr12.json",
            "BENCH_pr13.json",
        ] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_owned() + "/" + file;
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let set = parse_bench_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!set.is_empty(), "{file} has no benches");
            if file == "BENCH_pr8.json" {
                // PR 8 introduced the serving-layer group; the recorded
                // file must carry it or the gate has nothing to compare
                // future serve numbers against.
                assert!(
                    set.keys().any(|k| k.starts_with("serve/")),
                    "BENCH_pr8.json is missing the serve/ group: {:?}",
                    set.keys().collect::<Vec<_>>()
                );
            }
            if file == "BENCH_pr10.json" {
                // PR 10 introduced the copying collector; the recorded
                // file must carry the churn/nursery sweep or the gate
                // cannot hold the collector's overhead in place.
                assert!(
                    set.keys().any(|k| k.starts_with("gc/")),
                    "BENCH_pr10.json is missing the gc/ group: {:?}",
                    set.keys().collect::<Vec<_>>()
                );
            }
            if file == "BENCH_pr12.json" {
                // PR 12 made cold compile do only the tenant's work; the
                // recorded cold-compile mean must show it against the
                // PR-10 recording it was gated on.
                let pr10 = std::fs::read_to_string(path.replace(file, "BENCH_pr10.json")).unwrap();
                let before = parse_bench_json(&pr10).unwrap()["serve/cold_compile"].mean_ns;
                let after = set["serve/cold_compile"].mean_ns;
                assert!(
                    after < before,
                    "serve/cold_compile {before} ns -> {after} ns"
                );
            }
            if file == "BENCH_pr13.json" {
                // PR 13 made bytecode the default engine; the serving
                // rows run on it and must show it against the PR-12
                // recording, which ran them on the environment engine.
                let pr12 = std::fs::read_to_string(path.replace(file, "BENCH_pr12.json")).unwrap();
                let pr12 = parse_bench_json(&pr12).unwrap();
                for row in ["serve/requests_w1", "serve/latency_p50"] {
                    let (before, after) = (pr12[row].mean_ns, set[row].mean_ns);
                    assert!(after < before, "{row} {before} ns -> {after} ns");
                }
            }
            if file == "BENCH_pr9.json" {
                // PR 9 introduced the verifier and the unchecked fast
                // path; the recorded file must carry all three groups
                // so the gate can hold the payoff in place.
                for group in ["verify/", "regmachine_checked/", "regmachine_unchecked/"] {
                    assert!(
                        set.keys().any(|k| k.starts_with(group)),
                        "BENCH_pr9.json is missing the {group} group: {:?}",
                        set.keys().collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn parses_shim_output_lines() {
        let text = "warmup noise\n\
            bench: sum_to/boxed/50 ... min 14301 ns, mean 15692 ns, max 19814 ns (351 iters/sample, 10 samples)\n\
            unrelated line\n";
        let set = parse_bench_lines(text);
        assert_eq!(set.len(), 1);
        assert_eq!(set["sum_to/boxed/50"].mean_ns, 15692.0);
        assert_eq!(set["sum_to/boxed/50"].min_ns, 14301.0);
        assert_eq!(set["sum_to/boxed/50"].max_ns, 19814.0);
    }

    #[test]
    fn round_trips_through_render() {
        let set = parse_bench_json(SAMPLE).unwrap();
        let rendered = render_bench_json(&set, "round trip");
        assert_eq!(parse_bench_json(&rendered).unwrap(), set);
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let base = parse_bench_json(SAMPLE).unwrap();
        let mut cand = base.clone();
        cand.get_mut("sum_to/boxed/200").unwrap().mean_ns = 140.0; // 1.27x: fine
        assert!(compare(&base, &cand, 1.5).is_empty());
        cand.get_mut("sum_to/boxed/200").unwrap().mean_ns = 170.0; // 1.55x: regression
        let regs = compare(&base, &cand, 1.5);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "sum_to/boxed/200");
        assert!((regs[0].ratio - 170.0 / 110.0).abs() < 1e-9);
        // Names only on one side never count.
        cand.remove("num_class/dict_boxed/2000");
        assert_eq!(compare(&base, &cand, 1.5).len(), 1);
    }

    #[test]
    fn floor_ignores_fast_jitter_but_not_pathologies() {
        let mut base = BenchSet::new();
        let mut cand = BenchSet::new();
        let entry = |ns: f64| BenchEntry {
            min_ns: ns,
            mean_ns: ns,
            max_ns: ns,
        };
        // 700 ns -> 1.2 µs: 1.7x, but far below the 50 µs floor — noise.
        base.insert("fast/jitter".into(), entry(700.0));
        cand.insert("fast/jitter".into(), entry(1_200.0));
        // 2 µs -> 9 µs: 4.5x exceeds the 3x floor ratio — real even
        // under the floor.
        base.insert("fast/pathology".into(), entry(2_000.0));
        cand.insert("fast/pathology".into(), entry(9_000.0));
        // 100 µs -> 170 µs: above the floor, ordinary 1.5x gate applies.
        base.insert("slow/regressed".into(), entry(100_000.0));
        cand.insert("slow/regressed".into(), entry(170_000.0));
        // 40 µs -> 60 µs: 1.5x exactly at tolerance boundary... below
        // floor on the baseline side but candidate above — not floored.
        base.insert("edge/crossing".into(), entry(40_000.0));
        cand.insert("edge/crossing".into(), entry(64_000.0));

        let regs = compare_with_floor(&base, &cand, 1.5, 50_000.0, 3.0);
        let names: Vec<&str> = regs.iter().map(|r| r.name.as_str()).collect();
        assert!(!names.contains(&"fast/jitter"), "{names:?}");
        assert!(names.contains(&"fast/pathology"), "{names:?}");
        assert!(names.contains(&"slow/regressed"), "{names:?}");
        assert!(
            names.contains(&"edge/crossing"),
            "a candidate above the floor is never floored: {names:?}"
        );
        // Plain `compare` still flags everything beyond tolerance.
        assert_eq!(compare(&base, &cand, 1.5).len(), 4);
    }

    #[test]
    fn comparison_table_lists_common_names_with_verdicts() {
        let base = parse_bench_json(SAMPLE).unwrap();
        let mut cand = base.clone();
        // 110 ns -> 500 ns is 4.5x: beyond the floor ratio even though
        // both sit far under the floor — a visible REGRESSION.
        cand.get_mut("sum_to/boxed/200").unwrap().mean_ns = 500.0;
        // 6.5 ns -> 13 ns is 2x: under the floor and under its ratio —
        // the table must agree with the gate and say forgiven, not
        // REGRESSION.
        cand.get_mut("num_class/dict_boxed/2000").unwrap().mean_ns = 13.0;
        let table = comparison_table(&base, &cand, 1.5, 50_000.0, 3.0);
        assert!(table.contains("benchmark"), "{table}");
        assert!(table.contains("sum_to/boxed/200"), "{table}");
        assert!(table.contains("REGRESSION"), "{table}");
        assert!(table.contains("num_class/dict_boxed/2000"), "{table}");
        assert!(table.contains("forgiven (floor)"), "{table}");
        // The verdicts line up with what compare_with_floor flags.
        let regs = compare_with_floor(&base, &cand, 1.5, 50_000.0, 3.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "sum_to/boxed/200");
    }

    #[test]
    fn comparison_table_reports_first_time_groups_as_new_ungated() {
        // A freshly-introduced group (no baseline entry) must appear in
        // the --explain table as "new (ungated)" — never silently
        // dropped — and must not trip the gate.
        let base = parse_bench_json(SAMPLE).unwrap();
        let mut cand = base.clone();
        cand.insert(
            "serve/cache_hit".into(),
            BenchEntry {
                min_ns: 7_800.0,
                mean_ns: 9_400.0,
                max_ns: 17_700.0,
            },
        );
        cand.insert(
            "serve/cold_compile".into(),
            BenchEntry {
                min_ns: 6.8e6,
                mean_ns: 8.3e6,
                max_ns: 9.0e6,
            },
        );
        let table = comparison_table(&base, &cand, 1.5, 50_000.0, 3.0);
        for line in ["serve/cache_hit", "serve/cold_compile"] {
            let row = table
                .lines()
                .find(|l| l.starts_with(line))
                .unwrap_or_else(|| panic!("no row for {line} in:\n{table}"));
            assert!(row.ends_with("new (ungated)"), "{row}");
        }
        // Common names keep their ordinary verdicts alongside.
        assert!(table.contains("sum_to/boxed/200"), "{table}");
        assert!(table.contains(" ok\n"), "{table}");
        // And the gate itself ignores the new names entirely.
        assert!(compare_with_floor(&base, &cand, 1.5, 50_000.0, 3.0).is_empty());
        // Baseline-only names are still dropped from the table (the
        // smoke run covers a subset; absence there is expected).
        let mut partial = cand.clone();
        partial.remove("num_class/dict_boxed/2000");
        let table = comparison_table(&base, &partial, 1.5, 50_000.0, 3.0);
        assert!(!table.contains("num_class/dict_boxed/2000"), "{table}");
    }

    #[test]
    fn baseline_files_rank_in_pr_order() {
        assert_eq!(baseline_rank("BENCH_baseline.json"), 0);
        assert_eq!(baseline_rank("BENCH_pr2.json"), 2);
        assert_eq!(baseline_rank("BENCH_pr3.json"), 3);
        assert!(baseline_rank("BENCH_pr10.json") > baseline_rank("BENCH_pr3.json"));
        assert_eq!(baseline_rank("BENCH_garbage.json"), 0);
    }
}
