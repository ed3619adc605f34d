//! Determinism of the benchmark's exact counts, and agreement between the
//! metrics the code reports and the ones `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`:
//! the suite tests simulate two full sweep passes per call.

use std::collections::BTreeMap;

use liquid_simd::BackendKind;
use liquid_simd_perfhist::Json;
use perfbench::{serve_mix, suite, Outcome, RunOptions, Workload, END_TO_END, PER_LAYER};

/// Three of the paper's shortest workloads: an fp kernel, a saturating
/// media kernel and a speech codec.
fn subset() -> Vec<liquid_simd::Workload> {
    vec![
        liquid_simd_workloads::lu(),
        liquid_simd_workloads::mpeg2dec(),
        liquid_simd_workloads::gsmdec(),
    ]
}

fn sweep(backend: BackendKind, seed: u64, trace: bool) -> Outcome {
    let out = suite::run_with(
        &subset(),
        backend,
        &RunOptions {
            seed,
            seconds: 0.01,
            trace,
        },
    );
    assert!(out.correct(), "{:?}", out.problems);
    assert_eq!(out.attempted, 2 * 3 * 17 + u64::from(trace) * 3);
    out
}

fn without_blocks(counts: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counts
        .iter()
        .filter(|(k, _)| !k.starts_with("block."))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

#[test]
fn suite_counts_match_across_seeds_and_backends() {
    let a = sweep(BackendKind::Interp, 1, false);
    let b = sweep(BackendKind::Interp, 2, false);
    let c = sweep(BackendKind::Superblock, 1, false);
    assert_eq!(a.counts, b.counts, "a seed changed the interp counts");
    assert_eq!(without_blocks(&a.counts), without_blocks(&c.counts));
    assert!(a.counts["sim.cycles"] > 0 && a.counts["translator.successes"] > 0);
    assert!(a
        .counts
        .iter()
        .all(|(k, &v)| !k.starts_with("block.") || v == 0));
    assert!(c.counts["block.lowered"] > 0 && c.counts["block.instrs"] > 0);
    let speedup = |o: &Outcome| o.end_to_end["speedup_w8_geomean"];
    assert!(speedup(&a) > 1.0);
    assert_eq!(speedup(&a).to_bits(), speedup(&c).to_bits());
}

#[test]
fn suite_counts_match_between_traced_and_untraced_runs() {
    let plain = sweep(BackendKind::Superblock, 7, false);
    let traced = sweep(BackendKind::Superblock, 7, true);
    assert_eq!(plain.counts, traced.counts);
    for name in [
        "sim.liquid.ns_per_instr",
        "sim.pretranslated.ns_per_instr",
        "sim.liquid_ledger.ns_per_instr",
        "mem.cache_access_ns",
        "compiler.build_native_ms",
    ] {
        assert!(traced.per_layer[name] > 0.0, "{name} not measured");
    }
}

#[test]
fn serve_mix_counts_match_between_traced_and_untraced_runs() {
    let run = |trace| {
        serve_mix::run(&RunOptions {
            seed: 11,
            seconds: 1.0,
            trace,
        })
    };
    let (plain, traced) = (run(false), run(true));
    for o in [&plain, &traced] {
        assert!(o.correct(), "{:?}", o.problems);
        assert!(o.end_to_end["speedup_w8_geomean"] > 1.0);
    }
    assert_eq!(plain.counts, traced.counts);
    assert!(traced.counts["block.lowered"] > 0);
    // Warm requests were warmed during set-up: the loop's misses are the
    // cold share only, one request in twenty.
    let hit = traced.per_layer["serve.tcache.hit_ratio"];
    assert!(hit > 0.85 && hit < 1.0, "hit ratio {hit}");
    assert!(traced.per_layer["serve.ops_execute_ms"] > 0.0);
    assert!(traced.per_layer["isa.assemble_us"] > 0.0);
}

/// `BENCHMARK.json` at the repository root declares exactly the
/// workloads and metrics this package reports.
#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .expect(field)
                    .to_string()
            })
            .collect()
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads", "name"), workloads);
    for (key, declared) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let want: Vec<String> = declared.iter().map(|m| m.0.to_string()).collect();
        let units: Vec<String> = declared.iter().map(|m| m.1.to_string()).collect();
        assert_eq!(names(key, "name"), want, "{key} names");
        assert_eq!(names(key, "unit"), units, "{key} units");
    }
}
