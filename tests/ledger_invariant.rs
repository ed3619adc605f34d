//! The cycle-ledger invariant, property-tested end to end: every
//! simulated cycle lands in exactly one (PC, region, category) bucket, so
//! the ledger's bucket sum must equal the run's `PhaseBreakdown` total
//! bit-exactly, on both execution backends, for every workload at every
//! width — and the ledgers themselves must be byte-identical across
//! backends and across harness parallelism (`--jobs 1` vs `--jobs 8`).
//!
//! The suite also pins the ledger's first payoff: the machine-checked
//! explanation of the `179.art` width inversion (w16 slower than w8),
//! byte-compared against the committed `bench/diff_179art_w8_w16.json`
//! fixture.

use liquid_simd_repro::facade as liquid;
use liquid_simd_repro::isa::Program;
use liquid_simd_repro::kernelgen::{expand_corpus, Payload};
use liquid_simd_repro::ledger::{diff, Snapshot};
use liquid_simd_repro::sim::{BackendKind, MachineConfig};

const WIDTHS: [usize; 4] = [2, 4, 8, 16];

/// Runs `program` with the ledger on and asserts the sum invariant; the
/// caller gets the report back for cross-backend comparisons.
fn run_with_ledger(
    what: &str,
    program: &Program,
    width: usize,
    backend: BackendKind,
) -> liquid::RunReport {
    let cfg = MachineConfig::liquid(width)
        .with_backend(backend)
        .with_ledger(true);
    let report = liquid::run(program, cfg)
        .unwrap_or_else(|e| panic!("{what} w{width} {}: {e}", backend.name()))
        .report;
    let ledger = report
        .ledger
        .as_ref()
        .unwrap_or_else(|| panic!("{what} w{width}: ledger requested but absent"));
    assert_eq!(
        ledger.total_cycles(),
        report.phases.total(),
        "{what} w{width} {}: ledger bucket sum != PhaseBreakdown total",
        backend.name()
    );
    assert_eq!(
        ledger.total_cycles(),
        report.cycles,
        "{what} w{width} {}: ledger bucket sum != report cycles",
        backend.name()
    );
    report
}

/// Asserts both backends produce the same cycles and *byte-identical*
/// ledgers (structural equality plus the rendered JSON, which is what the
/// history records and diff fixtures pin).
fn assert_cross_backend(what: &str, program: &Program, width: usize) {
    let ri = run_with_ledger(what, program, width, BackendKind::Interp);
    let rs = run_with_ledger(what, program, width, BackendKind::Superblock);
    assert_eq!(ri.cycles, rs.cycles, "{what} w{width}: cycles");
    assert_eq!(ri.ledger, rs.ledger, "{what} w{width}: ledger buckets");
    assert_eq!(
        ri.ledger.as_ref().map(|l| l.to_json()),
        rs.ledger.as_ref().map(|l| l.to_json()),
        "{what} w{width}: ledger JSON"
    );
}

#[test]
fn ledger_sum_matches_phase_totals_on_both_backends_all_workloads() {
    let workloads = liquid_simd_workloads::all();
    assert_eq!(workloads.len(), 15, "the fixed suite is 15 workloads");
    // One task per workload: build once, sweep every width on both
    // backends. The harness parallelizes across workloads.
    let jobs = liquid::default_jobs();
    liquid::run_tasks(jobs, workloads.len(), |i| -> Result<(), String> {
        let w = &workloads[i];
        let b = liquid::build_liquid(w).map_err(|e| format!("{}: {e}", w.name))?;
        for width in WIDTHS {
            assert_cross_backend(&w.name, &b.program, width);
        }
        Ok(())
    })
    .expect("suite sweep");
}

#[test]
fn ledger_sum_holds_on_generated_family_sample() {
    // A deterministic sample of the kernelgen corpus: the CI-sized cut
    // (short trips, shallow unrolls), strided down to a handful of kernel
    // variants so the sweep stays cheap.
    let sample: Vec<_> = expand_corpus()
        .expect("corpus expands")
        .into_iter()
        .filter(|v| v.trip <= 64 && v.unroll <= 2)
        .filter(|v| matches!(v.payload, Payload::Kernel(_)))
        .step_by(5)
        .take(6)
        .collect();
    assert!(sample.len() >= 3, "sample should cover several families");
    for v in &sample {
        let Payload::Kernel(w) = &v.payload else {
            unreachable!("filtered to kernels");
        };
        let b = liquid::build_liquid(w).unwrap_or_else(|e| panic!("{}: {e}", v.name));
        for width in WIDTHS {
            assert_cross_backend(&v.name, &b.program, width);
        }
    }
}

#[test]
fn ledger_snapshots_identical_at_jobs_1_and_jobs_8() {
    // The smoke suite across two widths, once serial and once on 8
    // workers: the rendered per-run snapshots must be byte-identical,
    // i.e. the ledger never observes scheduling.
    let workloads = liquid_simd_workloads::smoke();
    let widths = [2usize, 8];
    let builds: Vec<_> = workloads
        .iter()
        .map(|w| liquid::build_liquid(w).unwrap_or_else(|e| panic!("{}: {e}", w.name)))
        .collect();
    let sweep = |jobs: usize| -> Vec<String> {
        liquid::run_tasks(
            jobs,
            workloads.len() * widths.len(),
            |i| -> Result<String, String> {
                let (wi, si) = (i / widths.len(), i % widths.len());
                let (w, width) = (&workloads[wi], widths[si]);
                let report =
                    run_with_ledger(&w.name, &builds[wi].program, width, BackendKind::Interp);
                let label = format!("{}@w{width}", w.name);
                Ok(report
                    .ledger_snapshot(&label, &builds[wi].program)
                    .to_json())
            },
        )
        .expect("smoke sweep")
    };
    let serial = sweep(1);
    let parallel = sweep(8);
    assert_eq!(serial, parallel, "ledger snapshots must not observe --jobs");
    assert!(serial.iter().all(|s| s.contains("\"total_cycles\":")));
}

/// The committed fixture is exactly what `liquid-simd diff 179.art@w8
/// 179.art@w16 --json` emits: regenerate it through the same library path
/// and byte-compare, then assert the explanation names a concrete
/// dominant cost category for the paper suite's one width inversion
/// (ROADMAP item 4: `179.art` w16 > w8).
#[test]
fn pinned_179art_width_inversion_fixture_names_the_dominant_category() {
    let w = liquid_simd_workloads::all()
        .into_iter()
        .find(|w| w.name == "179.art")
        .expect("179.art in the fixed suite");
    let b = liquid::build_liquid(&w).expect("build 179.art");
    let snap_at = |width: usize| -> Snapshot {
        let report = run_with_ledger("179.art", &b.program, width, BackendKind::Interp);
        report.ledger_snapshot(&format!("179.art@w{width}"), &b.program)
    };
    let d = diff::diff(&snap_at(8), &snap_at(16));

    // The inversion is real and the ledger explains it: the wide machine
    // spends its extra cycles executing scalar code (the strip-mined
    // remainder and scalar fallback at w16 outweigh the vector savings).
    assert!(d.total_delta > 0, "w16 must cost more than w8");
    assert_eq!(d.a_total, 2_380_481, "w8 cycles are pinned");
    assert_eq!(d.b_total, 2_482_896, "w16 cycles are pinned");
    assert_eq!(
        d.dominant_category.as_deref(),
        Some("scalar-execute"),
        "the diff must name the dominant cost category"
    );
    let scalar = d
        .categories
        .iter()
        .find(|c| c.name == "scalar-execute")
        .expect("scalar-execute bucket present");
    assert!(
        scalar.delta > 0 && scalar.delta.unsigned_abs() > d.total_delta.unsigned_abs() / 2,
        "scalar-execute must carry the bulk of the delta"
    );
    assert!(
        d.narrative.iter().any(|l| l.contains("scalar-execute")),
        "the narrative names the dominant category"
    );

    // Byte-for-byte the committed fixture: `diff --json` is deterministic
    // and the repo carries the explanation, not just the warning.
    let rendered = diff::render_json(&d);
    let fixture = std::fs::read_to_string("bench/diff_179art_w8_w16.json")
        .expect("bench/diff_179art_w8_w16.json committed");
    assert_eq!(
        rendered, fixture,
        "regenerated diff must match the pinned fixture byte-for-byte \
         (regenerate with: liquid-simd diff 179.art@w8 179.art@w16 --json \
         --out bench/diff_179art_w8_w16.json)"
    );
}
