//! Determinism of the parallel experiment harness: any `--jobs` level must
//! produce byte-identical experiment output, and repeated parallel runs
//! must be stable. Scheduling decides only *when* a simulation unit runs,
//! never *what* it computes — these tests pin that invariant.

use liquid_simd::{experiments, verify_workloads, BackendKind};

/// Renders rows exactly as the CLI prints them, one per line.
fn render<T: std::fmt::Display>(rows: &[T]) -> String {
    rows.iter().map(|r| format!("{r}\n")).collect()
}

/// The Figure 6 sweep of the smoke set at widths 2 and 8.
fn figure6(backend: BackendKind, jobs: usize) -> experiments::Figure6 {
    let workloads = liquid_simd_workloads::smoke();
    experiments::figure6(&workloads, &[2, 8], backend, false, jobs, &|_| {}).expect("figure6")
}

/// What every run of a sweep must reproduce exactly: its rendered rows and
/// each unit's cycles.
fn outcome(f: &experiments::Figure6) -> (String, Vec<u64>) {
    (render(&f.rows), f.units.iter().map(|u| u.cycles).collect())
}

#[test]
fn figure6_is_identical_at_any_job_count_and_stable_across_runs() {
    let serial = outcome(&figure6(BackendKind::Interp, 1));
    assert!(!serial.0.is_empty());
    // jobs=8 twice: repeated parallel runs must not drift either.
    for jobs in [2, 8, 8] {
        let parallel = outcome(&figure6(BackendKind::Interp, jobs));
        assert_eq!(serial, parallel, "figure6 diverged at jobs={jobs}");
    }
}

#[test]
fn figure6_runs_every_unit_on_the_backend_it_names() {
    let interp = figure6(BackendKind::Interp, 2);
    let superblock = figure6(BackendKind::Superblock, 2);
    assert_eq!(outcome(&interp), outcome(&superblock));
    for (sweep, backend) in [
        (&interp, BackendKind::Interp),
        (&superblock, BackendKind::Superblock),
    ] {
        let runs = format!("backend.{backend}.runs");
        let named = sweep.units.iter().all(|u| u.counters.contains_key(&runs));
        assert!(named, "a unit did not run on {backend}");
    }
    let lowered = |u: &experiments::Figure6Unit| u.counters.get("blocks.lowered").copied();
    let blocks = superblock.units.iter().all(|u| lowered(u) > Some(0));
    assert!(blocks, "a superblock unit lowered no blocks");
}

#[test]
fn table5_and_table6_are_identical_at_any_job_count() {
    let workloads = liquid_simd_workloads::smoke();
    let t5_serial = render(&experiments::table5(&workloads, 1).expect("t5 serial"));
    let t5_parallel = render(&experiments::table5(&workloads, 8).expect("t5 parallel"));
    assert_eq!(t5_serial, t5_parallel);

    let t6_serial = render(&experiments::table6(&workloads, 1).expect("t6 serial"));
    let t6_parallel = render(&experiments::table6(&workloads, 8).expect("t6 parallel"));
    assert_eq!(t6_serial, t6_parallel);
}

#[test]
fn remaining_drivers_are_identical_at_any_job_count() {
    let workloads = liquid_simd_workloads::smoke();

    let serial = render(&experiments::code_size(&workloads, 1).expect("serial"));
    let parallel = render(&experiments::code_size(&workloads, 4).expect("parallel"));
    assert_eq!(serial, parallel, "code_size diverged");

    let serial = render(&experiments::mcache(&workloads, 1).expect("serial"));
    let parallel = render(&experiments::mcache(&workloads, 4).expect("parallel"));
    assert_eq!(serial, parallel, "mcache diverged");

    let costs = [1u64, 40];
    let serial = experiments::ablation_latency(&workloads, &costs, 1).expect("serial");
    let parallel = experiments::ablation_latency(&workloads, &costs, 4).expect("parallel");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.cycles_by_cost, p.cycles_by_cost,
            "{} diverged",
            s.benchmark
        );
    }

    let serial = experiments::ablation_jit(&workloads, 40, 1).expect("serial");
    let parallel = experiments::ablation_jit(&workloads, 40, 4).expect("parallel");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            (s.hw_cycles, s.jit_cycles),
            (p.hw_cycles, p.jit_cycles),
            "{} diverged",
            s.benchmark
        );
    }

    let fir = liquid_simd_workloads::fir();
    let serial = experiments::overhead_callout(&fir, 1).expect("serial");
    let parallel = experiments::overhead_callout(&fir, 3).expect("parallel");
    assert_eq!(
        (serial.liquid_speedup, serial.builtin_speedup),
        (parallel.liquid_speedup, parallel.builtin_speedup),
        "callout diverged"
    );
}

#[test]
fn parallel_verification_passes_on_the_smoke_set() {
    verify_workloads(&liquid_simd_workloads::smoke(), 8).expect("parallel verify");
}
