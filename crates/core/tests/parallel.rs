//! Determinism of the parallel experiment harness: any `--jobs` level must
//! produce byte-identical experiment output, and repeated parallel runs
//! must be stable. Scheduling decides only *when* a simulation unit runs,
//! never *what* it computes — these tests pin that invariant.

use liquid_simd::{experiments, verify_workloads};

/// Renders rows exactly as the CLI prints them, one per line.
fn render<T: std::fmt::Display>(rows: &[T]) -> String {
    rows.iter().map(|r| format!("{r}\n")).collect()
}

#[test]
fn figure6_is_identical_at_any_job_count_and_stable_across_runs() {
    let workloads = liquid_simd_workloads::smoke();
    let widths = [2usize, 8];
    let serial = render(&experiments::figure6(&workloads, &widths, 1).expect("serial"));
    assert!(!serial.is_empty());
    for jobs in [2, 8] {
        let parallel = render(&experiments::figure6(&workloads, &widths, jobs).expect("parallel"));
        assert_eq!(serial, parallel, "figure6 diverged at jobs={jobs}");
    }
    // Repeated parallel runs: same bytes again (no run-to-run drift).
    let again = render(&experiments::figure6(&workloads, &widths, 8).expect("repeat"));
    assert_eq!(serial, again, "figure6 unstable across repeated runs");
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

    let serial = render(&experiments::metrics(&workloads, 1).expect("serial"));
    let parallel = render(&experiments::metrics(&workloads, 4).expect("parallel"));
    assert_eq!(serial, parallel, "metrics diverged");

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
