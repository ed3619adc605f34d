//! `suite-superblock`: the paper's Figure 6 sweep on one execution
//! backend (the benchmark runs it on the superblock backend; the tests
//! also run it on the interpreter to pin the cross-backend counts).
//!
//! Per workload: a scalar baseline (plain binary, no accelerator), then at
//! each width a Liquid run (dynamic translation from a cold microcode
//! cache), a pretranslated run (warm run → `microcode_snapshot` → fresh
//! machine with `preload_microcode`, both passes timed and counted) and a
//! native run. Every machine is built with `.with_backend(b)`; a report
//! naming another backend counts as a failed operation, and every run's
//! memory goes through `verify_against_gold`.
//!
//! The timed loop replays the 195-run sweep in a seeded order on
//! [`WORKERS`] threads until the wall budget is spent and at least
//! [`MIN_PASSES`] full passes are done. Every run's time is scaled to the
//! reference host's speed with the [`Probe`] its worker ran around it.
//! Exact counts come from the first pass, so they do not depend on the
//! budget, the seed or tracing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use liquid_simd::gold::run_gold;
use liquid_simd::isa::{Inst, Program};
use liquid_simd::mem::{Cache, CacheConfig};
use liquid_simd::{
    build_liquid, build_native, build_plain, verify_against_gold, BackendKind, Build, DataEnv,
    Machine, MachineConfig, RunReport, TraceConfig, TraceEvent, Tracer, Workload,
};

use crate::probe::Probe;
use crate::spans::{ratio, Spans};
use crate::{geomean, median, mix, percentile, permutation, timed_setup, Outcome, RunOptions};

/// Accelerator widths of the sweep (the paper's Figure 6 x-axis).
pub const WIDTHS: [usize; 4] = [2, 4, 8, 16];
/// Full sweep passes the timed loop always completes, so every run has
/// at least two samples to take the best of.
pub const MIN_PASSES: usize = 2;
/// Worker threads of the timed loop: one per core of the reference host.
pub const WORKERS: usize = 2;
/// Set-up rounds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Fetch-stream replays behind `mem.cache_access_ns` (median taken).
const REPLAYS: usize = 5;

/// One workload compiled three ways, plus its gold reference.
pub struct Built {
    /// Workload name.
    pub name: String,
    plain: Build,
    liquid: Build,
    /// Native builds, one per entry of [`WIDTHS`].
    native: Vec<Build>,
    gold: DataEnv,
}

/// Compiles every workload (plain, liquid, native at each width) and
/// evaluates its gold reference, with a span around each call.
///
/// # Errors
///
/// Returns the first compile or gold-evaluation error.
pub fn build_all(workloads: &[Workload], spans: &mut Spans) -> Result<Vec<Built>, String> {
    let err = |w: &Workload, e: &dyn std::fmt::Display| format!("{}: {e}", w.name);
    workloads
        .iter()
        .map(|w| {
            let plain = spans
                .time("compiler.build_plain", || build_plain(w), |_| 1)
                .map_err(|e| err(w, &e))?;
            let liquid = spans
                .time("compiler.build_liquid", || build_liquid(w), |_| 1)
                .map_err(|e| err(w, &e))?;
            let native = WIDTHS
                .iter()
                .map(|&lanes| spans.time("compiler.build_native", || build_native(w, lanes), |_| 1))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| err(w, &e))?;
            let gold = spans
                .time("compiler.run_gold", || run_gold(w), |_| 1)
                .map_err(|e| err(w, &e))?;
            Ok(Built {
                name: w.name.clone(),
                plain,
                liquid,
                native,
                gold,
            })
        })
        .collect()
}

/// A sweep configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Scalar,
    Liquid,
    Pretranslated,
    Native,
}

/// One figure-6 run: workload index, mode, width (0 for scalar).
#[derive(Clone, Copy, Debug)]
struct Unit {
    wi: usize,
    mode: Mode,
    width: usize,
}

fn units(n: usize) -> Vec<Unit> {
    let mut out = Vec::with_capacity(n * (1 + 3 * WIDTHS.len()));
    for wi in 0..n {
        out.push(Unit {
            wi,
            mode: Mode::Scalar,
            width: 0,
        });
        for &width in &WIDTHS {
            for mode in [Mode::Liquid, Mode::Pretranslated, Mode::Native] {
                out.push(Unit { wi, mode, width });
            }
        }
    }
    out
}

/// One simulation: what was run, how long `Machine::new` + `run` took,
/// and its retired instructions and cycles (`None` when the run or its
/// check failed).
struct Sim {
    /// Whether the run had to translate (a cold microcode cache).
    cold: bool,
    ns: u64,
    result: Option<(u64, u64)>,
}

/// One sweep simulation's samples over the passes.
#[derive(Clone, Copy, Debug)]
struct Best {
    /// Best time in ns over the passes that succeeded.
    ns: f64,
    retired: u64,
    cold: bool,
    /// Whether any pass failed.
    failed: bool,
}

impl Best {
    fn new(cold: bool) -> Best {
        Best {
            ns: f64::INFINITY,
            retired: 0,
            cold,
            failed: false,
        }
    }

    /// Adds one pass's sample, its time multiplied by `scale`.
    fn add(&mut self, sim: &Sim, scale: f64) {
        match sim.result {
            Some((retired, _)) => {
                self.ns = self.ns.min(sim.ns as f64 * scale);
                self.retired = retired;
            }
            None => self.failed = true,
        }
    }

    /// Latency in ms. A run that failed on any pass misses every limit,
    /// however its other passes went.
    fn ms(&self) -> f64 {
        if self.failed {
            f64::INFINITY
        } else {
            self.ns / 1e6
        }
    }
}

type Microcode = Vec<(u32, Vec<Inst>)>;

/// Builds, optionally preloads, and runs one machine, timing and spanning
/// `Machine::new` and `Machine::run` separately. Returns the checked
/// report, the run's microcode, and the elapsed ns.
#[allow(clippy::too_many_arguments)]
fn simulate(
    program: &Program,
    cfg: MachineConfig,
    preload: Option<&Microcode>,
    run_span: &'static str,
    gold: &DataEnv,
    label: &str,
    spans: &mut Spans,
) -> (Result<RunReport, String>, Microcode, u64) {
    let backend = cfg.backend;
    let t = Instant::now();
    let mut machine = spans.time("sim.Machine::new", || Machine::new(program, cfg), |_| 1);
    if let Some(code) = preload {
        machine.preload_microcode(code);
    }
    let result = spans.time(
        run_span,
        || machine.run(),
        |r| r.as_ref().map_or(0, |r| r.retired),
    );
    let ns = t.elapsed().as_nanos() as u64;
    let checked = result
        .map_err(|e| format!("{label}: {e}"))
        .and_then(|report| {
            if report.backend != backend {
                return Err(format!(
                    "{label}: asked for the {backend} backend, report says {}",
                    report.backend
                ));
            }
            if !report.halted {
                return Err(format!("{label}: did not halt"));
            }
            verify_against_gold(label, program, machine.memory(), gold)
                .map_err(|e| e.to_string())?;
            Ok(report)
        });
    (checked, machine.microcode_snapshot(), ns)
}

/// Runs one sweep unit: one simulation, or two for a pretranslated run.
/// Failed checks land in `out`, and so do the exact counts when `count`
/// is set.
fn run_unit(
    b: &Built,
    u: Unit,
    backend: BackendKind,
    spans: &mut Spans,
    out: &mut Outcome,
    count: bool,
) -> Vec<Sim> {
    let mut sims = Vec::with_capacity(2);
    let mut push = |out: &mut Outcome, cold: bool, (res, ns): (Result<RunReport, String>, u64)| {
        let result = match res {
            Ok(r) => {
                if count {
                    add_counts(&mut out.counts, &r);
                }
                Some((r.retired, r.cycles))
            }
            Err(e) => {
                out.fail(e);
                None
            }
        };
        sims.push(Sim { cold, ns, result });
    };
    let w = u.width;
    let (program, cfg, span, cold) = match u.mode {
        Mode::Scalar => (
            &b.plain.program,
            MachineConfig::scalar_only(),
            "sim.Machine::run/scalar",
            false,
        ),
        Mode::Liquid | Mode::Pretranslated => (
            &b.liquid.program,
            MachineConfig::liquid(w),
            "sim.Machine::run/liquid",
            true,
        ),
        Mode::Native => {
            let k = WIDTHS.iter().position(|&x| x == w).expect("sweep width");
            (
                &b.native[k].program,
                MachineConfig::native(w),
                "sim.Machine::run/native",
                false,
            )
        }
    };
    let cfg = cfg.with_backend(backend);
    let label = format!("{} {:?}@{w}", b.name, u.mode);
    let (r, code, ns) = simulate(program, cfg.clone(), None, span, &b.gold, &label, spans);
    push(out, cold, (r, ns));
    if u.mode == Mode::Pretranslated {
        // Second pass: the first pass's microcode resident from cycle 0.
        let span = "sim.Machine::run/pretranslated";
        let label = format!("{label} preloaded");
        let (r, _, ns) = simulate(program, cfg, Some(&code), span, &b.gold, &label, spans);
        push(out, false, (r, ns));
    }
    sims
}

/// Adds one report's exact counts into `c`.
pub fn add_counts(c: &mut BTreeMap<String, u64>, r: &RunReport) {
    let mut put = |k: &str, v: u64| *c.entry(k.to_string()).or_insert(0) += v;
    put("sim.retired", r.retired);
    put("sim.retired_vector", r.vector_retired);
    put("sim.cycles", r.cycles);
    put("sim.lane_ops", r.lane_ops);
    put("block.lowered", r.blocks.lowered);
    put("block.hits", r.blocks.hits);
    put("block.misses", r.blocks.misses);
    put("block.instrs", r.blocks.block_instrs);
    put("block.fallback.translator", r.blocks.fallback_translator);
    put("block.fallback.control", r.blocks.fallback_control);
    put("block.invalidations", r.blocks.invalidations);
    put("translator.instrs_observed", r.translator.instrs_observed);
    put("translator.attempts", r.translator.attempts);
    put("translator.successes", r.translator.successes);
    put("translator.aborts", r.translator.aborted());
    put("mcache.lookups", r.mcache.lookups);
    put("mcache.hits", r.mcache.hits);
    put("mcache.pending", r.mcache.pending);
    put("mcache.evictions", r.mcache.evictions);
    put("mem.icache.accesses", r.icache.accesses);
    put("mem.icache.misses", r.icache.misses());
    put("mem.dcache.accesses", r.dcache.accesses);
    put("mem.dcache.misses", r.dcache.misses());
}

/// The per-layer ratios derived from exact counts.
pub fn count_ratios(out: &mut Outcome) {
    let c = |k: &str| out.counts.get(k).copied().unwrap_or(0) as f64;
    let ratios = [
        (
            "block.hit_ratio",
            ratio(c("block.hits"), c("block.hits") + c("block.misses")),
        ),
        (
            "block.instr_share",
            ratio(c("block.instrs"), c("sim.retired")),
        ),
        (
            "translator.window_share",
            ratio(c("translator.instrs_observed"), c("sim.retired")),
        ),
        (
            "translator.success_ratio",
            ratio(c("translator.successes"), c("translator.attempts")),
        ),
        (
            "mcache.hit_ratio",
            ratio(c("mcache.hits"), c("mcache.lookups")),
        ),
        (
            "mem.icache.miss_rate",
            ratio(c("mem.icache.misses"), c("mem.icache.accesses")),
        ),
        (
            "mem.dcache.miss_rate",
            ratio(c("mem.dcache.misses"), c("mem.dcache.accesses")),
        ),
    ];
    for (name, v) in ratios {
        out.layer(name, v);
    }
}

/// Replays a scalar-only run's fetch stream (`pc * 4` per retired
/// instruction, from a tracer with `instructions` on) through a fresh
/// `Cache::access`, [`REPLAYS`] times. The run is GSM Dec.'s plain
/// binary, the shortest scalar run of the suite, which keeps the recorded
/// stream small. Returns the median ns per access, or an error if the
/// replayed hits and misses differ from the run's own I-cache statistics
/// — then the number would not describe that cache.
///
/// # Errors
///
/// Reports a build or simulation fault, dropped trace records or a replay
/// whose hit count disagrees with the run's `RunReport::icache`.
pub fn cache_replay(spans: &mut Spans) -> Result<f64, String> {
    let plain = build_plain(&liquid_simd_workloads::gsmdec()).map_err(|e| e.to_string())?;
    let program = &plain.program;
    let tracer = Tracer::with_config(TraceConfig {
        capacity: 1 << 24,
        instructions: true,
        progress: false,
    });
    let report = Machine::new(
        program,
        MachineConfig::scalar_only().with_tracer(tracer.clone()),
    )
    .run()
    .map_err(|e| e.to_string())?;
    if tracer.dropped() > 0 {
        return Err(format!("fetch stream lost {} records", tracer.dropped()));
    }
    let addrs: Vec<u32> = tracer
        .records()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::InstrRetired { pc, .. } => Some(pc * 4),
            _ => None,
        })
        .collect();
    drop(tracer);
    let mut per_access = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        let mut cache = Cache::new(CacheConfig::arm926_16k());
        let t = Instant::now();
        let mut hits = 0u64;
        for &a in &addrs {
            hits += u64::from(cache.access(std::hint::black_box(a)));
        }
        let ns = t.elapsed().as_nanos();
        spans.record("mem.Cache::access", ns as u64, addrs.len() as u64);
        if addrs.len() as u64 != report.icache.accesses || hits != report.icache.hits {
            return Err(format!(
                "fetch replay: {} accesses / {hits} hits, run reported {} / {}",
                addrs.len(),
                report.icache.accesses,
                report.icache.hits
            ));
        }
        per_access.push(ratio(ns as f64, addrs.len() as f64));
    }
    Ok(median(&per_access))
}

/// Runs the sweep over the paper's fifteen benchmarks.
#[must_use]
pub fn run(backend: BackendKind, opts: &RunOptions) -> Outcome {
    run_with(&liquid_simd_workloads::all(), backend, opts)
}

/// One sweep unit as a worker finished it.
struct Done {
    ui: usize,
    /// [`Probe::scale`] of this unit on its worker.
    scale: f64,
    traced: bool,
    wall_ns: u64,
    sims: Vec<Sim>,
}

/// A worker's share of the timed loop: its finished units, its traced
/// spans, its failed checks and first-pass counts, and its probe.
type WorkerResult = (Vec<Done>, Spans, Outcome, Probe);

/// Pulls jobs (pass × position in that pass's seeded order) until the
/// budget is spent and [`MIN_PASSES`] passes are done.
fn worker(
    built: &[Built],
    units: &[Unit],
    backend: BackendKind,
    opts: &RunOptions,
    next: &AtomicUsize,
    start: Instant,
) -> WorkerResult {
    let mut traced = Spans::new(opts.trace);
    let mut untraced = Spans::new(false);
    let mut acc = Outcome::default();
    let mut done = Vec::new();
    let mut probe = Probe::new();
    loop {
        let job = next.fetch_add(1, Ordering::Relaxed);
        let (pass, pos) = (job / units.len(), job % units.len());
        if pass >= MIN_PASSES && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let ui = permutation(units.len(), mix(opts.seed, pass as u64))[pos];
        let u = units[ui];
        // The traced run traces every other job; the same runs untraced
        // are the baseline for the tracing overhead.
        let is_traced = opts.trace && job % 2 == 1;
        let spans = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        probe.sample();
        let t = Instant::now();
        let sims = run_unit(&built[u.wi], u, backend, spans, &mut acc, pass == 0);
        done.push(Done {
            ui,
            scale: 1.0,
            traced: is_traced,
            wall_ns: t.elapsed().as_nanos() as u64,
            sims,
        });
    }
    for (i, d) in done.iter_mut().enumerate() {
        d.scale = probe.scale(i);
    }
    (done, traced, acc, probe)
}

/// Runs the sweep over `workloads` (tests use a subset).
#[must_use]
pub fn run_with(workloads: &[Workload], backend: BackendKind, opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_spans = Spans::new(opts.trace);
    let (built, setup_s) = timed_setup(SETUP_REPEATS, true, || {
        let mut sp = Spans::new(opts.trace);
        let built = build_all(workloads, &mut sp);
        setup_spans.absorb(sp);
        built
    });
    let built = match built {
        Ok(b) => b,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };

    let units = units(built.len());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| worker(&built, &units, backend, opts, &next, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    let mut traced = Spans::new(opts.trace);
    // Per op key (unit × simulation within it): its samples over the passes.
    let mut best: BTreeMap<usize, Best> = BTreeMap::new();
    // Per (unit, traced): best unit wall, for the tracing overhead.
    let mut unit_best: BTreeMap<(usize, bool), f64> = BTreeMap::new();
    let mut baseline = vec![0u64; built.len()];
    let mut w8 = vec![0u64; built.len()];
    let mut probe_ns = Vec::new();
    for (done, spans, acc, probe) in results {
        traced.absorb(spans);
        probe_ns.extend_from_slice(probe.times());
        out.failed += acc.failed;
        out.problems.extend(acc.problems);
        for (k, v) in acc.counts {
            *out.counts.entry(k).or_insert(0) += v;
        }
        for d in done {
            let wall = unit_best.entry((d.ui, d.traced)).or_insert(f64::INFINITY);
            *wall = wall.min(d.wall_ns as f64 * d.scale);
            let u = units[d.ui];
            for (si, sim) in d.sims.iter().enumerate() {
                out.attempted += 1;
                best.entry(d.ui * 2 + si)
                    .or_insert_with(|| Best::new(sim.cold))
                    .add(sim, d.scale);
                match (sim.result, u.mode, u.width) {
                    (Some((_, cycles)), Mode::Scalar, _) => baseline[u.wi] = cycles,
                    (Some((_, cycles)), Mode::Liquid, 8) => w8[u.wi] = cycles,
                    _ => {}
                }
            }
        }
    }

    // End to end, from each run's best scaled time over the passes: host
    // noise on a shared machine only ever slows a run down, so the
    // minimum is the steadiest estimate of what the code costs.
    let ok: Vec<&Best> = best.values().filter(|k| !k.failed).collect();
    let ns: f64 = ok.iter().map(|k| k.ns).sum();
    let retired: u64 = ok.iter().map(|k| k.retired).sum();
    out.e2e("sim_minstr_per_s", ratio(retired as f64 * 1e3, ns));
    out.e2e("ops_per_s", ratio(ok.len() as f64 * 1e9, ns));
    let speedups: Vec<f64> = baseline
        .iter()
        .zip(&w8)
        .map(|(&b, &l)| ratio(b as f64, l as f64))
        .collect();
    out.e2e("speedup_w8_geomean", geomean(&speedups));
    let latencies = |cold: bool| -> Vec<f64> {
        best.values()
            .filter(|k| k.cold == cold)
            .map(Best::ms)
            .collect()
    };
    let (warm, cold) = (latencies(false), latencies(true));
    out.e2e("warm_p50_ms", percentile(&warm, 50.0));
    out.e2e("warm_p90_ms", percentile(&warm, 90.0));
    out.e2e("cold_p50_ms", percentile(&cold, 50.0));
    out.e2e("cold_p90_ms", percentile(&cold, 90.0));
    out.e2e("setup_s", setup_s);

    if opts.trace {
        layer_metrics(
            &built,
            backend,
            &mut traced,
            &setup_spans,
            &unit_best,
            &mut out,
        );
        out.layer("host.probe_us", median(&probe_ns) / 1e3);
    }
    count_ratios(&mut out);
    out.e2e("peak_rss_mb", crate::peak_rss_mb());
    out
}

/// Per-layer host times of the traced run; `unit_best` is each unit's
/// best scaled wall time, traced and untraced.
fn layer_metrics(
    built: &[Built],
    backend: BackendKind,
    traced: &mut Spans,
    setup_spans: &Spans,
    unit_best: &BTreeMap<(usize, bool), f64>,
    out: &mut Outcome,
) {
    // The ledger-on path, once per workload at w8: what the sweep bypasses
    // and the serve daemon pays.
    for b in built {
        let (r, _, _) = simulate(
            &b.liquid.program,
            MachineConfig::liquid(8)
                .with_backend(backend)
                .with_ledger(true),
            None,
            "sim.Machine::run/liquid_ledger",
            &b.gold,
            &format!("{} liquid@8 ledger", b.name),
            traced,
        );
        out.attempted += 1;
        if let Err(e) = r {
            out.fail(e);
        }
    }
    for (mode, span) in [
        ("scalar", "sim.Machine::run/scalar"),
        ("liquid", "sim.Machine::run/liquid"),
        ("pretranslated", "sim.Machine::run/pretranslated"),
        ("native", "sim.Machine::run/native"),
        ("liquid_ledger", "sim.Machine::run/liquid_ledger"),
    ] {
        out.layer(
            &format!("sim.{mode}.ns_per_instr"),
            traced.totals(span).ns_per_work(),
        );
    }
    out.layer("sim.new_us", traced.totals("sim.Machine::new").mean_us());
    for (metric, span) in [
        ("compiler.build_liquid_ms", "compiler.build_liquid"),
        ("compiler.build_plain_ms", "compiler.build_plain"),
        ("compiler.build_native_ms", "compiler.build_native"),
        ("compiler.gold_ms", "compiler.run_gold"),
    ] {
        let t = setup_spans.totals(span);
        out.layer(metric, t.ns as f64 / 1e6 / SETUP_REPEATS as f64);
    }
    match cache_replay(traced) {
        Ok(ns) => out.layer("mem.cache_access_ns", ns),
        Err(e) => out.fail(e),
    }
    let (mut on, mut off) = (0.0, 0.0);
    for ((ui, is_traced), &ns) in unit_best {
        if let (true, Some(&ns0)) = (*is_traced, unit_best.get(&(*ui, false))) {
            on += ns;
            off += ns0;
        }
    }
    out.layer("trace.overhead_pct", (ratio(on, off) - 1.0) * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_pass_stays_failed_in_any_merge_order() {
        let ok = Sim {
            cold: true,
            ns: 2_000_000,
            result: Some((10, 20)),
        };
        let bad = Sim {
            cold: true,
            ns: 1_000_000,
            result: None,
        };
        for order in [[&ok, &bad, &ok], [&bad, &ok, &ok]] {
            let mut b = Best::new(true);
            for sim in order {
                b.add(sim, 1.0);
            }
            assert!(b.failed);
            assert_eq!(b.ms(), f64::INFINITY);
        }
        let mut b = Best::new(false);
        b.add(&ok, 1.0);
        assert_eq!((b.ms(), b.retired), (2.0, 10));
        // A sample is scaled before the best is taken.
        b.add(&ok, 0.25);
        assert_eq!(b.ms(), 0.5);
    }
}
