//! The repository benchmark.
//!
//! Two workloads, each run for a fixed wall budget and checked for
//! correct outputs (see `README.md` for why each exists and which layer
//! it loads):
//!
//! * [`Workload::SuiteSuperblock`] — the paper's Figure 6 sweep on the
//!   superblock backend ([`suite`], which runs on either backend);
//! * [`Workload::ServeMix`] — a closed loop of translation-cache hits and
//!   unique misses against an in-process `serve` daemon ([`serve_mix`]).
//!
//! End-to-end metrics come from the untraced run. The traced run wraps
//! the benchmark's own calls into each layer in [`spans`] and reports
//! per-layer numbers plus the tracing overhead. The sweep's times,
//! set-up included, are scaled to the reference host's speed by a
//! [`probe`] run beside them.

#![forbid(unsafe_code)]

pub mod probe;
pub mod serve_mix;
pub mod spans;
pub mod suite;

use std::collections::BTreeMap;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure-6 sweep on the superblock backend.
    SuiteSuperblock,
    /// Closed-loop hit/miss request mix against the serve daemon.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SuiteSuperblock, Workload::ServeMix];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteSuperblock => "suite-superblock",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Workload seed: drives sweep order, kernelgen spec seeds and the
    /// serve request schedule.
    pub seed: u64,
    /// Wall budget of the timed loop, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("sim_minstr_per_s", "Minstr/s"),
    ("speedup_w8_geomean", "x"),
    ("ops_per_s", "1/s"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not load reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("sim.scalar.ns_per_instr", "ns"),
    ("sim.liquid.ns_per_instr", "ns"),
    ("sim.pretranslated.ns_per_instr", "ns"),
    ("sim.native.ns_per_instr", "ns"),
    ("sim.liquid_ledger.ns_per_instr", "ns"),
    ("sim.new_us", "us"),
    ("sim.retired", "count"),
    ("sim.retired_vector", "count"),
    ("sim.cycles", "count"),
    ("sim.lane_ops", "count"),
    ("block.lowered", "count"),
    ("block.hits", "count"),
    ("block.misses", "count"),
    ("block.instrs", "count"),
    ("block.hit_ratio", "ratio"),
    ("block.instr_share", "ratio"),
    ("block.fallback.translator", "count"),
    ("block.fallback.control", "count"),
    ("block.invalidations", "count"),
    ("translator.instrs_observed", "count"),
    ("translator.attempts", "count"),
    ("translator.successes", "count"),
    ("translator.aborts", "count"),
    ("translator.window_share", "ratio"),
    ("translator.success_ratio", "ratio"),
    ("mcache.lookups", "count"),
    ("mcache.hits", "count"),
    ("mcache.pending", "count"),
    ("mcache.evictions", "count"),
    ("mcache.hit_ratio", "ratio"),
    ("mem.icache.accesses", "count"),
    ("mem.icache.misses", "count"),
    ("mem.dcache.accesses", "count"),
    ("mem.dcache.misses", "count"),
    ("mem.icache.miss_rate", "ratio"),
    ("mem.dcache.miss_rate", "ratio"),
    ("mem.cache_access_ns", "ns"),
    ("compiler.build_liquid_ms", "ms"),
    ("compiler.build_plain_ms", "ms"),
    ("compiler.build_native_ms", "ms"),
    ("compiler.gold_ms", "ms"),
    ("isa.assemble_us", "us"),
    ("serve.daemon_p50_us", "us"),
    ("serve.daemon_p95_us", "us"),
    ("serve.wait_p50_us", "us"),
    ("serve.tcache.hit_ratio", "ratio"),
    ("serve.flight.dropped", "count"),
    ("serve.ops_execute_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.probe_us", "us"),
];

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed loop (plus the traced run's
    /// extra probes).
    pub attempted: u64,
    /// Operations whose output check failed (wrong bytes, wrong memory,
    /// wrong backend, sim fault, error response).
    pub failed: u64,
    /// Messages for failed checks, set-up faults included.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run), by [`END_TO_END`] name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer timings and ratios (traced run), by [`PER_LAYER`] name.
    pub per_layer: BTreeMap<String, f64>,
    /// Exact per-layer counts over a seed-fixed set of simulations: equal
    /// between traced and untraced runs.
    pub counts: BTreeMap<String, u64>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problems.push(msg);
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name),
            "undeclared metric {name}"
        );
        self.end_to_end.insert(name.to_string(), value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "undeclared metric {name}"
        );
        self.per_layer.insert(name.to_string(), value);
    }

    /// The result line: every declared metric of the requested kind.
    #[must_use]
    pub fn to_json(&self, trace: bool) -> String {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let body: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = if trace {
                    self.per_layer
                        .get(name)
                        .copied()
                        .or_else(|| self.counts.get(name).map(|&c| c as f64))
                } else {
                    self.end_to_end.get(name).copied()
                };
                // A percentile over a failed request is unbounded; JSON has
                // no infinity, so it reads as the largest finite number.
                let v = value.unwrap_or(0.0);
                let v = if v.is_finite() { v } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Runs one workload.
#[must_use]
pub fn run(workload: Workload, opts: &RunOptions) -> Outcome {
    match workload {
        Workload::SuiteSuperblock => suite::run(liquid_simd::BackendKind::Superblock, opts),
        Workload::ServeMix => serve_mix::run(opts),
    }
}

/// SplitMix64 finalizer: decorrelates `(seed, index)` pairs.
#[must_use]
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic Fisher–Yates shuffle of `0..n` from `seed`.
#[must_use]
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Percentile `p` (0..=100) of `samples`: the mean of the order
/// statistics within ±`n / 32` ranks of the nearest rank. In small,
/// gappy samples the nearest rank alone jumps between neighbours; the
/// window damps that, and for fewer than 32 samples it is the nearest
/// rank itself. `+inf` samples (failed operations) sort last and make
/// any window that reaches them `+inf`. 0 for no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let (lo, hi) = (rank.saturating_sub(n / 32), (rank + n / 32 + 1).min(n));
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Median of `samples` (0 for none).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Geometric mean (0 for none).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `repeats` times, returning the last result and the median
/// wall time in seconds. Repeating makes `setup_s` a median, so one slow
/// set-up does not read as a regression. With `scaled`, each round's time
/// is scaled to the reference host's speed by the [`probe::Probe`] run on
/// this thread around it; that fits a set-up that runs on this thread.
pub fn timed_setup<T>(repeats: usize, scaled: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut probe = probe::Probe::new();
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous round first so rounds do not overlap.
        drop(last.take());
        probe.sample();
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    probe.sample();
    if scaled {
        for (i, t) in times.iter_mut().enumerate() {
            *t *= probe.scale(i);
        }
    }
    (last.expect("at least one set-up round"), median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_windows_around_the_nearest_rank_and_failures_sort_last() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        let gappy = [1.0, 2.0, 3.0, 10.0, 11.0];
        assert_eq!(percentile(&gappy, 60.0), 3.0);
        let mut w: Vec<f64> = (1..=64).map(f64::from).collect();
        w[63] = 100.0;
        assert_eq!(
            percentile(&w, 50.0),
            (30.0 + 31.0 + 32.0 + 33.0 + 34.0) / 5.0
        );
        let mut w = v.clone();
        w[3] = f64::INFINITY;
        assert_eq!(percentile(&w, 100.0), f64::INFINITY);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn permutation_is_seeded() {
        let a = permutation(50, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, permutation(50, 1));
        assert_ne!(a, permutation(50, 2));
    }

    #[test]
    fn result_line_is_json_with_finite_numbers() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e("cold_p90_ms", f64::INFINITY);
        o.counts.insert("sim.retired".into(), 12);
        let line = o.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(
            line.contains("\"cold_p90_ms\": {\"value\": 1.7976931348623157e308"),
            "{line}"
        );
        assert!(o
            .to_json(true)
            .contains("\"sim.retired\": {\"value\": 12.0, \"unit\": \"count\"}"));
    }
}
