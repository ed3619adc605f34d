//! Counter telemetry: one flat, dotted-name snapshot of everything a run
//! measured — the "counters" object embedded in each `perfhist-v1` record.
//!
//! The names form a stable public surface (the dashboard diffs them
//! against a baseline record), so they are chosen once and documented in
//! EXPERIMENTS.md: `translator.*` for the automaton, `mcache.*` for the
//! microcode cache, `icache.*`/`dcache.*` for the memory system, and
//! `lanes.*` for SIMD lane utilization.

use std::collections::BTreeMap;

use liquid_simd_sim::RunReport;

/// Flattens one run's [`RunReport`] into dotted counter names. Everything
/// is a monotonic count, so snapshots from several workloads can be summed
/// with [`merge`] into a suite-wide registry.
#[must_use]
pub fn snapshot(report: &RunReport) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let mut put = |k: &str, v: u64| {
        out.insert(k.to_string(), v);
    };
    put("cycles", report.cycles);
    put("retired", report.retired);
    put("retired.scalar", report.scalar_retired);
    put("retired.vector", report.vector_retired);
    put("lanes.ops", report.lane_ops);
    put("icache.accesses", report.icache.accesses);
    put("icache.hits", report.icache.hits);
    put("dcache.accesses", report.dcache.accesses);
    put("dcache.hits", report.dcache.hits);
    put("mcache.lookups", report.mcache.lookups);
    put("mcache.hits", report.mcache.hits);
    put(
        "mcache.misses",
        report
            .mcache
            .lookups
            .saturating_sub(report.mcache.hits + report.mcache.pending),
    );
    put("mcache.pending", report.mcache.pending);
    put("mcache.inserts", report.mcache.inserts);
    put("mcache.evictions", report.mcache.evictions);
    put("mcache.conflicts", report.mcache.conflicts);
    let t = &report.translator;
    put("translator.attempts", t.attempts);
    put("translator.successes", t.successes);
    put("translator.aborted", t.aborted());
    put("translator.uops_emitted", t.uops_emitted);
    put("translator.instrs_observed", t.instrs_observed);
    put("translator.phase.collect", t.collect_observed);
    put("translator.phase.loop", t.loop_observed);
    put("translator.buffer_high_water", t.buffer_high_water);
    put("phases.scalar_cycles", report.phases.scalar_cycles);
    put("phases.micro_cycles", report.phases.micro_cycles);
    put("phases.jit_stall_cycles", report.phases.jit_stall_cycles);
    // Backend attribution (one run, tagged with whichever backend executed
    // it) — summed across runs or serve shards, these show how work split
    // between backends.
    put(&format!("backend.{}.runs", report.backend.name()), 1);
    put(
        &format!("backend.{}.cycles", report.backend.name()),
        report.cycles,
    );
    for (tag, &n) in &t.aborts {
        out.insert(format!("translator.abort.{tag}"), n);
    }
    // Superblock block-cache telemetry, under the canonical `blocks.*`
    // names the sim crate defines. Only emitted when the backend actually
    // did block work, so interpreter records stay byte-compatible with
    // pre-backend history baselines.
    let blocks = report.blocks.metrics();
    if blocks.counters().values().any(|&v| v > 0) {
        for (name, &v) in blocks.counters() {
            out.insert(name.clone(), v);
        }
    }
    // Cycle-ledger category totals, only when the run recorded a ledger —
    // ledger-off runs (the default) stay byte-compatible with pre-ledger
    // history baselines.
    if let Some(ledger) = &report.ledger {
        for (cat, bucket) in ledger.category_totals() {
            out.insert(format!("ledger.{}.cycles", cat.name()), bucket.cycles);
            out.insert(format!("ledger.{}.events", cat.name()), bucket.events);
        }
    }
    out
}

/// Builds a labelled ledger [`Snapshot`](liquid_simd_sim::LedgerSnapshot)
/// from one run: the attribution buckets plus the run's deterministic
/// counter telemetry as corroborating evidence. `ledger.*` keys are left
/// out (they restate the categories) and `backend.*` keys are left out
/// (run metadata, not cost). This is the one code path behind
/// `liquid-simd diff` and the pinned diff fixtures, so both stay
/// byte-identical by construction.
#[must_use]
pub fn ledger_snapshot(
    label: &str,
    report: &RunReport,
    names: &BTreeMap<u32, String>,
) -> liquid_simd_sim::LedgerSnapshot {
    let ledger = report.ledger.clone().unwrap_or_default();
    let mut snap = liquid_simd_sim::LedgerSnapshot::from_ledger(label, &ledger, names);
    for (k, v) in snapshot(report) {
        if !k.starts_with("ledger.") && !k.starts_with("backend.") {
            snap.counters.insert(k, v);
        }
    }
    snap
}

/// Sums `add` into `acc` (union of names, values added) — suite-wide
/// aggregation across workload snapshots.
pub fn merge(acc: &mut BTreeMap<String, u64>, add: &BTreeMap<String, u64>) {
    for (k, &v) in add {
        *acc.entry(k.clone()).or_insert(0) += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_are_stable_and_merge_adds() {
        let mut translator = liquid_simd_translator::TranslatorStats {
            attempts: 3,
            ..Default::default()
        };
        translator.record_abort("cam-miss");
        let r = RunReport {
            cycles: 100,
            vector_retired: 4,
            lane_ops: 32,
            mcache: liquid_simd_sim::McacheStats {
                lookups: 10,
                hits: 7,
                pending: 1,
                conflicts: 2,
                ..Default::default()
            },
            translator,
            ..Default::default()
        };
        let a = snapshot(&r);
        assert_eq!(a["cycles"], 100);
        assert_eq!(a["lanes.ops"], 32);
        assert_eq!(a["mcache.misses"], 2);
        assert_eq!(a["mcache.conflicts"], 2);
        assert_eq!(a["translator.abort.cam-miss"], 1);
        let mut acc = a.clone();
        merge(&mut acc, &a);
        assert_eq!(acc["cycles"], 200);
        assert_eq!(acc["translator.abort.cam-miss"], 2);
        // Interpreter runs (all-zero block stats) emit no blocks.* keys,
        // and ledger-off runs emit no ledger.* keys.
        assert!(!a.keys().any(|k| k.starts_with("blocks.")));
        assert!(!a.keys().any(|k| k.starts_with("ledger.")));
    }

    #[test]
    fn snapshots_tag_the_backend() {
        let sb = snapshot(&RunReport {
            cycles: 500,
            backend: liquid_simd_sim::BackendKind::Superblock,
            ..Default::default()
        });
        assert_eq!(sb["backend.superblock.runs"], 1);
        assert_eq!(sb["backend.superblock.cycles"], 500);
        assert!(!sb.contains_key("backend.interp.runs"));
        // Merging runs from different backends keeps both tags.
        let mut merged = sb;
        merge(&mut merged, &snapshot(&RunReport::default()));
        assert_eq!(merged["backend.superblock.runs"], 1);
        assert_eq!(merged["backend.interp.runs"], 1);
    }

    #[test]
    fn ledger_runs_emit_category_counters() {
        let mut ledger = liquid_simd_sim::Ledger::new();
        ledger.charge(7, 9, liquid_simd_sim::LedgerCategory::VectorExecute, 64);
        ledger.event(7, 3, liquid_simd_sim::LedgerCategory::McacheProbe);
        let r = RunReport {
            ledger: Some(ledger),
            ..Default::default()
        };
        let c = snapshot(&r);
        assert_eq!(c["ledger.vector-execute.cycles"], 64);
        assert_eq!(c["ledger.vector-execute.events"], 1);
        assert_eq!(c["ledger.mcache-probe.cycles"], 0);
        assert_eq!(c["ledger.mcache-probe.events"], 1);
    }

    #[test]
    fn superblock_runs_emit_blocks_counters() {
        let r = RunReport {
            blocks: liquid_simd_sim::BlockStats {
                lowered: 3,
                lowered_instrs: 21,
                hits: 40,
                misses: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let c = snapshot(&r);
        assert_eq!(c["blocks.lowered"], 3);
        assert_eq!(c["blocks.cache_hits"], 40);
        assert_eq!(c["blocks.fallback.control"], 0);
    }
}
