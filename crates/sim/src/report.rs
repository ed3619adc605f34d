//! Run reports.

use std::collections::BTreeMap;

use liquid_simd_isa::Program;
use liquid_simd_ledger::{Ledger, Snapshot as LedgerSnapshot, TOP_REGION};
use liquid_simd_mem::CacheStats;
use liquid_simd_translator::TranslatorStats;

use crate::config::BackendKind;
use crate::mcache::{McacheEntryStats, McacheStats};

/// Superblock-backend telemetry: what the block cache did and when the
/// backend had to fall back to single-step interpretation. All zeros under
/// the interpreter backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks lowered (one per block-cache miss).
    pub lowered: u64,
    /// Total instructions across all lowered blocks (so
    /// `lowered_instrs / lowered` is the average block length).
    pub lowered_instrs: u64,
    /// Dispatches that reused an already-lowered block.
    pub hits: u64,
    /// Dispatches that had to lower a block first.
    pub misses: u64,
    /// Lowered blocks dropped because the microcode they were derived from
    /// was evicted, overwritten, or flushed in the microcode cache.
    pub invalidations: u64,
    /// Instructions retired through lowered blocks (the rest went through
    /// the interpreter: block terminators and fallback steps).
    pub block_instrs: u64,
    /// Fallback steps: a tracer is attached (trace-exact event streams
    /// require the interpreter's per-step stamping).
    pub fallback_tracer: u64,
    /// Fallback steps: the translator had an open window (its
    /// post-retirement tap observes every program-stream retire).
    pub fallback_translator: u64,
    /// Fallback steps: interrupt injection is configured (`interrupt_every`
    /// / `interrupt_at` fire on exact retire indices).
    pub fallback_interrupts: u64,
    /// Fallback steps: the next instruction is control flow (branch, call,
    /// return, halt) — always executed by the interpreter.
    pub fallback_control: u64,
}

impl BlockStats {
    /// Total single-step fallbacks, all reasons.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallback_tracer
            + self.fallback_translator
            + self.fallback_interrupts
            + self.fallback_control
    }

    /// Average lowered-block length in instructions (0 if none).
    #[must_use]
    pub fn avg_block_len(&self) -> f64 {
        if self.lowered == 0 {
            0.0
        } else {
            self.lowered_instrs as f64 / self.lowered as f64
        }
    }

    /// The counters as ordered `(name, value)` pairs: the `blocks.*` keys
    /// of [`RunReport::counters`] and the `explain --json` `blocks` objects.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("lowered", self.lowered),
            ("lowered_instrs", self.lowered_instrs),
            ("cache_hits", self.hits),
            ("cache_misses", self.misses),
            ("invalidations", self.invalidations),
            ("instrs", self.block_instrs),
            ("fallback.tracer", self.fallback_tracer),
            ("fallback.translator", self.fallback_translator),
            ("fallback.interrupts", self.fallback_interrupts),
            ("fallback.control", self.fallback_control),
        ]
    }
}

/// How a call to an outlined function was serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallMode {
    /// Executed the scalar body.
    Scalar,
    /// Executed translated SIMD microcode from the microcode cache.
    Microcode,
}

/// One dynamic call of an outlined (or plain) function — the raw material
/// for the paper's Table 6 (cycles between consecutive calls).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallEvent {
    /// Callee entry PC (code index).
    pub target: u32,
    /// Cycle at which the call issued.
    pub cycle: u64,
    /// How it was serviced.
    pub mode: CallMode,
}

/// One translation attempt's lifetime, in retired-instruction indices.
///
/// `begin_retired` is the retire index of the `bl.v` that started the
/// translation; the first observed body instruction retires at
/// `begin_retired + 1` and the window closes at `end_retired` (the retire
/// index of the `ret` that finished it, or of the instruction whose retire
/// aborted it). The conformance abort sweep replays the run injecting an
/// external abort at every index in `begin_retired..=end_retired`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationWindow {
    /// Entry PC of the outlined function being shadowed.
    pub func_pc: u32,
    /// Retired-instruction count when the translation began.
    pub begin_retired: u64,
    /// Retired-instruction count when it finished or aborted (`0` while
    /// still open — a window left open at halt stays `0`).
    pub end_retired: u64,
    /// Whether the attempt committed microcode (`false`: aborted or open).
    pub completed: bool,
}

/// Where the run's cycles went, partitioned exactly: the three fields sum
/// to [`RunReport::cycles`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Cycles advanced while executing the program (scalar) stream.
    pub scalar_cycles: u64,
    /// Cycles advanced while executing translated microcode.
    pub micro_cycles: u64,
    /// Pipeline-stall cycles charged by a software-JIT translation
    /// (hardware translation runs off the critical path and charges none).
    pub jit_stall_cycles: u64,
}

impl PhaseBreakdown {
    /// Sum of all phases — equals the run's total cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.scalar_cycles + self.micro_cycles + self.jit_stall_cycles
    }

    /// The phases as ordered `(name, value)` pairs: the `phases.*` keys of
    /// [`RunReport::counters`] and the `profile --json` `phases` object.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 3] {
        [
            ("scalar_cycles", self.scalar_cycles),
            ("micro_cycles", self.micro_cycles),
            ("jit_stall_cycles", self.jit_stall_cycles),
        ]
    }
}

/// Cycle attribution for one call target: how often and how long it ran
/// in each servicing mode. Cycles are inclusive call-to-return deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TargetProfile {
    /// Calls serviced by the scalar fallback body.
    pub scalar_calls: u64,
    /// Cycles spent inside scalar-serviced calls.
    pub scalar_cycles: u64,
    /// Calls serviced by translated microcode.
    pub micro_calls: u64,
    /// Cycles spent inside microcode-serviced calls.
    pub micro_cycles: u64,
}

impl TargetProfile {
    /// Total cycles attributed to this target.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.scalar_cycles + self.micro_cycles
    }
}

/// Everything measured during one simulation.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Total cycles.
    pub cycles: u64,
    /// Total retired instructions.
    pub retired: u64,
    /// Retired scalar instructions.
    pub scalar_retired: u64,
    /// Retired vector instructions.
    pub vector_retired: u64,
    /// Total lane-operations performed by retired vector instructions:
    /// each vector retire contributes its active lane count (`vperm`
    /// contributes its block size). `lane_ops / (vector_retired × lanes)`
    /// is the run's SIMD lane utilization.
    pub lane_ops: u64,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
    /// Translator statistics.
    pub translator: TranslatorStats,
    /// Microcode-cache statistics.
    pub mcache: McacheStats,
    /// Per-function microcode-cache statistics (keyed by entry PC; history
    /// survives eviction, including the evictor's identity).
    pub mcache_entries: BTreeMap<u32, McacheEntryStats>,
    /// Exact cycle partition: scalar vs microcode execution vs JIT stall.
    pub phases: PhaseBreakdown,
    /// Per-call-target cycle attribution, keyed by entry PC.
    pub targets: BTreeMap<u32, TargetProfile>,
    /// Call log (for call-distance analyses).
    pub calls: Vec<CallEvent>,
    /// Completed translations: `(function pc, microcode length)`.
    pub translations: Vec<(u32, usize)>,
    /// Every translation attempt's retired-instruction window, in begin
    /// order (committed, aborted, and still-open attempts alike).
    pub windows: Vec<TranslationWindow>,
    /// Whether the program reached `halt`.
    pub halted: bool,
    /// Which execution backend produced this report. Backends are required
    /// to be observationally identical; everything else in the report is
    /// backend-independent.
    pub backend: BackendKind,
    /// Superblock-backend telemetry (all zeros under the interpreter).
    pub blocks: BlockStats,
    /// Exact per-(region, PC, category) cycle attribution, recorded only
    /// when [`crate::MachineConfig::ledger`] is set. The ledger's cycle sum
    /// equals [`PhaseBreakdown::total`] bit-exactly, and both backends
    /// produce byte-identical ledgers for the same run.
    pub ledger: Option<Ledger>,
}

impl RunReport {
    /// Everything the run counted, under flat dotted names: the `counters`
    /// of `perfhist-v1` records, the served `sim.*` metrics and the
    /// evidence of ledger diffs. The names are a stable public surface
    /// (EXPERIMENTS.md documents them). Every value is a monotonic count,
    /// so the maps of several runs sum key by key.
    ///
    /// `blocks.*` keys appear only when the backend did block work, and
    /// `ledger.*` keys only when a ledger was recorded, so interpreter and
    /// ledger-off runs keep the key set of the records that predate them.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let t = &self.translator;
        let m = &self.mcache;
        // Plain inserts, not `collect`: the sort code a `collect` into a
        // map instantiates here changes how this crate splits into codegen
        // units, and one such split cost the superblock backend's block
        // dispatch about 6% of its throughput.
        let mut out = BTreeMap::new();
        for (name, v) in [
            ("cycles", self.cycles),
            ("retired", self.retired),
            ("retired.scalar", self.scalar_retired),
            ("retired.vector", self.vector_retired),
            ("lanes.ops", self.lane_ops),
            ("icache.accesses", self.icache.accesses),
            ("icache.hits", self.icache.hits),
            ("dcache.accesses", self.dcache.accesses),
            ("dcache.hits", self.dcache.hits),
            (
                "mcache.misses",
                m.lookups.saturating_sub(m.hits + m.pending),
            ),
            ("translator.attempts", t.attempts),
            ("translator.successes", t.successes),
            ("translator.aborted", t.aborted()),
            ("translator.uops_emitted", t.uops_emitted),
            ("translator.instrs_observed", t.instrs_observed),
            ("translator.phase.collect", t.collect_observed),
            ("translator.phase.loop", t.loop_observed),
            ("translator.buffer_high_water", t.buffer_high_water),
        ] {
            out.insert(name.to_string(), v);
        }
        let blocks = self.blocks.fields();
        let block_work = blocks.iter().any(|&(_, v)| v > 0);
        let groups: [(&str, &[(&str, u64)]); 3] = [
            ("mcache", &m.fields()),
            ("phases", &self.phases.fields()),
            ("blocks", if block_work { &blocks } else { &[] }),
        ];
        for (prefix, fields) in groups {
            for (name, v) in fields {
                out.insert(format!("{prefix}.{name}"), *v);
            }
        }
        // Backend attribution: summed across runs or serve shards, these
        // show how work split between backends.
        let backend = self.backend.name();
        out.insert(format!("backend.{backend}.runs"), 1);
        out.insert(format!("backend.{backend}.cycles"), self.cycles);
        for (tag, &n) in &t.aborts {
            out.insert(format!("translator.abort.{tag}"), n);
        }
        if let Some(ledger) = &self.ledger {
            for (cat, bucket) in ledger.category_totals() {
                out.insert(format!("ledger.{}.cycles", cat.name()), bucket.cycles);
                out.insert(format!("ledger.{}.events", cat.name()), bucket.events);
            }
        }
        out
    }

    /// Whether a [`counters`](RunReport::counters) key is evidence in a
    /// ledger diff. `ledger.*` keys restate the snapshot's categories and
    /// `backend.*` keys are run metadata, not cost, so neither is.
    #[must_use]
    pub fn is_evidence(counter: &str) -> bool {
        !counter.starts_with("ledger.") && !counter.starts_with("backend.")
    }

    /// The run's ledger as a labelled snapshot, corroborated by the run's
    /// evidence [`counters`](RunReport::counters): the one constructor
    /// behind `diff`, `explain`, `profile` and `bench --ledger`. Each
    /// charged region is named by the program label at its entry PC. A
    /// ledger-off run gives an empty attribution.
    #[must_use]
    pub fn ledger_snapshot(&self, label: &str, program: &Program) -> LedgerSnapshot {
        let empty = Ledger::new();
        let ledger = self.ledger.as_ref().unwrap_or(&empty);
        let mut names = BTreeMap::new();
        let charged = ledger
            .region_totals()
            .into_keys()
            .filter(|&pc| pc != TOP_REGION);
        names.extend(charged.filter_map(|pc| program.label_at(pc).map(|l| (pc, l.to_string()))));
        let mut snap = LedgerSnapshot::from_ledger(label, ledger, &names);
        snap.counters = self.counters();
        snap.counters.retain(|k, _| RunReport::is_evidence(k));
        snap
    }

    /// Cycles between the first two calls of `target` (paper Table 6).
    #[must_use]
    pub fn first_call_gap(&self, target: u32) -> Option<u64> {
        let mut calls = self.calls.iter().filter(|c| c.target == target);
        let first = calls.next()?.cycle;
        let second = calls.next()?.cycle;
        Some(second - first)
    }

    /// Entry PCs of every distinct call target, in first-call order.
    #[must_use]
    pub fn call_targets(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for c in &self.calls {
            if !out.contains(&c.target) {
                out.push(c.target);
            }
        }
        out
    }

    /// Fraction of calls to `target` serviced by microcode.
    #[must_use]
    pub fn microcode_fraction(&self, target: u32) -> f64 {
        let (total, micro) = self
            .calls
            .iter()
            .filter(|c| c.target == target)
            .fold((0u64, 0u64), |(t, m), c| {
                (t + 1, m + u64::from(c.mode == CallMode::Microcode))
            });
        if total == 0 {
            0.0
        } else {
            micro as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_stats_fields_use_stable_names() {
        let b = BlockStats {
            lowered: 2,
            lowered_instrs: 10,
            hits: 7,
            misses: 2,
            invalidations: 1,
            block_instrs: 80,
            fallback_tracer: 0,
            fallback_translator: 3,
            fallback_interrupts: 0,
            fallback_control: 11,
        };
        let c = RunReport {
            blocks: b,
            ..RunReport::default()
        }
        .counters();
        assert_eq!(c["blocks.lowered"], 2);
        assert_eq!(c["blocks.cache_hits"], 7);
        assert_eq!(c["blocks.invalidations"], 1);
        assert_eq!(c["blocks.fallback.control"], 11);
        assert_eq!(c["blocks.fallback.tracer"], 0);
        assert_eq!(c.keys().filter(|k| k.starts_with("blocks.")).count(), 10);
        assert!((b.avg_block_len() - 5.0).abs() < 1e-12);
        assert_eq!(b.fallbacks(), 14);
    }

    #[test]
    fn counters_derive_misses_and_tag_aborts_and_backend() {
        let mut translator = TranslatorStats {
            attempts: 3,
            ..TranslatorStats::default()
        };
        translator.record_abort("cam-miss");
        let r = RunReport {
            cycles: 100,
            vector_retired: 4,
            lane_ops: 32,
            mcache: McacheStats {
                lookups: 10,
                hits: 7,
                pending: 1,
                conflicts: 2,
                ..McacheStats::default()
            },
            translator,
            backend: BackendKind::Superblock,
            ..RunReport::default()
        };
        let c = r.counters();
        assert_eq!(c["cycles"], 100);
        assert_eq!(c["lanes.ops"], 32);
        assert_eq!(c["mcache.misses"], 2);
        assert_eq!(c["mcache.conflicts"], 2);
        assert_eq!(c["translator.abort.cam-miss"], 1);
        assert_eq!(c["backend.superblock.runs"], 1);
        assert_eq!(c["backend.superblock.cycles"], 100);
        assert!(!c.contains_key("backend.interp.runs"));
        // All-zero block stats emit no blocks.* keys, and ledger-off runs
        // emit no ledger.* keys.
        assert!(!c.keys().any(|k| k.starts_with("blocks.")));
        assert!(!c.keys().any(|k| k.starts_with("ledger.")));
    }

    #[test]
    fn ledger_runs_emit_category_counters_that_are_not_evidence() {
        let mut ledger = Ledger::new();
        ledger.charge(7, 9, liquid_simd_ledger::Category::VectorExecute, 64);
        ledger.event(7, 3, liquid_simd_ledger::Category::McacheProbe);
        let r = RunReport {
            cycles: 64,
            ledger: Some(ledger),
            ..RunReport::default()
        };
        let c = r.counters();
        assert_eq!(c["ledger.vector-execute.cycles"], 64);
        assert_eq!(c["ledger.vector-execute.events"], 1);
        assert_eq!(c["ledger.mcache-probe.cycles"], 0);
        assert_eq!(c["ledger.mcache-probe.events"], 1);
        let program = Program {
            code: Vec::new(),
            data: Vec::new(),
            symbols: Vec::new(),
            entry: 0,
            data_base: 0,
            labels: vec![(7, "f".to_string())],
        };
        let snap = r.ledger_snapshot("t", &program);
        assert_eq!(snap.total_cycles, 64);
        assert_eq!(snap.regions["f @7"].cycles, 64);
        assert_eq!(snap.counters["cycles"], 64);
        assert!(snap.counters.keys().all(|k| RunReport::is_evidence(k)));
        assert!(!snap.counters.contains_key("backend.interp.runs"));
        assert!(!snap.counters.contains_key("ledger.vector-execute.cycles"));
    }

    /// An outlined loop called six times: it translates on the first call
    /// and runs as microcode after, so every counter family is exercised.
    const OUTLINED_LOOP: &str = r"
.data
.i32 A: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
.i32 B: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    mov r5, #0
again:
    bl.v scale
    add r5, r5, #1
    cmp r5, #6
    blt again
    halt
scale:
    mov r0, #0
top:
    ldw r1, [A + r0]
    add r1, r1, r1
    stw [B + r0], r1
    add r0, r0, #1
    cmp r0, #16
    blt top
    ret
";

    #[test]
    fn counter_key_sets_are_pinned() {
        let program = liquid_simd_isa::asm::assemble(OUTLINED_LOOP).expect("assembles");
        let keys = |cfg: crate::MachineConfig| -> Vec<String> {
            let report = crate::Machine::new(&program, cfg).run().expect("runs");
            report.counters().into_keys().collect()
        };
        let interp = keys(crate::MachineConfig::liquid(8));
        let superblock = keys(
            crate::MachineConfig::liquid(8)
                .with_backend(BackendKind::Superblock)
                .with_ledger(true),
        );
        // Every run carries these; a dropped or renamed name fails here.
        const ALWAYS: [&str; 27] = [
            "cycles",
            "dcache.accesses",
            "dcache.hits",
            "icache.accesses",
            "icache.hits",
            "lanes.ops",
            "mcache.conflicts",
            "mcache.evictions",
            "mcache.hits",
            "mcache.inserts",
            "mcache.lookups",
            "mcache.misses",
            "mcache.pending",
            "phases.jit_stall_cycles",
            "phases.micro_cycles",
            "phases.scalar_cycles",
            "retired",
            "retired.scalar",
            "retired.vector",
            "translator.aborted",
            "translator.attempts",
            "translator.buffer_high_water",
            "translator.instrs_observed",
            "translator.phase.collect",
            "translator.phase.loop",
            "translator.successes",
            "translator.uops_emitted",
        ];
        const BLOCKS: [&str; 10] = [
            "blocks.cache_hits",
            "blocks.cache_misses",
            "blocks.fallback.control",
            "blocks.fallback.interrupts",
            "blocks.fallback.tracer",
            "blocks.fallback.translator",
            "blocks.instrs",
            "blocks.invalidations",
            "blocks.lowered",
            "blocks.lowered_instrs",
        ];
        const LEDGER: [&str; 12] = [
            "ledger.dispatch.cycles",
            "ledger.dispatch.events",
            "ledger.mcache-miss.cycles",
            "ledger.mcache-miss.events",
            "ledger.mcache-probe.cycles",
            "ledger.mcache-probe.events",
            "ledger.scalar-execute.cycles",
            "ledger.scalar-execute.events",
            "ledger.translate-overhead.cycles",
            "ledger.translate-overhead.events",
            "ledger.vector-execute.cycles",
            "ledger.vector-execute.events",
        ];
        let expect = |parts: &[&[&str]]| -> Vec<String> {
            let mut all: Vec<String> = parts.concat().into_iter().map(String::from).collect();
            all.sort();
            all
        };
        let interp_tags = ["backend.interp.cycles", "backend.interp.runs"];
        assert_eq!(interp, expect(&[&ALWAYS, &interp_tags]));
        let superblock_tags = ["backend.superblock.cycles", "backend.superblock.runs"];
        assert_eq!(
            superblock,
            expect(&[&ALWAYS, &superblock_tags, &BLOCKS, &LEDGER])
        );
    }

    #[test]
    fn call_gap_and_fraction() {
        let r = RunReport {
            calls: vec![
                CallEvent {
                    target: 5,
                    cycle: 100,
                    mode: CallMode::Scalar,
                },
                CallEvent {
                    target: 9,
                    cycle: 200,
                    mode: CallMode::Scalar,
                },
                CallEvent {
                    target: 5,
                    cycle: 450,
                    mode: CallMode::Microcode,
                },
            ],
            ..RunReport::default()
        };
        assert_eq!(r.first_call_gap(5), Some(350));
        assert_eq!(r.first_call_gap(9), None);
        assert_eq!(r.call_targets(), vec![5, 9]);
        assert!((r.microcode_fraction(5) - 0.5).abs() < 1e-12);
        assert_eq!(r.microcode_fraction(7), 0.0);
    }
}
