//! The cycle ledger: exact, deterministic cycle attribution.
//!
//! Every simulated cycle the machine spends is charged to exactly one
//! *bucket* keyed by `(region, pc, category)`:
//!
//! * **region** — the entry PC of the innermost call target the cycle was
//!   spent under ([`TOP_REGION`] for straight-line code outside any call,
//!   the microcode entry's function PC for accelerator execution);
//! * **pc** — the retiring instruction's PC (program index for the scalar
//!   stream, microcode position for the accelerator stream);
//! * **category** — *why* the cycle was spent (see [`Category`]).
//!
//! The hard invariant, enforced by tier-1 tests and the CI `ledger-smoke`
//! job: the sum of all bucket cycles equals the run's `PhaseBreakdown`
//! total bit-exactly, on both execution backends. Event-only categories
//! (mcache probes/misses, microcode dispatches) charge zero cycles and
//! count occurrences instead, so they corroborate without perturbing the
//! partition.
//!
//! The ledger is a plain ordered map — merging, totalling, and rendering
//! are all deterministic, and two ledgers from observationally identical
//! runs compare byte-identical when rendered. [`Snapshot`] is the compact,
//! diff-able rollup (per-region × per-category, no per-PC detail) embedded
//! in `perfhist-v1` records and consumed by [`diff`](crate::diff).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;

use std::collections::BTreeMap;
use std::fmt;

use liquid_simd_trace::json::Json;

/// Region id for cycles spent outside any call (top-level driver code).
pub const TOP_REGION: u32 = u32::MAX;

/// Why a cycle was spent (or an event happened). The first four partition
/// every simulated cycle; the last three are event-only corroboration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Scalar-stream execution outside any abort-replay region.
    ScalarExecute,
    /// Accelerator execution: microcode-stream retires, plus native
    /// vector instructions in the program stream.
    VectorExecute,
    /// Translation cost: JIT pipeline stalls (hardware translation
    /// finishes charge an event with zero cycles).
    TranslateOverhead,
    /// Scalar-stream execution inside a region whose translation aborted
    /// permanently — the scalar fallback the paper's §4.2 replay pays.
    AbortReplay,
    /// One microcode-cache lookup (event-only).
    McacheProbe,
    /// One microcode-cache miss (event-only).
    McacheMiss,
    /// One dispatch into resident microcode (event-only).
    Dispatch,
}

impl Category {
    /// Every category, in canonical (ordering) order.
    pub const ALL: [Category; 7] = [
        Category::ScalarExecute,
        Category::VectorExecute,
        Category::TranslateOverhead,
        Category::AbortReplay,
        Category::McacheProbe,
        Category::McacheMiss,
        Category::Dispatch,
    ];

    /// The stable kebab-case name (the public schema surface).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Category::ScalarExecute => "scalar-execute",
            Category::VectorExecute => "vector-execute",
            Category::TranslateOverhead => "translate-overhead",
            Category::AbortReplay => "abort-replay",
            Category::McacheProbe => "mcache-probe",
            Category::McacheMiss => "mcache-miss",
            Category::Dispatch => "dispatch",
        }
    }

    /// Parses a stable name back into the category.
    #[must_use]
    pub fn parse(name: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One attribution bucket: cycles charged plus charge occurrences.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Simulated cycles charged to this bucket.
    pub cycles: u64,
    /// Number of charges (retires for execute categories, occurrences for
    /// event-only categories).
    pub events: u64,
}

/// Per-region rollup: totals plus the per-category split.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionTotal {
    /// Cycles charged under this region, all categories.
    pub cycles: u64,
    /// Events charged under this region, all categories.
    pub events: u64,
    /// Per-category bucket totals.
    pub by_category: BTreeMap<Category, Bucket>,
}

/// The attribution ledger for one run. Ordered map ⇒ deterministic
/// iteration, merging, and rendering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    buckets: BTreeMap<(u32, u32, Category), Bucket>,
}

impl Ledger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Charges `cycles` to the `(region, pc, category)` bucket and counts
    /// one event.
    pub fn charge(&mut self, region: u32, pc: u32, category: Category, cycles: u64) {
        let b = self.buckets.entry((region, pc, category)).or_default();
        b.cycles += cycles;
        b.events += 1;
    }

    /// Counts one zero-cycle event on the `(region, pc, category)` bucket.
    pub fn event(&mut self, region: u32, pc: u32, category: Category) {
        self.charge(region, pc, category, 0);
    }

    /// True when nothing has been charged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Number of distinct buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Iterates buckets in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32, Category), &Bucket)> {
        self.buckets.iter()
    }

    /// Sum of all bucket cycles — must equal the run's phase total.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.buckets.values().map(|b| b.cycles).sum()
    }

    /// Adds every bucket of `other` into `self` (suite-wide aggregation).
    pub fn merge(&mut self, other: &Ledger) {
        for (k, v) in &other.buckets {
            let b = self.buckets.entry(*k).or_default();
            b.cycles += v.cycles;
            b.events += v.events;
        }
    }

    /// Per-category rollup across all regions and PCs.
    #[must_use]
    pub fn category_totals(&self) -> BTreeMap<Category, Bucket> {
        let mut out: BTreeMap<Category, Bucket> = BTreeMap::new();
        for (&(_, _, cat), v) in &self.buckets {
            let b = out.entry(cat).or_default();
            b.cycles += v.cycles;
            b.events += v.events;
        }
        out
    }

    /// Per-region rollup with the per-category split.
    #[must_use]
    pub fn region_totals(&self) -> BTreeMap<u32, RegionTotal> {
        let mut out: BTreeMap<u32, RegionTotal> = BTreeMap::new();
        for (&(region, _, cat), v) in &self.buckets {
            let r = out.entry(region).or_default();
            r.cycles += v.cycles;
            r.events += v.events;
            let b = r.by_category.entry(cat).or_default();
            b.cycles += v.cycles;
            b.events += v.events;
        }
        out
    }

    /// Renders the full per-PC ledger as deterministic single-line JSON —
    /// the byte-identity surface for cross-backend and cross-jobs tests.
    #[must_use]
    pub fn to_json(&self) -> String {
        let buckets = self.buckets.iter().map(|(&(region, pc, cat), b)| {
            Json::Arr(vec![
                region.into(),
                pc.into(),
                cat.name().into(),
                b.cycles.into(),
                b.events.into(),
            ])
        });
        Json::obj([
            ("schema", "ledger-v1".into()),
            ("total_cycles", self.total_cycles().into()),
            ("buckets", buckets.collect()),
        ])
        .write()
    }
}

/// How a region id renders in snapshots and diff output.
#[must_use]
pub fn region_name(region: u32, names: &BTreeMap<u32, String>) -> String {
    if region == TOP_REGION {
        return "(top-level)".to_string();
    }
    names
        .get(&region)
        .map_or_else(|| format!("@{region}"), |n| format!("{n} @{region}"))
}

/// Per-region entry of a [`Snapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionSnap {
    /// Cycles charged under the region.
    pub cycles: u64,
    /// Events charged under the region.
    pub events: u64,
    /// Per-category cycle split (names, so snapshots parsed back from
    /// history records round-trip even across category additions).
    pub by_category: BTreeMap<String, u64>,
}

/// The compact, diff-able rollup of one run's ledger: per-category and
/// per-region totals plus corroborating flat counters. This is what gets
/// embedded in `perfhist-v1` records (behind `bench --ledger`) and what
/// [`diff::diff`] consumes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Human label for the run ("179.art w8", "BENCH run 4", …).
    pub label: String,
    /// Total cycles of the run.
    pub total_cycles: u64,
    /// Per-category totals, keyed by stable category name.
    pub categories: BTreeMap<String, Bucket>,
    /// Per-region totals, keyed by display name
    /// (`label @entry` / `@entry` / `(top-level)`).
    pub regions: BTreeMap<String, RegionSnap>,
    /// Corroborating evidence: any flat dotted-name counters
    /// (`mcache.conflicts`, `lanes.ops`, …) the caller wants diffed
    /// alongside the attribution.
    pub counters: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Rolls a ledger up into a snapshot. `names` maps region entry PCs to
    /// labels for display.
    #[must_use]
    pub fn from_ledger(label: &str, ledger: &Ledger, names: &BTreeMap<u32, String>) -> Snapshot {
        let categories = ledger
            .category_totals()
            .into_iter()
            .map(|(c, b)| (c.name().to_string(), b))
            .collect();
        let regions = ledger
            .region_totals()
            .into_iter()
            .map(|(r, t)| {
                (
                    region_name(r, names),
                    RegionSnap {
                        cycles: t.cycles,
                        events: t.events,
                        by_category: t
                            .by_category
                            .into_iter()
                            .map(|(c, b)| (c.name().to_string(), b.cycles))
                            .collect(),
                    },
                )
            })
            .collect();
        Snapshot {
            label: label.to_string(),
            total_cycles: ledger.total_cycles(),
            categories,
            regions,
            counters: BTreeMap::new(),
        }
    }

    /// The snapshot body (without the label) — the `ledger` object
    /// embedded in perfhist rows and `explain`/`profile` documents.
    #[must_use]
    pub fn json(&self) -> Json {
        let categories = self.categories.iter().map(|(name, b)| {
            let bucket = Json::obj([("cycles", b.cycles.into()), ("events", b.events.into())]);
            (name.clone(), bucket)
        });
        let regions = self.regions.iter().map(|(name, r)| {
            let by_category = r.by_category.iter().map(|(c, &n)| (c.clone(), n.into()));
            let region = Json::obj([
                ("cycles", r.cycles.into()),
                ("events", r.events.into()),
                ("by_category", Json::obj(by_category)),
            ]);
            (name.clone(), region)
        });
        Json::obj([
            ("total_cycles", self.total_cycles.into()),
            ("categories", Json::obj(categories)),
            ("regions", Json::obj(regions)),
        ])
    }

    /// [`Snapshot::json`] as deterministic single-line JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json().write()
    }

    /// The top `n` (region, category, cycles) buckets by cycle weight —
    /// the attribution attached to structured width-anomaly entries.
    #[must_use]
    pub fn top_buckets(&self, n: usize) -> Vec<(String, String, u64)> {
        let mut rows: Vec<(String, String, u64)> = self
            .regions
            .iter()
            .flat_map(|(region, r)| {
                r.by_category
                    .iter()
                    .map(|(cat, &cycles)| (region.clone(), cat.clone(), cycles))
            })
            .filter(|&(_, _, cycles)| cycles > 0)
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        rows.truncate(n);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ledger {
        let mut l = Ledger::new();
        l.charge(10, 12, Category::VectorExecute, 100);
        l.charge(10, 13, Category::VectorExecute, 50);
        l.charge(TOP_REGION, 1, Category::ScalarExecute, 30);
        l.charge(10, 10, Category::TranslateOverhead, 0);
        l.event(10, 1, Category::McacheProbe);
        l.event(10, 1, Category::Dispatch);
        l
    }

    #[test]
    fn totals_partition_and_merge_adds() {
        let l = sample();
        assert_eq!(l.total_cycles(), 180);
        let cats = l.category_totals();
        assert_eq!(cats[&Category::VectorExecute].cycles, 150);
        assert_eq!(cats[&Category::ScalarExecute].cycles, 30);
        assert_eq!(cats[&Category::McacheProbe].events, 1);
        let regions = l.region_totals();
        assert_eq!(regions[&10].cycles, 150);
        assert_eq!(regions[&TOP_REGION].cycles, 30);
        let mut m = l.clone();
        m.merge(&l);
        assert_eq!(m.total_cycles(), 360);
        assert_eq!(m.category_totals()[&Category::Dispatch].events, 2);
    }

    #[test]
    fn category_names_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::parse(c.name()), Some(c));
        }
        assert_eq!(Category::parse("nope"), None);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"ledger-v1\",\"total_cycles\":180,"));
        // Region 10's buckets precede TOP_REGION (u32::MAX sorts last).
        let probe = a.find("mcache-probe").unwrap();
        let scalar = a.find("scalar-execute").unwrap();
        assert!(probe < scalar, "{a}");
    }

    #[test]
    fn snapshot_rolls_up_and_ranks_buckets() {
        let mut names = BTreeMap::new();
        names.insert(10u32, "kernel".to_string());
        let snap = Snapshot::from_ledger("t w8", &sample(), &names);
        assert_eq!(snap.total_cycles, 180);
        assert_eq!(snap.categories["vector-execute"].cycles, 150);
        assert_eq!(snap.regions["kernel @10"].cycles, 150);
        assert_eq!(snap.regions["(top-level)"].cycles, 30);
        let top = snap.top_buckets(2);
        assert_eq!(top.len(), 2);
        assert_eq!(
            top[0],
            ("kernel @10".to_string(), "vector-execute".to_string(), 150)
        );
        let json = snap.to_json();
        assert!(json.starts_with("{\"total_cycles\":180,\"categories\":{"));
        assert!(json.contains("\"kernel @10\":{\"cycles\":150"));
    }
}
