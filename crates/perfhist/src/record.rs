//! `perfhist-v1` record construction and manipulation.
//!
//! One record captures one bench invocation: identity (git commit,
//! timestamp, host, machine-config hash), the deterministic results
//! (per-workload simulated cycles, including the scalar baseline and every
//! swept width), the counter-telemetry snapshot, and the wall-clock
//! measurements. Deterministic and wall-clock fields are deliberately
//! separated: `sim_cycles` must be byte-identical run-to-run (the sentinel
//! hard gate), while `wall_s` legitimately varies — [`scrub_wall`] strips
//! exactly the varying fields, and the equality of two scrubbed records is
//! the acceptance test for `--jobs 1` vs `--jobs 8`.

use std::collections::BTreeMap;

use crate::Json;

/// The record schema tag this crate writes.
pub const SCHEMA: &str = "perfhist-v1";

/// The schema tag of serving-telemetry records: one per completed serve
/// batch, written by `liquid-simd serve` / `bench --serve`. They share the
/// history file with [`SCHEMA`] records — readers filter by schema — and
/// carry throughput/latency/cache telemetry plus the order-independent
/// determinism hashes the sentinel gates on.
pub const SERVE_SCHEMA: &str = "perfhist-serve-v1";

/// The schema tag of generated-family records: one per `bench
/// --families` invocation, summarising each kernelgen family as a
/// speedup *distribution* (p10/p50/p90 over its variants) plus the
/// abort tags its untranslatable variants exercised. They share the
/// history file with [`SCHEMA`] records — readers filter by schema.
pub const GEN_SCHEMA: &str = "perfhist-gen-v1";

/// One workload's measurements inside a record.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRow {
    /// Workload name (paper Table 5 set).
    pub name: String,
    /// Scalar-only machine cycles — the speedup denominator.
    pub baseline_cycles: u64,
    /// Liquid machine cycles at the headline width (8 lanes).
    pub sim_cycles: u64,
    /// Liquid machine cycles at every swept width, `(width, cycles)`.
    pub cycles_by_width: Vec<(usize, u64)>,
    /// Wall-clock seconds of the timed 8-lane run.
    pub wall_s: f64,
    /// Simulated cycles per wall-clock second (throughput).
    pub cycles_per_sec: f64,
    /// Compact cycle-ledger snapshot of the headline-width run (category
    /// and region rollups), present only when bench ran with `--ledger`.
    /// `None` keeps the row byte-identical to pre-ledger records.
    pub ledger: Option<Json>,
}

/// Identity fields shared by every record from one bench invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordMeta {
    /// `git rev-parse HEAD`, or `"unknown"` outside a checkout.
    pub commit: String,
    /// Unix seconds at record creation.
    pub timestamp: u64,
    /// Host fingerprint (`os-arch-hostname`).
    pub host: String,
    /// Hex `MachineConfig::fingerprint()` of the liquid config measured.
    pub config_hash: String,
    /// Whether this was the reduced `--smoke` suite.
    pub smoke: bool,
    /// Widths swept.
    pub widths: Vec<usize>,
    /// Execution backend name (`"interp"` / `"superblock"`). Backends are
    /// observationally identical, so this is excluded from `config_hash`;
    /// the sentinel still pairs baselines per backend because wall-clock
    /// throughput differs wildly between them. Records written before the
    /// field existed are read as `"interp"`.
    pub backend: String,
}

/// Builds a `perfhist-v1` record. `wall` carries invocation-level
/// wall-clock extras (e.g. the figure-6 sweep timings) and may be empty.
#[must_use]
pub fn build(
    meta: &RecordMeta,
    workloads: &[WorkloadRow],
    counters: &BTreeMap<String, u64>,
    wall: &[(String, f64)],
) -> Json {
    let mut rec = meta_json(SCHEMA, meta);
    let rows = workloads.iter().map(|w| {
        let by_width = w
            .cycles_by_width
            .iter()
            .map(|&(n, c)| (n.to_string(), c.into()));
        let mut row = vec![
            ("name", w.name.as_str().into()),
            ("baseline_cycles", w.baseline_cycles.into()),
            ("sim_cycles", w.sim_cycles.into()),
            ("cycles_by_width", Json::obj(by_width)),
        ];
        if let Some(ledger) = &w.ledger {
            row.push(("ledger", ledger.clone()));
        }
        row.push(("wall_s", Json::f64(w.wall_s)));
        row.push(("sim_cycles_per_sec", Json::f64(w.cycles_per_sec)));
        Json::obj(row)
    });
    rec.set("workloads", rows.collect());
    let counters = counters.iter().map(|(k, &v)| (k.as_str(), v.into()));
    rec.set("counters", Json::obj(counters));
    rec.set("wall", wall_json(wall));
    rec
}

/// The provenance members every history record starts with.
fn meta_json(schema: &str, meta: &RecordMeta) -> Json {
    Json::obj([
        ("schema", schema.into()),
        ("commit", meta.commit.as_str().into()),
        ("timestamp", meta.timestamp.into()),
        ("host", meta.host.as_str().into()),
        ("config_hash", meta.config_hash.as_str().into()),
        ("smoke", meta.smoke.into()),
        ("widths", meta.widths.iter().copied().collect()),
        ("backend", meta.backend.as_str().into()),
    ])
}

fn wall_json(wall: &[(String, f64)]) -> Json {
    Json::obj(wall.iter().map(|(k, v)| (k.as_str(), Json::f64(*v))))
}

/// One generated family's summary inside a [`GEN_SCHEMA`] record. All
/// fields derive from simulated cycles, so they are deterministic and
/// survive [`scrub_wall`].
#[derive(Clone, Debug, PartialEq)]
pub struct FamilyRow {
    /// Family name from the kernel-v1 spec.
    pub family: String,
    /// How many variants the family expanded to.
    pub variants: u64,
    /// 10th / 50th / 90th percentile headline-width speedup over the
    /// family's translatable variants (nearest-rank; 0 when none).
    pub speedup_p10: f64,
    /// Median speedup.
    pub speedup_p50: f64,
    /// 90th-percentile speedup.
    pub speedup_p90: f64,
    /// Abort tags observed across the family's variants, with counts.
    pub aborts: Vec<(String, u64)>,
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Returns the zero value (`T::default()`) for an empty slice.
#[must_use]
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Builds a `perfhist-gen-v1` record from per-family summaries.
#[must_use]
pub fn build_gen(meta: &RecordMeta, families: &[FamilyRow], wall: &[(String, f64)]) -> Json {
    let mut rec = meta_json(GEN_SCHEMA, meta);
    let rows = families.iter().map(|f| {
        let aborts = f.aborts.iter().map(|(tag, n)| (tag.as_str(), (*n).into()));
        Json::obj([
            ("family", f.family.as_str().into()),
            ("variants", f.variants.into()),
            ("speedup_p10", Json::f64(f.speedup_p10)),
            ("speedup_p50", Json::f64(f.speedup_p50)),
            ("speedup_p90", Json::f64(f.speedup_p90)),
            ("aborts", Json::obj(aborts)),
        ])
    });
    rec.set("families", rows.collect());
    rec.set("wall", wall_json(wall));
    rec
}

/// Strips every field that legitimately varies between two runs of the
/// same code on the same machine: the timestamp and all wall-clock
/// measurements. What remains must be byte-identical for identical code —
/// the determinism contract `--jobs 1` vs `--jobs 8` is tested against.
pub fn scrub_wall(record: &mut Json) {
    record.remove("timestamp");
    record.remove("wall");
    if let Some(Json::Arr(rows)) = record.get("workloads").cloned().as_ref() {
        let scrubbed: Vec<Json> = rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.remove("wall_s");
                r.remove("sim_cycles_per_sec");
                r
            })
            .collect();
        record.set("workloads", Json::Arr(scrubbed));
    }
}

/// `git rev-parse HEAD` in `dir`, or `"unknown"` when unavailable.
#[must_use]
pub fn git_commit(dir: &std::path::Path) -> String {
    std::process::Command::new("git")
        .arg("rev-parse")
        .arg("HEAD")
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `os-arch-hostname` host fingerprint, from compile-time target facts and
/// the runtime hostname (`HOSTNAME` env, then `/etc/hostname`, then
/// `"unknown-host"`).
#[must_use]
pub fn host_fingerprint() -> String {
    let hostname = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|s| s.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown-host".to_string());
    format!(
        "{}-{}-{hostname}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Unix seconds now (0 if the clock predates the epoch).
#[must_use]
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RecordMeta {
        RecordMeta {
            commit: "abc123".to_string(),
            timestamp: 1_700_000_000,
            host: "linux-x86_64-test".to_string(),
            config_hash: "deadbeef".to_string(),
            smoke: false,
            widths: vec![2, 8],
            backend: "interp".to_string(),
        }
    }

    fn row(name: &str, wall_s: f64) -> WorkloadRow {
        WorkloadRow {
            name: name.to_string(),
            baseline_cycles: 1000,
            sim_cycles: 250,
            cycles_by_width: vec![(2, 600), (8, 250)],
            wall_s,
            cycles_per_sec: 250.0 / wall_s,
            ledger: None,
        }
    }

    #[test]
    fn ledger_snapshot_splices_into_the_row_only_when_present() {
        let counters = BTreeMap::new();
        let plain = build(&meta(), &[row("FIR", 0.5)], &counters, &[]);
        assert!(!plain.write().contains("\"ledger\""));
        let mut with = row("FIR", 0.5);
        with.ledger =
            Some(Json::parse(r#"{"total_cycles":250,"categories":{"scalar-execute":{"cycles":250,"events":100}}}"#).unwrap());
        let rec = build(&meta(), &[with], &counters, &[]);
        let rows = rec.get("workloads").and_then(Json::as_arr).unwrap();
        let led = rows[0].get("ledger").expect("ledger spliced");
        assert_eq!(led.get("total_cycles").and_then(Json::as_u64), Some(250));
        // The ledger is deterministic telemetry: it survives scrubbing.
        let mut scrubbed = rec.clone();
        scrub_wall(&mut scrubbed);
        assert!(scrubbed.write().contains("\"ledger\""));
    }

    #[test]
    fn build_emits_schema_and_round_trips() {
        let mut counters = BTreeMap::new();
        counters.insert("cycles".to_string(), 250u64);
        let rec = build(
            &meta(),
            &[row("FIR", 0.5)],
            &counters,
            &[("figure6_serial_s".to_string(), 1.25)],
        );
        let text = rec.write();
        assert!(text.starts_with("{\"schema\":\"perfhist-v1\""));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.write(), text);
        let rows = back.get("workloads").and_then(Json::as_arr).unwrap();
        let cbw = rows[0].get("cycles_by_width").unwrap();
        assert_eq!(cbw.get("8").and_then(Json::as_u64), Some(250));
    }

    #[test]
    fn scrub_wall_removes_exactly_the_varying_fields() {
        let counters = BTreeMap::new();
        let mut a = build(&meta(), &[row("FIR", 0.5)], &counters, &[]);
        let mut b = build(
            &RecordMeta {
                timestamp: 1_700_009_999,
                ..meta()
            },
            &[row("FIR", 0.125)],
            &counters,
            &[("x".to_string(), 9.0)],
        );
        assert_ne!(a.write(), b.write());
        scrub_wall(&mut a);
        scrub_wall(&mut b);
        assert_eq!(a.write(), b.write(), "only wall fields differed");
        assert!(a.get("commit").is_some(), "identity fields survive");
        assert!(a.get("counters").is_some());
    }

    #[test]
    fn gen_record_round_trips_and_scrubs_deterministic() {
        let fam = FamilyRow {
            family: "stencil3_f32".to_string(),
            variants: 12,
            speedup_p10: 1.5,
            speedup_p50: 2.25,
            speedup_p90: 3.0,
            aborts: vec![("trip-not-multiple".to_string(), 2)],
        };
        let mut a = build_gen(
            &meta(),
            std::slice::from_ref(&fam),
            &[("expand_s".to_string(), 0.5)],
        );
        let text = a.write();
        assert!(text.starts_with("{\"schema\":\"perfhist-gen-v1\""));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.write(), text);

        let mut b = build_gen(
            &RecordMeta {
                timestamp: 1_700_009_999,
                ..meta()
            },
            &[fam],
            &[("expand_s".to_string(), 9.0)],
        );
        assert_ne!(a.write(), b.write());
        scrub_wall(&mut a);
        scrub_wall(&mut b);
        assert_eq!(a.write(), b.write(), "family rows are deterministic");
        assert!(a.get("families").is_some());
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 10.0), 1.0);
        assert_eq!(nearest_rank(&v, 50.0), 2.0);
        assert_eq!(nearest_rank(&v, 90.0), 4.0);
        assert_eq!(nearest_rank(&v, 100.0), 4.0);
        assert_eq!(nearest_rank::<f64>(&[], 50.0), 0.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&lat, 50.0), 50);
        assert_eq!(nearest_rank(&lat, 95.0), 95);
        assert_eq!(nearest_rank(&lat, 99.0), 99);
        assert_eq!(nearest_rank(&lat, 100.0), 100);
        assert_eq!(nearest_rank::<u64>(&[], 50.0), 0);
        assert_eq!(nearest_rank(&[7u64], 99.0), 7);
    }
}
