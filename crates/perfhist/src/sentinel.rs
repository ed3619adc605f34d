//! The regression sentinel: compares the newest history record against a
//! baseline window and emits a `sentinel-v1` verdict.
//!
//! Two classes of signal, treated very differently:
//!
//! * **Simulated cycles are deterministic.** The same code at the same
//!   machine config must produce *identical* `sim_cycles` — so the gate is
//!   exact match, and **any** drift (faster or slower) fails: an
//!   unexplained improvement is as suspicious as a regression, and an
//!   intended one must be acknowledged by appending a fresh baseline.
//! * **Wall-clock throughput is noisy.** The sentinel compares the newest
//!   `sim_cycles_per_sec` against the baseline window's median with a MAD-
//!   scaled noise band and only *warns* — CI never fails on wall clock.
//!
//! `perfhist-serve-v1` records (the serve daemon's batch telemetry) get
//! the same two-class treatment: the `determinism` hashes are exact-match
//! gated against the latest older serve record that served the same
//! request multiset (equal `requests_hash`), while throughput and latency
//! are advisory. A serve record with no comparable baseline is only a
//! failure when the history has nothing else to gate on — the bench gate
//! keeps CI honest while a new request mix seeds its first record.

use liquid_simd_trace::metrics::{mad, median};

use crate::record::{SCHEMA, SERVE_SCHEMA};
use crate::Json;

/// Sentinel tuning.
#[derive(Clone, Debug)]
pub struct SentinelOptions {
    /// Only accept baseline records whose `commit` equals this.
    pub baseline_commit: Option<String>,
    /// Baseline window size (most recent comparable records).
    pub window: usize,
    /// Wall-clock noise threshold as a fraction of the baseline median
    /// (the warn band is `max(noise_frac × median, 3 × MAD)`).
    pub noise_frac: f64,
}

impl Default for SentinelOptions {
    fn default() -> SentinelOptions {
        SentinelOptions {
            baseline_commit: None,
            window: 5,
            noise_frac: 0.15,
        }
    }
}

/// The sentinel's outcome: the `sentinel-v1` verdict document plus the
/// process-level pass/fail bit CI keys off.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The `sentinel-v1` JSON document.
    pub json: Json,
    /// Whether CI must fail: any cycle drift, no history at all, or no
    /// comparable baseline. The last matters because a config change
    /// (MachineConfig defaults, width sweep, smoke set) changes the
    /// comparability key — if that silently passed, such a change would
    /// disable the gate until someone noticed; instead it must be
    /// acknowledged by re-seeding the history.
    pub failed: bool,
}

fn is_perfhist(r: &Json) -> bool {
    r.get("schema").and_then(Json::as_str) == Some(SCHEMA)
}

fn is_serve(r: &Json) -> bool {
    r.get("schema").and_then(Json::as_str) == Some(SERVE_SCHEMA)
}

fn serve_det<'a>(r: &'a Json, key: &str) -> Option<&'a Json> {
    r.get("determinism").and_then(|d| d.get(key))
}

/// Gates the newest `perfhist-serve-v1` record against the latest older
/// serve record that served the same request multiset. Returns the serve
/// sub-verdict and whether it fails CI; `None` when the history holds no
/// serve records at all.
fn serve_check(records: &[&Json], have_bench: bool) -> Option<(Json, bool)> {
    let (newest, older) = records.split_last()?;
    let req_hash = serve_det(newest, "requests_hash").and_then(Json::as_str);
    let mut verdict = Json::obj([("records", Json::u64(records.len() as u64))]);
    let baseline = req_hash.and_then(|want| {
        older
            .iter()
            .rev()
            .find(|r| serve_det(r, "requests_hash").and_then(Json::as_str) == Some(want))
    });
    let Some(baseline) = baseline else {
        // Nothing served this request multiset before. With bench records
        // around the deterministic gate is still armed, so this is
        // advisory; in a serve-only history it is the no-baseline failure.
        let failed = !have_bench;
        verdict.set(
            "status",
            if failed { "no-baseline" } else { "unchecked" }.into(),
        );
        return Some((verdict, failed));
    };
    let mut drift: Vec<Json> = Vec::new();
    for key in ["responses_hash", "sim_cycles_total"] {
        let base = serve_det(baseline, key);
        let cur = serve_det(newest, key);
        if base != cur {
            drift.push(Json::obj([
                ("metric", key.into()),
                ("baseline", base.cloned().unwrap_or(Json::Null)),
                ("current", cur.cloned().unwrap_or(Json::Null)),
            ]));
        }
    }
    let failed = !drift.is_empty();
    verdict.set("status", if failed { "fail" } else { "pass" }.into());
    verdict.set("requests_hash", req_hash.unwrap_or("?").into());
    verdict.set("drift", Json::Arr(drift));
    Some((verdict, failed))
}

/// Backend name of a record. The field postdates the history format;
/// records written before execution backends existed are interpreter
/// records.
fn backend_of(r: &Json) -> &str {
    r.get("backend").and_then(Json::as_str).unwrap_or("interp")
}

fn comparable(newest: &Json, candidate: &Json) -> bool {
    // Backends must agree cycle-for-cycle, but their wall-clock throughput
    // differs by design — pairing across backends would drown the
    // advisory wall-clock band in backend noise, so baselines are
    // per-backend (cross-backend equality has its own gate,
    // [`cross_check`]).
    if backend_of(newest) != backend_of(candidate) {
        return false;
    }
    for key in ["config_hash", "smoke", "widths"] {
        if newest.get(key) != candidate.get(key) {
            return false;
        }
    }
    true
}

fn workload_rows(record: &Json) -> Vec<&Json> {
    record
        .get("workloads")
        .and_then(Json::as_arr)
        .map(|rows| rows.iter().collect())
        .unwrap_or_default()
}

fn row_named<'a>(record: &'a Json, name: &str) -> Option<&'a Json> {
    workload_rows(record)
        .into_iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
}

/// A flat `name → count` list in record order: the unsigned-integer
/// entries of a JSON object.
fn counts(obj: Option<&Json>) -> Vec<(String, u64)> {
    obj.and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// A record's deterministic cycle counts in record order, keyed by
/// `(workload, metric)`: `sim_cycles`, `baseline_cycles`, then
/// `cycles_by_width.<w>` per width.
fn cycle_counts(record: &Json) -> Vec<((&str, String), u64)> {
    let mut out = Vec::new();
    for row in workload_rows(record) {
        let Some(name) = row.get("name").and_then(Json::as_str) else {
            continue;
        };
        for metric in ["sim_cycles", "baseline_cycles"] {
            if let Some(v) = row.get(metric).and_then(Json::as_u64) {
                out.push(((name, metric.to_string()), v));
            }
        }
        for (w, v) in counts(row.get("cycles_by_width")) {
            out.push(((name, format!("cycles_by_width.{w}")), v));
        }
    }
    out
}

/// The one exact comparator of two keyed count lists: every key of `a`
/// must be in `b` with an equal value, and with `both_ways` every key of
/// `b` must be in `a` too. Yields `(key, a, b)` per mismatch, `None` for
/// the side that lacks the key.
fn mismatches<'a, K: PartialEq>(
    a: &'a [(K, u64)],
    b: &'a [(K, u64)],
    both_ways: bool,
) -> Vec<(&'a K, Option<u64>, Option<u64>)> {
    let find = |list: &[(K, u64)], key: &K| list.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
    let mut out: Vec<_> = a
        .iter()
        .filter(|(k, v)| find(b, k) != Some(*v))
        .map(|(k, v)| (k, Some(*v), find(b, k)))
        .collect();
    if both_ways {
        let only_b = b.iter().filter(|(k, _)| find(a, k).is_none());
        out.extend(only_b.map(|(k, v)| (k, None, Some(*v))));
    }
    out
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::u64)
}

/// Exact comparison of two records' cycle counts: the drift entries (the
/// two sides keyed `labels`, `null` where a workload or width is missing)
/// and the number of workloads both records hold.
fn cycle_drift(a: &Json, b: &Json, both_ways: bool, labels: [&str; 2]) -> (Vec<Json>, u64) {
    let drift = mismatches(&cycle_counts(a), &cycle_counts(b), both_ways)
        .into_iter()
        .map(|((workload, metric), x, y)| {
            Json::obj([
                ("workload", (*workload).into()),
                ("metric", metric.as_str().into()),
                (labels[0], opt_u64(x)),
                (labels[1], opt_u64(y)),
            ])
        })
        .collect();
    let names = |r| workload_rows(r).into_iter().filter_map(|w| w.get("name"));
    let checked = names(a).filter(|n| names(b).any(|m| m == *n)).count();
    (drift, checked as u64)
}

/// Runs the sentinel over a loaded history (file order: oldest first).
#[must_use]
pub fn check(history: &[Json], opts: &SentinelOptions) -> Verdict {
    let records: Vec<&Json> = history.iter().filter(|r| is_perfhist(r)).collect();
    let serve_records: Vec<&Json> = history.iter().filter(|r| is_serve(r)).collect();
    let serve = serve_check(&serve_records, !records.is_empty());
    let Some((newest, older)) = records.split_last() else {
        if let Some((serve_json, serve_failed)) = serve {
            // Serve-only history: the serve gate is the whole verdict.
            let status = match serve_json.get("status").and_then(Json::as_str) {
                Some("no-baseline") => "no-baseline",
                _ if serve_failed => "fail",
                _ => "pass",
            };
            let mut json = Json::obj([("schema", "sentinel-v1".into()), ("status", status.into())]);
            json.set("serve", serve_json);
            return Verdict {
                json,
                failed: serve_failed,
            };
        }
        let json = Json::obj([
            ("schema", "sentinel-v1".into()),
            ("status", "no-history".into()),
        ]);
        return Verdict { json, failed: true };
    };
    let commit = newest.get("commit").and_then(Json::as_str).unwrap_or("?");
    let mut window: Vec<&&Json> = older
        .iter()
        .filter(|r| comparable(newest, r))
        .filter(|r| {
            opts.baseline_commit
                .as_deref()
                .is_none_or(|want| r.get("commit").and_then(Json::as_str) == Some(want))
        })
        .collect();
    if window.len() > opts.window {
        window.drain(..window.len() - opts.window);
    }
    let mut verdict = Json::obj([("schema", "sentinel-v1".into()), ("commit", commit.into())]);
    let Some(reference) = window.last().copied() else {
        // No comparable record: the config hash, width sweep, or smoke
        // set changed (or the only record is the newest one). Fail loudly
        // — a green job here would mean the gate silently turned itself
        // off; a deliberate config change re-seeds bench/history.jsonl.
        verdict.set("status", "no-baseline".into());
        verdict.set("baseline_window", Json::u64(0));
        if let Some((serve_json, _)) = serve {
            verdict.set("serve", serve_json);
        }
        return Verdict {
            json: verdict,
            failed: true,
        };
    };
    verdict.set(
        "baseline_commit",
        reference
            .get("commit")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .into(),
    );
    verdict.set("baseline_window", Json::u64(window.len() as u64));

    // --- Exact-match gate on deterministic cycles --------------------------
    // Every count of the baseline must reappear unchanged; a workload or
    // width new in the newest record has nothing to gate against.
    let (drift, checked) = cycle_drift(reference, newest, false, ["baseline", "current"]);

    // --- Robust wall-clock advisory ---------------------------------------
    let mut warnings: Vec<Json> = Vec::new();
    for row in workload_rows(newest) {
        let Some(name) = row.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(current) = row.get("sim_cycles_per_sec").and_then(Json::as_f64) else {
            continue;
        };
        let rates: Vec<f64> = window
            .iter()
            .filter_map(|r| row_named(r, name))
            .filter_map(|r| r.get("sim_cycles_per_sec").and_then(Json::as_f64))
            .filter(|&r| r > 0.0)
            .collect();
        if rates.is_empty() || current <= 0.0 {
            continue;
        }
        let med = median(&rates);
        let spread = mad(&rates);
        // A single-sample baseline has no measurable spread — `mad()`
        // returns 0 below two samples by construction — so the 3×MAD term
        // would silently contribute nothing and the band would understate
        // real run-to-run noise. Double the configured fraction instead
        // and mark the warning as resting on a degenerate MAD.
        let degenerate = rates.len() < 2;
        let band = if degenerate {
            2.0 * opts.noise_frac * med
        } else {
            (opts.noise_frac * med).max(3.0 * spread)
        };
        if current < med - band {
            let mut warning = Json::obj([
                ("workload", name.into()),
                ("median", Json::f64(med)),
                ("mad", Json::f64(spread)),
                ("current", Json::f64(current)),
                ("baseline_samples", Json::u64(rates.len() as u64)),
            ]);
            if degenerate {
                warning.set("degenerate_mad", Json::Bool(true));
            }
            warnings.push(warning);
        }
    }

    // --- Counter deltas (informational) ------------------------------------
    // A counter the newest record stopped emitting is a delta to `null`.
    let (base_c, cur_c) = (
        counts(reference.get("counters")),
        counts(newest.get("counters")),
    );
    let deltas: Vec<Json> = mismatches(&base_c, &cur_c, false)
        .into_iter()
        .map(|(name, b, c)| {
            Json::obj([
                ("counter", name.as_str().into()),
                ("baseline", opt_u64(b)),
                ("current", opt_u64(c)),
            ])
        })
        .collect();

    let (serve_json, serve_failed) = match serve {
        Some((j, f)) => (Some(j), f),
        None => (None, false),
    };
    let failed = !drift.is_empty() || serve_failed;
    verdict.set("status", if failed { "fail" } else { "pass" }.into());
    verdict.set("workloads_checked", Json::u64(checked));
    verdict.set("noise_frac", Json::f64(opts.noise_frac));
    verdict.set("cycle_drift", Json::Arr(drift));
    verdict.set("wall_warnings", Json::Arr(warnings));
    verdict.set("counter_deltas", Json::Arr(deltas));
    if let Some(j) = serve_json {
        verdict.set("serve", j);
    }
    Verdict {
        json: verdict,
        failed,
    }
}

/// The cross-backend gate (`sentinel --cross-backend`): execution
/// backends are required to be observationally identical, so the newest
/// interpreter record and the newest superblock record must agree
/// *exactly* on every deterministic cycle count. Both records must come
/// from the same commit and the same config/smoke/width sweep — comparing
/// across code versions would report version drift as backend drift.
#[must_use]
pub fn cross_check(history: &[Json]) -> Verdict {
    let records: Vec<&Json> = history.iter().filter(|r| is_perfhist(r)).collect();
    let newest_of = |name: &str| {
        records
            .iter()
            .rev()
            .find(|r| backend_of(r) == name)
            .copied()
    };
    let mut verdict = Json::obj([("schema", "sentinel-cross-v1".into())]);
    let (Some(interp), Some(superblock)) = (newest_of("interp"), newest_of("superblock")) else {
        // The gate needs one record from each backend; a missing side must
        // fail loudly (a green job here would mean the equality gate
        // silently turned itself off).
        verdict.set("status", "no-pair".into());
        return Verdict {
            json: verdict,
            failed: true,
        };
    };
    for (side, r) in [("interp", interp), ("superblock", superblock)] {
        verdict.set(
            &format!("{side}_commit"),
            r.get("commit").and_then(Json::as_str).unwrap_or("?").into(),
        );
    }
    let mismatched: Vec<&str> = ["commit", "config_hash", "smoke", "widths"]
        .into_iter()
        .filter(|key| interp.get(key) != superblock.get(key))
        .collect();
    if !mismatched.is_empty() {
        verdict.set("status", "incomparable".into());
        verdict.set("mismatched", mismatched.into_iter().collect());
        return Verdict {
            json: verdict,
            failed: true,
        };
    }

    // Both ways: a workload or width only one backend ran is drift too.
    let (drift, checked) = cycle_drift(interp, superblock, true, ["interp", "superblock"]);
    // Zero overlapping workloads means nothing was actually gated.
    let failed = !drift.is_empty() || checked == 0;
    verdict.set("status", if failed { "fail" } else { "pass" }.into());
    verdict.set("workloads_checked", Json::u64(checked));
    verdict.set("cycle_drift", Json::Arr(drift));
    Verdict {
        json: verdict,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(commit: &str, cycles: u64, rate: f64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"perfhist-v1","commit":"{commit}","timestamp":1,"host":"h","config_hash":"cafe","smoke":false,"widths":[2,8],"workloads":[{{"name":"FIR","baseline_cycles":1000,"sim_cycles":{cycles},"cycles_by_width":{{"2":600,"8":{cycles}}},"wall_s":0.5,"sim_cycles_per_sec":{rate}}}],"counters":{{"cycles":{cycles}}},"wall":{{}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_cycles_pass() {
        let h = vec![record("a", 250, 100.0), record("b", 250, 101.0)];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed);
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("pass"));
        assert_eq!(
            v.json.get("workloads_checked").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn any_cycle_drift_fails_even_improvements() {
        let h = vec![record("a", 250, 100.0), record("b", 240, 100.0)];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed, "faster is still drift");
        let drift = v.json.get("cycle_drift").and_then(Json::as_arr).unwrap();
        // sim_cycles and the width-8 entry both moved.
        assert_eq!(drift.len(), 2);
        assert_eq!(
            drift[0].get("metric").and_then(Json::as_str),
            Some("sim_cycles")
        );
    }

    #[test]
    fn incomparable_configs_fail_as_no_baseline() {
        let mut other = record("a", 999, 100.0);
        other.set("config_hash", "beef".into());
        let h = vec![other, record("b", 250, 100.0)];
        let v = check(&h, &SentinelOptions::default());
        // The mismatched record is never compared cycle-for-cycle, but a
        // config change must not silently disable the gate: no comparable
        // baseline is itself a failure until the history is re-seeded.
        assert!(v.failed, "no comparable baseline must fail CI");
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("no-baseline")
        );
        let drift = v.json.get("cycle_drift").and_then(Json::as_arr);
        assert!(drift.is_none_or(<[Json]>::is_empty), "no cycles compared");
    }

    #[test]
    fn baseline_commit_filter_selects_reference() {
        let h = vec![
            record("good", 250, 100.0),
            record("noise", 999, 100.0),
            record("new", 250, 100.0),
        ];
        let against_noise = check(&h, &SentinelOptions::default());
        assert!(
            against_noise.failed,
            "latest record is the default baseline"
        );
        let against_good = check(
            &h,
            &SentinelOptions {
                baseline_commit: Some("good".to_string()),
                ..SentinelOptions::default()
            },
        );
        assert!(!against_good.failed);
        assert_eq!(
            against_good
                .json
                .get("baseline_commit")
                .and_then(Json::as_str),
            Some("good")
        );
    }

    #[test]
    fn slow_wall_clock_warns_but_passes() {
        let h = vec![
            record("a", 250, 100.0),
            record("b", 250, 102.0),
            record("c", 250, 98.0),
            record("d", 250, 10.0), // 10× slower wall clock, same cycles
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "wall clock never fails CI");
        let warns = v.json.get("wall_warnings").and_then(Json::as_arr).unwrap();
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].get("workload").and_then(Json::as_str), Some("FIR"));
    }

    #[test]
    fn single_sample_baseline_widens_band_and_flags_degenerate_mad() {
        // One comparable record: MAD is degenerate (0), so the warn band
        // doubles to 2×noise_frac. A 25 % slowdown sits inside that wider
        // band (noise_frac 0.15 ⇒ band 30 %) and must NOT warn…
        let h = vec![record("a", 250, 100.0), record("b", 250, 75.0)];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed);
        let warns = v.json.get("wall_warnings").and_then(Json::as_arr).unwrap();
        assert!(warns.is_empty(), "{}", v.json.write());

        // …while a 2× slowdown still does, and the warning says its MAD
        // was degenerate instead of pretending spread was measured.
        let h = vec![record("a", 250, 100.0), record("b", 250, 50.0)];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "wall clock stays advisory");
        let warns = v.json.get("wall_warnings").and_then(Json::as_arr).unwrap();
        assert_eq!(warns.len(), 1);
        assert_eq!(
            warns[0].get("degenerate_mad"),
            Some(&Json::Bool(true)),
            "{}",
            v.json.write()
        );
        assert_eq!(
            warns[0].get("baseline_samples").and_then(Json::as_u64),
            Some(1)
        );

        // A multi-sample baseline never carries the flag.
        let h = vec![
            record("a", 250, 100.0),
            record("b", 250, 102.0),
            record("c", 250, 10.0),
        ];
        let v = check(&h, &SentinelOptions::default());
        let warns = v.json.get("wall_warnings").and_then(Json::as_arr).unwrap();
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].get("degenerate_mad"), None);
        assert_eq!(
            warns[0].get("baseline_samples").and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn empty_history_fails_loudly() {
        let v = check(&[], &SentinelOptions::default());
        assert!(v.failed);
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("no-history")
        );
    }

    fn serve_record(req: &str, resp: &str, cycles: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"perfhist-serve-v1","commit":"c","timestamp":1,"host":"h","shards":4,"batch":{{"requests":10,"errors":0,"by_op":{{}}}},"cache":{{"hits":9,"misses":1,"entries":1,"hit_rate":0.9}},"determinism":{{"requests_hash":"{req}","responses_hash":"{resp}","sim_cycles_total":{cycles}}},"latency":{{"p50_us":1,"p95_us":2,"p99_us":3,"max_us":4}},"throughput_rps":5.0,"wall_s":2.0}}"#
        ))
        .unwrap()
    }

    #[test]
    fn matching_serve_records_pass_and_drift_fails() {
        let h = vec![
            serve_record("aaaa", "bbbb", 100),
            serve_record("aaaa", "bbbb", 100),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "{}", v.json.write());
        let serve = v.json.get("serve").unwrap();
        assert_eq!(serve.get("status").and_then(Json::as_str), Some("pass"));

        // Same requests, different responses: cross-run nondeterminism.
        let h = vec![
            serve_record("aaaa", "bbbb", 100),
            serve_record("aaaa", "XXXX", 100),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed, "response drift must fail");
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("fail"));
        let drift = v
            .json
            .get("serve")
            .and_then(|s| s.get("drift"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(drift.len(), 1);
        assert_eq!(
            drift[0].get("metric").and_then(Json::as_str),
            Some("responses_hash")
        );

        // Same requests and responses, drifted cycle total.
        let h = vec![
            serve_record("aaaa", "bbbb", 100),
            serve_record("aaaa", "bbbb", 101),
        ];
        assert!(check(&h, &SentinelOptions::default()).failed);
    }

    #[test]
    fn serve_baseline_skips_unrelated_request_mixes() {
        // The comparable baseline is the latest older record with the SAME
        // requests_hash — a different mix in between must not confuse it.
        let h = vec![
            serve_record("aaaa", "bbbb", 100),
            serve_record("9999", "zzzz", 7),
            serve_record("aaaa", "bbbb", 100),
        ];
        assert!(!check(&h, &SentinelOptions::default()).failed);
    }

    #[test]
    fn fresh_serve_mix_is_unchecked_with_bench_but_fails_alone() {
        // Bench records keep CI green while a new serve mix seeds itself…
        let h = vec![
            record("a", 250, 100.0),
            record("b", 250, 100.0),
            serve_record("aaaa", "bbbb", 100),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "{}", v.json.write());
        assert_eq!(
            v.json
                .get("serve")
                .and_then(|s| s.get("status"))
                .and_then(Json::as_str),
            Some("unchecked")
        );
        // …but a serve-only history with no baseline is a hard failure.
        let h = vec![serve_record("aaaa", "bbbb", 100)];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed);
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("no-baseline")
        );
    }

    #[test]
    fn serve_drift_fails_even_when_bench_passes() {
        let h = vec![
            record("a", 250, 100.0),
            serve_record("aaaa", "bbbb", 100),
            record("b", 250, 100.0),
            serve_record("aaaa", "CCCC", 100),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed, "serve drift alone must fail CI");
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("fail"));
        assert!(
            v.json
                .get("cycle_drift")
                .and_then(Json::as_arr)
                .is_some_and(<[Json]>::is_empty),
            "bench side itself was clean"
        );
    }

    fn backend_record(commit: &str, backend: &str, cycles: u64) -> Json {
        let mut r = record(commit, cycles, 100.0);
        r.set("backend", Json::Str(backend.to_string()));
        r
    }

    #[test]
    fn baselines_pair_only_within_a_backend() {
        // A superblock record between two interp records must not become
        // the interp baseline (and vice versa), even with equal cycles.
        let h = vec![
            record("a", 250, 100.0), // legacy record: implicitly interp
            backend_record("b", "superblock", 999),
            backend_record("c", "interp", 250),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "{}", v.json.write());
        assert_eq!(
            v.json.get("baseline_commit").and_then(Json::as_str),
            Some("a"),
            "legacy records count as interp"
        );

        // Newest is superblock: only the superblock record can gate it,
        // and there is none older → no-baseline.
        let h = vec![
            record("a", 250, 100.0),
            backend_record("b", "superblock", 250),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed);
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("no-baseline")
        );
    }

    #[test]
    fn cross_check_gates_backend_equality() {
        // Equal cycles on the same commit: pass.
        let h = vec![
            backend_record("c1", "interp", 250),
            backend_record("c1", "superblock", 250),
        ];
        let v = cross_check(&h);
        assert!(!v.failed, "{}", v.json.write());
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("pass"));
        assert_eq!(
            v.json.get("workloads_checked").and_then(Json::as_u64),
            Some(1)
        );

        // Any cycle difference between the backends fails.
        let h = vec![
            backend_record("c1", "interp", 250),
            backend_record("c1", "superblock", 251),
        ];
        let v = cross_check(&h);
        assert!(v.failed);
        let drift = v.json.get("cycle_drift").and_then(Json::as_arr).unwrap();
        assert!(!drift.is_empty());

        // Records from different commits are incomparable, not "equal".
        let h = vec![
            backend_record("c1", "interp", 250),
            backend_record("c2", "superblock", 250),
        ];
        let v = cross_check(&h);
        assert!(v.failed);
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("incomparable")
        );

        // A missing side fails loudly.
        let h = vec![backend_record("c1", "interp", 250)];
        let v = cross_check(&h);
        assert!(v.failed);
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("no-pair"));
    }

    /// `r` plus a second workload row, `LU`.
    fn with_lu(mut r: Json) -> Json {
        let lu = r#"{"name":"LU","baseline_cycles":900,"sim_cycles":300,"cycles_by_width":{"2":500,"8":300}}"#;
        let mut rows = r.get("workloads").and_then(Json::as_arr).unwrap().to_vec();
        rows.push(Json::parse(lu).unwrap());
        r.set("workloads", Json::Arr(rows));
        r
    }

    #[test]
    fn dropped_counter_is_a_delta_to_null() {
        let mut h = vec![record("a", 250, 100.0), record("b", 250, 100.0)];
        let counters = Json::parse(r#"{"cycles":250,"mcache.hits":7}"#).unwrap();
        h[0].set("counters", counters);
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "counter deltas are informational");
        let want = r#"[{"counter":"mcache.hits","baseline":7,"current":null}]"#;
        assert_eq!(
            v.json.get("counter_deltas"),
            Some(&Json::parse(want).unwrap())
        );
    }

    #[test]
    fn dropped_workload_or_width_fails_the_gate() {
        let h = vec![with_lu(record("a", 250, 100.0)), record("b", 250, 100.0)];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed, "a workload the newest record lost must fail");
        let drift = v.json.get("cycle_drift").and_then(Json::as_arr).unwrap();
        assert_eq!(drift.len(), 4, "{}", v.json.write());
        let lost = |d: &Json| d.get("workload") == Some(&"LU".into());
        assert!(drift
            .iter()
            .all(|d| lost(d) && d.get("current") == Some(&Json::Null)));

        let mut newest = record("b", 250, 100.0);
        let rows = r#"[{"name":"FIR","baseline_cycles":1000,"sim_cycles":250,"cycles_by_width":{"8":250}}]"#;
        newest.set("workloads", Json::parse(rows).unwrap());
        let v = check(
            &[record("a", 250, 100.0), newest],
            &SentinelOptions::default(),
        );
        assert!(v.failed, "a width the newest record lost must fail");
        let want =
            r#"[{"workload":"FIR","metric":"cycles_by_width.2","baseline":600,"current":null}]"#;
        assert_eq!(v.json.get("cycle_drift"), Some(&Json::parse(want).unwrap()));
    }

    #[test]
    fn cross_check_fails_a_workload_only_one_backend_ran() {
        let (interp, superblock) = (
            backend_record("c1", "interp", 250),
            backend_record("c1", "superblock", 250),
        );
        for h in [
            [with_lu(interp.clone()), superblock.clone()],
            [interp, with_lu(superblock)],
        ] {
            let v = cross_check(&h);
            assert!(v.failed, "{}", v.json.write());
            assert_eq!(v.json.get("workloads_checked"), Some(&Json::u64(1)));
            let drift = v.json.get("cycle_drift").and_then(Json::as_arr).unwrap();
            assert!(drift
                .iter()
                .all(|d| d.get("workload") == Some(&"LU".into())));
        }
    }

    #[test]
    fn counter_deltas_are_reported() {
        let h = vec![record("a", 250, 100.0), record("b", 250, 100.0)];
        let mut h2 = h;
        h2[1].set(
            "counters",
            Json::parse(r#"{"cycles":250,"mcache.hits":7}"#).unwrap(),
        );
        let v = check(&h2, &SentinelOptions::default());
        assert!(!v.failed);
        // "cycles" unchanged; "mcache.hits" has no baseline → not a delta.
        let deltas = v.json.get("counter_deltas").and_then(Json::as_arr).unwrap();
        assert!(deltas.is_empty());
    }
}
