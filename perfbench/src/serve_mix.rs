//! `serve-mix`: a closed loop of translation-cache hits and unique misses
//! against an in-process `serve` daemon (superblock backend, 2 shards).
//!
//! Two clients, each on its own `TCP_NODELAY` connection, send one
//! request line per write and wait for its reply before sending the next.
//! Each client follows a seeded schedule that never runs out, so the loop
//! always lasts the whole budget, however fast the daemon answers:
//!
//! * **warm** requests pick from the template pool of `bench --serve`'s
//!   load generator — `translate` at w8, `run` at w8, `run` at w8 with
//!   `report`, `explain` at w2 and w8, and `run` at width 0, for each paper
//!   workload — warmed during set-up, so every one is a translation-cache
//!   hit;
//! * **cold** requests (one in every [`COLD_EVERY`], at a seeded position)
//!   carry an inline program the daemon has not seen: one of [`POOL`]
//!   `kernelgen` variants whose spec seeds derive from the workload seed,
//!   compiled and disassembled, behind a comment line naming the request.
//!   The daemon keys inline programs by their source text, so every one
//!   misses both its build and its translation cache and is assembled,
//!   lowered, translated and simulated in full.
//!
//! The cold share keeps the translation-cache hit rate at 95 %: the rate
//! the load generator's default sizing targets, above its 90 % gate.
//!
//! Every response must equal what `serve::ops::execute` renders for the
//! same request, byte for byte; the expected bodies are computed after
//! the timed loop. Error responses, timeouts and mismatches all count as
//! failed requests, and a failed request counts as missing every latency
//! limit.
//!
//! The daemon's reply path writes the body and the newline as two writes
//! on a Nagle socket, so a closed-loop client waits for its own delayed
//! ACK on every reply. The client does not work around that stall; the
//! traced run shows it as `serve.wait_p50_us`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use liquid_simd::isa::asm;
use liquid_simd::{build_liquid, BackendKind, Machine, MachineConfig, Workload};
use liquid_simd_kernelgen::{corpus_specs, expand, Payload};
use liquid_simd_perfhist::Json;
use liquid_simd_serve::{ops, proto, ServeOptions, ServerHandle};

use crate::spans::{ratio, Spans};
use crate::suite::{add_counts, cache_replay, count_ratios};
use crate::{mix, percentile, timed_setup, Outcome, RunOptions};

/// Client threads, one connection each.
pub const CLIENTS: usize = 2;
/// Daemon worker shards.
pub const SHARDS: usize = 2;
/// One request in every block of this many carries an unseen program. A
/// fixed count per block, not a coin flip, keeps the cold share of any
/// prefix of the schedule — and so of any run length — the same.
pub const COLD_EVERY: u64 = 20;
/// Kernelgen variants built per set-up round; cold requests cycle
/// through them.
pub const POOL: usize = 64;
/// Cold programs simulated directly for the exact per-layer counts.
pub const PROBES: usize = 24;
/// Template shapes per paper workload, in [`templates`] order.
const SHAPES: usize = 5;
/// Set-up rounds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Read timeout on every client socket: a wedged daemon fails the run
/// instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One cold program: a kernelgen variant as inline assembly.
struct ColdProgram {
    workload: Workload,
    source: String,
    lanes: usize,
}

/// One request of a client's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pick {
    /// Template `t` of the warmed pool.
    Warm(usize),
    /// The client's `n`-th cold request, on pool program `base`.
    Cold { base: usize, n: u64 },
}

/// Client `c`'s `i`-th request: cold at one seeded position in each block
/// of [`COLD_EVERY`], otherwise a seeded template. Cold requests walk the
/// pool in turn, alternating between clients.
fn pick(seed: u64, c: usize, i: u64, templates: usize) -> Pick {
    let stream = (c as u64) << 48;
    let n = i / COLD_EVERY;
    if i % COLD_EVERY == mix(seed ^ 0xb10c, stream | n) % COLD_EVERY {
        let base = ((n as usize) * CLIENTS + c) % POOL;
        Pick::Cold { base, n }
    } else {
        Pick::Warm((mix(seed ^ 0x5e7e_c0de, stream | i) % templates as u64) as usize)
    }
}

/// Everything one set-up round produces. Dropping it stops its daemon.
struct Setup {
    daemon: Option<ServerHandle>,
    seed: u64,
    /// Template request lines, newline included.
    templates: Vec<String>,
    cold: Vec<ColdProgram>,
    /// Daemon replies to the warm-up pass, one per template.
    warmup: Vec<String>,
}

fn line(fields: Vec<(&str, Json)>) -> String {
    let obj = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    format!("{}\n", obj.write())
}

/// The load generator's template pool (`serve::loadgen`): five request
/// shapes per paper workload, each its own cache key.
fn templates() -> Vec<String> {
    let mut out = Vec::new();
    for w in liquid_simd_workloads::all() {
        let n = || ("workload", Json::Str(w.name.clone()));
        let op = |o: &str| ("op", Json::Str(o.into()));
        out.push(line(vec![op("translate"), n(), ("width", Json::u64(8))]));
        out.push(line(vec![op("run"), n(), ("width", Json::u64(8))]));
        out.push(line(vec![
            op("run"),
            n(),
            ("width", Json::u64(8)),
            ("report", Json::Bool(true)),
        ]));
        out.push(line(vec![
            op("explain"),
            n(),
            ("widths", Json::Arr(vec![Json::u64(2), Json::u64(8)])),
        ]));
        out.push(line(vec![op("run"), n(), ("width", Json::u64(0))]));
    }
    out
}

/// Client `c`'s `n`-th cold request on pool program `base`: the
/// program's source behind a comment that makes it unseen.
fn cold_line(p: &ColdProgram, c: usize, n: u64) -> String {
    line(vec![
        ("op", Json::Str("run".into())),
        (
            "program",
            Json::Str(format!("; cold request {c}.{n}\n{}", p.source)),
        ),
        ("name", Json::Str(p.workload.name.clone())),
        ("width", Json::u64(p.lanes as u64)),
    ])
}

/// The cold program for pool slot `j`: the `j`-th translatable corpus
/// family at its smallest grid point, re-seeded from the workload seed.
fn cold_program(
    specs: &[liquid_simd_kernelgen::FamilySpec],
    seed: u64,
    j: usize,
) -> Result<Workload, String> {
    let mut spec = specs[j % specs.len()].clone();
    spec.seed = mix(seed, j as u64);
    spec.trips.truncate(1);
    spec.unrolls.truncate(1);
    let variant = expand(&spec)?
        .into_iter()
        .next()
        .ok_or("family expanded to nothing")?;
    match variant.payload {
        Payload::Kernel(w) => Ok(*w),
        Payload::Asm { .. } => Err(format!("{} is not a kernel", variant.name)),
    }
}

fn setup(seed: u64, backend: BackendKind, spans: &mut Spans) -> Result<Setup, String> {
    let specs: Vec<_> = corpus_specs()?
        .into_iter()
        .filter(|s| s.idiom.is_translatable())
        .collect();
    let widths = &crate::suite::WIDTHS;
    let mut cold = Vec::with_capacity(POOL);
    for j in 0..POOL {
        let w = cold_program(&specs, seed, j)?;
        let b = spans
            .time("compiler.build_liquid", || build_liquid(&w), |_| 1)
            .map_err(|e| format!("{}: {e}", w.name))?;
        cold.push(ColdProgram {
            source: asm::disassemble(&b.program),
            lanes: widths[(j / specs.len()) % widths.len()],
            workload: w,
        });
    }

    let daemon = liquid_simd_serve::spawn(ServeOptions {
        shards: SHARDS,
        backend,
        ..ServeOptions::default()
    })?;
    // Warm the template pool: pipelined, a contiguous share per client
    // connection.
    let templates = templates();
    let addr = daemon.addr;
    let shares: Vec<Result<Vec<String>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = templates
            .chunks(templates.len().div_ceil(CLIENTS))
            .map(|share| scope.spawn(move || exchange(addr, share.iter().map(String::as_str))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let warmup = match shares.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(w) => w.concat(),
        Err(e) => {
            stop(daemon);
            return Err(format!("warm-up: {e}"));
        }
    };
    Ok(Setup {
        daemon: Some(daemon),
        seed,
        templates,
        cold,
        warmup,
    })
}

/// A client connection: `TCP_NODELAY`, bounded reply wait.
fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => Err("daemon closed the connection".to_string()),
        Ok(_) => Ok(reply.trim_end_matches('\n').to_string()),
        Err(e) => Err(format!("reply: {e}")),
    }
}

/// Sends `lines` pipelined on a fresh connection and reads one reply per
/// line.
fn exchange<'a>(
    addr: SocketAddr,
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<String>, String> {
    let (mut stream, mut reader) = connect(addr)?;
    let mut n = 0;
    for l in lines {
        stream.write_all(l.as_bytes()).map_err(|e| e.to_string())?;
        n += 1;
    }
    (0..n).map(|_| read_reply(&mut reader)).collect()
}

fn stop(daemon: ServerHandle) {
    daemon.shutdown();
    if let Err(e) = daemon.join() {
        eprintln!("perfbench: {e}");
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            stop(d);
        }
    }
}

/// One answered (or failed) request of the timed loop.
struct Sample {
    pick: Pick,
    ms: f64,
    reply: Result<String, String>,
    traced: bool,
}

/// Client `c`'s closed loop: send, wait, record, until the budget is
/// spent.
fn client(
    addr: SocketAddr,
    s: &Setup,
    c: usize,
    deadline: Instant,
    trace: bool,
) -> (Vec<Sample>, Spans) {
    let mut spans = Spans::new(trace);
    let mut samples = Vec::new();
    let (mut stream, mut reader) = match connect(addr) {
        Ok(v) => v,
        Err(e) => {
            samples.push(Sample {
                pick: pick(s.seed, c, 0, s.templates.len()),
                ms: f64::INFINITY,
                reply: Err(e),
                traced: false,
            });
            return (samples, spans);
        }
    };
    for i in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let p = pick(s.seed, c, i, s.templates.len());
        let cold;
        let line = match p {
            Pick::Warm(t) => &s.templates[t],
            Pick::Cold { base, n } => {
                cold = cold_line(&s.cold[base], c, n);
                &cold
            }
        };
        // The traced run sends every other warm request inside a span;
        // the latency gap to the untraced ones is the tracing overhead.
        let traced = trace && i % 2 == 1 && matches!(p, Pick::Warm(_));
        let mut send = || {
            stream
                .write_all(line.as_bytes())
                .map_err(|e| e.to_string())
                .and_then(|()| read_reply(&mut reader))
        };
        let t = Instant::now();
        let reply = if traced {
            spans.time("serve.request", send, |_| 0)
        } else {
            send()
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let broken = reply.is_err();
        samples.push(Sample {
            pick: p,
            ms: if broken { f64::INFINITY } else { ms },
            reply,
            traced,
        });
        if broken {
            break;
        }
    }
    (samples, spans)
}

/// `inspect` snapshot's `metrics` document.
fn inspect(addr: SocketAddr, spans: &mut Spans) -> Result<Json, String> {
    let reply = spans.time(
        "serve.inspect",
        || exchange(addr, std::iter::once("{\"op\":\"inspect\"}\n")),
        |_| 1,
    )?;
    let doc = Json::parse(&reply[0])?;
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| format!("inspect reply without metrics: {}", reply[0]))
}

fn path<'a>(doc: &'a Json, keys: &[&str]) -> Option<&'a Json> {
    keys.iter().try_fold(doc, |d, k| d.get(k))
}

fn u64_at(doc: &Json, keys: &[&str]) -> u64 {
    path(doc, keys).and_then(Json::as_u64).unwrap_or(0)
}

/// Percentile of the daemon's `wall.latency_us` samples recorded between
/// two snapshots, interpolated linearly inside the power-of-two bucket
/// that holds the rank.
fn daemon_percentile(before: &Json, after: &Json, p: f64) -> f64 {
    let hist = |d: &Json, k: &str| {
        path(d, &["histograms", "wall.latency_us", k])
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .map(|v| v.as_u64().unwrap_or(0))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
    };
    let bounds = hist(after, "bounds");
    let (a, b) = (hist(after, "counts"), hist(before, "counts"));
    let counts: Vec<u64> = (0..a.len())
        .map(|i| a[i] - b.get(i).copied().unwrap_or(0))
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (p / 100.0 * total as f64).ceil().max(1.0);
    let max = u64_at(after, &["histograms", "wall.latency_us", "max"]) as f64;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let c = c as f64;
        if seen + c >= rank {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            let hi = bounds.get(i).map_or(max, |&b| b as f64);
            return lo + (rank - seen) / c * (hi - lo);
        }
        seen += c;
    }
    max
}

/// Runs the serve mix on the paper's daemon configuration.
#[must_use]
pub fn run(opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let backend = BackendKind::Superblock;
    let mut setup_spans = Spans::new(opts.trace);
    // Unscaled: the set-up's simulations run on the daemon's threads,
    // which the probe cannot follow.
    let (setup, setup_s) = timed_setup(SETUP_REPEATS, false, || {
        let mut sp = Spans::new(opts.trace);
        let s = setup(opts.seed, backend, &mut sp);
        setup_spans.absorb(sp);
        s
    });
    // Only the last round's daemon serves the timed loop.
    let mut s = match setup {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let addr = s
        .daemon
        .as_ref()
        .expect("set-up leaves its daemon running")
        .addr;
    let mut spans = Spans::new(opts.trace);
    let before = if opts.trace {
        inspect(addr, &mut spans).map_err(|e| out.fail(e)).ok()
    } else {
        None
    };

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let results: Vec<(Vec<Sample>, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let s = &s;
                scope.spawn(move || client(addr, s, c, deadline, opts.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (smp, sp) in results {
        samples.extend(smp);
        spans.absorb(sp);
    }
    let after = if opts.trace {
        inspect(addr, &mut spans).map_err(|e| out.fail(e)).ok()
    } else {
        None
    };
    if let Some(d) = s.daemon.take() {
        stop(d);
    }

    // Checks, outside the timed loop: every reply against ops::execute.
    let mut bases: Vec<usize> = samples
        .iter()
        .filter_map(|x| match x.pick {
            Pick::Cold { base, .. } => Some(base),
            Pick::Warm(_) => None,
        })
        .collect();
    bases.sort_unstable();
    bases.dedup();
    let (warm_refs, cold_refs) = references(&s, &bases, backend, &mut spans);
    let check = |p: Pick, reply: &str| -> Result<(), String> {
        let want = match p {
            Pick::Warm(t) => &warm_refs[t],
            Pick::Cold { base, .. } => &cold_refs[&base],
        }
        .as_ref()?;
        if reply == want {
            Ok(())
        } else {
            let cut = |t: &str| t.chars().take(160).collect::<String>();
            Err(format!(
                "reply `{}` != reference `{}`",
                cut(reply),
                cut(want)
            ))
        }
    };
    let mut cycles = BTreeMap::new();
    for (t, reply) in s.warmup.iter().enumerate() {
        match check(Pick::Warm(t), reply) {
            Ok(()) => {
                let c = Json::parse(reply)
                    .ok()
                    .and_then(|d| d.get("cycles").and_then(Json::as_u64));
                cycles.insert(t, c.unwrap_or(0));
            }
            Err(e) => out.fail(format!("warm-up {t}: {e}")),
        }
    }
    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    let mut untraced_warm = Vec::new();
    let mut sim_retired = 0u64;
    for smp in &samples {
        out.attempted += 1;
        let is_cold = matches!(smp.pick, Pick::Cold { .. });
        let verdict = smp
            .reply
            .clone()
            .and_then(|reply| check(smp.pick, &reply).map(|()| reply));
        let ms = match verdict {
            Ok(reply) => {
                if is_cold {
                    sim_retired += Json::parse(&reply)
                        .ok()
                        .and_then(|d| d.get("retired").and_then(Json::as_u64))
                        .unwrap_or(0);
                } else if !smp.traced {
                    untraced_warm.push(smp.ms);
                }
                smp.ms
            }
            Err(e) => {
                out.fail(format!("request {:?}: {e}", smp.pick));
                f64::INFINITY
            }
        };
        if is_cold { &mut cold } else { &mut warm }.push(ms);
    }

    // Served speedup: the Liquid binary's scalar-only cycles over its w8
    // cycles. The plain binary cannot be requested by name, and inline
    // asm of it does not reproduce its data layout, so this baseline is
    // the Liquid binary itself.
    let cyc = |t: usize| cycles.get(&t).copied().unwrap_or(0) as f64;
    let speedups: Vec<f64> = (0..s.templates.len() / SHAPES)
        .map(|i| ratio(cyc(SHAPES * i + 4), cyc(SHAPES * i + 1)))
        .collect();
    out.e2e("sim_minstr_per_s", sim_retired as f64 / wall / 1e6);
    out.e2e("speedup_w8_geomean", crate::geomean(&speedups));
    out.e2e("ops_per_s", ratio(samples.len() as f64, wall));
    out.e2e("warm_p50_ms", percentile(&warm, 50.0));
    out.e2e("warm_p90_ms", percentile(&warm, 90.0));
    out.e2e("cold_p50_ms", percentile(&cold, 50.0));
    out.e2e("cold_p90_ms", percentile(&cold, 90.0));
    out.e2e("setup_s", setup_s);

    probe(&s, backend, opts.trace, &mut out);
    if opts.trace {
        let untraced = ratio(untraced_warm.iter().sum(), untraced_warm.len() as f64);
        out.layer(
            "trace.overhead_pct",
            (ratio(spans.totals("serve.request").mean_ms(), untraced) - 1.0) * 100.0,
        );
        out.layer(
            "isa.assemble_us",
            spans.totals("isa.asm::assemble").mean_us(),
        );
        out.layer(
            "serve.ops_execute_ms",
            spans.totals("serve.ops::execute").mean_ms(),
        );
        out.layer(
            "compiler.build_liquid_ms",
            setup_spans.totals("compiler.build_liquid").ns as f64 / 1e6 / SETUP_REPEATS as f64,
        );
        if let (Some(b), Some(a)) = (&before, &after) {
            let d50 = daemon_percentile(b, a, 50.0);
            out.layer("serve.daemon_p50_us", d50);
            out.layer("serve.daemon_p95_us", daemon_percentile(b, a, 95.0));
            let all: Vec<f64> = warm.iter().chain(&cold).map(|ms| ms * 1e3).collect();
            out.layer("serve.wait_p50_us", percentile(&all, 50.0) - d50);
            let tc = |d: &Json, k: &str| u64_at(d, &["cache", "translations", k]) as f64;
            let hits = tc(a, "hits") - tc(b, "hits");
            let misses = tc(a, "misses") - tc(b, "misses");
            out.layer("serve.tcache.hit_ratio", ratio(hits, hits + misses));
            out.layer(
                "serve.flight.dropped",
                u64_at(a, &["flight", "dropped"]) as f64,
            );
        }
        match cache_replay(&mut spans) {
            Ok(ns) => out.layer("mem.cache_access_ns", ns),
            Err(e) => out.fail(e),
        }
    }
    out.e2e("peak_rss_mb", crate::peak_rss_mb());
    out
}

/// The reply `serve::ops::execute` renders for one request line on the
/// daemon's backend (the lines carry no id, so a reply is the body
/// alone). Inline programs are assembled from the line's own source.
fn reference(
    request: &str,
    backend: BackendKind,
    builds: &liquid_simd_serve::cache::BuildCache,
    spans: &mut Spans,
) -> Result<String, String> {
    let req = proto::parse_request(request.trim_end())?;
    let output = if let Some(src) = req.program.as_deref() {
        let program = spans
            .time("isa.asm::assemble", || asm::assemble(src), |_| 1)
            .map_err(|e| e.to_string())?;
        let name = req.name.as_deref().unwrap_or("<inline>");
        spans.time(
            "serve.ops::execute",
            || ops::execute_with_backend(&req, &program, name, backend),
            |_| 1,
        )
    } else {
        let name = req
            .workload
            .as_deref()
            .ok_or("template without a workload")?;
        let entry = builds.workload(name)?;
        ops::execute_with_backend(&req, &entry.program, &entry.name, backend)
    };
    if !output.ok {
        return Err(format!("reference rendered an error: {}", output.body));
    }
    Ok(proto::with_id(&output.body, req.id.as_ref()))
}

/// Expected replies: one per template, and one per pool program in
/// `bases`. Cold requests on one pool program differ only in their
/// leading comment, which assembles away (pinned by a unit test), so one
/// reference covers them all. Split over [`CLIENTS`] threads.
#[allow(clippy::type_complexity)]
fn references(
    s: &Setup,
    bases: &[usize],
    backend: BackendKind,
    spans: &mut Spans,
) -> (
    Vec<Result<String, String>>,
    BTreeMap<usize, Result<String, String>>,
) {
    let builds = liquid_simd_serve::cache::BuildCache::default();
    let jobs: Vec<(Pick, String)> = (0..s.templates.len())
        .map(|t| (Pick::Warm(t), s.templates[t].clone()))
        .chain(
            bases
                .iter()
                .map(|&base| (Pick::Cold { base, n: 0 }, cold_line(&s.cold[base], 0, 0))),
        )
        .collect();
    type Part = (Vec<(Pick, Result<String, String>)>, Spans);
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (builds, jobs) = (&builds, &jobs);
                let trace = spans.enabled();
                scope.spawn(move || {
                    let mut sp = Spans::new(trace);
                    let done = jobs
                        .iter()
                        .skip(t)
                        .step_by(CLIENTS)
                        .map(|(p, l)| (*p, reference(l, backend, builds, &mut sp)))
                        .collect();
                    (done, sp)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut warm = vec![Err("no reference".to_string()); s.templates.len()];
    let mut cold = BTreeMap::new();
    for (done, sp) in parts {
        for (p, r) in done {
            match p {
                Pick::Warm(t) => warm[t] = r,
                Pick::Cold { base, .. } => {
                    cold.insert(base, r);
                }
            }
        }
        spans.absorb(sp);
    }
    (warm, cold)
}

/// Simulates the first [`PROBES`] pool programs directly, on the daemon's
/// configuration (ledger on), checking each against its gold reference:
/// the exact per-layer counts of the miss path, identical between traced
/// and untraced runs of one seed.
fn probe(s: &Setup, backend: BackendKind, trace: bool, out: &mut Outcome) {
    let mut spans = Spans::new(trace);
    for c in s.cold.iter().take(PROBES) {
        out.attempted += 1;
        let program = match asm::assemble(&c.source) {
            Ok(p) => p,
            Err(e) => {
                out.fail(format!("{}: {e}", c.workload.name));
                continue;
            }
        };
        let cfg = MachineConfig::liquid(c.lanes)
            .with_backend(backend)
            .with_ledger(true);
        let mut machine = spans.time("sim.Machine::new", || Machine::new(&program, cfg), |_| 1);
        let result = spans.time(
            "sim.Machine::run/liquid_ledger",
            || machine.run(),
            |r| r.as_ref().map_or(0, |r| r.retired),
        );
        let checked = result.map_err(|e| e.to_string()).and_then(|r| {
            let gold = liquid_simd::gold::run_gold(&c.workload).map_err(|e| e.to_string())?;
            liquid_simd::verify_against_gold("probe", &program, machine.memory(), &gold)
                .map_err(|e| e.to_string())?;
            Ok(r)
        });
        match checked {
            Ok(r) => add_counts(&mut out.counts, &r),
            Err(e) => out.fail(format!("{}: {e}", c.workload.name)),
        }
    }
    count_ratios(out);
    if trace {
        out.layer(
            "sim.liquid_ledger.ns_per_instr",
            spans.totals("sim.Machine::run/liquid_ledger").ns_per_work(),
        );
        out.layer("sim.new_us", spans.totals("sim.Machine::new").mean_us());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_never_runs_out_and_keeps_the_cold_share() {
        let mut used = [false; POOL];
        for c in 0..CLIENTS {
            let picks: Vec<Pick> = (0..100_000).map(|i| pick(3, c, i, 75)).collect();
            let cold: Vec<(usize, u64)> = picks
                .iter()
                .filter_map(|p| match *p {
                    Pick::Cold { base, n } => Some((base, n)),
                    Pick::Warm(t) => {
                        assert!(t < 75);
                        None
                    }
                })
                .collect();
            assert_eq!(cold.len() as u64, 100_000 / COLD_EVERY);
            // One cold request per block, numbered in order: with the
            // client id in its comment, every cold source is unique.
            assert!(cold.iter().enumerate().all(|(k, &(_, n))| n == k as u64));
            for (base, _) in cold {
                used[base] = true;
            }
        }
        assert!(used.iter().all(|&u| u), "the clients walk the whole pool");
        assert_ne!(
            (0..40).map(|i| pick(3, 0, i, 75)).collect::<Vec<_>>(),
            (0..40).map(|i| pick(4, 0, i, 75)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_comment_makes_a_new_source_but_not_a_new_program() {
        let specs: Vec<_> = corpus_specs()
            .unwrap()
            .into_iter()
            .filter(|s| s.idiom.is_translatable())
            .collect();
        let w = cold_program(&specs, 5, 0).unwrap();
        let p = ColdProgram {
            source: asm::disassemble(&build_liquid(&w).unwrap().program),
            lanes: 8,
            workload: w,
        };
        let req = |c, n| proto::parse_request(cold_line(&p, c, n).trim_end()).unwrap();
        let (a, b) = (req(0, 1), req(1, 1));
        assert_ne!(a.program, b.program);
        assert_eq!(
            asm::assemble(a.program.as_deref().unwrap()).unwrap(),
            asm::assemble(&p.source).unwrap()
        );
        assert_eq!(
            asm::assemble(b.program.as_deref().unwrap()).unwrap(),
            asm::assemble(&p.source).unwrap()
        );
    }
}
