//! `liquid-simd` — command-line driver for the Liquid SIMD toolchain.
//!
//! Every command (and every mode of a multi-mode command such as
//! `bench --serve`) is one row of [`COMMANDS`]: its operands, its flags
//! with their value placeholders and one-line help, and its handler.
//! [`Args::parse`] validates a command line against that row — an unknown
//! flag, a value flag without its value, or a stray or missing operand is
//! an error naming the offending token — and `liquid-simd help` renders
//! the same rows, so the help text and the parser cannot disagree.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use liquid_simd::{experiments, Machine, MachineConfig, RunReport};
use liquid_simd_isa::{asm, object, Program};
use liquid_simd_perfhist as perfhist;
use liquid_simd_serve as serve;
use liquid_simd_trace::{export, Json, TraceConfig, Tracer};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("liquid-simd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A flag a command accepts: its name, the placeholder of its value
/// (`None` for a switch), and one line of help.
type Flag = (&'static str, Option<&'static str>, &'static str);

/// One command (or one mode of a multi-mode command): the declarative
/// table the parser validates against and `usage()` renders.
struct Command {
    name: &'static str,
    /// The switch selecting this mode (`bench --serve`); `None` for the
    /// command's default mode. The switch is also listed in `flags`.
    mode: Option<&'static str>,
    /// Operand synopsis, e.g. `<prog.s|prog.lsim>`.
    operands: &'static str,
    /// Accepted operand counts.
    arity: &'static [usize],
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), String>,
}

const LANES: Flag = (
    "--lanes",
    Some("N"),
    "SIMD accelerator width (default 8; 0 = scalar only)",
);
const BACKEND: Flag = (
    "--backend",
    Some("B"),
    "interp (default) or superblock: same cycles",
);
const NATIVE: Flag = ("--native", None, "no dynamic translation (vector binaries)");
const JIT: Flag = ("--jit", None, "software-JIT translation (stalls the CPU)");
const JOBS: Flag = (
    "--jobs",
    Some("N"),
    "worker threads (default: all cores; same output)",
);
const JSON: Flag = ("--json", None, "emit JSON instead of text");
const SMOKE: Flag = ("--smoke", None, "CI-sized subset");
const HISTORY: Flag = (
    "--history",
    Some("FILE"),
    "history file (default bench/history.jsonl)",
);
const NO_HISTORY: Flag = ("--no-history", None, "skip the history append");
const ADDR: Flag = (
    "--addr",
    Some("A"),
    "daemon address (default 127.0.0.1:7070)",
);
const SNAPSHOT_OUT: Flag = (
    "--out",
    Some("FILE"),
    "snapshot path (default BENCH_sim.json)",
);

/// Every command, one row per mode. A command's mode rows precede its
/// default row (the parser takes the first row whose switch is present).
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command {
        name: "asm", mode: None, operands: "<input.s>", arity: &[1], run: cmd_asm,
        about: "assemble to an object file",
        flags: &[("-o", Some("OUT"), "output path (default <input>.lsim)")],
    },
    Command {
        name: "disasm", mode: None, operands: "<prog.lsim>", arity: &[1], run: cmd_disasm,
        about: "disassemble an object file",
        flags: &[],
    },
    Command {
        name: "run", mode: None, operands: "<prog.s|prog.lsim>", arity: &[1], run: cmd_run,
        about: "simulate to halt",
        flags: &[
            LANES, BACKEND, NATIVE, JIT,
            ("--report", None, "print cache/translator statistics"),
            ("--trace", None, "record dynamic events; print the trace summary"),
            ("--trace-out", Some("FILE"), "also write them (.json: Chrome trace, else JSON-lines)"),
        ],
    },
    Command {
        name: "translate", mode: None, operands: "<prog.s|prog.lsim>", arity: &[1],
        run: cmd_translate,
        about: "run once and print each translated microcode block",
        flags: &[LANES],
    },
    Command {
        name: "trace", mode: None, operands: "<prog.s|prog.lsim>", arity: &[1], run: cmd_trace,
        about: "traced run; write the Chrome trace and print its summary",
        flags: &[
            LANES, BACKEND, NATIVE, JIT,
            ("--out", Some("FILE"), "trace path (default trace.json)"),
            ("--instructions", None, "also record every retired instruction"),
        ],
    },
    Command {
        name: "explain", mode: None, operands: "<prog|workload>", arity: &[1], run: cmd_explain,
        about: "per-region translation verdicts at every width, with full provenance",
        flags: &[
            ("--widths", Some("2,4,8,16"), "widths to explain"),
            BACKEND, JSON,
            ("--interrupt-every", Some("N"), "inject an external interrupt every N cycles"),
            ("--all-calls", None, "also attempt plain `bl` (no `bl.v`) calls"),
        ],
    },
    Command {
        name: "profile", mode: None, operands: "<prog|workload>", arity: &[1], run: cmd_profile,
        about: "cycle breakdown: phases, spans, hottest call targets, microcode cache",
        flags: &[
            LANES, JSON,
            ("--top", Some("N"), "rows per table (default 10)"),
            ("--trace-out", Some("FILE"), "also write the Chrome trace with nested spans"),
        ],
    },
    Command {
        name: "diff", mode: None, operands: "[<A@wN|FILE> <B@wN|FILE>]", arity: &[0, 2],
        run: cmd_diff,
        about: "explain a cycle delta from the ledger: two `<prog|workload>@wN` runs, \
                two history files, or (no sides) the last two --history records",
        flags: &[
            BACKEND,
            ("--json", None, "emit the diff-v1 document instead of text"),
            ("--out", Some("FILE"), "write the report to FILE"),
            HISTORY,
        ],
    },
    Command {
        name: "tables", mode: None, operands: "", arity: &[0], run: cmd_tables,
        about: "regenerate the paper's tables, Figure 6 and the ablations",
        flags: &[JOBS, SMOKE],
    },
    Command {
        name: "bench", mode: Some("--serve"), operands: "", arity: &[0], run: cmd_bench_serve,
        about: "load-test the serve daemon at 1 shard and at --shards; fail on any \
                byte difference or a translation-cache hit rate below 90%",
        flags: &[
            ("--serve", None, "select this mode"),
            SMOKE, BACKEND,
            ("--clients", Some("N"), "concurrent connections (default 4)"),
            ("--requests", Some("N"), "requests per client (default auto-sized)"),
            ("--shards", Some("N"), "shards of the sharded pass (default 8)"),
            HISTORY, NO_HISTORY,
            ("--measure-recorder", None, "third pass with the flight recorder off"),
            ("--out", Some("FILE"), "snapshot noting the overhead (default BENCH_sim.json)"),
        ],
    },
    Command {
        name: "bench", mode: Some("--families"), operands: "", arity: &[0],
        run: cmd_bench_families,
        about: "benchmark the generated kernel families: per-family speedup \
                distributions and abort tallies, no wall clock in the snapshot",
        flags: &[
            ("--families", None, "select this mode"),
            ("--smoke", None, "trip <= 64, unroll <= 2, widths 2 and 8"),
            BACKEND, SNAPSHOT_OUT, HISTORY, NO_HISTORY,
        ],
    },
    Command {
        name: "bench", mode: None, operands: "", arity: &[0], run: cmd_bench,
        about: "benchmark the simulator: cycles at every width, counters and the \
                parallel sweep; write a snapshot, append a perfhist-v1 record",
        flags: &[
            JOBS, SMOKE, BACKEND,
            ("--ledger", None, "embed per-workload cycle-ledger snapshots in the record"),
            ("--progress", None, "stream per-unit sweep timings to stderr"),
            SNAPSHOT_OUT, HISTORY, NO_HISTORY,
        ],
    },
    Command {
        name: "gen", mode: Some("--check"), operands: "", arity: &[0], run: cmd_gen_check,
        about: "run every corpus variant through the conform oracle; gate on abort coverage",
        flags: &[
            ("--check", None, "select this mode"),
            JOBS, JSON,
            ("--out", Some("FILE"), "also write the gen-check-v1 report"),
        ],
    },
    Command {
        name: "gen", mode: None, operands: "", arity: &[0], run: cmd_gen,
        about: "the declarative kernel-generator corpus (bench/families/*.kernel)",
        flags: &[
            ("--list", None, "one variant name per line (the default)"),
            ("--expand", None, "the deterministic expansion manifest, one variant per line"),
            ("--emit", Some("VARIANT"), "print the variant's program"),
            ("--smoke", None, "only variants with trip <= 64, unroll <= 2"),
            ("--out", Some("FILE"), "write the list or manifest to FILE"),
        ],
    },
    Command {
        name: "serve", mode: None, operands: "", arity: &[0], run: cmd_serve,
        about: "line-delimited JSON simulation daemon over TCP; responses are \
                byte-identical at every shard count",
        flags: &[
            ("--addr", Some("A"), "bind address (default 127.0.0.1:7070)"),
            ("--shards", Some("N"), "worker shards (default min(cores, 8))"),
            BACKEND, HISTORY, NO_HISTORY,
            ("--history-every", Some("N"), "flush a batch record every N requests (default 64)"),
            ("--flight-capacity", Some("N"), "per-shard flight ring (default 4096; 0 disables)"),
            ("--flight-dir", Some("DIR"), "where black-box dumps go (none without it)"),
            ("--burst-threshold", Some("N"), "budget errors in a row that dump (default 8)"),
            ("--cache-cap", Some("N"), "translation-cache entries (default 0 = unbounded)"),
            ("--inject-faults", None, "honor the test-only `inject:\"panic\"` field"),
        ],
    },
    Command {
        name: "inspect", mode: None, operands: "", arity: &[0], run: cmd_inspect,
        about: "one metrics-v1 snapshot from a live daemon",
        flags: &[
            ADDR,
            ("--raw", None, "print the JSON line"),
            ("--scrub", None, "print schedule-scrubbed JSON for byte-comparing daemons"),
        ],
    },
    Command {
        name: "top", mode: None, operands: "", arity: &[0], run: cmd_top,
        about: "live terminal view over `inspect`",
        flags: &[
            ADDR,
            ("--interval", Some("SECS"), "redraw period (default 2)"),
            ("--count", Some("N"), "stop after N frames"),
            ("--once", None, "one frame, no escape codes"),
        ],
    },
    Command {
        name: "sentinel", mode: Some("--cross-backend"), operands: "", arity: &[0],
        run: cmd_sentinel_cross,
        about: "gate that the newest interp and superblock records report identical cycles",
        flags: &[("--cross-backend", None, "select this mode"), JSON, HISTORY],
    },
    Command {
        name: "sentinel", mode: None, operands: "", arity: &[0], run: cmd_sentinel,
        about: "regression gate over the history: cycles must match the baseline \
                exactly; wall clock only warns",
        flags: &[
            ("--baseline", Some("REF"), "baseline commit"),
            JSON, HISTORY,
            ("--window", Some("N"), "baseline window size (default 5)"),
            ("--noise-frac", Some("X"), "wall-clock warn fraction (default 0.15)"),
        ],
    },
    Command {
        name: "dashboard", mode: None, operands: "", arity: &[0], run: cmd_dashboard,
        about: "render the history as one self-contained HTML file",
        flags: &[
            ("--out", Some("FILE"), "output path (default report.html)"),
            HISTORY,
            ("--flame", Some("WORKLOAD"), "workload profiled for the flamegraph (default fir)"),
            ("--flight-dir", Some("DIR"), "fold in the flight-v1 dumps in DIR"),
            ("--snapshot", Some("FILE"), "embed a metrics-v1 snapshot (an `inspect` line)"),
        ],
    },
    Command {
        name: "conform", mode: None, operands: "", arity: &[0], run: cmd_conform,
        about: "generative differential conformance plus the abort-injection sweep",
        flags: &[
            ("--seed", Some("S"), "generator seed (default 0xC0FFEE)"),
            ("--cases", Some("N"), "random cases (default 200)"),
            JOBS, JSON,
            ("--out", Some("FILE"), "write the conform-v1 report to FILE"),
            ("--corpus-dir", Some("DIR"), "where minimized failures go (default tests/corpus)"),
            ("--no-shrink", None, "report raw failing specs"),
        ],
    },
];

fn run_cli(args: &[String]) -> Result<(), String> {
    if matches!(
        args.first().map(String::as_str),
        Some("help" | "--help" | "-h")
    ) {
        println!("{}", usage());
        return Ok(());
    }
    let args = parse_cli(args)?;
    (args.cmd.run)(&args)
}

/// Picks the command's table row and parses the rest of the line with it.
fn parse_cli(args: &[String]) -> Result<Args, String> {
    let Some(name) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    // Mode rows precede their command's default row, so the first mode
    // whose switch appears wins; its table then rejects any other mode's
    // switch as unknown.
    let cmd = COMMANDS
        .iter()
        .filter(|c| c.name == name.as_str())
        .find(|c| c.mode.is_none_or(|m| rest.iter().any(|a| a == m)))
        .ok_or_else(|| format!("unknown command `{name}`\n{}", usage()))?;
    Args::parse(cmd, rest)
        .map_err(|e| format!("{name}: {e}\nusage: liquid-simd {}", cmd.synopsis()))
}

impl Command {
    /// `name [mode] [operands]`.
    fn heading(&self) -> String {
        let parts = [self.name, self.mode.unwrap_or(""), self.operands];
        parts
            .iter()
            .filter(|p| !p.is_empty())
            .copied()
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The flags besides the mode switch, with their rendered names.
    fn options(&self) -> impl Iterator<Item = (String, &'static str)> + '_ {
        self.flags
            .iter()
            .filter(|f| Some(f.0) != self.mode)
            .map(|&(flag, value, help)| match value {
                Some(v) => (format!("{flag} {v}"), help),
                None => (flag.to_string(), help),
            })
    }

    /// The heading and every flag on one line, shown with a parse error.
    fn synopsis(&self) -> String {
        let mut out = self.heading();
        for (flag, _) in self.options() {
            out.push_str(&format!(" [{flag}]"));
        }
        out
    }
}

/// The full help text, rendered from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::from("usage: liquid-simd <command> [args]\n");
    for cmd in COMMANDS {
        out.push_str(&format!("\n{}\n    {}\n", cmd.heading(), cmd.about));
        for (flag, help) in cmd.options() {
            out.push_str(&format!("    {flag:<24}{help}\n"));
        }
    }
    out.push_str("\nhelp\n    print this text");
    out
}

/// One command line, validated against its [`Command`] table.
struct Args {
    cmd: &'static Command,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    /// Splits `rest` into the table's switches, flag values and operands.
    /// Any token starting with `-` must be a declared flag; a value flag
    /// takes the next token whatever it is; the operand count must be one
    /// the table accepts.
    fn parse(cmd: &'static Command, rest: &[String]) -> Result<Self, String> {
        let mut args = Args {
            cmd,
            switches: Vec::new(),
            values: Vec::new(),
            operands: Vec::new(),
        };
        let mut tokens = rest.iter();
        while let Some(tok) = tokens.next() {
            if !tok.starts_with('-') {
                args.operands.push(tok.clone());
                continue;
            }
            let &(flag, value, _) = cmd
                .flags
                .iter()
                .find(|(f, _, _)| f == tok)
                .ok_or_else(|| format!("unknown flag `{tok}`"))?;
            match value {
                None => args.switches.push(flag),
                Some(v) => {
                    let given = tokens
                        .next()
                        .ok_or_else(|| format!("`{flag}` needs a value ({v})"))?;
                    args.values.push((flag, given.clone()));
                }
            }
        }
        let max = cmd.arity.iter().copied().max().unwrap_or(0);
        if let Some(stray) = args.operands.get(max) {
            return Err(format!("unexpected argument `{stray}`"));
        }
        if !cmd.arity.contains(&args.operands.len()) {
            return Err(format!("missing operand {}", cmd.operands));
        }
        Ok(args)
    }

    /// Trips in debug builds when a handler asks for a flag its table
    /// does not declare (or declares with the other kind).
    fn declared(&self, name: &str, takes_value: bool) {
        debug_assert!(
            self.cmd
                .flags
                .iter()
                .any(|&(f, v, _)| f == name && v.is_some() == takes_value),
            "`{}` does not declare {name}",
            self.cmd.synopsis()
        );
    }

    fn flag(&self, name: &str) -> bool {
        self.declared(name, false);
        self.switches.contains(&name)
    }

    /// The value of the first occurrence of `name`.
    fn value(&self, name: &str) -> Option<&str> {
        self.declared(name, true);
        self.values
            .iter()
            .find(|(f, _)| *f == name)
            .map(|(_, v)| v.as_str())
    }

    fn value_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.value(name).unwrap_or(default)
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// A count: an integer >= 1.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("bad {name} `{v}` (need an integer >= 1)")),
            },
        }
    }

    /// An unsigned integer, decimal or `0x` hex; 0 allowed.
    fn uint(&self, name: &str, default: u64) -> Result<u64, String> {
        let Some(v) = self.value(name) else {
            return Ok(default);
        };
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        }
        .map_err(|_| format!("bad {name} `{v}` (need an unsigned integer)"))
    }

    /// A number > 0.
    fn positive(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x > 0.0 => Ok(x),
                _ => Err(format!("bad {name} `{v}` (need a number > 0)")),
            },
        }
    }

    /// The single operand of a one-operand command.
    fn operand(&self) -> &str {
        &self.operands[0]
    }

    /// `--backend interp|superblock` — which execution backend simulates
    /// the program. Both retire bit-identical architectural state and
    /// cycle counts; superblock pre-lowers straight-line runs for
    /// throughput.
    fn backend(&self) -> Result<liquid_simd::BackendKind, String> {
        match self.value("--backend") {
            None => Ok(liquid_simd::BackendKind::default()),
            Some(v) => liquid_simd::BackendKind::parse(v)
                .ok_or_else(|| format!("bad --backend `{v}` (interp or superblock)")),
        }
    }

    fn lanes(&self) -> Result<usize, String> {
        let lanes = self.uint("--lanes", 8)?;
        if lanes != 0 && !((2..=16).contains(&lanes) && lanes.is_power_of_two()) {
            return Err("--lanes must be 0 (scalar) or a power of two in 2..=16".into());
        }
        Ok(lanes as usize)
    }

    fn jobs(&self) -> Result<usize, String> {
        self.count("--jobs", liquid_simd::default_jobs())
    }
}

/// Loads a program from either assembly text or an object file, by
/// extension (falling back to content sniffing).
fn load_program(path: &str) -> Result<Program, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let looks_binary = bytes.starts_with(object::MAGIC);
    if path.ends_with(".lsim") || looks_binary {
        object::read(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
        asm::assemble(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_asm(args: &Args) -> Result<(), String> {
    let input = args.operand();
    let output = args
        .value("-o")
        .map(str::to_string)
        .unwrap_or_else(|| input.strip_suffix(".s").unwrap_or(input).to_string() + ".lsim");
    let text = fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let program = asm::assemble(&text).map_err(|e| format!("{input}: {e}"))?;
    let bytes = object::write(&program).map_err(|e| e.to_string())?;
    fs::write(&output, &bytes).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{output}: {} instructions ({} bytes code, {} bytes data, {} symbols)",
        program.code.len(),
        program.code_bytes(),
        program.data_bytes(),
        program.symbols.len()
    );
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let program = load_program(args.operand())?;
    print!("{}", program.disassemble());
    Ok(())
}

/// Maps the CLI's `--lanes 0` / `--native` / `--jit` flag triage onto the
/// shared renderer's [`machine_config`](serve::ops::machine_config), so
/// one-shot runs and the serve daemon configure machines identically.
fn config_from(args: &Args) -> Result<MachineConfig, String> {
    let lanes = args.lanes()?;
    let mode = if lanes == 0 {
        serve::proto::Mode::Scalar
    } else if args.flag("--native") {
        serve::proto::Mode::Native
    } else {
        serve::proto::Mode::Liquid
    };
    Ok(serve::ops::machine_config(mode, lanes, args.flag("--jit")).with_backend(args.backend()?))
}

fn print_report(report: &RunReport) {
    print!("{}", serve::ops::report_text(report));
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let program = load_program(args.operand())?;
    let mut cfg = config_from(args)?;
    let trace_out = args.value("--trace-out");
    let tracing = args.flag("--trace") || trace_out.is_some();
    let tracer = tracing.then(Tracer::new);
    if let Some(t) = &tracer {
        cfg = cfg.with_tracer(t.clone());
    }
    let mut machine = Machine::new(&program, cfg);
    let report = machine.run().map_err(|e| e.to_string())?;
    if args.flag("--report") {
        print_report(&report);
    } else {
        print!("{}", serve::ops::run_summary(&report));
    }
    if let Some(t) = &tracer {
        if let Some(path) = trace_out {
            write_trace(t, path)?;
        }
        print!("{}", export::summary(t));
    }
    Ok(())
}

/// Writes the recorded event stream: Chrome trace-event JSON for `.json`
/// paths (loadable in Perfetto / chrome://tracing), JSON-lines otherwise.
fn write_trace(tracer: &Tracer, path: &str) -> Result<(), String> {
    let records = tracer.records();
    let text = if path.ends_with(".json") {
        export::chrome_trace(&records)
    } else {
        export::json_lines(&records)
    };
    fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} events written{}",
        records.len(),
        if tracer.dropped() > 0 {
            format!(" ({} dropped by ring capacity)", tracer.dropped())
        } else {
            String::new()
        }
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let program = load_program(args.operand())?;
    let tracer = Tracer::with_config(TraceConfig {
        instructions: args.flag("--instructions"),
        ..TraceConfig::default()
    });
    let cfg = config_from(args)?.with_tracer(tracer.clone());
    let mut machine = Machine::new(&program, cfg);
    machine.run().map_err(|e| e.to_string())?;
    write_trace(&tracer, args.value_or("--out", "trace.json"))?;
    print!("{}", export::summary(&tracer));
    Ok(())
}

fn cmd_translate(args: &Args) -> Result<(), String> {
    let program = load_program(args.operand())?;
    let lanes = args.lanes()?;
    if lanes < 2 {
        return Err("translate: --lanes must be >= 2".into());
    }
    let (text, _) = serve::ops::translate_text(&program, lanes).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}

/// Resolves an input that is either a program file (by path) or a
/// benchmark workload name (case-insensitive match against the suite, in
/// which case the Liquid build's program is used). Returns the program and
/// a display name.
fn resolve_program(input: &str) -> Result<(Program, String), String> {
    if std::path::Path::new(input).exists() {
        return Ok((load_program(input)?, input.to_string()));
    }
    let wanted = input.to_ascii_lowercase();
    for w in liquid_simd_workloads::all() {
        if w.name.to_ascii_lowercase() == wanted {
            let b = liquid_simd::build_liquid(&w).map_err(|e| format!("{}: {e}", w.name))?;
            return Ok((b.program, w.name));
        }
    }
    let names: Vec<String> = liquid_simd_workloads::all()
        .into_iter()
        .map(|w| w.name)
        .collect();
    Err(format!(
        "`{input}` is neither a file nor a workload (workloads: {})",
        names.join(", ")
    ))
}

fn parse_widths(args: &Args) -> Result<Vec<usize>, String> {
    let Some(list) = args.value("--widths") else {
        return Ok(experiments::paper_widths());
    };
    let mut widths = Vec::new();
    for part in list.split(',') {
        let w: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("bad width `{part}` in --widths"))?;
        if !((2..=16).contains(&w) && w.is_power_of_two()) {
            return Err(format!(
                "--widths entries must be powers of two in 2..=16, got {w}"
            ));
        }
        widths.push(w);
    }
    if widths.is_empty() {
        return Err("--widths needs at least one width".into());
    }
    Ok(widths)
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let (program, name) = resolve_program(args.operand())?;
    let opts = liquid_simd::ExplainOptions {
        widths: parse_widths(args)?,
        interrupt_every: args.uint("--interrupt-every", 0)?,
        all_calls: args.flag("--all-calls"),
        backend: args.backend()?,
    };
    let report = liquid_simd::explain(&program, &name, &opts).map_err(|e| e.to_string())?;
    if args.flag("--json") {
        print!("{}", liquid_simd::diagnose::explain_json(&report));
    } else {
        print!("{}", liquid_simd::diagnose::render_explain(&report));
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let (program, name) = resolve_program(args.operand())?;
    let lanes = args.lanes()?;
    let top = args.count("--top", 10)?;
    let report = liquid_simd::profile(&program, &name, lanes).map_err(|e| e.to_string())?;
    if let Some(path) = args.value("--trace-out") {
        let text = export::chrome_trace_with_spans(&report.records, &report.spans);
        fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "{path}: {} events, {} spans written",
            report.records.len(),
            report.spans.len()
        );
    }
    if args.flag("--json") {
        print!("{}", liquid_simd::diagnose::profile_json(&report, top));
    } else {
        print!("{}", liquid_simd::diagnose::render_profile(&report, top));
    }
    Ok(())
}

/// The workload set and width sweep a `tables`/`bench` invocation uses:
/// all fifteen benchmarks over the paper's widths, or the three-benchmark
/// smoke subset over two widths with `--smoke` (CI-sized).
fn bench_suite(smoke: bool) -> (Vec<liquid_simd::Workload>, Vec<usize>) {
    if smoke {
        (liquid_simd_workloads::smoke(), vec![2, 8])
    } else {
        (liquid_simd_workloads::all(), experiments::paper_widths())
    }
}

/// Table 2's synthesis-model widths (the paper's 8-wide design point and
/// its neighbours).
const TABLE2_WIDTHS: [usize; 4] = [2, 4, 8, 16];
/// Ablation A1's translation costs, in cycles per observed instruction.
const A1_COSTS: [u64; 4] = [1, 10, 40, 100];
/// Ablation A2's software-JIT cost, in CPU-stalling cycles per instruction.
const A2_JIT_COST: u64 = 40;
/// FIR calls in the Figure 6 callout: enough to amortise the first-call
/// warm-up the way the paper's full-length runs did.
const CALLOUT_REPS: u32 = 3000;

fn cmd_tables(args: &Args) -> Result<(), String> {
    use liquid_simd::translator::area::{estimate, TranslatorGeometry};
    let jobs = args.jobs()?;
    let (workloads, widths) = bench_suite(args.flag("--smoke"));
    let err = |e: liquid_simd::VerifyError| e.to_string();

    println!("── Table 2: translator synthesis model (paper, 8-wide: 16 gates, 1.51 ns, 174,117 cells, < 0.2 mm^2) ──");
    println!("  width  crit.path  delay(ns)  fmax(MHz)  cells     mm^2    regstate  buffer");
    for lanes in TABLE2_WIDTHS {
        let e = estimate(&TranslatorGeometry::with_lanes(lanes));
        println!(
            "  {lanes:<6} {:<10} {:<10.2} {:<10.0} {:<9.0} {:<7.3} {:<9.0} {:.0}",
            e.critical_path_gates,
            e.delay_ns(),
            e.fmax_mhz(),
            e.total_cells(),
            e.area_mm2(),
            e.regstate_cells,
            e.buffer_cells,
        );
    }
    println!("\n── Table 5: outlined-function sizes (functions, mean, max) ──");
    for row in experiments::table5(&workloads, jobs).map_err(err)? {
        println!("{row}");
    }
    println!("\n── Table 6: first-call gaps (<150, <300, >=300, mean) ──");
    for row in experiments::table6(&workloads, jobs).map_err(err)? {
        println!("{row}");
    }
    println!("\n── Figure 6: speedup at widths {widths:?} (liquid | built-in | native) ──");
    for row in experiments::figure6(&workloads, &widths, jobs).map_err(err)? {
        println!("{row}");
    }
    let mut fir = liquid_simd_workloads::fir();
    fir.reps = CALLOUT_REPS;
    let c = experiments::overhead_callout(&fir, jobs).map_err(err)?;
    println!(
        "\n── Figure 6 callout: FIR at {CALLOUT_REPS} calls, 8 lanes (liquid vs built-in ISA) ──"
    );
    println!(
        "liquid {:.4}x, built-in {:.4}x, difference {:.4}",
        c.liquid_speedup,
        c.builtin_speedup,
        c.difference()
    );
    println!("\n── Code size (plain, liquid, overhead, extra data) ──");
    for row in experiments::code_size(&workloads, jobs).map_err(err)? {
        println!("{row}");
    }
    println!("\n── Microcode cache at 8x64 (loops, max uops, evictions, microcode calls) ──");
    for row in experiments::mcache(&workloads, jobs).map_err(err)? {
        println!("{row}");
    }
    println!("\n── Ablation A1: cycles at 8 lanes by translation cost (cycles per observed instruction) ──");
    let a1_line = |name: &str, cells: Vec<String>| {
        let line: String = cells.iter().map(|c| format!("{c:<11}")).collect();
        println!("{}", format!("  {name:<15}{line}").trim_end());
    };
    a1_line("benchmark", A1_COSTS.map(|c| format!("cost={c}")).to_vec());
    for row in experiments::ablation_latency(&workloads, &A1_COSTS, jobs).map_err(err)? {
        a1_line(
            &row.benchmark,
            row.cycles_by_cost.values().map(u64::to_string).collect(),
        );
    }
    println!("\n── Ablation A2: hardware translator vs software JIT at {A2_JIT_COST} cycles/instr, 8 lanes ──");
    println!("  benchmark      hw-cycles      jit-cycles     jit/hw");
    for row in experiments::ablation_jit(&workloads, A2_JIT_COST, jobs).map_err(err)? {
        println!(
            "  {:<15}{:<15}{:<15}{:.2}",
            row.benchmark,
            row.hw_cycles,
            row.jit_cycles,
            row.jit_cycles as f64 / row.hw_cycles as f64
        );
    }
    Ok(())
}

/// Renders experiment rows to the exact text a user would see, so serial
/// and parallel sweeps can be compared byte for byte.
fn render_rows<T: std::fmt::Display>(rows: &[T]) -> String {
    rows.iter().map(|r| format!("{r}\n")).collect()
}

/// Flags workloads where a wider SIMD width simulated **more** cycles than
/// the next narrower one. Legal (strip-mining remainders, width-dependent
/// abort fallbacks) but always worth a human look — e.g. `179.art` at
/// width 16 costing more cycles than at width 8.
fn width_anomalies(rows: &[perfhist::WorkloadRow]) -> Vec<String> {
    let mut out = Vec::new();
    for row in rows {
        for pair in row.cycles_by_width.windows(2) {
            let ((narrow, narrow_cycles), (wide, wide_cycles)) = (pair[0], pair[1]);
            if wide > narrow && wide_cycles > narrow_cycles {
                out.push(format!(
                    "{}: width {wide} took {wide_cycles} cycles, more than width \
                     {narrow}'s {narrow_cycles}",
                    row.name
                ));
            }
        }
    }
    out
}

/// Simulates `program` at `width` with the cycle ledger on and rolls the
/// result into a labelled, counter-corroborated snapshot — the input to
/// every ledger diff.
fn ledger_snapshot_at(
    label: &str,
    program: &Program,
    width: usize,
    backend: liquid_simd::BackendKind,
) -> Result<liquid_simd::ledger::Snapshot, String> {
    let cfg = MachineConfig::liquid(width)
        .with_backend(backend)
        .with_ledger(true);
    let out = liquid_simd::run(program, cfg).map_err(|e| format!("{label}: {e}"))?;
    Ok(out.report.ledger_snapshot(label, program))
}

/// The structured `width_anomalies` entries of the bench snapshot: each
/// inversion is re-run at the two widths with the ledger on, and the entry
/// carries the top-3 attribution buckets of the delta plus the dominant
/// cost category — a machine-checked explanation, not just a flag.
fn width_anomaly_entries(
    rows: &[perfhist::WorkloadRow],
    workloads: &[liquid_simd::Workload],
    backend: liquid_simd::BackendKind,
) -> Result<Vec<Json>, String> {
    let mut out = Vec::new();
    for row in rows {
        for pair in row.cycles_by_width.windows(2) {
            let ((narrow, narrow_cycles), (wide, wide_cycles)) = (pair[0], pair[1]);
            if !(wide > narrow && wide_cycles > narrow_cycles) {
                continue;
            }
            let Some(w) = workloads.iter().find(|w| w.name == row.name) else {
                continue;
            };
            let b = liquid_simd::build_liquid(w).map_err(|e| format!("{}: {e}", w.name))?;
            let a = ledger_snapshot_at(
                &format!("{}@w{narrow}", w.name),
                &b.program,
                narrow,
                backend,
            )?;
            let z = ledger_snapshot_at(&format!("{}@w{wide}", w.name), &b.program, wide, backend)?;
            let d = liquid_simd::ledger::diff::diff(&a, &z);
            let buckets = d
                .categories
                .iter()
                .filter(|c| c.delta != 0)
                .take(3)
                .map(|c| {
                    Json::obj([
                        ("category", c.name.as_str().into()),
                        ("narrow_cycles", c.a_cycles.into()),
                        ("wide_cycles", c.b_cycles.into()),
                        ("delta", c.delta.into()),
                    ])
                });
            out.push(Json::obj([
                ("workload", row.name.as_str().into()),
                ("narrow_width", narrow.into()),
                ("narrow_cycles", narrow_cycles.into()),
                ("wide_width", wide.into()),
                ("wide_cycles", wide_cycles.into()),
                ("dominant_category", d.dominant_category.into()),
                ("top_buckets", buckets.collect()),
                (
                    "message",
                    format!(
                        "{}: width {wide} took {wide_cycles} cycles, more than width \
                         {narrow}'s {narrow_cycles}",
                        row.name
                    )
                    .into(),
                ),
            ]));
        }
    }
    Ok(out)
}

/// One side of a `diff`: `<prog|workload>@wN` simulates now with the
/// ledger on; anything else must be a history file, whose newest
/// perfhist-v1 record is rolled into a snapshot.
fn diff_snapshot(
    spec: &str,
    backend: liquid_simd::BackendKind,
) -> Result<liquid_simd::ledger::Snapshot, String> {
    if let Some((base, width)) = spec.rsplit_once("@w") {
        if let Ok(w) = width.parse::<usize>() {
            if !((2..=16).contains(&w) && w.is_power_of_two()) {
                return Err(format!("bad width in `{spec}` (powers of two in 2..=16)"));
            }
            let (program, name) = resolve_program(base)?;
            return ledger_snapshot_at(&format!("{name}@w{w}"), &program, w, backend);
        }
    }
    let path = std::path::Path::new(spec);
    if !path.exists() {
        return Err(format!(
            "`{spec}` is neither `<prog|workload>@wN` nor a history file"
        ));
    }
    let records = perfhist::store::load(path)?;
    let rec = records
        .iter()
        .rev()
        .find(|r| r.get("schema").and_then(Json::as_str) == Some("perfhist-v1"))
        .ok_or_else(|| format!("{spec}: no perfhist-v1 record"))?;
    Ok(record_snapshot(rec, spec))
}

/// Rolls one perfhist-v1 record into a diff-able snapshot: `ledger.*`
/// counters become the category totals, per-workload rows become the
/// regions (with the per-category split when the record was written under
/// `bench --ledger`), and every other deterministic counter rides along as
/// corroborating evidence.
fn record_snapshot(rec: &Json, label: &str) -> liquid_simd::ledger::Snapshot {
    use liquid_simd::ledger::{RegionSnap, Snapshot};
    let commit = rec.get("commit").and_then(Json::as_str).unwrap_or("?");
    let backend = rec.get("backend").and_then(Json::as_str).unwrap_or("?");
    let mut snap = Snapshot {
        label: format!("{label} ({commit}, {backend})"),
        ..Snapshot::default()
    };
    if let Some(pairs) = rec.get("counters").and_then(Json::as_obj) {
        for (k, v) in pairs {
            let Some(v) = v.as_u64() else { continue };
            if let Some(rest) = k.strip_prefix("ledger.") {
                if let Some(cat) = rest.strip_suffix(".cycles") {
                    snap.categories.entry(cat.to_string()).or_default().cycles = v;
                } else if let Some(cat) = rest.strip_suffix(".events") {
                    snap.categories.entry(cat.to_string()).or_default().events = v;
                }
            } else if RunReport::is_evidence(k) {
                snap.counters.insert(k.clone(), v);
            }
        }
    }
    if let Some(rows) = rec.get("workloads").and_then(Json::as_arr) {
        for row in rows {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let cycles = row.get("sim_cycles").and_then(Json::as_u64).unwrap_or(0);
            snap.total_cycles += cycles;
            let mut r = RegionSnap {
                cycles,
                ..RegionSnap::default()
            };
            if let Some(cats) = row
                .get("ledger")
                .and_then(|l| l.get("categories"))
                .and_then(Json::as_obj)
            {
                for (cat, b) in cats {
                    r.by_category.insert(
                        cat.clone(),
                        b.get("cycles").and_then(Json::as_u64).unwrap_or(0),
                    );
                }
            }
            snap.regions.insert(name, r);
        }
    }
    snap
}

/// `liquid-simd diff`: explain a performance delta from the cycle ledger.
fn cmd_diff(args: &Args) -> Result<(), String> {
    let backend = args.backend()?;
    let (a, b) = match args.operands.as_slice() {
        // No sides: the last two perfhist-v1 records of the history —
        // "what changed since the previous bench run?"
        [] => {
            let path = history_path(args);
            let records = perfhist::store::load(&path)?;
            let mut v1: Vec<&Json> = records
                .iter()
                .filter(|r| r.get("schema").and_then(Json::as_str) == Some("perfhist-v1"))
                .collect();
            if v1.len() < 2 {
                return Err(format!(
                    "{}: need at least two perfhist-v1 records to diff (found {})",
                    path.display(),
                    v1.len()
                ));
            }
            let newest = v1.pop().expect("len checked");
            let previous = v1.pop().expect("len checked");
            (
                record_snapshot(previous, "history[-2]"),
                record_snapshot(newest, "history[-1]"),
            )
        }
        [a, b] => (diff_snapshot(a, backend)?, diff_snapshot(b, backend)?),
        _ => unreachable!("the diff table accepts zero or two sides"),
    };
    let d = liquid_simd::ledger::diff::diff(&a, &b);
    let rendered = if args.flag("--json") {
        liquid_simd::ledger::diff::render_json(&d)
    } else {
        liquid_simd::ledger::diff::render_text(&d)
    };
    match args.value("--out") {
        Some(p) => {
            fs::write(p, &rendered).map_err(|e| format!("{p}: {e}"))?;
            println!("{p}: written");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let jobs = args.jobs()?;
    let smoke = args.flag("--smoke");
    let (workloads, widths) = bench_suite(smoke);
    let want_ledger = args.flag("--ledger");
    let backend = args.backend()?;
    let out_path = args.value_or("--out", "BENCH_sim.json");
    let err = |e: liquid_simd::VerifyError| e.to_string();
    // The headline width: the paper's 8-lane configuration when swept,
    // else the widest width in the sweep.
    let headline = if widths.contains(&8) {
        8
    } else {
        *widths.last().ok_or("bench: empty width sweep")?
    };

    // Per-workload measurements, all deterministic except wall clock: the
    // scalar baseline (speedup denominator), liquid cycles at every swept
    // width, wall-clock throughput of the headline run (the
    // predecoded-metadata fast path is what that number measures), and the
    // headline run's counter-telemetry snapshot.
    let mut rows: Vec<perfhist::WorkloadRow> = Vec::new();
    let mut counters = std::collections::BTreeMap::new();
    for w in &workloads {
        let plain = liquid_simd::build_plain(w).map_err(|e| format!("{}: {e}", w.name))?;
        let base = liquid_simd::run(
            &plain.program,
            MachineConfig::scalar_only().with_backend(backend),
        )
        .map_err(|e| e.to_string())?;
        let b = liquid_simd::build_liquid(w).map_err(|e| format!("{}: {e}", w.name))?;
        let mut row = perfhist::WorkloadRow {
            name: w.name.clone(),
            baseline_cycles: base.report.cycles,
            sim_cycles: 0,
            cycles_by_width: Vec::new(),
            ledger: None,
            wall_s: 0.0,
            cycles_per_sec: 0.0,
        };
        for &width in &widths {
            // The ledger is an observer (never changes cycles), recorded
            // at the headline width only when `--ledger` asked for it.
            let record_ledger = want_ledger && width == headline;
            let t0 = Instant::now();
            let out = liquid_simd::run(
                &b.program,
                MachineConfig::liquid(width)
                    .with_backend(backend)
                    .with_ledger(record_ledger),
            )
            .map_err(|e| e.to_string())?;
            if width == headline {
                row.wall_s = t0.elapsed().as_secs_f64();
                row.sim_cycles = out.report.cycles;
                row.cycles_per_sec = out.report.cycles as f64 / row.wall_s.max(1e-9);
                for (name, v) in out.report.counters() {
                    *counters.entry(name).or_insert(0) += v;
                }
            }
            if record_ledger {
                row.ledger = Some(out.report.ledger_snapshot(&w.name, &b.program).json());
            }
            row.cycles_by_width.push((width, out.report.cycles));
        }
        println!(
            "{:<14} {:>12} cycles @ {headline} lanes  ({:>9} scalar, {:.2}x)  \
             {:>8.3} ms  {:>12.0} sim-cycles/s",
            w.name,
            row.sim_cycles,
            row.baseline_cycles,
            row.baseline_cycles as f64 / row.sim_cycles.max(1) as f64,
            row.wall_s * 1e3,
            row.cycles_per_sec
        );
        rows.push(row);
    }

    // A wider machine that loses to a narrower one is surprising enough to
    // say out loud, not leave buried in the JSON snapshot.
    let anomalies = width_anomalies(&rows);
    for a in &anomalies {
        println!("warning: width anomaly — {a}");
    }
    // The snapshot gets the structured form: each inversion re-run at the
    // two widths with the ledger on, so the entry names where the extra
    // cycles went instead of just flagging that they exist.
    let anomaly_entries = width_anomaly_entries(&rows, &workloads, backend)?;

    // The Figure 6 sweep, serial then parallel: wall-clock speedup plus a
    // byte-identity check on the rendered rows (determinism gate). Per-task
    // timings go into the report so a disappointing speedup is diagnosable
    // (the 2024-era anomaly was a speedup of 0.992 with no way to tell
    // whether scheduling, build memoization, or one slow unit was at
    // fault).
    let n_units = workloads.len() * (1 + widths.len() * 3);
    let show_progress = args.flag("--progress");
    let progress = |t: &liquid_simd::TaskTiming| {
        if show_progress {
            eprintln!(
                "  [worker {}] unit {}/{} done in {:.1} ms",
                t.worker,
                t.index + 1,
                n_units,
                t.wall_s * 1e3
            );
        }
    };
    let t0 = Instant::now();
    let (serial, _) = experiments::figure6_timed(&workloads, &widths, 1, &progress).map_err(err)?;
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (parallel, timings) =
        experiments::figure6_timed(&workloads, &widths, jobs, &progress).map_err(err)?;
    let parallel_s = t0.elapsed().as_secs_f64();
    let deterministic = render_rows(&serial) == render_rows(&parallel);
    let speedup = serial_s / parallel_s.max(1e-9);
    println!(
        "figure6 sweep: serial {serial_s:.3}s, parallel ({jobs} jobs) {parallel_s:.3}s, \
         {speedup:.2}x, {}",
        if deterministic {
            "byte-identical"
        } else {
            "NONDETERMINISTIC"
        }
    );
    // Busy seconds per worker: imbalance here (one worker owning most of
    // the wall time) explains a poor speedup.
    let n_workers = timings.iter().map(|t| t.worker + 1).max().unwrap_or(1);
    let mut worker_busy_s = vec![0.0f64; n_workers];
    for t in &timings {
        worker_busy_s[t.worker] += t.wall_s;
    }
    let speedup_warning = jobs > 1 && speedup < 1.05;
    if speedup_warning {
        println!(
            "warning: parallel sweep speedup {speedup:.3}x < 1.05x at {jobs} jobs — see the \
             per-task wall times in the report (worker busy seconds: {})",
            worker_busy_s
                .iter()
                .enumerate()
                .map(|(w, s)| format!("w{w}={s:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    let workload_rows = rows.iter().map(|row| {
        let by_width = row
            .cycles_by_width
            .iter()
            .map(|&(w, c)| (w.to_string(), c.into()));
        Json::obj([
            ("name", row.name.as_str().into()),
            ("baseline_cycles", row.baseline_cycles.into()),
            ("sim_cycles", row.sim_cycles.into()),
            ("cycles_by_width", Json::obj(by_width)),
            ("wall_s", Json::fixed(row.wall_s, 6)),
            ("sim_cycles_per_sec", Json::fixed(row.cycles_per_sec, 0)),
        ])
    });
    let workers = worker_busy_s
        .iter()
        .enumerate()
        .map(|(w, &s)| Json::obj([("worker", w.into()), ("busy_s", Json::fixed(s, 6))]));
    let tasks = timings.iter().map(|t| {
        Json::obj([
            ("index", t.index.into()),
            ("worker", t.worker.into()),
            ("start_s", Json::fixed(t.start_s, 6)),
            ("wall_s", Json::fixed(t.wall_s, 6)),
        ])
    });
    let json = Json::obj([
        ("schema", "liquid-simd-bench-v1".into()),
        ("backend", backend.name().into()),
        ("jobs", jobs.into()),
        ("smoke", smoke.into()),
        ("widths", widths.iter().copied().collect()),
        ("workloads", workload_rows.collect()),
        ("width_anomalies", Json::Arr(anomaly_entries)),
        (
            "figure6_sweep",
            Json::obj([
                ("serial_s", Json::fixed(serial_s, 6)),
                ("parallel_s", Json::fixed(parallel_s, 6)),
                ("speedup", Json::fixed(speedup, 3)),
                ("deterministic", deterministic.into()),
                ("speedup_warning", speedup_warning.into()),
            ]),
        ),
        ("figure6_workers", workers.collect()),
        ("figure6_tasks", tasks.collect()),
    ])
    .write_pretty();
    fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!("{out_path}: written");

    // Append one perfhist-v1 record to the history. The record carries no
    // `jobs` field and isolates every wall-clock measurement, so two runs
    // of the same code differ only in scrubbable fields regardless of
    // parallelism (the determinism contract the sentinel gates on).
    if let Some(path) = history(args) {
        let meta = record_meta(smoke, &widths, headline, backend);
        let wall_extras = vec![
            ("figure6_serial_s".to_string(), serial_s),
            ("figure6_parallel_s".to_string(), parallel_s),
            ("figure6_speedup".to_string(), speedup),
        ];
        let record = perfhist::record::build(&meta, &rows, &counters, &wall_extras);
        perfhist::store::append(&path, &record)?;
        println!(
            "{}: appended perfhist-v1 record for {}",
            path.display(),
            meta.commit
        );
    }

    if !deterministic {
        return Err("parallel figure6 sweep diverged from the serial sweep".into());
    }
    Ok(())
}

/// The history file: `--history FILE`, default bench/history.jsonl.
fn history_path(args: &Args) -> PathBuf {
    PathBuf::from(args.value_or("--history", "bench/history.jsonl"))
}

/// The history to append to, unless `--no-history`.
fn history(args: &Args) -> Option<PathBuf> {
    (!args.flag("--no-history")).then(|| history_path(args))
}

/// Provenance of one bench history record.
fn record_meta(
    smoke: bool,
    widths: &[usize],
    headline: usize,
    backend: liquid_simd::BackendKind,
) -> perfhist::RecordMeta {
    perfhist::RecordMeta {
        commit: perfhist::record::git_commit(std::path::Path::new(".")),
        timestamp: perfhist::record::unix_now(),
        host: perfhist::record::host_fingerprint(),
        config_hash: format!("{:016x}", MachineConfig::liquid(headline).fingerprint()),
        smoke,
        widths: widths.to_vec(),
        backend: backend.name().to_string(),
    }
}

/// Expands the embedded kernelgen corpus, with the `--smoke` filter (the
/// CI-sized cut: short trips, shallow unrolls) applied when asked.
fn gen_variants(smoke: bool) -> Result<Vec<liquid_simd_kernelgen::Variant>, String> {
    let all = liquid_simd_kernelgen::expand_corpus().map_err(|e| format!("gen: corpus: {e}"))?;
    Ok(all
        .into_iter()
        .filter(|v| !smoke || (v.trip <= 64 && v.unroll <= 2))
        .collect())
}

/// One manifest line per variant: everything the expansion determined,
/// nothing the clock or host did — two runs must produce byte-identical
/// manifests (the CI `cmp` gate on expansion determinism).
fn gen_manifest(variants: &[liquid_simd_kernelgen::Variant]) -> String {
    use liquid_simd_kernelgen::Payload;
    let mut out = String::new();
    for v in variants {
        let kind = match &v.payload {
            Payload::Kernel(_) => "kernel".to_string(),
            Payload::Asm { expected_tag, .. } => format!("abort:{expected_tag}"),
        };
        out.push_str(&format!(
            "{}\t{}\ttrip={}\tunroll={}\tseed={:#018x}\t{}\n",
            v.name, v.family, v.trip, v.unroll, v.data_seed, kind
        ));
    }
    out
}

/// `liquid-simd gen`: list, expand, emit, or conformance-check the
/// generated kernel families.
fn cmd_gen(args: &Args) -> Result<(), String> {
    use liquid_simd_kernelgen::Payload;
    let variants = gen_variants(args.flag("--smoke"))?;
    if let Some(wanted) = args.value("--emit") {
        let v = variants
            .iter()
            .find(|v| v.name == wanted)
            .ok_or_else(|| format!("gen: no variant named `{wanted}` (try `gen --list`)"))?;
        match &v.payload {
            Payload::Kernel(w) => {
                let b = liquid_simd::build_liquid(w).map_err(|e| format!("{}: {e}", v.name))?;
                print!("{}", b.program.disassemble());
            }
            Payload::Asm { src, expected_tag } => {
                println!("# untranslatable idiom — expected abort tag: {expected_tag}");
                print!("{src}");
            }
        }
        return Ok(());
    }
    let text = if args.flag("--expand") {
        gen_manifest(&variants)
    } else {
        // --list (the default): names only.
        variants.iter().map(|v| format!("{}\n", v.name)).collect()
    };
    match args.value("--out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{path}: {} variants written", variants.len());
        }
        None => print!("{text}"),
    }
    let families: std::collections::BTreeSet<&str> =
        variants.iter().map(|v| v.family.as_str()).collect();
    eprintln!(
        "gen: {} variants from {} families",
        variants.len(),
        families.len()
    );
    Ok(())
}

/// `gen --check`: every corpus variant through the conform oracle, plus
/// the abort-coverage gate (no reachable tag may go unexercised).
fn cmd_gen_check(args: &Args) -> Result<(), String> {
    let (outcomes, coverage) = liquid_simd_conform::families::check_corpus(args.jobs()?);
    let passed = outcomes.iter().filter(|o| o.passed).count();
    let failed = outcomes.len() - passed;

    let fails: Vec<&liquid_simd_conform::oracle::CaseOutcome> =
        outcomes.iter().filter(|o| !o.passed).collect();
    let failures = fails.iter().map(|f| {
        Json::obj([
            ("name", f.name.as_str().into()),
            ("detail", f.detail.as_str().into()),
        ])
    });
    let json = Json::obj([
        ("schema", "gen-check-v1".into()),
        ("variants", outcomes.len().into()),
        (
            "summary",
            Json::obj([
                ("passed", passed.into()),
                ("failed", failed.into()),
                ("ok", (failed == 0 && coverage.uncovered.is_empty()).into()),
            ]),
        ),
        ("failures", failures.collect()),
        (
            "abort_coverage",
            liquid_simd_conform::coverage_json(&coverage),
        ),
    ])
    .write_pretty();

    if let Some(path) = args.value("--out") {
        fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: written");
    }
    if args.flag("--json") {
        print!("{json}");
    } else {
        println!(
            "gen --check: {} variants — {passed} passed, {failed} failed",
            outcomes.len()
        );
        for f in &fails {
            println!("FAIL {}: {}", f.name, f.detail);
        }
        println!(
            "abort coverage: {} families, {} uncovered tag(s){}",
            coverage.by_family.len(),
            coverage.uncovered.len(),
            if coverage.uncovered.is_empty() {
                String::new()
            } else {
                format!(" — {}", coverage.uncovered.join(", "))
            }
        );
        for (tag, why) in &coverage.exempt {
            println!("  exempt {tag}: {why}");
        }
    }
    if failed > 0 {
        return Err("gen --check: oracle failures".into());
    }
    if !coverage.uncovered.is_empty() {
        return Err(format!(
            "gen --check: abort tags with no witness: {}",
            coverage.uncovered.join(", ")
        ));
    }
    Ok(())
}

/// `bench --families`: benchmark the generated corpus instead of the
/// fixed fifteen. Every deterministic number (cycles, speedup
/// percentiles, abort tallies, width anomalies) goes into the snapshot;
/// wall-clock stays on stdout only, so the snapshot file is
/// byte-identical run to run — `cmp` of two runs is the CI determinism
/// gate.
fn cmd_bench_families(args: &Args) -> Result<(), String> {
    use liquid_simd_kernelgen::Payload;
    let smoke = args.flag("--smoke");
    let backend = args.backend()?;
    let widths = if smoke {
        vec![2, 8]
    } else {
        experiments::paper_widths()
    };
    let headline = if widths.contains(&8) {
        8
    } else {
        *widths.last().unwrap()
    };
    let out_path = args.value_or("--out", "BENCH_sim.json");
    let variants = gen_variants(smoke)?;
    let t0 = Instant::now();

    struct FamAcc {
        variants: u64,
        speedups: Vec<f64>,
        aborts: std::collections::BTreeMap<String, u64>,
    }
    let mut fams: std::collections::BTreeMap<String, FamAcc> = std::collections::BTreeMap::new();
    let mut rows: Vec<perfhist::WorkloadRow> = Vec::new();
    for v in &variants {
        let acc = fams.entry(v.family.clone()).or_insert_with(|| FamAcc {
            variants: 0,
            speedups: Vec::new(),
            aborts: std::collections::BTreeMap::new(),
        });
        acc.variants += 1;
        // Kernels get the full scalar-baseline + per-width sweep; the
        // untranslatable assembly idioms run per width only for their
        // abort tallies (their speedup is 1 by construction — they
        // always fall back to the scalar loop).
        let (program, baseline_cycles) = match &v.payload {
            Payload::Kernel(w) => {
                let plain = liquid_simd::build_plain(w).map_err(|e| format!("{}: {e}", v.name))?;
                let base = liquid_simd::run(
                    &plain.program,
                    MachineConfig::scalar_only().with_backend(backend),
                )
                .map_err(|e| e.to_string())?;
                let b = liquid_simd::build_liquid(w).map_err(|e| format!("{}: {e}", v.name))?;
                (b.program, base.report.cycles)
            }
            Payload::Asm { src, .. } => {
                let program = asm::assemble(src).map_err(|e| format!("{}: {e}", v.name))?;
                (program, 0)
            }
        };
        let mut row = perfhist::WorkloadRow {
            name: v.name.clone(),
            baseline_cycles,
            sim_cycles: 0,
            cycles_by_width: Vec::new(),
            ledger: None,
            wall_s: 0.0,
            cycles_per_sec: 0.0,
        };
        for &width in &widths {
            let out =
                liquid_simd::run(&program, MachineConfig::liquid(width).with_backend(backend))
                    .map_err(|e| format!("{}@{width}: {e}", v.name))?;
            if width == headline {
                row.sim_cycles = out.report.cycles;
            }
            row.cycles_by_width.push((width, out.report.cycles));
            for (tag, &n) in &out.report.translator.aborts {
                *acc.aborts.entry((*tag).to_string()).or_insert(0) += n;
            }
        }
        if baseline_cycles > 0 {
            acc.speedups
                .push(baseline_cycles as f64 / row.sim_cycles.max(1) as f64);
            // Width anomalies only make sense where widths change the
            // cycle count; always-aborting variants run scalar at every
            // width.
            rows.push(row);
        }
    }

    let mut fam_rows: Vec<perfhist::FamilyRow> = Vec::new();
    for (family, acc) in &mut fams {
        acc.speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
        fam_rows.push(perfhist::FamilyRow {
            family: family.clone(),
            variants: acc.variants,
            speedup_p10: perfhist::record::nearest_rank(&acc.speedups, 10.0),
            speedup_p50: perfhist::record::nearest_rank(&acc.speedups, 50.0),
            speedup_p90: perfhist::record::nearest_rank(&acc.speedups, 90.0),
            aborts: acc.aborts.iter().map(|(t, &n)| (t.clone(), n)).collect(),
        });
    }
    for f in &fam_rows {
        let aborts = f
            .aborts
            .iter()
            .map(|(t, n)| format!("{t}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<16} {:>3} variants  speedup p10 {:>5.2}x  p50 {:>5.2}x  p90 {:>5.2}x  {}",
            f.family,
            f.variants,
            f.speedup_p10,
            f.speedup_p50,
            f.speedup_p90,
            if aborts.is_empty() { "-" } else { &aborts }
        );
    }
    let anomalies = width_anomalies(&rows);
    for a in &anomalies {
        println!("warning: width anomaly — {a}");
    }

    // The snapshot: schema'd, sorted, and free of wall-clock and host
    // facts — rerunning must reproduce it byte for byte.
    let families = fam_rows.iter().map(|f| {
        let aborts = f.aborts.iter().map(|(t, n)| (t.clone(), (*n).into()));
        Json::obj([
            ("family", f.family.as_str().into()),
            ("variants", f.variants.into()),
            ("speedup_p10", Json::fixed(f.speedup_p10, 4)),
            ("speedup_p50", Json::fixed(f.speedup_p50, 4)),
            ("speedup_p90", Json::fixed(f.speedup_p90, 4)),
            ("aborts", Json::obj(aborts)),
        ])
    });
    let json = Json::obj([
        ("schema", "liquid-simd-bench-families-v1".into()),
        ("backend", backend.name().into()),
        ("smoke", smoke.into()),
        ("widths", widths.iter().copied().collect()),
        ("variants", variants.len().into()),
        ("families", families.collect()),
        (
            "width_anomalies",
            anomalies.iter().map(String::as_str).collect(),
        ),
    ])
    .write_pretty();
    fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "{out_path}: written ({} variants, {} families, {:.3}s)",
        variants.len(),
        fam_rows.len(),
        t0.elapsed().as_secs_f64()
    );

    if let Some(path) = history(args) {
        let meta = record_meta(smoke, &widths, headline, backend);
        let wall = vec![("families_total_s".to_string(), t0.elapsed().as_secs_f64())];
        let record = perfhist::record::build_gen(&meta, &fam_rows, &wall);
        perfhist::store::append(&path, &record)?;
        println!(
            "{}: appended perfhist-gen-v1 record for {}",
            path.display(),
            meta.commit
        );
    }
    Ok(())
}

/// `bench --serve`: the daemon load generator. Two passes over the same
/// request multiset — one shard, then `--shards` — diffed byte for byte,
/// with the translation-cache hit rate gated at 90%.
fn cmd_bench_serve(args: &Args) -> Result<(), String> {
    let opts = serve::loadgen::LoadOptions {
        smoke: args.flag("--smoke"),
        backend: args.backend()?,
        clients: args.count("--clients", 4)?,
        requests_per_client: args.uint("--requests", 0)? as usize,
        shards: args.count("--shards", 8)?,
        min_hit_rate: 0.9,
        history: history(args),
        seed: 0xC0FFEE,
        measure_recorder: args.flag("--measure-recorder"),
    };
    let report = serve::loadgen::run(&opts)?;
    println!(
        "bench --serve: {} requests × 2 passes ({} clients) — byte-identical at 1 and {} shards",
        report.requests,
        opts.clients.max(1),
        report.shards
    );
    println!(
        "translation cache: {:.1}% hit rate (gate 90.0%), {} hits / {} misses in the sharded pass",
        report.hit_rate * 100.0,
        report.sharded.cache_hits,
        report.sharded.cache_misses
    );
    println!(
        "determinism: requests {:016x}, responses {:016x}, {} sim-cycles total \
         ({} error responses, identical in both passes)",
        report.sharded.determinism.0,
        report.sharded.determinism.1,
        report.sharded.determinism.2,
        report.errors
    );
    if let Some(history) = &opts.history {
        println!(
            "{}: appended {} perfhist-serve-v1 records",
            history.display(),
            report.single.records_appended + report.sharded.records_appended
        );
    }
    if let Some((on_s, off_s)) = report.recorder_walls_s {
        let frac = report.recorder_overhead_frac().unwrap_or(0.0);
        println!(
            "flight recorder overhead: {:+.1}% wall ({on_s:.3}s on vs {off_s:.3}s off, \
             sharded pass; responses byte-identical with the recorder off)",
            frac * 100.0
        );
        let note = format!(
            "flight recorder overhead {:+.1}% wall ({:.3}s on vs {:.3}s off, {} requests, \
             {} shards, backend {})",
            frac * 100.0,
            on_s,
            off_s,
            report.requests,
            report.shards,
            opts.backend.name()
        );
        let out = args.value_or("--out", "BENCH_sim.json");
        record_bench_note(out, &note)?;
        println!("{out}: recorder-overhead note recorded");
    }
    Ok(())
}

/// Records one line in the bench snapshot's `notes` array, replacing any
/// previous notes and keeping every other member; a missing snapshot gets
/// a minimal one.
fn record_bench_note(path: &str, note: &str) -> Result<(), String> {
    let mut doc = match fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        Err(_) => Json::obj([("schema", "liquid-simd-bench-v1".into())]),
    };
    doc.set("notes", Json::Arr(vec![note.into()]));
    fs::write(path, doc.write_pretty()).map_err(|e| format!("{path}: {e}"))
}

/// `liquid-simd serve`: bind the daemon and block until a `shutdown`
/// request (or a bind/accept failure) stops it.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let shards = args.count("--shards", liquid_simd::default_jobs().clamp(1, 8))?;
    let opts = serve::ServeOptions {
        addr: args.value_or("--addr", "127.0.0.1:7070").to_string(),
        shards,
        history: history(args),
        history_every: args.count("--history-every", 64)?,
        backend: args.backend()?,
        flight_capacity: args.uint(
            "--flight-capacity",
            liquid_simd_trace::DEFAULT_FLIGHT_CAPACITY as u64,
        )? as usize,
        flight_dir: args.path("--flight-dir"),
        inject_faults: args.flag("--inject-faults"),
        burst_threshold: args.count("--burst-threshold", 8)? as u64,
        cache_capacity: args.uint("--cache-cap", 0)? as usize,
    };
    if opts.inject_faults {
        eprintln!("liquid-simd serve: --inject-faults is on (test-only crash drills enabled)");
    }
    let handle = serve::spawn(opts)?;
    println!(
        "liquid-simd serve: listening on {} ({shards} shards) — line-delimited JSON, \
         {{\"op\":\"shutdown\"}} to stop",
        handle.addr
    );
    let summary = handle.join()?;
    println!(
        "liquid-simd serve: {} requests ({} errors), cache {} hits / {} misses, \
         {} history records, {} flight dumps",
        summary.requests,
        summary.errors,
        summary.cache_hits,
        summary.cache_misses,
        summary.records_appended,
        summary.dumps
    );
    Ok(())
}

/// Sends one line-JSON request to a running daemon and parses the single
/// response line. `inspect` and `top` are pure observers, so a blocking
/// round-trip per poll is plenty.
fn serve_request(addr: &str, line: &str) -> Result<Json, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("connect {addr}: {e} (is `liquid-simd serve` running?)"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("{addr}: send: {e}"))?;
    let mut resp = String::new();
    BufReader::new(stream)
        .read_line(&mut resp)
        .map_err(|e| format!("{addr}: recv: {e}"))?;
    if resp.trim().is_empty() {
        return Err(format!(
            "{addr}: daemon closed the connection without answering"
        ));
    }
    Json::parse(resp.trim_end()).map_err(|e| format!("{addr}: bad response: {e}"))
}

/// Fetches one `metrics-v1` document from a daemon's `inspect` op.
fn fetch_metrics(addr: &str) -> Result<Json, String> {
    let resp = serve_request(addr, "{\"op\":\"inspect\"}")?;
    match resp.get("metrics") {
        Some(m) => Ok(m.clone()),
        None => Err(format!(
            "{addr}: unexpected inspect response: {}",
            resp.write()
        )),
    }
}

/// Walks a dotted path through nested JSON objects; absent → 0.
fn path_u64(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

fn path_f64(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// One text frame over a `metrics-v1` document — shared by `inspect`
/// (one shot, with the full counter table) and `top` (redrawn per poll,
/// with a throughput line computed from the previous poll).
fn render_metrics_frame(
    out: &mut String,
    addr: &str,
    m: &Json,
    throughput: Option<f64>,
    counters_table: bool,
) {
    use std::fmt::Write;
    let backend = m.get("backend").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "liquid-simd @ {addr} — backend {backend}, {} shards, up {:.1}s",
        path_u64(m, &["shards"]),
        path_u64(m, &["uptime_us"]) as f64 / 1e6
    );
    let by_op = m
        .get("requests")
        .and_then(|r| r.get("by_op"))
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default();
    let _ = write!(
        out,
        "requests   {} total ({} errors)",
        path_u64(m, &["requests", "total"]),
        path_u64(m, &["requests", "errors"])
    );
    if let Some(rps) = throughput {
        let _ = write!(out, "   throughput {rps:.1} req/s");
    }
    out.push('\n');
    if !by_op.is_empty() {
        let _ = writeln!(out, "ops        {by_op}");
    }
    for (label, name, unit) in [
        ("latency", "wall.latency_us", "us"),
        ("cycles", "request.cycles", ""),
    ] {
        let Some(h) = m.get("histograms").and_then(|hs| hs.get(name)) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{label:<10} p50 <={}{unit}  p95 <={}{unit}  p99 <={}{unit}  max {}{unit}  \
             ({} samples)",
            serve::inspect::percentile_json(h, 50.0),
            serve::inspect::percentile_json(h, 95.0),
            serve::inspect::percentile_json(h, 99.0),
            path_u64(h, &["max"]),
            path_u64(h, &["count"])
        );
    }
    let cap = path_u64(m, &["cache", "translations", "capacity"]);
    let _ = writeln!(
        out,
        "cache      {:.1}% hit rate ({} hits / {} misses), {} entries{}, generation {}, \
         {} evictions, {} cached builds",
        path_f64(m, &["cache", "translations", "hit_rate"]) * 100.0,
        path_u64(m, &["cache", "translations", "hits"]),
        path_u64(m, &["cache", "translations", "misses"]),
        path_u64(m, &["cache", "translations", "entries"]),
        if cap == 0 {
            " (unbounded)".to_string()
        } else {
            format!(" (cap {cap})")
        },
        path_u64(m, &["cache", "translations", "generation"]),
        path_u64(m, &["cache", "translations", "evictions"]),
        path_u64(m, &["cache", "builds"])
    );
    let _ = writeln!(
        out,
        "flight     {} events (cap {}), {} dropped, {} contended",
        path_u64(m, &["flight", "events"]),
        path_u64(m, &["flight", "capacity"]),
        path_u64(m, &["flight", "dropped"]),
        path_u64(m, &["flight", "contended"])
    );
    // Abort-reason tallies straight from the merged shard counters
    // (`sim.translator.abort.<reason>`), the live view of why regions
    // fell back to scalar execution.
    let aborts = m
        .get("counters")
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix("sim.translator.abort.")
                        .map(|tag| format!("{tag}={}", v.as_u64().unwrap_or(0)))
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "aborts     {}",
        if aborts.is_empty() { "none" } else { &aborts }
    );
    // Per-backend cycle split from the merged shard counters
    // (`sim.backend.<name>.cycles` / `.runs`): which execution backend did
    // the simulated work, and how much of it.
    let mut backends: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    if let Some(pairs) = m.get("counters").and_then(Json::as_obj) {
        for (k, v) in pairs {
            let Some(rest) = k.strip_prefix("sim.backend.") else {
                continue;
            };
            let v = v.as_u64().unwrap_or(0);
            if let Some(name) = rest.strip_suffix(".cycles") {
                backends.entry(name.to_string()).or_default().0 = v;
            } else if let Some(name) = rest.strip_suffix(".runs") {
                backends.entry(name.to_string()).or_default().1 = v;
            }
        }
    }
    let split = backends
        .iter()
        .map(|(name, &(cycles, runs))| format!("{name} {cycles} cycles / {runs} runs"))
        .collect::<Vec<_>>()
        .join("   ");
    let _ = writeln!(
        out,
        "backends   {}",
        if split.is_empty() { "none" } else { &split }
    );
    // Merged ledger category cycles (`sim.ledger.<category>.cycles`) —
    // the serve-side view of the cycle ledger, scrub-stable at any shard
    // count because the shards sum.
    let ledger = m
        .get("counters")
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix("sim.ledger.")
                        .and_then(|rest| rest.strip_suffix(".cycles"))
                        .filter(|_| v.as_u64().unwrap_or(0) > 0)
                        .map(|cat| format!("{cat}={}", v.as_u64().unwrap_or(0)))
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "ledger     {}",
        if ledger.is_empty() { "none" } else { &ledger }
    );
    if counters_table {
        if let Some(pairs) = m.get("counters").and_then(Json::as_obj) {
            let table: std::collections::BTreeMap<String, u64> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
                .collect();
            out.push_str("counters\n");
            out.push_str(&liquid_simd::render_counter_table(&table));
        }
    }
}

/// `liquid-simd inspect`: one `metrics-v1` snapshot, rendered for humans
/// (or raw/scrubbed JSON for scripts and byte-comparisons).
fn cmd_inspect(args: &Args) -> Result<(), String> {
    let addr = args.value_or("--addr", "127.0.0.1:7070");
    let metrics = fetch_metrics(addr)?;
    if args.flag("--raw") {
        println!("{}", metrics.write());
        return Ok(());
    }
    if args.flag("--scrub") {
        println!("{}", serve::inspect::scrub(&metrics).write());
        return Ok(());
    }
    let mut frame = String::new();
    render_metrics_frame(&mut frame, addr, &metrics, None, true);
    print!("{frame}");
    Ok(())
}

/// `liquid-simd top`: poll `inspect` and redraw a plain-ANSI terminal
/// frame — throughput from the delta between polls, p50/p95/p99, cache
/// hit rate, abort tallies.
fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.value_or("--addr", "127.0.0.1:7070");
    let interval = args.positive("--interval", 2.0)?;
    let once = args.flag("--once");
    let frames = match args.value("--count") {
        _ if once => 1,
        None => 0, // poll until the daemon goes away (or ctrl-c)
        Some(_) => args.count("--count", 1)?,
    };
    let mut prev: Option<(Instant, u64)> = None;
    let mut drawn = 0usize;
    loop {
        let metrics = fetch_metrics(addr)?;
        let now = Instant::now();
        let total = path_u64(&metrics, &["requests", "total"]);
        let throughput = prev.map(|(t0, n0)| {
            let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
            total.saturating_sub(n0) as f64 / dt
        });
        prev = Some((now, total));
        let mut frame = String::new();
        render_metrics_frame(&mut frame, addr, &metrics, throughput, false);
        if once {
            // A single frame with no escape codes: pipeline-friendly.
            print!("{frame}");
        } else {
            // Home + clear-to-end keeps the redraw flicker-free on any
            // ANSI terminal; no raw mode, no external TUI machinery.
            print!("\x1b[H\x1b[2J{frame}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        drawn += 1;
        if frames != 0 && drawn >= frames {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

fn cmd_sentinel(args: &Args) -> Result<(), String> {
    let defaults = perfhist::SentinelOptions::default();
    let opts = perfhist::SentinelOptions {
        baseline_commit: args.value("--baseline").map(str::to_string),
        window: args.count("--window", defaults.window)?,
        noise_frac: args.positive("--noise-frac", defaults.noise_frac)?,
    };
    let history = perfhist::store::load(&history_path(args))?;
    let verdict = perfhist::sentinel::check(&history, &opts);
    if args.flag("--json") {
        println!("{}", verdict.json.write());
    } else {
        render_verdict(&verdict.json);
    }
    if verdict.failed {
        let status = verdict
            .json
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("fail");
        return Err(match status {
            "no-history" => {
                "sentinel: no history — run `liquid-simd bench` to seed bench/history.jsonl"
                    .to_string()
            }
            "no-baseline" => "sentinel: no comparable baseline record (config hash, width \
                 sweep, or smoke set changed) — re-seed bench/history.jsonl to acknowledge \
                 the change"
                .to_string(),
            _ => "sentinel: deterministic results drifted from the baseline (bench cycle \
                 counts or serve determinism hashes)"
                .to_string(),
        });
    }
    Ok(())
}

/// `sentinel --cross-backend`: assert the newest interp and superblock
/// bench records (same commit, same config) agree on every deterministic
/// cycle count. The regular sentinel pairs baselines *within* a backend;
/// this is the *between*-backend equality gate.
fn cmd_sentinel_cross(args: &Args) -> Result<(), String> {
    let verdict = perfhist::cross_check(&perfhist::store::load(&history_path(args))?);
    if args.flag("--json") {
        println!("{}", verdict.json.write());
    } else {
        let get_str = |k: &str| verdict.json.get(k).and_then(Json::as_str).unwrap_or("?");
        println!(
            "sentinel --cross-backend: {} (interp {}, superblock {}, {} workloads checked)",
            get_str("status"),
            get_str("interp_commit"),
            get_str("superblock_commit"),
            verdict
                .json
                .get("workloads_checked")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        );
        for d in verdict
            .json
            .get("cycle_drift")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            println!(
                "  DRIFT {} {}: interp {} vs superblock {}",
                d.get("workload").and_then(Json::as_str).unwrap_or("?"),
                d.get("metric").and_then(Json::as_str).unwrap_or("?"),
                d.get("interp").map_or("?".to_string(), Json::write),
                d.get("superblock").map_or("?".to_string(), Json::write),
            );
        }
    }
    if verdict.failed {
        return Err(
            match verdict
                .json
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or("fail")
            {
                "no-pair" => "sentinel --cross-backend: need one bench record from each backend — \
                 run `liquid-simd bench` and `liquid-simd bench --backend superblock`"
                    .to_string(),
                "incomparable" => "sentinel --cross-backend: the newest interp and superblock \
                 records are from different commits or configs — re-run both benches on the \
                 same tree"
                    .to_string(),
                _ => "sentinel --cross-backend: superblock sim cycles diverged from the \
                 interpreter (the backends must be bit-exact)"
                    .to_string(),
            },
        );
    }
    Ok(())
}

/// Human rendering of a `sentinel-v1` verdict document.
fn render_verdict(v: &Json) {
    let get_str = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("?");
    let get_arr = |k: &str| {
        v.get(k)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    println!(
        "sentinel: {} (commit {}, baseline {}, window {}, {} workloads checked)",
        get_str("status"),
        get_str("commit"),
        get_str("baseline_commit"),
        v.get("baseline_window").and_then(Json::as_u64).unwrap_or(0),
        v.get("workloads_checked")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    );
    for d in get_arr("cycle_drift") {
        println!(
            "  DRIFT {} {}: {} -> {}",
            d.get("workload").and_then(Json::as_str).unwrap_or("?"),
            d.get("metric").and_then(Json::as_str).unwrap_or("?"),
            d.get("baseline").and_then(Json::as_u64).unwrap_or(0),
            d.get("current").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    for w in get_arr("wall_warnings") {
        println!(
            "  warn {}: {:.0} sim-cycles/s vs median {:.0} (MAD {:.0}) — wall clock only, not gated",
            w.get("workload").and_then(Json::as_str).unwrap_or("?"),
            w.get("current").and_then(Json::as_f64).unwrap_or(0.0),
            w.get("median").and_then(Json::as_f64).unwrap_or(0.0),
            w.get("mad").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    let deltas = get_arr("counter_deltas");
    if !deltas.is_empty() {
        println!(
            "  {} counter(s) changed vs baseline (informational):",
            deltas.len()
        );
        for d in deltas.iter().take(10) {
            println!(
                "    {} {} -> {}",
                d.get("counter").and_then(Json::as_str).unwrap_or("?"),
                d.get("baseline").and_then(Json::as_u64).unwrap_or(0),
                d.get("current").and_then(Json::as_u64).unwrap_or(0),
            );
        }
        if deltas.len() > 10 {
            println!("    … and {} more", deltas.len() - 10);
        }
    }
    if let Some(serve) = v.get("serve") {
        println!(
            "  serve: {} ({} serve records, requests {})",
            serve.get("status").and_then(Json::as_str).unwrap_or("?"),
            serve.get("records").and_then(Json::as_u64).unwrap_or(0),
            serve
                .get("requests_hash")
                .and_then(Json::as_str)
                .unwrap_or("-"),
        );
        for d in serve
            .get("drift")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
        {
            println!(
                "  SERVE DRIFT {}: {} -> {}",
                d.get("metric").and_then(Json::as_str).unwrap_or("?"),
                d.get("baseline").map_or("?".to_string(), Json::write),
                d.get("current").map_or("?".to_string(), Json::write),
            );
        }
    }
}

fn cmd_dashboard(args: &Args) -> Result<(), String> {
    let path = history_path(args);
    let out = args.value_or("--out", "report.html");
    let flame_workload = args.value_or("--flame", "fir");
    let history = if path.exists() {
        perfhist::store::load(&path)?
    } else {
        Vec::new()
    };
    // A traced run of one workload supplies the flamegraph: its span
    // records fold into `track;parent;child self_cycles` stacks.
    let (program, name) = resolve_program(flame_workload)?;
    let prof = liquid_simd::profile(&program, &name, 8).map_err(|e| e.to_string())?;
    let folded = export::folded_stacks(&prof.spans);
    // Optional observability panels: every flight-v1 dump under
    // --flight-dir (sorted by file name, i.e. dump order) and one
    // metrics-v1 snapshot file (an `inspect` response line works as-is).
    let mut dumps: Vec<(String, String)> = Vec::new();
    if let Some(dir) = args.value("--flight-dir") {
        let entries = fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{dir}: {e}"))?;
            let file = entry.file_name().to_string_lossy().into_owned();
            if !file.ends_with(".jsonl") {
                continue;
            }
            let text = fs::read_to_string(entry.path())
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
            dumps.push((file, text));
        }
        dumps.sort();
    }
    let snapshot = match args.value("--snapshot") {
        None => None,
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?)
        }
    };
    let html = perfhist::dashboard::render_extended(&history, &folded, &dumps, snapshot.as_ref());
    fs::write(out, &html).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "{out}: written ({} history records, {} flame frames from {name}, {} flight dumps, \
         {} bytes, self-contained)",
        history.len(),
        folded.lines().count(),
        dumps.len(),
        html.len()
    );
    Ok(())
}

fn cmd_conform(args: &Args) -> Result<(), String> {
    let seed = args.uint("--seed", 0xC0FFEE)?;
    let opts = liquid_simd_conform::ConformOptions {
        seed,
        cases: args.uint("--cases", 200)?,
        jobs: args.jobs()?,
        shrink: !args.flag("--no-shrink"),
    };
    let report = liquid_simd_conform::run_conform(&opts);

    let json = liquid_simd_conform::report_to_json(&report);
    if let Some(path) = args.value("--out") {
        fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: written");
    }
    if args.flag("--json") {
        print!("{json}");
    } else {
        let (passed, failed) = report.tally();
        let translated = report.cases.iter().filter(|c| c.translated).count();
        println!(
            "conform: seed {seed:#x}, {} cases — {passed} passed, {failed} failed \
             ({translated} exercised the translator)",
            report.cases.len()
        );
        for sw in &report.sweeps {
            println!(
                "abort sweep `{}` @ {} lanes: {} injection points — {}",
                sw.name,
                sw.lanes,
                sw.points,
                if sw.passed { "all clean" } else { &sw.detail }
            );
        }
        for f in &report.failures {
            println!("FAIL {}: {}", f.outcome.name, f.outcome.detail);
        }
    }

    // Persist minimized failures so they can be promoted to regression
    // cases (and uploaded as CI artifacts).
    if !report.failures.is_empty() {
        let dir = args.value_or("--corpus-dir", "tests/corpus");
        for f in &report.failures {
            let path = liquid_simd_conform::corpus::save(std::path::Path::new(dir), &f.case)
                .map_err(|e| e.to_string())?;
            eprintln!("minimized failing case written to {}", path.display());
        }
    }
    if !report.passed() {
        return Err("conformance run failed".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_cli(&words)
    }

    fn cli(line: &str) -> Result<(), String> {
        let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        run_cli(&words)
    }

    #[test]
    fn lanes_parsing() {
        let lanes = |line: &str| parse(line).and_then(|a| a.lanes());
        assert_eq!(lanes("run t.s --lanes 8").unwrap(), 8);
        assert_eq!(lanes("run t.s --lanes 0").unwrap(), 0);
        assert_eq!(lanes("run t.s").unwrap(), 8);
        assert!(lanes("run t.s --lanes 3").is_err());
        assert!(lanes("run t.s --lanes 32").is_err());
        assert!(lanes("run t.s --lanes x").is_err());
        // The value is the flag's, not the operand: `t.s` runs at 4 lanes.
        let args = parse("run --lanes 4 t.s").unwrap();
        assert_eq!(args.operand(), "t.s");
        assert_eq!(args.lanes().unwrap(), 4);
        let err = parse("run t.s --lanes").err().unwrap();
        assert!(err.contains("`--lanes` needs a value"), "{err}");
    }

    #[test]
    fn jobs_parsing() {
        let jobs = |line: &str| parse(line).and_then(|a| a.jobs());
        assert_eq!(jobs("tables --jobs 4").unwrap(), 4);
        assert!(jobs("tables --jobs 0").is_err());
        assert!(jobs("tables --jobs x").is_err());
        assert!(jobs("tables").unwrap() >= 1);
        assert_eq!(jobs("conform --jobs 2 --seed 0xC0FFEE").unwrap(), 2);
        let seed = parse("conform --seed 0xC0FFEE --cases 200").unwrap();
        assert_eq!(seed.uint("--seed", 0).unwrap(), 0xC0FFEE);
        assert_eq!(seed.uint("--cases", 0).unwrap(), 200);
    }

    #[test]
    fn malformed_command_lines_error_naming_the_bad_token() {
        for (line, token) in [
            ("profile 179.art --width 16", "--width"),
            ("conform --sed 3", "--sed"),
            ("tables --smok", "--smok"),
            ("bench --smok", "--smok"),
            ("bench --serve --ledger", "--ledger"),
            ("bench --families --jobs 2", "--jobs"),
            ("run a.s b.s", "b.s"),
            ("disasm --foo x.lsim", "--foo"),
            ("diff a@w8 b@w8 c@w8", "c@w8"),
        ] {
            let err = cli(line).err().unwrap_or_else(|| panic!("`{line}` parsed"));
            assert!(err.contains(&format!("`{token}`")), "{line}: {err}");
        }
        for line in ["run", "diff 179.art@w8", "asm"] {
            let err = cli(line).err().unwrap();
            assert!(err.contains("missing operand"), "{line}: {err}");
        }
    }

    #[test]
    fn every_mode_has_its_own_table() {
        assert!(parse("bench --serve --smoke --clients 4 --shards 4 --measure-recorder").is_ok());
        assert!(parse("bench --families --smoke --no-history --out x.json").is_ok());
        assert!(parse("bench --smoke --jobs 2 --ledger --history h.jsonl").is_ok());
        assert!(parse("gen --check --jobs 2 --json").is_ok());
        assert!(parse("gen --check --smoke").is_err());
        assert!(parse("sentinel --cross-backend --json").is_ok());
        assert!(parse("sentinel --cross-backend --window 3").is_err());
        for (i, cmd) in COMMANDS.iter().enumerate() {
            let names: Vec<&str> = cmd.flags.iter().map(|f| f.0).collect();
            let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(unique.len(), names.len(), "{} repeats a flag", cmd.name);
            if let Some(m) = cmd.mode {
                assert!(names.contains(&m), "{} {m} does not declare {m}", cmd.name);
            } else {
                // Nothing after a default row of the same command is reachable.
                assert!(!COMMANDS[i + 1..].iter().any(|c| c.name == cmd.name));
            }
            for name in names {
                assert!(usage().contains(name), "usage() omits {name}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not declare --nope")]
    fn getters_reject_undeclared_flags() {
        parse("tables").unwrap().flag("--nope");
    }

    #[test]
    fn width_anomaly_detection_flags_slower_wider_widths() {
        let row = |name: &str, by_width: &[(usize, u64)]| perfhist::WorkloadRow {
            name: name.to_string(),
            baseline_cycles: 1_000,
            sim_cycles: by_width.last().map_or(0, |&(_, c)| c),
            cycles_by_width: by_width.to_vec(),
            wall_s: 0.0,
            cycles_per_sec: 0.0,
            ledger: None,
        };
        // The motivating case: 179.art costs more cycles at width 16 than 8.
        let rows = vec![
            row(
                "179.art",
                &[(2, 3_000_000), (8, 2_380_481), (16, 2_482_896)],
            ),
            row("fir", &[(2, 300), (8, 200), (16, 100)]),
        ];
        let warnings = width_anomalies(&rows);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("179.art"));
        assert!(warnings[0].contains("width 16"));
        assert!(warnings[0].contains("2482896"));
        assert!(width_anomalies(&[]).is_empty());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_cli(&["frobnicate".to_string()]).is_err());
        assert!(run_cli(&[]).is_err());
    }

    /// The acceptance-criteria exit-code contract: `sentinel` succeeds on a
    /// clean history and errors (→ process exit 1) the moment a record's
    /// deterministic `sim_cycles` drifts from the baseline.
    #[test]
    fn sentinel_exit_code_tracks_cycle_drift() {
        let dir = std::env::temp_dir().join(format!("cli-sentinel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = |cycles: u64| {
            Json::parse(&format!(
                r#"{{"schema":"perfhist-v1","commit":"c","timestamp":1,"host":"h","config_hash":"cafe","smoke":true,"widths":[2,8],"workloads":[{{"name":"FIR","baseline_cycles":1000,"sim_cycles":{cycles},"cycles_by_width":{{"8":{cycles}}},"wall_s":0.5,"sim_cycles_per_sec":100.0}}],"counters":{{}},"wall":{{}}}}"#
            ))
            .unwrap()
        };
        perfhist::store::append(&path, &rec(250)).unwrap();
        perfhist::store::append(&path, &rec(250)).unwrap();
        let hist = path.to_str().unwrap().to_string();
        let args = |h: &str| {
            vec![
                "sentinel".to_string(),
                "--history".to_string(),
                h.to_string(),
                "--json".to_string(),
            ]
        };
        assert!(run_cli(&args(&hist)).is_ok(), "identical cycles pass");
        perfhist::store::append(&path, &rec(251)).unwrap();
        assert!(run_cli(&args(&hist)).is_err(), "perturbed cycles fail");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn inspect_and_top_poll_a_live_daemon() {
        let handle = serve::spawn(serve::ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            history: None,
            ..serve::ServeOptions::default()
        })
        .unwrap();
        let addr = handle.addr.to_string();
        // Push one real request through so the histograms have samples.
        let resp = serve_request(&addr, r#"{"op":"run","workload":"fir","id":"t1"}"#).unwrap();
        assert_eq!(
            resp.get("schema").and_then(Json::as_str),
            Some("serve-v1"),
            "{}",
            resp.write()
        );
        let args = |extra: &[&str]| {
            let mut v = vec![
                "inspect".to_string(),
                "--addr".to_string(),
                addr.to_string(),
            ];
            v.extend(extra.iter().map(|s| (*s).to_string()));
            v
        };
        assert!(run_cli(&args(&[])).is_ok(), "human inspect");
        assert!(run_cli(&args(&["--raw"])).is_ok(), "raw inspect");
        assert!(run_cli(&args(&["--scrub"])).is_ok(), "scrubbed inspect");
        let top = vec![
            "top".to_string(),
            "--addr".to_string(),
            addr.to_string(),
            "--once".to_string(),
        ];
        assert!(run_cli(&top).is_ok(), "top --once");
        // The frame itself carries the live numbers `top` renders.
        let metrics = fetch_metrics(&addr).unwrap();
        let mut frame = String::new();
        render_metrics_frame(&mut frame, &addr, &metrics, Some(12.5), false);
        assert!(frame.contains("throughput 12.5 req/s"), "{frame}");
        assert!(frame.contains("latency    p50 <="), "{frame}");
        assert!(frame.contains("aborts"), "{frame}");
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn bench_notes_splice_keeps_the_snapshot_valid() {
        let dir = std::env::temp_dir().join(format!("cli-bench-note-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sim.json");
        let p = path.to_str().unwrap();
        std::fs::write(
            &path,
            "{\n  \"schema\": \"liquid-simd-bench-v1\",\n  \"jobs\": 4,\n  \"workloads\": [\n  ]\n}\n",
        )
        .unwrap();
        record_bench_note(p, "overhead +1.0% wall").unwrap();
        // Replacing an existing note must not duplicate the key.
        record_bench_note(p, "overhead +2.0% wall").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let notes = doc.get("notes").and_then(Json::as_arr).unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].as_str(), Some("overhead +2.0% wall"));
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(4));
        // A missing snapshot gets a minimal, parseable one.
        let fresh = dir.join("fresh.json");
        record_bench_note(fresh.to_str().unwrap(), "n").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&fresh).unwrap()).unwrap();
        assert!(doc.get("notes").is_some());
        // And re-noting the minimal file stays valid (no trailing comma).
        record_bench_note(fresh.to_str().unwrap(), "n2").unwrap();
        Json::parse(&std::fs::read_to_string(&fresh).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
