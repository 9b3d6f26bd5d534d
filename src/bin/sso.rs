//! `sso` — run sampling queries from the command line against the
//! synthetic feeds.
//!
//! ```sh
//! sso --feed research --seconds 60 \
//!     "SELECT tb, destIP, sum(len), count(*) FROM PKT \
//!      GROUP BY time/20 as tb, destIP \
//!      CLEANING WHEN local_count(1000) = TRUE \
//!      CLEANING BY count(*) + first(current_bucket()) > current_bucket()"
//!
//! sso --explain "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKT ..."
//!
//! sso check queries.sql        # static analysis only; exits 1 on errors
//! sso audit queries.sql        # certify memory bounds + skew safety statically
//! sso optimize queries.sql     # certified multi-query sharing rewrite
//! sso run --metrics - 'QUERY'  # run + dump telemetry snapshots as JSON
//! sso top 'QUERY'              # live metrics view while the query runs
//! ```
//!
//! Every flag, with its value, default and help, is one row of
//! [`FLAGS`]: `sso --help` (or `sso SUBCOMMAND --help`) prints them,
//! one parser reads them for every subcommand, and a durable run's
//! `MANIFEST` records the rows that name a key. Exit status: 0 clean,
//! 1 for a query, run or analysis error, 2 for a usage error.
//!
//! `sso run` is an explicit alias for the default run mode. `sso top`
//! runs the query on a background thread and refreshes a metrics table
//! in place until it finishes (windows are counted, not printed); with
//! `--profile` the table gains end-to-end window latency (p50/p99) and
//! the hottest pipeline stage, live from the collector. `--shards`,
//! `--durable` and `--profile` run the query through the sharded
//! runtime, which refuses a non-shard-mergeable query with W102.
//!
//! `sso trace DUMP|DIR` renders a flight-recorder dump written by
//! `--profile` as a human-readable causal timeline, or — with
//! `--chrome FILE` — as Chrome trace-event JSON for chrome://tracing
//! (`about:tracing`). A directory resolves to its `flight.ssoprof`
//! (or the newest `*.ssoprof` inside).
//!
//! `sso recover DIR` replays a durable run from its `MANIFEST`: the
//! original feed is regenerated and routed to the recorded number of
//! shards, every window already in the store is served back without
//! recomputation, and the run continues from the first unrecorded
//! window. Fault plans are deliberately not replayed — recovery is
//! expected to match the fault-free run.
//!
//! `sso check FILE` runs the static analyzer over every `;`-separated
//! query in FILE without executing anything, printing rustc-style
//! diagnostics with stable codes (E001.., W001..). A query whose FROM
//! names something other than a base stream (PKT/PKTS/TCP/UDP, or
//! METRICS for the telemetry meta-stream) is treated as the high level
//! of a Gigascope cascade: it is checked against the previous query's
//! output schema, and the pair gets the partial-aggregation push-down
//! lint (W101). `--deny-warnings` makes warnings fail the exit code
//! too.
//!
//! `sso audit FILE` goes further: it runs the `sso-analysis` abstract
//! interpretation over the same cascade, certifying a memory ceiling
//! per query against a declared feed envelope (`--feed`), a
//! router-skew verdict at `--shards N`, and degradation behavior
//! (W201–W204, W206; W206 fires when `--state-budget` is under the
//! pager's two-page-per-shard floor). `--json` emits the
//! machine-readable `BoundsReport` — including the `durable` section
//! with certified snapshot/WAL bytes per window — plus diagnostics.
//! Nothing is executed: the verdict comes from the paper's closed-form
//! state bounds evaluated symbolically.
//!
//! `sso optimize FILE` runs the certified plan-rewrite optimizer
//! (`sso-rewrite`) over the file's simultaneous query set: plans are
//! normalized to a canonical symbolic form, identical plans over one
//! base stream are deduplicated into share groups, and prefilter
//! clauses every member query implies are hoisted ahead of the fan-out
//! — each applied rewrite carrying a checksummed certificate entry with
//! its discharged side conditions, and the rewritten plan re-audited by
//! `sso-analysis`. `--explain` reports the opportunities as W301
//! instead of applying them; W302 flags plans equivalent modulo
//! constants, W303 explains rewrites blocked by non-mergeable samplers,
//! and W304 spots window periods differing by an integer multiple.

use std::io::Write;
use std::path::Path;

use stream_sampler::json;
use stream_sampler::netgen::{feed_profile, FEED_PROFILES};
use stream_sampler::obs::{export, metrics_schema, snapshot_tuples, Registry, Snapshot};
use stream_sampler::operator::{OperatorMetrics, OperatorSpec, WindowOutput};
use stream_sampler::prelude::*;
use stream_sampler::query::diag;
use stream_sampler::query::explain::explain;
use stream_sampler::store::FsyncPolicy;

/// The subcommands a flag applies to, as a bit set.
type Cmds = u8;
/// `run`, `top`, or no subcommand at all.
const RUN: Cmds = 1;
const RECOVER: Cmds = 2;
const TRACE: Cmds = 4;
const CHECK: Cmds = 8;
const AUDIT: Cmds = 16;
const OPTIMIZE: Cmds = 32;
/// The subcommands that read a query file.
const FILES: Cmds = CHECK | AUDIT | OPTIMIZE;

/// Each subcommand's name, flag bit and operand.
const COMMANDS: [(&str, Cmds, &str); 7] = [
    ("run", RUN, "'QUERY'"),
    ("top", RUN, "'QUERY'"),
    ("recover", RECOVER, "STORE-DIR"),
    ("trace", TRACE, "DUMP-FILE|DIR"),
    ("check", CHECK, "QUERY-FILE"),
    ("audit", AUDIT, "QUERY-FILE"),
    ("optimize", OPTIMIZE, "QUERY-FILE"),
];

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Shape {
    /// `--flag`.
    Switch,
    /// `--flag VALUE`.
    Value(&'static str),
    /// `--flag` or `--flag=FILE`; the bare flag holds `-`.
    Optional,
    /// `--flag`, `--flag -` or `--flag=FILE`; bare or `-` is stdout.
    Output,
}

/// What a flag's value must be. A malformed number is a usage error; a
/// well-formed value that names nothing `sso` knows is an `error:`.
#[derive(Clone, Copy)]
enum Check {
    Any,
    U64,
    Usize,
    Positive,
    Feed,
    Fsync,
}

impl Check {
    /// `Err(None)` for a usage error, `Err(Some(message))` otherwise.
    fn run(self, v: &str) -> Result<(), Option<String>> {
        let ok = match self {
            Check::Any => true,
            Check::U64 => v.parse::<u64>().is_ok(),
            Check::Usize => v.parse::<usize>().is_ok(),
            Check::Positive => v.parse::<usize>().is_ok_and(|n| n > 0),
            Check::Feed => {
                let unknown = || Some(format!("unknown feed `{v}` ({})", feed_names()));
                return feed_profile(v).map(drop).ok_or_else(unknown);
            }
            Check::Fsync => return FsyncPolicy::parse(v).map(drop).map_err(Some),
        };
        ok.then_some(()).ok_or(None)
    }
}

fn feed_names() -> String {
    FEED_PROFILES.iter().map(|p| p.name).collect::<Vec<_>>().join(" | ")
}

/// One flag: what parsing, `--help`, defaults and the durable MANIFEST
/// know of it.
struct Flag {
    name: &'static str,
    shape: Shape,
    /// The subcommands that accept it.
    cmds: Cmds,
    /// Its value when it is not given.
    default: Option<&'static str>,
    check: Check,
    /// The MANIFEST key a durable run records it under. A recorded flag
    /// with a default is always written, so `sso recover` requires it.
    key: Option<&'static str>,
    help: &'static str,
}

const fn flag(name: &'static str, shape: Shape, cmds: Cmds, help: &'static str) -> Flag {
    Flag { name, shape, cmds, default: None, check: Check::Any, key: None, help }
}

impl Flag {
    const fn or(self, value: &'static str) -> Flag {
        Flag { default: Some(value), ..self }
    }

    const fn is(self, check: Check) -> Flag {
        Flag { check, ..self }
    }

    const fn key(self, key: &'static str) -> Flag {
        Flag { key: Some(key), ..self }
    }

    /// The flag as a synopsis spells it: `--feed NAME`, `--profile[=FILE]`.
    fn spelled(&self) -> String {
        match self.shape {
            Shape::Switch => self.name.to_string(),
            Shape::Value(v) => format!("{} {v}", self.name),
            Shape::Optional | Shape::Output => format!("{}[=FILE]", self.name),
        }
    }
}

use Check::{Feed, Fsync, Positive, Usize, U64};
use Shape::{Optional, Output, Switch, Value};

/// Every flag of every subcommand. The recorded ones come first, in the
/// order a MANIFEST lists them.
static FLAGS: &[Flag] = &[
    flag("--feed", Value("NAME"), RUN | AUDIT, "packet source, or the envelope audit declares")
        .or("research")
        .is(Feed)
        .key("feed"),
    flag("--seed", Value("S"), RUN, "feed seed").or("1").is(U64).key("seed"),
    flag("--seconds", Value("N"), RUN, "trace length").or("60").is(U64).key("seconds"),
    // A run refuses a non-shard-mergeable query with W102. The calling
    // thread routes under supervision: a routing panic degrades one
    // window instead of killing the run.
    flag("--shards", Value("N"), RUN | AUDIT, "operator shards; audit: skew verdict at N")
        .or("1")
        .is(Positive)
        .key("shards"),
    // `never` survives process crashes, not power loss.
    flag("--fsync", Value("POLICY"), RUN, "when a logged window is synced: always|never|every=N")
        .or("never")
        .is(Fsync)
        .key("fsync"),
    flag("--trace", Value("FILE"), RUN, "read packets from a CSV trace instead").key("trace"),
    // Shards over budget page cold groups to a spill file under the
    // --durable DIR. For audit: W206 fires when it is under the pager's
    // two-page-per-shard floor.
    flag("--state-budget", Value("BYTES"), RUN | AUDIT, "cap live group-table state (spill)")
        .is(U64)
        .key("state_budget"),
    flag("--dump", Value("FILE"), RUN, "also write the packets to a CSV trace"),
    flag("--limit", Value("R"), RUN | RECOVER, "print at most R rows per window")
        .or("20")
        .is(Usize),
    flag("--limit", Value("N"), TRACE, "show the last N events (0: all)").or("64").is(Usize),
    // Feed-level events perturb the packets; worker and router events
    // need the sharded runtime, and a worker event naming a shard the
    // run lacks is an error. Not replayed by `sso recover`.
    flag("--fault-plan", Value("FILE"), RUN, "inject faults from a fault-plan file"),
    flag("--fault-seed", Value("S"), RUN, "generate a seeded fault plan instead").is(U64),
    flag("--durable", Value("DIR"), RUN, "log closed windows to DIR for `sso recover DIR`"),
    // FILE `-` (or none) is stdout; `*.prom` gets Prometheus text of the
    // final snapshot.
    flag("--metrics", Output, RUN | RECOVER, "telemetry snapshots as JSON (*.prom: Prometheus)"),
    // Runs through the sharded runtime with lineage stamps. An explicit
    // FILE always gets a flight-recorder dump; the bare flag dumps only
    // when a fault trigger fires (panic, crash), to flight.ssoprof
    // or under the --durable DIR.
    flag("--profile", Optional, RUN, "stage attribution report + flight recorder"),
    flag("--meta", Value("QUERY"), RUN, "a second query over the snapshots (FROM METRICS)"),
    flag("--explain", Switch, RUN, "print the plan instead of running"),
    flag("--explain", Switch, OPTIMIZE, "report rewrites as W301 instead of applying them"),
    flag("--chrome", Value("FILE"), TRACE, "write Chrome trace-event JSON (- for stdout)"),
    flag("--budget", Value("BYTES"), AUDIT, "fail when certified state exceeds BYTES").is(U64),
    flag("--json", Switch, RUN | RECOVER | FILES, "machine-readable output"),
    flag("--deny-warnings", Switch, FILES, "fail on warnings too"),
];

/// Print the usage of `cmd` — every subcommand's synopsis for the run
/// mode — with its flags' help, and exit 2.
fn usage(cmd: Cmds) -> ! {
    let synopsis = |&(name, c, operand): &(&str, Cmds, &str)| {
        let name = if c == RUN { "[run|top]" } else { name };
        let flags = FLAGS.iter().filter(|f| f.cmds & c != 0).map(|f| format!(" [{}]", f.spelled()));
        format!("sso {name}{} {operand}", flags.collect::<String>())
    };
    let shown = COMMANDS.iter().filter(|&&(name, c, _)| name != "top" && (cmd == RUN || c == cmd));
    let mut text = shown.map(synopsis).collect::<Vec<_>>().join("\n       ");
    text.push_str("\n\noptions:\n");
    for f in FLAGS.iter().filter(|f| f.cmds & cmd != 0) {
        let feeds = matches!(f.check, Feed).then(|| format!(": {}", feed_names()));
        let default = f.default.map(|d| format!(" (default {d})"));
        let (feeds, default) = (feeds.unwrap_or_default(), default.unwrap_or_default());
        text.push_str(&format!("  {:<24} {}{feeds}{default}\n", f.spelled(), f.help));
    }
    eprintln!("usage: {text}\nexit status: 0 clean; 1 query, run or analysis error; 2 usage error");
    std::process::exit(2);
}

/// Print `error: {message}` and exit with `code`.
fn fail(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code);
}

/// A parsed command line: the subcommand, every flag's value (defaults
/// first, then the flags as given) and the one operand.
struct Args {
    name: &'static str,
    values: Vec<(&'static str, String)>,
    operand: String,
}

impl Args {
    /// A flag's value: the last one given, else its default. A switch
    /// that is on holds the empty string.
    fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of a flag with a default, which always holds one.
    fn value(&self, name: &str) -> &str {
        self.get(name).expect("a flag with a default")
    }

    /// A number flag's value, checked when it was parsed.
    fn num<T: std::str::FromStr>(&self, name: &str) -> T {
        self.value(name).parse().ok().expect("checked when parsed")
    }

    /// Durable and profiled runs go through the sharded runtime — that
    /// is where the per-shard store and the lineage-stamped stage
    /// pipeline live — even at `--shards 1`.
    fn sharded(&self) -> bool {
        self.num::<usize>("--shards") > 1 || self.on("--durable") || self.on("--profile")
    }
}

/// Read `argv` against [`FLAGS`]. Anything wrong with it — an unknown
/// flag, a missing value or operand, a malformed number, `--help` — is
/// a usage error.
fn parse(argv: &[String]) -> Args {
    let first = argv.first().map(String::as_str);
    let (name, cmd, rest) = match COMMANDS.iter().find(|c| Some(c.0) == first) {
        Some(&(name, cmd, _)) => (name, cmd, &argv[1..]),
        None => ("run", RUN, argv),
    };
    let flags = || FLAGS.iter().filter(move |f| f.cmds & cmd != 0);
    let defaults = flags().filter_map(|f| Some((f.name, f.default?.to_string())));
    let mut args = Args { name, values: defaults.collect(), operand: String::new() };
    let mut operand = None;
    let mut rest = rest.iter().map(String::as_str).peekable();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") && arg != "-h" {
            if operand.replace(arg).is_some() {
                usage(cmd);
            }
            continue;
        }
        let (given, inline) = arg.split_once('=').map_or((arg, None), |(f, v)| (f, Some(v)));
        let Some(flag) = flags().find(|f| f.name == given) else { usage(cmd) };
        let value = match (flag.shape, inline) {
            (Switch, None) => "",
            (Value(_), None) => rest.next().unwrap_or_else(|| usage(cmd)),
            (Output, None) => rest.next_if_eq(&"-").unwrap_or("-"),
            (Optional, None) => "-",
            (Optional | Output, Some(v)) => v,
            _ => usage(cmd),
        };
        match flag.check.run(value) {
            Ok(()) => args.values.push((flag.name, value.to_string())),
            Err(Some(message)) => fail(2, message),
            Err(None) => usage(cmd),
        }
    }
    args.operand = operand.unwrap_or_else(|| usage(cmd)).to_string();
    if cmd == RUN && args.on("--state-budget") && !args.on("--durable") {
        fail(2, "--state-budget requires --durable DIR (the spill file lives there)");
    }
    args
}

/// The query file a `check`, `audit` or `optimize` call names; an
/// unreadable or empty file exits 2.
fn read_queries(path: &str) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(2, format!("cannot read {path}: {e}")));
    if stream_sampler::analysis::split_statements(&text).is_empty() {
        fail(2, format!("{path} contains no queries"));
    }
    text
}

/// `sso check`: statically analyze every query in the file, printing
/// rustc-style diagnostics — or, with `--json`, one JSON object per
/// diagnostic per line (code, span, message, severity) for editors and
/// CI. Exits 0 when clean (warnings allowed), 1 when any query has
/// errors.
fn run_check(args: &Args) -> ! {
    let (path, json) = (&args.operand, args.on("--json"));
    let text = read_queries(path);

    // Collect every diagnostic (spans rebased onto the file) before
    // printing, so the cross-statement W103 lint can be appended and
    // duplicates collapsed once over the whole batch.
    let mut all = stream_sampler::analysis::walk_cascade(&text, |_, _: Option<&()>| ((), vec![]));
    // Cross-statement lint: identical normalized prefilters over the
    // same base stream (W103; spans already file-based).
    all.extend(stream_sampler::rewrite::check_file_prefilters(&text));
    // Multi-statement files can repeat the same finding once per
    // statement (dummy-span warnings especially); emit each once.
    diag::dedup_diagnostics(&mut all);

    let errors = all.iter().filter(|d| d.is_error()).count();
    let warnings = all.len() - errors;
    // Ignore write errors so `sso check | head` exits quietly on a
    // closed pipe instead of panicking.
    let mut out = std::io::stdout().lock();
    for d in &all {
        let _ = if json {
            writeln!(out, "{}", line(&json::diagnostic(d)))
        } else {
            writeln!(out, "{}", diag::render_one(&text, path, d))
        };
    }
    // The human summary line would corrupt a JSON stream; consumers
    // count objects (and read the exit code) instead.
    if !json {
        let _ = match (errors, warnings) {
            (0, 0) => writeln!(out, "{path}: no problems found"),
            (e, w) => writeln!(out, "{path}: {e} error(s), {w} warning(s)"),
        };
    }
    let deny = args.on("--deny-warnings");
    std::process::exit(if errors > 0 || (deny && warnings > 0) { 1 } else { 0 });
}

/// `sso audit`: run the static abstract-interpretation pass over every
/// query in the file, printing the certified bounds (or the JSON
/// `BoundsReport`) plus any W2xx diagnostics. Exits 0 when the file
/// certifies cleanly, 1 on errors, budget violations, or (with
/// `--deny-warnings`) any warning.
fn run_audit(args: &Args) -> ! {
    let path = &args.operand;
    let opts = stream_sampler::analysis::AuditOptions {
        feed: args.value("--feed").to_string(),
        shards: args.num("--shards"),
        budget: args.on("--budget").then(|| args.num("--budget")),
        state_budget: args.on("--state-budget").then(|| args.num("--state-budget")),
    };
    let text = read_queries(path);

    let outcome = stream_sampler::analysis::audit_file(&text, &opts);
    // Identical `(code, span)` findings from different statements (e.g.
    // dummy-span file-level warnings) print once.
    let mut diags = outcome.diagnostics.clone();
    diag::dedup_diagnostics(&mut diags);
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;

    let mut out = std::io::stdout().lock();
    if args.on("--json") {
        // One object: the bounds certificate plus every diagnostic, so
        // CI consumes a single line per audited file.
        let _ = writeln!(out, "{}", line(&json::audit(&outcome.report, &diags)));
    } else {
        for d in &diags {
            let _ = writeln!(out, "{}", diag::render_one(&text, path, d));
        }
        for s in &outcome.report.statements {
            let _ = writeln!(
                out,
                "{path}: {}: {} over {} @ {} rows/s -> groups <= {}, state <= {} bytes \
                 ({}, {}mergeable, skew {})",
                s.name,
                s.sampler.label(),
                s.stream,
                s.rows_per_sec,
                s.groups_bound,
                s.state_bytes,
                match s.window_secs {
                    Some(w) => format!("{w}s window"),
                    None => "no window".to_string(),
                },
                if s.mergeable { "" } else { "not " },
                s.skew,
            );
        }
        let durable = outcome.report.durable();
        let _ = writeln!(
            out,
            "{path}: durable: boundary state <= {} B, log <= {} B/window, \
             spill pages <= {}, min --state-budget {}",
            durable.snapshot_bytes_per_window,
            durable.wal_bytes_per_window,
            durable.spill_pages,
            durable.min_state_budget,
        );
        let total = outcome.report.total_state_bytes();
        let _ = match outcome.report.budget {
            Some(b) if outcome.budget_exceeded() => {
                writeln!(out, "{path}: BUDGET EXCEEDED: certified {total} bytes > budget {b}")
            }
            Some(b) => writeln!(out, "{path}: certified {total} bytes within budget {b}"),
            None => writeln!(out, "{path}: certified total state <= {total} bytes"),
        };
    }
    let deny = args.on("--deny-warnings");
    let fail = errors > 0 || outcome.budget_exceeded() || (deny && warnings > 0);
    std::process::exit(if fail { 1 } else { 0 });
}

/// `sso optimize`: run the certified plan-rewrite optimizer
/// (`sso-rewrite`) over every query in the file. The default mode
/// applies the sharing rewrites — deduplicating identical normalized
/// plans and hoisting a shared prefilter — and prints the rewrite
/// certificate plus the re-audit verdict; `--explain` reports the same
/// opportunities as W301 lints without applying anything. Exits 0 when
/// clean, 1 on errors, a failed re-audit, or (with `--deny-warnings`)
/// any warning.
fn run_optimize(args: &Args) -> ! {
    use stream_sampler::rewrite::{optimize_file, render_summary, OptimizeOptions};

    let path = &args.operand;
    let text = read_queries(path);
    let opts = OptimizeOptions { apply: !args.on("--explain"), ..OptimizeOptions::default() };
    let outcome = optimize_file(&text, &opts);
    let errors = outcome.diagnostics.iter().filter(|d| d.is_error()).count();
    let warnings = outcome.diagnostics.len() - errors;

    let mut out = std::io::stdout().lock();
    if args.on("--json") {
        // One object per file: the rewrite report (clusters, certificate,
        // shared plans, re-audit) plus every diagnostic.
        let _ = writeln!(out, "{}", line(&json::optimize(&outcome)));
    } else {
        for d in &outcome.diagnostics {
            let _ = writeln!(out, "{}", diag::render_one(&text, path, d));
        }
        let _ = write!(out, "{}", render_summary(&outcome));
    }
    let deny = args.on("--deny-warnings");
    let fail = errors > 0 || !outcome.reaudit.ok || (deny && warnings > 0);
    std::process::exit(if fail { 1 } else { 0 });
}

/// `sso recover STORE-DIR`: the run the store's `MANIFEST` records, each
/// recorded value read back through its flag's check, resumed from the
/// store — recorded windows are served back, and execution picks up at
/// the first unrecorded window.
fn recover(mut args: Args) -> Args {
    let dir = std::mem::take(&mut args.operand);
    let manifest = stream_sampler::store::read_manifest(Path::new(&dir))
        .unwrap_or_else(|e| fail(1, format!("cannot read {dir}/MANIFEST: {e}")));
    let get = |k: &str| manifest.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
    let missing = |k: &str| -> ! {
        let why = "was the run started with --durable?";
        fail(1, format!("{dir}/MANIFEST has no `{k}` entry; {why}"))
    };
    args.operand = get("query").unwrap_or_else(|| missing("query"));
    // Routing is a pure function of the tuples and the shard count, so
    // nothing else about it needs recording: the `routers` and
    // `router_cursors` keys older builds wrote are ignored. Fault plans
    // are deliberately not replayed: recovery must converge on the
    // fault-free output, and re-arming the crash event would kill the
    // resumed run at the same tuple again.
    for f in FLAGS {
        let Some(key) = f.key else { continue };
        let v = match (get(key), f.default) {
            (Some(v), _) => v,
            (None, Some(_)) => missing(key),
            (None, None) => continue,
        };
        if f.check.run(&v).is_err() {
            fail(1, format!("{dir}/MANIFEST: bad `{key}` value `{v}`"));
        }
        args.values.push((f.name, v));
    }
    args.values.push(("--durable", dir));
    args
}

/// `sso trace`: render a flight-recorder dump as a human-readable
/// causal timeline, or as Chrome trace-event JSON (`--chrome`, `-` for
/// stdout) that chrome://tracing and Perfetto load directly. A
/// directory argument resolves to its `flight.ssoprof`, falling back to
/// the newest `*.ssoprof` file inside (crash dumps under `--durable
/// DIR`).
fn run_trace(args: &Args) -> ! {
    let path = resolve_dump_path(Path::new(&args.operand)).unwrap_or_else(|e| fail(1, e));
    let dump = stream_sampler::profile::read_dump_file(&path)
        .unwrap_or_else(|e| fail(1, format!("cannot read {}: {e}", path.display())));
    match args.get("--chrome") {
        Some(out) => {
            let body = line(&json::chrome_trace(&dump));
            if out == "-" {
                print!("{body}");
            } else if let Err(e) = std::fs::write(out, body) {
                fail(1, format!("cannot write {out}: {e}"));
            } else {
                eprintln!(
                    "# wrote {} trace events to {out} — open chrome://tracing and load it",
                    dump.event_count()
                );
            }
        }
        None => print!("{}", stream_sampler::profile::render_timeline(&dump, args.num("--limit"))),
    }
    std::process::exit(0);
}

/// A file argument is used as-is; a directory resolves to its
/// `flight.ssoprof` or, failing that, the newest `*.ssoprof` inside.
fn resolve_dump_path(target: &Path) -> Result<std::path::PathBuf, String> {
    if !target.is_dir() {
        return Ok(target.to_path_buf());
    }
    let canonical = target.join(stream_sampler::profile::DUMP_FILE);
    if canonical.is_file() {
        return Ok(canonical);
    }
    let entries = std::fs::read_dir(target).map_err(|e| format!("{}: {e}", target.display()))?;
    let mut newest: Option<(std::time::SystemTime, std::path::PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("ssoprof") {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if newest.as_ref().is_none_or(|(t, _)| mtime > *t) {
            newest = Some((mtime, path));
        }
    }
    newest
        .map(|(_, p)| p)
        .ok_or_else(|| format!("{}: no flight.ssoprof or *.ssoprof dump found", target.display()))
}

/// What one query execution produced, gathered so printing (or the live
/// `top` view) can happen outside the execution path.
struct ExecResult {
    windows: Vec<WindowOutput>,
    shard_lines: Vec<String>,
    /// Run-level coverage (1.0 unless faults degraded the output).
    coverage: f64,
}

/// Optional instruments a run carries: fault plan, metrics registry,
/// stage profiler. Bundled so `execute_query` takes one handle.
#[derive(Clone, Copy, Default)]
struct Attachments<'a> {
    faults: Option<&'a std::sync::Arc<FaultPlan>>,
    registry: Option<&'a Registry>,
    profiler: Option<&'a stream_sampler::profile::Profiler>,
}

/// Run the query over `packets`, single-instance or sharded. When a
/// registry is attached the run is fully instrumented and a snapshot is
/// pushed per closed window (single-instance) plus one final snapshot.
fn execute_query(
    opts: &Args,
    parsed: &stream_sampler::query::Query,
    spec: OperatorSpec,
    packets: &[Packet],
    att: Attachments<'_>,
    snapshots: &mut Vec<Snapshot>,
) -> Result<ExecResult, String> {
    let Attachments { faults, registry, profiler } = att;
    let schema = Packet::schema();
    let config = PlannerConfig::standard();
    let mut result = ExecResult { windows: Vec::new(), shard_lines: Vec::new(), coverage: 1.0 };
    if opts.sharded() {
        let make = |_shard: usize| {
            stream_sampler::query::plan(parsed, &schema, &config)
                .map_err(|e| stream_sampler::operator::OpError::InvalidSpec(e.to_string()))
        };
        let shards = opts.num("--shards");
        let mut cfg = RuntimeConfig::new(shards);
        // Pre-size group tables and rings from the static audit's
        // certified ceilings. With --trace the declared envelope may
        // not describe the input, but the hints stay sound: reserve()
        // caps at MAX_RESERVE and the certified bounds are upper
        // bounds under any rate for the sampler-capped dimensions.
        let audit_opts = stream_sampler::analysis::AuditOptions {
            feed: opts.value("--feed").to_string(),
            shards,
            ..Default::default()
        };
        let outcome = stream_sampler::analysis::audit_file(&opts.operand, &audit_opts);
        if let Some(s) = outcome.report.statements.first() {
            let hints = s.sizing_hints(shards, cfg.batch_size);
            cfg = cfg.with_sizing(hints);
        }
        if let Some(reg) = registry {
            cfg = cfg.with_registry(reg.clone());
        }
        if let Some(p) = profiler {
            cfg = cfg.with_profile(p.clone());
        }
        if let Some(plan) = faults {
            cfg = cfg.with_faults(plan.clone());
        }
        if let Some(dir) = opts.get("--durable") {
            let mut durability =
                stream_sampler::runtime::DurabilityConfig::new(std::path::PathBuf::from(dir));
            durability.fsync = FsyncPolicy::parse(opts.value("--fsync"))?;
            durability.state_budget = opts.on("--state-budget").then(|| opts.num("--state-budget"));
            durability.resume = opts.name == "recover";
            cfg = cfg.with_durability(durability);
        }
        let report = match stream_sampler::gigascope::run_plan_sharded(
            Box::new(SelectionNode::pass_all()),
            make,
            &cfg,
            packets.iter().copied(),
        ) {
            Ok(report) => report,
            Err(stream_sampler::gigascope::ShardedRunError::Runtime(
                stream_sampler::runtime::RuntimeError::Crashed { at_tuple },
            )) => {
                let hint = opts
                    .get("--durable")
                    .map(|d| format!("; resume with `sso recover {d}`"))
                    .unwrap_or_default();
                // The runtime wrote the flight recorder after joining
                // workers, so the dump is on disk by the time the crash
                // surfaces here.
                let dump = profiler
                    .filter(|p| p.triggered().is_some())
                    .and_then(|p| p.dump_path())
                    .map(|d| format!("; flight recorder: sso trace {}", d.display()))
                    .unwrap_or_default();
                return Err(format!("injected crash fired at stream tuple {at_tuple}{hint}{dump}"));
            }
            Err(e) => return Err(e.to_string()),
        };
        result.coverage = report.coverage;
        for s in &report.shards {
            result.shard_lines.push(format!(
                "# shard {}: {} tuples, {} windows, {} stalls, {} quarantined",
                s.shard,
                s.tuples(),
                s.windows(),
                s.stalls(),
                s.quarantines()
            ));
        }
        if report.degraded() {
            result.shard_lines.push(format!("# DEGRADED: coverage {:.4}", report.coverage));
        }
        result.windows = report.windows;
    } else {
        let mut op = SamplingOperator::new(spec).map_err(|e| e.to_string())?;
        if let Some(reg) = registry {
            op.set_metrics(OperatorMetrics::register(reg, ""));
        }
        let mut plan = SharedQueryPlan::unshared([(String::new(), op)]);
        // One snapshot per window a later tuple closes; the window the
        // end-of-stream flush closes is covered by the final snapshot.
        let run = run_inline(
            Box::new(SelectionNode::pass_all()),
            &mut plan,
            packets.iter().copied(),
            |_, w, at_end| {
                if let (Some(reg), false) = (registry, at_end) {
                    snapshots.push(reg.snapshot());
                }
                result.windows.push(w);
            },
        )
        .map_err(|e| e.to_string())?;
        if let Some(reg) = registry {
            run.publish(reg);
        }
    }
    // Fold the profiler's lanes into the registry before the final
    // snapshot so `prof.*` metrics reach `--metrics` output and the
    // `--meta` METRICS stream.
    if let (Some(p), Some(reg)) = (profiler, registry) {
        p.fold_into(reg);
    }
    if let Some(reg) = registry {
        snapshots.push(reg.snapshot());
    }
    Ok(result)
}

/// Render a snapshot as the `sso top` table. A profiler (from
/// `--profile`) adds the live end-to-end latency / hottest-stage line.
fn render_top(snap: &Snapshot, profiler: Option<&stream_sampler::profile::Profiler>) -> String {
    let mut out = String::new();
    out.push_str(&format!("sso top — snapshot #{} ({} metrics)\n", snap.seq, snap.metrics.len()));
    out.push_str(&format!("{:<28} {:<12} {:>10} {:>16}\n", "METRIC", "LABEL", "KIND", "VALUE"));
    for m in &snap.metrics {
        out.push_str(&format!(
            "{:<28} {:<12} {:>10} {:>16.3}\n",
            m.name,
            m.label,
            m.kind.as_str(),
            m.scalar()
        ));
    }
    out.push_str(&render_shard_health(snap));
    if let Some(p) = profiler {
        out.push_str(&render_top_profile(p));
    }
    out
}

/// The `--profile` section of the `sso top` view: end-to-end window
/// latency quantiles and the hottest pipeline stage, folded live from
/// the lanes' published suffixes (merge-on-read; no locks taken on the
/// record path).
fn render_top_profile(p: &stream_sampler::profile::Profiler) -> String {
    use stream_sampler::profile::fmt_ns;
    let r = p.report();
    if r.stages.is_empty() {
        return String::new();
    }
    let hottest = match r.stages.iter().find(|s| Some(s.stage) == r.dominant) {
        Some(s) => format!("{} ({:.1}%)", s.stage.name(), s.share_pct),
        None => "-".to_string(),
    };
    let latency = if r.window_count > 0 {
        format!(
            "p50 {}  p99 {}  ({} windows)",
            fmt_ns(r.windows.quantile(0.50)),
            fmt_ns(r.windows.quantile(0.99)),
            r.window_count
        )
    } else {
        "(no windows yet)".to_string()
    };
    format!("\n{:<18} {latency}\n{:<18} {hottest}\n", "E2E LATENCY", "HOTTEST STAGE")
}

/// The per-shard health section of the `sso top` view: one row per
/// shard with its delivery, loss, and fault columns, plus the run-level
/// coverage gauge. Empty for single-instance runs (no `rt.*` shard
/// metrics in the snapshot).
fn render_shard_health(snap: &Snapshot) -> String {
    // label "shard=N" → [tuples, windows, stalls, quarantines, ckpt age
    // (windows logged since the shard's log was last synced: what power
    // loss would cost now), resident spill bytes]. The last two only
    // appear on durable runs (`store.*` gauges); the columns render
    // anyway so the table shape is stable.
    const COLS: [&str; 6] = [
        "rt.tuples",
        "rt.windows",
        "rt.stalls",
        "rt.quarantines",
        "store.ckpt_age",
        "store.resident_bytes",
    ];
    let mut shards: Vec<(usize, [f64; 6])> = Vec::new();
    for m in &snap.metrics {
        let Some(col) = COLS.iter().position(|&c| c == m.name) else { continue };
        let Some(shard) = m.label.strip_prefix("shard=").and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        let row = match shards.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, row)) => row,
            None => {
                shards.push((shard, [0.0; 6]));
                &mut shards.last_mut().expect("just pushed").1
            }
        };
        row[col] = m.scalar();
    }
    if shards.is_empty() {
        return String::new();
    }
    shards.sort_by_key(|(s, _)| *s);
    let mut out = String::new();
    out.push_str(&format!(
        "\n{:<6} {:>12} {:>9} {:>8} {:>12} {:>9} {:>12}\n",
        "SHARD", "TUPLES", "WINDOWS", "STALLS", "QUARANTINED", "CKPT_AGE", "SPILL_RES"
    ));
    for (shard, row) in &shards {
        out.push_str(&format!(
            "{:<6} {:>12} {:>9} {:>8} {:>12} {:>9} {:>12}\n",
            shard, row[0], row[1], row[2], row[3], row[4], row[5]
        ));
    }
    out.push_str(&render_router_health(snap));
    if let Some(cov) = snap.metrics.iter().find(|m| m.name == "rt.coverage") {
        let val = cov.scalar();
        out.push_str(&format!(
            "coverage {:.4}{}\n",
            val,
            if val < 1.0 { "  ** DEGRADED **" } else { "" }
        ));
    }
    out
}

/// The ROUTER row of the `sso top` health table: the router's
/// routed-tuple count, batch count (the `rt.batch_tuples` histogram's
/// observation count), quarantines, and unrouted (uncovered) loss mass.
/// Empty for single-instance runs.
fn render_router_health(snap: &Snapshot) -> String {
    let get = |name: &str| snap.metrics.iter().find(|m| m.name == name);
    let Some(tuples) = get("rt.router_tuples") else {
        return String::new();
    };
    let scalar = |name: &str| get(name).map_or(0.0, |m| m.scalar());
    format!(
        "\n{:<6} {:>12} {:>9} {:>12} {:>10}\n{:<6} {:>12} {:>9} {:>12} {:>10}\n",
        "ROUTER",
        "TUPLES",
        "BATCHES",
        "QUARANTINED",
        "UNCOVERED",
        0,
        tuples.scalar(),
        get("rt.batch_tuples").map_or(0, |m| m.hits()),
        scalar("rt.router_quarantines"),
        scalar("rt.router_uncovered"),
    )
}

/// Write collected snapshots to the `--metrics` target: `-` prints the
/// JSON document to stdout, `*.prom` writes Prometheus text of the last
/// snapshot, anything else gets the JSON document as a file.
fn write_metrics(target: &str, snapshots: &[Snapshot]) {
    let body = if target.ends_with(".prom") {
        snapshots.last().map(export::snapshot_to_prometheus).unwrap_or_default()
    } else {
        line(&json::snapshots(snapshots)) + "\n"
    };
    if target == "-" {
        print!("{body}");
        return;
    }
    if let Err(e) = std::fs::write(target, body) {
        fail(1, format!("cannot write {target}: {e}"));
    }
}

/// Run the compiled `--meta` query over the collected snapshots:
/// snapshots are rendered as METRICS tuples (ordered by snapshot `seq`)
/// and fed to a second sampling operator — the DSMS monitoring the DSMS.
fn run_meta_query(mut op: SamplingOperator, snapshots: &[Snapshot], opts: &Args) {
    let tuples: Vec<Tuple> = snapshots.iter().flat_map(snapshot_tuples).collect();
    let windows = op.run(tuples.iter()).unwrap_or_else(|e| fail(1, format!("meta query: {e}")));
    let columns: Vec<String> = op.spec().select.iter().map(|(n, _)| n.clone()).collect();
    if !opts.on("--json") {
        eprintln!("# meta query over {} snapshots ({} tuples)", snapshots.len(), tuples.len());
    }
    for w in &windows {
        print_window(w, &columns, opts);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv);
    match args.name {
        "check" => run_check(&args),
        "audit" => run_audit(&args),
        "optimize" => run_optimize(&args),
        "trace" => run_trace(&args),
        "recover" => run(recover(args)),
        _ => run(args),
    }
}

/// `sso run`, `sso top` and `sso recover`: plan the query, build the
/// feed, execute and print.
fn run(opts: Args) {
    let query_text = opts.operand.as_str();
    let (seconds, seed, shards): (u64, u64, usize) =
        (opts.num("--seconds"), opts.num("--seed"), opts.num("--shards"));
    let (top, json) = (opts.name == "top", opts.on("--json"));

    let schema = Packet::schema();
    let config = PlannerConfig::standard();
    let parsed = parse_query(query_text).unwrap_or_else(|e| fail(1, e));
    let spec =
        stream_sampler::query::plan(&parsed, &schema, &config).unwrap_or_else(|e| fail(1, e));
    if opts.on("--explain") {
        print!("{}", explain(&spec));
        return;
    }
    // The meta query is compiled before anything runs, so a bad one
    // costs no feed, no output and no store.
    let meta = opts.get("--meta").map(|text| {
        compile(text, &metrics_schema(), &config)
            .unwrap_or_else(|e| fail(1, format!("meta query: {e}")))
    });

    // Resolve the fault plan before the feed so its feed-level events
    // can perturb the packets. A file wins over --fault-seed; a bare
    // --fault-seed generates the seeded plan (replayable: the same seed
    // and shard count always produce the same plan).
    let fault_plan: Option<std::sync::Arc<FaultPlan>> = match opts.get("--fault-plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(1, format!("cannot read {path}: {e}")));
            let plan = FaultPlan::parse(&text).unwrap_or_else(|e| fail(1, format!("{path}: {e}")));
            Some(plan.into_shared())
        }
        None if opts.on("--fault-seed") => {
            Some(FaultPlan::from_seed(opts.num("--fault-seed"), shards).into_shared())
        }
        None => None,
    };

    let packets = match opts.get("--trace") {
        Some(path) => std::fs::File::open(path)
            .map_err(Into::into)
            .and_then(stream_sampler::netgen::read_trace)
            .unwrap_or_else(|e| fail(1, e)),
        None => match opts.value("--feed") {
            "research" => research_feed(seed).take_seconds(seconds),
            "datacenter" => datacenter_feed(seed).take_seconds(seconds),
            "burst" => burst_feed(seed).take_seconds(seconds),
            "ddos" => ddos_feed(seed, seconds / 3, 2 * seconds / 3).take_seconds(seconds),
            other => unreachable!("--feed {other} has a profile but no generator"),
        },
    };
    if let Some(path) = opts.get("--dump") {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(1, format!("cannot create {path}: {e}")));
        if let Err(e) = stream_sampler::netgen::write_trace(&packets, std::io::BufWriter::new(file))
        {
            fail(1, format!("writing {path}: {e}"));
        }
        if !json {
            eprintln!("# wrote {} packets to {path}", packets.len());
        }
    }
    // Feed-level fault events (bursts, reordering, skew, malformed
    // tuples) rewrite the packet stream; the dump above stays clean so
    // a saved trace replays without the plan.
    let packets = match &fault_plan {
        Some(plan) => {
            if plan.has_worker_faults() && shards <= 1 {
                eprintln!(
                    "warning: fault plan has worker events; they only fire with --shards > 1"
                );
            }
            if !json {
                for ev in &plan.events {
                    eprintln!("# fault: {ev}");
                }
            }
            plan.perturb_packets(packets)
        }
        None => packets,
    };
    if !json {
        eprintln!(
            "# feed={} seed={seed} seconds={seconds} packets={}",
            opts.value("--feed"),
            packets.len()
        );
    }

    // Gate on shard-mergeability first so the refusal renders as a
    // proper W102 diagnostic instead of a runtime error.
    if opts.sharded() && stream_sampler::operator::shard_plan(&spec).is_err() {
        let diags = stream_sampler::query::check_shard_mergeable(query_text, &schema, &config);
        eprint!("{}", diag::render(query_text, "query", &diags));
        let why = if shards > 1 {
            format!("--shards {shards}")
        } else if opts.on("--durable") {
            "--durable".to_string()
        } else {
            "--profile runs through the sharded runtime and".to_string()
        };
        fail(1, format!("{why} requires a shard-mergeable query"));
    }

    // A fresh durable run records the query and every recorded flag so
    // `sso recover` can rebuild the identical input stream. Written
    // before execution: the manifest must survive the crash it exists
    // to recover from.
    if let (Some(dir), false) = (opts.get("--durable"), opts.name == "recover") {
        let query = ("query".to_string(), query_text.replace(['\n', '\r'], " "));
        let recorded =
            FLAGS.iter().filter_map(|f| Some((f.key?.to_string(), opts.get(f.name)?.to_string())));
        let entries: Vec<_> = std::iter::once(query).chain(recorded).collect();
        if let Err(e) = stream_sampler::store::write_manifest(Path::new(dir), &entries) {
            fail(1, format!("cannot write {dir}/MANIFEST: {e}"));
        }
    }

    let wants_metrics = opts.on("--metrics") || meta.is_some() || top;
    let registry = wants_metrics.then(Registry::new);
    // The profiler's dump target: an explicit `--profile=FILE` wins,
    // else triggered dumps land next to the durable store (when one
    // exists) or in the working directory.
    let profiler = opts.get("--profile").map(|target| {
        let dump_path = if target != "-" {
            std::path::PathBuf::from(target)
        } else if let Some(dir) = opts.get("--durable") {
            Path::new(dir).join(stream_sampler::profile::DUMP_FILE)
        } else {
            std::path::PathBuf::from(stream_sampler::profile::DUMP_FILE)
        };
        stream_sampler::profile::Profiler::new(stream_sampler::profile::ProfilerConfig {
            dump_path: Some(dump_path),
            ..Default::default()
        })
    });
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let columns: Vec<String> = spec.select.iter().map(|(n, _)| n.clone()).collect();
    let att = Attachments {
        faults: fault_plan.as_ref(),
        registry: registry.as_ref(),
        profiler: profiler.as_ref(),
    };

    let result = if top {
        let reg = registry.clone().expect("top always collects metrics");
        // The query runs on a background thread; the foreground redraws
        // the metrics table in place until it finishes.
        std::thread::scope(|s| {
            let (opts, parsed, packets, snapshots) = (&opts, &parsed, &packets, &mut snapshots);
            let handle =
                s.spawn(move || execute_query(opts, parsed, spec, packets, att, snapshots));
            while !handle.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(250));
                // \x1b[2J\x1b[H = clear screen + home.
                print!("\x1b[2J\x1b[H{}", render_top(&reg.snapshot(), att.profiler));
                let _ = std::io::stdout().flush();
            }
            handle.join().expect("top worker panicked")
        })
    } else {
        execute_query(&opts, &parsed, spec, &packets, att, &mut snapshots)
    };
    let result = result.unwrap_or_else(|e| fail(1, e));

    let mut total_rows = 0u64;
    if top {
        // Final state of the table, then a run summary instead of rows.
        println!(
            "{}",
            render_top(snapshots.last().expect("final snapshot always taken"), profiler.as_ref())
        );
        total_rows = result.windows.iter().map(|w| w.rows.len() as u64).sum();
        println!("# {} windows, {total_rows} rows total", result.windows.len());
        if result.coverage < 1.0 {
            println!("# DEGRADED: coverage {:.4}", result.coverage);
        }
    } else {
        for w in &result.windows {
            total_rows += print_window(w, &columns, &opts);
        }
        if !json {
            for line in &result.shard_lines {
                eprintln!("{line}");
            }
            eprintln!("# {total_rows} rows total");
        }
    }

    if let Some(p) = &profiler {
        // The attribution report goes to stderr like the shard lines,
        // so `--json` window output on stdout stays machine-clean.
        eprint!("{}", p.report().render());
        match p.triggered() {
            Some(reason) => {
                // The runtime already wrote the triggered dump after
                // worker joins; just say where it landed.
                if let Some(path) = p.dump_path() {
                    eprintln!(
                        "# flight recorder ({}): sso trace {}",
                        reason.as_str(),
                        path.display()
                    );
                }
            }
            None if opts.get("--profile") != Some("-") => {
                // An explicit FILE target gets a dump even on a clean
                // run — that is how a chrome trace of a healthy run is
                // produced.
                if let Some(path) = p.dump_path() {
                    match p.write_dump(path, stream_sampler::profile::DumpReason::Manual) {
                        Ok(()) => eprintln!("# profile dump: sso trace {}", path.display()),
                        Err(e) => {
                            fail(1, format!("cannot write profile dump {}: {e}", path.display()))
                        }
                    }
                }
            }
            None => {}
        }
    }
    if let Some(target) = opts.get("--metrics") {
        write_metrics(target, &snapshots);
    }
    if let Some(op) = meta {
        run_meta_query(op, &snapshots, &opts);
    }
}

fn print_window(w: &WindowOutput, columns: &[String], opts: &Args) -> u64 {
    if opts.on("--json") {
        println!("{}", line(&json::window(w, columns)));
        return w.rows.len() as u64;
    }
    let degraded = if w.degradation.degraded {
        format!(", coverage {:.3} DEGRADED", w.degradation.coverage)
    } else {
        String::new()
    };
    println!(
        "\n== window {} ({} tuples in, {} admitted, {} cleaning phases, {} rows{degraded}) ==",
        w.window,
        w.stats.tuples,
        w.stats.admitted,
        w.stats.cleaning_phases,
        w.rows.len()
    );
    println!("{}", columns.join("\t"));
    let limit: usize = opts.num("--limit");
    for row in w.rows.iter().take(limit) {
        let cells: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
    if w.rows.len() > limit {
        println!("... ({} more rows)", w.rows.len() - limit);
    }
    w.rows.len() as u64
}

/// A document on one line: what every JSON output of the CLI prints.
fn line(doc: &serde_json::Value) -> String {
    serde_json::to_string(doc).expect("a Value always serializes")
}
