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
//! Options:
//!   --feed research|datacenter|ddos|burst  packet source (default research)
//!   --trace FILE                      read packets from a CSV trace instead
//!   --dump FILE                       also write the packets to a CSV trace
//!   --seconds N                       trace length (default 60)
//!   --seed S                          feed seed (default 1)
//!   --limit R                         print at most R rows per window (default 20)
//!   --shards N                        run N partitioned operator shards (default 1);
//!                                     refuses non-shard-mergeable queries with W102.
//!                                     The calling thread routes under supervision:
//!                                     a routing panic degrades one window instead
//!                                     of killing the run
//!   --fault-plan FILE                 inject faults from a fault-plan file (see
//!                                     `sso-faults`); feed-level events perturb the
//!                                     packets, worker/router events need the
//!                                     sharded runtime (--shards); a worker event
//!                                     naming a shard the run lacks is an error
//!   --fault-seed S                    generate a seeded fault plan instead of
//!                                     reading one (same replayable format)
//!   --durable DIR                     persist operator state to DIR: one append-only
//!                                     log of closed windows per shard, so
//!                                     `sso recover DIR` resumes a killed run
//!                                     with loss bounded to the crash window
//!   --state-budget BYTES              cap live group-table state; shards over
//!                                     budget page cold groups to a spill file
//!                                     under DIR (requires --durable)
//!   --fsync always|never|every=N      when a logged window is synced (default never:
//!                                     survives process crashes, not power loss)
//!   --metrics[=FILE]                  collect telemetry; write JSON snapshots to
//!                                     FILE (`-`/omitted = stdout, `*.prom` =
//!                                     Prometheus text of the final snapshot)
//!   --profile[=FILE]                  causal stage tracing: run through the
//!                                     sharded runtime with lineage stamps and
//!                                     print the stage-attribution report; an
//!                                     explicit FILE always gets a flight-recorder
//!                                     dump, bare `--profile` dumps only when a
//!                                     fault trigger fires (panic / shed /
//!                                     crash; default flight.ssoprof, or
//!                                     under --durable DIR when set)
//!   --meta QUERY                      run a second sampling query over the
//!                                     telemetry snapshots (FROM METRICS)
//!   --explain                         print the plan instead of running
//!   --json                            machine-readable window output
//!
//! `sso run` is an explicit alias for the default run mode. `sso top`
//! runs the query on a background thread and refreshes a metrics table
//! in place until it finishes (windows are counted, not printed); with
//! `--profile` the table gains end-to-end window latency (p50/p99) and
//! the hottest pipeline stage, live from the collector.
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
//! per query against a declared feed envelope (`--feed`, default
//! research), a router-skew verdict at `--shards N`, and degradation
//! behavior (W201–W204, W206). `--budget BYTES` makes the command fail when
//! the certified total exceeds the budget (or cannot be bounded);
//! `--state-budget BYTES` audits a durable run's spill budget (W206
//! fires when it is under the pager's two-page-per-shard floor);
//! `--json` emits the machine-readable `BoundsReport` — including the
//! `durable` section with certified snapshot/WAL bytes per window —
//! plus diagnostics. Nothing is executed: the verdict comes from the
//! paper's closed-form state bounds evaluated symbolically.
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

use stream_sampler::json;
use stream_sampler::obs::{export, metrics_schema, snapshot_tuples, Registry, Snapshot};
use stream_sampler::operator::{OperatorMetrics, OperatorSpec, WindowOutput};
use stream_sampler::prelude::*;
use stream_sampler::query::diag;
use stream_sampler::query::explain::explain;

struct Options {
    feed: String,
    trace: Option<String>,
    dump: Option<String>,
    seconds: u64,
    seed: u64,
    limit: usize,
    shards: usize,
    fault_plan: Option<String>,
    fault_seed: Option<u64>,
    durable: Option<String>,
    state_budget: Option<u64>,
    fsync: String,
    /// Resume from an existing store (`sso recover`) instead of
    /// starting it fresh.
    resume: bool,
    metrics: Option<String>,
    /// `--profile[=FILE]`: `-` for report-only (triggered dumps land at
    /// the default path), anything else is an explicit dump target.
    profile: Option<String>,
    meta: Option<String>,
    top: bool,
    explain: bool,
    json: bool,
    query: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sso [run|top] [--feed research|datacenter|ddos|burst] [--trace FILE] \
         [--dump FILE] [--seconds N] [--seed S] [--limit R] [--shards N] \
         [--fault-plan FILE] [--fault-seed S] \
         [--durable DIR] [--state-budget BYTES] [--fsync always|never|every=N] \
         [--metrics[=FILE]] [--profile[=FILE]] [--meta QUERY] [--explain] [--json] 'QUERY'\n\
         \x20      sso recover [--json] [--limit R] [--metrics[=FILE]] STORE-DIR\n\
         \x20      sso trace [--chrome FILE] [--limit N] DUMP-FILE|DIR\n\
         \x20      sso check [--json] [--deny-warnings] QUERY-FILE\n\
         \x20      sso audit [--json] [--deny-warnings] [--feed NAME] [--shards N] \
         [--budget BYTES] [--state-budget BYTES] QUERY-FILE\n\
         \x20      sso optimize [--json] [--deny-warnings] [--explain] QUERY-FILE"
    );
    std::process::exit(2);
}

use stream_sampler::analysis::split_statements;

/// `sso check [--json] FILE`: statically analyze every query in FILE,
/// printing rustc-style diagnostics — or, with `--json`, one JSON
/// object per diagnostic per line (code, span, message, severity) for
/// editors and CI. Exits 0 when clean (warnings allowed), 1 when any
/// query has errors, 2 on usage or I/O problems.
fn run_check(args: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!("usage: sso check [--json] [--deny-warnings] QUERY-FILE");
        std::process::exit(2);
    };
    let mut json = false;
    let mut deny_warnings = false;
    let mut path = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => usage(),
            p if !p.starts_with("--") && path.is_none() => path = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    if split_statements(&text).is_empty() {
        eprintln!("error: {path} contains no queries");
        std::process::exit(2);
    }

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
            writeln!(out, "{}", diag::render_one(&text, &path, d))
        };
    }
    drop(out);
    // The human summary line would corrupt a JSON stream; consumers
    // count objects (and read the exit code) instead.
    if !json {
        let mut out = std::io::stdout().lock();
        let _ = match (errors, warnings) {
            (0, 0) => writeln!(out, "{path}: no problems found"),
            (e, w) => writeln!(out, "{path}: {e} error(s), {w} warning(s)"),
        };
    }
    std::process::exit(if errors > 0 || (deny_warnings && warnings > 0) { 1 } else { 0 });
}

/// `sso audit [--json] [--deny-warnings] [--feed NAME] [--shards N]
/// [--budget BYTES] FILE`: run the static
/// abstract-interpretation pass over every query in FILE, printing the
/// certified bounds (or the JSON `BoundsReport`) plus any W2xx
/// diagnostics. Exits 0 when the file certifies cleanly, 1 on errors,
/// budget violations, or (with `--deny-warnings`) any warning, 2 on
/// usage or I/O problems.
fn run_audit(args: &[String]) -> ! {
    use stream_sampler::analysis::AuditOptions;

    let usage = || -> ! {
        eprintln!(
            "usage: sso audit [--json] [--deny-warnings] [--feed NAME] [--shards N] \
             [--budget BYTES] [--state-budget BYTES] QUERY-FILE"
        );
        std::process::exit(2);
    };
    let mut opts = AuditOptions::default();
    let mut json = false;
    let mut deny_warnings = false;
    let mut path = None;
    let mut i = 0usize;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i - 1).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        let a = args[i].clone();
        i += 1;
        match a.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--feed" => opts.feed = value(&mut i),
            "--shards" => {
                opts.shards = value(&mut i)
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--budget" => {
                opts.budget = Some(value(&mut i).parse::<u64>().unwrap_or_else(|_| usage()))
            }
            "--state-budget" => {
                opts.state_budget = Some(value(&mut i).parse::<u64>().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            p if !p.starts_with("--") && path.is_none() => path = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    if stream_sampler::netgen::feed_profile(&opts.feed).is_none() {
        eprintln!(
            "error: no feed envelope named `{}` (research | datacenter | ddos | burst)",
            opts.feed
        );
        std::process::exit(2);
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    if stream_sampler::analysis::split_statements(&text).is_empty() {
        eprintln!("error: {path} contains no queries");
        std::process::exit(2);
    }

    let outcome = stream_sampler::analysis::audit_file(&text, &opts);
    // Identical `(code, span)` findings from different statements (e.g.
    // dummy-span file-level warnings) print once.
    let mut diags = outcome.diagnostics.clone();
    diag::dedup_diagnostics(&mut diags);
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;

    let mut out = std::io::stdout().lock();
    if json {
        // One object: the bounds certificate plus every diagnostic, so
        // CI consumes a single line per audited file.
        let _ = writeln!(out, "{}", line(&json::audit(&outcome.report, &diags)));
    } else {
        for d in &diags {
            let _ = writeln!(out, "{}", diag::render_one(&text, &path, d));
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
    let fail = errors > 0 || outcome.budget_exceeded() || (deny_warnings && warnings > 0);
    std::process::exit(if fail { 1 } else { 0 });
}

/// `sso optimize [--json] [--deny-warnings] [--explain] FILE`: run the
/// certified plan-rewrite optimizer (`sso-rewrite`) over every query in
/// FILE. The default mode applies the sharing rewrites — deduplicating
/// identical normalized plans and hoisting a shared prefilter — and
/// prints the rewrite certificate plus the re-audit verdict; `--explain`
/// reports the same opportunities as W301 lints without applying
/// anything. Exits 0 when clean, 1 on errors, a failed re-audit, or
/// (with `--deny-warnings`) any warning, 2 on usage or I/O problems.
fn run_optimize(args: &[String]) -> ! {
    use stream_sampler::rewrite::{optimize_file, render_summary, OptimizeOptions};

    let usage = || -> ! {
        eprintln!("usage: sso optimize [--json] [--deny-warnings] [--explain] QUERY-FILE");
        std::process::exit(2);
    };
    let mut json = false;
    let mut deny_warnings = false;
    let mut explain_only = false;
    let mut path = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--explain" => explain_only = true,
            "--help" | "-h" => usage(),
            p if !p.starts_with("--") && path.is_none() => path = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    if stream_sampler::analysis::split_statements(&text).is_empty() {
        eprintln!("error: {path} contains no queries");
        std::process::exit(2);
    }

    let opts = OptimizeOptions { apply: !explain_only, ..OptimizeOptions::default() };
    let outcome = optimize_file(&text, &opts);
    let errors = outcome.diagnostics.iter().filter(|d| d.is_error()).count();
    let warnings = outcome.diagnostics.len() - errors;

    let mut out = std::io::stdout().lock();
    if json {
        // One object per file: the rewrite report (clusters, certificate,
        // shared plans, re-audit) plus every diagnostic.
        let _ = writeln!(out, "{}", line(&json::optimize(&outcome)));
    } else {
        for d in &outcome.diagnostics {
            let _ = writeln!(out, "{}", diag::render_one(&text, &path, d));
        }
        let _ = write!(out, "{}", render_summary(&outcome));
    }
    let fail = errors > 0 || !outcome.reaudit.ok || (deny_warnings && warnings > 0);
    std::process::exit(if fail { 1 } else { 0 });
}

impl Default for Options {
    fn default() -> Self {
        Options {
            feed: "research".to_string(),
            trace: None,
            dump: None,
            seconds: 60,
            seed: 1,
            limit: 20,
            shards: 1,
            fault_plan: None,
            fault_seed: None,
            durable: None,
            state_budget: None,
            fsync: "never".to_string(),
            resume: false,
            metrics: None,
            profile: None,
            meta: None,
            top: false,
            explain: false,
            json: false,
            query: None,
        }
    }
}

/// The output flags `run` and `recover` share, `--json`, `--limit R`
/// and `--metrics[=FILE]`: parse `argv[*i - 1]` into `opts` if it is
/// one, moving `*i` past any value it takes.
fn output_flag(argv: &[String], i: &mut usize, opts: &mut Options, usage: fn() -> !) -> bool {
    match argv[*i - 1].as_str() {
        "--json" => opts.json = true,
        "--limit" => {
            *i += 1;
            opts.limit = argv.get(*i - 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
        }
        "--metrics" => {
            // Optional target: a following bare `-` selects stdout
            // explicitly (also the default); files use `--metrics=FILE`.
            if argv.get(*i).map(String::as_str) == Some("-") {
                *i += 1;
            }
            opts.metrics = Some("-".to_string());
        }
        s if s.starts_with("--metrics=") => {
            opts.metrics = Some(s["--metrics=".len()..].to_string())
        }
        _ => return false,
    }
    true
}

fn parse_args(argv: &[String], top: bool) -> Options {
    let mut opts = Options { top, ..Options::default() };
    let mut i = 0usize;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i - 1).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        i += 1;
        if output_flag(argv, &mut i, &mut opts, usage) {
            continue;
        }
        match argv[i - 1].as_str() {
            "--feed" => opts.feed = value(&mut i),
            "--trace" => opts.trace = Some(value(&mut i)),
            "--dump" => opts.dump = Some(value(&mut i)),
            "--seconds" => opts.seconds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shards" => {
                opts.shards = value(&mut i)
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--fault-plan" => opts.fault_plan = Some(value(&mut i)),
            "--fault-seed" => {
                opts.fault_seed = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--durable" => opts.durable = Some(value(&mut i)),
            "--state-budget" => {
                opts.state_budget = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--fsync" => opts.fsync = value(&mut i),
            "--profile" => opts.profile = Some("-".to_string()),
            s if s.starts_with("--profile=") => {
                opts.profile = Some(s["--profile=".len()..].to_string())
            }
            "--meta" => opts.meta = Some(value(&mut i)),
            "--explain" => opts.explain = true,
            "--help" | "-h" => usage(),
            q if !q.starts_with("--") && opts.query.is_none() => opts.query = Some(q.to_string()),
            _ => usage(),
        }
    }
    if opts.query.is_none() {
        usage();
    }
    if opts.state_budget.is_some() && opts.durable.is_none() {
        eprintln!("error: --state-budget requires --durable DIR (the spill file lives there)");
        std::process::exit(2);
    }
    if let Err(e) = stream_sampler::store::FsyncPolicy::parse(&opts.fsync) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    opts
}

/// `sso recover [--json] [--limit R] [--metrics[=FILE]] STORE-DIR`:
/// rebuild the run configuration from the store's `MANIFEST` and re-run
/// it with `resume = true` — recorded windows are served back from the
/// store, and execution picks up at the first unrecorded window.
fn recover_options(args: &[String]) -> Options {
    let usage = || -> ! {
        eprintln!("usage: sso recover [--json] [--limit R] [--metrics[=FILE]] STORE-DIR");
        std::process::exit(2);
    };
    let mut opts = Options::default();
    let mut dir: Option<String> = None;
    let mut i = 0usize;
    while i < args.len() {
        i += 1;
        if output_flag(args, &mut i, &mut opts, usage) {
            continue;
        }
        match args[i - 1].as_str() {
            "--help" | "-h" => usage(),
            p if !p.starts_with("--") && dir.is_none() => dir = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    let manifest =
        stream_sampler::store::read_manifest(std::path::Path::new(&dir)).unwrap_or_else(|e| {
            eprintln!("error: cannot read {dir}/MANIFEST: {e}");
            std::process::exit(1);
        });
    let get = |k: &str| manifest.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
    let require = |k: &str| {
        get(k).unwrap_or_else(|| {
            eprintln!(
                "error: {dir}/MANIFEST has no `{k}` entry; was the run started with --durable?"
            );
            std::process::exit(1);
        })
    };
    let parse_num = |k: &str, v: String| -> u64 {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: {dir}/MANIFEST: bad `{k}` value `{v}`");
            std::process::exit(1);
        })
    };
    let query = require("query");
    let seconds = parse_num("seconds", require("seconds"));
    let seed = parse_num("seed", require("seed"));
    let shards = parse_num("shards", require("shards")) as usize;
    let state_budget = get("state_budget").map(|v| parse_num("state_budget", v));
    // Routing is a pure function of the tuples and the shard count, so
    // nothing else about it needs recording: the `routers` and
    // `router_cursors` keys older builds wrote are ignored. Fault plans
    // are deliberately not replayed (the defaults have none): recovery
    // must converge on the fault-free output, and re-arming the crash
    // event would kill the resumed run at the same tuple again.
    Options {
        feed: get("feed").unwrap_or_else(|| "research".to_string()),
        trace: get("trace"),
        seconds,
        seed,
        shards,
        durable: Some(dir),
        state_budget,
        fsync: get("fsync").unwrap_or_else(|| "never".to_string()),
        resume: true,
        query: Some(query),
        ..opts
    }
}

/// `sso trace [--chrome FILE] [--limit N] DUMP-FILE|DIR`: render a
/// flight-recorder dump as a human-readable causal timeline, or as
/// Chrome trace-event JSON (`--chrome`, `-` for stdout) that
/// chrome://tracing and Perfetto load directly. A directory argument
/// resolves to its `flight.ssoprof`, falling back to the newest
/// `*.ssoprof` file inside (crash dumps under `--durable DIR`).
fn run_trace(args: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!("usage: sso trace [--chrome FILE] [--limit N] DUMP-FILE|DIR");
        std::process::exit(2);
    };
    let mut chrome: Option<String> = None;
    let mut limit = 64usize;
    let mut target: Option<String> = None;
    let mut i = 0usize;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i - 1).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        let a = args[i].clone();
        i += 1;
        match a.as_str() {
            "--chrome" => chrome = Some(value(&mut i)),
            "--limit" => limit = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            p if !p.starts_with("--") && target.is_none() => target = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(target) = target else { usage() };
    let path = resolve_dump_path(std::path::Path::new(&target)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let dump = stream_sampler::profile::read_dump_file(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    match chrome {
        Some(out) => {
            let body = line(&json::chrome_trace(&dump));
            if out == "-" {
                print!("{body}");
            } else if let Err(e) = std::fs::write(&out, body) {
                eprintln!("error: cannot write {out}: {e}");
                std::process::exit(1);
            } else {
                eprintln!(
                    "# wrote {} trace events to {out} — open chrome://tracing and load it",
                    dump.event_count()
                );
            }
        }
        None => print!("{}", stream_sampler::profile::render_timeline(&dump, limit)),
    }
    std::process::exit(0);
}

/// A file argument is used as-is; a directory resolves to its
/// `flight.ssoprof` or, failing that, the newest `*.ssoprof` inside.
fn resolve_dump_path(target: &std::path::Path) -> Result<std::path::PathBuf, String> {
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
    opts: &Options,
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
    // Durable and profiled runs always go through the sharded runtime —
    // that is where the per-shard store and the lineage-stamped stage
    // pipeline live — even at --shards 1.
    if opts.shards > 1 || opts.durable.is_some() || profiler.is_some() {
        let make = |_shard: usize| {
            stream_sampler::query::plan(parsed, &schema, &config)
                .map_err(|e| stream_sampler::operator::OpError::InvalidSpec(e.to_string()))
        };
        let mut cfg = RuntimeConfig::new(opts.shards);
        // Pre-size group tables and rings from the static audit's
        // certified ceilings. With --trace the declared envelope may
        // not describe the input, but the hints stay sound: reserve()
        // caps at MAX_RESERVE and the certified bounds are upper
        // bounds under any rate for the sampler-capped dimensions.
        if let Some(text) = opts.query.as_deref() {
            let audit_opts = stream_sampler::analysis::AuditOptions {
                feed: opts.feed.clone(),
                shards: opts.shards,
                ..Default::default()
            };
            let outcome = stream_sampler::analysis::audit_file(text, &audit_opts);
            if let Some(s) = outcome.report.statements.first() {
                let hints = s.sizing_hints(opts.shards, cfg.batch_size);
                cfg = cfg.with_sizing(hints);
            }
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
        if let Some(dir) = &opts.durable {
            let mut durability =
                stream_sampler::runtime::DurabilityConfig::new(std::path::PathBuf::from(dir));
            durability.fsync = stream_sampler::store::FsyncPolicy::parse(&opts.fsync)?;
            durability.state_budget = opts.state_budget;
            durability.resume = opts.resume;
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
                    .durable
                    .as_deref()
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
                "# shard {}: {} tuples, {} windows, {} stalls, {} dropped, {} shed, \
                 {} quarantined",
                s.shard,
                s.tuples(),
                s.windows(),
                s.stalls(),
                s.dropped(),
                s.shed(),
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
    // label "shard=N" → [tuples, windows, stalls, dropped, shed,
    // quarantines, ckpt age (windows logged since the shard's log was
    // last synced: what power loss would cost now), resident spill
    // bytes]. The last two only appear on durable runs (`store.*`
    // gauges); the columns render anyway so the table shape is stable.
    const COLS: [&str; 8] = [
        "rt.tuples",
        "rt.windows",
        "rt.stalls",
        "rt.dropped",
        "rt.shed_tuples",
        "rt.quarantines",
        "store.ckpt_age",
        "store.resident_bytes",
    ];
    let mut shards: Vec<(usize, [f64; 8])> = Vec::new();
    for m in &snap.metrics {
        let Some(col) = COLS.iter().position(|&c| c == m.name) else { continue };
        let Some(shard) = m.label.strip_prefix("shard=").and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        let row = match shards.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, row)) => row,
            None => {
                shards.push((shard, [0.0; 8]));
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
        "\n{:<6} {:>12} {:>9} {:>8} {:>9} {:>9} {:>12} {:>9} {:>12}\n",
        "SHARD",
        "TUPLES",
        "WINDOWS",
        "STALLS",
        "DROPPED",
        "SHED",
        "QUARANTINED",
        "CKPT_AGE",
        "SPILL_RES"
    ));
    for (shard, row) in &shards {
        out.push_str(&format!(
            "{:<6} {:>12} {:>9} {:>8} {:>9} {:>9} {:>12} {:>9} {:>12}\n",
            shard, row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7]
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
        eprintln!("error: cannot write {target}: {e}");
        std::process::exit(1);
    }
}

/// Run the `--meta` query over the collected snapshots: snapshots are
/// rendered as METRICS tuples (ordered by snapshot `seq`) and fed to a
/// second sampling operator — the DSMS monitoring the DSMS.
fn run_meta_query(meta_text: &str, snapshots: &[Snapshot], opts: &Options) {
    let config = PlannerConfig::standard();
    let schema = metrics_schema();
    let mut op = match compile(meta_text, &schema, &config) {
        Ok(op) => op,
        Err(e) => {
            eprintln!("error: meta query: {e}");
            std::process::exit(1);
        }
    };
    let tuples: Vec<Tuple> = snapshots.iter().flat_map(snapshot_tuples).collect();
    let windows = match op.run(tuples.iter()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: meta query: {e}");
            std::process::exit(1);
        }
    };
    let meta_parsed = parse_query(meta_text).expect("meta query parsed by compile");
    let meta_spec =
        stream_sampler::query::plan(&meta_parsed, &schema, &config).expect("meta query planned");
    let columns: Vec<String> = meta_spec.select.iter().map(|(n, _)| n.clone()).collect();
    if !opts.json {
        eprintln!("# meta query over {} snapshots ({} tuples)", snapshots.len(), tuples.len());
    }
    for w in &windows {
        print_window(w, &columns, opts);
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mut top = false;
    let mut recovered: Option<Options> = None;
    match argv.first().map(String::as_str) {
        Some("check") => run_check(&argv[1..]),
        Some("audit") => run_audit(&argv[1..]),
        Some("optimize") => run_optimize(&argv[1..]),
        Some("trace") => run_trace(&argv[1..]),
        Some("recover") => recovered = Some(recover_options(&argv[1..])),
        Some("run") => {
            argv.remove(0);
        }
        Some("top") => {
            argv.remove(0);
            top = true;
        }
        _ => {}
    }
    let opts = recovered.unwrap_or_else(|| parse_args(&argv, top));
    let query_text = opts.query.as_deref().expect("query checked in parse_args");

    let schema = Packet::schema();
    let config = PlannerConfig::standard();
    let parsed = match parse_query(query_text) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let spec = match stream_sampler::query::plan(&parsed, &schema, &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if opts.explain {
        print!("{}", explain(&spec));
        return;
    }

    // Resolve the fault plan before the feed so its feed-level events
    // can perturb the packets. A file wins over --fault-seed; a bare
    // --fault-seed generates the seeded plan (replayable: the same seed
    // and shard count always produce the same plan).
    let fault_plan: Option<std::sync::Arc<FaultPlan>> = match (&opts.fault_plan, opts.fault_seed) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            });
            match FaultPlan::parse(&text) {
                Ok(plan) => Some(plan.into_shared()),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        (None, Some(seed)) => Some(FaultPlan::from_seed(seed, opts.shards).into_shared()),
        (None, None) => None,
    };

    let packets = if let Some(path) = &opts.trace {
        match std::fs::File::open(path)
            .map_err(Into::into)
            .and_then(stream_sampler::netgen::read_trace)
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match opts.feed.as_str() {
            "research" => research_feed(opts.seed).take_seconds(opts.seconds),
            "datacenter" => datacenter_feed(opts.seed).take_seconds(opts.seconds),
            "burst" => burst_feed(opts.seed).take_seconds(opts.seconds),
            "ddos" => ddos_feed(opts.seed, opts.seconds / 3, 2 * opts.seconds / 3)
                .take_seconds(opts.seconds),
            other => {
                eprintln!("error: unknown feed `{other}` (research | datacenter | ddos | burst)");
                std::process::exit(1);
            }
        }
    };
    if let Some(path) = &opts.dump {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create {path}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = stream_sampler::netgen::write_trace(&packets, std::io::BufWriter::new(file))
        {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        if !opts.json {
            eprintln!("# wrote {} packets to {path}", packets.len());
        }
    }
    // Feed-level fault events (bursts, reordering, skew, malformed
    // tuples) rewrite the packet stream; the dump above stays clean so
    // a saved trace replays without the plan.
    let packets = match &fault_plan {
        Some(plan) => {
            if plan.has_worker_faults() && opts.shards <= 1 {
                eprintln!(
                    "warning: fault plan has worker events; they only fire with --shards > 1"
                );
            }
            if !opts.json {
                for ev in &plan.events {
                    eprintln!("# fault: {ev}");
                }
            }
            plan.perturb_packets(packets)
        }
        None => packets,
    };
    if !opts.json {
        eprintln!(
            "# feed={} seed={} seconds={} packets={}",
            opts.feed,
            opts.seed,
            opts.seconds,
            packets.len()
        );
    }

    // Gate on shard-mergeability first so the refusal renders as a
    // proper W102 diagnostic instead of a runtime error. Durable runs
    // go through the sharded runtime even at --shards 1, so they gate
    // too.
    if (opts.shards > 1 || opts.durable.is_some() || opts.profile.is_some())
        && stream_sampler::operator::shard_plan(&spec).is_err()
    {
        let diags = stream_sampler::query::check_shard_mergeable(query_text, &schema, &config);
        eprint!("{}", diag::render(query_text, "query", &diags));
        if opts.shards > 1 {
            eprintln!("error: --shards {} requires a shard-mergeable query", opts.shards);
        } else if opts.durable.is_some() {
            eprintln!("error: --durable requires a shard-mergeable query");
        } else {
            eprintln!(
                "error: --profile runs through the sharded runtime and requires a \
                 shard-mergeable query"
            );
        }
        std::process::exit(1);
    }

    // A fresh durable run records its configuration so `sso recover`
    // can rebuild the identical input stream. Written before execution:
    // the manifest must survive the crash it exists to recover from.
    if let (Some(dir), false) = (&opts.durable, opts.resume) {
        let path = std::path::Path::new(dir);
        let mut entries: Vec<(String, String)> = vec![
            ("query".into(), query_text.replace(['\n', '\r'], " ")),
            ("feed".into(), opts.feed.clone()),
            ("seed".into(), opts.seed.to_string()),
            ("seconds".into(), opts.seconds.to_string()),
            ("shards".into(), opts.shards.to_string()),
            ("fsync".into(), opts.fsync.clone()),
        ];
        if let Some(trace) = &opts.trace {
            entries.push(("trace".into(), trace.clone()));
        }
        if let Some(budget) = opts.state_budget {
            entries.push(("state_budget".into(), budget.to_string()));
        }
        let written = std::fs::create_dir_all(path)
            .and_then(|()| stream_sampler::store::write_manifest(path, &entries));
        if let Err(e) = written {
            eprintln!("error: cannot write {dir}/MANIFEST: {e}");
            std::process::exit(1);
        }
    }

    let wants_metrics = opts.metrics.is_some() || opts.meta.is_some() || opts.top;
    let registry = wants_metrics.then(Registry::new);
    // The profiler's dump target: an explicit `--profile=FILE` wins,
    // else triggered dumps land next to the durable store (when one
    // exists) or in the working directory.
    let profiler = opts.profile.as_ref().map(|target| {
        let dump_path = if target != "-" {
            std::path::PathBuf::from(target)
        } else if let Some(dir) = &opts.durable {
            std::path::Path::new(dir).join(stream_sampler::profile::DUMP_FILE)
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

    let result = if opts.top {
        let reg = registry.clone().expect("top always collects metrics");
        // The query runs on a background thread; the foreground redraws
        // the metrics table in place until it finishes.
        std::thread::scope(|s| {
            let opts = &opts;
            let parsed = &parsed;
            let packets = &packets;
            let att = Attachments {
                faults: fault_plan.as_ref(),
                registry: registry.as_ref(),
                profiler: profiler.as_ref(),
            };
            let prof = att.profiler;
            let snapshots = &mut snapshots;
            let handle =
                s.spawn(move || execute_query(opts, parsed, spec, packets, att, snapshots));
            while !handle.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(250));
                // \x1b[2J\x1b[H = clear screen + home.
                print!("\x1b[2J\x1b[H{}", render_top(&reg.snapshot(), prof));
                let _ = std::io::stdout().flush();
            }
            handle.join().expect("top worker panicked")
        })
    } else {
        execute_query(
            &opts,
            &parsed,
            spec,
            &packets,
            Attachments {
                faults: fault_plan.as_ref(),
                registry: registry.as_ref(),
                profiler: profiler.as_ref(),
            },
            &mut snapshots,
        )
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let mut total_rows = 0u64;
    if opts.top {
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
        if !opts.json {
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
            None if opts.profile.as_deref() != Some("-") => {
                // An explicit FILE target gets a dump even on a clean
                // run — that is how a chrome trace of a healthy run is
                // produced.
                if let Some(path) = p.dump_path() {
                    match p.write_dump(path, stream_sampler::profile::DumpReason::Manual) {
                        Ok(()) => eprintln!("# profile dump: sso trace {}", path.display()),
                        Err(e) => {
                            eprintln!("error: cannot write profile dump {}: {e}", path.display());
                            std::process::exit(1);
                        }
                    }
                }
            }
            None => {}
        }
    }
    if let Some(target) = &opts.metrics {
        write_metrics(target, &snapshots);
    }
    if let Some(meta_text) = &opts.meta {
        run_meta_query(meta_text, &snapshots, &opts);
    }
}

fn print_window(w: &WindowOutput, columns: &[String], opts: &Options) -> u64 {
    if opts.json {
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
    for row in w.rows.iter().take(opts.limit) {
        let cells: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
    if w.rows.len() > opts.limit {
        println!("... ({} more rows)", w.rows.len() - opts.limit);
    }
    w.rows.len() as u64
}

/// A document on one line: what every JSON output of the CLI prints.
fn line(doc: &serde_json::Value) -> String {
    serde_json::to_string(doc).expect("a Value always serializes")
}
