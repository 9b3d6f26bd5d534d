//! **Multi-query sharing** — what the `sso-rewrite` optimizer buys on
//! the paper's §7.1 simultaneous-query workload.
//!
//! Sixteen near-identical registered queries tap one TCP stream: four
//! share groups of four byte-identical plans each, at prefilter
//! thresholds `len >= 100/110/120/130` (every one of which implies
//! `len >= 100`). Unshared execution runs all sixteen operators behind
//! the fan-out — sixteen one-consumer groups, no prefilter — the §7.2
//! worst case. Shared execution runs the plan the optimizer actually
//! emits — [`optimize_file`] over the query file, certificate verified
//! by [`OptimizeOutcome::build_shared`] — so the stream crosses one
//! hoisted prefilter and four deduplicated operators whose windows fan
//! out to their consumers.
//!
//! Both modes go through the same inline driver, timed best-of-reps
//! (alternating), and every consumer's `(window, rows)` output is
//! compared byte-for-byte: the rewrite must change work, never output.
//! The acceptance gate (`scripts/check.sh` over `BENCH_rewrite.json`)
//! is `identical` and shared never slower than unshared.

use std::time::Instant;

use sso_bench::{header, maybe_json};
use sso_core::SamplingOperator;
use sso_gigascope::{run_fanout_shared, FanoutReport, SelectionNode, SharedGroup, SharedQueryPlan};
use sso_netgen::research_feed;
use sso_query::{base_stream_schema, compile, PlannerConfig};
use sso_rewrite::{optimize_file, OptimizeOptions};
use sso_types::Packet;

const SEED: u64 = 0x5a3e;
const SECONDS: u64 = 20;
const GROUPS: usize = 4;
const COPIES: usize = 4;
const REPS: usize = 5;

fn query_text(threshold: u64) -> String {
    format!("SELECT tb, sum(len), count(*) FROM TCP WHERE len >= {threshold} GROUP BY time/5 as tb")
}

fn thresholds() -> Vec<u64> {
    (0..GROUPS).map(|g| 100 + 10 * g as u64).collect()
}

/// The sixteen `(name, text)` registered queries, group-major.
fn workload() -> Vec<(String, String)> {
    let mut qs = Vec::new();
    for t in thresholds() {
        for c in 0..COPIES {
            qs.push((format!("t{t}c{c}"), query_text(t)));
        }
    }
    qs
}

fn unshared_plan() -> SharedQueryPlan {
    let schema = base_stream_schema("TCP").expect("TCP schema");
    let config = PlannerConfig::standard();
    SharedQueryPlan::unshared(
        workload()
            .into_iter()
            .map(|(name, text)| (name, compile(&text, &schema, &config).expect("compile"))),
    )
}

/// Build the shared plan the optimizer emits for the workload file,
/// then rename its `qN` consumers to the workload's names (statement
/// order and workload order coincide).
fn shared_plan() -> SharedQueryPlan {
    let file: Vec<String> = workload().into_iter().map(|(_, text)| text).collect();
    let outcome = optimize_file(&file.join(";\n"), &OptimizeOptions::default());
    assert!(!outcome.certificate.is_empty(), "optimizer found no rewrites on the sharing workload");
    let plans = outcome.build_shared().expect("certificate verifies");
    let [plan] = &plans[..] else { panic!("expected one TCP cluster, got {}", plans.len()) };
    let names: Vec<String> = workload().into_iter().map(|(name, _)| name).collect();
    SharedQueryPlan {
        prefilter: plan.prefilter.clone(),
        groups: plan
            .groups
            .iter()
            .map(|(spec, consumers)| SharedGroup {
                op: SamplingOperator::new(spec.clone()).expect("instantiate"),
                consumers: consumers
                    .iter()
                    .map(|q| {
                        // `qN` is 1-based statement N == workload index N-1.
                        let n: usize = q[1..].parse().expect("consumer name");
                        names[n - 1].clone()
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Time one run of `plan`; plan construction is outside the interval.
fn run(plan: SharedQueryPlan, packets: &[Packet]) -> (FanoutReport, f64) {
    let start = Instant::now();
    let report =
        run_fanout_shared(Box::new(SelectionNode::pass_all()), plan, packets.iter().cloned())
            .expect("run");
    (report, start.elapsed().as_secs_f64())
}

/// Byte-identity per consumer: same windows, same rows, in order.
fn identical(unshared: &FanoutReport, shared: &FanoutReport) -> bool {
    workload().iter().all(|(name, _)| {
        let (Some(u), Some(s)) = (unshared.query(name), shared.query(name)) else {
            return false;
        };
        u.windows.len() == s.windows.len()
            && u.windows
                .iter()
                .zip(&s.windows)
                .all(|(wu, ws)| wu.window == ws.window && wu.rows == ws.rows)
    })
}

#[derive(serde::Serialize)]
struct Mode {
    elapsed_ms: f64,
    tuples_per_sec: f64,
}

#[derive(serde::Serialize)]
struct Report {
    queries: usize,
    share_groups: usize,
    packets: usize,
    unshared: Mode,
    shared: Mode,
    /// Unshared elapsed / shared elapsed; >= 1.0 means sharing won.
    speedup: f64,
    /// Every consumer's `(window, rows)` output matched byte-for-byte.
    identical: bool,
}

fn main() {
    let packets: Vec<Packet> = research_feed(SEED).take_seconds(SECONDS);

    let mut best_unshared = f64::INFINITY;
    let mut best_shared = f64::INFINITY;
    let mut all_identical = true;
    for _ in 0..REPS {
        let (u_report, u_secs) = run(unshared_plan(), &packets);
        let (s_report, s_secs) = run(shared_plan(), &packets);
        best_unshared = best_unshared.min(u_secs);
        best_shared = best_shared.min(s_secs);
        all_identical &= identical(&u_report, &s_report);
    }

    let n = packets.len() as f64;
    let report = Report {
        queries: GROUPS * COPIES,
        share_groups: GROUPS,
        packets: packets.len(),
        unshared: Mode { elapsed_ms: best_unshared * 1e3, tuples_per_sec: n / best_unshared },
        shared: Mode { elapsed_ms: best_shared * 1e3, tuples_per_sec: n / best_shared },
        speedup: best_unshared / best_shared,
        identical: all_identical,
    };
    if maybe_json(&report) {
        return;
    }
    header("multi-query sharing: 16 registered queries, shared vs unshared");
    println!(
        "  unshared: {:8.1} ms  ({:9.0} tuples/s)",
        report.unshared.elapsed_ms, report.unshared.tuples_per_sec
    );
    println!(
        "  shared:   {:8.1} ms  ({:9.0} tuples/s)  [prefilter + {} deduped ops]",
        report.shared.elapsed_ms, report.shared.tuples_per_sec, report.share_groups
    );
    println!("  speedup:  {:.2}x   output identical: {}", report.speedup, report.identical);
}
