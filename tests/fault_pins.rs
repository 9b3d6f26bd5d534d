//! Pinned loss accounting of `sso run --shards 2` under three fault
//! plans on the research feed: a shard panic mid-window, a shard trip
//! on the first tuple of a window, and a router panic. For each plan
//! the golden file `tests/golden/fault_windows.out` holds the plan, the
//! `--json` window records one line per window (`coverage` and
//! `degraded` included) and the run-level `# DEGRADED` line of the
//! human run's stderr, so a change shows which window moved.
//!
//! On a mismatch the actual text is written to the test binary's
//! scratch directory (`CARGO_TARGET_TMPDIR`) for a diff.

use std::process::{Command, Output};

const QUERY: &str = "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb";

/// Shard 0 sees 5 035 tuples of window 0, so its tuple 3 000 falls
/// mid-window and its tuple 5 036 is the first of window 1.
const PLANS: &[&str] =
    &["panic shard=0 at=3000", "panic shard=0 at=5036", "panic router=0 at=3000"];

fn sso(plan_file: &std::path::Path, json: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sso"));
    cmd.args(["run", "--shards", "2", "--feed", "research", "--seconds", "5"])
        .arg("--fault-plan")
        .arg(plan_file);
    if json {
        cmd.arg("--json");
    }
    let out = cmd.arg(QUERY).output().expect("run sso");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    out
}

#[test]
fn faulted_window_records_are_pinned() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut actual = String::new();
    for (i, plan) in PLANS.iter().enumerate() {
        let plan_file = dir.join(format!("fault-pin-{i}-{}.fault", std::process::id()));
        std::fs::write(&plan_file, format!("{plan}\n")).expect("write plan file");
        actual.push_str(&format!("# plan: {plan}\n"));
        actual.push_str(&String::from_utf8(sso(&plan_file, true).stdout).expect("UTF-8 stdout"));
        let stderr = String::from_utf8(sso(&plan_file, false).stderr).expect("UTF-8 stderr");
        for line in stderr.lines().filter(|l| l.starts_with("# DEGRADED")) {
            actual.push_str(line);
            actual.push('\n');
        }
        let _ = std::fs::remove_file(&plan_file);
    }
    let golden = include_str!("golden/fault_windows.out");
    if actual != golden {
        let dump = dir.join("fault_windows.out");
        std::fs::write(&dump, &actual).expect("write actual output");
        panic!("fault_windows.out differs from tests/golden; actual output in {}", dump.display());
    }
}
