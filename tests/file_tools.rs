//! Golden outputs of the file tools: `sso optimize` (human and `--json`,
//! applied and `--explain`), `sso check` and `sso audit` (human and
//! `--json`), each with its stdout, stderr and exit code, on three
//! files:
//!
//! - `examples/queries.sql`, the paper's example corpus;
//! - `tests/golden/mq_shared.sql`, the benchmark's 16 simultaneous TCP
//!   queries in four share groups;
//! - `tests/golden/base_lints.sql`, base-stream statements only, which
//!   raise W103, W301–W304, a parse error and an analyzer error on a
//!   statement that shares a W103 prefilter.
//!
//! It also pins what `build_shared` returns for the `mq_shared` file:
//! the prefilter and the `explain` of every group's spec.
//!
//! On a mismatch the actual text is written next to the test binary's
//! scratch directory (`CARGO_TARGET_TMPDIR`) for a diff.

use stream_sampler::query::explain;
use stream_sampler::rewrite::{optimize_file, OptimizeOptions};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

const TOOLS: &[&[&str]] = &[
    &["optimize"],
    &["optimize", "--json"],
    &["optimize", "--explain"],
    &["optimize", "--explain", "--json"],
    &["check"],
    &["check", "--json"],
    &["audit"],
    &["audit", "--json"],
];

/// One command's record: the command line, exit code, stdout, stderr.
fn record(args: &[&str], path: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sso"))
        .args(args)
        .arg(path)
        .current_dir(ROOT)
        .output()
        .expect("run sso");
    format!(
        "$ sso {} {path}\nexit code: {:?}\nstdout:\n{}stderr:\n{}",
        args.join(" "),
        out.status.code(),
        String::from_utf8(out.stdout).expect("UTF-8 stdout"),
        String::from_utf8(out.stderr).expect("UTF-8 stderr"),
    )
}

fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual != golden {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&dump, actual).expect("write actual output");
        panic!("{name} differs from tests/golden/{name}; actual output in {}", dump.display());
    }
}

fn assert_tools_golden(path: &str, golden: &str, name: &str) {
    let actual: Vec<String> = TOOLS.iter().map(|args| record(args, path)).collect();
    assert_golden(&actual.join("\n"), golden, name);
}

#[test]
fn example_corpus_tool_outputs_are_pinned() {
    assert_tools_golden("examples/queries.sql", include_str!("golden/queries.out"), "queries.out");
}

#[test]
fn mq_shared_tool_outputs_are_pinned() {
    assert_tools_golden(
        "tests/golden/mq_shared.sql",
        include_str!("golden/mq_shared.out"),
        "mq_shared.out",
    );
}

#[test]
fn base_lint_tool_outputs_are_pinned() {
    assert_tools_golden(
        "tests/golden/base_lints.sql",
        include_str!("golden/base_lints.out"),
        "base_lints.out",
    );
}

/// The executable shared plan `build_shared` returns for the
/// `mq_shared` file: its stream, prefilter, and each group's consumers
/// and spec.
#[test]
fn mq_shared_build_is_pinned() {
    let outcome = optimize_file(include_str!("golden/mq_shared.sql"), &OptimizeOptions::default());
    let mut actual = String::new();
    for plan in outcome.build_shared().expect("certificate verifies") {
        actual.push_str(&format!("stream: {}\nprefilter: {:?}\n", plan.stream, plan.prefilter));
        for (spec, consumers) in &plan.groups {
            actual.push_str(&format!("group {}:\n{}", consumers.join(", "), explain(spec)));
        }
    }
    assert_golden(&actual, include_str!("golden/mq_shared_build.out"), "mq_shared_build.out");
}
