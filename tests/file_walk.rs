//! The file tools read one statement walk (`sso_analysis::walk_cascade`):
//!
//! - `sso optimize` reports the walk's diagnostics for cascade
//!   statements too, exactly as `sso check` does;
//! - `build_shared` resolves the walk's kept queries afresh on every
//!   call, so each built plan owns its libraries and two builds run to
//!   the same windows.

use stream_sampler::gigascope::{run_fanout_shared, SelectionNode, SharedGroup, SharedQueryPlan};
use stream_sampler::netgen::research_feed;
use stream_sampler::prelude::*;
use stream_sampler::query::Code;
use stream_sampler::rewrite::{check_file, optimize_file, OptimizeOptions};

/// A two-level cascade whose high level names an unknown column.
const CASCADE: &str = "\
SELECT tb, srcIP, sum(len) as bytes FROM PKT GROUP BY time/1 as tb, srcIP;
SELECT tb2, sum(nosuchcol) FROM S GROUP BY tb/60 as tb2";

#[test]
fn optimize_file_reports_cascade_errors() {
    let check = check_file(CASCADE);
    let outcome = optimize_file(CASCADE, &OptimizeOptions::default());
    let e002 = |diags: &[stream_sampler::query::Diagnostic]| {
        diags.iter().filter(|d| d.code == Code::E002).map(|d| d.span).collect::<Vec<_>>()
    };
    assert_eq!(e002(&check).len(), 1, "{check:?}");
    assert_eq!(e002(&outcome.diagnostics), e002(&check), "{:?}", outcome.diagnostics);
    assert_eq!(outcome.skipped, [1]);
    assert!(!outcome.reaudit.ok);
}

#[test]
fn optimize_cli_reports_cascade_errors() {
    let dir = std::env::temp_dir().join(format!("sso-file-walk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("cascade.sql"), CASCADE).unwrap();
    let sso = |command: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sso"))
            .args([command, "cascade.sql"])
            .current_dir(&dir)
            .output()
            .expect("run sso");
        (out.status.code(), String::from_utf8(out.stdout).expect("UTF-8"))
    };
    let (check_code, check_out) = sso("check");
    let (optimize_code, optimize_out) = sso("optimize");
    let _ = std::fs::remove_dir_all(&dir);

    let (diagnostics, summary) = check_out.split_once("\n\n").expect("a diagnostic block");
    assert!(diagnostics.starts_with("error[E002]"), "{check_out}");
    assert!(diagnostics.contains("--> cascade.sql:2:17"), "{check_out}");
    assert_eq!(summary, "cascade.sql: 1 error(s), 0 warning(s)\n");
    assert_eq!(check_code, Some(1));
    assert!(optimize_out.starts_with(&format!("{diagnostics}\n\n")), "{optimize_out}");
    assert!(optimize_out.contains("re-audit: FAILED (1 statement, "), "{optimize_out}");
    assert_eq!(optimize_code, Some(1));
}

/// Two copies of the example corpus's reservoir statement, with one
/// second windows: one share group, one reservoir library per build.
#[test]
fn each_build_gets_fresh_libraries() {
    let statement = "SELECT tb, srcIP, destIP FROM TCP WHERE rsample(25) = TRUE \
                     GROUP BY time/1 as tb, srcIP, destIP \
                     HAVING rsfinal_clean(count_distinct$(*)) = TRUE \
                     CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE \
                     CLEANING BY rsclean_with() = TRUE";
    let outcome = optimize_file(&format!("{statement};\n{statement}"), &OptimizeOptions::default());
    let packets = research_feed(7).take_seconds(3);
    let run = || {
        let [plan] = &outcome.build_shared().expect("certificate verifies")[..] else {
            panic!("expected one TCP cluster")
        };
        let [(spec, consumers)] = &plan.groups[..] else { panic!("expected one share group") };
        assert_eq!(consumers, &["q1", "q2"]);
        let group = SharedGroup {
            op: SamplingOperator::new(spec.clone()).expect("instantiate"),
            consumers: consumers.clone(),
        };
        let plan = SharedQueryPlan { prefilter: plan.prefilter.clone(), groups: vec![group] };
        let report = run_fanout_shared(Box::new(SelectionNode::pass_all()), plan, packets.clone())
            .expect("shared run");
        let windows = &report.query("q1").expect("consumer q1").windows;
        assert!(windows.iter().any(|w| !w.rows.is_empty()), "the reservoir sampled nothing");
        format!("{windows:?}")
    };
    assert_eq!(run(), run());
}
