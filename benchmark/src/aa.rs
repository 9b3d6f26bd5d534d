//! The A/A self-check: two sets of untraced runs of the same build must
//! agree within the benchmark's own bounds.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::contract::{Better, END_TO_END};
use crate::stats::Summary;
use crate::workloads::ALL;

/// Parse the `name unit value q1 q3 n mad` lines a run prints (`#`
/// lines and the final JSON line are skipped).
pub fn parse_lines(text: &str) -> BTreeMap<String, Summary> {
    text.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            let [name, _unit, value, q1, q3, n, mad] = fields[..] else { return None };
            let summary = Summary {
                value: value.parse().ok()?,
                q1: q1.parse().ok()?,
                q3: q3.parse().ok()?,
                n: n.parse().ok()?,
                mad: mad.parse().ok()?,
            };
            Some((name.to_string(), summary))
        })
        .collect()
}

/// By how much of `a` the second value is *worse* than the first
/// (negative when it is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Findings for one workload's pair of runs; empty when they agree:
/// the two medians of every end-to-end metric within the metric's bound
/// of each other, and the spread of each run's repetitions (twice the
/// MAD as a share of the median, see [`Summary::relative_spread`])
/// within that same bound — the rule the contract's driver applies to
/// the spread of ten runs.
pub fn compare(a: &BTreeMap<String, Summary>, b: &BTreeMap<String, Summary>) -> Vec<String> {
    let mut findings = Vec::new();
    for m in &END_TO_END {
        let (Some(x), Some(y)) = (a.get(m.name), b.get(m.name)) else {
            findings.push(format!("{} missing from a run", m.name));
            continue;
        };
        let worse = worsening(m.better, x.value, y.value).abs();
        if worse > m.bound {
            findings.push(format!(
                "{}: medians {} and {} differ by {:.1}%, bound {:.0}%",
                m.name,
                x.value,
                y.value,
                100.0 * worse,
                100.0 * m.bound
            ));
        }
        // setup_s is a sub-second time over five set-ups; its spread is
        // covered by its bound, as in the driver's own check.
        if m.name != "setup_s" {
            for (run, s) in [("first", x), ("second", y)] {
                if s.relative_spread() > m.bound {
                    findings.push(format!(
                        "{}: 2*MAD/median {:.1}% over the {run} run's repetitions, bound {:.0}%",
                        m.name,
                        100.0 * s.relative_spread(),
                        100.0 * m.bound
                    ));
                }
            }
        }
    }
    findings
}

/// Compare `<dir>/<workload>.trace0.txt` of two directories for every
/// workload either directory has a run of; prints a verdict per
/// workload, returns whether all agree (and at least one was compared).
pub fn check(dir_a: &Path, dir_b: &Path) -> bool {
    let mut compared = 0;
    let mut ok = true;
    for w in ALL {
        let file = format!("{}.trace0.txt", w.name());
        if !dir_a.join(&file).exists() && !dir_b.join(&file).exists() {
            continue;
        }
        compared += 1;
        let read = |dir: &Path| {
            let path = dir.join(&file);
            fs::read_to_string(&path).map(|t| parse_lines(&t)).map_err(|e| format!("{path:?}: {e}"))
        };
        let findings = match (read(dir_a), read(dir_b)) {
            (Ok(a), Ok(b)) => compare(&a, &b),
            (Err(e), _) | (_, Err(e)) => vec![e],
        };
        if findings.is_empty() {
            println!("aa {}: ok", w.name());
        } else {
            ok = false;
            for f in findings {
                println!("aa {}: FAIL {f}", w.name());
            }
        }
    }
    if compared == 0 {
        println!("aa: no <workload>.trace0.txt in {dir_a:?} or {dir_b:?}");
    }
    ok && compared > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "# workload=ss_inline seed=1\n\
                       setup_s s 0.25 0.24 0.26 5 0.01\n\
                       tuples_per_s tuples/s 3600000 3590000 3610000 9 9000\n\
                       cpu_ns_per_tuple ns 280 279 281 9 1\n\
                       window_lag_p50_ms ms 550 548 552 9 2\n\
                       window_lag_p95_ms ms 1040 1030 1050 9 9\n\
                       peak_rss_mb MiB 300 300 300 1 0\n\
                       {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}\n";

    #[test]
    fn parses_metric_lines_only() {
        let parsed = parse_lines(RUN);
        assert_eq!(parsed.len(), 6);
        let expected = Summary { value: 3.6e6, q1: 3.59e6, q3: 3.61e6, n: 9, mad: 9000.0 };
        assert_eq!(parsed["tuples_per_s"], expected);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn identical_runs_agree_and_drift_is_found() {
        let a = parse_lines(RUN);
        assert!(compare(&a, &a).is_empty());
        let mut slow = a.clone();
        slow.get_mut("tuples_per_s").expect("metric").value = 2.5e6;
        let findings = compare(&a, &slow);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("tuples_per_s: medians"));
        let mut noisy = a.clone();
        noisy.get_mut("cpu_ns_per_tuple").expect("metric").mad = 40.0;
        assert!(compare(&a, &noisy)[0].contains("2*MAD/median 28.6%"));
        let mut missing = a.clone();
        missing.remove("peak_rss_mb");
        assert_eq!(compare(&a, &missing), vec!["peak_rss_mb missing from a run".to_string()]);
    }
}
