//! # sso-bench
//!
//! The evaluation harness: one binary per figure of the paper's §7, plus
//! the in-text parameter sweeps and our own ablations. Each binary
//! prints the same rows/series the paper charts (and, with `--json`,
//! machine-readable output).
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2` | accuracy of summation: actual vs estimated (relaxed / non-relaxed) |
//! | `fig3` | samples collected per period, relaxed vs non-relaxed |
//! | `fig4` | cleaning phases per period, relaxed vs non-relaxed |
//! | `fig5` | CPU cost vs samples/period: operator (relaxed / non-relaxed) vs basic SS selection |
//! | `fig6` | low-level node choice: selection subquery vs basic-SS prefilter |
//! | `sweep_n` | §7.1 in-text: accuracy at N ∈ {100, 1000, 10000} |
//! | `sweep_gamma` | §7.2 in-text: CPU vs cleaning trigger γ |
//! | `sweep_relaxation` | ablation: relaxation factor f ∈ {1..20} |
//! | `transform_hh` | §8: heavy hitters aggregated at the low-level query vs in the operator |
//! | `overhead` | §7's cost-against-a-baseline for each runtime mechanism (faults, telemetry, tracing, durable store), the 1/2/4/8-shard curve and §7.1 multi-query sharing, one gate rule for all; `BENCH.json` |

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{OpError, SamplingOperator, WindowOutput};
use sso_types::{Packet, Tuple};

/// Per-window record of one subset-sum run (the quantities Figures 2–4
/// chart).
#[derive(Debug, Clone, serde::Serialize)]
pub struct SsWindow {
    /// Window id (time bucket).
    pub tb: u64,
    /// True byte volume of the window.
    pub actual: u64,
    /// Subset-sum estimate of the volume.
    pub estimate: f64,
    /// Final sample size.
    pub samples: usize,
    /// Tuples admitted during the window (Figure 3's metric).
    pub admissions: u64,
    /// Cleaning phases, including the final one (Figure 4's metric).
    pub cleanings: u64,
}

/// Build the paper's dynamic subset-sum query (§6.1) with stats columns.
pub fn subset_sum_operator(
    window_secs: u64,
    cfg: SubsetSumOpConfig,
) -> Result<SamplingOperator, OpError> {
    SamplingOperator::new(sso_core::queries::subset_sum_query(window_secs, cfg, true)?)
}

/// Run the dynamic subset-sum query over a packet trace and join each
/// window with the exact volume.
pub fn run_subset_sum(
    packets: &[Packet],
    window_secs: u64,
    cfg: SubsetSumOpConfig,
) -> Result<Vec<SsWindow>, OpError> {
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for p in packets {
        *truth.entry(p.time() / window_secs).or_default() += p.len as u64;
    }
    let mut op = subset_sum_operator(window_secs, cfg)?;
    let tuples: Vec<Tuple> = packets.iter().map(|p| p.to_tuple()).collect();
    let windows = op.run(tuples.iter())?;
    Ok(windows
        .iter()
        .map(|w| {
            let tb = w.window.get(0).as_u64().expect("tb");
            SsWindow {
                tb,
                actual: truth.get(&tb).copied().unwrap_or(0),
                estimate: w.rows.iter().map(|r| r.get(3).as_f64().expect("adj")).sum(),
                samples: w.rows.len(),
                admissions: row_stat(w, 5),
                cleanings: row_stat(w, 4),
            }
        })
        .collect())
}

fn row_stat(w: &WindowOutput, idx: usize) -> u64 {
    w.rows.first().map(|r| r.get(idx).as_u64().unwrap_or(0)).unwrap_or(0)
}

/// Measure an operator's per-tuple busy time over a tuple stream:
/// returns (busy, windows).
pub fn measure_operator(
    op: &mut SamplingOperator,
    tuples: &[Tuple],
) -> Result<(Duration, Vec<WindowOutput>), OpError> {
    let mut windows = Vec::new();
    let t0 = Instant::now();
    for t in tuples {
        if let Some(w) = op.process(t)? {
            windows.push(w);
        }
    }
    if let Some(w) = op.finish()? {
        windows.push(w);
    }
    Ok((t0.elapsed(), windows))
}

/// The stream's wall-clock span at line rate: last uts − first uts.
pub fn stream_span(packets: &[Packet]) -> Duration {
    match (packets.first(), packets.last()) {
        (Some(a), Some(b)) => Duration::from_nanos(b.uts - a.uts),
        _ => Duration::ZERO,
    }
}

/// Busy time as "% of a CPU" at line rate.
pub fn cpu_pct(busy: Duration, span: Duration) -> f64 {
    if span.is_zero() {
        0.0
    } else {
        100.0 * busy.as_secs_f64() / span.as_secs_f64()
    }
}

/// `true` if `--json` was passed on the command line.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Print a section header (suppressed in JSON mode).
pub fn header(title: &str) {
    if !json_mode() {
        println!("\n=== {title} ===");
    }
}

/// Emit a serializable result set as JSON if requested.
pub fn maybe_json<T: serde::Serialize>(value: &T) -> bool {
    if json_mode() {
        println!("{}", serde_json::to_string_pretty(value).expect("serialize"));
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_netgen::research_feed;

    #[test]
    fn run_subset_sum_produces_joined_series() {
        let packets = research_feed(1).take_seconds(10);
        let cfg = SubsetSumOpConfig { target: 100, initial_z: 1.0, ..Default::default() };
        let series = run_subset_sum(&packets, 5, cfg).unwrap();
        assert_eq!(series.len(), 2);
        for w in &series {
            assert!(w.actual > 0);
            assert!(w.estimate > 0.0);
            assert!(w.samples <= 110);
        }
    }

    #[test]
    fn stream_span_and_cpu_pct() {
        let packets = research_feed(2).take_seconds(2);
        let span = stream_span(&packets);
        assert!(span > Duration::from_secs(1) && span <= Duration::from_secs(2));
        assert!((cpu_pct(Duration::from_millis(100), Duration::from_secs(1)) - 10.0).abs() < 1e-9);
        assert_eq!(cpu_pct(Duration::from_secs(1), Duration::ZERO), 0.0);
    }

    #[test]
    fn measure_operator_counts_windows() {
        let packets = research_feed(3).take_seconds(4);
        let tuples: Vec<Tuple> = packets.iter().map(|p| p.to_tuple()).collect();
        let mut op = SamplingOperator::new(sso_core::queries::total_sum_query(2)).unwrap();
        let (busy, windows) = measure_operator(&mut op, &tuples).unwrap();
        assert!(busy > Duration::ZERO);
        assert_eq!(windows.len(), 2);
    }
}
