//! Operator instrumentation: the bundle of registry handles a
//! [`SamplingOperator`](crate::SamplingOperator) writes to.
//!
//! Per-tuple counters are *not* updated per tuple — they stay in the
//! operator's existing [`WindowStats`](crate::WindowStats) accumulator
//! and are flushed here once per window close, so instrumentation adds
//! no per-tuple atomics beyond the (sampled) phase spans. The sampling
//! telemetry probed from SFUN states feeds the under-sampling detector,
//! implementing the paper's bursty-load diagnosis (§6.5 / Figure 2).

use sso_obs::{Counter, Gauge, Registry, SampledSpan, UndersampleConfig, UndersampleDetector};

use crate::operator::WindowStats;
use crate::sfun::SfunTelemetry;

/// Sample 1 in `2^PROCESS_SHIFT` tuple-phase spans; window-close and
/// cleaning spans are rare and recorded unsampled.
const PROCESS_SHIFT: u32 = 6;

/// Registry handles for one operator instance.
#[derive(Debug, Clone)]
pub struct OperatorMetrics {
    tuples: Counter,
    admitted: Counter,
    windows: Counter,
    output_rows: Counter,
    groups_created: Counter,
    cleaning_phases: Counter,
    evictions: Counter,
    groups: Gauge,
    groups_peak: Gauge,
    threshold_z: Gauge,
    pub(crate) process_span: SampledSpan,
    pub(crate) clean_span: SampledSpan,
    pub(crate) window_span: SampledSpan,
    pub(crate) finalize_span: SampledSpan,
    detector: UndersampleDetector,
}

impl OperatorMetrics {
    /// Register one operator's metrics under `label` (e.g. `shard=3`;
    /// empty for a single-threaded run).
    pub fn register(registry: &Registry, label: impl Into<String>) -> Self {
        let label: String = label.into();
        OperatorMetrics {
            tuples: registry.counter_labeled("op.tuples", label.clone()),
            admitted: registry.counter_labeled("op.admitted", label.clone()),
            windows: registry.counter_labeled("op.windows", label.clone()),
            output_rows: registry.counter_labeled("op.output_rows", label.clone()),
            groups_created: registry.counter_labeled("op.groups_created", label.clone()),
            cleaning_phases: registry.counter_labeled("op.cleaning_phases", label.clone()),
            evictions: registry.counter_labeled("op.evictions", label.clone()),
            groups: registry.gauge_labeled("op.groups", label.clone()),
            groups_peak: registry.gauge_labeled("op.groups_peak", label.clone()),
            threshold_z: registry.gauge_labeled("op.threshold_z", label.clone()),
            process_span: SampledSpan::register(
                registry,
                "op.process_ns",
                "op.busy_ns",
                label.clone(),
                PROCESS_SHIFT,
            ),
            clean_span: SampledSpan::register(
                registry,
                "op.clean_ns",
                "op.clean_busy_ns",
                label.clone(),
                0,
            ),
            window_span: SampledSpan::register(
                registry,
                "op.window_close_ns",
                "op.window_close_busy_ns",
                label.clone(),
                0,
            ),
            // The end-of-stream force-close is a distinct span from the
            // regular window close: it is where merge-finalize waits on
            // every shard, so its latency lands on the critical path of
            // the whole run rather than overlapping the stream.
            finalize_span: SampledSpan::register(
                registry,
                "op.finalize_ns",
                "op.finalize_busy_ns",
                label.clone(),
                0,
            ),
            detector: UndersampleDetector::register(registry, label, UndersampleConfig::default()),
        }
    }

    /// Flush one closed window's counters and sampling telemetry:
    /// `groups` are the groups live at the close (after the last
    /// cleaning phase), `groups_peak` the most that were live at once
    /// during the window — the number the audit's ceiling bounds.
    /// Returns whether the under-sampling detector fired.
    pub fn on_window(
        &self,
        w: &WindowStats,
        groups: u64,
        groups_peak: u64,
        telem: Option<&SfunTelemetry>,
    ) -> bool {
        self.windows.inc();
        self.tuples.add(w.tuples);
        self.admitted.add(w.admitted);
        self.output_rows.add(w.output_rows);
        self.groups_created.add(w.groups_created);
        self.cleaning_phases.add(w.cleaning_phases);
        self.evictions.add(w.evictions);
        self.groups.set(groups as f64);
        self.groups_peak.set(groups_peak as f64);
        match telem {
            Some(t) => {
                self.threshold_z.set(t.threshold);
                self.detector.observe(t.achieved, t.target, t.offered)
            }
            None => false,
        }
    }

    /// Windows the under-sampling detector has flagged (this operator).
    pub fn undersampled_windows(&self) -> u64 {
        self.detector.fired_windows()
    }
}
