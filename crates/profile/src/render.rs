//! The human timeline of a dump (`sso trace DUMP`). Its Chrome
//! trace-event JSON (`sso trace DUMP --chrome out.json`) is built through
//! the vendored `serde_json` in the root package's `json` module.

use crate::collect::fmt_ns;
use crate::dump::Dump;
use crate::event::{Event, BATCH_NONE, SHARD_NONE, WINDOW_NONE};

fn ids(e: &Event) -> String {
    let mut s = String::new();
    if e.batch != BATCH_NONE {
        s.push_str(&format!(" b={}", e.batch));
    }
    if e.shard != SHARD_NONE {
        s.push_str(&format!(" s={}", e.shard));
    }
    if e.window != WINDOW_NONE {
        s.push_str(&format!(" w={}", e.window));
    }
    s
}

/// Render a dump as a time-sorted human timeline, most recent last.
/// `limit` keeps only the final N events (0 = all).
pub fn render_timeline(dump: &Dump, limit: usize) -> String {
    let mut rows: Vec<(u64, String)> = Vec::with_capacity(dump.event_count());
    for lane in &dump.lanes {
        let lname = lane.name();
        for e in &lane.events {
            let line = format!(
                "{:>14} {:<9} {:<12}{:<16} {:>10} aux={}",
                format!("+{}", fmt_ns(e.t_ns)),
                lname,
                e.stage.name(),
                ids(e),
                format!("[{}]", fmt_ns(e.dur_ns)),
                e.aux,
            );
            rows.push((e.t_ns, line));
        }
    }
    rows.sort_by_key(|(t, _)| *t);
    let skip = if limit > 0 && rows.len() > limit { rows.len() - limit } else { 0 };

    let mut out = format!(
        "flight recorder: reason={}, {} lanes, {} events ({} dropped to wrap-around)\n",
        dump.reason.as_str(),
        dump.lanes.len(),
        dump.event_count(),
        dump.dropped(),
    );
    if skip > 0 {
        out.push_str(&format!("  ... {skip} earlier events elided (--limit)\n"));
    }
    for (_, line) in rows.into_iter().skip(skip) {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::LaneDump;
    use crate::event::{Event, Stage};
    use crate::lane::LaneKind;
    use crate::profiler::DumpReason;

    fn dump() -> Dump {
        Dump {
            reason: DumpReason::Panic,
            lanes: vec![
                LaneDump {
                    kind: LaneKind::Router,
                    index: 0,
                    dropped: 1,
                    events: vec![Event::new(Stage::Route, 2_000, 500).shard(1).batch(4).aux(64)],
                },
                LaneDump {
                    kind: LaneKind::Worker,
                    index: 1,
                    dropped: 0,
                    events: vec![Event::new(Stage::Process, 3_000, 900)
                        .shard(1)
                        .window(0)
                        .batch(4)
                        .aux(64)],
                },
            ],
        }
    }

    #[test]
    fn timeline_is_time_sorted_and_labeled() {
        let text = render_timeline(&dump(), 0);
        assert!(text.starts_with("flight recorder: reason=panic, 2 lanes, 2 events (1 dropped"));
        let route = text.find("route").unwrap();
        let process = text.find("process").unwrap();
        assert!(route < process, "earlier event first");
        assert!(text.contains("worker/1"));
        assert!(text.contains("router/0"));
        assert!(text.contains("b=4 s=1 w=0"));
    }

    #[test]
    fn timeline_limit_keeps_tail() {
        let text = render_timeline(&dump(), 1);
        assert!(text.contains("1 earlier events elided"));
        assert!(!text.contains(" route "), "older event elided");
        assert!(text.contains("process"));
    }
}
