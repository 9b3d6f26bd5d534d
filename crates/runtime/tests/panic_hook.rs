//! Only a panic the runtime quarantines is quieted. This is its own test
//! binary so that its recording hook is the first panic hook the process
//! installs: the runtime's supervision hook chains to it.
//!
//! The scenario: shard 1 panics on an injected fault mid-window 0 and is
//! quarantined; at the next window boundary its respawn calls the spec
//! factory again, which panics outside any supervised stretch. That
//! panic ends the run as `RuntimeError::WorkerPanic`, and it must reach
//! the hook that was installed before the run. The quarantined one must
//! not.

use std::sync::{Arc, Mutex};

use sso_core::{queries, shard_plan};
use sso_faults::{FaultEvent, FaultPlan};
use sso_runtime::{run_sharded, RuntimeConfig, RuntimeError};
use sso_sync::{Ordering, SyncUsize};
use sso_types::{Packet, Protocol, Tuple};

fn stream(n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Packet {
                uts: i * 1_000_000_000 / 600 + 1,
                src_ip: (i % 4) as u32,
                dest_ip: 9,
                src_port: 1000,
                dest_port: 80,
                proto: Protocol::Tcp,
                len: 100,
            }
            .to_tuple()
        })
        .collect()
}

#[test]
fn a_panic_that_escapes_supervision_reaches_the_previous_hook() {
    let seen: Arc<Mutex<Vec<String>>> = Arc::default();
    let record = Arc::clone(&seen);
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        record.lock().unwrap().push(msg);
    }));

    let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
    let mut fault = FaultPlan::empty(7);
    fault.events.push(FaultEvent::WorkerPanic { shard: 1, at_tuple: 150 });
    let cfg = RuntimeConfig::new(2).with_faults(fault.into_shared());
    let shard1_builds = SyncUsize::new(0);
    let make = |shard: usize| {
        if shard == 1 && shard1_builds.fetch_add(1, Ordering::Relaxed) > 0 {
            panic!("respawn refused for shard 1");
        }
        Ok(queries::total_sum_query(1))
    };
    let err = run_sharded(&plan, make, &cfg, stream(1800)).unwrap_err();
    assert!(matches!(err, RuntimeError::WorkerPanic { shard: 1, .. }), "{err}");

    let _ = std::panic::take_hook();
    let seen = seen.lock().unwrap();
    assert!(
        seen.iter().any(|m| m.contains("respawn refused")),
        "the escaped panic must reach the previous hook: {seen:?}"
    );
    assert!(
        !seen.iter().any(|m| m.contains("injected fault")),
        "the quarantined panic must stay quiet: {seen:?}"
    );
}
