//! The sharded runtime streams: it holds a bounded slice of its source,
//! never the whole of it, and what it holds it holds in buffers it
//! reuses.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use sso_core::{queries, shard_plan, Expr};
use sso_faults::{FaultEvent, FaultPlan};
use sso_obs::Registry;
use sso_runtime::{run_sharded, RuntimeConfig, RuntimeError};
use sso_sync::{Ordering, SyncUsize};
use sso_types::{Packet, Protocol, Tuple, Value};

/// An endless feed: 1000 tuples to the second, sixteen sources.
fn endless() -> impl Iterator<Item = Tuple> {
    (0u64..).map(|i| {
        Packet {
            uts: i * 1_000_000 + 1,
            src_ip: (i % 16) as u32,
            dest_ip: 9,
            src_port: 1000,
            dest_port: 80,
            proto: Protocol::Tcp,
            len: 100 + (i % 7) as u32 * 100,
        }
        .to_tuple()
    })
}

fn sum_of(registry: &Registry, name: &str) -> u64 {
    registry.snapshot().metrics.iter().filter(|m| m.name == name).map(|m| m.scalar()).sum::<f64>()
        as u64
}

/// A source with no end cannot be collected first. The crash trigger is
/// a global stream position; the run must get there and die there.
#[test]
fn endless_source_runs_until_the_crash_trigger() {
    let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
    let at_tuple = 50_000;
    let mut fault = FaultPlan::empty(7);
    fault.events.push(FaultEvent::Crash { at_tuple });
    let mut cfg = RuntimeConfig::new(2).with_faults(fault.into_shared());
    cfg.batch_size = 64;
    let err = run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, endless())
        .expect_err("the injected crash ends the run");
    assert_eq!(err, RuntimeError::Crashed { at_tuple });
}

/// An operator error ends the run even when the source never does: the
/// dead worker's closed ring stops the pump.
#[test]
fn endless_source_stops_at_an_operator_error() {
    let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
    let make = |shard: usize| {
        let mut spec = queries::total_sum_query(1);
        if shard == 1 {
            spec.where_clause = Some(Expr::Scalar {
                name: "BOOM",
                fun: Arc::new(|_: &[Value]| Err("shard fault".to_string())),
                args: vec![],
            });
        }
        Ok(spec)
    };
    let mut cfg = RuntimeConfig::new(3);
    cfg.batch_size = 16;
    let err = run_sharded(&plan, make, &cfg, endless()).unwrap_err();
    assert!(matches!(err, RuntimeError::Op { shard: 1, .. }), "{err}");
}

/// A panic that escapes supervision ends the run the same way, and is
/// reported for the shard whose thread it killed: the last shard panics
/// mid-window, and its respawn at the next window boundary panics in
/// the spec factory, outside any `catch_unwind`.
#[test]
fn endless_source_stops_at_an_escaped_panic_on_the_last_shard() {
    let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
    let mut fault = FaultPlan::empty(7);
    fault.events.push(FaultEvent::WorkerPanic { shard: 2, at_tuple: 150 });
    let mut cfg = RuntimeConfig::new(3).with_faults(fault.into_shared());
    cfg.batch_size = 16;
    let shard2_builds = SyncUsize::new(0);
    let make = |shard: usize| {
        if shard == 2 && shard2_builds.fetch_add(1, Ordering::Relaxed) > 0 {
            panic!("respawn refused for shard 2");
        }
        Ok(queries::total_sum_query(1))
    };
    match run_sharded(&plan, make, &cfg, endless()).unwrap_err() {
        RuntimeError::WorkerPanic { shard: 2, message } => {
            assert!(message.contains("respawn refused"), "{message}");
        }
        other => panic!("expected WorkerPanic on shard 2, got {other}"),
    }
}

/// The pump never runs further ahead of the workers than the configured
/// rings allow, however slow the workers and however long the stream.
#[test]
#[allow(clippy::disallowed_methods)] // the sleep simulates a slow shard
fn the_source_is_pulled_no_further_ahead_than_the_look_ahead_bound() {
    let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
    let registry = Registry::disabled();
    let mut cfg = RuntimeConfig::new(2).with_registry(registry.clone());
    cfg.batch_size = 8;
    cfg.ring_capacity = 2;
    let bound = cfg.max_look_ahead() as u64;
    let total = 20 * bound;
    // Workers far slower than the pump: unbounded look-ahead would have
    // the whole stream pulled before the first window closed.
    let make = |_| {
        let mut spec = queries::total_sum_query(1);
        spec.where_clause = Some(Expr::Scalar {
            name: "SLOW",
            fun: Arc::new(|_: &[Value]| {
                std::thread::sleep(Duration::from_micros(20));
                Ok(Value::Bool(true))
            }),
            args: vec![],
        });
        Ok(spec)
    };
    let pulls = Rc::new(Cell::new(0u64));
    let worst = Rc::new(Cell::new(0u64));
    let source = {
        let (pulls, worst, registry) = (pulls.clone(), worst.clone(), registry.clone());
        endless().take(total as usize).inspect(move |_| {
            pulls.set(pulls.get() + 1);
            // The processed count only grows, so reading it after the
            // pull over-states the distance: a sound check. It trails the
            // pull by the chunk, the rings and the batches in hand.
            if pulls.get() % 16 == 0 {
                let ahead = pulls.get() - sum_of(&registry, "rt.tuples");
                worst.set(worst.get().max(ahead));
            }
        })
    };
    let report = run_sharded(&plan, make, &cfg, source).unwrap();
    assert_eq!(pulls.get(), total);
    assert_eq!(report.shards.iter().map(|s| s.tuples()).sum::<u64>(), total);
    assert!(worst.get() <= bound, "ran {} tuples ahead, bound {bound}", worst.get());
    assert!(worst.get() > 0 && bound * 10 < total, "the bound was exercised");
}

/// Buffers are allocated when no recycled one is at hand — at start-up.
/// A ten times longer stream allocates not one more.
#[test]
fn fresh_buffers_do_not_grow_with_the_stream() {
    let plan = shard_plan(&queries::heavy_hitters_query(1, 1 << 20, None).unwrap()).unwrap();
    let fresh_after = |tuples: usize| {
        let registry = Registry::disabled();
        let mut cfg = RuntimeConfig::new(3).with_registry(registry.clone());
        cfg.batch_size = 16;
        cfg.ring_capacity = 4;
        let report = run_sharded(
            &plan,
            |_| queries::heavy_hitters_query(1, 1 << 20, None),
            &cfg,
            endless().take(tuples),
        )
        .unwrap();
        assert_eq!(report.shards.iter().map(|s| s.tuples()).sum::<u64>(), tuples as u64);
        sum_of(&registry, "rt.tuple_buffers_fresh")
    };
    let short = fresh_after(20_000);
    assert!(short > 0);
    assert_eq!(short, fresh_after(200_000));
}
