//! An idle sharded run costs (almost) no CPU: workers with nothing to
//! do park until a push or a close wakes them, instead of polling. Its
//! own test binary with one test, so no other test's threads share the
//! process CPU clock it reads.
#![cfg(target_os = "linux")]

use std::time::Duration;

use sso_core::{queries, shard_plan};
use sso_obs::Stopwatch;
use sso_runtime::{run_sharded, Refill, RuntimeConfig};
use sso_types::{Packet, Protocol, Tuple};

/// Clock ticks per second of `/proc/<pid>/stat`'s time fields: the
/// kernel's `USER_HZ`, fixed at 100 in its user-space ABI.
const USER_HZ: u64 = 100;

/// CPU time this process has used, user plus system, over all its
/// threads — the ones that have exited included.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..].split(' ').collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// A source that sleeps 2 ms before every tuple, with one-tuple
/// batches: each tuple the pump routes is a batch of its own for one
/// worker, and in between nobody has anything to do. Parked threads
/// cost nothing in between; threads that poll (yield, sleep, re-check)
/// burn CPU for the whole nap. The bound leaves room for the hand-offs
/// themselves, which cost tens of microseconds each in an unoptimised
/// build.
#[test]
fn a_waiting_run_parks_instead_of_polling() {
    const TUPLES: u64 = 500;
    const NAP: Duration = Duration::from_millis(2);
    let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
    let mut cfg = RuntimeConfig::new(2);
    cfg.batch_size = 1;
    let mut slept = Duration::ZERO;
    let mut i = 0u64;
    let source = Refill(|slot: &mut Tuple| {
        if i == TUPLES {
            return false;
        }
        let nap = Stopwatch::start();
        #[allow(clippy::disallowed_methods)] // the slow source under test
        std::thread::sleep(NAP);
        slept += nap.elapsed();
        *slot = Packet {
            uts: i * 1_000_000 + 1,
            src_ip: (i % 16) as u32,
            dest_ip: 9,
            src_port: 1000,
            dest_port: 80,
            proto: Protocol::Tcp,
            len: 100,
        }
        .to_tuple();
        i += 1;
        true
    });
    let before = process_cpu();
    let report = run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, source).unwrap();
    let cpu = process_cpu() - before;
    assert_eq!(report.tuples_processed(), TUPLES, "every tuple reached a worker");
    assert!(slept >= Duration::from_millis(500), "the source slept {slept:?}");
    assert!(
        cpu.as_secs_f64() <= 0.10 * slept.as_secs_f64(),
        "the run used {cpu:?} of CPU while its source slept {slept:?}: idle threads are polling"
    );
}
