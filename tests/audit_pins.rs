//! Pins of the audit's bounds and of `shard_plan`'s verdicts.
//!
//! - The digest of `sso audit --json` (the bounds report and every
//!   diagnostic) plus its exit code, for four files under each feed
//!   envelope at `--shards` 1 and 4: `examples/queries.sql`,
//!   `tests/golden/mq_shared.sql`, `tests/golden/base_lints.sql` and
//!   `tests/golden/cascade_sampled.sql` (two cascades whose high level
//!   samples: subset-sum, then reservoir).
//! - `shard_plan`'s partition key and merge rule, or its refusal
//!   reason, for every `EXAMPLE_QUERIES` statement and every statement
//!   of `tests/golden/mq_shared.sql`.
//!
//! A mismatch prints every actual line, ready to compare.

use stream_sampler::analysis::split_statements;
use stream_sampler::operator::queries::EXAMPLE_QUERIES;
use stream_sampler::prelude::*;
use stream_sampler::query::plan;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

const FILES: [&str; 4] = [
    "examples/queries.sql",
    "tests/golden/mq_shared.sql",
    "tests/golden/base_lints.sql",
    "tests/golden/cascade_sampled.sql",
];

const FEEDS: [&str; 4] = ["research", "datacenter", "burst", "ddos"];

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `file feed shards: exit code, digest of stdout`, one line per run.
const AUDIT_DIGESTS: &str = "\
examples/queries.sql research 1: exit Some(0), 21d71521a01f9b84
examples/queries.sql research 4: exit Some(0), f11b46c2a4a97a70
examples/queries.sql datacenter 1: exit Some(0), 6371b93c3a0ba7f4
examples/queries.sql datacenter 4: exit Some(0), ff3709e4563e8716
examples/queries.sql burst 1: exit Some(0), 7929d0a07a69651c
examples/queries.sql burst 4: exit Some(0), 708a4bd913b836fa
examples/queries.sql ddos 1: exit Some(0), 9b78584b233ad2d2
examples/queries.sql ddos 4: exit Some(0), fe6bdde0d93ebf0a
tests/golden/mq_shared.sql research 1: exit Some(0), 7419afa5b98390e9
tests/golden/mq_shared.sql research 4: exit Some(0), 05838b18044aa5c5
tests/golden/mq_shared.sql datacenter 1: exit Some(0), 5985e95d8e8d339b
tests/golden/mq_shared.sql datacenter 4: exit Some(0), eddfadd085fc9137
tests/golden/mq_shared.sql burst 1: exit Some(0), 62ad9fd159c1319a
tests/golden/mq_shared.sql burst 4: exit Some(0), 011e00cb1c475824
tests/golden/mq_shared.sql ddos 1: exit Some(0), 265c45b14d0827e6
tests/golden/mq_shared.sql ddos 4: exit Some(0), dbdd1c69658a92ba
tests/golden/base_lints.sql research 1: exit Some(1), 1cbf90d17b2348f0
tests/golden/base_lints.sql research 4: exit Some(1), 8de50fd00cf32508
tests/golden/base_lints.sql datacenter 1: exit Some(1), 284d9d8608c0524e
tests/golden/base_lints.sql datacenter 4: exit Some(1), 9ec6095cb1253df6
tests/golden/base_lints.sql burst 1: exit Some(1), 5feb5a676d85a1c9
tests/golden/base_lints.sql burst 4: exit Some(1), 8fea2659fe2dcb6b
tests/golden/base_lints.sql ddos 1: exit Some(1), c265fc66586d99c7
tests/golden/base_lints.sql ddos 4: exit Some(1), 0b9611fe821f6f37
tests/golden/cascade_sampled.sql research 1: exit Some(0), 3a9b4edbeb8d11e4
tests/golden/cascade_sampled.sql research 4: exit Some(0), 045e2cac22dc2e26
tests/golden/cascade_sampled.sql datacenter 1: exit Some(0), 4c46c472d48b9e4d
tests/golden/cascade_sampled.sql datacenter 4: exit Some(0), fe2826971b2fa00d
tests/golden/cascade_sampled.sql burst 1: exit Some(0), ed377795c315e064
tests/golden/cascade_sampled.sql burst 4: exit Some(0), d9aeaa43912f58d4
tests/golden/cascade_sampled.sql ddos 1: exit Some(0), d647f417d3e5c6b5
tests/golden/cascade_sampled.sql ddos 4: exit Some(0), 59f3cc5c08992a05
";

#[test]
fn audit_json_digests_are_pinned() {
    let mut actual = String::new();
    for file in FILES {
        for feed in FEEDS {
            for shards in ["1", "4"] {
                let out = std::process::Command::new(env!("CARGO_BIN_EXE_sso"))
                    .args(["audit", "--json", "--feed", feed, "--shards", shards, file])
                    .current_dir(ROOT)
                    .output()
                    .expect("run sso audit");
                assert!(out.stderr.is_empty(), "{file} {feed} {shards}: stderr {:?}", out.stderr);
                actual += &format!(
                    "{file} {feed} {shards}: exit {:?}, {:016x}\n",
                    out.status.code(),
                    fnv(&out.stdout)
                );
            }
        }
    }
    assert!(actual == AUDIT_DIGESTS, "audit digests changed; actual:\n{actual}");
}

/// What `shard_plan` makes of one planned statement.
fn verdict(text: &str) -> String {
    let query = parse_query(text).expect("statement parses");
    let schema = base_stream_schema(&query.from.text).expect("base stream");
    let spec = plan(&query, &schema, &PlannerConfig::standard()).expect("statement plans");
    match shard_plan(&spec) {
        Ok(p) => format!("partition {:?}, {:?}", p.partition_exprs, p.rule),
        Err(e) => format!("refused: {}", e.reason),
    }
}

const EXAMPLE_VERDICTS: &str = "\
total_sum_query: partition [], Combine([Key, Sum, Sum])
subset_sum_query: partition [Column(2), Column(3), Column(1)], SubsetSum { weight_col: 3, target: 100 }
basic_subset_sum_query: partition [Column(2), Column(3), Column(1)], Concat
heavy_hitters_query: partition [Column(2)], Combine([Key, Key, Sum, Sum])
minhash_query: partition [Column(2)], KmvTruncate { key_cols: [1], hash_col: 2, k: 10 }
distinct_sample_query: refused: distinct sampling keeps one global hash level per window; per-shard levels diverge and the union over-represents low-level shards
reservoir_query: partition [Column(2), Column(3)], Reservoir { n: 25 }
";

const MQ_SHARED_VERDICTS: &str = "\
stmt0: partition [], Combine([Key, Sum, Sum])
stmt1: partition [], Combine([Key, Sum, Sum])
stmt2: partition [], Combine([Key, Sum, Sum])
stmt3: partition [], Combine([Key, Sum, Sum])
stmt4: partition [], Combine([Key, Sum, Sum])
stmt5: partition [], Combine([Key, Sum, Sum])
stmt6: partition [], Combine([Key, Sum, Sum])
stmt7: partition [], Combine([Key, Sum, Sum])
stmt8: partition [], Combine([Key, Sum, Sum])
stmt9: partition [], Combine([Key, Sum, Sum])
stmt10: partition [], Combine([Key, Sum, Sum])
stmt11: partition [], Combine([Key, Sum, Sum])
stmt12: partition [], Combine([Key, Sum, Sum])
stmt13: partition [], Combine([Key, Sum, Sum])
stmt14: partition [], Combine([Key, Sum, Sum])
stmt15: partition [], Combine([Key, Sum, Sum])
";

#[test]
fn shard_plan_verdicts_are_pinned() {
    let mut actual = String::new();
    for (name, text) in EXAMPLE_QUERIES {
        actual += &format!("{name}: {}\n", verdict(text));
    }
    assert!(actual == EXAMPLE_VERDICTS, "example verdicts changed; actual:\n{actual}");

    let file = std::fs::read_to_string(format!("{ROOT}/tests/golden/mq_shared.sql")).unwrap();
    let statements = split_statements(&file);
    assert_eq!(statements.len(), 16);
    let mut actual = String::new();
    for (i, (_, text)) in statements.iter().enumerate() {
        actual += &format!("stmt{i}: {}\n", verdict(text));
    }
    assert!(actual == MQ_SHARED_VERDICTS, "mq_shared verdicts changed; actual:\n{actual}");
}
