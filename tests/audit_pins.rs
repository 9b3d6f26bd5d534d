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
examples/queries.sql research 1: exit Some(0), e83b639f9c50bd68
examples/queries.sql research 4: exit Some(0), 087a7cb16a04c188
examples/queries.sql datacenter 1: exit Some(0), 377a906c6e6b5498
examples/queries.sql datacenter 4: exit Some(0), 1d9988f8bbab0e6a
examples/queries.sql burst 1: exit Some(0), 6048dc7bf479786c
examples/queries.sql burst 4: exit Some(0), 5892a9fe7fb71fae
examples/queries.sql ddos 1: exit Some(0), cad9a45c479d4f0e
examples/queries.sql ddos 4: exit Some(0), de2404d960654f9a
tests/golden/mq_shared.sql research 1: exit Some(0), 44ba59a30dffcba3
tests/golden/mq_shared.sql research 4: exit Some(0), 5c2f67511c73ca1b
tests/golden/mq_shared.sql datacenter 1: exit Some(0), ace3f4fc49255069
tests/golden/mq_shared.sql datacenter 4: exit Some(0), fc339f2018760801
tests/golden/mq_shared.sql burst 1: exit Some(0), 22c7eed5bbe8e744
tests/golden/mq_shared.sql burst 4: exit Some(0), 7017d6e4aaadfcea
tests/golden/mq_shared.sql ddos 1: exit Some(0), 4bb61ff7e4ae9220
tests/golden/mq_shared.sql ddos 4: exit Some(0), 81ed4d30e801f308
tests/golden/base_lints.sql research 1: exit Some(1), 148590735300d586
tests/golden/base_lints.sql research 4: exit Some(1), c1d5ec707ea1ead4
tests/golden/base_lints.sql datacenter 1: exit Some(1), 333117404885dece
tests/golden/base_lints.sql datacenter 4: exit Some(1), 4dd0ef07c3905628
tests/golden/base_lints.sql burst 1: exit Some(1), 85d147e632ae89e1
tests/golden/base_lints.sql burst 4: exit Some(1), b7d9e76bff17c5e5
tests/golden/base_lints.sql ddos 1: exit Some(1), f039243799af29ce
tests/golden/base_lints.sql ddos 4: exit Some(1), c38fbbc184a2d68c
tests/golden/cascade_sampled.sql research 1: exit Some(0), 2357b7374a807c5b
tests/golden/cascade_sampled.sql research 4: exit Some(0), a8af250c4627d5e5
tests/golden/cascade_sampled.sql datacenter 1: exit Some(0), 247c8a1305e04146
tests/golden/cascade_sampled.sql datacenter 4: exit Some(0), 0816337d7384bf5e
tests/golden/cascade_sampled.sql burst 1: exit Some(0), 5104f440167b2019
tests/golden/cascade_sampled.sql burst 4: exit Some(0), 431b6bc2a635a745
tests/golden/cascade_sampled.sql ddos 1: exit Some(0), d3bd13a97ae069d2
tests/golden/cascade_sampled.sql ddos 4: exit Some(0), ba4addb934a83d0a
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
