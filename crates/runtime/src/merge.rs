//! Window-aligned merge-finalize: re-combine per-shard window outputs
//! into the single-instance result using the query's merge rule.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rustc_hash::FxHasher;
use sso_core::{ColumnRule, MergeRule, WindowOutput, WindowStats};
use sso_sampling::subset_sum::{merge_threshold_samples, ThresholdPart};
use sso_sampling::Reservoir;
use sso_types::{Tuple, Value};

/// Orders tuples column by column with [`Value::total_cmp`], then by
/// arity: a total order over any rows, `NaN`s and strings beside
/// numbers included.
pub(crate) fn tuple_cmp(a: &Tuple, b: &Tuple) -> Ordering {
    for (x, y) in a.values().iter().zip(b.values()) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.arity().cmp(&b.arity())
}

fn fx_hash(t: &Tuple) -> u64 {
    let mut h = FxHasher::default();
    t.hash(&mut h);
    h.finish()
}

/// Two shards' partials of a [`ColumnRule::Sum`] column, added as the
/// operator's `sum` adds (`Value::add`: `U64`s wrap, a `U64` and an `I64`
/// give the exact integer), with `NULL` — a sum before its first value —
/// the identity. A pair `Value::add` refuses (two strings, each the
/// `sum` of one tuple) is one the operator itself would have failed on;
/// the merge has no error to return and makes it `NULL`.
fn add_values(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Null, v) | (v, Value::Null) => v.clone(),
        _ => a.add(b).unwrap_or(Value::Null),
    }
}

/// Merge one window's per-shard outputs into one row set, its stats
/// and its loss ledger, each summed over the parts.
fn merge_one(window: Tuple, parts: Vec<WindowOutput>, rule: &MergeRule, seed: u64) -> WindowOutput {
    let mut stats = WindowStats::default();
    let mut uncovered = 0;
    for p in &parts {
        stats.add(&p.stats);
        uncovered += p.uncovered;
    }
    // A part no tuple reached an operator for carries a loss and no
    // sample: the rule merges the others.
    let parts: Vec<WindowOutput> = parts.into_iter().filter(|p| p.stats.tuples > 0).collect();

    let mut rows: Vec<Tuple> = match rule {
        MergeRule::Concat => parts.into_iter().flat_map(|p| p.rows).collect(),
        MergeRule::Combine(rules) => {
            let key_cols: Vec<usize> = rules
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, ColumnRule::Key))
                .map(|(i, _)| i)
                .collect();
            let mut table: HashMap<Tuple, Tuple> = HashMap::new();
            for row in parts.into_iter().flat_map(|p| p.rows) {
                let key = row.project(&key_cols);
                match table.entry(key) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(row);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let acc = e.get_mut();
                        for (i, r) in rules.iter().enumerate() {
                            let merged = match r {
                                ColumnRule::Key => continue,
                                ColumnRule::Sum => add_values(acc.get(i), row.get(i)),
                                ColumnRule::Min => match acc.get(i).compare(row.get(i)) {
                                    Ok(Ordering::Greater) => row.get(i).clone(),
                                    _ => continue,
                                },
                                ColumnRule::Max => match acc.get(i).compare(row.get(i)) {
                                    Ok(Ordering::Less) => row.get(i).clone(),
                                    _ => continue,
                                },
                            };
                            acc.set(i, merged);
                        }
                    }
                }
            }
            table.into_values().collect()
        }
        MergeRule::SubsetSum { weight_col, target } => {
            let shard_parts: Vec<ThresholdPart<Tuple>> = parts
                .into_iter()
                .filter(|p| !p.rows.is_empty())
                .map(|p| {
                    // The shard's final threshold: small rows are emitted
                    // at exactly z via UMAX(sum(w), ssthreshold()), so
                    // the minimum adjusted weight is z whenever any small
                    // row survived; when every row is large, any z at or
                    // below the minimum re-admits all of them unchanged.
                    let samples: Vec<(Tuple, f64)> = p
                        .rows
                        .into_iter()
                        .map(|r| {
                            let eff = r.get(*weight_col).as_f64().unwrap_or(0.0);
                            (r, eff)
                        })
                        .collect();
                    let z = samples.iter().map(|(_, e)| *e).fold(f64::INFINITY, f64::min);
                    ThresholdPart { samples, z: if z.is_finite() { z } else { 0.0 } }
                })
                .collect();
            let merged = merge_threshold_samples(shard_parts, *target);
            stats.cleaning_phases += u64::from(merged.passes);
            merged
                .samples
                .into_iter()
                .map(|(mut row, eff)| {
                    row.set(*weight_col, Value::F64(eff));
                    row
                })
                .collect()
        }
        MergeRule::Reservoir { n } => {
            let mut rng = StdRng::seed_from_u64(seed ^ fx_hash(&window));
            let mut merged: Option<Reservoir<Tuple>> = None;
            for p in parts {
                // stats.tuples is the shard's offer count for the window
                // (rsample sits in WHERE and sees every tuple); rows can
                // be fewer than the reservoir when sampled tuples share a
                // group key.
                let seen = p.stats.tuples.max(p.rows.len() as u64);
                let shard = Reservoir::from_parts(*n, seen, p.rows);
                merged = Some(match merged {
                    None => shard,
                    Some(m) => m.merge(&shard, &mut rng),
                });
            }
            merged.map(Reservoir::into_items).unwrap_or_default()
        }
        MergeRule::KmvTruncate { key_cols, hash_col, k } => {
            let mut signatures: HashMap<Tuple, Vec<Tuple>> = HashMap::new();
            for row in parts.into_iter().flat_map(|p| p.rows) {
                signatures.entry(row.project(key_cols)).or_default().push(row);
            }
            let mut rows = Vec::new();
            for (_, mut sig) in signatures {
                sig.sort_by(|a, b| a.get(*hash_col).total_cmp(b.get(*hash_col)));
                sig.dedup_by(|a, b| a.get(*hash_col) == b.get(*hash_col));
                sig.truncate(*k);
                rows.extend(sig);
            }
            rows
        }
    };

    sort_rows(&mut rows);
    stats.output_rows = rows.len() as u64;
    WindowOutput { window, rows, stats, uncovered }
}

/// Columns a packed sort key holds: every shard-mergeable example
/// query's rows fit.
const PACKED_COLS: usize = 4;

/// Sort one window's merged rows into the order `sort_by(tuple_cmp)`
/// leaves them in.
///
/// Packed path: when every row has the same arity, at most
/// [`PACKED_COLS`], and each column holds only `U64`s or only non-NaN
/// `F64`s, each row becomes one `([u64; PACKED_COLS], row index)` key
/// built in one pass, the keys are sorted unstably and the rows move
/// into their order. On such rows `tuple_cmp` equals the keys' order:
/// a `U64` word is the value; an `F64` word is its bits with the sign
/// bit set (all bits flipped for a negative), `-0.0` read as `0.0`,
/// which `Value::total_cmp` finds equal to it.
/// The row index breaks ties as the stable sort does, so the rows come
/// out byte-identical to it.
///
/// Every other window — a `Str`, `I64`, `Bool`, `Null` or `NaN` value,
/// a column that mixes kinds, rows of different arity or wider than
/// [`PACKED_COLS`] — is sorted by `sort_by(tuple_cmp)` itself.
fn sort_rows(rows: &mut Vec<Tuple>) {
    let Some(mut keys) = packed_keys(rows) else {
        rows.sort_by(tuple_cmp);
        return;
    };
    keys.sort_unstable();
    let mut slots = std::mem::take(rows);
    rows.extend(keys.iter().map(|&(_, i)| std::mem::take(&mut slots[i as usize])));
}

/// The packed keys of [`sort_rows`], or `None` when a row does not pack.
fn packed_keys(rows: &[Tuple]) -> Option<Vec<([u64; PACKED_COLS], u32)>> {
    let first = rows.first()?;
    let arity = first.arity();
    if arity > PACKED_COLS || u32::try_from(rows.len()).is_err() {
        return None;
    }
    // Whether each column holds `F64`s, as the first row says.
    let mut float = [false; PACKED_COLS];
    for (f, v) in float.iter_mut().zip(first.values()) {
        *f = matches!(v, Value::F64(_));
    }
    let mut keys = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        if row.arity() != arity {
            return None;
        }
        let mut key = [0u64; PACKED_COLS];
        for ((word, v), &f) in key.iter_mut().zip(row.values()).zip(&float) {
            *word = match v {
                Value::U64(x) if !f => *x,
                Value::F64(x) if f && !x.is_nan() => {
                    let bits = if *x == 0.0 { 0 } else { x.to_bits() };
                    if bits >> 63 == 1 {
                        !bits
                    } else {
                        bits | 1 << 63
                    }
                }
                _ => return None,
            };
        }
        keys.push((key, i as u32));
    }
    Some(keys)
}

/// Combine per-shard window output streams into one ordered stream of
/// merged windows. Windows are aligned by their window-attribute tuple;
/// a shard that saw no tuples for a window simply contributes nothing.
/// A window some stage lost whole still comes out, rowless, with its
/// loss: losing the window's rows must not also lose the fact that the
/// window existed. `seed` fixes the randomized merges (reservoir) per
/// window.
pub fn merge_windows(
    per_shard: Vec<Vec<WindowOutput>>,
    rule: &MergeRule,
    seed: u64,
) -> Vec<WindowOutput> {
    let mut by_window: HashMap<Tuple, Vec<WindowOutput>> = HashMap::new();
    for w in per_shard.into_iter().flatten() {
        by_window.entry(w.window.clone()).or_default().push(w);
    }
    let mut windows: Vec<(Tuple, Vec<WindowOutput>)> = by_window.into_iter().collect();
    windows.sort_by(|a, b| tuple_cmp(&a.0, &b.0));
    windows.into_iter().map(|(key, parts)| merge_one(key, parts, rule, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(window: u64, rows: Vec<Vec<Value>>, tuples: u64) -> WindowOutput {
        WindowOutput {
            window: Tuple::new(vec![Value::U64(window)]),
            rows: rows.into_iter().map(Tuple::new).collect(),
            stats: WindowStats { tuples, output_rows: 0, ..Default::default() },
            uncovered: 0,
        }
    }

    /// A window's loss, as a stage that counted no tuple of it hands it
    /// over: no rows, no stats, only the uncovered count.
    fn lost(window: u64, n: u64) -> WindowOutput {
        WindowOutput { uncovered: n, ..w(window, vec![], 0) }
    }

    #[test]
    fn partials_tag_coverage_per_window() {
        let merged = merge_windows(
            vec![
                vec![w(1, vec![vec![Value::U64(1), Value::U64(4)]], 6)],
                // Window 1 lost 2 tuples to a quarantine; window 3 was
                // lost entirely.
                vec![lost(1, 2), w(2, vec![vec![Value::U64(2), Value::U64(5)]], 8), lost(3, 5)],
            ],
            &MergeRule::Concat,
            0,
        );
        assert_eq!(merged.len(), 3);
        assert_eq!((merged[0].stats.tuples, merged[0].uncovered), (6, 2));
        assert!((merged[0].coverage() - 6.0 / 8.0).abs() < 1e-12);
        assert!(merged[0].degraded());
        assert_eq!((merged[1].coverage(), merged[1].degraded()), (1.0, false));
        assert_eq!(merged[2].coverage(), 0.0);
        assert!(merged[2].rows.is_empty(), "fully lost window still surfaces, empty");
    }

    /// A part that only carries a loss takes no part in a seeded merge:
    /// the reservoir rule draws as it does without it.
    #[test]
    fn a_loss_only_part_leaves_the_reservoir_draw_alone() {
        let rows: Vec<Vec<Value>> = (0..10u64).map(|i| vec![Value::U64(i)]).collect();
        let shards = vec![vec![w(1, rows.clone(), 100)], vec![w(1, rows, 300)]];
        let rule = MergeRule::Reservoir { n: 10 };
        let clean = merge_windows(shards.clone(), &rule, 99);
        let mut with_loss = shards;
        with_loss.push(vec![lost(1, 7)]);
        let degraded = merge_windows(with_loss, &rule, 99);
        assert_eq!(degraded[0].rows, clean[0].rows);
        assert_eq!((degraded[0].stats.tuples, degraded[0].uncovered), (400, 7));
    }

    #[test]
    fn concat_unions_and_sorts() {
        let merged = merge_windows(
            vec![
                vec![w(1, vec![vec![Value::U64(1), Value::U64(9)]], 5)],
                vec![w(1, vec![vec![Value::U64(1), Value::U64(3)]], 7)],
            ],
            &MergeRule::Concat,
            0,
        );
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].rows.len(), 2);
        assert_eq!(merged[0].rows[0].get(1), &Value::U64(3));
        assert_eq!(merged[0].stats.tuples, 12);
        assert_eq!(merged[0].stats.output_rows, 2);
    }

    /// Every per-shard count in `WindowStats` is summed, evictions too;
    /// `output_rows` counts the merged rows.
    #[test]
    fn merged_stats_sum_every_shard_count() {
        let part = |tuples, evictions| {
            let mut p = w(1, vec![vec![Value::U64(tuples)]], tuples);
            p.stats = WindowStats {
                tuples,
                admitted: tuples / 2,
                cleaning_phases: 2,
                groups_created: 3,
                evictions,
                output_rows: 1,
            };
            vec![p]
        };
        let merged = merge_windows(vec![part(10, 4), part(20, 7)], &MergeRule::Concat, 0);
        let s = &merged[0].stats;
        assert_eq!((s.tuples, s.admitted, s.cleaning_phases, s.groups_created), (30, 15, 4, 6));
        assert_eq!(s.evictions, 11, "evictions are summed over the shards");
        assert_eq!(s.output_rows, 2);
    }

    /// A window whose rows hold `NaN`s, or strings beside numbers, in
    /// one column: the merge sorts numbers ascending, then `NaN`s, then
    /// strings. At these rows a sort by `Value::compare`, which finds
    /// such pairs `Equal`, panics.
    #[test]
    fn concat_sorts_nan_and_mixed_kind_windows() {
        let float = |n: u64| Value::F64(n as f64);
        let cases: [(Value, &dyn Fn(u64) -> Value); 2] =
            [(Value::F64(f64::NAN), &float), (Value::str("x"), &Value::U64)];
        for (odd, number) in cases {
            // Descending numbers with every fourth cell odd.
            let cell = |p: u64| if p.is_multiple_of(4) { odd.clone() } else { number(32 - p) };
            let rows = |ps: std::ops::Range<u64>| ps.map(|p| vec![cell(p)]).collect();
            let per_shard = vec![vec![w(1, rows(0..16), 16)], vec![w(1, rows(16..32), 16)]];
            let merged = &merge_windows(per_shard, &MergeRule::Concat, 0)[0].rows;
            let got: Vec<Value> = merged.iter().map(|r| r.get(0).clone()).collect();
            let mut expect: Vec<Value> =
                (1..=32).filter(|n: &u64| !n.is_multiple_of(4)).map(number).collect();
            expect.extend(std::iter::repeat_n(odd.clone(), 8));
            assert_eq!(format!("{got:?}"), format!("{expect:?}"));
        }
    }

    #[test]
    fn combine_sums_matching_keys() {
        let rule = MergeRule::Combine(vec![ColumnRule::Key, ColumnRule::Sum, ColumnRule::Max]);
        let merged = merge_windows(
            vec![
                vec![w(1, vec![vec![Value::U64(60), Value::U64(10), Value::U64(4)]], 1)],
                vec![w(1, vec![vec![Value::U64(60), Value::U64(32), Value::U64(9)]], 1)],
            ],
            &rule,
            0,
        );
        assert_eq!(merged[0].rows.len(), 1);
        assert_eq!(merged[0].rows[0].get(1), &Value::U64(42));
        assert_eq!(merged[0].rows[0].get(2), &Value::U64(9));
    }

    /// A `sum` merged is the `sum` the operator folds, for the partials
    /// where `+` on the payloads is not it.
    #[test]
    fn sum_partials_add_as_the_operator_sums() {
        // Overflow wraps, as `AggState::fold` does (a debug build's `+`
        // panicked here).
        assert_eq!(add_values(&Value::U64(u64::MAX), &Value::U64(2)), Value::U64(1));
        // Partials of opposite sign: the exact integer, of the kind its
        // sign gives, not an `F64`.
        assert_eq!(format!("{:?}", add_values(&Value::U64(5), &Value::I64(-7))), "I64(-2)");
        assert_eq!(format!("{:?}", add_values(&Value::I64(-7), &Value::U64(9))), "U64(2)");
        // `NULL`, a sum before its first value, is the identity.
        for v in [Value::U64(3), Value::I64(-3), Value::F64(0.5), Value::Null] {
            let expect = format!("{v:?}");
            assert_eq!(format!("{:?}", add_values(&Value::Null, &v)), expect);
            assert_eq!(format!("{:?}", add_values(&v, &Value::Null)), expect);
        }
    }

    #[test]
    fn windows_align_across_shards_and_sort() {
        let merged = merge_windows(
            vec![vec![w(2, vec![], 1), w(3, vec![], 1)], vec![w(1, vec![], 1), w(2, vec![], 1)]],
            &MergeRule::Concat,
            0,
        );
        let keys: Vec<u64> = merged.iter().map(|m| m.window.get(0).as_u64().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn kmv_truncate_keeps_k_smallest_per_signature() {
        let rule = MergeRule::KmvTruncate { key_cols: vec![0], hash_col: 1, k: 2 };
        let rows_a = vec![vec![Value::U64(7), Value::U64(50)], vec![Value::U64(7), Value::U64(10)]];
        let rows_b = vec![vec![Value::U64(7), Value::U64(20)], vec![Value::U64(8), Value::U64(99)]];
        let merged = merge_windows(vec![vec![w(1, rows_a, 1)], vec![w(1, rows_b, 1)]], &rule, 0);
        let mut got: Vec<(u64, u64)> = merged[0]
            .rows
            .iter()
            .map(|r| (r.get(0).as_u64().unwrap(), r.get(1).as_u64().unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(7, 10), (7, 20), (8, 99)]);
    }

    #[test]
    fn reservoir_merge_bounds_sample_and_is_seeded() {
        let rows: Vec<Vec<Value>> = (0..10u64).map(|i| vec![Value::U64(i)]).collect();
        let shards = vec![vec![w(1, rows.clone(), 100)], vec![w(1, rows.clone(), 300)]];
        let rule = MergeRule::Reservoir { n: 10 };
        let a = merge_windows(shards.clone(), &rule, 99);
        let b = merge_windows(shards, &rule, 99);
        assert_eq!(a[0].rows.len(), 10);
        assert_eq!(a[0].rows, b[0].rows, "same seed must reproduce the merge");
    }

    #[test]
    fn subset_sum_merge_rethresholds_to_target() {
        let rows_of = |weights: &[u64]| -> Vec<Vec<Value>> {
            weights
                .iter()
                .enumerate()
                .map(|(i, &wt)| vec![Value::U64(i as u64), Value::F64(wt as f64)])
                .collect()
        };
        let rule = MergeRule::SubsetSum { weight_col: 1, target: 3 };
        let merged = merge_windows(
            vec![
                vec![w(1, rows_of(&[100, 100, 5000]), 10)],
                vec![w(1, rows_of(&[200, 200, 7000]), 10)],
            ],
            &rule,
            0,
        );
        assert!(merged[0].rows.len() <= 3);
        // The two big rows always survive a threshold far below them.
        let big: Vec<f64> = merged[0]
            .rows
            .iter()
            .map(|r| r.get(1).as_f64().unwrap())
            .filter(|&e| e >= 5000.0)
            .collect();
        assert_eq!(big.len(), 2, "large items must survive: {:?}", merged[0].rows);
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    /// `FLOATS[..2]` are the two zeros, so a spread of 2 makes rows
    /// that tie in `tuple_cmp` yet print differently.
    const FLOATS: [f64; 6] = [-0.0, 0.0, 0.5, -2.5, 5.0, 1e300];

    /// The value a generated cell holds in a column of `kind`: 0 all
    /// `U64`, 1 all non-NaN `F64`, 2 any kind at all (`I64`, `NaN`,
    /// `Str` and `Null` too), picked by `pick` with payload `p`.
    fn cell(kind: u8, (pick, p): (u8, u8)) -> Value {
        match if kind < 2 { kind } else { pick } {
            0 => Value::U64(u64::from(p)),
            1 => Value::F64(FLOATS[usize::from(p)]),
            2 => Value::I64(i64::from(p) - 2),
            3 => Value::F64(f64::NAN),
            4 => Value::Str(["", "a", "b"][usize::from(p % 3)].into()),
            _ => Value::Null,
        }
    }

    /// Up to three shards' rows for one window: 1–5 columns, each of a
    /// generated kind; every row the full width, or (`ragged`) any
    /// prefix of it. Payloads below a generated spread (1–6) make
    /// duplicate rows, ties and rows that differ only in kind
    /// (`U64(4)`, `I64(4)`, `F64(5.0)` against `U64(5)`) common.
    fn shard_rows() -> impl Strategy<Value = Vec<Vec<Vec<Value>>>> {
        let row = (1usize..6, vec((0u8..6, 0u8..6), 5..6));
        let shards = vec(vec(row, 0..60), 1..4);
        (vec(0u8..3, 5..6), 1usize..6, any::<bool>(), 1u8..7, shards).prop_map(
            |(kinds, width, ragged, spread, shards)| {
                let shape = |(len, cells): (usize, Vec<(u8, u8)>)| {
                    let n = if ragged { len.min(width) } else { width };
                    (0..n).map(|c| cell(kinds[c], (cells[c].0, cells[c].1 % spread))).collect()
                };
                shards.into_iter().map(|rows| rows.into_iter().map(shape).collect()).collect()
            },
        )
    }

    proptest! {
        /// Concat's merged rows are the shards' rows in shard order,
        /// sorted stably by `tuple_cmp`: the same rows, in the same
        /// order, down to `-0.0` against `0.0` and `NaN`s.
        #[test]
        fn concat_rows_are_the_stable_tuple_cmp_sort(shards in shard_rows()) {
            let mut expect: Vec<Tuple> =
                shards.iter().flatten().cloned().map(Tuple::new).collect();
            expect.sort_by(tuple_cmp);
            let per_shard = shards.into_iter().map(|rows| vec![w(1, rows, 1)]).collect();
            let merged = &merge_windows(per_shard, &MergeRule::Concat, 0)[0].rows;
            prop_assert_eq!(format!("{merged:?}"), format!("{expect:?}"));
        }
    }
}
