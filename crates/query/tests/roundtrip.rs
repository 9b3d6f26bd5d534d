//! Round-trip tests over the paper's example queries: parse →
//! pretty-print → re-parse must reproduce the same AST. The texts live
//! in `sso_core::queries::EXAMPLE_QUERIES` next to the programmatic
//! builders they describe, so the two surfaces cannot drift apart.

use proptest::prelude::*;
use sso_core::queries::EXAMPLE_QUERIES;
use sso_query::parse_query;

#[test]
fn every_example_query_round_trips() {
    for (name, text) in EXAMPLE_QUERIES {
        let ast = parse_query(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = ast.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("{name} (re-parse of `{printed}`): {e}"));
        assert_eq!(ast, reparsed, "{name}: AST changed across pretty-print");
    }
}

#[test]
fn pretty_printing_is_a_fixpoint() {
    // Printing the re-parsed AST must give back the same text: the
    // printer emits canonical form on the first round.
    for (name, text) in EXAMPLE_QUERIES {
        let printed = parse_query(text).unwrap().to_string();
        let printed_again = parse_query(&printed).unwrap().to_string();
        assert_eq!(printed, printed_again, "{name}: printer not idempotent");
    }
}

/// The compiled text forms take the run path where the programmatic
/// forms do: `dsample(srcIP, 256)` reads the group-by variable `srcIP`,
/// which is the column.
#[test]
fn decide_on_arrival_text_forms_take_the_run_path() {
    let config = sso_query::PlannerConfig::standard();
    let run_path = |name: &str| {
        let schema = sso_query::base_stream_schema("PKT").unwrap();
        let text = EXAMPLE_QUERIES.iter().find(|(n, _)| *n == name).unwrap().1;
        sso_query::compile(text, &schema, &config).unwrap().has_run_path()
    };
    for name in ["subset_sum_query", "basic_subset_sum_query", "distinct_sample_query"] {
        assert!(run_path(name), "{name}");
    }
    assert!(!run_path("total_sum_query"));
}

proptest! {
    /// Whitespace between tokens never changes the parsed AST.
    #[test]
    fn whitespace_never_changes_the_ast(
        idx in 0..EXAMPLE_QUERIES.len(),
        seps in proptest::collection::vec(
            prop_oneof![Just(" "), Just("  "), Just("\n"), Just("\t"), Just(" \n ")],
            1..48,
        ),
    ) {
        let (name, text) = EXAMPLE_QUERIES[idx];
        let canonical = parse_query(text).unwrap();
        let mangled: String = text
            .split(' ')
            .enumerate()
            .map(|(i, tok)| {
                if i == 0 { tok.to_string() } else { format!("{}{tok}", seps[i % seps.len()]) }
            })
            .collect();
        let reparsed = parse_query(&mangled)
            .unwrap_or_else(|e| panic!("{name} with mangled whitespace: {e}"));
        prop_assert_eq!(&canonical, &reparsed, "{}: whitespace changed the AST", name);
    }
}
