//! Pins what the query front end hands on, before and across any
//! change to how it resolves names:
//!
//! * `explain` of the plan of every example query (the library constant
//!   and `examples/queries.sql`) and of a few probes that mix clauses:
//!   aggregate, superaggregate and SFUN-library slots are numbered in
//!   the order GROUP BY, SUPERGROUP, WHERE, CLEANING WHEN, CLEANING BY,
//!   HAVING, SELECT, and the library order is the durable carry layout;
//! * `check`'s diagnostics for statements with several faults each —
//!   code, span, message, help and order — which together raise every
//!   code the analyzer emits;
//! * `compile_packet_predicate`'s result for one accepted predicate, and
//!   that each form a packet predicate cannot hold is an error.

use sso_core::queries::EXAMPLE_QUERIES;
use sso_query::ast::{AstExpr, ExprKind};
use sso_query::{
    analyze, base_stream_schema, check, compile_packet_predicate, explain, parse_query, plan, Code,
    Diagnostic, PlannerConfig,
};
use sso_types::Packet;

fn explained(text: &str) -> String {
    let q = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let schema = base_stream_schema(&q.from.text).expect("a base stream");
    let spec = plan(&q, &schema, &PlannerConfig::standard()).unwrap_or_else(|e| panic!("{e}"));
    explain(&spec)
}

/// One line per diagnostic, `CODE start..end message`, and an indented
/// `help:` line when it has one.
fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out += &format!("{} {}..{} {}\n", d.code, d.span.start, d.span.end, d.message);
        if let Some(help) = &d.help {
            out += &format!("    help: {help}\n");
        }
    }
    out
}

/// `explain` of each `EXAMPLE_QUERIES` plan, in the constant's order.
const EXAMPLE_PLANS: [&str; 7] = [
    r#"SamplingOperator
  select (3 columns):
    tb := GroupVar(0)
    sum := Aggregate(0)
    count := Aggregate(1)
  group by (1 variables):
    tb := (Column(0) Div Literal(60))  [window]
  supergroup: ALL (one state per window)
  aggregates (2 slots):
    [0] sum(Column(7))
    [1] count(*)
"#,
    r#"SamplingOperator
  select (4 columns):
    tb := GroupVar(0)
    srcIP := GroupVar(1)
    destIP := GroupVar(2)
    UMAX := Scalar(UMAX, [Aggregate(0), Sfun(ssthreshold, [])])
  where: (Sfun(ssample, [Column(7), Literal(100)]) Eq Literal(TRUE))
  group by (4 variables):
    tb := (Column(0) Div Literal(60))  [window]
    srcIP := Column(2)
    destIP := Column(3)
    uts := Column(1)
  supergroup: ALL (one state per window)
  aggregates (1 slots):
    [0] sum(Column(7))
  superaggregates (1 slots):
    [0] count_distinct$(*)
  stateful-function libraries (1):
    [0] subsetsum_sampling_state
  cleaning when: (Sfun(ssdo_clean, [SuperAgg(0)]) Eq Literal(TRUE))
  cleaning by (keep): (Sfun(ssclean_with, [Aggregate(0)]) Eq Literal(TRUE))
  having: (Sfun(ssfinal_clean, [Aggregate(0), SuperAgg(0)]) Eq Literal(TRUE))
"#,
    r#"SamplingOperator
  select (4 columns):
    tb := GroupVar(0)
    srcIP := GroupVar(1)
    destIP := GroupVar(2)
    UMAX := Scalar(UMAX, [Aggregate(0), Sfun(ssthreshold, [])])
  where: (Sfun(ssample, [Column(7), Literal(1)]) Eq Literal(TRUE))
  group by (4 variables):
    tb := (Column(0) Div Literal(60))  [window]
    srcIP := Column(2)
    destIP := Column(3)
    uts := Column(1)
  supergroup: ALL (one state per window)
  aggregates (1 slots):
    [0] sum(Column(7))
  stateful-function libraries (1):
    [0] subsetsum_sampling_state
"#,
    r#"SamplingOperator
  select (4 columns):
    tb := GroupVar(0)
    srcIP := GroupVar(1)
    sum := Aggregate(2)
    count := Aggregate(0)
  group by (2 variables):
    tb := (Column(0) Div Literal(60))  [window]
    srcIP := Column(2)
  supergroup: ALL (one state per window)
  aggregates (3 slots):
    [0] count(*)
    [1] first(Sfun(current_bucket, []))
    [2] sum(Column(7))
  stateful-function libraries (1):
    [0] heavy_hitter_state
  cleaning when: (Sfun(local_count, [Literal(100)]) Eq Literal(TRUE))
  cleaning by (keep): ((Aggregate(0) Add Aggregate(1)) Gt Sfun(current_bucket, []))
  having: (Aggregate(0) Ge Literal(50))
"#,
    r#"SamplingOperator
  select (3 columns):
    tb := GroupVar(0)
    srcIP := GroupVar(1)
    HX := GroupVar(2)
  where: (GroupVar(2) Le SuperAgg(0))
  group by (3 variables):
    tb := (Column(0) Div Literal(60))  [window]
    srcIP := Column(2)  [supergroup]
    HX := Scalar(H, [Column(3)])
  superaggregates (2 slots):
    [0] Kth_smallest_value$(GroupVar(2), 10)
    [1] count_distinct$(*)
  cleaning when: (SuperAgg(1) Gt Literal(10))
  cleaning by (keep): (GroupVar(2) Le SuperAgg(0))
  having: (GroupVar(2) Le SuperAgg(0))
"#,
    r#"SamplingOperator
  select (5 columns):
    tb := GroupVar(0)
    srcIP := GroupVar(1)
    count := Aggregate(0)
    dscale := Sfun(dscale, [])
    count_distinct$ := SuperAgg(0)
  where: (Sfun(dsample, [GroupVar(1), Literal(256)]) Eq Literal(TRUE))
  group by (2 variables):
    tb := (Column(0) Div Literal(60))  [window]
    srcIP := Column(2)
  supergroup: ALL (one state per window)
  aggregates (1 slots):
    [0] count(*)
  superaggregates (1 slots):
    [0] count_distinct$(*)
  stateful-function libraries (1):
    [0] distinct_sampling_state
  cleaning when: (Sfun(ddo_clean, [SuperAgg(0)]) Eq Literal(TRUE))
  cleaning by (keep): (Sfun(dclean_with, [GroupVar(1)]) Eq Literal(TRUE))
"#,
    r#"SamplingOperator
  select (3 columns):
    tb := GroupVar(0)
    srcIP := GroupVar(1)
    destIP := GroupVar(2)
  where: (Sfun(rsample, [Literal(25)]) Eq Literal(TRUE))
  group by (3 variables):
    tb := (Column(0) Div Literal(60))  [window]
    srcIP := Column(2)
    destIP := Column(3)
  supergroup: ALL (one state per window)
  superaggregates (1 slots):
    [0] count_distinct$(*)
  stateful-function libraries (1):
    [0] reservoir_sampling_state
  cleaning when: (Sfun(rsdo_clean, [SuperAgg(0)]) Eq Literal(TRUE))
  cleaning by (keep): (Sfun(rsclean_with, []) Eq Literal(TRUE))
  having: (Sfun(rsfinal_clean, [SuperAgg(0)]) Eq Literal(TRUE))
"#,
];

#[test]
fn every_example_plan_is_pinned() {
    assert_eq!(EXAMPLE_QUERIES.len(), EXAMPLE_PLANS.len());
    for ((name, text), want) in EXAMPLE_QUERIES.iter().zip(EXAMPLE_PLANS) {
        assert_eq!(explained(text), want, "{name}");
    }
}

#[test]
fn every_base_stream_statement_of_the_example_file_is_pinned() {
    let file = include_str!("../../../examples/queries.sql");
    let code: Vec<&str> = file.lines().filter(|l| !l.trim_start().starts_with("--")).collect();
    let code = code.join("\n");
    let statements: Vec<&str> = code.split(';').map(str::trim).filter(|s| !s.is_empty()).collect();
    assert_eq!(statements.len(), EXAMPLE_PLANS.len());
    for (i, (text, want)) in statements.iter().zip(EXAMPLE_PLANS).enumerate() {
        let from = parse_query(text).unwrap().from.text;
        assert!(base_stream_schema(&from).is_some(), "statement {i} reads {from}");
        assert_eq!(explained(text), want, "statement {i} of examples/queries.sql");
    }
}

/// Queries whose slots come from several clauses at once: `avg`'s
/// two slots, a `sum$` paired with an existing `sum`, an aggregate key
/// that differs only in case, and up to three libraries in one plan.
const PROBES: [(&str, &str); 4] = [
    (
        "SELECT tb, net, avg(len), SUM(len), max$(HX), first(len), sum$(len) FROM PKT \
         WHERE HX <= Kth_smallest_value$(HX, 4) AND ssample(len, 10) = TRUE \
         GROUP BY time/10 as tb, prefix(srcIP, 24) as net, H(destIP) as HX \
         SUPERGROUP net, tb, net \
         HAVING count(*) > 2 AND min$(HX) < 5 AND sum(len) > 0 \
         CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
         CLEANING BY ssclean_with(sum(len)) = TRUE AND last(len) > 0",
        PROBE_PLANS[0],
    ),
    (
        "SELECT tb, count(*), max(len) FROM PKT WHERE -len < 0 \
         GROUP BY time/1 as tb HAVING min(len) < max(len) AND NOT sum(srcIP) = 0 \
         CLEANING WHEN local_count(10) = TRUE \
         CLEANING BY count(*) + first(current_bucket()) > current_bucket()",
        PROBE_PLANS[1],
    ),
    (
        "SELECT tb, first(count_distinct$(*)) as a, FIRST(COUNT_DISTINCT$(*)) as b, \
         rsfinal_clean(count_distinct$(*)) as c FROM PKT \
         WHERE ssample(len, 10) = TRUE AND rsample(5) = TRUE GROUP BY time/1 as tb",
        PROBE_PLANS[2],
    ),
    (
        "SELECT tb, dscale(), max(len) FROM PKT GROUP BY time/1 as tb \
         HAVING UMIN(sum(len), ssthreshold()) > 0 \
         CLEANING WHEN count_distinct$() > 3 CLEANING BY local_count(2) = TRUE",
        PROBE_PLANS[3],
    ),
];

const PROBE_PLANS: [&str; 4] = [
    r#"SamplingOperator
  select (7 columns):
    tb := GroupVar(0)
    net := GroupVar(1)
    avg := ((Aggregate(0) Mul Literal(1)) Div Aggregate(2))
    SUM := Aggregate(0)
    max$ := SuperAgg(3)
    first := Aggregate(3)
    sum$ := SuperAgg(4)
  where: ((GroupVar(2) Le SuperAgg(0)) And (Sfun(ssample, [Column(7), Literal(10)]) Eq Literal(TRUE)))
  group by (3 variables):
    tb := (Column(0) Div Literal(10))  [window]
    net := Scalar(prefix, [Column(2), Literal(24)])  [supergroup]
    HX := Scalar(H, [Column(3)])
  aggregates (4 slots):
    [0] sum(Column(7))
    [1] last(Column(7))
    [2] count(*)
    [3] first(Column(7))
  superaggregates (5 slots):
    [0] Kth_smallest_value$(GroupVar(2), 4)
    [1] count_distinct$(*)
    [2] min$(GroupVar(2))
    [3] max$(GroupVar(2))
    [4] sum$(Column(7))  [paired with aggregate slot 0]
  stateful-function libraries (1):
    [0] subsetsum_sampling_state
  cleaning when: (Sfun(ssdo_clean, [SuperAgg(1)]) Eq Literal(TRUE))
  cleaning by (keep): ((Sfun(ssclean_with, [Aggregate(0)]) Eq Literal(TRUE)) And (Aggregate(1) Gt Literal(0)))
  having: (((Aggregate(2) Gt Literal(2)) And (SuperAgg(2) Lt Literal(5))) And (Aggregate(0) Gt Literal(0)))
"#,
    r#"SamplingOperator
  select (3 columns):
    tb := GroupVar(0)
    count := Aggregate(0)
    max := Aggregate(3)
  where: ((Literal(0) Sub Column(7)) Lt Literal(0))
  group by (1 variables):
    tb := (Column(0) Div Literal(1))  [window]
  supergroup: ALL (one state per window)
  aggregates (5 slots):
    [0] count(*)
    [1] first(Sfun(current_bucket, []))
    [2] min(Column(7))
    [3] max(Column(7))
    [4] sum(Column(2))
  stateful-function libraries (1):
    [0] heavy_hitter_state
  cleaning when: (Sfun(local_count, [Literal(10)]) Eq Literal(TRUE))
  cleaning by (keep): ((Aggregate(0) Add Aggregate(1)) Gt Sfun(current_bucket, []))
  having: ((Aggregate(2) Lt Aggregate(3)) And Not((Aggregate(4) Eq Literal(0))))
"#,
    r#"SamplingOperator
  select (4 columns):
    tb := GroupVar(0)
    a := Aggregate(0)
    b := Aggregate(0)
    c := Sfun(rsfinal_clean, [SuperAgg(0)])
  where: ((Sfun(ssample, [Column(7), Literal(10)]) Eq Literal(TRUE)) And (Sfun(rsample, [Literal(5)]) Eq Literal(TRUE)))
  group by (1 variables):
    tb := (Column(0) Div Literal(1))  [window]
  supergroup: ALL (one state per window)
  aggregates (1 slots):
    [0] first(SuperAgg(0))
  superaggregates (1 slots):
    [0] count_distinct$(*)
  stateful-function libraries (2):
    [0] subsetsum_sampling_state
    [1] reservoir_sampling_state
"#,
    r#"SamplingOperator
  select (3 columns):
    tb := GroupVar(0)
    dscale := Sfun(dscale, [])
    max := Aggregate(1)
  group by (1 variables):
    tb := (Column(0) Div Literal(1))  [window]
  supergroup: ALL (one state per window)
  aggregates (2 slots):
    [0] sum(Column(7))
    [1] max(Column(7))
  superaggregates (1 slots):
    [0] count_distinct$(*)
  stateful-function libraries (3):
    [0] heavy_hitter_state
    [1] subsetsum_sampling_state
    [2] distinct_sampling_state
  cleaning when: (SuperAgg(0) Gt Literal(3))
  cleaning by (keep): (Sfun(local_count, [Literal(2)]) Eq Literal(TRUE))
  having: (Scalar(UMIN, [Aggregate(0), Sfun(ssthreshold, [])]) Gt Literal(0))
"#,
];

#[test]
fn slot_order_across_clauses_is_pinned() {
    for (text, want) in PROBES {
        assert_eq!(explained(text), want, "{text}");
    }
}

/// Statements with several faults each, and their `check` output.
const FAULTY: [&str; 4] = [
    "SELECT len, zap(len), weird$(*), * FROM PKT WHERE sum(len) > 1 AND nope = 3 \
     GROUP BY time/60 as tb, len as tb, ssthreshold() as t2 SUPERGROUP bogus, tb",
    "SELECT tb, count(len), H(tb, 2), -'x', Kth_smallest_value$(tb) FROM PKT \
     WHERE len = 'x' AND len + 'y' > 1 GROUP BY time/60 as tb \
     HAVING tb <= Kth_smallest_value$(tb, 0) AND srcIP > 1 CLEANING WHEN 1 > 2",
    "SELECT srcIP, count(*), count(*) FROM PKT WHERE len GROUP BY srcIP HAVING count(*) >= 1 \
     CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE AND local_count(1) = TRUE AND sum(len) > 1 \
     CLEANING BY sum(len) > 10 AND destIP > 2 AND sum$('a') > 0",
    "SELECT tb, avg(len, 2), sum('z') FROM PKT WHERE nope > 0 GROUP BY time/60 as tb \
     HAVING count(*) CLEANING WHEN len < 0 - 5 AND tb > nope2 \
     CLEANING BY rsclean_with() = TRUE AND srcIP > 0",
];

const FAULTY_DIAGNOSTICS: [&str; 4] = [
    r#"E001 100..103 duplicate group-by variable name `tb`
    help: rename one of the expressions with `AS <other-name>`
E003 111..124 stateful function `ssthreshold` is not allowed in GROUP BY
E011 142..147 SUPERGROUP variable `bogus` is not a group-by variable
    help: SUPERGROUP lists a subset of the GROUP BY variable names
E003 50..58 aggregate `sum` is not allowed in a tuple-phase clause
    help: aggregates summarize a finished group; they belong in SELECT, HAVING, or CLEANING BY
E002 67..71 unknown name `nope` (not a column of PKT or a group-by variable)
    help: columns of PKT: time, uts, srcIP, destIP, srcPort, destPort, proto, len
E003 7..10 `len` referenced in a group-phase clause but is not a group-by variable or aggregate
    help: group-phase clauses see group results, not raw tuples; add `len` to GROUP BY or wrap it in an aggregate
E004 12..20 unknown function `zap`
    help: known functions: H, UMAX, UMIN, current_bucket, dclean_with, ddo_clean, dlevel, dsample, dscale, local_count, prefix, rsample, rsclean_with, rsdo_clean, rsfinal_clean, ssadmissions, ssample, ssclean_with, sscleanings, ssdo_clean, ssfinal_clean, ssthreshold
E005 22..31 unknown superaggregate `weird$`
    help: superaggregates: count_distinct$, Kth_smallest_value$, min$, max$, sum$
E007 33..34 `*` is only valid as the argument of count(*) or count_distinct$(*)
"#,
    r#"E008 78..87 cannot compare u64 with str
    help: string values only compare against other strings
E008 98..101 operand of `+` has type str; arithmetic needs numeric operands
E013 166..167 Kth_smallest_value$'s second argument must be a positive integer literal
    help: k is the fixed sample-size bound, e.g. `Kth_smallest_value$(HX, 100)`
E003 173..178 `srcIP` referenced in a group-phase clause but is not a group-by variable or aggregate
    help: group-phase clauses see group results, not raw tuples; add `srcIP` to GROUP BY or wrap it in an aggregate
E006 11..21 count takes `*` or nothing
E006 23..31 `H` expects exactly one argument, got 2
E008 34..37 cannot negate a string value
E006 39..62 Kth_smallest_value$ expects (expr, k)
E012 197..202 CLEANING WHEN without CLEANING BY
    help: CLEANING WHEN decides *when* to clean; add CLEANING BY to say which tuples survive
W001 197..202 CLEANING WHEN predicate is always false; cleaning never fires
    help: the CLEANING clauses are dead code — gate cleaning on an SFUN such as `ssdo_clean(...)` or a superaggregate bound
"#,
    r#"W004 48..51 WHERE predicate has type u64; non-boolean values are coerced (nonzero/non-empty means true)
    help: write an explicit comparison, e.g. `... <> 0`
E003 170..178 aggregate `sum` is not allowed in a tuple-phase clause
    help: aggregates summarize a finished group; they belong in SELECT, HAVING, or CLEANING BY
E003 213..219 `destIP` referenced in a group-phase clause but is not a group-by variable or aggregate
    help: group-phase clauses see group results, not raw tuples; add `destIP` to GROUP BY or wrap it in an aggregate
E008 233..236 sum$ needs a numeric argument, got str
W005 24..32 duplicate output column name `count`
    help: rename with `AS <other-name>` to keep both columns
E010 102..182 sampling query has no window: no GROUP BY expression references an ordered attribute of PKT
    help: group by an expression over an ordered attribute, e.g. `time/60 as tb`
W002 195..241 CLEANING WHEN fires on `ssdo_clean` but CLEANING BY never calls `ssclean_with`; the sampling threshold never advances and cleaning cannot shrink the sample
    help: call `ssclean_with(...)` in CLEANING BY
W003 144..158 heavy-hitter bucket width 1 is vacuous: every tuple closes its own bucket, so the frequency-error bound ε = 1/width is useless
    help: use a bucket width well above 1, e.g. `local_count(100)`
W003 74..87 support threshold is vacuous: every group has at least one tuple, so this HAVING comparison filters nothing
    help: raise the count threshold above 1 to select frequent groups
"#,
    r#"E002 48..52 unknown name `nope` (not a column of PKT or a group-by variable)
    help: columns of PKT: time, uts, srcIP, destIP, srcPort, destPort, proto, len
W004 87..95 HAVING predicate has type u64; non-boolean values are coerced (nonzero/non-empty means true)
    help: write an explicit comparison, e.g. `... <> 0`
E002 131..136 unknown name `nope2` (not a column of PKT or a group-by variable)
    help: columns of PKT: time, uts, srcIP, destIP, srcPort, destPort, proto, len
E003 175..180 `srcIP` referenced in a group-phase clause but is not a group-by variable or aggregate
    help: group-phase clauses see group results, not raw tuples; add `srcIP` to GROUP BY or wrap it in an aggregate
E006 11..22 aggregate `avg` expects exactly one argument
E008 28..31 sum needs a numeric argument, got str
W001 110..136 CLEANING WHEN predicate is always false; cleaning never fires
    help: the CLEANING clauses are dead code — gate cleaning on an SFUN such as `ssdo_clean(...)` or a superaggregate bound
"#,
];

/// An empty GROUP BY cannot be written (the grammar needs one item), so
/// E009 is raised on a parsed statement whose list is cleared.
const EMPTY_GROUP_BY: &str = "SELECT tb FROM PKT GROUP BY time/60 as tb \
     CLEANING WHEN TRUE CLEANING BY rsclean_with() = TRUE";

const EMPTY_GROUP_BY_DIAGNOSTICS: &str = r#"E009 0..0 GROUP BY list is empty
E003 7..9 `tb` referenced in a group-phase clause but is not a group-by variable or aggregate
    help: group-phase clauses see group results, not raw tuples; add `tb` to GROUP BY or wrap it in an aggregate
E010 56..60 sampling query has no window: no GROUP BY expression references an ordered attribute of PKT
    help: group by an expression over an ordered attribute, e.g. `time/60 as tb`
W001 56..60 CLEANING WHEN predicate is always true; cleaning runs on every tuple
    help: cleaning on every tuple defeats sampling; test a size bound instead
"#;

#[test]
fn diagnostics_of_faulty_statements_are_pinned() {
    let schema = Packet::schema();
    let config = PlannerConfig::standard();
    let mut codes = Vec::new();
    for (text, want) in FAULTY.iter().zip(FAULTY_DIAGNOSTICS) {
        let diags = check(text, &schema, &config);
        assert_eq!(render(&diags), want, "{text}");
        codes.extend(diags.iter().map(|d| d.code));
    }
    let mut q = parse_query(EMPTY_GROUP_BY).unwrap();
    q.group_by.clear();
    let diags = analyze(&q, &schema, &config);
    assert_eq!(render(&diags), EMPTY_GROUP_BY_DIAGNOSTICS);
    codes.extend(diags.iter().map(|d| d.code));

    let every: Vec<Code> = (1..=13)
        .map(|n| format!("E{n:03}"))
        .chain((1..=5).map(|n| format!("W{n:03}")))
        .map(|c| c.parse().unwrap())
        .collect();
    for code in every {
        assert!(codes.contains(&code), "no fixture raises {code}");
    }
}

fn where_of(text: &str) -> AstExpr {
    parse_query(text).unwrap().where_clause.expect("a WHERE clause")
}

#[test]
fn packet_predicates_are_pinned() {
    let schema = Packet::schema();
    let accepted = where_of(
        "SELECT tb FROM PKT WHERE len > 100 AND prefix(srcIP, 24) <> 167772160 \
         OR NOT proto = 6 AND UMAX(len, srcPort) >= -2 GROUP BY time/1 as tb",
    );
    let expr = compile_packet_predicate(&accepted, &schema).unwrap();
    assert_eq!(
        format!("{expr:?}"),
        "(((Column(7) Gt Literal(100)) And (Scalar(prefix, [Column(2), Literal(24)]) Ne Literal(167772160))) Or (Not((Column(6) Eq Literal(6))) And (Scalar(UMAX, [Column(7), Column(4)]) Ge (Literal(0) Sub Literal(2)))))"
    );

    let star = AstExpr::from(ExprKind::Star);
    assert!(compile_packet_predicate(&star, &schema).is_err(), "*");
    for rejected in [
        "SELECT tb FROM PKT WHERE sum(len) > 1 GROUP BY time/1 as tb",
        "SELECT tb FROM PKT WHERE count_distinct$(*) > 1 GROUP BY time/1 as tb",
        "SELECT tb FROM PKT WHERE ssample(len, 10) = TRUE GROUP BY time/1 as tb",
        "SELECT tb FROM PKT WHERE nope > 1 GROUP BY time/1 as tb",
    ] {
        assert!(compile_packet_predicate(&where_of(rejected), &schema).is_err(), "{rejected}");
    }
}
