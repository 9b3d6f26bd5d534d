#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --all-targets -- -D warnings

echo "== cargo test (root package and every crate's unit tests) =="
# Among the root package's suites: the sharded runtime determinism suite
# (tests/sharded.rs), the exhaustive concurrency model check under the
# sso-sync `model` feature (tests/model_check.rs) and the fixed-seed
# fault-injection matrix (tests/faults.rs).
cargo test -q

echo "== benchmark smoke (every workload's oracle; traced replay == entry point) =="
# ~15 s once built: a 4 s feed through all five workloads, untraced and
# traced. An engine change that moves any workload's output fails here,
# not first in the benchmark pipeline. Timings of a --quick run mean
# nothing and are not shown.
benchmark/run.sh --quick | grep '^# '

echo "== benchmark crate tests (BENCHMARK.json == src/contract.rs; harness and statistics) =="
# The benchmark is a workspace of its own: `cargo test` at the root
# does not see it, and nothing else runs these.
(cd benchmark && cargo test --offline -q)

if [[ "${SSO_CHECK_SANITIZE:-0}" == "1" ]]; then
    echo "== sanitizer pass (opt-in: SSO_CHECK_SANITIZE=1) =="
    # Best-effort: tsan needs a nightly -Z flag and miri needs its
    # component; offline or stable-only toolchains skip gracefully.
    if rustc +nightly --version >/dev/null 2>&1; then
        if RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q -Z build-std \
            --target "$(rustc -vV | sed -n 's/^host: //p')" \
            --test model_check 2>/dev/null; then
            echo "thread sanitizer pass OK"
        else
            echo "thread sanitizer unavailable (needs nightly + rust-src); skipped"
        fi
        if cargo +nightly miri --version >/dev/null 2>&1; then
            cargo +nightly miri test -p sso-runtime -p sso-obs ||
                echo "miri run failed or unsupported; continuing"
        else
            echo "miri not installed; skipped"
        fi
    else
        echo "no nightly toolchain; sanitizer pass skipped"
    fi
fi

echo "== static audit over the example corpus (bounds certified, schema stable) =="
# `sso audit` must certify a finite memory ceiling for every example
# query with zero diagnostics (--deny-warnings), in well under 5s —
# the pass is pure abstract interpretation, nothing executes. The
# python step pins the BoundsReport JSON schema so a renamed or
# dropped field fails CI instead of silently breaking consumers.
time cargo run -q --bin sso -- audit --json --deny-warnings examples/queries.sql \
    | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
report, diags = doc["report"], doc["diagnostics"]
assert diags == [], f"audit diagnostics on the example corpus: {diags}"
for key in ("feed", "shards", "budget", "total_state_bytes", "durable", "statements"):
    assert key in report, f"BoundsReport schema drift: missing {key}"
stmt_keys = {
    "name", "stream", "sampler", "window_secs", "rows_per_sec",
    "rows_per_window", "key_cardinality", "supergroup_cardinality",
    "per_supergroup_bound", "groups_bound", "group_entry_bytes",
    "supergroup_entry_bytes", "state_bytes", "skew", "mergeable",
    "deletion_safe",
}
stmts = report["statements"]
assert stmts, "no statements audited"
for s in stmts:
    name = s.get("name", "?")
    assert set(s) == stmt_keys, "StatementBounds schema drift: %s" % (set(s) ^ stmt_keys)
    assert s["state_bytes"] is not None, "%s: unbounded state" % name
total = report["total_state_bytes"]
assert total is not None, "corpus total must be finite"
print("audit OK: %d statements, total ceiling %d bytes" % (len(stmts), total))
'

echo "== plan-rewrite optimizer over the example corpus (certificate schema stable) =="
# `sso optimize` must stay clean on the example corpus (every WHERE
# there leads with a stateful sampler, so nothing is hoistable and no
# W103/W30x may fire), in seconds — the pass is pure static analysis
# plus the re-audit, nothing executes. The python step pins the rewrite-report
# JSON schema so consumers (and the golden tests) never drift silently.
time cargo run -q --bin sso -- optimize --json --deny-warnings examples/queries.sql \
    | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert set(doc) == {"report", "diagnostics"}, set(doc)
report, diags = doc["report"], doc["diagnostics"]
assert diags == [], f"optimize diagnostics on the example corpus: {diags}"
assert set(report) == {"statements", "skipped", "clusters", "certificate", "shared", "reaudit"}, (
    "rewrite report schema drift: %s" % set(report))
skipped = report["skipped"]
assert skipped == [], f"skipped statements: {skipped}"
for c in report["clusters"]:
    assert set(c) == {"stream", "members", "shared_prefilter", "groups"}, set(c)
    for g in c["groups"]:
        assert set(g) == {"statements", "hash", "canonical", "mergeable", "blocked"}, set(g)
cert = report["certificate"]
assert set(cert) == {"checksum", "steps"}, set(cert)
for s in cert["steps"]:
    assert set(s) == {"rule", "statements", "before", "after", "side_conditions"}, set(s)
assert cert["steps"] == [], "example corpus must not be rewritten (stateful prefilters)"
assert report["shared"] == [], "no shared plans expected on the example corpus"
re = report["reaudit"]
assert set(re) == {"ok", "total_state_bytes", "statements"}, set(re)
assert re["ok"], "re-audit failed on the example corpus"
print("optimize OK: %d statements, %d clusters, re-audit ok"
      % (report["statements"], len(report["clusters"])))
'

echo "== sso --shards smoke run =="
cargo run -q --bin sso -- --feed research --seconds 2 --shards 4 \
    "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb" >/dev/null

echo "== flat-memory smoke (sharded run on a 10x longer feed, <20 s) =="
# ROADMAP item 2's gate: the sharded runtime streams its feed, so peak
# RSS may grow with the feed only by what the CLI itself holds — its
# Vec<Packet>, ~32 B/packet. A materialised Vec<Tuple> costs ~240
# B/packet. ru_maxrss of a waited child is its VmHWM (KiB); it is read
# after the short run and again after the long one, whose peak is the
# larger.
cargo build -q --release --bin sso
python3 -c '
import resource, subprocess
def run(seconds):
    subprocess.run(
        ["target/release/sso", "run", "--feed", "datacenter", "--seconds", str(seconds),
         "--shards", "2", "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb"],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
short, long = run(5), run(50)
packets = 45 * 100_000  # ~100k packets/s on the datacenter feed
per_packet = (long - short) * 1024 / packets
print(f"peak RSS {short / 1024:.0f} MiB at 5 s, {long / 1024:.0f} MiB at 50 s: "
      f"{per_packet:.1f} B per extra packet")
assert per_packet <= 64, f"peak RSS grows {per_packet:.0f} B per extra packet (limit 64)"
'

echo "== sso run --metrics smoke (JSON validity) =="
cargo run -q --bin sso -- run --metrics - --seconds 2 --json \
    "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb" \
    | python3 -c '
import json, sys
data = sys.stdin.read()
idx = data.rfind("{\"snapshots\"")
assert idx >= 0, "no snapshots document in --metrics output"
doc = json.loads(data[idx:])
assert doc["snapshots"], "empty snapshot series"
windows = data[:idx].strip().splitlines()
for line in windows:
    json.loads(line)  # every window record is one valid JSON line
snaps = doc["snapshots"]
# One snapshot per window a later tuple closed, plus the final one,
# which covers the window the end-of-stream flush closed.
assert len(snaps) == len(windows), f"{len(snaps)} snapshots for {len(windows)} windows"
last = len(snaps[-1]["metrics"])
print(f"metrics smoke OK: {len(snaps)} snapshots, last has {last} metrics")
'

echo "== sso router-panic smoke (fixed seed, degraded run completes) =="
# A seeded plan panics one of two router lanes mid-stream (lane-local
# trip index); the run must survive with exactly one coverage-tagged
# degraded window rather than dying with the router.
RSMOKE="$(mktemp -d)"
printf 'panic router=1 at=10000\n' > "$RSMOKE/plan.txt"
cargo run -q --bin sso -- run --feed research --seconds 4 --shards 4 \
    --routers 2 --fault-plan "$RSMOKE/plan.txt" --json \
    "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb" \
    2>/dev/null \
    | python3 -c '
import json, sys
rows = [json.loads(l) for l in sys.stdin if l.strip()]
assert rows, "no window records"
deg = [r for r in rows if r["degraded"]]
assert len(deg) == 1, f"expected exactly one degraded window, got {len(deg)}"
assert all(0.0 < r["coverage"] < 1.0 for r in deg), deg
cov = deg[0]["coverage"]
print(f"router-panic smoke OK: {len(rows)} windows, 1 degraded (coverage {cov:.2f})")
'
rm -rf "$RSMOKE"

echo "== sso --fault-seed smoke (degraded run completes) =="
# A seeded plan panics one shard mid-stream; the run must complete and
# report per-window coverage in its JSON output.
cargo run -q --bin sso -- run --feed research --seconds 4 --shards 8 \
    --fault-seed 7 --json \
    "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb" \
    | python3 -c '
import json, sys
rows = [json.loads(l) for l in sys.stdin if l.strip()]
assert rows, "no window records"
assert all("coverage" in r and "degraded" in r for r in rows), "missing coverage tags"
deg = sum(1 for r in rows if r["degraded"])
print(f"fault smoke OK: {len(rows)} windows, {deg} degraded")
'

echo "== crash-recovery smoke (durable store, resumed run matches fault-free) =="
# A durable 4-shard run is killed mid-stream by an injected crash
# fault; `sso recover` over the same store must reproduce the
# fault-free run's JSON output byte-for-byte.
STORE="$(mktemp -d)"
SMOKE_QUERY="SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb"
cargo run -q --bin sso -- run --feed research --seconds 4 --shards 4 --json \
    "$SMOKE_QUERY" > "$STORE/baseline.json"
printf 'crash at=20000\n' > "$STORE/plan.txt"
if cargo run -q --bin sso -- run --feed research --seconds 4 --shards 4 --json \
    --durable "$STORE/store" --fault-plan "$STORE/plan.txt" \
    "$SMOKE_QUERY" > /dev/null 2> "$STORE/crash.err"; then
    echo "the injected crash did not kill the durable run"; exit 1
fi
grep -q "injected crash fired" "$STORE/crash.err"
cargo run -q --bin sso -- recover --json --metrics="$STORE/metrics.json" "$STORE/store" \
    > "$STORE/recovered.json"
diff "$STORE/baseline.json" "$STORE/recovered.json"
# The log is the shard's only durable file, and the store's byte count
# is its size: what the crashed run left plus what the resumed one added.
python3 - "$STORE" <<'PY'
import glob, json, os, sys
store = os.path.join(sys.argv[1], "store")
stray = glob.glob(os.path.join(store, "*.ckpt*"))
assert not stray, f"checkpoint files in the store directory: {stray}"
last = json.load(open(os.path.join(sys.argv[1], "metrics.json")))["snapshots"][-1]["metrics"]
counted = {m["label"]: m["value"] for m in last if m["metric"] == "store.wal_bytes"}
logs = sorted(glob.glob(os.path.join(store, "shard-*.wal")))
assert len(logs) == 4 == len(counted), f"{len(logs)} logs, {len(counted)} store.wal_bytes gauges"
for log in logs:
    shard = os.path.basename(log)[len("shard-"):-len(".wal")]
    size = os.path.getsize(log)
    assert counted[f"shard={shard}"] == size, \
        f"{log}: {size} bytes on disk, store.wal_bytes says {counted[f'shard={shard}']}"
print(f"store layout OK: {len(logs)} logs, no checkpoint files, sizes match store.wal_bytes")
PY
echo "recovery smoke OK: recovered output identical to fault-free run"
rm -rf "$STORE"

echo "== fault-tolerance overhead gate (supervision within 5%) =="
cargo run -q --release -p sso-bench --bin fault_overhead -- --json > BENCH_faults.json
python3 -c '
import json
r = json.load(open("BENCH_faults.json"))
pct = r["overhead_pct"]
sup = r["supervised"]["tuples_per_sec"]
base = r["baseline"]["tuples_per_sec"]
print(f"supervision overhead: {pct:.2f}% ({sup:.0f} vs {base:.0f} tuples/s)")
assert pct <= 5.0, f"supervision overhead {pct:.2f}% exceeds the 5% budget"
'

echo "== runtime scaling gate (multi-router, no speedup inversion) =="
# Re-measures the 1/2/4/8-shard curve with `--routers auto` into
# BENCH_runtime.json, every configuration as the median and quartiles
# of its interleaved repetitions. While shards fit within the host's
# cores the speedup must be monotonically non-decreasing (the
# single-router inversion this curve used to show is gone); past the
# host's cores the extra shards cannot physically run in parallel, so
# the gate bounds the oversubscription cost instead: a step fails if it
# loses more than 10% plus the two configurations' interquartile ranges
# (a fixed 10% on single best-of-N numbers failed on the host's noise).
# Every speedup is a ratio to the 1-shard sharded run.
cargo run -q --release -p sso-bench --bin runtime_scaling -- --routers auto --json \
    > BENCH_runtime.json
python3 -c '
import json
r = json.load(open("BENCH_runtime.json"))
cores = r["config"]["host_cores"]
assert r["exact_drift_windows"] == 0, "sharded exact query drifted"
sharded = [run for run in r["runs"] if run["mode"] == "sharded"]
sharded.sort(key=lambda run: run["shards"])
assert [run["shards"] for run in sharded] == [1, 2, 4, 8], sharded
for run in sharded:
    n, err = run["shards"], run["max_estimate_err_pct"]
    assert run["dropped"] == 0, f"{n} shards dropped tuples"
    assert err <= 5.0, f"{n} shards: estimate err {err:.2f}%"
for prev, cur in zip(sharded, sharded[1:]):
    s_prev, s_cur = prev["speedup_vs_1shard"], cur["speedup_vs_1shard"]
    n_prev, n_cur = prev["shards"], cur["shards"]
    if n_cur <= cores:
        assert s_cur >= s_prev * 0.98, (
            f"speedup inversion inside the parallel range: "
            f"{n_prev}sh {s_prev:.2f}x -> {n_cur}sh {s_cur:.2f}x")
    else:
        iqrs = sum((run["secs_q3"] - run["secs_q1"]) / run["secs"] for run in (prev, cur))
        assert s_cur >= s_prev * (0.90 - iqrs), (
            f"oversubscription cost beyond {cores} cores exceeds 10% plus the IQRs ({iqrs:.1%}): "
            f"{n_prev}sh {s_prev:.2f}x -> {n_cur}sh {s_cur:.2f}x")
curve = " -> ".join(
    "{}sh {:.2f}x".format(run["shards"], run["speedup_vs_1shard"]) for run in sharded)
print(f"runtime scaling OK ({cores} cores): {curve}")
'

echo "== durable-store overhead gate (shard log within 5%) =="
cargo run -q --release -p sso-bench --bin store_overhead -- --json > BENCH_store.json
python3 -c '
import json
r = json.load(open("BENCH_store.json"))
gated = r["gated"]
pct = gated["overhead_pct"]
dur = gated["durable"]["tuples_per_sec"]
base = gated["baseline"]["tuples_per_sec"]
print(f"durable-store overhead: {pct:.2f}% ({dur:.0f} vs {base:.0f} tuples/s)")
# Ungated: the gated shape logs 4 windows of ~250 rows per shard, too
# little to see the write path of the store; this one is shaped like
# the ss_durable workload of benchmark/, where the store matters.
big = r["ss_durable_shaped"]
print("  ungated, ss_durable-shaped ({} s windows, {} samples, {} windows): {:.2f}% ({:.0f} vs {:.0f} tuples/s)".format(
    big["config"]["window_secs"], big["config"]["target_samples"], big["durable"]["windows"],
    big["overhead_pct"], big["durable"]["tuples_per_sec"], big["baseline"]["tuples_per_sec"]))
assert pct <= 5.0, f"durable-store overhead {pct:.2f}% exceeds the 5% budget"
'

echo "== observability overhead gate (instrumented within 5%) =="
cargo run -q --release -p sso-bench --bin obs_overhead -- --json > BENCH_obs.json
python3 -c '
import json
r = json.load(open("BENCH_obs.json"))
pct = r["overhead_pct"]
instr = r["instrumented"]["tuples_per_sec"]
plain = r["uninstrumented"]["tuples_per_sec"]
print(f"telemetry overhead: {pct:.2f}% ({instr:.0f} vs {plain:.0f} tuples/s)")
assert pct <= 5.0, f"telemetry overhead {pct:.2f}% exceeds the 5% budget"
'

echo "== profiling overhead gate (causal tracing within 5%) =="
# Also records the measured 8-shard stage attribution (ROADMAP item 1:
# where does the time go as shards scale?) alongside the gate numbers.
cargo run -q --release -p sso-bench --bin profile_overhead -- --json > BENCH_profile.json
python3 -c '
import json
r = json.load(open("BENCH_profile.json"))
pct = r["overhead_pct"]
prof = r["profiled"]["tuples_per_sec"]
plain = r["unprofiled"]["tuples_per_sec"]
a = r["attribution_8shard"]
dominant = a["dominant_stage"]
router = a["router_share_pct"]
shares = {s["stage"]: s["share_pct"] for s in a["stages"]}
ing, proc = shares["ingest"], shares["process"]
print(f"profiling overhead: {pct:.2f}% ({prof:.0f} vs {plain:.0f} tuples/s)")
print(f"8-shard attribution: dominant={dominant} router={router:.1f}% "
      f"ingest={ing:.1f}% process={proc:.1f}%")
assert pct <= 5.0, f"profiling overhead {pct:.2f}% exceeds the 5% budget"
assert a["dominant_stage"], "attribution must name a dominant stage"
assert a["dropped_events"] == 0, "trace lanes wrapped during the bench"
# The multi-router restructure moved the wall off the ingest thread:
# routing must cost less than the workers combined operator work.
assert ing < proc, (
    f"ingest share {ing:.1f}% not below workers process share {proc:.1f}%")
'

echo "== multi-query sharing gate (shared never slower, output identical) =="
# The §7.1 simultaneous-query workload: 16 near-identical queries in 4
# share groups. The optimizer's shared plan (one hoisted prefilter + 4
# deduplicated operators) must produce byte-identical windows and must
# never be slower than running all 16 operators unshared.
cargo run -q --release -p sso-bench --bin multiquery_sharing -- --json > BENCH_rewrite.json
python3 -c '
import json
r = json.load(open("BENCH_rewrite.json"))
speedup = r["speedup"]
shared = r["shared"]["tuples_per_sec"]
unshared = r["unshared"]["tuples_per_sec"]
print(f"sharing speedup: {speedup:.2f}x ({shared:.0f} vs {unshared:.0f} tuples/s)")
assert r["identical"], "shared execution output diverged from unshared"
assert speedup >= 1.0, f"shared execution slower than unshared: {speedup:.2f}x"
'

echo "== sso --profile smoke (chrome trace schema) =="
PROF="$(mktemp -d)"
cargo run -q --bin sso -- --feed research --seconds 2 --shards 4 \
    --profile="$PROF/flight.ssoprof" \
    "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb" >/dev/null
test -s "$PROF/flight.ssoprof"
cargo run -q --bin sso -- trace --chrome "$PROF/trace.json" "$PROF" >/dev/null
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["displayTimeUnit"] == "ms", "chrome trace must set displayTimeUnit"
evs = doc["traceEvents"]
assert evs, "empty chrome trace"
phases = {e["ph"] for e in evs}
assert phases <= {"M", "X"}, f"unexpected phases: {phases}"
for e in evs:
    for key in ("name", "ph", "pid", "tid"):
        assert key in e, f"trace event missing {key}: {e}"
    if e["ph"] == "X":
        assert "ts" in e and "dur" in e, f"complete event missing ts/dur: {e}"
names = {e["args"]["name"] for e in evs if e["ph"] == "M"}
assert any(n.startswith("router") for n in names), names
assert any(n.startswith("worker") for n in names), names
xs = sum(1 for e in evs if e["ph"] == "X")
print(f"chrome trace OK: {xs} complete events across {len(names)} lanes")
' "$PROF/trace.json"
rm -rf "$PROF"

echo "All checks passed."
