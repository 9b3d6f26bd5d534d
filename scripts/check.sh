#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc (workspace crates, warnings are errors) =="
# Broken, private and redundant intra-doc links fail here. The vendored
# crates under vendor/ are excluded: their docs are not this project's.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps \
    --exclude proptest --exclude rand --exclude rustc-hash \
    --exclude serde --exclude serde_derive --exclude serde_json

echo "== cargo test (root package and every crate's unit tests) =="
# Among the root package's suites: the sharded runtime determinism suite
# (tests/sharded.rs), the exhaustive concurrency model check under the
# sso-sync `model` feature (tests/model_check.rs), the fixed-seed
# fault-injection matrix (tests/faults.rs) and the CLI's JSON documents
# read back through the vendored serde_json (tests/json.rs: `--metrics`
# one snapshot per window, `--profile` dumps as Chrome traces).
cargo test -q

echo "== benchmark lock file is current (no dependency change rewrites it) =="
# The benchmark builds the library crates against its own
# benchmark/Cargo.lock, and benchmark/run.sh would rewrite that file
# silently when any crate's dependency list changes. --locked makes
# such a change fail here (exit 101) instead.
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml >/dev/null

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

echo "== static audit over the example corpus (bounds certified) =="
# `sso audit` must certify a finite memory ceiling for every example
# query with zero diagnostics (--deny-warnings), in well under 5s —
# the pass is pure abstract interpretation, nothing executes. Its JSON
# schema is pinned by tests/audit.rs.
time cargo run -q --bin sso -- audit --json --deny-warnings examples/queries.sql >/dev/null

echo "== plan-rewrite optimizer over the example corpus (no rewrite, re-audit ok) =="
# `sso optimize` must stay clean on the example corpus (every WHERE
# there leads with a stateful sampler, so nothing is hoistable and no
# W103/W30x may fire), in seconds — pure static analysis plus the
# re-audit, nothing executes. Its JSON schema is pinned by
# tests/audit.rs.
time cargo run -q --bin sso -- optimize --json --deny-warnings examples/queries.sql >/dev/null

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

echo "== sso router-panic smoke (fixed seed, degraded run completes) =="
# A seeded plan panics the router mid-stream (stream-position trip
# index); the run must survive with exactly one coverage-tagged
# degraded window rather than dying with the router.
RSMOKE="$(mktemp -d)"
printf 'panic router=0 at=10000\n' > "$RSMOKE/plan.txt"
cargo run -q --bin sso -- run --feed research --seconds 4 --shards 4 \
    --fault-plan "$RSMOKE/plan.txt" --profile="$RSMOKE/flight.ssoprof" --json \
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
# The run's flight recording names the router panic as its trigger, and
# a torn copy of it is a decode error (exit 1), not an abort.
TRACE="$(cargo run -q --bin sso -- trace "$RSMOKE/flight.ssoprof")"
grep -q 'reason=panic' <<<"$TRACE" || { echo "trace does not name reason panic"; exit 1; }
head -c "$(($(wc -c < "$RSMOKE/flight.ssoprof") / 2))" "$RSMOKE/flight.ssoprof" \
    > "$RSMOKE/torn.ssoprof"
status=0
cargo run -q --bin sso -- trace "$RSMOKE/torn.ssoprof" > /dev/null 2> "$RSMOKE/torn.err" || status=$?
if [[ $status -ne 1 ]] || ! grep -q '^error:' "$RSMOKE/torn.err"; then
    echo "sso trace on a torn dump: exit $status, want 1 and an error: line"; exit 1
fi
echo "flight-recorder smoke OK: reason panic; a torn dump exits 1"
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
# fault-free run's JSON output byte-for-byte. Run for an aggregate and
# for the subset-sum query of examples/queries.sql (with `time/1`
# windows), whose WHERE the shards decide a run of tuples at a time.
crash_and_recover() {
SMOKE_QUERY="$1"
STORE="$(mktemp -d)"
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
}
crash_and_recover "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb"
crash_and_recover "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS \
WHERE ssample(len, 100) = TRUE \
GROUP BY time/1 as tb, srcIP, destIP, uts \
HAVING ssfinal_clean(sum(len), count_distinct\$(*)) = TRUE \
CLEANING WHEN ssdo_clean(count_distinct\$(*)) = TRUE \
CLEANING BY ssclean_with(sum(len)) = TRUE"

echo "== examples (each once, release; a non-zero exit fails) =="
# `cargo test` compiles examples/ but runs none of them. ~30 s on the
# 2-core reference host, building them included.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "$name"
    cargo run -q --release --example "$name" > /dev/null
done

echo "== overhead driver (each mechanism against its baseline, scaling, sharing) =="
# One driver and one rule: every arm is the median of round-robin
# repetitions, and an arm fails when it loses more than 5 % of its
# baseline's throughput plus both arms' IQR/median. A scaling step is
# gated only where pump + one worker per shard fit the host's cores.
# The driver also checks exact-query drift, estimate error, drops,
# shared == unshared output and the 8-shard stage attribution, prints
# its table on stderr, writes BENCH.json and exits 1 on any failure.
cargo run -q --release -p sso-bench --bin overhead -- --json > BENCH.json

echo "All checks passed."
