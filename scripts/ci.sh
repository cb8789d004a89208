#!/usr/bin/env bash
# Tier-1 verification: format, build, test, lint, document, and perf-smoke
# the workspace (crates/bench stays out of the default build/test set; its
# smoke bench is invoked explicitly below). Run from anywhere; works fully
# offline.
set -euo pipefail

die() {
    echo "ci.sh: error: $*" >&2
    exit 1
}

command -v cargo > /dev/null 2>&1 \
    || die "cargo not found on PATH — install a Rust toolchain (rustup.rs) first"

workspace="$(cd "$(dirname "$0")/.." 2> /dev/null && pwd)" \
    || die "cannot resolve the workspace directory from $0"
[ -f "$workspace/Cargo.toml" ] \
    || die "$workspace does not look like the workspace root (no Cargo.toml)"
cd "$workspace"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

# The pipeline must be bit-deterministic across thread counts (DESIGN.md §9):
# run the whole suite serially and again with the 4-worker default, so every
# test — not just the dedicated parity ones — exercises both schedules.
for threads in 1 4; do
    echo "==> cargo test -q (PM_THREADS=$threads)"
    PM_THREADS=$threads cargo test -q
done

# The online path must likewise be shard-count independent (DESIGN.md §15):
# the stream, serve, and motif suites run once inline (PM_SHARDS=1) and once
# fanned across 8 user-keyed shards, so every ingest/serve/live-motif test —
# not just the dedicated parity ones — exercises both layouts.
for shards in 1 8; do
    echo "==> cargo test -q -p pm-stream -p pm-serve -p pm-motif (PM_SHARDS=$shards)"
    PM_SHARDS=$shards cargo test -q -p pm-stream -p pm-serve -p pm-motif
done

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# pm-bench is outside the default members, so the step above skips it and
# the bench steps below build only the benches they run: lint all of its
# targets here so none of them rots unbuilt.
echo "==> cargo clippy -p pm-bench --all-targets -- -D warnings"
cargo clippy -p pm-bench --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

# Golden-digest gate: every perfbench run checks the artifacts it mines and
# the answers it reads against known-good digests (SERVED_DIGEST,
# READ_DIGEST in perfbench/src/world.rs) and reports "correct": false on
# any difference. One short run per workload, with the command
# BENCHMARK.json declares, so a change to what the program mines, streams
# or answers fails here rather than only in the benchmark pipeline.
for workload in mine ingest serve; do
    echo "==> perfbench --workload $workload --seed 1 --seconds 1 (golden digests)"
    perfbench_out="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml \
        -- --workload "$workload" --seed 1 --seconds 1 --trace 0)" \
        || die "perfbench $workload exited with an error"
    grep -q '"correct": true' <<< "$perfbench_out" \
        || die "perfbench $workload: outputs differ from the golden digests: $perfbench_out"
    grep -Eq '"failed": 0[,}]' <<< "$perfbench_out" \
        || die "perfbench $workload: operations failed: $perfbench_out"
done

# --- Bench metric plumbing ---------------------------------------------------
# Reads one metric out of a BENCH_pipeline.json document as real JSON (the
# old line-anchored sed broke the moment the emitter reflowed a line, and
# broke *silently* — the comparison just vanished). Selectors:
#   bench_metric FILE stages NAME FIELD   -> .stages[name == NAME].FIELD
#   bench_metric FILE serve  NAME FIELD   -> .serve.endpoints[name == NAME].FIELD
#   bench_metric FILE SECTION -    FIELD  -> .SECTION.FIELD
# Prints the value; returns non-zero (with a stderr diagnostic) when the
# document is unreadable or the path is absent.
bench_metric() {
    python3 - "$1" "$2" "$3" "$4" <<'PY'
import json, sys
path, section, name, field = sys.argv[1:5]
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"bench_metric: {path}: unreadable JSON: {e}", file=sys.stderr)
    sys.exit(2)
try:
    if section == "stages":
        value = next(s[field] for s in doc["stages"] if s.get("name") == name)
    elif section == "serve":
        value = next(e[field] for e in doc["serve"]["endpoints"] if e.get("name") == name)
    else:
        value = doc[section][field]
except (KeyError, StopIteration, TypeError):
    print(f"bench_metric: {path}: no {section}/{name}/{field}", file=sys.stderr)
    sys.exit(3)
print(value)
PY
}

# The committed report is the baseline; materialize it BEFORE the benches
# overwrite the working copy. A missing python3 disables every comparison
# below — loudly, not silently.
baseline_json="$workspace/target/ci-bench-baseline.json"
mkdir -p "$workspace/target"
have_baseline=0
if ! command -v python3 > /dev/null 2>&1; then
    echo "ci.sh: WARNING: python3 not found — bench baseline comparisons disabled" >&2
elif git show HEAD:BENCH_pipeline.json > "$baseline_json" 2> /dev/null; then
    have_baseline=1
else
    echo "    no committed BENCH_pipeline.json at HEAD — baseline comparisons skipped"
fi

# Baseline metrics up front, so a malformed committed report dies here with
# a diagnostic instead of quietly skipping the regression guards.
if [ "$have_baseline" = 1 ]; then
    baseline_extract="$(bench_metric "$baseline_json" stages extract median_ms)" \
        || die "committed BENCH_pipeline.json lacks the extract stage median — \
rerun 'cargo bench -p pm-bench --bench pipeline' and commit the report"
    baseline_ingest="$(bench_metric "$baseline_json" ingest - fixes_per_sec)" \
        || die "committed BENCH_pipeline.json lacks ingest fixes_per_sec — \
rerun 'cargo bench -p pm-bench --bench ingest_throughput' and commit the report"
fi

# The bench crate is outside the default test set; its report writer, which
# every bench below goes through, has tests of its own.
echo "==> cargo test -q -p pm-bench --lib"
cargo test -q -p pm-bench --lib

# Perf smoke: the whole-pipeline bench in quick mode (seconds, not minutes).
# Its BENCH_pipeline.json is the per-commit performance record CI archives.
# Cargo runs bench binaries from the package directory, so pin the output
# to the workspace root explicitly.
echo "==> cargo bench -p pm-bench --bench pipeline (PM_BENCH_SMOKE=1)"
# Each bench upserts its own section and keeps the rest, so start from an
# empty report: every section checked below must then come from this run.
rm -f BENCH_pipeline.json
# PM_BENCH_FULL is pinned off here: full mode takes precedence inside the
# bench, and a CI environment exporting PM_BENCH_FULL=1 must not turn the
# smoke run into a second full run (the gated step below handles full).
PM_BENCH_FULL=0 PM_BENCH_SMOKE=1 PM_BENCH_OUT="$workspace/BENCH_pipeline.json" \
    cargo bench -p pm-bench --bench pipeline
grep -q '"mode": "smoke"' BENCH_pipeline.json \
    || die "bench smoke did not write smoke stages to BENCH_pipeline.json"

# Perf regression guard. Warning only — never a failure: CI runners are
# shared and noisy, and a red build over a timing blip would teach people
# to ignore red builds. A real regression shows up as the warning
# persisting across commits.
if [ "$have_baseline" = 1 ]; then
    new_extract="$(bench_metric BENCH_pipeline.json stages extract median_ms)" \
        || die "pipeline bench wrote no extract stage median to BENCH_pipeline.json"
    if awk -v n="$new_extract" -v b="$baseline_extract" 'BEGIN { exit !(n > b * 1.2) }'; then
        echo "ci.sh: WARNING: smoke extract median $new_extract ms is >20% slower" \
            "than the committed baseline $baseline_extract ms" >&2
    else
        echo "    extract median $new_extract ms (committed baseline $baseline_extract ms)"
    fi
fi

# Serve smoke: keep-alive round trips per endpoint of the perfbench read
# mix (plus /healthz), recorded in the same report.
echo "==> cargo bench -p pm-bench --bench serve_latency (PM_BENCH_SMOKE=1)"
PM_BENCH_SMOKE=1 PM_BENCH_OUT="$workspace/BENCH_pipeline.json" \
    cargo bench -p pm-bench --bench serve_latency
grep -q '"serve"' BENCH_pipeline.json \
    || die "serve bench did not record its section in BENCH_pipeline.json"

# Ingest smoke: streaming fixes through POST /v1/ingest, same report.
echo "==> cargo bench -p pm-bench --bench ingest_throughput (PM_BENCH_SMOKE=1)"
PM_BENCH_SMOKE=1 PM_BENCH_OUT="$workspace/BENCH_pipeline.json" \
    cargo bench -p pm-bench --bench ingest_throughput
grep -q '"ingest"' BENCH_pipeline.json \
    || die "ingest bench did not record its section in BENCH_pipeline.json"

# Throughput regression guard for the streaming path — non-fatal, like the
# extract guard above (higher is better here, so the alarm is a *drop*).
# `fixes_per_sec` is the median of the bench's 25 replays, not one ~2 ms
# sample; the slowest and fastest replays are printed for context.
if [ "$have_baseline" = 1 ]; then
    new_ingest="$(bench_metric BENCH_pipeline.json ingest - fixes_per_sec)" \
        || die "ingest bench wrote no fixes_per_sec to BENCH_pipeline.json"
    ingest_min="$(bench_metric BENCH_pipeline.json ingest - fixes_per_sec_min)" \
        || die "ingest bench wrote no fixes_per_sec_min to BENCH_pipeline.json"
    ingest_max="$(bench_metric BENCH_pipeline.json ingest - fixes_per_sec_max)" \
        || die "ingest bench wrote no fixes_per_sec_max to BENCH_pipeline.json"
    if awk -v n="$new_ingest" -v b="$baseline_ingest" 'BEGIN { exit !(n < b * 0.8) }'; then
        echo "ci.sh: WARNING: smoke ingest median $new_ingest fixes/s is >20% below" \
            "the committed baseline $baseline_ingest fixes/s" >&2
    else
        echo "    ingest median $new_ingest fixes/s [$ingest_min, $ingest_max]" \
            "(committed baseline $baseline_ingest fixes/s)"
    fi
fi

# Motif smoke: batch motif mining (day graphs -> canonical forms -> ranked
# table), recorded in the same report.
echo "==> cargo bench -p pm-bench --bench motif_bench (PM_BENCH_SMOKE=1)"
PM_BENCH_SMOKE=1 PM_BENCH_OUT="$workspace/BENCH_pipeline.json" \
    cargo bench -p pm-bench --bench motif_bench
grep -q '"motifs"' BENCH_pipeline.json \
    || die "motif bench did not record its section in BENCH_pipeline.json"

# Cohort smoke: per-user embedding, cohort clustering, and similar-user
# queries (pruned cohort scope vs exact scan), recorded in the same report.
echo "==> cargo bench -p pm-bench --bench cohort_bench (PM_BENCH_SMOKE=1)"
PM_BENCH_SMOKE=1 PM_BENCH_OUT="$workspace/BENCH_pipeline.json" \
    cargo bench -p pm-bench --bench cohort_bench
grep -q '"cohorts"' BENCH_pipeline.json \
    || die "cohort bench did not record its section in BENCH_pipeline.json"

# Loadgen smoke: the sharded-ingest load generator (shards=8), recorded in
# the same report. No smoke-vs-committed delta is computed — the ingest
# guard above covers throughput regressions. The run must time the
# transition window too: every user's last dwell has to close, so a
# section with zero transitions fails.
echo "==> cargo bench -p pm-bench --bench loadgen (PM_BENCH_SMOKE=1)"
PM_BENCH_SMOKE=1 PM_BENCH_OUT="$workspace/BENCH_pipeline.json" \
    cargo bench -p pm-bench --bench loadgen
grep -q '"loadgen"' BENCH_pipeline.json \
    || die "loadgen bench did not record its section in BENCH_pipeline.json"
loadgen_transitions="$(bench_metric BENCH_pipeline.json loadgen - transitions)" \
    || die "loadgen bench recorded no transitions count"
[ "$loadgen_transitions" -gt 0 ] \
    || die "loadgen bench emitted 0 transitions — the transition window went untimed"

# Bench comparison table — markdown for the GitHub Actions step summary
# when running under Actions, plain stdout otherwise. Latencies alarm when
# slower than baseline; throughputs when faster is *lost*.
if [ "$have_baseline" = 1 ]; then
    summary_table() {
        echo ""
        echo "### Bench smoke vs committed baseline"
        echo ""
        echo "| metric | baseline | current | delta |"
        echo "|---|---:|---:|---:|"
        # metric selector-args unit direction
        for row in \
            "construct (csd_build)|stages csd_build median_ms|ms|lower" \
            "recognize|stages recognize median_ms|ms|lower" \
            "extract|stages extract median_ms|ms|lower" \
            "serve /v1/patterns|serve patterns median_ms|ms|lower" \
            "serve /v1/users/:id/similar|serve user_similar median_ms|ms|lower" \
            "serve /v1/live/patterns|serve live_patterns median_ms|ms|lower" \
            "ingest|ingest - fixes_per_sec|fixes/s|higher" \
            "motif mining|motifs - build_ms|ms|lower" \
            "cohort clustering|cohorts - cluster_ms|ms|lower" \
            "similar query p50 (cohort scope)|cohorts - cohort_scope_p50_ms|ms|lower"; do
            label="${row%%|*}"
            rest="${row#*|}"
            selector="${rest%%|*}"
            rest="${rest#*|}"
            unit="${rest%%|*}"
            direction="${rest#*|}"
            # shellcheck disable=SC2086 # selector is a fixed 3-word list
            old="$(bench_metric "$baseline_json" $selector 2> /dev/null)" || old=""
            # shellcheck disable=SC2086
            new="$(bench_metric BENCH_pipeline.json $selector 2> /dev/null)" || new=""
            if [ -n "$old" ] && [ -n "$new" ]; then
                delta="$(awk -v n="$new" -v b="$old" -v dir="$direction" 'BEGIN {
                    if (b == 0) { print "n/a"; exit }
                    pct = (n - b) / b * 100
                    worse = (dir == "lower") ? (pct > 0) : (pct < 0)
                    printf "%s%.1f%%%s", (pct >= 0 ? "+" : ""), pct, (worse ? " ⚠" : "")
                }')"
                echo "| $label | $old $unit | $new $unit | $delta |"
            else
                echo "| $label | n/a | ${new:-n/a} $unit | n/a |"
            fi
        done
        echo ""
    }
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        summary_table >> "$GITHUB_STEP_SUMMARY"
        echo "    bench comparison table written to the Actions step summary"
    else
        summary_table
    fi
fi

# Rust lines per crate, next to the bench table: deleting code is progress
# too, and this makes it visible. The delta is against the parent commit,
# when the checkout has one (a depth-1 clone does not).
lines_table() {
    local have_parent=0 dir lines delta
    git rev-parse -q --verify HEAD~1 > /dev/null && have_parent=1
    echo ""
    echo "### Rust lines per crate"
    echo ""
    echo "| crate | lines | vs parent commit |"
    echo "|---|---:|---:|"
    for dir in crates/*/ shims/*/ tests/ examples/ perfbench/; do
        dir="${dir%/}"
        [ -d "$dir" ] || continue
        lines="$(find "$dir" -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l)"
        delta="n/a"
        if [ "$have_parent" = 1 ]; then
            delta="$(git diff --numstat --no-renames HEAD~1 -- "$dir" \
                | awk '$3 ~ /\.rs$/ { d += $1 - $2 } END { printf "%+d", d }')"
        fi
        echo "| $dir | $lines | $delta |"
    done
    echo ""
}
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    lines_table >> "$GITHUB_STEP_SUMMARY"
    echo "    per-crate line counts written to the Actions step summary"
else
    lines_table
fi

# Full-scale pipeline section: evaluation-scale stage medians recorded in
# the same report, so the per-commit record tracks both scales. Minutes,
# not seconds — opt-in via PM_BENCH_FULL=1 (the CI workflow sets it).
if [ "${PM_BENCH_FULL:-0}" = "1" ]; then
    echo "==> cargo bench -p pm-bench --bench pipeline (PM_BENCH_FULL=1)"
    PM_BENCH_FULL=1 PM_BENCH_OUT="$workspace/BENCH_pipeline.json" \
        cargo bench -p pm-bench --bench pipeline
    grep -q '"full"' BENCH_pipeline.json \
        || die "full-mode bench did not record its section in BENCH_pipeline.json"
else
    echo "==> full-scale pipeline bench skipped (set PM_BENCH_FULL=1 to run)"
fi

# Artifact round trip: mine the committed example data into a pm-store
# artifact twice — one pass writes the CSD, patterns, motifs and cohorts —
# and demand byte-identical stdout AND artifact bytes, then prove the
# artifact reloads, re-serializes byte-identically and reports both
# optional sections. The serve smoke below boots from this artifact, so
# /v1/motifs and the cohort endpoints answer from real tables.
echo "==> artifact round trip (mine --artifact twice + artifact-check)"
artifact="$workspace/target/ci-city.pmstore"
mine_examples() {
    cargo run --release -q -p pm-cli -- mine \
        --pois examples/data/pois.csv --journeys examples/data/journeys.csv \
        --lenient --sigma 20 --top 5 --artifact "$1" > "$2"
}
rm -f "$artifact" "$workspace/target/ci-city-2.pmstore"
mine_examples "$artifact" "$workspace/target/ci-mine-1.txt"
[ -s "$artifact" ] || die "mine --artifact wrote nothing"
mine_examples "$workspace/target/ci-city-2.pmstore" "$workspace/target/ci-mine-2.txt"
cmp -s "$workspace/target/ci-mine-1.txt" "$workspace/target/ci-mine-2.txt" \
    || die "mine output differs across identical runs"
cmp -s "$artifact" "$workspace/target/ci-city-2.pmstore" \
    || die "mined artifact differs across identical runs"
grep -q 'motif classes over' "$workspace/target/ci-mine-1.txt" \
    || die "mine reported no motif table"
grep -q 'users in' "$workspace/target/ci-mine-1.txt" \
    || die "mine reported no cohort table"
cargo run --release -q -p pm-cli -- artifact-check "$artifact" \
    | tee "$workspace/target/ci-artifact-check.txt"
grep -q 'optional sections: motifs, cohorts' "$workspace/target/ci-artifact-check.txt" \
    || die "artifact-check does not report both optional sections"

# Serve smoke test: boot the query service on an ephemeral port, hit it
# with curl, and shut it down cleanly. Skipped when curl is unavailable.
if command -v curl > /dev/null 2>&1; then
    echo "==> serve smoke test (ephemeral port + curl)"
    serve_log="$workspace/target/ci-serve.log"
    cargo run --release -q -p pm-cli -- serve \
        --artifact "$artifact" --addr 127.0.0.1:0 2> "$serve_log" &
    serve_pid=$!
    trap 'kill "$serve_pid" 2> /dev/null || true' EXIT
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^listening on //p' "$serve_log")"
        [ -n "$addr" ] && break
        kill -0 "$serve_pid" 2> /dev/null || die "serve exited: $(cat "$serve_log")"
        sleep 0.1
    done
    [ -n "$addr" ] || die "serve never announced its address: $(cat "$serve_log")"
    curl -fsS "http://$addr/healthz" | grep -q '"status":"ok"' \
        || die "healthz did not answer ok"
    curl -fsS "http://$addr/v1/semantic?lon=121.4737&lat=31.2304" \
        | grep -q '"query"' || die "semantic lookup failed"
    curl -fsS "http://$addr/v1/patterns?limit=3" | grep -q '"total"' \
        || die "pattern query failed"
    curl -fsS "http://$addr/v1/motifs?top=5" > "$workspace/target/ci-motifs-a.json"
    grep -q '"total_days"' "$workspace/target/ci-motifs-a.json" \
        || die "motif query failed"
    curl -fsS "http://$addr/v1/motifs?top=5" > "$workspace/target/ci-motifs-b.json"
    cmp -s "$workspace/target/ci-motifs-a.json" "$workspace/target/ci-motifs-b.json" \
        || die "motif responses differ across identical queries"

    # Cohort endpoints: deterministic bodies from the cohort-bearing
    # artifact, double-fetched, plus the per-user index on a real user id
    # taken from the mine output.
    curl -fsS "http://$addr/v1/cohorts" > "$workspace/target/ci-cohorts-a.json"
    grep -q '"k_min"' "$workspace/target/ci-cohorts-a.json" \
        || die "cohort query failed"
    curl -fsS "http://$addr/v1/cohorts" > "$workspace/target/ci-cohorts-b.json"
    cmp -s "$workspace/target/ci-cohorts-a.json" "$workspace/target/ci-cohorts-b.json" \
        || die "cohort responses differ across identical queries"
    cohort_user="$(sed -n 's/^  user \([^ ]*\).*/\1/p' \
        "$workspace/target/ci-mine-1.txt" | head -1)"
    [ -n "$cohort_user" ] || die "mine output listed no cohort users"
    curl -fsS "http://$addr/v1/users/$cohort_user/patterns" \
        | grep -q '"cohort"' || die "user pattern query failed"
    curl -fsS "http://$addr/v1/users/$cohort_user/similar?k=5" \
        > "$workspace/target/ci-similar-a.json"
    grep -q '"neighbors"' "$workspace/target/ci-similar-a.json" \
        || die "similar-user query failed"
    curl -fsS "http://$addr/v1/users/$cohort_user/similar?k=5" \
        > "$workspace/target/ci-similar-b.json"
    cmp -s "$workspace/target/ci-similar-a.json" "$workspace/target/ci-similar-b.json" \
        || die "similar-user responses differ across identical queries"

    # Ingest smoke: replay the committed journeys against the live server
    # (throttled so it is still running when the reload lands), hot-swap
    # the snapshot mid-replay, and check the live window filled up.
    echo "==> ingest smoke test (replay + mid-replay /v1/reload)"
    cargo run --release -q -p pm-cli -- replay \
        --journeys examples/data/journeys.csv --addr "$addr" --rate 4000 \
        2> "$workspace/target/ci-replay.log" &
    replay_pid=$!
    sleep 0.3
    curl -fsS -X POST "http://$addr/v1/reload" -d '{}' | grep -q '"epoch":1' \
        || die "mid-replay reload did not swap to epoch 1"
    wait "$replay_pid" \
        || die "replay failed: $(cat "$workspace/target/ci-replay.log")"
    curl -fsS "http://$addr/v1/live/patterns" | grep -q '"from":' \
        || die "live patterns stayed empty after replay"
    curl -fsS "http://$addr/v1/live/motifs" | grep -q '"window_days":7' \
        || die "live motifs endpoint failed"
    curl -fsS "http://$addr/v1/stats" | grep -q '"serve.swap_epoch": 1' \
        || die "epoch swap not visible in the run-report counters"
    kill "$serve_pid"
    wait "$serve_pid" 2> /dev/null || true
    trap - EXIT
    echo "    serve answered on $addr and shut down cleanly"

    # Crash-recovery smoke: a WAL-backed server killed with -9 mid-replay
    # must recover on restart from the same --wal-dir, and a full re-send
    # of the journey file must converge byte-for-byte on what an
    # uninterrupted server serves (per-user ordering clocks make re-sent
    # records idempotent). Then the background re-miner has to publish a
    # verified generation, and SIGTERM has to drain cleanly with a final
    # checkpoint (the next boot replays zero batches).
    echo "==> crash-recovery smoke (kill -9 mid-replay + WAL restart)"
    bin="$workspace/target/release/pervasive-miner"
    [ -x "$bin" ] || die "release binary missing at $bin"
    wal_dir="$workspace/target/ci-wal"
    gen_dir="$workspace/target/ci-generations"
    rm -rf "$wal_dir" "$gen_dir"

    # Boots the release binary directly (not via cargo run, so kill -9
    # reaches the server itself) and waits for the announced address.
    boot_serve() {
        local log="$1"
        shift
        "$bin" serve --artifact "$artifact" --addr 127.0.0.1:0 "$@" 2> "$log" &
        serve_pid=$!
        trap 'kill -9 "$serve_pid" 2> /dev/null || true' EXIT
        addr=""
        for _ in $(seq 1 100); do
            addr="$(sed -n 's/^listening on //p' "$log")"
            [ -n "$addr" ] && break
            kill -0 "$serve_pid" 2> /dev/null || die "serve exited: $(cat "$log")"
            sleep 0.1
        done
        [ -n "$addr" ] || die "serve never announced its address: $(cat "$log")"
    }

    # Baseline: an uninterrupted server sees the full journey file once.
    boot_serve "$workspace/target/ci-baseline.log"
    "$bin" replay --journeys examples/data/journeys.csv --addr "$addr" \
        2> /dev/null || die "baseline replay failed"
    baseline="$(curl -fsS "http://$addr/v1/live/patterns")"
    kill -9 "$serve_pid" 2> /dev/null || true
    wait "$serve_pid" 2> /dev/null || true

    # Crash run: same data into a WAL-backed server, killed mid-replay.
    boot_serve "$workspace/target/ci-crash.log" --wal-dir "$wal_dir"
    "$bin" replay --journeys examples/data/journeys.csv --addr "$addr" \
        --rate 2000 2> /dev/null &
    replay_pid=$!
    sleep 1
    kill -0 "$replay_pid" 2> /dev/null || die "replay finished before the crash"
    kill -9 "$serve_pid" 2> /dev/null || die "server died before the crash"
    wait "$replay_pid" 2> /dev/null || true # replay dies with its server

    # Restart on the same WAL, then re-send the WHOLE file: recovery plus
    # the idempotent re-send must land exactly on the baseline.
    boot_serve "$workspace/target/ci-recover.log" --wal-dir "$wal_dir"
    grep -q 'recovered' "$workspace/target/ci-recover.log" \
        || die "restart did not report WAL recovery: $(cat "$workspace/target/ci-recover.log")"
    "$bin" replay --journeys examples/data/journeys.csv --addr "$addr" \
        2> /dev/null || die "post-recovery replay failed"
    recovered="$(curl -fsS "http://$addr/v1/live/patterns")"
    [ "$recovered" = "$baseline" ] || die "live patterns diverged after crash recovery
baseline:  $baseline
recovered: $recovered"

    # Graceful shutdown: SIGTERM drains and cuts a final checkpoint.
    kill -TERM "$serve_pid"
    for _ in $(seq 1 100); do
        kill -0 "$serve_pid" 2> /dev/null || break
        sleep 0.1
    done
    kill -0 "$serve_pid" 2> /dev/null && die "server ignored SIGTERM"
    wait "$serve_pid" 2> /dev/null || true
    grep -q 'server stopped' "$workspace/target/ci-recover.log" \
        || die "no clean-shutdown message after SIGTERM"

    # Final boot proves the shutdown checkpoint covered everything (zero
    # batches to replay) and lets the re-miner publish a generation from
    # the recovered stay buffer; its status JSON is archived by CI. The
    # generation must carry every section the mined artifact did.
    boot_serve "$workspace/target/ci-remine.log" --wal-dir "$wal_dir" \
        --remine-interval 1 --remine-dir "$gen_dir"
    grep -q 'replayed 0 batches / 0 records' "$workspace/target/ci-remine.log" \
        || die "graceful shutdown left batches to replay: $(cat "$workspace/target/ci-remine.log")"
    for _ in $(seq 1 240); do
        curl -fsS "http://$addr/v1/miner" > "$workspace/miner-status.json" || true
        grep -Eq '"jobs_succeeded":[1-9]' "$workspace/miner-status.json" && break
        kill -0 "$serve_pid" 2> /dev/null || die "re-mining server died: $(cat "$workspace/target/ci-remine.log")"
        sleep 0.5
    done
    grep -Eq '"jobs_succeeded":[1-9]' "$workspace/miner-status.json" \
        || die "re-miner never published a generation: $(cat "$workspace/miner-status.json")"
    newest_gen="$(ls "$gen_dir" | grep '^gen-' | sort | tail -1)"
    [ -n "$newest_gen" ] || die "no generation files in $gen_dir"
    "$bin" artifact-check "$gen_dir/$newest_gen" > "$workspace/target/ci-generation-check.txt" \
        || die "published generation failed verification"
    grep -q 'optional sections: motifs, cohorts' "$workspace/target/ci-generation-check.txt" \
        || die "re-mined generation dropped a section: $(cat "$workspace/target/ci-generation-check.txt")"
    kill -TERM "$serve_pid"
    wait "$serve_pid" 2> /dev/null || true
    trap - EXIT
    echo "    crash recovery converged, re-miner published $newest_gen, SIGTERM drained cleanly"
else
    echo "==> serve smoke test skipped (curl not found)"
fi

echo "==> ci.sh: all green"
