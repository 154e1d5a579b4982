#!/usr/bin/env bash
# Offline CI gate for the dyno workspace.
#
#   1. tier-1 verify:  cargo build --release (warnings are errors)
#      && cargo test -q; then every workspace target (libraries, the
#      repro binary, tests, benches and examples) builds with warnings
#      as errors too
#   2. full workspace test suite, plus the perfbench crate's own tests
#      (it builds against the workspace crates by path, so this catches
#      API removals that would break the benchmark)
#   3. repro smoke check: Table 1 (PILR relative times) must agree with
#      the committed repro_output.txt within TOLERANCE points, and the
#      Figure 2 plan evolution must still re-optimize and beat RELOPT.
#   4. profile smoke check: `repro profile q8_prime 300` must emit an
#      overhead-total line matching the Figure 4 Q8' row.
#   5. workload smoke check: a fixed-seed 6-query mixed stream at SF 1
#      must reproduce the committed metastore hit-rate line *exactly*
#      (the workload report is deterministic byte-for-byte; the Chrome
#      trace exporter is pinned the same way by the golden-file test in
#      crates/bench/tests/chrome_golden.rs, which step 2 runs).
#   6. concurrent workload smoke check: a fixed-seed 3-query stream on
#      ONE shared cluster (`--concurrent`) must reproduce the committed
#      `concurrent makespan:` summary line *exactly* — pinning the open
#      scheduler, the resumable query drivers, and the seeded arrival
#      stream in one line.
#   7. timeline smoke check: the same fixed-seed stream through
#      `repro timeline` must reproduce the committed
#      `peak map utilization:` line *exactly* — pinning the simulator's
#      telemetry sampling (slot occupancy, queue depth, memory) on the
#      simulated clock.
#   8. plan-reuse smoke check: the same fixed-seed workload runner with
#      `--reuse` must reproduce the committed `plan cache:` line
#      *exactly* — pinning the cross-query plan cache (hit/miss/
#      invalidate accounting against per-leaf stats versions) end to
#      end, and the reuse-off step-5 line above proves cold runs are
#      unaffected.
#   9. service smoke check: a fixed-seed `repro serve` run (16-query
#      stream, 1000-tenant bursty arrivals, DeadlineEdf scheduling)
#      must reproduce the committed `slo attainment:` line *exactly* —
#      pinning the whole front door (admission control, deadline-tagged
#      submission, EDF slot grants, calibrated SLOs, tail-latency
#      histograms) in one deterministic line.
#  10. health smoke check: the same fixed-seed serve run with `--health
#      --sample-one-in 4` must reproduce the committed `alerts:` line
#      *exactly* (pinning the sliding-window burn-rate monitor), keep
#      the `slo attainment:` line identical to step 9 (health is
#      observe-only), and emit a tail-sampled trace that still
#      validates (`balanced (validated)`, with a `sampled trace:`
#      reduction line).
#  11. front-door + event-core scale smoke check: a second fixed-seed
#      `repro workload --concurrent` run (fair scheduler, tight
#      arrivals) must reproduce its committed `concurrent makespan:`
#      line — including the queue-delay-total column — *exactly*,
#      pinning the QueryService submission path every harness now runs
#      through; and a 100-query `repro serve --tenants 10000
#      --nodes 1000` population run (10 000 slots) must finish inside a
#      wall-clock budget and reproduce its committed `slo attainment:`
#      line, guarding the indexed ready-queue scaling of the event core
#      against regression.
#  12. incident flight-recorder smoke check: the step-10 fixed-seed
#      serve run with `--incidents` added must reproduce the committed
#      `incidents:` summary line *exactly*, write one
#      incident-NNNN.{txt,json} pair per opened incident (every JSON
#      document re-validates via the in-repo validator before repro
#      prints anything), and keep BOTH the `alerts:` line (step 10) and
#      the `slo attainment:` line (step 9) byte-identical — the
#      recorder is observe-only by construction.
#
# The build is hermetic: every dependency is a path crate inside this
# repository, so everything below runs with --offline and no registry.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
TOLERANCE=${TOLERANCE:-5.0} # max abs deviation, percentage points

echo "== tier-1: cargo build --release && cargo test -q =="
RUSTFLAGS="-D warnings" cargo build --release --offline
cargo test -q --offline
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets

echo "== workspace tests =="
cargo test -q --workspace --offline
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== repro smoke check (Table 1 + Figure 2 vs repro_output.txt) =="
fresh=$(mktemp) ref_t1=$(mktemp) new_t1=$(mktemp)
trap 'rm -f "$fresh" "$ref_t1" "$new_t1"' EXIT
cargo run --release --offline -p dyno-bench --bin repro -- table1 > "$fresh"
cargo run --release --offline -p dyno-bench --bin repro -- fig2 >> "$fresh"

# Pull out just the Table 1 block (up to its first blank line) from each
# side; later figures also have rows starting with a query name.
table1_block() { awk '/^Table 1/{f=1} f && /^$/{exit} f' "$1"; }
table1_block repro_output.txt > "$ref_t1"
table1_block "$fresh" > "$new_t1"

awk -v tol="$TOLERANCE" '
    function strip(s) { sub(/%$/, "", s); return s + 0 }
    /^Q[0-9]/ {
        if (FILENAME == ARGV[1]) { for (i = 2; i <= 5; i++) ref[$1, i] = strip($i) }
        else {
            for (i = 2; i <= 5; i++) {
                d = strip($i) - ref[$1, i]
                if (d < 0) d = -d
                if (d > tol) {
                    printf "FAIL: %s col %d: %s vs reference %s%% (tol %s)\n", \
                        $1, i, $i, ref[$1, i], tol
                    bad = 1
                } else {
                    checked++
                }
            }
        }
    }
    END {
        if (bad) exit 1
        if (checked < 16) { printf "FAIL: only %d/16 Table 1 cells compared\n", checked; exit 1 }
        printf "ok: %d Table 1 cells within %s points of reference\n", checked, tol
    }
' "$ref_t1" "$new_t1"

grep -q "DYNOPT re-optimized [1-9]" "$fresh" ||
    { echo "FAIL: Figure 2 no longer re-optimizes"; exit 1; }
awk '/RELOPT ran/ { r = $(NF-3) + 0; d = $NF + 0
                    if (d >= r) { print "FAIL: DYNOPT (" d "s) not faster than RELOPT (" r "s)"; exit 1 }
                    print "ok: Figure 2 re-optimizes, DYNOPT " d "s < RELOPT " r "s" }' "$fresh"

echo "== repro profile smoke check (overhead line vs Figure 4 Q8' row) =="
profile_out=$(cargo run --release --offline -p dyno-bench --bin repro -- profile q8_prime 300)
echo "$profile_out" | tail -1
overhead=$(echo "$profile_out" | grep '^overhead-total: ') ||
    { echo "FAIL: profile has no overhead-total line"; exit 1; }
# Figure 4's Q8' row in the committed reference:
#   Q8'  <existing stats>  <total>s  <PILR %>  <re-opt %>  <overhead %>
awk -v tol="$TOLERANCE" -v line="$overhead" '
    function strip(s) { sub(/[%s]$/, "", s); return s + 0 }
    /^Figure 4/ { in4 = 1 }
    in4 && /^Q8'\''[[:space:]]/ && !done {
        # row layout: query, existing-stats, total, PILR %, re-opt %, overhead %
        ref_total = strip($3); ref_pilot = strip($4); ref_reopt = strip($5)
        done = 1
    }
    END {
        if (!done) { print "FAIL: no Figure 4 Q8-prime row in repro_output.txt"; exit 1 }
        split(line, f, /[ =]/)
        # overhead-total: total=<T>s pilot=<P>% reopt=<R>%
        got_total = strip(f[3]); got_pilot = strip(f[5]); got_reopt = strip(f[7])
        dt = got_total - ref_total; if (dt < 0) dt = -dt
        dp = got_pilot - ref_pilot; if (dp < 0) dp = -dp
        dr = got_reopt - ref_reopt; if (dr < 0) dr = -dr
        if (dt > ref_total * tol / 100) {
            printf "FAIL: profile total %ss vs Figure 4 %ss\n", got_total, ref_total; exit 1
        }
        if (dp > tol || dr > tol) {
            printf "FAIL: profile pilot/reopt %s%%/%s%% vs Figure 4 %s%%/%s%%\n", \
                got_pilot, got_reopt, ref_pilot, ref_reopt
            exit 1
        }
        printf "ok: profile overhead (%ss, %s%%, %s%%) matches Figure 4 Q8-prime row (tol %s)\n", \
            got_total, got_pilot, got_reopt, tol
    }
' repro_output.txt

echo "== repro workload smoke check (fixed-seed stream vs repro_output.txt) =="
workload_out=$(cargo run --release --offline -p dyno-bench --bin repro -- \
    workload q2x2,q8_prime,q10@simplex2,q7 1 --seed 42 --divisor 2000)
got=$(echo "$workload_out" | grep '^workload metastore hit-rate: ') ||
    { echo "FAIL: workload report has no hit-rate line"; exit 1; }
ref=$(grep '^workload metastore hit-rate: ' repro_output.txt | head -1) ||
    { echo "FAIL: no workload hit-rate line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: workload hit-rate drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
echo "ok: $got matches reference exactly"

echo "== repro concurrent workload smoke check (fixed-seed stream vs repro_output.txt) =="
concurrent_out=$(cargo run --release --offline -p dyno-bench --bin repro -- \
    workload q2,q7,q9 100 --seed 7 --divisor 200000 --concurrent)
got=$(echo "$concurrent_out" | grep '^concurrent makespan: ') ||
    { echo "FAIL: concurrent workload report has no makespan line"; exit 1; }
ref=$(grep '^concurrent makespan: ' repro_output.txt | head -1) ||
    { echo "FAIL: no concurrent makespan line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: concurrent workload drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
echo "ok: $got matches reference exactly"

echo "== repro timeline smoke check (fixed-seed telemetry vs repro_output.txt) =="
timeline_out=$(cargo run --release --offline -p dyno-bench --bin repro -- \
    timeline q2,q7,q9 100 --seed 7 --divisor 200000)
got=$(echo "$timeline_out" | grep '^peak map utilization: ') ||
    { echo "FAIL: timeline report has no peak-map-utilization line"; exit 1; }
ref=$(grep '^peak map utilization: ' repro_output.txt | head -1) ||
    { echo "FAIL: no peak-map-utilization line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: timeline telemetry drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
echo "ok: $got matches reference exactly"

echo "== repro plan-reuse smoke check (fixed-seed --reuse stream vs repro_output.txt) =="
reuse_out=$(cargo run --release --offline -p dyno-bench --bin repro -- \
    workload q2x3,q8_prime,q10@simplex3 1 --seed 42 --divisor 2000 --reuse)
got=$(echo "$reuse_out" | grep '^plan cache: ') ||
    { echo "FAIL: reuse workload report has no plan-cache line"; exit 1; }
ref=$(grep '^plan cache: ' repro_output.txt | head -1) ||
    { echo "FAIL: no plan-cache line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: plan-cache accounting drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
echo "$reuse_out" | grep -q ' cache [1-9][0-9]*/' ||
    { echo "FAIL: no per-query cache-hit column in the reuse report"; exit 1; }
echo "ok: $got matches reference exactly"

echo "== repro serve smoke check (fixed-seed service run vs repro_output.txt) =="
serve_out=$(cargo run --release --offline -p dyno-bench --bin repro -- \
    serve q2x6,q7x5,q9x5 100 --seed 11 --divisor 200000 \
    --tenants 1000 --sched edf --arrival-mean 15 --slo-mult 2)
got=$(echo "$serve_out" | grep '^slo attainment: ') ||
    { echo "FAIL: serve report has no slo-attainment line"; exit 1; }
ref=$(grep '^slo attainment: ' repro_output.txt | head -1) ||
    { echo "FAIL: no slo-attainment line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: service SLO attainment drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
echo "$serve_out" | grep -q '^latency (n=16): .*p999' ||
    { echo "FAIL: serve report has no p999 tail-latency column"; exit 1; }
echo "ok: $got matches reference exactly"

echo "== repro serve health smoke check (burn-rate alerts + tail sampling vs repro_output.txt) =="
health_out=$(cargo run --release --offline -p dyno-bench --bin repro -- \
    serve q2x6,q7x5,q9x5 100 --seed 11 --divisor 200000 \
    --tenants 1000 --sched edf --arrival-mean 15 --slo-mult 2 \
    --health --sample-one-in 4)
got=$(echo "$health_out" | grep '^alerts: ') ||
    { echo "FAIL: health serve report has no alerts line"; exit 1; }
ref=$(grep '^alerts: ' repro_output.txt | head -1) ||
    { echo "FAIL: no alerts line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: burn-rate alert stream drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
slo_health=$(echo "$health_out" | grep '^slo attainment: ')
slo_plain=$(echo "$serve_out" | grep '^slo attainment: ')
if [ "$slo_health" != "$slo_plain" ]; then
    echo "FAIL: --health changed outcomes (must be observe-only):"
    echo "  health: $slo_health"
    echo "  plain:  $slo_plain"
    exit 1
fi
echo "$health_out" | grep -q '^sampled trace: kept ' ||
    { echo "FAIL: no tail-sampling reduction line"; exit 1; }
echo "$health_out" | grep -q '^chrome trace: .*balanced (validated)' ||
    { echo "FAIL: tail-sampled trace no longer validates"; exit 1; }
echo "ok: $got matches reference exactly; sampled trace validates"

echo "== front-door smoke check (service-path queue delay vs repro_output.txt) =="
front_out=$(cargo run --release --offline -p dyno-bench --bin repro -- \
    workload q2x2,q7,q9x2 100 --seed 3 --divisor 200000 --concurrent \
    --arrival-mean 5 --sched fair)
got=$(echo "$front_out" | grep '^concurrent makespan: ') ||
    { echo "FAIL: front-door workload report has no makespan line"; exit 1; }
# The step-11 reference is the SECOND committed makespan line (the first
# belongs to step 6).
ref=$(grep '^concurrent makespan: ' repro_output.txt | sed -n 2p)
[ -n "$ref" ] ||
    { echo "FAIL: no step-11 concurrent makespan line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: service-path concurrent workload drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
echo "$front_out" | grep -q '^service admission: 5 admitted, 0 queued at admission, policy fair' ||
    { echo "FAIL: no admission accounting line from the service front door"; exit 1; }
echo "ok: $got matches reference exactly (via QueryService)"

echo "== event-core scale smoke check (10k tenants, 1000 nodes / 10k slots) =="
# Budget: generous for slow CI hosts; the indexed ready-queues complete
# this run in ~2s on a laptop, and the pre-index scan core did not
# complete it in reasonable time at all.
scale_out=$(timeout 300 cargo run --release --offline -p dyno-bench --bin repro -- \
    serve q2x40,q7x30,q9x30 100 --seed 11 --divisor 200000 \
    --tenants 10000 --nodes 1000 --sched edf --arrival-mean 2 --slo-mult 2) ||
    { echo "FAIL: 10k-tenant serve run exceeded the 300s smoke budget"; exit 1; }
got=$(echo "$scale_out" | grep '^slo attainment: ') ||
    { echo "FAIL: population serve report has no slo-attainment line"; exit 1; }
ref=$(grep '^slo attainment: ' repro_output.txt | sed -n 3p)
[ -n "$ref" ] ||
    { echo "FAIL: no step-11 slo-attainment line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: 10k-tenant population run drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
echo "$scale_out" | grep -q '^chrome trace: 101 named pid lanes, .*balanced (validated)' ||
    { echo "FAIL: population trace no longer validates"; exit 1; }
echo "ok: $got on 1000 nodes / 10000 slots within budget"

echo "== incident flight-recorder smoke check (frozen reports vs repro_output.txt) =="
# Run in a scratch directory: repro writes incident-NNNN.{txt,json}
# files next to wherever it runs, and those must not litter the repo.
repro_bin="$PWD/target/release/repro"
incident_dir=$(mktemp -d)
# The subshell cd keeps this script's own cwd untouched.
incident_out=$(cd "$incident_dir" && "$repro_bin" \
    serve q2x6,q7x5,q9x5 100 --seed 11 --divisor 200000 \
    --tenants 1000 --sched edf --arrival-mean 15 --slo-mult 2 \
    --health --sample-one-in 4 --incidents)
got=$(echo "$incident_out" | grep '^incidents: ') ||
    { echo "FAIL: incident serve report has no incidents line"; exit 1; }
ref=$(grep '^incidents: ' repro_output.txt | head -1) ||
    { echo "FAIL: no incidents line in repro_output.txt"; exit 1; }
if [ "$got" != "$ref" ]; then
    echo "FAIL: incident summary drifted:"
    echo "  got: $got"
    echo "  ref: $ref"
    exit 1
fi
# The recorder is observe-only: the alert stream and the SLO line must
# be byte-identical to the recorder-off runs of steps 10 and 9.
alerts_inc=$(echo "$incident_out" | grep '^alerts: ')
alerts_ref=$(echo "$health_out" | grep '^alerts: ')
if [ "$alerts_inc" != "$alerts_ref" ]; then
    echo "FAIL: --incidents changed the alert stream (must be observe-only):"
    echo "  incidents: $alerts_inc"
    echo "  health:    $alerts_ref"
    exit 1
fi
slo_inc=$(echo "$incident_out" | grep '^slo attainment: ')
if [ "$slo_inc" != "$slo_plain" ]; then
    echo "FAIL: --incidents changed outcomes (must be observe-only):"
    echo "  incidents: $slo_inc"
    echo "  plain:     $slo_plain"
    exit 1
fi
# One .txt + .json pair per opened incident; every JSON document was
# already re-validated inside run_serve (repro exits 2 otherwise), so
# here we only check that the files landed and are non-empty.
opened=$(echo "$got" | sed 's/.*opened=\([0-9]*\).*/\1/')
[ "$opened" -ge 1 ] || { echo "FAIL: the flood froze no incidents"; exit 1; }
n_json=$(ls "$incident_dir"/incident-*.json 2>/dev/null | wc -l)
n_txt=$(ls "$incident_dir"/incident-*.txt 2>/dev/null | wc -l)
if [ "$n_json" -ne "$opened" ] || [ "$n_txt" -ne "$opened" ]; then
    echo "FAIL: expected $opened incident-NNNN.{txt,json} pairs, found $n_json json / $n_txt txt"
    exit 1
fi
for f in "$incident_dir"/incident-*; do
    [ -s "$f" ] || { echo "FAIL: empty incident file $f"; exit 1; }
done
rm -rf "$incident_dir"
echo "ok: $got matches reference exactly; $opened validated report pairs written"

echo "CI OK"
