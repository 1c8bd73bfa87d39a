#!/bin/sh
# Repository health gate: static analysis, a portable (GOARCH=arm64) build, the
# full test suite, and the race detector over the concurrency-sensitive paths.
# The race pass uses -short to skip the training-heavy experiment smoke tests
# (already covered by the plain pass), which would otherwise exceed the
# per-package timeout on small boxes; the concurrent serving tests in
# internal/core run in full either way.
# Run from the repository root, directly or via `make check`.
#
# `check.sh fault` runs the fault-tolerance suite instead: the checkpoint/
# resume, divergence-guard, corruption-rejection, and disrupted-serving tests
# under the race detector, followed by a short fuzz pass over each fuzz
# target (model deserialization, envelope framing, WHERE parsing).
#
# `check.sh obs` is an end-to-end observability smoke test: it trains a tiny
# model, starts `naru serve` with -metrics-addr, drives a few estimates over
# HTTP, and asserts the core metric families show up in the /metrics scrape —
# then double-checks that -metrics-addr leaves estimate output byte-identical.
#
# `check.sh lifecycle` runs the model-lifecycle suite under the race
# detector (ingestion/append, drift detection, refresh with resume, registry
# corruption rejection, hot-swap bit-identity, serve endpoints), a short fuzz
# pass over the registry manifest loader, and an online-ingestion smoke test:
# serve with lifecycle flags, POST /append over HTTP until the background
# refresh hot-swaps in version 2, then SIGTERM and require a clean exit.
#
# `check.sh bench` is the serving-performance gate: it runs the fused
# bit-identity and coalescer suites under the race detector, then a
# small-scale inference benchmark twice through narubench's history recorder —
# the first run records the baseline, the second must stay within 10% of it on
# every gated metric (queries/sec down, latency/allocations up = failure) and
# must report zero mismatches on both the fused-batch and parallel-fused
# paths. A scaling check then re-runs the benchmark at GOMAXPROCS=1 and
# GOMAXPROCS=NumCPU: parallel-fused throughput must improve by more than 1.5x
# on boxes with at least 4 cores (on smaller boxes only the bit-identity
# lines are enforced). All four runs must print the same inference digest.
#
# `check.sh chaos` is the fault-injection gate: the breaker/recovery/heal
# suites under the race detector, then a live kill matrix — for every
# registered fault site (`naru faults`), a serve process is started with
# NARU_FAULTS="<site>=exit@1", driven with traffic until the injected crash
# fires, and restarted without faults; the restart must self-heal the registry
# and serve. An error matrix re-runs every site with a recoverable injected
# error (the server must survive and return to model answers), a breaker cycle
# proves trip -> fallback-only -> probed auto-recovery over HTTP, a negative
# test proves an unrecoverable registry fails loudly instead of serving
# garbage, and a GC check proves stale temp files are swept and counted.
#
# `check.sh serve` is the multi-tenant serving gate: the internal/server
# suite plus the coalescer/breaker regression tests under the race detector,
# then a two-tenant smoke test — one `naru serve -tenants tenants.json`
# process hosting two tables, driven per-tenant over /v1/{tenant}/... with
# cache-replay checks, a per-tenant append -> drift -> hot-swap cycle that
# must leave the other tenant untouched, tenant-labelled metric assertions
# on the shared /metrics scrape, legacy-route aliasing, and an aggregate
# /readyz. It also runs as the final step of the default `check.sh` pass.
#
# `check.sh join` is the multi-table join-estimation gate: the neurocard suite
# (join sampler, append-then-join vs the oracle, join queries in metrics and
# traces) and the scaled-estimate tests under the race detector, plus the
# join-tenant serving tests (a failed estimate answers 500) and the CLI
# round-trip tests; a CLI smoke test (train -join over generated CSVs,
# estimate -join against the nested-loop truth); and the join benchmark run
# twice through the history recorder with a pinned worker count — both runs
# must print bit-identical estimate digests and a PASS on
# the accuracy gate (median q-error <= 2, max <= 10 vs the oracle), the
# second must stay within tolerance of the first's recorded throughput, and
# a doctored baseline must trip the regression check.
#
# `check.sh train` is the end-to-end training-determinism gate: with
# data-parallel sharding (-train-workers > 1), two identical runs must write
# byte-identical model files, and a run interrupted with -stop-after and then
# resumed from its checkpoint must also match the uninterrupted model
# byte-for-byte — including when the resume omits -train-workers, proving the
# checkpoint's recorded worker count is adopted.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "fault" ]; then
    echo "== fault suite (-race)"
    go test -race -count=1 ./internal/envelope ./internal/faultinject
    go test -race -count=1 \
        -run 'TestResume|TestCheckpoint|TestDivergence|TestGradExplosion|TestEstimateBatchCtx|TestServeDisruption|TestPanic|TestDeadline|TestNonFinite|TestCancelled|TestFallback|TestLoadRejects|TestSaveSurfaces|TestCLI' \
        ./internal/core ./internal/made ./internal/colnet ./cmd/naru

    fuzztime="${FUZZTIME:-10s}"
    echo "== fuzz pass (${fuzztime} per target)"
    go test -run xxx -fuzz 'FuzzLoad'       -fuzztime "$fuzztime" ./internal/made
    go test -run xxx -fuzz 'FuzzParseWhere' -fuzztime "$fuzztime" ./internal/query

    echo "check fault: OK"
    exit 0
fi

if [ "${1:-}" = "obs" ]; then
    echo "== observability smoke test"
    tmp="$(mktemp -d)"
    trap 'kill "${serve_pid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

    go build -o "$tmp/naru" ./cmd/naru

    cat > "$tmp/data.csv" <<'EOF'
state,qty
NY,10
NY,20
CA,10
CA,30
WA,20
TX,40
NY,30
CA,20
WA,10
TX,20
NY,40
CA,40
EOF

    echo "-- train"
    "$tmp/naru" train -csv "$tmp/data.csv" -out "$tmp/model.naru" \
        -epochs 1 -hidden 8,8 -samples 64 > "$tmp/train.log"

    echo "-- serve"
    "$tmp/naru" serve -csv "$tmp/data.csv" -model "$tmp/model.naru" \
        -samples 64 -fallback -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
        > "$tmp/serve.out" 2> "$tmp/serve.err" &
    serve_pid=$!

    # Both listeners announce their bound addresses; wait for them.
    for _ in $(seq 1 50); do
        grep -q "serving on" "$tmp/serve.out" && grep -q "metrics on" "$tmp/serve.err" && break
        kill -0 "$serve_pid" || { echo "serve exited early"; cat "$tmp/serve.err"; exit 1; }
        sleep 0.1
    done
    serve_url="$(sed -n 's/^serving on \(http:\/\/[^/]*\).*/\1/p' "$tmp/serve.out")"
    metrics_url="$(sed -n 's/^metrics on \(http:\/\/[^/]*\).*/\1/p' "$tmp/serve.err")"
    [ -n "$serve_url" ] && [ -n "$metrics_url" ] || { echo "could not parse bound addresses"; exit 1; }

    echo "-- estimates via $serve_url"
    curl -fsS --get "$serve_url/estimate" --data-urlencode "where=state=NY" | grep -q '"source":"model"'
    curl -fsS --get "$serve_url/estimate" --data-urlencode "where=qty<=20 AND state=CA" > /dev/null
    # A malformed query must 400 without polluting the query metrics.
    curl -s --get "$serve_url/estimate" --data-urlencode "where=nope=1" -o /dev/null -w '%{http_code}' | grep -q 400

    echo "-- scrape $metrics_url"
    scrape="$tmp/metrics.txt"
    curl -fsS "$metrics_url/metrics" > "$scrape"
    for family in naru_queries_total naru_query_path_enum_total \
        naru_query_latency_seconds_bucket naru_query_latency_seconds_count; do
        grep -q "^$family" "$scrape" || { echo "missing metric family $family"; cat "$scrape"; exit 1; }
    done
    [ "$(sed -n 's/^naru_queries_total //p' "$scrape")" = "2" ] || { echo "expected 2 served queries"; cat "$scrape"; exit 1; }
    curl -fsS "$metrics_url/metrics.json" | grep -q '"counters"'
    curl -fsS "$metrics_url/traces" | grep -q '"path"'
    curl -fsS "$metrics_url/debug/pprof/cmdline" > /dev/null

    kill "$serve_pid"; wait "$serve_pid" 2>/dev/null || true
    serve_pid=""

    echo "-- determinism: estimate output with and without -metrics-addr"
    "$tmp/naru" estimate -csv "$tmp/data.csv" -model "$tmp/model.naru" \
        -samples 64 -where "state=NY" > "$tmp/plain.out"
    "$tmp/naru" estimate -csv "$tmp/data.csv" -model "$tmp/model.naru" \
        -samples 64 -where "state=NY" -metrics-addr 127.0.0.1:0 > "$tmp/obs.out" 2>/dev/null
    diff "$tmp/plain.out" "$tmp/obs.out" || { echo "-metrics-addr perturbed estimates"; exit 1; }

    echo "check obs: OK"
    exit 0
fi

if [ "${1:-}" = "lifecycle" ]; then
    echo "== lifecycle suite (-race)"
    go test -race -count=1 ./internal/lifecycle
    go test -race -count=1 -run 'TestAppend|TestLoadCSVErrorContext|TestConcat' ./internal/table
    go test -race -count=1 -run 'TestAppendThenJoinMatchesOracle' ./internal/neurocard
    go test -race -count=1 -run 'TestHotSwapConcurrentServing|TestFacadeLifecycleEndToEnd' .
    go test -race -count=1 -run 'TestHealthz|TestServeLifecycleEndpoints' ./cmd/naru

    fuzztime="${FUZZTIME:-10s}"
    echo "== fuzz pass (${fuzztime})"
    go test -run xxx -fuzz 'FuzzLoadManifest' -fuzztime "$fuzztime" ./internal/lifecycle

    echo "== online ingestion smoke test"
    tmp="$(mktemp -d)"
    trap 'kill "${serve_pid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

    go build -o "$tmp/naru" ./cmd/naru

    # A correlated table the appended rows will contradict.
    awk 'BEGIN{
        print "state,qty";
        s[0]="NY"; s[1]="CA"; s[2]="WA"; s[3]="TX";
        for (i = 0; i < 64; i++) print s[i%4] "," (i%4)*10
    }' > "$tmp/data.csv"

    echo "-- train"
    "$tmp/naru" train -csv "$tmp/data.csv" -out "$tmp/model.naru" \
        -epochs 2 -hidden 8,8 -samples 64 > /dev/null

    echo "-- serve with online ingestion"
    "$tmp/naru" serve -csv "$tmp/data.csv" -model "$tmp/model.naru" \
        -samples 64 -addr 127.0.0.1:0 \
        -refresh-after 8 -drift-threshold 0.05 -refresh-epochs 1 \
        -registry "$tmp/registry" -lifecycle-checkpoint "$tmp/lc.ckpt" \
        > "$tmp/serve.out" 2> "$tmp/serve.err" &
    serve_pid=$!
    for _ in $(seq 1 50); do
        grep -q "serving on" "$tmp/serve.out" && break
        kill -0 "$serve_pid" || { echo "serve exited early"; cat "$tmp/serve.err"; exit 1; }
        sleep 0.1
    done
    serve_url="$(sed -n 's/^serving on \(http:\/\/[^/]*\).*/\1/p' "$tmp/serve.out")"
    [ -n "$serve_url" ] || { echo "could not parse bound address"; exit 1; }
    grep -q "lifecycle\[default\]: ingestion enabled" "$tmp/serve.err" || { echo "lifecycle not enabled"; cat "$tmp/serve.err"; exit 1; }

    echo "-- healthz, bootstrap registry"
    curl -fsS "$serve_url/healthz" | grep -q '"status":"ok"'
    curl -fsS "$serve_url/models" | grep -q '"active":1'

    echo "-- append shifted rows until the refresh hot-swaps"
    printf 'NY,30\nCA,0\nWA,10\nTX,20\nNY,30\nCA,0\nWA,10\nTX,20\n' > "$tmp/rows.csv"
    # The append response carries the drift reading taken at ingest time; the
    # live /drift endpoint may already be re-baselined by the refresh it kicks.
    curl -fsS -X POST --data-binary @"$tmp/rows.csv" "$serve_url/append" \
        | grep -q '"appended":8.*"appended_rows":8'
    curl -fsS "$serve_url/drift" | grep -q '"stale":'
    for _ in $(seq 1 100); do
        grep -q "swapped in version 2" "$tmp/serve.err" && break
        kill -0 "$serve_pid" || { echo "serve died mid-refresh"; cat "$tmp/serve.err"; exit 1; }
        sleep 0.1
    done
    grep -q "swapped in version 2" "$tmp/serve.err" || { echo "refresh never swapped"; cat "$tmp/serve.err"; exit 1; }
    curl -fsS "$serve_url/healthz" | grep -q '"model_version":2'
    curl -fsS "$serve_url/models" | grep -q '"active":2'
    curl -fsS --get "$serve_url/estimate" --data-urlencode "where=state=NY" | grep -q '"model_version":2'

    echo "-- graceful shutdown on SIGTERM"
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "serve did not exit cleanly"; cat "$tmp/serve.err"; exit 1; }
    serve_pid=""

    echo "check lifecycle: OK"
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    echo "== serving determinism (-race)"
    go test -race -count=1 -run 'TestEstimateFused|TestHistory' ./internal/core ./internal/bench
    go test -race -count=1 -run 'TestCoalescer' .

    echo "== benchmark regression gate (small-scale inference, 2 runs)"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT INT TERM
    bench_flags="-dmv-rows 12000 -queries 48 -epochs 1 -quiet
        -bench-out $tmp/BENCH_inference.json -history $tmp/history.json"

    # Both the fused-batch and the parallel-fused runs print a mismatch line;
    # each must be 0/48 (a single grep -q would pass with one of them broken).
    # Every run must also print the baseline's inference digest: the hash of
    # all reference, sequential, fused and parallel-fused estimates, so the
    # four runs (two GOMAXPROCS settings among them) agree bit for bit.
    require_bit_identity() {
        [ "$(grep -c "0/48 mismatched" "$1")" -eq 2 ] \
            || { echo "fused serving mismatched sequential ($1)"; cat "$1"; exit 1; }
        d="$(sed -n 's/^inference digest: //p' "$1")"
        [ -n "$d" ] || { echo "no inference digest ($1)"; cat "$1"; exit 1; }
        if [ -z "${digest:-}" ]; then
            digest="$d"
            echo "   inference digest: $d"
        elif [ "$d" != "$digest" ]; then
            echo "inference digest $d differs from the baseline's $digest ($1)"; exit 1
        fi
    }

    echo "-- baseline run"
    go run ./cmd/narubench $bench_flags inference > "$tmp/run1.out"
    require_bit_identity "$tmp/run1.out"
    grep -q "recorded .* in" "$tmp/run1.out" || { echo "history entry not recorded"; cat "$tmp/run1.out"; exit 1; }

    echo "-- gated re-run (must stay within 10% of the baseline)"
    go run ./cmd/narubench $bench_flags -check-regression inference > "$tmp/run2.out" \
        || { echo "regression gate tripped"; cat "$tmp/run2.out"; exit 1; }
    require_bit_identity "$tmp/run2.out"

    ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
    echo "-- parallel-fused scaling: GOMAXPROCS=1 vs GOMAXPROCS=$ncpu"
    scale_flags="-dmv-rows 12000 -queries 48 -epochs 1 -quiet"
    # qps <bench.json>: the parallel-fused throughput the run recorded.
    qps() {
        awk '/"name": "dmv_queries_per_sec_fused_parallel"/ { hit = 1 }
             hit && /"value":/ { gsub(/[",]/, ""); print $2; exit }' "$1"
    }
    GOMAXPROCS=1 go run ./cmd/narubench $scale_flags -bench-out "$tmp/BENCH_p1.json" \
        inference > "$tmp/p1.out"
    require_bit_identity "$tmp/p1.out"
    if [ "$ncpu" -ge 2 ]; then
        GOMAXPROCS="$ncpu" go run ./cmd/narubench $scale_flags -bench-out "$tmp/BENCH_pN.json" \
            inference > "$tmp/pN.out"
        require_bit_identity "$tmp/pN.out"
        if [ "$ncpu" -ge 4 ]; then
            q1="$(qps "$tmp/BENCH_p1.json")"
            qN="$(qps "$tmp/BENCH_pN.json")"
            echo "   parallel-fused q/s: $q1 (1 proc) -> $qN ($ncpu procs)"
            awk -v a="$q1" -v b="$qN" 'BEGIN { exit !(b > 1.5 * a) }' \
                || { echo "parallel-fused speedup below 1.5x on $ncpu cores"; exit 1; }
        fi
    fi

    echo "-- gate must trip on a doctored baseline"
    # Inflate the recorded batch throughput 1000x; the gate (checked against
    # the last entry, i.e. the doctored one) must now report a regression.
    awk '
        /"name": "dmv_queries_per_sec_batch"/ { hit = 1 }
        hit && /"value":/ { sub(/"value": [0-9.eE+-]+/, "\"value\": 1000000"); hit = 0 }
        { print }
    ' "$tmp/history.json" > "$tmp/doctored.json"
    if go run ./cmd/narubench -history "$tmp/doctored.json" -check-regression \
        -bench-out "$tmp/BENCH_inference.json" -dmv-rows 12000 -queries 48 -epochs 1 -quiet \
        inference >/dev/null 2>&1; then
        echo "regression gate failed to trip on doctored baseline"; exit 1
    fi

    echo "check bench: OK"
    exit 0
fi

if [ "${1:-}" = "chaos" ]; then
    echo "== chaos suite (-race)"
    go test -race -count=1 ./internal/faultinject
    go test -race -count=1 \
        -run 'TestHeal|TestAdopt|TestRecoveryLog|TestRegisterFault|TestFlushFault|TestOpenRegistryHeals' \
        ./internal/lifecycle
    go test -race -count=1 -run 'TestBreaker|TestCoalescerShed' .
    go test -race -count=1 \
        -run 'TestLivezReadyz|TestBreaker|TestServeRequestFault|TestFaults|TestHealthz' \
        ./cmd/naru

    echo "== chaos smoke: kill matrix, error matrix, breaker cycle"
    tmp="$(mktemp -d)"
    trap 'kill "${serve_pid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM
    go build -o "$tmp/naru" ./cmd/naru

    # Three correlated columns spanning a 32x32x10 domain. The probe queries
    # below restrict all three columns without covering any of them, so the
    # region (31*31*9 ~ 8600 points) exceeds the enumeration threshold in any
    # sampling order and estimates exercise the sampling (and, with
    # -batch-window, fused-walk) fault sites.
    awk 'BEGIN{
        print "a,b,c";
        for (i = 0; i < 2048; i++) {
            a = i % 32; b = int(i/32) % 32;
            print a "," b "," (a+b)%10
        }
    }' > "$tmp/data.csv"
    q1="a>=1 AND b>=1 AND c>=1"
    q2="a>=2 AND b>=2 AND c>=1"
    # Appended rows contradict the c=(a+b)%10 correlation -> drift -> refresh,
    # which drives the checkpoint-flush and registry-write fault sites.
    awk 'BEGIN{ for (i = 0; i < 8; i++) { a = i%32; print a "," (i*7)%32 "," (a+5)%10 } }' > "$tmp/rows.csv"

    "$tmp/naru" train -csv "$tmp/data.csv" -out "$tmp/model.naru" \
        -epochs 1 -hidden 8,8 -samples 64 > /dev/null

    serve_flags="-csv $tmp/data.csv -model $tmp/model.naru -samples 64
        -addr 127.0.0.1:0 -batch-window 2ms
        -refresh-after 8 -drift-threshold 0.001 -refresh-epochs 1
        -registry $tmp/registry -lifecycle-checkpoint $tmp/lc.ckpt"

    # wait_serving <prefix>: 0 once "serving on" appears, 1 if the process
    # exits first (startup-firing fault sites die before listening).
    wait_serving() {
        for _ in $(seq 1 150); do
            grep -q "serving on" "$tmp/$1.out" 2>/dev/null && return 0
            kill -0 "$serve_pid" 2>/dev/null || return 1
            sleep 0.1
        done
        echo "serve ($1) never started listening"; cat "$tmp/$1.err"; exit 1
    }
    serve_url() { sed -n 's/^serving on \(http:\/\/[^/]*\).*/\1/p' "$tmp/$1.out"; }

    echo "-- seed registry"
    "$tmp/naru" serve $serve_flags > "$tmp/seed.out" 2> "$tmp/seed.err" &
    serve_pid=$!
    wait_serving seed || { echo "seed serve exited early"; cat "$tmp/seed.err"; exit 1; }
    curl -fsS "$(serve_url seed)/models" | grep -q '"active":1' || { echo "registry did not bootstrap"; exit 1; }
    kill -TERM "$serve_pid"; wait "$serve_pid" || { echo "seed serve unclean exit"; cat "$tmp/seed.err"; exit 1; }
    serve_pid=""

    echo "-- kill matrix: every site armed with exit@1, crash, heal, serve"
    for site in $("$tmp/naru" faults); do
        echo "   $site"
        rm -f "$tmp/kill.out" "$tmp/kill.err"
        # A completed-refresh checkpoint left by an earlier crash-at-Register
        # iteration would be resumed (correctly) without retraining, so the
        # checkpoint-flush site would never be crossed; start each fresh.
        rm -f "$tmp/lc.ckpt"
        NARU_FAULTS="$site=exit@1" "$tmp/naru" serve $serve_flags \
            > "$tmp/kill.out" 2> "$tmp/kill.err" &
        serve_pid=$!
        if wait_serving kill; then
            url="$(serve_url kill)"
            # Traffic sweep hitting every serving + persistence site; the
            # process dies mid-request, so failures here are expected.
            curl -s --get "$url/estimate" --data-urlencode "where=$q1" > /dev/null 2>&1 || true
            curl -s -X POST --data-binary @"$tmp/rows.csv" "$url/append" > /dev/null 2>&1 || true
            curl -s --get "$url/estimate" --data-urlencode "where=$q2" > /dev/null 2>&1 || true
        fi
        dead=""
        for _ in $(seq 1 600); do
            kill -0 "$serve_pid" 2>/dev/null || { dead=1; break; }
            sleep 0.1
        done
        [ -n "$dead" ] || { echo "site $site: exit fault never fired"; kill "$serve_pid"; cat "$tmp/kill.err"; exit 1; }
        if wait "$serve_pid" 2>/dev/null; then
            echo "site $site: exited 0 under an exit fault"; exit 1
        fi
        serve_pid=""

        # Whatever the crash left on disk, a faultless restart must heal the
        # registry and serve.
        rm -f "$tmp/recover.out" "$tmp/recover.err"
        "$tmp/naru" serve $serve_flags > "$tmp/recover.out" 2> "$tmp/recover.err" &
        serve_pid=$!
        wait_serving recover || { echo "site $site: restart died"; cat "$tmp/recover.err"; exit 1; }
        url="$(serve_url recover)"
        curl -fsS "$url/healthz" | grep -q '"status":"ok"' || { echo "site $site: unhealthy after recovery"; exit 1; }
        curl -fsS "$url/readyz" | grep -q '"ready":true' || { echo "site $site: not ready after recovery"; exit 1; }
        curl -fsS --get "$url/estimate" --data-urlencode "where=$q1" | grep -q '"sel"' \
            || { echo "site $site: estimate failed after recovery"; exit 1; }
        curl -fsS "$url/models" | grep -q '"active":' || { echo "site $site: registry unservable"; exit 1; }
        kill -TERM "$serve_pid"
        wait "$serve_pid" || { echo "site $site: unclean exit after recovery"; cat "$tmp/recover.err"; exit 1; }
        serve_pid=""
    done

    echo "-- error matrix: every site armed with error@1, server survives"
    for site in $("$tmp/naru" faults); do
        echo "   $site"
        rm -f "$tmp/err.out" "$tmp/err.err" "$tmp/lc.ckpt"
        NARU_FAULTS="$site=error@1" "$tmp/naru" serve $serve_flags -fallback \
            > "$tmp/err.out" 2> "$tmp/err.err" &
        serve_pid=$!
        wait_serving err || { echo "site $site: recoverable error killed startup"; cat "$tmp/err.err"; exit 1; }
        url="$(serve_url err)"
        curl -s --get "$url/estimate" --data-urlencode "where=$q1" > /dev/null || true
        curl -s -X POST --data-binary @"$tmp/rows.csv" "$url/append" > /dev/null || true
        kill -0 "$serve_pid" 2>/dev/null || { echo "site $site: error fault killed the server"; cat "$tmp/err.err"; exit 1; }
        curl -fsS --get "$url/estimate" --data-urlencode "where=$q2" | grep -q '"source":"model"' \
            || { echo "site $site: no model answer after error fault"; exit 1; }
        kill -TERM "$serve_pid"; wait "$serve_pid" || { echo "site $site: unclean exit"; cat "$tmp/err.err"; exit 1; }
        serve_pid=""
    done

    echo "-- breaker cycle: trip to fallback-only, probe back to healthy"
    NARU_FAULTS="core.serve.query=panic@1x8" "$tmp/naru" serve \
        -csv "$tmp/data.csv" -model "$tmp/model.naru" -samples 64 -addr 127.0.0.1:0 \
        -fallback -breaker-threshold 3 -probe-interval 100ms \
        -metrics-addr 127.0.0.1:0 > "$tmp/brk.out" 2> "$tmp/brk.err" &
    serve_pid=$!
    wait_serving brk || { echo "breaker serve exited early"; cat "$tmp/brk.err"; exit 1; }
    url="$(serve_url brk)"
    grep -q "circuit breaker: threshold 3" "$tmp/brk.err" || { echo "breaker not armed"; cat "$tmp/brk.err"; exit 1; }
    metrics_url="$(sed -n 's/^metrics on \(http:\/\/[^/]*\).*/\1/p' "$tmp/brk.err")"
    for i in 1 2 3; do
        curl -fsS --get "$url/estimate" --data-urlencode "where=$q1" | grep -q '"source":"fallback"' \
            || { echo "injected failure $i did not fall back"; exit 1; }
    done
    curl -s "$url/readyz" | grep -q '"state":"fallback_only"' || { echo "breaker did not trip readiness"; exit 1; }
    curl -s -o /dev/null -w '%{http_code}' "$url/readyz" | grep -q 503 || { echo "tripped readyz not 503"; exit 1; }
    curl -fsS "$url/livez" | grep -q '"alive":true' || { echo "livez must stay up while tripped"; exit 1; }
    curl -fsS "$metrics_url/metrics" | grep -q '^naru_breaker_trips_total 1' || { echo "trip not counted"; exit 1; }
    curl -fsS "$metrics_url/metrics" | grep -q '^naru_serve_state 2' || { echo "state gauge not fallback_only"; exit 1; }
    # Probes burn the rest of the injection window, then close the breaker.
    for _ in $(seq 1 150); do
        curl -s -o /dev/null -w '%{http_code}' "$url/readyz" | grep -q 200 && break
        sleep 0.1
    done
    curl -s "$url/readyz" | grep -q '"ready":true' || { echo "breaker never recovered"; cat "$tmp/brk.err"; exit 1; }
    curl -fsS --get "$url/estimate" --data-urlencode "where=$q1" | grep -q '"source":"model"' \
        || { echo "no model answer after recovery"; exit 1; }
    curl -fsS "$metrics_url/metrics" | grep -q '^naru_breaker_recoveries_total 1' || { echo "recovery not counted"; exit 1; }
    kill -TERM "$serve_pid"; wait "$serve_pid" || { echo "breaker serve unclean exit"; cat "$tmp/brk.err"; exit 1; }
    serve_pid=""

    echo "-- negative: an unrecoverable registry fails loudly"
    mkdir -p "$tmp/badreg"
    printf 'garbage' > "$tmp/badreg/MANIFEST"
    printf 'garbage' > "$tmp/badreg/v00000001.model"
    if "$tmp/naru" serve -csv "$tmp/data.csv" -model "$tmp/model.naru" -samples 64 \
        -addr 127.0.0.1:0 -registry "$tmp/badreg" > "$tmp/neg.out" 2> "$tmp/neg.err"; then
        echo "serve accepted an unrecoverable registry"; exit 1
    fi
    grep -q "unrecoverable" "$tmp/neg.err" || { echo "failure is not loud"; cat "$tmp/neg.err"; exit 1; }
    [ -d "$tmp/badreg/quarantine" ] || { echo "no quarantine evidence preserved"; exit 1; }

    echo "-- startup GC: stale temp files swept and counted"
    touch "$tmp/registry/stale.manifest.tmp12345"
    rm -f "$tmp/gc.out" "$tmp/gc.err"
    "$tmp/naru" serve $serve_flags -metrics-addr 127.0.0.1:0 \
        > "$tmp/gc.out" 2> "$tmp/gc.err" &
    serve_pid=$!
    wait_serving gc || { echo "gc serve exited early"; cat "$tmp/gc.err"; exit 1; }
    grep -q "registry: self-healed" "$tmp/gc.err" || { echo "self-heal not announced"; cat "$tmp/gc.err"; exit 1; }
    metrics_url="$(sed -n 's/^metrics on \(http:\/\/[^/]*\).*/\1/p' "$tmp/gc.err")"
    curl -fsS "$metrics_url/metrics" | grep -q '^naru_lifecycle_gc_total [1-9]' \
        || { echo "gc not counted"; curl -s "$metrics_url/metrics" | grep naru_lifecycle || true; exit 1; }
    [ ! -e "$tmp/registry/stale.manifest.tmp12345" ] || { echo "stale temp file survived"; exit 1; }
    kill -TERM "$serve_pid"; wait "$serve_pid" || { echo "gc serve unclean exit"; exit 1; }
    serve_pid=""

    echo "check chaos: OK"
    exit 0
fi

if [ "${1:-}" = "serve" ]; then
    echo "== multi-tenant serve suite (-race)"
    go test -race -count=1 ./internal/server
    go test -race -count=1 -run 'TestCoalescerStaleWindowTimer|TestCoalescerCompileError|TestBreakerDrain' .

    echo "== two-tenant serve smoke test"
    tmp="$(mktemp -d)"
    trap 'kill "${serve_pid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

    go build -o "$tmp/naru" ./cmd/naru

    # Tenant alpha: a correlated table whose appended rows will contradict it
    # (drift -> refresh -> hot-swap). Tenant beta: a different, stable table
    # that must stay on version 1 throughout.
    awk 'BEGIN{
        print "state,qty";
        s[0]="NY"; s[1]="CA"; s[2]="WA"; s[3]="TX";
        for (i = 0; i < 64; i++) print s[i%4] "," (i%4)*10
    }' > "$tmp/alpha.csv"
    awk 'BEGIN{
        print "a,b";
        for (i = 0; i < 64; i++) print i%8 "," int(i/8)%8
    }' > "$tmp/beta.csv"

    echo "-- train both tenants"
    "$tmp/naru" train -csv "$tmp/alpha.csv" -out "$tmp/alpha.naru" \
        -epochs 2 -hidden 8,8 -samples 64 > /dev/null
    "$tmp/naru" train -csv "$tmp/beta.csv" -out "$tmp/beta.naru" \
        -epochs 1 -hidden 8,8 -samples 64 > /dev/null

    cat > "$tmp/tenants.json" <<EOF
{
  "default": "alpha",
  "tenants": [
    {"name": "alpha", "csv": "$tmp/alpha.csv", "model": "$tmp/alpha.naru",
     "samples": 64,
     "refresh_after": 8, "drift_threshold": 0.05, "refresh_epochs": 1,
     "registry": "$tmp/registry", "lifecycle_checkpoint": "$tmp/alpha.ckpt"},
    {"name": "beta", "csv": "$tmp/beta.csv", "model": "$tmp/beta.naru",
     "samples": 64, "batch_window": "2ms"}
  ]
}
EOF

    echo "-- serve two tenants from one process"
    "$tmp/naru" serve -tenants "$tmp/tenants.json" -addr 127.0.0.1:0 \
        -metrics-addr 127.0.0.1:0 > "$tmp/serve.out" 2> "$tmp/serve.err" &
    serve_pid=$!
    for _ in $(seq 1 50); do
        grep -q "serving tenants" "$tmp/serve.out" && grep -q "metrics on" "$tmp/serve.err" && break
        kill -0 "$serve_pid" || { echo "serve exited early"; cat "$tmp/serve.err"; exit 1; }
        sleep 0.1
    done
    serve_url="$(sed -n 's/^serving tenants \[[^]]*\] on \(http:\/\/[^/]*\).*/\1/p' "$tmp/serve.out")"
    metrics_url="$(sed -n 's/^metrics on \(http:\/\/[^/]*\).*/\1/p' "$tmp/serve.err")"
    [ -n "$serve_url" ] && [ -n "$metrics_url" ] || { echo "could not parse bound addresses"; cat "$tmp/serve.out"; exit 1; }
    grep -q "serving tenants \[alpha beta\]" "$tmp/serve.out" || { echo "tenant banner wrong"; cat "$tmp/serve.out"; exit 1; }
    grep -q "lifecycle\[alpha\]: ingestion enabled" "$tmp/serve.err" || { echo "alpha lifecycle not enabled"; cat "$tmp/serve.err"; exit 1; }

    echo "-- per-tenant estimates, cache replay, legacy aliasing"
    curl -fsS --get "$serve_url/v1/alpha/estimate" --data-urlencode "where=state=NY" > "$tmp/a1.json"
    grep -q '"source":"model"' "$tmp/a1.json" || { echo "alpha not answered by model"; cat "$tmp/a1.json"; exit 1; }
    grep -q '"model_version":1' "$tmp/a1.json" || { echo "alpha not on version 1"; cat "$tmp/a1.json"; exit 1; }
    grep -q '"cached":true' "$tmp/a1.json" && { echo "first alpha answer claims a cache hit"; exit 1; }
    # The identical query replays from alpha's result cache...
    curl -fsS --get "$serve_url/v1/alpha/estimate" --data-urlencode "where=state=NY" \
        | grep -q '"cached":true' || { echo "repeat query missed the cache"; exit 1; }
    # ...and the legacy route is an alias of the default tenant (same cache).
    curl -fsS --get "$serve_url/estimate" --data-urlencode "where=state=NY" \
        | grep -q '"cached":true' || { echo "legacy route did not alias alpha"; exit 1; }
    curl -fsS --get "$serve_url/v1/beta/estimate" --data-urlencode "where=a<=3" > "$tmp/b1.json"
    grep -q '"source":"model"' "$tmp/b1.json" || { echo "beta not answered by model"; cat "$tmp/b1.json"; exit 1; }
    curl -s --get "$serve_url/v1/ghost/estimate" --data-urlencode "where=state=NY" \
        -o /dev/null -w '%{http_code}' | grep -q 404 || { echo "unknown tenant not 404"; exit 1; }

    echo "-- append to alpha until its refresh hot-swaps; beta must not move"
    printf 'NY,30\nCA,0\nWA,10\nTX,20\nNY,30\nCA,0\nWA,10\nTX,20\n' > "$tmp/rows.csv"
    curl -fsS -X POST --data-binary @"$tmp/rows.csv" "$serve_url/v1/alpha/append" \
        | grep -q '"appended":8' || { echo "alpha append failed"; exit 1; }
    curl -fsS "$serve_url/v1/alpha/drift" | grep -q '"stale":' || { echo "alpha drift endpoint broken"; exit 1; }
    for _ in $(seq 1 100); do
        grep -q "lifecycle\[alpha\]: swapped in version 2" "$tmp/serve.err" && break
        kill -0 "$serve_pid" || { echo "serve died mid-refresh"; cat "$tmp/serve.err"; exit 1; }
        sleep 0.1
    done
    grep -q "lifecycle\[alpha\]: swapped in version 2" "$tmp/serve.err" \
        || { echo "alpha refresh never swapped"; cat "$tmp/serve.err"; exit 1; }
    # The hot-swap bumped alpha's cache epoch: the old answer may not replay.
    curl -fsS --get "$serve_url/v1/alpha/estimate" --data-urlencode "where=state=NY" > "$tmp/a2.json"
    grep -q '"model_version":2' "$tmp/a2.json" || { echo "alpha not serving version 2"; cat "$tmp/a2.json"; exit 1; }
    grep -q '"cached":true' "$tmp/a2.json" && { echo "cache served across the hot-swap epoch"; exit 1; }
    # Beta's tenancy is untouched: still version 1, its cache still warm.
    curl -fsS --get "$serve_url/v1/beta/estimate" --data-urlencode "where=a<=3" > "$tmp/b2.json"
    grep -q '"model_version":1' "$tmp/b2.json" || { echo "beta moved off version 1"; cat "$tmp/b2.json"; exit 1; }
    grep -q '"cached":true' "$tmp/b2.json" || { echo "alpha swap evicted beta cache"; cat "$tmp/b2.json"; exit 1; }
    # Beta has no lifecycle budgets: append is 501, not silently dropped.
    curl -s -X POST --data-binary @"$tmp/rows.csv" "$serve_url/v1/beta/append" \
        -o /dev/null -w '%{http_code}' | grep -q 501 || { echo "beta append should be 501"; exit 1; }

    echo "-- tenant-labelled metrics on the shared scrape"
    scrape="$tmp/metrics.txt"
    curl -fsS "$metrics_url/metrics" > "$scrape"
    for want in 'naru_queries_total{tenant="alpha"}' 'naru_queries_total{tenant="beta"}' \
        'naru_cache_hits_total{tenant="alpha"}' 'naru_cache_hits_total{tenant="beta"}' \
        'naru_lifecycle_refreshes_total{tenant="alpha"}'; do
        grep -qF "$want" "$scrape" || { echo "missing labelled metric $want"; grep naru_ "$scrape" | head -40; exit 1; }
    done
    grep -q '^naru_tenants 2' "$scrape" || { echo "tenant gauge not 2"; grep naru_tenants "$scrape"; exit 1; }

    echo "-- aggregate probes and tenant listing"
    curl -fsS "$serve_url/readyz" > "$tmp/ready.json"
    grep -q '"ready":true' "$tmp/ready.json" || { echo "aggregate readyz not ready"; cat "$tmp/ready.json"; exit 1; }
    curl -fsS "$serve_url/v1/tenants" > "$tmp/tenants.out"
    grep -q '"default":"alpha"' "$tmp/tenants.out" || { echo "tenant listing lost the default"; cat "$tmp/tenants.out"; exit 1; }
    grep -q '"name":"beta"' "$tmp/tenants.out" || { echo "tenant listing lost beta"; cat "$tmp/tenants.out"; exit 1; }
    curl -fsS "$serve_url/healthz" | grep -q '"status":"ok"' || { echo "aggregate healthz not ok"; exit 1; }

    echo "-- graceful shutdown on SIGTERM"
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "serve did not exit cleanly"; cat "$tmp/serve.err"; exit 1; }
    serve_pid=""

    echo "check serve: OK"
    exit 0
fi

if [ "${1:-}" = "join" ]; then
    echo "== join estimation suite (-race)"
    go test -race -count=1 ./internal/neurocard
    go test -race -count=1 -run 'TestEstimateScaled' ./internal/core
    go test -race -count=1 -run 'TestServerJoinTenantE2E|TestJoinEstimateFailureIs500' ./internal/server
    go test -race -count=1 -run 'TestCLIJoin' ./cmd/naru

    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT INT TERM

    echo "== CLI smoke: train -join, estimate -join vs nested-loop truth"
    go build -o "$tmp/naru" ./cmd/naru
    awk 'BEGIN{
        print "cid,region" > "'"$tmp"'/customers.csv"
        print "oid,cid,amount" > "'"$tmp"'/orders.csv"
        print "oid,price" > "'"$tmp"'/items.csv"
        r[0]="east"; r[1]="west"; r[2]="north"; oid = 0
        for (c = 0; c < 40; c++) {
            print c "," r[c%3] >> "'"$tmp"'/customers.csv"
            for (o = 0; o <= c%3; o++) {
                print oid "," c "," 10*(1+oid%5) >> "'"$tmp"'/orders.csv"
                for (i = 0; i <= oid%2; i++) print oid "," 5*(i+1) >> "'"$tmp"'/items.csv"
                oid++
            }
        }
    }'
    cat > "$tmp/join.json" <<EOF
{
  "tables": [
    {"name": "customers", "csv": "customers.csv"},
    {"name": "orders",    "csv": "orders.csv"},
    {"name": "items",     "csv": "items.csv"}
  ],
  "edges": [
    {"parent": "customers", "child": "orders", "parent_col": "cid", "child_col": "cid"},
    {"parent": "orders",    "child": "items",  "parent_col": "oid", "child_col": "oid"}
  ]
}
EOF
    "$tmp/naru" train -join "$tmp/join.json" -out "$tmp/join.naru" \
        -epochs 2 -hidden 16 -samples 500 -seed 3 > "$tmp/train.log"
    grep -q "saved to" "$tmp/train.log" || { echo "join training failed"; cat "$tmp/train.log"; exit 1; }
    "$tmp/naru" estimate -join "$tmp/join.json" -model "$tmp/join.naru" \
        -where "customers.region = east AND orders.amount >= 30" > "$tmp/est.log"
    grep -q "truth:    card=" "$tmp/est.log" || { echo "join estimate failed"; cat "$tmp/est.log"; exit 1; }

    echo "== join benchmark: accuracy gate + determinism + regression gate"
    # The training trajectory is a pure function of (seed, workers); pin the
    # worker count so the two runs' estimate digests must match bit-for-bit.
    join_flags="-dmv-rows 10000 -queries 100 -epochs 2 -seed 1 -workers 2 -quiet
        -bench-out $tmp/BENCH_join.json -history $tmp/history.json"

    echo "-- baseline run"
    go run ./cmd/narubench $join_flags join > "$tmp/run1.out"
    grep -q "join gate: .* -> PASS" "$tmp/run1.out" || { echo "accuracy gate failed"; cat "$tmp/run1.out"; exit 1; }
    grep -q "recorded .* in" "$tmp/run1.out" || { echo "history entry not recorded"; cat "$tmp/run1.out"; exit 1; }

    echo "-- gated re-run (bit-identical digest, within 10% on throughput)"
    go run ./cmd/narubench $join_flags -check-regression join > "$tmp/run2.out" \
        || { echo "regression gate tripped"; cat "$tmp/run2.out"; exit 1; }
    grep -q "join gate: .* -> PASS" "$tmp/run2.out" || { echo "accuracy gate failed on re-run"; cat "$tmp/run2.out"; exit 1; }
    d1="$(sed -n 's/^join digest: //p' "$tmp/run1.out")"
    d2="$(sed -n 's/^join digest: //p' "$tmp/run2.out")"
    [ -n "$d1" ] && [ "$d1" = "$d2" ] || { echo "join runs not bit-identical: '$d1' vs '$d2'"; exit 1; }

    echo "-- gate must trip on a doctored baseline"
    awk '
        /"name": "join_queries_per_sec"/ { hit = 1 }
        hit && /"value":/ { sub(/"value": [0-9.eE+-]+/, "\"value\": 1000000"); hit = 0 }
        { print }
    ' "$tmp/history.json" > "$tmp/doctored.json"
    if go run ./cmd/narubench -history "$tmp/doctored.json" -check-regression \
        -bench-out "$tmp/BENCH_join.json" -dmv-rows 10000 -queries 100 -epochs 2 \
        -seed 1 -workers 2 -quiet join >/dev/null 2>&1; then
        echo "regression gate failed to trip on doctored baseline"; exit 1
    fi

    echo "check join: OK"
    exit 0
fi

if [ "${1:-}" = "train" ]; then
    echo "== training determinism (sharded, interrupt/resume)"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT INT TERM

    go build -o "$tmp/naru" ./cmd/naru

    # A correlated 3-column table, big enough for 20 steps/epoch at -batch 128.
    awk 'BEGIN{
        srand(7); print "a,b,c";
        for (i = 0; i < 2560; i++) {
            x = int(rand()*8); y = (x*3 + int(rand()*2)) % 10; z = (x+y) % 5;
            print x "," y "," z
        }
    }' > "$tmp/data.csv"

    train_flags="-csv $tmp/data.csv -epochs 2 -batch 128 -hidden 16,16 -samples 64 -seed 3"

    echo "-- two sharded runs must write byte-identical models"
    "$tmp/naru" train $train_flags -train-workers 3 -out "$tmp/modelA.naru" > /dev/null
    "$tmp/naru" train $train_flags -train-workers 3 -out "$tmp/modelB.naru" > /dev/null
    cmp "$tmp/modelA.naru" "$tmp/modelB.naru" || { echo "sharded runs differ"; exit 1; }

    echo "-- interrupted (+ resumed without -train-workers) must match byte-for-byte"
    "$tmp/naru" train $train_flags -train-workers 3 -checkpoint "$tmp/train.ckpt" \
        -checkpoint-every 5 -stop-after 7 -out "$tmp/modelC.naru" > "$tmp/stop.log"
    grep -q "training stopped after 7 steps" "$tmp/stop.log" || { echo "missing stop message"; cat "$tmp/stop.log"; exit 1; }
    [ ! -f "$tmp/modelC.naru" ] || { echo "stopped run should not save a model"; exit 1; }
    # Resume deliberately omits -train-workers: the checkpoint's recorded
    # worker count must be adopted for the trajectory to stay bit-identical.
    "$tmp/naru" train $train_flags -checkpoint "$tmp/train.ckpt" -resume \
        -out "$tmp/modelC.naru" > /dev/null
    cmp "$tmp/modelA.naru" "$tmp/modelC.naru" || { echo "resumed model differs from uninterrupted"; exit 1; }

    echo "check train: OK"
    exit 0
fi

echo "== go vet ./..."
go vet ./...

# The portable (non-amd64) build catches an assembly function without its
# simd_other.go stub.
echo "== GOARCH=arm64 go build ./..."
GOARCH=arm64 go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race -short ./..."
go test -race -short -timeout 20m ./...

echo "== serve gate"
"$0" serve

echo "check: OK"
