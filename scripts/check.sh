#!/usr/bin/env bash
# CI gate: configure + build with warnings-as-errors, then run the full
# ctest suite (unit/integration tests plus the fig4/fig5 crossing-census,
# fig6 virtual-wait and Table II bandwidth smoke gates registered in
# CMakeLists.txt — all on the lockstep rig, so the sanitizer leg gates
# them too), then diffs every smoke artifact against its committed
# baseline in bench/baseline/, holds the Table I capability-aware line
# count at or below its baseline and, outside the sanitizer leg, holds
# every capability predicate in src/fstack and src/scenarios to the one
# boundary check (src/fstack/boundary.hpp), fails when anything in src/
# starts a thread or an ff_* that src/fstack/api.hpp declares has no caller
# in src/, bench/ or examples/, runs the repository
# benchmark's determinism self-check (bench/e2e/run.sh --selfcheck),
# requires each benchmark workload's smoke crossings per MiB to equal
# bench/baseline/E2E_crossings.json and its virtual-clock results to equal
# bench/baseline/E2E_virtual.json, both exactly.
#
# SANITIZE=1 switches to the AddressSanitizer + UBSan configuration in its
# own build tree — the memory-safety net over the loan-based RX pipeline
# (mbuf refcounts, capability views, the ff_uring SQ/CQ rings).
#
# TSAN=1 switches to the ThreadSanitizer configuration, again in its own
# build tree, and runs the two binaries that spawn threads: the intravisor
# host-shim suite (CompartmentMutex/umtx races) and the locking ablation,
# which drives the compartment mutex, umtx, TaggedMemory's atomic word
# operations and the syscall router's futex counter under real contention.
# Everything else runs on one thread; the default leg's thread gate keeps
# it that way.
#
# COVERAGE=1 switches to a Debug build with gcov instrumentation (--coverage
# on compile and link, counters updated atomically so the threaded tests
# cannot race on them), again in its own build tree, runs the ctest suite
# once (the wall-clock test skipped: it passes or fails on host noise) and
# reads every .gcda with gcov's JSON format through scripts/coverage.jq into
# <build>/COVERAGE.json: src/'s executable and covered lines, their share,
# and every src/ function that never ran. It fails when share_pct falls
# below bench/baseline/COVERAGE.json, when a function that never ran is not
# on the baseline's never_run list (matched on file and name), or when a
# baseline entry gives no reason it may stay unrun. A change that raises
# the share or shortens the list copies the fresh file over the baseline;
# the leg carries the baseline's reasons into it.
set -euo pipefail

cd "$(dirname "$0")/.."

if ! command -v jq > /dev/null; then
  echo "check.sh reads the bench artifacts with jq; install it first" >&2
  exit 2
fi

SANITIZE="${SANITIZE:-0}"
TSAN="${TSAN:-0}"
COVERAGE="${COVERAGE:-0}"
if (( (SANITIZE == 1) + (TSAN == 1) + (COVERAGE == 1) > 1 )); then
  echo "SANITIZE=1, TSAN=1 and COVERAGE=1 are exclusive (each has its own build)" >&2
  exit 2
fi
if [[ "$SANITIZE" == "1" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  EXTRA_FLAGS=(-DCHERINET_SANITIZE=ON)
  # Abort on the first report; UBSan prints stacks for its diagnostics.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
  # Sanitizer slowdown distorts wall-clock contention ratios; this leg is
  # for the memory-safety signal, not the timing figures.
  export CHERINET_SKIP_TIMING_TESTS=1
elif [[ "$TSAN" == "1" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  EXTRA_FLAGS=(-DCHERINET_TSAN=ON)
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  export CHERINET_SKIP_TIMING_TESTS=1
elif [[ "$COVERAGE" == "1" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-cov}"
  # Atomic counter updates: the threaded tests (CompartmentMutex.*, Umtx.*)
  # would otherwise race on the counters of the code they share, and two
  # runs at one commit would read different line counts.
  EXTRA_FLAGS=(-DCMAKE_BUILD_TYPE=Debug
               "-DCMAKE_CXX_FLAGS=--coverage -fprofile-update=atomic"
               -DCMAKE_EXE_LINKER_FLAGS=--coverage)
  export CHERINET_SKIP_TIMING_TESTS=1
else
  BUILD_DIR="${BUILD_DIR:-build-check}"
  EXTRA_FLAGS=()
fi
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . -DCHERINET_WERROR=ON "${EXTRA_FLAGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"
# A stale artifact must not stand in for one this run failed to write.
rm -f "$BUILD_DIR"/BENCH_*.json
status=0
if [[ "$TSAN" == "1" ]]; then
  # Only the binaries that spawn threads: everything else is single-threaded
  # virtual-time simulation with nothing for TSan to see. The ablation's
  # shard gate (every acquisition a fast path) does not depend on timing.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^test_host_intravisor$' \
    || status=$?
  "$BUILD_DIR"/bench_ablation_locking || status=$?
  exit "$status"
fi
if [[ "$COVERAGE" == "1" ]]; then
  # Counters from an earlier run would add to this one's.
  find "$BUILD_DIR" -name '*.gcda' -delete
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" || status=$?
  cov="$BUILD_DIR/COVERAGE.json"
  base="bench/baseline/COVERAGE.json"
  known="$(jq -c '.never_run' "$base" 2> /dev/null || echo '[]')"
  rm -f "$cov"
  find "$BUILD_DIR" -name '*.gcda' -print0 \
    | xargs -0 gcov --json-format --stdout 2> /dev/null \
    | jq -n --arg root "$PWD" --argjson known "$known" \
        -f scripts/coverage.jq > "$cov" || status=1
  echo "== coverage: $cov (baseline $base)"
  jq '{exec_lines, covered_lines, share_pct, never_run: (.never_run | length)}' \
    "$cov" "$base" || status=1
  require_cov() {  # require_cov MESSAGE JQ_FILTER -> the offending entries
    local bad
    bad="$(jq -r --slurpfile base "$base" "$2" "$cov")" || bad="jq failed"
    if [[ -n "$bad" ]]; then
      echo "== COVERAGE REGRESSION: $1"
      echo "$bad"
      status=1
    fi
  }
  require_cov "share_pct fell below the baseline" \
    'select(.share_pct < $base[0].share_pct) | "\(.share_pct) < \($base[0].share_pct)"'
  require_cov "functions never run that the baseline does not list" \
    '.never_run[] | . as $e | select($base[0].never_run
       | any(.[]; .file == $e.file and .name == $e.name) | not)
     | "\(.file): \(.name)"'
  require_cov "baseline never_run entries without a reason" \
    '$base[0].never_run[] | select((.reason // "") == "") | "\(.file): \(.name)"'
  exit "$status"
fi
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" || status=$?

# Baseline diff: every leaf of each ctest smoke artifact must equal its
# committed baseline in bench/baseline/ (written from the same smoke
# knobs), in this leg and in the sanitizer leg alike. A PR that moves a
# deterministic number regenerates the baseline and says why in CHANGES.md.
# Leaves that time the host rather than the model are printed, never
# compared: the keys below wherever they occur, and the value/bound of a
# gate row whose label names one.
FIGS=(fig4 fig5 fig6 table2 churn impairment tenants)
WALL_LEAVES='["ns_per_iter","next_deadline_ns","sublinearity_x","lifecycles_per_sec","wall"]'
leaves() {  # leaves ARTIFACT WALL(true|false) -> "path = value" lines
  jq -r --argjson wall "$WALL_LEAVES" --argjson want "$2" '
    def named($s): $wall | any(.[]; . as $k | $s | tostring | contains($k));
    def is_wall($p):
      ($p | any(.[]; . as $k | $wall | any(.[]; . == $k))) or
      ($p[0] == "gates" and ($p[2] == "value" or $p[2] == "bound") and
       named(.gates[$p[1]].label));
    paths(scalars) as $p | select(is_wall($p) == $want)
    | "\($p | map(tostring) | join(".")) = \(getpath($p))"' "$1"
}
for fig in "${FIGS[@]}"; do
  f="$BUILD_DIR/BENCH_$fig.json"
  base="bench/baseline/BENCH_$fig.json"
  [[ -f "$f" ]] || continue  # reported as missing below
  if ! diff -u --label "$base" --label "$f" <(leaves "$base" false) \
      <(leaves "$f" false); then
    echo "== BASELINE DRIFT: $f differs from $base (diff above)"
    status=1
  fi
  wall="$(leaves "$f" true)"
  if [[ -n "$wall" ]]; then
    echo "== wall-clock leaves of $f (not compared):"
    echo "$wall"
  fi
done

# The remaining benches are skipped on the sanitizer leg with the other
# wall-clock-sensitive runs.
if [[ "$SANITIZE" != "1" ]]; then
  # One boundary check: src/fstack/boundary.hpp is the only file in
  # src/fstack and src/scenarios that asks a capability about its tag,
  # seal, permissions or bounds. A second copy of the check fails here.
  copies="$(grep -rnE 'Access::k|\.check\(|is_sealed\(\)|\.tag\(\)|in_bounds\(' \
    src/fstack src/scenarios | grep -v '^src/fstack/boundary\.hpp:' || true)"
  if [[ -n "$copies" ]]; then
    echo "== CAPABILITY CHECK OUTSIDE src/fstack/boundary.hpp:"
    echo "$copies"
    status=1
  fi

  # Single-threaded by construction: every rig runs on the caller's thread,
  # so nothing in src/ may start one. Only tests and benches that measure
  # real host contention (test_host_intravisor, bench_ablation_locking)
  # spawn threads, and the TSan leg runs exactly those.
  spawners="$(grep -rnE 'std::(thread|jthread|async)\b' src || true)"
  if [[ -n "$spawners" ]]; then
    echo "== THREAD STARTED IN src/:"
    echo "$spawners"
    status=1
  fi

  # Every ff_* that src/fstack/api.hpp declares has a caller: a non-comment
  # call in src/ (outside api.hpp and api.cpp), bench/ or examples/. A call
  # only tests make is surface nothing runs; delete it or give it a user.
  for fn in $(grep -vE '^[[:space:]]*//' src/fstack/api.hpp \
      | grep -oE '\bff_[a-z0-9_]+\(' | tr -d '(' | sort -u); do
    calls="$(grep -rnE --include='*.cpp' --include='*.hpp' "\b$fn\(" \
        src bench examples \
        | grep -vE '^src/fstack/api\.(hpp|cpp):' \
        | sed -E 's#^[^:]+:[0-9]+:##; s#//.*##' \
        | grep -vE '^[[:space:]]*\*' || true)"
    if ! grep -qE "\b$fn\(" <<< "$calls"; then
      echo "== UNCALLED API: $fn is declared in src/fstack/api.hpp but" \
        "nothing in src/, bench/ or examples/ calls it"
      status=1
    fi
  done

  # The repository benchmark (BENCHMARK.json) must still build from this
  # tree and replay its smoke volume deterministically on every seed check.
  bash bench/e2e/run.sh --selfcheck || status=$?

  # Crossings pin: every workload's smoke crossings_per_mib must equal
  # bench/baseline/E2E_crossings.json. The figure is counted, not timed, so
  # it is exact run to run, and a fall left unrecorded would let a later
  # regression climb back into the slack unnoticed: a change that moves one
  # regenerates the file and says why in CHANGES.md, the same rule as
  # E2E_virtual.json.
  # The same runs replay the virtual clock: goodput, p50/p99 latency and
  # the attempted/failed counts must equal bench/baseline/E2E_virtual.json
  # exactly. A change that moves one on purpose regenerates that file and
  # says why in CHANGES.md, the same rule as the BENCH_* baselines.
  # The workloads whose wire loses nothing must also retransmit nothing:
  # any rexmit, fast retransmit or RTO on their recovery: line is spurious.
  # The lossy one must recover without a single RTO: SACK recovery repairs
  # every hole, RACK catches lost retransmissions and the tail-loss probe
  # the loss nothing follows.
  virtual='{goodput_mbps: .metrics.goodput_mbps.value,
            lat_p50_us: .metrics.lat_p50_us.value,
            lat_p99_us: .metrics.lat_p99_us.value, attempted, failed}'
  for w in bulk_tx bulk_rx_zc bulk_tx_lossy rr; do
    if ! out="$(bash bench/e2e/run.sh --workload "$w" --smoke --seed 1 \
        --trace 0)"; then
      echo "== E2E RUN FAILED: $w"
      status=1
      continue
    fi
    line="$(tail -n 1 <<< "$out")"
    if [[ $w != bulk_tx_lossy ]] && ! grep -q \
        '^recovery: rexmits=0 fast_rexmits=0 rto_expirations=0 ' <<< "$out"; then
      echo "== SPURIOUS RECOVERY: $w $(grep '^recovery:' <<< "$out")"
      status=1
    fi
    if [[ $w == bulk_tx_lossy ]] && ! grep -q \
        '^recovery: .* rto_expirations=0 ' <<< "$out"; then
      echo "== LOSSY RTO: $w $(grep '^recovery:' <<< "$out")"
      status=1
    fi
    got="$(jq '.metrics.crossings_per_mib.value' <<< "$line")"
    bound="$(jq --arg w "$w" '.[$w]' bench/baseline/E2E_crossings.json)"
    echo "== crossings_per_mib $w: $got (baseline $bound)"
    if ! jq -en --argjson got "$got" --argjson bound "$bound" \
        '$got == $bound' > /dev/null; then
      echo "== CROSSINGS DRIFT: $w crossings_per_mib $got != $bound"
      status=1
    fi
    got="$(jq -c "$virtual" <<< "$line")"
    want="$(jq -c --arg w "$w" '.[$w]' bench/baseline/E2E_virtual.json)"
    echo "== virtual $w: $got"
    if ! jq -en --argjson got "$got" --argjson want "$want" \
        '$got == $want' > /dev/null; then
      echo "== VIRTUAL DRIFT: $w differs from E2E_virtual.json ($want)"
      status=1
    fi
  done

  # Locking-strategy ablation, now with the sharded-futex leg: per-shard
  # mutexes must run contention-free (every acquisition a fast path) while
  # the shared-mutex legs price the umtx escalation for comparison.
  "$BUILD_DIR"/bench_ablation_locking || status=$?

  # Connection-churn census: gates timer-cost sublinearity over idle-PCB
  # populations (10^5 <= 2x 10^3 per loop turn; CHERINET_CHURN_C1M=1 adds
  # the 10^6 point) and the doorbell-only ring lifecycle (zero per-op API
  # calls across connect->transfer->close after one attach). Persists
  # BENCH_churn.json.
  CHERINET_BENCH_JSON_DIR="$BUILD_DIR" \
    "$BUILD_DIR"/bench_churn_connection_scale || status=$?

  # Hostile-wire census: gates the goodput-vs-loss curve (monotone in the
  # loss rate; 1% uniform loss retains >= 75% of lossless goodput via SACK
  # recovery + RACK + the GRO ack flush + byte-counted congestion avoidance
  # + the immediate gap-fill ACK), the mixed-class p99 under DRR/token-bucket
  # TX scheduling (<= 5x unloaded), corruption containment at the MAC FCS
  # (zero corrupt bytes delivered), seeded-impairment replay determinism and
  # a tail loss repaired without an RTO. Persists BENCH_impairment.json.
  CHERINET_BENCH_JSON_DIR="$BUILD_DIR" \
    "$BUILD_DIR"/bench_impairment_qos || status=$?

  # Tenant-fleet census: three victim streams vs each seeded hostile-tenant
  # profile on one shared stack. Gates >= 90% per-victim goodput retention
  # against the adversary-free control, per-cause accounting of every
  # offender failure (quota rejects / deferral evictions / drain throttles /
  # SQE errors), and exact post-eviction reclamation (gauges to zero, PCB
  # and mbuf-pool baselines restored). Persists BENCH_tenants.json.
  CHERINET_BENCH_JSON_DIR="$BUILD_DIR" \
    "$BUILD_DIR"/bench_tenant_fleet || status=$?
fi

# Every gated bench writes BENCH_<fig>.json: its measured fields, one
# {label, value, op, bound, pass} row per gate and the "gates_passed"
# verdict. The ctest smoke runs write all seven on this leg, so a missing
# artifact is a failure. Each is printed even when a gate failed — a
# failing run's numbers are exactly the ones worth reading.
require() {  # require ARTIFACT JQ_CONDITION
  if ! jq -e "$2" "$1" > /dev/null; then
    echo "== ARTIFACT REGRESSION: $(basename "$1") fails $2"
    status=1
  fi
}
for fig in "${FIGS[@]}"; do
  f="$BUILD_DIR/BENCH_$fig.json"
  if [[ ! -f "$f" ]]; then
    echo "== MISSING ARTIFACT: $f"
    status=1
    continue
  fi
  echo "== bench artifact: $f"
  cat "$f"
  require "$f" '.gates_passed == true'
done

# Re-checks outside the binaries, so a silent weakening of an in-binary gate
# cannot slip through: with TX checksum offload negotiated (the default) the
# stack walked no payload byte for checksums, the TSO ablation leg sliced
# super-segments in the device, and every victim kept >= 90% of its control
# goodput under every hostile tenant profile.
for fig in fig4 fig5; do
  require "$BUILD_DIR/BENCH_$fig.json" '.offload.stack_checksum_bytes == 0'
  require "$BUILD_DIR/BENCH_$fig.json" '.offload.tso.tso_frames > 0'
done
require "$BUILD_DIR/BENCH_tenants.json" '.min_retention >= 0.90'

# Table I ratchet: the capability-annotated line count of src/fstack (the
# count Table I reports) may not exceed the committed baseline. Its share
# is not gated: with `annotated` held, the share can only rise when `total`
# falls, and deleting lines that mention no capability is the aim, not a
# regression. Any edit there moves `total`, so this compares instead of
# joining the exact-diff FIGS loop above; a change that passes and moves
# either figure copies the fresh artifact over
# bench/baseline/BENCH_table1.json.
t1="$BUILD_DIR/BENCH_table1.json"
if [[ -f "$t1" ]]; then
  echo "== bench artifact: $t1"
  cat "$t1"
  require "$t1" '.gates_passed == true'
  require "$t1" ".annotated <= $(jq .annotated bench/baseline/BENCH_table1.json)"
else
  echo "== MISSING ARTIFACT: $t1"
  status=1
fi
exit "$status"
