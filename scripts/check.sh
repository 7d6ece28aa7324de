#!/usr/bin/env bash
# CI gate: configure + build with warnings-as-errors, then run the full
# ctest suite (unit/integration tests plus the fig4/fig5 crossing-census
# and Table II bandwidth smoke gates registered in CMakeLists.txt — both
# run on the lockstep rig, so the sanitizer leg gates them too).
#
# SANITIZE=1 switches to the AddressSanitizer + UBSan configuration in its
# own build tree — the memory-safety net over the loan-based RX pipeline
# (mbuf refcounts, capability views, the ff_uring SQ/CQ rings).
#
# TSAN=1 switches to the ThreadSanitizer configuration, again in its own
# build tree, and runs only the thread-spawning suites (the arbiter-paced
# Fig. 4-6 latency probes, the sharded stacks, the intravisor host shims):
# the data-race net over the per-core shard paths.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE="${SANITIZE:-0}"
TSAN="${TSAN:-0}"
if [[ "$SANITIZE" == "1" && "$TSAN" == "1" ]]; then
  echo "SANITIZE=1 and TSAN=1 are exclusive (ASan and TSan cannot share a binary)" >&2
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
  # The MPMC ring stress spins six threads; full volume is pathological
  # under TSan's serialization on small machines.
  export CHERINET_STRESS_LIGHT=1
else
  BUILD_DIR="${BUILD_DIR:-build-check}"
  EXTRA_FLAGS=()
fi
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . -DCHERINET_WERROR=ON "${EXTRA_FLAGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"
status=0
if [[ "$TSAN" == "1" ]]; then
  # Only the suites that actually spawn threads: everything else is
  # single-threaded virtual-time simulation with nothing for TSan to see.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '^(test_scenarios|test_shards|test_host_intravisor|test_sim_stats|test_updk)$' \
    || status=$?
  exit "$status"
fi
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" || status=$?

# The remaining benches are skipped on the sanitizer leg with the other
# wall-clock-sensitive runs.
if [[ "$SANITIZE" != "1" ]]; then
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
  # loss rate; 1% uniform loss retains >= 50% of lossless goodput via
  # NewReno fast recovery + limited transmit + the GRO ack flush), the
  # mixed-class p99 under DRR/token-bucket TX scheduling (<= 5x unloaded),
  # corruption containment at the MAC FCS (zero corrupt bytes delivered),
  # and seeded-impairment replay determinism. Persists BENCH_impairment.json.
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

# Surface the census artifacts the bench gates emit (v1 / v2-batch /
# v3-uring crossings per byte volume; table2 goodput + frames per
# tx_burst; churn, impairment and tenant censuses): the perf trajectory
# tracked across PRs. Printed even when a gate failed — a failing run's
# numbers are exactly the ones worth reading.
for f in "$BUILD_DIR"/BENCH_fig4.json "$BUILD_DIR"/BENCH_fig5.json \
         "$BUILD_DIR"/BENCH_table2.json "$BUILD_DIR"/BENCH_churn.json \
         "$BUILD_DIR"/BENCH_impairment.json "$BUILD_DIR"/BENCH_tenants.json; do
  if [[ -f "$f" ]]; then
    echo "== bench artifact: $f"
    cat "$f"
  fi
done

# Hardware-offload regression gates over the fig4/fig5 artifacts: with TX
# checksum offload negotiated (the default), the stack must not have walked
# a single payload byte for checksums (stack_checksum_bytes == 0), and the
# TSO ablation leg must actually have sliced super-segments in the device
# (tso_frames > 0). Either drifting is a silent loss of the offload path.
for f in "$BUILD_DIR"/BENCH_fig4.json "$BUILD_DIR"/BENCH_fig5.json; do
  if [[ -f "$f" ]]; then
    scb="$(grep -o '"stack_checksum_bytes": [0-9]*' "$f" | head -n1 \
           | grep -o '[0-9]*$' || true)"
    tsf="$(grep -o '"tso_frames": [0-9]*' "$f" | head -n1 \
           | grep -o '[0-9]*$' || true)"
    if [[ "${scb:-}" != "0" ]]; then
      echo "== OFFLOAD REGRESSION: $(basename "$f") stack_checksum_bytes=${scb:-missing} (want 0)"
      status=1
    fi
    if [[ -z "${tsf:-}" || "$tsf" == "0" ]]; then
      echo "== OFFLOAD REGRESSION: $(basename "$f") tso_frames=${tsf:-missing} (want > 0)"
      status=1
    fi
  fi
done

# Tenant-isolation regression gates over the fleet artifact: the bench's own
# verdict must be green (every hostile profile kept every victim >= 90% of
# control, was accounted per-cause, and reclaimed exactly), and the
# retention floor itself is re-checked here so a silent weakening of the
# in-binary gate cannot slip through.
f="$BUILD_DIR"/BENCH_tenants.json
if [[ -f "$f" ]]; then
  if ! grep -q '"gates_passed": true' "$f"; then
    echo "== TENANT REGRESSION: $(basename "$f") gates_passed != true"
    status=1
  fi
  minret="$(grep -o '"min_retention": [0-9.]*' "$f" | tail -n1 \
            | grep -o '[0-9.]*$' || true)"
  if [[ -z "${minret:-}" ]] || ! awk -v r="$minret" 'BEGIN{exit !(r >= 0.90)}'; then
    echo "== TENANT REGRESSION: $(basename "$f") min_retention=${minret:-missing} (want >= 0.90)"
    status=1
  fi
fi
exit "$status"
