#!/usr/bin/env bash
# Pre-merge correctness gate for flashqos.
#
# Runs, in order:
#   1. warnings-as-errors build of everything (libs, tests, benches, examples)
#      and the plain ctest suite
#   2. flashqos_lint over src/ against the committed baseline (in-tree
#      contract linter: sanctioned logging, zero-alloc hot paths, seeded
#      randomness, SimTime-only simulation code, include hygiene), then the
#      test-only header check: every src/**/*.hpp must be included by some
#      file under src/, bench/, examples/ or perfbench/ other than its own
#      .cpp (a module only tests reach is dead weight; not transitive)
#   3. schedule-exhaustive model checking (flashqos_verify --model): every
#      interleaving of the bounded HandoffQueue / MetricRegistry models,
#      with vector-clock race, deadlock, and lost-wakeup detection
#   4. the test suite under AddressSanitizer + UndefinedBehaviorSanitizer,
#      built as RelWithDebInfo without -DNDEBUG so the engine's
#      FLASHQOS_ASSERT invariants are checked too (every other build here
#      compiles them out)
#   5. the test suite under ThreadSanitizer
#   6. the design-invariant verifier (flashqos_verify) over every catalog
#      design with N <= 64, plus the device-op re-simulation audit
#      (--replay: one replay per mode combination and two failure-window
#      configs, every device op re-simulated on flashsim::FlashArray with
#      the same start and finish), the observability self-audit (--obs:
#      recorded metrics, windowed time-series points, SLO burn-rate pages,
#      and trace spans checked against the replay outcomes they describe),
#      and the
#      fault-injection chaos audit (--faults: randomized fault plans with
#      request-conservation, routing, guarantee-reestablishment and
#      device-op re-simulation checks), the
#      streaming-identity audit
#      (--stream: run_stream ≡ run() — results, metric registry, and
#      windowed time-series bit-identical at every batch size, through
#      generator and chunked-file cursors, with a seeded drain-bound
#      mutation proving the audit can fail), and the daemon-identity
#      audit (--daemon: results served over a real loopback flashqosd
#      session field-identical to in-process replay, including
#      multi-connection interleavings, clamping, and mid-session flushes),
#      and the sustained-overload audit (--overload: admission offers per
#      request bounded at N and 2N in every mode, request conservation,
#      zero deadline misses under online deterministic, with a seeded
#      rescan mutation that must reproduce the outcomes and trip the bound)
#   7. flashqosd lifecycle smoke: start the daemon on an ephemeral port
#      from a generated config, parse its listen line, then either drive
#      one batch through it with --daemon-probe (flushed 1 ns past the
#      last arrival; every verdict must come back before the session ends,
#      which drains the daemon) or SIGTERM it, and in both cases
#      require a clean drain and exit 0; then start it with a bad
#      [service] value and with an out-of-range --port, and require each
#      to exit non-zero with a diagnostic naming the key or flag, without
#      ever printing a listen line
#   8. benchmark smoke: perfbench/run.py --smoke builds the repository
#      benchmark and runs every workload at tiny scale in both modes, so an
#      engine change that breaks a benchmark gate (outcome identity, the
#      onoff_overload N/2N deferral check, zero clamps on the wire) fails
#      here instead of at measurement time
#   9. the FLASHQOS_OBS=OFF configuration: a warnings-as-errors build with
#      every instrumentation site compiled out, and the plain ctest suite
#      on it (goldens and the --replay matrix must pass bit-identically
#      without obs; this is what catches a misplaced obs guard)
#  10. clang-tidy over src/ (skipped with a warning if clang-tidy is not
#      installed — stages 2–3 are the always-on static gate; clang-tidy is
#      an extra when a clang toolchain is around)
#
# Usage: scripts/check.sh [--quick]
#   --quick: skip the TSan pass (the slowest stage) — NOT sufficient for
#            merging concurrency changes.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "check.sh: unknown argument '$arg' (usage: scripts/check.sh [--quick])" >&2
       exit 2 ;;
  esac
done

run() { echo "+ $*" >&2; "$@"; }

banner() {
  echo
  echo "==================================================================="
  echo "== $*"
  echo "==================================================================="
}

banner "1/10 warnings-as-errors build + ctest"
run cmake -B build-werror -S . -DFLASHQOS_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
run cmake --build build-werror -j "$JOBS"
run ctest --test-dir build-werror --output-on-failure -j "$JOBS"

banner "2/10 flashqos_lint (contract linter) + test-only header check"
run ./build-werror/src/lint/flashqos_lint --root src \
  --baseline scripts/lint_baseline.txt
test_only=0
for header in $(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort); do
  if ! grep -rlF --include='*.hpp' --include='*.cpp' "#include \"$header\"" \
       src bench examples perfbench \
     | grep -vxF -e "src/$header" -e "src/${header%.hpp}.cpp" | grep -q .; then
    echo "check.sh: src/$header is included only by tests (or by nothing)" >&2
    test_only=1
  fi
done
[[ $test_only -eq 0 ]] || exit 1
echo "test-only header check: every src header has a non-test includer"

banner "3/10 schedule-exhaustive model checking"
run ./build-werror/src/verify/flashqos_verify --model

banner "4/10 ASan + UBSan (asserts on)"
run cmake -B build-asan -S . -DFLASHQOS_WERROR=ON -DFLASHQOS_SANITIZE=address \
  -DFLASHQOS_BUILD_BENCH=OFF -DFLASHQOS_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  > /dev/null
run cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  run ctest --test-dir build-asan --output-on-failure -j "$JOBS"

if [[ $QUICK -eq 0 ]]; then
  banner "5/10 TSan"
  run cmake -B build-tsan -S . -DFLASHQOS_WERROR=ON -DFLASHQOS_SANITIZE=thread \
    -DFLASHQOS_BUILD_BENCH=OFF -DFLASHQOS_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  run cmake --build build-tsan -j "$JOBS"
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    run ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
else
  banner "5/10 TSan — SKIPPED (--quick)"
fi

banner "6/10 design-invariant verifier (catalog, N <= 64) + device-op re-simulation audit + obs audit + chaos audit + fairness audit + stream audit + daemon audit + overload audit"
run ./build-werror/src/verify/flashqos_verify --max-devices 64 --replay --obs --faults --fairness --stream --daemon --overload

banner "7/10 flashqosd lifecycle smoke (ephemeral port, loopback batch, clean drain, bad input rejected)"
daemon_smoke() {
  # $1: "probe" (drive one batch; end-session drains the daemon) or
  #     "sigterm" (no traffic; the signal forces the drain).
  local mode=$1 ini log pid listen port rc=0
  ini=$(mktemp) log=$(mktemp)
  printf '[design]\nname = (9,3,1)\n\n[pipeline]\nretrieval = online\nadmission = deterministic\n' > "$ini"
  echo "+ ./build-werror/src/net/flashqosd $ini --port 0  # $mode" >&2
  ./build-werror/src/net/flashqosd "$ini" --port 0 > "$log" &
  pid=$!
  listen=""
  for _ in $(seq 1 100); do
    listen=$(grep -o 'listening on 127\.0\.0\.1:[0-9]*' "$log" || true)
    [[ -n "$listen" ]] && break
    kill -0 "$pid" 2> /dev/null || { cat "$log"; echo "check.sh: flashqosd died before listening" >&2; return 1; }
    sleep 0.1
  done
  [[ -n "$listen" ]] || { cat "$log"; echo "check.sh: flashqosd never printed its listen line" >&2; return 1; }
  if [[ $mode == probe ]]; then
    port=${listen##*:}
    run ./build-werror/src/verify/flashqos_verify --daemon-probe "$port" || return 1
  else
    kill -TERM "$pid"
  fi
  wait "$pid" || rc=$?
  cat "$log"
  grep -q 'flashqosd: drained' "$log" || { echo "check.sh: flashqosd did not report a drain ($mode)" >&2; return 1; }
  rm -f "$ini" "$log"
  [[ $rc -eq 0 ]] || { echo "check.sh: flashqosd exited $rc (want clean drain + 0, $mode)" >&2; return 1; }
}
daemon_smoke probe
daemon_smoke sigterm

daemon_rejects() {
  # $1: extra config lines; $2: the port flag's value; $3: what the
  # diagnostic must name. Bad input must fail before the daemon listens.
  local extra=$1 port=$2 name=$3 ini log rc=0
  ini=$(mktemp) log=$(mktemp)
  printf '[design]\nname = (9,3,1)\n%b' "$extra" > "$ini"
  echo "+ ./build-werror/src/net/flashqosd $ini --port $port  # must reject $name" >&2
  timeout 20 ./build-werror/src/net/flashqosd "$ini" --port "$port" > "$log" 2>&1 || rc=$?
  cat "$log"
  [[ $rc -ne 0 ]] || { echo "check.sh: flashqosd accepted bad $name" >&2; return 1; }
  grep -qF -- "$name" "$log" || { echo "check.sh: flashqosd's diagnostic does not name $name" >&2; return 1; }
  if grep -q 'listening on' "$log"; then
    echo "check.sh: flashqosd listened before rejecting $name" >&2
    return 1
  fi
  rm -f "$ini" "$log"
}
daemon_rejects '[service]\nbatch = 0\n' 0 '[service] batch'
daemon_rejects '' 70000 "'--port'"

banner "8/10 benchmark smoke (perfbench --smoke: every workload, both modes, every gate)"
run python3 perfbench/run.py --smoke

banner "9/10 FLASHQOS_OBS=OFF build + ctest"
run cmake -B build-obs-off -S . -DFLASHQOS_WERROR=ON -DFLASHQOS_OBS=OFF \
  -DFLASHQOS_BUILD_BENCH=OFF -DFLASHQOS_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
run cmake --build build-obs-off -j "$JOBS"
run ctest --test-dir build-obs-off --output-on-failure -j "$JOBS"

banner "10/10 clang-tidy (optional extra)"
if command -v clang-tidy > /dev/null 2>&1; then
  run cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  find src -name '*.cpp' -print0 \
    | xargs -0 -n 1 -P "$JOBS" clang-tidy -p build-tidy --quiet --warnings-as-errors='*'
else
  echo "NOTE: clang-tidy not found on PATH; skipping the optional pass" >&2
  echo "      (the in-tree flashqos_lint gate already ran in stage 2/10)." >&2
fi

banner "all checks passed"
