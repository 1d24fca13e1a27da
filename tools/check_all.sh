#!/usr/bin/env bash
# One-command verification matrix for the reldiv tree:
#
#   analyze                    (tools/analyze.py, the one rule engine —
#                               physical-op accounting, kernel purity,
#                               mutex GUARDED_BY coverage, failpoint
#                               catalog sync, include guards, bare
#                               asserts — and tools/tools_test.py, the
#                               unit tests for its rules)
#   clang-tidy                 (when installed; skipped with a notice
#                               otherwise so the matrix stays runnable on
#                               minimal containers)
#   thread-safety              (clang++ -Wthread-safety -Werror over src/
#                               via the clang-tsa preset, plus the
#                               positive/negative compile-fail tests;
#                               skipped with a notice when clang++ is
#                               absent — GCC ignores the annotations)
#   release build + ctest      (the tier-1 gate; ctest also runs the five
#                               examples, so the sanitizer stages below
#                               run them too)
#   bench smoke                (every bench binary on a shrunken workload,
#                               BENCH_*.json schema validation and a
#                               bench_report.py self-diff — fails on
#                               schema drift)
#   e2e smoke                  (bench/e2e/run.py --smoke, untraced and
#                               traced: builds the frozen end-to-end
#                               benchmark into build/e2e/, so an API break
#                               it depends on fails here, and checks that
#                               the traced plan rebuilt from the library's
#                               parts reproduces Divide's quotient and
#                               counters)
#   asan build + ctest         (address + UB sanitizers, DCHECKs forced on)
#   ubsan build + ctest        (standalone UBSan: catches UB whose
#                               detection the address instrumentation
#                               perturbs)
#   tsan build + ctest         (data races in the shared-nothing layer)
#   faults                     (the failpoint suites with the schedule
#                               fuzzer iteration count raised, under BOTH
#                               sanitizer builds: injected disk/memory/
#                               network faults must recover exactly or
#                               unwind leak- and race-free — DESIGN.md §10)
#   parallel                   (the division property + lane-equivalence +
#                               quotient-table growth + scheduler + §6
#                               engine + §3.4 partitioned-division
#                               suites, whose concurrent phases share the
#                               one router, at
#                               RELDIV_THREADS=1,4,8
#                               under the TSan build: every worker count
#                               must produce bit-identical quotients and
#                               Table 1 counters, race-free — DESIGN.md §11)
#   telemetry                  (the process-telemetry suites — histogram
#                               percentile bounds, registry exporters, the
#                               event log's flight ring and trace drops —
#                               under BOTH sanitizer builds, with the
#                               concurrent histogram tests swept across
#                               RELDIV_THREADS under TSan; DESIGN.md §9.2,
#                               §14)
#   adaptive                   (the adaptive-planner differential corpus and
#                               rewrite suites under BOTH sanitizer builds,
#                               swept across RELDIV_THREADS=1,4,8: re-plan
#                               decisions and the stats cache must stay
#                               correct and race-free whatever worker count
#                               the abandoned/restarted plans run at;
#                               DESIGN.md §15)
#   service                    (the multi-query service layer and quotient
#                               cache under BOTH sanitizer builds, swept
#                               across RELDIV_THREADS=1,4,8 under TSan:
#                               grant waits, cancellation unwinds, and
#                               incremental cache maintenance must stay
#                               correct and race-free at every worker
#                               count; plus the memory-pool grant tests
#                               repeated 2000x under release and TSan;
#                               DESIGN.md §16)
#
# Every stage is timed; the summary prints a per-stage wall-clock table.
# Exits nonzero if ANY stage fails, so it can gate CI directly. Stage
# bodies run inside the stage() harness, which captures the exit code
# explicitly — no stage result is ever swallowed by a pipeline or a
# conditional.
#
# Usage: tools/check_all.sh [--quick]
#   --quick   analyze + release + bench smoke + e2e smoke only (inner-loop
#             use)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

FAILURES=()
STAGE_NAMES=()
STAGE_SECS=()
STAGE_RESULTS=()

note() { printf '\n==== %s ====\n' "$*"; }

record() { # name seconds result
  STAGE_NAMES+=("$1")
  STAGE_SECS+=("$2")
  STAGE_RESULTS+=("$3")
}

stage() {
  local name="$1"; shift
  note "$name"
  local t0=$SECONDS rc=0
  # `|| rc=$?` keeps errexit from killing the harness while still
  # capturing the stage's real exit code.
  "$@" || rc=$?
  local dt=$((SECONDS - t0))
  if [[ "$rc" -eq 0 ]]; then
    printf '%s: OK (%ds)\n' "$name" "$dt"
    record "$name" "$dt" "OK"
  else
    printf '%s: FAILED (exit %d, %ds)\n' "$name" "$rc" "$dt"
    record "$name" "$dt" "FAILED"
    FAILURES+=("$name")
  fi
}

skip_stage() { # name reason
  note "$1"
  echo "$1: skipped — $2"
  record "$1" 0 "skipped"
}

build_and_test() {
  local preset="$1"
  cmake --preset "$preset" >/dev/null || return 1
  cmake --build --preset "$preset" -j "$(nproc)" || return 1
  ctest --preset "$preset" || return 1
}

# Static analysis: the project rules, and the unit tests that keep the rule
# engine honest.
analyze_stage() {
  python3 tools/analyze.py || return 1
  python3 tools/tools_test.py || return 1
}
stage "analyze" analyze_stage

if command -v clang-tidy >/dev/null 2>&1; then
  run_tidy() {
    cmake --preset release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || return 1
    # shellcheck disable=SC2046
    clang-tidy -p build --quiet $(find src -name '*.cc' | sort)
  }
  stage "clang-tidy" run_tidy
else
  skip_stage "clang-tidy" "not installed (config: .clang-tidy)"
fi

# Thread-safety gate: compile src/ under clang++ -Wthread-safety -Werror
# (the clang-tsa preset) and run the positive/negative compile-fail tests
# proving the analysis actually rejects an unguarded GUARDED_BY access.
if command -v clang++ >/dev/null 2>&1; then
  thread_safety_stage() {
    cmake --preset clang-tsa >/dev/null || return 1
    cmake --build --preset clang-tsa -j "$(nproc)" || return 1
    ctest --test-dir build-clang-tsa -R 'thread_safety_' \
      --output-on-failure || return 1
  }
  stage "thread-safety" thread_safety_stage
else
  skip_stage "thread-safety" \
    "clang++ not installed (annotations are no-ops under GCC; see DESIGN.md §13)"
fi

stage "release build+ctest" build_and_test release

# Runs every bench binary on its RELDIV_BENCH_SMOKE workload (micro_kernels
# on one fast bit-map kernel and the hash-table probe path), then schema-checks the emitted BENCH_*.json files and
# self-diffs the result set. Catches bench bit-rot and reporter schema drift
# without paying for the full experiment grid.
bench_smoke() {
  local out
  out=$(mktemp -d) || return 1
  local benches=(table2_analytical table4_experimental selectivity_sweep
                 overflow_partitioning parallel_scaleup early_output
                 algorithm_choice hbs_ablation batch_vs_tuple
                 telemetry_overhead adaptive_replan service)
  local b
  for b in "${benches[@]}"; do
    echo "-- $b (smoke)"
    RELDIV_BENCH_SMOKE=1 RELDIV_BENCH_DIR="$out" "build/bench/$b" \
      >/dev/null || { rm -rf "$out"; return 1; }
  done
  echo "-- micro_kernels (BM_BitmapSet/64 and BM_HashTableProbe/1000 only)"
  RELDIV_BENCH_DIR="$out" build/bench/micro_kernels \
    --benchmark_filter='^BM_BitmapSet/64$|^BM_HashTableProbe/1000$' \
    --benchmark_min_time=0.01 \
    >/dev/null || { rm -rf "$out"; return 1; }
  local status=0
  python3 tools/bench_report.py validate "$out" || status=1
  if [[ "$status" -eq 0 ]]; then
    python3 tools/bench_report.py diff "$out" "$out" || status=1
  fi
  rm -rf "$out"
  return "$status"
}
stage "bench smoke" bench_smoke

# The end-to-end benchmark builds its own tree from every src/ file, outside
# CMake's test targets. A traced run rebuilds hash-division from
# HashDivisionCore, DrainAndHashRepartition and RunDivisionFragments and
# fails unless it reproduces Divide's quotient and counts. The run's last
# line (every metric as one JSON object) is left out of the log.
e2e_smoke() {
  python3 bench/e2e/run.py --smoke --trace both | grep -v '^{'
}
stage "e2e smoke" e2e_smoke

if [[ "$QUICK" == "0" ]]; then
  stage "asan build+ctest" build_and_test asan
  stage "ubsan build+ctest" build_and_test ubsan
  stage "tsan build+ctest" build_and_test tsan

  # Fault stage: rerun the fault-injection layer with the randomized
  # schedule fuzzer turned up, under each sanitizer build produced above.
  # Clean-failure claims ("no leak, no race under injected faults") are
  # only proven when the sanitizers watch the unwinding.
  faults() {
    local preset rc=0
    for preset in asan tsan; do
      echo "-- fault suites under $preset"
      RELDIV_STRESS_ITERS=100 ctest --preset "$preset" \
        -R '(failpoint_test|fault_injection_test|stress_test)' || rc=1
    done
    return "$rc"
  }
  stage "faults" faults

  # Parallel stage: the lane-equivalence contract (DESIGN.md §11) says the
  # worker count must never change a quotient or a Table 1 counter total.
  # Sweep the scheduler's default dop across the interesting worker counts
  # with TSan watching the morsel traffic.
  parallel_stage() {
    local threads rc=0
    for threads in 1 4 8; do
      echo "-- parallel suites under tsan, RELDIV_THREADS=$threads"
      RELDIV_THREADS="$threads" ctest --preset tsan \
        -R '(division_property_test|exchange_test|hash_division_core_test|intra_parallel_test|parallel_test|partitioned_division_test|scheduler_test)' \
        || rc=1
    done
    return "$rc"
  }
  stage "parallel" parallel_stage

  # Telemetry stage: the observability layer itself must be clean under the
  # sanitizers — the lock-free histogram record path is exactly the kind of
  # code TSan exists for — and the flight-ring/fault coupling reruns with
  # the failpoint suites to prove the ring captures every injected fault.
  # The TSan leg sweeps worker counts so the concurrent recording tests race
  # real scheduler traffic, not just their own threads.
  telemetry_stage() {
    local preset threads rc=0
    for preset in asan tsan; do
      echo "-- telemetry suites under $preset"
      ctest --preset "$preset" \
        -R '(telemetry_test|fault_injection_test)' || rc=1
    done
    for threads in 1 4 8; do
      echo "-- telemetry suites under tsan, RELDIV_THREADS=$threads"
      RELDIV_THREADS="$threads" ctest --preset tsan \
        -R 'telemetry_test' || rc=1
    done
    return "$rc"
  }
  stage "telemetry" telemetry_stage

  # Adaptive stage: the differential corpus proves rewritten plans, static
  # plans, and the adaptive operator agree tuple-for-tuple, and the
  # lying-stats fixtures force every re-plan trigger. Both sanitizers watch
  # the abandon/restart paths (an abandoned build must unwind leak-free),
  # and the TSan leg sweeps worker counts because re-chosen plans execute
  # under whatever dop the scheduler defaults to (DESIGN.md §15).
  adaptive_stage() {
    local preset threads rc=0
    for preset in asan tsan; do
      echo "-- adaptive suites under $preset"
      ctest --preset "$preset" \
        -R '(adaptive_planner_test|planner_test)' || rc=1
    done
    for threads in 1 4 8; do
      echo "-- adaptive suites under tsan, RELDIV_THREADS=$threads"
      RELDIV_THREADS="$threads" ctest --preset tsan \
        -R 'adaptive_planner_test' || rc=1
    done
    return "$rc"
  }
  stage "adaptive" adaptive_stage

  # Service stage: the multi-query front end and the quotient cache. Both
  # sanitizers watch the grant/backoff paths (a condvar-waiting Fix or
  # ReserveWithDeadline must neither leak nor race on timeout or
  # cancellation unwind), and the TSan leg sweeps worker counts because
  # queued queries run on scheduler lanes and cache hits on the submitting
  # threads while the cache's incremental maintenance runs on the mutating
  # thread (DESIGN.md §16).
  service_stage() {
    local preset threads rc=0
    for preset in asan tsan; do
      echo "-- service suites under $preset"
      ctest --preset "$preset" \
        -R '(service_test|quotient_cache_test)' || rc=1
    done
    for threads in 1 4 8; do
      echo "-- service suites under tsan, RELDIV_THREADS=$threads"
      RELDIV_THREADS="$threads" ctest --preset tsan \
        -R '(service_test|quotient_cache_test)' || rc=1
    done
    # The grant race (a release landing between a denial and the waiter's
    # decision to wait) shows up only over many runs; repeat the pool's
    # grant tests under the release and tsan builds so it stays fixed.
    local dir
    for dir in build build-tsan; do
      echo "-- MemoryPoolGrantTest x2000 under $dir"
      "$dir/tests/service_test" --gtest_filter='MemoryPoolGrantTest.*' \
        --gtest_repeat=2000 --gtest_brief=1 || rc=1
    done
    return "$rc"
  }
  stage "service" service_stage
fi

note "summary"
printf '%-24s %8s  %s\n' "stage" "wall" "result"
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-24s %7ds  %s\n' \
    "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "${STAGE_RESULTS[$i]}"
done
if [[ "${#FAILURES[@]}" -gt 0 ]]; then
  echo "FAILED stages: ${FAILURES[*]}"
  exit 1
fi
echo "all stages passed"
