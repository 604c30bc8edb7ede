#!/usr/bin/env bash
# Repo check, split into stages so CI can run them as separate jobs:
#
#   tier1  configure + build + full ctest suite (the 593 tier-1 tests),
#          then the proxy-datapath, scale-out, entity-plane and socket-
#          datapath benches in smoke mode, each gated against its committed
#          baseline under bench/baselines/
#   asan   ASan+UBSan build (-DDFI_SANITIZE=ON) of the memory-sensitive
#          component tests — including the proxy teardown regressions and
#          the policy snapshots that must outlive revoked rules
#   tsan   TSan build (-DDFI_SANITIZE=thread) of the SPSC ring stress, the
#          threaded shard-pool and bus tests, and readers querying held
#          policy snapshots while the control thread churns the index
#   fuzz   the model-based invariant fuzz campaign (tests/support/
#          fuzz_harness.cc): the full deterministic campaign on the plain
#          build, plus bounded campaigns under ASan+UBSan and TSan.
#          DFI_FUZZ_SCHEDULES / DFI_FUZZ_SEED override campaign size and
#          seed (see tests/fuzz_invariants_test.cc).
#   recovery  the crash-recovery fuzz campaign (tests/
#          crash_recovery_fuzz_test.cc): seeded kill/restart schedules
#          against the journaled control plane, byte-identical recovery
#          asserted against a no-crash oracle, plus the journal and health
#          -monitor component tests — full campaign on the plain build,
#          bounded campaigns under ASan+UBSan and TSan. The same
#          DFI_FUZZ_SCHEDULES / DFI_FUZZ_SEED knobs apply.
#   replication  the two-replica failover campaign (the Replicated*
#          schedules of tests/crash_recovery_fuzz_test.cc): seeded kills of
#          either replica mid-stream over a faulty link, survivor state
#          byte-identical to the no-failure oracle, fenced stand-down of
#          every deposed primary — plus the replication component tests and
#          the failover bench smoke. Full campaign on the plain build,
#          bounded campaigns under ASan+UBSan and TSan
#          (DFI_FUZZ_SCHEDULES / DFI_FUZZ_SEED apply here too).
#   perfbench  the end-to-end benchmark's self-test (perfbench/selftest.py):
#          builds perfbench/ against src/ (Release, in .bench_build/) and
#          runs every workload briefly, timed and traced, with all of its
#          byte-level correctness checks — so a product API change that
#          breaks the benchmark build or its checks fails here.
#
# Usage: tools/check.sh [--no-sanitize] [stage...]
#   no stages        -> all of tier1 asan tsan fuzz recovery replication perfbench
#   --no-sanitize    -> tier1 only (kept for compatibility)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

STAGES=()
for arg in "$@"; do
  case "$arg" in
    --no-sanitize) STAGES=(tier1) ;;
    tier1|asan|tsan|fuzz|recovery|replication|perfbench) STAGES+=("$arg") ;;
    *) echo "unknown stage: $arg (want tier1, asan, tsan, fuzz, recovery, replication, perfbench)" >&2; exit 2 ;;
  esac
done
if [[ ${#STAGES[@]} -eq 0 ]]; then
  STAGES=(tier1 asan tsan fuzz recovery replication perfbench)
fi

want() { local s; for s in "${STAGES[@]}"; do [[ "$s" == "$1" ]] && return 0; done; return 1; }

if want tier1; then
  echo "== tier-1: configure + build =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}"

  echo "== tier-1: ctest =="
  ctest --test-dir build --output-on-failure -j "${JOBS}"

  echo "== tier-1: proxy datapath bench (smoke + baseline gate) =="
  # Byte-identity + zero-allocation checks, then speedups vs the committed
  # conservative floors; a >10% regression below a floor fails the stage.
  (cd build/bench && ./bench_micro_proxy_datapath --smoke \
    --check-baseline ../../bench/baselines/BENCH_proxy_datapath.baseline.json)

  echo "== tier-1: batched-datapath scale-out bench (smoke + baseline gate) =="
  # Batch-mode decisions/s for the SPSC-ring datapath vs the committed
  # conservative floors; a >10% shortfall below a floor fails the stage.
  (cd build/bench && ./bench_ablation_scaleout --smoke \
    --check-baseline ../../bench/baselines/BENCH_scaleout.baseline.json)

  echo "== tier-1: entity-plane scale bench (smoke + baseline gate) =="
  # Interned-entity decision latency, incremental-publish throughput, and
  # RSS/binding vs committed floors; in-process scaling gates (decision
  # latency <=2x, publish <=10x across the sweep) run in every mode.
  (cd build/bench && ./bench_erm_scale --smoke \
    --check-baseline ../../bench/baselines/BENCH_erm_scale.baseline.json)

  echo "== tier-1: socket datapath bench (smoke + baseline gate) =="
  # Loopback TCP echo through the epoll event loop + readv/writev
  # Connections: frames/s and p50/p99 vs committed floors, the best-b64
  # figure vs 50% of the BENCH_proxy_datapath mixed figure, and zero
  # steady-state allocations asserted in-binary.
  (cd build/bench && ./bench_socket_datapath --smoke \
    --check-baseline ../../bench/baselines/BENCH_socket_datapath.baseline.json)

  echo "== tier-1: failover bench (smoke + baseline gate) =="
  # Warm-standby promotion drill (detection deadline, fenced stand-down,
  # post-promotion FlowMod) and steady-state replication records/s —
  # unreplicated vs in-memory link vs loopback ReplTransport — vs the
  # committed floors; standby byte-identity asserted in-binary.
  (cd build/bench && ./bench_failover --smoke \
    --check-baseline ../../bench/baselines/BENCH_failover.baseline.json)
fi

if want asan; then
  echo "== sanitizer build (ASan+UBSan) =="
  cmake -B build-asan -S . -DDFI_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target \
    policy_index_test snapshot_alloc_test decision_cache_test \
    policy_manager_test erm_test intern_test pcp_test bus_test proxy_test flush_test \
    event_loop_test conman_test fault_socket_test socket_frontend_test \
    secure_channel_test wire_test

  echo "== sanitizer tests =="
  ./build-asan/tests/intern_test
  ./build-asan/tests/policy_index_test
  ./build-asan/tests/snapshot_alloc_test
  ./build-asan/tests/decision_cache_test
  ./build-asan/tests/policy_manager_test
  ./build-asan/tests/erm_test
  ./build-asan/tests/pcp_test
  ./build-asan/tests/bus_test
  ./build-asan/tests/proxy_test
  ./build-asan/tests/flush_test
  # Socket datapath: real-fd lifecycle (epoll registration, accept/dial,
  # scatter readv/writev, teardown with frames in flight) is exactly the
  # use-after-free / partial-buffer surface ASan exists for.
  ./build-asan/tests/event_loop_test
  ./build-asan/tests/conman_test
  ./build-asan/tests/fault_socket_test
  ./build-asan/tests/socket_frontend_test
  ./build-asan/tests/secure_channel_test
  ./build-asan/tests/wire_test
fi

if want tsan; then
  echo "== sanitizer build (TSan, threaded backend) =="
  cmake -B build-tsan -S . -DDFI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target spsc_ring_test \
    shard_pool_test bus_test proxy_test intern_test policy_index_test \
    event_loop_test conman_test

  echo "== sanitizer tests (TSan) =="
  ./build-tsan/tests/intern_test
  ./build-tsan/tests/spsc_ring_test
  ./build-tsan/tests/shard_pool_test
  ./build-tsan/tests/bus_test
  ./build-tsan/tests/proxy_test
  # Copy-on-write policy index: shard-side readers of frozen versions vs
  # the control thread's path copies and publications.
  ./build-tsan/tests/policy_index_test --gtest_filter='PolicySnapshotTest.*'
  # The event loop's cross-thread surface: eventfd wakeup + posted-closure
  # handoff (the shard-pool egress injection path), exercised by the
  # loop-thread tests; conman adds timer-wheel reconnect races.
  ./build-tsan/tests/event_loop_test
  ./build-tsan/tests/conman_test
fi

if want fuzz; then
  echo "== fuzz: full deterministic campaign (plain build) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target fuzz_invariants_test
  ./build/tests/fuzz_invariants_test

  echo "== fuzz: bounded campaign under ASan+UBSan =="
  cmake -B build-asan -S . -DDFI_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target fuzz_invariants_test
  DFI_FUZZ_SCHEDULES="${DFI_FUZZ_ASAN_SCHEDULES:-400}" \
    ./build-asan/tests/fuzz_invariants_test

  echo "== fuzz: bounded campaign under TSan =="
  cmake -B build-tsan -S . -DDFI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target fuzz_invariants_test
  DFI_FUZZ_SCHEDULES="${DFI_FUZZ_TSAN_SCHEDULES:-200}" \
    ./build-tsan/tests/fuzz_invariants_test
fi

if want recovery; then
  echo "== recovery: journal + health-monitor component tests =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target \
    crash_recovery_fuzz_test journal_test health_monitor_test persistence_test
  ./build/tests/journal_test
  ./build/tests/health_monitor_test
  ./build/tests/persistence_test

  echo "== recovery: full crash-recovery fuzz campaign (plain build) =="
  ./build/tests/crash_recovery_fuzz_test

  echo "== recovery: bounded campaign under ASan+UBSan =="
  cmake -B build-asan -S . -DDFI_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target \
    crash_recovery_fuzz_test journal_test health_monitor_test
  ./build-asan/tests/journal_test
  ./build-asan/tests/health_monitor_test
  DFI_FUZZ_SCHEDULES="${DFI_RECOVERY_ASAN_SCHEDULES:-300}" \
    ./build-asan/tests/crash_recovery_fuzz_test

  echo "== recovery: bounded campaign under TSan =="
  cmake -B build-tsan -S . -DDFI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target crash_recovery_fuzz_test
  DFI_FUZZ_SCHEDULES="${DFI_RECOVERY_TSAN_SCHEDULES:-150}" \
    ./build-tsan/tests/crash_recovery_fuzz_test
fi

if want replication; then
  echo "== replication: component tests =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target \
    crash_recovery_fuzz_test replication_test conman_test
  ./build/tests/replication_test
  ./build/tests/conman_test

  echo "== replication: full two-replica failover campaign (plain build) =="
  ./build/tests/crash_recovery_fuzz_test \
    --gtest_filter='CrashRecoveryFuzz.Replicated*'

  echo "== replication: bounded campaign under ASan+UBSan =="
  cmake -B build-asan -S . -DDFI_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target \
    crash_recovery_fuzz_test replication_test
  ./build-asan/tests/replication_test
  DFI_FUZZ_SCHEDULES="${DFI_REPLICATION_ASAN_SCHEDULES:-300}" \
    ./build-asan/tests/crash_recovery_fuzz_test \
    --gtest_filter='CrashRecoveryFuzz.Replicated*'

  echo "== replication: bounded campaign under TSan =="
  cmake -B build-tsan -S . -DDFI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target crash_recovery_fuzz_test
  DFI_FUZZ_SCHEDULES="${DFI_REPLICATION_TSAN_SCHEDULES:-150}" \
    ./build-tsan/tests/crash_recovery_fuzz_test \
    --gtest_filter='CrashRecoveryFuzz.Replicated*'
fi

if want perfbench; then
  echo "== perfbench: end-to-end benchmark self-test =="
  python3 perfbench/selftest.py
fi

echo "== all requested stages passed =="
