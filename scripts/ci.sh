#!/usr/bin/env bash
# CI gate: tier-1 tests + benchmark smoke + a bounded fuzz budget.
#
#   scripts/ci.sh            # full gate (configure + build + 3 ctest passes)
#   PF_FUZZ_ITERS=200 scripts/ci.sh   # deeper fuzz pass
#   PF_CI_BUILD_DIR=out scripts/ci.sh # use a different build tree
#
# The fuzz suite (ctest -L tier2-fuzz) is deterministic: PF_TEST_SEED pins
# the generator stream (defaults baked into pf::testing), and every failure
# prints the seed plus a shrunk, copy-pasteable repro. PF_FUZZ_ITERS bounds
# the iteration budget so the gate stays fast; the deep run is
# PF_FUZZ_ITERS=1000 on a schedule, not on every commit.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${PF_CI_BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"
FUZZ_ITERS="${PF_FUZZ_ITERS:-50}"

echo "== configure + build (${BUILD}, -j${JOBS})"
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$JOBS"

echo "== tier-1 tests"
ctest --test-dir "$BUILD" -L tier1 --output-on-failure -j "$JOBS"

echo "== service smoke (crash recovery gate)"
ctest --test-dir "$BUILD" -R service_smoke --output-on-failure

echo "== campaign smoke (campaign crash recovery gate)"
ctest --test-dir "$BUILD" -R campaign_smoke --output-on-failure

echo "== benchmark smoke"
ctest --test-dir "$BUILD" -L bench-smoke --output-on-failure

echo "== bounded fuzz (PF_FUZZ_ITERS=${FUZZ_ITERS})"
PF_FUZZ_ITERS="$FUZZ_ITERS" \
  ctest --test-dir "$BUILD" -L tier2-fuzz --output-on-failure

# Backend A/B golden suites under ASan+UBSan: the batched lockstep kernel
# and the word-parallel PlaneMemory are the places where raw SoA indexing
# and lane masks could hide out-of-bounds or UB that the bit-identity tests
# alone would not surface. Build a separate sanitized tree (PF_SANITIZE
# plumbs into -fsanitize=) and run exactly the suites that drive both
# backends over the same grids/populations. PF_SKIP_SANITIZE=1 opts out
# of every sanitizer stage (e.g. toolchains without libasan/libtsan).
if [[ "${PF_SKIP_SANITIZE:-0}" != "1" ]]; then
  SAN_BUILD="${BUILD}-asan"
  echo "== backend A/B under sanitizers (${SAN_BUILD}, address,undefined)"
  cmake -B "$SAN_BUILD" -S . -DPF_SANITIZE=address,undefined >/dev/null
  cmake --build "$SAN_BUILD" -j "$JOBS" \
    --target test_dram test_analysis test_memsim test_march test_fuzz
  ctest --test-dir "$SAN_BUILD" --output-on-failure -j "$JOBS" \
    -R 'BatchedColumn|CircuitReuse|EnginePlan|PlaneMemory|PopulationAB'

  # SearchAB: the march-search optimizer mutates candidate tests in a hot
  # loop (element/op erase + crossover splices) and walks per-unit
  # detection bit vectors — exactly the indexing ASan/UBSan should watch.
  # Runs the full Search* suite plus the seeded FuzzSearch containment
  # property at a bounded iteration budget.
  echo "== SearchAB under sanitizers (${SAN_BUILD})"
  PF_FUZZ_ITERS="$FUZZ_ITERS" \
    ctest --test-dir "$SAN_BUILD" --output-on-failure -j "$JOBS" \
    -R 'Search|FuzzSearch'

  # Threaded code under TSan: the parallel sweep engine, the completion
  # search's candidate fan-out (workers race to commit the lowest accepted
  # candidate and abandon the ones beyond it), cooperative cancellation,
  # the sweep server's job workers, the campaign runner that hands its
  # policy to those searches, and the snapshot tables every worker of a
  # sweep or search restores from and publishes to (CircuitReuse,
  # SessionCache, SnapshotTable).
  TSAN_BUILD="${BUILD}-tsan"
  echo "== threaded suites under TSan (${TSAN_BUILD}, thread)"
  cmake -B "$TSAN_BUILD" -S . -DPF_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_BUILD" -j "$JOBS" \
    --target test_analysis test_service test_campaign
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS" \
    -R 'ParallelSweep|ParallelCompletion|ParallelTable1|SweepCancellation|SweepServer|Campaign|CircuitReuse|SessionCache|SnapshotTable'
fi

echo "== ci gate passed"
