#!/usr/bin/env bash
# CI gate for every PR:
#   1. tier-1: release-mode build + full ctest suite
#   2. crash-torture sweep: the power-cut property harnesses — single-node
#      recovery AND two-node replication failover — over a bounded seed
#      range (every seed fully determines the fault schedule; a failure
#      prints the seed + schedule for one-command reproduction)
#   3. ThreadSanitizer build + the concurrency/stress tests (the read- and
#      commit-path invariants are concurrency properties — races like the
#      PR 1 pin/watermark TOCTOU or a torn multi-group publication only
#      surface under TSan + stress, e.g.
#      ConcurrentMultiGroupPublishesNeverTearReaderCuts).
#
# Usage: ./ci.sh [--tsan-only|--tier1-only|--torture-only]

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")" && pwd)"
JOBS="$(nproc)"
MODE="${1:-all}"

run_tier1() {
  echo "==== tier-1: release build + ctest ===="
  cmake -B "$REPO_ROOT/build" -S "$REPO_ROOT" >/dev/null
  cmake --build "$REPO_ROOT/build" -j "$JOBS"
  (cd "$REPO_ROOT/build" && ctest --output-on-failure -j "$JOBS")
  # The First-Committer-Wins suites again, repeated side by side: the lost
  # update they guard against (a commit between timestamp draw and
  # publication, invisible to a reader whose BOT is past it) needs real
  # parallel load to show, and one pass under load can miss it.
  (cd "$REPO_ROOT/build" &&
   ctest --output-on-failure -j "$JOBS" --repeat until-fail:20 \
       -R '^(core_protocols_test|core_si_protocol_test|txn_batch_validate_test)$')
}

run_torture() {
  echo "==== crash-torture sweep: ${STREAMSI_TORTURE_SEEDS:-25} seeds ===="
  # Deterministic power-cut torture: committers + checkpoints + LSM flushes
  # race against FaultEnv, power dies mid-IO, the database reopens from the
  # simulated survivors and the verifier checks zero acked losses + group
  # atomicity. On failure the gtest output carries the seed and the fault
  # schedule — rerun a single seed with
  #   STREAMSI_TORTURE_SEEDS=<seed> ./build/property_crash_torture_property_test
  cmake -B "$REPO_ROOT/build" -S "$REPO_ROOT" >/dev/null
  cmake --build "$REPO_ROOT/build" -j "$JOBS" \
      --target property_crash_torture_property_test \
               property_replication_failover_property_test
  STREAMSI_TORTURE_SEEDS="${STREAMSI_TORTURE_SEEDS:-25}" \
      "$REPO_ROOT/build/property_crash_torture_property_test"
  # Two-node failover torture: the primary dies mid-ship under the same
  # seeded power cuts, the follower is promoted, and the verifier checks
  # zero acked-commit loss + group atomicity on the promoted node. Rerun a
  # single seed with
  #   STREAMSI_TORTURE_SEEDS=<seed> \
  #       ./build/property_replication_failover_property_test
  STREAMSI_TORTURE_SEEDS="${STREAMSI_TORTURE_SEEDS:-25}" \
      "$REPO_ROOT/build/property_replication_failover_property_test"
}

run_tsan() {
  echo "==== TSan build + concurrency tests ===="
  cmake -B "$REPO_ROOT/build-tsan" -S "$REPO_ROOT" -DSTREAMSI_TSAN=ON \
      -DSTREAMSI_BUILD_BENCH=OFF -DSTREAMSI_BUILD_EXAMPLES=OFF >/dev/null
  # The concurrency/stress suites: everything exercising the latch-free
  # read path, the seqlock publication protocol, the group-commit WAL, the
  # checkpoint/drain protocol + LSM background flush worker, and the
  # partitioned stream execution engine (bounded queues, lane threads,
  # merge alignment, shared StreamTxnContext).
  local tsan_tests=(
    common_epoch_test
    common_latch_test
    core_checkpoint_test
    core_commit_path_test
    core_consistency_test
    core_degradation_test
    core_index_consistency_test
    core_isolation_test
    core_protocols_test
    core_si_protocol_test
    property_crash_torture_property_test
    property_replication_failover_property_test
    replication_replication_test
    mvcc_mvcc_growth_stress_test
    mvcc_mvcc_object_test
    property_read_path_model_test
    property_scan_range_model_test
    property_si_model_test
    storage_lsm_backend_test
    storage_wal_test
    stream_chunk_test
    stream_chunk_differential_test
    stream_columnar_test
    stream_partition_test
    stream_partitioned_consistency_test
    stream_txn_context_test
    txn_state_context_test
    txn_batch_validate_test
    txn_versioned_store_test
  )
  cmake --build "$REPO_ROOT/build-tsan" -j "$JOBS" --target "${tsan_tests[@]}"
  # One torture rep under TSan (seed 1): the full sweep runs in release;
  # here the goal is race coverage of the cut/recover/degrade machinery.
  (cd "$REPO_ROOT/build-tsan" &&
   STREAMSI_TORTURE_SEEDS=1 ctest --output-on-failure -j "$JOBS" \
       -R "^($(IFS='|'; echo "${tsan_tests[*]}"))$")
}

case "$MODE" in
  --tier1-only) run_tier1 ;;
  --tsan-only) run_tsan ;;
  --torture-only) run_torture ;;
  all|*) run_tier1; run_torture; run_tsan ;;
esac

echo "==== ci.sh: all gates passed ===="
