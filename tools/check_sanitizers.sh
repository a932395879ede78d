#!/usr/bin/env bash
#
# Sanitizer matrix for the parallel frame pipeline and event engine:
# build and run the pool/codec/SSIM/fleet/chaos/engine-oracle, the
# frame-cache/prefetcher/partitioner and the set-up (cost model, track
# chunk index, cutoff search and its radius ladder) tests under
# ThreadSanitizer, AddressSanitizer, and UndefinedBehaviorSanitizer
# from one entry point.
#
# Usage: tools/check_sanitizers.sh [--only thread,address,undefined]
#                                  [--tests "bin1 bin2 ..."] [build-dir-prefix]
#
# --only takes one sanitizer or a comma-separated subset, e.g.
# `--only thread,undefined`.
#
# Each sanitizer gets its own build tree (<prefix>-<sanitizer>, default
# build-<sanitizer>). COTERIE_THREADS is forced >= 4 so the pool's
# cross-thread traffic is actually exercised on small hosts.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

SANITIZERS=(thread address undefined)
# lock_order_test rides every sanitizer leg: COTERIE_LOCK_ORDER=AUTO
# resolves ON whenever COTERIE_SANITIZE is set, so the runtime
# lock-order validator's death tests actually fire here.
TEST_BINS=(parallel_test renderer_test ssim_test codec_test obs_test
           frame_trace_test bvh_test terrain_test pano_cache_test
           lock_order_test fleet_test chaos_test lane_oracle_test
           frame_cache_test prefetcher_test partitioner_test
           cost_model_test track_test cutoff_test)
PREFIX=""

while [ $# -gt 0 ]; do
    case "$1" in
      --only)
        IFS=',' read -r -a SANITIZERS <<<"$2"
        shift 2
        ;;
      --tests)
        read -r -a TEST_BINS <<<"$2"
        shift 2
        ;;
      -h|--help)
        grep '^#' "$0" | sed 's/^# \{0,1\}//' | head -14
        exit 0
        ;;
      *)
        PREFIX="$1"
        shift
        ;;
    esac
done

status=0
for sanitizer in "${SANITIZERS[@]}"; do
    case "$sanitizer" in
      thread|address|undefined) ;;
      *)
        echo "unknown sanitizer '$sanitizer'" >&2
        exit 2
        ;;
    esac

    BUILD_DIR="${PREFIX:-$REPO_ROOT/build}-$sanitizer"
    echo "=== [$sanitizer] configure + build -> $BUILD_DIR ==="
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
        -DCOTERIE_SANITIZE="$sanitizer" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "$BUILD_DIR" -j"$JOBS" --target "${TEST_BINS[@]}"

    export COTERIE_THREADS="${COTERIE_THREADS:-4}"
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

    for test_bin in "${TEST_BINS[@]}"; do
        echo "== [$sanitizer] $test_bin (COTERIE_THREADS=$COTERIE_THREADS) =="
        if ! "$BUILD_DIR/tests/$test_bin"; then
            status=1
        fi
    done
done

if [ "$status" -eq 0 ]; then
    echo "Sanitizer matrix passed (${SANITIZERS[*]})."
else
    echo "Sanitizer matrix FAILED." >&2
fi
exit "$status"
