#!/usr/bin/env bash
# Build the tree under a sanitizer and run the concurrency- and
# chaos-labelled tests (worker pool + parallel campaign engine
# determinism, golden registry, chaos injection, watchdog,
# checkpoint/resume).
#
# Usage: tools/sanitize_check.sh [thread|address] [build-dir]
#
# Defaults to ThreadSanitizer in build-tsan/. Pass "address" to vet
# the same tests under AddressSanitizer instead.
set -euo pipefail

SANITIZER="${1:-thread}"
case "$SANITIZER" in
    thread) DEFAULT_DIR=build-tsan ;;
    address) DEFAULT_DIR=build-asan ;;
    *)
        echo "sanitize_check: unknown sanitizer '$SANITIZER'" \
             "(thread or address)" >&2
        exit 2
        ;;
esac
BUILD_DIR="${2:-$DEFAULT_DIR}"
SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SOURCE_DIR" \
      -DRADCRIT_SANITIZE="$SANITIZER" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
# radcrit_cli is needed by the check_resume ctest (chaos label),
# which SIGKILLs and resumes a live campaign under the sanitizer.
cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target test_pool test_engine test_jobs_precedence \
      test_timeline test_chaos test_resume test_prop_chaos \
      test_golden_registry radcrit_cli
ctest --test-dir "$BUILD_DIR" -L "concurrency|chaos" \
      --output-on-failure
