#!/usr/bin/env bash
# Full local check: configure, build, run the test suite with
# --output-on-failure, smoke-run every example, and optionally run the
# figure/ablation/micro benchmarks, a metrics smoke pass, or a sanitizer
# build.
#
#   scripts/check.sh            # build + ctest + examples (build/)
#   scripts/check.sh --bench    # additionally run every benchmark binary
#                               # (fig*/abl_* also write BENCH_<name>.json
#                               # reports under build/bench-reports/)
#   scripts/check.sh --metrics  # fast metrics smoke: one smoke bench with
#                               # --json + deployment_cli --metrics, JSON
#                               # validated with python3
#   scripts/check.sh --asan     # AddressSanitizer+UBSan build (build-asan/)
#   scripts/check.sh --tsan     # ThreadSanitizer build (build-tsan/), runs
#                               # the concurrency + obs suites under TSan
#   scripts/check.sh --soak     # additionally run the chaos soak smoke
#                               # (bench/soak --smoke, ~20 s; SOAK_SECONDS=N
#                               # overrides the duration)
#   scripts/check.sh --lint     # clang-format --dry-run --Werror over all
#                               # first-party sources (no build)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
BUILD_DIR=build
CMAKE_ARGS=()
GENERATOR=()

# Format gate: no configure/build, just the committed .clang-format against
# every first-party source. CI's lint job runs exactly this; locally it
# skips (with a notice) when clang-format is not installed rather than
# failing a machine that cannot reproduce the check.
if [[ "$MODE" == "--lint" ]]; then
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "lint: clang-format not found; skipping (CI enforces this gate)"
    exit 0
  fi
  mapfile -t FILES < <(find src tests bench examples \
    -name '*.h' -o -name '*.cc' -o -name '*.cpp' | sort)
  clang-format --dry-run --Werror "${FILES[@]}"
  echo "lint: ${#FILES[@]} files clean"
  exit 0
fi

case "$MODE" in
  --asan)
    BUILD_DIR=build-asan
    CMAKE_ARGS+=(-DIMAGEPROOF_ASAN=ON)
    ;;
  --tsan)
    BUILD_DIR=build-tsan
    CMAKE_ARGS+=(-DIMAGEPROOF_TSAN=ON)
    ;;
esac

fail() {
  echo "CHECK FAILED: $*" >&2
  exit 1
}

# Prefer Ninja, but never fight an existing cache configured with another
# generator — cmake hard-errors on the mismatch.
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)
fi

cmake -B "$BUILD_DIR" "${GENERATOR[@]}" "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [[ "$MODE" == "--tsan" ]]; then
  # The concurrency, determinism, adversary, obs, parallel-Merkle, and
  # network-serving suites are the ones that exercise threads; running the
  # whole suite under TSan adds time but no extra thread coverage. Every
  # Client::Verify starts a parse-step thread, so net_frame_test's bit-flip
  # scan, which verifies thousands of hostile frames, is in the set too.
  # --no-tests=error: an empty selection is a broken regex, not a pass.
  ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'concurrency_test|golden_test|security_test|obs_test|merkle_test|kernels_test|net_test|net_frame_test|query_cache_test|shard_test'
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error
fi

if [[ "$MODE" == "--soak" ]]; then
  echo "--- chaos soak ---"
  REPORT_DIR="$BUILD_DIR/bench-reports"
  mkdir -p "$REPORT_DIR"
  SOAK_ARGS=(--smoke)
  [[ -n "${SOAK_SECONDS:-}" ]] && SOAK_ARGS+=(--seconds "$SOAK_SECONDS")
  "./$BUILD_DIR/bench/soak" "${SOAK_ARGS[@]}" \
    --json "$REPORT_DIR/BENCH_soak.json" || fail "soak exited $?"
  python3 scripts/bench_delta.py \
    "$REPORT_DIR/BENCH_soak.json" BENCH_soak.json || true
fi

if [[ "$MODE" == "" || "$MODE" == "--soak" || "$MODE" == "--bench" || "$MODE" == "--metrics" ]]; then
  echo "--- examples ---"
  for ex in quickstart tamper_detection vo_breakdown image_pipeline \
            deployment_cli net_server; do
    "./$BUILD_DIR/examples/$ex" || fail "example $ex exited $?"
  done
fi

if [[ "$MODE" == "--metrics" ]]; then
  echo "--- metrics smoke ---"
  REPORT_DIR="$BUILD_DIR/bench-reports"
  mkdir -p "$REPORT_DIR"
  "./$BUILD_DIR/bench/fig06_bovw_sift" --smoke \
    --json "$REPORT_DIR/BENCH_fig06_bovw_sift.json" \
    || fail "fig06_bovw_sift --smoke exited $?"
  "./$BUILD_DIR/bench/abl_engine" --smoke \
    --json "$REPORT_DIR/BENCH_abl_engine.json" \
    || fail "abl_engine --smoke exited $?"
  "./$BUILD_DIR/examples/deployment_cli" query /tmp/imageproof_deployment \
    --metrics > "$REPORT_DIR/cli_metrics.txt" \
    || fail "deployment_cli --metrics exited $?"
  # The dumps must be well-formed JSON (an empty registry is {} under
  # -DIMAGEPROOF_NO_METRICS=ON, which still parses).
  python3 - "$REPORT_DIR" <<'EOF' || fail "metrics JSON did not parse"
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
for f in sorted(d.glob("BENCH_*.json")):
    json.load(open(f))
    print(f"ok: {f}")
last = open(d / "cli_metrics.txt").read().strip().splitlines()[-1]
json.loads(last)
print("ok: deployment_cli --metrics")
EOF
fi

if [[ "$MODE" == "--bench" ]]; then
  echo "--- benchmarks ---"
  REPORT_DIR="$BUILD_DIR/bench-reports"
  mkdir -p "$REPORT_DIR"
  for b in "$BUILD_DIR"/bench/*; do
    [[ -f "$b" && -x "$b" ]] || continue
    name="$(basename "$b")"
    echo "===== $name ====="
    case "$name" in
      fig*|abl_*)
        "$b" --json "$REPORT_DIR/BENCH_$name.json" \
          || fail "bench $name exited $?"
        ;;
      micro_*)
        # google-benchmark binaries wrapped by bench/micro_util.h: same
        # --json report, --smoke keeps the full sweep short.
        "$b" --smoke --json "$REPORT_DIR/BENCH_$name.json" \
          || fail "bench $name exited $?"
        ;;
      *)
        "$b" || fail "bench $name exited $?"
        ;;
    esac
  done
fi
echo "ALL CHECKS PASSED"
