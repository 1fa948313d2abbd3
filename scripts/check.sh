#!/usr/bin/env bash
# Full local verification matrix: plain, ASan, UBSan, and -march=native
# builds with the complete test suite (which includes the ctlint
# secret-hygiene pass and its self-test), all with warnings-as-errors,
# plus a benchmark smoke run that emits google-benchmark JSON, validates
# it with scripts/bench_regress.py --check-schema, and diffs it against
# the committed BENCH_baseline.json, then the perfbench/check_counts.py
# self-test of the end-to-end benchmark. This is the command to run
# before pushing; CI runs the same matrix.
#
# Usage:
#   scripts/check.sh            # plain + address + undefined + native
#   scripts/check.sh plain      # one configuration only
#   scripts/check.sh address
#   scripts/check.sh undefined
#   scripts/check.sh native     # -DNEUROPULS_NATIVE=ON (lane kernels get
#                               # the host ISA; ctest re-asserts lane/scalar
#                               # bit-identity under FMA contraction)
#   scripts/check.sh chaos      # fault-injection sweep only: runs the
#                               # ctest label `chaos` (tests/chaos,
#                               # test_net, test_faults) under BOTH ASan
#                               # and UBSan — channel read cursors,
#                               # held-frame queues, retry/backoff loops,
#                               # corrupted-blob parsing, and admission
#                               # control's shedding/eviction under flood
#                               # storms are exactly where lifetime and UB
#                               # bugs would hide
#   scripts/check.sh reactor    # concurrency sweep: one ThreadSanitizer
#                               # build, then ctest -L concurrency (sharded
#                               # CrpDatabase stress, SessionEngine
#                               # determinism, reactor alloc/park-wake
#                               # suites) under NEUROPULS_THREADS=1 (serial
#                               # fallback / degenerate reactor) and =4
#                               # (real steal and park/wake traffic) — the
#                               # shard locks and the reactor are the only
#                               # cross-thread surfaces in the stack
#   scripts/check.sh durability # durable-store sweep: runs the ctest
#                               # label `io` (POSIX io layer, durable CRP
#                               # store round trips, crash-point
#                               # truncation/corruption sweeps) under
#                               # BOTH ASan and UBSan — recovery decodes
#                               # attacker-shaped byte images (length
#                               # arithmetic, shifts, big-endian reads),
#                               # exactly where lifetime and UB bugs
#                               # would hide
#   scripts/check.sh fleet      # fleet-scale sweep: runs the ctest label
#                               # `fleet` (streaming estimators, chunked
#                               # uniqueness, FleetSimulator campaigns,
#                               # crash/resume rotation) under
#                               # AddressSanitizer — bulk enrollment
#                               # staging and per-wave fixture reuse are
#                               # exactly where buffer-lifetime bugs would
#                               # hide
#   scripts/check.sh mutants    # mutation-kill matrix: scripts/mutants.sh
#                               # builds each mutant of
#                               # tools/mutants/mutants.json in its own
#                               # git-archive copy and requires its named
#                               # tests to fail (the comment-only control
#                               # must pass); minutes per mutant, so never
#                               # part of the default run
#   scripts/check.sh lint       # static-analysis flavor: ctlint (all
#                               # passes, empty-baseline gate) + fixture
#                               # self-test, bench_regress schema
#                               # self-check, clang-tidy over the exported
#                               # compile database, and a Clang
#                               # -Wthread-safety -Werror build of the
#                               # whole tree. The clang-tidy and Clang
#                               # steps skip LOUDLY when no clang is on
#                               # PATH (the GCC-only container); ctlint
#                               # and the schema check always gate
#
#   scripts/check.sh --list-flavors   # print the flavor names and exit
#
# Environment:
#   NEUROPULS_BENCH_THRESHOLD   allowed fractional throughput drop vs
#                               BENCH_baseline.json in the smoke compare
#                               (default 0.5 — smoke runs are short and
#                               noisy; use scripts/bench_regress.py with
#                               its default 0.10 threshold on full-length
#                               runs for real regression gating)
#
# Build trees and their logs land under build-check/ (gitignored).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Flavor catalog, one per line: name, then a short "what it sweeps".
# Kept as data so --list-flavors and the unknown-config error stay in
# sync with the dispatch below by construction.
FLAVORS=(
  "plain       full suite, no sanitizer"
  "address     full suite under AddressSanitizer"
  "undefined   full suite under UBSan"
  "native      full suite with -DNEUROPULS_NATIVE=ON (host-ISA lane kernels)"
  "chaos       ctest -L chaos under ASan AND UBSan (fault injection)"
  "reactor     ctest -L concurrency under TSan at NEUROPULS_THREADS=1 and =4"
  "durability  ctest -L io under ASan AND UBSan (durable CRP store, crash sweeps)"
  "fleet       ctest -L fleet under ASan (fleet simulator, streaming metrics)"
  "lint        ctlint + fixtures + bench schema + clang-tidy/thread-safety"
  "mutants     scripts/mutants.sh: every mutant must fail its named tests"
)

list_flavors() {
  echo "check.sh flavors (default run: plain address undefined native lint):"
  local entry
  for entry in "${FLAVORS[@]}"; do
    echo "  ${entry}"
  done
}

for arg in "$@"; do
  if [ "${arg}" = "--list-flavors" ] || [ "${arg}" = "-l" ]; then
    list_flavors
    exit 0
  fi
done

CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(plain address undefined native lint)
fi

mkdir -p build-check

# Configures one warnings-as-errors RelWithDebInfo tree and builds it:
# every target, or only the ones named after the first three arguments.
#   configure_and_build BUILD_DIR SANITIZE NATIVE [TARGET...]
configure_and_build() {
  local build_dir="$1" sanitize="$2" native="$3"
  shift 3
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNEUROPULS_SANITIZE="${sanitize}" \
    -DNEUROPULS_NATIVE="${native}" \
    -DNEUROPULS_WERROR=ON \
    > "${build_dir}.configure.log" 2>&1 || {
      tail -n 40 "${build_dir}.configure.log"; return 1; }
  local targets=()
  local target
  for target in "$@"; do targets+=(--target "${target}"); done
  cmake --build "${build_dir}" -j "${JOBS}" ${targets[@]+"${targets[@]}"} \
    > "${build_dir}.build.log" 2>&1 || {
      tail -n 40 "${build_dir}.build.log"; return 1; }
}

run_config() {
  local config="$1"
  local label="${2:-}"   # optional ctest -L label (sweep flavors)
  local build_dir="build-check/${config}${label:+-${label}}"
  local sanitize=""
  local native="OFF"
  if [ "${config}" = "native" ]; then
    native="ON"
  elif [ "${config}" != "plain" ]; then
    sanitize="${config}"
  fi

  echo "==> [${config}] configure + build (${build_dir}, NEUROPULS_SANITIZE='${sanitize}', NEUROPULS_NATIVE=${native}, NEUROPULS_WERROR=ON)"
  configure_and_build "${build_dir}" "${sanitize}" "${native}"

  if [ -n "${label}" ]; then
    echo "==> [${config}] ctest -L ${label}"
    ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L "${label}"
  else
    echo "==> [${config}] ctest (unit + property + ctlint_src + ctlint_selftest)"
    ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
  fi
}

# The lint flavor: every static gate in one place. Builds only the
# ctlint host tool (plus the compile database from the configure step),
# so it is cheap enough to run on every invocation alongside the full
# matrix.
run_lint_flavor() {
  local build_dir="build-check/lint"

  echo "==> [lint] configure + build ctlint (${build_dir})"
  configure_and_build "${build_dir}" "" OFF ctlint

  echo "==> [lint] ctlint source pass (secret + concurrency rules, empty-baseline gate)"
  "${build_dir}/tools/ctlint/ctlint" \
    --baseline tools/ctlint/baseline.txt src

  echo "==> [lint] ctlint fixture self-test"
  "${build_dir}/tools/ctlint/ctlint" --self-test tools/ctlint/fixtures

  echo "==> [lint] bench_regress schema self-check (BENCH_baseline.json)"
  python3 scripts/bench_regress.py --check-schema BENCH_baseline.json

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> [lint] clang-tidy (compile database: ${build_dir})"
    # shellcheck disable=SC2046
    clang-tidy -p "${build_dir}" --quiet \
      $(find src -name '*.cpp' | sort)
  else
    echo "==> [lint] SKIPPED clang-tidy: not on PATH (install LLVM to enable)"
  fi

  if command -v clang++ >/dev/null 2>&1; then
    echo "==> [lint] Clang -Wthread-safety -Werror build"
    local clang_dir="build-check/lint-clang"
    cmake -B "${clang_dir}" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DNEUROPULS_WERROR=ON \
      -DNEUROPULS_THREAD_SAFETY=ON \
      > "${clang_dir}.configure.log" 2>&1 || {
        tail -n 40 "${clang_dir}.configure.log"; return 1; }
    cmake --build "${clang_dir}" -j "${JOBS}" \
      > "${clang_dir}.build.log" 2>&1 || {
        tail -n 40 "${clang_dir}.build.log"; return 1; }
    echo "==> [lint] ctest (negative-compile harness + full suite under Clang)"
    ctest --test-dir "${clang_dir}" --output-on-failure -j "${JOBS}"
  else
    echo "==> [lint] SKIPPED Clang thread-safety build: clang++ not on PATH"
    echo "           (GCC compiles the NP_ annotations as no-ops; the"
    echo "            capability analysis needs Clang)"
  fi
}

FULL_CONFIGS=()
for config in "${CONFIGS[@]}"; do
  case "${config}" in
    plain|address|undefined|native)
      run_config "${config}"
      FULL_CONFIGS+=("${config}")
      ;;
    chaos)
      run_config address chaos
      run_config undefined chaos
      ;;
    durability)
      run_config address io
      run_config undefined io
      ;;
    fleet)
      run_config address fleet
      ;;
    reactor)
      # One TSan build tree, swept at two pool widths: the second
      # run_config call reuses the build and only re-runs ctest.
      NEUROPULS_THREADS=1 run_config thread concurrency
      NEUROPULS_THREADS=4 run_config thread concurrency
      ;;
    lint)
      run_lint_flavor
      ;;
    mutants)
      scripts/mutants.sh
      ;;
    *)
      echo "unknown config '${config}'" >&2
      list_flavors >&2
      exit 2
      ;;
  esac
done

# The bench smoke + standalone ctlint tail needs a full-matrix build tree;
# a sweep-only invocation (chaos, reactor, ...) has none, and that is fine — those are the
# targeted sanitizer sweeps, not the pre-push gate.
if [ ${#FULL_CONFIGS[@]} -eq 0 ]; then
  echo "==> flavor-only run: skipping bench smoke + standalone ctlint"
  echo "==> all checks passed"
  exit 0
fi

LAST_BUILD="build-check/${FULL_CONFIGS[${#FULL_CONFIGS[@]}-1]}"

# Benchmark smoke pass: run the hot-path benchmark binaries just long
# enough to emit JSON, validate the schema, and diff throughput against
# the committed pre-PR baseline. The threshold is deliberately loose
# (smoke iterations are noisy); it catches order-of-magnitude cliffs, not
# single-digit drift.
#
# The baseline was recorded on an optimised, unsanitised RelWithDebInfo
# build, so the smoke always times binaries from the plain tree: a
# sanitizer or -march=native tree times a different program. The plain
# tree is reused when this invocation built it; otherwise only the bench
# binaries are built there.
BENCH_BINS=(bench_puf_quality bench_system_level bench_server bench_crp_store_recovery bench_aka_eke bench_crypto bench_fleet)
SMOKE_BUILD="build-check/plain"
if [[ " ${FULL_CONFIGS[*]} " != *" plain "* ]]; then
  echo "==> bench smoke: configure + build ${BENCH_BINS[*]} (${SMOKE_BUILD})"
  configure_and_build "${SMOKE_BUILD}" "" OFF "${BENCH_BINS[@]}"
fi
BENCH_SMOKE_DIR="${SMOKE_BUILD}/bench-smoke"
# BM_Modexp2048 and BM_EkeHandshake2048 (bench_aka_eke) gate the MODP
# kernel dispatch: a silent fall-back to the portable Montgomery row is a
# ~2.5x cliff that no test would notice. BM_DhGenerate2048 gates the
# fixed-base comb behind dh_generate (the general modexp is about 3x
# slower), and BM_DhSharedSecret2048 the group's held context and its
# dedicated squaring. BM_AesCtr/16384, BM_AesCmac/1024,
# BM_Sha256/1024 and BM_HmacSha256/64 (bench_crypto) gate the AES-NI and
# SHA-NI dispatch the same way: the portable kernels are 4-90x slower.
# BM_CtrThenMacSeal/144 (bench_crypto) gates the keyed Encrypt-then-MAC
# context: deriving its two keys per frame again is about 5x slower.
# BM_FleetRotationSweepDurable (bench_fleet) gates the batched durable
# take: one fsync-waiting take per device is about 9x slower.
# BM_PhotonicEvaluate and BM_PhotonicEvaluateNoiseless (bench_puf_quality)
# gate single PUF evaluations, which run as one-lane blocks of the same
# analog core as the batch cases.
BENCH_SMOKE_FILTER='BM_PhotonicEvaluate$|BM_PhotonicEvaluateNoiseless$|PhotonicNoiselessBatch|PhotonicEvaluateBatch|VerifierModelSweep|ServerSessions|CrpStoreMixedOps|CrpStoreGroupCommit|CrpStoreFsyncPerOp|CrpStoreRecovery|BM_Modexp2048|BM_EkeHandshake2048|BM_DhGenerate2048|BM_DhSharedSecret2048|BM_AesCtr/16384|BM_AesCmac/1024|BM_Sha256/1024|BM_HmacSha256/64|BM_CtrThenMacSeal/144|BM_FleetRotationSweepDurable'
mkdir -p "${BENCH_SMOKE_DIR}"
for bench in "${BENCH_BINS[@]}"; do
  bench_bin="${SMOKE_BUILD}/bench/${bench}"
  if [ ! -x "${bench_bin}" ]; then
    echo "==> bench smoke: ${bench_bin} missing" >&2
    exit 1
  fi
  echo "==> bench smoke: ${bench}"
  # NEUROPULS_FLEET_SCALE keeps bench_fleet's printed tables small.
  NEUROPULS_FLEET_SCALE=10000 "${bench_bin}" \
    --benchmark_min_time=0.01 \
    --benchmark_filter="${BENCH_SMOKE_FILTER}" \
    --benchmark_out="${BENCH_SMOKE_DIR}/BENCH_${bench}.json" \
    --benchmark_out_format=json \
    > /dev/null
done

echo "==> bench smoke: schema check"
python3 scripts/bench_regress.py --check-schema \
  "${BENCH_SMOKE_DIR}"/BENCH_*.json

echo "==> bench smoke: merge + compare vs BENCH_baseline.json"
python3 scripts/bench_regress.py --merge "${BENCH_SMOKE_DIR}/BENCH_smoke.json" \
  "${BENCH_SMOKE_DIR}/BENCH_bench_puf_quality.json" \
  "${BENCH_SMOKE_DIR}/BENCH_bench_system_level.json" \
  "${BENCH_SMOKE_DIR}/BENCH_bench_server.json" \
  "${BENCH_SMOKE_DIR}/BENCH_bench_crp_store_recovery.json" \
  "${BENCH_SMOKE_DIR}/BENCH_bench_aka_eke.json" \
  "${BENCH_SMOKE_DIR}/BENCH_bench_crypto.json" \
  "${BENCH_SMOKE_DIR}/BENCH_bench_fleet.json"
# --allow-missing: the smoke filter deliberately runs a subset of the
# baseline's cases; a full-length run should compare WITHOUT it so a
# vanished case fails loudly.
python3 scripts/bench_regress.py \
  --threshold "${NEUROPULS_BENCH_THRESHOLD:-0.5}" \
  --allow-missing \
  BENCH_baseline.json "${BENCH_SMOKE_DIR}/BENCH_smoke.json"

# End-to-end benchmark self-test: two traced runs of every workload must
# repeat the exact per-layer counts (puf.crp_db.wal_bytes_per_op, the
# fleet rotation counts, ...) and read zero on the security gates.
echo "==> perfbench: exact per-layer counts"
python3 perfbench/check_counts.py --seconds 1

# Standalone ctlint invocation against the tree (redundant with the ctest
# case, but handy when iterating on lint annotations without a rebuild).
echo "==> ctlint source pass (standalone)"
"${LAST_BUILD}/tools/ctlint/ctlint" --baseline tools/ctlint/baseline.txt src

echo "==> all checks passed"
