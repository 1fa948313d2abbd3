#!/usr/bin/env bash
# Mutation-kill matrix: proves that security checks are load-bearing.
#
# Each entry of tools/mutants/mutants.json names one deliberate defect:
#   name     short id, printed in the result table
#   why      what the defect breaks
#   file     the source file it edits
#   old/new  an exact string that must occur once in `file`, and its
#            replacement
#   targets  the build targets the named tests need
#   tests    a ctest -R regex; it must match at least one test
#   expect   "killed" (some named test must fail) or "survives" (all of
#            them must pass; the comment-only control that shows the
#            runner can report a survivor)
#
# For each mutant the runner exports the tree with `git archive` into a
# temporary directory, applies that one mutant, configures and builds
# only the named targets (RelWithDebInfo), and runs the named tests. The
# exported tree is HEAD plus the uncommitted changes to tracked files
# (`git stash create`); `git add` a new file before it can be mutated.
#
# Usage:
#   scripts/mutants.sh            # every mutant
#   scripts/mutants.sh NAME...    # the named mutants only
#
# Exits nonzero when a mutant that should be killed survives, the
# control is killed, or a mutant fails to apply, build or select tests.
# Each mutant builds in its own copy, so a full run takes a few minutes.
set -euo pipefail

cd "$(dirname "$0")/.."

MUTANTS_FILE="tools/mutants/mutants.json"
JOBS="$(nproc 2>/dev/null || echo 4)"
# Seconds per test before ctest stops it.
TEST_TIMEOUT=60

REV="$(git stash create)"
REV="${REV:-HEAD}"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/np-mutants.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

# Prints one field of mutant NAME (lists space-separated).
field() {
  python3 - "${MUTANTS_FILE}" "$1" "$2" <<'EOF'
import json, sys
path, name, key = sys.argv[1:]
entry = next(m for m in json.load(open(path)) if m["name"] == name)
value = entry[key]
print(" ".join(value) if isinstance(value, list) else value)
EOF
}

# Applies mutant NAME to the tree at ROOT; fails unless `old` occurs
# exactly once.
apply_mutant() {
  python3 - "${MUTANTS_FILE}" "$1" "$2" <<'EOF'
import json, sys
path, name, root = sys.argv[1:]
entry = next(m for m in json.load(open(path)) if m["name"] == name)
target = f"{root}/{entry['file']}"
text = open(target).read()
count = text.count(entry["old"])
if count != 1:
    sys.exit(f"mutant {name}: `old` occurs {count} times in {entry['file']}")
open(target, "w").write(text.replace(entry["old"], entry["new"]))
EOF
}

if [ $# -gt 0 ]; then
  NAMES=("$@")
else
  mapfile -t NAMES < <(python3 -c '
import json, sys
for m in json.load(open(sys.argv[1])):
    print(m["name"])' "${MUTANTS_FILE}")
fi

RESULTS=()
FAILED=0
for name in "${NAMES[@]}"; do
  copy="${WORK}/${name}"
  mkdir -p "${copy}"
  git archive "${REV}" | tar -x -C "${copy}"
  expect="$(field "${name}" expect)"
  tests="$(field "${name}" tests)"
  read -r -a targets <<< "$(field "${name}" targets)"
  echo "==> [${name}] $(field "${name}" why)"

  verdict=""
  if ! apply_mutant "${name}" "${copy}"; then
    verdict="did-not-apply"
  elif ! cmake -B "${copy}/build" -S "${copy}" \
         -DCMAKE_BUILD_TYPE=RelWithDebInfo > "${copy}.configure.log" 2>&1 ||
       ! cmake --build "${copy}/build" -j "${JOBS}" \
         $(printf -- '--target %s ' "${targets[@]}") \
         > "${copy}.build.log" 2>&1; then
    tail -n 20 "${copy}.build.log" 2>/dev/null || tail -n 20 "${copy}.configure.log"
    verdict="did-not-build"
  else
    selected="$(ctest --test-dir "${copy}/build" -N -R "${tests}" |
                sed -n 's/^Total Tests: //p')"
    # A mutant can make a drain loop endless, so a timeout is a kill. The
    # tests' temporary stores live in the copy and go with it.
    mkdir -p "${copy}/tmp"
    if [ "${selected:-0}" -eq 0 ]; then
      verdict="no-tests-selected"
    elif TMPDIR="${copy}/tmp" ctest --test-dir "${copy}/build" \
           -R "${tests}" -j "${JOBS}" --timeout "${TEST_TIMEOUT}" \
           > "${copy}.ctest.log" 2>&1; then
      verdict="survives"
    else
      verdict="killed"
      grep -E '^[[:space:]]*[0-9]+ - ' "${copy}.ctest.log" | head -n 5 || true
    fi
  fi
  if [ "${verdict}" = "${expect}" ]; then
    RESULTS+=("ok    ${name}: ${verdict}")
  else
    RESULTS+=("FAIL  ${name}: ${verdict} (expected ${expect})")
    FAILED=1
  fi
  rm -rf "${copy}"
done

echo "==> mutation-kill matrix (${MUTANTS_FILE})"
printf '  %s\n' "${RESULTS[@]}"
if [ "${FAILED}" -ne 0 ]; then
  echo "==> mutants: FAILED" >&2
  exit 1
fi
echo "==> mutants: all killed, control survived"
