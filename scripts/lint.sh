#!/usr/bin/env bash
# Static analysis entry point: a tracked-build-artefact check, the
# repo-invariant custom pass (veritas-lint) and the curated clang-tidy
# baseline. Exits non-zero when git tracks a build artefact or on any
# veritas-lint finding; clang-tidy findings are advisory unless
# LINT_TIDY_STRICT=1 (flip once a clean baseline exists on a clang-equipped
# host).
#
# Usage: scripts/lint.sh [build-dir]              (default: build)
#        LINT_TIDY_STRICT=1 scripts/lint.sh ...   (clang-tidy findings fatal)
#
# The build dir is configured on demand with CMAKE_EXPORT_COMPILE_COMMANDS
# (the top-level CMakeLists already forces it on), so both passes read the
# same compile_commands.json. clang-tidy is skipped with a notice when the
# binary is absent — minimal CI images and the dev container carry only the
# gcc toolchain, and the custom pass alone decides the exit status there.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build}"

# Build output belongs in ignored build*/ dirs, never in the index: fail on
# any tracked CMakeCache.txt, CMakeFiles/ path or object file. Needs git
# metadata, so an exported tree (tarball, git archive) skips it.
if git -C "$repo_root" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  echo "== tracked build artefacts"
  artefacts="$(git -C "$repo_root" ls-files |
    grep -E '(^|/)CMakeCache\.txt$|(^|/)CMakeFiles/|\.o$' || true)"
  if [[ -n "$artefacts" ]]; then
    echo "lint: $(wc -l <<< "$artefacts") build artefact(s) tracked by git, e.g.:" >&2
    head -5 <<< "$artefacts" >&2
    echo "remove them with 'git rm -r --cached' and keep build dirs ignored" >&2
    exit 1
  fi
else
  echo "== tracked build artefacts: not a git checkout; skipping"
fi

if [[ ! -f "$build_dir/compile_commands.json" ]]; then
  cmake -B "$build_dir" -S "$repo_root" > /dev/null
fi
cmake --build "$build_dir" -j "$(nproc)" --target veritas-lint > /dev/null

echo "== veritas-lint (field-coverage, determinism, wire-compat)"
"$build_dir"/tools/lint/veritas-lint \
  --repo "$repo_root" \
  --compile-commands "$build_dir/compile_commands.json"

if ! command -v clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy: not installed; skipping (custom pass decides)"
  exit 0
fi

echo "== clang-tidy (.clang-tidy baseline, src/ + tools/)"
# Only first-party translation units: vendored/third-party code and test
# fixtures (never compiled) are out of scope for the baseline.
mapfile -t tidy_files < <(
  grep -o '"file": *"[^"]*"' "$build_dir/compile_commands.json" \
    | sed 's/.*"file": *"//; s/"$//' \
    | grep -E "^$repo_root/(src|tools)/" | sort -u)
tidy_status=0
clang-tidy -p "$build_dir" -warnings-as-errors='*' -quiet \
  "${tidy_files[@]}" || tidy_status=$?
if [[ "$tidy_status" != 0 ]]; then
  if [[ "${LINT_TIDY_STRICT:-0}" == "1" ]]; then
    echo "clang-tidy: FAILED (strict mode)" >&2
    exit "$tidy_status"
  fi
  echo "clang-tidy: findings above are advisory (set LINT_TIDY_STRICT=1 to enforce)"
fi
echo "lint: PASS"
