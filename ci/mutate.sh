#!/usr/bin/env bash
# The mutation table: does the test suite catch the bugs it should?
#
# Each ci/mutants/<name>.patch brings back one bug. Its header says what
# the bug is ("Mutant:") and which `cargo test` arguments must fail with
# it ("Target:"). For every patch this script applies it with plain
# `git apply` to a scratch copy of the tracked tree, runs only its target,
# reverts it, and records the outcome in ci/mutants.tsv:
#
#   killed      the target failed (or hung past 5 minutes)
#   survived    the target passed: a missing test, or an equivalent mutant
#               (say why in the patch's "Mutant:" line)
#   unapplied   the patch no longer applies: regenerate it
#   unbuilt     the mutated tree does not compile: fix the patch
#
# It exits 1 when a mutant the committed table records as killed does not
# come out killed now, so a test that stops catching its bug fails CI.
#
# Usage: ci/mutate.sh [scratch-dir]
#   scratch-dir must lie outside the repository (default: mktemp -d). It
#   holds the tree copy and a cargo target directory reused across runs.
set -euo pipefail
repo=$(git rev-parse --show-toplevel)
cd "$repo"
scratch=${1:-$(mktemp -d)}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
case "$scratch/" in
  "$repo"/*) echo "ci/mutate.sh: $scratch is inside the repository" >&2; exit 2 ;;
esac
tree=$scratch/tree
rm -rf "$tree"
mkdir -p "$tree"
# Extracted with fresh mtimes (-m): files older than the last build in the
# reused target directory would leave its last mutant's binary in place.
git ls-files -z | tar --null -T - -cf - | tar -xmf - -C "$tree"
export CARGO_TARGET_DIR=$scratch/target

# Every target passes on the clean tree, or a "killed" would mean nothing.
sed -n 's/^Target: //p' ci/mutants/*.patch | sort -u | while read -r target; do
  # shellcheck disable=SC2086
  if ! (cd "$tree" && cargo test --offline -q $target) > /dev/null 2>&1; then
    echo "ci/mutate.sh: $target fails without a mutant" >&2
    exit 2
  fi
done

table=ci/mutants.tsv
fresh=$(mktemp)
printf 'mutant\ttarget\tresult\tseconds\n' > "$fresh"
for patch in ci/mutants/*.patch; do
  mutant=$(basename "$patch" .patch)
  target=$(sed -n 's/^Target: //p' "$patch")
  start=$(date +%s)
  if ! (cd "$tree" && git apply "$repo/$patch"); then
    result=unapplied
  else
    # $target is a list of cargo arguments: split it on purpose.
    # shellcheck disable=SC2086
    if ! (cd "$tree" && cargo test --offline -q $target --no-run) > /dev/null 2>&1; then
      result=unbuilt
    elif (cd "$tree" && timeout 300 cargo test --offline -q $target) > /dev/null 2>&1; then
      result=survived
    else
      result=killed
    fi
    (cd "$tree" && git apply -R "$repo/$patch")
  fi
  seconds=$(( $(date +%s) - start ))
  printf '%s\t%s\t%s\t%s\n' "$mutant" "$target" "$result" "$seconds" | tee -a "$fresh"
done

# A mutant the committed table records as killed must still be killed.
status=0
while IFS=$'\t' read -r mutant _ result _; do
  if [ "$result" = killed ] && ! awk -F'\t' -v m="$mutant" \
      '$1 == m && $3 == "killed" { k = 1 } END { exit !k }' "$fresh"; then
    echo "ci/mutate.sh: $mutant was killed and is not any more" >&2
    status=1
  fi
done < <(tail -n +2 "$table" 2> /dev/null || true)
if awk -F'\t' '$3 == "unapplied" || $3 == "unbuilt" { bad = 1 } END { exit !bad }' "$fresh"; then
  echo "ci/mutate.sh: a patch no longer applies or builds" >&2
  status=1
fi
mv "$fresh" "$table"
exit "$status"
