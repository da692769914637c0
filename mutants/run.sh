#!/usr/bin/env bash
# Runs the hand-written mutants in this directory against the test suite
# and records which tests kill each one in mutants/KILLS.tsv.
#
#   mutants/run.sh                 every mutants/*.patch
#   mutants/run.sh 08-noise-halved 13-epsilon-accepts-zero
#
# The checkout is never touched: its files are copied into a scratch
# tree ($MUTANTS_WORK/tree, default ${TMPDIR:-/tmp}/bf-mutants), where
# each mutant is applied, tested and reverted in turn; the tree keeps
# its own target directory, so a run rebuilds only what a mutant
# touches. Per mutant, under one outer timeout of 900 seconds, it runs
# `cargo test --workspace` and the two commands of CI's release-oracle
# step, all with --no-fail-fast. A test kills a mutant when it fails; a
# hang kills it only when libtest named the test ("has been running for
# over 60 seconds") and it never finished. A baseline run of the
# unmutated tree comes first, and a test that fails there is never
# counted as a kill.
#
# CI's "Mutants" step re-runs each listed killer alone and requires it
# to fail, so only kills that repeat are listed: a test that failed in
# one profile but passed in the other is dropped, and every other
# candidate is then run alone twice, with the command CI uses, and kept
# only if it fails both times.
#
# KILLS.tsv has one row per (mutant, killing test): mutant, profile
# (debug or release), package, target (lib, doc, or test=<name>) and the
# test's path as libtest prints it; a surviving mutant has one row of
# dashes. Rows of mutants not named on the command line are kept, and
# rows of patches that no longer exist are dropped.
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "$0")/.." && pwd)"
work="${MUTANTS_WORK:-${TMPDIR:-/tmp}/bf-mutants}"
limit=900
tree="$work/tree"
logs="$work/logs"
kills="$root/mutants/KILLS.tsv"
export CARGO_TARGET_DIR="$work/target"
# Debug info changes no test's outcome and doubles link times.
export CARGO_PROFILE_DEV_DEBUG=0 CARGO_PROFILE_RELEASE_DEBUG=0
mkdir -p "$tree" "$logs"
# Patches apply to the tree as plain files, even when it sits inside a
# repository.
export GIT_CEILING_DIRECTORIES="$work"

if (($#)); then
  names=("$@")
else
  names=()
  for p in "$root"/mutants/*.patch; do names+=("$(basename "$p" .patch)"); done
fi

# Refresh the scratch tree from the checkout. Only files whose bytes
# differ are copied, and a copy gets a new mtime, so cargo rebuilds
# exactly what changed — including a file a killed run left mutated.
(cd "$root" && git ls-files -co --exclude-standard) | while IFS= read -r f; do
  [[ -f "$root/$f" ]] || continue
  if ! cmp -s "$root/$f" "$tree/$f"; then
    mkdir -p "$tree/$(dirname "$f")"
    cp "$root/$f" "$tree/$f"
  fi
done

# The suite, as one shell command run in the tree: the workspace in
# debug, then CI's release-oracle step. Each writes its own log.
suite() {
  local out="$1"
  (
    cd "$tree"
    timeout --kill-after=10 "$limit" bash -c '
      cargo test --workspace --no-fail-fast >"$1.debug" 2>&1
      cargo test --release -p bf-mechanisms -p bf-core -p bf-store -p bf-net -p bf-replica \
        --no-fail-fast >"$1.release" 2>&1
      cargo test --release --test replica_failover --test store_recovery \
        --test sensitivity_theorems --test property_based --test hostile_bytes \
        --no-fail-fast >>"$1.release" 2>&1
      true' _ "$out"
  ) || echo "timed out after ${limit}s" >>"$out.debug"
}

# Every test outcome in a log, one "profile\tpackage\ttarget\ttest\toutcome"
# line each, the outcome being ok, FAILED or hung. Packages are read off
# the test binary's name; only the root package has integration tests.
outcomes() {
  local profile="$1" log="$2"
  [[ -f "$log" ]] || return 0
  awk -v profile="$profile" '
    /^ *Running / {
      bin = $NF; sub(/^\(/, "", bin); sub(/\)$/, "", bin); sub(/.*\//, "", bin)
      sub(/-[0-9a-f]+$/, "", bin)
      src = ($2 == "unittests") ? $3 : $2
      if (src ~ /^tests\//) { pkg = "blowfish"; target = "test=" bin }
      else if (src ~ /src\/lib\.rs$/) { pkg = bin; gsub(/_/, "-", pkg); target = "lib" }
      else { pkg = "bin"; target = "bin=" bin }
      next
    }
    /^ *Doc-tests / { pkg = $2; gsub(/_/, "-", pkg); target = "doc"; next }
    / \.\.\. FAILED$/ {
      name = $0; sub(/^test /, "", name); sub(/ \.\.\. FAILED$/, "", name)
      print profile "\t" pkg "\t" target "\t" name "\tFAILED"; next
    }
    /has been running for over 60 seconds$/ {
      name = $0; sub(/^test /, "", name); sub(/ has been running.*/, "", name)
      hung[pkg "\t" target "\t" name] = 1; next
    }
    / \.\.\. ok$/ {
      name = $0; sub(/^test /, "", name); sub(/ \.\.\. ok$/, "", name)
      delete hung[pkg "\t" target "\t" name]
      print profile "\t" pkg "\t" target "\t" name "\tok"
    }
    /^error: could not compile/ { print $0 > "/dev/stderr"; broke = 1 }
    END { for (k in hung) print profile "\t" k "\thung"; if (broke) exit 3 }
  ' "$log"
}

# The candidate kills in a mutant's outcomes, one "profile\tpackage\ttarget\ttest"
# line each: failed or hung, not failing in the baseline, and not passing
# in the other profile.
candidates() {
  awk -F'\t' -v OFS='\t' '
    FILENAME == ARGV[1] { base[$0] = 1; next }
    NF < 5 { next }
    $5 == "ok" { ok[$1 OFS $2 OFS $3 OFS $4] = 1; next }
    { bad[$1 OFS $2 OFS $3 OFS $4] = 1 }
    END {
      for (k in bad) {
        split(k, f, OFS); other = (f[1] == "debug") ? "release" : "debug"
        if (!(k in base) && !((other OFS f[2] OFS f[3] OFS f[4]) in ok)) print k
      }
    }' "$logs/baseline.fail" - | sort
}

# Runs one killer alone, as CI's "Mutants" step does; succeeds when the
# test fails.
fails_alone() {
  local profile="$1" package="$2" target="$3" test="$4"
  local args=(-p "$package") filter=(--exact "$test")
  [[ "$profile" == release ]] && args+=(--release)
  case "$target" in
    lib) args+=(--lib) ;;
    doc) args+=(--doc); filter=("${test#* - }") ;;
    test=*) args+=(--test "${target#test=}") ;;
  esac
  ! (cd "$tree" && timeout --kill-after=10 "$limit" cargo test -q "${args[@]}" -- "${filter[@]}") \
    </dev/null >/dev/null 2>&1
}

echo "baseline (unmutated tree)"
suite "$logs/baseline"
{ outcomes debug "$logs/baseline.debug"; outcomes release "$logs/baseline.release"; } \
  | awk -F'\t' -v OFS='\t' '$5 != "ok" { print $1, $2, $3, $4 }' | sort -u >"$logs/baseline.fail"
if [[ -s "$logs/baseline.fail" ]]; then
  echo "baseline failures (never counted as kills):"
  sed 's/^/  /' "$logs/baseline.fail"
fi

rows="$work/rows.tsv"
: >"$rows"
for name in "${names[@]}"; do
  patch="$root/mutants/$name.patch"
  [[ -f "$patch" ]] || { echo "no such mutant: $name" >&2; exit 1; }
  (cd "$tree" && git apply "$patch") || { echo "$name does not apply" >&2; exit 1; }
  started=$SECONDS
  suite "$logs/$name"
  debug="$(outcomes debug "$logs/$name.debug")" \
    && release="$(outcomes release "$logs/$name.release")" \
    || { echo "$name does not compile (see $logs/$name.*)" >&2; exit 1; }
  found=""
  while IFS=$'\t' read -r profile package target test; do
    if fails_alone "$profile" "$package" "$target" "$test" \
      && fails_alone "$profile" "$package" "$target" "$test"; then
      found+="$profile"$'\t'"$package"$'\t'"$target"$'\t'"$test"$'\n'
    else
      echo "  $test: a kill that did not repeat, not listed"
    fi
  done < <(candidates <<<"$debug"$'\n'"$release")
  (cd "$tree" && git apply -R "$patch")
  if [[ -z "$found" ]]; then
    printf '%s\t-\t-\t-\t-\n' "$name" >>"$rows"
  else
    printf '%s' "$found" | sed "s/^/$name\t/" >>"$rows"
  fi
  echo "$name: $(printf '%s' "$found" | grep -c . || true) killers, $((SECONDS - started)) s"
done

# Merge: keep other mutants' rows, drop rows of deleted patches.
present="$(cd "$root/mutants" && ls -- *.patch | sed 's/\.patch$//')"
{
  printf '# mutant\tprofile\tpackage\ttarget\ttest\n'
  {
    [[ -f "$kills" ]] && grep -v '^#' "$kills" | awk -F'\t' -v run="$(printf '%s\n' "${names[@]}")" '
      BEGIN { n = split(run, r, "\n"); for (i = 1; i <= n; i++) skip[r[i]] = 1 }
      !($1 in skip)'
    cat "$rows"
  } | awk -F'\t' -v keep="$present" '
      BEGIN { n = split(keep, k, "\n"); for (i = 1; i <= n; i++) ok[k[i]] = 1 }
      $1 in ok' | sort -u
} >"$kills.new"
mv "$kills.new" "$kills"
echo "wrote $kills"
