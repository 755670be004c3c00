#!/bin/sh
# Repository health check: what CI runs, runnable locally.
#   sh scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

# Build artifacts must never be committed (.gitignore covers _build/ and
# out/; this catches force-adds).
tracked=$(git ls-files -- '_build/*' 'out/*' '*.install')
if [ -n "$tracked" ]; then
  echo "error: build artifacts tracked in git:" >&2
  echo "$tracked" >&2
  exit 1
fi

# Zero-byte tracked files are stray editor/alias leftovers, never
# intentional in this repo.
empty=$(git ls-files | while read -r f; do
  [ -f "$f" ] && [ ! -s "$f" ] && echo "$f" || true
done)
if [ -n "$empty" ]; then
  echo "error: zero-byte files tracked in git:" >&2
  echo "$empty" >&2
  exit 1
fi

# The reference exact-cover solver (lib/tiling/oracle) exists for
# differential tests and benchmarks only: no dune stanza outside test/,
# bench/ and lib/microbench may list it among its libraries, so it can
# never drift onto the serving or corpus path.
oracle_users=$(git ls-files -- 'dune' '*/dune' | while read -r f; do
  case "$f" in test/dune | bench/dune | lib/microbench/dune) continue ;; esac
  if tr '\n' ' ' < "$f" | grep -Eq '\(libraries[^)]*[[:space:]]tiling_oracle[[:space:])]'; then
    echo "$f"
  fi
done)
if [ -n "$oracle_users" ]; then
  echo "error: tiling_oracle linked outside test/, bench/ and lib/microbench:" >&2
  echo "$oracle_users" >&2
  exit 1
fi

dune build @all @check
dune runtest

# Project-invariant static analysis (DESIGN.md sections 10 and 15) on
# the typedtree of every file, read from the cmts @check just wrote:
# determinism (direct and interprocedural), forbidden constructs,
# Parallel task purity, fsync-before-rename, interface coverage, lock
# discipline, resource lifetime.  A file without a current typedtree
# is a finding.  Exits nonzero on any finding.
dune exec bin/tilesched.exe -- lint

# The JSON report must parse and carry its summary fields, with every
# scanned file typed (a file without a typedtree is checked by no rule).
json_out=/tmp/tilesched-lint.json
dune exec bin/tilesched.exe -- lint --format json > "$json_out"
python3 - "$json_out" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
for key in ["findings", "files_scanned", "files_typed"]:
    assert key in doc, "missing " + key
assert isinstance(doc["findings"], list), "findings"
assert doc["files_typed"] == doc["files_scanned"], "%d of %d files typed" % (
    doc["files_typed"], doc["files_scanned"])
print("lint json ok (%d files, all typed)" % doc["files_scanned"])
PY
rm -f "$json_out"

# The SARIF emitter must stay schema-valid: emit the same scan as SARIF
# and structurally check the 2.1.0 essentials (CI uploads this file as
# an artifact).
sarif_out=/tmp/tilesched-lint.sarif
dune exec bin/tilesched.exe -- lint --format sarif > "$sarif_out"
python3 - "$sarif_out" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["version"] == "2.1.0", "version"
assert doc["$schema"].endswith("sarif-2.1.0.json"), "schema ref"
runs = doc["runs"]
assert isinstance(runs, list) and runs, "runs"
driver = runs[0]["tool"]["driver"]
assert driver["name"] == "tilesched-lint", "driver name"
rules = {r["id"] for r in driver["rules"]}
for rid in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "P0", "A0"]:
    assert rid in rules, "missing rule descriptor " + rid
for res in runs[0]["results"]:
    assert res["ruleId"] in rules, "result ruleId not declared"
    assert res["message"]["text"], "message text"
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"], "artifact uri"
    assert loc["region"]["startLine"] >= 1, "startLine"
    assert loc["region"]["startColumn"] >= 1, "startColumn"
print("sarif ok (%d results)" % len(runs[0]["results"]))
PY
rm -f "$sarif_out"

# Every benchmark suite's artifact must stay machine-readable end to
# end: a tiny-quota run writes the suite's BENCH_*.json into its own temp
# directory (validated before the write), and the strict validator
# re-reads it from disk, checking that the file name maps back to the
# suite that wrote it.  Only schemas and required rows are asserted
# here; thresholds are gated on the committed artifacts below.  The
# server suite's open-loop leg holds 10k client sockets in the bench
# process and 10k accepted ones in the daemon, so raise the fd soft
# limit where the hard limit allows.
ulimit -n 20000 2>/dev/null || true
bench_dir=$(mktemp -d /tmp/tilesched-bench-smoke.XXXXXX)
for suite in micro skew lifetime corpus server; do
  mkdir "$bench_dir/$suite"
  dune exec bin/tilesched.exe -- bench "$suite" --json "$bench_dir/$suite" --quota 0.02 > /dev/null
  dune exec bin/tilesched.exe -- bench "$suite" --validate "$bench_dir/$suite"/BENCH_*.json
done
rm -rf "$bench_dir"

# Every committed BENCH_*.json must validate against the suite whose
# artifact it is (picked by file name), so a stale in-repo artifact
# fails fast, and one that no suite writes is itself an error.
for artifact in $(git ls-files 'BENCH_*.json'); do
  dune exec bin/tilesched.exe -- bench --validate "$artifact"
done

# Corpus pipeline smoke: a tiny campaign must build, report the exact
# n<=5 class counts, survive full offline verification (CRCs, index
# reachability, certificate re-proofs), and answer all 21 of its classes
# from the snapshot.
corpus_dir=/tmp/tilesched-corpus-smoke
rm -rf "$corpus_dir"
dune exec bin/tilesched.exe -- corpus build -d "$corpus_dir" -n 5 > /dev/null
dune exec bin/tilesched.exe -- corpus stats -d "$corpus_dir" | grep -q 'total classes=21 exact=18 non-exact=3'
dune exec bin/tilesched.exe -- corpus verify -d "$corpus_dir" | grep -q 'ok (21 records'
tilesched=_build/default/bin/tilesched.exe
n_corpus=$("$tilesched" corpus requests -n 5 \
  | "$tilesched" serve --corpus "$corpus_dir" 2> /dev/null | grep -c 'src=corpus')
if [ "$n_corpus" != 21 ]; then
  echo "error: corpus smoke: $n_corpus of 21 replies answered src=corpus" >&2
  exit 1
fi
rm -rf "$corpus_dir"

# The committed BENCH_8.json must show the mmap snapshot beating the
# replay-the-log store where it matters: cold start.  (Warm lookups are
# a hashtable-vs-mmap-binary-search race the store can win; the
# cold-start gap is the tier's reason to exist.)
awk '
  /corpus-mmap-coldstart-find/  { if (match($0, /"ns_per_call": [0-9.eE+-]+/)) mmap  = substr($0, RSTART + 15, RLENGTH - 15) }
  /corpus-store-coldstart-find/ { if (match($0, /"ns_per_call": [0-9.eE+-]+/)) store = substr($0, RSTART + 15, RLENGTH - 15) }
  END {
    if (mmap == "" || store == "") { print "error: BENCH_8.json: missing cold-start rows" > "/dev/stderr"; exit 1 }
    if (mmap + 0 > store + 0) {
      printf "error: BENCH_8.json: mmap cold start (%s ns) slower than store (%s ns)\n", mmap, store > "/dev/stderr"
      exit 1
    }
  }
' BENCH_8.json

# The committed BENCH_10.json must show the binary wire protocol
# earning its keep: at least 5x the text dialect's throughput on warm
# corpus hits, and a 10k-connection open-loop run that dropped nothing.
awk '
  /server-binary-vs-text-speedup/ { if (match($0, /"ns_per_call": [0-9.eE+-]+/)) speedup = substr($0, RSTART + 15, RLENGTH - 15) }
  /server-open-10k-dropped/       { if (match($0, /"ns_per_call": [0-9.eE+-]+/)) dropped = substr($0, RSTART + 15, RLENGTH - 15) }
  END {
    if (speedup == "" || dropped == "") { print "error: BENCH_10.json: missing speedup or dropped rows" > "/dev/stderr"; exit 1 }
    if (speedup + 0 < 5.0) {
      printf "error: BENCH_10.json: binary/text speedup %s below the 5x gate\n", speedup > "/dev/stderr"
      exit 1
    }
    if (dropped + 0 != 0) {
      printf "error: BENCH_10.json: open-loop run dropped %s frames\n", dropped > "/dev/stderr"
      exit 1
    }
  }
' BENCH_10.json

echo "all checks passed"
