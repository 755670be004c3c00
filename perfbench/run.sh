#!/bin/sh
# Build the tilesched CLI and the benchmark from source, then run one
# workload (from the repository root):
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh --self-test
# Build output goes to .bench_build/.
set -eu
build=.bench_build
if ! DUNE_CACHE=disabled dune build --root . --build-dir "$build" \
    ./bin/tilesched.exe ./perfbench/main.exe ./perfbench/tests.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
bin="$build/default"
if [ "${1:-}" = "--self-test" ]; then
  exec "$bin/perfbench/tests.exe" "$bin/perfbench/main.exe" "$bin/bin/tilesched.exe"
fi
exec "$bin/perfbench/main.exe" --exe "$bin/bin/tilesched.exe" "$@"
