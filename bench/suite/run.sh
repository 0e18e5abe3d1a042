#!/usr/bin/env bash
# Build gee-suite from this checkout (the first run configures and builds;
# later runs are a no-op rebuild check) and run it with the given
# arguments, e.g.
#
#   bash bench/suite/run.sh --workload embed-dense --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr so the last
# line of stdout stays the suite's JSON result.
set -euo pipefail

suite_dir="bench/suite"
build_dir=".bench_build/gee-suite"

if [[ ! -f "$suite_dir/CMakeLists.txt" ]]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi

if [[ ! -f "$build_dir/build.ninja" && ! -f "$build_dir/Makefile" ]]; then
  generator=()
  if command -v ninja > /dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$suite_dir" -B "$build_dir" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" --target gee_suite -j "$(nproc)" >&2

exec "$build_dir/gee_suite" "$@"
