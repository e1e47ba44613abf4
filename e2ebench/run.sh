#!/bin/sh
# Build the benchmark and the fabric_tool daemon in release mode, then
# run one workload:
#
#   sh e2ebench/run.sh --workload bringup-fattree --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the JSON result. The build directory is separate
# from _build, so dev-profile builds and benchmark runs do not rebuild
# each other's artifacts.
set -e
build_dir=_build_bench
dune build --root . --build-dir "$build_dir" --profile release \
  ./e2ebench/main.exe ./bin/fabric_tool.exe 1>&2
exec "./$build_dir/default/e2ebench/main.exe" \
  --daemon "./$build_dir/default/bin/fabric_tool.exe" "$@"
