#!/bin/sh
# Build the benchmark from source and run it; every argument goes to
# perfbench.exe (--workload NAME --seed N --seconds S --trace 0|1).
# The build stays in the tree's own _build, with dune's shared cache off.
cd "$(dirname "$0")/.." || exit 2
exec dune exec --root . --cache disabled --display quiet -- \
  ./perfbench/perfbench.exe "$@"
