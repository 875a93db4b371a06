#!/bin/sh
# Build the benchmark and run it, from the root of the repository:
#   sh benchmark/run.sh --workload q_search --seed 2020 --seconds 20 --trace 0
# --root pins the dune workspace to the current directory, so an
# enclosing dune project can never take over the build, and
# --cache=disabled keeps the build inside it (no shared dune cache).
exec dune exec --root . --cache=disabled --display quiet benchmark/ftbench.exe -- run "$@"
