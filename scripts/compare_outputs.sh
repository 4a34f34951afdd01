#!/bin/sh
# Write the outputs a refactor must keep byte for byte into OUT_DIR:
#
#   OUT_DIR/optimize/   quarter-five-spot `optimize` (CSVs, status.json, stdout)
#   OUT_DIR/adjoint/    `adjoint --save-every 8` (CSVs, status.json, VTK, stdout)
#   OUT_DIR/matrices/   its `--dump-matrices` output (the seven .mtx files)
#   OUT_DIR/operators/  `verify --suite operators` (CSV, status.json, stdout)
#   OUT_DIR/state/      `verify --suite state`, the manufactured state sources
#   OUT_DIR/costate/    `verify --suite costate`, the manufactured costate sources
#
# Run it in two checkouts and compare them with `diff -r OUT_A OUT_B`.
#
#   usage: scripts/compare_outputs.sh OUT_DIR
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
cfg="$root/data/quarter_five_spot.cfg"
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

run() {
    dir="$out/$1"
    shift
    mkdir -p "$dir"
    python3 -m porous_opt.cli "$@" --config "$cfg" --out "$dir" > "$dir/stdout.txt"
}

run optimize optimize
run adjoint adjoint --save-every 8 --dump-matrices "$out/matrices"
run operators verify --suite operators
run state verify --suite state
run costate verify --suite costate
