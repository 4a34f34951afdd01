#!/bin/sh
# Write the outputs a refactor must keep byte for byte into OUT_DIR:
#
#   OUT_DIR/optimize/   quarter-five-spot `optimize` (CSVs, status.json, stdout)
#   OUT_DIR/adjoint/    `adjoint --save-every 8` (CSVs, status.json, VTK, stdout)
#   OUT_DIR/matrices/   its `--dump-matrices` output (the seven .mtx files)
#   OUT_DIR/operators/  `verify --suite operators` (CSV, status.json, stdout)
#   OUT_DIR/state/      `verify --suite state`, the manufactured state sources
#   OUT_DIR/costate/    `verify --suite costate`, the manufactured costate sources
#   OUT_DIR/config/     `config --resolve` (every `auto` made explicit, after the
#                       well checks a run makes)
#   OUT_DIR/mesh/       `mesh-info` (counts, area, h and quality ratio)
#   OUT_DIR/unstructured/{optimize,adjoint,matrices,operators,config,mesh}/
#                       the first four and the last two again on the file mesh
#                       of data/unstructured_square.cfg
#   OUT_DIR/coarse/     `adjoint` at coarse dt on OUT_DIR/coarse.cfg (n = 16,
#                       m_steps = 1, n_steps = 2, other keys default), with
#                       the INFO log in log.txt: 3 of its 4 step factors take
#                       the COLAMD branch in double; the fourth, of the first
#                       forward step (n = 0), is the single-precision factor
#                       in the workspace order.  Each march's held factor
#                       stalls, so the log reads "2 steps, 2 fresh factors,
#                       0 reused, 1 fallbacks" for both marches
#
# Run it in two checkouts and compare them with `diff -r OUT_A OUT_B`, or,
# for a change that moves the outputs by round-off, with
# `scripts/diff_outputs.py OUT_A OUT_B --rtol R`.  It runs from the
# checkout root, which the file-mesh config's paths are relative to, so both
# checkouts hash that config alike.
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
cd "$root"
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

# show NAME CONFIG ARGS...: run the CLI on CONFIG, its stdout into NAME/stdout.txt
show() {
    dir="$out/$1"
    cfg="$2"
    shift 2
    mkdir -p "$dir"
    python3 -m porous_opt.cli "$@" --config "$cfg" > "$dir/stdout.txt"
}

# run NAME CONFIG ARGS...: the same for a command that also writes into --out NAME
run() {
    name="$1"
    cfg="$2"
    shift 2
    show "$name" "$cfg" "$@" --out "$out/$name"
}

square=data/quarter_five_spot.cfg
run optimize "$square" optimize
run adjoint "$square" adjoint --save-every 8 --dump-matrices "$out/matrices"
run operators "$square" verify --suite operators
run state "$square" verify --suite state
run costate "$square" verify --suite costate
show config "$square" config --resolve
show mesh "$square" mesh-info

files=data/unstructured_square.cfg
run unstructured/optimize "$files" optimize
run unstructured/adjoint "$files" adjoint --save-every 8 \
    --dump-matrices "$out/unstructured/matrices"
run unstructured/operators "$files" verify --suite operators
show unstructured/config "$files" config --resolve
show unstructured/mesh "$files" mesh-info

printf 'n = 16\nm_steps = 1\nn_steps = 2\n' > "$out/coarse.cfg"
mkdir -p "$out/coarse"
POROUS_OPT_LOG=INFO python3 -m porous_opt.cli adjoint --config "$out/coarse.cfg" \
    --out "$out/coarse" > "$out/coarse/stdout.txt" 2> "$out/coarse/log.txt"
