#!/usr/bin/env python3
"""Compare two output trees of ``scripts/compare_outputs.sh`` within a tolerance.

    usage: scripts/diff_outputs.py OUT_A OUT_B [--rtol R] [--atol ABS]

Both trees must hold the same files.  Each line of a text file is split into
its numbers and the text around them, and the text must match exactly.  A
number's scale is the largest magnitude in its column (its place on the
line) over the run of neighbouring lines that share its line's text, such
as a CSV column or a VTK array: a pair of numbers matches when they differ
by at most ``rtol`` times the larger of their magnitudes and that scale, or
by at most ``atol``.  Any other file must match byte for byte.

One line per file gives the largest relative difference (0 for identical
files) and what did not match; the exit status is 1 if anything did not
match, else 0.  Use it where a change moves the outputs by round-off, so
that ``diff -r`` cannot be the check.

Such a change needs ``--atol`` as well as ``--rtol``.  Some ``status.json``
scalars are round-off of zero or of a residual, such as
``costate_div_max`` (about 3e-17) and ``projected_gradient_residual``
(about 3e-11).  Each is its own scale, so it moves by 1e-5 to 0.3 relative
whenever the numerics move by round-off, and ``--rtol`` alone fails it.
An ``--atol`` of about 1e-14 passes them, as in

    scripts/diff_outputs.py OUT_PARENT OUT_CHANGE --rtol 1e-9 --atol 1e-14

Integer counts in a log, such as a march's "most passes", have no
round-off tolerance: a pass count that flips shows at any ``--rtol``.
"""

import argparse
import re
import sys
from pathlib import Path

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _is_text(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return b"\0" not in data


def _blocks(lines):
    """Runs of neighbouring lines whose text around the numbers is equal, as
    lists of the lines' numbers."""
    blocks, text = [], None
    for line in lines:
        parts = NUMBER.split(line)
        if parts != text:
            blocks.append([])
            text = parts
        blocks[-1].append([float(t) for t in NUMBER.findall(line)])
    return blocks


def compare_file(a, b, rtol, atol):
    """(largest relative difference, what did not match or None) of two files."""
    if a == b:
        return 0.0, None
    if not (_is_text(a) and _is_text(b)):
        return float("inf"), "binary files differ"
    lines_a, lines_b = a.splitlines(keepends=True), b.splitlines(keepends=True)
    if len(lines_a) != len(lines_b):
        return float("inf"), f"{len(lines_a)} against {len(lines_b)} lines"
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), 1):
        if NUMBER.split(la) != NUMBER.split(lb):
            return float("inf"), f"line {i} differs outside its numbers"
    worst, bad = 0.0, 0
    for block_a, block_b in zip(_blocks(lines_a), _blocks(lines_b)):
        for col_a, col_b in zip(zip(*block_a), zip(*block_b)):
            scale = max(abs(v) for v in col_a + col_b)
            for u, v in zip(col_a, col_b):
                diff = abs(u - v)
                if diff == 0.0:
                    continue
                rel = diff / max(abs(u), abs(v), scale)
                worst = max(worst, rel)
                if rel > rtol and diff > atol:
                    bad += 1
    if bad:
        return worst, f"{bad} number(s) beyond rtol {rtol:g} and atol {atol:g}"
    return worst, None


def compare_trees(root_a, root_b, rtol, atol):
    """Print one line per file of the two trees; True when everything matched."""
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    ok = True
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"{'missing':>10}  {rel}: only in {root_a if rel in files_a else root_b}")
            ok = False
            continue
        worst, problem = compare_file((root_a / rel).read_bytes(), (root_b / rel).read_bytes(),
                                      rtol, atol)
        print(f"{worst:10.3e}  {rel}" + (f": {problem}" if problem else ""))
        ok = ok and problem is None
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_a", type=Path)
    ap.add_argument("out_b", type=Path)
    ap.add_argument("--rtol", type=float, default=1e-8,
                    help="largest difference allowed relative to a number's scale")
    ap.add_argument("--atol", type=float, default=0.0,
                    help="largest difference allowed whatever the scale")
    args = ap.parse_args()
    for root in (args.out_a, args.out_b):
        if not root.is_dir():
            ap.error(f"{root} is not a directory")
    return 0 if compare_trees(args.out_a, args.out_b, args.rtol, args.atol) else 1


if __name__ == "__main__":
    sys.exit(main())
