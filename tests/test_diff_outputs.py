"""scripts/diff_outputs.py: output trees compared within a tolerance."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"

CSV = "k,J,residual\n0,0.5,1e-3\n1,0.25,2e-4\n"
VTK = "SCALARS c double 1\n0.5\n1e-17\n-0.25\nVECTORS u double\n1 2e-20 0\n"


def tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, str):
            path.write_text(data)
        else:
            path.write_bytes(data)
    return root


def run(a, b, *flags):
    res = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b), *flags],
                         capture_output=True, text=True, timeout=60)
    return res.returncode, res.stdout


BASE = {"run/history.csv": CSV, "run/field.vtk": VTK, "run/blob.bin": b"\0\1\2"}


@pytest.mark.parametrize("changes, flags, code, report", [
    ({}, (), 0, " 0.000e+00  run/history.csv"),
    # 0.5 -> 0.5 (1 + 2e-9): within the default rtol 1e-8
    ({"run/history.csv": CSV.replace("0,0.5,", "0,0.500000001,")}, (), 0,
     " 2.000e-09  run/history.csv"),
    ({"run/history.csv": CSV.replace("0,0.5,", "0,0.500000001,")}, ("--rtol", "1e-9"), 1,
     "run/history.csv: 1 number(s) beyond rtol 1e-09 and atol 0"),
    # a round-off zero is measured against its column's scale, 0.5
    ({"run/field.vtk": VTK.replace("1e-17", "-2e-17")}, (), 0, " 6.000e-17  run/field.vtk"),
    # a lone number is its own scale: only atol lets it through
    ({"run/field.vtk": VTK.replace("2e-20", "3e-20")}, (), 1,
     "run/field.vtk: 1 number(s) beyond rtol 1e-08 and atol 0"),
    ({"run/field.vtk": VTK.replace("2e-20", "3e-20")}, ("--atol", "1e-15"), 0,
     " 3.333e-01  run/field.vtk"),
    ({"run/history.csv": CSV.replace("residual", "resid")}, (), 1,
     "run/history.csv: line 1 differs outside its numbers"),
    ({"run/history.csv": CSV + "2,0.2,1e-5\n"}, (), 1, "run/history.csv: 3 against 4 lines"),
    ({"run/blob.bin": b"\0\1\3"}, (), 1, "run/blob.bin: binary files differ"),
    ({"run/extra.txt": "1\n"}, (), 1, "   missing  run/extra.txt: only in"),
], ids=["identical", "within", "beyond", "column-scale", "lone-number", "atol", "text",
        "lines", "binary", "missing"])
def test_diff_outputs(tmp_path, changes, flags, code, report):
    a = tree(tmp_path / "a", BASE)
    b = tree(tmp_path / "b", {**BASE, **changes})
    got, out = run(a, b, *flags)
    assert got == code, out
    assert report in out, out
    assert len(out.splitlines()) == len(BASE) + ("run/extra.txt" in changes)
