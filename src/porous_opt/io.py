"""Deterministic output writers: CSV with provenance headers, legacy VTK.

Every file starts with ``#``-prefixed provenance lines (configuration hash,
mesh hash, code version).  Floats are rendered with repr-stable ``%.17g``
formatting and no timestamps enter any file, so identical runs produce
byte-identical outputs.
"""

import hashlib
import json

import numpy as np

from . import __version__
from .fespaces import P0Field, P1DGField, RT0Field


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mesh_hash(mesh) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mesh.vertices).tobytes())
    h.update(np.ascontiguousarray(mesh.triangles).tobytes())
    return h.hexdigest()


def provenance_lines(provenance: dict):
    lines = [f"# code_version={__version__}"]
    for key in sorted(provenance):
        lines.append(f"# {key}={provenance[key]}")
    return lines


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, columns, rows, provenance=None):
    """Write a CSV file with provenance comments and stable float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in provenance_lines(provenance or {}):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_status(path, status, exit_code, error=None, extra=None):
    payload = {"status": status, "exit_code": exit_code}
    if error is not None:
        payload["error"] = error
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_vtk(path, mesh, fields=None, provenance=None):
    """Legacy ASCII VTK snapshot of the primal mesh with attached fields.

    P0 fields (and RT0 fields, via element midpoint averages) are written as
    CELL_DATA; P1DG fields as POINT_DATA on per-corner points (each triangle
    gets its own three points, so discontinuities survive).
    """
    fields = fields or {}
    n_t = mesh.num_triangles
    corners = mesh.tri_vertices().reshape(-1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        head = "; ".join(line.lstrip("# ") for line in provenance_lines(provenance or {}))
        fh.write(head[:255] + "\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {3 * n_t} double\n")
        for x, y in corners:
            fh.write(f"{_fmt(x)} {_fmt(y)} 0\n")
        fh.write(f"CELLS {n_t} {4 * n_t}\n")
        for k in range(n_t):
            fh.write(f"3 {3 * k} {3 * k + 1} {3 * k + 2}\n")
        fh.write(f"CELL_TYPES {n_t}\n")
        fh.write("5\n" * n_t)

        cell_fields = {}
        point_fields = {}
        for name, field in fields.items():
            if isinstance(field, P0Field):
                cell_fields[name] = field.values[:, None]
            elif isinstance(field, RT0Field):
                cell_fields[name] = field.element_midpoint_values().mean(axis=1)
            elif isinstance(field, P1DGField):
                point_fields[name] = field.values.reshape(-1)
            else:
                raise TypeError(f"cannot write field of type {type(field)}")

        if cell_fields:
            fh.write(f"CELL_DATA {n_t}\n")
            for name, vals in sorted(cell_fields.items()):
                if vals.shape[1] == 1:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for v in vals[:, 0]:
                        fh.write(_fmt(v) + "\n")
                else:
                    fh.write(f"VECTORS {name} double\n")
                    for v in vals:
                        fh.write(f"{_fmt(v[0])} {_fmt(v[1])} 0\n")
        if point_fields:
            fh.write(f"POINT_DATA {3 * n_t}\n")
            for name, vals in sorted(point_fields.items()):
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in vals:
                    fh.write(_fmt(v) + "\n")
