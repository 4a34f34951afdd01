"""Run configuration files: a flat ``key = value`` grammar.

Lines are ``key = value`` pairs; ``#`` starts a comment; blank lines are
ignored.  Unknown keys are rejected with the offending key named, as are
type mismatches and out-of-range values.  ``auto`` is accepted where a
default depends on other values (xi, epsilon, q_init).  An empty file is a
valid configuration: every key has a default.

Key reference (defaults in parentheses):

    mesh          square | files            (square)
    n             square subdivisions       (16)
    nodes_file    node file path            (-)
    elems_file    element file path         (-)
    T             time horizon              (1.0)
    m_steps       pressure steps            (8)
    n_steps       saturation steps          (32)
    xi            penalty, auto = 10 d*     (auto)
    delta_floor   mobility floor            (0.05)
    peclet        capillary slope           (1.0)
    c0            initial saturation        (0.5)
    q_init        initial control, auto = qhat/2   (auto)
    kmax          active-set cap            (50)
    q_tol         control fixed-point tol   (1e-9)
    solver_tol    linear solve tolerance    (1e-10)
    tri_quad_degree, edge_quad_degree        (4, 3)
    x0, x1        well points "x y"         (0.1 0.1 / 0.9 0.9)
    sigma         target patch area         (0.02)
    wtilde        oil price                 (1.0)
    epsilon       terminal window, auto = 2 dt     (auto)
    alpha0        water price               (1.0)
    qhat          control bound             (1.0)
"""

from dataclasses import dataclass, fields as dc_fields
from typing import Optional

from .errors import ConfigError
from .mesh import PrimalMesh, read_mesh, square_mesh
from .model import RunConfig, build_wells, default_model
from .solver import Problem

_FLOAT_KEYS = {
    "T": (0.0, None), "delta_floor": (0.0, None), "peclet": (0.0, None),
    "c0": (0.0, 1.0), "q_tol": (0.0, None), "solver_tol": (0.0, None),
    "sigma": (0.0, None), "wtilde": (None, None), "alpha0": (0.0, None),
    "qhat": (0.0, None),
}
_AUTO_FLOAT_KEYS = {"xi": (0.0, None), "epsilon": (0.0, None), "q_init": (None, None)}
_INT_KEYS = {
    "n": (1, None), "m_steps": (1, None), "n_steps": (1, None),
    "kmax": (1, None), "tri_quad_degree": (1, 5), "edge_quad_degree": (1, None),
}
_POINT_KEYS = ("x0", "x1")
_ENUM_KEYS = {"mesh": ("square", "files")}
_PATH_KEYS = ("nodes_file", "elems_file")


@dataclass
class RunSpec:
    """Fully parsed run description (mesh source, model, wells, solver)."""

    mesh: str = "square"
    n: int = 16
    nodes_file: Optional[str] = None
    elems_file: Optional[str] = None
    T: float = 1.0
    m_steps: int = 8
    n_steps: int = 32
    xi: Optional[float] = None
    delta_floor: float = 0.05
    peclet: float = 1.0
    c0: float = 0.5
    q_init: Optional[float] = None
    kmax: int = 50
    q_tol: float = 1e-9
    solver_tol: float = 1e-10
    tri_quad_degree: int = 4
    edge_quad_degree: int = 3
    x0: tuple = (0.1, 0.1)
    x1: tuple = (0.9, 0.9)
    sigma: float = 0.02
    wtilde: float = 1.0
    epsilon: Optional[float] = None
    alpha0: float = 1.0
    qhat: float = 1.0

    def resolved(self) -> "RunSpec":
        """Copy with every ``auto`` value made explicit."""
        model = default_model(self.delta_floor, self.peclet)
        out = RunSpec(**{f.name: getattr(self, f.name) for f in dc_fields(self)})
        if out.xi is None:
            out.xi = 10.0 * model.d_high
        if out.epsilon is None:
            out.epsilon = 2.0 * out.T / out.n_steps
        if out.q_init is None:
            out.q_init = 0.5 * out.qhat
        return out

    def to_text(self) -> str:
        spec = self
        lines = []
        for f in dc_fields(spec):
            val = getattr(spec, f.name)
            if val is None:
                if f.name in _AUTO_FLOAT_KEYS:
                    val = "auto"
                else:
                    continue
            if f.name in _POINT_KEYS:
                val = f"{val[0]!r} {val[1]!r}"
            lines.append(f"{f.name} = {val}")
        return "\n".join(lines) + "\n"

    def build_mesh(self) -> PrimalMesh:
        if self.mesh == "square":
            return square_mesh(self.n)
        if self.nodes_file is None or self.elems_file is None:
            raise ConfigError("mesh = files requires nodes_file and elems_file")
        return read_mesh(self.nodes_file, self.elems_file)

    def build_problem(self) -> Problem:
        spec = self.resolved()
        mesh = spec.build_mesh()
        model = default_model(spec.delta_floor, spec.peclet)
        wells = build_wells(
            mesh, spec.x0, spec.x1, spec.sigma, T=spec.T, wtilde=spec.wtilde,
            epsilon=spec.epsilon, alpha0=spec.alpha0, qhat=spec.qhat,
        )
        rc = RunConfig(
            T=spec.T, m_steps=spec.m_steps, n_steps=spec.n_steps, xi=spec.xi,
            c0=spec.c0, q_init=spec.q_init, kmax=spec.kmax, q_tol=spec.q_tol,
            solver_tol=spec.solver_tol, tri_quad_degree=spec.tri_quad_degree,
            edge_quad_degree=spec.edge_quad_degree,
        )
        return Problem.build(mesh, model, wells, rc)


def _parse_value(key, raw):
    if key in _ENUM_KEYS:
        if raw not in _ENUM_KEYS[key]:
            raise ConfigError(f"{key}: expected one of {_ENUM_KEYS[key]}, got {raw!r}")
        return raw
    if key in _PATH_KEYS:
        return raw
    if key in _POINT_KEYS:
        parts = raw.split()
        if len(parts) != 2:
            raise ConfigError(f"{key}: expected two coordinates, got {raw!r}")
        try:
            return (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"{key}: not a coordinate pair: {raw!r}") from exc
    if key in _INT_KEYS:
        try:
            val = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc
        lo, hi = _INT_KEYS[key]
        if (lo is not None and val < lo) or (hi is not None and val > hi):
            raise ConfigError(f"{key}: value {val} outside valid range")
        return val
    if key in _AUTO_FLOAT_KEYS:
        if raw == "auto":
            return None
        lo, hi = _AUTO_FLOAT_KEYS[key]
    elif key in _FLOAT_KEYS:
        lo, hi = _FLOAT_KEYS[key]
    else:
        raise ConfigError(f"unknown key {key!r}")
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    if lo is not None and val <= lo and key not in ("wtilde", "c0", "q_init"):
        raise ConfigError(f"{key}: value {val} outside valid range (must be > {lo})")
    if key == "c0" and not (0.0 <= val <= 1.0):
        raise ConfigError("c0: must lie in [0, 1]")
    if hi is not None and val > hi:
        raise ConfigError(f"{key}: value {val} outside valid range")
    return val


def parse_config_text(text: str) -> RunSpec:
    known = {f.name for f in dc_fields(RunSpec)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        values[key] = _parse_value(key, val)
    spec = RunSpec(**values)
    # cross-field validation
    if spec.n_steps % spec.m_steps != 0:
        raise ConfigError("n_steps must be a multiple of m_steps")
    if spec.qhat <= 0.0:
        raise ConfigError("qhat: must be > 0")
    if spec.q_init is not None and not (0.0 <= spec.q_init <= spec.qhat):
        raise ConfigError("q_init: must lie in [0, qhat]")
    if spec.epsilon is not None and spec.epsilon > spec.T:
        raise ConfigError("epsilon: must lie in (0, T]")
    return spec


def parse_config(path) -> RunSpec:
    """Parse a configuration file into a :class:`RunSpec`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
