"""Run configuration files: a flat ``key = value`` grammar.

Lines are ``key = value`` pairs; ``#`` starts a comment; blank lines are
ignored.  Parsing only converts types: an unknown key, a key given twice, or
a value that does not read as its key's type (``inf`` and ``nan`` are not
numbers here), is rejected with the key named.  ``auto`` is accepted where a
default depends on other values (xi, epsilon, q_init).  An empty file is a
valid configuration: every key has a default.

Ranges are checked when a :class:`RunSpec` is constructed (parsed,
``replace``-d or resolved), each by the object that uses its keys; the well
points need the mesh and are checked when the wells are built.

Key reference (defaults in parentheses; last column: who checks the key).
A key may appear once; every number, coordinate included, must be finite:

    mesh          square | files            (square)    RunSpec
    n             square subdivisions       (16)        RunSpec
    nodes_file    node file path            (-)         RunSpec
    elems_file    element file path         (-)         RunSpec
    T             time horizon              (1.0)       model.RunConfig
    m_steps       pressure steps            (8)         model.RunConfig
    n_steps       saturation steps          (32)        model.RunConfig
    xi            penalty, auto = 10 d*     (auto)      model.RunConfig
    delta_floor   mobility floor            (0.05)      model.default_model
    peclet        capillary slope           (1.0)       model.default_model
    c0            initial saturation        (0.5)       model.RunConfig
    q_init        initial control, auto = qhat/2 (auto) RunSpec (<= qhat)
    kmax          active-set cap            (50)        model.RunConfig
    q_tol         control fixed-point tol   (1e-9)      model.RunConfig
    solver_tol    linear solve tolerance    (1e-10)     model.RunConfig
    tri_quad_degree, edge_quad_degree       (4, 3)      model.RunConfig
    x0, x1        well points "x y"  (0.1 0.1 / 0.9 0.9) model.build_wells
    sigma         target patch area         (0.02)      RunSpec
    wtilde        oil price                 (1.0)       model.check_well_data
    epsilon       terminal window, auto = 2 dt  (auto)  model.check_well_data
    alpha0        water price               (1.0)       model.check_well_data
    qhat          control bound             (1.0)       model.check_well_data

``epsilon = auto`` (2 dt, :attr:`RunSpec.well_epsilon`) is the only rule that
picks a terminal window: the well constructors of :mod:`model` take epsilon
as a required keyword.
"""

import math
from dataclasses import dataclass, field, fields as dc_fields, replace
from typing import Optional

from .errors import ConfigError
from .mesh import PrimalMesh, read_mesh, square_mesh
from .model import (
    CoefficientModel,
    RunConfig,
    WellModel,
    build_wells,
    check_well_data,
    default_model,
)
from .solver import Problem

_RUN_CONFIG_KEYS = tuple(f.name for f in dc_fields(RunConfig) if f.init)


@dataclass(frozen=True)
class RunSpec:
    """Fully parsed run description (mesh source, model, wells, solver).

    Checked on construction, which also builds ``rc``, the
    :class:`RunConfig` of the keys the two share (with its defaults), and
    ``model``, the coefficient set of ``delta_floor`` and ``peclet``.
    """

    mesh: str = "square"
    n: int = 16
    nodes_file: Optional[str] = None
    elems_file: Optional[str] = None
    T: float = RunConfig.T
    m_steps: int = RunConfig.m_steps
    n_steps: int = RunConfig.n_steps
    xi: Optional[float] = RunConfig.xi
    delta_floor: float = 0.05
    peclet: float = 1.0
    c0: float = RunConfig.c0
    q_init: Optional[float] = RunConfig.q_init
    kmax: int = RunConfig.kmax
    q_tol: float = RunConfig.q_tol
    solver_tol: float = RunConfig.solver_tol
    tri_quad_degree: int = RunConfig.tri_quad_degree
    edge_quad_degree: int = RunConfig.edge_quad_degree
    x0: tuple = (0.1, 0.1)
    x1: tuple = (0.9, 0.9)
    sigma: float = 0.02
    wtilde: float = 1.0
    epsilon: Optional[float] = None
    alpha0: float = 1.0
    qhat: float = 1.0
    rc: RunConfig = field(init=False, repr=False, compare=False)
    model: CoefficientModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mesh not in ("square", "files"):
            raise ConfigError(f"mesh: expected square or files, got {self.mesh!r}")
        if self.mesh == "files" and (self.nodes_file is None or self.elems_file is None):
            raise ConfigError("mesh = files requires nodes_file and elems_file")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not self.sigma > 0.0:
            raise ConfigError("sigma must be > 0")
        object.__setattr__(
            self, "rc", RunConfig(**{k: getattr(self, k) for k in _RUN_CONFIG_KEYS})
        )
        object.__setattr__(self, "model", default_model(self.delta_floor, self.peclet))
        check_well_data(self.T, self.well_epsilon, self.alpha0, self.qhat, self.wtilde)
        if self.q_init is not None and not 0.0 <= self.q_init <= self.qhat:
            raise ConfigError("q_init must lie in [0, qhat]")

    @property
    def well_epsilon(self) -> float:
        """The terminal window; ``auto`` is two saturation steps."""
        return self.epsilon if self.epsilon is not None else 2.0 * self.rc.dt

    def resolved(self) -> "RunSpec":
        """Copy with every ``auto`` value made explicit."""
        return replace(
            self, xi=self.rc.xi_for(self.model), epsilon=self.well_epsilon,
            q_init=self.rc.q_init_for(self.qhat),
        )

    def to_text(self) -> str:
        lines = []
        for key, kind in _KEY_TYPES.items():
            val = getattr(self, key)
            if val is None:
                if kind != Optional[float]:
                    continue
                val = "auto"
            elif kind is tuple:
                val = f"{val[0]!r} {val[1]!r}"
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def build_mesh(self) -> PrimalMesh:
        if self.mesh == "square":
            return square_mesh(self.n)
        try:
            return read_mesh(self.nodes_file, self.elems_file)
        except OSError as exc:
            key = "nodes_file" if exc.filename == self.nodes_file else "elems_file"
            raise ConfigError(f"{key} = {exc.filename}: cannot read it ({exc.strerror})") from exc

    def build_wells(self, mesh: PrimalMesh) -> WellModel:
        return build_wells(
            mesh, self.x0, self.x1, self.sigma, T=self.T, wtilde=self.wtilde,
            epsilon=self.well_epsilon, alpha0=self.alpha0, qhat=self.qhat,
        )

    def build_problem(self) -> Problem:
        mesh = self.build_mesh()
        return Problem.build(mesh, self.model, self.build_wells(mesh), self.rc)


_KEY_TYPES = {f.name: f.type for f in dc_fields(RunSpec) if f.init}


def _finite(raw):
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(raw)
    return x


def _auto_float(raw):
    return None if raw == "auto" else _finite(raw)


def _point(raw):
    x, y = raw.split()
    return (_finite(x), _finite(y))


# declared type of a key -> (converter raising ValueError, expected form)
_READERS = {
    int: (int, "an integer"),
    float: (_finite, "a finite number"),
    Optional[float]: (_auto_float, "a finite number or auto"),
    tuple: (_point, "two finite coordinates"),
    str: (str, "a string"),
    Optional[str]: (str, "a path"),
}


def _parse_value(key, raw):
    read, expected = _READERS[_KEY_TYPES[key]]
    try:
        return read(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from exc


def parse_config_text(text: str) -> RunSpec:
    values, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        if key in line_of:
            raise ConfigError(f"key {key!r} given twice (lines {line_of[key]} and {lineno})")
        line_of[key] = lineno
        values[key] = _parse_value(key, val)
    return RunSpec(**values)


def parse_config(path) -> RunSpec:
    """Parse a configuration file into a :class:`RunSpec`."""
    try:
        # bytes that are not UTF-8 read as U+FFFD, which fails to parse
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file {path}: cannot read it ({exc.strerror})") from exc
    return parse_config_text(text)
