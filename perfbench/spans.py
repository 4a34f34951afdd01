"""Per-layer spans recorded from outside the program.

The tracer replaces the public functions of ``porous_opt``'s ``mesh``,
``assembly``, ``solver`` and ``control`` layers at the module (or class)
attribute their callers look them up by, records one span per call and puts
the originals back when the ``patched`` block ends.  Spans live in memory;
``layer_metrics`` folds them into the per-layer metrics of BENCHMARK.json.

Each per-layer metric is listed in ``LAYER_METRICS`` with the end-to-end
metric and workload it is expected to move; the traced result carries that
mapping so a later change can cite it.
"""

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Bytes one entry of SuperLU's supernodal storage (``lu.nnz``) takes: a
# float64 value and an int32 index.
LU_ENTRY_BYTES = 12

# name -> (unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = {
    "mesh.square_mesh_s": ("s", "lower", "setup_s; negligible on every workload"),
    "mesh.diamond_dual_s": ("s", "lower", "setup_s on sweep-n64"),
    "mesh.bary_dual_s": ("s", "lower", "setup_s on sweep-n64"),
    "assembly.workspace_s": ("s", "lower", "setup_s on every workload"),
    "assembly.darcy.calls": ("count", "lower", "solve_s on sweep-n64"),
    "assembly.darcy.ms_p50": ("ms", "lower", "solve_s on sweep-n64"),
    "assembly.darcy.busy_s": ("s", "lower", "solve_s on sweep-n64"),
    "assembly.sat_state.calls": ("count", "lower", "steps_per_s on optimize-n16 and sweep-n64"),
    "assembly.sat_state.ms_p50": ("ms", "lower", "steps_per_s on optimize-n16 and sweep-n64"),
    "assembly.sat_state.busy_s": ("s", "lower", "steps_per_s on optimize-n16 and sweep-n64"),
    "assembly.sat_state.calls_per_step": ("count", "lower", "steps_per_s on optimize-n16 and sweep-n64"),
    "assembly.sat_costate.calls": ("count", "lower", "solve_s on sweep-n64"),
    "assembly.sat_costate.busy_s": ("s", "lower", "solve_s on sweep-n64"),
    "assembly.costate_rhs.calls": ("count", "lower", "solve_s on sweep-n64"),
    "assembly.costate_rhs.busy_s": ("s", "lower", "solve_s on sweep-n64"),
    "solver.darcy_factor.calls": ("count", "lower", "solve_s on sweep-n64"),
    "solver.darcy_factor.ms_p50": ("ms", "lower", "solve_s on sweep-n64"),
    "solver.darcy_factor.busy_s": ("s", "lower", "solve_s on sweep-n64"),
    "solver.darcy_factor.lu_fill": ("count", "lower", "solve_s and peak_rss_mb on sweep-n64"),
    "solver.darcy_solve.calls": ("count", "lower", "solve_s on sweep-n64"),
    "solver.darcy_solve.busy_s": ("s", "lower", "solve_s on sweep-n64"),
    "solver.darcy_solve.per_factor": ("count", "higher", "solve_s on sweep-n64 (adjoint reuse)"),
    "solver.darcy_residual_max": ("1", "lower", "none: solve health"),
    "solver.saddles_cached": ("count", "lower", "peak_rss_mb on sweep-n64"),
    "solver.saddle_lu_mb": ("MB", "lower", "peak_rss_mb on sweep-n64"),
    "solver.sat_step.calls": ("count", "lower", "steps_per_s on every workload"),
    "solver.sat_step.ms_p50": ("ms", "lower", "steps_per_s on every workload"),
    "solver.sat_step.busy_s": ("s", "lower", "steps_per_s on every workload"),
    "solver.costate_step.calls": ("count", "lower", "steps_per_s on optimize-n16 and sweep-n64"),
    "solver.costate_step.ms_p50": ("ms", "lower", "steps_per_s on optimize-n16 and sweep-n64"),
    "solver.costate_step.busy_s": ("s", "lower", "steps_per_s on optimize-n16 and sweep-n64"),
    "solver.forward.self_s": ("s", "lower", "steps_per_s on optimize-n16"),
    "solver.adjoint.self_s": ("s", "lower", "steps_per_s on optimize-n16"),
    "control.outer_iterations": ("count", "lower", "solve_s on optimize-n16"),
    "control.sweeps": ("count", "lower", "solve_s on optimize-n16"),
    "control.objective.busy_s": ("s", "lower", "solve_s on optimize-n16"),
    "control.gradient.busy_s": ("s", "lower", "solve_s on optimize-n16 and sweep-n64"),
    "control.optimize.self_s": ("s", "lower", "solve_s on optimize-n16"),
    "trace.overhead_frac": ("frac", "lower", "none: cost of tracing itself"),
}


@dataclass
class Span:
    name: str
    parent: int            # index of the enclosing span, -1 at the top
    start: float = 0.0
    end: float = 0.0
    probe_s: float = 0.0   # time spent reading ``extra`` after the span ended
    extra: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        sp = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(sp)
        self._stack.append(idx)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, probe=None):
        """``fn`` recording a span per call; ``probe(args, result)`` fills ``extra``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if probe is not None:
                t0 = time.perf_counter()
                sp.extra = probe(args, out)
                sp.probe_s = time.perf_counter() - t0
            return out

        return traced

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]

    def self_time(self, name):
        """Total duration of ``name`` spans minus what their children cover."""
        child = {}
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration + s.probe_s
        return sum(
            s.duration - child.get(i, 0.0)
            for i, s in enumerate(self.spans) if s.name == name
        )


def _lu_fill(args, _result):
    lu = args[0].lu
    return {"lu_fill": lu.L.nnz + lu.U.nnz}


def _residual(_args, result):
    return {"residual": result[2].residual}


def layer_targets():
    """(owner, attribute, span name, probe) for every traced entry point.

    Each owner is where the callers look the name up: ``config`` builds the
    mesh, ``solver`` calls the duals, assembly and step functions, and both
    ``control`` and the benchmark call the sweeps.
    """
    from porous_opt import assembly, config, control, solver

    return [
        (config, "square_mesh", "mesh.square_mesh", None),
        (solver, "build_diamond_dual", "mesh.diamond_dual", None),
        (solver, "build_barycentric_dual", "mesh.bary_dual", None),
        (assembly.AssemblyWorkspace, "__init__", "assembly.workspace", None),
        (solver, "assemble_darcy", "assembly.darcy", None),
        (solver, "assemble_saturation_state", "assembly.sat_state", None),
        (solver, "assemble_saturation_costate", "assembly.sat_costate", None),
        (solver, "assemble_darcy_costate_rhs", "assembly.costate_rhs", None),
        (solver.DarcySaddle, "__init__", "solver.darcy_factor", _lu_fill),
        (solver.DarcySaddle, "solve", "solver.darcy_solve", _residual),
        (solver, "step_saturation_forward", "solver.sat_step", None),
        (solver, "step_saturation_backward", "solver.costate_step", None),
        (solver, "run_forward", "solver.forward", None),
        (control, "run_forward", "solver.forward", None),
        (solver, "run_adjoint", "solver.adjoint", None),
        (control, "run_adjoint", "solver.adjoint", None),
        (control, "optimize", "control.optimize", None),
        (control, "objective", "control.objective", None),
        (control, "gradient_without_penalty", "control.gradient", None),
    ]


@contextmanager
def patched(tracer, targets):
    """Install ``tracer`` wrappers on ``targets``; always restore the originals."""
    saved = []
    try:
        for owner, attr, name, probe in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, probe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(tracer, *, outer_iterations, saddles, plain_solve_s, traced_solve_s):
    """Per-layer metrics of one traced set-up plus solve.

    ``saddles`` are the Darcy factorizations the final trajectory holds;
    ``plain_solve_s`` and ``traced_solve_s`` time the same solve without and
    with tracing.
    """
    out = {}

    def busy(name):
        return sum(s.duration for s in tracer.by_name(name))

    def calls(name):
        return len(tracer.by_name(name))

    def p50_ms(name):
        return 1e3 * _median([s.duration for s in tracer.by_name(name)])

    out["mesh.square_mesh_s"] = busy("mesh.square_mesh")
    out["mesh.diamond_dual_s"] = busy("mesh.diamond_dual")
    out["mesh.bary_dual_s"] = busy("mesh.bary_dual")
    out["assembly.workspace_s"] = busy("assembly.workspace")
    for layer in ("assembly.darcy", "assembly.sat_state", "solver.darcy_factor",
                  "solver.sat_step", "solver.costate_step"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.ms_p50"] = p50_ms(layer)
        out[f"{layer}.busy_s"] = busy(layer)
    for layer in ("assembly.sat_costate", "assembly.costate_rhs", "solver.darcy_solve"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.busy_s"] = busy(layer)
    steps = calls("solver.sat_step")
    out["assembly.sat_state.calls_per_step"] = (
        calls("assembly.sat_state") / steps if steps else 0.0
    )
    # a call that raised has no ``extra``
    factors = tracer.by_name("solver.darcy_factor")
    out["solver.darcy_factor.lu_fill"] = _median(
        [s.extra["lu_fill"] for s in factors if s.extra]
    )
    out["solver.darcy_solve.per_factor"] = (
        calls("solver.darcy_solve") / len(factors) if factors else 0.0
    )
    out["solver.darcy_residual_max"] = max(
        (s.extra["residual"] for s in tracer.by_name("solver.darcy_solve") if s.extra),
        default=0.0,
    )
    out["solver.saddles_cached"] = len(saddles)
    out["solver.saddle_lu_mb"] = sum(s.lu.nnz for s in saddles) * LU_ENTRY_BYTES / 1e6
    out["solver.forward.self_s"] = tracer.self_time("solver.forward")
    out["solver.adjoint.self_s"] = tracer.self_time("solver.adjoint")
    out["control.outer_iterations"] = outer_iterations
    out["control.sweeps"] = calls("solver.forward")
    out["control.objective.busy_s"] = busy("control.objective")
    out["control.gradient.busy_s"] = busy("control.gradient")
    out["control.optimize.self_s"] = tracer.self_time("control.optimize")
    out["trace.overhead_frac"] = traced_solve_s / plain_solve_s - 1.0
    return out
