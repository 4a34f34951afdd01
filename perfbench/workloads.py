"""Workloads of the quarter-five-spot benchmark and the checks on their outputs.

Every workload starts from ``data/quarter_five_spot.cfg`` and changes only
the mesh size ``n`` and the step counts ``m`` (pressure) and ``N``
(saturation).  The seed makes the only input the program receives: a smooth
control inside the box, within 0.1*qhat of qhat/2.  It is the initial
control of ``optimize`` and the fixed control of the sweeps.

Calls into the library go through module attributes (``control.optimize``,
``solver.run_forward``, ...) so that the tracer's wrappers see them.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from porous_opt import config, control, solver

DEFAULT_SEED = 0
# Outputs must match the references to round-off: the level at which a
# performance change may move them.
RTOL = 1e-8
RESIDUAL_MAX = 1e-8          # projected-gradient residual of optimize
COSTATE_DIV_MAX = 1e-10      # divergence of the costate velocity

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str      # "optimize" or "sweep" (forward + adjoint)
    n: int         # square mesh subdivisions: 2 n^2 triangles
    m: int         # pressure (coarse) steps
    N: int         # saturation (fine) steps
    setups: int    # set-ups timed per run; their median is setup_s

    @property
    def triangles(self):
        return 2 * self.n * self.n


WORKLOADS = {
    w.name: w
    for w in (
        # The user's job: the active-set loop on the config as it stands.
        # Small LUs, so assembly, Python glue and the iteration count dominate.
        Workload("optimize-n16", "optimize", n=16, m=8, N=32, setups=25),
        # One gradient at production size: SuperLU factorization dominates
        # the solve and the diamond dual the set-up; the control loop is idle.
        Workload("sweep-n64", "sweep", n=64, m=4, N=16, setups=3),
    )
}


def run_spec(workload, root):
    spec = config.parse_config(Path(root) / "data" / "quarter_five_spot.cfg")
    return dataclasses.replace(spec, n=workload.n, m_steps=workload.m, n_steps=workload.N)


def make_control(seed, N, qhat):
    """Smooth control on the N+1 fine nodes, within 0.1*qhat of qhat/2."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, N + 1)
    k = np.arange(1, 4)
    amp = rng.uniform(-1.0, 1.0, k.size) / k
    phase = rng.uniform(0.0, 2.0 * np.pi, k.size)
    s = (amp[:, None] * np.sin(np.pi * k[:, None] * t + phase[:, None])).sum(axis=0)
    s *= rng.uniform(0.5, 1.0) / np.abs(s).max()
    return qhat * (0.5 + 0.1 * s)


@dataclass
class Outcome:
    """What a solve returns, and what the checks read."""

    J: float
    vector: np.ndarray       # q (optimize) or gradient (sweep)
    trajectory: object
    steps: int               # fine saturation steps taken, forward plus backward
    outer_iterations: int = 0
    converged: bool = True
    residual: float = 0.0    # projected-gradient residual (optimize only)


def _objective(problem, traj):
    return float(control.objective(traj, problem.wells, problem.mesh)[0])


def solve(workload, problem, q):
    """Run the workload's solve call(s) on a built problem."""
    N = workload.N
    if workload.kind == "optimize":
        res = control.optimize(problem, q)
        return Outcome(
            J=_objective(problem, res.trajectory), vector=res.q,
            trajectory=res.trajectory, steps=2 * N * (res.iterations + 1),
            outer_iterations=res.iterations, converged=res.converged,
            residual=res.projected_gradient_residual,
        )
    traj = solver.run_forward(problem, q)
    solver.run_adjoint(problem, traj)
    grad = control.gradient_without_penalty(traj, problem.wells, problem.model, problem.ws)
    return Outcome(J=_objective(problem, traj), vector=grad, trajectory=traj, steps=2 * N)


def check(workload, out, reference=None):
    """Problems found in ``out``; an empty list means the output is correct."""
    problems = []
    traj = out.trajectory
    arrays = [np.asarray(out.vector), traj.C]
    if traj.has_costate:
        arrays.append(traj.Cstar)
    if not math.isfinite(out.J) or not all(np.isfinite(a).all() for a in arrays):
        problems.append("non-finite output")
    if workload.kind == "optimize":
        if not out.converged:
            problems.append("optimize did not converge")
        if not out.residual <= RESIDUAL_MAX:
            problems.append(f"projected-gradient residual {out.residual:.3e} > {RESIDUAL_MAX:.0e}")
    if traj.has_costate and not traj.costate_div_max <= COSTATE_DIV_MAX:
        problems.append(f"costate_div_max {traj.costate_div_max:.3e} > {COSTATE_DIV_MAX:.0e}")
    if reference is not None:
        if not abs(out.J - reference["J"]) <= RTOL * abs(reference["J"]):
            problems.append(f"J {out.J!r} differs from reference {reference['J']!r}")
        ref = np.asarray(reference["vector"])
        vec = np.asarray(out.vector)
        if vec.shape != ref.shape:
            problems.append(f"output shape {vec.shape} differs from reference {ref.shape}")
        elif not np.max(np.abs(vec - ref)) <= RTOL * np.max(np.abs(ref)):
            err = float(np.max(np.abs(vec - ref)))
            problems.append(f"output vector differs from reference by {err:.3e}")
    return problems


def reference_record(workload, seed, out):
    return {"seed": seed, "n": workload.n, "m": workload.m, "N": workload.N,
            "J": out.J, "vector": np.asarray(out.vector).tolist()}


def load_reference(workload, seed, path=REFERENCES):
    """The recorded reference for ``workload``, or None when ``seed`` has none."""
    if seed != DEFAULT_SEED:
        return None
    ref = json.loads(Path(path).read_text())[workload.name]
    if (ref["seed"], ref["n"], ref["m"], ref["N"]) != (seed, workload.n, workload.m, workload.N):
        raise ValueError(f"{path}: the {workload.name} reference is for another problem")
    return ref
