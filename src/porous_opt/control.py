"""Objective, reduced gradient, projection, and the active-set outer loop.

The discrete objective uses right-endpoint time quadrature (matching the
backward-Euler state discretization), so node 0 carries zero weight; the
same weights define the duality pairing used in gradient checks.  The
per-node activity value

    v^n = -(1/alpha0) * int_Omega [ f(C^n) r0 C*^n - (r0 - r1) P*^n ] dx

classifies each control node: lower-active when v < 0, upper-active when
v > qhat, inactive otherwise (ties inactive), and the update writes 0, qhat,
or v accordingly -- identical to clamping v into [0, qhat] nodewise, which
is how :func:`project_control` computes it.

The outer loop seeks the fixed point of the projected map
G(q) = clamp(-g_wo(q)/alpha0, 0, qhat), one forward and one adjoint sweep
per application.  ``dq_norm`` in the history is the residual
max |G(q_k) - q_k| at the sweep's control q_k.  The loop stops when two
successive classifications coincide and ``dq_norm <= q_tol``, taking
q = G(q_k), or at ``kmax`` sweeps; hitting the cap returns a flagged result
rather than raising.  Otherwise the next control is the type-II Anderson
step clamp(G(q_k) - dG gamma, 0, qhat), where the columns of dF and dG are
the differences of the residuals f = G(q) - q and of the images G(q) over
at most ``ANDERSON_DEPTH`` recent sweeps, and gamma minimises
||f_k - dF gamma||_2.  The stored differences are dropped whenever the
classification changes or the residual grows; with none stored the step is
the plain one, q = G(q_k).
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .assembly import AssemblyWorkspace
from .errors import ConfigError
from .fespaces import P1DGField, l2_inner
from .solver import Problem, Trajectory, run_adjoint, run_forward

# differences of past sweeps mixed into each step (3 and 4 both take 9 sweeps
# on the quarter-five-spot config, 1 and 2 take 10, the plain loop 15)
ANDERSON_DEPTH = 3


def time_weights(n_steps, dt):
    """Right-endpoint quadrature weights on the fine grid (node 0 gets 0)."""
    w = np.full(n_steps + 1, dt)
    w[0] = 0.0
    return w


def objective_integrands(traj: Trajectory, wells, mesh) -> tuple:
    """Per-node integrands of J: 0.5 w(t^n) ||C^n||^2 and 0.5 alpha0 (q^n)^2."""
    state = np.zeros(traj.fine_times.size)
    for n, t in enumerate(traj.fine_times):
        wv = wells.w(t)
        if wv != 0.0:
            c = P1DGField(mesh, traj.C[n])
            state[n] = 0.5 * wv * l2_inner(c, c)
    return state, 0.5 * wells.alpha0 * traj.q**2


def objective(traj: Trajectory, wells, mesh) -> tuple:
    """Discrete objective J and its (state, control-cost) parts, the integrands' weighted sums."""
    N = traj.fine_times.size - 1
    wts = time_weights(N, traj.fine_times[1] - traj.fine_times[0])
    state, control = objective_integrands(traj, wells, mesh)
    state_term, control_term = float(wts @ state), float(wts @ control)
    return state_term + control_term, state_term, control_term


def gradient_without_penalty(traj: Trajectory, wells, model,
                             ws: AssemblyWorkspace) -> np.ndarray:
    """Per-node integrals g_wo^n = int f(C^n) r0 C*^n - (r0 - r1) P*^n dx."""
    if not traj.has_costate:
        raise ConfigError("adjoint sweep missing: run_adjoint first")
    mesh = ws.mesh
    N = traj.fine_times.size - 1
    substeps = (N) // (traj.coarse_times.size - 1)
    inj = wells.injection_tris
    prod = wells.production_tris
    area = mesh.tri_area
    lam = ws.sub_lam.reshape(-1, 3).T           # the reference table, (3, 3 nq)
    w = ws.sub_w[inj].reshape(len(inj), -1)

    out = np.empty(N + 1)
    for n in range(N + 1):
        csub = traj.C[n][inj] @ lam
        cssub = traj.Cstar[n][inj] @ lam
        fterm = float(np.einsum("tq,tq->", w, model.f(csub) * cssub)) / wells.sigma0
        # P* at the coarse node that closes fine node n's interval
        pstar = traj.Pstar[-(-n // substeps)]
        pterm = (
            float(pstar[inj] @ area[inj]) / wells.sigma0
            - float(pstar[prod] @ area[prod]) / wells.sigma1
        )
        out[n] = fterm - pterm
    return out


def reduced_gradient_density(traj: Trajectory, wells, model,
                             ws: AssemblyWorkspace) -> np.ndarray:
    """Nodewise reduced gradient g^n = g_wo^n + alpha0 q^n."""
    return gradient_without_penalty(traj, wells, model, ws) + wells.alpha0 * traj.q


def project_control(g_without_penalty, alpha0, qhat) -> np.ndarray:
    """Pointwise projection q = clamp(-g_wo / alpha0, 0, qhat)."""
    if alpha0 <= 0.0:
        raise ConfigError("alpha0 must be > 0 for the projection formula")
    return np.clip(-np.asarray(g_without_penalty) / alpha0, 0.0, qhat)


@dataclass
class ActiveSetState:
    """Classification of the control nodes at one outer iteration."""

    lower: np.ndarray   # bool, unconstrained value < 0
    upper: np.ndarray   # bool, unconstrained value > qhat

    @property
    def inactive(self):
        return ~(self.lower | self.upper)

    def counts(self):
        return int(self.lower.sum()), int(self.upper.sum()), int(self.inactive.sum())

    def same_sets(self, other) -> bool:
        return bool(
            np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )


def classify_active_sets(values, qhat) -> ActiveSetState:
    """Classify nodes by the unconstrained activity values (ties inactive)."""
    v = np.asarray(values, dtype=float)
    return ActiveSetState(lower=v < 0.0, upper=v > qhat)


@dataclass
class OptimizeResult:
    q: np.ndarray
    trajectory: Trajectory
    history: list
    converged: bool
    iterations: int
    projected_gradient_residual: float
    mixing_resets: int   # sweeps at which the Anderson history was dropped


class AndersonMixer:
    """Type-II Anderson mixing of a fixed-point map over a bounded history.

    ``step(q, Gq)`` returns the unclamped next iterate from the current
    iterate and its image; :meth:`reset` drops the stored differences so the
    next step is the plain one.
    """

    def __init__(self):
        self.dF = deque(maxlen=ANDERSON_DEPTH)
        self.dG = deque(maxlen=ANDERSON_DEPTH)
        self.last = None   # (f, G) of the previous step

    @property
    def depth(self):
        return len(self.dF)

    def reset(self):
        self.dF.clear()
        self.dG.clear()
        self.last = None

    def step(self, q, Gq):
        f = Gq - q
        if self.last is not None:
            self.dF.append(f - self.last[0])
            self.dG.append(Gq - self.last[1])
        self.last = (f, Gq)
        if not self.dF:
            return Gq
        gamma = np.linalg.lstsq(np.column_stack(self.dF), f, rcond=None)[0]
        return Gq - np.column_stack(self.dG) @ gamma


def optimize(problem: Problem, q0=None) -> OptimizeResult:
    """Active-set iteration on the box-constrained injection control.

    Each sweep solves the full state system forward and the costate system
    backward at the current control, classifies every time node by its
    activity value, and projects; the step to the next control is mixed as
    the module docstring describes.  On return the trajectory and residual
    are recomputed at the final control so all reported quantities are
    mutually consistent.
    """
    wells = problem.wells
    q = problem.q_initial() if q0 is None else np.asarray(q0, dtype=float).copy()
    history = []
    prev_state = None
    prev_dq = np.inf
    converged = False
    iterations = 0
    resets = 0
    mixer = AndersonMixer()

    for k in range(problem.rc.kmax):
        traj = run_forward(problem, q)
        run_adjoint(problem, traj)
        J, _, _ = objective(traj, wells, problem.mesh)
        gwo = gradient_without_penalty(traj, wells, problem.model, problem.ws)
        state_k = classify_active_sets(-gwo / wells.alpha0, wells.qhat)
        Gq = project_control(gwo, wells.alpha0, wells.qhat)
        dq = float(np.max(np.abs(Gq - q)))
        nl, nu, _ = state_k.counts()
        history.append({"k": k, "J": J, "n_lower": nl, "n_upper": nu, "dq_norm": dq})
        iterations = k + 1
        same = prev_state is not None and state_k.same_sets(prev_state)
        if same and dq <= problem.rc.q_tol:
            q = Gq
            converged = True
            break
        if k > 0 and (not same or dq > prev_dq):
            # a difference across a change of active set, or one taken while
            # the residual grew, would mix a model that no longer holds
            mixer.reset()
            resets += 1
        q = np.clip(mixer.step(q, Gq), 0.0, wells.qhat)
        prev_state = state_k
        prev_dq = dq

    final = run_forward(problem, q)
    run_adjoint(problem, final)
    g = reduced_gradient_density(final, wells, problem.model, problem.ws)
    residual = float(
        np.max(np.abs(q - np.clip(q - g, 0.0, wells.qhat)))
    )
    return OptimizeResult(
        q=q,
        trajectory=final,
        history=history,
        converged=converged,
        iterations=iterations,
        projected_gradient_residual=residual,
        mixing_resets=resets,
    )
