"""Verification suites: operator identities, manufactured-solution studies,
and the finite-difference gradient oracle.

Convergence studies refine nested meshes with the time step tied to the
mesh size (both first order, so the joint constant is what the fitted rate
sees), store every raw error, and fit rates by least squares in log-log;
a failed threshold prints the full table.
"""

from dataclasses import dataclass, field

import numpy as np

from . import mms
from .assembly import (
    AssemblyWorkspace,
    _diffusion_matrix,
    assemble_darcy,
    assemble_darcy_costate_rhs,
)
from .control import gradient_without_penalty, objective, optimize, time_weights
from .errors import ConfigError
from .fespaces import (
    P0Field,
    P1DGField,
    RT0Field,
    _interior_jump_sq,
    b_form,
    eta_h,
    gamma_h,
    l2_inner,
    l2_norm,
)
from .mesh import PrimalMesh, build_barycentric_dual, build_diamond_dual, square_mesh
from .model import RunConfig, default_model, wells_from_tris
from .quadrature import QuadratureRule
from .solver import DarcySaddle, Problem, run_adjoint, run_forward


# ---------------------------------------------------------------------------
# error norms against smooth exact fields
# ---------------------------------------------------------------------------

def _tri_quad(mesh):
    v = mesh.tri_vertices()
    return QuadratureRule().map_to_triangles(v[:, 0], v[:, 1], v[:, 2])


def l2_error(discrete, exact_fun):
    """L2 error of a P0, RT0 or P1DG field ``discrete`` against ``exact_fun``,
    which maps (n, 2) points to the exact values there."""
    pts, w = _tri_quad(discrete.mesh)
    approx = discrete.eval_at(pts)
    exact = np.asarray(exact_fun(pts.reshape(-1, 2))).reshape(approx.shape)
    terms = "tq,tqe->" if approx.ndim == 3 else "tq,tq->"
    return float(np.sqrt(np.einsum(terms, w, (approx - exact) ** 2)))


def broken_h1_error_p1dg(mesh, values, exact_grad_fun):
    """Broken H1 error against a continuous exact field.

    Element parts integrate |grad(c_h) - grad(c)|^2; the jump part is that
    of c_h alone (the exact field is continuous), over interior edges.
    """
    pts, w = _tri_quad(mesh)
    f = P1DGField(mesh, values)
    gh = f.gradients()  # (n_t, 2), constant per element
    ge = np.asarray(exact_grad_fun(pts.reshape(-1, 2))).reshape(pts.shape)
    semi = float(np.einsum("tq,tqe->", w, (gh[:, None, :] - ge) ** 2))
    return float(np.sqrt(semi + _interior_jump_sq(f)))


def fit_rate(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# operator identity suite
# ---------------------------------------------------------------------------

@dataclass
class OperatorReport:
    mesh_label: str
    brel_max_rel: float
    eta_norm_max_rel: float
    contraction_max_ratio: float
    costate_div_max: float
    penalty_asymmetry: float
    penalty_min_eig: float
    passed: bool

    def __str__(self):
        lines = [
            f"operator identities on {self.mesh_label}:",
            f"  duality (b-form vs divergence)   max rel err {self.brel_max_rel:.3e}",
            f"  eta_h norm equality              max rel err {self.eta_norm_max_rel:.3e}",
            f"  gamma_h contraction              max ratio   {self.contraction_max_ratio:.12f}",
            f"  costate velocity divergence      max         {self.costate_div_max:.3e}",
            f"  penalty matrix asymmetry / PSD   {self.penalty_asymmetry:.3e} / "
            f"min eig {self.penalty_min_eig:.3e}",
            f"  passed: {self.passed}",
        ]
        return "\n".join(lines)


def operator_identity_suite(mesh: PrimalMesh, n_samples=100, seed=0,
                            label="mesh") -> OperatorReport:
    """Randomized check of the transfer-operator identities on one mesh."""
    rng = np.random.default_rng(seed)
    dd = build_diamond_dual(mesh)
    bd = build_barycentric_dual(mesh)
    ws = AssemblyWorkspace(mesh, bd, default_model(), QuadratureRule())

    brel_max = 0.0
    eta_max = 0.0
    contraction = 0.0
    for _ in range(n_samples):
        vals = rng.normal(size=mesh.num_edges)
        vals[mesh.boundary_edge] = 0.0
        v = RT0Field(mesh, vals)
        w = P0Field(mesh, rng.normal(size=mesh.num_triangles))
        gv = gamma_h(v)
        lhs = b_form(gv, w, dd)
        rhs = -l2_inner(v.divergence(), w)
        brel_max = max(brel_max, abs(lhs - rhs) / max(abs(rhs), 1e-14))

        z = P1DGField(mesh, rng.normal(size=(mesh.num_triangles, 3)))
        gz = eta_h(z)
        nz = l2_norm(z)
        ngz = float(np.sqrt(np.einsum("tj,tj,tj->", bd.cell_area, gz, gz)))
        eta_max = max(eta_max, abs(nz - ngz) / nz)

        ngv = float(np.sqrt(np.einsum("c,ce,ce->", dd.cell_area, gv, gv)))
        contraction = max(contraction, ngv / l2_norm(v))

    # divergence-free costate velocity for a random costate load
    cf = P1DGField(mesh, rng.uniform(0.2, 0.8, (mesh.num_triangles, 3)))
    csf = P1DGField(mesh, rng.normal(size=(mesh.num_triangles, 3)))
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1)
    A, _ = assemble_darcy(cf, wells, 0.0, ws)
    Fstar = assemble_darcy_costate_rhs(cf, csf, ws)
    saddle = DarcySaddle(A, ws.null_space)
    ustar, _, _ = saddle.solve(Fstar, np.zeros(mesh.num_triangles))
    div_max = float(np.abs(RT0Field(mesh, ustar).divergence().values).max())

    # penalty part of the diffusion matrix: difference of two xi values
    psi = P1DGField(mesh, rng.uniform(0.0, 1.0, (mesh.num_triangles, 3)))
    T4 = (_diffusion_matrix(psi, ws, 2.0) - _diffusion_matrix(psi, ws, 1.0)).toarray()
    asym = float(np.abs(T4 - T4.T).max())
    min_eig = float(np.linalg.eigvalsh(0.5 * (T4 + T4.T)).min())

    scale = max(float(np.abs(T4).max()), 1.0)
    passed = (
        brel_max <= 1e-12
        and eta_max <= 1e-12
        and contraction <= 1.0 + 1e-12
        and div_max <= 1e-10
        and asym <= 1e-12 * scale
        and min_eig >= -1e-12 * scale
    )
    return OperatorReport(
        mesh_label=label,
        brel_max_rel=brel_max,
        eta_norm_max_rel=eta_max,
        contraction_max_ratio=contraction,
        costate_div_max=div_max,
        penalty_asymmetry=asym,
        penalty_min_eig=min_eig,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    label: str
    levels: list                      # dicts: h, dt, and one error per key
    rates: dict = field(default_factory=dict)
    threshold: float = 0.85
    passed: bool = False

    def finalize(self):
        hs = [lv["h"] for lv in self.levels]
        keys = [k for k in self.levels[0] if k not in ("h", "dt")]
        self.rates = {k: fit_rate(hs, [lv[k] for lv in self.levels]) for k in keys}
        self.passed = all(r >= self.threshold for r in self.rates.values())
        return self

    def __str__(self):
        cols = [k for k in self.levels[0]]
        lines = [f"{self.label} (threshold {self.threshold}):",
                 "  " + "  ".join(f"{c:>12s}" for c in cols)]
        for lv in self.levels:
            lines.append("  " + "  ".join(f"{lv[c]:12.4e}" for c in cols))
        lines.append("  rates: " + ", ".join(f"{k}={v:.3f}" for k, v in self.rates.items()))
        lines.append(f"  passed: {self.passed}")
        return "\n".join(lines)


def _level_problem(n, T, model, sources, c0_fun):
    mesh = square_mesh(n)
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=T, epsilon=T / 10.0,
                            wtilde=0.0)
    rc = RunConfig(T=T, m_steps=n, n_steps=n, c0=0.0)
    return Problem.build(mesh, model, wells, rc, sources=sources, c0=c0_fun)


def manufactured_state_study(ns=(4, 8, 16, 32), T=1.0, threshold=0.85) -> ConvergenceReport:
    """Forward-solver convergence against the manufactured state fields.

    L2 errors of velocity, pressure and saturation at t = T, plus the broken
    H1 saturation error, with dt tied to h.
    """
    model = default_model()
    exact = mms.ExactFields.state()
    sources = mms.state_sources(exact, model)
    report = ConvergenceReport("state convergence", [], threshold=threshold)
    for n in ns:
        prob = _level_problem(n, T, model, sources, lambda p: exact.c(p, 0.0))
        traj = run_forward(prob, np.zeros(n + 1))
        mesh = prob.mesh
        report.levels.append({
            "h": 1.0 / n,
            "dt": prob.rc.dt,
            "u": l2_error(RT0Field(mesh, traj.U[-1]), lambda p: exact.u(p, T)),
            "p": l2_error(P0Field(mesh, traj.P[-1]), lambda p: exact.p(p, T)),
            "c": l2_error(P1DGField(mesh, traj.C[-1]), lambda p: exact.c(p, T)),
            "c_h1": broken_h1_error_p1dg(mesh, traj.C[-1], lambda p: exact.grad_c(p, T)),
        })
    return report.finalize()


def manufactured_costate_study(ns=(4, 8, 16, 32), T=1.0, threshold=0.85) -> ConvergenceReport:
    """Adjoint-solver convergence against manufactured costate fields.

    Runs the coupled forward sweep with state sources, then the backward
    sweep with costate sources, and measures costate errors at t = 0.
    """
    model = default_model()
    state = mms.ExactFields.state()
    costate = mms.ExactFields.costate(T)
    sources = mms.costate_sources(state, costate, model)
    report = ConvergenceReport("costate convergence", [], threshold=threshold)
    for n in ns:
        prob = _level_problem(n, T, model, sources, lambda p: state.c(p, 0.0))
        traj = run_forward(prob, np.zeros(n + 1))
        run_adjoint(prob, traj)
        mesh = prob.mesh
        report.levels.append({
            "h": 1.0 / n,
            "dt": prob.rc.dt,
            "u*": l2_error(RT0Field(mesh, traj.Ustar[0]), lambda p: costate.u(p, 0.0)),
            "p*": l2_error(P0Field(mesh, traj.Pstar[0]), lambda p: costate.p(p, 0.0)),
            "c*": l2_error(P1DGField(mesh, traj.Cstar[0]), lambda p: costate.c(p, 0.0)),
            "c*_h1": broken_h1_error_p1dg(mesh, traj.Cstar[0], lambda p: costate.grad_c(p, 0.0)),
        })
    return report.finalize()


def synthetic_control_study(ns=(12, 24, 48), T=1.0, alpha0=1.0, qhat=2.0,
                            threshold=0.85, q_tol=1e-6) -> ConvergenceReport:
    """Control convergence on the problem with a constructed exact optimum.

    Both grids halve per level with dt = 2h, which keeps the (cleanly
    first-order) temporal error in charge of the joint constant.  Levels
    warm-start from the coarser optimal control, interpolated in time.
    """
    model = default_model()
    syn = mms.SyntheticOptimum.build(model, T, alpha0, qhat)
    report = ConvergenceReport("control convergence", [], threshold=threshold)
    warm = None
    for n in ns:
        mesh = square_mesh(n)
        inj = mms.box_tris(mesh, mms.BOX0)
        prod = mms.box_tris(mesh, mms.BOX1)
        wells = wells_from_tris(mesh, inj, prod, T=T, wtilde=0.0,
                                alpha0=alpha0, qhat=qhat, epsilon=T / 5.0)
        steps = max(n // 2, 2)
        rc = RunConfig(T=T, m_steps=steps, n_steps=steps, c0=0.0,
                       q_init=qhat / 2.0, q_tol=q_tol, tri_quad_degree=2)
        prob = Problem.build(mesh, model, wells, rc, sources=syn.sources,
                             c0=lambda p: syn.state.c(p, 0.0))
        q0 = None
        if warm is not None:
            q0 = np.interp(rc.fine_times(), warm[0], warm[1])
        res = optimize(prob, q0=q0)
        warm = (rc.fine_times(), res.q)
        qe = syn.q_exact_vector(rc.fine_times())
        wts = time_weights(rc.n_steps, rc.dt)
        err = float(np.sqrt(np.sum(wts * (res.q - qe) ** 2)))
        report.levels.append({"h": 1.0 / n, "dt": rc.dt, "q": err})
    return report.finalize()


# ---------------------------------------------------------------------------
# gradient oracle
# ---------------------------------------------------------------------------

@dataclass
class GradientReport:
    """Relative mismatch of the adjoint gradient against central differences.

    The adjoint gradient is the optimise-then-discretise one, so outside the
    decoupled regime it matches the derivative of the discrete J only to
    O(dt) and the mismatch plateaus at that gap once the FD error is below
    it (see ``gradient_check``).

    ``v_shaped`` reports whether the worst mismatch at both the largest and
    the smallest step exceeds its minimum: FD truncation error on one side,
    round-off on the other.  It can be true only where the FD truncation
    error at the largest step exceeds the adjoint gap, i.e. in the decoupled
    regime, or with steps large enough to leave the plateau.

    ``undiluted_rel_errors`` divides the same mismatch by the directional
    derivative of the non-penalty part alone, the exact alpha0 * q term
    taken out, so a fault in the state-dependent part is not hidden behind
    a dominant penalty.  It is reported, not gated on; it is nan where that
    part vanishes (zero oil price).
    """

    steps: np.ndarray
    rel_errors: np.ndarray            # (n_directions, n_steps)
    best_rel_error: float
    v_shaped: bool
    undiluted_rel_errors: np.ndarray  # (n_directions, n_steps)

    @property
    def best_undiluted_rel_error(self) -> float:
        return float(self.undiluted_rel_errors.max(axis=0).min())

    def __str__(self):
        cols = (["step"] + [f"dir {i}" for i in range(len(self.rel_errors))]
                + ["worst", "undiluted"])
        lines = ["gradient check (relative FD mismatch per step):",
                 "  " + "".join(f"{c:>12s}" for c in cols)]
        for s, errs, w, u in zip(self.steps, self.rel_errors.T,
                                 self.rel_errors.max(axis=0),
                                 self.undiluted_rel_errors.max(axis=0)):
            lines.append(f"  {s:12.2e}" + "".join(f"{e:12.4e}" for e in (*errs, w, u)))
        lines.append(f"  best {self.best_rel_error:.3e} (undiluted "
                     f"{self.best_undiluted_rel_error:.3e}), v-shaped: {self.v_shaped}")
        return "\n".join(lines)


def gradient_check(problem: Problem, q, directions, steps) -> GradientReport:
    """Compare the adjoint reduced gradient with central differences of J.

    The adjoint gradient is optimise-then-discretise: the costate equations
    are discretised by the same schemes as the state (nonsymmetric, lagged
    to the departure level), not taken as the transpose of the discrete
    forward map.  It approximates the continuous reduced gradient and
    matches the derivative of the discrete J only to O(dt), independently
    of h.  The FD mismatch therefore plateaus at that gap over a wide range
    of steps rather than forming a V.  Only the decoupled regime (zero oil
    price, J quadratic in q) is exact up to FD and round-off error.

    The duality pairing uses the same right-endpoint weights that define
    the discrete objective.  ``q`` must be strictly inside the box so J is
    differentiable along every direction.
    """
    q = np.asarray(q, dtype=float)
    qhat = problem.wells.qhat
    margin = float(np.max(steps)) * float(np.max(np.abs(directions)))
    if q.min() - margin < 0.0 or q.max() + margin > qhat:
        raise ConfigError(
            "gradient_check needs a control staying strictly inside [0, qhat]"
        )
    wts = time_weights(problem.rc.n_steps, problem.rc.dt)

    traj = run_forward(problem, q)
    run_adjoint(problem, traj)
    gwo = gradient_without_penalty(traj, problem.wells, problem.model, problem.ws)
    g = gwo + problem.wells.alpha0 * q

    def J_of(qv):
        t = run_forward(problem, qv)
        return objective(t, problem.wells, problem.mesh)[0]

    steps = np.asarray(steps, dtype=float)
    rel = np.empty((len(directions), steps.size))
    undiluted = np.empty_like(rel)
    for i, d in enumerate(directions):
        d = np.asarray(d, dtype=float)
        pred = float(np.sum(wts * g * d))
        pred_wo = abs(float(np.sum(wts * gwo * d)))
        for j, s in enumerate(steps):
            fd = (J_of(q + s * d) - J_of(q - s * d)) / (2.0 * s)
            rel[i, j] = abs(fd - pred) / max(abs(pred), 1e-14)
            undiluted[i, j] = abs(fd - pred) / pred_wo if pred_wo > 0.0 else np.nan
    worst = rel.max(axis=0)
    kmin = int(np.argmin(worst))
    v_shaped = bool(worst[0] > worst[kmin] and worst[-1] > worst[kmin])
    return GradientReport(
        steps=steps,
        rel_errors=rel,
        best_rel_error=float(worst[kmin]),
        v_shaped=v_shaped,
        undiluted_rel_errors=undiluted,
    )
