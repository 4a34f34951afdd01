"""Linear solves and the two-grid time-splitting sweeps.

The Darcy saddle systems (state and costate share the velocity matrix at a
given coarse time) are solved by sparse LU with the first pressure pinned;
the pressure is then shifted to zero area-weighted mean, and the residual
is checked on the full unpinned system.  :meth:`DarcySaddle.solve` returns
the velocity on every edge (zero on the boundary edges, the slip
condition).  Every saddle of a mesh is factored in one elimination order,
the workspace's ``ws.saddle_ordering`` (:class:`SaddleOrdering`, built at
the first Darcy solve): a geometric nested dissection of the interior-edge
and pressure unknowns, with one-sided separators from the structural graph
of K + K^T.  The matrix is assembled in that order and factored with
SuperLU's ``NATURAL`` column order and partial pivoting.  Against the
COLAMD factor it replaced, on the config's first Darcy system (median time
of the whole constructor, one process on a 2-core VM; the order itself is
built once per mesh, in 1.9 ms at n = 16 and 24 ms at n = 64):

    ===================  ==================  ======================
    mesh                 factor time         SuperLU ``lu.nnz``
    ===================  ==================  ======================
    n = 16               5.9 -> 3.5 ms       87,772 -> 54,355
    n = 32               34 -> 20 ms         623,530 -> 347,121
    n = 64               262 -> 183 ms       3,771,610 -> 2,231,181
    unstructured_square  2.1 -> 1.2 ms       21,588 -> 17,299
    ===================  ==================  ======================

The forward sweep caches one factorization per coarse time in
``Trajectory.saddles``; the adjoint sweep solves the costate Darcy systems
with them, so it needs the forward's trajectory.  The saturation equation is
advanced by backward Euler on the fine grid with coefficients lagged to the
previous fine level, and the costate saturation is marched backward with
the operator implicit on the earlier level and its coefficients lagged to
the departure level.  Both step matrices are data on the workspace's
symmetric CSC saturation pattern, which holds every diagonal.  While each
column's diagonal is its largest entry, a step matrix is factored in the
workspace's one elimination order (``ws.step_ordering``): SuperLU's minimum
degree on A+A^T of the triangle adjacency graph, computed once per mesh at
the first step and expanded to the three dofs of each triangle.  Its fill is
below that of SuperLU's own minimum degree on each dof matrix on the
benchmark meshes (70,080 against 71,142 at n = 16, 2,115,438 against
2,148,630 at n = 64) and 2 % above it on ``data/unstructured_square``.
Other step matrices are factored with COLAMD.

Each sweep is one loop over the coarse nodes m: a Darcy solve at node m,
then the K = N/M fine steps to the next node.  A fine step finds its
velocity from its fine index n alone (:func:`state_velocity`,
:func:`costate_velocity`): at a coarse node (n = mK) the node value; inside
a coarse interval the state velocity is the linear extrapolation through
the two most recent coarse values, (1 + s) U[m] - s U[m-1] with m = n // K
and s = (n - mK)/K, and the costate velocity the mirrored extrapolation
through the two next ones, (1 + s) U*[m] - s U*[m+1] with m = ceil(n/K) and
s = (mK - n)/K.  The first state interval and the last costate interval
have only one value to use and keep it constant.  Each sweep thus consumes
only values it has already computed.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssemblyWorkspace,
    SaddleOrdering,
    SaturationOrdering,
    assemble_darcy,
    assemble_darcy_costate_rhs,
    assemble_diamond_vector_load,
    assemble_dual_scalar_load,
    assemble_saturation_costate,
    assemble_saturation_state,
)
from .errors import CompatibilityError, PorousOptError, SolverError
from .fespaces import P1DGField, RT0Field
# build_diamond_dual stays bound for perfbench, which traces it by this name
from .mesh import PrimalMesh, build_barycentric_dual, build_diamond_dual  # noqa: F401
from .model import CoefficientModel, RunConfig, WellModel


@dataclass
class SaddleSolveReport:
    """Diagnostics of one Darcy saddle solve."""

    residual: float
    mass_residual: float


class DarcySaddle:
    """Factorized Darcy saddle system [[A, -B^T], [B, 0]], one pressure pinned.

    The pressure is fixed only up to a constant (the rows of B sum to zero),
    so the factored matrix drops the first pressure unknown and the mass
    equation of the first triangle, which the others imply for a compatible
    load.  Each solve shifts the pressure to zero area-weighted mean.  The
    residual check and iterative refinement run on the full unpinned system,
    so the dropped mass equation is still verified: an incompatible pressure
    load raises :class:`SolverError`.

    The matrix is assembled directly in the elimination order ``ordering``
    (a :class:`SaddleOrdering` of ``mesh``, which the sweeps share through
    the workspace; without one the saddle builds it) by relabelling its COO
    indices, and factored by one ``splu`` call with ``permc_spec="NATURAL"``
    and SuperLU's partial pivoting, which still swaps rows (``perm_r`` fixes
    about 3 % of them).  Solves map in and out of that order (see the
    module docstring for its fill against COLAMD).
    """

    def __init__(self, A, B, mesh: PrimalMesh, tol=1e-10, ordering=None):
        self.mesh = mesh
        self.tol = tol
        self.A = A
        self.B = B
        self.n_int = A.shape[0]
        self.ordering = SaddleOrdering(mesh) if ordering is None else ordering
        # K in the elimination order: the COO indices of [[A, -B^T], [B, 0]],
        # pressure rows and columns past the pinned one, relabelled by ``pos``
        pos, n = self.ordering.pos, self.n_int
        a, b = A.tocoo(), B[1:].tocoo()
        p = n + 1 + b.row
        K = sp.csc_matrix(
            (np.concatenate([a.data, -b.data, b.data]),
             (pos[np.concatenate([a.row, b.col, p])], pos[np.concatenate([a.col, p, b.col])])),
            shape=(self.ordering.perm.size,) * 2,
        )
        try:
            self.lu = spla.splu(K, permc_spec="NATURAL")
        except RuntimeError as exc:  # pragma: no cover - singular input
            raise SolverError(f"Darcy saddle factorization failed: {exc}") from exc

    def _correction(self, r):
        """Pinned solve for the full residual ``r``, pressure at zero mean."""
        n, perm = self.n_int, self.ordering.perm
        x = np.zeros(r.size)
        x[perm] = self.lu.solve(r[perm])
        area = self.mesh.tri_area
        x[n:] -= (area @ x[n:]) / area.sum()
        return x

    def _product(self, x):
        u, p = x[: self.n_int], x[self.n_int :]
        return np.concatenate([self.A @ u - self.B.T @ p, self.B @ u])

    def solve(self, rhs_u, rhs_p):
        """Solve for ``(u, p, report)``.

        ``rhs_u`` is the load on the interior edges and ``rhs_p`` the one on
        the triangles.  ``u`` holds one coefficient per edge, zero on the
        boundary edges; ``p`` has zero area-weighted mean.
        """
        rhs = np.concatenate([rhs_u, rhs_p])
        x, res = _refined_solve(self._correction, self._product, rhs, self.tol,
                                "Darcy solve")
        u_int = x[: self.n_int]
        mass_res = np.linalg.norm(rhs_p - self.B @ u_int)
        mass_res /= max(np.linalg.norm(rhs_p), 1.0)
        u = np.zeros(self.mesh.num_edges)
        u[~self.mesh.boundary_edge] = u_int
        return u, x[self.n_int :], SaddleSolveReport(
            residual=float(res), mass_residual=float(mass_res)
        )


def state_velocity(U, n, K):
    """State velocity at fine level n from the coarse values ``U`` (M+1, n_e).

    ``U[m]`` at node n = mK; inside an interval the extrapolation through
    the two most recent nodes, constant on the first interval.
    """
    m, k = divmod(n, K)
    if k == 0 or m == 0:
        return U[m]
    s = k / K
    return (1.0 + s) * U[m] - s * U[m - 1]


def costate_velocity(Ustar, n, K):
    """Costate velocity at fine level n from the coarse values ``Ustar``.

    ``Ustar[m]`` at node n = mK; inside an interval the extrapolation
    through the two next nodes, constant on the last interval.
    """
    m = -(-n // K)
    k = m * K - n
    if k == 0 or m == len(Ustar) - 1:
        return Ustar[m]
    s = k / K
    return (1.0 + s) * Ustar[m] - s * Ustar[m + 1]


def _refined_solve(solve, product, rhs, tol, what, detail=None):
    """``solve(rhs)`` followed by up to two passes of iterative refinement.

    ``solve`` applies a factorization of the matrix whose action is
    ``product``.  Returns ``(x, relative residual)``; raises
    :class:`SolverError` naming ``what``, the residual and ``tol`` (plus
    ``detail()``, when given) if the residual still exceeds ``tol``.
    """
    norm = np.linalg.norm(rhs)
    norm = norm if norm > 0 else 1.0
    x = solve(rhs)
    r = rhs - product(x)
    res = np.linalg.norm(r) / norm
    for _ in range(2):
        # one or two passes of iterative refinement rescue mildly
        # ill-conditioned systems without changing well-conditioned ones
        if np.isfinite(res) and res <= tol:
            break
        x = x + solve(r)
        r = rhs - product(x)
        res = np.linalg.norm(r) / norm
    if not np.isfinite(res) or res > tol:
        note = detail() if detail is not None else ""
        raise SolverError(f"{what}: residual {res:.3e} exceeds {tol:.1e}{note}")
    return x, res


def _diagonal_dominates_columns(csc, diag_slot):
    """True when every column's largest entry in magnitude is its diagonal,
    stored at ``diag_slot`` of the data.

    The saturation pattern is symmetric and holds every diagonal by
    construction, so no column is empty."""
    mag = np.abs(csc.data)
    colmax = np.maximum.reduceat(mag, csc.indptr[:-1])
    return bool(np.all(mag[diag_slot] >= colmax))


def _solve_sparse(csc, rhs, tol, what, ordering=None):
    # The saturation pattern is symmetric and holds every diagonal: minimum
    # degree on A+A^T with diagonal pivots preferred gives 36-47 % less fill
    # than COLAMD (n = 16 to 64).  That order depends only on the pattern, so
    # it is computed once (``SaturationOrdering``, from the triangle graph)
    # and the matrix is factored pre-permuted, in the natural order: 3.0 ms
    # against 4.1 ms with SuperLU's own MMD at n = 16, 130 ms against 159 ms
    # at n = 64 (see the module docstring for the fill).  This holds only
    # while the diagonal pivots are the column maxima; at coarse dt the
    # convection term breaks this, SuperLU pivots off the diagonal and the
    # fill grew to 2-10x COLAMD's, so such matrices are factored with COLAMD
    # and partial pivoting.
    if ordering is None:
        ordering = SaturationOrdering(csc.indptr, csc.indices)
    if _diagonal_dominates_columns(csc, ordering.diag_slot):
        perm, inv = ordering.perm, ordering.inv
        factored = sp.csc_matrix((csc.data[ordering.gather], ordering.indices, ordering.indptr),
                                 csc.shape)
        kwargs = dict(permc_spec="NATURAL", options=dict(SymmetricMode=True))
    else:
        perm = inv = slice(None)
        factored, kwargs = csc, dict(permc_spec="COLAMD")
    try:
        lu = spla.splu(factored, **kwargs)
    except RuntimeError as exc:
        raise SolverError(f"{what}: factorization failed: {exc}") from exc

    def solve(r):
        return lu.solve(r[perm])[inv]

    def one_norm():
        est = spla.onenormest(csc) if csc.shape[0] < 20000 else np.nan
        return f" (1-norm ~ {est:.3e})"

    return _refined_solve(solve, lambda x: csc @ x, rhs, tol, what, one_norm)[0]


def _step_label(kind, m, n, c):
    """A step's name in errors, with the range of the C its coefficients use."""
    return f"{kind} (m={m}, n={n}, C in [{c.min():.3g}, {c.max():.3g}])"


def step_saturation_forward(c_vec, D, E, H, G, dt, tol=1e-10, what="saturation step",
                            ordering=None):
    """One backward-Euler step of the state saturation equation (D, E, H on one pattern).

    ``ordering`` is the pattern's :class:`SaturationOrdering` (the
    workspace's ``step_ordering``); without it the step builds its own."""
    lhs = sp.csc_matrix((D.data + dt * (E.data + H.data), D.indices, D.indptr), D.shape)
    return _solve_sparse(lhs, D @ c_vec + dt * G, tol, what, ordering)


def step_saturation_backward(cstar_next, D, E, H, S, R, W, Z, dt, tol=1e-10,
                             what="costate saturation step", ordering=None):
    """One backward-Euler step of the costate saturation equation (operators on
    D's pattern; ``ordering`` as in :func:`step_saturation_forward`).

    Solves  [D + dt (-E + H + S + R)] cstar = D cstar_next + dt (W - Z):
    the operator acts implicitly on the unknown earlier-time value,
    mirroring the forward step, which keeps the backward march
    unconditionally stable.  Lagging the operator to the right-hand side
    instead (mass matrix alone on the left) is an explicit treatment of the
    diffusion and blows up once dt exceeds the parabolic CFL bound.
    """
    data = D.data + dt * (-E.data + H.data + S.data + R.data)
    lhs = sp.csc_matrix((data, D.indices, D.indptr), D.shape)
    return _solve_sparse(lhs, D @ cstar_next + dt * (W - Z), tol, what, ordering)


@dataclass
class MMSSources:
    """Manufactured source hooks; each maps ((n,2) points, t) to values.

    The sweeps add each to the load of its equation, as the wells are
    added: s_u to the momentum load, s_div to F, s_c to G, s_u_star to F*
    and s_c_star to W.
    """

    s_u: Optional[Callable] = None       # Darcy momentum, vector valued
    s_div: Optional[Callable] = None     # Darcy mass, scalar
    s_c: Optional[Callable] = None       # saturation, scalar
    s_u_star: Optional[Callable] = None  # costate momentum, vector valued
    s_c_star: Optional[Callable] = None  # costate saturation, scalar


@dataclass
class Trajectory:
    """Time-indexed discrete solution of the state (and costate) systems."""

    fine_times: np.ndarray
    coarse_times: np.ndarray
    C: np.ndarray                 # (N+1, n_t, 3)
    U: np.ndarray                 # (M+1, n_e)
    P: np.ndarray                 # (M+1, n_t)
    q: np.ndarray                 # (N+1,)
    Cstar: Optional[np.ndarray] = None
    Ustar: Optional[np.ndarray] = None
    Pstar: Optional[np.ndarray] = None
    darcy_reports: list = field(default_factory=list)
    costate_div_max: float = np.nan
    saddles: dict = field(default_factory=dict, repr=False)

    @property
    def has_costate(self):
        return self.Cstar is not None


@dataclass
class Problem:
    """A fully assembled problem: meshes, model, wells, config, caches."""

    mesh: PrimalMesh
    model: CoefficientModel
    wells: WellModel
    rc: RunConfig
    ws: AssemblyWorkspace
    xi: float
    c0_values: np.ndarray
    sources: MMSSources = field(default_factory=MMSSources)

    @classmethod
    def build(cls, mesh, model, wells, rc: RunConfig, sources=None, c0=None):
        ws = AssemblyWorkspace(mesh, build_barycentric_dual(mesh), model, rc.quad)
        c0 = rc.c0 if c0 is None else c0
        if callable(c0):
            c0_values = P1DGField.interpolate(mesh, c0).values
        else:
            c0_values = np.full((mesh.num_triangles, 3), float(c0))
        return cls(
            mesh=mesh,
            model=model,
            wells=wells,
            rc=rc,
            ws=ws,
            xi=rc.xi_for(model),
            c0_values=c0_values,
            sources=MMSSources() if sources is None else sources,
        )

    def q_initial(self):
        q0 = self.rc.q_init_for(self.wells.qhat)
        return np.full(self.rc.n_steps + 1, float(q0))


def _darcy_at(problem, c_values, q_node, t):
    """Assemble, factor and solve the state Darcy system at one coarse time.

    Returns ``(u, p, report, saddle)``.  The pressure load (wells plus any
    manufactured mass source) must satisfy the zero-sum compatibility of
    the pure-Neumann problem.
    """
    ws = problem.ws
    c_field = P1DGField(problem.mesh, c_values)
    A, B, F = assemble_darcy(c_field, problem.wells, q_node, ws)
    src = problem.sources
    rhs_u = np.zeros(A.shape[0])
    if src.s_div is not None:
        svals = ws.sample_sub(lambda p: src.s_div(p, t))
        F = F + np.einsum("tcq,tcq->t", ws.sub_w, svals)
    if src.s_u is not None:
        rhs_u = assemble_diamond_vector_load(lambda p: src.s_u(p, t), ws)
    scale = max(float(np.abs(F).max(initial=0.0)), 1.0)
    if abs(F.sum()) > 1e-10 * scale:
        raise CompatibilityError(
            f"incompatible Darcy source: sum(F) = {F.sum():.3e}"
        )
    saddle = DarcySaddle(A, B, problem.mesh, problem.rc.solver_tol, ws.saddle_ordering)
    u, p, report = saddle.solve(rhs_u, F)
    return u, p, report, saddle


def run_forward(problem: Problem, q) -> Trajectory:
    """Forward sweep: alternate coarse Darcy solves and fine saturation steps.

    ``q`` is the control vector on the fine grid (length N+1), clipped
    nowhere: values must already satisfy the box constraints.
    """
    rc = problem.rc
    mesh = problem.mesh
    q = np.asarray(q, dtype=float)
    if q.shape != (rc.n_steps + 1,):
        raise PorousOptError(f"control vector must have length {rc.n_steps + 1}")
    qhat = problem.wells.qhat
    if q.min() < -1e-12 or q.max() > qhat * (1.0 + 1e-12):
        raise PorousOptError("control violates the box constraints [0, qhat]")

    fine = rc.fine_times()
    coarse = rc.coarse_times()
    K, M = rc.substeps, rc.m_steps
    n_t = mesh.num_triangles

    traj = Trajectory(
        fine_times=fine,
        coarse_times=coarse,
        C=np.empty((rc.n_steps + 1, n_t, 3)),
        U=np.zeros((M + 1, mesh.num_edges)),
        P=np.zeros((M + 1, n_t)),
        q=q.copy(),
    )
    traj.C[0] = problem.c0_values
    src = problem.sources

    for m in range(M + 1):
        try:
            traj.U[m], traj.P[m], rep, saddle = _darcy_at(
                problem, traj.C[m * K], q[m * K], coarse[m]
            )
        except SolverError as exc:
            raise SolverError(f"Darcy solve at coarse step {m}: {exc}") from exc
        traj.darcy_reports.append(rep)
        traj.saddles[m] = saddle

        for n in range(m * K, min(m + 1, M) * K):
            c_field = P1DGField(mesh, traj.C[n])
            u_field = RT0Field(mesh, state_velocity(traj.U, n, K))
            D, E, H, G = assemble_saturation_state(
                c_field, u_field, problem.wells, q[n + 1], problem.ws, problem.xi,
            )
            if src.s_c is not None:
                G = G + assemble_dual_scalar_load(
                    lambda p: src.s_c(p, fine[n + 1]), problem.ws
                )
            # the step is named by its interval's end node, as in the adjoint
            cnew = step_saturation_forward(
                traj.C[n].ravel(), D, E, H, G, rc.dt, rc.solver_tol,
                _step_label("saturation step", m + 1, n, traj.C[n]),
                ordering=problem.ws.step_ordering,
            )
            traj.C[n + 1] = cnew.reshape(n_t, 3)
    return traj


def run_adjoint(problem: Problem, traj: Trajectory) -> Trajectory:
    """Backward sweep filling the costate part of ``traj``.

    Requires a completed forward trajectory: the costate Darcy solves use
    its cached factorizations ``traj.saddles`` (the costate velocity matrix
    at each coarse time is the state one).
    """
    rc = problem.rc
    mesh = problem.mesh
    ws = problem.ws
    q = traj.q
    fine = rc.fine_times()
    coarse = rc.coarse_times()
    K = rc.substeps
    n_t = mesh.num_triangles
    src = problem.sources

    traj.Cstar = np.empty_like(traj.C)
    traj.Ustar = np.zeros_like(traj.U)
    traj.Pstar = np.zeros_like(traj.P)
    traj.Cstar[rc.n_steps] = 0.0
    div_max = 0.0

    for m in range(rc.m_steps, -1, -1):
        c_field = P1DGField(mesh, traj.C[m * K])
        cstar_field = P1DGField(mesh, traj.Cstar[m * K])
        Fstar = assemble_darcy_costate_rhs(c_field, cstar_field, ws)
        if src.s_u_star is not None:
            Fstar = Fstar + assemble_diamond_vector_load(
                lambda p: src.s_u_star(p, coarse[m]), ws
            )
        try:
            traj.Ustar[m], traj.Pstar[m], _ = traj.saddles[m].solve(
                Fstar, np.zeros(n_t)
            )
        except SolverError as exc:
            raise SolverError(f"costate Darcy solve at coarse step {m}: {exc}") from exc
        div = RT0Field(mesh, traj.Ustar[m]).divergence().values
        div_max = max(div_max, float(np.abs(div).max()))

        for n in reversed(range(max(m - 1, 0) * K, m * K)):
            t_dep = fine[n + 1]
            c_field = P1DGField(mesh, traj.C[n + 1])
            u_field = RT0Field(mesh, state_velocity(traj.U, n + 1, K))
            us_field = RT0Field(mesh, costate_velocity(traj.Ustar, n + 1, K))
            D, E, H, _ = assemble_saturation_state(
                c_field, u_field, problem.wells, q[n + 1], ws, problem.xi,
            )
            R, S, W, Z = assemble_saturation_costate(
                c_field, u_field, us_field, problem.wells, q[n + 1], t_dep, ws,
            )
            if src.s_c_star is not None:
                W = W + assemble_dual_scalar_load(
                    lambda p: src.s_c_star(p, t_dep), ws
                )
            cs = step_saturation_backward(
                traj.Cstar[n + 1].ravel(), D, E, H, S, R, W, Z, rc.dt, rc.solver_tol,
                _step_label("costate saturation step", m, n, traj.C[n + 1]),
                ordering=ws.step_ordering,
            )
            traj.Cstar[n] = cs.reshape(n_t, 3)

    traj.costate_div_max = div_max
    return traj
