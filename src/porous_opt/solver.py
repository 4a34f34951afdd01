"""Linear solves and the two-grid time-splitting sweeps.

The Darcy saddle systems (state and costate share the velocity matrix at a
given coarse time) are solved in the divergence-free subspace (the
null-space method): every velocity with B u = 0 is the curl of a stream
function, so :class:`DarcySaddle` factors only the stream-function system
curl^T A curl, in SuperLU's minimum degree with diagonal pivots preferred.
The basis ``curl`` and one factor of B B^T with the first pressure pinned
are geometry, built once per mesh at the first Darcy solve (the workspace's
``ws.null_space``, :class:`DarcyNullSpace`): B B^T lifts the mass load and
gives the pressure, which is then shifted to zero area-weighted mean, and
the residual is checked on the full unpinned system.  A saddle reads the
mesh and B off that null space; B and the mass matrix D are the workspace's
(``ws.B``, ``ws.D``), and no assembly call returns or sweep writes into them.
:meth:`DarcySaddle.solve` returns the velocity on every edge (zero on the
boundary edges, the slip condition).  The stream-function system has one
unknown per interior vertex, under a fifth of the saddle's, and needs no
pivoting, so its factor is small: 8,082 ``lu.nnz`` at n = 16, 499,886 at
n = 64 and 3,058,628 at n = 128 on the config's first Darcy system, where
the pinned full saddle in a geometric nested-dissection order fills 4.6 to
6.7 times as much.

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
benchmark meshes (64,104 against 71,142 at n = 16, 2,112,396 against
2,148,630 at n = 64) and 0.7 % above it on ``data/unstructured_square``.
Other step matrices are factored with COLAMD.

Two consecutive step matrices of one coarse interval differ by O(dt), so
the factor of one is a strong preconditioner for the next.  Each march
(the forward's, the costate's) therefore builds one :class:`_StepSolver`,
which owns the order, ``solver_tol`` and the march's one step factor, and
solves its steps in pairs: a step opening a pair is factored, and its
factor is kept for the next step of the same coarse interval.  Both steps
are solved by the same Richardson passes with that factor and their own
matrix's residual.  A reused step whose passes stall or run out is factored
afresh and opens a new pair.  So a march factors about half its steps, the
outputs move from those of a fresh factor per step by round-off (about
1e-10 relative), and the schedule depends only on the data: two runs stay
bitwise equal.

Since every step is solved by passes against its own matrix's residual, a
factor in the workspace order is made in single precision
(mixed-precision iterative refinement; Carson and Higham, SIAM J. Sci.
Comput. 40, 2018): the products, residuals and the ``solver_tol`` check
stay in double.  The passes with a fresh factor run to
round-off, so a fresh step is as accurate as a double factor makes it; the
passes with a held factor stop at ``solver_tol``.  At n = 64 a step factor
took 65.4 ms against 81.4 ms in double, with the same fill (2,112,396
``lu.nnz``), and a pass 4.3 against 5.2 ms (medians of 7, BLAS on one
thread, 2-core VM).  A fresh step takes 4 passes (round-off by the third,
then the stall check) where the double factor took 1, and a reused step
keeps its 6-18.  COLAMD factors (coarse dt, see :meth:`_StepSolver._factor`)
stay in double.

The costate saturation equation is linear in C*, and its step matrix
D + dt (-E + H + S + R) is built from the forward trajectory and q alone.
So the adjoint runs its step solver on one helper thread
(:class:`CostateMarch`, opened and joined inside :func:`run_adjoint`): the
helper factors costate step n (unless the factor of step n + 1 serves it),
then solves it, while the main thread assembles step n - 1's matrix, step
n's loads and the costate Darcy solves.  SuperLU releases the interpreter
lock while it factors, so the two overlap on two cores.  Each step is
queued behind the previous step's solve, and a step solver drops the factor
it holds before it makes another, so each thread holds at most one step LU.
Every step LU is made, used and dropped on one thread: with scipy 1.17.1 a
SuperLU factor made on one thread and freed on another is never freed
(+19.5 MB of RSS per factor of 1.9 M ``lu.nnz``, and +342 MB per
``sweep-n64`` adjoint when the helper's factors were solved and dropped on
the main thread).  Only private code runs on the helper; every public
function of this module runs on the thread that calls it.

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

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssemblyWorkspace,
    DarcyNullSpace,
    assemble_costate_loads,
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

log = logging.getLogger(__name__)

# Richardson passes a step solve may run with its factor, fresh or held; a
# step the held factor does not solve within them is factored afresh.  With
# a single-precision factor the config's reused steps took up to 9 passes at
# n = 16 and 18 at n = 64 and 128 to ``solver_tol``, and its fresh steps 4 at
# n = 16 and 64 and 5 at n = 128 to round-off
REUSE_PASSES = 20


@dataclass
class SaddleSolveReport:
    """Diagnostics of one Darcy saddle solve."""

    residual: float


class DarcySaddle:
    """Factorized Darcy saddle system [[A, -B^T], [B, 0]], solved in the
    divergence-free subspace.

    ``null_space`` is the mesh's :class:`DarcyNullSpace` (the workspace's
    ``ws.null_space``, shared by every saddle of the mesh), which also holds
    the mesh and B.  Its columns ``curl`` span the velocities with B u = 0,
    so the saddle reduces to the stream-function system curl^T A curl, which
    ``lu`` factors with SuperLU's minimum degree on its A + A^T pattern and
    diagonal pivots preferred.  A solve lifts the mass load with
    u_p = B^T (B B^T)^{-1} r_p, adds curl psi for the psi that balances the
    momentum load, reads the pressure off B^T p = A u - r_u through the same
    B B^T factor, and shifts it to zero area-weighted mean.  The residual
    check and iterative refinement run on the full unpinned system, so a
    pressure load with a nonzero sum still raises :class:`SolverError`.
    """

    def __init__(self, A, null_space: DarcyNullSpace, tol=1e-10):
        self.A, self.null_space, self.tol = A, null_space, tol
        self.n_int = A.shape[0]
        curl = null_space.curl
        try:
            self.lu = spla.splu((curl.T @ A @ curl).tocsc(), permc_spec="MMD_AT_PLUS_A",
                                options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # pragma: no cover - singular input
            raise SolverError(f"Darcy saddle factorization failed: {exc}") from exc

    def _correction(self, r):
        """Null-space solve for the full residual ``r``, pressure at zero mean."""
        ns, n = self.null_space, self.n_int
        r_u, r_p = r[:n], r[n:]
        u = ns.B.T @ ns.pressure_solve(r_p)
        u += ns.curl @ self.lu.solve(ns.curl.T @ (r_u - self.A @ u))
        p = ns.pressure_solve(ns.B @ (self.A @ u - r_u))
        area = ns.mesh.tri_area
        p -= (area @ p) / area.sum()
        return np.concatenate([u, p])

    def _product(self, x):
        B = self.null_space.B
        u, p = x[: self.n_int], x[self.n_int :]
        return np.concatenate([self.A @ u - B.T @ p, B @ u])

    def solve(self, rhs_u, rhs_p):
        """Solve for ``(u, p, report)``.

        ``rhs_u`` is the load on the interior edges and ``rhs_p`` the one on
        the triangles.  ``u`` holds one coefficient per edge, zero on the
        boundary edges; ``p`` has zero area-weighted mean.
        """
        rhs = np.concatenate([rhs_u, rhs_p])
        # one or two refinement passes rescue a mildly ill-conditioned system
        x, res, _ = _refine(self._correction, self._product, rhs, self.tol, 3)
        if not res <= self.tol:
            raise SolverError(f"Darcy solve: residual {res:.3e} exceeds {self.tol:.1e}")
        mesh = self.null_space.mesh
        u = np.zeros(mesh.num_edges)
        u[~mesh.boundary_edge] = x[: self.n_int]
        return u, x[self.n_int :], SaddleSolveReport(residual=float(res))


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


def _refine(solve, product, rhs, tol, passes):
    """Up to ``passes`` Richardson passes x += solve(rhs - product(x)) from x = 0.

    ``solve`` applies a factorization of the matrix whose action is
    ``product``, or of a nearby one, possibly in single precision; ``x``,
    the products and the residuals stay in double.  The passes stop once
    the residual relative to ``rhs`` is at most ``tol``, or after a pass
    that fails to halve it (the first pass starts from the relative residual
    1), so with ``tol`` 0 they run to round-off.  Returns ``(x, relative
    residual, passes run)``.
    """
    norm = np.linalg.norm(rhs)
    norm = norm if norm > 0 else 1.0
    x = solve(rhs)
    r = rhs - product(x)
    res, last, done = np.linalg.norm(r) / norm, 1.0, 1
    while done < passes and not res <= tol and res <= last / 2:
        x = x + solve(r)
        r = rhs - product(x)
        res, last, done = np.linalg.norm(r) / norm, res, done + 1
    return x, res, done


def _diagonal_dominates_columns(csc, diag_slot):
    """True when every column's largest entry in magnitude is its diagonal,
    stored at ``diag_slot`` of the data.

    The saturation pattern is symmetric and holds every diagonal by
    construction, so no column is empty."""
    mag = np.abs(csc.data)
    colmax = np.maximum.reduceat(mag, csc.indptr[:-1])
    return bool(np.all(mag[diag_slot] >= colmax))


class _StepSolver:
    """The saturation step solves of one march, all on the thread that calls it.

    Each step is factored in ``ordering`` (the workspace's ``step_ordering``),
    in single precision, or with COLAMD in double (see :meth:`_factor`), and
    solved to the relative residual ``tol``.  Two consecutive step matrices
    of one coarse interval differ by O(dt), so the steps are solved in
    pairs.  :meth:`factor` takes a step's matrix and factors it, unless a
    factor is held.  :meth:`solve` runs the same Richardson passes
    (:func:`_refine`, at most ``REUSE_PASSES``) with either factor: each
    pass applies it to the residual of the step's own matrix, computed in
    double.  With a fresh factor the passes run to round-off (tolerance 0:
    they stop at the first pass that fails to halve the residual), with a
    held one until the residual is at most ``tol``; either way the step
    must end at most ``tol``.  When :meth:`factor` was told to ``keep``,
    a factor made for the step is held for the next step, which is not
    factored, and is dropped after serving it.  If a pass with the held
    factor fails to halve the residual, or the passes do not reach ``tol``,
    the step is factored afresh, its passes run again, and its factor opens
    a new pair.  The one factor is ``_lu``: :meth:`solve` drops it before
    another is made and before any error leaves it, so the solver holds at
    most one step LU; the caller drops what is left with :meth:`drop` on its
    thread.

    ``steps``, ``fresh`` (factors made), ``reused``, ``fallbacks``,
    ``most_fresh_passes`` (over the passes with a fresh factor) and
    ``most_passes`` (over the reused steps) count the march for its log line.
    """

    def __init__(self, ordering, tol):
        self._ordering, self._tol = ordering, tol
        self._lu = None     # the factor: made for the taken step, or held from the step before
        self._perm = self._inv = self._dtype = None  # the permutation and precision of _lu
        self._step = None   # (A, what, keep, whether _lu was made for it) of the step taken
        self.steps = self.fresh = self.reused = self.fallbacks = 0
        self.most_fresh_passes = self.most_passes = 0

    @property
    def taken(self):
        """Whether :meth:`factor` took a step that :meth:`solve` has not solved."""
        return self._step is not None

    def factor(self, A, what, keep=False):
        """Take the next step's matrix ``A``, named ``what`` in errors: factor it
        now, unless the held factor is to serve it.  With ``keep``, a factor
        made for this step is held for the next one."""
        made = self._lu is None
        if made:
            self._factor(A, what)
        self._step = (A, what, keep, made)

    def solve(self, rhs):
        """The taken step's x with ``A @ x = rhs``, to the relative residual ``tol``."""
        (A, what, keep, made), self._step = self._step, None
        self.steps += 1
        held = None
        try:
            while True:
                # a fresh factor's passes run to round-off, a held one's to tol
                x, res, passes = _refine(self._apply, A.dot, rhs, 0.0 if made else self._tol,
                                         REUSE_PASSES)
                if made or res <= self._tol:
                    break
                self._lu = None  # the held factor stalled: this step is factored afresh
                self.fallbacks += 1
                self._factor(A, what)
                made = True
            if not res <= self._tol:
                raise SolverError(f"{what}: residual {res:.3e} exceeds {self._tol:.1e}"
                                  f"{_one_norm(A)}")
            if made:
                held = self._lu if keep else None
                self.most_fresh_passes = max(self.most_fresh_passes, passes)
            else:
                self.reused += 1
                self.most_passes = max(self.most_passes, passes)
        finally:
            self._lu = held  # the factor outlives the step only when kept for the next
        return x

    def drop(self):
        """Drop the factor this solver holds and the step it took."""
        self._lu = self._step = None

    def log_counts(self, march):
        log.info("%s: %d steps, %d fresh factors, %d reused, %d fallbacks, "
                 "most passes %d fresh, %d reused", march, self.steps, self.fresh,
                 self.reused, self.fallbacks, self.most_fresh_passes, self.most_passes)

    def _factor(self, A, what):
        """Factor step matrix ``A`` (CSC on the saturation pattern) into ``_lu``.

        In the workspace order the factor is single precision: SuperLU gets
        the gathered data in float32, with the same order and fill, and the
        passes of :meth:`solve` refine it in double.  Its LU holds half the
        bytes per value, and it took 65.4 against 81.4 ms at n = 64 and
        445-466 against 706-779 ms at n = 128 (medians over the factors of
        a sweep).  A COLAMD factor stays in double.

        The saturation pattern is symmetric and holds every diagonal: minimum
        degree on A+A^T with diagonal pivots preferred gives 36-47 % less fill
        than COLAMD (n = 16 to 64).  That order depends only on the pattern,
        so ``ordering`` (the workspace's ``step_ordering``) holds it for the
        whole mesh and the matrix is factored pre-permuted, in the natural
        order, which skips SuperLU's own ordering pass at every step.  This
        holds only while the diagonal pivots are the column maxima; at coarse
        dt the convection term breaks this, SuperLU pivots off the diagonal
        and the fill grew to 2-10x COLAMD's, so such matrices are factored
        with COLAMD and partial pivoting.  On the minimum-degree branch
        SuperLU works on panels of 3 columns, not its default 20: the factor
        is about 10 % faster at n = 64 and SuperLU's work arrays are smaller.
        ``relax`` is 3, not its default 10, so a relaxed supernode holds one
        triangle's three dofs: the fill fell from 70,080 to 64,104 at n = 16,
        from 2,115,438 to 2,112,396 at n = 64 and from 19,068 to 18,816 on
        ``data/unstructured_square``; the factor took 1.65 against 2.06 ms at
        n = 16 and 72.0 against 73.1 ms at n = 64 (medians of 15 and 30).

        The workspace order with threshold pivoting cannot replace COLAMD: on
        the n = 16, N = 2 costate step ``diag_pivot_thresh`` 0.1 and 0.01
        fill 3.26x and 2.28x COLAMD's 116,700 (the coarse-dt test allows 2x),
        0.01 and 0.001 raise its unrefined residual from 5e-12 to 8e-10 and
        1.5e-9, and on the 64 steps each of the config and
        ``data/unstructured_square``, all diagonally dominant, every
        threshold gives the bitwise same factor.
        """
        order = self._ordering
        if _diagonal_dominates_columns(A, order.diag_slot):
            self._perm, self._inv = order.perm, order.inv
            factored = sp.csc_matrix((A.data.astype(np.float32)[order.gather], order.indices,
                                      order.indptr), A.shape)
            kwargs = dict(permc_spec="NATURAL", panel_size=3, relax=3,
                          options=dict(SymmetricMode=True))
        else:
            self._perm = self._inv = slice(None)
            factored, kwargs = A, dict(permc_spec="COLAMD")
        self._dtype = factored.dtype
        try:
            self._lu = spla.splu(factored, **kwargs)
        except RuntimeError as exc:
            raise SolverError(f"{what}: factorization failed: {exc}") from exc
        self.fresh += 1

    def _apply(self, r):
        """The factor's solve of ``A @ x = r``, unrefined, in double.

        The permuted ``r`` is cast to the factor's precision and the
        correction back to float64."""
        x = self._lu.solve(r[self._perm].astype(self._dtype, copy=False))
        return x.astype(np.float64, copy=False)[self._inv]


def _one_norm(A):
    """A step matrix's 1-norm (its largest column sum of |A|), as its error
    messages give it."""
    return f" (1-norm ~ {spla.norm(A, 1):.3e})"


def _step_label(kind, m, n, c):
    """A step's name in errors, with the range of the C its coefficients use."""
    return f"{kind} (m={m}, n={n}, C in [{c.min():.3g}, {c.max():.3g}])"


def step_saturation_forward(c_vec, D, E, H, G, dt, what, steps, keep=False):
    """One backward-Euler step of the state saturation equation (D, E, H on one pattern).

    ``steps`` is the march's :class:`_StepSolver`, ``what`` names the step
    in its errors, and ``keep`` tells it that the next step belongs to the
    same coarse interval."""
    # D + dt (E + H), formed in one array in that order
    data = np.add(E.data, H.data)
    data *= dt
    data += D.data
    steps.factor(sp.csc_matrix((data, D.indices, D.indptr), D.shape), what, keep)
    return steps.solve(D @ c_vec + dt * G)


def costate_step_matrix(c_field, u_field, wells, q, ws, xi, dt):
    """The costate step matrix D + dt (-E + H + S + R) at coefficients (C, U, q).

    It is summed in H's freshly assembled ``data``, never in D (the
    workspace's ``ws.D``), in the order -E + H + S + R (H - E rounds as
    -E + H), and each operator is dropped once it is added, so no step holds
    more than three of them.  Returns H, which then holds the sum.
    """
    E, H, _ = assemble_saturation_state(c_field, u_field, wells, q, ws, xi)
    data = H.data
    data -= E.data
    del E
    R, S = assemble_saturation_costate(c_field, wells, q, ws)
    data += S.data
    del S
    data += R.data
    del R
    data *= dt
    data += ws.D.data
    return H


class CostateMarch:
    """The costate saturation march of one adjoint sweep on one helper thread.

    The costate equation is linear in C*, and each step matrix is built from
    the forward trajectory and q alone, so the main thread can assemble the
    next step while the helper factors this one.  Tasks run on the helper in
    the order they are queued: :meth:`factor` queues the hand-over of the
    next step matrix to ``steps``, the helper's :class:`_StepSolver` (built
    with ``ordering`` and ``tol``), which factors it unless the factor it
    holds from the step before serves it;
    :meth:`solve` queues the solve that writes row n of ``cstar`` from row
    n + 1.  A step matrix is queued once every queued solve has finished, so
    one step matrix at most waits for the helper, and the helper holds at
    most one step LU.

    Every LU is made, used and dropped on the helper: with scipy 1.17.1 a
    SuperLU factor made on one thread and freed on another is never freed
    (see the module docstring).  On exit, tasks not yet started are
    cancelled, any LU left is dropped on the helper, and the thread is
    joined; ``steps`` then holds the march's counts.
    """

    def __init__(self, cstar, D, ordering, tol):
        self._cstar, self._D = cstar, D
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="costate-lu")
        self.steps = _StepSolver(ordering, tol)  # touched only on the helper while it runs
        self._made = None    # the future of a hand-over no solve follows yet
        self._queued = []    # futures of the queued tasks, oldest first

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for future in [self._made, *self._queued]:
            if future is not None:
                future.cancel()
        self._pool.submit(self.steps.drop)
        self._pool.shutdown(wait=True)

    def factor(self, A, what, keep=False):
        """Queue step matrix ``A``, named ``what`` in errors, once every queued
        solve has finished; with ``keep``, a factor made for it is held for
        the next step."""
        self.wait()
        self._made = self._pool.submit(self.steps.factor, A, what, keep)

    def solve(self, n, load):
        """Queue the solve of C*^n from D C*^{n+1} + ``load`` with the last step matrix."""
        self._queued += [self._made, self._pool.submit(self._solve, n, load)]
        self._made = None

    def wait(self):
        """Wait for every queued solve; raise the first failure in queue order."""
        while self._queued:
            self._queued.pop(0).result()

    def _solve(self, n, load):
        if not self.steps.taken:  # the factorization raised; its future, read first, reports it
            return
        rhs = self._D @ self._cstar[n + 1].ravel() + load
        self._cstar[n] = self.steps.solve(rhs).reshape(self._cstar[n].shape)


def step_saturation_backward(march, n, W, Z, dt):
    """Queue backward-Euler step ``n`` of the costate saturation equation on ``march``.

    After the tasks queued before it, the helper solves
    [D + dt (-E + H + S + R)] cstar^n = D cstar^{n+1} + dt (W - Z) with the
    step matrix last given to :meth:`CostateMarch.factor` (see
    :func:`costate_step_matrix`).  The operator acts implicitly on the
    unknown earlier-time value, mirroring the forward step, which keeps the
    backward march unconditionally stable.  Lagging the operator to the
    right-hand side instead (mass matrix alone on the left) is an explicit
    treatment of the diffusion and blows up once dt exceeds the parabolic
    CFL bound.
    """
    march.solve(n, dt * (W - Z))


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

    Returns ``(u, p, saddle)``.  The pressure load (wells plus any
    manufactured mass source) must satisfy the zero-sum compatibility of
    the pure-Neumann problem.
    """
    ws = problem.ws
    c_field = P1DGField(problem.mesh, c_values)
    A, F = assemble_darcy(c_field, problem.wells, q_node, ws)
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
    saddle = DarcySaddle(A, ws.null_space, problem.rc.solver_tol)
    u, p, _ = saddle.solve(rhs_u, F)
    return u, p, saddle


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
    if not (q.min() >= -1e-12 and q.max() <= qhat * (1.0 + 1e-12)):  # NaN fails too
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
    steps = _StepSolver(problem.ws.step_ordering, rc.solver_tol)

    for m in range(M + 1):
        try:
            traj.U[m], traj.P[m], saddle = _darcy_at(
                problem, traj.C[m * K], q[m * K], coarse[m]
            )
        except SolverError as exc:
            raise SolverError(f"Darcy solve at coarse step {m}: {exc}") from exc
        traj.saddles[m] = saddle

        for n in range(m * K, min(m + 1, M) * K):
            c_field = P1DGField(mesh, traj.C[n])
            u_field = RT0Field(mesh, state_velocity(traj.U, n, K))
            E, H, G = assemble_saturation_state(
                c_field, u_field, problem.wells, q[n + 1], problem.ws, problem.xi,
            )
            if src.s_c is not None:
                G = G + assemble_dual_scalar_load(
                    lambda p: src.s_c(p, fine[n + 1]), problem.ws
                )
            # the step is named by its interval's end node, as in the adjoint
            traj.C[n + 1] = step_saturation_forward(
                traj.C[n].ravel(), problem.ws.D, E, H, G, rc.dt,
                _step_label("saturation step", m + 1, n, traj.C[n]), steps,
                keep=(n + 1) % K != 0,
            ).reshape(n_t, 3)
    steps.log_counts("forward march")
    return traj


def _factor_costate_step(march, problem, traj, n):
    """Queue costate step n's matrix on ``march``; it is built at
    (C^{n+1}, U(t_{n+1}), q^{n+1}).  Its factor serves step n - 1 too when
    that step is in the same coarse interval (n not a multiple of K)."""
    mesh, K = problem.mesh, problem.rc.substeps
    A = costate_step_matrix(
        P1DGField(mesh, traj.C[n + 1]), RT0Field(mesh, state_velocity(traj.U, n + 1, K)),
        problem.wells, traj.q[n + 1], problem.ws, problem.xi, problem.rc.dt,
    )
    march.factor(A, _step_label("costate saturation step", n // K + 1, n, traj.C[n + 1]),
                 keep=n % K != 0)


def run_adjoint(problem: Problem, traj: Trajectory) -> Trajectory:
    """Backward sweep filling the costate part of ``traj``.

    Requires a completed forward trajectory: the costate Darcy solves use
    its cached factorizations ``traj.saddles`` (the costate velocity matrix
    at each coarse time is the state one).

    The step LUs are made, used and dropped on one helper thread
    (:class:`CostateMarch`), opened and joined inside the sweep: scipy does
    not free a factor dropped on another thread than the one that made it
    (+342 MB of RSS per ``sweep-n64`` adjoint otherwise).  While the
    helper factors and solves costate step n, this thread assembles step
    n - 1's matrix, step n's loads and, at a coarse node, the costate Darcy
    solve, which waits for C* at the node.  The helper solves the steps in
    pairs, as the forward does (:class:`_StepSolver`), and holds one step LU
    at a time.  Which steps are factored depends only on the data, never on
    the threads' timing, so the outputs are those of the same march run on
    one thread, bit for bit.
    """
    rc = problem.rc
    mesh = problem.mesh
    ws = problem.ws
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

    with CostateMarch(traj.Cstar, ws.D, ws.step_ordering, rc.solver_tol) as march:
        _factor_costate_step(march, problem, traj, rc.n_steps - 1)
        for m in range(rc.m_steps, -1, -1):
            march.wait()
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
                W, Z = assemble_costate_loads(
                    P1DGField(mesh, traj.C[n + 1]),
                    RT0Field(mesh, state_velocity(traj.U, n + 1, K)),
                    RT0Field(mesh, costate_velocity(traj.Ustar, n + 1, K)),
                    problem.wells, t_dep, ws,
                )
                if src.s_c_star is not None:
                    W = W + assemble_dual_scalar_load(
                        lambda p: src.s_c_star(p, t_dep), ws
                    )
                step_saturation_backward(march, n, W, Z, rc.dt)
                if n > 0:
                    _factor_costate_step(march, problem, traj, n - 1)

    march.steps.log_counts("costate march")
    traj.costate_div_max = div_max
    return traj
