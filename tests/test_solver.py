import collections
import dataclasses
import functools
import gc
import logging
import re
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porous_opt import assembly as asm
from porous_opt import fespaces as fes
from porous_opt import solver as sol
from porous_opt.config import parse_config
from porous_opt.control import optimize
from porous_opt.errors import CompatibilityError, DomainError, PorousOptError, SolverError
from porous_opt.mesh import build_barycentric_dual, build_primal, read_mesh, square_mesh
from porous_opt.model import RunConfig, default_model, wells_from_tris
from porous_opt.quadrature import QuadratureRule

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def setup():
    mesh = square_mesh(8)
    model = default_model()
    ws = asm.AssemblyWorkspace(mesh, build_barycentric_dual(mesh), model, QuadratureRule())
    wells = wells_from_tris(mesh, [0, 1], [126, 127], T=1.0, epsilon=0.1)
    return mesh, model, ws, wells


def assemble(setup_tuple, q):
    mesh, model, ws, wells = setup_tuple
    c = fes.P1DGField.constant(mesh, 0.5)
    return asm.assemble_darcy(c, wells, q, ws)


# ---------------------------------------------------------------------------
# Darcy solves
# ---------------------------------------------------------------------------

def test_zero_source_gives_zero_solution(setup):
    mesh, model, ws, wells = setup
    A, F = assemble(setup, 0.0)
    u, p, _ = sol.DarcySaddle(A, ws.null_space).solve(np.zeros(A.shape[0]), F)
    assert np.abs(u).max() < 1e-12
    assert np.abs(p).max() < 1e-12


def test_mass_equation_projection(setup):
    mesh, model, ws, wells = setup
    A, F = assemble(setup, 0.8)
    u, p, rep = sol.DarcySaddle(A, ws.null_space).solve(np.zeros(A.shape[0]), F)
    # elementwise divergence equals the L2 projection of (r0 - r1) q
    div = fes.RT0Field(mesh, u).divergence().values
    target = F / mesh.tri_area
    assert np.abs(div - target).max() < 1e-10
    r = F - ws.B @ u[~mesh.boundary_edge]
    assert np.linalg.norm(r) / max(np.linalg.norm(F), 1.0) <= 1e-10
    assert rep.residual <= 1e-10


def test_pressure_zero_mean(setup):
    mesh, model, ws, wells = setup
    A, F = assemble(setup, 0.8)
    _, p, _ = sol.DarcySaddle(A, ws.null_space).solve(np.zeros(A.shape[0]), F)
    assert abs(p @ mesh.tri_area) <= 1e-10 * np.linalg.norm(p)


def test_incompatible_source_rejected():
    # a manufactured mass source that breaks the zero-sum compatibility of
    # the pure-Neumann Darcy problem is rejected before any factorization
    prob = make_problem()
    prob.sources = sol.MMSSources(s_div=lambda p, t: np.ones(len(p)))
    with pytest.raises(CompatibilityError, match="incompatible Darcy source"):
        sol.run_forward(prob, np.full(prob.rc.n_steps + 1, 0.5))


def test_costate_zero_load(setup):
    mesh, model, ws, wells = setup
    A, _ = assemble(setup, 0.0)
    ustar, pstar, _ = sol.DarcySaddle(A, ws.null_space).solve(
        np.zeros(len(mesh.interior_edges)), np.zeros(mesh.num_triangles)
    )
    assert np.abs(ustar).max() < 1e-12
    assert np.abs(pstar).max() < 1e-12


def test_costate_divergence_free(setup):
    mesh, model, ws, wells = setup
    A, _ = assemble(setup, 0.0)
    Fstar = RNG.normal(size=len(mesh.interior_edges))
    ustar, _, _ = sol.DarcySaddle(A, ws.null_space).solve(Fstar, np.zeros(mesh.num_triangles))
    assert np.abs(fes.RT0Field(mesh, ustar).divergence().values).max() <= 1e-10


def test_factorization_reuse_identical_and_faster(setup):
    mesh, model, ws, wells = setup
    A, _ = assemble(setup, 0.0)
    Fstar = RNG.normal(size=len(mesh.interior_edges))
    zeros = np.zeros(mesh.num_triangles)

    t0 = time.perf_counter()
    saddle = sol.DarcySaddle(A, ws.null_space)
    u1, p1, _ = saddle.solve(Fstar, zeros)
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    u2, p2, _ = saddle.solve(Fstar, zeros)
    t_reuse = time.perf_counter() - t0

    assert np.array_equal(u1, u2)
    assert np.array_equal(p1, p2)
    assert t_reuse < t_build


def test_incompatible_pressure_load_rejected_by_saddle(setup):
    # the pinned B B^T factor drops the first mass equation; the residual
    # check on the full system must still see a load that violates it
    mesh, model, ws, wells = setup
    A, F = assemble(setup, 0.8)
    saddle = sol.DarcySaddle(A, ws.null_space)
    with pytest.raises(SolverError):
        saddle.solve(np.zeros(A.shape[0]), F + mesh.tri_area)


def dense_multiplier_solve(A, B, mesh, rhs_u, rhs_p):
    """Reference (u on interior edges, p): the saddle system bordered by the
    zero-mean multiplier row and column, solved densely."""
    n_int, n_t = A.shape[0], B.shape[0]
    a = mesh.tri_area[:, None]
    K = np.block([
        [A.toarray(), -B.T.toarray(), np.zeros((n_int, 1))],
        [B.toarray(), np.zeros((n_t, n_t)), a],
        [np.zeros((1, n_int)), a.T, np.zeros((1, 1))],
    ])
    x = np.linalg.solve(K, np.concatenate([rhs_u, rhs_p, [0.0]]))
    return x[:n_int], x[n_int:n_int + n_t]


def test_pinned_solve_matches_dense_multiplier_system():
    mesh = square_mesh(4)
    model = default_model()
    ws = asm.AssemblyWorkspace(mesh, build_barycentric_dual(mesh), model, QuadratureRule())
    wells = wells_from_tris(mesh, [0, 1], [30, 31], T=1.0, epsilon=0.1)
    c = fes.P1DGField.interpolate(mesh, lambda p: 0.2 + 0.6 * p[:, 0] * p[:, 1])
    A, F = asm.assemble_darcy(c, wells, 0.8, ws)
    rhs_u = RNG.normal(size=A.shape[0])
    u, p, _ = sol.DarcySaddle(A, ws.null_space).solve(rhs_u, F)

    u_ref, p_ref = dense_multiplier_solve(A, ws.B, mesh, rhs_u, F)
    assert np.abs(u[mesh.interior_edges] - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
    assert np.abs(p - p_ref).max() <= 1e-10 * np.abs(p_ref).max()


def test_saddle_velocity_is_zero_on_boundary_edges(setup):
    # the solve returns one coefficient per edge: the slip condition on the
    # boundary edges, the solved unknowns in mesh order on the others
    mesh, model, ws, wells = setup
    A, F = assemble(setup, 0.8)
    rhs_u = RNG.normal(size=A.shape[0])
    u, _, _ = sol.DarcySaddle(A, ws.null_space).solve(rhs_u, F)
    u_ref, _ = dense_multiplier_solve(A, ws.B, mesh, rhs_u, F)
    assert u.shape == (mesh.num_edges,)
    assert mesh.boundary_edge.sum() == 32
    assert np.all(u[mesh.boundary_edge] == 0.0)
    assert np.abs(u[~mesh.boundary_edge] - u_ref).max() <= 1e-10 * np.abs(u_ref).max()


def test_saddle_factor_has_no_dense_row_or_column(setup, monkeypatch):
    # guards against a bordered zero-mean row/column coming back: on this
    # mesh the stream function at a vertex couples only with vertices at
    # most two rings away (at most 19; measured 13), while a multiplier row
    # would hold all 49 interior vertices
    mesh, model, ws, wells = setup
    A, _ = assemble(setup, 0.8)
    null_space = ws.null_space
    factored = []
    splu = sol.spla.splu

    def capture(K, *args, **kwargs):
        factored.append(K)
        return splu(K, *args, **kwargs)

    monkeypatch.setattr(sol.spla, "splu", capture)
    sol.DarcySaddle(A, null_space)
    (K,) = factored
    K = K.tocsc()
    assert K.shape == (49, 49)
    assert np.diff(K.indptr).max() <= 19
    assert np.diff(K.tocsr().indptr).max() <= 19


def test_coarse_dt_saturation_fill_stays_near_colamd(monkeypatch):
    # at dt = 1/2 the convection term moves the column maxima of the
    # saturation step matrices off the diagonal; a minimum-degree ordering
    # with diagonal pivots preferred then pivots off it and filled in up to
    # 4.7x what COLAMD with partial pivoting needs
    import dataclasses
    from pathlib import Path

    from porous_opt.config import parse_config

    cfg = Path(__file__).resolve().parents[1] / "data" / "quarter_five_spot.cfg"
    spec = dataclasses.replace(parse_config(cfg), n=16, m_steps=1, n_steps=2)
    prob = spec.build_problem()
    size = 3 * prob.mesh.num_triangles
    splu = sol.spla.splu
    fills = []

    def record(K, *args, **kwargs):
        lu = splu(K, *args, **kwargs)
        if K.shape == (size, size):
            fills.append((lu.nnz, splu(K, permc_spec="COLAMD").nnz, kwargs["permc_spec"],
                          K.dtype))
        return lu

    monkeypatch.setattr(sol.spla, "splu", record)
    traj = sol.run_forward(prob, prob.q_initial())
    sol.run_adjoint(prob, traj)
    assert len(fills) == 4  # two forward steps, two costate steps
    for nnz, colamd, _, _ in fills:
        assert nnz <= 2 * colamd, fills
    # the COLAMD factors are made in double, the workspace-order one in single
    assert sorted((spec, dtype) for *_, spec, dtype in fills) == [
        ("COLAMD", np.float64)] * 3 + [("NATURAL", np.float32)], fills


# ---------------------------------------------------------------------------
# one elimination order per saturation pattern
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module", params=["config-n16", "unstructured"])
def config_problem(request):
    spec = parse_config(ROOT / "data" / "quarter_five_spot.cfg")
    if request.param == "unstructured":
        spec = dataclasses.replace(spec, mesh="files",
                                   nodes_file=str(ROOT / "data" / "unstructured_square.node"),
                                   elems_file=str(ROOT / "data" / "unstructured_square.ele"))
    return request.param, spec.build_problem()


# Step-LU fill allowed against SuperLU's own MMD on the dof matrix.  Minimum
# degree on the triangle graph breaks ties differently from minimum degree on
# the dof graph: measured 64,104 against 71,142 on the config (and
# 2,112,396 against 2,148,630 at n = 64), but 18,816 against 18,690 (+0.7 %)
# on the unstructured mesh (with SuperLU's relax 3; 70,080, 2,115,438 and
# 19,068 with its default 10).
FILL_OVER_MMD = {"config-n16": 1.0, "unstructured": 1.03}


def test_step_ordering_permutes_whole_triangles(config_problem):
    ws = config_problem[1].ws
    n_t = ws.mesh.num_triangles
    order = ws.step_ordering
    assert ws.step_ordering is order
    dofs = order.perm.reshape(n_t, 3)
    assert np.array_equal(dofs, 3 * (dofs[:, :1] // 3) + np.arange(3))
    assert np.array_equal(np.sort(dofs[:, 0] // 3), np.arange(n_t))
    assert np.array_equal(order.inv[order.perm], np.arange(3 * n_t))


def test_step_ordering_matches_the_pattern_oracle(config_problem):
    # the order built from the workspace's triangle table equals minimum
    # degree on the triangle graph read back from the saturation pattern:
    # the first dof row of each block in column 3t, expanded to the dofs
    ws = config_problem[1].ws
    indptr, indices = ws.sat_indptr, ws.sat_indices
    n = len(indptr) - 1
    n_t = n // 3
    col = np.repeat(np.arange(n), np.diff(indptr))
    diag_slot = np.flatnonzero(indices == col)
    rows, ptr = [], [0]
    for t in range(n_t):
        block = indices[indptr[3 * t]:indptr[3 * t + 1]]
        rows.extend(block[::3] // 3)
        ptr.append(len(rows))
    rows = np.array(rows)
    vals = np.where(rows == np.repeat(np.arange(n_t), np.diff(ptr)), 4.0, -1.0)
    graph = sp.csc_matrix((vals, rows, ptr), shape=(n_t, n_t))
    lu = spla.splu(graph, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    perm = (3 * np.argsort(lu.perm_c)[:, None] + np.arange(3)).ravel()

    order = ws.step_ordering
    assert np.array_equal(order.diag_slot, diag_slot)
    assert np.array_equal(order.perm, perm)


def test_step_factor_uses_the_workspace_order(config_problem, monkeypatch):
    # a step matrix on the minimum-degree branch is factored pre-permuted
    # and in single precision: fill as SuperLU's own MMD on it
    # (FILL_OVER_MMD), the same solution as a double factor once refined,
    # and no reference to the factor survives the step
    name, prob = config_problem
    ws, rc = prob.ws, prob.rc
    order = ws.step_ordering
    c = fes.P1DGField(prob.mesh, prob.c0_values)
    q = prob.q_initial()
    u = sol._darcy_at(prob, prob.c0_values, q[0], 0.0)[0]
    E, H, G = asm.assemble_saturation_state(c, fes.RT0Field(prob.mesh, u), prob.wells,
                                            q[1], ws, prob.xi)
    D = ws.D
    lhs = sp.csc_matrix((D.data + rc.dt * (E.data + H.data), D.indices, D.indptr), D.shape)
    assert np.array_equal(lhs.data[order.diag_slot], lhs.diagonal())
    assert sol._diagonal_dominates_columns(lhs, order.diag_slot)

    splu = sol.spla.splu
    factors = []

    def record(K, *args, **kwargs):
        lu = splu(K, *args, **kwargs)
        factors.append((lu, kwargs["permc_spec"], K.dtype))
        return lu

    monkeypatch.setattr(sol.spla, "splu", record)
    c_vec = prob.c0_values.ravel()
    x = sol.step_saturation_forward(c_vec, D, E, H, G, rc.dt, "saturation step",
                                    sol._StepSolver(order, rc.solver_tol))
    monkeypatch.undo()
    (lu, spec, dtype), = factors
    assert spec == "NATURAL"
    assert dtype == np.float32
    del factors[:]
    # only ``lu`` (and getrefcount's argument) refer to the factor
    assert sys.getrefcount(lu) == 2

    fresh = splu(lhs, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    assert lu.nnz <= FILL_OVER_MMD[name] * fresh.nnz
    ref = fresh.solve(D @ c_vec + rc.dt * G)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# the Darcy saddle in the divergence-free subspace
# ---------------------------------------------------------------------------

def holed_square(n, cells):
    """square_mesh(n) without the two triangles of each cell j * n + i in
    ``cells``, and without the vertices left unused."""
    mesh = square_mesh(n)
    tris = np.delete(mesh.triangles, [t for c in cells for t in (2 * c, 2 * c + 1)], axis=0)
    used = np.unique(tris)
    index = np.full(mesh.num_vertices, -1)
    index[used] = np.arange(used.size)
    return build_primal(mesh.vertices[used], index[tris])


def null_space_mesh(name):
    return {
        "square1": lambda: square_mesh(1),
        "square4": lambda: square_mesh(4),
        "square5-left": lambda: square_mesh(5, "left"),
        "unstructured": lambda: read_mesh(ROOT / "data" / "unstructured_square.node",
                                          ROOT / "data" / "unstructured_square.ele"),
        # two separate one-cell holes
        "two-holes": lambda: holed_square(8, [2 * 8 + 2, 5 * 8 + 5]),
        # two one-cell holes that share the corner vertex (3, 3) / 8
        "touching-holes": lambda: holed_square(8, [2 * 8 + 2, 3 * 8 + 3]),
    }[name]()


def workspace(mesh):
    return asm.AssemblyWorkspace(mesh, build_barycentric_dual(mesh), default_model(),
                                 QuadratureRule())


@pytest.mark.parametrize("name", ["square4", "square5-left", "unstructured", "two-holes"])
def test_null_space_basis_spans_the_divergence_free_velocities(name):
    # curl maps into the kernel of B, has one column per dimension of that
    # kernel (the rows of B sum to zero, so rank B = n_t - 1), and each row
    # is the +-1/|e| difference of the stream function at the edge's ends
    mesh = null_space_mesh(name)
    ws = workspace(mesh)
    curl = ws.null_space.curl
    assert abs(ws.B @ curl).max() <= 1e-12
    assert curl.shape == (ws.n_int, ws.n_int - mesh.num_triangles + 1)
    assert np.diff(curl.tocsr().indptr).max() <= 2
    rows = curl.tocoo().row
    assert np.allclose(np.abs(curl.tocoo().data), 1.0 / ws.ie_h[rows], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", ["two-holes", "touching-holes", "square1"])
def test_null_space_solve_matches_the_dense_multiplier_system(name):
    # each hole is one stream-function unknown; holes that share a vertex
    # share one boundary loop and one unknown, and still fill the null
    # space.  square_mesh(1) has no interior vertex: the stream-function
    # system is 0 x 0 and the velocity is the lifted u_p alone
    mesh = null_space_mesh(name)
    ws = workspace(mesh)
    assert ws.null_space.curl.shape[1] == ws.n_int - mesh.num_triangles + 1
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1)
    c = fes.P1DGField.interpolate(mesh, lambda p: 0.2 + 0.6 * p[:, 0] * p[:, 1])
    A, F = asm.assemble_darcy(c, wells, 0.8, ws)
    rhs_u = RNG.normal(size=A.shape[0])
    u, p, rep = sol.DarcySaddle(A, ws.null_space).solve(rhs_u, F)
    u_ref, p_ref = dense_multiplier_solve(A, ws.B, mesh, rhs_u, F)
    assert np.abs(u[mesh.interior_edges] - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
    assert np.abs(p - p_ref).max() <= 1e-12 * np.abs(p_ref).max()
    assert rep.residual <= 1e-10


def test_disconnected_mesh_is_refused_by_the_null_space():
    # two squares side by side with no shared edge: the stream function has
    # one unknown too many for a basis
    left = square_mesh(2)
    mesh = build_primal(np.vstack([left.vertices, left.vertices + [2.0, 0.0]]),
                        np.vstack([left.triangles, left.triangles + left.num_vertices]))
    with pytest.raises(DomainError, match="has 3 unknowns but .* have 1 dimensions"):
        workspace(mesh).null_space


def test_stream_function_factor_pivots_on_the_diagonal(config_problem):
    # the first Darcy system of the run is factored in SuperLU's minimum
    # degree with no off-diagonal pivot, with less fill than COLAMD on the
    # same matrix (measured 8,082 against 8,698 on the config and 1,766
    # against 2,290 on the unstructured mesh), and solved as the pinned
    # COLAMD saddle and the dense bordered system solve it; a round-off
    # change of A leaves the fill as it is
    _, prob = config_problem
    mesh, ws = prob.mesh, prob.ws
    B = ws.B
    c = fes.P1DGField(mesh, prob.c0_values)
    A, F = asm.assemble_darcy(c, prob.wells, prob.q_initial()[0], ws)
    rhs_u = RNG.normal(size=A.shape[0])
    saddle = sol.DarcySaddle(A, ws.null_space, prob.rc.solver_tol)
    assert np.array_equal(saddle.lu.perm_r, saddle.lu.perm_c)
    u, p, _ = saddle.solve(rhs_u, F)

    curl = ws.null_space.curl
    splu = sol.spla.splu
    assert saddle.lu.nnz < splu((curl.T @ A @ curl).tocsc(), permc_spec="COLAMD").nnz
    n = A.shape[0]
    K = sp.bmat([[A, -B[1:].T], [B[1:], None]], format="csc")
    x = np.insert(splu(K, permc_spec="COLAMD").solve(np.delete(np.concatenate([rhs_u, F]), n)),
                  n, 0.0)
    x[n:] -= (mesh.tri_area @ x[n:]) / mesh.tri_area.sum()
    u_dense, p_dense = dense_multiplier_solve(A, B, mesh, rhs_u, F)
    for u_ref, p_ref in ((x[:n], x[n:]), (u_dense, p_dense)):
        assert np.abs(u[mesh.interior_edges] - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
        assert np.abs(p - p_ref).max() <= 1e-12 * np.abs(p_ref).max()

    rng = np.random.default_rng(5)
    for _ in range(3):
        scaled = A.copy()
        scaled.data *= 1.0 + rng.choice([-2.2e-16, 2.2e-16], size=scaled.data.size)
        assert sol.DarcySaddle(scaled, ws.null_space,
                               prob.rc.solver_tol).lu.nnz == saddle.lu.nnz


def test_null_space_is_built_at_the_first_darcy_solve():
    prob = make_problem(n=6, m_steps=3, n_steps=6)
    assert "null_space" not in vars(prob.ws)
    traj = sol.run_forward(prob, np.full(prob.rc.n_steps + 1, 0.5))
    null_space = vars(prob.ws)["null_space"]
    assert len(traj.saddles) == prob.rc.m_steps + 1
    assert all(s.null_space is null_space for s in traj.saddles.values())


def test_sweeps_never_write_into_the_workspace_operators():
    # D, B and the curl basis are geometry every sweep of the mesh shares:
    # a forward + adjoint sweep and a second forward leave their bits as is
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    ws = prob.ws
    ops = (ws.D, ws.B, ws.null_space.curl)
    before = [(m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()) for m in ops]
    q = np.full(prob.rc.n_steps + 1, 0.6)
    traj = sol.run_adjoint(prob, sol.run_forward(prob, q))
    assert np.abs(traj.Cstar).max() > 0.0
    sol.run_forward(prob, q)
    assert all(a is b for a, b in zip((ws.D, ws.B, ws.null_space.curl), ops))
    after = [(m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()) for m in ops]
    assert after == before


# ---------------------------------------------------------------------------
# velocity extrapolation between the two grids, by fine step index
# ---------------------------------------------------------------------------

M_VEL, K_VEL = 4, 3  # coarse steps, fine steps per coarse step


def test_velocity_at_coarse_nodes():
    fields = RNG.normal(size=(M_VEL + 1, 7))
    for m in range(M_VEL + 1):
        assert np.array_equal(sol.state_velocity(fields, m * K_VEL, K_VEL), fields[m])
        assert np.array_equal(sol.costate_velocity(fields, m * K_VEL, K_VEL), fields[m])


def test_velocity_constant_exact():
    fields = np.tile(RNG.normal(size=7), (M_VEL + 1, 1))
    for n in range(M_VEL * K_VEL + 1):
        for fn in (sol.state_velocity, sol.costate_velocity):
            assert np.allclose(fn(fields, n, K_VEL), fields[0], atol=1e-14)


def test_velocity_affine_exact_where_two_point():
    slope = RNG.normal(size=7)
    icept = RNG.normal(size=7)
    fields = np.linspace(0.0, 1.0, M_VEL + 1)[:, None] * slope + icept
    fine = np.linspace(0.0, 1.0, M_VEL * K_VEL + 1)
    # state: every interval after the first extrapolates through two nodes
    for n in range(K_VEL, M_VEL * K_VEL + 1):
        got = sol.state_velocity(fields, n, K_VEL)
        assert np.allclose(got, fine[n] * slope + icept, atol=1e-12)
    # costate: every interval before the last
    for n in range((M_VEL - 1) * K_VEL + 1):
        got = sol.costate_velocity(fields, n, K_VEL)
        assert np.allclose(got, fine[n] * slope + icept, atol=1e-12)


def test_velocity_first_and_last_interval_constants():
    fields = RNG.normal(size=(M_VEL + 1, 3))
    for k in range(1, K_VEL):
        got = sol.state_velocity(fields, k, K_VEL)
        assert np.array_equal(got, fields[0])
        got = sol.costate_velocity(fields, M_VEL * K_VEL - k, K_VEL)
        assert np.array_equal(got, fields[M_VEL])


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def make_problem(n=4, m_steps=2, n_steps=4, c0=0.5, wtilde=1.0, T=1.0, **kw):
    mesh = square_mesh(n)
    model = default_model()
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=T,
                            wtilde=wtilde, epsilon=2.0 * T / n_steps)
    rc = RunConfig(T=T, m_steps=m_steps, n_steps=n_steps, c0=c0, **kw)
    return sol.Problem.build(mesh, model, wells, rc)


def test_zero_control_zero_initial_stays_zero():
    prob = make_problem(c0=0.0)
    traj = sol.run_forward(prob, np.zeros(prob.rc.n_steps + 1))
    assert np.abs(traj.C).max() < 1e-12
    assert np.abs(traj.U).max() < 1e-12


def test_constant_state_is_fixed_point():
    prob = make_problem(c0=0.37)
    traj = sol.run_forward(prob, np.zeros(prob.rc.n_steps + 1))
    assert np.abs(traj.C - 0.37).max() < 1e-10


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.1, 2.0],
                         ids=["nan", "inf", "negative", "above_qhat"])
def test_control_bounds_enforced(value):
    # qhat = 1; a NaN control fails the box check, not a later solve
    prob = make_problem()
    q = np.full(prob.rc.n_steps + 1, value)
    with pytest.raises(PorousOptError, match="box constraints"):
        sol.run_forward(prob, q)
    with pytest.raises(PorousOptError, match="box constraints"):
        optimize(prob, q0=q)


def test_mass_balance_every_coarse_step():
    prob = make_problem(n=6, m_steps=3, n_steps=6)
    q = np.full(prob.rc.n_steps + 1, 0.6)
    traj = sol.run_forward(prob, q)
    for m in range(prob.rc.m_steps + 1):
        div = fes.RT0Field(prob.mesh, traj.U[m]).divergence().values
        assert abs(div @ prob.mesh.tri_area) < 1e-10


def test_forward_pressures_zero_mean():
    prob = make_problem(n=6, m_steps=3, n_steps=6)
    traj = sol.run_forward(prob, np.full(prob.rc.n_steps + 1, 0.5))
    for m in range(prob.rc.m_steps + 1):
        p = traj.P[m]
        assert abs(p @ prob.mesh.tri_area) <= 1e-10 * max(np.linalg.norm(p), 1e-30)


def test_single_grid_equivalence_when_steps_match():
    # with N = M the split sweep must coincide with a plain single-grid loop
    prob = make_problem(n=4, m_steps=4, n_steps=4, c0=0.5)
    q = np.full(5, 0.7)
    traj = sol.run_forward(prob, q)

    # oracle: alternate Darcy solve and saturation step with lagged velocity
    mesh, model, wells, rc, ws = prob.mesh, prob.model, prob.wells, prob.rc, prob.ws
    C = prob.c0_values.copy()
    Us, Ps, Cs = [], [], [C.copy()]
    for i in range(rc.n_steps):
        cf = fes.P1DGField(mesh, C)
        A, F = asm.assemble_darcy(cf, wells, q[i], ws)
        u, p, _ = sol.DarcySaddle(A, ws.null_space).solve(np.zeros(A.shape[0]), F)
        Us.append(u.copy())
        Ps.append(p.copy())
        E, H, G = asm.assemble_saturation_state(
            cf, fes.RT0Field(mesh, u), wells, q[i + 1], ws, prob.xi
        )
        C = sol.step_saturation_forward(
            C.ravel(), ws.D, E, H, G, rc.dt, "saturation step",
            sol._StepSolver(ws.step_ordering, rc.solver_tol)).reshape(C.shape)
        Cs.append(C.copy())
    cf = fes.P1DGField(mesh, C)
    A, F = asm.assemble_darcy(cf, wells, q[-1], ws)
    u, _, _ = sol.DarcySaddle(A, ws.null_space).solve(np.zeros(A.shape[0]), F)
    Us.append(u.copy())

    assert np.allclose(traj.C, np.array(Cs), atol=1e-13)
    assert np.allclose(traj.U, np.array(Us), atol=1e-13)


def test_time_self_convergence():
    # halving dt roughly halves the solution difference (backward Euler)
    from porous_opt.mms import ExactFields, state_sources

    model = default_model()
    exact = ExactFields.state()
    sources = state_sources(exact, model)
    mesh = square_mesh(8)
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1, wtilde=0.0)

    results = []
    for N in (4, 8, 16):
        rc = RunConfig(T=1.0, m_steps=N, n_steps=N, c0=0.0)
        prob = sol.Problem.build(mesh, model, wells, rc, sources=sources,
                                 c0=lambda p: exact.c(p, 0.0))
        traj = sol.run_forward(prob, np.zeros(N + 1))
        results.append(traj.C[-1])
    d1 = np.linalg.norm(results[0] - results[1])
    d2 = np.linalg.norm(results[1] - results[2])
    assert 1.6 <= d1 / d2 <= 2.4


def test_adjoint_trivial_when_price_zero():
    prob = make_problem(wtilde=0.0)
    q = np.full(prob.rc.n_steps + 1, 0.5)
    traj = sol.run_forward(prob, q)
    sol.run_adjoint(prob, traj)
    assert np.abs(traj.Cstar).max() < 1e-12
    assert np.abs(traj.Ustar).max() < 1e-12
    assert np.abs(traj.Pstar).max() < 1e-12


def test_adjoint_terminal_condition_and_divergence():
    prob = make_problem(n=6, m_steps=3, n_steps=6, wtilde=2.0)
    q = np.full(prob.rc.n_steps + 1, 0.5)
    traj = sol.run_forward(prob, q)
    sol.run_adjoint(prob, traj)
    assert np.abs(traj.Cstar[-1]).max() == 0.0
    assert traj.costate_div_max <= 1e-10
    for m in range(prob.rc.m_steps + 1):
        p = traj.Pstar[m]
        assert abs(p @ prob.mesh.tri_area) <= 1e-10 * max(np.linalg.norm(p), 1e-30)


def test_forward_deterministic():
    prob = make_problem(n=4, m_steps=2, n_steps=4)
    q = np.full(5, 0.25)
    t1 = sol.run_forward(prob, q)
    t2 = sol.run_forward(prob, q)
    assert np.array_equal(t1.C, t2.C)
    assert np.array_equal(t1.U, t2.U)
    assert np.array_equal(t1.P, t2.P)


def march_one_step(prob, A, cstar_next, W, Z):
    """C* of one costate step with matrix ``A`` from ``cstar_next``, marched
    on a :class:`CostateMarch` of its own."""
    cstar = np.stack([np.full_like(cstar_next, np.nan), cstar_next])
    with sol.CostateMarch(cstar, prob.ws.D, prob.ws.step_ordering, prob.rc.solver_tol) as march:
        march.factor(A, "costate saturation step")
        sol.step_saturation_backward(march, 0, W, Z, prob.rc.dt)
        march.wait()
    return cstar[0]


def test_backward_step_trivial_zero():
    # zero terminal data and zero loads propagate zero
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=0.0)
    mesh, ws = prob.mesh, prob.ws
    c = fes.P1DGField.constant(mesh, 0.5)
    u = fes.RT0Field.zero(mesh)
    A = sol.costate_step_matrix(c, u, prob.wells, 0.0, ws, prob.xi, prob.rc.dt)
    W, Z = asm.assemble_costate_loads(c, u, u, prob.wells, 0.2, ws)
    out = march_one_step(prob, A, np.zeros(3 * mesh.num_triangles), W, Z)
    assert np.abs(out).max() < 1e-14


def test_saturation_steps_match_dense_solve():
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    q = np.full(prob.rc.n_steps + 1, 0.6)
    traj = sol.run_forward(prob, q)
    sol.run_adjoint(prob, traj)
    mesh, ws, dt = prob.mesh, prob.ws, prob.rc.dt
    c = fes.P1DGField(mesh, traj.C[2])
    u = fes.RT0Field(mesh, traj.U[1])
    us = fes.RT0Field(mesh, traj.Ustar[1])
    E, H, G = asm.assemble_saturation_state(c, u, prob.wells, q[2], ws, prob.xi)
    D = ws.D
    R, S = asm.assemble_saturation_costate(c, prob.wells, q[2], ws)
    W, Z = asm.assemble_costate_loads(c, u, us, prob.wells, 0.5, ws)
    c_prev = traj.C[1].ravel()
    cstar_next = traj.Cstar[3].ravel()
    assert np.abs(cstar_next).max() > 0.0

    fwd = sol.step_saturation_forward(c_prev, D, E, H, G, dt, "saturation step",
                                      sol._StepSolver(ws.step_ordering, prob.rc.solver_tol))
    ref = np.linalg.solve((D + dt * (E + H)).toarray(), D @ c_prev + dt * G)
    assert np.abs(fwd - ref).max() <= 1e-12 * np.abs(ref).max()

    A = sol.costate_step_matrix(c, u, prob.wells, q[2], ws, prob.xi, dt)
    bwd = march_one_step(prob, A, cstar_next, W, Z)
    ref = np.linalg.solve((D + dt * (-E + H + S + R)).toarray(),
                          D @ cstar_next + dt * (W - Z))
    assert np.abs(bwd - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# two-grid sweeps against hand-written oracles (K = 4 fine steps per coarse)
# ---------------------------------------------------------------------------

def two_grid_problem():
    # M = 4: the costate velocity at the final node is zero (zero terminal
    # data), so with M = 2 its only extrapolating interval would pair with
    # that zero and could not tell the partner node apart
    prob = make_problem(n=4, m_steps=4, n_steps=16, wtilde=2.0)
    q = 0.3 + 0.5 * np.linspace(0.0, 1.0, prob.rc.n_steps + 1) ** 2
    return prob, q


def darcy_oracle(prob, C, q):
    cf = fes.P1DGField(prob.mesh, C)
    A, F = asm.assemble_darcy(cf, prob.wells, q, prob.ws)
    return sol.DarcySaddle(A, prob.ws.null_space, prob.rc.solver_tol), F


def relative_difference(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def step_residual(lhs, x, rhs):
    return np.linalg.norm(rhs - lhs @ x) / np.linalg.norm(rhs)


def test_two_grid_forward_matches_oracle():
    # the oracle drives a step solver of its own on the sweep's schedule
    # (each coarse interval's steps in pairs: a fresh factor, then Richardson
    # passes with it) and must match bitwise; the march with a fresh factor
    # per step stays within 1e-8 of it
    prob, q = two_grid_problem()
    mesh, wells, rc, ws = prob.mesh, prob.wells, prob.rc, prob.ws
    M, K = rc.m_steps, rc.substeps
    assert K == 4
    traj = sol.run_forward(prob, q)

    def march(steps):
        """C, U and each step's relative residual; without ``steps``, every
        step is factored and solved on its own."""
        C = np.empty_like(traj.C)
        U = np.zeros_like(traj.U)
        C[0] = prob.c0_values
        residuals = []
        for m in range(M + 1):
            saddle, F = darcy_oracle(prob, C[m * K], q[m * K])
            U[m] = saddle.solve(np.zeros(saddle.n_int), F)[0]
            if m == M:
                break
            for k in range(K):
                n = m * K + k
                if m == 0 or k == 0:
                    u = U[m]                      # node value; constant first interval
                else:
                    s = k / K                     # through the two most recent nodes
                    u = (1.0 + s) * U[m] - s * U[m - 1]
                E, H, G = asm.assemble_saturation_state(
                    fes.P1DGField(mesh, C[n]), fes.RT0Field(mesh, u), wells, q[n + 1],
                    ws, prob.xi,
                )
                if steps is None:
                    step = dict(steps=sol._StepSolver(ws.step_ordering, rc.solver_tol))
                else:
                    step = dict(steps=steps, keep=k < K - 1)
                C[n + 1] = sol.step_saturation_forward(
                    C[n].ravel(), ws.D, E, H, G, rc.dt, "saturation step", **step
                ).reshape(C[n].shape)
                residuals.append(step_residual(ws.D + rc.dt * (E + H), C[n + 1].ravel(),
                                               ws.D @ C[n].ravel() + rc.dt * G))
        return C, U, residuals

    steps = sol._StepSolver(ws.step_ordering, rc.solver_tol)
    C, U, residuals = march(steps)
    assert np.array_equal(traj.C, C)
    assert np.array_equal(traj.U, U)
    assert (steps.steps, steps.fresh, steps.reused) == (16, 8, 8)
    assert max(residuals) <= rc.solver_tol

    fresh_C, fresh_U, _ = march(None)
    assert not np.array_equal(C, fresh_C)
    assert relative_difference(C, fresh_C) <= 1e-8
    assert relative_difference(U, fresh_U) <= 1e-8


def delayed(fn, seconds=0.005):
    """``fn`` that sleeps ``seconds`` before each call."""

    @functools.wraps(fn)
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)

    return slow


def test_two_grid_adjoint_matches_oracle(monkeypatch):
    # the oracle marches on this thread with a step solver of its own on the
    # sweep's schedule and must match the helper's march bitwise; the march
    # with a fresh factor per step stays within 1e-8 of it
    prob, q = two_grid_problem()
    mesh, wells, rc, ws = prob.mesh, prob.wells, prob.rc, prob.ws
    M, K = rc.m_steps, rc.substeps
    fine = rc.fine_times()
    traj = sol.run_forward(prob, q)
    C, U = traj.C, traj.U

    def march(steps):
        """C*, U*, P* and each step's relative residual; without ``steps``,
        every step is factored and solved on its own."""
        Cstar = np.empty_like(C)
        Ustar = np.zeros_like(U)
        Pstar = np.zeros_like(traj.P)
        Cstar[-1] = 0.0
        residuals = []
        for m in range(M, -1, -1):
            saddle, _ = darcy_oracle(prob, C[m * K], q[m * K])
            Fstar = asm.assemble_darcy_costate_rhs(
                fes.P1DGField(mesh, C[m * K]), fes.P1DGField(mesh, Cstar[m * K]), ws
            )
            Ustar[m], Pstar[m], _ = saddle.solve(Fstar, np.zeros(mesh.num_triangles))
            if m == 0:
                break
            # fine levels j = (m-1)K + k of the interval (m-1, m], latest first
            for k in range(K, 0, -1):
                j = (m - 1) * K + k
                if k == K:
                    u, us = U[m], Ustar[m]
                else:
                    s = k / K                     # state: through nodes m-1 and m-2
                    u = U[0] if m == 1 else (1.0 + s) * U[m - 1] - s * U[m - 2]
                    s = (K - k) / K               # costate: through nodes m and m+1
                    us = Ustar[M] if m == M else (1.0 + s) * Ustar[m] - s * Ustar[m + 1]
                cf = fes.P1DGField(mesh, C[j])
                uf, usf = fes.RT0Field(mesh, u), fes.RT0Field(mesh, us)
                E, H, _ = asm.assemble_saturation_state(cf, uf, wells, q[j], ws, prob.xi)
                D = ws.D
                R, S = asm.assemble_saturation_costate(cf, wells, q[j], ws)
                W, Z = asm.assemble_costate_loads(cf, uf, usf, wells, fine[j], ws)
                # D + dt (-E + H + S + R), summed in this order, on this thread
                data = (H.data - E.data + S.data + R.data) * rc.dt + D.data
                lhs = sp.csc_matrix((data, D.indices, D.indptr), D.shape)
                rhs = D @ Cstar[j].ravel() + rc.dt * (W - Z)
                if steps is None:
                    own = sol._StepSolver(ws.step_ordering, rc.solver_tol)
                    own.factor(lhs, "costate step")
                    x = own.solve(rhs)
                else:
                    # step j - 1's factor serves step j - 2 of the same interval
                    steps.factor(lhs, "costate step", keep=k > 1)
                    x = steps.solve(rhs)
                Cstar[j - 1] = x.reshape(C[j].shape)
                residuals.append(step_residual(lhs, x, rhs))
        return Cstar, Ustar, Pstar, residuals

    steps = sol._StepSolver(ws.step_ordering, rc.solver_tol)
    Cstar, Ustar, Pstar, residuals = march(steps)
    assert np.abs(Cstar[0]).max() > 0.0
    assert (steps.steps, steps.fresh, steps.reused) == (16, 8, 8)
    assert max(residuals) <= rc.solver_tol
    fresh = march(None)
    assert not np.array_equal(Cstar, fresh[0])
    for ours, theirs in zip((Cstar, Ustar, Pstar), fresh):
        assert relative_difference(ours, theirs) <= 1e-8

    # the march as it runs, then with its helper thread slowed down (each
    # factorization waits) and with the main thread slowed down (each step
    # matrix waits): the schedule changes, the bits do not
    for slow_down in (None, (sol.spla, "splu"), (sol, "assemble_saturation_state")):
        if slow_down is not None:
            owner, name = slow_down
            monkeypatch.setattr(owner, name, delayed(getattr(owner, name)))
        sol.run_adjoint(prob, traj)
        monkeypatch.undo()
        assert np.array_equal(traj.Cstar, Cstar), slow_down
        assert np.array_equal(traj.Ustar, Ustar), slow_down
        assert np.array_equal(traj.Pstar, Pstar), slow_down


def test_two_grid_splitting_is_second_order_in_coarse_step():
    # Darcy on the coarse grid (dT = K dt) with the velocity extrapolated to
    # the fine steps, against the K = 1 run on the same fine grid (N = 32).
    # Measured on this problem, the distances fall by 2^2.68 and 2^2.23 for
    # C (2^2.63 and 2^2.20 for C*) over the levels K = 2 -> 4 -> 8; at
    # K = 16 and 32 the order drops towards 1.4.  The costate, whose last
    # interval keeps its velocity constant, loses no order against the state.
    N = 32
    q = 0.3 + 0.5 * np.linspace(0.0, 1.0, N + 1) ** 2
    runs = {}
    for M in (4, 8, 16, 32):
        prob = make_problem(n=4, m_steps=M, n_steps=N, wtilde=2.0)
        runs[M] = sol.run_adjoint(prob, sol.run_forward(prob, q))
    ref = runs[N]
    for field in ("C", "Cstar"):
        dist = [np.abs(getattr(runs[M], field) - getattr(ref, field)).max() for M in (16, 8, 4)]
        orders = np.log2(np.array(dist[1:]) / np.array(dist[:-1]))
        assert dist[0] > 0.0, field
        assert orders.min() >= 2.0, (field, dist, orders)


class OwnedFactor:
    """A factor that notes in ``record`` the threads that made and dropped it."""

    def __init__(self, lu, record):
        self._lu, self._record = lu, record
        record["made"] = threading.get_ident()

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def __del__(self):
        self._record["dropped"] = threading.get_ident()


def failing_splu_at(call, size, records=None):
    """An ``splu`` that fails on its ``call``-th factorization of a
    (size, size) matrix.  With ``records``, each factor it makes of such a
    matrix is an :class:`OwnedFactor` noting into a dict appended there."""
    splu = sol.spla.splu
    count = [0]

    def fake(A, *args, **kwargs):
        if A.shape != (size, size):
            return splu(A, *args, **kwargs)
        count[0] += 1
        if count[0] == call:
            raise RuntimeError("injected failure")
        lu = splu(A, *args, **kwargs)
        if records is None:
            return lu
        records.append({})
        return OwnedFactor(lu, records[-1])

    return fake


def failing_solve_at(call):
    """A ``DarcySaddle.solve`` that raises on its ``call``-th call."""
    solve = sol.DarcySaddle.solve
    count = [0]

    def fake(self, rhs_u, rhs_p):
        count[0] += 1
        if count[0] == call:
            raise SolverError("injected failure")
        return solve(self, rhs_u, rhs_p)

    return fake


def test_darcy_failures_name_their_coarse_step(monkeypatch):
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    M = prob.rc.m_steps
    q = np.full(prob.rc.n_steps + 1, 0.5)
    traj = sol.run_forward(prob, q)

    # the forward's last (M + 1-th) Darcy solve
    monkeypatch.setattr(sol.DarcySaddle, "solve", failing_solve_at(M + 1))
    with pytest.raises(SolverError, match=f"coarse step {M}: injected failure"):
        sol.run_forward(prob, q)
    # the adjoint's first costate Darcy solve, at the final node.  The
    # factorization of step N - 1, queued before it, is made on the helper
    # (the failure is held back until it has started), dropped there when
    # the sweep raises, and the helper is joined
    records = []
    monkeypatch.setattr(sol.spla, "splu",
                        failing_splu_at(None, 3 * prob.mesh.num_triangles, records))
    monkeypatch.setattr(sol.DarcySaddle, "solve", delayed(failing_solve_at(1), 0.05))
    threads = threading.active_count()
    with pytest.raises(SolverError, match=f"coarse step {M}: injected failure"):
        sol.run_adjoint(prob, traj)
    assert threading.active_count() == threads
    assert len(records) == 1
    assert records[0].get("dropped") == records[0]["made"] != threading.get_ident()


def test_step_factors_are_dropped_on_the_thread_that_made_them(monkeypatch):
    # scipy frees a SuperLU factor dropped on another thread than the one
    # that made it never; the forward's factors live on this thread, the
    # adjoint's on its helper, which is joined when the sweep returns
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    N = prob.rc.n_steps
    q = np.full(N + 1, 0.5)
    records = []
    monkeypatch.setattr(sol.spla, "splu",
                        failing_splu_at(None, 3 * prob.mesh.num_triangles, records))
    threads = threading.active_count()
    traj = sol.run_forward(prob, q)
    sol.run_adjoint(prob, traj)
    assert threading.active_count() == threads
    main = threading.get_ident()
    assert [r["made"] == main for r in records] == [True] * N + [False] * N
    assert all(r.get("dropped") == r["made"] for r in records), records


def test_step_failures_name_their_step_and_c_range(monkeypatch):
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    q = np.full(prob.rc.n_steps + 1, 0.5)
    traj = sol.run_forward(prob, q)
    sol.run_adjoint(prob, traj)
    size = 3 * prob.mesh.num_triangles

    def message(kind, m, n, c):
        return re.escape(f"{kind} (m={m}, n={n}, C in [{c.min():.3g}, {c.max():.3g}]): "
                         "factorization failed: injected failure")

    # the forward's third step, n = 2, opens coarse interval 2; its
    # coefficients are taken at C^2
    monkeypatch.setattr(sol.spla, "splu", failing_splu_at(3, size))
    with pytest.raises(SolverError, match="^" + message("saturation step", 2, 2, traj.C[2])):
        sol.run_forward(prob, q)
    # the adjoint's second costate step, n = 2, takes its coefficients at C^3;
    # step 3's factor was dropped on the helper, and the helper is joined
    records = []
    monkeypatch.setattr(sol.spla, "splu", failing_splu_at(2, size, records))
    threads = threading.active_count()
    with pytest.raises(SolverError,
                       match="^" + message("costate saturation step", 2, 2, traj.C[3])):
        sol.run_adjoint(prob, traj)
    assert threading.active_count() == threads
    main = threading.get_ident()
    assert len(records) == 1
    assert all(r.get("dropped") == r["made"] != main for r in records), records


def test_costate_step_residual_failure_on_the_helper_names_the_step(monkeypatch):
    # no costate step reaches a relative residual of 1e-300 (the costate
    # Darcy solves keep the forward's tolerance); the first step, n = 3,
    # fails on the helper, its factor is dropped there, and the helper is joined
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    traj = sol.run_forward(prob, np.full(prob.rc.n_steps + 1, 0.5))
    strict = dataclasses.replace(prob, rc=dataclasses.replace(prob.rc, solver_tol=1e-300))
    records = []
    monkeypatch.setattr(sol.spla, "splu",
                        failing_splu_at(None, 3 * prob.mesh.num_triangles, records))
    threads = threading.active_count()
    with pytest.raises(SolverError, match=r"^costate saturation step \(m=2, n=3, C in .*\): "
                                          r"residual .* exceeds 1\.0e-300 \(1-norm ~ \d"):
        sol.run_adjoint(strict, traj)
    assert threading.active_count() == threads
    assert len(records) == 1
    assert records[0].get("dropped") == records[0]["made"] != threading.get_ident()


def test_step_residual_failure_names_the_step_and_its_norm():
    prob = make_problem()
    ws, q = prob.ws, prob.q_initial()
    c = fes.P1DGField(prob.mesh, prob.c0_values)
    u = sol._darcy_at(prob, prob.c0_values, q[0], 0.0)[0]
    E, H, G = asm.assemble_saturation_state(c, fes.RT0Field(prob.mesh, u), prob.wells,
                                            q[1], ws, prob.xi)
    with pytest.raises(SolverError, match=r"^saturation step \(m=0, n=0\): residual "
                                          r".* exceeds 1\.0e-300 \(1-norm ~ \d"):
        sol.step_saturation_forward(prob.c0_values.ravel(), ws.D, E, H, G, prob.rc.dt,
                                    "saturation step (m=0, n=0)",
                                    sol._StepSolver(ws.step_ordering, 1e-300))


def test_step_error_gives_the_exact_norm_of_a_large_matrix():
    # the 1-norm in a step's error message is the largest column sum of |A|
    # at every size, an n = 64 step's 24,576 rows included
    n = 24576
    A = sp.diags([np.full(n - 1, -1.0), np.arange(1.0, n + 1), np.full(n - 1, 2.0)],
                 [-1, 0, 1], format="csc")
    assert sol._one_norm(A) == f" (1-norm ~ {n + 2:.3e})"


# ---------------------------------------------------------------------------
# step pairs: a fresh factor serves the next step of its coarse interval
# ---------------------------------------------------------------------------

def forward_step_system(prob, traj, n):
    """Forward step n's matrix on the workspace pattern, and its load."""
    ws, rc = prob.ws, prob.rc
    E, H, G = asm.assemble_saturation_state(
        fes.P1DGField(prob.mesh, traj.C[n]),
        fes.RT0Field(prob.mesh, sol.state_velocity(traj.U, n, rc.substeps)),
        prob.wells, traj.q[n + 1], ws, prob.xi,
    )
    D = ws.D
    lhs = sp.csc_matrix((D.data + rc.dt * (E.data + H.data), D.indices, D.indptr), D.shape)
    return lhs, D @ traj.C[n].ravel() + rc.dt * G


def test_reused_step_matches_a_direct_solve():
    prob, q = two_grid_problem()
    ws, tol = prob.ws, prob.rc.solver_tol
    traj = sol.run_forward(prob, q)
    first, second = (forward_step_system(prob, traj, n) for n in (5, 6))
    steps = sol._StepSolver(ws.step_ordering, tol)
    steps.factor(first[0], "step 5", keep=True)
    steps.solve(first[1])
    steps.factor(second[0], "step 6")
    x = steps.solve(second[1])
    assert (steps.steps, steps.fresh, steps.reused, steps.fallbacks) == (2, 1, 1, 0)
    assert 2 <= steps.most_passes <= sol.REUSE_PASSES
    assert step_residual(second[0], x, second[1]) <= tol
    ref = np.linalg.solve(second[0].toarray(), second[1])
    assert relative_difference(x, ref) <= 1e-9
    # the pair is spent: the next step is factored afresh
    steps.factor(second[0], "step 6 again")
    assert steps.fresh == 2


def march_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == sol.log.name]


def test_each_march_logs_its_step_counts(caplog):
    prob, q = two_grid_problem()
    caplog.set_level(logging.INFO, logger="porous_opt")
    sol.run_adjoint(prob, sol.run_forward(prob, q))
    lines = march_lines(caplog)
    assert len(lines) == 2, lines
    for line, march in zip(lines, ("forward", "costate")):
        found = re.fullmatch(f"{march} march: 16 steps, 8 fresh factors, 8 reused, "
                             r"0 fallbacks, most passes (\d+) fresh, (\d+) reused", line)
        assert found, line
        # a single-precision factor needs at least two passes to reach round-off
        assert 2 <= int(found[1]) <= sol.REUSE_PASSES
        assert 2 <= int(found[2]) <= sol.REUSE_PASSES


def test_stalled_pairs_fall_back_to_the_fresh_march(monkeypatch, caplog):
    # at this coarse dt every held factor stalls, so each step it was to
    # serve is factored afresh and the sweeps are bitwise those that factor
    # every step
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    q = np.full(prob.rc.n_steps + 1, 0.5)
    caplog.set_level(logging.INFO, logger="porous_opt")
    paired = sol.run_adjoint(prob, sol.run_forward(prob, q))
    assert march_lines(caplog) == [
        f"{march} march: 4 steps, 4 fresh factors, 0 reused, 2 fallbacks, "
        "most passes 4 fresh, 0 reused"
        for march in ("forward", "costate")
    ]
    factor = sol._StepSolver.factor
    monkeypatch.setattr(sol._StepSolver, "factor",
                        lambda self, A, what, keep=False: factor(self, A, what))
    fresh = sol.run_adjoint(prob, sol.run_forward(prob, q))
    for name in ("C", "U", "P", "Cstar", "Ustar", "Pstar"):
        assert np.array_equal(getattr(paired, name), getattr(fresh, name)), name


def test_failing_fresh_factor_after_a_fallback_names_the_step_and_its_norm(monkeypatch):
    # no pass reaches tol = 1e-300, so the held factor gives way to a fresh
    # one, whose refined residual then fails with the step's name; both
    # factors are dropped before the error reaches the caller
    prob, q = two_grid_problem()
    ws = prob.ws
    traj = sol.run_forward(prob, q)
    records = []
    monkeypatch.setattr(sol.spla, "splu",
                        failing_splu_at(None, 3 * prob.mesh.num_triangles, records))
    steps = sol._StepSolver(ws.step_ordering, prob.rc.solver_tol)
    first, second = (forward_step_system(prob, traj, n) for n in (5, 6))
    steps.factor(first[0], "step 5", keep=True)
    steps.solve(first[1])
    steps.factor(second[0], "saturation step (m=2, n=6)")
    steps._tol = 1e-300  # the second step is solved to a tolerance no pass reaches
    with pytest.raises(SolverError, match=r"^saturation step \(m=2, n=6\): residual "
                                          r".* exceeds 1\.0e-300 \(1-norm ~ \d"):
        steps.solve(second[1])
    assert (steps.fresh, steps.reused, steps.fallbacks) == (2, 0, 1)
    assert not steps.taken
    main = threading.get_ident()
    assert len(records) == 2
    assert all(r.get("dropped") == r["made"] == main for r in records), records


class CountedFactor(OwnedFactor):
    """An :class:`OwnedFactor` that also counts the factors alive on each thread."""

    def __init__(self, lu, record, live, peak):
        super().__init__(lu, record)
        self._live = live
        thread = record["made"]
        live[thread] += 1
        peak[thread] = max(peak[thread], live[thread])

    def __del__(self):
        super().__del__()
        self._live[self._record["made"]] -= 1


def test_pairs_hold_one_factor_per_thread_and_drop_each_on_its_own(monkeypatch):
    prob, q = two_grid_problem()
    size = 3 * prob.mesh.num_triangles
    splu = sol.spla.splu
    records, live, peak = [], collections.Counter(), collections.Counter()

    def counted(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        if A.shape != (size, size):
            return lu
        records.append({})
        return CountedFactor(lu, records[-1], live, peak)

    monkeypatch.setattr(sol.spla, "splu", counted)
    threads = threading.active_count()
    sol.run_adjoint(prob, sol.run_forward(prob, q))
    assert threading.active_count() == threads
    main = threading.get_ident()
    # 16 steps per march, solved in pairs: 8 factors on this thread, 8 on the helper
    assert [r["made"] == main for r in records] == [True] * 8 + [False] * 8
    assert all(r.get("dropped") == r["made"] for r in records), records
    assert set(peak.values()) == {1}
    assert set(live.values()) == {0}


def test_trajectory_is_freed_without_the_cycle_collector():
    # a reference cycle through the sweeps would keep every trajectory until
    # the cycle collector runs, which a benchmark loop never calls
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    q = np.full(prob.rc.n_steps + 1, 0.5)
    gc.disable()
    try:
        traj = sol.run_adjoint(prob, sol.run_forward(prob, q))
        ref = weakref.ref(traj)
        del traj
        assert ref() is None
    finally:
        gc.enable()


# the names perfbench/spans.py traces that a forward + adjoint sweep calls,
# where the sweeps look them up; its tracer keeps one span stack, so none
# of them may run on the adjoint's helper thread
TRACED = [
    (sol, "assemble_darcy"),
    (sol, "assemble_saturation_state"),
    (sol, "assemble_saturation_costate"),
    (sol, "assemble_darcy_costate_rhs"),
    (sol.DarcySaddle, "__init__"),
    (sol.DarcySaddle, "solve"),
    (sol, "step_saturation_forward"),
    (sol, "step_saturation_backward"),
    (sol, "run_forward"),
    (sol, "run_adjoint"),
]


def test_traced_layers_run_on_the_main_thread(monkeypatch):
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0)
    N = prob.rc.n_steps
    q = np.full(N + 1, 0.5)
    calls = []

    def recorded(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident(), threading.active_count()))
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in TRACED:
        monkeypatch.setattr(owner, name, recorded(name, vars(owner)[name]))
    threads = threading.active_count()
    sol.run_adjoint(prob, sol.run_forward(prob, q))
    names = [name for name, _, _ in calls]
    assert set(names) == {name for _, name in TRACED}
    assert {ident for _, ident, _ in calls} == {threading.get_ident()}
    # the adjoint's helper is the only thread a sweep starts
    assert max(count for _, _, count in calls) == threads + 1
    assert names.count("assemble_saturation_costate") == N
    assert names.count("step_saturation_backward") == N
    assert names.count("assemble_saturation_state") == 2 * N
