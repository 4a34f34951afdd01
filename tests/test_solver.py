import dataclasses
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from porous_opt import assembly as asm
from porous_opt import fespaces as fes
from porous_opt import solver as sol
from porous_opt.config import parse_config
from porous_opt.errors import CompatibilityError, PorousOptError, SolverError
from porous_opt.mesh import build_barycentric_dual, square_mesh
from porous_opt.model import RunConfig, default_model, wells_from_tris
from porous_opt.quadrature import QuadratureRule

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def setup():
    mesh = square_mesh(8)
    model = default_model()
    ws = asm.AssemblyWorkspace(mesh, build_barycentric_dual(mesh), model, QuadratureRule())
    wells = wells_from_tris(mesh, [0, 1], [126, 127], T=1.0)
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
    A, B, F = assemble(setup, 0.0)
    u, p, _ = sol.DarcySaddle(A, B, mesh).solve(np.zeros(A.shape[0]), F)
    assert np.abs(u).max() < 1e-12
    assert np.abs(p).max() < 1e-12


def test_mass_equation_projection(setup):
    mesh, model, ws, wells = setup
    A, B, F = assemble(setup, 0.8)
    u, p, rep = sol.DarcySaddle(A, B, mesh).solve(np.zeros(A.shape[0]), F)
    # elementwise divergence equals the L2 projection of (r0 - r1) q
    div = fes.RT0Field(mesh, u).divergence().values
    target = F / mesh.tri_area
    assert np.abs(div - target).max() < 1e-10
    assert rep.mass_residual <= 1e-10
    assert rep.residual <= 1e-10


def test_pressure_zero_mean(setup):
    mesh, model, ws, wells = setup
    A, B, F = assemble(setup, 0.8)
    _, p, _ = sol.DarcySaddle(A, B, mesh).solve(np.zeros(A.shape[0]), F)
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
    A, B, _ = assemble(setup, 0.0)
    ustar, pstar, _ = sol.DarcySaddle(A, B, mesh).solve(
        np.zeros(len(mesh.interior_edges)), np.zeros(mesh.num_triangles)
    )
    assert np.abs(ustar).max() < 1e-12
    assert np.abs(pstar).max() < 1e-12


def test_costate_divergence_free(setup):
    mesh, model, ws, wells = setup
    A, B, _ = assemble(setup, 0.0)
    Fstar = RNG.normal(size=len(mesh.interior_edges))
    ustar, _, _ = sol.DarcySaddle(A, B, mesh).solve(Fstar, np.zeros(mesh.num_triangles))
    assert np.abs(fes.RT0Field(mesh, ustar).divergence().values).max() <= 1e-10


def test_factorization_reuse_identical_and_faster(setup):
    mesh, model, ws, wells = setup
    A, B, _ = assemble(setup, 0.0)
    Fstar = RNG.normal(size=len(mesh.interior_edges))
    zeros = np.zeros(mesh.num_triangles)

    t0 = time.perf_counter()
    saddle = sol.DarcySaddle(A, B, mesh)
    u1, p1, _ = saddle.solve(Fstar, zeros)
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    u2, p2, _ = saddle.solve(Fstar, zeros)
    t_reuse = time.perf_counter() - t0

    assert np.array_equal(u1, u2)
    assert np.array_equal(p1, p2)
    assert t_reuse < t_build


def test_incompatible_pressure_load_rejected_by_saddle(setup):
    # the pinned factor drops the first mass equation; the residual check on
    # the full system must still see a load that violates it
    mesh, model, ws, wells = setup
    A, B, F = assemble(setup, 0.8)
    saddle = sol.DarcySaddle(A, B, mesh)
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
    wells = wells_from_tris(mesh, [0, 1], [30, 31], T=1.0)
    c = fes.P1DGField.interpolate(mesh, lambda p: 0.2 + 0.6 * p[:, 0] * p[:, 1])
    A, B, F = asm.assemble_darcy(c, wells, 0.8, ws)
    rhs_u = RNG.normal(size=A.shape[0])
    u, p, _ = sol.DarcySaddle(A, B, mesh).solve(rhs_u, F)

    u_ref, p_ref = dense_multiplier_solve(A, B, mesh, rhs_u, F)
    assert np.abs(u[mesh.interior_edges] - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
    assert np.abs(p - p_ref).max() <= 1e-10 * np.abs(p_ref).max()


def test_saddle_velocity_is_zero_on_boundary_edges(setup):
    # the solve returns one coefficient per edge: the slip condition on the
    # boundary edges, the solved unknowns in mesh order on the others
    mesh, model, ws, wells = setup
    A, B, F = assemble(setup, 0.8)
    rhs_u = RNG.normal(size=A.shape[0])
    u, _, _ = sol.DarcySaddle(A, B, mesh).solve(rhs_u, F)
    u_ref, _ = dense_multiplier_solve(A, B, mesh, rhs_u, F)
    assert u.shape == (mesh.num_edges,)
    assert mesh.boundary_edge.sum() == 32
    assert np.all(u[mesh.boundary_edge] == 0.0)
    assert np.abs(u[~mesh.boundary_edge] - u_ref).max() <= 1e-10 * np.abs(u_ref).max()


def test_saddle_factor_has_no_dense_row_or_column(setup, monkeypatch):
    # guards against a bordered zero-mean row/column coming back: on this
    # mesh A couples an edge with at most 13 others and -B^T adds two
    # pressures, while a multiplier row would hold all 128 pressures
    mesh, model, ws, wells = setup
    A, B, _ = assemble(setup, 0.8)
    factored = []
    splu = sol.spla.splu

    def capture(K, *args, **kwargs):
        factored.append(K)
        return splu(K, *args, **kwargs)

    monkeypatch.setattr(sol.spla, "splu", capture)
    sol.DarcySaddle(A, B, mesh)
    (K,) = factored
    K = K.tocsc()
    assert np.diff(K.indptr).max() <= 15
    assert np.diff(K.tocsr().indptr).max() <= 15


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
            fills.append((lu.nnz, splu(K, permc_spec="COLAMD").nnz))
        return lu

    monkeypatch.setattr(sol.spla, "splu", record)
    traj = sol.run_forward(prob, prob.q_initial())
    sol.run_adjoint(prob, traj)
    assert len(fills) == 4  # two forward steps, two costate steps
    for nnz, colamd in fills:
        assert nnz <= 2 * colamd, fills


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
# the dof graph: measured 70,080 against 71,142 on the config (and
# 2,115,438 against 2,148,630 at n = 64), but 19,068 against 18,690 (+2.0 %)
# on the unstructured mesh.
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


def test_step_factor_uses_the_workspace_order(config_problem, monkeypatch):
    # a step matrix on the minimum-degree branch is factored pre-permuted:
    # fill as SuperLU's own MMD on it (FILL_OVER_MMD), the same solution,
    # and no reference to the factor survives the step
    name, prob = config_problem
    ws, rc = prob.ws, prob.rc
    order = ws.step_ordering
    c = fes.P1DGField(prob.mesh, prob.c0_values)
    q = prob.q_initial()
    u = sol._darcy_at(prob, prob.c0_values, q[0], 0.0)[0]
    D, E, H, G = asm.assemble_saturation_state(c, fes.RT0Field(prob.mesh, u), prob.wells,
                                               q[1], ws, prob.xi)
    lhs = sp.csc_matrix((D.data + rc.dt * (E.data + H.data), D.indices, D.indptr), D.shape)
    assert np.array_equal(lhs.data[order.diag_slot], lhs.diagonal())
    assert sol._diagonal_dominates_columns(lhs, order.diag_slot)

    splu = sol.spla.splu
    factors = []

    def record(K, *args, **kwargs):
        lu = splu(K, *args, **kwargs)
        factors.append((lu, kwargs["permc_spec"]))
        return lu

    monkeypatch.setattr(sol.spla, "splu", record)
    c_vec = prob.c0_values.ravel()
    x = sol.step_saturation_forward(c_vec, D, E, H, G, rc.dt, rc.solver_tol, ordering=order)
    monkeypatch.undo()
    (lu, spec), = factors
    assert spec == "NATURAL"
    del factors[:]
    # only ``lu`` (and getrefcount's argument) refer to the factor
    assert sys.getrefcount(lu) == 2

    fresh = splu(lhs, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    assert lu.nnz <= FILL_OVER_MMD[name] * fresh.nnz
    ref = fresh.solve(D @ c_vec + rc.dt * G)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# one nested-dissection order per Darcy saddle
# ---------------------------------------------------------------------------

def test_saddle_ordering_permutes_the_pinned_unknowns(config_problem):
    ws = config_problem[1].ws
    n_int, n_t = ws.n_int, ws.mesh.num_triangles
    order = ws.saddle_ordering
    assert ws.saddle_ordering is order
    # every unknown but the pinned first pressure (n_int), once
    assert np.array_equal(np.sort(order.perm), np.delete(np.arange(n_int + n_t), n_int))
    assert np.array_equal(order.pos[order.perm], np.arange(n_int + n_t - 1))
    assert order.pos[n_int] == -1


def test_saddle_factor_uses_the_mesh_order(config_problem, monkeypatch):
    # the first Darcy system of the run (constant C, so 8 entries of A
    # cancel on the config's mesh) is factored in the mesh's order, with no
    # more fill than COLAMD on the same matrix (measured 54,355 against
    # 87,772 on the config and 17,299 against 21,588 on the unstructured
    # mesh), and solved as COLAMD and the dense bordered system solve it;
    # a saddle that builds its own order agrees bitwise
    _, prob = config_problem
    mesh, ws = prob.mesh, prob.ws
    c = fes.P1DGField(mesh, prob.c0_values)
    A, B, F = asm.assemble_darcy(c, prob.wells, prob.q_initial()[0], ws)
    rhs_u = RNG.normal(size=A.shape[0])

    splu = sol.spla.splu
    specs = []

    def record(K, *args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(K, *args, **kwargs)

    monkeypatch.setattr(sol.spla, "splu", record)
    saddle = sol.DarcySaddle(A, B, mesh, prob.rc.solver_tol, ws.saddle_ordering)
    monkeypatch.undo()
    assert specs == ["NATURAL"]
    assert saddle.ordering is ws.saddle_ordering
    u, p, _ = saddle.solve(rhs_u, F)

    n = A.shape[0]
    K = sp.bmat([[A, -B[1:].T], [B[1:], None]], format="csc")
    colamd = splu(K, permc_spec="COLAMD")
    assert saddle.lu.nnz <= colamd.nnz
    x = np.insert(colamd.solve(np.delete(np.concatenate([rhs_u, F]), n)), n, 0.0)
    x[n:] -= (mesh.tri_area @ x[n:]) / mesh.tri_area.sum()
    u_dense, p_dense = dense_multiplier_solve(A, B, mesh, rhs_u, F)
    for u_ref, p_ref in ((x[:n], x[n:]), (u_dense, p_dense)):
        assert np.abs(u[mesh.interior_edges] - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
        assert np.abs(p - p_ref).max() <= 1e-12 * np.abs(p_ref).max()

    own = sol.DarcySaddle(A, B, mesh, prob.rc.solver_tol)
    assert own.ordering is not ws.saddle_ordering
    u2, p2, _ = own.solve(rhs_u, F)
    assert np.array_equal(u2, u)
    assert np.array_equal(p2, p)


def test_saddle_ordering_is_built_at_the_first_darcy_solve():
    prob = make_problem(n=6, m_steps=3, n_steps=6)
    assert "saddle_ordering" not in vars(prob.ws)
    traj = sol.run_forward(prob, np.full(prob.rc.n_steps + 1, 0.5))
    order = vars(prob.ws)["saddle_ordering"]
    assert len(traj.saddles) == prob.rc.m_steps + 1
    assert all(s.ordering is order for s in traj.saddles.values())


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


def test_control_bounds_enforced():
    prob = make_problem()
    q = np.full(prob.rc.n_steps + 1, 2.0)  # above qhat = 1
    with pytest.raises(PorousOptError):
        sol.run_forward(prob, q)


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
        A, B, F = asm.assemble_darcy(cf, wells, q[i], ws)
        u, p, _ = sol.DarcySaddle(A, B, mesh).solve(np.zeros(A.shape[0]), F)
        Us.append(u.copy())
        Ps.append(p.copy())
        D, E, H, G = asm.assemble_saturation_state(
            cf, fes.RT0Field(mesh, u), wells, q[i + 1], ws, prob.xi
        )
        C = sol.step_saturation_forward(C.ravel(), D, E, H, G, rc.dt).reshape(C.shape)
        Cs.append(C.copy())
    cf = fes.P1DGField(mesh, C)
    A, B, F = asm.assemble_darcy(cf, wells, q[-1], ws)
    u, _, _ = sol.DarcySaddle(A, B, mesh).solve(np.zeros(A.shape[0]), F)
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
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, wtilde=0.0)

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


def test_backward_step_trivial_zero():
    # zero terminal data and zero loads propagate zero
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=0.0)
    mesh, ws = prob.mesh, prob.ws
    c = fes.P1DGField.constant(mesh, 0.5)
    u = fes.RT0Field.zero(mesh)
    D, E, H, _ = asm.assemble_saturation_state(c, u, prob.wells,
                                               0.0, ws, prob.xi)
    R, S, W, Z = asm.assemble_saturation_costate(c, u, u, prob.wells, 0.0, 0.2, ws)
    out = sol.step_saturation_backward(np.zeros(3 * mesh.num_triangles),
                                       D, E, H, S, R, W, Z, prob.rc.dt)
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
    D, E, H, G = asm.assemble_saturation_state(c, u, prob.wells,
                                               q[2], ws, prob.xi)
    R, S, W, Z = asm.assemble_saturation_costate(c, u, us, prob.wells, q[2], 0.5, ws)
    c_prev = traj.C[1].ravel()
    cstar_next = traj.Cstar[3].ravel()
    assert np.abs(cstar_next).max() > 0.0

    fwd = sol.step_saturation_forward(c_prev, D, E, H, G, dt)
    ref = np.linalg.solve((D + dt * (E + H)).toarray(), D @ c_prev + dt * G)
    assert np.abs(fwd - ref).max() <= 1e-12 * np.abs(ref).max()

    bwd = sol.step_saturation_backward(cstar_next, D, E, H, S, R, W, Z, dt)
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
    A, B, F = asm.assemble_darcy(cf, prob.wells, q, prob.ws)
    return sol.DarcySaddle(A, B, prob.mesh, prob.rc.solver_tol), F


def test_two_grid_forward_matches_oracle():
    prob, q = two_grid_problem()
    mesh, wells, rc, ws = prob.mesh, prob.wells, prob.rc, prob.ws
    M, K = rc.m_steps, rc.substeps
    assert K == 4
    traj = sol.run_forward(prob, q)

    C = np.empty_like(traj.C)
    U = np.zeros_like(traj.U)
    C[0] = prob.c0_values
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
            D, E, H, G = asm.assemble_saturation_state(
                fes.P1DGField(mesh, C[n]), fes.RT0Field(mesh, u), wells, q[n + 1],
                ws, prob.xi,
            )
            C[n + 1] = sol.step_saturation_forward(
                C[n].ravel(), D, E, H, G, rc.dt, rc.solver_tol
            ).reshape(C[n].shape)

    assert np.array_equal(traj.C, C)
    assert np.array_equal(traj.U, U)


def test_two_grid_adjoint_matches_oracle():
    prob, q = two_grid_problem()
    mesh, wells, rc, ws = prob.mesh, prob.wells, prob.rc, prob.ws
    M, K = rc.m_steps, rc.substeps
    fine = rc.fine_times()
    traj = sol.run_forward(prob, q)
    sol.run_adjoint(prob, traj)
    C, U = traj.C, traj.U

    Cstar = np.empty_like(C)
    Ustar = np.zeros_like(U)
    Cstar[-1] = 0.0
    for m in range(M, -1, -1):
        saddle, _ = darcy_oracle(prob, C[m * K], q[m * K])
        Fstar = asm.assemble_darcy_costate_rhs(
            fes.P1DGField(mesh, C[m * K]), fes.P1DGField(mesh, Cstar[m * K]), ws
        )
        Ustar[m] = saddle.solve(Fstar, np.zeros(mesh.num_triangles))[0]
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
            D, E, H, _ = asm.assemble_saturation_state(cf, uf, wells, q[j], ws, prob.xi)
            R, S, W, Z = asm.assemble_saturation_costate(
                cf, uf, usf, wells, q[j], fine[j], ws
            )
            Cstar[j - 1] = sol.step_saturation_backward(
                Cstar[j].ravel(), D, E, H, S, R, W, Z, rc.dt, rc.solver_tol
            ).reshape(C[j].shape)

    assert np.abs(Cstar[0]).max() > 0.0
    assert np.array_equal(traj.Cstar, Cstar)
    assert np.array_equal(traj.Ustar, Ustar)


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
    # the adjoint's first costate Darcy solve, at the final node
    monkeypatch.setattr(sol.DarcySaddle, "solve", failing_solve_at(1))
    with pytest.raises(SolverError, match=f"coarse step {M}: injected failure"):
        sol.run_adjoint(prob, traj)


def failing_splu_at(call, size):
    """An ``splu`` that fails on its ``call``-th factorization of a
    (size, size) matrix."""
    splu = sol.spla.splu
    count = [0]

    def fake(A, *args, **kwargs):
        if A.shape == (size, size):
            count[0] += 1
            if count[0] == call:
                raise RuntimeError("injected failure")
        return splu(A, *args, **kwargs)

    return fake


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
    # the adjoint's second costate step, n = 2, takes its coefficients at C^3
    monkeypatch.setattr(sol.spla, "splu", failing_splu_at(2, size))
    with pytest.raises(SolverError,
                       match="^" + message("costate saturation step", 2, 2, traj.C[3])):
        sol.run_adjoint(prob, traj)
