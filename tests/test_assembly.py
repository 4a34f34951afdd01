import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from porous_opt import assembly as asm
from porous_opt import fespaces as fes
from porous_opt.errors import AssemblyError, ConfigError
from porous_opt.mesh import build_barycentric_dual, build_diamond_dual, read_mesh, square_mesh
from porous_opt.model import default_model, unit_model, wells_from_tris
from porous_opt.quadrature import QuadratureRule

RNG = np.random.default_rng(3)


@pytest.fixture(scope="module")
def setup():
    mesh = square_mesh(4)
    dd = build_diamond_dual(mesh)
    bd = build_barycentric_dual(mesh)
    model = default_model()
    ws = asm.AssemblyWorkspace(mesh, bd, model, QuadratureRule())
    wells = wells_from_tris(mesh, [0, 1], [30, 31], T=1.0, epsilon=0.1)
    return mesh, dd, bd, model, ws, wells


def random_saturation(mesh, lo=0.1, hi=0.9):
    return fes.P1DGField(mesh, RNG.uniform(lo, hi, (mesh.num_triangles, 3)))


def random_velocity(mesh):
    vals = RNG.normal(size=mesh.num_edges)
    vals[mesh.boundary_edge] = 0.0
    return fes.RT0Field(mesh, vals)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_weight_sums():
    for deg in (1, 2, 4, 5):
        q = QuadratureRule(tri_degree=deg)
        assert q.tri_weights.sum() == pytest.approx(0.5, rel=1e-14)
        assert q.edge_weights.sum() == pytest.approx(1.0, rel=1e-14)


@settings(deadline=None, max_examples=30)
@given(i=st.integers(min_value=0, max_value=2), j=st.integers(min_value=0, max_value=2))
def test_quadrature_monomial_exactness(i, j):
    # reference integral of x^i y^j over the unit triangle
    import math

    exact = math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
    q = QuadratureRule(tri_degree=4)
    val = np.sum(q.tri_weights * q.tri_points[:, 0] ** i * q.tri_points[:, 1] ** j)
    assert val == pytest.approx(exact, rel=1e-13)


def test_quadrature_bad_degree():
    with pytest.raises(ConfigError):
        QuadratureRule(tri_degree=3)


def test_segment_rule_exact_cubics():
    q = QuadratureRule(edge_degree=3)
    p0 = np.array([1.0, 2.0])
    p1 = np.array([4.0, 6.0])  # length 5
    pts, w = q.map_to_segments(p0, p1)
    # integral of x along the segment, parametrized exactly
    s = np.linspace(0, 1, 100001)
    xs = p0[0] + (p1[0] - p0[0]) * s
    ref = np.trapezoid(xs**3, s) * 5.0
    val = float(np.sum(w * pts[:, 0] ** 3))
    assert val == pytest.approx(ref, rel=1e-8)


# ---------------------------------------------------------------------------
# workspace basis tables and coefficient model
# ---------------------------------------------------------------------------

def _workspace(mesh, model=None):
    return asm.AssemblyWorkspace(mesh, build_barycentric_dual(mesh), model or default_model(),
                                 QuadratureRule())


def _pairs(mesh):
    """One (edge, triangle) pair per diamond portion, edge-major, and the
    local index of the edge in the triangle."""
    side_tri = mesh.edge_tris.ravel()
    pr_edge = np.repeat(np.arange(mesh.num_edges), 2)[side_tri >= 0]
    pr_tri = side_tri[side_tri >= 0]
    pr_loc = np.argmax(mesh.tri_edges[pr_tri] == pr_edge[:, None], axis=1)
    return pr_edge, pr_tri, pr_loc


def _pair_tables(ws):
    """Points, weights, P1 and RT0 tables of the diamond portions, one row
    per pair of :func:`_pairs`, mapped from the edge's own endpoints."""
    mesh = ws.mesh
    pr_edge, pr_tri, _ = _pairs(mesh)
    pts, w = ws.quad.map_to_triangles(mesh.vertices[mesh.edges[pr_edge, 0]],
                                      mesh.vertices[mesh.edges[pr_edge, 1]],
                                      mesh.barycentre[pr_tri])
    return (pts, w, fes.p1_basis_at(mesh, pts, pr_tri),
            fes.rt0_basis_at(mesh, pts, pr_tri))


def _pair_load(ws, cell):
    """l_i = sum over diamond cells k of gamma_h(Phi_i)|_k . (integral over
    k), from one integral per pair of :func:`_pairs`."""
    acc = np.zeros((ws.mesh.num_edges, 2))
    np.add.at(acc, _pairs(ws.mesh)[0], cell)
    return ws.gamma_mat.T @ acc.ravel()


@pytest.fixture(scope="module", params=["n4", "unstructured"])
def table_ws(request):
    if request.param == "n4":
        return _workspace(square_mesh(4))
    return _workspace(read_mesh("data/unstructured_square.node",
                                "data/unstructured_square.ele"))


def test_barycentric_tables_reproduce_points(table_ws):
    # each table holds the barycentric coordinates of its points in the
    # triangle the points are assigned to: they sum to one and the
    # coordinate-weighted vertices give the points back.  The sub-cell and
    # fan tables are reference tables, the same in every triangle
    ws = table_ws
    all_tris = np.arange(ws.mesh.num_triangles)
    pr_pts, _, pr_lam, _ = _pair_tables(ws)
    tables = {
        "sub_lam": (np.broadcast_to(ws.sub_lam, ws.sub_pts.shape[:-1] + (3,)),
                    ws.sub_pts, all_tris),
        "fan_lam": (np.broadcast_to(ws.fan_lam, ws.fan_pts.shape[:-1] + (3,)),
                    ws.fan_pts, all_tris),
        "edge_lamL": (ws.edge_lamL, ws.edge_pts, ws.kL),
        "edge_lamR": (ws.edge_lamR, ws.edge_pts, ws.kR),
        "pairs": (pr_lam, pr_pts, _pairs(ws.mesh)[1]),
    }
    verts = ws.mesh.tri_vertices()
    for name, (lam, pts, tris) in tables.items():
        assert np.abs(lam.sum(axis=-1) - 1.0).max() <= 1e-14, name
        back = np.einsum("n...j,nje->n...e", lam, verts[tris])
        assert np.abs(back - pts).max() <= 1e-14, name


def test_diamond_portions_are_the_sub_cells(table_ws):
    # the portion of edge pr_edge's diamond cell in triangle pr_tri, mapped
    # from the edge's endpoints, has the quadrature of sub-cell
    # (pr_tri, pr_loc): the same points, in some order, with the same weights
    ws = table_ws
    _, pr_tri, pr_loc = _pairs(ws.mesh)
    pr_pts, pr_w, _, _ = _pair_tables(ws)
    sub_pts = ws.sub_pts[pr_tri, pr_loc]
    sub_w = ws.sub_w[pr_tri, pr_loc]
    # and every sub-cell is the portion of exactly one pair
    cells = 3 * pr_tri + pr_loc
    assert np.array_equal(np.sort(cells), np.arange(3 * ws.mesh.num_triangles))
    # each pair point's nearest sub-cell point, and back
    dist = np.linalg.norm(pr_pts[:, :, None, :] - sub_pts[:, None, :, :], axis=-1)
    near = np.argmin(dist, axis=2)
    assert (np.sort(near, axis=1) == np.arange(near.shape[1])).all()
    assert np.take_along_axis(dist, near[:, :, None], axis=2).max() <= 1e-15
    assert np.abs(np.take_along_axis(sub_w, near, axis=1) - pr_w).max() <= 1e-15


def test_rt0_tables_reproduce_constant_field(table_ws):
    ws = table_ws
    mesh = ws.mesh
    vec = np.array([0.3, -0.7])
    coeffs = fes.RT0Field.interpolate(mesh, lambda p: np.tile(vec, (p.shape[0], 1))).values
    sub_rt0 = fes.rt0_basis_at(mesh, ws.sub_pts)
    pr_rt0 = _pair_tables(ws)[3]
    sub = np.einsum("tcqje,tj->tcqe", sub_rt0, coeffs[mesh.tri_edges])
    pair = np.einsum("nqje,nj->nqe", pr_rt0, coeffs[mesh.tri_edges[_pairs(mesh)[1]]])
    assert np.abs(sub - vec).max() <= 1e-13
    assert np.abs(pair - vec).max() <= 1e-13


def test_mass_matrix_scales_with_porosity():
    # D is block diagonal; each triangle's block is phi at its barycentre
    # times the unit-porosity block
    mesh = square_mesh(4)

    def phi(p):
        return 1.0 + 0.5 * p[:, 0] + 0.25 * p[:, 1] ** 2

    D1 = _workspace(mesh).D.toarray()
    Dphi = _workspace(mesh, default_model(phi=phi)).D.toarray()
    scaled = np.repeat(phi(mesh.barycentre), 3)[:, None] * D1
    assert np.abs(Dphi - scaled).max() <= 1e-15 * np.abs(D1).max()
    assert np.abs(Dphi - D1).max() > 0.1 * np.abs(D1).max()


def test_velocity_matrix_scales_with_inverse_permeability():
    mesh = square_mesh(4)
    wells = wells_from_tris(mesh, [0, 1], [30, 31], T=1.0, epsilon=0.1)
    c = random_saturation(mesh)
    A1, _ = asm.assemble_darcy(c, wells, 0.5, _workspace(mesh))
    ws2 = _workspace(mesh, default_model(kappa=lambda p: np.full(p.shape[0], 2.0)))
    A2, _ = asm.assemble_darcy(c, wells, 0.5, ws2)
    assert np.array_equal(A2.toarray(), 0.5 * A1.toarray())


# ---------------------------------------------------------------------------
# Darcy block
# ---------------------------------------------------------------------------

def test_divergence_matrix_entries(setup):
    mesh, dd, bd, model, ws, wells = setup
    # B[l, j] = int_T div Phi_j: equals the signed edge length; cross-check
    # against quadrature of the elementwise divergence
    B = ws.B.toarray()
    quad = QuadratureRule()
    for j_int, e in enumerate(mesh.interior_edges):
        vals = np.zeros(mesh.num_edges)
        vals[e] = 1.0
        div = fes.RT0Field(mesh, vals).divergence().values
        ref = div * mesh.tri_area  # exact integral of the constant divergence
        assert np.allclose(B[:, j_int], ref, atol=1e-12)
        # analytic value: +/- edge length on the adjacent elements
        for k in mesh.edge_tris[e]:
            jloc = np.argmax(mesh.tri_edges[k] == e)
            assert abs(B[k, j_int]) == pytest.approx(mesh.edge_length[e])
            assert np.sign(B[k, j_int]) == mesh.tri_edge_sign[k, jloc]


def test_well_vector_support_and_balance(setup):
    mesh, dd, bd, model, ws, wells = setup
    c = random_saturation(mesh)
    _, F = asm.assemble_darcy(c, wells, 0.7, ws)
    support = np.flatnonzero(F)
    allowed = np.concatenate([wells.injection_tris, wells.production_tris])
    assert np.isin(support, allowed).all()
    assert F.sum() == pytest.approx(0.0, abs=1e-14)


def test_velocity_matrix_is_gamma_pairing(setup):
    # A[i, j] equals the pairing of alpha Phi_j with gamma_h Phi_i computed
    # through the field-level operators
    mesh, dd, bd, model, ws, wells = setup
    c = random_saturation(mesh)
    A, _ = asm.assemble_darcy(c, wells, 0.0, ws)
    pr_edge, pr_tri, _ = _pairs(mesh)
    pr_pts, pr_w, pr_lam, pr_rt0 = _pair_tables(ws)
    kappa = model.kappa(pr_pts.reshape(-1, 2)).reshape(pr_w.shape)
    interior = mesh.interior_edges
    for trial in range(0, interior.size, 7):
        vals = np.zeros(mesh.num_edges)
        vals[interior[trial]] = 1.0
        phi_j = fes.RT0Field(mesh, vals)
        for test in range(0, interior.size, 11):
            tv = np.zeros(mesh.num_edges)
            tv[interior[test]] = 1.0
            gv = fes.gamma_h(fes.RT0Field(mesh, tv))
            # integrate alpha phi_j . (gamma phi_i) over all diamond cells
            cv = np.einsum("nqj,nj->nq", pr_lam, c.values[pr_tri])
            avals = model.alpha(cv) / kappa
            pj = np.einsum("nqje,nj->nqe", pr_rt0, phi_j.values[mesh.tri_edges[pr_tri]])
            ref = float(np.einsum("nq,nq,nqe,ne->", pr_w, avals, pj, gv[pr_edge]))
            assert A[test, trial] == pytest.approx(ref, abs=1e-13)


def test_diamond_loads_match_pair_quadrature(table_ws):
    # the costate Darcy load and the vector load, integrated on the
    # sub-cells, against the same integrals on each diamond portion's own
    # quadrature, with fields that tell the portions of a triangle apart
    ws = table_ws
    mesh, model = ws.mesh, ws.model
    pr_tri = _pairs(mesh)[1]
    pr_pts, pr_w, pr_lam, _ = _pair_tables(ws)
    c, cs = random_saturation(mesh), random_saturation(mesh, -1.0, 1.0)
    cv = np.einsum("nqj,nj->nq", pr_lam, c.values[pr_tri])
    csv = np.einsum("nqj,nj->nq", pr_lam, cs.values[pr_tri])
    cell = -np.einsum("nq,nq,ne->ne", pr_w, model.b(cv) * csv, c.gradients()[pr_tri])
    ref = _pair_load(ws, cell)
    got = asm.assemble_darcy_costate_rhs(c, cs, ws)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def g(p):
        return np.column_stack([np.sin(3.0 * p[:, 0]), p[:, 1] ** 2 - p[:, 0]])

    gvals = g(pr_pts.reshape(-1, 2)).reshape(pr_pts.shape)
    ref = _pair_load(ws, np.einsum("nq,nqe->ne", pr_w, gvals))
    got = asm.assemble_diamond_vector_load(g, ws)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("mesh", [
    square_mesh(4),
    read_mesh("data/unstructured_square.node", "data/unstructured_square.ele"),
], ids=["n4", "unstructured"])
def test_gamma_mat_matches_entry_loop(mesh):
    ws = asm.AssemblyWorkspace(mesh, build_barycentric_dual(mesh), unit_model(), QuadratureRule())
    verts = mesh.tri_vertices()
    coef = mesh.tri_edge_sign * mesh.edge_length[mesh.tri_edges] / (
        2.0 * mesh.tri_area[:, None])
    wsum = np.zeros(mesh.num_edges)
    np.add.at(wsum, mesh.tri_edges.ravel(),
              np.repeat(mesh.tri_area[:, None], 3, axis=1).ravel())
    rows, cols, vals = [], [], []
    for k in range(mesh.num_edges):
        for tri in mesh.edge_tris[k]:
            if tri < 0:
                continue
            w = mesh.tri_area[tri] / wsum[k]
            for jloc in range(3):
                col = ws.int_of_edge[mesh.tri_edges[tri, jloc]]
                if col < 0:
                    continue
                val = w * coef[tri, jloc] * (
                    mesh.edge_midpoint[k] - verts[tri, (jloc + 2) % 3])
                rows.extend((2 * k, 2 * k + 1))
                cols.extend((col, col))
                vals.extend(val)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=ws.gamma_mat.shape).tocsr()
    assert np.array_equal(ws.gamma_mat.indptr, ref.indptr)
    assert np.array_equal(ws.gamma_mat.indices, ref.indices)
    assert np.array_equal(ws.gamma_mat.data, ref.data)


def test_velocity_matrix_positive_definite_symmetric_part(setup):
    # A is not symmetric (the transfer is one-sided) but its symmetric part
    # must be positive definite for solvability
    mesh, dd, bd, model, ws, wells = setup
    c = fes.P1DGField.constant(mesh, 0.4)
    A, _ = asm.assemble_darcy(c, wells, 0.0, ws)
    Ad = A.toarray()
    sym = 0.5 * (Ad + Ad.T)
    np.linalg.cholesky(sym)  # raises if not SPD
    assert np.abs(Ad - Ad.T).max() > 1e-6 * np.abs(Ad).max()  # genuinely nonsymmetric


def test_divergence_matrix_rank_deficiency(setup):
    # rank(B) = n_t - 1 and constants span the left kernel (pure Neumann)
    mesh, dd, bd, model, ws, wells = setup
    B = ws.B.toarray()
    s = np.linalg.svd(B, compute_uv=False)
    n_t = mesh.num_triangles
    assert np.sum(s > 1e-10 * s[0]) == n_t - 1
    assert np.abs(np.ones(n_t) @ B).max() < 1e-12


def test_nan_coefficient_raises(setup):
    mesh, dd, bd, model, ws, wells = setup
    bad = fes.P1DGField.constant(mesh, 0.5)
    bad.values[3, 1] = np.nan
    with pytest.raises(AssemblyError):
        asm.assemble_darcy(bad, wells, 0.0, ws)


def test_costate_rhs_trivial_cases(setup):
    mesh, dd, bd, model, ws, wells = setup
    const = fes.P1DGField.constant(mesh, 0.6)
    cstar = random_saturation(mesh)
    # constant saturation: gradient vanishes
    assert np.allclose(asm.assemble_darcy_costate_rhs(const, cstar, ws), 0.0)
    # zero costate
    zero = fes.P1DGField.constant(mesh, 0.0)
    c = random_saturation(mesh)
    assert np.allclose(asm.assemble_darcy_costate_rhs(c, zero, ws), 0.0)


def test_costate_rhs_two_triangle_quadrature_oracle():
    # C = x, C* = 1, b(c) = 2c: the load is -(2x grad(x), gamma Phi_i)
    mesh = square_mesh(1)
    bd = build_barycentric_dual(mesh)
    model = default_model()
    ws = asm.AssemblyWorkspace(mesh, bd, model, QuadratureRule())
    c = fes.P1DGField.interpolate(mesh, lambda p: p[:, 0])
    cstar = fes.P1DGField.constant(mesh, 1.0)
    got = asm.assemble_darcy_costate_rhs(c, cstar, ws)
    # independent oracle: fine midpoint-rule integration over each diamond
    # portion of -2x * (1, 0) . gamma_h(Phi_i)
    interior = mesh.interior_edges
    ref = np.zeros(interior.size)
    for idx, e in enumerate(interior):
        tv = np.zeros(mesh.num_edges)
        tv[e] = 1.0
        gvals = fes.gamma_h(fes.RT0Field(mesh, tv))
        for cell in range(mesh.num_edges):
            for k in mesh.edge_tris[cell]:
                if k < 0:
                    continue
                a = mesh.vertices[mesh.edges[cell, 0]]
                b = mesh.vertices[mesh.edges[cell, 1]]
                g = mesh.barycentre[k]
                ref[idx] += -_midpoint_refine(
                    lambda p: 2.0 * p[:, 0] * gvals[cell, 0], a, b, g, depth=6
                )
    assert np.allclose(got, ref, atol=1e-8)


def _midpoint_refine(fun, a, b, c, depth):
    """Midpoint rule on a uniformly refined triangle (test oracle)."""
    tris = [(np.asarray(a, float), np.asarray(b, float), np.asarray(c, float))]
    for _ in range(depth):
        new = []
        for (p, q, r) in tris:
            pq, qr, rp = 0.5 * (p + q), 0.5 * (q + r), 0.5 * (r + p)
            new += [(p, pq, rp), (pq, q, qr), (rp, qr, r), (pq, qr, rp)]
        tris = new
    total = 0.0
    for (p, q, r) in tris:
        area = 0.5 * abs((q - p)[0] * (r - p)[1] - (q - p)[1] * (r - p)[0])
        total += area * float(fun(((p + q + r) / 3.0)[None, :])[0])
    return total


# ---------------------------------------------------------------------------
# saturation block
# ---------------------------------------------------------------------------

def test_eta_mass_matrix_properties(setup):
    mesh, dd, bd, model, ws, wells = setup
    D = ws.D.toarray()
    assert np.abs(D - D.T).max() < 1e-15
    assert np.linalg.eigvalsh(D).min() > 0.0
    # matches the field-level mixed inner product
    z = random_saturation(mesh)
    w = random_saturation(mesh)
    lhs = z.values.ravel() @ (D @ w.values.ravel())
    rhs = fes.mixed_inner_p1dg_dual(z, fes.eta_h(w), bd)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_eta_mass_matrix_against_quadrature(setup):
    mesh, dd, bd, model, ws, wells = setup
    dcell = np.einsum("tcq,tcqj->tcj", ws.sub_w, fes.p1_basis_at(mesh, ws.sub_pts))
    Dq = ws.dual_matrix(dcell)
    D = ws.D
    assert abs(D - Dq).max() < 1e-15


@pytest.mark.parametrize("mesh", [
    square_mesh(4),
    read_mesh("data/unstructured_square.node", "data/unstructured_square.ele"),
], ids=["n4", "unstructured"])
def test_saturation_operators_match_coo_assembly(mesh, monkeypatch):
    # every saturation operator is the COO sum of the blocks it is built
    # from, stored on the workspace's one shared pattern
    built = []
    sat_matrix = asm.AssemblyWorkspace.sat_matrix

    def record(self, blocks, edge_blocks=None):
        out = sat_matrix(self, blocks, edge_blocks)
        built.append((blocks, edge_blocks, out))
        return out

    monkeypatch.setattr(asm.AssemblyWorkspace, "sat_matrix", record)
    ws = _workspace(mesh)
    n_t = mesh.num_triangles
    wells = wells_from_tris(mesh, [0, 1], [n_t - 2, n_t - 1], T=1.0, epsilon=0.1)
    c, u, us = random_saturation(mesh), random_velocity(mesh), random_velocity(mesh)
    E, H, _ = asm.assemble_saturation_state(c, u, wells, 0.4, ws, 1.0)
    R, S = asm.assemble_saturation_costate(c, wells, 0.4, ws)
    H2 = asm._diffusion_matrix(c, ws, 2.0)
    ops = (ws.D, E, H, R, S, H2)
    assert len(built) == len(ops)
    assert all(out is op for (_, _, out), op in zip(built, ops))

    dofs = np.arange(3 * n_t).reshape(n_t, 3)
    edge_dofs = np.concatenate([dofs[ws.kL], dofs[ws.kR]], axis=1)

    def coo(idx, blocks):
        rows = np.broadcast_to(idx[:, :, None], blocks.shape)
        cols = np.broadcast_to(idx[:, None, :], blocks.shape)
        return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(3 * n_t, 3 * n_t))

    for blocks, edge_blocks, out in built:
        assert out.format == "csc"
        assert np.shares_memory(out.indptr, ws.sat_indptr)
        assert np.shares_memory(out.indices, ws.sat_indices)
        ref = coo(dofs, blocks)
        if edge_blocks is None:
            assert np.array_equal(out.toarray(), ref.toarray())
        else:
            ref = (ref + coo(edge_dofs, edge_blocks)).toarray()
            assert np.abs(out.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()

    # T4 alone: the jump-product penalty integrals, weighted by 1 / h_e
    lam = np.concatenate([ws.edge_lamL, -ws.edge_lamR], axis=2)
    t4 = np.einsum("nq,nqr,nqc->nrc", ws.edge_w, lam, lam) / ws.ie_h[:, None, None]
    t4 = coo(edge_dofs, t4).toarray()
    H2 = H2.toarray()
    assert np.abs(H2 - H.toarray() - t4).max() <= 1e-15 * np.abs(H2).max()


def _einsum_kernels(ws, c, u, us, wells, q, t, xi):
    """Every saturation kernel as one einsum of the basis tables, the way
    they read before the workspace precontracted its geometry products."""
    model = ws.model
    tri_edges = ws.mesh.tri_edges
    sub_lam = fes.p1_basis_at(ws.mesh, ws.sub_pts)
    sub_rt0 = fes.rt0_basis_at(ws.mesh, ws.sub_pts)
    csub = np.einsum("tcqj,tj->tcq", sub_lam, c.values)
    usub = np.einsum("tcqje,tj->tcqe", sub_rt0, u.values[tri_edges])
    ussub = np.einsum("tcqje,tj->tcqe", sub_rt0, us.values[tri_edges])
    out = {"p1_at_sub": csub, "rt0_at_sub": usub}
    out["E"] = np.einsum("tcq,tcq,tcqe,tle->tcl", ws.sub_w, model.b(csub), usub, ws.gradlam)

    cfan = np.einsum("tcsqj,tj->tcsq", fes.p1_basis_at(ws.mesh, ws.fan_pts), c.values)
    dint = np.einsum("tcsq,tcsq->tcs", ws.fan_w, ws.kappa_fan * model.diffusion(cfan))
    out["T1"] = -np.einsum("tcs,tcse,tle->tcl", dint, ws.bary.seg_normal, ws.gradlam)

    flux = []
    for k, lam in ((ws.kL, ws.edge_lamL), (ws.kR, ws.edge_lamR)):
        ck = np.einsum("nqj,nj->nq", lam, c.values[k])
        dk = np.einsum("nq,nq->n", ws.edge_w, ws.kappa_edge * model.diffusion(ck))
        flux.append(0.5 * np.einsum("n,ne,nle->nl", dk, ws.ie_normal, ws.gradlam[k]))
    flux = np.concatenate(flux, axis=1)
    t2 = -np.einsum("nr,nc->nrc", ws.avg_jump, flux)
    t3 = -np.einsum("nr,nc->nrc", flux, ws.avg_jump)
    out["edges"] = t2 + t3 + (xi / ws.ie_h)[:, None, None] * ws.edge_penalty

    out["G"] = np.einsum("t,tcq,tcq->tc", wells.r0_values() * q, ws.sub_w, model.f(csub))
    out["R"] = np.einsum("t,tcq,tcq,tcqj->tcj", wells.r1_values() * q, ws.sub_w,
                         model.b(csub), sub_lam)
    gradc = np.einsum("tj,tje->te", c.values, ws.gradlam)
    cross = np.einsum("tcq,tcq->tc", ws.sub_w, ws.kappa_sub * model.diffusion_prime(csub))
    out["S"] = np.einsum("tc,te,tle->tcl", cross, gradc, ws.gradlam)
    out["W"] = wells.w(t) * np.einsum("tcq,tcq->tc", ws.sub_w, csub)
    out["Z"] = np.einsum("tcq,tcq,tcqe,tcqe->tc", ws.sub_w,
                         model.alpha_prime(csub) / ws.kappa_sub, usub, ussub)
    return out


def test_precontracted_kernels_match_einsum_oracle(table_ws, monkeypatch):
    # each kernel, as handed to the eta_h transfer, against one einsum of
    # the basis tables; the transfer itself against its einsum
    ws = table_ws
    mesh = ws.mesh
    n_t = mesh.num_triangles
    wells = wells_from_tris(mesh, [0, 1], [n_t - 2, n_t - 1], T=1.0, epsilon=0.1, wtilde=2.0)
    c, u, us = random_saturation(mesh), random_velocity(mesh), random_velocity(mesh)
    q, t, xi = 0.4, 1.0, 1.7
    ref = _einsum_kernels(ws, c, u, us, wells, q, t, xi)

    seen = []
    dual_matrix, dual_load = asm.AssemblyWorkspace.dual_matrix, asm.AssemblyWorkspace.dual_load

    def record_matrix(self, cell, edge_blocks=None):
        seen.append(cell)
        if edge_blocks is not None:
            seen.append(edge_blocks)
        return dual_matrix(self, cell, edge_blocks)

    def record_load(self, cell):
        seen.append(cell)
        return dual_load(self, cell)

    monkeypatch.setattr(asm.AssemblyWorkspace, "dual_matrix", record_matrix)
    monkeypatch.setattr(asm.AssemblyWorkspace, "dual_load", record_load)
    asm.assemble_saturation_state(c, u, wells, q, ws, xi)
    asm.assemble_saturation_costate(c, wells, q, ws)
    asm.assemble_costate_loads(c, u, us, wells, t, ws)
    monkeypatch.undo()
    got = dict(zip(["E", "T1", "edges", "G", "R", "S", "W", "Z"], seen))
    got["p1_at_sub"] = ws.p1_at_sub(c)
    got["rt0_at_sub"] = ws.rt0_at_sub(u)

    assert len(seen) == 8
    assert np.abs(ref["R"]).max() > 0.0 and np.abs(ref["W"]).max() > 0.0
    for name, want in ref.items():
        assert got[name].shape == want.shape, name
        assert np.abs(got[name] - want).max() <= 1e-14 * np.abs(want).max(), name

    cell = RNG.normal(size=(n_t, 3, 3))
    transferred = ws.sat_matrix(np.einsum("cv,tcl->tvl", asm.SEL, cell))
    assert np.abs(ws.dual_matrix(cell).data - transferred.data).max() <= 1e-14 * np.abs(cell).max()
    load = np.einsum("cv,tc->tv", asm.SEL, cell[:, :, 0]).ravel()
    assert np.abs(ws.dual_load(cell[:, :, 0]) - load).max() <= 1e-14 * np.abs(cell).max()


def _whole_mesh_operators(ws, c, u, us, wells, q, t, xi):
    """E, H, G, R, S, W, Z as whole-mesh array expressions: the formulas of
    the blocked kernels on every triangle and interior edge at once, with
    each matrix's data written as zeros, then the element blocks by slot,
    then the edge sums added."""
    model = ws.model
    n_t, _, nq = ws.sub_w.shape

    def sat_data(cell, edge_blocks=None):
        data = np.zeros(ws.sat_indptr[-1])
        data[ws.el_slot] = asm.SEL.T @ cell
        if edge_blocks is not None:
            data += np.bincount(ws.edge_slot.ravel(), edge_blocks.ravel(), data.size)
        return data

    def at_ref(lam, values):
        return (values @ lam.reshape(-1, 3).T).reshape(len(values), *lam.shape[:-1])

    def rt0_grad(field):
        coeffs = field.values[ws.mesh.tri_edges] * ws.rt0_coef
        return (coeffs @ ws.sub_rt0_grad.reshape(3, -1)).reshape(n_t, 3, nq, 3)

    def rt0_at_sub(field):
        return (rt0_grad(field).reshape(n_t, -1, 3) @ ws.vert_rel).reshape(n_t, 3, nq, 2)

    out = {}
    csub = at_ref(ws.sub_lam, c.values)
    out["E"] = sat_data(np.einsum("tcq,tcql->tcl", ws.sub_w * model.b(csub), rt0_grad(u)))

    dfan = ws.kappa_fan * model.diffusion(at_ref(ws.fan_lam, c.values))
    dint = np.einsum("tcsq,tcsq->tcs", ws.fan_w, dfan)
    nflux = (dint[:, :, None, :] @ ws.seg_ngrad)[:, :, 0]
    cl = (ws.edge_lamL @ c.values[ws.kL][:, :, None])[:, :, 0]
    cr = (ws.edge_lamR @ c.values[ws.kR][:, :, None])[:, :, 0]
    dL = np.einsum("nq,nq->n", ws.edge_w, ws.kappa_edge * model.diffusion(cl))
    dR = np.einsum("nq,nq->n", ws.edge_w, ws.kappa_edge * model.diffusion(cr))
    flux = 0.5 * np.concatenate([dL[:, None] * ws.edge_ngradL,
                                 dR[:, None] * ws.edge_ngradR], axis=1)
    t2 = -ws.avg_jump[:, :, None] * flux[:, None, :]
    t4 = (xi / ws.ie_h)[:, None, None] * ws.edge_penalty
    out["H"] = sat_data(-nflux, t2 + np.swapaxes(t2, 1, 2) + t4)

    gcell = np.einsum("t,tcq,tcq->tc", wells.r0_values() * q, ws.sub_w, model.f(csub))
    out["G"] = (gcell @ asm.SEL).ravel()

    r1qwb = (wells.r1_values() * q)[:, None, None] * ws.sub_w * model.b(csub)
    out["R"] = sat_data((r1qwb[:, :, None, :] @ ws.sub_lam)[:, :, 0])
    cross = np.einsum("tcq,tcq->tc", ws.sub_w, ws.kappa_sub * model.diffusion_prime(csub))
    gradc = (c.values[:, None, :] @ ws.gradlam)[:, 0]
    gradc_lam = (ws.gradlam @ gradc[:, :, None])[:, :, 0]
    out["S"] = sat_data(cross[:, :, None] * gradc_lam[:, None, :])
    out["W"] = ((wells.w(t) * np.einsum("tcq,tcq->tc", ws.sub_w, csub)) @ asm.SEL).ravel()
    udot = (rt0_at_sub(u) * rt0_at_sub(us)).sum(axis=-1)
    ap = model.alpha_prime(csub) / ws.kappa_sub
    out["Z"] = (np.einsum("tcq,tcq->tc", ws.sub_w, ap * udot) @ asm.SEL).ravel()
    return out


def test_blocked_kernels_match_whole_mesh_oracle(table_ws, monkeypatch):
    # the kernels run over blocks of 7 or fewer triangles and interior edges
    # (several blocks, of unequal lengths on the triangles); every operator
    # is bitwise the whole-mesh one, and no coefficient call sees more points
    # than one block holds
    ws = table_ws
    mesh = ws.mesh
    n_t, _, nq = ws.sub_w.shape
    wells = wells_from_tris(mesh, [0, 1, 9, 16], [12, n_t - 8, n_t - 1], T=1.0, epsilon=0.1,
                            wtilde=2.0)
    c = random_saturation(mesh, -0.1, 1.1)
    u, us = random_velocity(mesh), random_velocity(mesh)
    q, t, xi = 0.4, 0.95, 1.7
    want = _whole_mesh_operators(ws, c, u, us, wells, q, t, xi)
    assert all(np.abs(want[k]).max() > 0.0 for k in ("G", "R", "W"))

    monkeypatch.setattr(asm, "_BLOCK_BYTES", 7 * 9 * nq * 8)
    lengths = [s.stop - s.start for s in asm._blocks(n_t, nq)]
    assert sum(lengths) == n_t and len(lengths) > 3 and len(set(lengths)) == 2
    assert max(s.stop - s.start for s in asm._blocks(ws.n_int, nq)) <= 7 < ws.n_int

    points = []

    def counted(fun):
        def wrapped(x, *args):
            points.append(np.size(x))
            return fun(x, *args)
        return wrapped

    model = ws.model
    monkeypatch.setattr(ws, "model", dataclasses.replace(model, **{
        f.name: counted(getattr(model, f.name))
        for f in dataclasses.fields(model) if callable(getattr(model, f.name))}))
    E, H, G = asm.assemble_saturation_state(c, u, wells, q, ws, xi)
    R, S = asm.assemble_saturation_costate(c, wells, q, ws)
    W, Z = asm.assemble_costate_loads(c, u, us, wells, t, ws)
    got = dict(E=E.data, H=H.data, G=G, R=R.data, S=S.data, W=W, Z=Z)
    for name, arr in want.items():
        assert got[name].tobytes() == arr.tobytes(), name
    assert points and max(points) <= 7 * 3 * nq


def test_state_matrices_annihilate_constants(setup):
    mesh, dd, bd, model, ws, wells = setup
    c = random_saturation(mesh)
    u = random_velocity(mesh)
    E, H, G = asm.assemble_saturation_state(c, u, wells, 0.4, ws, 1.0)
    ones = np.ones(3 * mesh.num_triangles)
    assert np.abs(E @ ones).max() < 1e-12
    assert np.abs(H @ ones).max() < 1e-12


def test_penalty_block_symmetric_psd(setup):
    mesh, dd, bd, model, ws, wells = setup
    psi = random_saturation(mesh)
    T4 = (asm._diffusion_matrix(psi, ws, 2.0)
          - asm._diffusion_matrix(psi, ws, 1.0)).toarray()
    assert np.abs(T4 - T4.T).max() < 1e-13
    assert np.linalg.eigvalsh(T4).min() > -1e-12


def test_trilinear_form_constant_trial(setup):
    mesh, dd, bd, model, ws, wells = setup
    psi = random_saturation(mesh)
    z = random_saturation(mesh)
    const = fes.P1DGField.constant(mesh, 3.0)
    val = asm.trilinear_form(psi, const, z, model, 5.0, bd, QuadratureRule())
    assert abs(val) < 1e-12


def test_trilinear_form_matches_matrix(setup):
    mesh, dd, bd, model, ws, wells = setup
    xi = 10.0 * model.d_high
    for _ in range(5):
        psi = random_saturation(mesh)
        phi = random_saturation(mesh, -1.0, 1.0)
        z = random_saturation(mesh, -1.0, 1.0)
        H = asm._diffusion_matrix(psi, ws, xi)
        mat = z.values.ravel() @ (H @ phi.values.ravel())
        direct = asm.trilinear_form(psi, phi, z, model, xi, bd, QuadratureRule())
        assert mat == pytest.approx(direct, rel=1e-12, abs=1e-13)


def test_diffusion_coercivity_sampled(setup):
    mesh, dd, bd, model, ws, wells = setup
    psi = fes.P1DGField.constant(mesh, 0.5)
    xi = 10.0 * model.d_high
    H = asm._diffusion_matrix(psi, ws, xi)
    c0 = np.inf
    for _ in range(100):
        z = RNG.normal(size=3 * mesh.num_triangles)
        nrm = fes.broken_h1_norm(fes.P1DGField(mesh, z.reshape(-1, 3)))
        c0 = min(c0, (z @ (H @ z)) / nrm**2)
    assert c0 > 0.0


def test_quadrature_order_insensitive_for_affine_data(setup):
    # with an affine coefficient profile the degree-4 rule is already exact;
    # raising the order must not change entries beyond roundoff
    mesh, dd, bd, _, _, wells = setup
    model = unit_model()
    c = fes.P1DGField.interpolate(mesh, lambda p: 0.3 * p[:, 0] + 0.1)
    u = random_velocity(mesh)
    out = []
    for deg in (4, 5):
        ws = asm.AssemblyWorkspace(mesh, bd, model, QuadratureRule(tri_degree=deg))
        out.append((ws.D, *asm.assemble_saturation_state(c, u, wells, 0.3, ws, 2.0)))
    for a, b in zip(out[0], out[1]):
        if hasattr(a, "toarray"):
            diff = abs(a - b).max()
            scale = max(abs(a).max(), 1e-30)
        else:
            diff = np.abs(a - b).max()
            scale = max(np.abs(a).max(), 1e-30)
        assert diff <= 1e-10 * scale


def test_costate_matrices_trivial_cases(setup):
    mesh, dd, bd, model, ws, wells = setup
    c = random_saturation(mesh)
    u = random_velocity(mesh)
    zero_u = fes.RT0Field.zero(mesh)
    # before the terminal window the weight load vanishes identically
    W, _ = asm.assemble_costate_loads(c, u, u, wells, t=0.2, ws=ws)
    assert np.allclose(W, 0.0)
    # zero costate velocity kills the velocity-product load
    _, Z0 = asm.assemble_costate_loads(c, u, zero_u, wells, t=0.2, ws=ws)
    assert np.allclose(Z0, 0.0)
    # constant saturation kills the cross-gradient matrix
    const = fes.P1DGField.constant(mesh, 0.5)
    _, S0 = asm.assemble_saturation_costate(const, wells, 0.5, ws=ws)
    assert abs(S0).max() < 1e-14


def test_reaction_matrix_support(setup):
    mesh, dd, bd, model, ws, wells = setup
    c = random_saturation(mesh)
    R, _ = asm.assemble_saturation_costate(c, wells, 0.5, ws=ws)
    R = R.tocoo()
    rows_tris = R.row // 3
    assert np.isin(rows_tris[np.abs(R.data) > 0], wells.production_tris).all()


def test_terminal_weight_load(setup):
    mesh, dd, bd, model, ws, wells = setup
    c = fes.P1DGField.constant(mesh, 0.5)
    u = fes.RT0Field.zero(mesh)
    t_in_window = wells.T - wells.epsilon / 2.0
    W, _ = asm.assemble_costate_loads(c, u, u, wells, t=t_in_window, ws=ws)
    # (w * c, eta_h Psi) summed over all test functions = w * c * |Omega|
    expect = wells.w(t_in_window) * 0.5 * mesh.domain_area
    assert W.sum() == pytest.approx(expect, rel=1e-12)


def test_assembly_deterministic(setup):
    mesh, dd, bd, model, ws, wells = setup
    c = random_saturation(mesh)
    u = random_velocity(mesh)
    first = asm.assemble_saturation_state(c, u, wells, 0.4, ws, 2.0)
    second = asm.assemble_saturation_state(c, u, wells, 0.4, ws, 2.0)
    for a, b in zip(first, second):
        if hasattr(a, "toarray"):
            assert (a != b).nnz == 0
            assert np.array_equal(a.data, b.data)
        else:
            assert np.array_equal(a, b)


def test_xi_must_be_positive(setup):
    mesh, dd, bd, model, ws, wells = setup
    c = random_saturation(mesh)
    u = random_velocity(mesh)
    with pytest.raises(ConfigError):
        asm.assemble_saturation_state(c, u, wells, 0.4, ws, 0.0)
