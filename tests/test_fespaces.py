import numpy as np
import pytest

from porous_opt import fespaces as fes
from porous_opt.mesh import (
    build_barycentric_dual,
    build_diamond_dual,
    build_primal,
    read_mesh,
    square_mesh,
)

RNG = np.random.default_rng(42)


def random_velocity(mesh, rng=RNG):
    vals = rng.normal(size=mesh.num_edges)
    vals[mesh.boundary_edge] = 0.0
    return fes.RT0Field(mesh, vals)


@pytest.fixture(scope="module")
def grids():
    mesh = square_mesh(4)
    return mesh, build_diamond_dual(mesh), build_barycentric_dual(mesh)


@pytest.fixture(scope="module")
def unstructured():
    mesh = read_mesh("data/unstructured_square.node", "data/unstructured_square.ele")
    return mesh, build_diamond_dual(mesh), build_barycentric_dual(mesh)


# ---------------------------------------------------------------------------
# gamma_h
# ---------------------------------------------------------------------------

def test_gamma_h_constant_field(grids):
    mesh, dd, _ = grids
    v = fes.RT0Field.interpolate(mesh, lambda p: np.tile([1.0, 0.0], (p.shape[0], 1)))
    gv = fes.gamma_h(v, dd)
    interior = mesh.interior_edges
    assert np.allclose(gv.values[interior], [1.0, 0.0], atol=1e-13)


def test_gamma_h_contraction(grids, unstructured):
    for mesh, dd, _ in (grids, unstructured):
        for _ in range(50):
            v = random_velocity(mesh)
            gv = fes.gamma_h(v, dd)
            ng = np.sqrt(np.einsum("c,ce,ce->", dd.cell_area, gv.values, gv.values))
            assert ng <= fes.l2_norm(v) * (1.0 + 1e-13)


def test_gamma_h_normal_component_single_valued(grids):
    mesh, dd, _ = grids
    v = random_velocity(mesh)
    gv = fes.gamma_h(v, dd)
    flux = np.einsum("ij,ij->i", gv.values, mesh.edge_normal)
    assert np.allclose(flux, v.values, atol=1e-12)


def gamma_interp_error(mesh, v):
    """||v - gamma_h v|| over the diamond grid by quadrature."""
    from porous_opt.quadrature import QuadratureRule

    # one (edge, triangle) pair per diamond portion (edge endpoints, barycentre)
    side_tri = mesh.edge_tris.ravel()
    pr_edge = np.repeat(np.arange(mesh.num_edges), 2)[side_tri >= 0]
    pr_tri = side_tri[side_tri >= 0]
    pts, w = QuadratureRule().map_to_triangles(mesh.vertices[mesh.edges[pr_edge, 0]],
                                               mesh.vertices[mesh.edges[pr_edge, 1]],
                                               mesh.barycentre[pr_tri])
    rt0 = fes.rt0_basis_at(mesh, pts, pr_tri)
    vv = np.einsum("nqje,nj->nqe", rt0, v.values[mesh.tri_edges[pr_tri]])
    gv = v.midpoint_values()[pr_edge]
    return float(np.sqrt(np.einsum("nq,nqe->", w, (vv - gv[:, None, :]) ** 2)))


def test_gamma_h_interp_error_rate():
    def smooth(p):
        return np.column_stack(
            [np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
             -np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])]
        )

    ns = (4, 8, 16, 32)
    errs = []
    for n in ns:
        mesh = square_mesh(n)
        errs.append(gamma_interp_error(mesh, fes.RT0Field.interpolate(mesh, smooth)))
    rate = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
    assert rate >= 0.9


# ---------------------------------------------------------------------------
# eta_h
# ---------------------------------------------------------------------------

def test_eta_h_constant(grids):
    mesh, _, bd = grids
    z = fes.P1DGField.constant(mesh, 3.0)
    assert np.allclose(fes.eta_h(z, bd).values, 3.0)


def test_eta_h_norm_equality(grids, unstructured):
    for mesh, _, bd in (grids, unstructured):
        for _ in range(50):
            z = fes.P1DGField(mesh, RNG.normal(size=(mesh.num_triangles, 3)))
            gz = fes.eta_h(z, bd)
            n1 = fes.l2_norm(z)
            n2 = np.sqrt(np.einsum("tj,tj,tj->", bd.cell_area, gz.values, gz.values))
            assert abs(n1 - n2) <= 1e-12 * n1


def test_eta_h_midpoint_value_for_affine(grids):
    mesh, _, bd = grids
    z = fes.P1DGField.interpolate(mesh, lambda p: 2.0 * p[:, 0] - p[:, 1])
    gz = fes.eta_h(z, bd)
    mids = mesh.edge_midpoint[mesh.tri_edges]
    expect = 2.0 * mids[..., 0] - mids[..., 1]
    assert np.allclose(gz.values, expect, atol=1e-13)


def test_eta_h_reproduces_elementwise_constants(grids):
    # edge-averaging an already cell-constant trace returns it unchanged
    mesh, _, bd = grids
    consts = RNG.normal(size=mesh.num_triangles)
    z = fes.P1DGField(mesh, np.repeat(consts[:, None], 3, axis=1))
    gz = fes.eta_h(z, bd)
    assert np.allclose(gz.values, consts[:, None], atol=1e-14)


def test_eta_h_o_h_decay():
    def smooth(p):
        return np.sin(np.pi * p[:, 0]) * np.sin(2.0 * p[:, 1])

    errs = []
    for n in (4, 8, 16, 32):
        mesh = square_mesh(n)
        bd = build_barycentric_dual(mesh)
        z = fes.P1DGField.interpolate(mesh, smooth)
        gz = fes.eta_h(z, bd)
        # || z - eta z ||^2 by quadrature over dual cells
        from porous_opt.assembly import AssemblyWorkspace
        from porous_opt.model import default_model
        from porous_opt.quadrature import QuadratureRule

        ws = AssemblyWorkspace(mesh, bd, default_model(), QuadratureRule())
        zq = ws.p1_at_sub(z)
        err2 = float(np.einsum("tcq,tcq->", ws.sub_w, (zq - gz.values[:, :, None]) ** 2))
        errs.append(np.sqrt(err2))
    rate = np.polyfit(np.log([1 / 4, 1 / 8, 1 / 16, 1 / 32]), np.log(errs), 1)[0]
    assert rate >= 0.9


def test_eta_inner_product_ratio_bounds(grids):
    # (z, eta z) is an equivalent norm; the local analysis bounds the ratio
    # against ||z||^2 in [2/3, 10/9] so [0.5, 2] holds with margin
    mesh, _, bd = grids
    for _ in range(100):
        z = fes.P1DGField(mesh, RNG.normal(size=(mesh.num_triangles, 3)))
        ratio = fes.mixed_inner_p1dg_dual(z, fes.eta_h(z, bd)) / fes.l2_inner(z, z)
        assert 0.5 <= ratio <= 2.0


# ---------------------------------------------------------------------------
# divergence and b-form
# ---------------------------------------------------------------------------

def test_divergence_of_linear_field(grids):
    mesh, _, _ = grids
    v = fes.RT0Field.interpolate(mesh, lambda p: p)
    assert np.allclose(v.divergence().values, 2.0, atol=1e-12)


def test_divergence_of_constant_field(grids):
    mesh, _, _ = grids
    v = fes.RT0Field.interpolate(mesh, lambda p: np.tile([0.3, -0.7], (p.shape[0], 1)))
    assert np.allclose(v.divergence().values, 0.0, atol=1e-12)


def test_discrete_divergence_theorem(grids):
    mesh, _, _ = grids
    for _ in range(20):
        v = random_velocity(mesh)
        total = float(v.divergence().values @ mesh.tri_area)
        assert abs(total) < 1e-12


def test_b_form_constant_pressure(grids):
    mesh, dd, _ = grids
    v = random_velocity(mesh)
    w = fes.P0Field(mesh, np.full(mesh.num_triangles, 4.2))
    assert abs(fes.b_form(fes.gamma_h(v, dd), w)) < 1e-12


def test_b_form_duality_identity(grids, unstructured):
    for mesh, dd, _ in (grids, unstructured):
        for _ in range(50):
            v = random_velocity(mesh)
            w = fes.P0Field(mesh, RNG.normal(size=mesh.num_triangles))
            lhs = fes.b_form(fes.gamma_h(v, dd), w)
            rhs = -fes.l2_inner(v.divergence(), w)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_b_form_two_triangle_hand_value():
    mesh = build_primal([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
    dd = build_diamond_dual(mesh)
    e = mesh.interior_edges[0]
    vals = np.zeros(mesh.num_edges)
    vals[e] = 1.5
    v = fes.RT0Field(mesh, vals)
    w = fes.P0Field(mesh, np.array([2.0, -1.0]))
    # hand evaluation: flux 1.5 * |e| out of the lower triangle, so
    # -(div v, w) = -1.5 * sqrt(2) * (w_low - w_hi)
    k_low = mesh.edge_tris[e, 0]
    w_low = w.values[k_low]
    w_hi = w.values[mesh.edge_tris[e, 1]]
    expect = -1.5 * np.sqrt(2.0) * (w_low - w_hi)
    assert fes.b_form(fes.gamma_h(v, dd), w) == pytest.approx(expect, rel=1e-13)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_broken_norm_affine_continuous(grids):
    mesh, _, _ = grids
    z = fes.P1DGField.interpolate(mesh, lambda p: 3.0 * p[:, 0] + 2.0 * p[:, 1] - 1.0)
    # jump part vanishes; gradient part is |Omega| |grad z|^2
    expect = np.sqrt(mesh.domain_area * (9.0 + 4.0))
    assert fes.broken_h1_norm(z) == pytest.approx(expect, rel=1e-12)


def test_broken_norm_two_triangle_constants():
    mesh = build_primal([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
    z = fes.P1DGField(mesh, np.array([[2.0, 2.0, 2.0], [-1.0, -1.0, -1.0]]))
    # single interior edge of length sqrt(2), constant jump 3:
    # (1/h_e) * jump^2 * h_e = 9
    assert fes.broken_h1_norm(z) == pytest.approx(3.0, rel=1e-12)


def test_l2_inner_rt0_matches_quadrature(grids):
    from porous_opt.quadrature import QuadratureRule

    mesh, _, _ = grids
    quad = QuadratureRule()
    v = random_velocity(mesh)
    w = random_velocity(mesh)
    verts = mesh.tri_vertices()
    pts, wq = quad.map_to_triangles(verts[:, 0], verts[:, 1], verts[:, 2])
    ref = float(np.einsum("tq,tqe->", wq, v.eval_at(pts) * w.eval_at(pts)))
    assert fes.l2_inner(v, w) == pytest.approx(ref, rel=1e-12)

