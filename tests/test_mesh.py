import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porous_opt.errors import MeshConformityError, MeshStructureError
from porous_opt.mesh import (
    _perp,
    build_barycentric_dual,
    build_diamond_dual,
    build_primal,
    read_mesh,
    square_mesh,
    write_mesh,
)
from test_verify import jittered_square

SQUARE_VERTS = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SQUARE_TRIS = [[0, 1, 2], [0, 2, 3]]


@pytest.fixture
def two_tri():
    return build_primal(SQUARE_VERTS, SQUARE_TRIS)


def test_two_triangle_square_counts(two_tri):
    # 5 edges total, one interior (forced by the topology)
    assert two_tri.num_edges == 5
    assert len(two_tri.interior_edges) == 1
    assert two_tri.num_triangles == 2
    assert two_tri.domain_area == pytest.approx(1.0)


def test_reference_triangle_geometry():
    m = build_primal([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert m.tri_area[0] == pytest.approx(0.5)
    assert m.h == pytest.approx(np.sqrt(2.0))
    assert m.boundary_edge.all()


@settings(deadline=None, max_examples=12)
@given(n=st.integers(min_value=1, max_value=9))
def test_square_mesh_counts_and_area(n):
    m = square_mesh(n)
    assert m.num_triangles == 2 * n * n
    assert m.tri_area.sum() == pytest.approx(1.0, abs=1e-13)
    assert (m.tri_area > 0).all()


def test_orientation_normalized():
    # clockwise input triangle gets reordered, area stays positive
    m = build_primal([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    assert m.tri_area[0] == pytest.approx(0.5)
    pts = m.tri_vertices(0)
    d = pts[1] - pts[0]; e = pts[2] - pts[0]
    assert d[0] * e[1] - d[1] * e[0] > 0


def test_bad_index_rejected():
    with pytest.raises(MeshStructureError):
        build_primal(SQUARE_VERTS, [[0, 1, 7]])


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshStructureError):
        build_primal([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coordinate_rejected(bad):
    # a nan vertex slips past the degeneracy test (nan <= tol is False)
    with pytest.raises(MeshStructureError, match="finite"):
        build_primal([[0, 0], [1, 0], [0, bad]], [[0, 1, 2]])


def test_duplicate_triangle_rejected():
    with pytest.raises(MeshStructureError):
        build_primal(SQUARE_VERTS, [[0, 1, 2], [2, 1, 0]])


def test_nonconforming_rejected():
    verts = SQUARE_VERTS + [[2.0, 0.5]]
    tris = [[0, 1, 2], [0, 2, 3], [0, 2, 4]]  # edge (0,2) used three times
    with pytest.raises(MeshConformityError, match=r"edge \(0, 2\) shared"):
        build_primal(verts, tris)


def _moved_centre():
    # the centre of square_mesh(2) moved out past x = 1 turns two triangles
    # over; reoriented, they overlap their neighbours across three edges
    base = square_mesh(2)
    verts = base.vertices.copy()
    verts[4] = [1.2, 0.5]
    return build_primal(verts, base.triangles)


@pytest.mark.parametrize("build, count", [
    (_moved_centre, 3),
    (lambda: jittered_square(64, 0.45), 238),
    (lambda: jittered_square(128, 0.3), 6),
], ids=["moved_centre", "jittered_64_amp045", "jittered_128_amp03"])
def test_folded_mesh_rejected(build, count):
    with pytest.raises(MeshConformityError, match=rf"^{count} folded edge\(s\): edge "
                                                  r"\(\d+, \d+\) has triangles \d+ and \d+ "
                                                  r"on the same side$"):
        build()


def _oracle_meshes():
    return [
        read_mesh("data/unstructured_square.node", "data/unstructured_square.ele"),
        square_mesh(5),
        # two thin triangles on the edge (0,0)-(1,0): its diamond cell is a
        # dart, non-convex at (1, 0), whose vertex mean lies outside it
        build_primal([[0, 0], [1, 0], [5, 1], [5, -1]], [[0, 1, 2], [1, 0, 3]]),
    ]


_ORACLE_IDS = ["unstructured", "n5", "dart"]


@pytest.mark.parametrize("diagonal", ["right", "left"])
def test_square_mesh_triangle_order(diagonal):
    n = 5
    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = j * (n + 1) + i, j * (n + 1) + i + 1
            v01, v11 = v00 + n + 1, v10 + n + 1
            if diagonal == "right":
                tris += [[v00, v10, v11], [v00, v11, v01]]
            else:
                tris += [[v00, v10, v01], [v10, v11, v01]]
    assert np.array_equal(square_mesh(n, diagonal).triangles, tris)


@pytest.mark.parametrize("mesh", _oracle_meshes(), ids=_ORACLE_IDS)
def test_edge_extraction_matches_first_appearance_loop(mesh):
    index, edges, edge_tris = {}, [], []
    tri_edges = np.empty_like(mesh.triangles)
    for k, tri in enumerate(mesh.triangles.tolist()):
        for j in range(3):
            key = tuple(sorted((tri[j], tri[(j + 1) % 3])))
            if key not in index:
                index[key] = len(edges)
                edges.append(key)
                edge_tris.append([k, -1])
            else:
                edge_tris[index[key]][1] = k
            tri_edges[k, j] = index[key]
    assert mesh.edges.dtype == mesh.edge_tris.dtype == mesh.tri_edges.dtype == np.int64
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.edge_tris, edge_tris)
    assert np.array_equal(mesh.tri_edges, tri_edges)


_ORIENTATION_MESHES = {
    "two_tri": lambda: build_primal(SQUARE_VERTS, SQUARE_TRIS),
    "n3": lambda: square_mesh(3),
    "n5_left": lambda: square_mesh(5, "left"),
    "unstructured": lambda: read_mesh("data/unstructured_square.node",
                                      "data/unstructured_square.ele"),
    "jittered": jittered_square,    # non-convex diamond cells
}


@pytest.mark.parametrize("build", _ORIENTATION_MESHES.values(), ids=_ORIENTATION_MESHES.keys())
def test_normal_orientation_convention(build):
    mesh = build()
    # oracle: every normal points away from the barycentre of the
    # lower-indexed adjacent triangle, so out of it (outward on the boundary)
    k0 = mesh.edge_tris[:, 0]
    away = mesh.edge_midpoint - mesh.barycentre[k0]
    assert (np.einsum("ij,ij->i", mesh.edge_normal, away) > 0).all()
    # and it is, bit for bit, the lower triangle's run v_j -> v_{j+1} turned
    # clockwise over its length
    e = np.arange(mesh.num_edges)
    j = np.argmax(mesh.tri_edges[k0] == e[:, None], axis=1)
    v = mesh.tri_vertices(k0)
    run = v[e, (j + 1) % 3] - v[e, j]
    assert mesh.edge_normal.tobytes() == (_perp(run) / mesh.edge_length[:, None]).tobytes()


def test_interior_normal_sign_pairing():
    m = square_mesh(3)
    for e in m.interior_edges:
        k0, k1 = m.edge_tris[e]
        j0 = np.argmax(m.tri_edges[k0] == e)
        j1 = np.argmax(m.tri_edges[k1] == e)
        assert m.tri_edge_sign[k0, j0] == -m.tri_edge_sign[k1, j1]


# ---------------------------------------------------------------------------
# diamond dual
# ---------------------------------------------------------------------------

def test_diamond_two_tri(two_tri):
    dd = build_diamond_dual(two_tri)
    assert dd.num_cells == 5
    boundary = two_tri.boundary_edge
    assert boundary.sum() == 4
    assert dd.cell_area.sum() == pytest.approx(1.0, rel=1e-12)
    # the single interior cell is a quadrilateral
    e = two_tri.interior_edges[0]
    assert dd.seg_start[dd.seg_ptr[e]:dd.seg_ptr[e + 1]].shape[0] == 4


def test_diamond_reference_triangle():
    m = build_primal([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    dd = build_diamond_dual(m)
    # three boundary cells, each one third of the element
    assert dd.num_cells == 3
    assert np.allclose(dd.cell_area, m.tri_area[0] / 3.0)


def test_diamond_interior_area_identity():
    m = square_mesh(4)
    dd = build_diamond_dual(m)
    for e in m.interior_edges:
        k0, k1 = m.edge_tris[e]
        expect = (m.tri_area[k0] + m.tri_area[k1]) / 3.0
        assert dd.cell_area[e] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("mesh", _oracle_meshes(), ids=_ORACLE_IDS)
def test_diamond_cells_against_geometry(mesh):
    dd = build_diamond_dual(mesh)
    assert dd.seg_ptr.size == mesh.num_edges + 1
    for e in range(mesh.num_edges):
        lo, hi = dd.seg_ptr[e], dd.seg_ptr[e + 1]
        poly = dd.seg_start[lo:hi]
        assert poly.shape == (hi - lo, 2)
        nxt = np.roll(poly, -1, axis=0)
        twice = np.sum(poly[:, 0] * nxt[:, 1] - poly[:, 1] * nxt[:, 0])
        assert twice > 0.0  # counterclockwise
        assert abs(0.5 * twice - dd.cell_area[e]) <= 1e-14
        mid = 0.5 * (poly + nxt)
        normal = dd.seg_normal[lo:hi]
        assert np.allclose(np.linalg.norm(normal, axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.allclose(dd.seg_length[lo:hi], np.linalg.norm(nxt - poly, axis=1),
                           rtol=0, atol=1e-15)
        # the cell is counterclockwise, so the tangent turned by -90 degrees
        # points out of it, convex or not
        t = nxt - poly
        assert np.array_equal(normal, np.column_stack([t[:, 1], -t[:, 0]])
                              / dd.seg_length[lo:hi, None])
        # each segment's midpoint lies in its owning triangle
        for s, k in enumerate(dd.seg_owner[lo:hi]):
            v = mesh.tri_vertices(k) - mid[s]
            cross = v[:, 0] * np.roll(v[:, 1], -1) - v[:, 1] * np.roll(v[:, 0], -1)
            assert (cross >= -1e-12 * cross.sum()).all()


@pytest.mark.parametrize("mesh", _oracle_meshes() + [jittered_square()],
                         ids=_ORACLE_IDS + ["jittered"])
def test_diamond_cells_are_sub_cells_grouped_by_edge(mesh):
    # cell e is the union of the barycentric sub-cells (K, j) with
    # tri_edges[K, j] == e, closed on the boundary by the edge v_j -> v_{j+1}
    dd, bd = build_diamond_dual(mesh), build_barycentric_dual(mesh)

    def rows(start, normal, length, owner):
        return sorted(r.tobytes() for r in np.column_stack([start, normal, length, owner]))

    for e in range(mesh.num_edges):
        K, j = np.nonzero(mesh.tri_edges == e)
        start = bd.seg_start[K, j].reshape(-1, 2)
        normal = bd.seg_normal[K, j].reshape(-1, 2)
        length = bd.seg_length[K, j].ravel()
        owner = np.repeat(K, 2)
        assert mesh.boundary_edge[e] == (K.size == 1)
        if mesh.boundary_edge[e]:
            a, b = mesh.tri_vertices(K[0])[[j[0], (j[0] + 1) % 3]]
            t = b - a
            start = np.vstack([start, a])
            normal = np.vstack([normal, np.array([t[1], -t[0]]) / mesh.edge_length[e]])
            length = np.append(length, mesh.edge_length[e])
            owner = np.append(owner, K)
        lo, hi = dd.seg_ptr[e], dd.seg_ptr[e + 1]
        assert rows(dd.seg_start[lo:hi], dd.seg_normal[lo:hi], dd.seg_length[lo:hi],
                    dd.seg_owner[lo:hi]) == rows(start, normal, length, owner)
        assert abs(dd.cell_area[e] - bd.cell_area[K, j].sum()) <= 1e-15 * dd.cell_area[e]


def test_partition_of_unity_all_grids():
    mesh = read_mesh("data/unstructured_square.node", "data/unstructured_square.ele")
    dd = build_diamond_dual(mesh)
    bd = build_barycentric_dual(mesh)
    area = mesh.domain_area
    assert dd.cell_area.sum() == pytest.approx(area, rel=1e-12)
    assert bd.cell_area.sum() == pytest.approx(area, rel=1e-12)


# ---------------------------------------------------------------------------
# barycentric dual
# ---------------------------------------------------------------------------

def test_barycentric_reference_triangle():
    m = build_primal([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    bd = build_barycentric_dual(m)
    assert np.allclose(bd.cell_area, 1.0 / 6.0)


def test_barycentric_two_tri(two_tri):
    bd = build_barycentric_dual(two_tri)
    assert bd.num_cells == 6
    assert bd.cell_area.sum() == pytest.approx(1.0, rel=1e-12)


def test_barycentric_arbitrary_triangle():
    m = build_primal([[0, 0], [2, 0], [0, 4]], [[0, 1, 2]])
    bd = build_barycentric_dual(m)
    assert np.allclose(bd.cell_area, 4.0 / 3.0)


@pytest.mark.parametrize("mesh", _oracle_meshes(), ids=_ORACLE_IDS)
def test_fan_normals_turn_counterclockwise_tangents(mesh):
    bd = build_barycentric_dual(mesh)
    # the fan of sub-triangle (v_j, v_{j+1}, b_K) runs v_{j+1} -> b_K -> v_j
    pts, b = mesh.tri_vertices(), mesh.barycentre
    for j in range(3):
        assert np.array_equal(bd.seg_start[:, j, 0], pts[:, (j + 1) % 3])
        assert np.array_equal(bd.seg_end[:, j, 0], b)
        assert np.array_equal(bd.seg_start[:, j, 1], b)
        assert np.array_equal(bd.seg_end[:, j, 1], pts[:, j])
    t = bd.seg_end - bd.seg_start
    assert (t[:, :, 0, 0] * t[:, :, 1, 1] - t[:, :, 0, 1] * t[:, :, 1, 0] > 0.0).all()
    turned = np.stack([t[..., 1], -t[..., 0]], axis=-1)
    assert np.array_equal(bd.seg_normal, turned / bd.seg_length[..., None])


def test_fan_closure():
    # per triangle, the six interior fan segments close: sum n * len = 0
    mesh = read_mesh("data/unstructured_square.node", "data/unstructured_square.ele")
    bd = build_barycentric_dual(mesh)
    total = np.einsum("tjse,tjs->te", bd.seg_normal, bd.seg_length)
    assert np.abs(total).max() < 1e-12


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------

def test_mesh_file_round_trip(tmp_path):
    m = square_mesh(3)
    write_mesh(m, tmp_path / "m.node", tmp_path / "m.ele")
    m2 = read_mesh(tmp_path / "m.node", tmp_path / "m.ele")
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.allclose(m.vertices, m2.vertices)


def test_mesh_file_bad_width(tmp_path):
    (tmp_path / "bad.node").write_text("2 3\n0 0 0 0\n1 1 1 1\n")
    with pytest.raises(MeshStructureError):
        read_mesh(tmp_path / "bad.node", tmp_path / "bad.node")


@pytest.mark.parametrize("node, ele, bad, line", [
    ("3\n0 0 0\n1 1 0\n2 0 1\n", "1 3\n0 0 1 2\n", "m.node", 1),       # no width
    ("3 2\n0 0 0\n1 1 x\n2 0 1\n", "1 3\n0 0 1 2\n", "m.node", 3),     # bad coordinate
    ("3 2\n0 0 0\n1 1 0\n2 0 1\n", "1 3\n0 0 1 2.5\n", "m.ele", 2),    # bad vertex index
    ("3 2\n0 0 0\n# c\n2 1 0\n1 0 1\n", "1 3\n0 0 1 2\n", "m.node", 4),  # out of order
    (b"3 2\n0 0 0\n1 1 \xff\n2 0 1\n", "1 3\n0 0 1 2\n", "m.node", 3),  # not UTF-8
], ids=["header_without_width", "non_numeric_coordinate", "non_integer_vertex",
        "index_out_of_order", "not_utf8"])
def test_malformed_mesh_file_names_file_and_line(tmp_path, node, ele, bad, line):
    for name, text in (("m.node", node), ("m.ele", ele)):
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / name).write_bytes(data)
    with pytest.raises(MeshStructureError, match=rf"{bad}, line {line}: "):
        read_mesh(tmp_path / "m.node", tmp_path / "m.ele")
