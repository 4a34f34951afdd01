"""Primal triangulation and its two dual tessellations.

Three meshes drive the discretization:

* the primal triangulation, carrying the Raviart-Thomas / P0 / P1DG
  degrees of freedom;
* the barycentric dual grid with three sub-triangles per primal element
  (barycentre joined to the vertices), used to test the saturation equation;
* the diamond dual grid with one cell per primal edge, the union of the
  one or two barycentric sub-triangles that contain the edge (a
  quadrilateral inside, a sub-triangle on the boundary), used to test the
  Darcy equations.

Degree-of-freedom ordering is the mesh construction order: triangles in
input order, edges in order of first appearance while scanning triangles
(local edge j of triangle K joins vertices ``tri[K, j]`` and
``tri[K, (j+1) % 3]``).  Every orientation comes from the counterclockwise
vertex order: the lower-indexed triangle of an edge runs it from v_j to
v_{j+1}, and the edge's unit normal is that run turned clockwise, so it
points out of that triangle (outward on the boundary).  The upper triangle
runs the edge the other way; a mesh where it does not is folded and is
rejected.  This makes every assembled matrix reproducible bit-for-bit for a
given input file.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MeshConformityError, MeshStructureError

_DEGENERATE_REL_TOL = 1e-14


def _cross2(a, b):
    """z-component of the cross product of 2D vectors (broadcasting)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _perp(v):
    """Rotate by -90 degrees: (x, y) -> (y, -x)."""
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = -v[..., 0]
    return out


@dataclass(frozen=True)
class PrimalMesh:
    """Conforming triangulation with full edge connectivity.

    Attributes
    ----------
    vertices : (n_v, 2) float
    triangles : (n_t, 3) int, counterclockwise
    edges : (n_e, 2) int, sorted vertex pairs in construction order
    edge_tris : (n_e, 2) int, adjacent triangles; ``edge_tris[e, 0]`` is the
        lower-indexed one and ``edge_tris[e, 1]`` is -1 on the boundary
    boundary_edge : (n_e,) bool
    edge_normal : (n_e, 2) unit normal out of ``edge_tris[e, 0]``: the edge
        as that triangle runs it (counterclockwise), turned clockwise
    edge_midpoint : (n_e, 2)
    edge_length : (n_e,)
    tri_edges : (n_t, 3) global edge index of each local edge
    tri_edge_sign : (n_t, 3) +1 where the stored normal is outward of the
        triangle, else -1
    tri_area : (n_t,) strictly positive
    barycentre : (n_t, 2)
    h : max element diameter; h_tri per-element diameters
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_tris: np.ndarray
    boundary_edge: np.ndarray
    edge_normal: np.ndarray
    edge_midpoint: np.ndarray
    edge_length: np.ndarray
    tri_edges: np.ndarray
    tri_edge_sign: np.ndarray
    tri_area: np.ndarray
    barycentre: np.ndarray
    h: float
    h_tri: np.ndarray

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def interior_edges(self):
        return np.flatnonzero(~self.boundary_edge)

    @property
    def domain_area(self):
        return float(self.tri_area.sum())

    @property
    def quality_ratio(self):
        """Quasi-uniformity ratio max h_K / min h_K (reported, not enforced)."""
        return float(self.h_tri.max() / self.h_tri.min())

    def tri_vertices(self, k=None):
        """Coordinates of the triangle corners, shape (n_t, 3, 2)."""
        if k is None:
            return self.vertices[self.triangles]
        return self.vertices[self.triangles[k]]


def build_primal(vertex_list, triangle_list) -> PrimalMesh:
    """Build a :class:`PrimalMesh` from raw vertex and triangle arrays.

    Triangles with clockwise orientation are silently reordered to
    counterclockwise; the signed area that finds them is the only
    floating-point orientation test.  Raises :class:`MeshStructureError` for
    non-finite coordinates, out-of-range indices, duplicate or degenerate
    triangles, and :class:`MeshConformityError` if an edge is shared by more
    than two triangles or the mesh is folded: an interior edge's two
    triangles run it the same way, so both lie on one side of it (the error
    names the number of such edges, one of them and its two triangles).
    """
    vertices = np.ascontiguousarray(vertex_list, dtype=float)
    triangles = np.ascontiguousarray(triangle_list, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshStructureError("vertex array must have shape (n, 2)")
    if not np.isfinite(vertices).all():
        raise MeshStructureError("vertex coordinates must be finite")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshStructureError("triangle array must have shape (n, 3)")
    n_v = vertices.shape[0]
    if triangles.size and (triangles.min() < 0 or triangles.max() >= n_v):
        raise MeshStructureError("triangle vertex index out of range")

    pts = vertices[triangles]
    signed = 0.5 * _cross2(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    scale = np.maximum(np.max(np.abs(pts).sum(axis=2), axis=1) ** 2, 1.0)
    degenerate = np.abs(signed) <= _DEGENERATE_REL_TOL * scale
    if degenerate.any():
        raise MeshStructureError(
            f"degenerate triangle(s) at indices {np.flatnonzero(degenerate).tolist()}"
        )
    flip = signed < 0.0
    if flip.any():
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

    keys = np.sort(triangles, axis=1)
    _, counts = np.unique(keys, axis=0, return_counts=True)
    if (counts > 1).any():
        raise MeshStructureError("duplicate triangle(s) in input")

    # edge extraction in deterministic first-appearance order: position
    # 3k + j of the scan holds local edge j of triangle k
    n_t = triangles.shape[0]
    run = np.stack([triangles, triangles[:, [1, 2, 0]]], axis=-1).reshape(-1, 2)
    ends = np.sort(run, axis=1)
    _, first, inverse, counts = np.unique(
        ends[:, 0] * n_v + ends[:, 1],
        return_index=True, return_inverse=True, return_counts=True,
    )
    order = np.argsort(first)
    if (counts > 2).any():
        bad = order[np.argmax(counts[order] > 2)]
        key = tuple(int(v) for v in ends[first[bad]])
        raise MeshConformityError(f"edge {key} shared by more than two triangles")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    scan_edge = rank[inverse]
    tri_edges = scan_edge.reshape(n_t, 3)
    edges = ends[first[order]]
    edge_tris = np.full((order.size, 2), -1, dtype=np.int64)
    edge_tris[:, 0] = first[order] // 3
    repeat = np.ones(scan_edge.size, dtype=bool)
    repeat[first] = False
    upper = np.flatnonzero(repeat)
    edge_tris[scan_edge[upper], 1] = upper // 3
    boundary_edge = edge_tris[:, 1] == -1
    # each edge as its lower triangle runs it, counterclockwise
    lower_run = run[first[order]]
    # the upper triangle of an unfolded edge runs it the other way
    folded = upper[run[upper, 0] == lower_run[scan_edge[upper], 0]]
    if folded.size:
        e = scan_edge[folded[0]]
        raise MeshConformityError(
            f"{folded.size} folded edge(s): edge {tuple(edges[e].tolist())} has "
            f"triangles {edge_tris[e, 0]} and {edge_tris[e, 1]} on the same side"
        )

    area = np.abs(signed)
    barycentre = pts.mean(axis=1)

    evec = vertices[lower_run[:, 1]] - vertices[lower_run[:, 0]]
    edge_length = np.linalg.norm(evec, axis=1)
    edge_midpoint = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
    normal = _perp(evec) / edge_length[:, None]

    tri_edge_sign = np.where(
        edge_tris[tri_edges, 0] == np.arange(n_t)[:, None], 1, -1
    ).astype(np.int64)

    edge_per_tri = edge_length[tri_edges]
    h_tri = edge_per_tri.max(axis=1)

    return PrimalMesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        boundary_edge=boundary_edge,
        edge_normal=normal,
        edge_midpoint=edge_midpoint,
        edge_length=edge_length,
        tri_edges=tri_edges,
        tri_edge_sign=tri_edge_sign,
        tri_area=area,
        barycentre=barycentre,
        h=float(h_tri.max()),
        h_tri=h_tri,
    )


def square_mesh(n, diagonal="right") -> PrimalMesh:
    """Uniform n-by-n criss-cross triangulation of the unit square.

    Each of the n*n cells is split along a diagonal, giving 2*n^2 triangles.
    """
    if n < 1:
        raise MeshStructureError("square_mesh requires n >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    if diagonal == "right":
        pair = [[v00, v10, v11], [v00, v11, v01]]
    else:
        pair = [[v00, v10, v01], [v10, v11, v01]]
    # (2, 3, n*n) -> cell-major, lower triangle of each cell first
    tris = np.transpose(pair, (2, 0, 1)).reshape(-1, 3)
    return build_primal(vertices, tris)


@dataclass(frozen=True)
class DiamondDualMesh:
    """Diamond dual grid: one cell per primal edge.

    Cell e is the union of the barycentric sub-cells (K, j) with
    ``tri_edges[K, j] == e``: two on an interior edge, one on the boundary.
    Its boundary segments are stored flat (CSR layout by cell) with their
    owning primal triangle and outward unit normal.  A cell's run holds each
    sub-cell's two fan segments in the sub-cell's counterclockwise order,
    lower triangle first, and on the boundary then the edge itself.
    """

    mesh: PrimalMesh
    cell_area: np.ndarray           # (n_e,)
    seg_ptr: np.ndarray             # (n_e + 1,) CSR offsets into seg_* arrays
    seg_start: np.ndarray           # (n_seg, 2) first vertex; a cell's run is CCW
    seg_owner: np.ndarray           # (n_seg,) owning triangle
    seg_normal: np.ndarray          # (n_seg, 2) outward unit normal
    seg_length: np.ndarray          # (n_seg,)

    @property
    def num_cells(self):
        return self.cell_area.shape[0]


def build_diamond_dual(mesh: PrimalMesh) -> DiamondDualMesh:
    """Construct the diamond dual tessellation of ``mesh``.

    Edge e with endpoints (a, b) and adjacent triangles k0 < k1 gives the
    cell (a, b_k0, b, b_k1), or (a, b, b_k0) on the boundary, where b_k is
    the barycentre of triangle k.  The fan segments v_{j+1} -> b_k -> v_j of
    the sub-cells of e (:func:`build_barycentric_dual`), k0's then k1's,
    walk the cell counterclockwise, convex or not (on a distorted mesh it
    can be a dart), and a boundary cell closes with the edge v_j -> v_{j+1}.
    So ``_perp(end - start) / length`` points out of the cell on every
    segment; on the closing edge that is ``mesh.edge_normal`` and its length
    ``mesh.edge_length``, read off the primal mesh.  Each segment is owned by
    its sub-cell's triangle, and a cell's area is the sum of its sub-cells'
    areas.
    """
    bary = build_barycentric_dual(mesh)
    edge = mesh.tri_edges.ravel()            # the edge of sub-cell 3K + j
    tri = np.arange(edge.size) // 3
    bnd = mesh.boundary_edge[edge]
    # fan segment i of the sub-cell in the lower (r = 0) or upper (r = 1)
    # triangle of edge e goes to slot 2r + i of cell e; slot 2 of a boundary
    # cell is the edge
    r = mesh.tri_edge_sign.ravel() < 0
    order = np.argsort(np.append((4 * edge + 2 * r)[:, None] + [0, 1], 4 * edge[bnd] + 2))
    normal = np.concatenate([bary.seg_normal.reshape(-1, 2), mesh.edge_normal[edge[bnd]]])
    length = np.concatenate([bary.seg_length.ravel(), mesh.edge_length[edge[bnd]]])
    start = np.concatenate([bary.seg_start.reshape(-1, 2),
                            mesh.tri_vertices().reshape(-1, 2)[bnd]])
    owner = np.concatenate([np.repeat(tri, 2), tri[bnd]])

    seg_ptr = np.zeros(mesh.num_edges + 1, dtype=np.int64)
    np.cumsum(np.where(mesh.boundary_edge, 3, 4), out=seg_ptr[1:])
    return DiamondDualMesh(
        mesh=mesh,
        cell_area=np.bincount(edge, weights=bary.cell_area.ravel()),
        seg_ptr=seg_ptr,
        seg_start=start[order],
        seg_owner=owner[order],
        seg_normal=normal[order],
        seg_length=length[order],
    )


@dataclass(frozen=True)
class BarycentricDualMesh:
    """Barycentric dual grid: three sub-triangles per primal element.

    Cell (K, j) is the sub-triangle (v_j, v_{j+1}, b_K); it contains local
    edge j of triangle K, which links it to the P1DG edge-average transfer.
    The two fan segments (v_{j+1}, b_K) and (b_K, v_j) run counterclockwise
    round the cell, because the triangles are counterclockwise, so their
    unit normals ``_perp(end - start) / length`` point out of it.
    """

    mesh: PrimalMesh
    cell_area: np.ndarray        # (n_t, 3): each equals |K| / 3
    seg_start: np.ndarray        # (n_t, 3, 2, 2) fan segment start points
    seg_end: np.ndarray          # (n_t, 3, 2, 2)
    seg_normal: np.ndarray       # (n_t, 3, 2, 2) outward unit normals
    seg_length: np.ndarray       # (n_t, 3, 2)

    @property
    def num_cells(self):
        return 3 * self.mesh.num_triangles


def build_barycentric_dual(mesh: PrimalMesh) -> BarycentricDualMesh:
    """Construct the barycentric dual tessellation of ``mesh``."""
    pts = mesh.tri_vertices()           # (n_t, 3, 2)
    bary = np.broadcast_to(mesh.barycentre[:, None, :], pts.shape)

    cell_area = np.repeat(mesh.tri_area[:, None] / 3.0, 3, axis=1)

    # traversal v_{j+1} -> b_K -> v_j walks the interior boundary of
    # cell (K, j) counterclockwise (triangles are CCW)
    seg_start = np.stack([pts[:, [1, 2, 0]], bary], axis=2)
    seg_end = np.stack([bary, pts], axis=2)
    tangent = seg_end - seg_start
    seg_length = np.linalg.norm(tangent, axis=-1)
    seg_normal = _perp(tangent) / seg_length[..., None]

    return BarycentricDualMesh(
        mesh=mesh,
        cell_area=cell_area,
        seg_start=seg_start,
        seg_end=seg_end,
        seg_normal=seg_normal,
        seg_length=seg_length,
    )


def read_mesh(node_path, ele_path) -> PrimalMesh:
    """Read a mesh from plain-text node/element files.

    Grammar (both files): the first non-comment line holds the entity count
    and the payload width; every following line is ``index payload...`` with
    0-based indices.  Node payload: two coordinates.  Element payload: three
    vertex indices.  Lines starting with ``#`` are comments.  A line that
    does not parse is named by file and line; a mesh that :func:`build_primal`
    rejects is named by both files.
    """
    nodes = _read_table(node_path, 2, float)
    elems = _read_table(ele_path, 3, int)
    try:
        return build_primal(nodes, elems.astype(np.int64))
    except (MeshStructureError, MeshConformityError) as exc:
        raise type(exc)(f"mesh of {node_path} and {ele_path}: {exc}") from None


def _read_table(path, width, dtype):
    rows = []
    count = None
    # bytes that are not UTF-8 read as U+FFFD, which fails to parse
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            where = f"{path}, line {lineno}"
            try:
                if count is None:
                    count, declared = map(int, parts[:2])
                    if declared != width:
                        raise MeshStructureError(
                            f"{where}: expected payload width {width}, got {declared}"
                        )
                    continue
                if len(parts) != width + 1:
                    raise MeshStructureError(f"{where}: malformed line {line!r}")
                idx = int(parts[0])
                if idx != len(rows):
                    raise MeshStructureError(
                        f"{where}: entity index {idx} out of order (expected {len(rows)})"
                    )
                rows.append([dtype(x) for x in parts[1:]])
            except ValueError:
                raise MeshStructureError(f"{where}: malformed line {line!r}") from None
    if count is None or len(rows) != count:
        raise MeshStructureError(f"{path}: declared count does not match data")
    return np.asarray(rows)


def write_mesh(mesh: PrimalMesh, node_path, ele_path):
    """Write node/element files in the grammar accepted by :func:`read_mesh`."""
    with open(node_path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.num_vertices} 2\n")
        for i, (x, y) in enumerate(mesh.vertices):
            fh.write(f"{i} {x:.17g} {y:.17g}\n")
    with open(ele_path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.num_triangles} 3\n")
        for i, (a, b, c) in enumerate(mesh.triangles):
            fh.write(f"{i} {a} {b} {c}\n")
