"""Discrete fields and the transfer operators between trial and test spaces.

Fields
------
* :class:`RT0Field` -- lowest-order Raviart-Thomas velocity; one coefficient
  per edge equal to the normal component at the edge midpoint with respect
  to the stored global normal.
* :class:`P0Field` -- piecewise-constant pressure, one value per triangle.
* :class:`P1DGField` -- discontinuous piecewise-linear saturation, three
  nodal values per triangle.

Transfer operators
------------------
The test spaces are constants on dual cells, so each transfer returns a
plain array read together with its dual mesh.

``gamma_h`` maps an RT0 field to an (n_e, 2) array, one vector per diamond
cell: the field value at the edge midpoint.  The normal component there is
single valued; the tangential trace jumps between the two adjacent elements,
and is combined as the *area-weighted average* of the two traces.  That
choice keeps the midpoint normal value exact and makes the L2 contraction
``|gamma_h v| <= |v|`` hold sharply on every mesh: the element midpoint rule
is exact for squared RT0 fields and Jensen's inequality does the rest.

``eta_h`` maps a P1DG field to an (n_t, 3) array, one value per barycentric
dual cell indexed (triangle, local edge): the average of the element-local
trace over the edge contained in the cell; for affine functions this is the
trace at the edge midpoint, and the L2 norm is preserved exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PorousOptError
from .mesh import BarycentricDualMesh, DiamondDualMesh, PrimalMesh

P1_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _check_same_mesh(a, b):
    if a.mesh is not b.mesh:
        raise PorousOptError("fields live on different meshes")


def grad_lambda(mesh: PrimalMesh) -> np.ndarray:
    """Gradients of the barycentric coordinates, shape (n_t, 3, 2)."""
    return _grad_lambda(mesh.tri_vertices(), mesh.tri_area)


def _grad_lambda(pts, area):
    """Barycentric gradients of triangles with corners ``pts`` (n, 3, 2)."""
    g = np.empty((pts.shape[0], 3, 2))
    twoA = 2.0 * area
    for i in range(3):
        d = pts[:, (i + 2) % 3] - pts[:, (i + 1) % 3]
        g[:, i, 0] = -d[:, 1] / twoA
        g[:, i, 1] = d[:, 0] / twoA
    return g


def p1_basis_at(mesh: PrimalMesh, pts: np.ndarray, tris=None) -> np.ndarray:
    """Barycentric coordinates of points grouped by triangle.

    Row i of ``pts`` lies in triangle ``tris[i]``, or in triangle i when
    ``tris`` is None.  pts has shape (n, ..., 2); the result (n, ..., 3).
    """
    rows = slice(None) if tris is None else tris
    verts = mesh.tri_vertices(tris)
    g = _grad_lambda(verts, mesh.tri_area[rows])
    extra = pts.ndim - 2
    gx = g.reshape(g.shape[0], *([1] * extra), 3, 2)
    anchor = verts[:, [1, 2, 0], :].reshape(verts.shape[0], *([1] * extra), 3, 2)
    return np.einsum("...je,...je->...j", gx, pts[..., None, :] - anchor)


def rt0_basis_at(mesh: PrimalMesh, pts: np.ndarray, tris=None) -> np.ndarray:
    """Raviart-Thomas basis values at points grouped by triangle.

    Basis j is attached to local edge j and normalized to unit normal
    component (with respect to the stored global edge normal) along that
    edge.  Row i of ``pts`` lies in triangle ``tris[i]``, or in triangle i
    when ``tris`` is None.  pts has shape (n, ..., 2); the result
    (n, ..., 3, 2).
    """
    rows = slice(None) if tris is None else tris
    verts = mesh.tri_vertices(tris)
    coef = (
        mesh.tri_edge_sign[rows]
        * mesh.edge_length[mesh.tri_edges[rows]]
        / (2.0 * mesh.tri_area[rows][:, None])
    )  # (n, 3)
    extra = pts.ndim - 2
    opp = verts[:, [2, 0, 1], :].reshape(verts.shape[0], *([1] * extra), 3, 2)
    c = coef.reshape(coef.shape[0], *([1] * extra), 3, 1)
    return c * (pts[..., None, :] - opp)


@dataclass
class RT0Field:
    """Raviart-Thomas velocity field: normal flux value per edge midpoint."""

    mesh: PrimalMesh
    values: np.ndarray  # (n_e,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_edges,):
            raise PorousOptError("RT0Field needs one coefficient per edge")

    @classmethod
    def interpolate(cls, mesh, vfun):
        """Edge-midpoint normal interpolation of a vector function.

        vfun maps an (n, 2) point array to an (n, 2) value array.
        """
        vals = np.einsum(
            "ij,ij->i", np.asarray(vfun(mesh.edge_midpoint)), mesh.edge_normal
        )
        return cls(mesh, vals)

    @classmethod
    def zero(cls, mesh):
        return cls(mesh, np.zeros(mesh.num_edges))

    def eval_at(self, pts):
        """Evaluate per element; pts (n_t, ..., 2) -> (n_t, ..., 2)."""
        basis = rt0_basis_at(self.mesh, pts)
        coeffs = self.values[self.mesh.tri_edges]
        extra = pts.ndim - 2
        c = coeffs.reshape(coeffs.shape[0], *([1] * extra), 3)
        return np.einsum("...j,...je->...e", c, basis)

    def element_midpoint_values(self):
        """Field values at the three edge midpoints, from inside each element."""
        mids = self.mesh.edge_midpoint[self.mesh.tri_edges]  # (n_t, 3, 2)
        return self.eval_at(mids)

    def divergence(self):
        """Element-wise constant divergence: signed edge fluxes over area."""
        mesh = self.mesh
        flux = (
            mesh.tri_edge_sign
            * self.values[mesh.tri_edges]
            * mesh.edge_length[mesh.tri_edges]
        )
        return P0Field(mesh, flux.sum(axis=1) / mesh.tri_area)


@dataclass
class P0Field:
    """Piecewise-constant field, one value per triangle."""

    mesh: PrimalMesh
    values: np.ndarray  # (n_t,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_triangles,):
            raise PorousOptError("P0Field needs one value per triangle")

    def eval_at(self, pts):
        """Evaluate per element; pts (n_t, ..., 2) -> (n_t, ...)."""
        return np.broadcast_to(self.values.reshape(-1, *([1] * (pts.ndim - 2))), pts.shape[:-1])


@dataclass
class P1DGField:
    """Discontinuous piecewise-linear field: three nodal values per triangle."""

    mesh: PrimalMesh
    values: np.ndarray  # (n_t, 3)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_triangles, 3):
            raise PorousOptError("P1DGField needs shape (n_t, 3)")

    @classmethod
    def interpolate(cls, mesh, fun):
        """Nodal interpolation: fun maps (n, 2) points to (n,) values."""
        pts = mesh.tri_vertices().reshape(-1, 2)
        return cls(mesh, np.asarray(fun(pts)).reshape(mesh.num_triangles, 3))

    @classmethod
    def constant(cls, mesh, value):
        return cls(mesh, np.full((mesh.num_triangles, 3), float(value)))

    def eval_at(self, pts):
        """Evaluate per element; pts (n_t, ..., 2) -> (n_t, ...)."""
        lam = p1_basis_at(self.mesh, pts)
        extra = pts.ndim - 2
        v = self.values.reshape(self.values.shape[0], *([1] * extra), 3)
        return np.einsum("...j,...j->...", v, lam)

    def gradients(self):
        """Element gradients, shape (n_t, 2)."""
        return np.einsum("tj,tje->te", self.values, grad_lambda(self.mesh))


def gamma_h(v: RT0Field) -> np.ndarray:
    """Transfer an RT0 field to the diamond test space: its value at each edge
    midpoint, area-weighted tangentially, shape (n_e, 2)."""
    per_elem = v.element_midpoint_values()  # (n_t, 3, 2)
    mesh = v.mesh
    acc = np.zeros((mesh.num_edges, 2))
    wsum = np.zeros(mesh.num_edges)
    w = np.repeat(mesh.tri_area[:, None], 3, axis=1).ravel()
    idx = mesh.tri_edges.ravel()
    np.add.at(acc, idx, per_elem.reshape(-1, 2) * w[:, None])
    np.add.at(wsum, idx, w)
    return acc / wsum[:, None]


def eta_h(z: P1DGField) -> np.ndarray:
    """Transfer a P1DG field to the barycentric dual test space: the
    element-local trace average over each local edge, shape (n_t, 3)."""
    return 0.5 * (z.values + z.values[:, [1, 2, 0]])


def b_form(gv: np.ndarray, w: P0Field, dual: DiamondDualMesh) -> float:
    """Pressure-velocity coupling on the diamond grid.

    Evaluates the sum over the cells of ``dual`` of the cell vector ``gv``
    dotted with the boundary integral of ``w`` times the unit normal, signed
    so that the duality ``b_form(gamma_h(v), w, dual) == -(div v, w)`` holds
    exactly for RT0 fields with vanishing boundary flux.
    """
    if dual.mesh is not w.mesh:
        raise PorousOptError("field and diamond dual live on different meshes")
    seg = w.values[dual.seg_owner][:, None] * dual.seg_normal * dual.seg_length[:, None]
    cell_flux = np.add.reduceat(seg, dual.seg_ptr[:-1], axis=0)
    # reduceat with equal consecutive offsets would inject spurious rows;
    # every diamond cell has >= 3 segments so offsets are strictly increasing
    return float(np.einsum("ce,ce->", gv, cell_flux))


def l2_inner(a, b) -> float:
    """L2 inner product of two P1DG, P0 or RT0 fields of one type and mesh."""
    _check_same_mesh(a, b)
    if isinstance(a, P1DGField) and isinstance(b, P1DGField):
        return float(
            np.einsum(
                "t,ti,ij,tj->", a.mesh.tri_area, a.values, P1_MASS, b.values
            )
        )
    if isinstance(a, P0Field) and isinstance(b, P0Field):
        return float((a.values * b.values) @ a.mesh.tri_area)
    if isinstance(a, RT0Field) and isinstance(b, RT0Field):
        # edge-midpoint rule is exact for products of element-affine fields
        va = a.element_midpoint_values()
        vb = b.element_midpoint_values()
        return float(
            np.einsum("t,tje->", a.mesh.tri_area / 3.0, va * vb)
        )
    raise PorousOptError(f"unsupported field combination {type(a)}, {type(b)}")


def l2_norm(a) -> float:
    return float(np.sqrt(max(l2_inner(a, a), 0.0)))


def mixed_inner_p1dg_dual(z: P1DGField, w: np.ndarray,
                          bary: BarycentricDualMesh) -> float:
    """Inner product (z, w) of a P1DG field against constants ``w`` (n_t, 3)
    on the cells of ``bary``."""
    if bary.mesh is not z.mesh:
        raise PorousOptError("field and barycentric dual live on different meshes")
    # integral of the affine z over cell (K, j): area/3 of K times the value
    # at the sub-triangle centroid (v_j + v_{j+1} + b_K)/3
    mean = z.values.mean(axis=1)
    centroid_vals = (z.values + z.values[:, [1, 2, 0]] + mean[:, None]) / 3.0
    return float(np.einsum("tj,tj,tj->", bary.cell_area, centroid_vals, w))


def broken_h1_norm(z: P1DGField) -> float:
    """DG energy norm: element H1 seminorms plus interior edge jump penalty.

    The jump sum runs over interior edges only; for the homogeneous-flux
    boundary treatment the boundary terms are absent, so globally affine
    continuous functions have zero jump part.
    """
    grads = z.gradients()
    semi = float(np.einsum("t,te,te->", z.mesh.tri_area, grads, grads))
    return float(np.sqrt(semi + _interior_jump_sq(z)))


def _interior_jump_sq(z: P1DGField) -> float:
    """Jump part of the broken H1 norm squared: over the interior edges, the
    integral of the squared jump of z along the edge divided by h_e."""
    mesh = z.mesh
    ie = mesh.interior_edges
    k = mesh.edge_tris[ie]  # (n_i, 2): the two adjacent triangles
    ends = mesh.edges[ie]
    # local vertex of each side's triangle at each stored edge endpoint,
    # shape (n_i, side, endpoint)
    local = np.argmax(mesh.triangles[k][:, :, None, :] == ends[:, None, :, None], axis=3)
    traces = np.take_along_axis(z.values[k], local, axis=2)
    d = traces[:, 0, :] - traces[:, 1, :]
    return float(np.sum((d[:, 0] ** 2 + d[:, 0] * d[:, 1] + d[:, 1] ** 2) / 3.0))
