"""Assembly of every matrix and vector of the two discretizations.

Darcy block (diamond grid): velocity matrix A, divergence coupling B, well
load F, and the costate load F*.  Row i of A tests the momentum balance
against the full transferred basis function gamma_h(Phi_i) -- the piecewise
constant vector over *all* diamond cells meeting the support of Phi_i, not
just its own cell (testing only the own-cell value halves the discrete
pressure: the diamond area is half the edge-length times barycentre-distance
product that scales the pressure coupling).  Boundary-edge degrees of
freedom are eliminated (slip condition), so A is square on interior edges.

Saturation block (barycentric dual grid): the eta-weighted mass matrix D,
convection matrix E, diffusion matrix H = T1 + T2 + T3 + T4 (interior fan
fluxes, two consistency edge terms, and the jump penalty), source vector G,
and the costate pieces R (production reaction), S (cross-gradient), W
(terminal-weight load) and Z (velocity-product load).

Matrix index convention: row = test function, column = trial function, so a
system row collects one discrete equation and the quadratic-form identity
``A_h(psi; phi, z) == z @ H(psi) @ phi`` holds (the companion function
:func:`trilinear_form` evaluates the same form by direct edge/fan loops and
is kept as an independent cross-check path).

Nonlinear coefficients are evaluated pointwise at quadrature nodes from the
P1DG traces of the saturation argument; edge sums run over interior edges
(homogeneous-flux boundary treatment), which keeps constants in the kernel
of E and H.  Assembly is deterministic: loops run in mesh order and produce
bit-identical matrices for identical inputs.

Each input has one owner.  :class:`AssemblyWorkspace` holds one quadrature
per kind of cell, mapped by :class:`QuadratureRule`: sub-cells, fan segments,
interior edges.  The sub-cell (K, j) = (v_j, v_{j+1}, b_K) is also the part
of the diamond cell of edge j inside K, so both duals integrate on the
sub-cells, and ``sub_lam`` and ``fan_lam`` are reference tables.  Every
Darcy entry is indexed by its sub-cell (t, j), and diamond cell e collects
the (at most two) sub-cells with ``tri_edges[t, j] == e``.  Only
``gamma_mat`` spells out its RT0 basis, from ``rt0_coef``.  The workspace also
owns both test-space transfers: ``dual_matrix``/``step_matrix``/``dual_load``
apply eta_h to sub-cell integrals, and ``diamond_matrix`` scatters
per-sub-cell entries to the diamond cells (``gamma_mat`` and the
alpha-weighted basis integrals behind A).  It owns the symmetric CSC pattern
all saturation matrices share (``sat_indptr``/``sat_indices``: triangle t's
columns hold the rows of t and its interior-edge neighbours, ascending), the
slot maps ``el_slot``/``edge_slot`` placing each element and interior-edge
block entry in ``data``, and the one scatter onto that pattern
(``_scatter``).  It also owns the geometry products the saturation kernels
contract at every step.  Phi_j . grad lambda_l at the sub-cell points is
``rt0_coef[t, j]`` times the reference table ``sub_rt0_grad[j, c, q, l]``,
the same on every triangle, so E is one GEMM of the scaled edge coefficients
with that table and one contraction with w b(C).  ``seg_ngrad`` holds the fan
segment normals against grad lambda_l (T1), and
``edge_ngradL``/``edge_ngradR`` the interior-edge normals against each
side's grad lambda_l (the edge fluxes).  The per-step kernels are broadcasts
and ``matmul`` over these tables; only Z evaluates the velocities at the
sub-cell points.  Its ``step_ordering`` (:class:`SaturationOrdering`, built
at the first step from the triangle table ``nb`` behind the pattern) holds
the diagonal slots and the one elimination order of the step matrices, and
its ``null_space`` (:class:`DarcyNullSpace`, built at the first Darcy solve)
the divergence-free velocity basis and the B B^T factor that every Darcy
solve of the mesh shares.  The coefficients (alpha, b, D, f and their
derivatives, kappa, phi) come from the workspace's ``ws.model``, so a matrix
cannot mix two models; :func:`trilinear_form`, which builds no workspace,
takes its own.

The saturation kernels (:func:`assemble_saturation_state`,
:func:`_diffusion_matrix`, :func:`assemble_saturation_costate`,
:func:`assemble_costate_loads`) run their
per-point work over blocks of consecutive triangles and interior edges
(:func:`_blocks`).  A block evaluates the ``ws.model`` coefficients, the P1
values at its sub-cell, fan and edge points, the velocity-gradient table, the
quadrature products and the edge flux blocks, and writes its rows into
outputs allocated once per call: (n_t, 3, 3) cell rows, (n_t, 3) loads and
(n_ie, 6, 6) edge blocks.  The injection source G and the reaction R are
evaluated only on the well triangles of each block.  A block's length comes
from the byte budget ``_BLOCK_BYTES`` of its largest temporary: 256 rows at
the default nq = 6, 108 KiB, which fits in L2 and stays below glibc's default
128 KiB mmap threshold.  A whole-mesh temporary above that threshold is
mapped and faulted in afresh at every call, while a block's is reused from
the heap.  Each row goes through the same operations as in a whole-mesh
pass, so the operators keep their bits.

The saturation matrix kernels return blocks, not matrices: E, R and S
their sub-cell rows (n_t, 3, 3), H its rows and its interior-edge blocks
(n_ie, 6, 6).  A step matrix is one operator sum, D + dt (E + H) forward and
D + dt (-E + H + S + R) for the costate, so the sweeps add the blocks of its
operators and ``ws.step_matrix`` scatters the sum once: the eta_h transfer of
the rows is written by slot on top of the edge blocks, summed in edge order,
then scaled by dt and added to D's data.  ``ws.dual_matrix`` scatters one
operator on its own, with the same arithmetic, for the matrix dumps, the
operator suite and the tests; no sweep calls it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError, ConfigError, DomainError
from .fespaces import P1DGField, RT0Field, eta_h, grad_lambda, p1_basis_at
from .mesh import BarycentricDualMesh, PrimalMesh
from .model import CoefficientModel, WellModel
from .quadrature import QuadratureRule

# eta_h selector: SEL[j, v] = average weight of local vertex v on local edge j
SEL = 0.5 * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])

# local eta-weighted mass block per unit area and unit porosity
_D_LOCAL_UNIT = (
    np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 18.0
    + np.ones((3, 3)) / 27.0
)


@dataclass
class AssemblyWorkspace:
    """Geometry and coefficient caches reused by every assembly call.

    Triangle integrals use one point set, the sub-cell quadrature
    ``sub_pts``/``sub_w`` (n_t, 3, nq).  Sub-cell (t, j) is also the portion
    inside t of the diamond cell of edge ``tri_edges[t, j]``, so the Darcy
    kernels index their entries by sub-cell too, and ``diamond_matrix`` and
    ``_gamma_load`` sum each diamond cell's sub-cells.  Reference tables, the
    same in every triangle: ``sub_lam`` (3, nq, 3) and ``fan_lam``
    (3, 2, ne, 3), the barycentric coordinates of the sub-cell and fan
    points, and ``sub_rt0_grad`` (3, 3, nq, 3); the other tables are per
    triangle or edge.  ``nb`` (n_t, 4) lists each triangle and its
    interior-edge neighbours, ascending and padded with n_t: the saturation
    pattern and its elimination order are both read off it.
    """

    mesh: PrimalMesh
    bary: BarycentricDualMesh
    model: CoefficientModel
    quad: QuadratureRule

    def __post_init__(self):
        mesh = self.mesh
        quad = self.quad
        n_t = mesh.num_triangles
        verts = mesh.tri_vertices()
        bc = mesh.barycentre

        self.gradlam = grad_lambda(mesh)

        # sub-cells (K, c) = (v_c, v_c+1, b_K): point (c, q) has the barycentric
        # coordinates (1 - x - y) at v_c, x at v_c+1 and y / 3 at each vertex
        self.sub_pts, self.sub_w = quad.map_to_triangles(
            verts, verts[:, [1, 2, 0]], bc[:, None]
        )
        x, y = quad.tri_points.T
        eye = np.eye(3)
        self.sub_lam = ((1.0 - x - y)[:, None] * eye[:, None, :]
                        + x[:, None] * eye[[1, 2, 0], None, :] + y[:, None] / 3.0)  # (3, nq, 3)
        # RT0 scale: Phi_j = rt0_coef[t, j] (x - p_j), p_j the vertex opposite edge j
        self.rt0_coef = (mesh.tri_edge_sign * mesh.edge_length[mesh.tri_edges]
                         / (2.0 * mesh.tri_area[:, None]))

        # fan segments of the barycentric dual, (c, 0) = v_c+1 -> b_K, (c, 1) = b_K -> v_c
        fp, fw = quad.map_to_segments(self.bary.seg_start, self.bary.seg_end)
        self.fan_pts, self.fan_w = fp, fw      # (n_t,3,2,ne,2), (n_t,3,2,ne)
        s = quad.edge_points[:, None]
        self.fan_lam = np.stack([(1.0 - s) * eye[[1, 2, 0], None, :] + s / 3.0,
                                 (1.0 - s) / 3.0 + s * eye[:, None, :]], axis=1)  # (3, 2, ne, 3)

        # interior edge data
        ie = mesh.interior_edges
        self.ie_normal = mesh.edge_normal[ie]
        self.ie_h = mesh.edge_length[ie]
        self.kL = mesh.edge_tris[ie, 0]
        self.kR = mesh.edge_tris[ie, 1]
        pa = mesh.vertices[mesh.edges[ie, 0]]
        pb = mesh.vertices[mesh.edges[ie, 1]]
        self.edge_pts, self.edge_w = quad.map_to_segments(pa, pb)
        self.edge_lamL = p1_basis_at(mesh, self.edge_pts, self.kL)
        self.edge_lamR = p1_basis_at(mesh, self.edge_pts, self.kR)

        # jump of the eta averages across each edge, (n_ie, 6): SEL's 0.5 at
        # the local vertices of the edge, left side minus right side
        def avg_ops(ks):
            return SEL[np.argmax(mesh.tri_edges[ks] == ie[:, None], axis=1)]

        self.avg_jump = np.concatenate([avg_ops(self.kL), -avg_ops(self.kR)], axis=1)

        # geometry products the kernels contract at every step.
        # Phi_j . grad(lambda_l) = rt0_coef[t, j] (lambda_l(x) - lambda_l(p_j)),
        # so at sub-cell point (c, q) it is rt0_coef[t, j] times the reference
        # table sub_rt0_grad[j, c, q, l], and Phi_j is
        # rt0_coef[t, j] sum_l sub_rt0_grad[j, c, q, l] vert_rel[t, l]
        self.sub_rt0_grad = self.sub_lam - eye[[2, 0, 1], None, None, :]
        self.vert_rel = verts - verts[:, :1]                              # (n_t, 3, 2)
        # seg_ngrad[t, c, s, l] = n . grad(lambda_l) on fan segment (c, s),
        # edge_ngradL/R[e, l] = n_e . grad(lambda_l) of each side's trial basis
        grad_t = np.swapaxes(self.gradlam, 1, 2)                          # (n_t, 2, 3)
        self.seg_ngrad = (self.bary.seg_normal.reshape(n_t, -1, 2) @ grad_t).reshape(
            self.bary.seg_normal.shape[:-1] + (3,))
        self.edge_ngradL = np.einsum("nle,ne->nl", self.gradlam[self.kL], self.ie_normal)
        self.edge_ngradR = np.einsum("nle,ne->nl", self.gradlam[self.kR], self.ie_normal)
        # C-independent penalty integrals of the jump products, (n_ie, 6, 6)
        lam = np.concatenate([self.edge_lamL, -self.edge_lamR], axis=2)
        self.edge_penalty = np.einsum("nq,nqr,nqc->nrc", self.edge_w, lam, lam)

        # saturation pattern: t, then the triangle across each edge (-1 -> n_t pads)
        tri = np.arange(n_t)[:, None]
        nb = np.hstack([tri, mesh.edge_tris[mesh.tri_edges].sum(axis=2) - tri])
        self.nb = nb = np.sort(np.where(nb < 0, n_t, nb), axis=1).astype(np.int32)
        keep = np.repeat(nb < n_t, 3, axis=1)                # (n_t, 12) rows of a column
        rows = (3 * nb[:, None, :, None] + np.arange(3, dtype=np.int32)).reshape(n_t, 1, 12)
        self.sat_indices = np.broadcast_to(rows, (n_t, 3, 12))[np.stack([keep] * 3, axis=1)]
        self.sat_indptr = np.append(0, np.cumsum(np.repeat(keep.sum(axis=1), 3))).astype(np.int32)
        self.el_slot = _block_slots(nb, self.sat_indptr, tri)
        self.edge_slot = _block_slots(nb, self.sat_indptr, np.stack([self.kL, self.kR], axis=1))

        # Darcy index: sub-cell (t, j) is the portion inside t of the diamond
        # cell of edge tri_edges[t, j]; entry (t, j, l, comp) of a diamond
        # matrix goes to row 2 tri_edges[t, j] + comp and to the interior
        # dof of local edge l
        int_of_edge = -np.ones(mesh.num_edges, dtype=np.int64)
        int_of_edge[ie] = np.arange(ie.size)
        self.int_of_edge = int_of_edge
        self.n_int = ie.size
        te = mesh.tri_edges
        dof = int_of_edge[te]                                            # (n_t, 3)
        cell_shape = (n_t, 3, 3, 2)
        rows = np.broadcast_to(2 * te[:, :, None, None] + np.arange(2), cell_shape)
        cols = np.broadcast_to(dof[:, None, :, None], cell_shape)
        self.diamond_keep = cols >= 0
        self.diamond_rows, self.diamond_cols = rows[self.diamond_keep], cols[self.diamond_keep]

        # transfer of the interior basis functions: gamma_mat[(k, comp), i]
        # is component comp of gamma_h(Phi_i) on diamond cell k, with the
        # area-weighted tangential convention; the RT0 basis is spelled out
        # here so that the entries round as (w coef)(mid - opp)
        wsum = np.bincount(te.ravel(), np.repeat(mesh.tri_area, 3), mesh.num_edges)
        wcoef = (mesh.tri_area[:, None] / wsum[te])[:, :, None] * self.rt0_coef[:, None, :]
        opp = verts[:, None, [2, 0, 1], :]
        self.gamma_mat = self.diamond_matrix(
            wcoef[..., None] * (mesh.edge_midpoint[te][:, :, None, :] - opp))

        # divergence coupling matrix B (geometry only): B[t, dof] = sign |e|
        keep = dof >= 0
        sign_len = mesh.tri_edge_sign * mesh.edge_length[te]
        self.B = sp.coo_matrix((sign_len[keep].astype(float), (np.nonzero(keep)[0], dof[keep])),
                               shape=(n_t, self.n_int)).tocsr()

        # model-dependent but field-independent caches
        self.phi_tri = np.asarray(self.model.phi(bc), dtype=float)
        self.kappa_sub = self._kappa_at(self.sub_pts)
        self.kappa_fan = self._kappa_at(fp)
        self.kappa_edge = self._kappa_at(self.edge_pts)

        # porosity-weighted eta mass matrix D (field independent; shared by
        # every saturation step, so callers must not modify it in place)
        self.D = self._scatter(
            self.phi_tri[:, None, None] * mesh.tri_area[:, None, None] * _D_LOCAL_UNIT
        )

    @cached_property
    def step_ordering(self):
        """Diagonal slots and elimination order of the saturation step
        matrices, built at the first step rather than at set-up."""
        return SaturationOrdering(self.nb, self.el_slot, self.sat_indptr, self.sat_indices)

    @cached_property
    def null_space(self):
        """Divergence-free basis and pressure factor of the Darcy systems,
        built at the first Darcy solve rather than at set-up."""
        return DarcyNullSpace(self.mesh, self.B)

    def _kappa_at(self, pts):
        flat = pts.reshape(-1, 2)
        return np.asarray(self.model.kappa(flat), dtype=float).reshape(pts.shape[:-1])

    # -- small helpers -----------------------------------------------------

    def grad_p1(self, field: P1DGField, rows=slice(None)):
        """Element gradients of ``field`` on the triangles ``rows``, shape (len, 2)."""
        return (field.values[rows, None, :] @ self.gradlam[rows])[:, 0]

    def p1_at_sub(self, field: P1DGField, rows=slice(None)):
        return _at_ref(self.sub_lam, field.values[rows])

    def p1_at_fan(self, field: P1DGField, rows=slice(None)):
        return _at_ref(self.fan_lam, field.values[rows])

    def rt0_grad_at_sub(self, field: RT0Field, rows=slice(None)):
        """sum_j c_j Phi_j . grad(lambda_l) at the sub-cell points of the
        triangles ``rows``, (len, 3, nq, 3), for the scaled edge coefficients
        c = ``field`` times ``rt0_coef``: one GEMM with ``sub_rt0_grad``."""
        coeffs = field.values[self.mesh.tri_edges[rows]] * self.rt0_coef[rows]
        return (coeffs @ self.sub_rt0_grad.reshape(3, -1)).reshape(
            len(coeffs), *self.sub_rt0_grad.shape[1:])

    def rt0_at_sub(self, field: RT0Field, rows=slice(None)):
        """``field`` at the sub-cell points of the triangles ``rows``,
        (len, 3, nq, 2).

        With c_j the scaled edge coefficients, sum_j c_j (x - p_j) is
        sum_l w_l v_l for the weights w = c @ sub_rt0_grad
        (:meth:`rt0_grad_at_sub`), and a batched matmul with the vertices.
        The weights sum to zero, so the vertices are taken relative to the
        first one (``vert_rel``): the same sum, without the cancellation of
        the absolute coordinates."""
        w = self.rt0_grad_at_sub(field, rows)
        return (w.reshape(len(w), -1, 3) @ self.vert_rel[rows]).reshape(w.shape[:-1] + (2,))

    def sample_sub(self, fun):
        """``fun`` at the sub-cell points, shaped like ``sub_w`` plus its value shape."""
        vals = np.asarray(fun(self.sub_pts.reshape(-1, 2)), dtype=float)
        return vals.reshape(self.sub_w.shape + vals.shape[1:])

    def dual_matrix(self, rows, edges=None):
        """One saturation operator as CSC: the eta_h transfer of its per-sub-cell
        rows (n_t, 3, 3), test vertex v collecting SEL[c, v] times row c, plus
        any interior-edge blocks (n_ie, 6, 6)."""
        return self._scatter(SEL.T @ rows, edges)

    def step_matrix(self, dt, rows, edges):
        """The step matrix D + dt (transfer of ``rows`` + ``edges``) as CSC on
        D's pattern, in one scatter of the summed blocks of a step's operators."""
        A = self._scatter(SEL.T @ rows, edges)
        A.data *= dt
        A.data += self.D.data
        return A

    def dual_load(self, cell):
        """eta_h transfer of per-sub-cell integrals (n_t, 3) into a load."""
        return (cell @ SEL).ravel()

    def diamond_matrix(self, vals):
        """COO assembly of per-sub-cell entries (n_t, 3, 3, 2) into a
        (2 n_e, n_int) CSR: entry (t, j, l, comp) goes to row 2 e + comp of
        the diamond cell e = ``tri_edges[t, j]``, column the interior dof of
        local edge l."""
        return sp.coo_matrix(
            (vals[self.diamond_keep], (self.diamond_rows, self.diamond_cols)),
            shape=(2 * self.mesh.num_edges, self.n_int),
        ).tocsr()

    def _scatter(self, blocks, edges=None):
        """Saturation matrix of element blocks (n_t, 3, 3), written by slot,
        plus any interior-edge blocks (n_ie, 6, 6), summed in edge order."""
        if edges is None:
            data = np.zeros(self.sat_indptr[-1])
            data[self.el_slot] = blocks
        else:
            # bincount sums from +0.0, so adding the element blocks to its
            # sums rounds as adding the sums to the blocks would
            data = np.bincount(self.edge_slot.ravel(), edges.ravel(), self.sat_indptr[-1])
            data[self.el_slot] += blocks
        n = 3 * len(blocks)
        return sp.csc_matrix((data, self.sat_indices, self.sat_indptr), shape=(n, n))


class SaturationOrdering:
    """Factorization data of the workspace's saturation pattern (``indptr``,
    ``indices``), built from the triangle table ``nb`` that pattern was
    built from: row t holds t and its interior-edge neighbours, ascending,
    padded with n_t.

    ``diag_slot[i]`` is the position of entry (i, i) in ``data``, the
    diagonal of the element slots ``el_slot``.  The elimination order
    ``perm`` is minimum degree on A + A^T (SuperLU's ``MMD_AT_PLUS_A``) of
    the n_t x n_t triangle adjacency graph ``nb``, expanded to the three
    dofs of each triangle: row and column i of the permuted matrix are dof
    ``perm[i]``, and ``inv`` undoes it.  A matrix with data ``data`` on the
    pattern has data ``data[gather]`` on the permuted pattern (``indptr``,
    ``indices``).
    """

    def __init__(self, nb, el_slot, indptr, indices):
        n_t = len(nb)
        n = 3 * n_t
        self.diag_slot = np.diagonal(el_slot, axis1=1, axis2=2).ravel()

        # triangle graph: column t holds the rows nb[t], ascending
        keep = nb < n_t
        count = keep.sum(axis=1)
        tri_rows = nb[keep]
        tri_ptr = np.append(0, np.cumsum(count))
        # any diagonally dominant values will do: only the pattern sets the order
        vals = np.where(tri_rows == np.repeat(np.arange(n_t), count), 4.0, -1.0)
        graph = sp.csc_matrix((vals, tri_rows, tri_ptr), shape=(n_t, n_t))
        lu = spla.splu(graph, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
        # argsort returns a new array: no view into the factor outlives ``lu``
        tri_order = np.argsort(lu.perm_c)

        self.perm = (3 * tri_order[:, None] + np.arange(3)).ravel()
        self.inv = np.empty_like(self.perm)
        self.inv[self.perm] = np.arange(n)
        col = np.repeat(np.arange(n), np.diff(indptr))
        rows, cols = self.inv[indices], self.inv[col]
        self.gather = np.argsort(cols * n + rows)
        self.indices = rows[self.gather].astype(np.int32)
        self.indptr = np.append(0, np.cumsum(np.diff(indptr)[self.perm])).astype(np.int32)


class DarcyNullSpace:
    """Divergence-free basis and pressure factor of the Darcy systems of one
    mesh (the null-space method: Benzi, Golub & Liesen, Acta Numerica 14,
    2005, section 6; Arioli & Manzini, Commun. Numer. Meth. Engng 18, 2002).

    ``curl`` maps stream-function values at the vertices to interior-edge
    velocities: row e holds +1/|e| at the end b and -1/|e| at the end a of
    edge e = (a, b), a < b, when its lower triangle runs it from a to b (its
    normal is then b - a turned clockwise), the opposite signs otherwise, so
    ``B @ curl == 0``.  The stream function
    is 0 on the outer boundary loop (the loop of the leftmost vertex) and one
    unknown on each other loop, a hole, so the columns are the interior
    vertices followed by the holes; an interior edge whose two ends share a
    column has an empty row.  A boundary loop is a connected component of
    the boundary edges.  The columns span the divergence-free velocities only
    when their number is the null space's dimension n_int - n_t + 1 (the
    rows of B sum to zero); otherwise, as on a disconnected mesh,
    :class:`DomainError` names both numbers.

    ``pressure_solve(r)`` solves (B B^T) y = r, geometry only, through one
    ``splu`` of B B^T with the first pressure pinned (y[0] = 0).  The saddles
    read the ``mesh`` and ``B`` it is built from off it.
    """

    def __init__(self, mesh: PrimalMesh, B):
        self.mesh, self.B = mesh, B
        ie = mesh.interior_edges
        n_v = mesh.num_vertices
        bd = mesh.edges[mesh.boundary_edge]
        on_bd = np.zeros(n_v, dtype=bool)
        on_bd[bd.ravel()] = True
        _, loop = connected_components(
            sp.coo_matrix((np.ones(len(bd)), (bd[:, 0], bd[:, 1])), shape=(n_v, n_v)),
            directed=False)
        outer = loop[np.argmin(np.where(on_bd, mesh.vertices[:, 0], np.inf))]
        in_hole = on_bd & (loop != outer)
        holes, hole_of = np.unique(loop[in_hole], return_inverse=True)
        col = np.full(n_v, -1)
        inner = np.flatnonzero(~on_bd)
        col[inner] = np.arange(inner.size)
        col[in_hole] = inner.size + hole_of
        n_col = inner.size + holes.size
        n_null = ie.size - mesh.num_triangles + 1
        if n_col != n_null:
            raise DomainError(
                f"the stream function has {n_col} unknowns but the divergence-free "
                f"velocities have {n_null} dimensions: the mesh must be one piece "
                f"joined through its edges")

        a, b = mesh.edges[ie, 0], mesh.edges[ie, 1]
        k0 = mesh.edge_tris[ie, 0]
        start = mesh.triangles[k0, np.argmax(mesh.tri_edges[k0] == ie[:, None], axis=1)]
        sign = np.where(start == a, 1.0, -1.0)
        vals = np.concatenate([sign, -sign]) / np.tile(mesh.edge_length[ie], 2)
        rows = np.tile(np.arange(ie.size), 2)
        cols = col[np.concatenate([b, a])]
        keep = cols >= 0
        # the two ends of an edge inside one hole's column cancel exactly
        self.curl = sp.csc_matrix((vals[keep], (rows[keep], cols[keep])),
                                  shape=(ie.size, n_col))
        self.curl.eliminate_zeros()

        BBt = (B @ B.T).tocsc()[1:, 1:]
        self._bbt = spla.splu(BBt, permc_spec="MMD_AT_PLUS_A",
                              options=dict(SymmetricMode=True))

    def pressure_solve(self, r):
        """y with (B B^T) y = r in every row but the first, and y[0] = 0."""
        return np.concatenate([[0.0], self._bbt.solve(r[1:])])


def _at_points(lam, values):
    """Values (n, 3) of P1 fields on n triangles at the points of a
    barycentric table ``lam`` (n, ..., 3), shaped like the points."""
    return (lam.reshape(len(lam), -1, 3) @ values[:, :, None]).reshape(lam.shape[:-1])


def _at_ref(lam, values):
    """Values (n, 3) of P1 fields on n triangles at the points of a
    reference table ``lam`` (..., 3), the same in every triangle: one GEMM."""
    return (values @ lam.reshape(-1, 3).T).reshape(len(values), *lam.shape[:-1])


def _block_slots(nb, indptr, k):
    """(n, 3s, 3s) slots in the saturation ``data`` of the blocks coupling
    the triangles k (n, s): entry (3a + i, 3b + j) is dof i of k[:, a] in
    column dof j of k[:, b]."""
    # position of k[:, a] among nb[k[:, b]], the row triangles of k[:, b]
    pos = np.argmax(nb[k[:, None, :]] == k[:, :, None, None], axis=-1)
    start = indptr[3 * k[:, :, None] + np.arange(3)]                   # (n, b, j)
    slot = start[:, None, None] + 3 * pos[:, :, None, :, None] + np.arange(3)[:, None, None]
    return slot.reshape(len(k), 3 * k.shape[1], -1)


# Byte budget of the largest temporary of one block, E's (len, 3, nq, 3)
# velocity-gradient table: 256 triangles at the default nq = 6, 108 KiB, which
# stays below glibc's default 128 KiB mmap threshold and fits in L2.
_BLOCK_BYTES = 108 * 1024


def _blocks(n, nq):
    """range(n) cut into the fewest consecutive slices of at most
    ``_BLOCK_BYTES`` / (72 nq) rows (three or more), their lengths differing
    by at most one.

    Even lengths keep out single-row blocks (unless n = 1): numpy multiplies
    a one-row matrix by a matrix-vector kernel, which rounds otherwise than
    the matrix-matrix kernel of longer blocks and of the whole mesh
    (measured)."""
    step = max(3, _BLOCK_BYTES // (9 * nq * np.dtype(float).itemsize))
    count = max(1, -(-n // step))
    bounds = (np.arange(count + 1) * n // count).tolist()
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _require_finite(values, what):
    vals = np.asarray(values)
    if not np.isfinite(vals).all():
        bad = np.argwhere(~np.isfinite(vals))
        raise AssemblyError(f"non-finite {what} at element entry {bad[0].tolist()}")


# ---------------------------------------------------------------------------
# Darcy block
# ---------------------------------------------------------------------------

def assemble_darcy(c_field: P1DGField, wells: WellModel, q: float,
                   ws: AssemblyWorkspace):
    """Velocity matrix and well load for one time level.

    Returns (A, F): A is (n_int, n_int) with A[i, j] the pairing of
    alpha(C)/kappa Phi_j against gamma_h(Phi_i) summed over all diamond
    cells; F the element integrals of (r0 - r1) q.  The divergence
    coupling B is geometry only: callers read the workspace's ``ws.B``.
    """
    _require_finite(c_field.values, "saturation coefficient")
    avals = ws.model.alpha(ws.p1_at_sub(c_field)) / ws.kappa_sub
    _require_finite(avals, "alpha coefficient")
    # sum_q w alpha/kappa Phi_j per sub-cell as in ``rt0_at_sub``, one GEMM block-diagonal in c
    n_t, _, nq = ws.sub_w.shape
    block = np.einsum("cd,jcql->cqdjl", np.eye(3), ws.sub_rt0_grad).reshape(3 * nq, -1)
    wgrad = ((ws.sub_w * avals).reshape(n_t, -1) @ block).reshape(n_t, 9, 3)
    ent = (wgrad @ ws.vert_rel).reshape(n_t, 3, 3, 2) * ws.rt0_coef[:, None, :, None]
    C = ws.diamond_matrix(ent)
    A = (ws.gamma_mat.T @ C).tocsr()
    F = well_source_vector(wells, q)
    return A, F


def well_source_vector(wells: WellModel, q: float):
    """Element integrals of (r0 - r1) q; rows vanish off the patches and the
    total sums to zero exactly."""
    mesh = wells.mesh
    F = np.zeros(mesh.num_triangles)
    F[wells.injection_tris] += mesh.tri_area[wells.injection_tris] / wells.sigma0
    F[wells.production_tris] -= mesh.tri_area[wells.production_tris] / wells.sigma1
    return q * F


def _gamma_load(cell_integrals, ws):
    """l_i = sum_k gamma_h(Phi_i)|_k . (integral over diamond cell k), from
    the sub-cell integrals (n_t, 3, 2): cell k sums its (at most two)
    sub-cells."""
    acc = np.zeros((ws.mesh.num_edges, 2))
    np.add.at(acc, ws.mesh.tri_edges, cell_integrals)
    return ws.gamma_mat.T @ acc.ravel()


def assemble_diamond_vector_load(gfun, ws: AssemblyWorkspace):
    """Load vector l_i = (g, gamma_h Phi_i) over the diamond cells.

    ``gfun`` maps an (n, 2) point array to (n, 2) vector values.
    """
    cell = np.einsum("tcq,tcqe->tce", ws.sub_w, ws.sample_sub(gfun))
    return _gamma_load(cell, ws)


def assemble_darcy_costate_rhs(c_field: P1DGField, cstar_field: P1DGField,
                               ws: AssemblyWorkspace):
    """Costate Darcy load F*_i = -(C* b(C) grad(C), gamma_h Phi_i)."""
    _require_finite(c_field.values, "saturation coefficient")
    _require_finite(cstar_field.values, "costate saturation")
    scal = ws.model.b(ws.p1_at_sub(c_field)) * ws.p1_at_sub(cstar_field)
    sint = np.einsum("tcq,tcq->tc", ws.sub_w, scal)
    cell = -sint[:, :, None] * ws.grad_p1(c_field)[:, None, :]
    return _gamma_load(cell, ws)


# ---------------------------------------------------------------------------
# saturation block
# ---------------------------------------------------------------------------

def assemble_saturation_state(c_field: P1DGField, u_field: RT0Field,
                              wells: WellModel, q: float,
                              ws: AssemblyWorkspace, xi: float):
    """Blocks of one saturation step: (E, H, G).

    E is the convection matrix's sub-cell rows (n_t, 3, 3), with coefficient
    b(C) U; H the diffusion matrix T1+T2+T3+T4 with coefficient kappa D(C)
    and penalty xi, as (rows, edge blocks) (:func:`_diffusion_matrix`); G
    the injection source with f(C) r0 q, a load.  ``ws.dual_matrix`` makes
    an operator of the blocks and ``ws.step_matrix`` a step matrix on the
    pattern of the mass matrix ``ws.D``.
    """
    if xi <= 0.0:
        raise ConfigError("penalty xi must be > 0")
    _require_finite(c_field.values, "saturation coefficient")
    _require_finite(u_field.values, "velocity coefficient")

    model = ws.model
    n_t, _, nq = ws.sub_w.shape
    r0 = wells.r0_values()
    conv = np.empty((n_t, 3, 3))
    gcell = np.zeros((n_t, 3))
    for rows in _blocks(n_t, nq):
        w = ws.sub_w[rows]
        csub = ws.p1_at_sub(c_field, rows)                   # (len, 3, nq)
        # E: w b(C) U . grad(lambda_l)
        conv[rows] = np.einsum("tcq,tcql->tcl", w * model.b(csub), ws.rt0_grad_at_sub(u_field, rows))
        # G: f(C) r0 q, zero off the injection triangles
        inj = np.flatnonzero(r0[rows])
        if inj.size:
            gcell[rows][inj] = np.einsum("t,tcq,tcq->tc", r0[rows][inj] * q, w[inj],
                                         model.f(csub[inj]))
    return conv, _diffusion_matrix(c_field, ws, xi), ws.dual_load(gcell)


def _diffusion_matrix(c_field, ws, xi):
    """H = T1 + T2 + T3 + T4 as (T1's sub-cell rows (n_t, 3, 3), the
    interior-edge blocks (n_ie, 6, 6) of T2 + T3 + T4)."""
    model = ws.model
    n_t, _, nq = ws.sub_w.shape
    # T1: fan fluxes against the cell's eta average
    t1 = np.empty((n_t, 3, 3))
    for rows in _blocks(n_t, nq):
        dfan = ws.kappa_fan[rows] * model.diffusion(ws.p1_at_fan(c_field, rows))  # (len, 3, 2, ne)
        dint = np.einsum("tcsq,tcsq->tcs", ws.fan_w[rows], dfan)            # (len, 3, 2)
        t1[rows] = -(dint[:, :, None, :] @ ws.seg_ngrad[rows])[:, :, 0]

    # edge terms on interior edges: n . grad of each side's trial basis,
    # weighted by that side's diffusion integral and half (average)
    edges = np.empty((ws.n_int, 6, 6))
    for rows in _blocks(ws.n_int, nq):
        w, kappa = ws.edge_w[rows], ws.kappa_edge[rows]
        cl = _at_points(ws.edge_lamL[rows], c_field.values[ws.kL[rows]])
        cr = _at_points(ws.edge_lamR[rows], c_field.values[ws.kR[rows]])
        dL = np.einsum("nq,nq->n", w, kappa * model.diffusion(cl))
        dR = np.einsum("nq,nq->n", w, kappa * model.diffusion(cr))
        flux = 0.5 * np.concatenate([dL[:, None] * ws.edge_ngradL[rows],
                                     dR[:, None] * ws.edge_ngradR[rows]], axis=1)  # (len, 6)
        t2 = -ws.avg_jump[rows, :, None] * flux[:, None, :]
        t4 = (xi / ws.ie_h[rows])[:, None, None] * ws.edge_penalty[rows]
        # T3 is T2 with the roles of trial and test swapped
        edges[rows] = t2 + np.swapaxes(t2, 1, 2) + t4
    return t1, edges


def assemble_saturation_costate(c_field: P1DGField, wells: WellModel, q: float,
                                ws: AssemblyWorkspace):
    """Sub-cell rows (n_t, 3, 3) of the costate-only matrices at one time
    level: (R, S).

    R is the production-patch reaction matrix with weight r1 q b(C); S the
    cross-gradient matrix with kappa D'(C) grad(C).  Neither depends on a
    velocity, so the adjoint builds them ahead of the costate Darcy solves.
    """
    _require_finite(c_field.values, "saturation coefficient")

    model = ws.model
    n_t, _, nq = ws.sub_w.shape
    r1 = wells.r1_values()
    rcell = np.zeros((n_t, 3, 3))
    scell = np.empty((n_t, 3, 3))
    for rows in _blocks(n_t, nq):
        w = ws.sub_w[rows]
        csub = ws.p1_at_sub(c_field, rows)
        # R: r1 q w b(C) against lambda_j, zero off the production triangles
        prod = np.flatnonzero(r1[rows])
        if prod.size:
            r1qwb = (r1[rows][prod] * q)[:, None, None] * w[prod] * model.b(csub[prod])
            rcell[rows][prod] = (r1qwb[:, :, None, :] @ ws.sub_lam)[:, :, 0]

        cross = np.einsum("tcq,tcq->tc", w, ws.kappa_sub[rows] * model.diffusion_prime(csub))
        gradc_lam = (ws.gradlam[rows] @ ws.grad_p1(c_field, rows)[:, :, None])[:, :, 0]
        scell[rows] = cross[:, :, None] * gradc_lam[:, None, :]
    return rcell, scell


def assemble_costate_loads(c_field: P1DGField, u_field: RT0Field, ustar_field: RT0Field,
                           wells: WellModel, t: float, ws: AssemblyWorkspace):
    """Costate loads at one time level: (W, Z).

    W is the terminal-weight load w(t) C; Z the load alpha'(C)/kappa U . U*.
    """
    _require_finite(c_field.values, "saturation coefficient")
    _require_finite(u_field.values, "velocity coefficient")
    _require_finite(ustar_field.values, "costate velocity")

    model = ws.model
    n_t, _, nq = ws.sub_w.shape
    wval = wells.w(t)
    wcell = np.empty((n_t, 3))
    zcell = np.empty((n_t, 3))
    for rows in _blocks(n_t, nq):
        w = ws.sub_w[rows]
        csub = ws.p1_at_sub(c_field, rows)
        wcell[rows] = wval * np.einsum("tcq,tcq->tc", w, csub)

        # the only evaluation of the velocities at the sub-cell points
        udot = (ws.rt0_at_sub(u_field, rows) * ws.rt0_at_sub(ustar_field, rows)).sum(axis=-1)
        ap = model.alpha_prime(csub) / ws.kappa_sub[rows]
        zcell[rows] = np.einsum("tcq,tcq->tc", w, ap * udot)
    return ws.dual_load(wcell), ws.dual_load(zcell)


def assemble_dual_scalar_load(sfun, ws: AssemblyWorkspace):
    """Load vector (s, eta_h Psi_i) for a scalar source s(x)."""
    return ws.dual_load(np.einsum("tcq,tcq->tc", ws.sub_w, ws.sample_sub(sfun)))


# ---------------------------------------------------------------------------
# direct trilinear-form evaluation (independent of the matrix path)
# ---------------------------------------------------------------------------

def trilinear_form(psi: P1DGField, phi: P1DGField, z: P1DGField,
                   model: CoefficientModel, xi: float,
                   bary: BarycentricDualMesh, quad: QuadratureRule) -> float:
    """Evaluate the DFVE diffusion form A_h(psi; phi, z) by direct loops.

    Four terms: interior fan fluxes of kappa D(psi) grad(phi) against the
    cell values of eta_h z; the two interior-edge consistency terms pairing
    jumps of eta-averages with mean fluxes; and the interior jump penalty
    (xi / h_e) [phi][z].  Boundary edges follow the homogeneous-flux
    treatment and do not contribute.
    """
    if xi <= 0.0:
        raise ConfigError("penalty xi must be > 0")
    mesh = bary.mesh
    grad_phi = phi.gradients()
    grad_z = z.gradients()
    eta_z = eta_h(z)
    eta_phi = eta_h(phi)

    def dcoef(tri, pts):
        c = np.einsum("qj,j->q", p1_basis_at(mesh, pts[None], [tri])[0], psi.values[tri])
        kap = np.asarray(model.kappa(pts), dtype=float)
        return kap * model.diffusion(c)

    total = 0.0
    # T1: fans
    for k in range(mesh.num_triangles):
        for j in range(3):
            for s in range(2):
                p = bary.seg_start[k, j, s]
                qpt, qw = quad.map_to_segments(p, bary.seg_end[k, j, s])
                dval = dcoef(k, qpt)
                flux = np.dot(bary.seg_normal[k, j, s], grad_phi[k])
                total -= float(np.sum(qw * dval) * flux * eta_z[k, j])

    # edge terms
    for e in mesh.interior_edges:
        kl, kr = mesh.edge_tris[e]
        jl = int(np.argmax(mesh.tri_edges[kl] == e))
        jr = int(np.argmax(mesh.tri_edges[kr] == e))
        n = mesh.edge_normal[e]
        pa = mesh.vertices[mesh.edges[e, 0]]
        pb = mesh.vertices[mesh.edges[e, 1]]
        qpt, qw = quad.map_to_segments(pa, pb)
        dl = dcoef(kl, qpt)
        dr = dcoef(kr, qpt)
        mean_flux_phi = 0.5 * (
            np.sum(qw * dl) * np.dot(n, grad_phi[kl])
            + np.sum(qw * dr) * np.dot(n, grad_phi[kr])
        )
        mean_flux_z = 0.5 * (
            np.sum(qw * dl) * np.dot(n, grad_z[kl])
            + np.sum(qw * dr) * np.dot(n, grad_z[kr])
        )
        total -= (eta_z[kl, jl] - eta_z[kr, jr]) * mean_flux_phi
        total -= (eta_phi[kl, jl] - eta_phi[kr, jr]) * mean_flux_z

        lamL = p1_basis_at(mesh, qpt[None], [kl])[0]
        lamR = p1_basis_at(mesh, qpt[None], [kr])[0]
        jump_phi = lamL @ phi.values[kl] - lamR @ phi.values[kr]
        jump_z = lamL @ z.values[kl] - lamR @ z.values[kr]
        total += xi / mesh.edge_length[e] * float(np.sum(qw * jump_phi * jump_z))
    return total
