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
sub-cells, and ``sub_lam`` and ``fan_lam`` are reference tables.  Only
``gamma_mat`` spells out its RT0 basis, from ``rt0_coef``.  The workspace also
owns both test-space transfers: ``dual_matrix``/``dual_load`` apply eta_h to
sub-cell integrals, and ``pair_matrix`` scatters diamond-pair entries
(``gamma_mat`` and the alpha-weighted basis integrals behind A).  It owns the
symmetric CSC pattern all saturation matrices share
(``sat_indptr``/``sat_indices``: triangle t's columns hold the rows of t and
its interior-edge neighbours, ascending) and the slot maps
``el_slot``/``edge_slot`` placing each element and interior-edge block entry
in ``data``.  It also owns the geometry products the saturation kernels
contract at every step.  Phi_j . grad lambda_l at the sub-cell points is
``rt0_coef[t, j]`` times the reference table ``sub_rt0_grad[j, c, q, l]``,
the same on every triangle, so E is one GEMM of the scaled edge coefficients
with that table and one contraction with w b(C).  ``seg_ngrad`` holds the fan
segment normals against grad lambda_l (T1), and
``edge_ngradL``/``edge_ngradR`` the interior-edge normals against each
side's grad lambda_l (the edge fluxes).  The per-step kernels are broadcasts
and ``matmul`` over these tables; only Z evaluates the velocities at the
sub-cell points.  Its ``step_ordering`` (:class:`SaturationOrdering`, built
at the first step) holds the diagonal slots and the one elimination order of
the step matrices, and its ``saddle_ordering`` (:class:`SaddleOrdering`,
built at the first Darcy solve) the one nested-dissection order of the
pinned Darcy saddles.  The coefficients (alpha, b, D, f and their derivatives,
kappa, phi) come from the workspace's ``ws.model``, so a matrix cannot mix
two models; :func:`trilinear_form`, which builds no workspace, takes its
own.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, ConfigError
from .fespaces import P1DGField, RT0Field, grad_lambda, p1_basis_at
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
    inside t of the diamond cell of edge ``tri_edges[t, j]``, so diamond pair
    k (edge ``pr_edge[k]``, triangle ``pr_tri[k]``) is sub-cell
    ``(pr_tri[k], pr_loc[k])``.  Reference tables, the same in every
    triangle: ``sub_lam`` (3, nq, 3) and ``fan_lam`` (3, 2, ne, 3), the
    barycentric coordinates of the sub-cell and fan points, and
    ``sub_rt0_grad`` (3, 3, nq, 3); the other tables are per triangle, edge
    or pair.
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
        nb = np.sort(np.where(nb < 0, n_t, nb), axis=1).astype(np.int32)
        keep = np.repeat(nb < n_t, 3, axis=1)                # (n_t, 12) rows of a column
        rows = (3 * nb[:, None, :, None] + np.arange(3, dtype=np.int32)).reshape(n_t, 1, 12)
        self.sat_indices = np.broadcast_to(rows, (n_t, 3, 12))[np.stack([keep] * 3, axis=1)]
        self.sat_indptr = np.append(0, np.cumsum(np.repeat(keep.sum(axis=1), 3))).astype(np.int32)
        self.el_slot = _block_slots(nb, self.sat_indptr, tri)
        self.edge_slot = _block_slots(nb, self.sat_indptr, np.stack([self.kL, self.kR], axis=1))

        # Darcy pair arrays: one (edge, adjacent triangle) pair per diamond
        # portion, covering boundary cells too
        int_of_edge = -np.ones(mesh.num_edges, dtype=np.int64)
        int_of_edge[ie] = np.arange(ie.size)
        self.int_of_edge = int_of_edge
        self.n_int = ie.size

        pair_tri = mesh.edge_tris.ravel()
        has_pair = pair_tri >= 0
        self.pr_edge = np.repeat(np.arange(mesh.num_edges), 2)[has_pair]
        self.pr_tri = pair_tri[has_pair]
        self.pr_loc = np.argmax(mesh.tri_edges[self.pr_tri] == self.pr_edge[:, None], axis=1)
        self.pr_cols = int_of_edge[mesh.tri_edges[self.pr_tri]]  # (npair, 3)
        # scatter of per-pair (npair, 3, 2) entries: row 2k + comp of
        # diamond cell k, column the interior dof of local edge j
        pair_shape = (self.pr_edge.size, 3, 2)
        rows = np.broadcast_to(2 * self.pr_edge[:, None, None] + np.arange(2), pair_shape)
        cols = np.broadcast_to(self.pr_cols[:, :, None], pair_shape)
        self.pair_keep = cols >= 0
        self.pair_rows, self.pair_cols = rows[self.pair_keep], cols[self.pair_keep]

        # transfer of the interior basis functions: gamma_mat[(k, comp), i]
        # is component comp of gamma_h(Phi_i) on diamond cell k, with the
        # area-weighted tangential convention; the RT0 basis is spelled out
        # here so that the entries round as (w coef)(mid - opp)
        pair_coef = self.rt0_coef[self.pr_tri]
        opp = verts[self.pr_tri][:, [2, 0, 1], :]
        wsum = np.zeros(mesh.num_edges)
        np.add.at(wsum, mesh.tri_edges.ravel(),
                  np.repeat(mesh.tri_area[:, None], 3, axis=1).ravel())
        w = mesh.tri_area[self.pr_tri] / wsum[self.pr_edge]
        self.gamma_mat = self.pair_matrix((w[:, None] * pair_coef)[:, :, None] * (
            mesh.edge_midpoint[self.pr_edge][:, None, :] - opp
        ))

        # divergence coupling matrix B (geometry only)
        rows, cols, vals = [], [], []
        for j in range(3):
            e = mesh.tri_edges[:, j]
            keep = int_of_edge[e] >= 0
            rows.append(np.flatnonzero(keep))
            cols.append(int_of_edge[e[keep]])
            vals.append(
                (mesh.tri_edge_sign[:, j] * mesh.edge_length[e])[keep].astype(float)
            )
        self.B = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_t, self.n_int),
        ).tocsr()

        # model-dependent but field-independent caches
        self.phi_tri = np.asarray(self.model.phi(bc), dtype=float)
        self.kappa_sub = self._kappa_at(self.sub_pts)
        self.kappa_fan = self._kappa_at(fp)
        self.kappa_edge = self._kappa_at(self.edge_pts)

        # porosity-weighted eta mass matrix D (field independent; shared by
        # every saturation step, so callers must not modify it in place)
        self.D = self.sat_matrix(
            self.phi_tri[:, None, None] * mesh.tri_area[:, None, None] * _D_LOCAL_UNIT
        )

    @cached_property
    def step_ordering(self):
        """Diagonal slots and elimination order of the saturation step
        matrices, built at the first step rather than at set-up."""
        return SaturationOrdering(self.sat_indptr, self.sat_indices)

    @cached_property
    def saddle_ordering(self):
        """Elimination order of the pinned Darcy saddle, built at the first
        Darcy solve rather than at set-up."""
        return SaddleOrdering(self.mesh)

    def _kappa_at(self, pts):
        flat = pts.reshape(-1, 2)
        return np.asarray(self.model.kappa(flat), dtype=float).reshape(pts.shape[:-1])

    # -- small helpers -----------------------------------------------------

    def grad_p1(self, field: P1DGField):
        """Element gradients of ``field``, shape (n_t, 2)."""
        return (field.values[:, None, :] @ self.gradlam)[:, 0]

    def p1_at_sub(self, field: P1DGField):
        return _at_ref(self.sub_lam, field.values)

    def p1_at_fan(self, field: P1DGField):
        return _at_ref(self.fan_lam, field.values)

    def rt0_at_sub(self, field: RT0Field):
        """``field`` at the sub-cell points, (n_t, 3, nq, 2).

        With c_j the scaled edge coefficients, sum_j c_j (x - p_j) is
        sum_l w_l v_l for the weights w = c @ sub_rt0_grad, one GEMM, and a
        batched matmul with the vertices.  The weights sum to zero, so the
        vertices are taken relative to the first one (``vert_rel``): the
        same sum, without the cancellation of the absolute coordinates."""
        coeffs = field.values[self.mesh.tri_edges] * self.rt0_coef
        w = (coeffs @ self.sub_rt0_grad.reshape(3, -1)).reshape(len(coeffs), -1, 3)
        return (w @ self.vert_rel).reshape(self.sub_w.shape + (2,))

    def sample_sub(self, fun):
        """``fun`` at the sub-cell points, shaped like ``sub_w`` plus its value shape."""
        vals = np.asarray(fun(self.sub_pts.reshape(-1, 2)), dtype=float)
        return vals.reshape(self.sub_w.shape + vals.shape[1:])

    def dual_matrix(self, cell, edge_blocks=None):
        """eta_h transfer of per-sub-cell rows (n_t, 3, 3), plus any edge blocks,
        into a saturation matrix: test vertex v collects SEL[c, v] times row c."""
        return self.sat_matrix(SEL.T @ cell, edge_blocks)

    def dual_load(self, cell):
        """eta_h transfer of per-sub-cell integrals (n_t, 3) into a load."""
        return (cell @ SEL).ravel()

    def pair_matrix(self, vals):
        """COO assembly of per-pair (npair, 3, 2) entries into a (2 n_e, n_int)
        CSR: rows index (diamond cell, component), columns the trial dof."""
        return sp.coo_matrix(
            (vals[self.pair_keep], (self.pair_rows, self.pair_cols)),
            shape=(2 * self.mesh.num_edges, self.n_int),
        ).tocsr()

    def sat_matrix(self, blocks, edge_blocks=None):
        """Saturation matrix of element blocks (n_t, 3, 3), written by slot,
        plus any interior-edge blocks (n_ie, 6, 6), summed in edge order."""
        data = np.zeros(self.sat_indptr[-1])
        data[self.el_slot] = blocks
        if edge_blocks is not None:
            data += np.bincount(self.edge_slot.ravel(), edge_blocks.ravel(), data.size)
        n = 3 * len(blocks)
        return sp.csc_matrix((data, self.sat_indices, self.sat_indptr), shape=(n, n))


class SaturationOrdering:
    """Factorization data of one saturation pattern: a symmetric CSC pattern
    of 3 x 3 triangle blocks that holds every diagonal.

    ``diag_slot[i]`` is the position of entry (i, i) in ``data``.  The
    elimination order ``perm`` is minimum degree on A + A^T (SuperLU's
    ``MMD_AT_PLUS_A``) of the n_t x n_t triangle adjacency graph read off
    the pattern, expanded to the three dofs of each triangle: row and column
    i of the permuted matrix are dof ``perm[i]``, and ``inv`` undoes it.  A
    matrix with data ``data`` on the pattern has data ``data[gather]`` on the
    permuted pattern (``indptr``, ``indices``).
    """

    def __init__(self, indptr, indices):
        n = len(indptr) - 1
        n_t = n // 3
        col = np.repeat(np.arange(n), np.diff(indptr))
        self.diag_slot = np.flatnonzero(indices == col)

        # triangle graph: the first dof row of each block in column 3t
        first = indptr[:-1:3]
        count = (indptr[1::3] - first) // 3
        tri_ptr = np.append(0, np.cumsum(count))
        within = np.arange(tri_ptr[-1]) - np.repeat(tri_ptr[:-1], count)
        tri_rows = indices[np.repeat(first, count) + 3 * within] // 3
        # any diagonally dominant values will do: only the pattern sets the order
        vals = np.where(tri_rows == np.repeat(np.arange(n_t), count), 4.0, -1.0)
        graph = sp.csc_matrix((vals, tri_rows, tri_ptr), shape=(n_t, n_t))
        lu = spla.splu(graph, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
        # argsort returns a new array: no view into the factor outlives ``lu``
        tri_order = np.argsort(lu.perm_c)

        self.perm = (3 * tri_order[:, None] + np.arange(3)).ravel()
        self.inv = np.empty_like(self.perm)
        self.inv[self.perm] = np.arange(n)
        rows, cols = self.inv[indices], self.inv[col]
        self.gather = np.argsort(cols * n + rows)
        self.indices = rows[self.gather].astype(np.int32)
        self.indptr = np.append(0, np.cumsum(np.diff(indptr)[self.perm])).astype(np.int32)


# Largest part the nested dissection leaves undivided.  On three Darcy
# systems at n = 64 (measured), leaves of 32 unknowns gave 2-5 % more LU fill
# than 40, and leaves of 48 from 3 % less to 11 % more.
_ND_LEAF = 40


class SaddleOrdering:
    """Elimination order of the pinned Darcy saddle of one mesh: geometric
    nested dissection (George, SIAM J. Numer. Anal. 10, 1973).

    The unknowns are numbered as in the full saddle system: interior edge i
    is unknown i and the pressure of triangle t is n_int + t.  The first
    pressure, n_int, is pinned and left out, so the order holds the other
    n_int + n_t - 1.  Each unknown sits at its edge midpoint or triangle
    barycentre.  Level by level, every part of more than ``_ND_LEAF``
    unknowns is bisected at the median of the coordinate along which it is
    wider.  The lower half's unknowns with a neighbour in the upper half, in
    the structural graph of K + K^T, form the part's one-sided separator,
    ordered after both halves.  Within each undivided part and each
    separator the edges come before the pressures, in index order.

    The graph comes from the mesh, not from A's values: an entry of A that
    cancels for one saturation (8 of 8,952 at constant C on the 16 x 16
    square mesh) leaves the order unchanged.  ``perm[i]`` is the unknown
    eliminated i-th, and ``pos`` its position in ``perm`` (-1 at the pinned
    pressure).
    """

    def __init__(self, mesh: PrimalMesh):
        ie = mesh.interior_edges
        n_int, n_t = ie.size, mesh.num_triangles
        n = n_int + n_t

        # structural graph, each pair once: A couples the interior edges of
        # the triangles on either side of one edge (a diamond cell), B each
        # triangle with its interior edges.  Pairs with the pinned pressure
        # need no removal: its part id never matches a live one
        int_of_edge = np.full(mesh.num_edges, -1)
        int_of_edge[ie] = np.arange(n_int)
        tri_int = int_of_edge[mesh.tri_edges]                    # (n_t, 3)
        side_tri = mesh.edge_tris.ravel()
        has = side_tri >= 0
        cell = np.repeat(np.repeat(np.arange(mesh.num_edges), 2)[has], 3)
        dof = tri_int[side_tri[has]].ravel()
        keep = dof >= 0
        cell, dof = cell[keep], dof[keep]
        M = sp.csr_matrix((np.ones(dof.size), (cell, dof)), shape=(mesh.num_edges, n_int))
        A = sp.triu(M.T @ M, 1, format="coo")
        tri = np.repeat(np.arange(n_t), 3)[tri_int.ravel() >= 0]
        gi = np.concatenate([A.row, tri_int[tri_int >= 0]])
        gj = np.concatenate([A.col, n_int + tri])

        pts = np.concatenate([mesh.edge_midpoint[ie], mesh.barycentre])
        live = np.delete(np.arange(n), n_int)
        # the undivided unknowns, grouped by part, by x and by y within each
        ox = live[np.argsort(pts[live, 0], kind="stable")]
        oy = live[np.argsort(pts[live, 1], kind="stable")]
        part = np.ones(n, dtype=np.int64)    # heap ids: part k splits into 2k, 2k + 1
        level = np.zeros(n, dtype=np.int64)  # depth at which each unknown was placed
        depth = 0
        while ox.size:
            p = part[ox]
            starts = np.flatnonzero(np.diff(p, prepend=-1))
            cnt = np.diff(starts, append=p.size)
            leaf = np.repeat(cnt <= _ND_LEAF, cnt)
            level[ox[leaf]] = depth
            ox, oy, cnt = ox[~leaf], oy[~leaf], cnt[cnt > _ND_LEAF]
            if not ox.size:
                break
            starts = np.cumsum(cnt) - cnt
            lo, hi = starts, starts + cnt - 1
            x, y = pts[ox, 0], pts[oy, 1]
            by_y = np.repeat(y[hi] - y[lo] > x[hi] - x[lo], cnt)
            upper = np.arange(ox.size) >= np.repeat(starts + cnt // 2, cnt)
            side = np.zeros(n, dtype=np.int64)
            side[ox[~by_y]] = upper[~by_y]
            side[oy[by_y]] = upper[by_y]
            part[ox] = 2 * part[ox] + side[ox]

            pi, pj = part[gi], part[gj]
            same = (pi >> 1) == (pj >> 1)
            cross = same & (pi != pj)
            sep = np.where(pi[cross] & 1, gj[cross], gi[cross])  # the lower end
            part[sep] >>= 1
            level[sep] = depth
            placed = np.zeros(n, dtype=bool)
            placed[sep] = True
            gi, gj = gi[same & ~cross], gj[same & ~cross]
            ox, oy = ox[~placed[ox]], oy[~placed[oy]]
            ox = ox[np.argsort(part[ox], kind="stable")]
            oy = oy[np.argsort(part[oy], kind="stable")]
            depth += 1

        # post-order of the dissection tree: part k at depth d spans the
        # leaf slots [k, k + 1) * 2^(top - d); a part follows every part whose
        # span ends first and, at equal ends, its own descendants.  The
        # stable sort keeps each part's edges, numbered first, before its
        # pressures
        top = level[live].max()
        shift = top - level[live]
        key = ((part[live] + 1) << shift) * (top + 1) + shift
        self.perm = live[np.argsort(key, kind="stable")]
        self.pos = np.full(n, -1)
        self.pos[self.perm] = np.arange(n - 1)


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
    """Velocity matrix, divergence coupling, and well load for one time level.

    Returns (A, B, F): A is (n_int, n_int) with A[i, j] the pairing of
    alpha(C)/kappa Phi_j against gamma_h(Phi_i) summed over all diamond
    cells; B is the (n_t, n_int) divergence coupling; F the element
    integrals of (r0 - r1) q.
    """
    _require_finite(c_field.values, "saturation coefficient")
    avals = ws.model.alpha(ws.p1_at_sub(c_field)) / ws.kappa_sub
    _require_finite(avals, "alpha coefficient")
    # sum_q w alpha/kappa Phi_j per sub-cell as in ``rt0_at_sub``, one GEMM block-diagonal in c
    n_t, _, nq = ws.sub_w.shape
    block = np.einsum("cd,jcql->cqdjl", np.eye(3), ws.sub_rt0_grad).reshape(3 * nq, -1)
    wgrad = ((ws.sub_w * avals).reshape(n_t, -1) @ block).reshape(n_t, 9, 3)
    ent = (wgrad @ ws.vert_rel).reshape(n_t, 3, 3, 2) * ws.rt0_coef[:, None, :, None]
    C = ws.pair_matrix(ent[ws.pr_tri, ws.pr_loc])
    A = (ws.gamma_mat.T @ C).tocsr()
    F = well_source_vector(wells, q)
    return A, ws.B, F


def well_source_vector(wells: WellModel, q: float):
    """Element integrals of (r0 - r1) q; rows vanish off the patches and the
    total sums to zero exactly."""
    mesh = wells.mesh
    F = np.zeros(mesh.num_triangles)
    F[wells.injection_tris] += mesh.tri_area[wells.injection_tris] / wells.sigma0
    F[wells.production_tris] -= mesh.tri_area[wells.production_tris] / wells.sigma1
    return q * F


def _gamma_load(cell_integrals, ws):
    """Pair l_i = sum_k gamma_h(Phi_i)|_k . cell_integrals[k]."""
    acc = np.zeros((ws.mesh.num_edges, 2))
    np.add.at(acc, ws.pr_edge, cell_integrals)
    return ws.gamma_mat.T @ acc.ravel()


def assemble_diamond_vector_load(gfun, ws: AssemblyWorkspace):
    """Load vector l_i = (g, gamma_h Phi_i) over the diamond cells.

    ``gfun`` maps an (n, 2) point array to (n, 2) vector values.
    """
    cell = np.einsum("tcq,tcqe->tce", ws.sub_w, ws.sample_sub(gfun))
    return _gamma_load(cell[ws.pr_tri, ws.pr_loc], ws)


def assemble_darcy_costate_rhs(c_field: P1DGField, cstar_field: P1DGField,
                               ws: AssemblyWorkspace):
    """Costate Darcy load F*_i = -(C* b(C) grad(C), gamma_h Phi_i)."""
    _require_finite(c_field.values, "saturation coefficient")
    _require_finite(cstar_field.values, "costate saturation")
    scal = ws.model.b(ws.p1_at_sub(c_field)) * ws.p1_at_sub(cstar_field)
    sint = np.einsum("tcq,tcq->tc", ws.sub_w, scal)
    cell = -sint[ws.pr_tri, ws.pr_loc, None] * ws.grad_p1(c_field)[ws.pr_tri]
    return _gamma_load(cell, ws)


# ---------------------------------------------------------------------------
# saturation block
# ---------------------------------------------------------------------------

def assemble_saturation_state(c_field: P1DGField, u_field: RT0Field,
                              wells: WellModel, q: float,
                              ws: AssemblyWorkspace, xi: float):
    """Matrices of one saturation step: (D, E, H, G).

    D is the porosity-weighted eta mass matrix (the workspace's cached
    ``ws.D``, not a copy); E the convection matrix with
    coefficient b(C) U; H the diffusion matrix T1+T2+T3+T4 with coefficient
    kappa D(C) and penalty xi; G the injection source with f(C) r0 q.
    """
    if xi <= 0.0:
        raise ConfigError("penalty xi must be > 0")
    _require_finite(c_field.values, "saturation coefficient")
    _require_finite(u_field.values, "velocity coefficient")

    D = ws.D
    n_t = ws.mesh.num_triangles
    csub = ws.p1_at_sub(c_field)                      # (n_t, 3, nq)
    # E: w b(C) U . grad(lambda_l); U . grad(lambda_l) at the sub-cell points
    # is one GEMM of the scaled edge coefficients with the reference table
    coeffs = u_field.values[ws.mesh.tri_edges] * ws.rt0_coef          # (n_t, 3)
    ugrad = (coeffs @ ws.sub_rt0_grad.reshape(3, -1)).reshape(n_t, *ws.sub_rt0_grad.shape[1:])
    conv = np.einsum("tcq,tcql->tcl", ws.sub_w * ws.model.b(csub), ugrad)
    E = ws.dual_matrix(conv)

    H = _diffusion_matrix(c_field, ws, xi)

    fsub = ws.model.f(csub)
    gcell = np.einsum("t,tcq,tcq->tc", wells.r0_values() * q, ws.sub_w, fsub)
    G = ws.dual_load(gcell)
    return D, E, H, G


def _diffusion_matrix(c_field, ws, xi):
    # T1: fan fluxes against the cell's eta average
    cfan = ws.p1_at_fan(c_field)
    dfan = ws.kappa_fan * ws.model.diffusion(cfan)     # (n_t, 3, 2, ne)
    dint = np.einsum("tcsq,tcsq->tcs", ws.fan_w, dfan)  # (n_t, 3, 2)
    nflux = (dint[:, :, None, :] @ ws.seg_ngrad)[:, :, 0]

    # edge terms on interior edges: n . grad of each side's trial basis,
    # weighted by that side's diffusion integral and half (average)
    cl = _at_points(ws.edge_lamL, c_field.values[ws.kL])
    cr = _at_points(ws.edge_lamR, c_field.values[ws.kR])
    dL = np.einsum("nq,nq->n", ws.edge_w, ws.kappa_edge * ws.model.diffusion(cl))
    dR = np.einsum("nq,nq->n", ws.edge_w, ws.kappa_edge * ws.model.diffusion(cr))
    flux = 0.5 * np.concatenate([dL[:, None] * ws.edge_ngradL,
                                 dR[:, None] * ws.edge_ngradR], axis=1)   # (n_ie, 6)
    t2 = -ws.avg_jump[:, :, None] * flux[:, None, :]
    t4 = (xi / ws.ie_h)[:, None, None] * ws.edge_penalty
    # T3 is T2 with the roles of trial and test swapped
    return ws.dual_matrix(-nflux, t2 + np.swapaxes(t2, 1, 2) + t4)


def assemble_saturation_costate(c_field: P1DGField, u_field: RT0Field,
                                ustar_field: RT0Field, wells: WellModel,
                                q: float, t: float, ws: AssemblyWorkspace):
    """Costate-only matrices and loads at one time level: (R, S, W, Z).

    R is the production-patch reaction matrix with weight r1 q b(C); S the
    cross-gradient matrix with kappa D'(C) grad(C); W the terminal-weight
    load w(t) C; Z the load alpha'(C)/kappa U . U*.
    """
    _require_finite(c_field.values, "saturation coefficient")
    _require_finite(u_field.values, "velocity coefficient")
    _require_finite(ustar_field.values, "costate velocity")

    model = ws.model
    csub = ws.p1_at_sub(c_field)

    r1qwb = (wells.r1_values() * q)[:, None, None] * ws.sub_w * model.b(csub)
    R = ws.dual_matrix((r1qwb[:, :, None, :] @ ws.sub_lam)[:, :, 0])

    dp = ws.kappa_sub * model.diffusion_prime(csub)
    cross = np.einsum("tcq,tcq->tc", ws.sub_w, dp)
    gradc_lam = (ws.gradlam @ ws.grad_p1(c_field)[:, :, None])[:, :, 0]   # (n_t, 3)
    S = ws.dual_matrix(cross[:, :, None] * gradc_lam[:, None, :])

    wval = wells.w(t)
    wcell = wval * np.einsum("tcq,tcq->tc", ws.sub_w, csub)
    W = ws.dual_load(wcell)

    # the only evaluation of the velocities at the sub-cell points
    udot = (ws.rt0_at_sub(u_field) * ws.rt0_at_sub(ustar_field)).sum(axis=-1)
    ap = model.alpha_prime(csub) / ws.kappa_sub
    Z = ws.dual_load(np.einsum("tcq,tcq->tc", ws.sub_w, ap * udot))
    return R, S, W, Z


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
    eta_z = z.edge_averages()
    eta_phi = phi.edge_averages()

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
