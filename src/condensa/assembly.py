"""Element and global assembly of the Darcy/Stokes schemes and inner products.

Every bilinear form is integrated with collapsed Gauss rules of order
2k+2 (exact for the polynomial integrands, approximate only for
manufactured right-hand sides).  Spatially varying coefficients are
evaluated pointwise at quadrature nodes.

Element kernels use the tensor representation of affine simplices (Kirby
and Logg, ACM TOMS 32, 2006).  A quadrature sum is one GEMM, (cells, q) @
(q, table): per-cell weights w_q |det J| coef(x_q) against a reference
table of basis products built once per ElementContext, such as
values x values or gradients x gradients.  J^-1 enters afterwards through
one small product per cell, for example J^-1 J^-T for grad-grad.  Constant
and callable coefficients take the same path.  Facet terms gather the
cell-basis values on a facet from tables indexed by the arrangement code
of the facet's vertices inside the cell, one GEMM per code.

Storage convention: the monolithic operator is kept exactly symmetric.
The Darcy scheme (which couples +b_h / -b_h) is stored with its momentum
rows negated; this flips no solution values and makes the condensed trace
operator positive definite, so CG applies to the reduced system directly.
The Stokes scheme is symmetric as written and is stored untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elements import (arrangement_codes, arrangement_points, facet_barycentric,
                       pk_basis, reference_measure, simplex_quadrature)
from .spaces import BlockLayout, build_space, interpolate_boundary

__all__ = [
    "ProblemParams",
    "BlockSystem",
    "darcy_spaces",
    "stokes_spaces",
    "aux_spaces",
    "assemble_darcy",
    "assemble_darcy_inner",
    "assemble_aux_hdg",
    "assemble_stokes",
    "assemble_stokes_inner",
    "assemble_counterexample_inner",
    "assemble_stokes_ch",
    "qpair_matrix",
    "constant_trace_vector",
]

_CHUNK = 4096


@dataclass(frozen=True)
class ProblemParams:
    """Model and discretization parameters.

    xi and gamma may be floats or vectorized callables of (npts, dim)
    arrays; nu, eta, zeta are constants.  eta defaults to 4k^2 in 2D and
    6k^2 in 3D when not set explicitly.
    """

    k: int = 2
    xi: object = 1.0
    gamma: object = 1.0
    nu: float = 1.0
    eta: float | None = None
    zeta: float = 0.0

    def eta_for(self, dim: int) -> float:
        eta = self.eta if self.eta is not None else (4.0 if dim == 2 else 6.0) * self.k**2
        if eta <= 1.0:
            raise ValueError(f"penalty eta must exceed 1, got {eta}")
        return float(eta)

    @property
    def big_m(self) -> float:
        """M = max(xi, gamma); defined for constant coefficients only."""
        if callable(self.xi) or callable(self.gamma):
            raise ValueError("M = max(xi, gamma) needs constant coefficients")
        return max(float(self.xi), float(self.gamma))


def _coef(c, pts):
    """Evaluate a constant-or-callable coefficient at points (..., dim)."""
    if callable(c):
        flat = pts.reshape(-1, pts.shape[-1])
        return np.asarray(c(flat), dtype=float).reshape(pts.shape[:-1])
    return np.full(pts.shape[:-1], float(c))


def _outer(a, b, lead=1):
    """Pointwise products over the ``lead`` leading axes a and b share:
    a[p.., i..] b[p.., j..] -> (p.., i.., j..)."""
    return (a.reshape(a.shape + (1,) * (b.ndim - lead))
            * b.reshape(b.shape[:lead] + (1,) * (a.ndim - lead) + b.shape[lead:]))


class ElementContext:
    """Reference tables and per-cell affine geometry for one (mesh, degree)
    pair.

    Cell tables are pointwise products of reference basis values and
    gradients at the quadrature points, (q, ...), contracted by _gemm:

      uu, pp  values x values           (q, nb, nb)
      pgu     p values x u gradients    (q, nbp, nbu, d)
      gpgp    gradients x gradients     (q, nbp, nbp, d, d)
      gugu    gradients x gradients     (q, nbu, nbu, d, d)
      ff      facet values x values     (qf, nbf, nbf)

    Gradients stay in reference coordinates; the kernels apply J^-1 per
    cell after the quadrature sum.

    The cell-basis values at a facet's quadrature points depend on the
    cell only through the arrangement code of the facet's vertices in it
    (elements.arrangement_codes).  Facet tables carry a leading axis over
    the codes present in the mesh, and ``codes`` (cells, d+1) indexes it:
    ``fvals_u[codes[c, l]]`` (qf, nbu) are the values on local facet l of
    cell c.  The product tables fuu, fpp, ffu, ffp (values x values), fguu,
    fguf (gradients x values, (codes, qf, d, n, m)) are contracted by
    _facet_gemm; the rows of fgpp and fgfp run over (gradient direction,
    point), so their weights carry the conormal J^-1 n.  fu_normal and
    fu_pairs are the weight-free sums the normal-trace and normal-jump
    terms gather.
    """

    def __init__(self, mesh, k: int, quad_order: int | None = None):
        self.mesh = mesh
        self.k = k
        d = mesh.dim
        self.order = 2 * k + 2 if quad_order is None else quad_order
        self.rule = simplex_quadrature(d, self.order)
        self.frule = simplex_quadrature(d - 1, self.order)
        self.basis_u = pk_basis(d, k)
        self.basis_p = pk_basis(d, k - 1)
        self.basis_f = pk_basis(d - 1, k)
        self.nbu = self.basis_u.n_basis
        self.nbp = self.basis_p.n_basis
        self.nbf = self.basis_f.n_basis

        self.vals_u = self.basis_u.eval(self.rule.points)
        self.gref_u = self.basis_u.eval_grad(self.rule.points)
        self.vals_p = self.basis_p.eval(self.rule.points)
        self.gref_p = self.basis_p.eval_grad(self.rule.points)
        self.fv = self.basis_f.eval(self.frule.points)  # same table for every facet
        self.uu = _outer(self.vals_u, self.vals_u)
        self.pp = _outer(self.vals_p, self.vals_p)
        self.pgu = _outer(self.vals_p, self.gref_u)
        self.gpgp = _outer(self.gref_p, self.gref_p).transpose(0, 1, 3, 2, 4)
        self.gugu = _outer(self.gref_u, self.gref_u).transpose(0, 1, 3, 2, 4)
        self.ff = _outer(self.fv, self.fv)

        present, codes = np.unique(arrangement_codes(mesh), return_inverse=True)
        self.codes = codes.reshape(mesh.n_cells, d + 1)
        fpts = arrangement_points(d, self.frule)[present]
        fv = np.broadcast_to(self.fv, (present.size,) + self.fv.shape)
        self.fvals_u = self.basis_u.eval(fpts)
        self.fvals_p = self.basis_p.eval(fpts)
        self.fgrad_u = self.basis_u.eval_grad(fpts)
        self.fgrad_p = self.basis_p.eval_grad(fpts)
        gu = self.fgrad_u.transpose(0, 1, 3, 2)  # (codes, qf, d, nbu)
        gp = self.fgrad_p.transpose(0, 1, 3, 2)
        self.fuu = _outer(self.fvals_u, self.fvals_u, 2)
        self.fpp = _outer(self.fvals_p, self.fvals_p, 2)
        self.ffu = _outer(fv, self.fvals_u, 2)
        self.ffp = _outer(fv, self.fvals_p, 2)
        self.fguu = _outer(gu, self.fvals_u, 2)
        self.fguf = _outer(gu, fv, 2)
        nq = self.frule.n_points
        self.fgpp = _outer(gp, self.fvals_p, 2).transpose(0, 2, 1, 3, 4).reshape(
            present.size, d * nq, self.nbp, self.nbp)
        self.fgfp = _outer(gp, fv, 2).transpose(0, 2, 1, 4, 3).reshape(
            present.size, d * nq, self.nbf, self.nbp)
        self.fu_normal = np.tensordot(self.frule.weights, self.ffu, axes=([0], [1]))
        wv = self.fvals_u * self.frule.weights[None, :, None]
        self.fu_pairs = np.tensordot(wv, self.fvals_u, axes=([1], [1])).transpose(0, 2, 1, 3)

        verts, cells = mesh.vertices, mesh.cells
        self.v0 = verts[cells[:, 0]]
        J = np.stack([verts[cells[:, i + 1]] - self.v0 for i in range(d)], axis=2)
        self.J = J
        self.Jinv = np.linalg.inv(J)
        self.detJa = np.abs(np.linalg.det(J))
        self.hK = mesh.diameters

        # global facet quadrature points, canonical facet parameterization
        self.Xf = facet_barycentric(self.frule) @ verts[mesh.facets]
        self.fscale = mesh.facet_areas / reference_measure(d - 1)

    # -- per-cell geometry -------------------------------------------------
    def chunks(self, max_cells: int = _CHUNK):
        nc = self.mesh.n_cells
        for lo in range(0, nc, max_cells):
            yield slice(lo, min(lo + max_cells, nc))

    def cell_weights(self, sl) -> np.ndarray:
        """w_q |det J| per cell and quadrature point: (B, q)."""
        return self.detJa[sl, None] * self.rule.weights[None, :]

    def cell_points(self, sl) -> np.ndarray:
        return self.v0[sl, None, :] + self.rule.points @ self.J[sl].transpose(0, 2, 1)

    def facet_frame(self, sl):
        """Per (cell, local facet): facet ids, outward normals, scales, points."""
        mesh = self.mesh
        fids = mesh.cell_facets[sl]
        signs = mesh.cell_facet_signs[sl].astype(float)
        nrm = mesh.facet_normals[fids] * signs[..., None]
        scale = self.fscale[fids]
        xf = self.Xf[fids]  # (B, d+1, nqf, d)
        return fids, nrm, scale, xf

    def facet_weights(self, scale) -> np.ndarray:
        """w_q |F| / |F_ref| per (cell, local facet) and facet point."""
        return scale[:, :, None] * self.frule.weights[None, None, :]

    def facet_values(self, sl, which: str = "u") -> np.ndarray:
        """Cell-basis values at each local facet's quadrature points,
        gathered by arrangement code: (B, d+1, qf, nb)."""
        return (self.fvals_u if which == "u" else self.fvals_p)[self.codes[sl]]


@dataclass
class BlockSystem:
    """Symmetric 2x2 block operator with per-cell dense A11 storage.

    a21 rows belonging to Dirichlet-fixed trace dofs are zeroed; their
    contributions are lifted into the right-hand side at assembly time.
    ``coupling`` holds cross-cell entries on the cell group (only the
    counterexample's normal-jump term produces them).
    """

    layout: BlockLayout
    a11: np.ndarray
    a21: np.ndarray
    tids: np.ndarray
    a22: sp.csr_matrix
    rhs_cell: np.ndarray
    rhs_trace: np.ndarray
    params: ProblemParams
    problem: str
    coupling: sp.csr_matrix | None = None
    fixed_full: dict = field(default_factory=dict)
    context: ElementContext | None = None
    null_vectors: tuple = ()

    @property
    def n_trace(self) -> int:
        return self.layout.n_trace

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs_cell.ravel(), self.rhs_trace])

    def to_sparse(self) -> sp.csr_matrix:
        lay = self.layout
        nc, cs = self.a11.shape[0], self.a11.shape[1]
        nct, n = lay.n_cell_total, lay.n_total
        cell_ids = np.arange(nct).reshape(nc, cs)
        r11, c11, v11 = _block_triplets(self.a11, cell_ids, cell_ids)
        r21, c21, v21 = _block_triplets(
            self.a21, np.where(self.tids >= 0, self.tids + nct, -1), cell_ids)
        K = sp.coo_matrix(
            (np.concatenate([v11, v21, v21]),
             (np.concatenate([r11, r21, c21]), np.concatenate([c11, c21, r21]))),
            shape=(n, n),
        ).tocsr()
        if self.a22.nnz:
            a22 = self.a22.tocoo()
            K += sp.coo_matrix((a22.data, (a22.row + nct, a22.col + nct)), shape=(n, n)).tocsr()
        if self.coupling is not None and self.coupling.nnz:
            cc = self.coupling.tocoo()
            K += sp.coo_matrix((cc.data, (cc.row, cc.col)), shape=(n, n)).tocsr()
        return K


# ----------------------------------------------------------------------
# space bundles and layouts


def darcy_spaces(mesh, k: int) -> dict:
    return {
        "u": build_space(mesh, "cell-vector", k),
        "p": build_space(mesh, "cell-scalar", k - 1),
        "pbar": build_space(mesh, "facet-scalar", k, zero_boundary=True),
    }


def stokes_spaces(mesh, k: int) -> dict:
    return {
        "u": build_space(mesh, "cell-vector", k),
        "p": build_space(mesh, "cell-scalar", k - 1),
        "ubar": build_space(mesh, "facet-vector", k, zero_boundary=True),
        "pbar": build_space(mesh, "facet-scalar", k),
    }


def aux_spaces(mesh, k: int) -> dict:
    return {
        "p": build_space(mesh, "cell-scalar", k - 1),
        "pbar": build_space(mesh, "facet-scalar", k, zero_boundary=True),
    }


def _trace_ids_scalar(space, fids):
    """(B, (d+1)*nbf) full dof ids for a scalar facet space."""
    nbf = space.nb
    return (fids[:, :, None] * nbf + np.arange(nbf)[None, None, :]).reshape(fids.shape[0], -1)


def _trace_ids_vector(space, fids):
    d1 = fids.shape[1]
    nbf, d = space.nb, space.ncomp
    comp = np.arange(d)[None, None, :, None]
    m = np.arange(nbf)[None, None, None, :]
    full = (fids[:, :, None, None] * d + comp) * nbf + m
    return full.reshape(fids.shape[0], d1 * d * nbf)


class _Accumulator:
    """Scatters chunk element blocks into global storage with Dirichlet lift."""

    def __init__(self, layout: BlockLayout, params, problem, context):
        nc, cs = layout.mesh.n_cells, layout.cell_size
        self.layout = layout
        ntr_local = 0
        for _, spc in layout.trace_fields:
            ntr_local += (layout.mesh.dim + 1) * spc.ncomp * spc.nb
        self.a11 = np.zeros((nc, cs, cs))
        self.a21 = np.zeros((nc, ntr_local, cs))
        self.tids = np.full((nc, ntr_local), -1, dtype=np.int64)
        self.rhs_cell = np.zeros((nc, cs))
        self.rhs_trace = np.zeros(layout.n_trace)
        self.a22_rows, self.a22_cols, self.a22_vals = [], [], []
        self.params, self.problem, self.context = params, problem, context
        self.fixed_full: dict = {}
        self.gloc = np.zeros((nc, ntr_local))

    def set_trace_ids(self, sl, fids, fixed_values: dict):
        """Build free trace ids and fixed local values for a chunk."""
        lay = self.layout
        pieces, gpieces = [], []
        for name, spc in lay.trace_fields:
            full = (_trace_ids_vector if spc.ncomp > 1 else _trace_ids_scalar)(spc, fids)
            free = spc.full_to_free[full]
            off, _ = lay.trace_field_range(name)
            free = np.where(free >= 0, free + off, -1)
            pieces.append(free)
            g = fixed_values.get(name)
            gv = np.zeros(full.shape) if g is None else np.asarray(g)[full]
            gv[free >= 0] = 0.0
            gpieces.append(gv)
        self.tids[sl] = np.concatenate(pieces, axis=1)
        self.gloc[sl] = np.concatenate(gpieces, axis=1)

    def add(self, sl, a11e=None, a21e=None, a22b=None, rhs_celle=None):
        """Add a chunk's blocks.  a22b holds the trace-trace block by its
        diagonal blocks (B, m, s, s): the leading m*s local trace dofs, in
        runs of s (one local facet, one component) that couple only within
        a run; the trace dofs after them have no trace-trace entries.  A run
        is all free or all fixed (boundary data fixes whole facets), so only
        a21 lifts the fixed values into the right-hand side."""
        tids, gloc = self.tids[sl], self.gloc[sl]
        free = tids >= 0
        if a11e is not None:
            self.a11[sl] += a11e
        if rhs_celle is not None:
            self.rhs_cell[sl] += rhs_celle
        if a21e is not None:
            self.rhs_cell[sl] -= (gloc[:, None, :] @ a21e)[:, 0]
            self.a21[sl] += np.where(free[:, :, None], a21e, 0.0)
        if a22b is not None:
            B, m, s = a22b.shape[:3]
            ids = tids[:, :m * s].reshape(B * m, s)
            r, c, v = _block_triplets(a22b.reshape(B * m, s, s), ids, ids)
            self.a22_rows.append(r)
            self.a22_cols.append(c)
            self.a22_vals.append(v)

    def finish(self, coupling=None, null_vectors=()) -> BlockSystem:
        n = self.layout.n_trace
        if self.a22_rows:
            a22 = sp.coo_matrix(
                (np.concatenate(self.a22_vals),
                 (np.concatenate(self.a22_rows), np.concatenate(self.a22_cols))),
                shape=(n, n),
            ).tocsr()
        else:
            a22 = sp.csr_matrix((n, n))
        return BlockSystem(
            layout=self.layout, a11=self.a11, a21=self.a21, tids=self.tids,
            a22=a22, rhs_cell=self.rhs_cell, rhs_trace=self.rhs_trace,
            params=self.params, problem=self.problem, coupling=coupling,
            fixed_full=self.fixed_full, context=self.context,
            null_vectors=tuple(null_vectors),
        )


# ----------------------------------------------------------------------
# element kernels: one GEMM against a reference table, then geometry


def _gemm(w, table):
    """Quadrature sum w[..., q] table[q, ...] as one GEMM: (..., table...)."""
    return (w.reshape(-1, table.shape[0]) @ table.reshape(table.shape[0], -1)).reshape(
        w.shape[:-1] + table.shape[1:])


def _facet_gemm(codes, w, tables):
    """w[b, l] @ tables[codes[b, l]] for every (cell, local facet) pair,
    one GEMM per arrangement code: (B, d+1, table...)."""
    c = codes.ravel()
    K = tables.shape[1]
    w2 = w.reshape(c.size, K)
    flat = tables.reshape(tables.shape[0], K, -1)
    out = np.empty((c.size, flat.shape[2]))
    order = np.argsort(c, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(c[order])) + 1):
        out[idx] = w2[idx] @ flat[c[idx[0]]]
    return out.reshape(codes.shape + tables.shape[2:])


def _grad_grad(w, table, Jinv):
    """sum_q w (grad phi_i . grad phi_j) from a gradients x gradients
    table (q, n, n, d, d): the reference sum contracted with J^-1 J^-T."""
    R = _gemm(w, table)
    B, n, d = R.shape[0], R.shape[1], R.shape[3]
    K = Jinv @ Jinv.transpose(0, 2, 1)
    return (R.reshape(B, n * n, d * d) @ K.reshape(B, d * d, 1)).reshape(B, n, n)


def _grad_pairs(w, table, Jinv):
    """Y[b, c, n, e, m] = sum_q w d_c phi_n d_e phi_m (physical partial
    derivatives) from a gradients x gradients table (q, n, n, d, d)."""
    R = _gemm(w, table)
    B, n, d = R.shape[0], R.shape[1], R.shape[3]
    # J^-T (d_f phi_n d_g phi_m) J^-1 for every (n, m) as one product per cell
    K = (Jinv[:, :, None, :, None] * Jinv[:, None, :, None, :]).reshape(B, d * d, d * d)
    Y = (R.reshape(B, n * n, d * d) @ K).reshape(B, n, n, d, d)
    return Y.transpose(0, 3, 1, 4, 2)


def _div_div(Y):
    """(div v_(c,n), div v_(e,m)) -> (B, d*nb, d*nb), u component-major."""
    B, d, nb = Y.shape[:3]
    return Y.reshape(B, d * nb, d * nb)


def _eps_eps(Y):
    """(eps(phi_n e_c), eps(phi_m e_e)) = (eps(phi_n e_c) grad phi_m)_e
    -> (B, d*nb, d*nb)."""
    B, d, nb = Y.shape[:3]
    return _eps_dot(Y.transpose(0, 3, 1, 2, 4)).reshape(B, d * nb, d * nb)


def _div_matrix(w, table, Jinv):
    """(q_j, div v_(c,n)) -> (B, nbp, d*nbu), u columns component-major,
    from the p values x u gradients table (q, nbp, nbu, d)."""
    R = _gemm(w, table)
    B, nbp, nbu, d = R.shape
    D = R.reshape(B, nbp * nbu, d) @ Jinv
    return D.reshape(B, nbp, nbu, d).transpose(0, 1, 3, 2).reshape(B, nbp, d * nbu)


def _blockdiag(blocks):
    """Diagonal blocks (B, m, nb, nb) -> block-diagonal (B, m*nb, m*nb)."""
    B, m, nb = blocks.shape[:3]
    out = np.zeros((B, m, nb, m, nb))
    for l in range(m):
        out[:, l, :, l, :] = blocks[:, l]
    return out.reshape(B, m * nb, m * nb)


def _block_triplets(blocks, rows, cols):
    """COO triplets (row ids, column ids, values) of per-cell blocks
    (B, m, n) placed at row ids (B, m) and column ids (B, n); every entry
    with a negative row or column id is dropped."""
    keep = (rows[:, :, None] >= 0) & (cols[:, None, :] >= 0)
    r = np.broadcast_to(rows[:, :, None], blocks.shape)[keep]
    c = np.broadcast_to(cols[:, None, :], blocks.shape)[keep]
    return r, c, blocks[keep]


def _components(blocks, d):
    """Each of the m blocks (B, m, nb, nb) once per vector component,
    component index fastest: (B, m*d, nb, nb)."""
    return np.repeat(blocks, d, axis=1)


def _normal_trace(base, nrm, scale):
    """< fbar_m, v.n > rows (l, m), u columns (c, n): (B, ntr, d*nbu), from
    the gathered blocks base[b, l] = sum_q w_q fbar_m phi_n (fu_normal)."""
    T = base[:, :, :, None, :] * (nrm * scale[..., None])[:, :, None, :, None]
    B, d1, nbf, d, nbu = T.shape
    return T.reshape(B, d1 * nbf, d * nbu)


def _eps_dot(F):
    """Sums of (eps(phi_n e_c) a)_e psi_m, as (..., c, n, e, m), from
    F[..., c, e, n, m], the sums of a_c (d_e phi_n) psi_m; a is the facet
    normal in the consistency terms."""
    d = F.shape[-4]
    E = 0.5 * F
    tr = 0.5 * np.trace(F, axis1=-4, axis2=-3)
    for c in range(d):
        E[..., c, c, :, :] += tr
    return np.swapaxes(E, -3, -2)


def _physical(R, Jinv):
    """d_e phi_n = sum_f J^-1[f, e] d_f phi_n on the gradient axis (-3) of
    reference sums R[b, ..., f, n, m]; Jinv is (B, d, d)."""
    lead = R.shape[:-3]
    d, n, m = R.shape[-3:]
    JT = Jinv.transpose(0, 2, 1).reshape((Jinv.shape[0],) + (1,) * (len(lead) - 1) + (d, d))
    return (JT @ R.reshape(lead + (d, n * m))).reshape(R.shape)


# ----------------------------------------------------------------------
# Darcy


def _darcy_layout(mesh, spaces):
    return BlockLayout(mesh, (("u", spaces["u"]), ("p", spaces["p"])),
                       (("pbar", spaces["pbar"]),))


def _velocity_mass(ctx, w):
    """Vector velocity mass, one scalar block per component: (B, d*nbu, d*nbu)."""
    return _blockdiag(_components(_gemm(w, ctx.uu)[:, None], ctx.mesh.dim))


def assemble_darcy(mesh, spaces, params: ProblemParams, f=None, p_dirichlet=None,
                   quad_order=None) -> BlockSystem:
    """Hybrid mixed (BDM-type) Darcy scheme, symmetric storage.

    Stored rows: momentum negated, mass balance as written; the trace
    Schur complement of this operator is SPD.
    """
    k = params.k
    _check_darcy_spaces(mesh, spaces, k)
    ctx = ElementContext(mesh, k, quad_order)
    lay = _darcy_layout(mesh, spaces)
    acc = _Accumulator(lay, params, "darcy", ctx)
    fixed = {}
    if p_dirichlet is not None:
        fixed["pbar"] = interpolate_boundary(
            build_space(mesh, "facet-scalar", k), p_dirichlet)
    acc.fixed_full = fixed

    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    cs = lay.cell_size
    for sl in ctx.chunks():
        xq = ctx.cell_points(sl)
        wdet = ctx.cell_weights(sl)
        D = _div_matrix(wdet, ctx.pgu, ctx.Jinv[sl])

        a11e = np.zeros((xq.shape[0], cs, cs))
        a11e[:, usl, usl] = -_velocity_mass(ctx, wdet / _coef(params.xi, xq))
        a11e[:, usl, psl] = np.transpose(D, (0, 2, 1))
        a11e[:, psl, usl] = D
        a11e[:, psl, psl] = _gemm(wdet * _coef(params.gamma, xq), ctx.pp)

        fids, nrm, scale, _ = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, fixed)
        T = _normal_trace(ctx.fu_normal[ctx.codes[sl]], nrm, scale)
        a21e = np.zeros((xq.shape[0], T.shape[1], cs))
        a21e[:, :, usl] = -T

        rhs_celle = None
        if f is not None:
            rhs_celle = np.zeros((xq.shape[0], cs))
            rhs_celle[:, psl] = (wdet * _coef(f, xq)) @ ctx.vals_p
        acc.add(sl, a11e=a11e, a21e=a21e, rhs_celle=rhs_celle)
    return acc.finish()


def assemble_darcy_inner(mesh, spaces, params: ProblemParams,
                         quad_order=None) -> BlockSystem:
    """Darcy preconditioner inner product: xi^-1 velocity mass plus the
    weighted pressure form gamma(p,q) + xi(grad p, grad q) + xi eta
    <h^-1 (p - pbar), (q - qbar)>."""
    k = params.k
    _check_darcy_spaces(mesh, spaces, k)
    ctx = ElementContext(mesh, k, quad_order)
    lay = _darcy_layout(mesh, spaces)
    acc = _Accumulator(lay, params, "darcy-inner", ctx)
    eta = params.eta_for(mesh.dim)

    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    cs = lay.cell_size
    for sl in ctx.chunks():
        xq = ctx.cell_points(sl)
        wdet = ctx.cell_weights(sl)
        xi = _coef(params.xi, xq)

        a11e = np.zeros((xq.shape[0], cs, cs))
        a11e[:, usl, usl] = _velocity_mass(ctx, wdet / xi)
        a11e[:, psl, psl] = (_gemm(wdet * _coef(params.gamma, xq), ctx.pp)
                             + _grad_grad(wdet * xi, ctx.gpgp, ctx.Jinv[sl]))

        fids, _, scale, xf = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, {})
        codes = ctx.codes[sl]
        wpen = ctx.facet_weights(scale) * (_coef(params.xi, xf) * eta / ctx.hK[sl, None, None])
        a11e[:, psl, psl] += _facet_gemm(codes, wpen, ctx.fpp).sum(axis=1)
        cross = _facet_gemm(codes, wpen, ctx.ffp)
        a21e = np.zeros((xq.shape[0], cross.shape[1] * cross.shape[2], cs))
        a21e[:, :, psl] = -cross.reshape(a21e.shape[0], -1, cross.shape[3])
        acc.add(sl, a11e=a11e, a21e=a21e, a22b=_gemm(wpen, ctx.ff))
    return acc.finish()


def assemble_counterexample_inner(mesh, spaces, params: ProblemParams,
                                  quad_order=None) -> BlockSystem:
    """The robust-before-reduction counterexample inner product.

    Velocity: xi^-1 mass + M^-1 div-div + xi^-1 <h_F^-1 [[u.n]],[[v.n]]>
    over interior facets (cross-cell coupling); pressure: M (p,q) and
    xi <h_K pbar, qbar> with no p-pbar coupling.
    """
    k = params.k
    _check_darcy_spaces(mesh, spaces, k)
    M = params.big_m  # raises for callable coefficients
    xi = float(params.xi)
    ctx = ElementContext(mesh, k, quad_order)
    lay = _darcy_layout(mesh, spaces)
    acc = _Accumulator(lay, params, "darcy-counterexample-inner", ctx)

    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    cs = lay.cell_size
    for sl in ctx.chunks():
        wdet = ctx.cell_weights(sl)
        Y = _grad_pairs(wdet / M, ctx.gugu, ctx.Jinv[sl])

        a11e = np.zeros((wdet.shape[0], cs, cs))
        a11e[:, usl, usl] = _velocity_mass(ctx, wdet / xi) + _div_div(Y)
        a11e[:, psl, psl] = _gemm(wdet * M, ctx.pp)

        fids, _, scale, _ = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, {})
        wbar = ctx.facet_weights(scale) * (xi * ctx.hK[sl, None, None])
        acc.add(sl, a11e=a11e, a22b=_gemm(wbar, ctx.ff))

    coupling = _normal_jump_coupling(ctx, lay, 1.0 / xi)
    return acc.finish(coupling=coupling)


def _normal_jump_coupling(ctx: ElementContext, lay: BlockLayout, coef: float):
    """xi^-1 <h_F^-1 [[u.n]], [[v.n]]> over interior facets as a sparse
    matrix on the monolithic cell group (includes same-cell blocks)."""
    mesh = ctx.mesh
    interior = np.nonzero(~mesh.boundary_flags)[0]
    if interior.size == 0:
        return None
    nbu, d = ctx.nbu, mesh.dim
    cells_ab = mesh.facet_cells[interior]
    N = mesh.facet_normals[interior]
    wF = coef * ctx.fscale[interior] / mesh.facet_diameters[interior]
    # arrangement code of the facet in each of its two cells
    codes = np.stack([
        ctx.codes[c, np.argmax(mesh.cell_facets[c] == interior[:, None], axis=1)]
        for c in cells_ab.T], axis=1)
    # stored normals point out of the first cell: n_a n_b = +-N N^T
    NN = wF[:, None, None] * N[:, :, None] * N[:, None, :]
    uidx = lay.indices("u").reshape(mesh.n_cells, d * nbu)
    triplets = []
    for a in range(2):
        for b in range(2):
            pairs = ctx.fu_pairs[codes[:, a], codes[:, b]]  # (nf, nbu, nbu)
            blk = (NN if a == b else -NN)[:, :, None, :, None] * pairs[:, None, :, None, :]
            triplets.append(_block_triplets(blk.reshape(-1, d * nbu, d * nbu),
                                            uidx[cells_ab[:, a]], uidx[cells_ab[:, b]]))
    rows, cols, vals = (np.concatenate(t) for t in zip(*triplets))
    n = lay.n_cell_total
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


# ----------------------------------------------------------------------
# auxiliary HDG (elliptic) problem on (p, pbar)


def _aux_consistency(ctx, codes, w, nrm, Jinv):
    """Facet sums of w (grad q_i . n) q_j and w (grad q_j . n) fbar_m:
    ((B, nbp, nbp) summed over the facets, (B, d+1, nbf, nbp)).  The
    weights carry the conormal J^-1 n, one per gradient direction."""
    conormal = nrm @ Jinv.transpose(0, 2, 1)  # (B, d+1, d)
    wn = (conormal[..., None] * w[:, :, None, :]).reshape(w.shape[0], w.shape[1], -1)
    return _facet_gemm(codes, wn, ctx.fgpp).sum(axis=1), _facet_gemm(codes, wn, ctx.fgfp)


def assemble_aux_hdg(mesh, spaces, params: ProblemParams, f=None,
                     quad_order=None) -> BlockSystem:
    """Interior-penalty HDG form for -div(xi grad p) + gamma p on the
    pressure pair; symmetric, coercive for eta at the default values."""
    k = params.k
    ctx = ElementContext(mesh, k, quad_order)
    lay = BlockLayout(mesh, (("p", spaces["p"]),), (("pbar", spaces["pbar"]),))
    acc = _Accumulator(lay, params, "darcy-aux", ctx)
    eta = params.eta_for(mesh.dim)

    for sl in ctx.chunks():
        xq = ctx.cell_points(sl)
        wdet = ctx.cell_weights(sl)
        a11e = (_gemm(wdet * _coef(params.gamma, xq), ctx.pp)
                + _grad_grad(wdet * _coef(params.xi, xq), ctx.gpgp, ctx.Jinv[sl]))

        fids, nrm, scale, xf = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, {})
        codes = ctx.codes[sl]
        wcons = ctx.facet_weights(scale) * _coef(params.xi, xf)
        wpen = wcons * (eta / ctx.hK[sl, None, None])
        cons, cons_bar = _aux_consistency(ctx, codes, wcons, nrm, ctx.Jinv[sl])
        a11e += _facet_gemm(codes, wpen, ctx.fpp).sum(axis=1)
        a11e -= cons + np.transpose(cons, (0, 2, 1))

        a21e = (cons_bar - _facet_gemm(codes, wpen, ctx.ffp)).reshape(
            wdet.shape[0], -1, ctx.nbp)

        rhs_celle = None
        if f is not None:
            rhs_celle = (wdet * _coef(f, xq)) @ ctx.vals_p
        acc.add(sl, a11e=a11e, a21e=a21e, a22b=_gemm(wpen, ctx.ff), rhs_celle=rhs_celle)
    return acc.finish()


# ----------------------------------------------------------------------
# Stokes


def _stokes_layout(mesh, spaces):
    return BlockLayout(mesh, (("u", spaces["u"]), ("p", spaces["p"])),
                       (("ubar", spaces["ubar"]), ("pbar", spaces["pbar"])))


def _penalty_blocks(ctx, codes, wpen):
    """The velocity penalty nu eta <h^-1 (u - ubar), (v - vbar)>:
    (cell_uu, ubar_u, ubar_ubar), ubar rows (l, c, m), u columns (c, n),
    ubar_ubar by its (l, c) diagonal blocks."""
    d = ctx.mesh.dim
    B = wpen.shape[0]
    uu = _blockdiag(_components(_facet_gemm(codes, wpen, ctx.fuu).sum(axis=1)[:, None], d))
    pen = _facet_gemm(codes, wpen, ctx.ffu)  # (B, d+1, nbf, nbu)
    cross = np.zeros((B, d + 1, d, ctx.nbf, d, ctx.nbu))
    for c in range(d):
        cross[:, :, c, :, c, :] = -pen
    ubu = _components(_gemm(wpen, ctx.ff), d)
    return uu, cross.reshape(B, -1, d * ctx.nbu), ubu


def _ch_blocks(ctx, sl, Y, nu, eta, zeta=0.0):
    """Element blocks of c_h (+ zeta div-div): returns (cell_uu, ubar_u,
    ubar_ubar diagonal blocks); Y holds the cell's gradient pairs
    (_grad_pairs)."""
    _, nrm, scale, _ = ctx.facet_frame(sl)
    codes = ctx.codes[sl]
    wcons = ctx.facet_weights(scale) * nu
    uu, cross, ubu = _penalty_blocks(ctx, codes, wcons * (eta / ctx.hK[sl, None, None]))
    uu += nu * _eps_eps(Y)
    if zeta:
        uu += zeta * _div_div(Y)

    # -< eps(u) n, v - vbar > - < eps(v) n, u - ubar > consistency terms
    cons, cons_bar = _ch_consistency(ctx, codes, wcons, nrm, ctx.Jinv[sl])
    uu -= cons + np.transpose(cons, (0, 2, 1))
    cross += cons_bar
    return uu, cross, ubu


def _ch_consistency(ctx, codes, w, nrm, Jinv):
    """Facet sums of w (eps(phi_n e_c) n) . phi_m e_e, summed over the
    facets, (B, d*nbu, d*nbu), and of w (eps(phi_n e_c) n) . fbar_m e_e,
    rows (l, e, m), columns (c, n): (B, (d+1)*d*nbf, d*nbu)."""
    B, d1 = codes.shape
    d, nb = d1 - 1, ctx.nbu
    R = _facet_gemm(codes, w, ctx.fguu)  # (B, l, f, n, m), reference gradients
    F = (nrm.transpose(0, 2, 1) @ R.reshape(B, d1, -1)).reshape(B, d, d, nb, nb)
    cons = _eps_dot(_physical(F, Jinv)).reshape(B, d * nb, d * nb)
    G = _physical(_facet_gemm(codes, w, ctx.fguf), Jinv)  # (B, l, e, n, m)
    EN = _eps_dot(nrm[:, :, :, None, None, None] * G[:, :, None])  # (B, l, c, n, e, m)
    return cons, EN.transpose(0, 1, 4, 5, 2, 3).reshape(B, d1 * d * ctx.nbf, d * nb)


def assemble_stokes(mesh, spaces, params: ProblemParams, f=None, u_dirichlet=None,
                    quad_order=None) -> BlockSystem:
    """HDG Stokes scheme: c_h + b_h(v, p-pair) + b_h(u, q-pair); symmetric
    indefinite as written.  The constant-pressure pair spans the kernel."""
    k = params.k
    _check_stokes_spaces(mesh, spaces, k)
    nu = float(params.nu)
    ctx = ElementContext(mesh, k, quad_order)
    lay = _stokes_layout(mesh, spaces)
    acc = _Accumulator(lay, params, "stokes", ctx)
    eta = params.eta_for(mesh.dim)

    fixed = {}
    if u_dirichlet is not None:
        fixed["ubar"] = interpolate_boundary(
            build_space(mesh, "facet-vector", k), u_dirichlet)
    acc.fixed_full = fixed

    d, nbf = mesh.dim, ctx.nbf
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    n_ub = (d + 1) * d * nbf
    cs = lay.cell_size
    for sl in ctx.chunks():
        wdet = ctx.cell_weights(sl)
        B = wdet.shape[0]
        Jinv = ctx.Jinv[sl]
        uu, cross, ubu = _ch_blocks(ctx, sl, _grad_pairs(wdet, ctx.gugu, Jinv), nu, eta)
        D = _div_matrix(wdet, ctx.pgu, Jinv)

        a11e = np.zeros((B, cs, cs))
        a11e[:, usl, usl] = uu
        a11e[:, usl, psl] = -np.transpose(D, (0, 2, 1))
        a11e[:, psl, usl] = -D

        fids, nrm, scale, xf = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, fixed)
        T = _normal_trace(ctx.fu_normal[ctx.codes[sl]], nrm, scale)

        ntr = acc.a21.shape[1]
        a21e = np.zeros((B, ntr, cs))
        a21e[:, :n_ub, usl] = cross
        a21e[:, n_ub:, usl] = T

        rhs_celle = None
        if f is not None:
            xq = ctx.cell_points(sl)
            wf = wdet[:, :, None] * np.asarray(f(xq.reshape(-1, d)), dtype=float).reshape(B, -1, d)
            rhs_celle = np.zeros((B, cs))
            rhs_celle[:, usl] = _gemm(wf.transpose(0, 2, 1), ctx.vals_u).reshape(B, -1)
        acc.add(sl, a11e=a11e, a21e=a21e, a22b=ubu, rhs_celle=rhs_celle)

        if u_dirichlet is not None:
            # consistency of the mass-balance trace rows with u = g on the
            # boundary: <qbar, g.n> on boundary facets
            bmask = mesh.boundary_flags[fids]
            if bmask.any():
                bb, ll = np.nonzero(bmask)
                gv = np.asarray(u_dirichlet(xf[bb, ll].reshape(-1, d)),
                                dtype=float).reshape(bb.size, -1, d)
                gn = (gv @ nrm[bb, ll][:, :, None])[:, :, 0]
                load = (scale[bb, ll, None] * ctx.frule.weights[None, :] * gn) @ ctx.fv
                pb_ids = acc.tids[sl][bb[:, None], n_ub + ll[:, None] * ctx.nbf
                                      + np.arange(ctx.nbf)[None, :]]
                acc.rhs_trace += np.bincount(pb_ids.ravel(), weights=load.ravel(),
                                             minlength=acc.rhs_trace.size)

    return acc.finish(null_vectors=(constant_pressure_vector(lay),))


def assemble_stokes_inner(mesh, spaces, params: ProblemParams, hatted: bool = False,
                          quad_order=None) -> BlockSystem:
    """Stokes preconditioner inner product (zeta >= 0 variants).

    hatted=False: velocity block nu(eps, eps) + nu eta <h^-1 (u-ubar),(v-vbar)>
    + zeta div-div; hatted=True: the full c_h + zeta div-div.  Pressure block
    nu^-1 (p, q) + nu^-1 eta^-1 <h_K pbar, qbar>, diagonal across p/pbar.
    """
    k = params.k
    _check_stokes_spaces(mesh, spaces, k)
    nu, zeta = float(params.nu), float(params.zeta)
    ctx = ElementContext(mesh, k, quad_order)
    lay = _stokes_layout(mesh, spaces)
    tag = "stokes-inner-hat" if hatted else "stokes-inner"
    acc = _Accumulator(lay, params, tag, ctx)
    eta = params.eta_for(mesh.dim)

    d, nbf = mesh.dim, ctx.nbf
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    n_ub = (d + 1) * d * nbf
    cs = lay.cell_size
    for sl in ctx.chunks():
        wdet = ctx.cell_weights(sl)
        B = wdet.shape[0]
        Y = _grad_pairs(wdet, ctx.gugu, ctx.Jinv[sl])
        fids, _, scale, _ = ctx.facet_frame(sl)

        if hatted:
            uu, cross, ubu = _ch_blocks(ctx, sl, Y, nu, eta, zeta=zeta)
        else:
            wpen = ctx.facet_weights(scale) * (nu * eta / ctx.hK[sl, None, None])
            uu, cross, ubu = _penalty_blocks(ctx, ctx.codes[sl], wpen)
            uu += nu * _eps_eps(Y)
            if zeta:
                uu += zeta * _div_div(Y)

        a11e = np.zeros((B, cs, cs))
        a11e[:, usl, usl] = uu
        a11e[:, psl, psl] = _gemm(wdet / nu, ctx.pp)

        acc.set_trace_ids(sl, fids, {})
        ntr = acc.a21.shape[1]
        a21e = np.zeros((B, ntr, cs))
        a21e[:, :n_ub, usl] = cross
        wbar = ctx.facet_weights(scale) * (ctx.hK[sl, None, None] / (nu * eta))
        a22b = np.concatenate([ubu, _gemm(wbar, ctx.ff)], axis=1)
        acc.add(sl, a11e=a11e, a21e=a21e, a22b=a22b)
    return acc.finish()


def assemble_stokes_ch(mesh, spaces, params: ProblemParams,
                       quad_order=None) -> BlockSystem:
    """The c_h velocity form alone on (u; ubar): probe support for the
    condensed-velocity estimates."""
    k = params.k
    nu = float(params.nu)
    ctx = ElementContext(mesh, k, quad_order)
    lay = BlockLayout(mesh, (("u", spaces["u"]),), (("ubar", spaces["ubar"]),))
    acc = _Accumulator(lay, params, "stokes-ch", ctx)
    eta = params.eta_for(mesh.dim)
    for sl in ctx.chunks():
        Y = _grad_pairs(ctx.cell_weights(sl), ctx.gugu, ctx.Jinv[sl])
        uu, cross, ubu = _ch_blocks(ctx, sl, Y, nu, eta)
        acc.set_trace_ids(sl, ctx.mesh.cell_facets[sl], {})
        acc.add(sl, a11e=uu, a21e=cross, a22b=ubu)
    return acc.finish()


# ----------------------------------------------------------------------
# helpers shared with other modules


def _check_darcy_spaces(mesh, spaces, k):
    ok = (spaces["u"].kind == "cell-vector" and spaces["u"].degree == k
          and spaces["p"].kind == "cell-scalar" and spaces["p"].degree == k - 1
          and spaces["pbar"].kind == "facet-scalar" and spaces["pbar"].degree == k)
    if not ok:
        raise ValueError("Darcy needs (cell-vector k, cell-scalar k-1, facet-scalar k)")


def _check_stokes_spaces(mesh, spaces, k):
    ok = (spaces["u"].kind == "cell-vector" and spaces["u"].degree == k
          and spaces["p"].kind == "cell-scalar" and spaces["p"].degree == k - 1
          and spaces["ubar"].kind == "facet-vector" and spaces["ubar"].degree == k
          and spaces["pbar"].kind == "facet-scalar" and spaces["pbar"].degree == k)
    if not ok:
        raise ValueError("Stokes needs (cell-vector k, cell-scalar k-1, "
                         "facet-vector k, facet-scalar k)")


def constant_trace_vector(space) -> np.ndarray:
    """Free-dof coefficients of the constant function 1 on a scalar facet
    space (orthonormal basis: sqrt of the reference measure on the leading
    dof of each facet)."""
    mesh = space.mesh
    full = np.zeros(space.ndofs)
    full[::space.nb] = np.sqrt(reference_measure(mesh.dim - 1))
    return full[space.free_to_full]


def constant_pressure_vector(layout: BlockLayout) -> np.ndarray:
    """Monolithic coefficients of (u, p, ubar, pbar) = (0, 1, 0, 1): the
    Stokes kernel."""
    mesh = layout.mesh
    x = np.zeros(layout.n_total)
    psl = layout.cell_field_slice("p")
    cells = x[: layout.n_cell_total].reshape(mesh.n_cells, layout.cell_size)
    cells[:, psl.start] = np.sqrt(reference_measure(mesh.dim))
    off, end = layout.trace_field_range("pbar")
    pbar = dict(layout.trace_fields)["pbar"]
    x[layout.n_cell_total + off: layout.n_cell_total + end] = constant_trace_vector(pbar)
    return x


def qpair_matrix(system: BlockSystem) -> sp.csr_matrix:
    """Monolithic sparse matrix restricted to the (p, pbar) pair of a
    Darcy-type system (u rows/columns dropped)."""
    keep = system.layout.indices("p", "pbar")
    return system.to_sparse().tocsr()[keep][:, keep]
