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

Each assembler builds its blocks for all cells in one pass and writes
every cell's A11_K, A21_K and A22_K once, into the arrays BlockSystem
keeps; _block_system then lifts Dirichlet data and numbers the traces.

Storage convention: the monolithic operator is kept exactly symmetric.
The Darcy scheme (which couples +b_h / -b_h) is stored with its momentum
rows negated; this flips no solution values and makes the condensed trace
operator positive definite, so CG applies to the reduced system directly.
The Stokes scheme is symmetric as written and is stored untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .elements import (arrangement_codes, arrangement_points, facet_barycentric,
                       pk_basis, reference_measure, simplex_quadrature)
from .krylov import _mapped_zeros
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
    "constant_trace_vector",
]


@dataclass(frozen=True)
class ProblemParams:
    """Model and discretization parameters.

    xi and gamma may be floats or vectorized callables of (npts, dim)
    arrays; nu, eta, zeta are constants.  Every constant must be finite,
    a constant xi or nu positive and a constant gamma or zeta
    non-negative.  eta defaults to 4k^2 in 2D and 6k^2 in 3D when not set
    explicitly.
    """

    k: int = 2
    xi: object = 1.0
    gamma: object = 1.0
    nu: float = 1.0
    eta: float | None = None
    zeta: float = 0.0

    def __post_init__(self):
        for name, value in (("xi", self.xi), ("gamma", self.gamma), ("nu", self.nu),
                            ("zeta", self.zeta), ("eta", self.eta)):
            if value is not None and not callable(value) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {float(value)}")
        for name, value in (("xi", self.xi), ("nu", self.nu)):
            if not callable(value) and value <= 0:
                raise ValueError(f"{name} must be positive, got {float(value)}")
        # gamma = 0 is legal: the inf-sup probe assembles Darcy without reaction
        for name, value in (("gamma", self.gamma), ("zeta", self.zeta)):
            if not callable(value) and value < 0:
                raise ValueError(f"{name} must be non-negative, got {float(value)}")

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

    def __init__(self, mesh, k: int):
        self.mesh = mesh
        self.k = k
        d = mesh.dim
        self.order = 2 * k + 2
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
        for value in vars(self).values():   # shared by the assemblies of a mesh
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # -- per-cell geometry -------------------------------------------------
    def cell_weights(self) -> np.ndarray:
        """w_q |det J| per cell and quadrature point: (cells, q)."""
        return self.detJa[:, None] * self.rule.weights[None, :]

    def cell_points(self, cells=slice(None)) -> np.ndarray:
        """Quadrature points of the given cells: (cells, q, d)."""
        return self.v0[cells, None, :] + self.rule.points @ self.J[cells].transpose(0, 2, 1)

    def facet_frame(self):
        """Per (cell, local facet): facet ids, outward normals, scales, points."""
        mesh = self.mesh
        fids = mesh.cell_facets
        nrm = mesh.facet_normals[fids] * mesh.cell_facet_signs.astype(float)[..., None]
        return fids, nrm, self.fscale[fids], self.Xf[fids]

    def facet_weights(self, scale) -> np.ndarray:
        """w_q |F| / |F_ref| per (cell, local facet) and facet point."""
        return scale[:, :, None] * self.frule.weights[None, None, :]


@lru_cache(maxsize=1)
def _context(mesh, k: int) -> ElementContext:
    """One ElementContext while consecutive assemblies ask for the same
    (mesh, k), so a row's scheme and inner product share it."""
    return ElementContext(mesh, k)


@dataclass
class BlockSystem:
    """Symmetric 2x2 block operator with per-cell dense A11 storage.

    tids (cells, ntr) are each cell's trace ids, -1 where a dof is fixed.
    a21 rows belonging to Dirichlet-fixed trace dofs are zeroed; their
    contributions are lifted into the right-hand side at assembly time.
    A22 is kept as each cell's diagonal blocks a22b (cells, m, s, s), one
    per (local facet, component), on the cell's leading trace ids
    tids[:, :m*s] in runs of s.  ``coupling`` holds cross-cell entries on
    the cell group (only the counterexample's normal-jump term produces
    them).
    """

    layout: BlockLayout
    a11: np.ndarray
    a21: np.ndarray
    tids: np.ndarray
    a22b: np.ndarray
    rhs_cell: np.ndarray
    rhs_trace: np.ndarray
    params: ProblemParams
    coupling: sp.csr_matrix | None = None
    context: ElementContext | None = None
    null_vectors: tuple = ()

    @property
    def n_trace(self) -> int:
        return self.layout.n_trace

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs_cell.ravel(), self.rhs_trace])

    def a22_triplets(self):
        nc, m, s = self.a22b.shape[:3]
        ids = self.tids[:, :m * s].reshape(nc * m, s)
        return _block_triplets(self.a22b.reshape(nc * m, s, s), ids, ids)

    def to_sparse(self) -> sp.csr_matrix:
        lay = self.layout
        nc, cs = self.a11.shape[:2]
        nct = lay.n_cell_total
        cell_ids = np.arange(nct, dtype=self.tids.dtype).reshape(nc, cs)
        r21, c21, v21 = _block_triplets(self.a21, self.tids, cell_ids)
        r22, c22, v22 = self.a22_triplets()
        parts = [_block_triplets(self.a11, cell_ids, cell_ids),
                 (r21 + nct, c21, v21), (c21, r21 + nct, v21), (r22 + nct, c22 + nct, v22)]
        del r21, c21, v21, r22, c22, v22  # parts holds the only references
        if self.coupling is not None:
            cc = self.coupling.tocoo()
            parts.append((cc.row, cc.col, cc.data))
        return _triplets_csr(parts, (lay.n_total,) * 2)

    def submatrix(self, *rows: str, cols=None) -> sp.csr_matrix:
        """The monolithic matrix restricted to the named row fields and
        column fields (the row fields when cols is None), each in
        BlockLayout.indices order."""
        r = self.layout.indices(*rows)
        return self.to_sparse()[r][:, r if cols is None else self.layout.indices(*cols)]


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


_FIELD_KINDS = {"u": "cell-vector", "p": "cell-scalar",
                "ubar": "facet-vector", "pbar": "facet-scalar"}


def _layout(mesh, spaces, k: int, cell: tuple, trace: tuple) -> BlockLayout:
    """The BlockLayout of the named cell and trace fields of ``spaces``;
    each must be a space of its field's kind on ``mesh``, of degree k (k - 1
    for p)."""
    for name in cell + trace:
        space, kind, degree = spaces[name], _FIELD_KINDS[name], k - (name == "p")
        if (space.kind, space.degree) != (kind, degree) or space.mesh is not mesh:
            raise ValueError(f"field {name!r} needs a {kind} space of degree {degree} "
                             "on the assembled mesh")
    return BlockLayout(mesh, tuple((f, spaces[f]) for f in cell),
                       tuple((f, spaces[f]) for f in trace))


def _trace_ids(lay: BlockLayout, fixed: dict):
    """Each cell's trace dofs: the free ids (cells, ntr) as int32, -1 where
    a dof is fixed, and the values of the fixed dofs, zero at free ones.
    ``fixed`` maps a trace field to its values in the field's full dof
    numbering (boundary facets included).  A cell's dofs run over the trace fields
    in layout order, each over (local facet, component, basis function)."""
    fids = lay.mesh.cell_facets
    ids, vals = [], []
    for name, spc in lay.trace_fields:
        full = spc.dofs(fids).reshape(fids.shape[0], -1)
        free = spc.full_to_free[full]
        off, _ = lay.trace_field_range(name)
        ids.append(np.where(free >= 0, free + off, -1))
        g = fixed.get(name)
        vals.append(np.zeros(full.shape) if g is None else np.where(free >= 0, 0.0, g[full]))
    return np.concatenate(ids, axis=1).astype(np.int32), np.concatenate(vals, axis=1)


def _block_system(lay, params, ctx, a11, a21=None, a22b=None, rhs_cell=None,
                  rhs_trace=None, fixed=None, coupling=None, null_vectors=()) -> BlockSystem:
    """The BlockSystem of every cell's blocks: a11 (cells, cs, cs), a21
    (cells, ntr, cs) on the cell's trace dofs in _trace_ids order (zero
    when None), and a22b (cells, m, s, s), the trace-trace block by its
    diagonal blocks, kept as BlockSystem.a22b (no blocks when None).  These
    cover the leading m*s local trace dofs, in runs of s (one local facet,
    one component) that couple only within a run; the trace dofs after
    them have no trace-trace entries.

    The Dirichlet values ``fixed`` are lifted into rhs_cell through the
    unmasked a21, whose rows of fixed dofs are then zeroed.  A run is all
    free or all fixed (boundary data fixes whole facets), so only a21
    lifts."""
    nc, cs = a11.shape[:2]
    tids, gloc = _trace_ids(lay, fixed or {})
    if a21 is None:
        a21 = np.zeros((nc, tids.shape[1], cs))
    if rhs_cell is None:
        rhs_cell = np.zeros((nc, cs))
    if fixed:
        rhs_cell -= (gloc[:, None, :] @ a21)[:, 0]
    a21[tids < 0] = 0.0
    return BlockSystem(
        layout=lay, a11=a11, a21=a21, tids=tids,
        a22b=np.empty((nc, 0, 0, 0)) if a22b is None else a22b, rhs_cell=rhs_cell,
        rhs_trace=np.zeros(lay.n_trace) if rhs_trace is None else rhs_trace,
        params=params, coupling=coupling, context=ctx,
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


def _blockdiag(blocks, out):
    """Write blocks (..., m, p, q) onto the m diagonal blocks of out
    (..., m*p, m*q) and return out; a single block (..., 1, p, q) goes onto
    all m.  The other blocks of out are left as they are, and out may be a
    strided view of a larger array."""
    p, q = blocks.shape[-2:]
    m = out.shape[-2] // p
    V = np.reshape(out, out.shape[:-2] + (m, p, m, q), copy=False)
    blocks = np.broadcast_to(blocks, out.shape[:-2] + (m, p, q))
    for l in range(m):
        V[..., l, :, l, :] = blocks[..., l, :, :]
    return out


def _block_triplets(blocks, rows, cols):
    """COO triplets (row ids, column ids, values) of per-cell blocks
    (B, m, n) placed at row ids (B, m) and column ids (B, n).  An entry is
    dropped when its row or column id is negative or its value is exactly
    0.0, so a structurally zero sub-block never enters a pattern."""
    keep = (rows[:, :, None] >= 0) & (cols[:, None, :] >= 0) & (blocks != 0)
    r = np.broadcast_to(rows[:, :, None], blocks.shape)[keep]
    c = np.broadcast_to(cols[:, None, :], blocks.shape)[keep]
    return r, c, blocks[keep]


def _triplets_csr(parts, shape) -> sp.csr_matrix:
    """One CSR matrix from a list of (rows, cols, values) triplets;
    repeated positions add up, and the pattern is every listed position.
    The list is consumed: each part is copied into preallocated id and
    value arrays (ids in the index type of the result, which coo_matrix
    then keeps as they are) and released before the next part is copied,
    so a part that only the list holds does not outlive its copy.  The
    result is canonical and holds exactly its nnz entries: summing
    duplicates leaves data and indices as views of longer buffers (one
    entry per listed position), so they are copied out, into memory maps
    of their own, and the buffers released.  In the C heap, the copies
    could sit above the freed buffers and keep their pages resident."""
    idx = np.int32 if max(shape) < 2**31 else np.int64
    n = sum(v.size for _, _, v in parts)
    rows, cols = np.empty(n, dtype=idx), np.empty(n, dtype=idx)
    vals = np.empty(n, dtype=np.result_type(*(v.dtype for _, _, v in parts)))
    start = 0
    for i, (r, c, v) in enumerate(parts):
        parts[i] = None
        end = start + v.size
        rows[start:end], cols[start:end], vals[start:end] = r, c, v
        start = end
    del r, c, v
    A = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    A.data, A.indices = (_trimmed(a) for a in (A.data, A.indices))
    return A


def _trimmed(a: np.ndarray) -> np.ndarray:
    """a, or a mapped copy of it when it is a view of a longer buffer."""
    if a.base is None or a.base.size == a.size:
        return a
    out = _mapped_zeros(a.shape, a.dtype)
    out[:] = a
    return out


def _normal_trace(base, nrm, scale, out, sign=1.0):
    """sign < fbar_m, v.n >, rows (l, m) and u columns (c, n), written into
    out (B, ntr, d*nbu), from the gathered blocks base[b, l] = sum_q w_q
    fbar_m phi_n (fu_normal); out may be a strided view of a larger array."""
    B, d1, nbf, nbu = base.shape
    np.multiply(base[:, :, :, None, :], (sign * nrm * scale[..., None])[:, :, None, :, None],
                out=np.reshape(out, (B, d1, nbf, nrm.shape[-1], nbu), copy=False))
    return out


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


def assemble_darcy(mesh, spaces, params: ProblemParams, f=None,
                   p_dirichlet=None) -> BlockSystem:
    """Hybrid mixed (BDM-type) Darcy scheme, symmetric storage.

    Stored rows: momentum negated, mass balance as written; the trace
    Schur complement of this operator is SPD.
    """
    k = params.k
    lay = _layout(mesh, spaces, k, ("u", "p"), ("pbar",))
    ctx = _context(mesh, k)
    fixed = {}
    if p_dirichlet is not None:
        fixed["pbar"] = interpolate_boundary(spaces["pbar"], p_dirichlet)

    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    nc, cs = mesh.n_cells, lay.cell_size
    xq = ctx.cell_points()
    wdet = ctx.cell_weights()
    D = _div_matrix(wdet, ctx.pgu, ctx.Jinv)
    a11 = np.zeros((nc, cs, cs))
    _blockdiag(_gemm(-wdet / _coef(params.xi, xq), ctx.uu)[:, None], a11[:, usl, usl])
    a11[:, usl, psl] = np.transpose(D, (0, 2, 1))
    a11[:, psl, usl] = D
    a11[:, psl, psl] = _gemm(wdet * _coef(params.gamma, xq), ctx.pp)

    _, nrm, scale, _ = ctx.facet_frame()
    a21 = np.zeros((nc, ctx.codes.shape[1] * ctx.nbf, cs))
    _normal_trace(ctx.fu_normal[ctx.codes], nrm, scale, a21[:, :, usl], sign=-1.0)

    rhs_cell = np.zeros((nc, cs))
    if f is not None:
        rhs_cell[:, psl] = (wdet * _coef(f, xq)) @ ctx.vals_p
    return _block_system(lay, params, ctx, a11, a21, rhs_cell=rhs_cell, fixed=fixed)


def assemble_darcy_inner(mesh, spaces, params: ProblemParams) -> BlockSystem:
    """Darcy preconditioner inner product: xi^-1 velocity mass plus the
    weighted pressure form gamma(p,q) + xi(grad p, grad q) + xi eta
    <h^-1 (p - pbar), (q - qbar)>."""
    k = params.k
    lay = _layout(mesh, spaces, k, ("u", "p"), ("pbar",))
    ctx = _context(mesh, k)
    eta = params.eta_for(mesh.dim)

    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    nc, cs = mesh.n_cells, lay.cell_size
    xq = ctx.cell_points()
    wdet = ctx.cell_weights()
    xi = _coef(params.xi, xq)
    _, _, scale, xf = ctx.facet_frame()
    wpen = ctx.facet_weights(scale) * (_coef(params.xi, xf) * eta / ctx.hK[:, None, None])

    pen, pen_bar, pen_bb = _penalty(ctx, wpen, "p")
    a11 = np.zeros((nc, cs, cs))
    _blockdiag(_gemm(wdet / xi, ctx.uu)[:, None], a11[:, usl, usl])
    a11[:, psl, psl] = (_gemm(wdet * _coef(params.gamma, xq), ctx.pp)
                        + _grad_grad(wdet * xi, ctx.gpgp, ctx.Jinv) + pen)
    a21 = np.zeros((nc, pen_bar.shape[1] * pen_bar.shape[2], cs))
    a21[:, :, psl] = pen_bar.reshape(nc, -1, ctx.nbp)
    return _block_system(lay, params, ctx, a11, a21, a22b=pen_bb)


def assemble_counterexample_inner(mesh, spaces, params: ProblemParams) -> BlockSystem:
    """The robust-before-reduction counterexample inner product.

    Velocity: xi^-1 mass + M^-1 div-div + xi^-1 <h_F^-1 [[u.n]],[[v.n]]>
    over interior facets (cross-cell coupling); pressure: M (p,q) and
    xi <h_K pbar, qbar> with no p-pbar coupling.
    """
    k = params.k
    lay = _layout(mesh, spaces, k, ("u", "p"), ("pbar",))
    M = params.big_m  # raises for callable coefficients
    xi = float(params.xi)
    ctx = _context(mesh, k)

    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    nc, cs = mesh.n_cells, lay.cell_size
    wdet = ctx.cell_weights()
    a11 = np.zeros((nc, cs, cs))
    _blockdiag(_gemm(wdet / xi, ctx.uu)[:, None], a11[:, usl, usl])
    a11[:, usl, usl] += _div_div(_grad_pairs(wdet / M, ctx.gugu, ctx.Jinv))
    a11[:, psl, psl] = _gemm(wdet * M, ctx.pp)

    _, _, scale, _ = ctx.facet_frame()
    wbar = ctx.facet_weights(scale) * (xi * ctx.hK[:, None, None])
    return _block_system(lay, params, ctx, a11, a22b=_gemm(wbar, ctx.ff),
                         coupling=_normal_jump_coupling(ctx, lay, 1.0 / xi))


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
    return _triplets_csr(triplets, (lay.n_cell_total,) * 2)


# ----------------------------------------------------------------------
# auxiliary HDG (elliptic) problem on (p, pbar)


def _aux_consistency(ctx, codes, w, nrm, Jinv):
    """Facet sums of w (grad q_i . n) q_j and w (grad q_j . n) fbar_m:
    ((B, nbp, nbp) summed over the facets, (B, d+1, nbf, nbp)).  The
    weights carry the conormal J^-1 n, one per gradient direction."""
    conormal = nrm @ Jinv.transpose(0, 2, 1)  # (B, d+1, d)
    wn = (conormal[..., None] * w[:, :, None, :]).reshape(w.shape[0], w.shape[1], -1)
    return _facet_gemm(codes, wn, ctx.fgpp).sum(axis=1), _facet_gemm(codes, wn, ctx.fgfp)


def assemble_aux_hdg(mesh, spaces, params: ProblemParams, f=None) -> BlockSystem:
    """Interior-penalty HDG form for -div(xi grad p) + gamma p on the
    pressure pair; symmetric, coercive for eta at the default values."""
    k = params.k
    lay = _layout(mesh, spaces, k, ("p",), ("pbar",))
    ctx = _context(mesh, k)
    eta = params.eta_for(mesh.dim)

    xq = ctx.cell_points()
    wdet = ctx.cell_weights()
    a11 = (_gemm(wdet * _coef(params.gamma, xq), ctx.pp)
           + _grad_grad(wdet * _coef(params.xi, xq), ctx.gpgp, ctx.Jinv))

    _, nrm, scale, xf = ctx.facet_frame()
    wcons = ctx.facet_weights(scale) * _coef(params.xi, xf)
    pen, pen_bar, pen_bb = _penalty(ctx, wcons * (eta / ctx.hK[:, None, None]), "p")
    cons, cons_bar = _aux_consistency(ctx, ctx.codes, wcons, nrm, ctx.Jinv)
    a11 += pen
    a11 -= cons + np.transpose(cons, (0, 2, 1))
    a21 = (cons_bar + pen_bar).reshape(mesh.n_cells, -1, ctx.nbp)

    rhs_cell = None if f is None else (wdet * _coef(f, xq)) @ ctx.vals_p
    return _block_system(lay, params, ctx, a11, a21, a22b=pen_bb, rhs_cell=rhs_cell)


# ----------------------------------------------------------------------
# Stokes


def _penalty(ctx, wpen, field):
    """The interior penalty <wpen (w - wbar), (v - vbar)> of one scalar
    field, the cell basis of ``field`` ("u", one velocity component, or
    "p") against the facet basis: the cell block summed over the facets
    (B, nb, nb), the trace-cell blocks negated (B, d+1, nbf, nb) and the
    trace-trace blocks (B, d+1, nbf, nbf)."""
    cell, cross = (ctx.fuu, ctx.ffu) if field == "u" else (ctx.fpp, ctx.ffp)
    return (_facet_gemm(ctx.codes, wpen, cell).sum(axis=1),
            -_facet_gemm(ctx.codes, wpen, cross), _gemm(wpen, ctx.ff))


def _penalty_blocks(ctx, wpen):
    """The velocity penalty nu eta <h^-1 (u - ubar), (v - vbar)>, _penalty
    once per component: (cell_uu, ubar_u, ubar_ubar), ubar rows (l, c, m),
    u columns (c, n), ubar_ubar by its (l, c) diagonal blocks."""
    d, B, nbf, nbu = ctx.mesh.dim, wpen.shape[0], ctx.nbf, ctx.nbu
    pen, pen_bar, pen_bb = _penalty(ctx, wpen, "u")
    uu = _blockdiag(pen[:, None], np.zeros((B, d * nbu, d * nbu)))
    cross = _blockdiag(pen_bar[:, :, None], np.zeros((B, d + 1, d * nbf, d * nbu)))
    return uu, cross.reshape(B, -1, d * nbu), np.repeat(pen_bb, d, axis=1)


def _ch_blocks(ctx, Y, nu, eta, zeta=0.0):
    """Element blocks of c_h (+ zeta div-div): returns (cell_uu, ubar_u,
    ubar_ubar diagonal blocks); Y holds the cell's gradient pairs
    (_grad_pairs)."""
    _, nrm, scale, _ = ctx.facet_frame()
    wcons = ctx.facet_weights(scale) * nu
    uu, cross, ubu = _penalty_blocks(ctx, wcons * (eta / ctx.hK[:, None, None]))
    uu += nu * _eps_eps(Y)
    if zeta:
        uu += zeta * _div_div(Y)

    # -< eps(u) n, v - vbar > - < eps(v) n, u - ubar > consistency terms
    cons, cons_bar = _ch_consistency(ctx, ctx.codes, wcons, nrm, ctx.Jinv)
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


def assemble_stokes(mesh, spaces, params: ProblemParams, f=None,
                    u_dirichlet=None) -> BlockSystem:
    """HDG Stokes scheme: c_h + b_h(v, p-pair) + b_h(u, q-pair); symmetric
    indefinite as written.  The constant-pressure pair spans the kernel."""
    k = params.k
    lay = _layout(mesh, spaces, k, ("u", "p"), ("ubar", "pbar"))
    nu = float(params.nu)
    ctx = _context(mesh, k)
    eta = params.eta_for(mesh.dim)

    fixed = {}
    if u_dirichlet is not None:
        fixed["ubar"] = interpolate_boundary(spaces["ubar"], u_dirichlet)

    d = mesh.dim
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    nc, cs = mesh.n_cells, lay.cell_size
    wdet = ctx.cell_weights()
    uu, cross, ubu = _ch_blocks(ctx, _grad_pairs(wdet, ctx.gugu, ctx.Jinv), nu, eta)
    D = _div_matrix(wdet, ctx.pgu, ctx.Jinv)
    a11 = np.zeros((nc, cs, cs))
    a11[:, usl, usl] = uu
    a11[:, usl, psl] = -np.transpose(D, (0, 2, 1))
    a11[:, psl, usl] = -D

    _, nrm, scale, _ = ctx.facet_frame()
    n_ub = cross.shape[1]
    a21 = np.zeros((nc, n_ub + ctx.codes.shape[1] * ctx.nbf, cs))
    a21[:, :n_ub, usl] = cross
    _normal_trace(ctx.fu_normal[ctx.codes], nrm, scale, a21[:, n_ub:, usl])

    rhs_cell = None
    if f is not None:
        xq = ctx.cell_points()
        wf = wdet[:, :, None] * np.asarray(f(xq.reshape(-1, d)), dtype=float).reshape(nc, -1, d)
        rhs_cell = np.zeros((nc, cs))
        rhs_cell[:, usl] = _gemm(wf.transpose(0, 2, 1), ctx.vals_u).reshape(nc, -1)
    rhs_trace = None if u_dirichlet is None else _boundary_flux_load(ctx, lay, u_dirichlet)
    return _block_system(lay, params, ctx, a11, a21, a22b=ubu, rhs_cell=rhs_cell,
                         rhs_trace=rhs_trace, fixed=fixed,
                         null_vectors=(constant_pressure_vector(lay),))


def _boundary_flux_load(ctx, lay, g):
    """The trace right-hand side <qbar, g.n> over the boundary facets, on
    the pbar rows: it makes the mass-balance trace rows consistent with
    u = g on the boundary."""
    mesh = ctx.mesh
    bf = np.nonzero(mesh.boundary_flags)[0]  # stored normals point outward here
    d = mesh.dim
    gv = np.asarray(g(ctx.Xf[bf].reshape(-1, d)), dtype=float).reshape(bf.size, -1, d)
    gn = (gv @ mesh.facet_normals[bf][:, :, None])[:, :, 0]
    load = (ctx.fscale[bf, None] * ctx.frule.weights[None, :] * gn) @ ctx.fv
    pbar = dict(lay.trace_fields)["pbar"]
    off, _ = lay.trace_field_range("pbar")
    out = np.zeros(lay.n_trace)
    out[off + pbar.full_to_free[pbar.dofs(bf)]] = load
    return out


def assemble_stokes_inner(mesh, spaces, params: ProblemParams,
                          hatted: bool = False) -> BlockSystem:
    """Stokes preconditioner inner product (zeta >= 0 variants).

    hatted=False: velocity block nu(eps, eps) + nu eta <h^-1 (u-ubar),(v-vbar)>
    + zeta div-div; hatted=True: the full c_h + zeta div-div.  Pressure block
    nu^-1 (p, q) + nu^-1 eta^-1 <h_K pbar, qbar>, diagonal across p/pbar.
    """
    k = params.k
    lay = _layout(mesh, spaces, k, ("u", "p"), ("ubar", "pbar"))
    nu, zeta = float(params.nu), float(params.zeta)
    ctx = _context(mesh, k)
    eta = params.eta_for(mesh.dim)

    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    nc, cs = mesh.n_cells, lay.cell_size
    wdet = ctx.cell_weights()
    Y = _grad_pairs(wdet, ctx.gugu, ctx.Jinv)
    _, _, scale, _ = ctx.facet_frame()
    if hatted:
        uu, cross, ubu = _ch_blocks(ctx, Y, nu, eta, zeta=zeta)
    else:
        wpen = ctx.facet_weights(scale) * (nu * eta / ctx.hK[:, None, None])
        uu, cross, ubu = _penalty_blocks(ctx, wpen)
        uu += nu * _eps_eps(Y)
        if zeta:
            uu += zeta * _div_div(Y)

    a11 = np.zeros((nc, cs, cs))
    a11[:, usl, usl] = uu
    a11[:, psl, psl] = _gemm(wdet / nu, ctx.pp)
    wbar = ctx.facet_weights(scale) * (ctx.hK[:, None, None] / (nu * eta))
    pbb = _gemm(wbar, ctx.ff)  # (cells, d+1, nbf, nbf)
    n_ub = cross.shape[1]
    a21 = np.zeros((nc, n_ub + pbb.shape[1] * pbb.shape[2], cs))
    a21[:, :n_ub, usl] = cross
    return _block_system(lay, params, ctx, a11, a21,
                         a22b=np.concatenate([ubu, pbb], axis=1))


def assemble_stokes_ch(mesh, spaces, params: ProblemParams) -> BlockSystem:
    """The c_h velocity form alone on (u; ubar): probe support for the
    condensed-velocity estimates."""
    k = params.k
    lay = _layout(mesh, spaces, k, ("u",), ("ubar",))
    ctx = _context(mesh, k)
    Y = _grad_pairs(ctx.cell_weights(), ctx.gugu, ctx.Jinv)
    uu, cross, ubu = _ch_blocks(ctx, Y, float(params.nu), params.eta_for(mesh.dim))
    return _block_system(lay, params, ctx, uu, cross, a22b=ubu)


# ----------------------------------------------------------------------
# helpers shared with other modules


def constant_trace_vector(space) -> np.ndarray:
    """Free-dof coefficients of the constant function 1 on a scalar facet
    space (orthonormal basis: sqrt of the reference measure on the leading
    dof of each facet)."""
    mesh = space.mesh
    full = np.zeros(space.ndofs)
    full[space.dofs(np.arange(mesh.n_facets))[:, 0]] = np.sqrt(reference_measure(mesh.dim - 1))
    return full[space.free_to_full]


def constant_pressure_vector(layout: BlockLayout) -> np.ndarray:
    """Monolithic coefficients of (u, p, ubar, pbar) = (0, 1, 0, 1): the
    Stokes kernel."""
    mesh = layout.mesh
    x = np.zeros(layout.n_total)
    x[layout.indices("p").reshape(mesh.n_cells, -1)[:, 0]] = np.sqrt(reference_measure(mesh.dim))
    x[layout.indices("pbar")] = constant_trace_vector(dict(layout.trace_fields)["pbar"])
    return x
