"""Element and global assembly of the Darcy/Stokes schemes and inner products.

Every bilinear form is integrated with collapsed Gauss rules of order
2k+2 (exact for the polynomial integrands, approximate only for
manufactured right-hand sides).  Spatially varying coefficients are
evaluated pointwise at quadrature nodes.

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

from .elements import pk_basis, reference_measure, simplex_quadrature
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


class ElementContext:
    """Batched geometry and reference tables for one (mesh, degree) pair."""

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

        verts, cells = mesh.vertices, mesh.cells
        self.v0 = verts[cells[:, 0]]
        J = np.stack([verts[cells[:, i + 1]] - self.v0 for i in range(d)], axis=2)
        self.J = J
        self.Jinv = np.linalg.inv(J)
        self.detJa = np.abs(np.linalg.det(J))
        self.hK = mesh.diameters

        # global facet quadrature points, canonical facet parameterization
        t = self.frule.points
        lam = np.concatenate([(1.0 - t.sum(axis=1))[:, None], t], axis=1)
        self.Xf = np.einsum("qv,fvd->fqd", lam, verts[mesh.facets])
        self.fscale = mesh.facet_areas / reference_measure(d - 1)

    # -- chunked tables ------------------------------------------------
    def chunks(self, max_cells: int = _CHUNK):
        nc = self.mesh.n_cells
        for lo in range(0, nc, max_cells):
            yield slice(lo, min(lo + max_cells, nc))

    def cell_points(self, sl) -> np.ndarray:
        return np.einsum("qe,bde->bqd", self.rule.points, self.J[sl]) + self.v0[sl, None, :]

    def phys_grads(self, sl, gref) -> np.ndarray:
        return np.einsum("qne,bek->bqnk", gref, self.Jinv[sl])

    def facet_frame(self, sl):
        """Per (cell, local facet): facet ids, outward normals, scales, points."""
        mesh = self.mesh
        fids = mesh.cell_facets[sl]
        signs = mesh.cell_facet_signs[sl].astype(float)
        nrm = mesh.facet_normals[fids] * signs[..., None]
        scale = self.fscale[fids]
        xf = self.Xf[fids]  # (B, d+1, nqf, d)
        return fids, nrm, scale, xf

    def facet_cell_tables(self, sl, xf, grads: bool = False, which: str = "u"):
        """Cell-basis values (and physical gradients) at facet points."""
        rel = xf - self.v0[sl, None, None, :]
        xr = np.einsum("bke,blqe->blqk", self.Jinv[sl], rel)
        basis = self.basis_u if which == "u" else self.basis_p
        flat = xr.reshape(-1, self.mesh.dim)
        V = basis.eval(flat).reshape(xr.shape[:3] + (basis.n_basis,))
        if not grads:
            return V, None
        G = basis.eval_grad(flat).reshape(xr.shape[:3] + (basis.n_basis, self.mesh.dim))
        G = np.einsum("blqne,bek->blqnk", G, self.Jinv[sl])
        return V, G


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

    def add(self, sl, a11e=None, a21e=None, a22e=None, rhs_celle=None):
        tids, gloc = self.tids[sl], self.gloc[sl]
        free = tids >= 0
        if a11e is not None:
            self.a11[sl] += a11e
        if rhs_celle is not None:
            self.rhs_cell[sl] += rhs_celle
        if a21e is not None:
            self.rhs_cell[sl] -= np.einsum("btc,bt->bc", a21e, gloc)
            a21m = np.where(free[:, :, None], a21e, 0.0)
            self.a21[sl] += a21m
        if a22e is not None:
            lift = np.einsum("bts,bs->bt", a22e, gloc)
            np.add.at(self.rhs_trace, tids[free], -lift[free])
            r, c, v = _block_triplets(a22e, tids, tids)
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
# einsum kernels


def _scalar_mass(wq, vals):
    return np.einsum("bq,qi,qj->bij", wq, vals, vals)


def _grad_grad(wq, g):
    return np.einsum("bq,bqik,bqjk->bij", wq, g, g)


def _div_matrix(wq, vals_p, gu):
    """(q_j, div v_(c,n)) -> (B, nbp, d*nbu), u columns component-major."""
    D = np.einsum("bq,qj,bqnc->bjcn", wq, vals_p, gu)
    B, nbp = D.shape[0], D.shape[1]
    return D.reshape(B, nbp, -1)


def _div_div(wq, gu):
    DD = np.einsum("bq,bqnc,bqme->bcnem", wq, gu, gu)
    B, d, nb = DD.shape[0], DD.shape[1], DD.shape[2]
    return DD.reshape(B, d * nb, d * nb)


def _eps_eps(wq, gu):
    d, nb = gu.shape[3], gu.shape[2]
    dot = np.einsum("bq,bqnk,bqmk->bnm", wq, gu, gu)
    E = 0.5 * np.einsum("bq,bqne,bqmc->bcnem", wq, gu, gu)
    for c in range(d):
        E[:, c, :, c, :] += 0.5 * dot
    return E.reshape(E.shape[0], d * nb, d * nb)


def _facet_scalar_mass(wlq, V):
    return np.einsum("blq,blqi,blqj->bij", wlq, V, V)


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


def _facet_cross_scalar(wlq, fv, V):
    """-< p, fbar > rows (l, m), cols p_j: (B, (d+1)*nbf, nbp) WITHOUT sign."""
    C = np.einsum("blq,qm,blqj->blmj", wlq, fv, V)
    return C.reshape(C.shape[0], -1, C.shape[3])


def _facet_bar_blocks(wlq, fv):
    """Per-local-facet fbar x fbar blocks (B, d+1, nbf, nbf)."""
    return np.einsum("blq,qm,qn->blmn", wlq, fv, fv)


def _normal_trace(wf, fv, Vu, nrm, scale):
    """< fbar_m, v.n > rows (l,m), u cols (c,n): (B, ntr, d*nbu)."""
    base = np.einsum("q,qm,blqn->blmn", wf, fv, Vu)
    T = np.einsum("blmn,blc,bl->blmcn", base, nrm, scale)
    B = T.shape[0]
    return T.reshape(B, -1, T.shape[3] * T.shape[4])


def _eps_normal(Gu, nrm):
    """(eps(phi_n e_c) nhat)_a at facet points: (B, l, q, c, n, a)."""
    gn = np.einsum("blqnk,blk->blqn", Gu, nrm)
    B, d1, nqf, nb, d = Gu.shape
    EN = 0.5 * np.einsum("blc,blqna->blqcna", nrm, Gu)
    for c in range(d):
        EN[:, :, :, c, :, c] += 0.5 * gn
    return EN


# ----------------------------------------------------------------------
# Darcy


def _darcy_layout(mesh, spaces):
    return BlockLayout(mesh, (("u", spaces["u"]), ("p", spaces["p"])),
                       (("pbar", spaces["pbar"]),))


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

    d, nbu, nbp = mesh.dim, ctx.nbu, ctx.nbp
    du = d * nbu
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    for sl in ctx.chunks():
        xq = ctx.cell_points(sl)
        wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None]
        gu = ctx.phys_grads(sl, ctx.gref_u)
        w_ixi = wdet / _coef(params.xi, xq)
        w_gam = wdet * _coef(params.gamma, xq)

        Mu = _blockdiag(_components(_scalar_mass(w_ixi, ctx.vals_u)[:, None], d))
        D = _div_matrix(wdet, ctx.vals_p, gu)
        Mp = _scalar_mass(w_gam, ctx.vals_p)

        cs = lay.cell_size
        a11e = np.zeros((xq.shape[0], cs, cs))
        a11e[:, usl, usl] = -Mu
        a11e[:, usl, psl] = np.transpose(D, (0, 2, 1))
        a11e[:, psl, usl] = D
        a11e[:, psl, psl] = Mp

        fids, nrm, scale, xf = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, fixed)
        Vu, _ = ctx.facet_cell_tables(sl, xf, which="u")
        T = _normal_trace(ctx.frule.weights, ctx.fv, Vu, nrm, scale)
        a21e = np.zeros((xq.shape[0], T.shape[1], cs))
        a21e[:, :, usl] = -T

        rhs_celle = None
        if f is not None:
            wf_ = wdet * _coef(f, xq)
            rhs_celle = np.zeros((xq.shape[0], cs))
            rhs_celle[:, psl] = np.einsum("bq,qj->bj", wf_, ctx.vals_p)
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

    d = mesh.dim
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    for sl in ctx.chunks():
        xq = ctx.cell_points(sl)
        wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None]
        gp = ctx.phys_grads(sl, ctx.gref_p)
        w_ixi = wdet / _coef(params.xi, xq)
        w_gam = wdet * _coef(params.gamma, xq)
        w_xi = wdet * _coef(params.xi, xq)

        cs = lay.cell_size
        a11e = np.zeros((xq.shape[0], cs, cs))
        a11e[:, usl, usl] = _blockdiag(_components(_scalar_mass(w_ixi, ctx.vals_u)[:, None], d))
        a11e[:, psl, psl] = _scalar_mass(w_gam, ctx.vals_p) + _grad_grad(w_xi, gp)

        fids, nrm, scale, xf = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, {})
        Vp, _ = ctx.facet_cell_tables(sl, xf, which="p")
        wpen = (ctx.frule.weights[None, None, :] * scale[:, :, None]
                * _coef(params.xi, xf) * eta / ctx.hK[sl, None, None])
        a11e[:, psl, psl] += _facet_scalar_mass(wpen, Vp)
        cross = _facet_cross_scalar(wpen, ctx.fv, Vp)
        a21e = np.zeros((xq.shape[0], cross.shape[1], cs))
        a21e[:, :, psl] = -cross
        a22e = _blockdiag(_facet_bar_blocks(wpen, ctx.fv))
        acc.add(sl, a11e=a11e, a21e=a21e, a22e=a22e)
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

    d = mesh.dim
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    for sl in ctx.chunks():
        xq = ctx.cell_points(sl)
        wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None]
        gu = ctx.phys_grads(sl, ctx.gref_u)

        cs = lay.cell_size
        a11e = np.zeros((xq.shape[0], cs, cs))
        Mu = _blockdiag(_components(_scalar_mass(wdet / xi, ctx.vals_u)[:, None], d))
        a11e[:, usl, usl] = Mu + _div_div(wdet / M, gu)
        a11e[:, psl, psl] = _scalar_mass(wdet * M, ctx.vals_p)

        fids, nrm, scale, xf = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, {})
        wbar = (ctx.frule.weights[None, None, :] * scale[:, :, None]
                * xi * ctx.hK[sl, None, None])
        a22e = _blockdiag(_facet_bar_blocks(wbar, ctx.fv))
        acc.add(sl, a11e=a11e, a22e=a22e)

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
    wq = ctx.frule.weights
    cells_ab = mesh.facet_cells[interior]
    N = mesh.facet_normals[interior]
    wF = coef * ctx.fscale[interior] / mesh.facet_diameters[interior]
    # normal-component trace tables for both sides
    P = []
    for side in range(2):
        cidx = cells_ab[:, side]
        rel = ctx.Xf[interior] - ctx.v0[cidx, None, :]
        xr = np.einsum("bke,bqe->bqk", ctx.Jinv[cidx], rel)
        V = ctx.basis_u.eval(xr.reshape(-1, d)).reshape(interior.size, wq.size, nbu)
        sgn = np.where(mesh.facet_cells[interior, 0] == cidx, 1.0, -1.0)
        Pn = np.einsum("f,fc,fqn->fqcn", sgn, N, V).reshape(interior.size, wq.size, d * nbu)
        P.append(Pn)
    uidx = lay.indices("u").reshape(mesh.n_cells, d * nbu)
    triplets = [_block_triplets(np.einsum("f,q,fqi,fqj->fij", wF, wq, P[a], P[b]),
                                uidx[cells_ab[:, a]], uidx[cells_ab[:, b]])
                for a in range(2) for b in range(2)]
    rows, cols, vals = (np.concatenate(t) for t in zip(*triplets))
    n = lay.n_cell_total
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


# ----------------------------------------------------------------------
# auxiliary HDG (elliptic) problem on (p, pbar)


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
        wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None]
        gp = ctx.phys_grads(sl, ctx.gref_p)
        w_gam = wdet * _coef(params.gamma, xq)
        w_xi = wdet * _coef(params.xi, xq)

        a11e = _scalar_mass(w_gam, ctx.vals_p) + _grad_grad(w_xi, gp)

        fids, nrm, scale, xf = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, {})
        Vp, Gp = ctx.facet_cell_tables(sl, xf, grads=True, which="p")
        xif = _coef(params.xi, xf)
        wpen = (ctx.frule.weights[None, None, :] * scale[:, :, None]
                * xif * eta / ctx.hK[sl, None, None])
        wcons = ctx.frule.weights[None, None, :] * scale[:, :, None] * xif
        a11e += _facet_scalar_mass(wpen, Vp)
        gn = np.einsum("blqjk,blk->blqj", Gp, nrm)
        cons = np.einsum("blq,blqi,blqj->bij", wcons, gn, Vp)
        a11e -= cons + np.transpose(cons, (0, 2, 1))

        a21e = -_facet_cross_scalar(wpen, ctx.fv, Vp)
        a21e += np.einsum("blq,qm,blqj->blmj", wcons, ctx.fv, gn).reshape(a21e.shape)
        a22e = _blockdiag(_facet_bar_blocks(wpen, ctx.fv))

        rhs_celle = None
        if f is not None:
            rhs_celle = np.einsum("bq,qj->bj", wdet * _coef(f, xq), ctx.vals_p)
        acc.add(sl, a11e=a11e, a21e=a21e, a22e=a22e, rhs_celle=rhs_celle)
    return acc.finish()


# ----------------------------------------------------------------------
# Stokes


def _stokes_layout(mesh, spaces):
    return BlockLayout(mesh, (("u", spaces["u"]), ("p", spaces["p"])),
                       (("ubar", spaces["ubar"]), ("pbar", spaces["pbar"])))


def _ch_blocks(ctx, sl, nu, eta, zeta=0.0):
    """Element blocks of c_h (+ zeta div-div): returns (cell_uu, ubar_u, ubar_ubar)."""
    d = ctx.mesh.dim
    wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None] * nu
    gu = ctx.phys_grads(sl, ctx.gref_u)
    uu = _eps_eps(wdet, gu)
    if zeta:
        uu += _div_div(wdet * (zeta / nu), gu)

    fids, nrm, scale, xf = ctx.facet_frame(sl)
    Vu, Gu = ctx.facet_cell_tables(sl, xf, grads=True, which="u")
    wpen = (ctx.frule.weights[None, None, :] * scale[:, :, None]
            * nu * eta / ctx.hK[sl, None, None])
    wcons = ctx.frule.weights[None, None, :] * scale[:, :, None] * nu

    uu += _blockdiag(_components(_facet_scalar_mass(wpen, Vu)[:, None], d))
    EN = _eps_normal(Gu, nrm)
    nb = ctx.nbu
    B = Vu.shape[0]
    cons = np.einsum("blq,blqcne,blqm->bcnem", wcons, EN, Vu).reshape(B, d * nb, d * nb)
    uu -= cons + np.transpose(cons, (0, 2, 1))

    # ubar rows x u columns
    pen_cross = np.einsum("blq,qm,blqn->blmn", wpen, ctx.fv, Vu)
    cross = np.zeros((B, (d + 1) * d * ctx.nbf, d * nb))
    pc = np.einsum("blmn,xy->blxmyn", pen_cross, np.eye(d))  # (b,l,c,m,e,n)
    cross -= pc.reshape(B, -1, d * nb)
    en_cross = np.einsum("blq,blqcne,qm->blemcn", wcons, EN, ctx.fv)
    cross += en_cross.reshape(B, -1, d * nb)

    ubu = _blockdiag(_components(_facet_bar_blocks(wpen, ctx.fv), d))
    return uu, cross, ubu


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

    d, nbu, nbf = mesh.dim, ctx.nbu, ctx.nbf
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    n_ub = (d + 1) * d * nbf
    for sl in ctx.chunks():
        xq = ctx.cell_points(sl)
        wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None]
        gu = ctx.phys_grads(sl, ctx.gref_u)
        uu, cross, ubu = _ch_blocks(ctx, sl, nu, eta)
        D = _div_matrix(wdet, ctx.vals_p, gu)

        cs = lay.cell_size
        B = xq.shape[0]
        a11e = np.zeros((B, cs, cs))
        a11e[:, usl, usl] = uu
        a11e[:, usl, psl] = -np.transpose(D, (0, 2, 1))
        a11e[:, psl, usl] = -D

        fids, nrm, scale, xf = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, fixed)
        Vu, _ = ctx.facet_cell_tables(sl, xf, which="u")
        T = _normal_trace(ctx.frule.weights, ctx.fv, Vu, nrm, scale)

        ntr = acc.a21.shape[1]
        a21e = np.zeros((B, ntr, cs))
        a21e[:, :n_ub, usl] = cross
        a21e[:, n_ub:, usl] = T
        a22e = np.zeros((B, ntr, ntr))
        a22e[:, :n_ub, :n_ub] = ubu

        rhs_celle = None
        if f is not None:
            fx = np.asarray(f(xq.reshape(-1, d)), dtype=float).reshape(B, -1, d)
            rhs_celle = np.zeros((B, cs))
            rhs_celle[:, usl] = np.einsum("bq,bqc,qn->bcn", wdet, fx, ctx.vals_u).reshape(B, -1)
        acc.add(sl, a11e=a11e, a21e=a21e, a22e=a22e, rhs_celle=rhs_celle)

        if u_dirichlet is not None:
            # consistency of the mass-balance trace rows with u = g on the
            # boundary: <qbar, g.n> on boundary facets
            bmask = mesh.boundary_flags[fids]
            if bmask.any():
                bb, ll = np.nonzero(bmask)
                gv = np.asarray(u_dirichlet(xf[bb, ll].reshape(-1, d)),
                                dtype=float).reshape(bb.size, -1, d)
                gn = np.einsum("fqc,fc->fq", gv, nrm[bb, ll])
                load = np.einsum("f,q,fq,qm->fm",
                                 scale[bb, ll], ctx.frule.weights, gn, ctx.fv)
                pb_ids = acc.tids[sl][bb[:, None], n_ub + ll[:, None] * ctx.nbf
                                      + np.arange(ctx.nbf)[None, :]]
                np.add.at(acc.rhs_trace, pb_ids, load)

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

    d, nbu, nbf = mesh.dim, ctx.nbu, ctx.nbf
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    n_ub = (d + 1) * d * nbf
    for sl in ctx.chunks():
        xq = ctx.cell_points(sl)
        wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None]
        gu = ctx.phys_grads(sl, ctx.gref_u)
        B = xq.shape[0]

        if hatted:
            uu, cross, ubu = _ch_blocks(ctx, sl, nu, eta, zeta=zeta)
            fids, nrm, scale, xf = ctx.facet_frame(sl)
        else:
            uu = _eps_eps(wdet * nu, gu)
            if zeta:
                uu += _div_div(wdet * zeta, gu)
            fids, nrm, scale, xf = ctx.facet_frame(sl)
            Vu, _ = ctx.facet_cell_tables(sl, xf, which="u")
            wpen = (ctx.frule.weights[None, None, :] * scale[:, :, None]
                    * nu * eta / ctx.hK[sl, None, None])
            uu += _blockdiag(_components(_facet_scalar_mass(wpen, Vu)[:, None], d))
            pen_cross = np.einsum("blq,qm,blqn->blmn", wpen, ctx.fv, Vu)
            cross = -np.einsum("blmn,xy->blxmyn", pen_cross, np.eye(d)).reshape(B, -1, d * nbu)
            ubu = _blockdiag(_components(_facet_bar_blocks(wpen, ctx.fv), d))

        cs = lay.cell_size
        a11e = np.zeros((B, cs, cs))
        a11e[:, usl, usl] = uu
        a11e[:, psl, psl] = _scalar_mass(wdet / nu, ctx.vals_p)

        acc.set_trace_ids(sl, fids, {})
        ntr = acc.a21.shape[1]
        a21e = np.zeros((B, ntr, cs))
        a21e[:, :n_ub, usl] = cross
        a22e = np.zeros((B, ntr, ntr))
        a22e[:, :n_ub, :n_ub] = ubu
        wbar = (ctx.frule.weights[None, None, :] * scale[:, :, None]
                * ctx.hK[sl, None, None] / (nu * eta))
        a22e[:, n_ub:, n_ub:] = _blockdiag(_facet_bar_blocks(wbar, ctx.fv))
        acc.add(sl, a11e=a11e, a21e=a21e, a22e=a22e)
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
        uu, cross, ubu = _ch_blocks(ctx, sl, nu, eta)
        fids, _, _, _ = ctx.facet_frame(sl)
        acc.set_trace_ids(sl, fids, {})
        acc.add(sl, a11e=uu, a21e=cross, a22e=ubu)
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
