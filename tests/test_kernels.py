"""Reference-table element kernels against per-point einsum oracles.

Each assembly kernel sums over quadrature points with one GEMM against a
reference table and applies J^-1 per cell afterwards; facet kernels
gather cell-basis values by arrangement code.  The oracles below are the
direct formulas: physical gradients at every point, then one einsum over
the points.  They run on random Jacobians, normals and codes, with
weights from a constant and from a callable coefficient.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condensa.assembly import (ElementContext, ProblemParams, _aux_consistency,
                               _ch_consistency, _coef, _div_div, _div_matrix, _eps_eps,
                               _facet_gemm, _gemm, _grad_grad, _grad_pairs,
                               _normal_jump_coupling, _normal_trace, assemble_counterexample_inner,
                               darcy_spaces)
from condensa.elements import arrangement_codes
from condensa.mesh import Mesh, refine, unit_box_mesh

from conftest import facet_trace_table

# ----------------------------------------------------------------------
# per-point oracles


def phys_grads(gref, Jinv):
    """Physical gradients at every point: (B, q, n, d)."""
    return np.einsum("qne,bek->bqnk", gref, Jinv)


def scalar_mass(wq, vals):
    return np.einsum("bq,qi,qj->bij", wq, vals, vals)


def grad_grad(wq, g):
    return np.einsum("bq,bqik,bqjk->bij", wq, g, g)


def div_matrix(wq, vals_p, gu):
    D = np.einsum("bq,qj,bqnc->bjcn", wq, vals_p, gu)
    return D.reshape(D.shape[0], D.shape[1], -1)


def div_div(wq, gu):
    DD = np.einsum("bq,bqnc,bqme->bcnem", wq, gu, gu)
    B, d, nb = DD.shape[0], DD.shape[1], DD.shape[2]
    return DD.reshape(B, d * nb, d * nb)


def eps_eps(wq, gu):
    d, nb = gu.shape[3], gu.shape[2]
    dot = np.einsum("bq,bqnk,bqmk->bnm", wq, gu, gu)
    E = 0.5 * np.einsum("bq,bqne,bqmc->bcnem", wq, gu, gu)
    for c in range(d):
        E[:, c, :, c, :] += 0.5 * dot
    return E.reshape(E.shape[0], d * nb, d * nb)


def facet_scalar_mass(wlq, V):
    return np.einsum("blq,blqi,blqj->bij", wlq, V, V)


def facet_cross(wlq, fv, V):
    """(B, d+1, nbf, nb) facet values x cell values."""
    return np.einsum("blq,qm,blqj->blmj", wlq, fv, V)


def facet_bar_blocks(wlq, fv):
    return np.einsum("blq,qm,qn->blmn", wlq, fv, fv)


def normal_trace(wf, fv, Vu, nrm, scale):
    base = np.einsum("q,qm,blqn->blmn", wf, fv, Vu)
    T = np.einsum("blmn,blc,bl->blmcn", base, nrm, scale)
    return T.reshape(T.shape[0], -1, T.shape[3] * T.shape[4])


def eps_normal(Gu, nrm):
    """(eps(phi_n e_c) n)_a at facet points: (B, l, q, c, n, a)."""
    gn = np.einsum("blqnk,blk->blqn", Gu, nrm)
    d = Gu.shape[-1]
    EN = 0.5 * np.einsum("blc,blqna->blqcna", nrm, Gu)
    for c in range(d):
        EN[:, :, :, c, :, c] += 0.5 * gn
    return EN


def aux_consistency(wcons, Gp, Vp, fv, nrm):
    gn = np.einsum("blqjk,blk->blqj", Gp, nrm)
    return (np.einsum("blq,blqi,blqj->bij", wcons, gn, Vp),
            np.einsum("blq,qm,blqj->blmj", wcons, fv, gn))


def ch_consistency(wcons, Gu, Vu, fv, nrm):
    EN = eps_normal(Gu, nrm)
    B, d, nb = EN.shape[0], EN.shape[3], EN.shape[4]
    cons = np.einsum("blq,blqcne,blqm->bcnem", wcons, EN, Vu).reshape(B, d * nb, d * nb)
    cross = np.einsum("blq,blqcne,qm->blemcn", wcons, EN, fv).reshape(B, -1, d * nb)
    return cons, cross


# ----------------------------------------------------------------------
# random geometry and weights


def _xi(x):
    return 1.0 + 0.5 * np.sin(3.0 * x[..., 0]) * np.cos(2.0 * x[..., -1])


def shuffled_mesh(dim, n, seed):
    """unit_box_mesh with every cell's vertex list in random order."""
    base = unit_box_mesh(dim, n)
    rng = np.random.default_rng(seed)
    cells = np.array([c[rng.permutation(dim + 1)] for c in base.cells])
    return Mesh(dim, base.vertices, cells)


def _context(dim):
    """Tables over every arrangement code a mesh can produce."""
    ctx = ElementContext(shuffled_mesh(dim, 2, 0), 2)
    assert ctx.fvals_u.shape[0] == len(permutation_codes(dim))
    return ctx


def permutation_codes(d):
    """Codes of the d! * (d+1) injective maps of a facet's vertices into a
    cell's: the codes a mesh can produce."""
    return np.array([np.dot(p, (d + 1) ** np.arange(d))
                     for p in permutations(range(d + 1), d)])


_CTX = {d: _context(d) for d in (2, 3)}


def random_cells(ctx, rng, nc, callable_coef):
    """Random affine cells: (Jinv, cell weights, facet weights, normals,
    scales, codes)."""
    d = ctx.mesh.dim
    J = np.eye(d) + 0.4 * rng.standard_normal((nc, d, d))
    v0 = rng.standard_normal((nc, d))
    xq = v0[:, None, :] + ctx.rule.points @ J.transpose(0, 2, 1)
    xf = rng.random((nc, d + 1, ctx.frule.n_points, d))
    coef = _xi if callable_coef else 0.7
    wq = ctx.rule.weights * np.abs(np.linalg.det(J))[:, None] * _coef(coef, xq)
    scale = rng.random((nc, d + 1)) + 0.5
    wf = scale[:, :, None] * ctx.frule.weights * _coef(coef, xf)
    nrm = rng.standard_normal((nc, d + 1, d))
    nrm /= np.linalg.norm(nrm, axis=2, keepdims=True)
    codes = rng.integers(0, ctx.fvals_u.shape[0], size=(nc, d + 1))
    return np.linalg.inv(J), wq, wf, nrm, scale, codes


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


_property = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_cases = dict(dim=st.sampled_from([2, 3]), nc=st.integers(1, 6),
              seed=st.integers(0, 2**31 - 1), callable_coef=st.booleans())


@_property
@given(**_cases)
def test_cell_kernels_match_per_point_oracles(dim, nc, seed, callable_coef):
    ctx = _CTX[dim]
    Jinv, wq, *_ = random_cells(ctx, np.random.default_rng(seed), nc, callable_coef)
    gu, gp = phys_grads(ctx.gref_u, Jinv), phys_grads(ctx.gref_p, Jinv)
    assert _rel(_gemm(wq, ctx.uu), scalar_mass(wq, ctx.vals_u)) < 1e-13
    assert _rel(_gemm(wq, ctx.pp), scalar_mass(wq, ctx.vals_p)) < 1e-13
    assert _rel(_grad_grad(wq, ctx.gpgp, Jinv), grad_grad(wq, gp)) < 1e-13
    assert _rel(_div_matrix(wq, ctx.pgu, Jinv), div_matrix(wq, ctx.vals_p, gu)) < 1e-13
    Y = _grad_pairs(wq, ctx.gugu, Jinv)
    assert _rel(_div_div(Y), div_div(wq, gu)) < 1e-13
    assert _rel(_eps_eps(Y), eps_eps(wq, gu)) < 1e-13


@_property
@given(**_cases)
def test_facet_kernels_match_per_point_oracles(dim, nc, seed, callable_coef):
    ctx = _CTX[dim]
    Jinv, _, wf, nrm, scale, codes = random_cells(
        ctx, np.random.default_rng(seed), nc, callable_coef)
    Vu, Vp = ctx.fvals_u[codes], ctx.fvals_p[codes]
    Gu = np.einsum("blqne,bek->blqnk", ctx.fgrad_u[codes], Jinv)
    Gp = np.einsum("blqne,bek->blqnk", ctx.fgrad_p[codes], Jinv)
    fv = ctx.fv

    assert _rel(_facet_gemm(codes, wf, ctx.fuu).sum(axis=1), facet_scalar_mass(wf, Vu)) < 1e-13
    assert _rel(_facet_gemm(codes, wf, ctx.fpp).sum(axis=1), facet_scalar_mass(wf, Vp)) < 1e-13
    assert _rel(_facet_gemm(codes, wf, ctx.ffu), facet_cross(wf, fv, Vu)) < 1e-13
    assert _rel(_facet_gemm(codes, wf, ctx.ffp), facet_cross(wf, fv, Vp)) < 1e-13
    assert _rel(_gemm(wf, ctx.ff), facet_bar_blocks(wf, fv)) < 1e-13
    assert _rel(_normal_trace(ctx.fu_normal[codes], nrm, scale),
                normal_trace(ctx.frule.weights, fv, Vu, nrm, scale)) < 1e-13
    for got, want in zip(_aux_consistency(ctx, codes, wf, nrm, Jinv),
                         aux_consistency(wf, Gp, Vp, fv, nrm)):
        assert _rel(got, want) < 1e-13
    for got, want in zip(_ch_consistency(ctx, codes, wf, nrm, Jinv),
                         ch_consistency(wf, Gu, Vu, fv, nrm)):
        assert _rel(got, want) < 1e-13


# ----------------------------------------------------------------------
# arrangement codes against the per-cell trace oracle


MESHES = {
    "shuffled-2d": lambda: shuffled_mesh(2, 3, 1),
    "shuffled-3d": lambda: shuffled_mesh(3, 2, 2),
    "refined-3d": lambda: refine(unit_box_mesh(3, 1)),
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_arrangement_gather_matches_trace_table(name):
    mesh = MESHES[name]()
    ctx = ElementContext(mesh, 2)
    codes = arrangement_codes(mesh)
    assert np.isin(codes, permutation_codes(mesh.dim)).all()
    assert len(np.unique(codes)) > 1
    for which, basis in (("u", ctx.basis_u), ("p", ctx.basis_p)):
        gathered = ctx.facet_values(slice(None), which)
        for c in range(mesh.n_cells):
            for l in range(mesh.dim + 1):
                _, want = facet_trace_table(mesh, basis, c, l, ctx.frule)
                assert np.abs(gathered[c, l] - want).max() < 1e-12 * np.abs(want).max()


def normal_jump_oracle(ctx, lay, coef):
    """The counterexample's normal-jump coupling with both sides' trace
    values mapped back through J^-1 per facet point."""
    mesh = ctx.mesh
    interior = np.nonzero(~mesh.boundary_flags)[0]
    nbu, d = ctx.nbu, mesh.dim
    wq = ctx.frule.weights
    cells_ab = mesh.facet_cells[interior]
    N = mesh.facet_normals[interior]
    wF = coef * ctx.fscale[interior] / mesh.facet_diameters[interior]
    P = []
    for side in range(2):
        cidx = cells_ab[:, side]
        xr = np.einsum("bke,bqe->bqk", ctx.Jinv[cidx], ctx.Xf[interior] - ctx.v0[cidx, None, :])
        V = ctx.basis_u.eval(xr.reshape(-1, d)).reshape(interior.size, wq.size, nbu)
        sgn = np.where(mesh.facet_cells[interior, 0] == cidx, 1.0, -1.0)
        P.append(np.einsum("f,fc,fqn->fqcn", sgn, N, V).reshape(interior.size, wq.size, -1))
    uidx = lay.indices("u").reshape(mesh.n_cells, d * nbu)
    n = lay.n_cell_total
    out = np.zeros((n, n))
    for a in range(2):
        for b in range(2):
            blk = np.einsum("f,q,fqi,fqj->fij", wF, wq, P[a], P[b])
            for f in range(interior.size):
                out[np.ix_(uidx[cells_ab[f, a]], uidx[cells_ab[f, b]])] += blk[f]
    return out


@pytest.mark.parametrize("name", sorted(MESHES))
def test_normal_jump_coupling_matches_oracle(name):
    mesh = MESHES[name]()
    system = assemble_counterexample_inner(mesh, darcy_spaces(mesh, 2),
                                           ProblemParams(k=2, xi=0.3, gamma=2.0))
    got = _normal_jump_coupling(system.context, system.layout, 1.0 / 0.3).toarray()
    want = normal_jump_oracle(system.context, system.layout, 1.0 / 0.3)
    assert _rel(got, want) < 1e-13
