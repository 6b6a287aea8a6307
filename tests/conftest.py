"""Shared builders and oracles for the test suite: cached assemblies and
solves, and the test-only readers of what the package computes or writes."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from condensa import krylov
from condensa.assembly import (BlockSystem, ProblemParams, _coef, assemble_darcy,
                               assemble_darcy_inner, assemble_stokes, assemble_stokes_inner,
                               darcy_spaces, stokes_spaces)
from condensa.bench import ResultRow
from condensa.condense import eliminate
from condensa.elements import facet_barycentric
from condensa.manufactured import manufactured_rhs
from condensa.mesh import Mesh, unit_box_mesh

_cache = {}


def cached(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def darcy_problem(dim=2, n=4, xi=1.0, gamma=1.0, k=2, with_data=True):
    """(mesh, spaces, params, system, inner) for the Darcy scheme."""
    def build():
        params = ProblemParams(k=k, xi=xi, gamma=gamma)
        mesh = unit_box_mesh(dim, n)
        spaces = darcy_spaces(mesh, k)
        case = manufactured_rhs("darcy", dim, params) if with_data else None
        system = assemble_darcy(
            mesh, spaces, params,
            f=case.f if case else None,
            p_dirichlet=case.dirichlet if case else None)
        inner = assemble_darcy_inner(mesh, spaces, params)
        return mesh, spaces, params, system, inner
    return cached(("darcy", dim, n, xi, gamma, k, with_data), build)


def stokes_problem(dim=2, n=4, nu=1.0, zeta=0.0, hatted=False, k=2, with_data=True):
    def build():
        params = ProblemParams(k=k, nu=nu, zeta=zeta)
        mesh = unit_box_mesh(dim, n)
        spaces = stokes_spaces(mesh, k)
        case = manufactured_rhs("stokes", dim, params) if with_data else None
        system = assemble_stokes(
            mesh, spaces, params,
            f=case.f if case else None,
            u_dirichlet=case.dirichlet if case else None)
        inner = assemble_stokes_inner(mesh, spaces, params, hatted=hatted)
        return mesh, spaces, params, system, inner
    return cached(("stokes", dim, n, nu, zeta, hatted, k, with_data), build)


def sparse_modes(monkeypatch) -> list:
    """Send every generalized_eigs call to ARPACK (DENSE_MAX = 0) and
    return the list that records the mode of each sparse solve."""
    modes = []
    real = krylov._sparse_ends

    def spy(A, B, mode, n_drop):
        modes.append(mode)
        return real(A, B, mode, n_drop)

    monkeypatch.setattr(krylov, "DENSE_MAX", 0)
    monkeypatch.setattr(krylov, "_sparse_ends", spy)
    return modes


def factor_sym_indef(S):
    """Sparse LU with partial pivoting of a symmetric indefinite matrix:
    the monolithic oracle that condensed solves are checked against."""
    return spla.splu(sp.csc_matrix(S))


def superlu_spd(S, permc_spec="NATURAL"):
    """SuperLU factor of an SPD matrix that never pivots off the diagonal,
    in the given order by default: the oracle SupernodalCholesky is
    checked against, and the fill it is compared with."""
    return spla.splu(sp.csc_matrix(S), diag_pivot_thresh=0.0, permc_spec=permc_spec,
                     options=dict(SymmetricMode=True))


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement: x4 cells in 2D, x8 in 3D (Bey's scheme).
    Its 3D mesh is not a Kuhn mesh, which the kernel tests need."""
    verts = list(map(tuple, mesh.vertices))
    edge_mid: dict[tuple, int] = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        idx = edge_mid.get(key)
        if idx is None:
            idx = len(verts)
            edge_mid[key] = idx
            verts.append(tuple(0.5 * (mesh.vertices[a] + mesh.vertices[b])))
        return idx

    cells = []
    if mesh.dim == 2:
        for v0, v1, v2 in mesh.cells:
            m01, m12, m02 = mid(v0, v1), mid(v1, v2), mid(v0, v2)
            cells += [(v0, m01, m02), (m01, v1, m12), (m02, m12, v2), (m01, m12, m02)]
    else:
        for v0, v1, v2, v3 in mesh.cells:
            m01, m02, m03 = mid(v0, v1), mid(v0, v2), mid(v0, v3)
            m12, m13, m23 = mid(v1, v2), mid(v1, v3), mid(v2, v3)
            cells += [
                (v0, m01, m02, m03),
                (v1, m01, m12, m13),
                (v2, m02, m12, m23),
                (v3, m03, m13, m23),
                # interior octahedron cut along the m02-m13 diagonal
                (m01, m02, m03, m13),
                (m01, m02, m12, m13),
                (m02, m03, m13, m23),
                (m02, m12, m13, m23),
            ]
    return Mesh(mesh.dim, np.array(verts, dtype=float), np.array(cells, dtype=np.int64))


def facet_global_points(mesh, facet: int, rule) -> np.ndarray:
    """Quadrature points of a facet in global coordinates, from the
    facet's sorted vertex list."""
    return facet_barycentric(rule) @ mesh.vertices[mesh.facets[facet]]


def facet_trace_table(mesh, basis, cell: int, local_facet: int, rule):
    """Cell-basis values at the quadrature points of one of the cell's
    facets, by mapping each point back through J^-1: the per-cell oracle of
    the arrangement-code tables.  Returns (global_points, values); values
    has shape (nq, n_basis)."""
    fids = mesh.cell_facets[cell]
    if not 0 <= local_facet < len(fids):
        raise IndexError(f"local facet {local_facet} out of range")
    pts = facet_global_points(mesh, fids[local_facet], rule)
    v0 = mesh.vertices[mesh.cells[cell, 0]]
    J = (mesh.vertices[mesh.cells[cell, 1:]] - v0).T
    ref = np.linalg.solve(J, (pts - v0).T).T
    return pts, basis.eval(ref)


def _all_triplets(blocks, rows, cols):
    """COO triplets of every block entry with nonnegative ids, zeros kept."""
    keep = np.broadcast_to((rows[:, :, None] >= 0) & (cols[:, None, :] >= 0), blocks.shape)
    r = np.broadcast_to(rows[:, :, None], blocks.shape)[keep]
    c = np.broadcast_to(cols[:, None, :], blocks.shape)[keep]
    return r, c, blocks[keep]


def sparse_addition_oracle(system, spd=None):
    """K, or S when spd is given, built by adding CSR matrices: the a11
    and a21 blocks in one COO, then A22 and the coupling, or -A21 X, added
    as separate sparse matrices.  The values oracle of the one-COO
    construction; its pattern depends on which sums cancel to 0.0."""
    nct = system.a11.shape[0] * system.a11.shape[1]
    ntr = system.n_trace
    nc, m, s = system.a22b.shape[:3]
    ids = system.tids[:, :m * s].reshape(nc * m, s)
    r22, c22, v22 = _all_triplets(system.a22b.reshape(nc * m, s, s), ids, ids)
    if spd is not None:
        X, _ = eliminate(system, spd)
        r, c, v = _all_triplets(-(system.a21 @ X), system.tids, system.tids)
        return (sp.coo_matrix((v22, (r22, c22)), shape=(ntr, ntr)).tocsr()
                + sp.coo_matrix((v, (r, c)), shape=(ntr, ntr)).tocsr())
    n = nct + ntr
    cell_ids = np.arange(nct).reshape(system.a11.shape[:2])
    r11, c11, v11 = _all_triplets(system.a11, cell_ids, cell_ids)
    r21, c21, v21 = _all_triplets(system.a21, system.tids, cell_ids)
    K = sp.coo_matrix((np.concatenate([v11, v21, v21]),
                       (np.concatenate([r11, r21 + nct, c21]),
                        np.concatenate([c11, c21, r21 + nct]))), shape=(n, n)).tocsr()
    K += sp.coo_matrix((v22, (r22 + nct, c22 + nct)), shape=(n, n)).tocsr()
    if system.coupling is not None:
        cc = system.coupling.tocoo()
        K += sp.coo_matrix((cc.data, (cc.row, cc.col)), shape=(n, n)).tocsr()
    return K


def entity_dofs(space, entity: int) -> np.ndarray:
    """Full dof ids of one cell or facet of a space (component-major)."""
    base = entity * space.ncomp * space.nb
    return np.arange(base, base + space.ncomp * space.nb)


def cell_dofs(layout, cell: int) -> np.ndarray:
    """Monolithic indices of one cell's dofs."""
    return np.arange(cell * layout.cell_size, (cell + 1) * layout.cell_size)


def global_index(layout, group: str, name: str, entity: int, local: int) -> int:
    """Monolithic index of one dof, from the layout's field offsets: the
    per-dof oracle of BlockLayout.indices.  Trace dofs must be free."""
    if group == "cell":
        return entity * layout.cell_size + layout.cell_field_slice(name).start + local
    off, _ = layout.trace_field_range(name)
    space = dict(layout.trace_fields)[name]
    free = space.full_to_free[entity * space.ncomp * space.nb + local]
    if free < 0:
        raise ValueError("dof is fixed by a boundary condition")
    return layout.n_cell_total + off + free


def trace_values_local(system, cell: int, xbar: np.ndarray) -> np.ndarray:
    """Local trace coefficients of one cell: free entries from xbar, fixed
    entries zero (their Dirichlet values already sit in rhs_cell)."""
    tids = system.tids[cell]
    vals = np.zeros(tids.shape)
    vals[tids >= 0] = xbar[tids[tids >= 0]]
    return vals


def local_solve(system, cell: int, trace_values, source=None) -> np.ndarray:
    """Cell coefficients for given local trace data and local load vector,
    one dense solve of the cell block (the local solvers l_.(xbar) + (.)^f;
    linear in both arguments)."""
    rhs = np.zeros(system.a11.shape[1]) if source is None else np.asarray(source, dtype=float).copy()
    rhs -= system.a21[cell].T @ np.asarray(trace_values, dtype=float)
    return np.linalg.solve(system.a11[cell], rhs)


def read_mesh_text(path) -> Mesh:
    """A mesh read back from `write_mesh_text` output."""
    verts, cells = [], []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tag, *rest = line.split()
            if tag == "vertex":
                verts.append([float(x) for x in rest])
            elif tag == "cell":
                cells.append([int(x) for x in rest])
            else:
                raise ValueError(f"unknown record {tag!r}")
    if not verts or not cells:
        raise ValueError("mesh file has no vertices or no cells")
    verts = np.array(verts, dtype=float)
    return Mesh(verts.shape[1], verts, np.array(cells, dtype=np.int64))


def json_rows(text: str) -> list[ResultRow]:
    """The rows of a `--format json` output."""
    return [ResultRow(**d) for d in json.loads(text)]


def facet_values(ctx, which: str = "u") -> np.ndarray:
    """Cell-basis values at each local facet's quadrature points,
    gathered by arrangement code: (cells, d+1, qf, nb)."""
    return (ctx.fvals_u if which == "u" else ctx.fvals_p)[ctx.codes]


# Mesh-dependent norms evaluated by direct quadrature from coefficients.
#
# This is a second, matrix-free code path for the same quadratic forms the
# inner-product assemblies produce; the two are cross-checked in the test
# suite.  Norms returned (squared values internally, square roots out):
#
#   v        : ||eps(v)||^2 + eta ||h^-1/2 (v - vbar)||^2     (velocity pair)
#   q0       : ||q||^2 + ||h^1/2 qbar||^2
#   qp       : ||grad q||^2 + eta ||h^-1/2 (q - qbar)||^2
#   hu / hp  : ||h^-1/2 (bar - m_K(bar))||^2 on the trace alone
#   weighted : v_D, q_D, v_S, q_S, and the X_h energy of the system

def trace_full_values(system: BlockSystem, name: str, xbar: np.ndarray) -> np.ndarray:
    """Full facet coefficient array of one trace field.

    Free entries come from the coefficient vector; fixed (Dirichlet)
    entries are zero, as norms of coefficient increments need.
    """
    lay = system.layout
    spc = dict(lay.trace_fields)[name]
    off, end = lay.trace_field_range(name)
    full = np.zeros(spc.ndofs)
    full[spc.free_to_full] = xbar[off:end]
    return full


def evaluate_norms(system: BlockSystem, x: np.ndarray) -> dict:
    """Norms of a monolithic coefficient vector (free dofs).

    Returns a dict of *norms* (not squares): the plain mesh-dependent
    quantities listed above that the system's fields support, plus the
    parameter-weighted energies matching the system's parameters (Stokes
    ones when the layout has a velocity trace ubar, Darcy ones otherwise,
    each only where the fields it reads exist; tnorm_X needs both).
    """
    lay = system.layout
    ctx = system.context
    mesh = ctx.mesh
    params = system.params
    eta = params.eta_for(mesh.dim)
    cells, xbar = lay.split(np.asarray(x, dtype=float))

    wdet = ctx.cell_weights()
    xq = ctx.cell_points()
    fids, _, scale, xf = ctx.facet_frame()
    wfs = ctx.facet_weights(scale)  # (nc, d+1, nqf)
    hK = ctx.hK
    out: dict[str, float] = {}
    names = {n for n, _ in lay.cell_fields} | {n for n, _ in lay.trace_fields}

    if "u" in names:
        U = cells[:, lay.cell_field_slice("u")].reshape(mesh.n_cells, mesh.dim, ctx.nbu)
        G = _field_grads(ctx, U, ctx.gref_u)
        eps = 0.5 * (G + np.transpose(G, (0, 1, 3, 2)))
        out["eps_u_sq"] = float(np.einsum("bq,bqck->", wdet, eps**2))
        out["div_u_sq"] = float(np.einsum("bq,bq->", wdet,
                                          np.einsum("bqcc->bq", G) ** 2))
        uv = (U @ ctx.vals_u.T).transpose(0, 2, 1)
        out["u_l2_sq"] = float(np.einsum("bq,bqc->", wdet, uv**2))
        u_f = facet_values(ctx, "u") @ U.transpose(0, 2, 1)[:, None]
        if "ubar" in names:
            ub_full = trace_full_values(system, "ubar", xbar)
            spc = dict(lay.trace_fields)["ubar"]
            UB = ub_full.reshape(mesh.n_facets, mesh.dim, spc.nb)[fids]
            ub_f = np.einsum("blcm,qm->blqc", UB, ctx.fv)
            jump = u_f - ub_f
            out["jump_u_sq"] = float(np.einsum(
                "blq,blqc->", wfs / hK[:, None, None], jump**2))
            mK = (np.einsum("blq,blqc->bc", wfs, ub_f)
                  / np.einsum("blq->b", wfs)[:, None])
            dev = ub_f - mK[:, None, None, :]
            out["hu_sq"] = float(np.einsum(
                "blq,blqc->", wfs / hK[:, None, None], dev**2))

    if "p" in names:
        P = cells[:, lay.cell_field_slice("p")]
        pv = P @ ctx.vals_p.T
        gpv = _field_grads(ctx, P[:, None, :], ctx.gref_p)[:, :, 0]
        out["p_l2_sq"] = float(np.einsum("bq,bq->", wdet, pv**2))
        out["grad_p_sq"] = float(np.einsum("bq,bqk->", wdet, gpv**2))
        if "pbar" in names:
            pb_full = trace_full_values(system, "pbar", xbar)
            spc = dict(lay.trace_fields)["pbar"]
            PB = pb_full.reshape(mesh.n_facets, spc.nb)[fids]
            pb_f = np.einsum("blm,qm->blq", PB, ctx.fv)
            p_f = (facet_values(ctx, "p") @ P[:, None, :, None])[..., 0]
            jump = p_f - pb_f
            out["jump_p_sq"] = float(np.einsum(
                "blq,blq->", wfs / hK[:, None, None], jump**2))
            out["pbar_h_sq"] = float(np.einsum(
                "blq,blq->", wfs * hK[:, None, None], pb_f**2))
            mK = np.einsum("blq,blq->b", wfs, pb_f) / np.einsum("blq->b", wfs)
            dev = pb_f - mK[:, None, None]
            out["hp_sq"] = float(np.einsum(
                "blq,blq->", wfs / hK[:, None, None], dev**2))

    # plain mesh-dependent norms
    if "eps_u_sq" in out and "jump_u_sq" in out:
        out["tnorm_v"] = np.sqrt(out["eps_u_sq"] + eta * out["jump_u_sq"])
    if "p_l2_sq" in out and "pbar_h_sq" in out:
        out["tnorm_0p"] = np.sqrt(out["p_l2_sq"] + out["pbar_h_sq"])
    if "grad_p_sq" in out and "jump_p_sq" in out:
        out["tnorm_p"] = np.sqrt(out["grad_p_sq"] + eta * out["jump_p_sq"])
    if "hu_sq" in out:
        out["tnorm_hu"] = np.sqrt(out["hu_sq"])
    if "hp_sq" in out:
        out["tnorm_hp"] = np.sqrt(out["hp_sq"])

    # parameter-weighted energies (Stokes ones with a velocity trace), each
    # where the fields it reads exist
    weighted = {}
    if "ubar" not in names:
        if "u" in names:
            weighted["v_D"] = float(np.einsum("bq,bqc->", wdet / _coef(params.xi, xq), uv**2))
        if "jump_p_sq" in out:
            xif = _coef(params.xi, xf)
            weighted["q_D"] = (
                float(np.einsum("bq,bq->", wdet * _coef(params.gamma, xq), pv**2))
                + float(np.einsum("bq,bqk->", wdet * _coef(params.xi, xq), gpv**2))
                + eta * float(np.einsum(
                    "blq,blq->", wfs * xif / hK[:, None, None], (p_f - pb_f) ** 2)))
    else:
        nu = float(params.nu)
        if "jump_u_sq" in out:
            weighted["v_S"] = nu * (out["eps_u_sq"] + eta * out["jump_u_sq"])
        if "pbar_h_sq" in out:
            weighted["q_S"] = out["p_l2_sq"] / nu + out["pbar_h_sq"] / (nu * eta)
    for key, val in weighted.items():
        out[f"tnorm_{key}"] = np.sqrt(val)
    if len(weighted) == 2:
        out["tnorm_X"] = np.sqrt(sum(weighted.values()))
    return out


def _field_grads(ctx, U, gref):
    """Physical gradients at the cell quadrature points of fields with
    coefficients U (cells, components, nb): (cells, q, components, d)."""
    B, c, n = U.shape
    q, _, d = gref.shape
    G = (U.reshape(B * c, n) @ gref.transpose(1, 0, 2).reshape(n, q * d)).reshape(B, c * q, d)
    return (G @ ctx.Jinv).reshape(B, c, q, d).transpose(0, 2, 1, 3)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
