"""Shared builders for the test suite: cached assemblies and solves."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from condensa import krylov
from condensa.assembly import (ProblemParams, assemble_darcy, assemble_darcy_inner,
                               assemble_stokes, assemble_stokes_inner,
                               darcy_spaces, stokes_spaces)
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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
