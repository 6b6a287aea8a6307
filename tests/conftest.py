"""Shared builders for the test suite: cached assemblies and solves."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from condensa import krylov
from condensa.assembly import (ProblemParams, assemble_darcy, assemble_darcy_inner,
                               assemble_stokes, assemble_stokes_inner,
                               darcy_spaces, stokes_spaces)
from condensa.elements import facet_global_points
from condensa.manufactured import manufactured_rhs
from condensa.mesh import unit_box_mesh

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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
