"""Discrete spaces: cell-wise discontinuous and facet (trace) spaces.

Cell spaces never share dofs between cells; facet spaces share each
facet's dofs between its (at most two) adjacent cells.  A space numbers
its dofs by (entity, component, basis function), and FunctionSpace.dofs
is the one place that spells this out.  Spaces built with
``zero_boundary=True`` exclude the boundary-facet dofs from the free set;
their values are supplied by interpolation of Dirichlet data and lifted
into the right-hand side during assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import facet_barycentric, pk_basis, pk_dim, simplex_quadrature

__all__ = ["FunctionSpace", "BlockLayout", "build_space", "interpolate_boundary"]

_KINDS = ("cell-scalar", "cell-vector", "facet-scalar", "facet-vector")


@dataclass(frozen=True)
class FunctionSpace:
    mesh: object
    kind: str
    degree: int
    ncomp: int
    nb: int  # scalar basis functions per entity
    ndofs: int
    zero_boundary: bool
    full_to_free: np.ndarray = field(init=False)
    free_to_full: np.ndarray = field(init=False)

    def __post_init__(self):
        free = np.ones(self.ndofs, dtype=bool)
        if self.zero_boundary:
            free[self.dofs(np.flatnonzero(self.mesh.boundary_flags))] = False
        free_to_full = np.flatnonzero(free)
        full_to_free = np.full(self.ndofs, -1, dtype=np.int64)
        full_to_free[free_to_full] = np.arange(free_to_full.size)
        object.__setattr__(self, "full_to_free", full_to_free)
        object.__setattr__(self, "free_to_full", free_to_full)

    @property
    def n_free(self) -> int:
        return self.free_to_full.size

    @property
    def is_facet(self) -> bool:
        return self.kind.startswith("facet")

    def dofs(self, entities) -> np.ndarray:
        """Full dof ids of the given cells (cell kinds) or facets (facet
        kinds): entities.shape + (ncomp*nb,), by (component, basis function)."""
        n = self.ncomp * self.nb
        return np.asarray(entities)[..., None] * n + np.arange(n)


def build_space(mesh, kind: str, degree: int, zero_boundary: bool = False) -> FunctionSpace:
    """Build V_h/Q_h (cell kinds) or the trace spaces (facet kinds)."""
    if kind not in _KINDS:
        raise ValueError(f"unknown space kind {kind!r}")
    if degree < 0 or (kind == "facet-vector" and degree < 1):
        raise ValueError(f"unsupported degree {degree} for {kind}")
    ncomp = mesh.dim if kind.endswith("vector") else 1
    if kind.startswith("cell"):
        if zero_boundary:
            raise ValueError("cell spaces carry no boundary trace dofs")
        nb, n_entities = pk_dim(mesh.dim, degree), mesh.n_cells
    else:
        nb, n_entities = pk_dim(mesh.dim - 1, degree), mesh.n_facets
    return FunctionSpace(mesh, kind, degree, ncomp, nb, n_entities * ncomp * nb, zero_boundary)


def interpolate_boundary(space: FunctionSpace, g) -> np.ndarray:
    """Facet-local L2 projection of boundary data onto P_k(F), per boundary facet.

    Returns a full-length dof array, zero away from the boundary.  ``g``
    maps an (npts, dim) array to values: (npts,) for scalar spaces or
    (npts, ncomp) for vector spaces.
    """
    if not space.is_facet:
        raise ValueError("boundary interpolation needs a facet space")
    mesh = space.mesh
    rule = simplex_quadrature(mesh.dim - 1, 2 * space.degree + 2)
    lam = facet_barycentric(rule)
    basis = pk_basis(mesh.dim - 1, space.degree)
    fvals = basis.eval(rule.points)  # (nq, nb), orthonormal w.r.t. rule
    out = np.zeros(space.ndofs)
    bfacets = np.nonzero(mesh.boundary_flags)[0]
    if bfacets.size == 0:
        return out
    pts = np.einsum("qv,fvd->fqd", lam, mesh.vertices[mesh.facets[bfacets]])
    gv = np.asarray(g(pts.reshape(-1, mesh.dim)), dtype=float)
    gv = gv.reshape(bfacets.size, rule.n_points, space.ncomp)
    # orthonormal reference basis: the facet mass solve reduces to the
    # weighted sum (the affine scale factor cancels between mass and load)
    coef = np.einsum("q,fqc,qm->fcm", rule.weights, gv, fvals)
    out[space.dofs(bfacets)] = coef.reshape(bfacets.size, -1)
    return out


@dataclass(frozen=True)
class BlockLayout:
    """Monolithic dof layout: per-cell dof block, then free trace dofs.

    cell_fields/trace_spaces fix the interleaving: within a cell the fields
    appear in order (e.g. velocity then pressure); the trace group
    concatenates each facet space's free dofs.
    """

    mesh: object
    cell_fields: tuple  # ((name, FunctionSpace), ...)
    trace_fields: tuple  # ((name, FunctionSpace), ...)

    @property
    def cell_size(self) -> int:
        return sum(sp.ncomp * sp.nb for _, sp in self.cell_fields)

    @property
    def n_cell_total(self) -> int:
        return self.mesh.n_cells * self.cell_size

    @property
    def n_trace(self) -> int:
        return sum(sp.n_free for _, sp in self.trace_fields)

    @property
    def n_total(self) -> int:
        return self.n_cell_total + self.n_trace

    def cell_field_slice(self, name: str) -> slice:
        off = 0
        for fname, sp in self.cell_fields:
            size = sp.ncomp * sp.nb
            if fname == name:
                return slice(off, off + size)
            off += size
        raise KeyError(name)

    def trace_field_range(self, name: str) -> tuple[int, int]:
        off = 0
        for fname, sp in self.trace_fields:
            if fname == name:
                return off, off + sp.n_free
            off += sp.n_free
        raise KeyError(name)

    def indices(self, *names: str) -> np.ndarray:
        """Monolithic indices of the named cell and trace fields,
        concatenated in argument order; a cell field's are cell-major."""
        cell_names = {fname for fname, _ in self.cell_fields}
        parts = []
        for name in names:
            if name in cell_names:
                sl = self.cell_field_slice(name)
                parts.append((np.arange(self.mesh.n_cells)[:, None] * self.cell_size
                              + np.arange(sl.start, sl.stop)[None, :]).ravel())
            else:
                off, end = self.trace_field_range(name)
                parts.append(self.n_cell_total + np.arange(off, end))
        return np.concatenate(parts)

    def split(self, x: np.ndarray):
        """Split a monolithic vector into (cells (nc, cell_size), trace)."""
        nct = self.n_cell_total
        return x[:nct].reshape(self.mesh.n_cells, self.cell_size), x[nct:]
