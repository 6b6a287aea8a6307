"""Structured simplicial meshes of box domains with full facet connectivity.

Meshes are immutable after construction.  Cells are positively oriented
simplices; every facet stores one canonical unit normal (outward with
respect to its first adjacent cell) and per-cell orientation signs, so jump
and trace terms have a single source of truth.  Facets are numbered by
nested dissection of the cells, so the facet-major trace operators come
out in a fill-reducing elimination order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

__all__ = [
    "Mesh",
    "unit_box_mesh",
    "write_mesh_text",
]

_VOLUME_FACTOR = {2: 0.5, 3: 1.0 / 6.0}


@dataclass(frozen=True, eq=False)
class Mesh:
    """Simplicial mesh with derived facet connectivity and geometry.

    Attributes
    ----------
    dim : 2 or 3
    vertices : (nv, dim) float array
    cells : (nc, dim+1) int array, positively oriented
    facets : (nf, dim) int array of sorted vertex ids, in nested-dissection
        order
    cell_facets : (nc, dim+1) facet id of each local facet; local facet l
        is the one opposite local vertex l
    cell_facet_signs : (nc, dim+1) +1 if the stored facet normal points out
        of this cell, else -1
    facet_cells : (nf, 2) adjacent cell ids, second entry -1 on the boundary
    boundary_flags : (nf,) bool
    facet_normals : (nf, dim) unit normals, outward for facet_cells[f, 0]
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    facets: np.ndarray = field(init=False)
    cell_facets: np.ndarray = field(init=False)
    cell_facet_signs: np.ndarray = field(init=False)
    facet_cells: np.ndarray = field(init=False)
    boundary_flags: np.ndarray = field(init=False)
    facet_normals: np.ndarray = field(init=False)
    facet_areas: np.ndarray = field(init=False)
    facet_diameters: np.ndarray = field(init=False)
    volumes: np.ndarray = field(init=False)
    diameters: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        verts = np.asarray(self.vertices, dtype=float)
        cells = np.asarray(self.cells, dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != self.dim:
            raise ValueError("vertices must have shape (nv, dim)")
        if cells.ndim != 2 or cells.shape[1] != self.dim + 1:
            raise ValueError("cells must have shape (nc, dim+1)")
        cells, det = _orient_positively(verts, cells)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
        _build_connectivity(self)
        _build_geometry(self, det)

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_facets(self) -> int:
        return self.facets.shape[0]


def _orient_positively(verts, cells):
    """The cells, positively oriented, and the determinant of each.  A
    cell is degenerate when |det| <= 1e-10 times the product of its edge
    lengths from vertex 0, a bound that does not depend on the mesh scale."""
    cells = cells.copy()
    e = verts[cells[:, 1:]] - verts[cells[:, :1]]
    det = np.linalg.det(e)
    flip = det < 0
    if flip.any():
        cells[flip, -1], cells[flip, -2] = cells[flip, -2].copy(), cells[flip, -1].copy()
        e = verts[cells[:, 1:]] - verts[cells[:, :1]]
        det = np.linalg.det(e)
    flat = np.abs(det) <= 1e-10 * np.prod(np.linalg.norm(e, axis=2), axis=1)
    if flat.any():
        raise ValueError(f"degenerate cell {int(np.argmax(flat))}: zero volume")
    return cells, det


def _build_connectivity(mesh: Mesh):
    dim, cells = mesh.dim, mesh.cells
    nc, nv = cells.shape[0], mesh.vertices.shape[0]
    if nv ** dim >= 2 ** 63:
        raise ValueError(f"{nv} vertices are too many to key {dim}D facets in int64")
    # local facet l = vertices of the cell without local vertex l
    local = np.array([[j for j in range(dim + 1) if j != l] for l in range(dim + 1)])
    keys = np.sort(cells[:, local], axis=2).reshape(-1, dim)
    code = keys[:, 0]
    for j in range(1, dim):
        code = code * nv + keys[:, j]
    # the keys are cell-major, so a stable sort lists each facet's cells in
    # ascending order and facets in lexicographic vertex order
    order = np.argsort(code, kind="stable")
    sc = code[order]
    head = np.r_[True, sc[1:] != sc[:-1]]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(head) - 1
    first = np.nonzero(head)[0]
    counts = np.diff(np.r_[first, order.size])
    if counts.max() > 2:
        key = tuple(int(v) for v in keys[order[first[np.argmax(counts)]]])
        raise ValueError(f"facet {key} shared by more than two cells")
    owner = order // (dim + 1)
    facet_cells = np.stack([owner[first], np.full(first.size, -1)], axis=1)
    two = counts == 2
    facet_cells[two, 1] = owner[first[two] + 1]
    perm = _dissection_order(mesh.vertices, cells, facet_cells)
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    facet_cells = facet_cells[perm]
    object.__setattr__(mesh, "facets", keys[order[first[perm]]])
    object.__setattr__(mesh, "cell_facets", new_id[inverse].reshape(nc, dim + 1))
    object.__setattr__(mesh, "facet_cells", facet_cells)
    object.__setattr__(mesh, "boundary_flags", facet_cells[:, 1] < 0)


# regions with at most this many facets are not bisected further
_DISSECTION_LEAF = 8


def _dissection_order(verts, cells, facet_cells):
    """Facet ids in nested-dissection order (George 1973).

    A region of cells is ordered recursively, starting from the whole
    mesh: it is cut across the longest extent of its cell centroids, at
    the vertex coordinate nearest the median centroid (the lower one on a
    tie).  A facet whose cells lie on one side goes to that side; a facet
    cut by the plane is a separator.  The side-0 facets are ordered
    first, then the side-1 facets, each side as a region of its own, and
    the separator facets follow.  A region of at most _DISSECTION_LEAF
    facets, or one the plane leaves whole, is a leaf.  Within a leaf and
    within a separator facets keep their input order.
    """
    # coordinate-major, so that a region's coordinates along one axis are
    # one contiguous take
    cell_vx = np.ascontiguousarray(verts[cells].transpose(2, 0, 1))
    centroids = cell_vx.mean(axis=2)
    c0 = facet_cells[:, 0]
    c1 = np.where(facet_cells[:, 1] < 0, c0, facet_cells[:, 1])
    side = np.zeros(cells.shape[0], dtype=np.int8)   # 1 on side 1 of its region's last cut

    def order(region, facets):
        """The facets (both cells in region), in order, as a list of runs."""
        if facets.size <= _DISSECTION_LEAF:
            return [facets]
        cen = centroids.take(region, axis=1)
        axis = (cen.max(axis=1) - cen.min(axis=1)).argmax()
        x = cen[axis]
        xs = np.sort(x)
        vx = cell_vx[axis].take(region, axis=0)
        dist = np.abs(vx - 0.5 * (xs[(x.size - 1) // 2] + xs[x.size // 2]))
        cut = x >= vx[dist == dist.min()].min()
        if np.count_nonzero(cut) in (0, x.size):
            return [facets]
        side[region] = cut
        n1 = side[c0[facets]] + side[c1[facets]]   # its cells on side 1; 1 for a separator
        return (order(region[~cut], facets[n1 == 0]) + order(region[cut], facets[n1 == 2])
                + [facets[n1 == 1]])

    return np.concatenate(order(np.arange(cells.shape[0]), np.arange(facet_cells.shape[0])))


def _facet_area_normal(verts, facets, dim):
    """Unnormalized normals and measures of all facets (canonical vertex order)."""
    coords = verts[facets]
    if dim == 2:
        t = coords[:, 1] - coords[:, 0]
        area = np.linalg.norm(t, axis=1)
        normal = np.stack([t[:, 1], -t[:, 0]], axis=1)
    else:
        e1 = coords[:, 1] - coords[:, 0]
        e2 = coords[:, 2] - coords[:, 0]
        normal = np.cross(e1, e2)
        area = 0.5 * np.linalg.norm(normal, axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    return area, normal


def _longest_edge(pts):
    """Longest edge of each simplex given by its vertex coordinates (n, k, dim)."""
    i, j = np.array(list(combinations(range(pts.shape[1]), 2))).T
    return np.linalg.norm(pts[:, i] - pts[:, j], axis=2).max(axis=1)


def _build_geometry(mesh: Mesh, det):
    verts, cells, dim = mesh.vertices, mesh.cells, mesh.dim
    vol = np.abs(det) * _VOLUME_FACTOR[dim]
    coords = verts[cells]
    diam = _longest_edge(coords)
    area, normal = _facet_area_normal(verts, mesh.facets, dim)

    # orient each stored normal outward with respect to the first adjacent cell
    first = mesh.facet_cells[:, 0]
    centroid_cell = coords.mean(axis=1)[first]
    centroid_facet = verts[mesh.facets].mean(axis=1)
    outward = np.einsum("fd,fd->f", normal, centroid_facet - centroid_cell)
    normal[outward < 0] *= -1.0

    fdiam = _longest_edge(verts[mesh.facets])
    signs = np.where(mesh.facet_cells[mesh.cell_facets, 0] == np.arange(cells.shape[0])[:, None], 1, -1)
    object.__setattr__(mesh, "facet_normals", normal)
    object.__setattr__(mesh, "facet_areas", area)
    object.__setattr__(mesh, "facet_diameters", fdiam)
    object.__setattr__(mesh, "volumes", vol)
    object.__setattr__(mesh, "diameters", diam)
    object.__setattr__(mesh, "cell_facet_signs", signs.astype(np.int8))


def unit_box_mesh(dim: int, n: int, origin=None, extent=None) -> Mesh:
    """Kuhn (Freudenthal) triangulation of a box with n cells per edge.

    2n^2 triangles in 2D, 6n^3 tetrahedra in 3D; the shape-regularity
    constant does not depend on n.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    origin = np.zeros(dim) if origin is None else np.asarray(origin, dtype=float)
    extent = np.ones(dim) if extent is None else np.asarray(extent, dtype=float)

    verts = origin + extent * np.indices((n + 1,) * dim).reshape(dim, -1).T / n
    # vertex id of grid point (i, j[, k]) is its index dotted with stride
    stride = (n + 1) ** np.arange(dim - 1, -1, -1)
    lower = np.indices((n,) * dim).reshape(dim, -1).T @ stride
    # each box splits into one simplex per axis order: the monotone lattice
    # path from its lower to its upper corner (Mesh orients the odd orders)
    paths = np.array([np.r_[0, np.cumsum(stride[list(perm)])]
                      for perm in permutations(range(dim))])
    cells = (lower[:, None, None] + paths[None]).reshape(-1, dim + 1)
    return Mesh(dim, verts, cells)


def write_mesh_text(mesh: Mesh, path) -> None:
    """Line-oriented text export: `vertex x y [z]` and `cell i0 i1 i2 [i3]`."""
    with open(path, "w") as fh:
        fh.write(f"# condensa mesh, dim={mesh.dim}\n")
        for v in mesh.vertices:
            fh.write("vertex " + " ".join(repr(float(x)) for x in v) + "\n")
        for c in mesh.cells:
            fh.write("cell " + " ".join(str(int(i)) for i in c) + "\n")
