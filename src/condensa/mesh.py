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
    "refine",
    "write_mesh_text",
    "read_mesh_text",
]

_VOLUME_FACTOR = {2: 0.5, 3: 1.0 / 6.0}


@dataclass(frozen=True)
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
        cells = _orient_positively(verts, cells, self.dim)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
        _build_connectivity(self)
        _build_geometry(self)

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_facets(self) -> int:
        return self.facets.shape[0]


def _orient_positively(verts, cells, dim):
    cells = cells.copy()
    e = verts[cells[:, 1:]] - verts[cells[:, :1]]
    det = np.linalg.det(e)
    flip = det < 0
    if flip.any():
        cells[flip, -1], cells[flip, -2] = cells[flip, -2].copy(), cells[flip, -1].copy()
        e = verts[cells[:, 1:]] - verts[cells[:, :1]]
        det = np.linalg.det(e)
    if (np.abs(det) < 1e-14).any():
        bad = int(np.argmin(np.abs(det)))
        raise ValueError(f"degenerate cell {bad}: zero volume")
    return cells


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

    The cells are bisected recursively, one tree level at a time: a region
    is cut across the longest extent of its cell centroids, at the vertex
    coordinate nearest the median centroid (the lower one on a tie).  A
    facet whose cells lie on one side goes to that side; a facet cut by
    the plane is a separator and is numbered after both sides.  Regions
    of at most _DISSECTION_LEAF facets, and regions the plane leaves
    whole, are leaves.  Within a leaf and within a separator facets keep
    their input order.
    """
    cell_vx = verts[cells]
    centroids = cell_vx.mean(axis=1)
    c0 = facet_cells[:, 0]
    c1 = np.where(facet_cells[:, 1] < 0, c0, facet_cells[:, 1])
    # region of each cell after each level: 2k + side in the k-th region
    # split at that level, -1 once the cell's region is a leaf
    region = np.zeros(cells.shape[0], dtype=np.int64)
    regions = []
    live = np.arange(cells.shape[0])  # cells of unfinished regions, by region
    while live.size:
        c_region = region[live]
        cnt = np.bincount(c_region)
        first = np.cumsum(cnt) - cnt
        cen = centroids[live]
        axis = np.argmax(np.maximum.reduceat(cen, first) - np.minimum.reduceat(cen, first),
                         axis=1)[c_region]
        x = cen[np.arange(live.size), axis]
        xs = x[np.lexsort((x, c_region))]
        median = 0.5 * (xs[first + (cnt - 1) // 2] + xs[first + cnt // 2])
        # cut plane: the region's vertex coordinate nearest the median (the
        # cells' vertex coordinates, flattened, stay sorted by region)
        vx = cell_vx[live, :, axis].ravel()
        v_region = np.repeat(c_region, cells.shape[1])
        dist = np.abs(vx - median[v_region])
        v_first = cells.shape[1] * first
        nearest = np.minimum.reduceat(dist, v_first)[v_region]
        plane = np.minimum.reduceat(np.where(dist == nearest, vx, np.inf), v_first)
        cut = x >= plane[c_region]
        # a region's facets are those with both cells in it
        r0 = region[c0]
        inside = (r0 == region[c1]) & (r0 >= 0)
        ones = np.bincount(c_region, weights=cut)
        split = ((np.bincount(r0[inside], minlength=cnt.size) > _DISSECTION_LEAF)
                 & (ones > 0) & (ones < cnt))
        keep = split[c_region]
        region[live] = -1
        live = live[keep]
        region[live] = 2 * (np.cumsum(split) - 1)[c_region[keep]] + cut[keep]
        regions.append(region.copy())
        live = live[np.argsort(region[live], kind="stable")]
    # per level and facet: 0 or 1 for the side it goes to, 2 for a
    # separator, 0 in a leaf and after it is numbered; sorting on these
    # digits, first level first, gives the order
    regions = np.array(regions)
    r0, r1 = regions[:, c0], regions[:, c1]
    sep = r0 != r1
    digit = np.where(sep, 2, np.maximum(r0, 0) % 2).astype(np.int8)
    numbered = sep | (r0 < 0)
    digit[np.cumsum(numbered, axis=0) > numbered] = 0
    return np.lexsort(digit[::-1])


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


def _build_geometry(mesh: Mesh):
    verts, cells, dim = mesh.vertices, mesh.cells, mesh.dim
    e = verts[cells[:, 1:]] - verts[cells[:, :1]]
    vol = np.abs(np.linalg.det(e)) * _VOLUME_FACTOR[dim]
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
    # path from its lower to its upper corner; an odd order gives a
    # negatively oriented path, so its last two vertices are swapped
    paths = []
    for perm in permutations(range(dim)):
        path = np.r_[0, np.cumsum(stride[list(perm)])]
        if sum(a > b for a, b in combinations(perm, 2)) % 2:
            path[-2:] = path[-1], path[-2]
        paths.append(path)
    paths = np.array(paths)
    cells = (lower[:, None, None] + paths[None]).reshape(-1, dim + 1)
    return Mesh(dim, verts, cells)


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement: x4 cells in 2D, x8 in 3D (Bey's scheme)."""
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


def write_mesh_text(mesh: Mesh, path) -> None:
    """Line-oriented text export: `vertex x y [z]` and `cell i0 i1 i2 [i3]`."""
    with open(path, "w") as fh:
        fh.write(f"# condensa mesh, dim={mesh.dim}\n")
        for v in mesh.vertices:
            fh.write("vertex " + " ".join(repr(float(x)) for x in v) + "\n")
        for c in mesh.cells:
            fh.write("cell " + " ".join(str(int(i)) for i in c) + "\n")


def read_mesh_text(path) -> Mesh:
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
