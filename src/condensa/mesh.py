"""Structured simplicial meshes of box domains with full facet connectivity.

Meshes are immutable after construction.  Cells are positively oriented
simplices; every facet stores one canonical unit normal (outward with
respect to its first adjacent cell) and per-cell orientation signs, so jump
and trace terms have a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

__all__ = [
    "Mesh",
    "CellGeometry",
    "unit_box_mesh",
    "refine",
    "cell_geometry",
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
    facets : (nf, dim) int array of sorted vertex ids (canonical order)
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


@dataclass(frozen=True)
class CellGeometry:
    volume: float
    diameter: float
    facet_areas: np.ndarray
    facet_normals: np.ndarray  # outward, one row per local facet
    boundary_measure: float


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
    nc = cells.shape[0]
    facet_index: dict[tuple, int] = {}
    facets = []
    facet_cells = []
    cell_facets = np.empty((nc, dim + 1), dtype=np.int64)
    # local facet l = vertices of the cell without local vertex l
    local = [tuple(j for j in range(dim + 1) if j != l) for l in range(dim + 1)]
    for c in range(nc):
        for l, loc in enumerate(local):
            key = tuple(sorted(cells[c, j] for j in loc))
            fid = facet_index.get(key)
            if fid is None:
                fid = len(facets)
                facet_index[key] = fid
                facets.append(key)
                facet_cells.append([c, -1])
            else:
                if facet_cells[fid][1] != -1:
                    raise ValueError(f"facet {key} shared by more than two cells")
                facet_cells[fid][1] = c
            cell_facets[c, l] = fid
    facets = np.array(facets, dtype=np.int64)
    facet_cells = np.array(facet_cells, dtype=np.int64)
    object.__setattr__(mesh, "facets", facets)
    object.__setattr__(mesh, "cell_facets", cell_facets)
    object.__setattr__(mesh, "facet_cells", facet_cells)
    object.__setattr__(mesh, "boundary_flags", facet_cells[:, 1] < 0)


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


def _build_geometry(mesh: Mesh):
    verts, cells, dim = mesh.vertices, mesh.cells, mesh.dim
    e = verts[cells[:, 1:]] - verts[cells[:, :1]]
    vol = np.abs(np.linalg.det(e)) * _VOLUME_FACTOR[dim]
    coords = verts[cells]
    diam = np.zeros(cells.shape[0])
    for i, j in combinations(range(dim + 1), 2):
        diam = np.maximum(diam, np.linalg.norm(coords[:, i] - coords[:, j], axis=1))
    area, normal = _facet_area_normal(verts, mesh.facets, dim)

    # orient each stored normal outward with respect to the first adjacent cell
    first = mesh.facet_cells[:, 0]
    centroid_cell = coords.mean(axis=1)[first]
    centroid_facet = verts[mesh.facets].mean(axis=1)
    outward = np.einsum("fd,fd->f", normal, centroid_facet - centroid_cell)
    normal[outward < 0] *= -1.0

    fverts = verts[mesh.facets]
    fdiam = np.zeros(mesh.facets.shape[0])
    for i, j in combinations(range(dim), 2):
        fdiam = np.maximum(fdiam, np.linalg.norm(fverts[:, i] - fverts[:, j], axis=1))
    if dim == 2:
        fdiam = area.copy()

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

    grid1 = [origin[k] + extent[k] * np.arange(n + 1) / n for k in range(dim)]
    if dim == 2:
        X, Y = np.meshgrid(grid1[0], grid1[1], indexing="ij")
        verts = np.stack([X.ravel(), Y.ravel()], axis=1)

        def vid(i, j):
            return i * (n + 1) + j

        cells = []
        for i in range(n):
            for j in range(n):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                cells.append((v00, v10, v11))
                cells.append((v00, v11, v01))
    else:
        X, Y, Z = np.meshgrid(grid1[0], grid1[1], grid1[2], indexing="ij")
        verts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

        def vid(i, j, k):
            return (i * (n + 1) + j) * (n + 1) + k

        steps = list(permutations(range(3)))
        cells = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    base = np.array([i, j, k])
                    for perm in steps:
                        path = [base.copy()]
                        for ax in perm:
                            nxt = path[-1].copy()
                            nxt[ax] += 1
                            path.append(nxt)
                        cells.append(tuple(vid(*p) for p in path))
    return Mesh(dim, verts, np.array(cells, dtype=np.int64))


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


def cell_geometry(mesh: Mesh, cell: int) -> CellGeometry:
    """Volume, diameter h_K, facet areas, outward normals, and |dK| of one cell."""
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range")
    vol = float(mesh.volumes[cell])
    if vol <= 0.0 or not np.isfinite(vol):
        raise ValueError(f"degenerate cell {cell}")
    fids = mesh.cell_facets[cell]
    signs = mesh.cell_facet_signs[cell].astype(float)
    normals = mesh.facet_normals[fids] * signs[:, None]
    areas = mesh.facet_areas[fids]
    return CellGeometry(
        volume=vol,
        diameter=float(mesh.diameters[cell]),
        facet_areas=areas.copy(),
        facet_normals=normals,
        boundary_measure=float(areas.sum()),
    )


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
