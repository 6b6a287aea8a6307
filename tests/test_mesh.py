import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condensa.mesh import Mesh, _dissection_order, unit_box_mesh, write_mesh_text

from conftest import read_mesh_text, refine


def test_unit_square_one_cell_per_edge():
    m = unit_box_mesh(2, 1)
    assert m.n_cells == 2
    assert m.n_facets == 5
    assert int(m.boundary_flags.sum()) == 4


def test_unit_cube_kuhn():
    m = unit_box_mesh(3, 1)
    assert m.n_cells == 6
    assert abs(m.volumes.sum() - 1.0) < 1e-12


def test_counts_and_area_n4():
    # 2n^2 cells and n(3n+2) facets
    m = unit_box_mesh(2, 4)
    assert m.n_cells == 32
    assert m.n_facets == 56
    assert abs(m.volumes.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("dim,n,cells", [(2, 3, 18), (3, 2, 48)])
def test_cell_count_formula(dim, n, cells):
    assert unit_box_mesh(dim, n).n_cells == cells


def test_invalid_arguments():
    with pytest.raises(ValueError):
        unit_box_mesh(2, 0)
    with pytest.raises(ValueError):
        unit_box_mesh(4, 2)


def test_refine_2d():
    m = refine(unit_box_mesh(2, 1))
    assert m.n_cells == 8
    assert abs(m.volumes.sum() - 1.0) < 1e-12


def test_refine_3d_children_within_parent_diameter():
    parent = unit_box_mesh(3, 1)
    child = refine(parent)
    assert child.n_cells == 48
    assert abs(child.volumes.sum() - parent.volumes.sum()) < 1e-12
    # children are nested: 8 children per parent, in parent order
    for c in range(child.n_cells):
        assert child.diameters[c] <= parent.diameters[c // 8] + 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_refine_boundary_stays_on_parent_boundary(dim):
    parent = unit_box_mesh(dim, 2)
    child = refine(parent)
    bf = np.nonzero(child.boundary_flags)[0]
    pts = child.vertices[child.facets[bf]].reshape(-1, dim)
    on_bdry = np.isclose(pts, 0.0) | np.isclose(pts, 1.0)
    assert on_bdry.any(axis=1).all()


def test_cell_geometry_right_triangle():
    m = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 1, 2]]))
    areas = m.facet_areas[m.cell_facets[0]]
    normals = m.facet_normals[m.cell_facets[0]] * m.cell_facet_signs[0][:, None]
    assert abs(m.volumes[0] - 0.5) < 1e-15
    assert abs(m.diameters[0] - np.sqrt(2)) < 1e-15
    assert abs(areas.sum() - (2 + np.sqrt(2))) < 1e-14
    # hypotenuse normal, outward
    hyp = int(np.argmax(areas))
    assert np.abs(normals[hyp] - np.array([1, 1]) / np.sqrt(2)).max() < 1e-14


def test_reference_tet_volume():
    m = Mesh(3, np.array([[0., 0., 0.], [1., 0., 0.], [0., 1., 0.], [0., 0., 1.]]),
             np.array([[0, 1, 2, 3]]))
    assert abs(m.volumes[0] - 1.0 / 6.0) < 1e-15


def test_degenerate_cell_rejected():
    with pytest.raises(ValueError):
        Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([[0, 1, 2]]))


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_closed_surface_identity(dim, n):
    m = unit_box_mesh(dim, n)
    # sum over each cell's facets of |F| times the outward normal
    outward = m.facet_normals[m.cell_facets] * m.cell_facet_signs[..., None]
    s = (m.facet_areas[m.cell_facets][..., None] * outward).sum(axis=1)
    assert np.abs(s).max() < 1e-12


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_facet_cell_incidence_consistency(dim, n):
    m = unit_box_mesh(dim, n)
    # every interior facet has two cells, boundary exactly one
    for f in range(m.n_facets):
        cells = [c for c in m.facet_cells[f] if c >= 0]
        assert len(cells) == (1 if m.boundary_flags[f] else 2)
        for c in cells:
            assert f in m.cell_facets[c]
    # stored normal is outward for the first adjacent cell
    for c in range(m.n_cells):
        centroid = m.vertices[m.cells[c]].mean(axis=0)
        for l, f in enumerate(m.cell_facets[c]):
            fc = m.vertices[m.facets[f]].mean(axis=0)
            n_out = m.facet_normals[f] * m.cell_facet_signs[c, l]
            assert n_out @ (fc - centroid) > 0


def test_positive_orientation():
    m = unit_box_mesh(3, 2)
    e = m.vertices[m.cells[:, 1:]] - m.vertices[m.cells[:, :1]]
    assert np.linalg.det(e).min() > 0


def test_text_round_trip(tmp_path):
    m = unit_box_mesh(2, 2)
    path = tmp_path / "mesh.txt"
    write_mesh_text(m, path)
    m2 = read_mesh_text(path)
    assert np.array_equal(m.cells, m2.cells)
    assert np.abs(m.vertices - m2.vertices).max() == 0.0
    assert m2.n_facets == m.n_facets


def test_box_origin_extent():
    m = unit_box_mesh(2, 2, origin=(-1.0, -1.0), extent=(2.0, 2.0))
    assert abs(m.volumes.sum() - 4.0) < 1e-12
    assert m.vertices.min() == -1.0 and m.vertices.max() == 1.0


def test_facet_shared_by_three_cells_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [2.0, 0.5]])
    with pytest.raises(ValueError, match="more than two cells"):
        Mesh(2, verts, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_facet_cells_lower_id_first(dim, n):
    fc = unit_box_mesh(dim, n).facet_cells
    assert ((fc[:, 1] > fc[:, 0]) | (fc[:, 1] == -1)).all()


@pytest.mark.parametrize("dim", [2, 3])
def test_first_separator_numbered_last(dim):
    """Nested dissection: the facets on the first cut plane x = 1/2 come
    after every other facet."""
    m = unit_box_mesh(dim, 4)
    on_plane = np.isclose(m.vertices[m.facets][:, :, 0], 0.5).all(axis=1)
    k = int(on_plane.sum())
    assert k > 0 and on_plane[-k:].all()


def _recursive_dissection(verts, cells, facet_cells):
    """Nested dissection with Python lists and a dict per region: the
    oracle of _dissection_order."""
    centroids = verts[cells].mean(axis=1)
    c1 = np.where(facet_cells[:, 1] < 0, facet_cells[:, 0], facet_cells[:, 1])

    def order(region, facets):
        pts = centroids[region]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        coords = np.unique(verts[cells[region]][..., axis])
        plane = coords[np.argmin(np.abs(coords - np.median(pts[:, axis])))]
        right = pts[:, axis] >= plane
        if len(facets) <= 8 or right.all() or not right.any():
            return facets
        side = dict(zip(region, right))
        parts = ([], [], [])
        for f in facets:
            a, b = side[facet_cells[f, 0]], side[c1[f]]
            parts[2 if a != b else int(a)].append(f)
        return order(region[~right], parts[0]) + order(region[right], parts[1]) + parts[2]

    return np.array(order(np.arange(cells.shape[0]), list(range(facet_cells.shape[0]))))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(1, 3), refined=st.booleans(),
       origin=st.floats(-2.0, 2.0), extent=st.floats(0.25, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_nested_dissection_numbering(dim, n, refined, origin, extent,
                                     seed, tmp_path_factory):
    """Facets (as vertex tuples) come out in the same order whatever the
    order of the cells, the dissection agrees with its recursive oracle on
    any facet input order, and a text round trip reproduces the facets."""
    m = unit_box_mesh(dim, n, origin=(origin,) * dim, extent=(extent,) * dim)
    if refined:
        m = refine(m)
    rng = np.random.default_rng(seed)
    fc = m.facet_cells[rng.permutation(m.n_facets)]
    assert np.array_equal(_dissection_order(m.vertices, m.cells, fc),
                          _recursive_dissection(m.vertices, m.cells, fc))
    perm = rng.permutation(m.n_cells)
    shuffled = Mesh(dim, m.vertices, m.cells[perm])
    assert np.array_equal(shuffled.facets, m.facets)
    assert np.array_equal(shuffled.boundary_flags, m.boundary_flags)
    path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
    write_mesh_text(m, path)
    assert np.array_equal(read_mesh_text(path).facets, m.facets)


def _jittered(dim, n, amplitude, seed):
    """unit_box_mesh(dim, n) with each interior vertex moved by up to
    amplitude * h per coordinate."""
    m = unit_box_mesh(dim, n)
    verts = m.vertices.copy()
    inner = np.all((verts > 0.5 / n) & (verts < 1 - 0.5 / n), axis=1)
    rng = np.random.default_rng(seed)
    verts[inner] += amplitude / n * rng.uniform(-1.0, 1.0, (int(inner.sum()), dim))
    return Mesh(dim, verts, m.cells)


@pytest.mark.parametrize("mesh", [
    pytest.param(lambda: unit_box_mesh(2, 16), id="2d_n16"),
    pytest.param(lambda: unit_box_mesh(2, 16, origin=(-1, -1), extent=(2, 2)), id="cavity_n16"),
    pytest.param(lambda: unit_box_mesh(3, 4), id="3d_n4"),
    pytest.param(lambda: _jittered(2, 16, 0.3, 5), id="2d_n16_jitter"),
    pytest.param(lambda: _jittered(3, 4, 0.3, 5), id="3d_n4_jitter"),
])
def test_dissection_matches_oracle(mesh):
    """Past the hypothesis test's n <= 3, on a cavity box and on meshes
    whose centroids and vertex coordinates are not on a lattice."""
    m = mesh()
    fc = m.facet_cells[np.random.default_rng(3).permutation(m.n_facets)]
    assert np.array_equal(_dissection_order(m.vertices, m.cells, fc),
                          _recursive_dissection(m.vertices, m.cells, fc))


@pytest.mark.parametrize("dim,n,digest", [
    (2, 8, "a788f9a07c14d01222176c3a35e809fc"),
    (3, 4, "7532eebbf45486d89f8631f5d13b53f8"),
])
def test_facet_order_pinned(dim, n, digest):
    """The facet order sets the fill of every S_P factor: a change that
    moves it moves every factor, and must update this pin on purpose."""
    assert hashlib.md5(unit_box_mesh(dim, n).facets.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("extent", [1e-4, 1e4])
@pytest.mark.parametrize("height", [0.0, 1e-12])
def test_degeneracy_is_scale_free(extent, height):
    """A box of any size is accepted, and a cell with a vertex moved onto
    its opposite facet, or to 1e-12 of its height above it, is refused at
    any size."""
    m = unit_box_mesh(3, 8, extent=(extent,) * 3)
    assert abs(m.volumes.sum() - extent**3) <= 1e-12 * extent**3
    verts = m.vertices.copy()
    cell = m.cells[100]
    foot = verts[cell[1:]].mean(axis=0)
    verts[cell[0]] = foot + height * (verts[cell[0]] - foot)
    with pytest.raises(ValueError, match="degenerate cell 100: zero volume"):
        Mesh(3, verts, m.cells)


def test_dissection_tie_goes_to_side_1():
    """A strip of 5 triangles whose centroids lie at x = 1..5: the first
    cut is the vertex coordinate x = 3, the centroid of the middle cell.
    That cell goes to side 1, so the separator numbered last is the edge
    it shares with its left neighbour, (2, 0)-(3, 1)."""
    verts = np.array([[x, x % 2] for x in range(7)], dtype=float)
    cells = np.array([[x, x + 1, x + 2] for x in range(5)])
    m = Mesh(2, verts, cells)
    assert m.n_facets > 8
    assert np.array_equal(m.vertices[m.cells].mean(axis=1)[:, 0], [1, 2, 3, 4, 5])
    assert m.facets[-1].tolist() == [2, 3]
