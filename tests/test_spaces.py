import numpy as np
import pytest

from condensa.elements import pk_basis, simplex_quadrature
from condensa.mesh import unit_box_mesh
from condensa.spaces import BlockLayout, build_space, interpolate_boundary

from conftest import cell_dofs, entity_dofs, facet_global_points, global_index


def test_facet_scalar_counts_two_triangles():
    mesh = unit_box_mesh(2, 1)
    qbar = build_space(mesh, "facet-scalar", 2, zero_boundary=True)
    assert qbar.ndofs == 15          # 5 facets x 3
    assert qbar.n_free == 3          # one interior facet


def test_cell_scalar_counts():
    mesh = unit_box_mesh(2, 1)
    q = build_space(mesh, "cell-scalar", 1)
    assert q.ndofs == 6              # 2 cells x 3


@pytest.mark.parametrize("dim,n,k", [(2, 2, 2), (3, 1, 2), (2, 3, 1)])
def test_cell_vector_count_formula(dim, n, k):
    import math
    mesh = unit_box_mesh(dim, n)
    v = build_space(mesh, "cell-vector", k)
    assert v.ndofs == mesh.n_cells * dim * math.comb(k + dim, dim)


def test_bad_kind_and_degree():
    mesh = unit_box_mesh(2, 1)
    with pytest.raises(ValueError):
        build_space(mesh, "vertex-scalar", 1)
    with pytest.raises(ValueError):
        build_space(mesh, "facet-vector", 0)
    with pytest.raises(ValueError):
        build_space(mesh, "cell-scalar", 1, zero_boundary=True)


def test_interpolate_zero_and_constant():
    mesh = unit_box_mesh(2, 2)
    sp = build_space(mesh, "facet-scalar", 2, zero_boundary=True)
    z = interpolate_boundary(sp, lambda x: np.zeros(x.shape[0]))
    assert np.abs(z).max() == 0.0
    c = interpolate_boundary(sp, lambda x: np.full(x.shape[0], 3.25))
    # reproduce the constant at facet quadrature points
    rule = simplex_quadrature(1, 6)
    fv = pk_basis(1, 2).eval(rule.points)
    for f in np.nonzero(mesh.boundary_flags)[0]:
        vals = fv @ c[entity_dofs(sp, f)]
        assert np.abs(vals - 3.25).max() < 1e-13


@pytest.mark.parametrize("dim", [2, 3])
def test_interpolate_linear_against_mass_solve(dim):
    # oracle: dense facet mass/load solve with the monomial facet basis
    mesh = unit_box_mesh(dim, 2)
    sp = build_space(mesh, "facet-scalar", 2, zero_boundary=True)
    g = lambda x: x[:, 0]
    c = interpolate_boundary(sp, g)
    rule = simplex_quadrature(dim - 1, 8)
    fv = pk_basis(dim - 1, 2).eval(rule.points)
    for f in np.nonzero(mesh.boundary_flags)[0][:6]:
        pts = facet_global_points(mesh, f, rule)
        M = np.einsum("q,qi,qj->ij", rule.weights, fv, fv)
        load = np.einsum("q,qi,q->i", rule.weights, fv, g(pts))
        oracle = np.linalg.solve(M, load)
        assert np.abs(c[entity_dofs(sp, f)] - oracle).max() < 1e-12
        # and the projection reproduces the linear function pointwise
        assert np.abs(fv @ c[entity_dofs(sp, f)] - pts[:, 0]).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["facet-scalar", "facet-vector"])
def test_interpolate_ignores_the_boundary_mask(dim, kind):
    """The projection on a zero_boundary space, as assembly passes it, is
    the unmasked space's bit for bit."""
    mesh = unit_box_mesh(dim, 3)

    def g(x):
        v = np.sin(x @ np.arange(1.0, dim + 1))
        return v if kind == "facet-scalar" else v[:, None] * np.arange(1.0, dim + 1)

    masked = interpolate_boundary(build_space(mesh, kind, 2, zero_boundary=True), g)
    full = interpolate_boundary(build_space(mesh, kind, 2), g)
    assert masked.any() and masked.tobytes() == full.tobytes()


def test_masked_function_vanishes_on_boundary():
    mesh = unit_box_mesh(2, 2)
    sp = build_space(mesh, "facet-scalar", 2, zero_boundary=True)
    x = np.random.default_rng(0).standard_normal(sp.n_free)
    full = np.zeros(sp.ndofs)
    full[sp.free_to_full] = x
    rule = simplex_quadrature(1, 6)
    fv = pk_basis(1, 2).eval(rule.points)
    for f in np.nonzero(mesh.boundary_flags)[0]:
        assert np.abs(fv @ full[entity_dofs(sp, f)]).max() == 0.0


def test_block_layout_round_trip():
    mesh = unit_box_mesh(2, 2)
    layout = BlockLayout(
        mesh,
        (("u", build_space(mesh, "cell-vector", 2)),
         ("p", build_space(mesh, "cell-scalar", 1))),
        (("pbar", build_space(mesh, "facet-scalar", 2, zero_boundary=True)),))
    assert layout.cell_size == 2 * 6 + 3
    assert layout.n_total == mesh.n_cells * 15 + layout.n_trace
    # every global free dof is hit exactly once
    seen = np.zeros(layout.n_total, dtype=int)
    for c in range(mesh.n_cells):
        for name in ("u", "p"):
            sl = layout.cell_field_slice(name)
            for loc in range(sl.stop - sl.start):
                seen[global_index(layout, "cell", name, c, sl.start + loc
                                  - sl.start) + 0] += 0
            seen[cell_dofs(layout, c)[sl]] += 1
    pbar = dict(layout.trace_fields)["pbar"]
    for full_id in pbar.free_to_full:
        seen[global_index(layout, "trace", "pbar", full_id // pbar.nb,
                          full_id % pbar.nb)] += 1
    assert (seen == 1).all()
    # indices(): argument order, cell-major cell fields, global_index agrees
    assert np.array_equal(np.sort(layout.indices("u", "p", "pbar")),
                          np.arange(layout.n_total))
    u = layout.indices("u").reshape(mesh.n_cells, -1)
    assert all(u[c, i] == global_index(layout, "cell", "u", c, i)
               for c in range(mesh.n_cells) for i in range(u.shape[1]))
    assert layout.indices("pbar").tolist() == [
        global_index(layout, "trace", "pbar", f // pbar.nb, f % pbar.nb)
        for f in pbar.free_to_full]
    assert np.array_equal(layout.indices("pbar", "p"),
                          np.concatenate([layout.indices("pbar"), layout.indices("p")]))
    with pytest.raises(ValueError):
        global_index(layout, "trace", "pbar", int(pbar.boundary_dofs[0]) // pbar.nb,
                     int(pbar.boundary_dofs[0]) % pbar.nb)


def test_split_views():
    mesh = unit_box_mesh(2, 1)
    layout = BlockLayout(
        mesh, (("p", build_space(mesh, "cell-scalar", 1)),),
        (("pbar", build_space(mesh, "facet-scalar", 2, zero_boundary=True)),))
    x = np.arange(layout.n_total, dtype=float)
    cells, trace = layout.split(x)
    assert cells.shape == (2, 3)
    assert trace.shape == (3,)
    assert cells[1, 2] == 5.0
