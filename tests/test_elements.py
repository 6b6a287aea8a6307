import math

import numpy as np
import pytest

from condensa.elements import (PolynomialBasis, monomial_integral, pk_basis, pk_dim,
                               reference_measure, simplex_quadrature)
from condensa.mesh import unit_box_mesh

from conftest import facet_trace_table


def test_weights_sum_to_reference_measure():
    for dim in (1, 2, 3):
        for order in (1, 3, 6, 10):
            q = simplex_quadrature(dim, order)
            assert q.weights.min() > 0
            assert abs(q.weights.sum() - reference_measure(dim)) < 1e-14


def test_linear_moment_triangle():
    q = simplex_quadrature(2, 2)
    assert abs((q.weights * q.points[:, 0]).sum() - 1.0 / 6.0) < 1e-15


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_monomial_exactness_2d(order):
    # oracle: int x^a y^b over the unit triangle = a! b! / (a+b+2)!
    q = simplex_quadrature(2, order)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            val = (q.weights * q.points[:, 0] ** a * q.points[:, 1] ** b).sum()
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert abs(val - exact) < 1e-13


@pytest.mark.parametrize("order", [2, 5, 8])
def test_monomial_exactness_3d(order):
    q = simplex_quadrature(3, order)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            for c in range(order + 1 - a - b):
                val = (q.weights * q.points[:, 0] ** a * q.points[:, 1] ** b
                       * q.points[:, 2] ** c).sum()
                assert abs(val - monomial_integral((a, b, c))) < 1e-13


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        simplex_quadrature(2, 0)
    with pytest.raises(ValueError):
        simplex_quadrature(4, 2)


def test_basis_counts():
    assert pk_basis(2, 2).n_basis == 6  # C(4,2)
    assert pk_dim(3, 1) == 4            # vector count is d * scalar = 12
    assert 3 * pk_dim(3, 1) == 12
    assert pk_basis(3, 2).n_basis == 10


@pytest.mark.parametrize("dim,deg", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_orthonormal_mass_identity(dim, deg):
    bas = pk_basis(dim, deg)
    q = simplex_quadrature(dim, 2 * deg + 2)
    V = bas.eval(q.points)
    G = np.einsum("q,qi,qj->ij", q.weights, V, V)
    assert np.abs(G - np.eye(bas.n_basis)).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_orthonormal_mass_identity_degree4(dim):
    # quadrature-node roundoff floors the measurable error near 3e-12 here
    bas = pk_basis(dim, 4)
    q = simplex_quadrature(dim, 10)
    V = bas.eval(q.points)
    G = np.einsum("q,qi,qj->ij", q.weights, V, V)
    assert np.abs(G - np.eye(bas.n_basis)).max() < 1e-11


def test_gram_spd_and_finite_condition():
    bas = pk_basis(2, 3)
    q = simplex_quadrature(2, 8)
    V = bas.eval(q.points)
    G = np.einsum("q,qi,qj->ij", q.weights, V, V)
    np.linalg.cholesky(G)
    assert np.isfinite(np.linalg.cond(G))


def test_partition_of_unity_projection():
    # projecting the constant 1 recovers it exactly
    for dim in (2, 3):
        bas = pk_basis(dim, 2)
        q = simplex_quadrature(dim, 6)
        V = bas.eval(q.points)
        coef = np.einsum("q,qi->i", q.weights, V)  # orthonormal mass solve
        recon = V @ coef
        assert np.abs(recon - 1.0).max() < 1e-13


def test_constant_traces_to_one_on_facets():
    mesh = unit_box_mesh(2, 1)
    bas = pk_basis(2, 2)
    rule = simplex_quadrature(1, 6)
    q = simplex_quadrature(2, 6)
    coef = np.einsum("q,qi->i", q.weights, bas.eval(q.points))
    for l in range(3):
        _, vals = facet_trace_table(mesh, bas, 0, l, rule)
        assert np.abs(vals @ coef - 1.0).max() < 1e-13


def test_linear_function_trace_matches_direct_evaluation():
    # x1 on the edge from (1,0) to (0,1) of the reference-like cell
    mesh = unit_box_mesh(2, 1)
    bas = pk_basis(2, 2)
    rule = simplex_quadrature(1, 6)
    q = simplex_quadrature(2, 6)
    cell = 0
    v0 = mesh.vertices[mesh.cells[cell, 0]]
    J = (mesh.vertices[mesh.cells[cell, 1:]] - v0).T
    xq = q.points @ J.T + v0
    coef = np.einsum("q,qi,q->i", q.weights, bas.eval(q.points), xq[:, 0])
    for l in range(3):
        pts, vals = facet_trace_table(mesh, bas, cell, l, rule)
        assert np.abs(vals @ coef - pts[:, 0]).max() < 1e-14


def test_adjacent_cells_share_trace_points():
    mesh = unit_box_mesh(2, 1)
    bas = pk_basis(2, 2)
    rule = simplex_quadrature(1, 6)
    interior = int(np.nonzero(~mesh.boundary_flags)[0][0])
    pts = []
    for cell in mesh.facet_cells[interior]:
        l = int(np.nonzero(mesh.cell_facets[cell] == interior)[0][0])
        p, _ = facet_trace_table(mesh, bas, cell, l, rule)
        pts.append(p)
    assert np.abs(pts[0] - pts[1]).max() < 1e-13


def test_invalid_local_facet_rejected():
    mesh = unit_box_mesh(2, 1)
    with pytest.raises(IndexError):
        facet_trace_table(mesh, pk_basis(2, 2), 0, 5, simplex_quadrature(1, 4))


def test_affine_gradient_of_quadratic():
    # physical gradients equal reference gradients times J^-T; checked by
    # differentiating a manufactured quadratic on a skewed cell
    verts = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]])
    v0 = verts[0]
    J = (verts[1:] - v0).T
    Jinv = np.linalg.inv(J)
    bas = PolynomialBasis(2, 2)
    q = simplex_quadrature(2, 6)
    xq = q.points @ J.T + v0

    def f(x):
        return x[:, 0] ** 2 + 3 * x[:, 0] * x[:, 1] - x[:, 1]

    def grad_f(x):
        return np.stack([2 * x[:, 0] + 3 * x[:, 1], 3 * x[:, 0] - 1.0], axis=1)

    coef = np.einsum("q,qi,q->i", q.weights, bas.eval(q.points), f(xq))
    gref = bas.eval_grad(q.points)
    gphys = np.einsum("qne,ek->qnk", gref, Jinv)
    got = np.einsum("n,qnk->qk", coef, gphys)
    assert np.abs(got - grad_f(xq)).max() < 1e-12
