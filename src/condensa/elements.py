"""Quadrature and polynomial bases on reference simplices and their facets.

Bases are mass-orthonormalized on the reference element, which keeps the
local condensation blocks well scaled across the extreme parameter sweeps.
Quadrature is collapsed (Duffy) Gauss built from Gauss-Legendre and
Gauss-Jacobi nodes: positive weights and exactness at any requested order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = [
    "QuadratureRule",
    "PolynomialBasis",
    "simplex_quadrature",
    "pk_basis",
    "pk_dim",
    "monomial_exponents",
    "monomial_integral",
    "reference_measure",
    "arrangement_codes",
    "arrangement_points",
]

_REF_MEASURE = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}


def reference_measure(dim: int) -> float:
    """Measure of the unit right simplex: 1, 1/2, 1/6."""
    return _REF_MEASURE[dim]


@dataclass(frozen=True)
class QuadratureRule:
    """Points (reference simplex coordinates) and positive weights.

    Weights sum to the reference measure; the rule is exact on P_order.
    """

    dim: int
    order: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]


@lru_cache(maxsize=None)
def simplex_quadrature(dim: int, order: int) -> QuadratureRule:
    """Collapsed Gauss rule on the unit right simplex, exact on P_order."""
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dim {dim}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n = (order + 2) // 2  # Gauss points per direction
    xg, wg = roots_legendre(n)
    a, wa = 0.5 * (xg + 1.0), 0.5 * wg
    if dim == 1:
        return QuadratureRule(1, order, a[:, None].copy(), wa.copy())

    xj, wj = roots_jacobi(n, 1.0, 0.0)
    b, wb = 0.5 * (xj + 1.0), 0.25 * wj  # absorbs the (1-b) Jacobian factor
    if dim == 2:
        A, B = np.meshgrid(a, b, indexing="ij")
        pts = np.stack([(A * (1.0 - B)).ravel(), B.ravel()], axis=1)
        w = np.outer(wa, wb).ravel()
        return QuadratureRule(2, order, pts, w)

    xj2, wj2 = roots_jacobi(n, 2.0, 0.0)
    c, wc = 0.5 * (xj2 + 1.0), 0.125 * wj2  # absorbs (1-c)^2
    A, B, C = np.meshgrid(a, b, c, indexing="ij")
    x = A * (1.0 - B) * (1.0 - C)
    y = B * (1.0 - C)
    pts = np.stack([x.ravel(), y.ravel(), C.ravel()], axis=1)
    w = np.einsum("i,j,k->ijk", wa, wb, wc).ravel()
    return QuadratureRule(3, order, pts, w)


def pk_dim(dim: int, degree: int) -> int:
    """dim P_degree(simplex_dim) = C(degree+dim, dim)."""
    return math.comb(degree + dim, dim)


@lru_cache(maxsize=None)
def monomial_exponents(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Graded list of monomial exponents with total degree <= degree."""
    out = []
    for total in range(degree + 1):
        if dim == 1:
            out.append((total,))
        elif dim == 2:
            out.extend((total - j, j) for j in range(total + 1))
        else:
            for j in range(total + 1):
                out.extend((total - j - k, j, k) for k in range(total - j + 1))
    return tuple(out)


def monomial_integral(exponents) -> float:
    """Exact integral of prod x_i^{a_i} over the unit right simplex."""
    exps = tuple(int(e) for e in exponents)
    num = 1
    for e in exps:
        num *= math.factorial(e)
    return num / math.factorial(sum(exps) + len(exps))


def _chol_lower(G):
    # tiny Cholesky in extended precision; nb <= a few dozen
    n = G.shape[0]
    L = np.zeros_like(G)
    for i in range(n):
        s = G[i, i] - (L[i, :i] ** 2).sum()
        if s <= 0:
            raise np.linalg.LinAlgError("monomial Gram not positive definite")
        L[i, i] = np.sqrt(s)
        for j in range(i + 1, n):
            L[j, i] = (G[j, i] - (L[j, :i] * L[i, :i]).sum()) / L[i, i]
    return L


def _solve_lower(L, B):
    n = L.shape[0]
    X = B.copy()
    for i in range(n):
        X[i] = (X[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


class PolynomialBasis:
    """Scalar P_degree basis on the reference simplex, orthonormal in L2.

    basis_i(x) = sum_m coeffs[i, m] * x^exponents[m]; the reference mass
    matrix of the basis is the identity to machine precision (two
    orthonormalization passes in extended precision).
    """

    def __init__(self, dim: int, degree: int):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.dim = dim
        self.degree = degree
        exps = np.array(monomial_exponents(dim, degree), dtype=np.int64)
        self.exponents = exps
        nb = exps.shape[0]
        G = np.empty((nb, nb), dtype=np.longdouble)
        for m in range(nb):
            for n in range(m + 1):
                G[m, n] = G[n, m] = monomial_integral(exps[m] + exps[n])
        C = np.eye(nb, dtype=np.longdouble)
        for _ in range(2):
            Gb = C @ G @ C.T
            L = _chol_lower(Gb)
            C = _solve_lower(L, C)
        self._coeffs_ld = C
        self.coeffs = np.asarray(C, dtype=float)
        # float64 monomial coefficients lose ~kappa(C)*eps of orthonormality,
        # which only matters from degree 3 up; switch to extended precision there
        self._exact = degree >= 3

    @property
    def n_basis(self) -> int:
        return self.exponents.shape[0]

    def eval_monomials(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.prod(pts[..., None, :] ** self.exponents[None, :, :], axis=-1)

    def _combine(self, mono: np.ndarray) -> np.ndarray:
        if self._exact:
            return np.asarray(mono.astype(np.longdouble) @ self._coeffs_ld.T, dtype=float)
        return mono @ self.coeffs.T

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Basis values, shape (..., n_basis)."""
        return self._combine(self.eval_monomials(pts))

    def eval_grad(self, pts: np.ndarray) -> np.ndarray:
        """Reference gradients, shape (..., n_basis, dim)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        exps = self.exponents
        grads = np.empty(pts.shape[:-1] + (exps.shape[0], self.dim))
        for j in range(self.dim):
            red = exps.copy()
            red[:, j] = np.maximum(red[:, j] - 1, 0)
            mono = np.prod(pts[..., None, :] ** red[None, :, :], axis=-1)
            grads[..., j] = self._combine(mono * exps[:, j])
        return grads


@lru_cache(maxsize=None)
def pk_basis(dim: int, degree: int) -> PolynomialBasis:
    """Shared, immutable P_degree basis factory (scalar components).

    Vector-valued spaces use d copies of the scalar basis, one per
    component, so the count is d * C(degree+dim, dim).
    """
    return PolynomialBasis(dim, degree)


def facet_barycentric(rule: QuadratureRule) -> np.ndarray:
    """Barycentric weights (nq, dim+1) of a facet rule's points."""
    t = rule.points
    lam0 = 1.0 - t.sum(axis=1)
    return np.concatenate([lam0[:, None], t], axis=1)


def facet_global_points(mesh, facet: int, rule: QuadratureRule) -> np.ndarray:
    """Quadrature points of a facet in global coordinates.

    Points are generated from the facet's canonical (sorted) vertex order,
    so both adjacent cells integrate the identical trace points.
    """
    lam = facet_barycentric(rule)
    coords = mesh.vertices[mesh.facets[facet]]
    return lam @ coords


def arrangement_codes(mesh) -> np.ndarray:
    """(n_cells, dim+1) arrangement code of every (cell, local facet).

    Facet quadrature points are generated from the facet's sorted vertex
    list (facet_global_points).  If vertex v of that list is local vertex
    pi(v) of the cell, the code is sum_v pi(v) (dim+1)^v, one of
    (dim+1)^dim values.  The points land on the same reference-cell points
    for every pair with the same code, so cell-basis values on facets are
    gathered from one table per code (arrangement_points).
    """
    d = mesh.dim
    fverts = mesh.facets[mesh.cell_facets]  # (nc, d+1, d) global vertex ids
    pi = np.argmax(fverts[..., None] == mesh.cells[:, None, None, :], axis=-1)
    return pi @ (d + 1) ** np.arange(d)


def arrangement_points(dim: int, rule: QuadratureRule) -> np.ndarray:
    """Reference-cell coordinates ((dim+1)^dim, nq, dim) of a facet rule's
    points under every arrangement code (codes that repeat a vertex give
    degenerate facets; no mesh produces them)."""
    d1 = dim + 1
    ref_vertices = np.vstack([np.zeros(dim), np.eye(dim)])
    pi = (np.arange(d1**dim)[:, None] // d1 ** np.arange(dim)) % d1  # (ncode, dim)
    return facet_barycentric(rule) @ ref_vertices[pi]
