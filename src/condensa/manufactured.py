"""Analytic test problems: manufactured solutions and benchmark data.

All callables are vectorized over (npts, dim) coordinate arrays.  Right
hand sides are differentiated analytically (no numerical differentiation
anywhere in the production path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ManufacturedCase", "manufactured_rhs"]

_PI = np.pi


@dataclass(frozen=True)
class ManufacturedCase:
    f: object                    # source term callable
    dirichlet: object            # boundary data callable (p_D or u_D)
    exact_u: object | None = None
    exact_p: object | None = None
    xi_fn: object | None = None
    gamma_fn: object | None = None


def _p3(x):
    """The 3D manufactured pressure of both problems."""
    return np.cos(_PI * x[:, 0]) * np.sin(_PI * x[:, 1]) * np.cos(_PI * x[:, 2])


def _grad_p3(x):
    c0, s0 = np.cos(_PI * x[:, 0]), np.sin(_PI * x[:, 0])
    c1, s1 = np.cos(_PI * x[:, 1]), np.sin(_PI * x[:, 1])
    c2, s2 = np.cos(_PI * x[:, 2]), np.sin(_PI * x[:, 2])
    return _PI * np.stack([-s0 * s1 * c2, c0 * c1 * c2, -c0 * s1 * s2], axis=1)


def manufactured_rhs(problem: str, dim: int, params) -> ManufacturedCase:
    """Analytic data for the benchmark problems.

    Tags: darcy, darcy-heterogeneous, stokes, stokes-cavity.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if problem == "darcy":
        return _darcy_manufactured(dim, params)
    if problem == "darcy-heterogeneous":
        return _darcy_heterogeneous(dim)
    if problem == "stokes":
        return _stokes_manufactured(dim, params)
    if problem == "stokes-cavity":
        return _stokes_cavity(dim)
    raise ValueError(f"unknown problem tag {problem!r}")


def _darcy_manufactured(dim, params):
    if callable(params.xi) or callable(params.gamma):
        raise ValueError("manufactured Darcy data needs constant coefficients")
    xi, gamma = float(params.xi), float(params.gamma)

    if dim == 2:
        def p(x):
            return np.cos(_PI * x[:, 0]) * np.sin(_PI * x[:, 1])

        def grad_p(x):
            return np.stack([
                -_PI * np.sin(_PI * x[:, 0]) * np.sin(_PI * x[:, 1]),
                _PI * np.cos(_PI * x[:, 0]) * np.cos(_PI * x[:, 1]),
            ], axis=1)
    else:
        p, grad_p = _p3, _grad_p3

    def u(x):
        return -xi * grad_p(x)

    def f(x):
        # div u + gamma p with div u = -xi lap p = dim * pi^2 * xi * p
        return (dim * _PI**2 * xi + gamma) * p(x)

    return ManufacturedCase(f=f, dirichlet=p, exact_u=u, exact_p=p)


def _darcy_heterogeneous(dim):
    def xi_fn(x):
        return 1.0 + ((x - 0.5) ** 2).sum(axis=1)

    def gamma_fn(x):
        inside = np.all((x > 0.3) & (x < 0.7), axis=1)
        return np.where(inside, 1.0, 1.0e4)

    def f(x):
        return np.ones(x.shape[0])

    def zero(x):
        return np.zeros(x.shape[0])

    return ManufacturedCase(f=f, dirichlet=zero, xi_fn=xi_fn, gamma_fn=gamma_fn)


def _stokes_manufactured(dim, params):
    nu = float(params.nu)
    if dim == 2:
        def u(x):
            return np.stack([
                np.sin(_PI * x[:, 0]) * np.sin(_PI * x[:, 1]),
                np.cos(_PI * x[:, 0]) * np.cos(_PI * x[:, 1]),
            ], axis=1)

        def p(x):
            return np.sin(_PI * x[:, 0]) * np.cos(_PI * x[:, 1])

        def grad_p(x):
            return _PI * np.stack([
                np.cos(_PI * x[:, 0]) * np.cos(_PI * x[:, 1]),
                -np.sin(_PI * x[:, 0]) * np.sin(_PI * x[:, 1]),
            ], axis=1)
    else:
        def u(x):
            s = [np.sin(_PI * x[:, i]) for i in range(3)]
            c = [np.cos(_PI * x[:, i]) for i in range(3)]
            return _PI * np.stack([
                s[0] * c[1] - s[0] * c[2],
                s[1] * c[2] - s[1] * c[0],
                s[2] * c[0] - s[2] * c[1],
            ], axis=1)

        p, grad_p = _p3, _grad_p3

    def f(x):
        # -nu div(eps(u)) + grad p, matching the scheme's viscous form
        # nu (eps(u), eps(v)); u is divergence-free with lap u = -2 pi^2 u
        return _PI**2 * nu * u(x) + grad_p(x)

    return ManufacturedCase(f=f, dirichlet=u, exact_u=u, exact_p=p)


def _stokes_cavity(dim):
    if dim == 2:
        # scalar lid datum read as the tangential x-component: (1 - x1^4, 0)
        def u_d(x):
            lid = np.isclose(x[:, 1], 1.0)
            out = np.zeros_like(x)
            out[lid, 0] = 1.0 - x[lid, 0] ** 4
            return out
    else:
        def u_d(x):
            lid = np.isclose(x[:, 2], 1.0)
            out = np.zeros_like(x)
            tau = 2.0 * x[lid] - 1.0
            out[lid, 0] = 1.0 - tau[:, 0] ** 4
            out[lid, 1] = (1.0 - tau[:, 1]) ** 4 / 10.0
            return out

    def f(x):
        return np.zeros_like(x)

    return ManufacturedCase(f=f, dirichlet=u_d)
