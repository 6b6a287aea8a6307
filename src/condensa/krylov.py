"""Sparse direct factorizations, preconditioned CG/MINRES, and pencils.

Stopping rule for both Krylov drivers: relative preconditioned residual
sqrt(r' P^-1 r) / sqrt(r0' P^-1 r0) <= tol, zero initial guess.  Kernel
deflation projects the declared null vectors out of the right-hand side
and out of every operator application, keeping iterates orthogonal to
them.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "KrylovReport",
    "NotSymmetricPositiveDefinite",
    "factor_spd",
    "cg",
    "minres",
    "generalized_eigs",
    "as_operator",
    "DENSE_MAX",
    "ARPACK_MAXITER",
    "ARPACK_TOL",
    "KERNEL_SHIFT",
]

# largest pencil dimension for dense eigh: generalized_eigs switches to ARPACK
# above it (except for mode="full").  Measured crossover, 2D k=2 on 2 CPUs:
# the probe pencils took dense/ARPACK 0.09/0.10 s at size 936,
# 0.11/0.14 s at 990 and 0.14/0.17 s at 1056, but 0.22/0.11 s at 1281 and
# 0.26/0.19 s at 1440; the monolithic (A, P) pencils favour ARPACK from
# about 600 (0.04/0.03 s), and at 2448 took 2.2/0.84 s
DENSE_MAX = 1200

# cap on ARPACK restarts; the seeded "max" solve of the slowest probe pencil
# (condensed_velocity at 2D n=16, nu=1e-6) converges well within it
ARPACK_MAXITER = 1000

# relative Ritz residual ARPACK must reach, which bounds the relative error
# of each returned eigenvalue.  Its default (machine precision) can be out
# of reach when the wanted end is a cluster: the regular-mode "max" solve of
# condensed_velocity (top eigenvalue 16, highly multiple) then stalls for
# some start vectors and converges in a fraction of a second at this value.
ARPACK_TOL = 1e-12

# the shift-invert solve for the eigenvalues nearest zero factors A - sigma B
# at sigma = -KERNEL_SHIFT * max_i |A_ii / B_ii|, never at 0: with a declared
# kernel A is singular, and a shift of 0 returned c_i of the monolithic
# Stokes pencil (2D, nu=1e-6) 85% off at n=4 and 65% off at n=6
KERNEL_SHIFT = 1e-8

# an eigenvalue at most KERNEL_RTOL times the largest |eigenvalue| counts as
# a kernel eigenvalue: declared ones are dropped, undeclared ones rejected
KERNEL_RTOL = 1e-7


class NotSymmetricPositiveDefinite(np.linalg.LinAlgError):
    pass


@dataclass
class KrylovReport:
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    final_relative: float = 0.0
    seconds: float = 0.0

    def write_csv(self, path) -> None:
        """Residual history as `iteration,residual` lines."""
        with open(path, "w") as fh:
            fh.write("iteration,residual\n")
            for i, r in enumerate(self.residuals, start=1):
                fh.write(f"{i},{r!r}\n")


def _as_csc(S):
    if sp.issparse(S):
        return S.tocsc()
    return sp.csc_matrix(np.asarray(S))


class Factor:
    def __init__(self, lu):
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))

    __call__ = solve


def factor_spd(S, reorder: bool = False) -> Factor:
    """Factor an SPD sparse matrix; doubles as the SPD certificate.

    SuperLU in symmetric mode with a zero diagonal-pivot threshold never
    pivots off the diagonal, so the factorization is Cholesky-like and a
    non-positive pivot certifies the matrix is not SPD.  It eliminates in
    the order the matrix is given: trace operators come in the mesh's
    nested-dissection facet order, which fills less than a minimum-degree
    order.  reorder=True applies SuperLU's minimum-degree order instead,
    for the blocks where that fills less (see precond).
    """
    A = _as_csc(S)
    try:
        lu = spla.splu(A, diag_pivot_thresh=0.0,
                       permc_spec="MMD_AT_PLUS_A" if reorder else "NATURAL",
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # exactly singular
        raise NotSymmetricPositiveDefinite(str(exc)) from exc
    if lu.U.diagonal().min() <= 0.0:
        raise NotSymmetricPositiveDefinite("non-positive pivot: matrix is not SPD")
    return Factor(lu)


def as_operator(A):
    """Normalize a matrix / factor / callable into apply(x)."""
    if callable(A) and not sp.issparse(A):
        return A
    if sp.issparse(A):
        return lambda x, _A=A.tocsr(): _A @ x
    M = np.asarray(A)
    return lambda x: M @ x


class _Deflation:
    def __init__(self, kernel, n):
        basis = []
        for z in kernel:
            v = np.asarray(z, dtype=float).copy()
            for b in basis:
                v -= (b @ v) * b
            nrm = np.linalg.norm(v)
            if nrm > 0:
                basis.append(v / nrm)
        self.basis = basis

    def project(self, x):
        for b in self.basis:
            x = x - (b @ x) * b
        return x

    def wrap(self, apply_fn):
        if not self.basis:
            return apply_fn
        return lambda x: self.project(apply_fn(self.project(x)))


def cg(apply_A, apply_Pinv, b, tol: float = 1e-10, maxit: int = 999,
       deflate=()) -> tuple[np.ndarray, KrylovReport]:
    """Preconditioned conjugate gradients with breakdown detection."""
    t0 = time.perf_counter()
    A = as_operator(apply_A)
    P = as_operator(apply_Pinv) if apply_Pinv is not None else (lambda x: x)
    b = np.asarray(b, dtype=float)
    defl = _Deflation(deflate, b.size)
    A, P = defl.wrap(A), defl.wrap(P)
    b = defl.project(b)

    x = np.zeros_like(b)
    r = b.copy()
    z = P(r)
    rho = r @ z
    if rho < 0:
        raise NotSymmetricPositiveDefinite("preconditioner is not positive")
    res0 = np.sqrt(rho)
    history = []
    if res0 == 0.0:
        return x, KrylovReport(0, True, history, 0.0, time.perf_counter() - t0)
    p = z.copy()
    for it in range(1, maxit + 1):
        Ap = A(p)
        alpha_den = p @ Ap
        if alpha_den <= 0:
            raise NotSymmetricPositiveDefinite(
                "nonpositive curvature: operator not SPD on the working subspace")
        alpha = rho / alpha_den
        x += alpha * p
        r -= alpha * Ap
        z = P(r)
        rho_new = r @ z
        if rho_new < 0:
            raise NotSymmetricPositiveDefinite("preconditioner is not positive")
        rel = float(np.sqrt(rho_new) / res0)
        history.append(rel)
        if len(history) >= 2 and history[-1] > 1.1 * history[-2]:
            warnings.warn("CG preconditioned residual grew by more than 10%",
                          RuntimeWarning, stacklevel=2)
        if rel <= tol:
            return x, KrylovReport(it, True, history, float(rel), time.perf_counter() - t0)
        p = z + (rho_new / rho) * p
        rho = rho_new
    return x, KrylovReport(maxit, False, history, float(history[-1]), time.perf_counter() - t0)


def minres(apply_A, apply_Pinv, b, tol: float = 1e-8, maxit: int = 999,
           deflate=()) -> tuple[np.ndarray, KrylovReport]:
    """Preconditioned MINRES (Paige-Saunders); A symmetric, P SPD."""
    t0 = time.perf_counter()
    A = as_operator(apply_A)
    P = as_operator(apply_Pinv) if apply_Pinv is not None else (lambda x: x)
    b = np.asarray(b, dtype=float)
    defl = _Deflation(deflate, b.size)
    A, P = defl.wrap(A), defl.wrap(P)
    b = defl.project(b)

    x = np.zeros_like(b)
    r1 = b.copy()
    y = P(r1)
    beta1_sq = r1 @ y
    if beta1_sq < 0:
        raise NotSymmetricPositiveDefinite("preconditioner is not positive")
    beta1 = np.sqrt(beta1_sq)
    history = []
    if beta1 == 0.0:
        return x, KrylovReport(0, True, history, 0.0, time.perf_counter() - t0)

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    r2 = r1.copy()
    for it in range(1, maxit + 1):
        v = y / beta
        y = A(v)
        if it >= 2:
            y -= (beta / oldb) * r1
        alfa = v @ y
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = P(r2)
        oldb, beta_sq = beta, r2 @ y
        if beta_sq < 0:
            raise NotSymmetricPositiveDefinite("preconditioner is not positive")
        beta = np.sqrt(beta_sq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w
        rel = float(phibar / beta1)
        history.append(rel)
        if rel <= tol:
            return x, KrylovReport(it, True, history, float(rel), time.perf_counter() - t0)
    return x, KrylovReport(maxit, False, history, float(history[-1]), time.perf_counter() - t0)


def _dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def generalized_eigs(A, B, mode: str = "full", n_drop: int = 0):
    """Eigenvalues of the symmetric pencil A v = lambda B v with B SPD.

    mode="full" returns all eigenvalues, ascending; "min" and "max" return
    one end of the spectrum as a float, "extreme" returns (min, max) and
    "magnitude" returns (min |lambda|, max |lambda|), for an A that may be
    indefinite.  n_drop declared kernel eigenvalues (smallest in magnitude)
    are removed after checking they are negligible.

    Up to DENSE_MAX, and always for mode="full", one dense LAPACK ?sygv
    solve gives every eigenvalue.  Above DENSE_MAX the ends come from
    ARPACK with a fixed start vector, to a relative residual of ARPACK_TOL
    and in at most ARPACK_MAXITER restarts.  The top comes from one
    regular-mode solve preconditioned by the factor of B: the largest
    eigenvalue ("LA"), or the largest in magnitude for mode="magnitude"
    ("LM").  The bottom, and the kernel check, come from one shift-invert
    solve for the n_drop + 3 eigenvalues nearest sigma = -KERNEL_SHIFT *
    max_i |A_ii / B_ii|, a small negative shift (that maximum is a lower
    bound of max |lambda|), so that a declared kernel never makes
    A - sigma B singular.  The "min" end is the smallest eigenvalue only
    when A is positive semidefinite, as every probe pencil is.  A non-SPD
    B raises NotSymmetricPositiveDefinite; ARPACK running out of restarts
    raises ValueError.
    """
    if mode not in ("full", "extreme", "min", "max", "magnitude"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full" or A.shape[0] <= DENSE_MAX:
        try:
            vals = sla.eigh(_dense(A), _dense(B), eigvals_only=True, driver="gv")
        except sla.LinAlgError as exc:
            raise NotSymmetricPositiveDefinite(f"B side of the pencil: {exc}") from exc
        vals = _drop_kernel(vals, n_drop)
        if mode == "full":
            return vals
    else:
        vals = _drop_kernel(_sparse_ends(A, B, mode, n_drop), n_drop)
    if mode == "magnitude":
        a = np.abs(vals)
        return float(a.min()), float(a.max())
    lo, hi = float(vals[0]), float(vals[-1])
    return {"min": lo, "max": hi, "extreme": (lo, hi)}[mode]


def _sparse_ends(A, B, mode, n_drop):
    """ARPACK eigenvalues holding the requested ends and the kernel."""
    n = A.shape[0]
    Asp, Bsp = _as_csc(A), _as_csc(B)
    Bop = factor_spd(Bsp)  # also the SPD certificate of B
    v0 = np.random.default_rng(0).standard_normal(n)
    vals = []
    if mode != "min":
        Minv = spla.LinearOperator((n, n), matvec=Bop.solve)
        vals.append(_arpack("max", Asp, k=1, M=Bsp, Minv=Minv, v0=v0,
                            which="LM" if mode == "magnitude" else "LA"))
    if mode != "max" or n_drop:
        # Rayleigh quotients of unit vectors: a bound below max |lambda|
        scale = np.abs(Asp.diagonal() / Bsp.diagonal()).max()
        vals.append(_arpack("min", Asp, k=n_drop + 3, M=Bsp, sigma=-KERNEL_SHIFT * scale,
                            which="LM", v0=v0))
    return np.concatenate(vals)


def _arpack(end, A, **kwargs):
    try:
        return spla.eigsh(A, maxiter=ARPACK_MAXITER, tol=ARPACK_TOL,
                          return_eigenvectors=False, **kwargs)
    except spla.ArpackNoConvergence as exc:
        raise ValueError(f"ARPACK did not converge to the {end!r} end of a pencil "
                         f"of size {A.shape[0]} within {ARPACK_MAXITER} restarts") from exc


def _drop_kernel(vals, n_drop):
    vals = np.sort(np.asarray(vals))
    if n_drop:
        order = np.argsort(np.abs(vals))
        scale = np.abs(vals).max()
        small = order[:n_drop]
        if np.abs(vals[small]).max() > KERNEL_RTOL * scale:
            raise ValueError("declared kernel eigenvalues are not negligible")
        keep = np.ones(vals.size, dtype=bool)
        keep[small] = False
        vals = vals[keep]
    return vals
