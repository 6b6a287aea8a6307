"""Numerical verification of the preconditioning theory.

All constants are measured as extreme eigenvalues of generalized pencils:
for symmetric operators in the P-inner product, the boundedness and
inf-sup expressions reduce to the extreme |eigenvalues| of the pencil
(A, P), the lifting constant to the largest eigenvalue of (G, S_P) with
G the P-energy of the lifted trace functions, and each lemma inequality
to an extreme eigenvalue over its own pair of quadratic forms.  Declared
kernel vectors are removed by dropping their (numerically zero)
eigenvalues, which equals restriction to the P-orthogonal complement.

Every eigenvalue comes from krylov.generalized_eigs, and each caller asks
only for what it reports: c_b and c_i the largest and smallest
|eigenvalue| (mode="magnitude", for the indefinite full pencil), the
reduced bounds all eigenvalues (mode="full", dense), the lifting constants
the largest eigenvalue (mode="max"), the inf-sup probe the smallest
(mode="min") and the two-sided probes (aux_coercivity, ch_coercivity,
condensed_velocity) both ends (mode="extreme").  Pencils larger than
DENSE_MAX go to ARPACK, whose bottom end comes from the eigenvalues
nearest a small negative shift, never 0, so a declared kernel is safe;
its "min" end assumes the first form is positive semidefinite, as every
probe pencil is.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (BlockSystem, ProblemParams, aux_spaces, assemble_aux_hdg,
                       assemble_darcy, assemble_darcy_inner, assemble_stokes,
                       assemble_stokes_ch, assemble_stokes_inner, darcy_spaces,
                       qpair_matrix, stokes_spaces, _block_triplets)
from .condense import condense, condense_precond, eliminate
from .krylov import KERNEL_RTOL, generalized_eigs
from .mesh import unit_box_mesh

__all__ = [
    "SpectralReport",
    "measure_constants",
    "lifting_constant",
    "reduced_bounds_check",
    "lemma_probes",
    "lifting_matrix",
    "write_constants_csv",
]


@dataclass
class SpectralReport:
    c_b: float = np.nan
    c_i: float = np.nan
    kappa_full: float = np.nan
    kappa_reduced: float = np.nan
    c_l: float = np.nan
    level: int = 0
    params: ProblemParams | None = None

    def validate(self) -> "SpectralReport":
        vals = [self.c_b, self.c_i, self.kappa_full, self.kappa_reduced, self.c_l]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("spectral report contains non-finite entries")
        if self.kappa_full < 1.0 or self.kappa_reduced < 1.0:
            raise ValueError("condition numbers below 1")
        if not self.c_b >= self.c_i > 0:
            raise ValueError("ill-posed: c_b >= c_i > 0 violated")
        return self


def measure_constants(A, P, kernel_dim: int = 0):
    """(c_b, c_i, kappa) from the full pencil (A, P), P SPD.

    c_b = max |lambda|, c_i = min |lambda| over the nonzero spectrum;
    valid for symmetric A, where the sup-sup and inf-sup of the
    well-posedness conditions coincide with extreme |eigenvalues| in the
    P-norm.  Both come from generalized_eigs(mode="magnitude"): dense up to
    DENSE_MAX, ARPACK above it.  A c_i at most KERNEL_RTOL c_b is a kernel
    the caller did not declare (the threshold that drops declared kernel
    eigenvalues), so it raises rather than return c_i at roundoff level.
    """
    c_i, c_b = generalized_eigs(A, P, mode="magnitude", n_drop=kernel_dim)
    if c_i <= KERNEL_RTOL * c_b:
        raise ValueError("singular operator beyond the declared kernel: ill-posed "
                         f"(c_i = {c_i:.3g}, c_b = {c_b:.3g})")
    return c_b, c_i, c_b / c_i


def lifting_matrix(system: BlockSystem) -> sp.csr_matrix:
    """Sparse matrix of the lifting x_bar -> (-A11^-1 A21^T x_bar, x_bar)."""
    X, _ = eliminate(system)
    nc, cs = X.shape[:2]
    n_tr = system.n_trace
    rows, cols, vals = _block_triplets(-X, np.arange(nc * cs).reshape(nc, cs), system.tids)
    Wmat = sp.coo_matrix((vals, (rows, cols)), shape=(nc * cs, n_tr)).tocsr()
    return sp.vstack([Wmat, sp.identity(n_tr, format="csr")]).tocsr()


def lifting_constant(system: BlockSystem, inner: BlockSystem,
                     S_P: sp.spmatrix | None = None) -> float:
    """c_l: the norm of the trace lifting, squared = max eig of (G, S_P)
    with G = L^T P L."""
    L = lifting_matrix(system)
    P = inner.to_sparse()
    G = (L.T @ (P @ L)).tocsr()
    if S_P is None:
        S_P = condense_precond(inner).S
    return float(np.sqrt(generalized_eigs(G, S_P, mode="max")))


def reduced_bounds_check(system: BlockSystem, inner: BlockSystem, tol: float = 1e-8):
    """Verify max|eig(S_A, S_P)| <= c_l^2 c_b and min|eig| >= c_i with all
    constants measured from the same assembly.  Returns a report dict."""
    kernel_dim = len(system.null_vectors)
    c_b, c_i, kappa = measure_constants(system.to_sparse(), inner.to_sparse(),
                                        kernel_dim=kernel_dim)
    S_A = condense(system).S
    S_P = condense_precond(inner).S
    c_l = lifting_constant(system, inner, S_P=S_P)
    vals = generalized_eigs(S_A, S_P, mode="full", n_drop=kernel_dim)
    a = np.abs(vals)
    lam_max, lam_min = float(a.max()), float(a.min())
    return {
        "c_b": c_b, "c_i": c_i, "kappa_full": kappa, "c_l": c_l,
        "lam_max": lam_max, "lam_min": lam_min,
        "kappa_reduced": lam_max / lam_min,
        "upper_ok": lam_max <= c_l**2 * c_b * (1.0 + tol),
        "lower_ok": lam_min >= c_i * (1.0 - tol),
    }


# ----------------------------------------------------------------------
# lemma probes


def _probe_aux_coercivity(mesh, params):
    """Extreme constants of C1 |||q|||_qD^2 <= a~(q,q) <= C2 |||q|||_qD^2."""
    spaces = aux_spaces(mesh, params.k)
    aux = assemble_aux_hdg(mesh, spaces, params)
    inner = assemble_darcy_inner(mesh, darcy_spaces(mesh, params.k), params)
    Npair = qpair_matrix(inner)
    lo, hi = generalized_eigs(aux.to_sparse(), Npair, mode="extreme")
    return {"aux_coercivity_lo": lo, "aux_coercivity_hi": hi}


def _probe_darcy_lifting_vs_aux(mesh, params):
    """Sharp constant of |||(l_u, l_p, qbar)|||_X^2 <= c * S_aux(qbar, qbar):
    the scheme-lifted energy against the condensed auxiliary form."""
    k = params.k
    spaces = darcy_spaces(mesh, k)
    system = assemble_darcy(mesh, spaces, params)
    inner = assemble_darcy_inner(mesh, spaces, params)
    L = lifting_matrix(system)
    G = (L.T @ (inner.to_sparse() @ L)).tocsr()
    S_aux = condense(assemble_aux_hdg(mesh, aux_spaces(mesh, k), params)).S
    return {"lifting_vs_aux": generalized_eigs(G, S_aux, mode="max")}


def _probe_inf_sup_darcy(mesh, params):
    """Inf-sup constant of the coupling form b_h measured against the
    plain velocity L2 norm and the broken-H1 pressure-pair norm."""
    k = params.k
    spaces = darcy_spaces(mesh, k)
    one = ProblemParams(k=k, xi=1.0, gamma=0.0, eta=params.eta_for(mesh.dim))
    system = assemble_darcy(mesh, spaces, one)
    lay = system.layout
    uidx = lay.indices("u")
    keep = lay.indices("p", "pbar")
    K = system.to_sparse().tocsr()
    # momentum rows are stored negated: b_h(v, qpair) = -(K restricted)
    B = (-K[uidx][:, keep]).tocsr()
    ctx = system.context
    # plain L2 velocity mass is diagonal for the orthonormal basis
    minv = sp.diags(np.repeat(1.0 / ctx.detJa, uidx.size // mesh.n_cells))
    S = (B.T @ (minv @ B)).tocsr()
    Npair = qpair_matrix(assemble_darcy_inner(mesh, spaces, one))
    lo = generalized_eigs(S, Npair, mode="min")
    return {"beta": float(np.sqrt(max(lo, 0.0)))}


def _probe_stokes_ch_coercivity(mesh, params):
    """c1bar (and the boundedness mate) of c_h vs |||.|||_vS^2."""
    spaces = stokes_spaces(mesh, params.k)
    ch = assemble_stokes_ch(mesh, spaces, params)
    inner = assemble_stokes_inner(mesh, spaces, params)
    # velocity-pair submatrix of the inner product
    keep = inner.layout.indices("u", "ubar")
    Pv = inner.to_sparse().tocsr()[keep][:, keep]
    lo, hi = generalized_eigs(ch.to_sparse(), Pv, mode="extreme")
    return {"ch_coercivity_lo": lo, "ch_coercivity_hi": hi}


def _probe_stokes_condensed_velocity(mesh, params):
    """Extreme constants of nu |||vbar|||_hu^2 vs c_h((l_u(vbar), vbar), same).

    The lifting here is the full Stokes local solver with zero trace
    pressure (it carries the local divergence constraint)."""
    k = params.k
    spaces = stokes_spaces(mesh, k)
    system = assemble_stokes(mesh, spaces, params)
    ch = assemble_stokes_ch(mesh, spaces, params)
    # lifting (ubar) -> u through the scheme's local solver, restricted to
    # the ubar columns (ubar dofs come first in the trace group); rows =
    # u dofs in the ch layout (cell = u only), then the ubar identity
    n_ub = ch.layout.n_trace
    keep = system.layout.indices("u", "ubar")
    L = lifting_matrix(system)[keep][:, :n_ub]
    Q = (L.T @ (ch.to_sparse() @ L)).tocsr()
    H = _hu_seminorm_matrix(ch) * float(params.nu)
    lo, hi = generalized_eigs(Q, H, mode="extreme")
    return {"condensed_velocity_lo": lo, "condensed_velocity_hi": hi}


def _hu_seminorm_matrix(ch_system: BlockSystem) -> sp.csr_matrix:
    """Matrix of ||h^-1/2 (vbar - m_K(vbar))||^2 over cell boundaries."""
    ctx = ch_system.context
    mesh = ctx.mesh
    sl = slice(0, mesh.n_cells)
    _, _, scale, _ = ctx.facet_frame(sl)
    wfs = ctx.facet_weights(scale)
    d, nbf = mesh.dim, ctx.nbf
    d1 = d + 1
    # per cell: B[(l,m), q-pair] values of fbar basis at all boundary pts
    nq = ctx.frule.n_points
    V = np.zeros((mesh.n_cells, d1 * nbf, d1 * nq))
    for l in range(d1):
        V[:, l * nbf:(l + 1) * nbf, l * nq:(l + 1) * nq] = \
            np.broadcast_to(ctx.fv.T[None], (mesh.n_cells, nbf, nq))
    w = (wfs / ctx.hK[sl, None, None]).reshape(mesh.n_cells, d1 * nq)
    wm = wfs.reshape(mesh.n_cells, d1 * nq)
    area = wm.sum(axis=1)
    mean = (V @ wm[:, :, None])[:, :, 0] / area[:, None]
    dev = V - mean[:, :, None]
    M = (dev * w[:, None, :]) @ dev.transpose(0, 2, 1)
    # the same block for every velocity component at that component's ubar
    # ids; a cell's tids run over (local facet, component, basis function)
    ids = ch_system.tids.reshape(mesh.n_cells, d1, d, nbf).transpose(0, 2, 1, 3)
    ids = ids.reshape(mesh.n_cells * d, d1 * nbf)
    rows, cols, vals = _block_triplets(np.repeat(M, d, axis=0), ids, ids)
    n = ch_system.n_trace
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _probe_stokes_lifting(mesh, params):
    """Bound constant of the condensed Stokes lifting: the scheme-lifted
    energy G_A against eta^2 S_C + eta S_Pp."""
    k = params.k
    spaces = stokes_spaces(mesh, k)
    eta = params.eta_for(mesh.dim)
    system = assemble_stokes(mesh, spaces, params)
    inner = assemble_stokes_inner(mesh, spaces, params)
    L = lifting_matrix(system)
    G = (L.T @ (inner.to_sparse() @ L)).tocsr()
    S_C = condense_precond(assemble_stokes_ch(mesh, spaces, params)).S
    lay = system.layout
    off, end = lay.trace_field_range("pbar")
    # the pbar block of the inner product has no cell coupling: S_Pp = P22^p
    S_Pp = inner.a22[off:end, off:end]
    R = sp.block_diag([eta**2 * S_C, eta * S_Pp]).tocsr()
    return {"stokes_lifting_bound": generalized_eigs(G, R, mode="max")}


PROBE_SETS = {
    "darcy": ("aux_coercivity", "darcy_lifting_vs_aux", "inf_sup"),
    "stokes": ("ch_coercivity", "condensed_velocity", "stokes_lifting"),
}

_PROBES = {
    "aux_coercivity": _probe_aux_coercivity,
    "darcy_lifting_vs_aux": _probe_darcy_lifting_vs_aux,
    "inf_sup": _probe_inf_sup_darcy,
    "ch_coercivity": _probe_stokes_ch_coercivity,
    "condensed_velocity": _probe_stokes_condensed_velocity,
    "stokes_lifting": _probe_stokes_lifting,
}


def lemma_probes(problem: str, dim: int, levels, params: ProblemParams,
                 probes=None) -> list[dict]:
    """Measured sharp constants of the lemma inequalities, per level."""
    names = probes if probes is not None else PROBE_SETS[problem]
    out = []
    for n in levels:
        mesh = unit_box_mesh(dim, n)
        row = {"level": n, "cells": mesh.n_cells}
        for name in names:
            row.update(_PROBES[name](mesh, params))
        out.append(row)
    return out


def write_constants_csv(path, rows: list[dict], params: ProblemParams | None = None):
    """CSV export: level, parameters, constant name, value."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "params", "constant", "value"])
        ptxt = "" if params is None else _params_text(params)
        for row in rows:
            level = row.get("level", "")
            for key, val in row.items():
                if key in ("level", "cells"):
                    continue
                w.writerow([level, ptxt, key, repr(float(val))])


def _params_text(p: ProblemParams) -> str:
    xi = "fn" if callable(p.xi) else f"{p.xi:g}"
    ga = "fn" if callable(p.gamma) else f"{p.gamma:g}"
    return f"xi={xi};gamma={ga};nu={p.nu:g};zeta={p.zeta:g}"
