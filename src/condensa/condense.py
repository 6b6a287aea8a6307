"""Static condensation: per-cell elimination onto the trace unknowns.

Hybridization makes A11 block diagonal over cells, so one batched solve
over the stacked cell blocks gives X = A11^-1 A21^T and y = A11^-1 rhs_cell
for every cell.  The trace Schur complement S = A22 - A21 X, the trace
right-hand side, back-substitution and the lifting matrix all read X and y.
The same elimination applied to a preconditioner inner product produces
the reduced preconditioner S_P; positivity of its cell blocks is certified
by Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import BlockSystem, _block_triplets

__all__ = ["CondensedSystem", "condense", "condense_precond",
           "back_substitute", "local_solve", "eliminate"]


@dataclass
class CondensedSystem:
    """Trace system with the per-cell data needed for back-substitution.

    X (cells, cell dofs, local trace dofs) holds A11^-1 A21^T and y (cells,
    cell dofs) holds A11^-1 rhs_cell; both are None when the cell block
    couples across cells and is not eliminated locally.
    """

    system: BlockSystem
    S: sp.csr_matrix
    rhs: np.ndarray
    X: np.ndarray | None
    y: np.ndarray | None
    null_vectors: tuple = ()

    @property
    def n_trace(self) -> int:
        return self.S.shape[0]

    def trace_values_local(self, cell: int, xbar: np.ndarray) -> np.ndarray:
        """Local trace coefficients of a cell: free entries from xbar,
        fixed entries from the Dirichlet data lifted at assembly (zero,
        because their effect already sits in rhs_cell)."""
        return _local_traces(self.system.tids[cell], xbar)


def _local_traces(tids: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    vals = np.zeros(tids.shape)
    free = tids >= 0
    vals[free] = xbar[tids[free]]
    return vals


def eliminate(system: BlockSystem, spd: bool = False):
    """(X, y) = (A11^-1 A21^T, A11^-1 rhs_cell) for all cells in one batch.

    spd=True first certifies every cell block positive definite by
    Cholesky.  A block that fails, or that yields a non-finite result, is
    named by cell in the raised ValueError.
    """
    a11 = system.a11
    rhs = np.concatenate([np.transpose(system.a21, (0, 2, 1)),
                          system.rhs_cell[:, :, None]], axis=2)
    Xy = _solve_cells(a11, rhs, spd)
    if Xy is None:  # the per-cell search runs on this failure path only
        c = next((c for c in range(a11.shape[0])
                  if _solve_cells(a11[c], rhs[c], spd) is None), None)
        if spd:
            raise ValueError(f"P11 cell block is not positive definite (cell {c})")
        raise ValueError(f"singular local block in cell {c}")
    return Xy[:, :, :-1], Xy[:, :, -1]


def _solve_cells(a11, rhs, spd: bool):
    """a11^-1 rhs for one block or a stack of them; None when a block is
    singular (not SPD, if spd) or the result is not finite."""
    try:
        if spd:
            np.linalg.cholesky(a11)
        out = np.linalg.solve(a11, rhs)
    except np.linalg.LinAlgError:
        return None
    return out if np.isfinite(out).all() else None


def _condense(system: BlockSystem, spd: bool) -> CondensedSystem:
    """S = A22 - A21 X and rhs_trace - A21 y, scattered over free pairs."""
    X, y = eliminate(system, spd)
    n = system.n_trace
    tids, a21 = system.tids, system.a21
    rows, cols, vals = _block_triplets(-(a21 @ X), tids, tids)
    S = system.a22.tocsr() + sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    rhs = system.rhs_trace.copy()
    free = tids >= 0
    np.add.at(rhs, tids[free], -np.einsum("btc,bc->bt", a21, y)[free])
    return CondensedSystem(system, S, rhs, X, y, null_vectors=_reduced_null(system))


def _reduced_null(system: BlockSystem):
    out = []
    for z in system.null_vectors:
        _, zbar = system.layout.split(np.asarray(z))
        if np.linalg.norm(zbar) > 0:
            out.append(zbar / np.linalg.norm(zbar))
    return tuple(out)


def condense(system: BlockSystem) -> CondensedSystem:
    """Eliminate cell dofs of a scheme operator (LU with partial pivoting;
    local Darcy/Stokes blocks are indefinite but invertible)."""
    if system.coupling is not None and system.coupling.nnz and np.abs(system.a21).max() > 0:
        raise ValueError("cross-cell coupling with trace-coupled cells is not condensable")
    return _condense(system, spd=False)


def condense_precond(inner: BlockSystem) -> CondensedSystem:
    """Eliminate cell dofs of an inner product; every local block must be
    symmetric positive definite for the reduced operator to define an
    inner product."""
    if inner.coupling is not None and inner.coupling.nnz:
        if np.abs(inner.a21).max() > 0:
            raise ValueError("coupled P11 with nonzero P21 is not condensable")
        # P21 = 0: the reduced operator is exactly P22
        return CondensedSystem(inner, inner.a22.copy().tocsr(),
                               inner.rhs_trace.copy(), None, None,
                               null_vectors=_reduced_null(inner))
    return _condense(inner, spd=True)


def back_substitute(condensed: CondensedSystem, xbar: np.ndarray) -> np.ndarray:
    """Recover the monolithic solution from the trace solution.

    Per cell: cell dofs = y - X xbar_local; returns the monolithic free
    vector [cells; trace]."""
    xloc = _local_traces(condensed.system.tids, xbar)
    cells = condensed.y - np.einsum("bct,bt->bc", condensed.X, xloc)
    return np.concatenate([cells.ravel(), xbar])


def local_solve(condensed: CondensedSystem, cell: int, trace_values: np.ndarray,
                source: np.ndarray | None = None) -> np.ndarray:
    """Cell coefficients for given local trace data and local load vector
    (the local solvers l_.(xbar) + (.)^f; linear in both arguments)."""
    system = condensed.system
    rhs = np.zeros(system.a11.shape[1]) if source is None else np.asarray(source, dtype=float).copy()
    rhs -= system.a21[cell].T @ np.asarray(trace_values, dtype=float)
    return np.linalg.solve(system.a11[cell], rhs)
