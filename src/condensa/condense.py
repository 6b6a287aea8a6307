"""Static condensation: per-cell elimination onto the trace unknowns.

Hybridization makes A11 block diagonal over cells, so one batched solve
over the stacked cell blocks gives X = A11^-1 A21^T and y = A11^-1 rhs_cell
for every cell.  The trace Schur complement S = A22 - A21 X, the trace
right-hand side, back-substitution and the lifting matrix all read X and y.
S is one COO of each cell's A22_K blocks (on the cell's leading trace ids)
and its -A21_K X_K, converted to CSR once: its pattern is the set of
positions that receive a nonzero contribution, whatever the sums cancel to.
The same elimination applied to a preconditioner inner product produces
the reduced preconditioner S_P, and with one cell solve the block LU
of the full one (see precond); positivity of its cell blocks is certified
by Cholesky.  Cross-cell coupling in A11 is condensable only where A21 and
rhs_cell vanish (the counterexample inner product): X and y are then zero
and S is A22.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import BlockSystem, _block_triplets, _triplets_csr
from .krylov import NotSymmetricPositiveDefinite

__all__ = ["CondensedSystem", "condense", "condense_precond",
           "back_substitute", "eliminate"]


@dataclass
class CondensedSystem:
    """Trace system with the per-cell data needed for back-substitution.

    X (cells, cell dofs, local trace dofs) holds A11^-1 A21^T and y (cells,
    cell dofs) holds A11^-1 rhs_cell.
    """

    system: BlockSystem
    S: sp.csr_matrix
    rhs: np.ndarray
    X: np.ndarray
    y: np.ndarray
    null_vectors: tuple = ()

    @property
    def n_trace(self) -> int:
        return self.S.shape[0]


def _local_traces(tids: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """Local trace coefficients of every cell: free entries from xbar,
    fixed entries zero (their Dirichlet values already sit in rhs_cell)."""
    vals = np.zeros(tids.shape)
    free = tids >= 0
    vals[free] = xbar[tids[free]]
    return vals


def eliminate(system: BlockSystem, spd: bool = False):
    """(X, y) = (A11^-1 A21^T, A11^-1 rhs_cell) for all cells in one batch.

    spd=True first certifies every cell block positive definite by
    Cholesky.  A block that fails, or that yields a non-finite result, is
    named by cell in the raised ValueError (NotSymmetricPositiveDefinite
    when spd).
    """
    a11 = system.a11
    rhs = np.concatenate([np.transpose(system.a21, (0, 2, 1)),
                          system.rhs_cell[:, :, None]], axis=2)
    Xy = _solve_cells(a11, rhs, spd)
    if Xy is None:  # the per-cell search runs on this failure path only
        c = next((c for c in range(a11.shape[0])
                  if _solve_cells(a11[c], rhs[c], spd) is None), None)
        if spd:
            raise NotSymmetricPositiveDefinite(
                f"P11 cell block is not positive definite (cell {c})")
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
    if (system.coupling is not None and system.coupling.nnz
            and (system.a21.any() or system.rhs_cell.any())):
        raise ValueError("cross-cell coupling with trace-coupled or loaded cells "
                         "is not condensable")
    X, y = eliminate(system, spd)
    tids, a21 = system.tids, system.a21
    S = _triplets_csr([system.a22_triplets(), _block_triplets(-(a21 @ X), tids, tids)],
                      (system.n_trace,) * 2)
    return CondensedSystem(system, S, _trace_load(system, system.rhs_trace, y), X, y,
                           null_vectors=_reduced_null(system))


def _trace_load(system: BlockSystem, r_trace: np.ndarray, y: np.ndarray) -> np.ndarray:
    """r_trace - A21 y, with the cell parts y (cells, cell dofs) scattered
    over the free trace ids: the condensed right-hand side."""
    out = np.array(r_trace, dtype=float)
    free = system.tids >= 0
    np.add.at(out, system.tids[free], -np.einsum("btc,bc->bt", system.a21, y)[free])
    return out


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
    return _condense(system, spd=False)


def condense_precond(inner: BlockSystem) -> CondensedSystem:
    """Eliminate cell dofs of an inner product; every local block must be
    symmetric positive definite for the reduced operator to define an
    inner product."""
    return _condense(inner, spd=True)


def back_substitute(condensed: CondensedSystem, xbar: np.ndarray,
                    y: np.ndarray | None = None) -> np.ndarray:
    """Recover the monolithic solution from the trace solution.

    Per cell: cell dofs = y - X xbar_local, with y the condensed system's
    own unless given (cells, cell dofs); returns the monolithic free vector
    [cells; trace]."""
    xloc = _local_traces(condensed.system.tids, xbar)
    cells = (condensed.y if y is None else y) - np.einsum("bct,bt->bc", condensed.X, xloc)
    return np.concatenate([cells.ravel(), xbar])
