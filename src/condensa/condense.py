"""Static condensation: per-cell elimination onto the trace unknowns.

Hybridization makes A11 block diagonal over cells, so one batched solve
over the stacked cell blocks gives X = A11^-1 A21^T and y = A11^-1
rhs_cell for every cell.  Within a cell, the blocks are block diagonal
again over the connected components of their joint pattern (scipy's
`connected_components`; one per velocity component and the pressure in
the robust Darcy inner product): each component is solved on its own,
and one that A21 and rhs_cell do not touch is only certified, its rows of
X and y exact zeros.  A scheme's cell dofs form one component.  The trace
Schur complement S = A22 - A21 X and the trace right-hand side
rhs_trace - A21 y are all a condensed system keeps: X and y are released
once A21 X and A21 y are formed, before S is scattered, so they are not
alive at condensation's own peak.
Back-substitution recovers the cells with one batched solve,
A11^-1 (rhs_cell - A21^T xbar_local), by the same cell-solve kernel; the
lifting matrix reads X from eliminate.  S is one COO of each cell's A22_K
blocks (on the cell's leading trace ids) and its -A21_K X_K, converted to
CSR once: its pattern is the set of positions that receive a nonzero
contribution, whatever the sums cancel to.  The same elimination applied
to a preconditioner inner product produces the reduced preconditioner
S_P; positivity of its cell blocks is certified by Cholesky, component by
component.  The full preconditioner eliminates nothing here: it factors
the whole P, after certifying P's cell blocks by the same kernel with no
right-hand side (see precond).  Cross-cell coupling in A11 is
condensable only where A21 and rhs_cell vanish (the counterexample inner
product): X and y are then zero and S is A22.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .assembly import BlockSystem, _block_triplets, _triplets_csr
from .krylov import NotSymmetricPositiveDefinite

__all__ = ["CondensedSystem", "condense", "condense_precond",
           "back_substitute", "eliminate"]


@dataclass
class CondensedSystem:
    """The trace system S xbar = rhs of an eliminated BlockSystem, which
    back-substitution reads again for the cells."""

    system: BlockSystem
    S: sp.csr_matrix
    rhs: np.ndarray
    null_vectors: tuple = ()

    @property
    def n_trace(self) -> int:
        return self.S.shape[0]


def eliminate(system: BlockSystem, spd: bool = False):
    """(X, y) = (A11^-1 A21^T, A11^-1 rhs_cell) for all cells in one batch.

    The cell dofs split into the connected components of the union of the
    cell blocks' nonzero patterns, found once per batch by scipy's
    `connected_components` and taken in order of their lowest dof; A11 is
    block diagonal over them.  A component that A21 and rhs_cell do not touch
    never reaches the trace: its rows of X and y are exact zeros, and its
    blocks are only certified: factored (by Cholesky when spd, otherwise
    by a solve against zero, which still refuses a singular block) and
    checked finite.  Every other component is solved on its own sub-block,
    and a batch of one component (every scheme) is solved whole.  spd=True
    first certifies each block positive definite by Cholesky.  A block
    that fails, or that yields a non-finite result, is named by cell in
    the raised ValueError (NotSymmetricPositiveDefinite when spd).
    """
    a11, a21, rhs_cell = system.a11, system.a21, system.rhs_cell
    n, label = connected_components(sp.csr_matrix(np.any(a11, axis=0)), connection="weak")
    touched = np.any(a21, axis=(0, 1)) | np.any(rhs_cell, axis=0)
    parts = [(cols, bool(touched[cols].any()))
             for cols in (np.flatnonzero(label == c) for c in range(n))]
    Xy = _solve_parts(a11, a21, rhs_cell, parts, spd)
    return Xy[:, :, :-1], Xy[:, :, -1]


def _solve_parts(a11, a21, rhs_cell, parts, spd: bool):
    """[X | y] (cells, cell dofs, trace dofs + 1) over the (dofs, reaches
    the trace) parts of eliminate; a single part is the whole block,
    solved."""
    def rhs(cols):
        return np.concatenate([np.transpose(a21[:, :, cols], (0, 2, 1)),
                               rhs_cell[:, cols, None]], axis=2)

    if len(parts) == 1:
        return _solve_cells(a11, rhs(slice(None)), spd)
    Xy = np.zeros(a11.shape[:2] + (a21.shape[1] + 1,))
    for cols, reaches in parts:
        out = _solve_cells(a11[:, cols[:, None], cols], rhs(cols) if reaches else None, spd)
        if reaches:
            Xy[:, cols] = out
    return Xy


def _solve_cells(a11, rhs, spd: bool):
    """a11^-1 rhs for a stack of blocks.  A block that is singular (not
    SPD, if spd) or yields a non-finite result is named by cell in the
    raised ValueError (NotSymmetricPositiveDefinite when spd); the
    per-cell search runs on this failure path only."""
    out = _try_cells(a11, rhs, spd)
    if out is None:
        c = next((c for c in range(a11.shape[0]) if _try_cells(
            a11[c:c + 1], None if rhs is None else rhs[c:c + 1], spd) is None), None)
        if spd:
            raise NotSymmetricPositiveDefinite(f"P11 cell block is not positive definite (cell {c})")
        raise ValueError(f"singular local block in cell {c}")
    return out


def _try_cells(a11, rhs, spd: bool):
    """_solve_cells, or None where it raises.  With rhs None the blocks
    are only certified: factored (by Cholesky when spd, otherwise by a
    solve against zero, which refuses a singular block) and checked finite
    entry by entry, since a factor need not carry a NaN into its output."""
    try:
        if spd:
            np.linalg.cholesky(a11)
        elif rhs is None:
            np.linalg.solve(a11, np.zeros(a11.shape[:2] + (1,)))
        out = a11 if rhs is None else np.linalg.solve(a11, rhs)
    except np.linalg.LinAlgError:
        return None
    return out if np.isfinite(out).all() else None


def _condense(system: BlockSystem, spd: bool) -> CondensedSystem:
    """S = A22 - A21 X and rhs_trace - A21 y, scattered over free pairs;
    X and y are released before S is scattered."""
    if (system.coupling is not None and system.coupling.nnz
            and (system.a21.any() or system.rhs_cell.any())):
        raise ValueError("cross-cell coupling with trace-coupled or loaded cells "
                         "is not condensable")
    X, y = eliminate(system, spd)
    free = system.tids >= 0
    rhs = np.array(system.rhs_trace, dtype=float)
    np.add.at(rhs, system.tids[free], -np.einsum("btc,bc->bt", system.a21, y)[free])
    schur = -(system.a21 @ X)
    del X, y   # views of one buffer, released here
    parts = [system.a22_triplets(), _block_triplets(schur, system.tids, system.tids)]
    del schur
    S = _triplets_csr(parts, (system.n_trace,) * 2)
    return CondensedSystem(system, S, rhs, null_vectors=_reduced_null(system))


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


def back_substitute(condensed: CondensedSystem, xbar: np.ndarray) -> np.ndarray:
    """Recover the monolithic solution from the trace solution.

    Per cell: cell dofs = A11^-1 (rhs_cell - A21^T xbar_local), one batched
    solve over the cells of the condensed system; a singular block, or a
    non-finite result, is named by cell.  Returns the monolithic free
    vector [cells; trace]."""
    system = condensed.system
    # each cell's local trace coefficients; fixed ones stay zero, since
    # their Dirichlet values already sit in rhs_cell
    free = system.tids >= 0
    local = np.zeros(system.tids.shape)
    local[free] = xbar[system.tids[free]]
    rhs = system.rhs_cell - np.einsum("btc,bt->bc", system.a21, local)
    cells = _solve_cells(system.a11, rhs[:, :, None], spd=False)
    return np.concatenate([cells.ravel(), xbar])
