"""Preconditioner application operators, full and reduced.

Both levels come from one elimination of the inner product P.
condense_precond eliminates its cell dofs cell by cell, certifying each
cell block positive definite by Cholesky, and factor_spd factors the
trace operator S_P, certifying it in turn.  The reduced preconditioner
applies S_P^-1.  The full one applies P^-1 exactly, as the block LU of P
around that same S_P:

    y = P11^-1 r_cell,   xbar = S_P^-1 (r_trace - P21 y),
    cells = y - X xbar_local   (X = P11^-1 P21^T, from condense_precond),

so it adds one cell solve.  Where P11 is block diagonal over cells, that
is the explicit inverse of each cell's block.  Only the counterexample
couples cells (through its normal-jump term; there P21 vanishes and S_P
is P22), and its whole cell group is factored in minimum-degree order
(reorder=True), since it has no trace structure to order by.

S_P arrives in a fill-reducing order: trace dofs are facet-major and the
mesh numbers facets by nested dissection, so factor_spd eliminates it as
given, by the supernodal multifrontal Cholesky once it is large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .assembly import (BlockSystem, ProblemParams, assemble_counterexample_inner,
                       assemble_darcy_inner, assemble_stokes_inner)
from .condense import (CondensedSystem, _solve_cells, _trace_load, back_substitute,
                       condense_precond)
from .krylov import NotSymmetricPositiveDefinite, factor_spd

__all__ = ["PreconditionerSpec", "PrecondOperator", "build_full", "build_reduced"]


@dataclass(frozen=True)
class PreconditionerSpec:
    problem: str                 # "darcy" | "stokes"
    kind: str = "robust"         # "robust" | "counterexample"
    level: str = "reduced"       # "full" | "reduced"
    zeta: float = 0.0
    hatted: bool = False

    def __post_init__(self):
        if self.problem not in ("darcy", "stokes"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.kind not in ("robust", "counterexample"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.level not in ("full", "reduced"):
            raise ValueError(f"unknown level {self.level!r}")
        if self.kind == "counterexample" and self.problem != "darcy":
            raise ValueError("the counterexample preconditioner is Darcy-only")
        if (self.zeta != 0.0 or self.hatted) and self.problem != "stokes":
            raise ValueError("zeta/hatted variants are Stokes-only")

    def label(self) -> str:
        if self.kind == "counterexample":
            return f"counterexample-{self.level}"
        bits = [self.problem, self.level]
        if self.hatted:
            bits.append("hat")
        if self.zeta:
            bits.append(f"zeta{self.zeta:g}")
        return "-".join(bits)


def assemble_inner(spec: PreconditionerSpec, mesh, spaces,
                   params: ProblemParams) -> BlockSystem:
    if spec.problem == "darcy":
        if spec.kind == "counterexample":
            return assemble_counterexample_inner(mesh, spaces, params)
        return assemble_darcy_inner(mesh, spaces, params)
    return assemble_stokes_inner(mesh, spaces, params, hatted=spec.hatted)


@dataclass
class PrecondOperator:
    """P^-1 (level full, on the n monolithic dofs) or S_P^-1 (level
    reduced, on the n trace dofs), applied exactly."""

    spec: PreconditionerSpec
    system: BlockSystem          # the assembled inner product
    n: int
    S: sp.csr_matrix             # the reduced trace operator S_P
    _factor: object              # factor_spd(S)
    _condensed: CondensedSystem | None = None   # full level: X, for the lift
    _cell_solve: Callable | None = None         # full level: r_cell -> P11^-1 r_cell

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self._cell_solve is None:
            return self._factor.solve(r)
        r_cell, r_trace = self.system.layout.split(r)
        y = self._cell_solve(r_cell)
        xbar = self._factor.solve(_trace_load(self.system, r_trace, y))
        return back_substitute(self._condensed, xbar, y)


def _cell_solve(system: BlockSystem) -> Callable:
    """r_cell (cells, cell dofs) -> P11^-1 r_cell."""
    if system.coupling is None:
        a11 = system.a11
        inv = _solve_cells(a11, np.broadcast_to(np.eye(a11.shape[1]), a11.shape), spd=True)
        if inv is None:
            raise NotSymmetricPositiveDefinite("P11 cell block inverse is not finite")
        return lambda r: np.einsum("bij,bj->bi", inv, r)
    nct = system.layout.n_cell_total
    factor = factor_spd(system.to_sparse()[:nct, :nct], reorder=True)
    return lambda r: factor.solve(r.ravel()).reshape(r.shape)


def _build(level: str, spec: PreconditionerSpec, mesh, spaces,
           params: ProblemParams) -> PrecondOperator:
    if spec.level != level:
        raise ValueError(f"spec.level must be {level!r}")
    system = assemble_inner(spec, mesh, spaces, params)
    condensed = condense_precond(system)
    factor = factor_spd(condensed.S)
    if level == "reduced":
        return PrecondOperator(spec, system, condensed.n_trace, condensed.S, factor)
    return PrecondOperator(spec, system, system.layout.n_total, condensed.S, factor,
                           condensed, _cell_solve(system))


def build_full(spec: PreconditionerSpec, mesh, spaces,
               params: ProblemParams) -> PrecondOperator:
    """Exact application of the full (uncondensed) preconditioner P^-1."""
    return _build("full", spec, mesh, spaces, params)


def build_reduced(spec: PreconditionerSpec, mesh, spaces,
                  params: ProblemParams) -> PrecondOperator:
    """Reduced preconditioner S_P^-1: condense the inner product, factor
    the SPD trace operator once."""
    return _build("reduced", spec, mesh, spaces, params)
