"""Preconditioner application operators, full and reduced.

Both levels start from condense_precond of the inner product P, which
eliminates its cell dofs cell by cell, certifying each cell block
positive definite by Cholesky, and factor_spd factors the trace
operator S_P, certifying it in turn.  A condensed system keeps no
X = P11^-1 P21^T: the reduced preconditioner applies S_P^-1 and keeps
only its factor, and P is released before factor_spd runs, so S_P and the
factor are all it holds then.  The full one applies P^-1 exactly, as the
block LU of P around that same S_P:

    y = P11^-1 r_cell,   xbar = S_P^-1 (r_trace - P21 y),
    cells = y - X xbar_local,

applied every iteration, so it keeps X, taken from eliminate(P,
spd=True), the elimination condense_precond runs and releases, and it
adds one cell solve: factor_spd of the whole cell group P11, in
minimum-degree order (reorder=True), since it has no trace structure to
order by.  P11 is block diagonal over cells, except in the counterexample,
whose normal-jump term couples cells (there P21 vanishes and S_P is P22);
one sparse factor serves both.

S_P arrives in a fill-reducing order: trace dofs are facet-major and the
mesh numbers facets by nested dissection, so factor_spd eliminates it as
given, by the supernodal multifrontal Cholesky once it is large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (BlockSystem, ProblemParams, assemble_counterexample_inner,
                       assemble_darcy_inner, assemble_stokes_inner)
from .condense import _local_traces, _trace_load, condense_precond, eliminate
from .krylov import factor_spd

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
    if spec.zeta != params.zeta:
        raise ValueError(f"spec zeta {spec.zeta:g} differs from params zeta {params.zeta:g}")
    if spec.problem == "darcy":
        if spec.kind == "counterexample":
            return assemble_counterexample_inner(mesh, spaces, params)
        return assemble_darcy_inner(mesh, spaces, params)
    return assemble_stokes_inner(mesh, spaces, params, hatted=spec.hatted)


@dataclass
class PrecondOperator:
    """P^-1 (level full, on the n monolithic dofs) or S_P^-1 (level
    reduced, on the n trace dofs), applied exactly.  The reduced level
    keeps only the factor of S_P; the full level also keeps what its
    block LU reads: P, X from eliminate and the factor of P11."""

    n: int
    _factor: object                             # factor_spd(S_P)
    system: BlockSystem | None = None           # full level: the inner product P
    _X: np.ndarray | None = None                # full level: P11^-1 P21^T, for the lift
    _cells: object = None                       # full level: factor_spd(P11)

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self._cells is None:
            return self._factor.solve(r)
        system = self.system
        r_cell, r_trace = system.layout.split(r)
        y = self._cells.solve(r_cell.ravel()).reshape(r_cell.shape)
        xbar = self._factor.solve(_trace_load(system, r_trace, y))
        cells = y - np.einsum("bct,bt->bc", self._X, _local_traces(system.tids, xbar))
        return np.concatenate([cells.ravel(), xbar])


def _build(level: str, spec: PreconditionerSpec, mesh, spaces,
           params: ProblemParams) -> PrecondOperator:
    if spec.level != level:
        raise ValueError(f"spec.level must be {level!r}")
    inner = assemble_inner(spec, mesh, spaces, params)
    S_P = condense_precond(inner).S
    if level == "reduced":
        del inner   # P goes before the factor, the row's peak
        return PrecondOperator(S_P.shape[0], factor_spd(S_P))
    X, _ = eliminate(inner, spd=True)
    nct = inner.layout.n_cell_total
    return PrecondOperator(inner.layout.n_total, factor_spd(S_P), inner, X,
                           factor_spd(inner.to_sparse()[:nct, :nct], reorder=True))


def build_full(spec: PreconditionerSpec, mesh, spaces,
               params: ProblemParams) -> PrecondOperator:
    """Exact application of the full (uncondensed) preconditioner P^-1."""
    return _build("full", spec, mesh, spaces, params)


def build_reduced(spec: PreconditionerSpec, mesh, spaces,
                  params: ProblemParams) -> PrecondOperator:
    """Reduced preconditioner S_P^-1: condense the inner product, release
    it, factor the SPD trace operator once."""
    return _build("reduced", spec, mesh, spaces, params)
