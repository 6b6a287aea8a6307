"""Preconditioner application operators, full and reduced.

Each level applies its operator exactly by one sparse factor, the only
thing it keeps, and releases the inner product P before factor_spd runs.

The full level applies P^-1: one factor of the whole P,
factor_spd(P, reorder=True), in SuperLU's minimum-degree order, since the
monolithic dofs have no trace structure to order by.  P's cell blocks are
certified positive definite first, by Cholesky cell by cell, so that a
failing block is named by its cell.  P11 is block diagonal over cells,
except in the counterexample, whose normal-jump term couples cells; one
factor serves both.

The reduced level applies S_P^-1: condense_precond of P eliminates its
cell dofs cell by cell, certifying each cell block in the same way, and
factor_spd factors the trace operator S_P, certifying it in turn.  S_P
arrives in a fill-reducing order: trace dofs are facet-major and the mesh
numbers facets by nested dissection, so factor_spd eliminates it as
given, by the supernodal multifrontal Cholesky once it is large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (BlockSystem, ProblemParams, assemble_counterexample_inner,
                       assemble_darcy_inner, assemble_stokes_inner)
from .condense import _solve_cells, condense_precond
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
    reduced, on the n trace dofs), applied exactly by the one sparse
    factor it keeps: of P, or of S_P."""

    n: int
    factor: object                  # factor_spd(P) or factor_spd(S_P)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.factor.solve(np.asarray(r, dtype=float))


def _build(level: str, spec: PreconditionerSpec, mesh, spaces,
           params: ProblemParams) -> PrecondOperator:
    if spec.level != level:
        raise ValueError(f"spec.level must be {level!r}")
    inner = assemble_inner(spec, mesh, spaces, params)
    full = level == "full"
    if full:
        _solve_cells(inner.a11, None, spd=True)   # names a failing cell block
    A = inner.to_sparse() if full else condense_precond(inner).S
    del inner   # the BlockSystem goes before the factor, the row's peak
    return PrecondOperator(A.shape[0], factor_spd(A, reorder=full))


def build_full(spec: PreconditionerSpec, mesh, spaces,
               params: ProblemParams) -> PrecondOperator:
    """Exact application of the full (uncondensed) preconditioner P^-1:
    certify P's cell blocks, release the inner product, factor P once."""
    return _build("full", spec, mesh, spaces, params)


def build_reduced(spec: PreconditionerSpec, mesh, spaces,
                  params: ProblemParams) -> PrecondOperator:
    """Reduced preconditioner S_P^-1: condense the inner product, release
    it, factor the SPD trace operator once."""
    return _build("reduced", spec, mesh, spaces, params)
