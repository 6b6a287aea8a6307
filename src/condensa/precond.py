"""Preconditioner application operators, full and reduced.

Every preconditioner here is applied exactly: block-diagonal pieces by
explicit per-cell inverses, globally coupled pieces by a sparse SPD
factorization.  A batched Cholesky of the cell blocks, computed only as
a check, and the sparse factorization certify positivity: their failure
is the (intended) certificate that a block is not positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (BlockSystem, ProblemParams, assemble_counterexample_inner,
                       assemble_darcy_inner, assemble_stokes_inner)
from .condense import condense_precond
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


class _CellBlockSolve:
    """Explicit per-cell inverses of a cell field's blocks (SPD certified
    by Cholesky)."""

    def __init__(self, system: BlockSystem, name: str):
        lay = system.layout
        sl = lay.cell_field_slice(name)
        blocks = system.a11[:, sl, sl]
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            raise NotSymmetricPositiveDefinite(
                f"cell block {name!r} is not positive definite") from exc
        self.inv = np.linalg.inv(blocks)
        self.idx = lay.indices(name).reshape(lay.mesh.n_cells, -1)

    def apply(self, r, out):
        out[self.idx] = np.einsum("bij,bj->bi", self.inv, r[self.idx])


class _SparseBlockSolve:
    """Sparse SPD factor of a subset of monolithic indices."""

    def __init__(self, K: sp.spmatrix, idx: np.ndarray, label: str):
        self.idx = idx
        try:
            self.factor = factor_spd(K)
        except NotSymmetricPositiveDefinite as exc:
            raise NotSymmetricPositiveDefinite(f"block {label!r}: {exc}") from exc

    def apply(self, r, out):
        out[self.idx] = self.factor.solve(r[self.idx])


@dataclass
class PrecondOperator:
    spec: PreconditionerSpec
    system: BlockSystem          # the assembled inner product
    _solves: list
    n: int
    S: sp.csr_matrix | None = None   # reduced trace operator, when level=reduced

    def apply(self, r: np.ndarray) -> np.ndarray:
        out = np.empty(self.n)
        for s in self._solves:
            s.apply(np.asarray(r, dtype=float), out)
        return out

    __call__ = apply


def build_full(spec: PreconditionerSpec, mesh, spaces, params: ProblemParams,
               inner: BlockSystem | None = None) -> PrecondOperator:
    """Exact application of the full (uncondensed) preconditioner."""
    if spec.level != "full":
        raise ValueError("spec.level must be 'full'")
    system = assemble_inner(spec, mesh, spaces, params) if inner is None else inner
    lay = system.layout
    K = system.to_sparse().tocsr()
    solves = []
    if spec.problem == "darcy" and spec.kind == "robust":
        # velocity mass: per-cell; coupled (p, pbar): one sparse factor
        solves.append(_CellBlockSolve(system, "u"))
        idx = lay.indices("p", "pbar")
        solves.append(_SparseBlockSolve(K[idx][:, idx], idx, "pressure pair"))
    elif spec.problem == "darcy":
        # counterexample: velocity couples across cells through normal jumps
        idx_u = lay.indices("u")
        solves.append(_SparseBlockSolve(K[idx_u][:, idx_u], idx_u, "velocity+jumps"))
        solves.append(_CellBlockSolve(system, "p"))
        idx_pb = lay.indices("pbar")
        solves.append(_SparseBlockSolve(K[idx_pb][:, idx_pb], idx_pb, "trace mass"))
    else:
        # Stokes: coupled (u, ubar); p per-cell mass; pbar weighted mass
        idx_v = lay.indices("u", "ubar")
        solves.append(_SparseBlockSolve(K[idx_v][:, idx_v], idx_v, "velocity pair"))
        solves.append(_CellBlockSolve(system, "p"))
        idx_pb = lay.indices("pbar")
        solves.append(_SparseBlockSolve(K[idx_pb][:, idx_pb], idx_pb, "pressure trace"))
    return PrecondOperator(spec, system, solves, lay.n_total)


class _ReducedSolve:
    def __init__(self, S):
        self.factor = factor_spd(S)

    def apply(self, r, out):
        out[:] = self.factor.solve(r)


def build_reduced(spec: PreconditionerSpec, mesh, spaces, params: ProblemParams,
                  inner: BlockSystem | None = None) -> PrecondOperator:
    """Reduced preconditioner S_P^-1: condense the inner product, factor
    the SPD trace operator once."""
    if spec.level != "reduced":
        raise ValueError("spec.level must be 'reduced'")
    system = assemble_inner(spec, mesh, spaces, params) if inner is None else inner
    condensed = condense_precond(system)
    op = PrecondOperator(spec, system, [_ReducedSolve(condensed.S)],
                         condensed.n_trace, S=condensed.S)
    return op
