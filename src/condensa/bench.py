"""Experiment harness: parameter sweeps, iteration tables, measured
constants and reports.

Structured Kuhn meshes.  Default levels: n = 8, 16, 32 (2D) and 2, 4, 8
(3D) for a sweep, 4, 8 (2D) and 2 (3D) for a spectrum; with 2D n=64 they
span the desk-scale range.  Robustness in h and in the model parameters
is the claim under test, not exact cell counts.  The exact factor of S_P
eliminates in the mesh's nested-dissection facet order; its supernodal
Cholesky stores 43M entries at 3D n=12 (119,232 trace dofs) and 134.4M
at 3D n=16 (285,696 trace dofs).  A row builds its preconditioner before
it assembles the scheme, so the row's peak comes in the scheme's
condensation, while the factor is alive.  `scripts/row_peak.py` measures
one row's iterations, wall time and peak memory in a fresh process.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, fields
from itertools import product

import numpy as np

from .assembly import (ProblemParams, assemble_darcy, assemble_stokes,
                       darcy_spaces, stokes_spaces)
from .condense import back_substitute, condense
from .krylov import cg, minres
from .manufactured import manufactured_rhs
from .mesh import Mesh, unit_box_mesh, write_mesh_text
from .norms import l2_errors
from .precond import PreconditionerSpec, assemble_inner, build_full, build_reduced
from .spectra import (PROBE_SETS, SpectralReport, probe_constants, probe_names,
                      reduced_bounds_check)

__all__ = ["RunConfig", "ResultRow", "run", "spectrum", "emit", "EXPERIMENTS", "CSV_HEADER"]


# The RunConfig fields each experiment reads beyond experiment, dim, levels, k
# and eta; every sweep also reads SWEEP_READS, a spectrum its problem's sweep's.
# RunConfig refuses any other field off its default, naming it in backquotes.
READS = {
    "darcy-manufactured": ("xi", "gamma", "precond"),
    "darcy-heterogeneous": (),
    "darcy-counterexample": ("xi", "gamma"),
    "stokes-manufactured": ("nu", "zeta", "hatted"),
    "stokes-cavity": ("nu", "zeta", "hatted"),
    "spectrum": ("problem", "probes"),
}
SWEEP_READS = ("tol", "maxit", "timing", "mesh_out", "dump_matrices")
EXPERIMENTS = tuple(READS)
DEFAULT_LEVELS = {2: ((8, 16, 32), (4, 8)), 3: ((2, 4, 8), (2,))}   # (sweep, spectrum)


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    dim: int = 2
    levels: tuple | None = None       # None: DEFAULT_LEVELS
    k: int = 2
    eta: float | None = None
    xi: tuple = (1.0,)
    gamma: tuple = (1.0,)
    nu: tuple = (1.0,)
    zeta: tuple = (0.0,)
    precond: str = "robust"
    hatted: bool = False
    tol: float | None = None
    maxit: int = 999
    timing: bool = True
    mesh_out: str | None = None
    dump_matrices: str | None = None
    problem: str = "darcy"            # spectrum: whose constants it measures
    probes: tuple | None = None       # spectrum: None is the problem's set

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.problem not in PROBE_SETS:
            raise ValueError(f"unknown problem {self.problem!r}")
        spectrum = self.experiment == "spectrum"
        own = self.problem if spectrum else self.experiment.split("-")[0]
        reads = ("experiment", "dim", "levels", "k", "eta") + READS[self.experiment] + (
            READS[f"{own}-manufactured"] if spectrum else SWEEP_READS)
        unread = []
        for f in fields(self):   # a field only another problem reads says whose it is
            if f.name not in reads and getattr(self, f.name) != f.default:
                by = {e.split("-")[0] for e, names in READS.items() if f.name in names} - {own}
                unread.append(f"`{f.name}`" + (f" ({by.pop().title()}-only)" if by else ""))
        if unread:
            raise ValueError(f"{self.experiment} does not read {', '.join(unread)}")
        probe_names(self.problem, self.probes)
        if self.levels is None:
            object.__setattr__(self, "levels", DEFAULT_LEVELS[self.dim][spectrum])
        for name, values in (("levels", self.levels), ("k", (self.k,)),
                             ("maxit", (self.maxit,))):
            if min(values) < 1:
                raise ValueError(f"`{name}` must be at least 1, got "
                                 + ",".join(map(str, values)))
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ValueError(f"`tol` must be positive and finite, got {self.tol}")

    def tolerance(self) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-8 if self.experiment.startswith("stokes") else 1e-10

    def params(self, xi=1.0, gamma=1.0, nu=1.0, zeta=0.0) -> ProblemParams:
        return ProblemParams(k=self.k, xi=xi, gamma=gamma, nu=nu,
                             zeta=zeta, eta=self.eta)


@dataclass
class ResultRow:
    experiment: str
    dim: int
    level: int
    cells: int
    trace_dofs: int
    xi: float | str
    gamma: float | str
    nu: float
    zeta: float
    precond: str
    iters: int
    converged: bool
    resid: float | None
    err_u: float | None = None
    err_p: float | None = None
    seconds: float = 0.0
    failed: str | None = None
    warnings: int = 0            # RuntimeWarnings raised by the row (JSON only)

    def iters_text(self) -> str:
        """The iteration cell: the count, ">count" when the solve ran out of
        iterations (cg and minres then report maxit), or "failed"."""
        if self.failed:
            return "failed"
        return str(self.iters) if self.converged else f">{self.iters}"


# csv and md write every ResultRow field but the JSON-only failed and warnings
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name not in ("failed", "warnings"))
CSV_HEADER = ",".join(CSV_COLUMNS)


def _cases(config: RunConfig):
    """(n, pdict, spec, mesh, spaces) of every case, in deterministic config
    order, level by level: each level's mesh is built once (the 2D cavity
    is (-1,1)^2), each case's spaces on it.  A spectrum sweeps the cases
    of its problem's manufactured experiment."""
    exp = (f"{config.problem}-manufactured" if config.experiment == "spectrum"
           else config.experiment)
    kind, levels = (("counterexample", ("full", "reduced")) if exp == "darcy-counterexample"
                    else (config.precond, ("reduced",)))
    if exp.startswith("darcy"):
        sweep = ([(1.0, 1.0)] if exp == "darcy-heterogeneous"
                 else product(config.xi, config.gamma))
        cases = [({"xi": x, "gamma": g}, PreconditionerSpec("darcy", kind, level))
                 for (x, g), level in product(sweep, levels)]
    else:
        cases = [({"nu": nu, "zeta": zeta},
                  PreconditionerSpec("stokes", kind, "reduced", zeta=zeta, hatted=config.hatted))
                 for nu, zeta in product(config.nu, config.zeta)]
    box = ((-1.0, -1.0), (2.0, 2.0)) if exp == "stokes-cavity" and config.dim == 2 else ()
    for n in config.levels:
        mesh = unit_box_mesh(config.dim, n, *box)
        for pdict, spec in cases:
            spaces = (darcy_spaces if spec.problem == "darcy" else stokes_spaces)(mesh, config.k)
            yield n, pdict, spec, mesh, spaces


def _case(config: RunConfig, pdict: dict):
    """(params, case): one row's parameters and its manufactured case, the
    heterogeneous case's coefficient functions in params.  A spectrum case
    is the bare operator: no load, no boundary data, case None."""
    params = config.params(**pdict)
    case = None
    if config.experiment != "spectrum":
        tag = {"darcy-manufactured": "darcy", "darcy-counterexample": "darcy",
               "stokes-manufactured": "stokes"}.get(config.experiment, config.experiment)
        case = manufactured_rhs(tag, config.dim, params)
        if case.xi_fn is not None:
            params = config.params(xi=case.xi_fn, gamma=case.gamma_fn)
    return params, case


def _assemble_case(mesh: Mesh, spaces: dict, params: ProblemParams, case,
                   spec: PreconditionerSpec):
    """The scheme one row solves, loaded with the case's data."""
    f, bc = (None, None) if case is None else (case.f, case.dirichlet)
    if spec.problem == "darcy":
        return assemble_darcy(mesh, spaces, params, f=f, p_dirichlet=bc)
    return assemble_stokes(mesh, spaces, params, f=f, u_dirichlet=bc)


def _solve_case(config: RunConfig, mesh: Mesh, n: int, pdict: dict,
                spec: PreconditionerSpec, spaces: dict) -> dict:
    """The row fields a solve measures: iterations, residual, errors, seconds.

    The preconditioner is built before the scheme is assembled and dropped
    when the Krylov solve returns, so the S_P factor's peak never meets
    the scheme's arrays."""
    t0 = time.perf_counter()
    tol = config.tolerance()
    errs: dict = {}
    params, case = _case(config, pdict)
    reduced = spec.level == "reduced"
    pre = (build_reduced if reduced else build_full)(spec, mesh, spaces, params)
    system = _assemble_case(mesh, spaces, params, case, spec)
    if reduced:
        condensed = condense(system)
        A, b, null = condensed.S, condensed.rhs, condensed.null_vectors
    else:
        A, b, null = system.to_sparse(), system.rhs(), system.null_vectors
    krylov = cg if reduced and spec.problem == "darcy" else minres
    x, rep = krylov(lambda v: A @ v, pre.apply, b, tol=tol, maxit=config.maxit,
                    deflate=null)
    del pre
    full = back_substitute(condensed, x) if reduced else x
    if case.exact_u is not None:
        errs = l2_errors(system, full, exact_u=case.exact_u, exact_p=case.exact_p,
                         shift_p_mean=spec.problem == "stokes")

    seconds = time.perf_counter() - t0 if config.timing else 0.0
    return dict(iters=rep.iterations, converged=rep.converged, resid=float(rep.final_relative),
                err_u=errs.get("err_u"), err_p=errs.get("err_p"), seconds=seconds)


def _row(config: RunConfig, n: int, pdict: dict, spec: PreconditionerSpec,
         **fields) -> ResultRow:
    """One case's row, solved or failed; the heterogeneous experiment's
    coefficients are functions and read "fn"."""
    fn = config.experiment == "darcy-heterogeneous"
    return ResultRow(experiment=config.experiment, dim=config.dim, level=n,
                     xi="fn" if fn else float(pdict.get("xi", 1.0)),
                     gamma="fn" if fn else float(pdict.get("gamma", 1.0)),
                     nu=float(pdict.get("nu", 1.0)), zeta=float(pdict.get("zeta", 0.0)),
                     precond=spec.label(), **fields)


def run(config: RunConfig) -> list[ResultRow]:
    """Execute a sweep; rows are returned in deterministic config order.

    Row failures are recorded (failed column) and the sweep continues; a
    failed row still records its level's cells and trace dofs.
    Each row counts the RuntimeWarnings raised while it ran (for example
    CG residual growth) in its warnings field; other warnings pass on.
    """
    if config.experiment == "spectrum":
        raise ValueError("run() does not drive spectrum; spectrum() measures it")
    rows = []
    for n, pdict, spec, mesh, spaces in _cases(config):
        first = not rows
        if first and config.mesh_out:
            write_mesh_text(mesh, config.mesh_out)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                if first and config.dump_matrices:
                    _dump_matrices(config, mesh, n, pdict, spec, spaces)
                solved = _solve_case(config, mesh, n, pdict, spec, spaces)
            except Exception as exc:  # row-level containment, sweep continues
                solved = dict(iters=0, converged=False, resid=None,
                              failed=f"{type(exc).__name__}: {exc}")
        row = _row(config, n, pdict, spec, cells=mesh.n_cells,
                   trace_dofs=sum(s.n_free for s in spaces.values() if s.is_facet), **solved)
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                row.warnings += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        rows.append(row)
    return rows


def _dump_matrices(config: RunConfig, mesh: Mesh, n: int, pdict: dict,
                   spec: PreconditionerSpec, spaces: dict):
    """Coordinate-list text dump (1-based) of the first row's operators,
    written once its scheme is assembled and condensed."""
    system = _assemble_case(mesh, spaces, *_case(config, pdict), spec)
    operators = (("monolithic", system.to_sparse()), ("schur", condense(system).S))
    os.makedirs(config.dump_matrices, exist_ok=True)
    for name, M in operators:
        coo = M.tocoo()
        path = f"{config.dump_matrices}/{config.experiment}-n{n}-{name}.txt"
        with open(path, "w") as fh:
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def spectrum(config: RunConfig) -> list[dict]:
    """Measured constants of every case of config.problem's sweep: Darcy
    sweeps xi x gamma under config.precond, Stokes nu x zeta (hatted with
    config.hatted).  Each case gives its reduced_bounds_check row, then its
    probe row (config.probes, default the problem's set, measured on the
    case's mesh), both with the level and the label
    "<spec label>;<param>=<value>;...".  A case that fails gives the one
    row {"level", "label", "failed": "<Type>: <msg>"} instead, which stands
    for the warnings it raised, and the cases after it still run."""
    rows = []
    for n, pdict, spec, mesh, spaces in _cases(config):
        label = ";".join([spec.label()] + [f"{k}={v:g}" for k, v in pdict.items()])
        with warnings.catch_warnings(record=True) as caught:
            try:
                params, case = _case(config, pdict)
                system = _assemble_case(mesh, spaces, params, case, spec)
                rep = reduced_bounds_check(system, assemble_inner(spec, mesh, spaces, params))
                SpectralReport(*(rep[k] for k in ("c_b", "c_i", "kappa_full",
                                                  "kappa_reduced", "c_l"))).validate()
                probes = probe_constants(config.problem, mesh, params, config.probes)
            except Exception as exc:  # case-level containment, the other cases run
                rows.append({"level": n, "label": label,
                             "failed": f"{type(exc).__name__}: {exc}"})
                continue
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        rows += [{**rep, "level": n, "label": label},
                 {"level": n, "cells": mesh.n_cells, **probes, "label": label}]
    return rows


# ----------------------------------------------------------------------
# output


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit(rows: list[ResultRow], fmt: str = "csv", path=None) -> str:
    """Serialize rows; returns the text (and writes it when path given)."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(r.iters_text() if c == "iters" else _fmt(getattr(r, c))
                                         for c in CSV_COLUMNS) for r in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "md":
        text = _emit_markdown(rows)
    elif fmt == "json":   # a non-finite float is written as null: JSON has no NaN
        text = json.dumps([{k: None if isinstance(v, float) and not math.isfinite(v) else v
                            for k, v in asdict(r).items()} for r in rows],
                          indent=1, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _emit_markdown(rows) -> str:
    """Markdown table: one line per level, headed by its cell count (a
    failed row records none), parameter and preconditioner combinations
    as columns, iteration cells inside."""
    def key(r):
        return f"{r.precond} xi={_fmt(r.xi)} g={_fmt(r.gamma)} nu={_fmt(r.nu)} z={_fmt(r.zeta)}"

    columns = list(dict.fromkeys(map(key, rows)))
    lines = ["| cells | " + " | ".join(columns) + " |", "|---" * (len(columns) + 1) + "|"]
    for lev in sorted({r.level for r in rows}):
        here = [r for r in rows if r.level == lev]
        vals = [next((r.iters_text() for r in here if key(r) == c), "") for c in columns]
        lines.append(f"| {max(r.cells for r in here)} | " + " | ".join(vals) + " |")
    return "\n".join(lines) + "\n"
