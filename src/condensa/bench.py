"""Experiment harness: parameter sweeps, iteration tables, and reports.

Benchmark experiments on structured Kuhn meshes:
2D levels n in {8, 16, 32, 64} and 3D levels n in {2, 4, 8} cover the
desk-scale range; robustness in h and in the model parameters is the
claim under test, not exact cell counts.  3D n=16 is out of reach of the
exact sparse factor of S_P (its fill and memory grow too fast) and waits
for a scalable reduced preconditioner.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .assembly import (ProblemParams, assemble_darcy, assemble_stokes,
                       darcy_spaces, stokes_spaces)
from .condense import back_substitute, condense
from .krylov import cg, minres
from .manufactured import manufactured_rhs
from .mesh import Mesh, unit_box_mesh, write_mesh_text
from .norms import l2_errors
from .precond import PreconditionerSpec, build_full, build_reduced

__all__ = ["RunConfig", "ResultRow", "run", "emit", "parse_json_rows",
           "EXPERIMENTS", "CSV_HEADER"]

EXPERIMENTS = ("darcy-manufactured", "darcy-heterogeneous", "darcy-counterexample",
               "stokes-manufactured", "stokes-cavity", "spectrum", "convergence")

CSV_HEADER = ("experiment,dim,level,cells,trace_dofs,xi,gamma,nu,zeta,"
              "precond,iters,converged,resid,err_u,err_p,seconds")


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    dim: int = 2
    levels: tuple = (8, 16, 32)
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

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")

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

    def iters_text(self, maxit: int = 999) -> str:
        return str(self.iters) if self.converged else f">{maxit}"


def _domain(config: RunConfig):
    if config.experiment == "stokes-cavity" and config.dim == 2:
        return (-1.0, -1.0), (2.0, 2.0)
    return None, None


def _mesh_for(config: RunConfig, n: int) -> Mesh:
    origin, extent = _domain(config)
    return unit_box_mesh(config.dim, n, origin=origin, extent=extent)


def _row_cases(config: RunConfig):
    """Deterministic config-order enumeration of (level, params, spec)."""
    cases = []
    exp = config.experiment
    for n in config.levels:
        if exp in ("darcy-manufactured", "convergence", "darcy-heterogeneous"):
            sweep = ([(1.0, 1.0)] if exp == "darcy-heterogeneous"
                     else [(x, g) for x in config.xi for g in config.gamma])
            for x, g in sweep:
                spec = PreconditionerSpec("darcy", config.precond, "reduced")
                cases.append((n, {"xi": x, "gamma": g}, spec))
        elif exp == "darcy-counterexample":
            for x, g in [(x, g) for x in config.xi for g in config.gamma]:
                for level in ("full", "reduced"):
                    spec = PreconditionerSpec("darcy", "counterexample", level)
                    cases.append((n, {"xi": x, "gamma": g}, spec))
        elif exp in ("stokes-manufactured", "stokes-cavity"):
            for nu in config.nu:
                for zeta in config.zeta:
                    spec = PreconditionerSpec("stokes", "robust", "reduced",
                                              zeta=zeta, hatted=config.hatted)
                    cases.append((n, {"nu": nu, "zeta": zeta}, spec))
        else:
            raise ValueError(f"run() does not drive experiment {exp!r}")
    return cases


def _solve_case(config: RunConfig, n: int, pdict: dict, spec: PreconditionerSpec):
    t0 = time.perf_counter()
    exp = config.experiment
    mesh = _mesh_for(config, n)
    params = config.params(**pdict)
    tol = config.tolerance()
    errs: dict = {}

    if spec.problem == "darcy":
        if exp == "darcy-heterogeneous":
            case = manufactured_rhs("darcy-heterogeneous", config.dim, params)
            params = config.params(xi=case.xi_fn, gamma=case.gamma_fn)
        else:
            case = manufactured_rhs("darcy", config.dim, params)
        spaces = darcy_spaces(mesh, config.k)
        system = assemble_darcy(mesh, spaces, params, f=case.f,
                                p_dirichlet=case.dirichlet)
        condensed = condense(system)
        if spec.level == "reduced":
            pre = build_reduced(spec, mesh, spaces, params)
            x, rep = cg(lambda v: condensed.S @ v, pre.apply, condensed.rhs,
                        tol=tol, maxit=config.maxit)
            full = back_substitute(condensed, x)
        else:
            pre = build_full(spec, mesh, spaces, params)
            K = system.to_sparse()
            full, rep = minres(lambda v: K @ v, pre.apply, system.rhs(),
                               tol=tol, maxit=config.maxit)
        if case.exact_u is not None:
            errs = l2_errors(system, full, exact_u=case.exact_u, exact_p=case.exact_p)
    else:
        tag = "stokes-cavity" if exp == "stokes-cavity" else "stokes"
        case = manufactured_rhs(tag, config.dim, params)
        spaces = stokes_spaces(mesh, config.k)
        system = assemble_stokes(mesh, spaces, params, f=case.f,
                                 u_dirichlet=case.dirichlet)
        condensed = condense(system)
        pre = build_reduced(spec, mesh, spaces, params)
        x, rep = minres(lambda v: condensed.S @ v, pre.apply, condensed.rhs,
                        tol=tol, maxit=config.maxit,
                        deflate=condensed.null_vectors)
        full = back_substitute(condensed, x)
        if case.exact_u is not None:
            errs = l2_errors(system, full, exact_u=case.exact_u,
                             exact_p=case.exact_p, shift_p_mean=True)

    seconds = time.perf_counter() - t0 if config.timing else 0.0
    return ResultRow(
        experiment=exp, dim=config.dim, level=n, cells=mesh.n_cells,
        trace_dofs=condensed.n_trace,
        xi=("fn" if callable(params.xi) else float(params.xi)),
        gamma=("fn" if callable(params.gamma) else float(params.gamma)),
        nu=float(params.nu), zeta=float(params.zeta),
        precond=spec.label(), iters=rep.iterations, converged=rep.converged,
        resid=float(rep.final_relative),
        err_u=errs.get("err_u"), err_p=errs.get("err_p"), seconds=seconds)


def run(config: RunConfig) -> list[ResultRow]:
    """Execute a sweep; rows are returned in deterministic config order.

    Row failures are recorded (failed column) and the sweep continues.
    """
    if config.mesh_out:
        write_mesh_text(_mesh_for(config, config.levels[0]), config.mesh_out)
    rows = []
    for n, pdict, spec in _row_cases(config):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rows.append(_solve_case(config, n, pdict, spec))
        except Exception as exc:  # row-level containment, sweep continues
            rows.append(ResultRow(
                experiment=config.experiment, dim=config.dim, level=n, cells=0,
                trace_dofs=0, xi=pdict.get("xi", 1.0), gamma=pdict.get("gamma", 1.0),
                nu=pdict.get("nu", 1.0), zeta=pdict.get("zeta", 0.0),
                precond=spec.label(), iters=0, converged=False, resid=None,
                failed=f"{type(exc).__name__}: {exc}"))
    if config.dump_matrices:
        _dump_matrices(config, rows)
    return rows


def _dump_matrices(config: RunConfig, rows):
    """Coordinate-list text dump (1-based) of the first level's operators."""
    import os

    os.makedirs(config.dump_matrices, exist_ok=True)
    n = config.levels[0]
    mesh = _mesh_for(config, n)
    if config.experiment.startswith("stokes"):
        params = config.params(nu=config.nu[0], zeta=config.zeta[0])
        case = manufactured_rhs("stokes-cavity" if config.experiment == "stokes-cavity"
                                else "stokes", config.dim, params)
        system = assemble_stokes(mesh, stokes_spaces(mesh, config.k), params,
                                 f=case.f, u_dirichlet=case.dirichlet)
    else:
        params = config.params(xi=config.xi[0], gamma=config.gamma[0])
        case = manufactured_rhs("darcy", config.dim, params)
        system = assemble_darcy(mesh, darcy_spaces(mesh, config.k), params,
                                f=case.f, p_dirichlet=case.dirichlet)
    for name, M in (("monolithic", system.to_sparse()),
                    ("schur", condense(system).S)):
        coo = M.tocoo()
        path = f"{config.dump_matrices}/{config.experiment}-n{n}-{name}.txt"
        with open(path, "w") as fh:
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r + 1} {c + 1} {v!r}\n")


# ----------------------------------------------------------------------
# output


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit(rows: list[ResultRow], fmt: str = "csv", path=None, maxit: int = 999) -> str:
    """Serialize rows; returns the text (and writes it when path given)."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(",".join([
                r.experiment, str(r.dim), str(r.level), str(r.cells),
                str(r.trace_dofs), _fmt(r.xi), _fmt(r.gamma), _fmt(r.nu),
                _fmt(r.zeta), r.precond, r.iters_text(maxit),
                str(r.converged), _fmt(r.resid), _fmt(r.err_u), _fmt(r.err_p),
                _fmt(r.seconds)]))
        text = "\n".join(lines) + "\n"
    elif fmt == "md":
        text = _emit_markdown(rows, maxit)
    elif fmt == "json":
        text = json.dumps([asdict(r) for r in rows], indent=1) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _emit_markdown(rows, maxit) -> str:
    """Markdown table: levels as rows, parameter and preconditioner
    combinations as columns, iteration counts inside."""
    def key(r):
        return f"{r.precond} xi={_fmt(r.xi)} g={_fmt(r.gamma)} nu={_fmt(r.nu)} z={_fmt(r.zeta)}"

    levels = sorted({(r.level, r.cells) for r in rows})
    columns = []
    for r in rows:
        if key(r) not in columns:
            columns.append(key(r))
    head = "| cells | " + " | ".join(columns) + " |"
    sep = "|---" * (len(columns) + 1) + "|"
    lines = [head, sep]
    for lev, cells in levels:
        vals = []
        for c in columns:
            match = [r for r in rows if r.level == lev and key(r) == c]
            vals.append(match[0].iters_text(maxit) if match else "")
        lines.append(f"| {cells} | " + " | ".join(vals) + " |")
    return "\n".join(lines) + "\n"


def parse_json_rows(text: str) -> list[ResultRow]:
    return [ResultRow(**d) for d in json.loads(text)]
