"""One pass over a workload's steps, untraced or traced.

The untraced pass calls the entry points a condensa user calls:
``bench.run``, ``spectra.reduced_bounds_check`` and ``spectra.lemma_probes``.
The traced pass repeats the same operations one public layer call at a
time, in the order ``bench._solve_case`` and ``reduced_bounds_check`` make
them, with a span around each call.  Both return one outcome dict per
operation (a sweep row, a bounds check or a single probe).
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from condensa.assembly import (assemble_darcy, assemble_darcy_inner, assemble_stokes,
                               assemble_stokes_inner, darcy_spaces, stokes_spaces)
from condensa.bench import run
from condensa.condense import back_substitute, condense, condense_precond
from condensa.krylov import cg, factor_spd, generalized_eigs, minres
from condensa.manufactured import manufactured_rhs
from condensa.mesh import unit_box_mesh
from condensa.norms import l2_errors
from condensa.precond import PreconditionerSpec, assemble_inner, build_full
from condensa.spectra import (PROBE_SETS, lemma_probes, lifting_constant,
                              measure_constants, reduced_bounds_check)

from workloads import Bounds, Sweep

# the constants each probe reports (``lemma_probes`` merges them per level)
PROBE_KEYS = {
    "aux_coercivity": ("aux_coercivity_lo", "aux_coercivity_hi"),
    "darcy_lifting_vs_aux": ("lifting_vs_aux",),
    "inf_sup": ("beta",),
    "ch_coercivity": ("ch_coercivity_lo", "ch_coercivity_hi"),
    "condensed_velocity": ("condensed_velocity_lo", "condensed_velocity_hi"),
    "stokes_lifting": ("stokes_lifting_bound",),
}

# reduced_bounds_check's relative slack on the eigenvalue bounds
BOUNDS_TOL = 1e-8

COUNTERS = ("condense.cells", "condense.trace_dofs", "condense.nnz_S",
            "condense.nnz_SP", "condense.flops", "krylov.factor_fill",
            "krylov.iters", "krylov.warnings")


def _spaces_and_schemes(problem):
    if problem == "darcy":
        return darcy_spaces, assemble_darcy, assemble_darcy_inner
    return stokes_spaces, assemble_stokes, assemble_stokes_inner


def row_cases(config):
    """(level, parameters, spec) of each row, in ``bench.run`` order."""
    exp = config.experiment
    for n in config.levels:
        if exp == "darcy-manufactured":
            for x in config.xi:
                for g in config.gamma:
                    yield n, {"xi": x, "gamma": g}, PreconditionerSpec(
                        "darcy", config.precond, "reduced")
        elif exp == "darcy-counterexample":
            for x in config.xi:
                for g in config.gamma:
                    for level in ("full", "reduced"):
                        yield n, {"xi": x, "gamma": g}, PreconditionerSpec(
                            "darcy", "counterexample", level)
        elif exp == "stokes-manufactured":
            for nu in config.nu:
                for zeta in config.zeta:
                    yield n, {"nu": nu, "zeta": zeta}, PreconditionerSpec(
                        "stokes", "robust", "reduced", zeta=zeta, hatted=config.hatted)
        else:
            raise ValueError(f"the traced pass does not mirror experiment {exp!r}")


def _row_id(config, n, pdict, label) -> str:
    p = " ".join(f"{k}={v:.6g}" for k, v in pdict.items())
    return f"{config.experiment} {config.dim}D n={n} {label} {p}"


def _outcome(kind, op_id, **fields) -> dict:
    return {"kind": kind, "id": op_id, "failed_layer": None, "error": None,
            "checks_failed": [], **fields}


def _failure(outcome, layer, exc) -> dict:
    outcome["failed_layer"] = layer
    outcome["error"] = f"{type(exc).__name__}: {exc}"
    return outcome


def _bounds_systems(step: Bounds, call):
    """Mesh, spaces, scheme and inner product of a bounds check."""
    make_spaces, scheme, inner = _spaces_and_schemes(step.problem)
    mesh = call("mesh.build", unit_box_mesh, step.dim, step.n)
    spaces = call("spaces.build", make_spaces, mesh, step.params.k)
    return (call("assembly.scheme", scheme, mesh, spaces, step.params),
            call("assembly.inner", inner, mesh, spaces, step.params))


def _plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _bounds_id(step) -> str:
    return f"bounds {step.problem} {step.dim}D n={step.n}"


def _probe_id(step, name) -> str:
    return f"probe {name} {step.dim}D n={step.n}"


# ----------------------------------------------------------------------
# untraced pass


def untraced_pass(steps) -> list[dict]:
    out = []
    for step in steps:
        if isinstance(step, Sweep):
            cases = list(row_cases(step.config))
            for (n, pdict, spec), row in zip(cases, run(step.config)):
                o = _outcome("row", _row_id(step.config, n, pdict, row.precond),
                             experiment=row.experiment, dim=row.dim, level=row.level,
                             precond=row.precond, iters=row.iters,
                             converged=row.converged, resid=row.resid,
                             err_u=row.err_u, err_p=row.err_p)
                if row.failed:
                    o["failed_layer"], o["error"] = "bench", row.failed
                out.append(o)
        elif isinstance(step, Bounds):
            o = _outcome("bounds", _bounds_id(step))
            try:
                o["report"] = reduced_bounds_check(*_bounds_systems(step, _plain_call))
            except Exception as exc:  # contained to this operation
                _failure(o, "spectra", exc)
            out.append(o)
        else:
            names = PROBE_SETS[step.problem]
            try:
                (values,) = lemma_probes(step.problem, step.dim, (step.n,), step.params)
                error = None
            except Exception as exc:  # every probe of the set fails
                error = exc
            for name in names:
                o = _outcome("probe", _probe_id(step, name))
                if error is None:
                    o["values"] = {k: values.get(k) for k in PROBE_KEYS[name]}
                else:
                    _failure(o, "spectra", error)
                out.append(o)
    return out


# ----------------------------------------------------------------------
# traced pass


class TracedPass:
    """The traced pass; ``counters`` and ``check_seconds`` (time spent in
    correctness checks, which is not part of the traced wall) accumulate
    over it, and ``histories`` keeps each row's Krylov report."""

    def __init__(self, tracer):
        self.tr = tracer
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.check_seconds = 0.0
        self.histories: dict[str, object] = {}

    def run(self, steps) -> list[dict]:
        out = []
        for step in steps:
            if isinstance(step, Sweep):
                for n, pdict, spec in row_cases(step.config):
                    out.append(self._row(step.config, n, pdict, spec, len(out)))
            elif isinstance(step, Bounds):
                out.append(self._bounds(step, len(out)))
            else:
                for name in PROBE_SETS[step.problem]:
                    out.append(self._probe(step, name, len(out)))
        return out

    # -- sizes

    def _count_condense(self, condensed, cholesky: bool) -> None:
        c = self.counters
        a11 = condensed.system.a11
        m = float(a11.shape[1])
        t = (condensed.system.tids >= 0).sum(axis=1).astype(float)
        # local factor, solves for the t trace columns and the load,
        # then the products A21 X and A21 y
        factor = (1.0 if cholesky else 2.0) / 3.0 * m**3
        c["condense.flops"] += float(np.sum(factor + 2 * m * m * (t + 1) + 2 * m * t * (t + 1)))
        c["condense.cells"] += int(a11.shape[0])
        c["condense.trace_dofs"] += int(condensed.n_trace)
        c["condense.nnz_SP" if cholesky else "condense.nnz_S"] += int(condensed.S.nnz)

    def _count_factor(self, factor) -> None:
        lu = getattr(factor, "_lu", None)  # SuperLU object of an exact factor
        if lu is not None:
            self.counters["krylov.factor_fill"] += int(lu.L.nnz + lu.U.nnz)

    # -- operations

    def _row(self, config, n, pdict, spec, op) -> dict:
        self.tr.start_op(op)
        o = _outcome("row", _row_id(config, n, pdict, spec.label()),
                     experiment=config.experiment, dim=config.dim, level=n,
                     precond=spec.label())
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                system, full, K, rep, errs = self._solve(config, n, pdict, spec)
        except Exception as exc:  # contained to this row
            return _failure(o, self.tr.failed_layer or "bench", exc)
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        self.counters["krylov.iters"] += rep.iterations
        self.counters["krylov.warnings"] += len(warned)
        self.histories[o["id"]] = rep
        o.update(iters=rep.iterations, converged=rep.converged,
                 resid=float(rep.final_relative), err_u=errs.get("err_u"),
                 err_p=errs.get("err_p"), warnings=[str(w.message) for w in warned])
        t0 = time.perf_counter()
        K = system.to_sparse() if K is None else K
        b = system.rhs()
        o["monolithic_residual"] = float(np.linalg.norm(K @ full - b) / np.linalg.norm(b))
        self.check_seconds += time.perf_counter() - t0
        return o

    def _solve(self, config, n, pdict, spec):
        """``bench._solve_case`` one call at a time.  Its other objects are
        released on return, as they are there."""
        tr = self.tr
        params = config.params(**pdict)
        tol = config.tolerance()
        stokes = spec.problem == "stokes"
        make_spaces, scheme, _ = _spaces_and_schemes(spec.problem)
        mesh = tr.call("mesh.build", unit_box_mesh, config.dim, n)
        case = tr.call("manufactured.case", manufactured_rhs,
                       "stokes" if stokes else "darcy", config.dim, params)
        spaces = tr.call("spaces.build", make_spaces, mesh, config.k)
        data = {"u_dirichlet": case.dirichlet} if stokes else {"p_dirichlet": case.dirichlet}
        system = tr.call("assembly.scheme", scheme, mesh, spaces, params, f=case.f, **data)
        condensed = tr.call("condense.scheme", condense, system)
        self._count_condense(condensed, cholesky=False)
        K = None
        if spec.level == "full":
            pre = tr.call("precond.build_full", build_full, spec, mesh, spaces, params)
            K = tr.call("assembly.to_sparse", system.to_sparse)
            full, rep = tr.call("krylov.solve", minres,
                                tr.wrap("krylov.matvec", K.__matmul__),
                                tr.wrap("precond.apply", pre.apply), system.rhs(),
                                tol=tol, maxit=config.maxit)
        else:
            inner = tr.call("assembly.inner", assemble_inner, spec, mesh, spaces, params)
            reduced = tr.call("condense.precond", condense_precond, inner)
            self._count_condense(reduced, cholesky=True)
            S_P = reduced.S
            del reduced  # build_reduced keeps only S_P and its factor
            factor = tr.call("krylov.factor", factor_spd, S_P)
            self._count_factor(factor)
            krylov, extra = ((minres, {"deflate": condensed.null_vectors}) if stokes
                             else (cg, {}))
            x, rep = tr.call("krylov.solve", krylov,
                             tr.wrap("krylov.matvec", condensed.S.__matmul__),
                             tr.wrap("precond.apply", factor.solve), condensed.rhs,
                             tol=tol, maxit=config.maxit, **extra)
            full = tr.call("condense.backsub", back_substitute, condensed, x)
        errs = tr.call("norms.errors", l2_errors, system, full, exact_u=case.exact_u,
                       exact_p=case.exact_p, shift_p_mean=stokes)
        return system, full, K, rep, errs

    def _bounds(self, step, op) -> dict:
        """``reduced_bounds_check`` one call at a time."""
        tr = self.tr
        tr.start_op(op)
        o = _outcome("bounds", _bounds_id(step))
        try:
            system, inner = _bounds_systems(step, tr.call)
            kernel_dim = len(system.null_vectors)
            c_b, c_i, kappa = tr.call(
                "spectra.constants", measure_constants,
                tr.call("assembly.to_sparse", system.to_sparse),
                tr.call("assembly.to_sparse", inner.to_sparse), kernel_dim=kernel_dim)
            scheme = tr.call("condense.scheme", condense, system)
            self._count_condense(scheme, cholesky=False)
            reduced = tr.call("condense.precond", condense_precond, inner)
            self._count_condense(reduced, cholesky=True)
            c_l = tr.call("spectra.lifting", lifting_constant, system, inner, S_P=reduced.S)
            vals = tr.call("krylov.eigs", generalized_eigs, scheme.S, reduced.S,
                           mode="full", n_drop=kernel_dim)
        except Exception as exc:  # contained to this operation
            return _failure(o, tr.failed_layer or "bench", exc)
        a = np.abs(vals)
        lam_max, lam_min = float(a.max()), float(a.min())
        o["report"] = {
            "c_b": c_b, "c_i": c_i, "kappa_full": kappa, "c_l": c_l,
            "lam_max": lam_max, "lam_min": lam_min,
            "kappa_reduced": lam_max / lam_min,
            "upper_ok": lam_max <= c_l**2 * c_b * (1.0 + BOUNDS_TOL),
            "lower_ok": lam_min >= c_i * (1.0 - BOUNDS_TOL),
        }
        return o

    def _probe(self, step, name, op) -> dict:
        tr = self.tr
        tr.start_op(op)
        o = _outcome("probe", _probe_id(step, name))
        try:
            (values,) = tr.call(f"spectra.probe.{name}", lemma_probes, step.problem,
                                step.dim, (step.n,), step.params, probes=(name,))
        except Exception as exc:  # contained to this probe
            return _failure(o, tr.failed_layer or "bench", exc)
        o["values"] = {k: values.get(k) for k in PROBE_KEYS[name]}
        return o
