"""Correctness checks on the outcomes of a pass, run outside timed regions.

A check that misses appends a message to the operation's
``checks_failed``; such an operation counts as failed.  The iteration
bands are those of the acceptance suite: criterion 2 (robust Darcy CG)
and criterion 5 (Stokes MINRES).
"""

from __future__ import annotations

import math

from condensa.spectra import SpectralReport

DARCY_CG_MAX = {2: 60, 3: 90}          # criterion 2
DARCY_CG_RATIO = {2: 2.0, 3: 2.2}      # criterion 2, max/min over a sweep
STOKES_MINRES_MAX = 130                # criterion 5
# ||K x - rhs|| / ||rhs|| of the monolithic solution.  A wrong solve or
# back-substitution leaves a residual of order one.  A right one can sit
# far above the Krylov tolerance, which bounds a preconditioned residual:
# for Stokes the residual grows like tol / nu, to 3e-4 at nu = 1e-6.
RESIDUAL_MAX = 1e-3
# probe constants may come from ARPACK, whose start vector differs per call
PROBE_RTOL = 1e-8

# fields that must agree exactly between passes
ROW_FIELDS = ("iters", "converged", "err_u", "err_p")


def failed(o: dict) -> bool:
    return o["failed_layer"] is not None or bool(o["checks_failed"])


def _miss(o, msg):
    o["checks_failed"].append(msg)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _check_row(o, traced: bool):
    if not o["converged"]:
        _miss(o, f"did not converge in {o['iters']} iterations")
        return
    its, dim = o["iters"], o["dim"]
    if o["experiment"] == "darcy-manufactured":
        if its > DARCY_CG_MAX[dim]:
            _miss(o, f"Darcy CG {its} > {DARCY_CG_MAX[dim]}")
    elif o["experiment"] == "stokes-manufactured":
        if its > STOKES_MINRES_MAX:
            _miss(o, f"Stokes MINRES {its} > {STOKES_MINRES_MAX}")
    for key in ("err_u", "err_p"):
        if not (_finite(o[key]) and o[key] > 0):
            _miss(o, f"{key} = {o[key]} is not positive and finite")
    if traced and not o["monolithic_residual"] <= RESIDUAL_MAX:
        _miss(o, f"monolithic residual {o['monolithic_residual']:.3g} > {RESIDUAL_MAX:g}")


def _check_bounds(o):
    r = o["report"]
    try:
        SpectralReport(c_b=r["c_b"], c_i=r["c_i"], kappa_full=r["kappa_full"],
                       kappa_reduced=r["kappa_reduced"], c_l=r["c_l"]).validate()
    except ValueError as exc:
        _miss(o, f"SpectralReport.validate: {exc}")
    if not (r["upper_ok"] and r["lower_ok"]):
        _miss(o, f"bounds upper_ok={r['upper_ok']} lower_ok={r['lower_ok']}")


def _check_probe(o):
    for k, v in o["values"].items():
        if not (_finite(v) and v > 0):
            _miss(o, f"probe constant {k} = {v} is not positive and finite")


def check_pass(outcomes: list[dict], traced: bool) -> None:
    """Per-operation checks, then the checks across the rows of a pass."""
    for o in outcomes:
        if o["failed_layer"] is not None:
            continue
        if o["kind"] == "row":
            _check_row(o, traced)
        elif o["kind"] == "bounds":
            _check_bounds(o)
        else:
            _check_probe(o)
    rows = [o for o in outcomes if o["kind"] == "row" and not failed(o)]
    for dim in (2, 3):
        darcy = [o for o in rows if o["experiment"] == "darcy-manufactured" and o["dim"] == dim]
        if darcy:
            its = [o["iters"] for o in darcy]
            if max(its) > DARCY_CG_RATIO[dim] * min(its):
                for o in darcy:
                    _miss(o, f"Darcy {dim}D CG spread {min(its)}-{max(its)} "
                             f"exceeds x{DARCY_CG_RATIO[dim]}")
    full = {o["id"].replace("counterexample-full", ""): o for o in rows
            if o["precond"] == "counterexample-full"}
    for o in rows:
        if o["precond"] == "counterexample-reduced":
            mate = full.get(o["id"].replace("counterexample-reduced", ""))
            if mate is not None and not o["iters"] > mate["iters"]:
                _miss(o, f"reduced counterexample CG {o['iters']} not above "
                         f"full MINRES {mate['iters']}")


def _same(a, b, rtol=0.0) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def check_equal(reference: list[dict], other: list[dict], what: str) -> None:
    """``other`` must reproduce ``reference``: row iteration counts and
    errors and bounds reports exactly, probe constants to PROBE_RTOL."""
    for ref, o in zip(reference, other):
        if failed(ref) or failed(o):
            continue
        if o["kind"] == "row":
            pairs = [(k, ref[k], o[k], 0.0) for k in ROW_FIELDS]
        elif o["kind"] == "bounds":
            pairs = [(k, v, o["report"][k], 0.0) for k, v in ref["report"].items()]
        else:
            pairs = [(k, v, o["values"][k], PROBE_RTOL) for k, v in ref["values"].items()]
        for key, a, b, rtol in pairs:
            if not _same(a, b, rtol):
                _miss(o, f"{what}: {key} {b!r} differs from {a!r}")
