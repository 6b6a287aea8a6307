"""condensa benchmark: one workload, timed untraced, then traced once.

    python3 perfbench/run.py --workload sweep2d --seed 1 --seconds 18 --trace 0

Run from anywhere; the condensa sources are taken from ``src/`` next to
this directory.  One run:

1. set-up: ``SETUP_SAMPLES`` child processes each import condensa and run
   the warm-up (the workload at its smallest levels); ``setup_s`` is the
   median of their wall times.  This process then does the same once.
2. untraced passes over the workload, through the entry points a user
   calls, repeated until ``--seconds`` have passed; ``wall_s`` is the
   median pass time and ``peak_rss_mb`` the peak resident memory of the
   process once both kinds of pass are done.  Load model: one client in a closed loop, no threads of our own.
3. one traced pass: the same operations one layer call at a time, with a
   span around each call; it gives the per-layer metrics and checks each
   row's monolithic residual.  With ``--trace 0`` it runs before step 2,
   with ``--trace 1`` after it, so that the pass whose metrics are
   reported follows a pass at full size.
4. correctness checks on every pass, outside the timed regions.

Details go to ``.bench_out/<workload>-seed<seed>-trace<t>/`` (result,
spans, one residual history per row).  The last line of standard output
is the JSON result: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# reported on the line before the result; both can be 0, so neither is a
# bounded metric (failures also show in the result's ``failed`` count)
REPORTED = {"krylov_iters": "count", "failed_share": "share"}

SPAN_TIMES = ("mesh.build", "spaces.build", "manufactured.case", "assembly.scheme",
              "assembly.inner", "assembly.to_sparse", "condense.scheme",
              "condense.precond", "condense.backsub", "precond.build_full",
              "precond.apply", "krylov.factor", "krylov.matvec", "krylov.eigs",
              "spectra.constants", "spectra.lifting", "norms.errors")
PROBES = ("aux_coercivity", "darcy_lifting_vs_aux", "inf_sup", "ch_coercivity",
          "condensed_velocity", "stokes_lifting")
LAYERS = ("mesh", "spaces", "manufactured", "assembly", "condense", "precond",
          "krylov", "norms", "spectra", "bench", "check")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in output order."""
    from passes import COUNTERS

    units = {f"{name}_s": "s" for name in SPAN_TIMES}
    units.update({"krylov.solve_s": "s", "krylov.self_s": "s",
                  "krylov.matvecs": "count", "precond.applies": "count"})
    units.update({f"spectra.probe.{p}_s": "s" for p in PROBES})
    units.update({c: "flop" if c == "condense.flops" else "count" for c in COUNTERS})
    units.update({f"{layer}.failed": "count" for layer in LAYERS})
    units.update({"trace.overhead_s": "s", "trace.unattributed_s": "s"})
    return units


# ----------------------------------------------------------------------
# environment


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def _blas_threads() -> dict:
    """Thread counts of the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for mod, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[mod.__name__] = fn()
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "openblas": blas.get("version"), "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed, "git_commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# output


def strict(v):
    """JSON-ready copy with every non-finite number as None."""
    if isinstance(v, dict):
        return {str(k): strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [strict(x) for x in v]
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):  # numpy scalar
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def dumps(v, **kw) -> str:
    return json.dumps(strict(v), allow_nan=False, **kw)


# ----------------------------------------------------------------------
# the run


def _import_condensa() -> None:
    if not (SRC / "condensa" / "__init__.py").is_file():
        raise SystemExit(f"condensa sources not found: expected {SRC / 'condensa'}")
    sys.path.insert(0, str(SRC))
    import condensa

    if Path(condensa.__file__).resolve().parent != (SRC / "condensa").resolve():
        raise SystemExit(f"imported condensa from {condensa.__file__}, not from {SRC}")


def _warm_up(workload: str, seed: int) -> None:
    import passes
    import workloads

    passes.untraced_pass(workloads.build(workload, seed, toy=True))


def _setup_samples(args) -> list[float]:
    cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up child failed:\n{proc.stderr}")
    return samples


def _per_layer(tracer, counters, outcomes, traced_wall, untraced_wall) -> dict:
    from checks import failed

    totals = tracer.totals()
    zero = (0, 0.0, 0.0)
    m = {f"{name}_s": totals.get(name, zero)[2] for name in SPAN_TIMES}
    _, inclusive, own = totals.get("krylov.solve", zero)
    m.update({"krylov.solve_s": inclusive, "krylov.self_s": own,
              "krylov.matvecs": totals.get("krylov.matvec", zero)[0],
              "precond.applies": totals.get("precond.apply", zero)[0]})
    m.update({f"spectra.probe.{p}_s": totals.get(f"spectra.probe.{p}", zero)[2]
              for p in PROBES})
    m.update(counters)
    for layer in LAYERS:
        m[f"{layer}.failed"] = 0
    for o in outcomes:
        if o["failed_layer"] is not None:
            m[f"{o['failed_layer']}.failed"] += 1
        elif failed(o):
            m["check.failed"] += 1
    attributed = sum(t[2] for t in totals.values())
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.unattributed_s"] = traced_wall - attributed
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="run the workload at its smallest levels (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _import_condensa()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        _warm_up(args.workload, args.seed)
        return 0

    setup = _setup_samples(args)
    _warm_up(args.workload, args.seed)

    import checks
    import passes
    from tracer import Tracer

    steps = workloads.build(args.workload, args.seed, toy=args.toy)

    def timed_passes():
        untraced, walls = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            gc.collect()  # start each pass from the same collector state
            t0 = time.perf_counter()
            untraced.append(passes.untraced_pass(steps))
            walls.append(time.perf_counter() - t0)
        return untraced, walls

    tracer = Tracer()
    traced_pass = passes.TracedPass(tracer)

    def traced_run():
        t0 = time.perf_counter()
        traced = traced_pass.run(steps)
        return traced, t0, time.perf_counter() - t0 - traced_pass.check_seconds

    # whichever pass gives the reported metrics runs second, after a pass
    # at full size has warmed the process
    if args.trace:
        untraced, walls = timed_passes()
        traced, t0, traced_wall = traced_run()
    else:
        traced, t0, traced_wall = traced_run()
        untraced, walls = timed_passes()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for outcomes in untraced:
        checks.check_pass(outcomes, traced=False)
    checks.check_pass(traced, traced=True)
    for i, outcomes in enumerate(untraced[1:], start=2):
        checks.check_equal(untraced[0], outcomes, f"untraced pass {i}")
    checks.check_equal(untraced[0], traced, "traced pass")

    every = [o for outcomes in untraced + [traced] for o in outcomes]
    attempted = len(every)
    n_failed = sum(checks.failed(o) for o in every)
    wall = statistics.median(walls)
    end_to_end = {
        "wall_s": wall, "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb,
        "krylov_iters": sum(o.get("iters", 0) for o in untraced[0] if o["kind"] == "row"),
        "failed_share": n_failed / attempted,
    }
    per_layer = _per_layer(tracer, traced_pass.counters, traced, traced_wall, wall)
    units = per_layer_units()

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / "residuals").mkdir(parents=True, exist_ok=True)
    for i, (row_id, rep) in enumerate(traced_pass.histories.items()):
        rep.write_csv(out_dir / "residuals" / f"row{i:02d}.csv")
    (out_dir / "spans.json").write_text(dumps(tracer.records(t0)) + "\n")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "toy": args.toy, "environment": environment(args.seed),
        "steps": [workloads.describe(s) for s in steps],
        "setup_samples_s": setup, "pass_walls_s": walls, "traced_wall_s": traced_wall,
        "end_to_end": {k: {"value": v, "unit": {**END_TO_END, **REPORTED}[k]}
                       for k, v in end_to_end.items()},
        "per_layer": {k: {"value": per_layer[k], "unit": u} for k, u in units.items()},
        "residual_files": {row_id: f"residuals/row{i:02d}.csv"
                           for i, row_id in enumerate(traced_pass.histories)},
        "untraced_passes": untraced, "traced_pass": traced,
    }
    (out_dir / "result.json").write_text(dumps(result, indent=1) + "\n")

    for name, v in result["end_to_end"].items():
        print(f"{name:>14} {v['value']:.6g} {v['unit']}")
    for o in every:
        if checks.failed(o):
            print(f"FAILED {o['id']}: {o['error'] or '; '.join(o['checks_failed'])}")
    print(f"details: {out_dir.relative_to(ROOT)}")
    print(dumps({"report": {k: result[k] for k in ("end_to_end", "environment")}}))
    if args.trace:
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END.items()}
    print(dumps({"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
                 "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
