"""Command line driver: `condensa <experiment> [options]`."""

from __future__ import annotations

import argparse
import sys

from .assembly import ProblemParams
from .bench import EXPERIMENTS, RunConfig, emit, run
from .spectra import (PROBE_SETS, SpectralReport, lemma_probes,
                      reduced_bounds_check, write_constants_csv)


def _floats(text: str):
    return tuple(float(t) for t in text.split(","))


def _ints(text: str):
    return tuple(int(t) for t in text.split(","))


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="condensa",
        description="Hybridized Darcy/Stokes preconditioning experiments")
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--dim", type=int, default=2, choices=(2, 3))
    ap.add_argument("--levels", type=_ints, default=None,
                    help="comma separated cells-per-edge, e.g. 8,16,32")
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--eta", type=float, default=None,
                    help="penalty override (default 4k^2 in 2D, 6k^2 in 3D)")
    ap.add_argument("--xi", type=_floats, default=(1.0,))
    ap.add_argument("--gamma", type=_floats, default=(1.0,))
    ap.add_argument("--nu", type=_floats, default=(1.0,))
    ap.add_argument("--zeta", type=_floats, default=(0.0,))
    ap.add_argument("--precond", choices=("robust", "counterexample"), default="robust")
    ap.add_argument("--hatted", action="store_true")
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--maxit", type=int, default=999)
    ap.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    ap.add_argument("--out", default=None)
    ap.add_argument("--no-timing", action="store_true",
                    help="zero the seconds column (byte-reproducible output)")
    ap.add_argument("--dump-matrices", default=None, metavar="DIR")
    ap.add_argument("--mesh-out", default=None, metavar="PATH")
    ap.add_argument("--probes", default=None,
                    help="spectrum: comma list of probe names (default: problem set)")
    ap.add_argument("--problem", choices=("darcy", "stokes"), default="darcy",
                    help="spectrum: which problem's constants to measure")
    return ap


def _default_levels(experiment: str, dim: int):
    if experiment == "spectrum":
        return (4, 8) if dim == 2 else (2,)
    return (8, 16, 32) if dim == 2 else (2, 4, 8)


def _run_spectrum(args) -> int:
    from .assembly import (assemble_darcy, assemble_darcy_inner, assemble_stokes,
                           assemble_stokes_inner, darcy_spaces, stokes_spaces)
    from .mesh import unit_box_mesh

    params = ProblemParams(k=args.k, xi=args.xi[0], gamma=args.gamma[0],
                           nu=args.nu[0], eta=args.eta)
    rows = []
    for n in args.levels:
        mesh = unit_box_mesh(args.dim, n)
        if args.problem == "darcy":
            spaces = darcy_spaces(mesh, args.k)
            system = assemble_darcy(mesh, spaces, params)
            inner = assemble_darcy_inner(mesh, spaces, params)
        else:
            spaces = stokes_spaces(mesh, args.k)
            system = assemble_stokes(mesh, spaces, params)
            inner = assemble_stokes_inner(mesh, spaces, params)
        rep = reduced_bounds_check(system, inner)
        SpectralReport(c_b=rep["c_b"], c_i=rep["c_i"],
                       kappa_full=rep["kappa_full"],
                       kappa_reduced=rep["kappa_reduced"], c_l=rep["c_l"]).validate()
        rep["level"] = n
        rep["upper_ok"] = float(rep["upper_ok"])
        rep["lower_ok"] = float(rep["lower_ok"])
        rows.append(rep)
    probes = (tuple(args.probes.split(",")) if args.probes
              else PROBE_SETS[args.problem])
    probe_rows = lemma_probes(args.problem, args.dim, args.levels, params,
                              probes=probes)
    rows.extend(probe_rows)
    path = args.out or "spectrum.csv"
    write_constants_csv(path, rows, params)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.levels is None:
        args.levels = _default_levels(args.experiment, args.dim)
    if args.experiment == "spectrum":
        return _run_spectrum(args)

    try:
        config = RunConfig(
            experiment=args.experiment, dim=args.dim, levels=tuple(args.levels),
            k=args.k, eta=args.eta, xi=args.xi, gamma=args.gamma, nu=args.nu,
            zeta=args.zeta, precond=args.precond, hatted=args.hatted, tol=args.tol,
            maxit=args.maxit, timing=not args.no_timing, mesh_out=args.mesh_out,
            dump_matrices=args.dump_matrices)
    except ValueError as exc:
        parser.error(str(exc))
    rows = run(config)
    text = emit(rows, fmt=args.format, path=args.out, maxit=args.maxit)
    if not args.out:
        sys.stdout.write(text)
    failed = [r for r in rows if r.failed]
    for r in failed:
        print(f"row failed: level={r.level} {r.precond}: {r.failed}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
