"""Command line driver: `condensa <experiment> [options]`."""

from __future__ import annotations

import argparse
import sys

from .bench import EXPERIMENTS, RunConfig, emit, run, spectrum
from .spectra import write_constants_csv

# flags only one kind of run reads; the other refuses them unless left at
# the default
SWEEP_ONLY = ("tol", "maxit", "format", "no_timing", "dump_matrices", "mesh_out")
SPECTRUM_ONLY = ("probes", "problem")


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


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.levels is None:
        args.levels = _default_levels(args.experiment, args.dim)
    try:
        config = RunConfig(
            experiment=args.experiment, dim=args.dim, levels=tuple(args.levels),
            k=args.k, eta=args.eta, xi=args.xi, gamma=args.gamma, nu=args.nu,
            zeta=args.zeta, precond=args.precond, hatted=args.hatted, tol=args.tol,
            maxit=args.maxit, timing=not args.no_timing, mesh_out=args.mesh_out,
            dump_matrices=args.dump_matrices)
        if args.experiment == "spectrum":
            config.refuse_ignored(args.problem)
        only = SWEEP_ONLY if args.experiment == "spectrum" else SPECTRUM_ONLY
        ignored = [f"--{d.replace('_', '-')}" for d in only
                   if getattr(args, d) != parser.get_default(d)]
        if ignored:
            raise ValueError(f"{args.experiment} does not read {', '.join(ignored)}")
    except ValueError as exc:
        parser.error(str(exc))
    if args.experiment == "spectrum":
        probes = tuple(args.probes.split(",")) if args.probes else None
        path = args.out or "spectrum.csv"
        write_constants_csv(path, spectrum(config, args.problem, probes))
        print(f"wrote {path}")
        return 0
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
