"""The condensa command: `condensa <experiment> [options]`.  A flag sets the
RunConfig field of its name (--no-timing clears timing), or RunConfig's default
when absent; a RunConfig error is a usage error naming each field by its flag."""

from __future__ import annotations

import argparse
import re
import sys

from .bench import EXPERIMENTS, RunConfig, emit, run, spectrum
from .spectra import write_constants_csv


def _tuple(kind):
    return lambda text: tuple(kind(t) for t in text.split(","))


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="condensa", argument_default=argparse.SUPPRESS,
        description="Hybridized Darcy/Stokes preconditioning experiments")
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--dim", type=int, choices=(2, 3))
    ap.add_argument("--levels", type=_tuple(int),
                    help="comma separated cells-per-edge, e.g. 8,16,32")
    ap.add_argument("--k", type=int)
    ap.add_argument("--eta", type=float,
                    help="penalty override (default 4k^2 in 2D, 6k^2 in 3D)")
    for name in ("xi", "gamma", "nu", "zeta"):
        ap.add_argument(f"--{name}", type=_tuple(float))
    ap.add_argument("--precond", choices=("robust", "counterexample"))
    ap.add_argument("--hatted", action="store_true")
    ap.add_argument("--tol", type=float)
    ap.add_argument("--maxit", type=int)
    ap.add_argument("--no-timing", dest="timing", action="store_false",
                    help="zero the seconds column (byte-reproducible output)")
    ap.add_argument("--dump-matrices", metavar="DIR")
    ap.add_argument("--mesh-out", metavar="PATH")
    ap.add_argument("--probes", type=_tuple(str),
                    help="spectrum: comma list of probe names (default: problem set)")
    ap.add_argument("--problem", choices=("darcy", "stokes"),
                    help="spectrum: which problem's constants to measure")
    ap.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    ap.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    parser = make_parser()
    fields = vars(parser.parse_args(argv))
    fmt, out = fields.pop("format"), fields.pop("out")
    try:
        config = RunConfig(**fields)
        if config.experiment == "spectrum" and fmt != "csv":
            raise ValueError("spectrum writes csv; it does not read `format`")
    except ValueError as exc:
        flags = {a.dest: a.option_strings[-1] for a in parser._actions if a.option_strings}
        parser.error(re.sub(r"`(\w+)`", lambda m: flags.get(m[1], m[1]), str(exc)))
    if config.experiment == "spectrum":
        path = out or "spectrum.csv"
        rows = spectrum(config)
        write_constants_csv(path, [r for r in rows if "failed" not in r])
        print(f"wrote {path}")
        failed = [("case", r["level"], r["label"], r["failed"]) for r in rows if "failed" in r]
    else:
        rows = run(config)
        text = emit(rows, fmt=fmt, path=out)
        if not out:
            sys.stdout.write(text)
        failed = [("row", r.level, r.precond, r.failed) for r in rows if r.failed]
    for what, level, label, error in failed:
        print(f"{what} failed: level={level} {label}: {error}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
