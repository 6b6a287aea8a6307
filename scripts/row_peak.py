"""Iterations, error, wall time and peak memory of one Darcy sweep row.

    python3 scripts/row_peak.py SRC_DIR --dim D --level N [--xi X --gamma G]

runs the one `darcy-manufactured` row at level N (xi = gamma = 1 unless
given) through `bench.run` in a fresh process with PYTHONPATH=SRC_DIR, and
prints one line: its iterations, err_u, the row's wall seconds and the
child's peak resident memory (`ru_maxrss`) in MB.  A fresh process per
row keeps one row's peak from another's.  Two trees give the same row when

    python3 scripts/row_peak.py A/src --dim 3 --level 12
    python3 scripts/row_peak.py B/src --dim 3 --level 12

print the same iterations and err_u.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

CHILD = """
import json, resource, sys
from condensa.bench import RunConfig, run
dim, level, xi, gamma = json.loads(sys.argv[1])
(row,) = run(RunConfig("darcy-manufactured", dim=dim, levels=(level,), xi=(xi,), gamma=(gamma,)))
print(json.dumps(dict(iters=row.iters, converged=row.converged, err_u=row.err_u,
                      seconds=row.seconds, failed=row.failed,
                      maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)))
"""


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("src")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    a = p.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(a.src)}
    proc = subprocess.run([sys.executable, "-c", CHILD,
                           json.dumps([a.dim, a.level, a.xi, a.gamma])],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"row exited {proc.returncode}:\n{proc.stderr}")
    r = json.loads(proc.stdout)
    if r["failed"]:
        sys.exit(f"row failed: {r['failed']}")
    iters = r["iters"] if r["converged"] else f">{r['iters']}"
    print(f"dim={a.dim} level={a.level} xi={a.xi:g} gamma={a.gamma:g}: iters {iters}, "
          f"err_u {r['err_u']!r}, {r['seconds']:.2f} s, peak {r['maxrss_mb']:.0f} MB",
          flush=True)


if __name__ == "__main__":
    main()
