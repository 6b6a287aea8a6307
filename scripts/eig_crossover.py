"""Dense against sparse eigen ends of every probe pencil, for DENSE_MAX.

    python3 scripts/eig_crossover.py SRC_DIR [--levels 4,6,8]

builds, at each 2D level n (k=2, xi = gamma = nu = 1), the pencil of each
lemma probe, of `lifting_constant` and of the Darcy and Stokes full
pencils (A, P), and times `generalized_eigs` on each with the mode its
caller asks for: once with every pencil dense (`DENSE_MAX` above its size,
one LAPACK ?sygv) and once sparse (`DENSE_MAX = 0`, ARPACK), best of 3.
Each level runs in a fresh process with PYTHONPATH=SRC_DIR, so one tree's
numbers do not depend on what ran before them.  Prints one line per
pencil: its name, mode, size, the dense and the sparse seconds, and
which is faster.  At 2D n = 4-8 the pencils have about 100-3600 rows.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

CHILD = """
import json, sys, time
from condensa import krylov, spectra
from condensa.assembly import (ProblemParams, assemble_darcy, assemble_darcy_inner,
                               assemble_stokes, assemble_stokes_inner, darcy_spaces,
                               stokes_spaces)
from condensa.mesh import unit_box_mesh

n = json.loads(sys.argv[1])
params = ProblemParams(k=2)
mesh = unit_box_mesh(2, n)
pencils = []                       # (name, mode, A, B, n_drop)
real = spectra.generalized_eigs

def record(name):
    def call(A, B, mode="full", n_drop=0):
        pencils.append((name, mode, A, B, n_drop))
        return real(A, B, mode=mode, n_drop=n_drop)
    return call

for problem, names in spectra.PROBE_SETS.items():
    for name in names:
        spectra.generalized_eigs = record(name)
        spectra.probe_constants(problem, mesh, params, (name,))
for problem, spaces, scheme, inner in (
        ("darcy", darcy_spaces, assemble_darcy, assemble_darcy_inner),
        ("stokes", stokes_spaces, assemble_stokes, assemble_stokes_inner)):
    sps = spaces(mesh, 2)
    system, ip = scheme(mesh, sps, params), inner(mesh, sps, params)
    if problem == "darcy":
        spectra.generalized_eigs = record("lifting")
        spectra.lifting_constant(system, ip)
    pencils.append((f"{problem}_full", "magnitude", system.to_sparse(), ip.to_sparse(),
                    len(system.null_vectors)))
spectra.generalized_eigs = real

def best(A, B, mode, n_drop, dense_max):
    krylov.DENSE_MAX = dense_max
    times = []
    for _ in range(3):
        t = time.perf_counter()
        krylov.generalized_eigs(A, B, mode=mode, n_drop=n_drop)
        times.append(time.perf_counter() - t)
    return min(times)

out = []
for name, mode, A, B, n_drop in pencils:
    size = A.shape[0]
    out.append(dict(name=name, mode=mode, size=size,
                    dense=best(A, B, mode, n_drop, size),
                    sparse=best(A, B, mode, n_drop, 0)))
print(json.dumps(out))
"""


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("src")
    p.add_argument("--levels", default="4,6,8",
                   help="comma-separated 2D levels (default 4,6,8)")
    a = p.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(a.src)}
    print(f"{'pencil':<22}{'mode':<11}{'n':>3}{'size':>6}{'dense s':>9}{'sparse s':>10}  faster")
    for n in (int(s) for s in a.levels.split(",")):
        proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(n)],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"level {n} exited {proc.returncode}:\n{proc.stderr}")
        for r in json.loads(proc.stdout):
            faster = "dense" if r["dense"] <= r["sparse"] else "sparse"
            print(f"{r['name']:<22}{r['mode']:<11}{n:>3}{r['size']:>6}"
                  f"{r['dense']:>9.3f}{r['sparse']:>10.3f}  {faster}", flush=True)


if __name__ == "__main__":
    main()
