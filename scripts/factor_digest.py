"""md5 digests of the reduced preconditioner's S_P and its supernodal
factor, and of the full preconditioner's application.

    python3 scripts/factor_digest.py SRC_DIR

builds the S_P of each case in CASES in a fresh process with
PYTHONPATH=SRC_DIR, as a reduced sweep row does (`condense_precond` of the
robust inner product), factors it with `krylov.SUPERNODAL_MIN = 0`, so
that every case takes `SupernodalCholesky`, and solves two seeded
right-hand sides.  It prints one line per case:

    md5(mesh facets)  md5(S_P data, indices, indptr)  md5(solutions)  fill  peak_bytes  case

The first field is the mesh's nested-dissection facet order, which sets
the fill of S_P's factor: a diff there is an ordering change, and a diff
in the later fields with equal facets is a condensation or factor change.

Then, for each case in FULL_CASES, it builds the full preconditioner with
`build_full` (default settings), one minimum-degree SuperLU factor of the
whole inner product P, and applies it to two seeded right-hand sides,
printing one line per case:

    md5(applications)  fill  spec label  dim  n  parameters

Two trees build the same S_P and factor it bit for bit, and apply the
same full preconditioner bit for bit, when

    diff <(python3 scripts/factor_digest.py A/src) \\
         <(python3 scripts/factor_digest.py B/src)

prints nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

# (problem, dim, cells per edge, ProblemParams fields); the 2D Darcy factor
# at xi=1e-6, gamma=1e4 stores subnormal entries
CASES = (
    ("darcy", 3, 4, {}),
    ("darcy", 3, 6, {}),
    ("darcy", 3, 8, {}),
    ("darcy", 2, 64, {}),
    ("darcy", 2, 64, {"xi": 1e-6, "gamma": 1e4}),
    ("stokes", 2, 16, {"nu": 1e-6}),
    ("stokes", 2, 32, {}),
)
# (PreconditionerSpec fields, dim, cells per edge, ProblemParams fields) of
# the full level: every kind, the hatted and zeta variants and 3D
FULL_CASES = (
    ({"problem": "darcy"}, 2, 16, {}),
    ({"problem": "darcy", "kind": "counterexample"}, 2, 32, {}),
    ({"problem": "darcy"}, 3, 4, {"xi": 1e-6, "gamma": 1e4}),
    ({"problem": "stokes"}, 2, 8, {"nu": 1e-6}),
    ({"problem": "stokes", "zeta": 100.0, "hatted": True}, 2, 8, {"zeta": 100.0}),
)

CHILD = """
import hashlib, json, sys
import numpy as np
from condensa import krylov
from condensa.assembly import ProblemParams, darcy_spaces, stokes_spaces
from condensa.condense import condense_precond
from condensa.mesh import unit_box_mesh
from condensa.precond import PreconditionerSpec, assemble_inner

problem, dim, n, kw = json.loads(sys.argv[1])
krylov.SUPERNODAL_MIN = 0
params = ProblemParams(**kw)
mesh = unit_box_mesh(dim, n)
spaces = (darcy_spaces if problem == "darcy" else stokes_spaces)(mesh, params.k)
S = condense_precond(assemble_inner(PreconditionerSpec(problem), mesh, spaces, params)).S
factor = krylov.factor_spd(S)
matrix, solutions = hashlib.md5(), hashlib.md5()
for a in (S.data, S.indices, S.indptr):
    matrix.update(a.tobytes())
for seed in (1, 2):
    solutions.update(factor.solve(np.random.default_rng(seed).standard_normal(S.shape[0])).tobytes())
print(hashlib.md5(mesh.facets.tobytes()).hexdigest(), matrix.hexdigest(),
      solutions.hexdigest(), factor.fill, factor.peak_bytes)
"""

FULL_CHILD = """
import hashlib, json, sys
import numpy as np
from condensa.assembly import ProblemParams, darcy_spaces, stokes_spaces
from condensa.mesh import unit_box_mesh
from condensa.precond import PreconditionerSpec, build_full

fields, dim, n, kw = json.loads(sys.argv[1])
spec = PreconditionerSpec(level="full", **fields)
params = ProblemParams(**kw)
mesh = unit_box_mesh(dim, n)
spaces = (darcy_spaces if spec.problem == "darcy" else stokes_spaces)(mesh, params.k)
op = build_full(spec, mesh, spaces, params)
digest = hashlib.md5()
for seed in (1, 2):
    digest.update(op.apply(np.random.default_rng(seed).standard_normal(op.n)).tobytes())
print(digest.hexdigest(), op.factor.fill, "", spec.label())
"""


def _run(env: dict, child: str, case: tuple) -> str:
    """The line child prints for case, in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(case)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{json.dumps(case)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip()


def _size(dim: int, n: int, kw: dict) -> str:
    return " ".join([f"dim={dim}", f"n={n}", *(f"{k}={v:g}" for k, v in kw.items())])


def main(src: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    for case in CASES:
        problem, dim, n, kw = case
        print(f"{_run(env, CHILD, case)}  {problem} {_size(dim, n, kw)}", flush=True)
    for case in FULL_CASES:
        _, dim, n, kw = case
        print(f"{_run(env, FULL_CHILD, case)} {_size(dim, n, kw)}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
