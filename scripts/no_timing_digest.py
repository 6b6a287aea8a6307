"""md5 digests of the `--no-timing` outputs of a fixed list of condensa runs.

    python3 scripts/no_timing_digest.py SRC_DIR

runs each sweep below in csv, md and json (degree 2 unless a sweep sets
--k; the last three cover k=1, k=3 and the 3D Stokes manufactured
solution), plus the default Darcy, the
`--problem stokes` and the counterexample spectrum CSVs, with
PYTHONPATH=SRC_DIR, and prints one `md5  argv` line per run (a nonzero
exit other than 2, the code of a failed row or case, ends the script).
Last, it runs FILES and prints the md5 of its stdout and one `md5  path`
line per file that run writes.  Two trees give the same outputs when

    diff <(python3 scripts/no_timing_digest.py A/src) \\
         <(python3 scripts/no_timing_digest.py B/src)

prints nothing.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

SWEEPS = (
    "darcy-manufactured --levels 8,16 --xi 1,1e-6 --gamma 1e-4,1e4",
    "darcy-counterexample --levels 8",
    "darcy-counterexample --dim 3 --levels 2",
    "stokes-manufactured --levels 8 --nu 1,1e-6",
    "stokes-manufactured --levels 8 --nu 1,1e-6 --zeta 100",
    "stokes-manufactured --levels 8 --nu 1,1e-6 --zeta 100 --hatted",
    "stokes-cavity --levels 4",
    "stokes-cavity --dim 3 --levels 2",
    "darcy-manufactured --dim 3 --levels 2,4",
    "darcy-heterogeneous --levels 8",
    # trace systems above krylov.SUPERNODAL_MIN (34,560, 27,456 and 36,480
    # dofs), so that the supernodal factor is checked too, in 3D and 2D; the
    # 2D Darcy factor at xi=1e-6, gamma=1e4 stores subnormal entries
    "darcy-manufactured --dim 3 --levels 8",
    "stokes-manufactured --levels 32",
    "darcy-manufactured --levels 64 --xi 1e-6 --gamma 1e4",
    # the dof map at other degrees and in 3D Stokes: k=1 and k=3 change nb
    # (k=3 takes the extended-precision basis), 3D Stokes ncomp = 3
    "darcy-manufactured --k 1 --levels 8",
    "stokes-manufactured --k 3 --levels 4 --nu 1,1e-6",
    "stokes-manufactured --dim 3 --levels 2",
)
SPECTRA = ("spectrum", "spectrum --problem stokes",
           "spectrum --precond counterexample --levels 4")
# the files a sweep writes: the cavity's (-1,1)^2 box, the first of several
# levels (--mesh-out) and the first of several cases (--dump-matrices)
FILES = ("stokes-cavity --levels 4,8 --nu 1,1e-6 --no-timing --mesh-out mesh.txt "
         "--dump-matrices mats")


def _condensa(src: str, argv: list[str], cwd: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-m", "condensa.cli", *argv], cwd=cwd,
                          env=env, capture_output=True)
    if proc.returncode not in (0, 2):
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return proc.stdout


def main(src: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in SWEEPS:
            for fmt in ("csv", "md", "json"):
                argv = [*sweep.split(), "--no-timing", "--format", fmt]
                out = _condensa(src, argv, tmp)
                print(f"{hashlib.md5(out).hexdigest()}  {' '.join(argv)}", flush=True)
        for run in SPECTRA:
            path = os.path.join(tmp, "spectrum.csv")
            _condensa(src, [*run.split(), "--out", path], tmp)
            with open(path, "rb") as fh:
                print(f"{hashlib.md5(fh.read()).hexdigest()}  {run}", flush=True)
        files = os.path.join(tmp, "files")
        os.mkdir(files)
        out = _condensa(src, FILES.split(), files)
        print(f"{hashlib.md5(out).hexdigest()}  {FILES}", flush=True)
        for root, _, names in sorted(os.walk(files)):
            for name in sorted(names):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    print(f"{hashlib.md5(fh.read()).hexdigest()}  "
                          f"{os.path.relpath(path, files)}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
