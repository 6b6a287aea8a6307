"""Resident memory around each call of one perfbench traced pass.

    python3 scripts/call_peaks.py SRC_DIR --workload W --seed S

imports condensa from SRC_DIR and the benchmark's `passes`, `tracer` and
`workloads` from the perfbench directory next to it (SRC_DIR/../perfbench),
runs the workload's warm-up (its untraced pass at the smallest levels, as
`perfbench/run.py` does before its first pass) and then one traced pass,
and prints one line per top-level span: its operation, its name, the
process's `VmRSS` before and after the call and its `VmHWM` (the peak so
far) after it, in MB, read from /proc/self/status.  A `*` marks a call
during which the peak rose.  The per-application spans of a Krylov solve
(matrix products and preconditioner applications) fall inside its
`krylov.solve` line.  The last line gives the pass's peak.
"""

from __future__ import annotations

import argparse
import os
import sys

STATUS = "/proc/self/status"


def _status_mb() -> dict:
    """VmRSS and VmHWM of this process, in MB."""
    out = {}
    with open(STATUS) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                out[key] = int(value.split()[0]) / 1024.0   # kB
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("src")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    a = p.parse_args(argv)
    try:
        _status_mb()
    except OSError as exc:
        sys.exit(f"cannot read {STATUS}: {exc}")
    src = os.path.abspath(a.src)
    bench = os.path.join(os.path.dirname(src), "perfbench")
    if not os.path.isfile(os.path.join(bench, "passes.py")):
        sys.exit(f"no perfbench next to {src}: expected {bench}")
    sys.path[:0] = [src, bench]
    import passes
    import workloads
    from tracer import Tracer

    if a.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {a.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    lines = []

    class PeakTracer(Tracer):
        def call(self, name, fn, *args, **kwargs):
            if self._open:   # a child span: its parent's line covers it
                return super().call(name, fn, *args, **kwargs)
            before = _status_mb()
            try:
                return super().call(name, fn, *args, **kwargs)
            finally:
                after = _status_mb()
                lines.append((self.op, name, before, after))

    passes.untraced_pass(workloads.build(a.workload, a.seed, toy=True))
    passes.TracedPass(PeakTracer()).run(workloads.build(a.workload, a.seed))
    print(f"{'op':>3} {'span':<32} {'rss_before':>10} {'rss_after':>10} {'hwm':>8}")
    for op, name, before, after in lines:
        rose = "*" if after["VmHWM"] > before["VmHWM"] else ""
        print(f"{op:>3} {name:<32} {before['VmRSS']:>10.1f} {after['VmRSS']:>10.1f} "
              f"{after['VmHWM']:>8.1f} {rose}")
    print(f"peak VmHWM {_status_mb()['VmHWM']:.1f} MB")


if __name__ == "__main__":
    main()
