"""Row-by-row differences of the `--no-timing` csv sweeps of two trees.

    python3 scripts/row_diff.py A/src B/src

runs every sweep of `no_timing_digest.SWEEPS` in csv, once with
PYTHONPATH=A/src and once with PYTHONPATH=B/src, and prints one line per
row: whether its iteration count and every other non-float column are
equal, and the relative change |a - b| / max(|a|, |b|) of each float
column (FLOATS) from A to B, or `=` where its text is identical.  The
last lines give each float column's largest change over all rows.  It
exits 1 when a count or a non-float column differs, or a sweep gives a
different number of rows, and 0 otherwise, so

    python3 scripts/row_diff.py A/src B/src

shows which digits two trees move, where `no_timing_digest.py` only says
that a whole output changed.
"""

from __future__ import annotations

import csv
import io
import sys
import tempfile

from no_timing_digest import SWEEPS, _condensa

# the columns a solve computes in floating point; every other column
# (counts, flags, the row's parameters) must be equal as text
FLOATS = ("resid", "err_u", "err_p")
LABEL = ("experiment", "dim", "level", "precond", "xi", "gamma", "nu", "zeta")


def _rows(src: str, sweep: str, cwd: str) -> list[dict]:
    out = _condensa(src, [*sweep.split(), "--no-timing", "--format", "csv"], cwd)
    return list(csv.DictReader(io.StringIO(out.decode())))


def _relative(a: str, b: str) -> float | None:
    """The relative change from a to b, None when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    return abs(x - y) / max(abs(x), abs(y))


def main(a_src: str, b_src: str) -> int:
    worst = dict.fromkeys(FLOATS, 0.0)
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in SWEEPS:
            a_rows, b_rows = _rows(a_src, sweep, tmp), _rows(b_src, sweep, tmp)
            print(f"# {sweep}", flush=True)
            if len(a_rows) != len(b_rows):
                print(f"  DIFFERENT row count: {len(a_rows)} -> {len(b_rows)}")
                differ = True
                continue
            for a, b in zip(a_rows, b_rows):
                changed = [f"{k} {a[k]} -> {b[k]}" for k in a
                           if k not in FLOATS and a[k] != b.get(k)]
                moves = []
                for k in FLOATS:
                    if a[k] == b[k]:
                        moves.append(f"{k} =")
                    elif (rel := _relative(a[k], b[k])) is None:
                        changed.append(f"{k} {a[k]!r} -> {b[k]!r}")
                    else:
                        worst[k] = max(worst[k], rel)
                        moves.append(f"{k} {rel:.1e}")
                differ |= bool(changed)
                text = "DIFFERENT " + "; ".join(changed) if changed else "equal"
                label = " ".join(a[k] for k in LABEL)
                print(f"  {label}: counts and text {text}; {', '.join(moves)}", flush=True)
    print("largest relative change: "
          + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
    print("counts and non-float columns " + ("DIFFER" if differ else "all equal"))
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
