"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench/tests

Each workload runs at its smallest levels, untraced and traced; the
output must be strict JSON and carry every metric of BENCHMARK.json with
its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

REPORTED = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
            "krylov_iters": "count", "failed_share": "share"}
ENVIRONMENT = {"python", "numpy", "scipy", "openblas", "blas_threads", "nproc",
               "l2_cache_bytes", "l3_cache_bytes", "seed", "git_commit"}


def strict_loads(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


def bench(cwd: Path, workload: str, trace: int, *extra):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()

    result = strict_loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    report = strict_loads(lines[-2])["report"]
    assert {k: m["unit"] for k, m in report["end_to_end"].items()} == REPORTED
    assert report["end_to_end"]["failed_share"]["value"] == 0
    assert ENVIRONMENT <= set(report["environment"])
    assert report["environment"]["seed"] == SEED

    out = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}"
    strict_loads((out / "result.json").read_text())
    spans = strict_loads((out / "spans.json").read_text())
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_untraced_and_traced_metrics_are_distinct():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_non_finite_values_become_null():
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    text = run.dumps({"resid": float("nan"), "rows": [float("inf"), 1.5]})
    assert strict_loads(text) == {"resid": None, "rows": [None, 1.5]}


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
