import json

import numpy as np
import pytest
import scipy.sparse as sp

from condensa import bench
from condensa.assembly import ProblemParams, assemble_darcy, darcy_spaces
from condensa.bench import (CSV_HEADER, ResultRow, RunConfig, emit,
                            parse_json_rows, run)
from condensa.cli import main
from condensa.condense import condense
from condensa.manufactured import manufactured_rhs
from condensa.mesh import unit_box_mesh

from conftest import sparse_modes


def small_config(**kw):
    base = dict(experiment="darcy-manufactured", dim=2, levels=(4,),
                xi=(1.0,), gamma=(1.0,), timing=False)
    base.update(kw)
    return RunConfig(**base)


def test_single_row_iteration_band():
    rows = run(small_config(levels=(8,)))
    assert len(rows) == 1
    r = rows[0]
    assert r.converged and 15 <= r.iters <= 60
    assert r.cells == 128 and r.err_u is not None


def test_counterexample_shape():
    rows = run(small_config(experiment="darcy-counterexample", levels=(4, 8, 16)))
    cg = [r.iters for r in rows if r.precond == "counterexample-reduced"]
    mr = [r.iters for r in rows if r.precond == "counterexample-full"]
    assert cg[0] < cg[1] < cg[2]
    assert max(mr) <= 25 and max(mr) / min(mr) <= 1.6


def test_rows_record_runtime_warnings():
    """Warnings raised during a row are counted in it, in JSON only: the
    2D n=4 counterexample-reduced CG solve grows its residual."""
    rows = run(RunConfig("darcy-counterexample", dim=2, levels=(4,), timing=False))
    by = {r.precond: r for r in rows}
    assert by["counterexample-reduced"].warnings >= 1
    assert all(r.warnings >= 0 for r in rows)
    assert '"warnings"' in emit(rows, fmt="json")
    assert "warnings" not in emit(rows, fmt="csv") + emit(rows, fmt="md")


def test_emit_csv_header_and_values():
    rows = run(small_config())
    text = emit(rows, fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "darcy-manufactured"
    assert fields[-1] == "0.0"  # timing disabled


def test_empty_fields_serialize_empty():
    rows = run(small_config(experiment="darcy-heterogeneous"))
    text = emit(rows, fmt="csv")
    fields = text.strip().split("\n")[1].split(",")
    err_u, err_p = fields[13], fields[14]
    assert err_u == "" and err_p == ""


def test_maxit_rendering():
    row = ResultRow("darcy-manufactured", 2, 4, 32, 120, 1.0, 1.0, 1.0, 0.0,
                    "darcy-reduced", 999, False, 1e-3)
    assert row.iters_text(999) == ">999"
    text = emit([row], fmt="csv", maxit=999)
    assert ">999" in text
    md = emit([row], fmt="md", maxit=999)
    assert ">999" in md


def test_json_round_trip():
    rows = run(small_config())
    text = emit(rows, fmt="json")
    back = parse_json_rows(text)
    assert back == rows


def test_json_writes_non_finite_as_null():
    """A failed row's NaN and Inf become null, so strict JSON readers
    accept the file, and the parsed row emits the same text again."""
    row = ResultRow("darcy-manufactured", 2, 4, 32, 120, 1.0, 1.0, 1.0, 0.0,
                    "darcy-reduced", 999, False, float("nan"), err_u=float("inf"))

    def strict(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = emit([row], fmt="json")
    (d,) = json.loads(text, parse_constant=strict)
    assert d["resid"] is None and d["err_u"] is None and d["err_p"] is None
    back = parse_json_rows(text)
    assert back[0].resid is None and emit(back, fmt="json") == text


def test_markdown_shape():
    rows = run(small_config(levels=(4, 8)))
    md = emit(rows, fmt="md")
    lines = md.strip().split("\n")
    assert lines[0].startswith("| cells |")
    assert len(lines) == 2 + 2  # header, separator, two levels


def test_deterministic_bytes():
    cfg = small_config(levels=(4,))
    a = emit(run(cfg), fmt="csv")
    b = emit(run(cfg), fmt="csv")
    assert a == b


def test_zeta0_unhatted_equals_plain():
    cfg0 = RunConfig(experiment="stokes-manufactured", levels=(4,), nu=(1.0,),
                     zeta=(0.0,), hatted=False, timing=False)
    rows0 = run(cfg0)
    rows_again = run(cfg0)
    assert rows0[0].iters == rows_again[0].iters
    # the zeta=0 non-hatted preconditioner is the plain robust operator
    assert rows0[0].precond == "stokes-reduced"


def test_sweep_continues_after_row_failure():
    # eta below the admissible range fails at parameter validation per row
    cfg = RunConfig(experiment="darcy-manufactured", levels=(2, 4), eta=0.5,
                    timing=False)
    rows = run(cfg)
    assert len(rows) == 2
    assert all(r.failed is not None for r in rows)
    # failed rows serialize as strict JSON (no NaN) and still round-trip
    text = emit(rows, fmt="json")

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    json.loads(text, parse_constant=reject)
    assert parse_json_rows(text) == rows


def test_failed_heterogeneous_row_keeps_its_labels(monkeypatch):
    # a failed row names the same coefficients as a solved row of its case
    solved = run(small_config(experiment="darcy-heterogeneous"))[0]

    def fail(*args):
        raise RuntimeError("forced")

    monkeypatch.setattr(bench, "_solve_case", fail)
    failed = run(small_config(experiment="darcy-heterogeneous"))[0]
    assert failed.failed == "RuntimeError: forced"
    assert (failed.xi, failed.gamma) == (solved.xi, solved.gamma) == ("fn", "fn")
    assert (failed.nu, failed.zeta, failed.precond) == (solved.nu, solved.zeta,
                                                        solved.precond)


def test_maxit_below_one_is_refused(capsys):
    with pytest.raises(ValueError, match="maxit"):
        small_config(maxit=0)
    with pytest.raises(SystemExit) as exit_:
        main(["darcy-manufactured", "--levels", "4", "--maxit", "0"])
    assert exit_.value.code == 2 and "maxit" in capsys.readouterr().err


def test_cli_csv_and_exit_code(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["darcy-manufactured", "--levels", "4", "--xi", "1",
                 "--gamma", "1", "--no-timing", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith(CSV_HEADER)


def test_cli_mesh_out_and_dump(tmp_path):
    out = tmp_path / "rows.csv"
    meshp = tmp_path / "mesh.txt"
    dumpd = tmp_path / "mats"
    code = main(["darcy-manufactured", "--levels", "2", "--no-timing",
                 "--out", str(out), "--mesh-out", str(meshp),
                 "--dump-matrices", str(dumpd)])
    assert code == 0
    assert meshp.exists()
    from condensa.mesh import read_mesh_text
    m = read_mesh_text(meshp)
    assert m.n_cells == 8
    dumped = list(dumpd.iterdir())
    assert len(dumped) == 2
    for path in dumped:
        for line in path.read_text().splitlines():
            i, j, v = line.split()
            assert int(i) >= 1 and int(j) >= 1  # 1-based indices
            float(v)


def _read_coordinate(path, n):
    rows, cols, vals = np.loadtxt(path, unpack=True)
    return sp.coo_matrix((vals, (rows.astype(int) - 1, cols.astype(int) - 1)),
                         shape=(n, n)).tocsr()


def test_dump_matrices_is_the_solved_system(tmp_path):
    """The heterogeneous dump is the variable-coefficient system its row
    solves, value for value (repr round-trips a float exactly)."""
    dumpd = tmp_path / "mats"
    run(small_config(experiment="darcy-heterogeneous", levels=(4,), dump_matrices=str(dumpd)))
    params = ProblemParams(k=2)
    case = manufactured_rhs("darcy-heterogeneous", 2, params)
    mesh = unit_box_mesh(2, 4)
    system = assemble_darcy(mesh, darcy_spaces(mesh, 2),
                            ProblemParams(k=2, xi=case.xi_fn, gamma=case.gamma_fn),
                            f=case.f, p_dirichlet=case.dirichlet)
    K = system.to_sparse()
    got = _read_coordinate(dumpd / "darcy-heterogeneous-n4-monolithic.txt", K.shape[0])
    assert (got != K).nnz == 0 and got.nnz == K.nnz
    S = condense(system).S
    got = _read_coordinate(dumpd / "darcy-heterogeneous-n4-schur.txt", S.shape[0])
    assert (got != S).nnz == 0 and got.nnz == S.nnz


def test_cli_spectrum(tmp_path, monkeypatch):
    def spectrum(out):
        code = main(["spectrum", "--levels", "2", "--problem", "darcy",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,params,constant,value"
        return {l.split(",")[2]: float(l.split(",")[3]) for l in lines[1:]}

    dense = spectrum(tmp_path / "spec.csv")
    assert {"c_b", "c_i", "c_l", "kappa_full", "aux_coercivity_lo", "beta"} <= set(dense)
    # every pencil of the level above DENSE_MAX: the full pencil's c_b and
    # c_i, and the probes, come from ARPACK
    modes = sparse_modes(monkeypatch)
    sparse = spectrum(tmp_path / "spec_sparse.csv")
    assert "magnitude" in modes
    assert sparse.keys() == dense.keys()
    for name, want in dense.items():
        assert abs(sparse[name] - want) <= 1e-8 * abs(want), name


def test_invalid_config():
    with pytest.raises(ValueError):
        RunConfig(experiment="wave")
    with pytest.raises(ValueError):
        RunConfig(experiment="darcy-manufactured", dim=4)
    with pytest.raises(ValueError):
        emit([], fmt="csv")
    rows = run(small_config())
    with pytest.raises(ValueError):
        emit(rows, fmt="yaml")


def test_default_tolerances():
    assert small_config().tolerance() == 1e-10
    assert RunConfig(experiment="stokes-cavity").tolerance() == 1e-8
    assert small_config(tol=1e-6).tolerance() == 1e-6


def test_precond_flag_switches_reduced_preconditioner():
    rows = run(small_config(levels=(4,), precond="counterexample"))
    assert rows[0].precond == "counterexample-reduced"
    base = run(small_config(levels=(4,)))
    assert rows[0].iters > base[0].iters  # non-robust reduced variant


def test_convergence_experiment_tag():
    rows = run(small_config(experiment="convergence", levels=(4, 8)))
    assert len(rows) == 2 and all(r.err_u is not None for r in rows)
