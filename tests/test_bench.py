import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from condensa import assembly, bench, cli, precond, spectra
from condensa.assembly import (ProblemParams, assemble_counterexample_inner, assemble_darcy,
                               assemble_darcy_inner, assemble_stokes, assemble_stokes_inner,
                               darcy_spaces, stokes_spaces)
from condensa.bench import CSV_HEADER, ResultRow, RunConfig, emit, run
from condensa.cli import main
from condensa.condense import condense
from condensa.manufactured import manufactured_rhs
from condensa.mesh import unit_box_mesh
from condensa.spectra import lemma_probes, reduced_bounds_check

from conftest import json_rows, read_mesh_text, sparse_modes


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
    assert row.iters_text() == ">999"
    text = emit([row], fmt="csv")
    assert ">999" in text
    md = emit([row], fmt="md")
    assert ">999" in md


def test_iteration_cell_reads_the_row():
    """A run out of iterations prints its own maxit, not a default one."""
    (row,) = run(small_config(maxit=2))
    assert not row.converged and row.iters == 2
    assert emit([row], fmt="csv").split("\n")[1].split(",")[10] == ">2"
    assert emit([row], fmt="md").split("\n")[2] == "| 32 | >2 |"


def test_failed_row_prints_failed():
    """A failed row (xi = 0, refused by ProblemParams) reads `failed`, not
    an iteration limit, and its JSON still round-trips."""
    rows = run(small_config(levels=(2, 4), xi=(1.0, 0.0)))
    assert [r.failed is not None for r in rows] == [False, True, False, True]
    assert [line.split(",")[10] for line in emit(rows, fmt="csv").split("\n")[1:-1]] == [
        rows[0].iters_text(), "failed", rows[2].iters_text(), "failed"]
    md = emit(rows, fmt="md").split("\n")[2:-1]
    assert md == [f"| 8 | {rows[0].iters} | failed |", f"| 32 | {rows[2].iters} | failed |"]
    assert json_rows(emit(rows, fmt="json")) == rows


def test_failed_row_records_its_level_size(capsys):
    """A failed row still records its level's cells and trace dofs."""
    (row,) = run(small_config(levels=(2,), xi=(0.0,)))
    assert row.failed and (row.cells, row.trace_dofs) == (8, 24)
    assert main(["darcy-manufactured", "--levels", "2", "--xi", "0", "--no-timing"]) == 2
    assert ",2,8,24,0.0," in capsys.readouterr().out
    assert emit([row], fmt="md").split("\n")[2] == "| 8 | failed |"


@pytest.mark.parametrize("flag", ["levels", "k"])
def test_levels_and_k_below_one_are_refused(capsys, flag):
    with pytest.raises(ValueError, match=f"`{flag}` must be at least 1, got (4,)?0$"):
        small_config(**{flag: (4, 0) if flag == "levels" else 0})
    with pytest.raises(SystemExit) as exit_:
        main(["darcy-manufactured", "--levels", "4", f"--{flag}", "0"])
    assert exit_.value.code == 2 and f"--{flag} must be at least 1" in capsys.readouterr().err


def test_spectrum_keeps_going_when_a_case_fails(tmp_path, capsys):
    """xi=0 fails; the xi=1 case is still written, the failed one is named
    on one stderr line, and the exit code is a failed sweep's."""
    assert main(["spectrum", "--levels", "2", "--xi", "0,1", "--out", str(tmp_path / "a.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "case failed: level=2 darcy-reduced;xi=0;gamma=1: ValueError: ")
    assert main(["spectrum", "--levels", "2", "--xi", "1", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_non_positive_coefficient_fails_with_its_name(tmp_path, capsys):
    """xi = 0 is refused by name before anything is assembled: the row's
    failed field and spectrum's stderr line carry ProblemParams' message,
    and the row raised no divide-by-zero warning."""
    (row,) = run(small_config(levels=(2,), xi=(0.0,)))
    assert row.failed == "ValueError: xi must be positive, got 0.0" and row.warnings == 0
    assert main(["spectrum", "--levels", "2", "--xi", "0", "--out", str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "case failed: level=2 darcy-reduced;xi=0;gamma=1: "
        "ValueError: xi must be positive, got 0.0"]


@pytest.mark.parametrize("argv", [
    ["darcy-manufactured", "--xi", "inf"],
    ["darcy-manufactured", "--gamma", "nan"],
    ["darcy-manufactured", "--eta", "nan"],
    ["stokes-manufactured", "--nu", "nan"],
    ["stokes-manufactured", "--zeta", "inf"],
])
def test_non_finite_parameter_fails_with_its_name(argv, capsys, monkeypatch):
    """A non-finite model parameter fails its row by name before anything
    is assembled, not later with a false cause."""
    monkeypatch.setattr(assembly, "_context", lambda *args: pytest.fail("assembled"))
    assert main(argv + ["--levels", "2", "--no-timing"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.endswith(f"ValueError: {argv[1][2:]} must be finite, got {argv[2]}")


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
def test_tol_not_positive_and_finite_is_refused(tol, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["darcy-manufactured", "--levels", "2", "--tol", tol])
    assert exit_.value.code == 2 and "--tol must be positive and finite" in capsys.readouterr().err


def test_row_builds_its_preconditioner_before_its_scheme(monkeypatch):
    """The S_P factor's peak never meets the scheme's arrays: a row builds
    its preconditioner, then assembles the scheme."""
    calls = []
    for name in ("build_reduced", "assemble_darcy"):
        fn = getattr(bench, name)
        monkeypatch.setattr(bench, name,
                            lambda *a, _n=name, _f=fn, **kw: calls.append(_n) or _f(*a, **kw))
    (row,) = run(small_config())
    assert calls == ["build_reduced", "assemble_darcy"] and row.converged


def test_csv_header_is_the_row_fields():
    names = [f.name for f in fields(ResultRow) if f.name not in ("failed", "warnings")]
    assert CSV_HEADER == ",".join(names)


def test_json_round_trip():
    rows = run(small_config())
    text = emit(rows, fmt="json")
    back = json_rows(text)
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
    back = json_rows(text)
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
    assert json_rows(text) == rows


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


def test_dump_matrices_skipped_when_first_case_fails(tmp_path, capsys):
    """A first case whose scheme cannot be assembled fails its row and
    writes no matrix file; every row is still reported."""
    out, dumpd = tmp_path / "rows.csv", tmp_path / "mats"
    code = main(["stokes-manufactured", "--levels", "2", "--nu", "nan,1", "--no-timing",
                 "--out", str(out), "--dump-matrices", str(dumpd)])
    assert code == 2 and "nu must be finite" in capsys.readouterr().err
    failed, solved = out.read_text().splitlines()[1:]
    assert ",failed," in failed and solved.split(",")[10].isdigit()
    assert not dumpd.exists() or not any(dumpd.iterdir())


def test_dump_matrices_written_when_first_solve_fails(tmp_path, monkeypatch):
    """The dump is written once the first case's scheme is assembled and
    condensed, whatever happens to that row's solve."""
    dumpd = tmp_path / "mats"
    build = precond.build_reduced
    calls = []

    def fail_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("forced")
        return build(*args)

    monkeypatch.setattr(bench, "build_reduced", fail_first)
    rows = run(small_config(gamma=(1.0, 1e4), dump_matrices=str(dumpd)))
    assert rows[0].failed == "RuntimeError: forced" and rows[1].converged
    assert sorted(p.name for p in dumpd.iterdir()) == [
        "darcy-manufactured-n4-monolithic.txt", "darcy-manufactured-n4-schur.txt"]


def test_spectrum_case_is_measured_on_one_mesh(monkeypatch):
    """A spectrum case's inner product and probes all see its level's one
    Mesh, and its probe constants are lemma_probes' bit for bit."""
    seen = []
    inner = bench.assemble_inner
    monkeypatch.setattr(bench, "assemble_inner",
                        lambda spec, mesh, *args: seen.append(mesh) or inner(spec, mesh, *args))
    for name, probe in spectra._PROBES["darcy"].items():
        monkeypatch.setitem(spectra._PROBES["darcy"], name,
                            lambda mesh, params, probe=probe: seen.append(mesh)
                            or probe(mesh, params))
    rows = bench.spectrum(RunConfig("spectrum", levels=(2, 4), xi=(1.0, 1e-6)))
    assert len(seen) == 2 * 2 * (1 + len(spectra.PROBE_SETS["darcy"]))
    per_level: dict = {}
    for mesh in seen:
        per_level.setdefault(mesh.n_cells, set()).add(id(mesh))
    assert sorted(per_level) == [8, 32] and all(len(ids) == 1 for ids in per_level.values())
    monkeypatch.undo()
    probe_rows = [r for r in rows if "cells" in r]
    for row, (n, xi) in zip(probe_rows, [(2, 1.0), (2, 1e-6), (4, 1.0), (4, 1e-6)],
                            strict=True):
        (want,) = lemma_probes("darcy", 2, (n,), ProblemParams(k=2, xi=xi))
        assert list(row.items()) == [*want.items(), ("label", row["label"])]


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


def test_each_level_builds_one_mesh(monkeypatch, tmp_path):
    """Every row of a level, and --mesh-out, get the same Mesh object."""
    seen = []
    monkeypatch.setattr(bench, "write_mesh_text", lambda mesh, path: seen.append(("out", mesh)))
    solve = bench._solve_case

    def record(config, mesh, n, *args):
        seen.append((n, mesh))
        return solve(config, mesh, n, *args)

    monkeypatch.setattr(bench, "_solve_case", record)
    rows = run(small_config(levels=(2, 4), gamma=(1.0, 1e4), mesh_out=str(tmp_path / "m")))
    assert [r.level for r in rows] == [2, 2, 4, 4] and not any(r.failed for r in rows)
    assert [n for n, _ in seen] == ["out", 2, 2, 4, 4]
    assert seen[0][1] is seen[1][1] is seen[2][1]
    assert seen[3][1] is seen[4][1] and seen[3][1] is not seen[1][1]


@pytest.mark.parametrize("argv, message", [
    (["darcy-manufactured", "--zeta", "100"], "Stokes-only"),
    (["darcy-heterogeneous", "--hatted"], "Stokes-only"),
    (["stokes-manufactured", "--precond", "counterexample"], "Darcy-only"),
    (["spectrum", "--hatted"], "Stokes-only"),
    (["spectrum", "--problem", "stokes", "--precond", "counterexample"], "Darcy-only"),
    (["spectrum", "--tol", "1e-6"], "--tol"),
    (["spectrum", "--maxit", "10"], "--maxit"),
    (["spectrum", "--format", "md"], "--format"),
    (["spectrum", "--format", "json"], "--format"),
    (["spectrum", "--no-timing"], "--no-timing"),
    (["spectrum", "--dump-matrices", "mats"], "--dump-matrices"),
    (["spectrum", "--mesh-out", "mesh.txt"], "--mesh-out"),
    (["darcy-manufactured", "--probes", "inf_sup"], "--probes"),
    (["stokes-manufactured", "--problem", "stokes"], "--problem"),
    (["stokes-manufactured", "--xi", "1,1e-6"], "--xi"),
    (["stokes-cavity", "--gamma", "1e4"], "--gamma"),
    (["darcy-manufactured", "--nu", "1e-6"], "--nu"),
    (["darcy-heterogeneous", "--xi", "1e-6"], "--xi"),
    (["darcy-heterogeneous", "--gamma", "1e4"], "--gamma"),
    (["darcy-counterexample", "--precond", "counterexample"], "--precond"),
    (["spectrum", "--probes", "inf_sub"], "inf_sub"),
    (["spectrum", "--probes", "ch_coercivity"], "ch_coercivity"),
    (["darcy-heterogeneous", "--precond", "counterexample"], "--precond"),
])
def test_ignored_arguments_are_refused(argv, message, capsys, tmp_path, monkeypatch):
    """A flag the run would ignore, or an unknown probe, is a usage error
    (exit 2) before any work: no file written, nothing assembled."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(assembly, "_context", lambda *args: pytest.fail("assembled"))
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--levels", "2"])
    assert exit_.value.code == 2 and message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("experiment, dim, levels", [
    ("darcy-manufactured", 2, (8, 16, 32)), ("darcy-manufactured", 3, (2, 4, 8)),
    ("stokes-cavity", 2, (8, 16, 32)), ("stokes-manufactured", 3, (2, 4, 8)),
    ("spectrum", 2, (4, 8)), ("spectrum", 3, (2,)),
])
def test_run_config_default_levels(experiment, dim, levels, monkeypatch):
    """RunConfig defaults its levels by dim and experiment; the CLI passes
    none of its own."""
    assert RunConfig(experiment, dim=dim).levels == levels
    assert RunConfig(experiment, dim=dim, levels=(2,)).levels == (2,)

    class Stop(Exception):
        pass

    seen = []

    def record(config):
        seen.append(config)
        raise Stop

    monkeypatch.setattr(cli, "run", record)
    monkeypatch.setattr(cli, "spectrum", record)
    with pytest.raises(Stop):
        main([experiment, "--dim", str(dim)])
    assert seen == [RunConfig(experiment, dim=dim)]


def test_row_scheme_and_inner_product_share_one_context(monkeypatch):
    """A row builds one ElementContext: its scheme and its inner product
    share it, and its arrays are read-only."""
    seen = []
    condense_precond = precond.condense_precond
    monkeypatch.setattr(bench, "condense", lambda system: seen.append(system) or condense(system))
    monkeypatch.setattr(precond, "condense_precond",
                        lambda inner: seen.append(inner) or condense_precond(inner))
    (row,) = run(small_config())
    (system,) = [s for s in seen if s.rhs_cell.any()]   # the loaded scheme
    (inner,) = [s for s in seen if not s.rhs_cell.any()]
    assert system.context is inner.context and row.converged
    with pytest.raises(ValueError, match="read-only"):
        inner.context.Jinv[0] = 0.0


def test_run_config_refuses_ignored_fields():
    with pytest.raises(ValueError, match="Stokes-only"):
        small_config(zeta=(0.0, 100.0))
    with pytest.raises(ValueError, match="Stokes-only"):
        small_config(experiment="darcy-counterexample", hatted=True)
    with pytest.raises(ValueError, match="Darcy-only"):
        RunConfig("stokes-cavity", precond="counterexample")
    with pytest.raises(ValueError, match="Stokes-only"):
        RunConfig("spectrum", levels=(2,), zeta=(100.0,))


def _spectrum_blocks(out, *argv):
    """{label: [(level, constant, value), ...]} of a spectrum CSV, in file order."""
    assert main(["spectrum", "--out", str(out), *argv]) == 0
    blocks: dict = {}
    for level, label, name, value in (line.split(",") for line in
                                      out.read_text().splitlines()[1:]):
        blocks.setdefault(label, []).append((int(level), name, float(value)))
    return blocks


def test_spectrum_sweeps_every_case(tmp_path):
    """--xi x --gamma gives one labelled block per case, bounds row then
    probe row, each equal to the single-case run of that case."""
    blocks = _spectrum_blocks(tmp_path / "all.csv", "--levels", "2", "--xi", "1,1e-6",
                              "--gamma", "1,1e4")
    assert list(blocks) == ["darcy-reduced;xi=1;gamma=1", "darcy-reduced;xi=1;gamma=10000",
                            "darcy-reduced;xi=1e-06;gamma=1",
                            "darcy-reduced;xi=1e-06;gamma=10000"]
    for label, rows in blocks.items():
        xi, gamma = (part.split("=")[1] for part in label.split(";")[1:])
        single = _spectrum_blocks(tmp_path / "one.csv", "--levels", "2", "--xi", xi,
                                  "--gamma", gamma)
        assert single == {label: rows}
        names = [name for _, name, _ in rows]
        assert names[0] == "c_b" and names.index("lower_ok") < names.index("beta")


def _bounds_values(rows):
    return {name: value for _, name, value in rows}


def test_spectrum_stokes_hatted_zeta(tmp_path):
    """--hatted --zeta 100 measures the hatted grad-div inner product."""
    (rows,) = _spectrum_blocks(tmp_path / "s.csv", "--problem", "stokes", "--levels", "2",
                               "--hatted", "--zeta", "100",
                               "--probes", "ch_coercivity").values()
    params = ProblemParams(k=2, zeta=100.0)
    mesh = unit_box_mesh(2, 2)
    spaces = stokes_spaces(mesh, 2)
    want = reduced_bounds_check(assemble_stokes(mesh, spaces, params),
                                assemble_stokes_inner(mesh, spaces, params, hatted=True))
    got = _bounds_values(rows)
    assert all(got[name] == float(value) for name, value in want.items())
    plain = reduced_bounds_check(assemble_stokes(mesh, spaces, ProblemParams(k=2)),
                                 assemble_stokes_inner(mesh, spaces, ProblemParams(k=2)))
    assert got["c_l"] != plain["c_l"]


def test_spectrum_counterexample_lifting_grows(tmp_path):
    """--precond counterexample measures the counterexample inner product,
    whose lifting constant exceeds the robust one."""
    def c_l(precond):
        (label, rows), = _spectrum_blocks(tmp_path / f"{precond}.csv", "--levels", "4",
                                          "--precond", precond, "--probes", "inf_sup").items()
        return label, _bounds_values(rows)

    label, got = c_l("counterexample")
    assert label == "counterexample-reduced;xi=1;gamma=1"
    params = ProblemParams(k=2)
    mesh = unit_box_mesh(2, 4)
    spaces = darcy_spaces(mesh, 2)
    want = reduced_bounds_check(assemble_darcy(mesh, spaces, params),
                                assemble_counterexample_inner(mesh, spaces, params))
    assert all(got[name] == float(value) for name, value in want.items())
    robust = reduced_bounds_check(assemble_darcy(mesh, spaces, params),
                                  assemble_darcy_inner(mesh, spaces, params))
    assert c_l("robust")[1]["c_l"] == robust["c_l"]
    assert got["c_l"] > 10 * robust["c_l"]
