"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here; nothing is deferred to later calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from condensa.assembly import (ProblemParams, assemble_aux_hdg,
                               assemble_counterexample_inner, assemble_darcy,
                               assemble_darcy_inner, assemble_stokes,
                               assemble_stokes_inner, aux_spaces, darcy_spaces,
                               stokes_spaces)
from condensa.bench import RunConfig, emit, run
from condensa.condense import back_substitute, condense, condense_precond
from condensa.krylov import cg, factor_spd, minres
from condensa.manufactured import manufactured_rhs
from condensa.mesh import unit_box_mesh
from condensa.precond import PreconditionerSpec, build_reduced
from condensa.spectra import lemma_probes, lifting_constant, reduced_bounds_check

from conftest import evaluate_norms, factor_sym_indef

_cache: dict = {}


def _sweep(key, cfg):
    if key not in _cache:
        _cache[key] = run(cfg)
    return _cache[key]


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


# ----------------------------------------------------------------------
# 1. condensation oracle equivalence (<= 1e-9 relative, X_h norm)


def _equivalence_case(problem, dim, n, rng):
    params = ProblemParams(k=2, xi=2.0, gamma=0.5, nu=3.0)
    mesh = unit_box_mesh(dim, n)
    out = []
    if problem == "darcy":
        case = manufactured_rhs("darcy", dim, params)
        spaces = darcy_spaces(mesh, 2)
        system = assemble_darcy(mesh, spaces, params, f=case.f,
                                p_dirichlet=case.dirichlet)
    elif problem == "aux":
        system = assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params,
                                  f=lambda x: np.sin(x[:, 0]))
    else:
        case = manufactured_rhs("stokes", dim, params)
        spaces = stokes_spaces(mesh, 2)
        system = assemble_stokes(mesh, spaces, params, f=case.f,
                                 u_dirichlet=case.dirichlet)
    for data in ("manufactured", "random"):
        if data == "random":
            system.rhs_cell = rng.standard_normal(system.rhs_cell.shape)
            system.rhs_trace = rng.standard_normal(system.rhs_trace.shape)
            if system.null_vectors:  # keep the singular system consistent
                z = system.null_vectors[0]
                b = system.rhs()
                b -= (b @ z) / (z @ z) * z
                cells, trace = system.layout.split(b)
                system.rhs_cell, system.rhs_trace = cells.copy(), trace.copy()
        K = system.to_sparse()
        b = system.rhs()
        cond = condense(system)
        if system.null_vectors:
            z = system.null_vectors[0]
            Kb = sp.bmat([[K, z[:, None]], [z[None, :], None]], format="csc")
            x_mono = factor_sym_indef(Kb).solve(np.concatenate([b, [0.0]]))[:-1]
            zb = cond.null_vectors[0]
            Sb = sp.bmat([[cond.S, zb[:, None]], [zb[None, :], None]], format="csc")
            xbar = factor_sym_indef(Sb).solve(np.concatenate([cond.rhs, [0.0]]))[:-1]
        else:
            x_mono = factor_sym_indef(K).solve(b)
            xbar = factor_spd(cond.S).solve(cond.rhs)
        x_rec = back_substitute(cond, xbar)
        d = x_mono - x_rec
        for z in system.null_vectors:
            d -= (d @ z) / (z @ z) * z
        if problem == "aux":
            rel = np.linalg.norm(d) / np.linalg.norm(x_rec)
        else:
            rel = evaluate_norms(system, d)["tnorm_X"] / evaluate_norms(system, x_rec)["tnorm_X"]
        out.append(rel)
    return max(out)


def test_criterion_1_condensation_equivalence(rng):
    worst = 0.0
    for problem in ("darcy", "stokes", "aux"):
        for dim, n in ((2, 8), (3, 2)):  # 128 cells in 2D, 48 cells in 3D
            rel = _equivalence_case(problem, dim, n, rng)
            assert rel <= 1e-9, f"{problem} {dim}D: {rel:.2e}"
            worst = max(worst, rel)
    _report(1, f"condensed solve matches monolithic oracle, worst rel {worst:.1e}")


# ----------------------------------------------------------------------
# 2. Darcy robustness


def _darcy_sweep(dim, levels):
    cfg = RunConfig(experiment="darcy-manufactured", dim=dim, levels=levels,
                    xi=(1.0, 1e-6), gamma=(1e-4, 1.0, 1e4), timing=False)
    return _sweep(("darcy", dim), cfg)


def test_criterion_2_darcy_robustness():
    rows2 = _darcy_sweep(2, (8, 16, 32))
    counts2 = [r.iters for r in rows2]
    assert all(r.converged for r in rows2)
    assert max(counts2) <= 60
    assert max(counts2) / min(counts2) <= 2.0
    rows3 = _darcy_sweep(3, (2, 4, 8))
    counts3 = [r.iters for r in rows3]
    assert all(r.converged for r in rows3)
    assert max(counts3) <= 90
    assert max(counts3) / min(counts3) <= 2.2
    _report(2, f"CG counts 2D {min(counts2)}-{max(counts2)}, "
               f"3D {min(counts3)}-{max(counts3)} across the full sweep")


# ----------------------------------------------------------------------
# 3. heterogeneous reaction coefficient


def test_criterion_3_heterogeneous_gamma():
    cfg = RunConfig(experiment="darcy-heterogeneous", levels=(8, 16, 32, 64),
                    timing=False)
    rows = _sweep("het", cfg)
    counts = [r.iters for r in rows]
    assert all(r.converged for r in rows)
    assert max(counts) <= 60
    assert max(counts) / min(counts) <= 1.5
    _report(3, f"heterogeneous-gamma CG counts {counts} (flat)")


# ----------------------------------------------------------------------
# 4. counterexample


def test_criterion_4_counterexample():
    cfg = RunConfig(experiment="darcy-counterexample", levels=(8, 16, 32, 64),
                    timing=False)
    rows = _sweep("counter", cfg)
    cgc = [r.iters for r in rows if r.precond == "counterexample-reduced"]
    mrc = [r.iters for r in rows if r.precond == "counterexample-full"]
    assert cgc[3] / cgc[0] >= 3.0
    assert cgc[0] < cgc[1] < cgc[2] < cgc[3]
    assert max(mrc) <= 25
    assert max(mrc) / min(mrc) <= 1.6
    _report(4, f"reduced counterexample CG grows {cgc}, full MINRES flat {mrc}")


# ----------------------------------------------------------------------
# 5. Stokes robustness and grad-div variants


def _stokes_sweep():
    cfg = RunConfig(experiment="stokes-manufactured", levels=(8, 16, 32),
                    nu=(1.0, 1e-6), zeta=(0.0,), timing=False)
    return _sweep("stokes-base", cfg)


def _stokes_hat100():
    cfg = RunConfig(experiment="stokes-manufactured", levels=(8, 16, 32),
                    nu=(1.0, 1e-6), zeta=(100.0,), hatted=True, timing=False)
    return _sweep("stokes-hat", cfg)


def test_criterion_5_stokes_robustness():
    base = _stokes_sweep()
    counts = [r.iters for r in base]
    assert all(r.converged for r in base)
    assert max(counts) <= 130
    assert max(counts) / min(counts) <= 1.4
    hat = _stokes_hat100()
    for rb, rh in zip(base, hat):
        assert (rb.level, rb.nu) == (rh.level, rh.nu)
        assert rh.iters < rb.iters
    _report(5, f"MINRES counts {counts} (robust); hatted zeta=100 strictly "
               f"lower: {[r.iters for r in hat]}")


# ----------------------------------------------------------------------
# 6. reduced spectral-equivalence bounds


def test_criterion_6_reduced_bounds():
    kappas = []
    for n in (2, 4, 8):
        for xi in (1.0, 1e-6):
            for gamma in (1e-4, 1.0, 1e4):
                params = ProblemParams(k=2, xi=xi, gamma=gamma)
                mesh = unit_box_mesh(2, n)
                spaces = darcy_spaces(mesh, 2)
                rep = reduced_bounds_check(assemble_darcy(mesh, spaces, params),
                                      assemble_darcy_inner(mesh, spaces, params))
                assert rep["upper_ok"] and rep["lower_ok"], (n, xi, gamma, rep)
                kappas.append(rep["kappa_reduced"])
        assert max(kappas) / min(kappas) <= 3.0
    for n in (2, 4):
        for nu in (1.0, 1e-6):
            params = ProblemParams(k=2, nu=nu)
            mesh = unit_box_mesh(2, n)
            spaces = stokes_spaces(mesh, 2)
            rep = reduced_bounds_check(assemble_stokes(mesh, spaces, params),
                                  assemble_stokes_inner(mesh, spaces, params))
            assert rep["upper_ok"] and rep["lower_ok"], (n, nu, rep)
    _report(6, f"eigenvalue bounds hold; Darcy reduced kappa range "
               f"{min(kappas):.2f}-{max(kappas):.2f} (<= 3x)")


# ----------------------------------------------------------------------
# 7. lifting-constant dichotomy


def test_criterion_7_lifting_dichotomy():
    params = ProblemParams(k=2, xi=1.0, gamma=1.0)
    robust, counter = [], []
    for n in (4, 8, 16):
        mesh = unit_box_mesh(2, n)
        spaces = darcy_spaces(mesh, 2)
        system = assemble_darcy(mesh, spaces, params)
        robust.append(lifting_constant(system, assemble_darcy_inner(mesh, spaces, params)))
        counter.append(lifting_constant(
            system, assemble_counterexample_inner(mesh, spaces, params)))
    assert robust[1] / robust[0] <= 1.10 and robust[2] / robust[1] <= 1.10
    assert counter[1] / counter[0] >= 1.5 and counter[2] / counter[1] >= 1.5
    _report(7, f"c_l robust {[f'{c:.3f}' for c in robust]} flat; "
               f"counterexample {[f'{c:.1f}' for c in counter]} grows")


# ----------------------------------------------------------------------
# 8. lemma probes


def _variation(rows, key):
    vals = [r[key] for r in rows]
    assert all(v > 0 for v in vals), key
    return max(vals) / min(vals)


def test_criterion_8_lemma_probes():
    worst = {}
    for xi, gamma in ((1.0, 1.0), (1e-6, 1e4)):
        params = ProblemParams(k=2, xi=xi, gamma=gamma)
        rows = lemma_probes("darcy", 2, (4, 8, 16), params,
                            probes=("aux_coercivity", "darcy_lifting_vs_aux"))
        for key in ("aux_coercivity_lo", "aux_coercivity_hi", "lifting_vs_aux"):
            worst[key] = max(worst.get(key, 1.0), _variation(rows, key))
    rows = lemma_probes("darcy", 2, (4, 8, 16), ProblemParams(k=2),
                        probes=("inf_sup",))
    worst["beta"] = _variation(rows, "beta")
    for nu in (1.0, 1e-6):
        params = ProblemParams(k=2, nu=nu)
        rows = lemma_probes("stokes", 2, (4, 8, 16), params,
                            probes=("ch_coercivity",))
        worst["ch_coercivity_lo"] = max(worst.get("ch_coercivity_lo", 1.0),
                                _variation(rows, "ch_coercivity_lo"))
        worst["ch_coercivity_hi"] = max(worst.get("ch_coercivity_hi", 1.0),
                                _variation(rows, "ch_coercivity_hi"))
        rows = lemma_probes("stokes", 2, (8, 12, 16), params,
                            probes=("condensed_velocity",))
        worst["condensed_velocity_lo"] = max(worst.get("condensed_velocity_lo", 1.0), _variation(rows, "condensed_velocity_lo"))
        worst["condensed_velocity_hi"] = max(worst.get("condensed_velocity_hi", 1.0), _variation(rows, "condensed_velocity_hi"))
        rows = lemma_probes("stokes", 2, (2, 4, 8), params,
                            probes=("stokes_lifting",))
        worst["stokes_lifting_bound"] = max(worst.get("stokes_lifting_bound", 1.0), _variation(rows, "stokes_lifting_bound"))
    for key, var in worst.items():
        assert var <= 1.20, (key, var)
    _report(8, "lemma constants positive and level-stable: " +
            ", ".join(f"{k} x{v:.2f}" for k, v in worst.items()))


# ----------------------------------------------------------------------
# 9. convergence orders


def _order(rows, attr):
    vals = [getattr(r, attr) for r in rows]
    return np.log2(vals[-2] / vals[-1])


def test_criterion_9_convergence_orders():
    rows = [r for r in _darcy_sweep(2, (8, 16, 32))
            if r.xi == 1.0 and r.gamma == 1.0]
    rows.sort(key=lambda r: r.level)
    ou, op = _order(rows, "err_u"), _order(rows, "err_p")
    assert 2.7 <= ou <= 3.3, ou
    assert 1.7 <= op <= 2.5, op
    srows = [r for r in _stokes_sweep() if r.nu == 1.0]
    srows.sort(key=lambda r: r.level)
    osu = _order(srows, "err_u")
    assert 2.7 <= osu <= 3.3, osu
    _report(9, f"orders: Darcy u {ou:.2f}, p {op:.2f}; Stokes u {osu:.2f}")


# ----------------------------------------------------------------------
# 10. solver and infrastructure properties


def test_criterion_10_infrastructure():
    # (a) preconditioner-scaling invariance of the counts
    params = ProblemParams(k=2, xi=1.0, gamma=1.0)
    mesh = unit_box_mesh(2, 8)
    spaces = darcy_spaces(mesh, 2)
    case = manufactured_rhs("darcy", 2, params)
    system = assemble_darcy(mesh, spaces, params, f=case.f,
                            p_dirichlet=case.dirichlet)
    cond = condense(system)
    f = factor_spd(condense_precond(assemble_darcy_inner(mesh, spaces, params)).S)
    counts = set()
    for c in (1e-6, 1.0, 1e6):
        _, rep = cg(lambda v: cond.S @ v, lambda r: f.solve(r) / c, cond.rhs,
                    tol=1e-10)
        counts.add(rep.iterations)
    assert len(counts) == 1

    paramsS = ProblemParams(k=2, nu=1e-6)
    meshS = unit_box_mesh(2, 4)
    spacesS = stokes_spaces(meshS, 2)
    caseS = manufactured_rhs("stokes", 2, paramsS)
    systemS = assemble_stokes(meshS, spacesS, paramsS, f=caseS.f,
                              u_dirichlet=caseS.dirichlet)
    condS = condense(systemS)
    fS = factor_spd(condense_precond(
        assemble_stokes_inner(meshS, spacesS, paramsS)).S)
    countsS = set()
    for c in (1e-6, 1.0, 1e6):
        _, rep = minres(lambda v: condS.S @ v, lambda r: fS.solve(r) / c,
                        condS.rhs, tol=1e-8, deflate=condS.null_vectors)
        countsS.add(rep.iterations)
    assert len(countsS) == 1

    # (b) SPD certification succeeds for every reduced preconditioner in the
    # acceptance sweeps (factor_spd raises otherwise)
    for xi in (1.0, 1e-6):
        for gamma in (1e-4, 1.0, 1e4):
            p = ProblemParams(k=2, xi=xi, gamma=gamma)
            build_reduced(PreconditionerSpec("darcy", "robust", "reduced"),
                          mesh, spaces, p)
    for nu in (1.0, 1e-6):
        for zeta, hatted in ((0.0, False), (100.0, True)):
            p = ProblemParams(k=2, nu=nu, zeta=zeta)
            build_reduced(PreconditionerSpec("stokes", "robust", "reduced",
                                             zeta=zeta, hatted=hatted),
                          meshS, spacesS, p)

    # (c) deterministic single-threaded output bytes
    cfg = RunConfig(experiment="darcy-manufactured", levels=(4,), timing=False)
    assert emit(run(cfg), fmt="csv") == emit(run(cfg), fmt="csv")
    _report(10, "scaling invariance, SPD certification, and byte determinism hold")
