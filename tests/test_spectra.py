import numpy as np
import pytest

from condensa.assembly import (ProblemParams, assemble_counterexample_inner,
                               assemble_stokes_ch, stokes_spaces)
from condensa.condense import condense, condense_precond
from condensa.mesh import unit_box_mesh
from condensa.norms import evaluate_norms
from condensa import krylov
from condensa.spectra import (SpectralReport, _hu_seminorm_matrix, lemma_probes,
                              lifting_constant, lifting_matrix, measure_constants,
                              reduced_bounds_check, write_constants_csv)

from conftest import darcy_problem, sparse_modes, stokes_problem


def test_measure_constants_identity_and_diag():
    P = np.diag([1.0, 2.0, 3.0])
    c_b, c_i, kappa = measure_constants(P, P)
    assert abs(c_b - 1) < 1e-12 and abs(c_i - 1) < 1e-12 and abs(kappa - 1) < 1e-12
    c_b, c_i, kappa = measure_constants(np.diag([1.0, -2.0]), np.eye(2))
    assert (c_b, c_i, kappa) == (2.0, 1.0, 2.0)


def test_measure_constants_above_dense_max(monkeypatch):
    """Above DENSE_MAX the ARPACK ends reproduce the dense constants."""
    *_, system, inner = stokes_problem(n=4, nu=1e-6, with_data=False)
    args = system.to_sparse(), inner.to_sparse(), len(system.null_vectors)
    assert args[0].shape[0] <= krylov.DENSE_MAX
    dense = measure_constants(*args)
    modes = sparse_modes(monkeypatch)
    for got, want in zip(measure_constants(*args), dense):
        assert abs(got - want) <= 1e-8 * want
    assert modes == ["magnitude"]


def test_measure_constants_rejects_singular():
    with pytest.raises(ValueError):
        measure_constants(np.diag([1.0, 0.0]), np.eye(2))


@pytest.mark.parametrize("sparse", [False, True])
def test_measure_constants_rejects_undeclared_kernel(monkeypatch, sparse):
    # the Stokes pencil has the constant-pressure kernel; undeclared, its
    # eigenvalue comes back at roundoff level (1e-15 dense, 2e-16 ARPACK)
    _, _, _, system, inner = stokes_problem(n=4, with_data=False)
    A, P = system.to_sparse(), inner.to_sparse()
    if sparse:
        sparse_modes(monkeypatch)
    with pytest.raises(ValueError, match="beyond the declared kernel"):
        measure_constants(A, P, kernel_dim=0)
    c_b, c_i, _ = measure_constants(A, P, kernel_dim=1)
    assert c_i > 1e-3 * c_b


def test_darcy_kappa_robust_across_sweep():
    kappas = []
    for xi in (1e-6, 1.0):
        for gamma in (1e-4, 1.0, 1e4):
            _, _, _, system, inner = darcy_problem(n=4, xi=xi, gamma=gamma,
                                                   with_data=False)
            _, _, kappa = measure_constants(system.to_sparse(), inner.to_sparse())
            kappas.append(kappa)
    assert max(kappas) / min(kappas) <= 3.0


def test_lifting_toy_block_diagonal():
    # A21 = 0 and P block diagonal: the lifting is (0, xbar) and c_l = 1
    _, _, _, system, inner = darcy_problem(n=2, with_data=False)
    system = _zero_coupling(system)
    c_l = lifting_constant(system, inner)
    # G = P22 exactly and S_P <= P22, so c_l >= 1; with P21 != 0 slightly above
    assert c_l >= 1.0 - 1e-10


def _zero_coupling(system):
    import copy
    out = copy.copy(system)
    out.a21 = np.zeros_like(system.a21)
    return out


def test_lifting_toy_exact_identity():
    # additionally remove P21: then S_P = P22 = G and c_l = 1
    _, _, _, system, inner = darcy_problem(n=2, with_data=False)
    system0 = _zero_coupling(system)
    inner0 = _zero_coupling(inner)
    c_l = lifting_constant(system0, inner0)
    assert abs(c_l - 1.0) <= 1e-10


def test_lifting_matrix_shape_and_cell_content():
    _, _, _, system, _ = darcy_problem(n=2, with_data=False)
    L = lifting_matrix(system)
    lay = system.layout
    assert L.shape == (lay.n_total, lay.n_trace)
    # trace block is the identity
    assert np.abs(L.toarray()[lay.n_cell_total:] - np.eye(lay.n_trace)).max() == 0.0


def test_reduced_bounds_trivial_a_equals_p():
    _, _, _, _, inner = darcy_problem(n=2, with_data=False)
    rep = reduced_bounds_check(inner, inner)
    assert rep["upper_ok"] and rep["lower_ok"]
    assert abs(rep["lam_max"] - 1.0) < 1e-9 and abs(rep["lam_min"] - 1.0) < 1e-9


@pytest.mark.parametrize("xi,gamma", [(1e-6, 1e4), (1.0, 1.0)])
def test_reduced_bounds_darcy(xi, gamma):
    _, _, _, system, inner = darcy_problem(n=4, xi=xi, gamma=gamma, with_data=False)
    rep = reduced_bounds_check(system, inner)
    assert rep["upper_ok"] and rep["lower_ok"]


def test_reduced_bounds_stokes_with_deflation():
    _, _, _, system, inner = stokes_problem(n=4, with_data=False)
    rep = reduced_bounds_check(system, inner)
    assert rep["upper_ok"] and rep["lower_ok"]


def test_constants_invariant_under_preconditioner_rescaling():
    _, _, _, system, inner = darcy_problem(n=2, with_data=False)
    S_A = condense(system).S
    S_P = condense_precond(inner).S
    base = None
    for c in (1e-3, 1.0, 1e3):
        from condensa.krylov import generalized_eigs
        vals = generalized_eigs(S_A.toarray(), c * S_P.toarray(), mode="full")
        kappa = np.abs(vals).max() / np.abs(vals).min()
        if base is None:
            base = kappa
        assert abs(kappa - base) <= 1e-9 * base


def test_lifting_dichotomy_levels():
    params = ProblemParams(k=2, xi=1.0, gamma=1.0)
    cl_robust, cl_ce = [], []
    for n in (2, 4, 8):
        mesh, spaces, _, system, inner = darcy_problem(n=n, with_data=False)
        cl_robust.append(lifting_constant(system, inner))
        ce = assemble_counterexample_inner(mesh, spaces, params)
        cl_ce.append(lifting_constant(system, ce))
    assert cl_robust[1] / cl_robust[0] <= 1.10
    assert cl_robust[2] / cl_robust[1] <= 1.10
    assert cl_ce[1] / cl_ce[0] >= 1.5
    assert cl_ce[2] / cl_ce[1] >= 1.5


def test_pencil_max_vs_random_maximization(rng):
    # direct maximization (sampling + power refinement) lower-bounds the
    # pencil value and comes within 5%
    from condensa.krylov import factor_spd
    _, _, _, system, inner = darcy_problem(n=2, with_data=False)
    S_P = condense_precond(inner).S
    c_l = lifting_constant(system, inner, S_P=S_P)
    L = lifting_matrix(system)
    P = inner.to_sparse()
    G = (L.T @ (P @ L)).tocsr()
    f = factor_spd(S_P)
    best = 0.0
    for _ in range(5):
        x = rng.standard_normal(G.shape[0])
        for _ in range(50):
            x = f.solve(G @ x)
            x /= np.linalg.norm(x)
        best = max(best, np.sqrt((x @ (G @ x)) / (x @ (S_P @ x))))
    assert best <= c_l * (1 + 1e-8)
    assert best >= 0.95 * c_l


def test_probe_constant_functions_excluded():
    # with gamma = 0 the masked pair space contains no constant-pair kernel:
    # the measured lower constant stays positive
    params = ProblemParams(k=2, xi=1.0, gamma=0.0)
    rows = lemma_probes("darcy", 2, (2,), params, probes=("aux_coercivity",))
    assert rows[0]["aux_coercivity_lo"] > 0.05


def test_probe_rows_and_csv(tmp_path):
    params = ProblemParams(k=2, xi=1.0, gamma=1.0)
    rows = lemma_probes("darcy", 2, (2, 4), params,
                        probes=("aux_coercivity", "inf_sup"))
    assert all(r["aux_coercivity_lo"] > 0 and r["beta"] > 0 for r in rows)
    path = tmp_path / "constants.csv"
    write_constants_csv(path, rows, params)
    text = path.read_text().splitlines()
    assert text[0] == "level,params,constant,value"
    assert len(text) == 1 + sum(len(r) - 2 for r in rows)


def test_stokes_probes_positive():
    params = ProblemParams(k=2, nu=1.0)
    rows = lemma_probes("stokes", 2, (2,), params)
    r = rows[0]
    assert r["ch_coercivity_lo"] > 0 and r["ch_coercivity_hi"] < 10
    assert 0 < r["condensed_velocity_lo"] < r["condensed_velocity_hi"]
    assert r["stokes_lifting_bound"] > 0


def test_spectral_report_validation():
    rep = SpectralReport(c_b=2.0, c_i=1.0, kappa_full=2.0, kappa_reduced=1.5, c_l=1.0)
    assert rep.validate() is rep
    with pytest.raises(ValueError):
        SpectralReport(c_b=1.0, c_i=2.0, kappa_full=0.5, kappa_reduced=1.0,
                       c_l=1.0).validate()
    with pytest.raises(ValueError):
        SpectralReport(c_b=np.nan, c_i=1.0, kappa_full=1.0, kappa_reduced=1.0,
                       c_l=1.0).validate()


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_hu_seminorm_matrix_matches_quadrature(dim, n):
    """The assembled ||h^-1/2 (vbar - m_K(vbar))||^2 against the matrix-free
    quadrature of norms.evaluate_norms on random trace vectors."""
    params = ProblemParams(k=2)
    mesh = unit_box_mesh(dim, n)
    ch = assemble_stokes_ch(mesh, stokes_spaces(mesh, 2), params)
    H = _hu_seminorm_matrix(ch)
    rng = np.random.default_rng(dim * 10 + n)
    for _ in range(3):
        xbar = rng.standard_normal(ch.n_trace)
        x = np.concatenate([np.zeros(ch.layout.n_cell_total), xbar])
        ref = evaluate_norms(ch, x)["hu_sq"]
        assert abs(xbar @ H @ xbar - ref) <= 1e-12 * ref
