import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from condensa import krylov, spectra
from condensa.assembly import (ProblemParams, assemble_aux_hdg, aux_spaces,
                               build_space)
from condensa.condense import condense
from condensa.krylov import (NotSymmetricPositiveDefinite, SupernodalCholesky, cg,
                             factor_spd, generalized_eigs, minres)
from condensa.mesh import unit_box_mesh

from conftest import (cached, darcy_problem, factor_sym_indef, stokes_problem,
                      superlu_spd)


def test_factor_spd_identity_and_diag():
    f = factor_spd(sp.identity(4, format="csc"))
    b = np.arange(4.0)
    assert np.abs(f.solve(b) - b).max() == 0.0
    f2 = factor_spd(sp.diags([1.0, 4.0]).tocsc())
    assert np.allclose(f2.solve(np.array([1.0, 4.0])), [1.0, 1.0])


def test_factor_spd_random_residual(rng):
    A = rng.standard_normal((50, 50))
    S = sp.csc_matrix(A.T @ A + np.eye(50))
    b = rng.standard_normal(50)
    x = factor_spd(S).solve(b)
    assert np.linalg.norm(S @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_factor_spd_rejects_indefinite():
    M = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(NotSymmetricPositiveDefinite):
        factor_spd(M)


def _reduced_precond(problem, dim, n):
    from condensa.condense import condense_precond
    build = darcy_problem if problem == "darcy" else stokes_problem
    *_, inner = build(dim=dim, n=n, with_data=False)
    return condense_precond(inner).S


def test_factor_spd_refuses_an_exactly_singular_matrix():
    # SuperLU stops at the exact zero pivot itself, before any pivot check
    M = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NotSymmetricPositiveDefinite) as info:
        factor_spd(M)
    assert isinstance(info.value.__cause__, RuntimeError)


@pytest.mark.parametrize("problem,dim,n", [("darcy", 2, 16), ("darcy", 3, 4),
                                           ("stokes", 2, 8)])
def test_factor_spd_given_order_matches_minimum_degree(problem, dim, n, rng):
    """S_P eliminated in the mesh's facet order solves like the
    minimum-degree factor it replaced."""
    S = _reduced_precond(problem, dim, n)
    b = rng.standard_normal(S.shape[0])
    x = factor_spd(S).solve(b)
    x_mmd = factor_spd(S, reorder=True).solve(b)
    assert np.linalg.norm(x - x_mmd) <= 1e-12 * np.linalg.norm(x_mmd)


def test_factor_spd_given_order_fills_less_in_3d(supernodal):
    """Nested-dissection facet numbering fills no more than minimum degree,
    and the supernodal Cholesky stores fewer entries than SuperLU's L + U
    in the same order."""
    S = _reduced_precond("darcy", 3, 4)

    def fill(lu):
        return lu.L.nnz + lu.U.nnz

    given = fill(superlu_spd(S))
    assert given <= fill(superlu_spd(S, "MMD_AT_PLUS_A"))
    assert factor_spd(S, reorder=True).fill == fill(superlu_spd(S, "MMD_AT_PLUS_A"))
    assert factor_spd(S).fill < given


# ----------------------------------------------------------------------
# the supernodal Cholesky against SuperLU in the same order


@pytest.fixture
def supernodal(monkeypatch):
    """factor_spd through SupernodalCholesky at every size."""
    monkeypatch.setattr(krylov, "SUPERNODAL_MIN", 0)


def _matches_superlu(S, rng):
    S = sp.csc_matrix(S)
    f = factor_spd(S)
    assert isinstance(f, SupernodalCholesky)
    b = rng.standard_normal(S.shape[0])
    x, xs = f.solve(b), superlu_spd(S).solve(b)
    assert np.linalg.norm(x - xs) <= 1e-12 * np.linalg.norm(xs)
    res, res_s = (np.linalg.norm(S @ y - b) for y in (x, xs))
    assert res <= 2.0 * res_s + 1e-15 * np.linalg.norm(b)
    B = np.stack([b, rng.standard_normal(b.size)], axis=1)
    assert np.linalg.norm(f.solve(B)[:, 0] - x) <= 1e-14 * np.linalg.norm(x)


def _batch_crossings(S):
    """Tree edges of S's factor where a child scatter-added by rows-on-pivot
    chunks (a group of fewer than _SLICE_ROWS rows) feeds a front built in
    a one-front batch (a group of at least _SLICE_ROWS rows), and where a
    child extend-added by slices feeds a front of a G-front batch."""
    tree = krylov._supernodes(sp.csc_matrix(S))
    plan = krylov._schedule(tree)
    large = plan.rows >= krylov._SLICE_ROWS
    child = np.flatnonzero(tree.parent >= 0)
    c, p = large[plan.group[child]], large[plan.group[tree.parent[child]]]
    return int((~c & p).sum()), int((c & ~p).sum())


# 3D n=4 and n=6: both crossings, scatter-added children into one-front
# batches and slice-added children into G-front batches
@pytest.mark.parametrize("dim,n", [(2, 8), (3, 2), (3, 4), (3, 6)])
@pytest.mark.parametrize("xi,gamma", [(1e-6, 1e4), (1.0, 1e-4), (1e-6, 1e-4)])
def test_supernodal_matches_superlu_darcy(supernodal, dim, n, xi, gamma, rng):
    from condensa.condense import condense_precond
    *_, inner = darcy_problem(dim=dim, n=n, xi=xi, gamma=gamma, with_data=False)
    S = condense_precond(inner).S
    _matches_superlu(S, rng)
    assert min(_batch_crossings(S)) > 0 or (dim, n) < (3, 4)


@pytest.mark.parametrize("n", [4, 16])   # n=16: both crossings, as 3D n=4
def test_supernodal_matches_superlu_stokes(supernodal, n, rng):
    from condensa.condense import condense_precond
    *_, inner = stokes_problem(n=n, nu=1e-6, with_data=False)
    S = condense_precond(inner).S
    _matches_superlu(S, rng)
    assert min(_batch_crossings(S)) > 0 or n < 16


def test_supernodal_block_diagonal_all_roots(supernodal, rng):
    """The counterexample's S_P is block diagonal: every supernode is a
    root with an empty structure, and all are one group."""
    from condensa.assembly import assemble_counterexample_inner, darcy_spaces
    from condensa.condense import condense_precond
    mesh = unit_box_mesh(2, 4)
    params = ProblemParams(k=2)
    S = condense_precond(assemble_counterexample_inner(mesh, darcy_spaces(mesh, 2),
                                                      params)).S
    _matches_superlu(S, rng)
    tree = krylov._supernodes(sp.csc_matrix(S))
    assert (tree.parent == -1).all() and (tree.height == 0).all()
    assert len(factor_spd(S).groups) == 1


def test_supernodal_matches_superlu_monolithic_inner(supernodal, rng):
    """A whole inner product, cells first then traces, as generalized_eigs
    factors the B of a pencil."""
    *_, inner = darcy_problem(n=4, with_data=False)
    _matches_superlu(inner.to_sparse(), rng)


def test_supernodal_matches_superlu_permuted_laplacian(supernodal, rng):
    """No trace structure: 1x1 blocks and a branching tree."""
    m = 12
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    L = sp.kronsum(T, T).tocsr()
    p = rng.permutation(m * m)
    _matches_superlu(L[p][:, p], rng)


def test_supernodal_small_blocks_and_empty_structures(supernodal, rng):
    """1x1 blocks, a lone dense block and chains, whose supernodes have
    empty or full structures."""
    _matches_superlu(sp.diags(np.arange(1.0, 6.0)), rng)
    A = rng.standard_normal((5, 5))
    T = sp.diags([-1.0, 3.0, -1.0], [-1, 0, 1], shape=(7, 7))
    _matches_superlu(sp.block_diag([A @ A.T + np.eye(5), T, [[2.0]]]), rng)
    _matches_superlu(sp.csc_matrix([[4.0]]), rng)


def test_supernodal_leaves_its_input_alone(supernodal, rng):
    """Duplicate entries are summed on a copy, not in the caller's matrix."""
    A = sp.csc_matrix((np.array([2.0, 1.0, 1.0, 4.0, 1.0, 0.5]), np.array([0, 0, 1, 1, 0, 1]),
                       np.array([0, 3, 6])), shape=(2, 2))
    data = A.data.copy()
    x = factor_spd(A).solve(np.array([1.0, 2.0]))
    assert np.allclose(A.toarray() @ x, [1.0, 2.0], rtol=1e-14, atol=0.0)
    assert not A.has_canonical_format and (A.data == data).all()


def test_supernodal_factors_a_csr_input_through_its_transpose(supernodal, monkeypatch, rng):
    """A CSR S_P is factored as S.T, a CSC view of its own arrays, with no
    tocsc copy: the factor reads its upper triangle.  That matches SuperLU
    on the non-symmetric-at-roundoff S_P, and for an exactly symmetric
    input it is the CSC input's factor, bit for bit."""
    S = _reduced_precond("darcy", 3, 4)
    assert S.format == "csr"
    sym = (S + S.T.tocsr()) * 0.5
    assert (sym != sym.T).nnz == 0
    sym_csc = sym.tocsc()
    b = rng.standard_normal((S.shape[0], 2))
    xs = superlu_spd(S.T).solve(b)
    x_csc = factor_spd(sym_csc).solve(b)

    def no_copy(self, copy=False):
        raise AssertionError("tocsc called")
    monkeypatch.setattr(sp.csr_matrix, "tocsc", no_copy)
    f = factor_spd(S)
    assert isinstance(f, SupernodalCholesky)
    x = f.solve(b)
    assert np.linalg.norm(x - xs) <= 1e-12 * np.linalg.norm(xs)
    assert np.array_equal(factor_spd(sym).solve(b), x_csc)


@pytest.mark.parametrize("M", [[[1.0, 2.0], [2.0, 1.0]],              # indefinite
                               [[1.0, 1.0], [1.0, 1.0]],              # singular
                               [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0],     # empty column
                                [0.0, 0.0, 2.0]]])
def test_supernodal_rejects_non_spd(supernodal, M):
    with pytest.raises(NotSymmetricPositiveDefinite):
        factor_spd(sp.csc_matrix(np.array(M)))


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 2), (3, 4)])   # 3D n=4: both extend-add paths
def test_supernodal_cg_counts_equal_superlu(monkeypatch, dim, n):
    """Criterion-2 rows take the same CG counts with either factor."""
    from condensa.bench import RunConfig, run
    cfg = RunConfig(experiment="darcy-manufactured", dim=dim, levels=(n,),
                    xi=(1.0, 1e-6), gamma=(1e-4, 1.0, 1e4), timing=False)
    superlu = run(cfg)
    monkeypatch.setattr(krylov, "SUPERNODAL_MIN", 0)
    supernodal = run(cfg)
    assert [r.iters for r in supernodal] == [r.iters for r in superlu]
    for a, b in zip(supernodal, superlu):
        assert abs(a.err_u - b.err_u) <= 1e-8 * b.err_u


def _traced_factor(S, monkeypatch):
    """factor_spd(S) and the tracemalloc peak of the call, with the update
    matrices in numpy arrays, which tracemalloc sees, not in maps."""
    monkeypatch.setattr(krylov, "_mapped_zeros", np.zeros)
    tracemalloc.start()
    try:
        f = factor_spd(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return f, peak


def test_supernodal_memory_peak_is_a_small_multiple_of_its_fill(supernodal, monkeypatch):
    """Building the factor of the 3D n=6 Darcy S_P allocates at most 1.50
    times the bytes the factor keeps: a large group's fronts each keep
    their update matrix in an array of their own size, released as soon as
    the parent front has taken it, and no address map outlives its group.
    Measured 1.425 (numpy 2.4, scipy 1.17), and 1.674 when every group
    keeps its updates in one padded array until all its members are taken.
    The bound leaves a 5% margin over 1.425 for other numpy/scipy
    allocation patterns and stays under 1.674, which it must still refuse.
    At n=4 the peak comes in the small groups' scatter-adds instead."""
    f, peak = _traced_factor(sp.csc_matrix(_reduced_precond("darcy", 3, 6)), monkeypatch)
    assert isinstance(f, SupernodalCholesky)
    assert peak <= 1.50 * 8 * f.fill


@pytest.mark.parametrize("problem,dim,n", [("darcy", 3, 6), ("stokes", 2, 32)])
def test_supernodal_predicts_its_memory_peak(supernodal, monkeypatch, problem, dim, n):
    """peak_bytes, worked out from the schedule before anything is
    allocated, is within 15% of the measured peak of the S_P's factor:
    at 3D Darcy n=6 large fronts set the peak (measured 0.999 of it,
    numpy 2.4 and scipy 1.17), at 2D Stokes n=32 (27,456 dofs) the
    scatter-add workspace of the small groups' batches (0.983)."""
    f, peak = _traced_factor(sp.csc_matrix(_reduced_precond(problem, dim, n)), monkeypatch)
    assert abs(f.peak_bytes - peak) <= 0.15 * peak


@pytest.mark.parametrize("dim,n,problem", [(3, 4, "darcy"), (2, 16, "stokes")])
def test_supernodal_update_storage_leaves_the_factor_bitwise_alike(supernodal, monkeypatch,
                                                                    dim, n, problem, rng):
    """One-front batches with slice extend-adds (every group, at
    _SLICE_ROWS = 0), G-front batches with scatter-adds (every group, at
    _SLICE_ROWS = 2^30) and the default mix give the same solve bit for
    bit: each front position takes its contributions in one order, and
    syrk always sees the padded front."""
    S = sp.csc_matrix(_reduced_precond(problem, dim, n))
    b = rng.standard_normal(S.shape[0])
    x = factor_spd(S).solve(b)
    for rows in (0, 1 << 30):
        monkeypatch.setattr(krylov, "_SLICE_ROWS", rows)
        assert np.array_equal(factor_spd(S).solve(b), x)


def test_supernodal_refuses_a_peak_beyond_available_memory(supernodal, monkeypatch):
    """When the predicted peak exceeds the available memory, factor_spd
    raises InsufficientMemory, a MemoryError, before any front is
    allocated, and a sweep row records it by name in `failed`."""
    from condensa.bench import RunConfig, run
    S = sp.csc_matrix(_reduced_precond("darcy", 3, 4))
    need = factor_spd(S).peak_bytes
    mapped = krylov._mapped_zeros

    def no_update(shape):
        raise AssertionError("an update matrix was allocated")
    monkeypatch.setattr(krylov, "_mapped_zeros", no_update)
    monkeypatch.setattr(krylov, "_mem_available", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(krylov.InsufficientMemory, match="MB at its peak"):
            factor_spd(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert issubclass(krylov.InsufficientMemory, MemoryError)
    assert peak < 0.25 * need
    monkeypatch.setattr(krylov, "_mapped_zeros", mapped)
    monkeypatch.setattr(krylov, "_mem_available", lambda: need)
    assert isinstance(factor_spd(S), SupernodalCholesky)
    monkeypatch.setattr(krylov, "_mem_available", lambda: 0)
    (row,) = run(RunConfig(experiment="darcy-manufactured", dim=3, levels=(2,), timing=False))
    assert row.failed.startswith("InsufficientMemory: the supernodal factor")
    assert row.iters_text() == "failed"


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_mapped_update_memory_goes_back_to_the_system_when_freed():
    """An update matrix is resident from its allocation on and released
    to the system as soon as it is freed, whatever the heap keeps."""
    def resident_mb():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    before = resident_mb()
    U = krylov._mapped_zeros((64, 256, 256))     # 32 MB
    assert not U.any() and U.flags.writeable
    U[:] = 1.0
    assert resident_mb() - before >= 30
    del U
    assert resident_mb() - before <= 2
    assert krylov._mapped_zeros((3, 0, 0)).shape == (3, 0, 0)


def test_mem_available_reads_meminfo_or_gives_up(tmp_path):
    """The available memory comes from the MemAvailable line of meminfo,
    in kB; without a readable file or that line the check is skipped."""
    info = tmp_path / "meminfo"
    info.write_text("MemTotal:       8000000 kB\nMemAvailable:    1000 kB\n")
    assert krylov._mem_available(info) == 1024000
    info.write_text("MemTotal:       8000000 kB\n")
    assert krylov._mem_available(info) is None
    assert krylov._mem_available(tmp_path / "missing") is None


def test_factor_sym_indef_toys(rng):
    f = factor_sym_indef(sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(f.solve(np.array([1.0, 1.0])), [1.0, 1.0])
    f2 = factor_sym_indef(sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(f2.solve(np.array([2.0, 1.0])), [1.0, 1.0])
    A = rng.standard_normal((50, 50))
    S = sp.csc_matrix(A + A.T)
    b = rng.standard_normal(50)
    x = factor_sym_indef(S).solve(b)
    assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_cg_identity_one_iteration(rng):
    b = rng.standard_normal(8)
    x, rep = cg(lambda v: v, None, b, tol=1e-12)
    assert rep.iterations == 1 and rep.converged
    assert np.abs(x - b).max() < 1e-14


def test_cg_perfect_preconditioner_two_iterations(rng):
    A = rng.standard_normal((20, 20))
    S = A.T @ A + np.eye(20)
    Sinv = np.linalg.inv(S)
    b = rng.standard_normal(20)
    x, rep = cg(lambda v: S @ v, lambda v: Sinv @ v, b, tol=1e-10)
    assert rep.iterations <= 2
    assert np.linalg.norm(S @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_krylov_rejects_maxit_below_one():
    # with no iteration there is no residual to report
    for krylov in (cg, minres):
        with pytest.raises(ValueError, match="maxit"):
            krylov(lambda v: v, None, np.ones(3), maxit=0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_krylov_rejects_tol_not_positive_and_finite(tol):
    # tol <= 0 or NaN never stops the iteration; inf stops it at once
    for krylov in (cg, minres):
        with pytest.raises(ValueError, match="tol"):
            krylov(lambda v: v, None, np.ones(3), tol=tol)


def test_cg_breakdown_on_indefinite(rng):
    S = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NotSymmetricPositiveDefinite):
        cg(lambda v: S @ v, None, np.ones(3), tol=1e-10)


@pytest.mark.parametrize("krylov", [cg, minres])
def test_krylov_refuses_a_preconditioner_that_is_not_positive(krylov):
    # at the first residual (P^-1 = -I), then inside the loop: with A = I
    # and P^-1 = diag(1, -0.5), b = (1, 1) passes the first check
    # (r.z = 0.5) and the first update's residual fails it
    with pytest.raises(NotSymmetricPositiveDefinite, match="preconditioner is not positive"):
        krylov(lambda v: v, lambda v: -v, np.ones(2))
    with pytest.raises(NotSymmetricPositiveDefinite, match="preconditioner is not positive"):
        krylov(lambda v: v, lambda v: np.array([1.0, -0.5]) * v, np.ones(2))


def test_cg_iterations_match_chebyshev_bound():
    # reduced Darcy on 128 cells: the dense pencil gives kappa; the CG count
    # should sit within a factor 2 of ceil(sqrt(kappa)/2 ln(2/tol))
    from condensa.condense import condense, condense_precond
    mesh, spaces, params, system, inner = darcy_problem(n=8)
    cond = condense(system)
    S_P = condense_precond(inner).S
    tol = 1e-10
    x, rep = cg(lambda v: cond.S @ v, factor_spd(S_P).solve, cond.rhs, tol=tol)
    assert 15 <= rep.iterations <= 60
    vals = generalized_eigs(cond.S.toarray(), S_P.toarray(), mode="extreme")
    kappa = vals[1] / vals[0]
    bound = int(np.ceil(0.5 * np.sqrt(kappa) * np.log(2.0 / tol)))
    assert bound / 2 <= rep.iterations <= 2 * bound


def test_minres_identity_and_two_eigenvalues(rng):
    b = rng.standard_normal(6)
    x, rep = minres(lambda v: v, None, b, tol=1e-12)
    assert rep.iterations == 1
    A = np.diag([1.0, -1.0])
    x, rep = minres(lambda v: A @ v, None, np.array([1.0, 1.0]), tol=1e-10)
    assert rep.iterations <= 2
    assert np.allclose(x, [1.0, -1.0])


def test_minres_matches_direct_solve_on_stokes():
    from condensa.condense import back_substitute, condense, condense_precond
    mesh, spaces, params, system, inner = stokes_problem(n=4)
    cond = condense(system)
    z = cond.null_vectors[0]
    S_P = condense_precond(inner).S
    x, rep = minres(lambda v: cond.S @ v, factor_spd(S_P).solve, cond.rhs,
                    tol=1e-10, deflate=(z,))
    assert rep.converged
    Sb = sp.bmat([[cond.S, z[:, None]], [z[None, :], None]], format="csc")
    xd = factor_sym_indef(Sb).solve(np.concatenate([cond.rhs, [0.0]]))[:-1]
    xd -= (xd @ z) / (z @ z) * z
    full = back_substitute(cond, x)
    fulld = back_substitute(cond, xd)
    assert np.abs(full - fulld).max() <= 1e-8 * max(1.0, np.abs(fulld).max())


def test_scaling_invariance_of_counts():
    from condensa.condense import condense, condense_precond
    mesh, spaces, params, system, inner = darcy_problem(n=4)
    cond = condense(system)
    f = factor_spd(condense_precond(inner).S)
    counts = []
    for c in (1e-6, 1.0, 1e6):
        _, rep = cg(lambda v: cond.S @ v, lambda r: f.solve(r) / c, cond.rhs,
                    tol=1e-10)
        counts.append(rep.iterations)
    assert counts[0] == counts[1] == counts[2]

    meshS, spS, paramsS, systemS, innerS = stokes_problem(n=2)
    condS = condense(systemS)
    fS = factor_spd(condense_precond(innerS).S)
    countsS = []
    for c in (1e-6, 1.0, 1e6):
        _, rep = minres(lambda v: condS.S @ v, lambda r: fS.solve(r) / c,
                        condS.rhs, tol=1e-8, deflate=condS.null_vectors)
        countsS.append(rep.iterations)
    assert countsS[0] == countsS[1] == countsS[2]


def test_deflation_keeps_iterates_orthogonal(rng):
    from condensa.condense import condense, condense_precond
    mesh, spaces, params, system, inner = stokes_problem(n=2)
    cond = condense(system)
    z = cond.null_vectors[0]
    f = factor_spd(condense_precond(inner).S)
    x, rep = minres(lambda v: cond.S @ v, f.solve, cond.rhs, tol=1e-8,
                    deflate=(z,))
    assert abs(x @ z) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(z)


@pytest.mark.parametrize("krylov,spectrum", [(cg, [1.0, 2.0, 3.0, 5.0]),
                                             (minres, [-1.0, 2.0, -3.0, 5.0])])
def test_deflation_orthogonalizes_a_non_orthogonal_kernel(krylov, spectrum, rng):
    """A kernel given as q0 and q0 + 2 q1 deflates span(q0, q1), the same
    as the orthonormal q0, q1: Gram-Schmidt of the second vector."""
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    A = Q @ np.diag([0.0, 0.0, *spectrum]) @ Q.T
    q0, q1 = Q[:, 0], Q[:, 1]
    b = rng.standard_normal(6)
    x, rep = krylov(lambda v: A @ v, None, b, tol=1e-12, deflate=(q0, q0 + 2.0 * q1))
    want, _ = krylov(lambda v: A @ v, None, b, tol=1e-12, deflate=(q0, q1))
    assert rep.converged
    assert np.abs(Q[:, :2].T @ x).max() <= 1e-13 * np.linalg.norm(x)
    assert np.abs(x - want).max() <= 1e-12 * np.linalg.norm(want)
    b_off = b - Q[:, :2] @ (Q[:, :2].T @ b)
    assert np.linalg.norm(A @ x - b_off) <= 1e-10 * np.linalg.norm(b_off)


def test_generalized_eigs_toys():
    B = np.array([[2.0, 0.3], [0.3, 1.0]])
    vals = generalized_eigs(2.0 * B, B, mode="full")
    assert np.abs(vals - 2.0).max() < 1e-12
    vals = generalized_eigs(np.diag([1.0, 3.0]), np.eye(2), mode="full")
    assert np.allclose(vals, [1.0, 3.0])
    assert generalized_eigs(np.diag([1.0, 3.0]), np.eye(2), mode="min") == 1.0
    assert generalized_eigs(np.diag([1.0, 3.0]), np.eye(2), mode="max") == 3.0
    assert generalized_eigs(np.diag([-3.0, 0.0, 1.0, 2.0]), np.eye(4),
                            mode="magnitude", n_drop=1) == (1.0, 3.0)


def test_generalized_eigs_against_cholesky_oracle(rng):
    A = rng.standard_normal((30, 30))
    A = A + A.T
    R = rng.standard_normal((30, 30))
    B = R.T @ R + 30 * np.eye(30)
    vals = generalized_eigs(A, B, mode="full")
    L = np.linalg.cholesky(B)
    Linv = np.linalg.inv(L)
    oracle = np.linalg.eigvalsh(Linv @ A @ Linv.T)
    assert np.abs(np.sort(vals) - np.sort(oracle)).max() < 1e-9


def test_dense_eigs_overwrite_one_copy_per_matrix(rng):
    """The dense branch hands LAPACK one Fortran-ordered copy of each matrix
    to overwrite: its peak stays below three n x n arrays (a C-ordered copy
    that f2py copies again makes four), its values are plain eigh's
    bitwise, and a dense input is left as it was."""
    n = 500
    R = sp.random(n, n, density=0.01, random_state=rng)
    A = (R + R.T).tocsr()
    B = (R @ R.T + 4.0 * sp.identity(n)).tocsr()
    want = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True, driver="gv")
    tracemalloc.start()
    try:
        vals = generalized_eigs(A, B, mode="full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8
    assert np.array_equal(vals, want)
    Ad, Bd = A.toarray(), B.toarray()
    Ad0, Bd0 = Ad.copy(), Bd.copy()
    assert np.array_equal(generalized_eigs(Ad, Bd, mode="full"), want)
    assert np.array_equal(Ad, Ad0) and np.array_equal(Bd, Bd0)


def test_generalized_eigs_refuses_a_kernel_that_is_not_negligible():
    with pytest.raises(ValueError, match="declared kernel eigenvalues are not negligible"):
        generalized_eigs(np.diag([1.0, 2.0, 3.0]), np.eye(3), mode="full", n_drop=1)


def test_sparse_ends_take_dense_arrays(monkeypatch, rng):
    """Above DENSE_MAX a dense pencil is converted to CSC for ARPACK and
    gives the ends of the same pencil given sparse."""
    monkeypatch.setattr(krylov, "DENSE_MAX", 20)
    R = rng.standard_normal((40, 40))
    A = R + R.T + 40.0 * np.eye(40)
    B = R.T @ R + 40.0 * np.eye(40)
    for mode in ("extreme", "magnitude"):
        got = generalized_eigs(A, B, mode=mode)
        assert got == generalized_eigs(sp.csr_matrix(A), sp.csr_matrix(B), mode=mode)
        want = sla.eigh(A, B, eigvals_only=True)
        assert np.allclose(got, (want[0], want[-1]), rtol=1e-6)


def test_generalized_eigs_rejects_non_spd_b(monkeypatch):
    with pytest.raises((NotSymmetricPositiveDefinite, ValueError)):
        generalized_eigs(np.eye(3), np.diag([1.0, -1.0, 2.0]), mode="full")
    with pytest.raises(ValueError):
        generalized_eigs(np.eye(2), np.eye(2), mode="everything")
    monkeypatch.setattr(krylov, "DENSE_MAX", 0)
    B = sp.diags(np.r_[np.ones(9), -1.0])
    for mode in ("min", "max", "extreme", "magnitude"):
        with pytest.raises(NotSymmetricPositiveDefinite):
            generalized_eigs(sp.identity(10), B, mode=mode)


# ----------------------------------------------------------------------
# the sparse (ARPACK) branch at its per-end tolerances, against two
# references: the same call at 1e-12 for both ends, and dense eigh


def _pencils():
    """name -> (A, B, n_drop): the pencil of each lemma probe and of
    lifting_constant at 2D n=4, the ch_coercivity pencil at 2D n=8 (its top
    eigenvalue is clustered), plus a condensed auxiliary operator with its
    one-dimensional constant kernel."""
    def build():
        out = {}
        real = spectra.generalized_eigs

        def record(name):
            def call(A, B, mode="full", n_drop=0):
                out[name] = (A, B, n_drop)
                return real(A, B, mode=mode, n_drop=n_drop)
            return call

        with pytest.MonkeyPatch.context() as mp:
            for problem, names in spectra.PROBE_SETS.items():
                for name in names:
                    mp.setattr(spectra, "generalized_eigs", record(name))
                    spectra.lemma_probes(problem, 2, (4,), ProblemParams(k=2),
                                         probes=(name,))
            mp.setattr(spectra, "generalized_eigs", record("ch_coercivity_n8"))
            spectra.lemma_probes("stokes", 2, (8,), ProblemParams(k=2),
                                 probes=("ch_coercivity",))
            _, _, _, system, inner = darcy_problem(n=4)
            mp.setattr(spectra, "generalized_eigs", record("lifting"))
            spectra.lifting_constant(system, inner)
        mesh = unit_box_mesh(2, 4)
        spaces = aux_spaces(mesh, 2)
        spaces["pbar"] = build_space(mesh, "facet-scalar", 2)  # unmasked
        aux = assemble_aux_hdg(mesh, spaces, ProblemParams(k=2, xi=3.0, gamma=0.0))
        S = condense(aux).S
        out["aux_kernel"] = (S, sp.identity(S.shape[0], format="csr"), 1)
        return out
    return cached(("krylov-pencils",), build)


PENCILS = (*spectra.PROBE_SETS["darcy"], *spectra.PROBE_SETS["stokes"],
           "ch_coercivity_n8", "lifting", "aux_kernel")


def _arpack_ends(A, B, n_drop, modes, tol=None):
    """generalized_eigs through ARPACK (DENSE_MAX = 0) for each mode, at
    the module's per-end tolerances or, given tol, at tol for both ends."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov, "DENSE_MAX", 0)
        if tol is not None:
            mp.setattr(krylov, "ARPACK_TOL_TOP", tol)
            mp.setattr(krylov, "ARPACK_TOL_BOTTOM", tol)
        return {m: generalized_eigs(A, B, mode=m, n_drop=n_drop) for m in modes}


def _assert_ends_agree(got, want, rtol=1e-8):
    for mode, val in got.items():
        for g, w in zip(np.atleast_1d(val), np.atleast_1d(want[mode])):
            assert abs(g - w) <= rtol * abs(w), (mode, got[mode], want[mode])


def _dense_spectrum(A, B, n_drop):
    vals = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)
    order = np.argsort(np.abs(vals))
    assert np.abs(vals[order[:n_drop]]).max(initial=0.0) <= 1e-10 * np.abs(vals).max()
    return np.sort(vals[order[n_drop:]])


@pytest.mark.parametrize("name", PENCILS)
def test_sparse_ends_match_dense_eigh(name):
    """Every end of the positive semidefinite probe pencils: "max"
    (shift-invert just above the top), "min" (shift-invert near zero),
    "extreme" (both) and "magnitude" (regular-mode LM top)."""
    A, B, n_drop = _pencils()[name]
    vals = _dense_spectrum(A, B, n_drop)
    lo, hi = vals[0], vals[-1]
    dense = {"min": lo, "max": hi, "extreme": (lo, hi), "magnitude": (lo, hi)}
    got = _arpack_ends(A, B, n_drop, dense)
    assert isinstance(got["min"], float) and isinstance(got["max"], float)
    _assert_ends_agree(got, dense)
    _assert_ends_agree(got, _arpack_ends(A, B, n_drop, dense, tol=1e-12))


# the full pencils (A, P) of measure_constants at 2D n=4
MONOLITHIC = {
    "darcy-1-1": lambda: darcy_problem(n=4, with_data=False),
    "darcy-1e-6-1e4": lambda: darcy_problem(n=4, xi=1e-6, gamma=1e4, with_data=False),
    "stokes-1": lambda: stokes_problem(n=4, with_data=False),
    # A is indefinite with a one-dimensional kernel; a shift-invert solve
    # that factors A itself (a shift of 0) returns c_i 85% off
    "stokes-1e-6": lambda: stokes_problem(n=4, nu=1e-6, with_data=False),
}


def _monolithic(name):
    *_, system, inner = MONOLITHIC[name]()
    return system.to_sparse(), inner.to_sparse(), len(system.null_vectors)


@pytest.mark.parametrize("name", MONOLITHIC)
def test_magnitude_ends_match_dense_eigh(name):
    """mode="magnitude" (LM top) on the indefinite full pencils, dense and
    ARPACK, against dense eigh and against ARPACK at 1e-12 for both ends."""
    A, B, n_drop = _monolithic(name)
    a = np.sort(np.abs(_dense_spectrum(A, B, n_drop)))
    want = {"magnitude": (a[0], a[-1])}
    dense = generalized_eigs(A, B, mode="magnitude", n_drop=n_drop)
    assert all(isinstance(v, float) for v in dense)
    _assert_ends_agree({"magnitude": dense}, want)
    got = _arpack_ends(A, B, n_drop, want)
    assert all(isinstance(v, float) for v in got["magnitude"])
    _assert_ends_agree(got, want)
    _assert_ends_agree(got, _arpack_ends(A, B, n_drop, want, tol=1e-12))


@pytest.mark.parametrize("name", MONOLITHIC)
def test_max_end_of_full_pencils_matches_dense_eigh(name):
    """mode="max" on the indefinite full pencils through ARPACK, against
    dense eigh.  The top of darcy-1e-6-1e4 is a cluster: 24 eigenvalues
    lie within 1e-8 of it, where a regular-mode solve never converged."""
    A, B, n_drop = _monolithic(name)
    want = {"max": _dense_spectrum(A, B, n_drop)[-1]}
    got = _arpack_ends(A, B, n_drop, want)
    assert isinstance(got["max"], float)
    _assert_ends_agree(got, want)


def test_the_shift_above_the_top_is_certified():
    """sigma B - A has a Cholesky factor just above the top eigenvalue and
    none just below it; the search for sigma climbs from a poor estimate
    and gives up on a non-finite one."""
    A, B, _ = _pencils()["stokes_lifting"]
    top = _dense_spectrum(A, B, 0)[-1]
    with pytest.raises(NotSymmetricPositiveDefinite):
        factor_spd((top * (1 - 1e-6)) * B - A, reorder=True)
    factor_spd((top * (1 + 1e-6)) * B - A, reorder=True)
    scale = np.abs(A.diagonal() / B.diagonal()).max()
    sigma, _ = krylov._shift_above(A, B, 0.5 * top, scale)
    assert sigma > top
    with pytest.raises(NotSymmetricPositiveDefinite):
        factor_spd(np.nan * B - A, reorder=True)
    with pytest.raises(ValueError, match=f"'max' end of a pencil of size {A.shape[0]}"):
        krylov._shift_above(A, B, np.nan, scale)


def test_sparse_ends_repeat_bitwise(monkeypatch):
    monkeypatch.setattr(krylov, "DENSE_MAX", 0)
    for name in ("condensed_velocity", "aux_kernel"):
        A, B, n_drop = _pencils()[name]
        for mode in ("max", "extreme"):
            first = generalized_eigs(A, B, mode=mode, n_drop=n_drop)
            assert generalized_eigs(A, B, mode=mode, n_drop=n_drop) == first
    A, B, n_drop = _monolithic("stokes-1e-6")
    first = generalized_eigs(A, B, mode="magnitude", n_drop=n_drop)
    assert generalized_eigs(A, B, mode="magnitude", n_drop=n_drop) == first


@pytest.mark.parametrize("mode", ("min", "max", "extreme", "magnitude"))
def test_arpack_iteration_cap_names_the_end(mode, monkeypatch):
    A, B, _ = _pencils()["condensed_velocity"]
    monkeypatch.setattr(krylov, "DENSE_MAX", 0)
    monkeypatch.setattr(krylov, "ARPACK_MAXITER", 1)
    # at ARPACK_TOL_BOTTOM the shift-invert "min" solve of this toy pencil
    # converges within one restart; machine precision keeps both ends short
    monkeypatch.setattr(krylov, "ARPACK_TOL_TOP", 0.0)
    monkeypatch.setattr(krylov, "ARPACK_TOL_BOTTOM", 0.0)
    end = "min" if mode == "min" else "max"  # the top is solved first
    match = f"'{end}' end of a pencil of size {A.shape[0]}"
    shifted = []
    real = krylov._arpack

    def arpack(end, A, **kwargs):
        shifted.append("sigma" in kwargs)
        return real(end, A, **kwargs)

    monkeypatch.setattr(krylov, "_arpack", arpack)
    with pytest.raises(ValueError, match=match):
        generalized_eigs(A, B, mode=mode)
    if mode in ("max", "extreme"):
        # the loose estimate converged within one restart and the
        # shift-invert solve above it ran out; then the estimate runs out
        assert shifted == [False, True]
        monkeypatch.setattr(krylov, "SHIFT_EST_TOL", 0.0)
        shifted.clear()
        with pytest.raises(ValueError, match=match):
            generalized_eigs(A, B, mode=mode)
        assert shifted == [False]


def test_direct_and_iterative_agree(rng):
    import warnings
    A = rng.standard_normal((40, 40))
    S = sp.csc_matrix(A.T @ A + np.eye(40))
    b = rng.standard_normal(40)
    xd = factor_spd(S).solve(b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near round-off level
        xi, rep = cg(lambda v: S @ v, None, b, tol=1e-12, maxit=500)
    assert np.linalg.norm(xd - xi) <= 1e-8 * np.linalg.norm(xd)


def test_residual_histories_relative_and_monotone_warning(rng):
    # unpreconditioned CG on an ill-conditioned SPD matrix: residual growth
    # beyond 10% is a diagnostic warning, never an error
    A = rng.standard_normal((30, 30))
    S = A.T @ A + np.eye(30)
    b = rng.standard_normal(30)
    with pytest.warns(RuntimeWarning, match="grew by more than 10%"):
        x, rep = cg(lambda v: S @ v, None, b, tol=1e-10, maxit=200)
    assert rep.residuals[0] <= 1.5
    assert rep.final_relative <= 1e-10
    assert rep.converged and rep.iterations == len(rep.residuals)


def test_final_relative_is_the_last_residual(rng):
    # cg and minres, converged and stopped at maxit: final_relative is the
    # last entry of the history, derived rather than stored; a zero
    # right-hand side converges with no history and reads 0.0
    from dataclasses import fields
    assert "final_relative" not in {f.name for f in fields(krylov.KrylovReport)}
    S = np.diag(np.arange(1.0, 41.0))
    b = rng.standard_normal(40)
    for solve in (cg, minres):
        for maxit, converged in ((999, True), (3, False)):
            _, rep = solve(lambda v: S @ v, None, b, tol=1e-10, maxit=maxit)
            assert rep.converged is converged and len(rep.residuals) == rep.iterations
            assert rep.final_relative == rep.residuals[-1]
        _, rep = solve(lambda v: S @ v, None, np.zeros(40))
        assert rep.residuals == [] and rep.final_relative == 0.0


def test_residual_history_csv(tmp_path, rng):
    S = np.diag(np.arange(1.0, 9.0))
    _, rep = cg(lambda v: S @ v, None, rng.standard_normal(8), tol=1e-12)
    path = tmp_path / "resid.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,residual"
    assert len(lines) == 1 + rep.iterations
    assert float(lines[-1].split(",")[1]) <= 1e-12
