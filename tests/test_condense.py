import copy
import mmap
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from condensa.assembly import (BlockSystem, ProblemParams, _block_triplets, _triplets_csr,
                               assemble_aux_hdg, assemble_counterexample_inner,
                               assemble_darcy, aux_spaces, darcy_spaces)
from condensa.condense import (CondensedSystem, back_substitute, condense, condense_precond,
                               eliminate)
from condensa.elements import pk_basis, reference_measure
from condensa.krylov import factor_spd
from condensa.manufactured import manufactured_rhs
from condensa.mesh import unit_box_mesh
from condensa.spectra import lifting_matrix

from conftest import (darcy_problem, evaluate_norms, factor_sym_indef, local_solve,
                      stokes_problem, trace_values_local)


class _ToyLayout:
    def __init__(self, n_trace):
        self.n_trace = n_trace

    def split(self, x):
        return x[: x.size - self.n_trace], x[x.size - self.n_trace:]


def toy_system(a11, a21, a22, rhs_cell=None, rhs_trace=None):
    a11 = np.asarray(a11, dtype=float)[None, :, :]
    a21 = np.asarray(a21, dtype=float)[None, :, :]
    ntr = a21.shape[1]
    return BlockSystem(
        layout=_ToyLayout(ntr),
        a11=a11, a21=a21,
        tids=np.arange(ntr, dtype=np.int64)[None, :],
        a22b=np.asarray(a22, dtype=float)[None, None],
        rhs_cell=(np.zeros((1, a11.shape[1])) if rhs_cell is None
                  else np.asarray(rhs_cell, dtype=float)[None, :]),
        rhs_trace=(np.zeros(ntr) if rhs_trace is None
                   else np.asarray(rhs_trace, dtype=float)),
        params=ProblemParams())


def test_toy_schur_value():
    cond = condense(toy_system([[2.0]], [[1.0]], [[3.0]]))
    assert abs(cond.S.toarray()[0, 0] - 2.5) < 1e-15


def test_zero_coupling_gives_a22():
    cond = condense(toy_system(np.diag([2.0, 5.0]), np.zeros((2, 2)),
                               [[3.0, 1.0], [1.0, 4.0]]))
    assert np.abs(cond.S.toarray() - np.array([[3.0, 1.0], [1.0, 4.0]])).max() == 0.0


def test_toy_precond_schur():
    cond = condense_precond(toy_system([[4.0]], [[2.0]], [[2.0]]))
    assert abs(cond.S.toarray()[0, 0] - 1.0) < 1e-15


def test_precond_requires_positive_blocks():
    with pytest.raises(ValueError, match="positive definite"):
        condense_precond(toy_system([[-1.0]], [[1.0]], [[2.0]]))


def test_singular_local_block_named():
    with pytest.raises(ValueError, match="cell 0"):
        condense(toy_system([[0.0]], [[1.0]], [[1.0]]))


@pytest.mark.parametrize("builder,n", [("darcy2", 8), ("stokes2", 4), ("darcy3", 2)])
def test_condensed_matches_monolithic(builder, n):
    if builder == "darcy2":
        mesh, spaces, params, system, _ = darcy_problem(dim=2, n=n)
    elif builder == "darcy3":
        mesh, spaces, params, system, _ = darcy_problem(dim=3, n=n)
    else:
        mesh, spaces, params, system, _ = stokes_problem(dim=2, n=n)
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
    assert (evaluate_norms(system, d)["tnorm_X"]
            <= 1e-10 * evaluate_norms(system, x_rec)["tnorm_X"])
    # residual of the monolithic system at the reconstruction
    r = K @ x_rec - b
    for z in system.null_vectors:
        r -= (r @ z) / (z @ z) * z
    assert np.linalg.norm(r) <= 1e-11 * max(np.linalg.norm(b), 1.0)


def test_condensed_matches_monolithic_random_data(rng):
    mesh, spaces, params, system, _ = darcy_problem(n=4, with_data=False)
    system = copy.copy(system)  # keep the cached fixture's rhs intact
    system.rhs_cell = rng.standard_normal(system.rhs_cell.shape)
    system.rhs_trace = rng.standard_normal(system.rhs_trace.shape)
    cond = condense(system)
    x_mono = factor_sym_indef(system.to_sparse()).solve(system.rhs())
    x_rec = back_substitute(cond, factor_spd(cond.S).solve(cond.rhs))
    assert (evaluate_norms(system, x_mono - x_rec)["tnorm_X"]
            <= 1e-10 * evaluate_norms(system, x_rec)["tnorm_X"])


def test_aux_condensation_matches_monolithic():
    mesh = unit_box_mesh(2, 4)
    params = ProblemParams(k=2, xi=2.0, gamma=0.5)
    aux = assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params,
                           f=lambda x: np.cos(x[:, 0]))
    cond = condense(aux)
    x_mono = factor_sym_indef(aux.to_sparse()).solve(aux.rhs())
    x_rec = back_substitute(cond, factor_spd(cond.S).solve(cond.rhs))
    assert np.abs(x_mono - x_rec).max() <= 1e-10 * np.abs(x_mono).max()


def test_back_substitute_zero_and_lifting(rng):
    mesh, spaces, params, system, _ = darcy_problem(n=2, with_data=False)
    cond = condense(system)
    x = back_substitute(cond, np.zeros(cond.n_trace))
    assert np.abs(x).max() == 0.0
    # zero f, trace xbar: cell part equals -A11^-1 A21^T xbar
    xbar = rng.standard_normal(cond.n_trace)
    full = back_substitute(cond, xbar)
    cells, _ = system.layout.split(full)
    for c in (0, 3):
        expect = -np.linalg.solve(system.a11[c],
                                  system.a21[c].T @ trace_values_local(system, c, xbar))
        assert np.abs(cells[c] - expect).max() < 1e-11


def test_local_solver_superposition(rng):
    mesh, spaces, params, system, _ = darcy_problem(n=2)
    c = 1
    tr = rng.standard_normal(system.a21.shape[1])
    s = rng.standard_normal(system.a11.shape[1])
    both = local_solve(system, c, tr, s)
    apart = local_solve(system, c, tr, None) + local_solve(system, c, np.zeros_like(tr), s)
    assert np.abs(both - apart).max() < 1e-12 * max(1.0, np.abs(both).max())
    assert np.abs(local_solve(system, c, np.zeros_like(tr), None)).max() == 0.0


def test_energy_identity(rng):
    # <A x, x> = <A11 (xc + A11^-1 A21^T xbar), (same)> + <S_A xbar, xbar>
    mesh, spaces, params, system, _ = darcy_problem(n=2, with_data=False)
    cond = condense(system)
    K = system.to_sparse().toarray()
    lay = system.layout
    x = rng.standard_normal(lay.n_total)
    cells, xbar = lay.split(x)
    lhs = x @ (K @ x)
    rhs = xbar @ (cond.S @ xbar)
    for c in range(mesh.n_cells):
        shift = cells[c] + np.linalg.solve(system.a11[c],
                                           system.a21[c].T @ trace_values_local(system, c, xbar))
        rhs += shift @ system.a11[c] @ shift
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_stokes_kernel_of_schur():
    _, _, _, system, _ = stokes_problem(n=2, with_data=False)
    cond = condense(system)
    z = cond.null_vectors[0]
    assert np.linalg.norm(cond.S @ z) <= 1e-10


def test_stokes_local_rigid_translation():
    # boundary data mbar = c constant, tbar = 0, s = 0 -> u^L = c, p^L = 0
    mesh, spaces, params, system, _ = stokes_problem(n=4, with_data=False)
    lay = system.layout
    interior = [c for c in range(mesh.n_cells)
                if not mesh.boundary_flags[mesh.cell_facets[c]].any()]
    c = interior[0]
    d, nbf = mesh.dim, dict(lay.trace_fields)["ubar"].nb
    n_ub = (d + 1) * d * nbf
    tr = np.zeros(system.a21.shape[1])
    cvec = (2.0, -3.0)
    for l in range(d + 1):
        for comp, val in enumerate(cvec):
            tr[(l * d + comp) * nbf] = val
    sol = local_solve(system, c, tr)
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    nbu = pk_basis(2, 2).n_basis
    expect_u = np.zeros(usl.stop - usl.start)
    scale = np.sqrt(reference_measure(2))
    expect_u[0] = cvec[0] * scale
    expect_u[nbu] = cvec[1] * scale
    assert np.abs(sol[usl] - expect_u).max() < 1e-11
    assert np.abs(sol[psl]).max() < 1e-11


def test_aux_local_constant_reproduction():
    # tbar = c on the cell boundary, gamma = 0 -> l~_p = c
    mesh = unit_box_mesh(2, 4)
    params = ProblemParams(k=2, xi=1.0, gamma=0.0)
    aux = assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params)
    interior = [c for c in range(mesh.n_cells)
                if not mesh.boundary_flags[mesh.cell_facets[c]].any()]
    c = interior[0]
    nbf = 3
    tr = np.zeros(aux.a21.shape[1])
    tr[::nbf] = 4.0
    sol = local_solve(aux, c, tr)
    expect = np.zeros_like(sol)
    expect[0] = 4.0 * np.sqrt(reference_measure(2))
    assert np.abs(sol - expect).max() < 1e-11


def test_schur_symmetry_and_sparsity_locality():
    # S symmetric; trace dofs couple only to trace dofs sharing a cell
    mesh, spaces, params, system, _ = darcy_problem(n=4, with_data=False)
    S = condense(system).S
    assert np.abs(S - S.T).max() <= 1e-12 * np.abs(S).max()
    pbar = spaces["pbar"]
    facet_of_free = pbar.free_to_full // pbar.nb
    neighbors = [set() for _ in range(mesh.n_facets)]
    for c in range(mesh.n_cells):
        for f in mesh.cell_facets[c]:
            neighbors[f].update(mesh.cell_facets[c])
    coo = S.tocoo()
    for i, j in zip(coo.row, coo.col):
        assert facet_of_free[j] in neighbors[facet_of_free[i]]


def test_counterexample_reduction_is_p22():
    """The coupled counterexample P11 takes the general path: P21 = 0, so
    X and y are exact zeros and S_P is P22 in values and pattern."""
    mesh, spaces, params, _, _ = darcy_problem(n=2, with_data=False)
    ce = assemble_counterexample_inner(mesh, spaces, params)
    assert ce.coupling.nnz
    cond = condense_precond(ce)
    P22 = ce.a22
    assert np.array_equal(cond.S.indptr, P22.indptr)
    assert np.array_equal(cond.S.indices, P22.indices)
    assert np.array_equal(cond.S.data, P22.data)
    X, y = eliminate(ce, spd=True)
    assert np.abs(X).max() == 0.0 and np.abs(y).max() == 0.0


@pytest.mark.parametrize("load", ["a21", "rhs_cell"])
def test_coupled_cells_with_trace_coupling_not_condensable(load):
    """Cross-cell coupling in A11 is eliminated cell by cell only when
    A21 and rhs_cell vanish; otherwise both reductions refuse."""
    system = BlockSystem(
        layout=_ToyLayout(1), a11=np.stack([np.eye(2)] * 2), a21=np.zeros((2, 1, 2)),
        tids=np.zeros((2, 1), dtype=np.int64), a22b=np.full((2, 1, 1, 1), 0.5),
        rhs_cell=np.zeros((2, 2)), rhs_trace=np.zeros(1), params=ProblemParams(),
        coupling=sp.csr_matrix(([0.5, 0.5], ([0, 2], [2, 0])), shape=(4, 4)))
    for reduce in (condense, condense_precond):
        assert np.array_equal(reduce(system).S.toarray(), [[1.0]])
    if load == "a21":
        system.a21[1, 0, 1] = 1.0
    else:
        system.rhs_cell[0, 1] = 1.0
    for reduce in (condense, condense_precond):
        with pytest.raises(ValueError, match="not condensable"):
            reduce(system)


def test_smallest_eig_of_reduced_precond_positive():
    from condensa.krylov import generalized_eigs
    for xi in (1e-6, 1.0):
        for gamma in (1e-4, 1e4):
            _, _, _, _, inner = darcy_problem(n=4, xi=xi, gamma=gamma,
                                              with_data=False)
            S = condense_precond(inner).S
            vals = generalized_eigs(S.toarray(), np.eye(S.shape[0]), mode="extreme")
            assert vals[0] > 0


# ----------------------------------------------------------------------
# batched elimination against the per-cell scipy.linalg path


def _random_block_system(rng, nc, cs, ntr, n, spd):
    """Toy system: invertible symmetric cell blocks (SPD when asked),
    distinct trace ids per cell with some fixed (-1) whose a21 rows are
    zeroed, as assembly leaves them."""
    a11 = np.empty((nc, cs, cs))
    for c in range(nc):
        q, _ = np.linalg.qr(rng.standard_normal((cs, cs)))
        s = rng.uniform(0.5, 2.0, cs)
        if not spd:
            s *= rng.choice([-1.0, 1.0], cs)
        a11[c] = (q * s) @ q.T
    tids = np.array([rng.permutation(n)[:ntr] for _ in range(nc)], dtype=np.int64)
    tids[rng.random(tids.shape) < 0.3] = -1
    a21 = rng.standard_normal((nc, ntr, cs))
    a21[tids < 0] = 0.0
    a22 = rng.standard_normal((nc, 1, ntr, ntr))
    return BlockSystem(
        layout=_ToyLayout(n), a11=a11, a21=a21, tids=tids,
        a22b=a22 + a22.transpose(0, 1, 3, 2),
        rhs_cell=rng.standard_normal((nc, cs)),
        rhs_trace=rng.standard_normal(n), params=ProblemParams())


def _per_cell_oracle(system, spd, xbar):
    """S, rhs, back-substitution and lifting matrix, one cell at a time."""
    factor, solve = (sla.cho_factor, sla.cho_solve) if spd else (sla.lu_factor, sla.lu_solve)
    nc, cs, _ = system.a11.shape
    n = system.n_trace
    S = system.a22.toarray()
    rhs = system.rhs_trace.copy()
    cells = np.empty((nc, cs))
    L = np.zeros((nc * cs, n))
    for c in range(nc):
        fac = factor(system.a11[c])
        free = system.tids[c] >= 0
        tfree = system.tids[c][free]
        a21 = system.a21[c][free]
        X = solve(fac, a21.T)
        S[np.ix_(tfree, tfree)] -= a21 @ X
        rhs[tfree] -= a21 @ solve(fac, system.rhs_cell[c])
        xloc = np.zeros(system.tids.shape[1])
        xloc[free] = xbar[tfree]
        cells[c] = solve(fac, system.rhs_cell[c] - system.a21[c].T @ xloc)
        L[c * cs:(c + 1) * cs, tfree] = -X
    return S, rhs, np.concatenate([cells.ravel(), xbar]), np.vstack([L, np.eye(n)])


def _close(a, b):
    return np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


_sizes = dict(nc=st.integers(1, 6), cs=st.integers(1, 5), ntr=st.integers(1, 5),
              extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("spd", [False, True])
@_property
@given(**_sizes)
def test_batched_elimination_matches_per_cell(spd, nc, cs, ntr, extra, seed):
    rng = np.random.default_rng(seed)
    system = _random_block_system(rng, nc, cs, ntr, ntr + extra, spd)
    xbar = rng.standard_normal(system.n_trace)
    S, rhs, full, L = _per_cell_oracle(system, spd, xbar)
    cond = (condense_precond if spd else condense)(system)
    assert _close(cond.S.toarray(), S)
    assert _close(cond.rhs, rhs)
    assert _close(back_substitute(cond, xbar), full)
    assert _close(lifting_matrix(system).toarray(), L)


@pytest.mark.parametrize("spd,fault", [(False, "singular"), (True, "singular"),
                                       (True, "negative"), (False, "nan"), (True, "nan")])
@_property
@given(cell=st.integers(0, 5), **_sizes)
def test_bad_cell_block_named(spd, fault, cell, nc, cs, ntr, extra, seed):
    rng = np.random.default_rng(seed)
    system = _random_block_system(rng, nc, cs, ntr, ntr + extra, spd)
    c = cell % nc
    j = rng.integers(cs)
    if fault == "singular":
        system.a11[c, j, :] = 0.0
        system.a11[c, :, j] = 0.0
    elif fault == "negative":
        system.a11[c, j, j] = -system.a11[c, j, j] - 10.0 * np.abs(system.a11[c]).sum()
    else:
        system.a11[c, j, rng.integers(cs)] = np.nan
    msg = (f"P11 cell block is not positive definite (cell {c})" if spd
           else f"singular local block in cell {c}")
    with pytest.raises(ValueError, match=re.escape(msg) + "$"):
        (condense_precond if spd else condense)(system)


# ----------------------------------------------------------------------
# elimination by components of the cell dofs against the whole-block solve


def _whole_block(system, spd):
    """X, y and S from one solve of every whole cell block, each block
    certified by Cholesky when spd."""
    rhs = np.concatenate([np.transpose(system.a21, (0, 2, 1)),
                          system.rhs_cell[:, :, None]], axis=2)
    if spd:
        np.linalg.cholesky(system.a11)
    Xy = np.linalg.solve(system.a11, rhs)
    X, y = Xy[:, :, :-1], Xy[:, :, -1]
    S = _triplets_csr([system.a22_triplets(),
                       _block_triplets(-(system.a21 @ X), system.tids, system.tids)],
                      (system.n_trace,) * 2)
    return X, y, S


def _trace_free_dofs(system):
    """Cell dofs whose component of the cells' joint block pattern touches
    neither A21 nor rhs_cell."""
    _, label = csgraph.connected_components(sp.csr_matrix(np.any(system.a11, axis=0)),
                                            connection="weak")
    touched = np.any(system.a21, axis=(0, 1)) | np.any(system.rhs_cell, axis=0)
    return ~np.isin(label, label[touched])


def _inner(name):
    if name == "darcy2":
        return darcy_problem(dim=2, n=4, xi=1e-6, gamma=1e4, with_data=False)[4]
    if name == "darcy3":
        return darcy_problem(dim=3, n=2, with_data=False)[4]
    if name == "stokes":
        return stokes_problem(n=4, nu=1e-6, with_data=False)[4]
    if name == "stokes_hat":
        return stokes_problem(n=4, zeta=100.0, hatted=True, with_data=False)[4]
    if name == "stokes_zeta":
        return stokes_problem(n=4, nu=1e-6, zeta=100.0, with_data=False)[4]
    if name == "darcy_scheme":
        return darcy_problem(dim=3, n=2)[3]
    if name == "darcy2_scheme":
        return darcy_problem(dim=2, n=4)[3]
    if name == "stokes_scheme":
        return stokes_problem(n=4, nu=1e-6)[3]
    mesh = unit_box_mesh(2, 4)
    params = ProblemParams(k=2, xi=2.0, gamma=0.5)
    if name == "counterexample":
        return assemble_counterexample_inner(mesh, darcy_spaces(mesh, 2), params)
    return assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params, f=lambda x: np.cos(x[:, 0]))


@pytest.mark.parametrize("name,spd,n_free", [
    ("darcy2", True, 12), ("darcy3", True, 30), ("stokes", True, 3),
    ("stokes_hat", True, 3), ("counterexample", True, 15), ("aux", False, 0),
    ("darcy_scheme", False, 0)])
def test_component_elimination_matches_whole_block(name, spd, n_free):
    """Each component of the cell dofs solved on its own sub-block gives
    the whole-block X, y and S; a component that never reaches the trace
    (the Darcy velocity, the Stokes pressure, every counterexample dof) is
    only certified, and its rows of X and y are exact zeros.  Cell dofs
    that form one component (a scheme, the auxiliary form) are solved
    whole, bit for bit."""
    system = _inner(name)
    X, y = eliminate(system, spd)
    X0, y0, S0 = _whole_block(system, spd)
    for got, want in ((X, X0), (y, y0)):
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)
    S = (condense_precond if spd else condense)(system).S
    assert np.abs(S - S0).max() <= 1e-13 * np.abs(S0).max()
    free = _trace_free_dofs(system)
    assert np.count_nonzero(free) == n_free
    assert (X[:, free] == 0.0).all() and (y[:, free] == 0.0).all()
    if name in ("aux", "darcy_scheme"):
        assert np.array_equal(X, X0) and np.array_equal(y, y0)


@pytest.mark.parametrize("spd,fault", [(False, "singular"), (False, "nan"),
                                       (True, "negative"), (True, "nan")])
def test_bad_block_in_a_trace_free_component_named(spd, fault):
    """A certified-only component still refuses a bad block of one cell,
    by name: a velocity block of the Darcy inner product (which never
    reaches the trace) made singular, indefinite or NaN in cell 2."""
    inner = copy.copy(darcy_problem(n=2, with_data=False)[4])
    inner.a11 = inner.a11.copy()
    j = inner.layout.cell_field_slice("u").start
    assert _trace_free_dofs(inner)[j]
    if fault == "singular":
        inner.a11[2, j, :] = 0.0
        inner.a11[2, :, j] = 0.0
    elif fault == "negative":
        inner.a11[2, j, j] *= -1.0
    else:
        inner.a11[2, j, j + 1] = np.nan
    msg = ("P11 cell block is not positive definite (cell 2)" if spd
           else "singular local block in cell 2")
    with pytest.raises(ValueError, match=re.escape(msg) + "$"):
        (condense_precond if spd else condense)(inner)


def test_first_failing_component_names_its_first_failing_cell():
    """Bad blocks in two components of the Darcy inner product: cell 3 in
    the component of the lowest cell dof, cell 1 in another.  Components
    are solved in the order of their lowest dof, and the first one to fail
    names its own first failing cell."""
    inner = copy.copy(darcy_problem(n=2, with_data=False)[4])
    inner.a11 = inner.a11.copy()
    _, label = csgraph.connected_components(sp.csr_matrix(np.any(inner.a11, axis=0)),
                                            connection="weak")
    j = np.flatnonzero(label != label[0])[0]
    inner.a11[3, 0, 0] *= -1.0
    inner.a11[1, j, j] *= -1.0
    with pytest.raises(ValueError, match=re.escape("positive definite (cell 3)") + "$"):
        condense_precond(inner)


# ----------------------------------------------------------------------
# back-substitution by a cell re-solve, and what a condensed system keeps


def _lift_oracle(system, spd, xbar):
    """The monolithic vector as y - X xbar_local, from eliminate's X and y:
    the lift the full preconditioner applies, and the reference for
    back_substitute's cell re-solve."""
    X, y = eliminate(system, spd)
    cells = y - np.einsum("bct,bt->bc", X, trace_values_local(system, slice(None), xbar))
    return np.concatenate([cells.ravel(), xbar])


@pytest.mark.parametrize("name,spd", [
    ("darcy2_scheme", False), ("darcy2", True), ("darcy_scheme", False), ("darcy3", True),
    ("stokes_scheme", False), ("stokes", True), ("stokes_hat", True), ("stokes_zeta", True),
    ("counterexample", True)])
def test_back_substitute_matches_lift_oracle(rng, name, spd):
    """back_substitute's one cell solve, A11^-1 (rhs_cell - A21^T xbar_local),
    against y - X xbar_local on random traces.  The two round differently
    where a cell block is ill-conditioned, so the bound is kappa eps, with
    kappa the largest condition number of a cell block: measured at most
    0.09 kappa eps (the 3D Darcy scheme, kappa 36), and 2.9e-9 relative
    for the Stokes zeta=100 inner product at nu=1e-6 (kappa 1.6e9, 0.004
    kappa eps).  The counterexample (P21 = 0, no load) matches exactly."""
    system = _inner(name)
    cond = (condense_precond if spd else condense)(system)
    bound = np.linalg.cond(system.a11).max() * np.finfo(float).eps
    for _ in range(3):
        xbar = rng.standard_normal(cond.n_trace)
        want = _lift_oracle(system, spd, xbar)
        got = back_substitute(cond, xbar)
        if name == "counterexample":
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_back_substitute_names_a_singular_cell():
    system = darcy_problem(dim=2, n=2)[3]
    cond = condense(system)
    bad = copy.copy(system)
    bad.a11 = system.a11.copy()
    bad.a11[3, 0, :] = 0.0
    with pytest.raises(ValueError, match=re.escape("singular local block in cell 3") + "$"):
        back_substitute(CondensedSystem(bad, cond.S, cond.rhs), np.ones(cond.n_trace))


def _buffer(a):
    """The object that holds a's memory: an ndarray, or a memory map."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def _owns_its_entries(A) -> bool:
    """data and indices hold exactly A's nnz entries, in no larger buffer."""
    return all(a.size == A.nnz and memoryview(_buffer(a)).nbytes == a.nbytes
               for a in (A.data, A.indices))


@pytest.mark.parametrize("reduce", [condense, condense_precond])
def test_condensed_system_holds_only_the_trace_system(reduce):
    """What condense and condense_precond leave allocated once they return
    is the trace system: S's arrays, its load and its null vectors, within
    64 KB (tracemalloc sees the C heap; S's memory-mapped arrays are added
    by size).  At 3D n=4, S is 1.8 MB; X and y (2.9 MB for the scheme,
    3.5 MB with the inner product's wider cells) are gone, and S owns
    exactly its entries."""
    _, _, _, system, inner = darcy_problem(dim=3, n=4)
    system = system if reduce is condense else inner
    reduce(system)   # first-call allocations outside the count
    tracemalloc.start()
    try:
        cond = reduce(system)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    S = cond.S
    arrays = (S.data, S.indices, S.indptr, cond.rhs, *cond.null_vectors)
    kept = sum(a.nbytes for a in arrays)
    held += sum(a.nbytes for a in arrays if isinstance(_buffer(a), mmap.mmap))
    assert kept <= held <= kept + 64 * 1024
    assert not {"X", "y"} & set(vars(cond))
    assert S.has_canonical_format and _owns_its_entries(S)


def test_global_csr_owns_exactly_its_entries():
    """Every CSR built from triplets (S, S_P, to_sparse and the
    counterexample's coupling) owns exactly its nnz entries and is
    canonical, so the supernodal factor takes S_P.T without a copy."""
    _, _, _, system, inner = darcy_problem(dim=3, n=2)
    mesh = unit_box_mesh(2, 4)
    ce = assemble_counterexample_inner(mesh, darcy_spaces(mesh, 2), ProblemParams())
    for A in (condense(system).S, condense_precond(inner).S, system.to_sparse(),
              inner.to_sparse(), ce.coupling, ce.to_sparse(), inner.a22):
        assert A.has_canonical_format and _owns_its_entries(A)
