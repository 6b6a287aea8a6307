import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from condensa.assembly import (ProblemParams, _block_triplets, assemble_aux_hdg,
                               assemble_counterexample_inner, assemble_darcy,
                               assemble_darcy_inner, assemble_stokes,
                               assemble_stokes_ch, assemble_stokes_inner,
                               aux_spaces, darcy_spaces, stokes_spaces)
from condensa.condense import back_substitute, condense
from condensa.elements import monomial_integral, pk_basis
from condensa.krylov import factor_spd
from condensa.manufactured import manufactured_rhs
from condensa.mesh import Mesh, unit_box_mesh
from condensa.norms import evaluate_norms
from condensa.spaces import build_space, interpolate_boundary

from conftest import darcy_problem, stokes_problem


def one_triangle():
    return Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


def reference_gram(dim, deg):
    """Exact reference mass matrix of the orthonormalized basis (unit up to
    orthonormalization roundoff), via closed-form monomial integrals."""
    bas = pk_basis(dim, deg)
    exps = bas.exponents
    nb = len(exps)
    G = np.empty((nb, nb))
    for i in range(nb):
        for j in range(nb):
            G[i, j] = monomial_integral(exps[i] + exps[j])
    return bas.coeffs @ G @ bas.coeffs.T


# ----------------------------------------------------------------------
# Darcy scheme


def test_zero_data_zero_solution():
    mesh = unit_box_mesh(2, 2)
    spaces = darcy_spaces(mesh, 2)
    params = ProblemParams(k=2)
    sysA = assemble_darcy(mesh, spaces, params,
                          f=lambda x: np.zeros(x.shape[0]),
                          p_dirichlet=lambda x: np.zeros(x.shape[0]))
    assert np.abs(sysA.rhs()).max() == 0.0
    cond = condense(sysA)
    x = back_substitute(cond, factor_spd(cond.S).solve(cond.rhs))
    assert np.abs(x).max() == 0.0


def test_divergence_theorem_row_identity():
    # for the constant pair (q, qbar) = (1, 1) on one interior cell, the
    # velocity rows of that cell vanish: -(1, div v)_K + <1, v.n> = 0
    mesh, spaces, params, system, _ = darcy_problem(n=4, with_data=False)
    lay = system.layout
    interior = [c for c in range(mesh.n_cells)
                if not mesh.boundary_flags[mesh.cell_facets[c]].any()]
    c = interior[0]
    psl, usl = lay.cell_field_slice("p"), lay.cell_field_slice("u")
    nbp = psl.stop - psl.start
    const_p = np.zeros(nbp)
    const_p[0] = np.sqrt(0.5)  # constant 1 in the orthonormal basis
    pbar = dict(lay.trace_fields)["pbar"]
    const_t = np.zeros(system.a21.shape[1])
    const_t[::pbar.nb] = 1.0
    row = (system.a11[c][usl, psl] @ const_p
           + system.a21[c].T[usl] @ const_t)
    assert np.abs(row).max() < 1e-12


def test_one_cell_velocity_mass_is_scaled_gram():
    mesh = one_triangle()
    spaces = darcy_spaces(mesh, 1)
    params = ProblemParams(k=1, xi=2.0)
    system = assemble_darcy(mesh, spaces, params)
    inner = assemble_darcy_inner(mesh, spaces, params)
    G = reference_gram(2, 1)
    detJ = 1.0  # unit right triangle
    Gv = np.kron(np.eye(2), detJ * G)
    usl = system.layout.cell_field_slice("u")
    # inner product holds +xi^-1 M; the scheme stores the momentum rows negated
    assert np.abs(inner.a11[0][usl, usl] - 0.5 * Gv).max() < 1e-13
    assert np.abs(system.a11[0][usl, usl] + 0.5 * Gv).max() < 1e-13


def test_unit_coefficient_energy_scaling():
    mesh = one_triangle()
    spaces = darcy_spaces(mesh, 2)
    inner = assemble_darcy_inner(mesh, spaces, ProblemParams(k=2, xi=4.0))
    usl = inner.layout.cell_field_slice("u")
    e1 = np.zeros(usl.stop - usl.start)
    e1[0] = 1.0
    energy = e1 @ inner.a11[0][usl, usl] @ e1
    assert abs(energy - 0.25 * reference_gram(2, 2)[0, 0]) < 1e-13


def test_constant_pair_zero_inner_energy_gamma0():
    # gamma = 0: gradient and jump terms vanish on (p, pbar) = (c, c);
    # needs the unmasked trace space so the constant pair is representable
    mesh = unit_box_mesh(2, 2)
    spaces = darcy_spaces(mesh, 2)
    spaces["pbar"] = build_space(mesh, "facet-scalar", 2)
    inner = assemble_darcy_inner(mesh, spaces, ProblemParams(k=2, xi=1.0, gamma=0.0))
    lay = inner.layout
    x = np.zeros(lay.n_total)
    cells, trace = lay.split(x)
    psl = lay.cell_field_slice("p")
    cells[:, psl.start] = np.sqrt(0.5)
    trace[::spaces["pbar"].nb] = 1.0
    K = inner.to_sparse()
    assert abs(x @ (K @ x)) < 1e-12


@pytest.mark.parametrize("xi,gamma", [(1e-6, 1e-4), (1e-6, 1e4), (1.0, 1e-4), (1.0, 1e4)])
def test_darcy_inner_spd_random(rng, xi, gamma):
    mesh, spaces, params, system, inner = darcy_problem(n=4, xi=xi, gamma=gamma,
                                                        with_data=False)
    K = inner.to_sparse()
    for _ in range(5):
        x = rng.standard_normal(K.shape[0])
        assert x @ (K @ x) > 0


def test_darcy_inner_no_velocity_pressure_coupling():
    _, _, _, _, inner = darcy_problem(n=2, with_data=False)
    usl = inner.layout.cell_field_slice("u")
    psl = inner.layout.cell_field_slice("p")
    assert np.abs(inner.a11[:, usl, psl]).max() == 0.0
    assert np.abs(inner.a21[:, :, usl]).max() == 0.0


# ----------------------------------------------------------------------
# auxiliary HDG form


def test_aux_symmetric_and_constant_kernel():
    mesh = unit_box_mesh(2, 2)
    spaces = aux_spaces(mesh, 2)
    spaces["pbar"] = build_space(mesh, "facet-scalar", 2)  # unmasked
    aux = assemble_aux_hdg(mesh, spaces, ProblemParams(k=2, xi=3.0, gamma=0.0))
    K = aux.to_sparse()
    assert np.abs((K - K.T)).max() < 1e-13 * np.abs(K).max()
    lay = aux.layout
    x = np.zeros(lay.n_total)
    cells, trace = lay.split(x)
    cells[:, 0] = np.sqrt(0.5)
    trace[::3] = 1.0
    assert abs(x @ (K @ x)) < 1e-12
    assert np.abs(K @ x).max() < 1e-12


def test_aux_rayleigh_bounded_across_levels():
    # a~(q,q) / |||q|||_qD^2 within fixed positive bounds on 8 and 128 cells
    from condensa.krylov import generalized_eigs
    from condensa.assembly import qpair_matrix
    for n in (2, 4):
        params = ProblemParams(k=2, xi=1.0, gamma=1.0)
        mesh = unit_box_mesh(2, n)
        aux = assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params)
        N = qpair_matrix(assemble_darcy_inner(mesh, darcy_spaces(mesh, 2), params))
        lo, hi = generalized_eigs(aux.to_sparse(), N, mode="extreme")
        assert 0.2 < lo < 1.0 < hi < 2.5


# ----------------------------------------------------------------------
# Stokes scheme and inner products


def test_rigid_translation_zero_ch_energy():
    mesh = unit_box_mesh(2, 2)
    spaces = stokes_spaces(mesh, 2)
    spaces["ubar"] = build_space(mesh, "facet-vector", 2)  # unmasked
    ch = assemble_stokes_ch(mesh, spaces, ProblemParams(k=2, nu=1.0))
    lay = ch.layout
    x = np.zeros(lay.n_total)
    cells, trace = lay.split(x)
    nbu = pk_basis(2, 2).n_basis
    nbf = pk_basis(1, 2).n_basis
    for comp, val in ((0, 2.0), (1, -1.0)):
        cells[:, comp * nbu] = val * np.sqrt(0.5)
        trace[comp * nbf::2 * nbf] = val
    K = ch.to_sparse()
    assert abs(x @ (K @ x)) < 1e-12
    assert np.abs(K @ x).max() < 1e-11


def test_constant_pressure_in_b_kernel():
    _, _, _, system, _ = stokes_problem(n=2, with_data=False)
    z = system.null_vectors[0]
    K = system.to_sparse()
    assert np.abs(K @ z).max() < 1e-12


def test_ch_coercivity_sampled_across_refinements(rng):
    for n in (2, 4):
        mesh, spaces, params, system, inner = stokes_problem(n=n, with_data=False)
        ch = assemble_stokes_ch(mesh, spaces, params)
        C = ch.to_sparse()
        lay = ch.layout
        # velocity-pair restriction of the inner product
        Pv_sys = inner.to_sparse()
        usl = lay.cell_field_slice("u")
        nc, cs_in = mesh.n_cells, inner.layout.cell_size
        uidx = (np.arange(nc)[:, None] * cs_in
                + np.arange(usl.start, usl.stop)[None, :]).ravel()
        off, end = inner.layout.trace_field_range("ubar")
        keep = np.concatenate([uidx, inner.layout.n_cell_total + np.arange(off, end)])
        Pv = Pv_sys.tocsr()[keep][:, keep]
        quotients = []
        for _ in range(20):
            x = rng.standard_normal(C.shape[0])
            quotients.append((x @ (C @ x)) / (x @ (Pv @ x)))
        assert min(quotients) > 0.01


def test_stokes_inner_deterministic_and_zeta_identity(rng):
    mesh, spaces, params, _, inner0 = stokes_problem(n=2, with_data=False)
    again = assemble_stokes_inner(mesh, spaces, params, hatted=False)
    d = (inner0.to_sparse() - again.to_sparse())
    assert np.abs(d).max() == 0.0  # same code path, bitwise equal

    # zeta energy difference equals zeta ||div u||^2
    inner100 = assemble_stokes_inner(
        mesh, spaces, ProblemParams(k=2, nu=params.nu, zeta=100.0))
    x = rng.standard_normal(inner0.layout.n_total)
    e0 = x @ (inner0.to_sparse() @ x)
    e100 = x @ (inner100.to_sparse() @ x)
    div_sq = evaluate_norms(inner0, x)["div_u_sq"]
    assert abs((e100 - e0) - 100.0 * div_sq) < 1e-10 * abs(e100)


def test_zeta_term_vanishes_for_rigid_motion():
    mesh, spaces, _, _, _ = stokes_problem(n=2, with_data=False)
    p0 = ProblemParams(k=2, nu=1.0, zeta=0.0)
    p100 = ProblemParams(k=2, nu=1.0, zeta=100.0)
    i0 = assemble_stokes_inner(mesh, spaces, p0)
    i100 = assemble_stokes_inner(mesh, spaces, p100)
    lay = i0.layout
    x = np.zeros(lay.n_total)
    cells, _ = lay.split(x)
    nbu = pk_basis(2, 2).n_basis
    cells[:, 0] = np.sqrt(0.5)  # constant x-velocity, divergence-free
    assert abs(x @ (i0.to_sparse() @ x) - x @ (i100.to_sparse() @ x)) < 1e-13


def test_stokes_inner_block_structure():
    _, _, _, _, inner = stokes_problem(n=2, with_data=False)
    lay = inner.layout
    usl, psl = lay.cell_field_slice("u"), lay.cell_field_slice("p")
    assert np.abs(inner.a11[:, usl, psl]).max() == 0.0
    # pressure block is diagonal between p and pbar: pbar rows of a21 vanish
    d1 = lay.mesh.dim + 1
    nbf = dict(lay.trace_fields)["pbar"].nb
    assert np.abs(inner.a21[:, -d1 * nbf:, :]).max() == 0.0


# ----------------------------------------------------------------------
# counterexample inner product


def test_jump_term_zero_for_normal_continuous_field():
    mesh, spaces, _, _, _ = darcy_problem(n=2, with_data=False)
    params = ProblemParams(k=2, xi=1.0, gamma=1.0)
    ce = assemble_counterexample_inner(mesh, spaces, params)
    lay = ce.layout
    # globally constant velocity: continuous normal component
    x = np.zeros(lay.n_cell_total)
    cells = x.reshape(mesh.n_cells, lay.cell_size)
    cells[:, 0] = np.sqrt(0.5)
    assert abs(x @ (ce.coupling @ x)) < 1e-13


def test_counterexample_trace_block_energy():
    # constant pbar = 1 on the single interior facet of the 2-cell mesh,
    # xi = 2: energy = 2 (h_K1 + h_K2) * area(F)
    mesh = unit_box_mesh(2, 1)
    spaces = darcy_spaces(mesh, 2)
    ce = assemble_counterexample_inner(mesh, spaces, ProblemParams(k=2, xi=2.0, gamma=1.0))
    nbf = spaces["pbar"].nb
    x = np.zeros(ce.n_trace)
    x[0::nbf] = 1.0
    got = x @ (ce.a22 @ x)
    f = int(np.nonzero(~mesh.boundary_flags)[0][0])
    h1, h2 = mesh.diameters[mesh.facet_cells[f]]
    oracle = 2.0 * (h1 + h2) * mesh.facet_areas[f]
    assert abs(got - oracle) < 1e-13


def test_big_m_switch_and_callable_rejection():
    assert ProblemParams(xi=1e-6, gamma=1e4).big_m == 1e4
    assert ProblemParams(xi=2.0, gamma=0.5).big_m == 2.0
    mesh, spaces, _, _, _ = darcy_problem(n=2, with_data=False)
    bad = ProblemParams(k=2, xi=lambda x: np.ones(x.shape[0]), gamma=1.0)
    with pytest.raises(ValueError):
        assemble_counterexample_inner(mesh, spaces, bad)


def test_counterexample_has_no_trace_cell_coupling():
    mesh, spaces, _, _, _ = darcy_problem(n=2, with_data=False)
    ce = assemble_counterexample_inner(mesh, spaces, ProblemParams(k=2))
    assert np.abs(ce.a21).max() == 0.0


# ----------------------------------------------------------------------
# invariants: symmetry, structure, quadrature exactness


@pytest.mark.parametrize("which", ["darcy", "darcy-inner", "stokes", "stokes-inner",
                                   "aux", "counterexample"])
def test_assembled_operators_symmetric(which):
    mesh = unit_box_mesh(2, 2)
    params = ProblemParams(k=2, xi=0.5, gamma=2.0, nu=3.0)
    if which in ("darcy", "darcy-inner", "counterexample"):
        spaces = darcy_spaces(mesh, 2)
        fn = {"darcy": assemble_darcy, "darcy-inner": assemble_darcy_inner,
              "counterexample": assemble_counterexample_inner}[which]
        system = fn(mesh, spaces, params)
    elif which == "aux":
        system = assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params)
    else:
        spaces = stokes_spaces(mesh, 2)
        fn = assemble_stokes if which == "stokes" else assemble_stokes_inner
        system = fn(mesh, spaces, params)
    K = system.to_sparse()
    assert np.abs(K - K.T).max() <= 1e-13 * np.abs(K).max()
    if which != "counterexample":
        assert system.coupling is None  # A11 strictly block diagonal per cell


def test_quadrature_order_invariance():
    mesh = unit_box_mesh(2, 2)
    spaces = darcy_spaces(mesh, 2)
    params = ProblemParams(k=2, xi=2.0, gamma=0.5)
    case = manufactured_rhs("darcy", 2, params)
    a = assemble_darcy(mesh, spaces, params, quad_order=6)
    b = assemble_darcy(mesh, spaces, params, quad_order=10)
    d = (a.to_sparse() - b.to_sparse())
    assert np.abs(d).max() < 1e-13 * np.abs(a.to_sparse()).max()
    spacesS = stokes_spaces(mesh, 2)
    paramsS = ProblemParams(k=2, nu=2.0)
    aS = assemble_stokes(mesh, spacesS, paramsS, quad_order=6)
    bS = assemble_stokes(mesh, spacesS, paramsS, quad_order=10)
    assert np.abs(aS.to_sparse() - bS.to_sparse()).max() < 1e-13 * np.abs(aS.to_sparse()).max()


def test_eta_validation():
    with pytest.raises(ValueError):
        ProblemParams(k=2, eta=0.5).eta_for(2)
    assert ProblemParams(k=2).eta_for(2) == 16.0
    assert ProblemParams(k=2).eta_for(3) == 24.0
    assert ProblemParams(k=3).eta_for(2) == 36.0


# ----------------------------------------------------------------------
# norms


def test_norms_vanish_on_constants():
    mesh = unit_box_mesh(2, 2)
    spaces = stokes_spaces(mesh, 2)
    spaces["ubar"] = build_space(mesh, "facet-vector", 2)
    system = assemble_stokes(mesh, spaces, ProblemParams(k=2, nu=1.0))
    lay = system.layout
    x = np.zeros(lay.n_total)
    cells, trace = lay.split(x)
    nbu, nbf = pk_basis(2, 2).n_basis, pk_basis(1, 2).n_basis
    cells[:, 0] = np.sqrt(0.5)
    off, end = lay.trace_field_range("ubar")
    trace[off:end][0::2 * nbf] = 1.0
    norms = evaluate_norms(system, x)
    assert norms["tnorm_v"] < 1e-13          # eps and jumps vanish
    assert norms["tnorm_hu"] < 1e-13         # m_K subtracts the mean


def test_norms_of_single_pair_systems(rng):
    """The c_h system (u, ubar) and the auxiliary system (p, pbar) carry one
    field pair each: their plain norms and that pair's weighted energy."""
    mesh = unit_box_mesh(2, 2)
    params = ProblemParams(k=2, xi=0.5, gamma=2.0, nu=0.25)
    ch = assemble_stokes_ch(mesh, stokes_spaces(mesh, 2), params)
    norms = evaluate_norms(ch, rng.standard_normal(ch.layout.n_total))
    assert {"tnorm_v", "tnorm_hu", "tnorm_v_S"} <= set(norms)
    assert "tnorm_X" not in norms and "tnorm_0p" not in norms
    assert norms["tnorm_v_S"] == pytest.approx(0.5 * norms["tnorm_v"], rel=1e-14)
    aux = assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params)
    norms = evaluate_norms(aux, rng.standard_normal(aux.layout.n_total))
    assert {"tnorm_0p", "tnorm_p", "tnorm_hp", "tnorm_q_D"} <= set(norms)
    assert "tnorm_X" not in norms and "tnorm_v" not in norms
    assert all(np.isfinite(v) and v > 0 for v in norms.values())


def test_norm_0p_cross_check_independent_quadrature(rng):
    # |||(q, qbar)|||_{0,p}^2 against a hand-rolled quadrature loop
    from condensa.elements import facet_global_points, simplex_quadrature
    mesh, spaces, params, system, _ = darcy_problem(n=2, with_data=False)
    lay = system.layout
    x = rng.standard_normal(lay.n_total)
    norms = evaluate_norms(system, x)
    got = norms["tnorm_0p"] ** 2

    cells, trace = lay.split(x)
    psl = lay.cell_field_slice("p")
    basp = pk_basis(2, 1)
    q2 = simplex_quadrature(2, 6)
    q1 = simplex_quadrature(1, 6)
    fvb = pk_basis(1, 2).eval(q1.points)
    total = 0.0
    for c in range(mesh.n_cells):
        v0 = mesh.vertices[mesh.cells[c, 0]]
        J = (mesh.vertices[mesh.cells[c, 1:]] - v0).T
        vals = basp.eval(q2.points) @ cells[c, psl]
        total += abs(np.linalg.det(J)) * (q2.weights * vals**2).sum()
    pbar = dict(lay.trace_fields)["pbar"]
    full = np.zeros(pbar.ndofs)
    full[pbar.free_to_full] = trace
    for c in range(mesh.n_cells):
        for f in mesh.cell_facets[c]:
            vals = fvb @ full[pbar.entity_dofs(f)]
            scale = mesh.facet_areas[f]  # 2D: reference edge has measure 1
            total += mesh.diameters[c] * scale * (q1.weights * vals**2).sum()
    assert abs(got - total) < 1e-12 * max(1.0, total)


# ----------------------------------------------------------------------
# manufactured data


def test_manufactured_point_values():
    params = ProblemParams(k=2, xi=1.0, gamma=1.0)
    case = manufactured_rhs("darcy", 2, params)
    x = np.array([[0.5, 0.5]])
    assert abs(case.exact_p(x)[0]) < 1e-15  # cos(pi/2) sin(pi/2) = 0
    caseS = manufactured_rhs("stokes", 2, ProblemParams(k=2, nu=1.0))
    u = caseS.exact_u(x)[0]
    assert np.abs(u - np.array([1.0, 0.0])).max() < 1e-15


def test_darcy_source_against_symbolic_oracle():
    import sympy as sy
    x1, x2 = sy.symbols("x1 x2")
    xi, gamma = sy.Rational(1), sy.Rational(1)
    p = sy.cos(sy.pi * x1) * sy.sin(sy.pi * x2)
    u = [-xi * sy.diff(p, x1), -xi * sy.diff(p, x2)]
    f = sy.diff(u[0], x1) + sy.diff(u[1], x2) + gamma * p
    oracle = float(f.subs({x1: sy.Rational(1, 4), x2: sy.Rational(1, 4)}))
    assert abs(oracle - (2 * np.pi**2 + 1) / 2) < 1e-12
    case = manufactured_rhs("darcy", 2, ProblemParams(k=2, xi=1.0, gamma=1.0))
    got = case.f(np.array([[0.25, 0.25]]))[0]
    assert abs(got - oracle) < 1e-12


def test_stokes_source_against_symbolic_oracle():
    import sympy as sy
    x1, x2 = sy.symbols("x1 x2")
    nu = sy.Rational(3)
    u = [sy.sin(sy.pi * x1) * sy.sin(sy.pi * x2),
         sy.cos(sy.pi * x1) * sy.cos(sy.pi * x2)]
    p = sy.sin(sy.pi * x1) * sy.cos(sy.pi * x2)
    # f = -nu div(eps(u)) + grad p, the scheme-consistent source
    eps = [[sy.diff(u[0], x1), (sy.diff(u[0], x2) + sy.diff(u[1], x1)) / 2],
           [(sy.diff(u[0], x2) + sy.diff(u[1], x1)) / 2, sy.diff(u[1], x2)]]
    f = [-nu * (sy.diff(eps[0][0], x1) + sy.diff(eps[0][1], x2)) + sy.diff(p, x1),
         -nu * (sy.diff(eps[1][0], x1) + sy.diff(eps[1][1], x2)) + sy.diff(p, x2)]
    case = manufactured_rhs("stokes", 2, ProblemParams(k=2, nu=3.0))
    pt = np.array([[0.3, 0.7]])
    got = case.f(pt)[0]
    oracle = [float(fi.subs({x1: 0.3, x2: 0.7})) for fi in f]
    assert np.abs(got - np.array(oracle)).max() < 1e-10


def test_heterogeneous_case_fields():
    case = manufactured_rhs("darcy-heterogeneous", 2, ProblemParams(k=2))
    pts = np.array([[0.5, 0.5], [0.1, 0.1], [0.3, 0.5]])
    assert np.allclose(case.xi_fn(pts), [1.0, 1.32, 1.04])
    assert np.allclose(case.gamma_fn(pts), [1.0, 1e4, 1e4])
    assert np.allclose(case.f(pts), 1.0)


@pytest.mark.parametrize("problem", ["darcy", "stokes"])
def test_dirichlet_lift_matches_full_trace_system(problem):
    # assembling with boundary data on the zero-boundary trace space equals
    # the operator with every trace dof free, restricted to the free dofs,
    # with the fixed columns times the data moved to the right-hand side
    mesh = unit_box_mesh(2, 2)
    params = ProblemParams(k=2)
    trace, kind = ("pbar", "facet-scalar") if problem == "darcy" else ("ubar", "facet-vector")
    if problem == "darcy":
        spaces, assemble, key = darcy_spaces(mesh, 2), assemble_darcy, "p_dirichlet"

        def g(x):
            return 1.0 + x[:, 0] ** 2 - 0.5 * x[:, 1]
    else:
        spaces, assemble, key = stokes_spaces(mesh, 2), assemble_stokes, "u_dirichlet"

        def g(x):
            return np.stack([1.0 + x[:, 1] ** 2, x[:, 0] - 0.3], axis=1)
    full_spaces = dict(spaces, **{trace: build_space(mesh, kind, 2)})
    lifted = assemble(mesh, spaces, params, **{key: g})
    full = assemble(mesh, full_spaces, params)

    lay, flay = lifted.layout, full.layout
    nct = lay.n_cell_total
    space = spaces[trace]
    off, end = flay.trace_field_range(trace)
    keep = np.concatenate([np.arange(nct), nct + off + space.free_to_full,
                           np.arange(nct + end, flay.n_total)])
    fixed = nct + off + np.nonzero(space.full_to_free < 0)[0]
    gfull = interpolate_boundary(build_space(mesh, kind, 2), g)
    K = full.to_sparse().tocsr()
    want = full.rhs() - K[:, fixed] @ gfull[fixed - nct - off]
    assert np.abs((lifted.to_sparse() - K[keep][:, keep])).max() == 0.0
    rows = lay.indices(*[n for n, _ in lay.cell_fields], trace)  # the pbar load differs
    assert np.abs(lifted.rhs()[rows] - want[keep][rows]).max() < 1e-12 * np.abs(want).max()


def test_cavity_boundary_data():
    case = manufactured_rhs("stokes-cavity", 2, ProblemParams(k=2))
    pts = np.array([[0.0, 1.0], [0.5, 1.0], [-1.0, 0.0], [1.0, -0.3]])
    u = case.dirichlet(pts)
    assert np.allclose(u[0], [1.0, 0.0])
    assert np.allclose(u[1], [1.0 - 0.5**4, 0.0])
    assert np.abs(u[2:]).max() == 0.0
    assert "interpretation" in case.meta
    case3 = manufactured_rhs("stokes-cavity", 3, ProblemParams(k=2))
    u3 = case3.dirichlet(np.array([[0.5, 0.5, 1.0]]))[0]  # tau = (0, 0)
    assert np.allclose(u3, [1.0, 0.1, 0.0])


def test_unknown_problem_tag():
    with pytest.raises(ValueError):
        manufactured_rhs("heat", 2, ProblemParams())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nc=st.integers(1, 6), m=st.integers(1, 5), n=st.integers(1, 5),
       square=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_triplets_match_dense_loop(nc, m, n, square, seed):
    """The block scatter against a dense per-cell double loop: entries with
    a negative row or column id are dropped and repeated ids add up."""
    rng = np.random.default_rng(seed)
    n = m if square else n
    size = max(m, n) + 2
    blocks = rng.standard_normal((nc, m, n))
    rows = rng.integers(-2, size, (nc, m))
    cols = rows if square else rng.integers(-2, size, (nc, n))
    r, c, v = _block_triplets(blocks, rows, cols)
    dense, kept = np.zeros((size, size)), 0
    for b in range(nc):
        for i in range(m):
            for j in range(n):
                if rows[b, i] >= 0 and cols[b, j] >= 0:
                    dense[rows[b, i], cols[b, j]] += blocks[b, i, j]
                    kept += 1
    assert r.size == c.size == v.size == kept
    assert np.array_equal(sp.coo_matrix((v, (r, c)), shape=(size, size)).toarray(), dense)
