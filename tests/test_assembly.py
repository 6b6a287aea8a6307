import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag
from hypothesis import given, settings
from hypothesis import strategies as st

from condensa import assembly
from condensa.assembly import (ElementContext, ProblemParams, _block_triplets, _blockdiag,
                               _coef, _gemm, assemble_aux_hdg,
                               assemble_counterexample_inner, assemble_darcy,
                               assemble_darcy_inner, assemble_stokes,
                               assemble_stokes_ch, assemble_stokes_inner,
                               aux_spaces, constant_trace_vector, darcy_spaces,
                               stokes_spaces)
from condensa.condense import back_substitute, condense, condense_precond, eliminate
from condensa.elements import monomial_integral, pk_basis
from condensa.krylov import factor_spd
from condensa.manufactured import manufactured_rhs
from condensa.mesh import Mesh, unit_box_mesh
from condensa.spaces import build_space, interpolate_boundary

from conftest import (darcy_problem, entity_dofs, evaluate_norms, facet_global_points,
                      sparse_addition_oracle, stokes_problem)


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


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_darcy_blocks_written_in_place_are_bitwise_the_copied_blocks(dim, n):
    """The velocity mass and normal-trace blocks that the Darcy assemblers
    write straight into a11 and a21 equal the blocks built on their own:
    each cell's kron(I_d, M_K) of its scalar mass M_K, and bit for bit the
    negated normal-trace product."""
    mesh = unit_box_mesh(dim, n)
    params = ProblemParams(k=2, xi=0.3, gamma=2.0)
    spaces = darcy_spaces(mesh, 2)
    scheme = assemble_darcy(mesh, spaces, params, f=manufactured_rhs("darcy", dim, params).f)
    inner = assemble_darcy_inner(mesh, spaces, params)
    ctx = ElementContext(mesh, 2)
    usl, psl = scheme.layout.cell_field_slice("u"), scheme.layout.cell_field_slice("p")
    wdet, xi = ctx.cell_weights(), _coef(params.xi, ctx.cell_points())
    _, nrm, scale, _ = ctx.facet_frame()
    base = ctx.fu_normal[ctx.codes]
    T = (base[:, :, :, None, :] * (nrm * scale[..., None])[:, :, None, :, None]).reshape(
        mesh.n_cells, -1, dim * ctx.nbu)

    def mass(w):
        return np.stack([np.kron(np.eye(dim), M_K) for M_K in _gemm(w, ctx.uu)])

    def bitwise(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    # kron writes 0 * (-x) = -0.0 off the diagonal blocks, so the masses
    # are compared by value: equal values, zeros of either sign
    assert np.array_equal(scheme.a11[:, usl, usl], mass(-wdet / xi))
    assert np.array_equal(inner.a11[:, usl, usl], mass(wdet / xi))
    kept = scheme.tids >= 0   # rows of fixed trace dofs are zero
    assert bitwise(scheme.a21[:, :, usl][kept], -T[kept])
    assert not scheme.a21[~kept].any() and not scheme.a21[:, :, psl].any()


def test_blockdiag_writes_the_diagonal_blocks_only(rng):
    blocks = rng.standard_normal((2, 3, 4, 5))
    out = _blockdiag(blocks, np.zeros((2, 12, 15)))
    assert np.array_equal(out, np.stack([block_diag(*b) for b in blocks]))
    # a single block goes onto every diagonal block
    one = _blockdiag(blocks[:, :1], np.zeros((2, 12, 15)))
    assert np.array_equal(one, np.stack([block_diag(*[b[0]] * 3) for b in blocks]))
    # a strided view of a larger array: nothing but its diagonal blocks changes
    big = rng.standard_normal((2, 14, 17))
    expect = big.copy()
    view = big[:, 1:13, 2:17]
    assert _blockdiag(blocks, view) is view
    on = block_diag(*[np.ones((4, 5), dtype=bool)] * 3)
    expect[:, 1:13, 2:17] = np.where(on, out, expect[:, 1:13, 2:17])
    assert np.array_equal(big, expect)


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


_SPACES_READ = {  # assembler: (its space bundle, the fields it reads)
    assemble_darcy: (darcy_spaces, ("u", "p", "pbar")),
    assemble_darcy_inner: (darcy_spaces, ("u", "p", "pbar")),
    assemble_counterexample_inner: (darcy_spaces, ("u", "p", "pbar")),
    assemble_aux_hdg: (aux_spaces, ("p", "pbar")),
    assemble_stokes: (stokes_spaces, ("u", "p", "ubar", "pbar")),
    assemble_stokes_inner: (stokes_spaces, ("u", "p", "ubar", "pbar")),
    assemble_stokes_ch: (stokes_spaces, ("u", "ubar")),
}


@pytest.mark.parametrize("assemble", _SPACES_READ, ids=lambda f: f.__name__)
def test_assemblers_name_a_mismatched_space(assemble):
    """A space of another mesh or of the wrong degree is refused by the
    field it stands for, before it can index out of bounds."""
    make_spaces, names = _SPACES_READ[assemble]
    mesh, other, params = unit_box_mesh(2, 2), unit_box_mesh(2, 3), ProblemParams(k=2)
    spaces = make_spaces(mesh, 2)
    assemble(mesh, spaces, params)
    for name in names:
        s = spaces[name]
        for bad in (build_space(other, s.kind, s.degree, s.zero_boundary),
                    build_space(mesh, s.kind, s.degree + 1, s.zero_boundary)):
            with pytest.raises(ValueError, match=f"field '{name}' needs a {s.kind} space"):
                assemble(mesh, {**spaces, name: bad}, params)


def test_big_m_switch_and_callable_rejection():
    assert ProblemParams(xi=1e-6, gamma=1e4).big_m == 1e4
    assert ProblemParams(xi=2.0, gamma=0.5).big_m == 2.0
    mesh, spaces, _, _, _ = darcy_problem(n=2, with_data=False)
    bad = ProblemParams(k=2, xi=lambda x: np.ones(x.shape[0]), gamma=1.0)
    with pytest.raises(ValueError):
        assemble_counterexample_inner(mesh, spaces, bad)


@pytest.mark.parametrize("name,value,rule", [("xi", 0.0, "positive"), ("gamma", -1.0, "non-negative"),
                                             ("nu", -0.5, "positive"), ("zeta", -1.0, "non-negative")])
def test_params_refuse_out_of_range_constants(name, value, rule):
    """A constant coefficient out of range is refused by name; gamma = zeta
    = 0 and coefficient functions pass."""
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {value}$"):
        ProblemParams(**{name: value})
    ProblemParams(gamma=0.0, zeta=0.0, xi=lambda x: np.zeros(x.shape[0]))


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


def test_quadrature_order_invariance(monkeypatch):
    # the polynomial integrands are exact at the fixed order 2k+2: rules
    # four orders higher give the same operators
    mesh = unit_box_mesh(2, 2)
    spaces = darcy_spaces(mesh, 2)
    params = ProblemParams(k=2, xi=2.0, gamma=0.5)
    spacesS = stokes_spaces(mesh, 2)
    paramsS = ProblemParams(k=2, nu=2.0)
    a = assemble_darcy(mesh, spaces, params)
    aS = assemble_stokes(mesh, spacesS, paramsS)
    rule = assembly.simplex_quadrature
    monkeypatch.setattr(assembly, "simplex_quadrature",
                        lambda dim, order: rule(dim, order + 4))
    assembly._context.cache_clear()   # it holds mesh's context at order 2k+2
    b = assemble_darcy(mesh, spaces, params)
    bS = assemble_stokes(mesh, spacesS, paramsS)
    assert b.context.rule.n_points > a.context.rule.n_points
    assert np.abs(a.to_sparse() - b.to_sparse()).max() < 1e-13 * np.abs(a.to_sparse()).max()
    assert np.abs(aS.to_sparse() - bS.to_sparse()).max() < 1e-13 * np.abs(aS.to_sparse()).max()


@pytest.mark.parametrize("problem", ["darcy", "counterexample", "stokes"])
def test_assemblies_of_a_mesh_share_one_context(problem):
    """Consecutive assemblies on one (mesh, k) share one read-only
    ElementContext and are bitwise those built on a context of their own."""
    mesh = unit_box_mesh(2, 4)
    params = ProblemParams(k=2, xi=2.0, gamma=0.5, nu=0.5, zeta=10.0)
    if problem == "stokes":
        spaces, fns = stokes_spaces(mesh, 2), (assemble_stokes, assemble_stokes_inner)
    else:
        inner = assemble_darcy_inner if problem == "darcy" else assemble_counterexample_inner
        spaces, fns = darcy_spaces(mesh, 2), (assemble_darcy, inner)
    shared = [fn(mesh, spaces, params) for fn in fns]
    assert shared[0].context is shared[1].context
    assert not any(v.flags.writeable for v in vars(shared[0].context).values()
                   if isinstance(v, np.ndarray))
    for fn, got in zip(fns, shared):
        assembly._context.cache_clear()
        alone = fn(mesh, spaces, params)
        assert alone.context is not got.context
        for name in ("a11", "a21", "tids", "a22b", "rhs_cell", "rhs_trace"):
            assert np.array_equal(getattr(alone, name), getattr(got, name)), name
        assert (got.coupling is None) == (alone.coupling is None)
        if got.coupling is not None:
            assert (got.coupling != alone.coupling).nnz == 0


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
    """Every assembler's system gets the weighted energies of its problem:
    Stokes ones (v_S, q_S) on a layout with a velocity trace, Darcy ones
    (v_D, q_D) otherwise, each where its fields exist.  The c_h system
    (u, ubar) and the auxiliary system (p, pbar) carry one field pair
    each: their plain norms and that pair's weighted energy."""
    mesh = unit_box_mesh(2, 2)
    params = ProblemParams(k=2, xi=0.5, gamma=2.0, nu=0.25)
    eta = params.eta_for(2)
    ds, ss = darcy_spaces(mesh, 2), stokes_spaces(mesh, 2)
    darcy, stokes = {"v_D", "q_D", "X"}, {"v_S", "q_S", "X"}
    for system, weighted in (
            (assemble_darcy(mesh, ds, params), darcy),
            (assemble_darcy_inner(mesh, ds, params), darcy),
            (assemble_counterexample_inner(mesh, ds, params), darcy),
            (assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params), {"q_D"}),
            (assemble_stokes(mesh, ss, params), stokes),
            (assemble_stokes_inner(mesh, ss, params), stokes),
            (assemble_stokes_inner(mesh, ss, params, hatted=True), stokes),
            (assemble_stokes_ch(mesh, ss, params), {"v_S"})):
        norms = evaluate_norms(system, rng.standard_normal(system.layout.n_total))
        assert {k[6:] for k in norms} & (darcy | stokes) == weighted
        if "v_D" in weighted:
            assert norms["tnorm_v_D"] ** 2 == pytest.approx(norms["u_l2_sq"] / 0.5, rel=1e-14)
        if "q_S" in weighted:
            assert norms["tnorm_q_S"] ** 2 == pytest.approx(
                (norms["p_l2_sq"] + norms["pbar_h_sq"] / eta) / 0.25, rel=1e-14)
    ch = assemble_stokes_ch(mesh, ss, params)
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
    from condensa.elements import simplex_quadrature
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
            vals = fvb @ full[entity_dofs(pbar, f)]
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


def test_darcy_3d_source_against_symbolic_oracle():
    import sympy as sy
    X = sy.symbols("x1 x2 x3")
    xi, gamma = sy.Rational(3, 10), sy.Rational(2)
    p = sy.cos(sy.pi * X[0]) * sy.sin(sy.pi * X[1]) * sy.cos(sy.pi * X[2])
    u = [-xi * sy.diff(p, xk) for xk in X]
    f = sum(sy.diff(uk, xk) for uk, xk in zip(u, X)) + gamma * p
    at = dict(zip(X, (sy.Rational(3, 10), sy.Rational(3, 5), sy.Rational(3, 20))))
    case = manufactured_rhs("darcy", 3, ProblemParams(k=2, xi=0.3, gamma=2.0))
    pt = np.array([[0.3, 0.6, 0.15]])
    assert abs(case.f(pt)[0] - float(f.subs(at))) < 1e-12
    assert np.abs(case.exact_u(pt)[0] - [float(uk.subs(at)) for uk in u]).max() < 1e-12


def test_stokes_3d_source_against_symbolic_oracle():
    import sympy as sy
    X = sy.symbols("x1 x2 x3")
    nu = sy.Rational(3)
    s = [sy.sin(sy.pi * xk) for xk in X]
    c = [sy.cos(sy.pi * xk) for xk in X]
    u = [sy.pi * (s[0] * c[1] - s[0] * c[2]),
         sy.pi * (s[1] * c[2] - s[1] * c[0]),
         sy.pi * (s[2] * c[0] - s[2] * c[1])]
    p = c[0] * s[1] * c[2]
    assert sy.simplify(sum(sy.diff(uk, xk) for uk, xk in zip(u, X))) == 0
    # f = -nu div(eps(u)) + grad p, the scheme-consistent source
    eps = [[(sy.diff(u[i], X[j]) + sy.diff(u[j], X[i])) / 2 for j in range(3)]
           for i in range(3)]
    f = [-nu * sum(sy.diff(eps[i][j], X[j]) for j in range(3)) + sy.diff(p, X[i])
         for i in range(3)]
    case = manufactured_rhs("stokes", 3, ProblemParams(k=2, nu=3.0))
    pt = np.array([[0.3, 0.6, 0.15]])
    oracle = [float(fi.subs(dict(zip(X, pt[0])))) for fi in f]
    assert np.abs(case.f(pt)[0] - np.array(oracle)).max() < 1e-10


def test_heterogeneous_case_fields():
    case = manufactured_rhs("darcy-heterogeneous", 2, ProblemParams(k=2))
    pts = np.array([[0.5, 0.5], [0.1, 0.1], [0.3, 0.5]])
    assert np.allclose(case.xi_fn(pts), [1.0, 1.32, 1.04])
    assert np.allclose(case.gamma_fn(pts), [1.0, 1e4, 1e4])
    assert np.allclose(case.f(pts), 1.0)


@pytest.mark.parametrize("problem,dim,n", [
    pytest.param("darcy", 2, 2, id="darcy"), pytest.param("stokes", 2, 2, id="stokes"),
    pytest.param("darcy", 3, 1, id="darcy-3d"), pytest.param("stokes", 3, 1, id="stokes-3d")])
def test_dirichlet_lift_matches_full_trace_system(problem, dim, n):
    # assembling with boundary data on the zero-boundary trace space equals
    # the operator with every trace dof free, restricted to the free dofs,
    # with the fixed columns times the data moved to the right-hand side;
    # a source term makes the lift and the cell load meet in rhs_cell
    mesh = unit_box_mesh(dim, n)
    params = ProblemParams(k=2)
    trace, kind = ("pbar", "facet-scalar") if problem == "darcy" else ("ubar", "facet-vector")
    if problem == "darcy":
        spaces, assemble, key = darcy_spaces(mesh, 2), assemble_darcy, "p_dirichlet"

        def g(x):
            return 1.0 + x[:, 0] ** 2 - 0.5 * x[:, 1]

        def f(x):
            return np.sin(x[:, 0]) + x[:, 1]
    else:
        spaces, assemble, key = stokes_spaces(mesh, 2), assemble_stokes, "u_dirichlet"

        def g(x):
            return np.stack([1.0 + x[:, 1] ** 2, x[:, 0] - 0.3, x[:, 0] * x[:, -1]][:dim], axis=1)

        def f(x):
            return np.stack([x[:, 0] * x[:, 1], 1.0 - x[:, 0], x[:, 1] + x[:, -1]][:dim], axis=1)
    full_spaces = dict(spaces, **{trace: build_space(mesh, kind, 2)})
    lifted = assemble(mesh, spaces, params, f=f, **{key: g})
    full = assemble(mesh, full_spaces, params, f=f)

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


@pytest.mark.parametrize("dim,n", [(2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("which", ["identity", "quadratic"])
def test_stokes_boundary_load_is_boundary_flux(which, dim, n):
    """The pbar rows of the Stokes rhs_trace hold <qbar, g.n> over the
    boundary facets; against qbar = 1 they sum to the boundary flux of g,
    which is int div g: d |Omega| for g(x) = x, and 1 for g = x0^2 e0."""
    mesh = unit_box_mesh(dim, n)
    spaces = stokes_spaces(mesh, 2)
    if which == "identity":
        g, flux = (lambda x: x), float(dim)
    else:
        g, flux = (lambda x: np.eye(dim)[0] * x[:, :1] ** 2), 1.0
    system = assemble_stokes(mesh, spaces, ProblemParams(k=2), u_dirichlet=g)
    off, end = system.layout.trace_field_range("pbar")
    got = constant_trace_vector(spaces["pbar"]) @ system.rhs_trace[off:end]
    assert abs(got - flux) < 1e-12 * flux


@pytest.mark.parametrize("dim,n", [(2, 2), (3, 1)])
@pytest.mark.parametrize("problem", ["darcy", "stokes"])
def test_a21_rows_of_fixed_trace_dofs_are_zero(problem, dim, n):
    """The BlockSystem invariant for the assemblers that take Dirichlet
    data: the a21 rows of fixed trace dofs (tids < 0) are zero.
    The coupling guard of condense and the tests' local_solve read a21
    with those rows in; only to_sparse and the Schur complements drop them."""
    build = darcy_problem if problem == "darcy" else stokes_problem
    *_, system, _ = build(dim=dim, n=n)
    fixed = system.tids < 0
    assert fixed.any() and (~fixed).any()
    assert np.abs(system.a21[fixed]).max() == 0.0
    assert np.abs(system.a21[~fixed]).max() > 0.0


def test_cavity_boundary_data():
    case = manufactured_rhs("stokes-cavity", 2, ProblemParams(k=2))
    pts = np.array([[0.0, 1.0], [0.5, 1.0], [-1.0, 0.0], [1.0, -0.3]])
    u = case.dirichlet(pts)
    assert np.allclose(u[0], [1.0, 0.0])
    assert np.allclose(u[1], [1.0 - 0.5**4, 0.0])
    assert np.abs(u[2:]).max() == 0.0
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
    a negative row or column id or an exactly zero value are dropped, and
    repeated ids add up."""
    rng = np.random.default_rng(seed)
    n = m if square else n
    size = max(m, n) + 2
    blocks = rng.standard_normal((nc, m, n))
    blocks[rng.random(blocks.shape) < 0.3] = 0.0
    rows = rng.integers(-2, size, (nc, m))
    cols = rows if square else rng.integers(-2, size, (nc, n))
    r, c, v = _block_triplets(blocks, rows, cols)
    dense, kept = np.zeros((size, size)), 0
    for b in range(nc):
        for i in range(m):
            for j in range(n):
                if rows[b, i] >= 0 and cols[b, j] >= 0 and blocks[b, i, j] != 0:
                    dense[rows[b, i], cols[b, j]] += blocks[b, i, j]
                    kept += 1
    assert r.size == c.size == v.size == kept
    assert np.array_equal(sp.coo_matrix((v, (r, c)), shape=(size, size)).toarray(), dense)


# ----------------------------------------------------------------------
# every global matrix is one COO of the element blocks


def _all_assemblers(dim, n):
    """{name: (system, reductions)} for the eight assemblers at one (dim, n);
    a reduction is condense (spd=False) or condense_precond (spd=True)."""
    mesh, dspaces, params, darcy, darcy_inner = darcy_problem(dim, n)
    smesh, sspaces, sparams, stokes, stokes_inner = stokes_problem(dim, n)
    return {
        "darcy": (darcy, (False,)),
        "darcy-inner": (darcy_inner, (True,)),
        "aux": (assemble_aux_hdg(mesh, aux_spaces(mesh, 2), params), (False, True)),
        "counterexample": (assemble_counterexample_inner(mesh, dspaces, params), (True,)),
        "stokes": (stokes, (False,)),
        "stokes-inner": (stokes_inner, (True,)),
        "stokes-inner-hat": (stokes_problem(dim, n, hatted=True)[4], (True,)),
        "stokes-ch": (assemble_stokes_ch(smesh, sspaces, sparams), (True,)),
    }


def _mark(mask, block, rows, cols):
    keep = (rows[:, None] >= 0) & (cols[None, :] >= 0) & (block != 0)
    i, j = np.nonzero(keep)
    mask[rows[i], cols[j]] = True


def _contributed(system, spd=None):
    """Positions of K (spd None) or of S that receive a nonzero element
    contribution, one cell at a time."""
    nc, cs = system.a11.shape[:2]
    nct = nc * cs if spd is None else 0
    n = nct + system.n_trace
    m, s = system.a22b.shape[1:3]
    tids = np.where(system.tids >= 0, system.tids + nct, -1)
    a22_ids = tids[:, :m * s].reshape(nc, m, s)
    cell_ids = np.arange(nc * cs).reshape(nc, cs)
    X = None if spd is None else eliminate(system, spd)[0]
    mask = np.zeros((n, n), dtype=bool)
    for c in range(nc):
        for blk, ids in zip(system.a22b[c], a22_ids[c]):
            _mark(mask, blk, ids, ids)
        if spd is None:
            _mark(mask, system.a11[c], cell_ids[c], cell_ids[c])
            _mark(mask, system.a21[c], tids[c], cell_ids[c])
            _mark(mask, system.a21[c].T, cell_ids[c], tids[c])
        else:
            _mark(mask, -(system.a21[c] @ X[c]), tids[c], tids[c])
    if spd is None and system.coupling is not None:
        cc = system.coupling.tocoo()
        mask[cc.row, cc.col] = True
    return mask


def _check_one_coo(got, oracle, contributed):
    assert np.abs(got - oracle).max() <= 1e-14 * np.abs(oracle).max()
    coo = got.tocoo()
    stored = np.zeros(got.shape, dtype=bool)
    stored[coo.row, coo.col] = True
    assert coo.nnz == stored.sum()  # no duplicate entries
    assert np.array_equal(stored, contributed)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_global_matrices_are_one_coo(dim, n):
    """to_sparse and both Schur complements equal the sparse-addition
    construction in value, and store exactly the positions that receive a
    nonzero element contribution; the Darcy K stores no explicit zero."""
    systems = _all_assemblers(dim, n)
    for system, reductions in systems.values():
        K = system.to_sparse()
        _check_one_coo(K, sparse_addition_oracle(system), _contributed(system))
        for spd in reductions:
            S = (condense_precond if spd else condense)(system).S
            _check_one_coo(S, sparse_addition_oracle(system, spd), _contributed(system, spd))
    K = systems["darcy"][0].to_sparse()
    assert K.nnz and (K.data != 0).all()
