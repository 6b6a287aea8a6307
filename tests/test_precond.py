import dataclasses
import weakref

import numpy as np
import pytest

from condensa import precond
from condensa.assembly import ProblemParams, assemble_counterexample_inner
from condensa.condense import condense_precond
from condensa.krylov import NotSymmetricPositiveDefinite
from condensa.precond import PreconditionerSpec, build_full, build_reduced

from conftest import darcy_problem, evaluate_norms, stokes_problem


def test_spec_validation():
    with pytest.raises(ValueError):
        PreconditionerSpec("stokes", "counterexample", "full")
    with pytest.raises(ValueError):
        PreconditionerSpec("darcy", "robust", "full", zeta=10.0)
    with pytest.raises(ValueError):
        PreconditionerSpec("darcy", "robust", "everything")
    assert PreconditionerSpec("stokes", "robust", "reduced", zeta=100.0,
                              hatted=True).label() == "stokes-reduced-hat-zeta100"


@pytest.mark.parametrize("problem,kind", [("darcy", "robust"),
                                          ("darcy", "counterexample"),
                                          ("stokes", "robust")])
def test_apply_then_multiply_recovers(rng, problem, kind):
    if problem == "darcy":
        mesh, spaces, params, _, _ = darcy_problem(n=2, with_data=False)
    else:
        mesh, spaces, params, _, _ = stokes_problem(n=2, with_data=False)
    spec = PreconditionerSpec(problem, kind, "full")
    op = build_full(spec, mesh, spaces, params)
    P = precond.assemble_inner(spec, mesh, spaces, params).to_sparse()
    r = rng.standard_normal(P.shape[0])
    assert np.abs(P @ op.apply(r) - r).max() <= 1e-11 * np.abs(r).max()


@pytest.mark.parametrize("problem,kind,kw", [
    ("darcy", "robust", dict(xi=1e-6, gamma=1e4)), ("darcy", "counterexample", {}),
    ("stokes", "robust", dict(nu=1e-6)), ("stokes", "robust", dict(zeta=100.0)),
    ("stokes", "robust", dict(zeta=100.0, hatted=True))])
def test_full_apply_matches_dense_inverse(rng, problem, kind, kw):
    """The full level's minimum-degree sparse factor of P applies P^-1
    as a dense solve does: measured within 7.2e-14 relative (the
    counterexample), bound 1e-12."""
    make = darcy_problem if problem == "darcy" else stokes_problem
    mesh, spaces, params, _, _ = make(n=2, with_data=False, **kw)
    spec_kw = {k: v for k, v in kw.items() if k in ("zeta", "hatted")}
    spec = PreconditionerSpec(problem, kind, "full", **spec_kw)
    op = build_full(spec, mesh, spaces, params)
    r = rng.standard_normal(op.n)
    P = precond.assemble_inner(spec, mesh, spaces, params).to_sparse()
    want = np.linalg.solve(P.toarray(), r)
    assert np.abs(op.apply(r) - want).max() <= 1e-12 * np.abs(want).max()


def test_precond_apply_symmetric_positive(rng):
    mesh, spaces, params, _, _ = darcy_problem(n=2, with_data=False)
    op = build_full(PreconditionerSpec("darcy", "robust", "full"), mesh, spaces, params)
    a = rng.standard_normal(op.n)
    b = rng.standard_normal(op.n)
    assert abs(a @ op.apply(b) - b @ op.apply(a)) <= 1e-11 * np.abs(a @ op.apply(b))
    assert a @ op.apply(a) > 0


def test_full_energy_matches_norms_module(rng):
    # <P x, x> equals |||x|||_X^2 computed by the independent quadrature path
    mesh, spaces, params, _, inner = darcy_problem(n=2, with_data=False)
    P = inner.to_sparse()
    x = rng.standard_normal(P.shape[0])
    energy = x @ (P @ x)
    norm2 = evaluate_norms(inner, x)["tnorm_X"] ** 2
    assert abs(energy - norm2) <= 1e-12 * norm2

    meshS, spS, paramsS, _, innerS = stokes_problem(n=2, with_data=False)
    PS = innerS.to_sparse()
    xS = rng.standard_normal(PS.shape[0])
    assert abs(xS @ (PS @ xS) - evaluate_norms(innerS, xS)["tnorm_X"] ** 2) \
        <= 1e-12 * (xS @ (PS @ xS))


def test_xi_scaling_halves_velocity_energy():
    mesh, spaces, _, _, inner1 = darcy_problem(n=2, xi=1.0, with_data=False)
    _, _, _, _, inner2 = darcy_problem(n=2, xi=2.0, gamma=1.0, with_data=False)
    usl = inner1.layout.cell_field_slice("u")
    assert np.abs(inner2.a11[:, usl, usl] - 0.5 * inner1.a11[:, usl, usl]).max() < 1e-14


def test_parameter_scaling_blockwise(rng):
    # (xi, gamma) -> (c xi, c gamma): velocity block x 1/c, pressure block x c
    c = 7.5
    mesh, spaces, _, _, p1 = darcy_problem(n=2, xi=1.3, gamma=0.7, with_data=False)
    _, _, _, _, p2 = darcy_problem(n=2, xi=1.3 * c, gamma=0.7 * c, with_data=False)
    lay = p1.layout
    x = rng.standard_normal(lay.n_total)
    xu = x.copy()
    cells, trace = lay.split(xu)
    cells[:, lay.cell_field_slice("p")] = 0.0
    trace[:] = 0.0
    e1u = xu @ (p1.to_sparse() @ xu)
    e2u = xu @ (p2.to_sparse() @ xu)
    assert abs(e2u - e1u / c) <= 1e-12 * e1u
    xp = x.copy()
    cellsp, _ = lay.split(xp)
    cellsp[:, lay.cell_field_slice("u")] = 0.0
    e1p = xp @ (p1.to_sparse() @ xp)
    e2p = xp @ (p2.to_sparse() @ xp)
    assert abs(e2p - c * e1p) <= 1e-12 * e2p


def test_reduced_counterexample_against_dense_inverse(rng):
    mesh, spaces, params, _, _ = darcy_problem(n=1, with_data=False)
    op = build_reduced(PreconditionerSpec("darcy", "counterexample", "reduced"),
                       mesh, spaces, params)
    ce = assemble_counterexample_inner(mesh, spaces, params)
    Sdense = ce.a22.toarray()
    r = rng.standard_normal(op.n)
    assert np.abs(op.apply(r) - np.linalg.solve(Sdense, r)).max() \
        <= 1e-12 * np.abs(r).max()


def test_minimization_property(rng):
    # <S_P xbar, xbar> = min over cell parts of <P (w, xbar), (w, xbar)>,
    # attained at w = -P11^-1 P21^T xbar
    mesh, spaces, params, _, inner = darcy_problem(n=2, with_data=False)
    S_P = condense_precond(inner).S
    lay = inner.layout
    P = inner.to_sparse()
    for _ in range(5):
        xbar = rng.standard_normal(lay.n_trace)
        sp_energy = xbar @ (S_P @ xbar)
        w = rng.standard_normal(lay.n_cell_total)
        x = np.concatenate([w, xbar])
        assert sp_energy <= x @ (P @ x) + 1e-11
        # the explicit minimizer attains it
        wmin = np.empty(lay.n_cell_total)
        cells = wmin.reshape(mesh.n_cells, lay.cell_size)
        for c in range(mesh.n_cells):
            tids = inner.tids[c]
            tv = np.where(tids >= 0, xbar[np.maximum(tids, 0)], 0.0)
            cells[c] = -np.linalg.solve(inner.a11[c], inner.a21[c].T @ tv)
        xm = np.concatenate([wmin, xbar])
        assert abs(xm @ (P @ xm) - sp_energy) <= 1e-11 * max(sp_energy, 1.0)


@pytest.mark.parametrize("xi", [1e-6, 1.0])
@pytest.mark.parametrize("gamma", [1e-4, 1.0, 1e4])
def test_reduced_spd_across_sweep(xi, gamma):
    mesh, spaces, params, _, inner = darcy_problem(n=4, xi=xi, gamma=gamma,
                                                   with_data=False)
    op = build_reduced(PreconditionerSpec("darcy", "robust", "reduced"),
                       mesh, spaces, params)  # factor_spd certifies
    assert op.n == inner.layout.n_trace


def _track_releases(monkeypatch):
    """Weak references to what precond.assemble_inner and
    precond.condense_precond return, by name, and the names still alive
    when precond.factor_spd is called."""
    refs, alive_at_factor = {}, []

    def tracked(name, make):
        def call(*args):
            out = make(*args)
            refs[name] = weakref.ref(out)
            return out
        return call

    def factor_spd(S, **kw):
        alive_at_factor.extend(name for name, ref in refs.items() if ref() is not None)
        return precond_factor_spd(S, **kw)

    precond_factor_spd = precond.factor_spd
    monkeypatch.setattr(precond, "assemble_inner", tracked("inner", precond.assemble_inner))
    monkeypatch.setattr(precond, "condense_precond",
                        tracked("condensed", precond.condense_precond))
    monkeypatch.setattr(precond, "factor_spd", factor_spd)
    return refs, alive_at_factor


def test_reduced_keeps_only_the_factor(monkeypatch):
    """build_reduced releases the inner product's BlockSystem and its
    CondensedSystem before it factors S_P, and keeps neither."""
    mesh, spaces, params, _, _ = darcy_problem(n=2, with_data=False)
    refs, alive_at_factor = _track_releases(monkeypatch)
    op = build_reduced(PreconditionerSpec("darcy", "robust", "reduced"), mesh, spaces, params)
    assert sorted(refs) == ["condensed", "inner"] and alive_at_factor == []
    assert refs["inner"]() is None
    assert [f.name for f in dataclasses.fields(op)] == ["n", "factor"]
    assert op.n == spaces["pbar"].n_free


def test_full_keeps_only_the_factor(monkeypatch):
    """build_full condenses nothing, releases the inner product's
    BlockSystem before it factors P, and keeps only the factor."""
    mesh, spaces, params, _, inner = darcy_problem(n=2, with_data=False)
    refs, alive_at_factor = _track_releases(monkeypatch)
    op = build_full(PreconditionerSpec("darcy", "robust", "full"), mesh, spaces, params)
    assert sorted(refs) == ["inner"] and alive_at_factor == []
    assert refs["inner"]() is None
    assert [f.name for f in dataclasses.fields(op)] == ["n", "factor"]
    assert op.n == inner.layout.n_total


@pytest.mark.parametrize("zeta,hatted", [(0.0, False), (100.0, False), (100.0, True)])
def test_stokes_variants_spd(zeta, hatted):
    mesh, spaces, params, _, _ = stokes_problem(n=2, nu=1e-6, zeta=zeta,
                                                hatted=hatted, with_data=False)
    build_reduced(PreconditionerSpec("stokes", "robust", "reduced", zeta=zeta,
                                     hatted=hatted), mesh, spaces, params)
    build_full(PreconditionerSpec("stokes", "robust", "full", zeta=zeta,
                                  hatted=hatted), mesh, spaces, params)


def test_hatted_positivity_certified_at_factorization():
    # eta far below the coercivity threshold: the hatted velocity block is
    # indefinite and the build must report it rather than proceed, with the
    # same failure type at both levels
    mesh, spaces, _, _, _ = stokes_problem(n=2, with_data=False)
    bad = ProblemParams(k=2, nu=1.0, zeta=0.0, eta=1.01)
    for level, build in (("full", build_full), ("reduced", build_reduced)):
        with pytest.raises(NotSymmetricPositiveDefinite):
            build(PreconditionerSpec("stokes", "robust", level, hatted=True),
                  mesh, spaces, bad)


def test_cell_block_certificate(monkeypatch):
    # a velocity entry made indefinite is refused by cell at both levels
    import copy
    mesh, spaces, params, _, inner = darcy_problem(n=2, xi=1e-6, gamma=1e4, with_data=False)
    bad = copy.copy(inner)
    bad.a11 = inner.a11.copy()
    sl = inner.layout.cell_field_slice("u")
    bad.a11[3, sl.start, sl.start] *= -1.0
    monkeypatch.setattr(precond, "assemble_inner", lambda *args: bad)
    for level, build in (("full", build_full), ("reduced", build_reduced)):
        with pytest.raises(NotSymmetricPositiveDefinite, match=r"\(cell 3\)"):
            build(PreconditionerSpec("darcy", "robust", level), mesh, spaces, params)


def test_each_build_refuses_the_other_level():
    mesh, spaces, params, _, _ = darcy_problem(n=2, with_data=False)
    with pytest.raises(ValueError, match="spec.level must be 'full'"):
        build_full(PreconditionerSpec("darcy", "robust", "reduced"), mesh, spaces, params)
    with pytest.raises(ValueError, match="spec.level must be 'reduced'"):
        build_reduced(PreconditionerSpec("darcy", "robust", "full"), mesh, spaces, params)


def test_spec_and_params_must_agree_on_zeta():
    # a zeta=100 spec over zeta=0 parameters would build the zeta=0 S_P
    # under the label stokes-reduced-zeta100
    mesh, spaces, _, _, _ = stokes_problem(n=2, with_data=False)
    spec = PreconditionerSpec("stokes", "robust", "reduced", zeta=100.0)
    with pytest.raises(ValueError, match="spec zeta 100 differs from params zeta 0"):
        build_reduced(spec, mesh, spaces, ProblemParams(k=2, zeta=0.0))
    with pytest.raises(ValueError, match="spec zeta 0 differs from params zeta 100"):
        precond.assemble_inner(PreconditionerSpec("stokes"), mesh, spaces,
                               ProblemParams(k=2, zeta=100.0))


@pytest.mark.parametrize("problem,kind,dim,kw", [
    pytest.param("darcy", "robust", 2, {}, id="darcy-robust"),
    pytest.param("darcy", "counterexample", 2, {}, id="darcy-counterexample"),
    pytest.param("stokes", "robust", 2, {}, id="stokes-robust"),
    pytest.param("darcy", "robust", 3, {}, id="darcy-robust-3d"),
    pytest.param("darcy", "counterexample", 3, {}, id="darcy-counterexample-3d"),
    pytest.param("stokes", "robust", 2, dict(zeta=100.0, hatted=True),
                 id="stokes-robust-hat-zeta100")])
def test_full_and_reduced_are_one_elimination(rng, problem, kind, dim, kw):
    # on a trace-only residual the full P^-1, one sparse factor of P,
    # reduces to S_P^-1, a factor of the eliminated P, on the traces
    make = darcy_problem if problem == "darcy" else stokes_problem
    mesh, spaces, params, _, inner = make(dim=dim, n=2, with_data=False, **kw)
    full = build_full(PreconditionerSpec(problem, kind, "full", **kw), mesh, spaces, params)
    reduced = build_reduced(PreconditionerSpec(problem, kind, "reduced", **kw),
                            mesh, spaces, params)
    lay = inner.layout
    r_t = rng.standard_normal(lay.n_trace)
    x = full.apply(np.concatenate([np.zeros(lay.n_cell_total), r_t]))
    want = reduced.apply(r_t)
    assert np.abs(lay.split(x)[1] - want).max() <= 1e-12 * np.abs(want).max()
