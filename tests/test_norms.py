import tracemalloc

import numpy as np
import pytest

from condensa import norms
from condensa.assembly import ProblemParams, assemble_darcy, darcy_spaces
from condensa.manufactured import manufactured_rhs
from condensa.mesh import unit_box_mesh
from condensa.norms import l2_errors

from conftest import darcy_problem, stokes_problem


def _unblocked_errors(system, x, exact_u, exact_p, shift_p_mean):
    """err_u and err_p with every quadrature point and exact value of the
    mesh evaluated at once, the reference for l2_errors' blocks."""
    lay, ctx = system.layout, system.context
    mesh = ctx.mesh
    cells, _ = lay.split(x)
    wdet = ctx.cell_weights()
    xq = ctx.cell_points()
    U = cells[:, lay.cell_field_slice("u")].reshape(mesh.n_cells, mesh.dim, ctx.nbu)
    uh = (U @ ctx.vals_u.T).transpose(0, 2, 1)
    ue = np.asarray(exact_u(xq.reshape(-1, mesh.dim))).reshape(uh.shape)
    ph = cells[:, lay.cell_field_slice("p")] @ ctx.vals_p.T
    if shift_p_mean:
        ph = ph - np.einsum("bq,bq->", wdet, ph) / wdet.sum()
    pe = np.asarray(exact_p(xq.reshape(-1, mesh.dim))).reshape(ph.shape)
    return {"err_u": float(np.sqrt(np.einsum("bq,bqc->", wdet, (uh - ue) ** 2))),
            "err_p": float(np.sqrt(np.einsum("bq,bq->", wdet, (ph - pe) ** 2)))}


@pytest.mark.parametrize("block", [7, None])
@pytest.mark.parametrize("problem,dim,n", [("darcy", 2, 8), ("darcy", 3, 2),
                                           ("stokes", 2, 8), ("stokes", 3, 2)])
def test_blocked_errors_are_bitwise_the_unblocked_ones(rng, monkeypatch, block,
                                                       problem, dim, n):
    """Blocks of cells, whole or with a ragged last block, change no bit
    of err_u and err_p (block None: the module's own size)."""
    if block is not None:
        monkeypatch.setattr(norms, "_BLOCK_CELLS", block)
    if problem == "darcy":
        _, _, params, system, _ = darcy_problem(dim=dim, n=n)
    else:
        _, _, params, system, _ = stokes_problem(dim=dim, n=n)
    case = manufactured_rhs(problem, dim, params)
    x = rng.standard_normal(system.layout.n_total)
    stokes = problem == "stokes"
    got = l2_errors(system, x, exact_u=case.exact_u, exact_p=case.exact_p,
                    shift_p_mean=stokes)
    assert got == _unblocked_errors(system, x, case.exact_u, case.exact_p, stokes)


def test_errors_peak_stays_near_the_field_arrays():
    """At 3D n=8 (3,072 cells, 64 points each) the tracemalloc peak of
    l2_errors measured 15.8 MB, three and a third velocity-sized arrays
    (4.7 MB each), against 29.9 MB with every point and exact value
    evaluated at once; bound 20 MB."""
    params = ProblemParams()
    mesh = unit_box_mesh(3, 8)
    case = manufactured_rhs("darcy", 3, params)
    system = assemble_darcy(mesh, darcy_spaces(mesh, 2), params, f=case.f,
                            p_dirichlet=case.dirichlet)
    x = np.random.default_rng(0).standard_normal(system.layout.n_total)
    tracemalloc.start()
    try:
        l2_errors(system, x, exact_u=case.exact_u, exact_p=case.exact_p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6
