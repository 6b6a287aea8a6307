"""L2 errors of a solve's cell fields against a manufactured solution.

A sweep row reports them as err_u and err_p: cell quadrature of the
difference between the fields of a monolithic coefficient vector and
analytic callables (the Stokes pressure after removing its mean).
"""

from __future__ import annotations

import numpy as np

from .assembly import BlockSystem

__all__ = ["l2_errors"]


def l2_errors(system: BlockSystem, x: np.ndarray, exact_u=None, exact_p=None,
              shift_p_mean: bool = False) -> dict:
    """L2 errors of the cell fields against analytic callables."""
    lay = system.layout
    ctx = system.context
    mesh = ctx.mesh
    cells, _ = lay.split(np.asarray(x, dtype=float))
    wdet = ctx.cell_weights()
    xq = ctx.cell_points()
    out = {}
    if exact_u is not None:
        U = cells[:, lay.cell_field_slice("u")].reshape(mesh.n_cells, mesh.dim, ctx.nbu)
        uh = (U @ ctx.vals_u.T).transpose(0, 2, 1)
        ue = np.asarray(exact_u(xq.reshape(-1, mesh.dim))).reshape(uh.shape)
        out["err_u"] = float(np.sqrt(np.einsum("bq,bqc->", wdet, (uh - ue) ** 2)))
    if exact_p is not None:
        P = cells[:, lay.cell_field_slice("p")]
        ph = P @ ctx.vals_p.T
        if shift_p_mean:
            vol = wdet.sum()
            ph = ph - np.einsum("bq,bq->", wdet, ph) / vol
        pe = np.asarray(exact_p(xq.reshape(-1, mesh.dim))).reshape(ph.shape)
        out["err_p"] = float(np.sqrt(np.einsum("bq,bq->", wdet, (ph - pe) ** 2)))
    return out
