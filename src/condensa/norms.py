"""L2 errors of a solve's cell fields against a manufactured solution.

A sweep row reports them as err_u and err_p: cell quadrature of the
difference between the fields of a monolithic coefficient vector and
analytic callables (the Stokes pressure after removing its mean).  The
callables are evaluated block by block of cells, so their temporaries
stay the size of a block; the quadrature sum is one reduction over all
cells.
"""

from __future__ import annotations

import numpy as np

from .assembly import BlockSystem

__all__ = ["l2_errors"]

# cells per block at which quadrature points and exact fields are evaluated
_BLOCK_CELLS = 512


def _exact_at_points(ctx, fn, shape) -> np.ndarray:
    """fn at the quadrature points of every cell, as one (cells, q, ...)
    array of the given shape, filled block by block of cells."""
    out = np.empty(shape)
    for start in range(0, shape[0], _BLOCK_CELLS):
        cells = slice(start, start + _BLOCK_CELLS)
        xq = ctx.cell_points(cells)
        out[cells] = np.asarray(fn(xq.reshape(-1, xq.shape[-1]))).reshape(out[cells].shape)
    return out


def l2_errors(system: BlockSystem, x: np.ndarray, exact_u=None, exact_p=None,
              shift_p_mean: bool = False) -> dict:
    """L2 errors of the cell fields against analytic callables."""
    lay = system.layout
    ctx = system.context
    mesh = ctx.mesh
    cells, _ = lay.split(np.asarray(x, dtype=float))
    wdet = ctx.cell_weights()
    out = {}
    if exact_u is not None:
        U = cells[:, lay.cell_field_slice("u")].reshape(mesh.n_cells, mesh.dim, ctx.nbu)
        uh = (U @ ctx.vals_u.T).transpose(0, 2, 1)
        d = uh - _exact_at_points(ctx, exact_u, uh.shape)
        del uh
        out["err_u"] = float(np.sqrt(np.einsum("bq,bqc->", wdet, np.square(d, out=d))))
    if exact_p is not None:
        P = cells[:, lay.cell_field_slice("p")]
        ph = P @ ctx.vals_p.T
        if shift_p_mean:
            vol = wdet.sum()
            ph = ph - np.einsum("bq,bq->", wdet, ph) / vol
        d = ph - _exact_at_points(ctx, exact_p, ph.shape)
        del ph
        out["err_p"] = float(np.sqrt(np.einsum("bq,bq->", wdet, np.square(d, out=d))))
    return out
