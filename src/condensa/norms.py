"""Mesh-dependent norms evaluated by direct quadrature from coefficients.

This is a second, matrix-free code path for the same quadratic forms the
inner-product assemblies produce; the two are cross-checked in the test
suite.  Norms returned (squared values internally, square roots out):

  v        : ||eps(v)||^2 + eta ||h^-1/2 (v - vbar)||^2     (velocity pair)
  q0       : ||q||^2 + ||h^1/2 qbar||^2
  qp       : ||grad q||^2 + eta ||h^-1/2 (q - qbar)||^2
  hu / hp  : ||h^-1/2 (bar - m_K(bar))||^2 on the trace alone
  weighted : v_D, q_D, v_S, q_S, and the X_h energy of the system
"""

from __future__ import annotations

import numpy as np

from .assembly import BlockSystem, _coef

__all__ = ["evaluate_norms", "xnorm", "l2_errors", "trace_full_values"]


def trace_full_values(system: BlockSystem, name: str, xbar: np.ndarray) -> np.ndarray:
    """Full facet coefficient array of one trace field.

    Free entries come from the coefficient vector; fixed (Dirichlet)
    entries are zero, as norms of coefficient increments need.
    """
    lay = system.layout
    spc = dict(lay.trace_fields)[name]
    off, end = lay.trace_field_range(name)
    full = np.zeros(spc.ndofs)
    full[spc.free_to_full] = xbar[off:end]
    return full


def evaluate_norms(system: BlockSystem, x: np.ndarray) -> dict:
    """Norms of a monolithic coefficient vector (free dofs).

    Returns a dict of *norms* (not squares): the plain mesh-dependent
    quantities listed above that the system's fields support, plus the
    parameter-weighted energies matching the system's parameters (each
    only where the fields it reads exist; tnorm_X needs both).
    """
    lay = system.layout
    ctx = system.context
    mesh = ctx.mesh
    params = system.params
    eta = params.eta_for(mesh.dim)
    cells, xbar = lay.split(np.asarray(x, dtype=float))

    sl = slice(0, mesh.n_cells)
    wdet = ctx.cell_weights(sl)
    xq = ctx.cell_points(sl)
    fids, nrm, scale, xf = ctx.facet_frame(sl)
    wfs = ctx.facet_weights(scale)  # (nc, d+1, nqf)
    hK = ctx.hK
    out: dict[str, float] = {}
    names = {n for n, _ in lay.cell_fields} | {n for n, _ in lay.trace_fields}

    if "u" in names:
        U = cells[:, lay.cell_field_slice("u")].reshape(mesh.n_cells, mesh.dim, ctx.nbu)
        G = _field_grads(ctx, U, ctx.gref_u)
        eps = 0.5 * (G + np.transpose(G, (0, 1, 3, 2)))
        out["eps_u_sq"] = float(np.einsum("bq,bqck->", wdet, eps**2))
        out["div_u_sq"] = float(np.einsum("bq,bq->", wdet,
                                          np.einsum("bqcc->bq", G) ** 2))
        uv = (U @ ctx.vals_u.T).transpose(0, 2, 1)
        out["u_l2_sq"] = float(np.einsum("bq,bqc->", wdet, uv**2))
        u_f = ctx.facet_values(sl, "u") @ U.transpose(0, 2, 1)[:, None]
        if "ubar" in names:
            ub_full = trace_full_values(system, "ubar", xbar)
            spc = dict(lay.trace_fields)["ubar"]
            UB = ub_full.reshape(mesh.n_facets, mesh.dim, spc.nb)[fids]
            ub_f = np.einsum("blcm,qm->blqc", UB, ctx.fv)
            jump = u_f - ub_f
            out["jump_u_sq"] = float(np.einsum(
                "blq,blqc->", wfs / hK[:, None, None], jump**2))
            mK = (np.einsum("blq,blqc->bc", wfs, ub_f)
                  / np.einsum("blq->b", wfs)[:, None])
            dev = ub_f - mK[:, None, None, :]
            out["hu_sq"] = float(np.einsum(
                "blq,blqc->", wfs / hK[:, None, None], dev**2))

    if "p" in names:
        P = cells[:, lay.cell_field_slice("p")]
        pv = P @ ctx.vals_p.T
        gpv = _field_grads(ctx, P[:, None, :], ctx.gref_p)[:, :, 0]
        out["p_l2_sq"] = float(np.einsum("bq,bq->", wdet, pv**2))
        out["grad_p_sq"] = float(np.einsum("bq,bqk->", wdet, gpv**2))
        if "pbar" in names:
            pb_full = trace_full_values(system, "pbar", xbar)
            spc = dict(lay.trace_fields)["pbar"]
            PB = pb_full.reshape(mesh.n_facets, spc.nb)[fids]
            pb_f = np.einsum("blm,qm->blq", PB, ctx.fv)
            p_f = (ctx.facet_values(sl, "p") @ P[:, None, :, None])[..., 0]
            jump = p_f - pb_f
            out["jump_p_sq"] = float(np.einsum(
                "blq,blq->", wfs / hK[:, None, None], jump**2))
            out["pbar_h_sq"] = float(np.einsum(
                "blq,blq->", wfs * hK[:, None, None], pb_f**2))
            mK = np.einsum("blq,blq->b", wfs, pb_f) / np.einsum("blq->b", wfs)
            dev = pb_f - mK[:, None, None]
            out["hp_sq"] = float(np.einsum(
                "blq,blq->", wfs / hK[:, None, None], dev**2))

    # plain mesh-dependent norms
    if "eps_u_sq" in out and "jump_u_sq" in out:
        out["tnorm_v"] = np.sqrt(out["eps_u_sq"] + eta * out["jump_u_sq"])
    if "p_l2_sq" in out and "pbar_h_sq" in out:
        out["tnorm_0p"] = np.sqrt(out["p_l2_sq"] + out["pbar_h_sq"])
    if "grad_p_sq" in out and "jump_p_sq" in out:
        out["tnorm_p"] = np.sqrt(out["grad_p_sq"] + eta * out["jump_p_sq"])
    if "hu_sq" in out:
        out["tnorm_hu"] = np.sqrt(out["hu_sq"])
    if "hp_sq" in out:
        out["tnorm_hp"] = np.sqrt(out["hp_sq"])

    # parameter-weighted energies, each where the fields it reads exist
    weighted = {}
    if system.problem.startswith("darcy"):
        if "u" in names:
            weighted["v_D"] = float(np.einsum("bq,bqc->", wdet / _coef(params.xi, xq), uv**2))
        if "jump_p_sq" in out:
            xif = _coef(params.xi, xf)
            weighted["q_D"] = (
                float(np.einsum("bq,bq->", wdet * _coef(params.gamma, xq), pv**2))
                + float(np.einsum("bq,bqk->", wdet * _coef(params.xi, xq), gpv**2))
                + eta * float(np.einsum(
                    "blq,blq->", wfs * xif / hK[:, None, None], (p_f - pb_f) ** 2)))
    elif system.problem.startswith("stokes"):
        nu = float(params.nu)
        if "jump_u_sq" in out:
            weighted["v_S"] = nu * (out["eps_u_sq"] + eta * out["jump_u_sq"])
        if "pbar_h_sq" in out:
            weighted["q_S"] = out["p_l2_sq"] / nu + out["pbar_h_sq"] / (nu * eta)
    for key, val in weighted.items():
        out[f"tnorm_{key}"] = np.sqrt(val)
    if len(weighted) == 2:
        out["tnorm_X"] = np.sqrt(sum(weighted.values()))
    return out


def _field_grads(ctx, U, gref):
    """Physical gradients at the cell quadrature points of fields with
    coefficients U (cells, components, nb): (cells, q, components, d)."""
    B, c, n = U.shape
    q, _, d = gref.shape
    G = (U.reshape(B * c, n) @ gref.transpose(1, 0, 2).reshape(n, q * d)).reshape(B, c * q, d)
    return (G @ ctx.Jinv).reshape(B, c, q, d).transpose(0, 2, 1, 3)


def xnorm(system: BlockSystem, x: np.ndarray) -> float:
    """The X_h energy norm of a monolithic coefficient vector."""
    return evaluate_norms(system, x)["tnorm_X"]


def l2_errors(system: BlockSystem, x: np.ndarray, exact_u=None, exact_p=None,
              shift_p_mean: bool = False) -> dict:
    """L2 errors of the cell fields against analytic callables."""
    lay = system.layout
    ctx = system.context
    mesh = ctx.mesh
    cells, _ = lay.split(np.asarray(x, dtype=float))
    sl = slice(0, mesh.n_cells)
    wdet = ctx.cell_weights(sl)
    xq = ctx.cell_points(sl)
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
