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


def _field_tables(system: BlockSystem):
    ctx = system.context
    mesh = ctx.mesh
    sl = slice(0, mesh.n_cells)
    fids, nrm, scale, xf = ctx.facet_frame(sl)
    return ctx, mesh, fids, scale, xf


def evaluate_norms(system: BlockSystem, x: np.ndarray, fields=None) -> dict:
    """Norms of a monolithic coefficient vector (free dofs).

    Returns a dict of *norms* (not squares): the plain mesh-dependent
    quantities listed above plus the parameter-weighted energies matching
    the system's parameters.
    """
    lay = system.layout
    ctx = system.context
    mesh = ctx.mesh
    params = system.params
    eta = params.eta_for(mesh.dim)
    cells, xbar = lay.split(np.asarray(x, dtype=float))

    sl = slice(0, mesh.n_cells)
    wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None]
    xq = ctx.cell_points(sl)
    fids, nrm, scale, xf = ctx.facet_frame(sl)
    wfs = ctx.frule.weights[None, None, :] * scale[:, :, None]  # (nc, d+1, nqf)
    hK = ctx.hK
    out: dict[str, float] = {}
    names = {n for n, _ in lay.cell_fields} | {n for n, _ in lay.trace_fields}

    if "u" in names:
        U = cells[:, lay.cell_field_slice("u")].reshape(mesh.n_cells, mesh.dim, ctx.nbu)
        gu = ctx.phys_grads(sl, ctx.gref_u)
        G = np.einsum("bcn,bqnk->bqck", U, gu)
        eps = 0.5 * (G + np.transpose(G, (0, 1, 3, 2)))
        out["eps_u_sq"] = float(np.einsum("bq,bqck->", wdet, eps**2))
        out["div_u_sq"] = float(np.einsum("bq,bq->", wdet,
                                          np.einsum("bqcc->bq", G) ** 2))
        out["u_l2_sq"] = float(np.einsum(
            "bq,bqc->", wdet,
            np.einsum("bcn,qn->bqc", U, ctx.vals_u) ** 2))
        Vu, _ = ctx.facet_cell_tables(sl, xf, which="u")
        u_f = np.einsum("bcn,blqn->blqc", U, Vu)
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
        gp = ctx.phys_grads(sl, ctx.gref_p)
        out["p_l2_sq"] = float(np.einsum(
            "bq,bq->", wdet, np.einsum("bn,qn->bq", P, ctx.vals_p) ** 2))
        out["grad_p_sq"] = float(np.einsum(
            "bq,bqk->", wdet, np.einsum("bn,bqnk->bqk", P, gp) ** 2))
        if "pbar" in names:
            pb_full = trace_full_values(system, "pbar", xbar)
            spc = dict(lay.trace_fields)["pbar"]
            PB = pb_full.reshape(mesh.n_facets, spc.nb)[fids]
            pb_f = np.einsum("blm,qm->blq", PB, ctx.fv)
            Vp, _ = ctx.facet_cell_tables(sl, xf, which="p")
            p_f = np.einsum("bn,blqn->blq", P, Vp)
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

    # parameter-weighted energies
    if system.problem.startswith("darcy"):
        w_ixi = wdet / _coef(params.xi, xq)
        U = cells[:, lay.cell_field_slice("u")].reshape(mesh.n_cells, mesh.dim, ctx.nbu)
        uv = np.einsum("bcn,qn->bqc", U, ctx.vals_u)
        v_d_sq = float(np.einsum("bq,bqc->", w_ixi, uv**2))
        P = cells[:, lay.cell_field_slice("p")]
        w_gam = wdet * _coef(params.gamma, xq)
        w_xi = wdet * _coef(params.xi, xq)
        gp = ctx.phys_grads(sl, ctx.gref_p)
        pv = np.einsum("bn,qn->bq", P, ctx.vals_p)
        gpv = np.einsum("bn,bqnk->bqk", P, gp)
        Vp, _ = ctx.facet_cell_tables(sl, xf, which="p")
        pb_full = trace_full_values(system, "pbar", xbar)
        spc = dict(lay.trace_fields)["pbar"]
        PB = pb_full.reshape(mesh.n_facets, spc.nb)[fids]
        pb_f = np.einsum("blm,qm->blq", PB, ctx.fv)
        p_f = np.einsum("bn,blqn->blq", P, Vp)
        xif = _coef(params.xi, xf)
        q_d_sq = (float(np.einsum("bq,bq->", w_gam, pv**2))
                  + float(np.einsum("bq,bqk->", w_xi, gpv**2))
                  + eta * float(np.einsum(
                      "blq,blq->", wfs * xif / hK[:, None, None], (p_f - pb_f) ** 2)))
        out["tnorm_v_D"] = np.sqrt(v_d_sq)
        out["tnorm_q_D"] = np.sqrt(q_d_sq)
        out["tnorm_X"] = np.sqrt(v_d_sq + q_d_sq)
    elif system.problem.startswith("stokes"):
        nu = float(params.nu)
        v_s_sq = nu * (out["eps_u_sq"] + eta * out["jump_u_sq"])
        q_s_sq = out["p_l2_sq"] / nu + out["pbar_h_sq"] / (nu * eta)
        out["tnorm_v_S"] = np.sqrt(v_s_sq)
        out["tnorm_q_S"] = np.sqrt(q_s_sq)
        out["tnorm_X"] = np.sqrt(v_s_sq + q_s_sq)
    return out


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
    wdet = ctx.rule.weights[None, :] * ctx.detJa[sl, None]
    xq = ctx.cell_points(sl)
    out = {}
    if exact_u is not None:
        U = cells[:, lay.cell_field_slice("u")].reshape(mesh.n_cells, mesh.dim, ctx.nbu)
        uh = np.einsum("bcn,qn->bqc", U, ctx.vals_u)
        ue = np.asarray(exact_u(xq.reshape(-1, mesh.dim))).reshape(uh.shape)
        out["err_u"] = float(np.sqrt(np.einsum("bq,bqc->", wdet, (uh - ue) ** 2)))
    if exact_p is not None:
        P = cells[:, lay.cell_field_slice("p")]
        ph = np.einsum("bn,qn->bq", P, ctx.vals_p)
        if shift_p_mean:
            vol = wdet.sum()
            ph = ph - np.einsum("bq,bq->", wdet, ph) / vol
        pe = np.asarray(exact_p(xq.reshape(-1, mesh.dim))).reshape(ph.shape)
        out["err_p"] = float(np.sqrt(np.einsum("bq,bq->", wdet, (ph - pe) ** 2)))
    return out
