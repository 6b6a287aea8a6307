"""Workload definitions: what each workload runs, drawn from its seed.

A workload is a list of steps.  A step is either a sweep (one
``RunConfig`` handed to ``bench.run``; each of its rows is one
operation), a spectral bounds check (one ``reduced_bounds_check`` call;
one operation) or a probe set (one ``lemma_probes`` call; each probe is
one operation).  The seed only draws the model parameters, log-uniformly
from the ranges the acceptance suite sweeps; meshes, levels and the
degree k = 2 are fixed per workload.  The counterexample rows keep the
parameters of acceptance criterion 4 (xi = gamma = 1): its claim, that the
reduced form needs more iterations than the full one, does not hold over
the whole range (at gamma / xi near 1e4 both take 37 at n = 32).
``toy=True`` gives the same steps at the smallest levels, used as the
warm-up and by the self-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

XI_RANGE = (1e-6, 1.0)
GAMMA_RANGE = (1e-4, 1e4)
NU_RANGE = (1e-6, 1.0)
K = 2

WORKLOADS = ("sweep2d", "darcy3d", "spectra2d")


@dataclass(frozen=True)
class Sweep:
    """Rows of ``bench.run(config)``; ``config`` is a ``RunConfig``."""

    config: object


@dataclass(frozen=True)
class Bounds:
    """One ``reduced_bounds_check`` of the ``problem`` scheme against its
    robust inner product on ``unit_box_mesh(dim, n)``."""

    problem: str
    dim: int
    n: int
    params: object


@dataclass(frozen=True)
class Probes:
    """``lemma_probes(problem, dim, (n,), params)``: every probe of the set."""

    problem: str
    dim: int
    n: int
    params: object


def _log_uniform(rng, lo, hi) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def build(name: str, seed: int, toy: bool = False) -> list:
    """The steps of workload ``name`` for ``seed``."""
    from condensa.assembly import ProblemParams
    from condensa.bench import RunConfig

    rng = np.random.default_rng(seed)

    def xi():
        return _log_uniform(rng, *XI_RANGE)

    def gamma():
        return _log_uniform(rng, *GAMMA_RANGE)

    def nu():
        return _log_uniform(rng, *NU_RANGE)

    if name == "sweep2d":
        darcy_n, counter_n, stokes_n = (4, 4, 4) if toy else (64, 32, 32)
        return [
            Sweep(RunConfig("darcy-manufactured", dim=2, levels=(darcy_n,), k=K,
                            xi=(xi(),), gamma=(gamma(), gamma()))),
            Sweep(RunConfig("darcy-counterexample", dim=2, levels=(counter_n,), k=K)),
            Sweep(RunConfig("stokes-manufactured", dim=2, levels=(stokes_n,), k=K,
                            nu=(nu(),))),
        ]
    if name == "darcy3d":
        levels = (2,) if toy else (4, 8)
        return [Sweep(RunConfig("darcy-manufactured", dim=3, levels=levels, k=K,
                                xi=(xi(),), gamma=(gamma(),)))]
    if name == "spectra2d":
        darcy_n, stokes_n, probe_n = (2, 2, 2) if toy else (8, 6, 8)
        darcy = ProblemParams(k=K, xi=xi(), gamma=gamma())
        stokes = ProblemParams(k=K, nu=nu())
        return [
            Bounds("darcy", 2, darcy_n, darcy),
            Bounds("stokes", 2, stokes_n, stokes),
            Probes("darcy", 2, probe_n, darcy),
            Probes("stokes", 2, probe_n, stokes),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def describe(step) -> dict:
    """JSON-ready description of a step (its drawn parameters included)."""
    if isinstance(step, Sweep):
        c = step.config
        return {"kind": "sweep", "experiment": c.experiment, "dim": c.dim,
                "levels": list(c.levels), "xi": list(c.xi), "gamma": list(c.gamma),
                "nu": list(c.nu)}
    p = step.params
    return {"kind": type(step).__name__.lower(), "problem": step.problem,
            "dim": step.dim, "n": step.n, "xi": p.xi, "gamma": p.gamma, "nu": p.nu}
