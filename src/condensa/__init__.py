"""condensa: hybridized Darcy/Stokes discretizations, static condensation,
and parameter-robust preconditioners for the reduced trace systems."""

from .assembly import (BlockSystem, ProblemParams, assemble_aux_hdg,
                       assemble_counterexample_inner, assemble_darcy,
                       assemble_darcy_inner, assemble_stokes,
                       assemble_stokes_inner, aux_spaces, darcy_spaces,
                       stokes_spaces)
from .bench import ResultRow, RunConfig, emit, run
from .condense import CondensedSystem, back_substitute, condense, condense_precond
from .elements import PolynomialBasis, QuadratureRule, pk_basis, simplex_quadrature
from .krylov import KrylovReport, cg, factor_spd, generalized_eigs, minres
from .manufactured import ManufacturedCase, manufactured_rhs
from .mesh import Mesh, unit_box_mesh, write_mesh_text
from .norms import l2_errors
from .precond import PrecondOperator, PreconditionerSpec, build_full, build_reduced
from .spaces import BlockLayout, FunctionSpace, build_space, interpolate_boundary
from .spectra import (SpectralReport, lemma_probes, lifting_constant,
                      measure_constants, reduced_bounds_check)

__version__ = "0.1.0"
