"""Numerical radii, operator norms and numerical-index estimates on
finite-dimensional Banach spaces built from nested p-sums."""

__version__ = "0.1.0"

from .spaces import (COMPLEX, REAL, NormingPair, SpaceDescriptor,
                     descriptor_to_text, dual_descriptor, dual_norm,
                     eval_pair, lp, norm, norming_functional,
                     parse_descriptor, psum, scalar, summand, tower,
                     unit_sphere_sample)
from .operators import (Operator, adjoint, apply, compose_with_projection,
                        identity, op_norm, rank_one)
from .radius import (RadiusEstimate, absolute_radius, numerical_radius,
                     poly_radius, radius_enumerate, radius_grid_oracle)
from .index import (BoundsInterval, IndexEstimate, MpResult,
                    absolute_index_estimate, mp_constant,
                    numerical_index_estimate, poly_index_estimate,
                    rank_r_index_estimate, theoretical_bounds)
from .suites import (SuiteReport, bounds_check, duality_check, gcc_check,
                     lcc_check, monotone_sweep, sum_index_check)
