"""Numerics for fractional Gaussian perimeters and their small-s limits."""

from .asymptotics import (DivergentExample, LimitValue, SweepResult,
                          check_subadditivity, divergent_example, mu_limit,
                          sweep)
from .errors import (DimensionMismatchError, GfpError, OverlapError,
                     RestrictionMassError, SingularInputError, ToleranceError)
from .interaction import (InteractionEstimate, PerimeterBreakdown, interaction,
                          j_lambda, perimeter, seminorm_sq_direct)
from .measure import (MeasureEstimate, abs_gamma_neg, gamma_fn, gauss_measure,
                      sample_gaussian)
from .mehler import (KernelValue, kernel_K, kernel_lower_bound,
                     kernel_upper_bound, semigroup_mass)
from .sets import (Ball, Box, Complement, Difference, Empty, FullSpace,
                   HalfSpace, Intersection, IntervalUnion, SetExpr, Union,
                   set_from_json, set_to_json)
from .spectral import (HermiteExpansion, apply_frac_ou, expand, ms_limit,
                       spectral_seminorm_sq)

__version__ = "0.1.0"
