"""Critical coupling constants of exterior elliptic problems.

The threshold beta_cr separating trivial from nontrivial negative spectrum of
-div(a grad u) - beta V on an exterior domain is computed two independent
ways: through the principal eigenvalue of the sandwiched resolvent
sqrt(V) (H0 - lambda)^{-1} sqrt(V) as lambda -> 0-, and through direct
eigenvalue counting on truncated domains with exact decay closures.  The
package also covers the nonlocal constant-trace/zero-flux boundary condition
and the near-boundary shrinking-well scaling studies.
"""

from .errors import (IndeterminateError, KernelLimitError, MethodDisagreement,
                     NearSingularError, UnconvergedError, ValidationError)
from .model import (CenterPath, CoefficientProfile, Potential, ProblemSpec,
                    Profile, ScaledPotentialFamily, h_factor, validate)
from .green_kernels import green_kernel
from .birman_schwinger import (Classification, KernelMatrix, SectorKernel,
                               SpectralReport, assemble, assemble_points, beta_critical,
                               classify_limit, default_lambda_grid, mu_curve,
                               norm_limit, principal_eigenvalue)
from .direct_spectrum import (beta_critical_direct, count_negative,
                              crosscheck_birman_schwinger, eigenfunction,
                              eigenvalue_residual, ground_state)
from .fkw import (FkwSolution, beta_critical_fkw, fkw_norm_limit, gamma1,
                  solve_fkw, solve_v)
from .experiments import (ScalingStudy, clr_audit, dichotomy_suite,
                          halfspace_norm_study, minorant_eigenvalue,
                          scaling_study_1d)

__version__ = "0.1.0"

__all__ = [
    "CenterPath", "Classification", "CoefficientProfile", "FkwSolution",
    "IndeterminateError", "KernelLimitError", "KernelMatrix",
    "MethodDisagreement", "NearSingularError", "Potential", "ProblemSpec",
    "Profile", "ScaledPotentialFamily", "ScalingStudy", "SectorKernel", "SpectralReport",
    "UnconvergedError", "ValidationError", "assemble", "assemble_points",
    "beta_critical", "beta_critical_direct", "beta_critical_fkw",
    "classify_limit", "clr_audit",
    "count_negative", "crosscheck_birman_schwinger", "default_lambda_grid",
    "dichotomy_suite", "eigenfunction", "eigenvalue_residual", "fkw_norm_limit",
    "gamma1", "green_kernel", "ground_state", "h_factor", "halfspace_norm_study",
    "minorant_eigenvalue", "mu_curve", "norm_limit", "principal_eigenvalue",
    "scaling_study_1d", "solve_fkw", "solve_v", "validate",
]
