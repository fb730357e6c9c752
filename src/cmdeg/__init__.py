"""cmdeg: completely monotonic degree evidence for gamma-function
asymptotic remainders.

The package evaluates the remainder family

    phi_{n,m}(t) = (-1)^m d^m/dt^m R_n(t)

(R_n the signed Stirling-series remainder after n Bernoulli terms) at
controlled precision, implements the Laplace kernel whose transform
reconstructs the trigamma remainder Q, and gathers numerical evidence
bracketing completely monotonic degrees.
"""

from .bernoulli import bernoulli, bernoulli_table
from .degree import (
    CmCheckReport,
    ConjectureCell,
    ConjectureScanReport,
    DegreeBracket,
    Grid,
    classify_sign,
    cm_check,
    conjecture_scan,
    conjectured_degree,
    default_grid,
    degree_bracket,
    established_degree,
    signed_derivative,
)
from .errors import (
    CmdegError,
    InvalidIndex,
    InvalidSpec,
    NonPositiveArgument,
    PrecisionUnreachable,
    QuadratureNotConverged,
)
from .kernel import (
    KERNEL_SERIES_CROSSOVER,
    PositivityScanReport,
    h4_positivity_scan,
    h4_series_coefficient,
    kernel_h,
    laplace_reconstruct,
)
from .polygamma import log_gamma, polygamma, polygamma_block
from .precision import PrecisionPolicy, as_mpf
from .remainders import (
    PHI_M_MAX,
    PHI_N_MAX,
    SPECIAL_NAMES,
    ElementaryForm,
    RemainderSpec,
    differentiate,
    form_for,
    phi_derivatives,
    pole_order,
    q_value,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # precision
    "PrecisionPolicy",
    "as_mpf",
    # errors
    "CmdegError",
    "NonPositiveArgument",
    "PrecisionUnreachable",
    "InvalidSpec",
    "InvalidIndex",
    "QuadratureNotConverged",
    # exact integers
    "bernoulli",
    "bernoulli_table",
    # special functions
    "polygamma",
    "polygamma_block",
    "log_gamma",
    # remainder family
    "PHI_N_MAX",
    "PHI_M_MAX",
    "SPECIAL_NAMES",
    "RemainderSpec",
    "ElementaryForm",
    "differentiate",
    "form_for",
    "phi_derivatives",
    "q_value",
    "pole_order",
    # Laplace kernel
    "KERNEL_SERIES_CROSSOVER",
    "kernel_h",
    "h4_series_coefficient",
    "PositivityScanReport",
    "h4_positivity_scan",
    "laplace_reconstruct",
    # degree evidence
    "Grid",
    "default_grid",
    "signed_derivative",
    "classify_sign",
    "CmCheckReport",
    "cm_check",
    "DegreeBracket",
    "degree_bracket",
    "conjectured_degree",
    "established_degree",
    "ConjectureCell",
    "ConjectureScanReport",
    "conjecture_scan",
]
