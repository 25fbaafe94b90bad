"""rotspec: certified finite-matrix approximation of rotation-algebra spectra.

The pipeline: expand theta into continued-fraction convergents p/q,
realize the operator at each convergent by q x q clock-and-shift
matrices, compute spectra or sigma_min grids, and attach explicit error
radii so every output is a certificate rather than a heuristic picture.
"""

from .contfrac import (
    ContinuedFractionExpansion,
    GapBound,
    Theta,
    convergent_gap,
    expand,
    fibonacci,
    parse_theta,
    round_nearest,
    tail_constant_enclosure,
)
from .errors import (
    CertificateViolation,
    ConvergenceFailure,
    EmptyCloud,
    EmptySpec,
    IndexOutOfRange,
    InvalidInput,
    InvalidOrder,
    ModelsNotNormal,
    NonCanonicalSpec,
    NotHermitian,
    PrecisionExhausted,
    ResourceBudgetExceeded,
    RotspecError,
    ThetaRational,
)
from .matmodel import (
    MatrixModel,
    OperatorSpec,
    build_operator,
    spec_norm_bound,
)
from .spectral import (
    circulant_four_term_eigenvalues,
    hermitian_eigenvalues,
    normal_eigenvalues,
)
from .pseudospectra import (
    PseudospectrumGrid,
    SandwichReport,
    cloud_to_csv,
    compute_grid,
    grid_to_csv,
    grid_to_pgm,
    level_set,
    sandwich_check,
)
from .approx import (
    ApproximationCertificate,
    ConvergenceTable,
    OneSidedCertificate,
    PseudospectrumSandwich,
    certify_normal,
    certify_pseudospectrum,
    clean_bound,
    constant_audit,
    convergence_study,
    hausdorff_distance,
    one_sided,
    one_sided_contains,
    sharp_bound,
)

__version__ = "0.1.0"
