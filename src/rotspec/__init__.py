"""rotspec: certified finite-matrix approximation of rotation-algebra spectra.

The pipeline: expand theta into continued-fraction convergents p/q,
realize the operator at each convergent by q x q clock-and-shift
matrices, compute spectra or sigma_min grids, and attach explicit error
radii so every output is a certificate rather than a heuristic picture.
"""

from .contfrac import (
    BigRational,
    ContinuedFractionExpansion,
    DecimalString,
    GapBound,
    QuadraticSurd,
    RealNumberInput,
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
    NotNormal,
    PrecisionExhausted,
    ResourceBudgetExceeded,
    RotspecError,
    ThetaRational,
)
from .matmodel import (
    MatrixModel,
    OperatorSpec,
    build_operator,
    clock_matrix,
    commutation_defect,
    shift_matrix,
    spec_norm_bound,
    unitarity_defect,
)
from .spectral import (
    circulant_four_term_eigenvalues,
    hermitian_eigenvalues,
    is_normal,
    normal_eigenvalues,
    operator_norm,
    smallest_singular_value,
)
from .pseudospectra import (
    GridParams,
    PointCloud,
    PseudospectrumGrid,
    SandwichReport,
    cloud_to_csv,
    compute_grid,
    grid_to_csv,
    grid_to_pgm,
    level_set,
    sandwich_check,
    union_spectrum,
)
from .approx import (
    ApproximationCertificate,
    ConstantAudit,
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
