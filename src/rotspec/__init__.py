"""rotspec: certified finite-matrix approximation of rotation-algebra spectra.

The pipeline: expand theta into continued-fraction convergents p/q,
realize the operator at each convergent by q x q clock-and-shift
matrices, compute spectra or sigma_min grids, and attach explicit error
radii so every output is a certificate rather than a heuristic picture.

Importing the package loads no numpy. `contfrac` and `errors` load
with it; the numeric modules `matmodel`, `spectral`, `pseudospectra` and
`approx` are in sys.modules from the start but run at the first read of
one of their attributes, such as `rotspec.certify_normal` (a star import
reads them all, so it loads numpy). So numpy loads at the first command
that computes, and the CLI's `expand`, `--help` and usage errors found
before a spec is read never load it.
"""

import importlib.util as _util
import sys as _sys

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

# the names re-exported from each lazily loaded module
_LAZY = {
    "matmodel": ("MatrixModel", "OperatorSpec", "build_operator", "spec_norm_bound"),
    "spectral": ("circulant_four_term_eigenvalues", "hermitian_eigenvalues",
                 "normal_eigenvalues"),
    "pseudospectra": ("PseudospectrumGrid", "SandwichReport", "cloud_to_csv", "compute_grid",
                      "grid_to_csv", "grid_to_pgm", "level_set", "sandwich_check"),
    "approx": ("ApproximationCertificate", "ConvergenceTable", "OneSidedCertificate",
               "PseudospectrumSandwich", "certify_normal", "certify_pseudospectrum",
               "clean_bound", "constant_audit", "convergence_study", "hausdorff_distance",
               "one_sided", "one_sided_contains", "sharp_bound"),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}
# the eager imports above and the lazy names; a star import reads them all
__all__ = [name for name, value in globals().items()
           if name[0] != "_" and not isinstance(value, type(_sys))] + [*_SOURCE]

for _module in _LAZY:
    _spec = _util.find_spec(f"{__name__}.{_module}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    globals()[_module] = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name):
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SOURCE})


__version__ = "0.1.0"
