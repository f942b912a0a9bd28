"""Matrix-valued positive semidefiniteness toolkit.

Numerical verification of the Schoenberg-type equivalence between conditional
positivity of matrix-valued functions and positivity of their entrywise
exponentials, atomic matrix-valued measures with their convolution operators,
and discretized Fourier multipliers with positivity probes, norm bounds, and
counterexample experiments.
"""

import os


def _cap_threads() -> None:
    """MPSD_THREADS caps internal parallelism (BLAS/FFT worker pools).

    The pools read these variables once, when numpy is first imported, so this
    runs before any submodule loads numpy. Explicitly set variables win.
    """
    cap = os.environ.get("MPSD_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_cap_threads()

# The submodules import numpy, so they are imported only after the cap.
from .matcore import (
    InputError,
    NormKind,
    PsdVerdict,
    RangeError,
    Report,
    ResolutionError,
    cpsd_check,
    hadamard_exp,
    hadamard_product,
    hermitian_split,
    matrix_norm,
    psd_check,
)
from .psdfun import (
    MatrixFunction,
    PointSet,
    cpsd_function_check,
    gram,
    hadamard_exp_function,
    make_function,
    psd_function_check,
    schoenberg_equivalence_report,
    schoenberg_gram,
    weak_cpsd_check,
)
from .measures import (
    MatrixMeasure,
    convolve,
    duality_pairing,
    entrywise_variation,
    gaussian_measure,
    make_measure,
    matrix_measure,
    variation,
)
from .grid import GridField, GridSpec, dft, idft
from .oplab import (
    MultiplierSymbol,
    apply_multiplier,
    l1_norm_bounds_check,
    l2_multiplier_norm,
    l2_triple_norm_bounds_check,
    positivity_probe,
    right_mult_norm,
    symbol_from_function,
    symbol_from_measure,
)

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "NormKind",
    "PsdVerdict",
    "RangeError",
    "Report",
    "ResolutionError",
    "cpsd_check",
    "hadamard_exp",
    "hadamard_product",
    "hermitian_split",
    "matrix_norm",
    "psd_check",
    "MatrixFunction",
    "PointSet",
    "cpsd_function_check",
    "gram",
    "hadamard_exp_function",
    "make_function",
    "psd_function_check",
    "schoenberg_equivalence_report",
    "schoenberg_gram",
    "weak_cpsd_check",
    "MatrixMeasure",
    "convolve",
    "duality_pairing",
    "entrywise_variation",
    "gaussian_measure",
    "make_measure",
    "matrix_measure",
    "variation",
    "GridField",
    "GridSpec",
    "dft",
    "idft",
    "MultiplierSymbol",
    "apply_multiplier",
    "l1_norm_bounds_check",
    "l2_multiplier_norm",
    "l2_triple_norm_bounds_check",
    "positivity_probe",
    "right_mult_norm",
    "symbol_from_function",
    "symbol_from_measure",
    "__version__",
]
