"""Dense complex matrix core: norms, (conditional) positivity tests, Hadamard calculus.

Everything downstream works with plain numpy arrays of dtype complex128.
Matrices are validated once at the boundary (square, finite) and treated as
immutable values afterwards; all functions here are pure.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


class InputError(ValueError):
    """Invalid input data or violated precondition."""


class RangeError(InputError):
    """A computed entry left the representable floating-point range."""


class ResolutionError(InputError):
    """Grid resolution too coarse for the requested computation."""

    def __init__(self, message: str, min_samples: int | None = None):
        super().__init__(message)
        self.min_samples = min_samples


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a square complex128 array."""
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim != 2:
        raise InputError(f"{name}: expected a square matrix, got shape {A.shape}")
    return as_cmatrices(A, name)


def as_cmatrices(a, name: str | Callable[[int], str] = "matrix") -> np.ndarray:
    """Validate and convert a square matrix or a stack (..., k, k) of them to complex128.

    name may be a callable taking the flat index of the first bad matrix; it
    is called only to build the error message, for names costly to format.
    """
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InputError(f"{_name(name, 0)}: expected a square matrix, got shape {A.shape[-2:]}")
    finite = np.isfinite(A).all(axis=(-2, -1))
    if not finite.all():
        raise InputError(f"{_name(name, int(np.argmin(finite)))}: entries must be finite (no NaN/Inf)")
    return A


def _name(name: str | Callable[[int], str], index: int) -> str:
    return name(index) if callable(name) else name


def op_norm(A: np.ndarray) -> float:
    """Operator (spectral) norm: largest singular value."""
    return float(np.linalg.norm(A, 2))


def op_norms(A: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices, shape (..., m, k) -> (...)."""
    return np.linalg.norm(A, 2, axis=(-2, -1))


def min_eigenvalues(A: np.ndarray) -> np.ndarray:
    """psd_check's min_eigenvalue of each matrix in a stack (..., m, m), in one call."""
    return np.linalg.eigh((A + A.conj().swapaxes(-1, -2)) / 2)[0][..., 0]


def default_tol(A: np.ndarray) -> float:
    """Scale-aware eigenvalue tolerance: 1e-9 * max(1, ||A||_op)."""
    return 1e-9 * max(1.0, op_norm(A))


class NormKind(enum.Enum):
    OP = "op"
    HS = "hs"
    TRACE = "trace"
    MAX = "max"
    ENTRY_SUM = "entry_sum"


def matrix_norm(A, kind: NormKind | str) -> float:
    """One of the norm family: op, hs (Frobenius), trace (nuclear), max, entry_sum."""
    A = as_cmatrix(A)
    try:
        kind = NormKind(kind)
    except ValueError as exc:
        raise InputError(f"unknown norm kind {kind!r}") from exc
    if kind is NormKind.OP:
        return op_norm(A)
    if kind is NormKind.HS:
        return float(np.linalg.norm(A, "fro"))
    if kind is NormKind.TRACE:
        return float(np.linalg.svd(A, compute_uv=False).sum())
    if kind is NormKind.MAX:
        return float(np.abs(A).max())
    return float(np.abs(A).sum())


# ---------------------------------------------------------------------------
# Positivity verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positivity test.

    verdict is True iff min_eigenvalue >= -tol and hermiticity_defect <= tol;
    witness is a unit vector achieving the minimal Rayleigh quotient of the
    Hermitian part.
    """

    verdict: bool
    min_eigenvalue: float
    hermiticity_defect: float
    witness: np.ndarray
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "min_eig": float(self.min_eigenvalue),
            "defect": float(self.hermiticity_defect),
            "witness": [[float(z.real), float(z.imag)] for z in np.asarray(self.witness).ravel()],
            "tol": float(self.tol),
        }


def psd_check(A, tol: float | None = None) -> PsdVerdict:
    """Test positive semidefiniteness of a complex square matrix.

    The quadratic form only sees the Hermitian part, so the test is: the
    hermiticity defect ||(A - A*)/2||_op is within tol and the minimal
    eigenvalue of (A + A*)/2 is >= -tol.
    """
    A = as_cmatrix(A)
    if tol is None:
        tol = default_tol(A)
    if tol <= 0:
        raise InputError("tol must be positive")
    H = (A + A.conj().T) / 2
    defect = op_norm((A - A.conj().T) / 2)
    w, V = np.linalg.eigh(H)
    min_eig = float(w[0])
    witness = V[:, 0]
    return PsdVerdict(
        verdict=(min_eig >= -tol) and (defect <= tol),
        min_eigenvalue=min_eig,
        hermiticity_defect=defect,
        witness=witness,
        tol=tol,
    )


def difference_basis(m: int) -> np.ndarray:
    """m x (m-1) matrix whose columns (e_j - e_{j+1})/sqrt(2) span the sum-zero subspace."""
    B = np.zeros((m, m - 1), dtype=np.complex128)
    for j in range(m - 1):
        B[j, j] = 1.0 / np.sqrt(2.0)
        B[j + 1, j] = -1.0 / np.sqrt(2.0)
    return B


def cpsd_check(A, tol: float | None = None) -> PsdVerdict:
    """Test conditional positive semidefiniteness on the sum-zero subspace.

    Requires A Hermitian within tol (precondition). The quadratic form is
    restricted via the fixed difference basis B; the verdict is psd_check of
    B* A B. A failing witness is mapped back to a unit m-vector with zero
    coordinate sum.
    """
    A = as_cmatrix(A)
    if tol is None:
        tol = default_tol(A)
    defect = op_norm((A - A.conj().T) / 2)
    if defect > tol:
        raise InputError(
            f"cpsd_check requires a Hermitian matrix: defect {defect:.3e} > tol {tol:.3e}"
        )
    m = A.shape[0]
    if m == 1:
        # Sum-zero subspace is trivial; vacuously conditionally PSD.
        return PsdVerdict(True, 0.0, defect, np.ones(1, dtype=np.complex128), tol)
    B = difference_basis(m)
    H = (A + A.conj().T) / 2
    R = B.conj().T @ H @ B
    w, V = np.linalg.eigh((R + R.conj().T) / 2)
    min_eig = float(w[0])
    c = B @ V[:, 0]
    c = c / np.linalg.norm(c)
    return PsdVerdict(
        verdict=min_eig >= -tol,
        min_eigenvalue=min_eig,
        hermiticity_defect=defect,
        witness=c,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Hadamard calculus
# ---------------------------------------------------------------------------


def hadamard_product(A, B) -> np.ndarray:
    """Entrywise product A o B."""
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    if A.shape != B.shape:
        raise InputError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A * B

def hadamard_exp(A, t: float = 1.0) -> np.ndarray:
    """Entrywise exponential exp(t * A_jk) of a matrix or a stack (..., m, m)."""
    A = as_cmatrices(A)  # also for checked values: exp(-inf) would pass as a finite 0
    if not np.isfinite(t):
        raise InputError("t must be finite")
    with np.errstate(over="ignore"):
        E = np.exp(t * A)
    bad = ~np.isfinite(E)
    if bad.any():
        entry = ",".join(str(i) for i in np.argwhere(bad)[0])
        raise RangeError(f"entrywise exponential overflow at entry ({entry})")
    return E


# ---------------------------------------------------------------------------
# Hermitian/skew split with spectral positive and negative parts
# ---------------------------------------------------------------------------


class HermitianParts(NamedTuple):
    re: np.ndarray
    im: np.ndarray
    re_pos: np.ndarray
    re_neg: np.ndarray
    im_pos: np.ndarray
    im_neg: np.ndarray


def _spectral_parts(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh(H)
    pos = (V * np.maximum(w, 0.0)) @ V.conj().T
    neg = (V * np.maximum(-w, 0.0)) @ V.conj().T
    return pos, neg


def hermitian_split(A) -> HermitianParts:
    """Split A = Re + i*Im with Hermitian Re, Im, plus spectral positive/negative parts.

    Re = (A + A*)/2, Im = (A - A*)/(2i); each part satisfies
    ||Re_pm||_op <= ||A||_op (and likewise for Im_pm).
    """
    A = as_cmatrix(A)
    re = (A + A.conj().T) / 2
    im = (A - A.conj().T) / 2j
    re_pos, re_neg = _spectral_parts(re)
    im_pos, im_neg = _spectral_parts(im)
    return HermitianParts(re, im, re_pos, re_neg, im_pos, im_neg)


# ---------------------------------------------------------------------------
# Structured reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Aggregated outcome of a multi-part check.

    checks is a list of JSON-ready dicts, each with at least "name" and
    "passed"; meta records parameters (seed, tolerance, grid) so that every
    verdict is reproducible.
    """

    kind: str
    passed: bool = True
    checks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, **data) -> None:
        entry = {"name": name, "passed": bool(passed)}
        entry.update(data)
        self.checks.append(entry)
        self.passed = self.passed and bool(passed)

    def check(self, name: str) -> dict:
        for entry in self.checks:
            if entry["name"] == name:
                return entry
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return jsonable(
            {"kind": self.kind, "passed": self.passed, "checks": self.checks, "meta": self.meta}
        )


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex numbers to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, PsdVerdict):
        return obj.to_json_dict()
    if isinstance(obj, Report):
        return obj.to_json_dict()
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# Contraction factorization of a PSD 2x2 block matrix
# ---------------------------------------------------------------------------


def _pinv_sqrt(M: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root and square root of a PSD matrix.

    Eigenvalues below tol * max_eig are treated as zero (restriction to the
    range).
    """
    H = (M + M.conj().T) / 2
    w, V = np.linalg.eigh(H)
    w = np.maximum(w, 0.0)
    cut = tol * max(w.max(initial=0.0), 1e-300)
    inv_sqrt = np.where(w > cut, 1.0 / np.sqrt(np.where(w > cut, w, 1.0)), 0.0)
    sqrt = np.sqrt(w)
    return (V * inv_sqrt) @ V.conj().T, (V * sqrt) @ V.conj().T


def contraction_factor_check(M1, X, M2, tol: float | None = None) -> Report:
    """Factor X through PSD corners: X = M1^{1/2} C M2^{1/2} with a contraction C.

    Computes C restricted to the ranges of M1, M2 via pseudo-inverse square
    roots and reports ||C||_op together with the PSD verdict for the block
    matrix [[M1, X], [X*, M2]]. When the block is PSD, ||C||_op <= 1 + tol and
    the factorization reconstructs X within tol must both hold.
    """
    M1 = as_cmatrix(M1, "M1")
    M2 = as_cmatrix(M2, "M2")
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (M1.shape[0], M2.shape[0]):
        raise InputError(f"X must be {M1.shape[0]}x{M2.shape[0]}, got {X.shape}")
    if tol is None:
        tol = max(default_tol(M1), default_tol(M2), default_tol(X))
    for name, M in (("M1", M1), ("M2", M2)):
        v = psd_check(M, tol)
        if not v.verdict:
            raise InputError(f"{name} must be PSD: min eig {v.min_eigenvalue:.3e}")

    inv1, sqrt1 = _pinv_sqrt(M1, tol)
    inv2, sqrt2 = _pinv_sqrt(M2, tol)
    C = inv1 @ X @ inv2
    c_norm = op_norm(C)
    recon_err = op_norm(sqrt1 @ C @ sqrt2 - X)

    m1, m2 = M1.shape[0], M2.shape[0]
    block = np.zeros((m1 + m2, m1 + m2), dtype=np.complex128)
    block[:m1, :m1] = M1
    block[:m1, m1:] = X
    block[m1:, :m1] = X.conj().T
    block[m1:, m1:] = M2
    block_verdict = psd_check(block, tol)

    rep = Report(kind="contraction_factor_check", meta={"tol": tol})
    rep.add("block_psd", True, verdict=block_verdict.verdict, min_eig=block_verdict.min_eigenvalue)
    rep.add("contraction_norm", (not block_verdict.verdict) or c_norm <= 1 + tol, value=c_norm)
    rep.add(
        "reconstruction",
        (not block_verdict.verdict) or recon_err <= max(tol, tol * op_norm(X)),
        value=recon_err,
    )
    return rep


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def matrix_to_json_dict(A) -> dict:
    A = as_cmatrix(A)
    return {
        "m": A.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    try:
        m = int(obj["m"])
        entries = obj["entries"]
        A = np.array(
            [[complex(pair[0], pair[1]) for pair in row] for row in entries],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    if A.shape != (m, m):
        raise InputError(f"matrix JSON: declared m={m} but entries have shape {A.shape}")
    return as_cmatrix(A)


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return matrix_from_json_dict(obj)
