"""Finite atomic C^{m x m}-valued measures: transforms, variation norms,
convolution operators, duality pairing, and gridded Gaussian discretizations.

Only atomic measures are represented. A gridded density is discretized to
atoms at cell centers (density value times cell volume), so variation norms
are exact sums over atoms. Matrix integration uses right multiplication:
(integral f dmu)_{j,k} = sum_l integral f_{j,l} dmu_{l,k}; this ordering is
load-bearing for the noncommutative counterexamples and must not be changed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .matcore import (
    InputError,
    PsdVerdict,
    Report,
    as_cmatrix,
    default_tol,
    matrix_from_json_dict,
    matrix_to_json_dict,
    op_norm,
    op_norms,
    psd_check,
)
from .grid import GridField
from . import psdfun

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MatrixMeasure:
    """Finite sum of matrix-weighted Dirac atoms on R^n."""

    n: int
    m: int
    locations: np.ndarray  # (J, n) float, pairwise distinct rows
    weights: np.ndarray  # (J, m, m) complex
    provenance: str | None = None

    @property
    def atom_count(self) -> int:
        return self.locations.shape[0]

    def fourier(self, x) -> np.ndarray:
        """Transform (2*pi)^{-n/2} * sum_j exp(-i x.xi_j) W_j at one point or a batch.

        Accepts shape (n,) or (P, n); returns (m, m) or (P, m, m).
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.n:
            raise InputError(f"points must have {self.n} coordinates, got shape {x.shape}")
        phases = np.exp(-1j * pts @ self.locations.T)  # (P, J)
        flat = self.weights.reshape(self.atom_count, self.m * self.m)
        out = (phases @ flat).reshape(len(pts), self.m, self.m)
        out = out * (_TWO_PI) ** (-self.n / 2)
        return out[0] if single else out

    def is_nonnegative(self, tol: float | None = None) -> PsdVerdict:
        """Nonnegativity mu(E) >= 0 for all Borel E; for atoms, per-atom PSD.

        Returns the verdict of the worst atom.
        """
        worst = None
        for W in self.weights:
            v = psd_check(W, tol)
            if not v.verdict:
                return v
            if worst is None or v.min_eigenvalue < worst.min_eigenvalue:
                worst = v
        assert worst is not None
        return worst

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "atoms": [
                {"xi": xi.tolist(), "W": matrix_to_json_dict(W)}
                for xi, W in zip(self.locations, self.weights)
            ],
        }


def matrix_measure(n: int, m: int, atoms, provenance: str | None = None) -> MatrixMeasure:
    """Build a measure from (location, weight) pairs, merging duplicate locations."""
    locs, ws = [], []
    for xi, W in atoms:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (n,):
            raise InputError(f"atom location must have {n} coordinates, got {xi.shape}")
        if not np.isfinite(xi).all():
            raise InputError("atom locations must be finite")
        W = as_cmatrix(W, "atom weight")
        if W.shape[0] != m:
            raise InputError(f"atom weight must be {m}x{m}")
        locs.append(xi)
        ws.append(W)
    if not locs:
        raise InputError("a measure needs at least one atom")
    locations = np.asarray(locs)
    weights = np.asarray(ws)
    uniq, inverse = np.unique(locations, axis=0, return_inverse=True)
    if uniq.shape[0] != locations.shape[0]:
        merged = np.zeros((uniq.shape[0], m, m), dtype=np.complex128)
        np.add.at(merged, inverse, weights)
        locations, weights = uniq, merged
    return MatrixMeasure(n=n, m=m, locations=locations, weights=weights, provenance=provenance)


def measure_from_json_dict(obj: dict) -> MatrixMeasure:
    try:
        n, m = int(obj["n"]), int(obj["m"])
        atoms = [(a["xi"], matrix_from_json_dict(a["W"])) for a in obj["atoms"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed measure JSON: {exc}") from exc
    return matrix_measure(n, m, atoms)


def load_measure(path: str) -> MatrixMeasure:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return measure_from_json_dict(obj)


# ---------------------------------------------------------------------------
# Variation norms
# ---------------------------------------------------------------------------


def variation(mu: MatrixMeasure) -> float:
    """Total variation |mu|(R^n) = sum of operator norms of the atom weights."""
    return float(sum(op_norm(W) for W in mu.weights))


def entrywise_variation(mu: MatrixMeasure) -> float:
    """N(mu) = max over entries (j,k) of the scalar total variation of mu_{j,k}."""
    return float(np.abs(mu.weights).sum(axis=0).max())


# ---------------------------------------------------------------------------
# Convolution operator and duality pairing
# ---------------------------------------------------------------------------


def convolve(mu: MatrixMeasure, f: GridField) -> GridField:
    """(T_mu f)(x) = sum_j f(x - xi_j) W_j with nearest-grid-point evaluation.

    Atom shifts are snapped to whole cells after periodic wrap; atoms outside
    [-L/2, L/2)^n are wrapped and flagged in the result metadata.

    The sum is taken directly in x-space, never through the FFT, so it stays an
    independent check on the multiplier route.
    """
    if f.domain != "x":
        raise InputError("convolve expects a physical-domain field")
    spec = f.spec
    if mu.n != spec.n or mu.m != f.m:
        raise InputError(
            f"measure (n={mu.n}, m={mu.m}) incompatible with field (n={spec.n}, m={f.m})"
        )
    axes = tuple(range(spec.n))
    # C order, whatever the layout of f.values, so that rows is a view of out.
    out = np.zeros(f.values.shape, dtype=np.complex128)
    rows = out.reshape(-1, f.m)
    wrapped = 0
    for xi, W in zip(mu.locations, mu.weights):
        if np.any(np.abs(xi) > spec.L / 2):
            wrapped += 1
        cells = np.rint(xi / spec.h).astype(int)
        shifted = np.roll(f.values, shift=tuple(cells), axis=axes)
        # One (K^n m, m) @ (m, m) product. The (K,)*n + (m, m) @ (m, m) form
        # gives the same bits but runs K^n separate m x m products.
        rows += shifted.reshape(-1, f.m) @ W
    result = f.copy_with(out)
    if wrapped:
        result.meta["wrapped_atoms"] = wrapped
    return result


def duality_pairing(f: GridField, mu: MatrixMeasure) -> complex:
    """<f, mu> = tr(sum_j f(xi_j) W_j), f evaluated at the nearest grid point."""
    if mu.n != f.spec.n or mu.m != f.m:
        raise InputError("measure incompatible with field")
    total = 0.0 + 0.0j
    for xi, W in zip(mu.locations, mu.weights):
        total += np.trace(f.at(xi) @ W)
    return complex(total)


# ---------------------------------------------------------------------------
# Gaussian discretizations
# ---------------------------------------------------------------------------


def gaussian_measure(n: int, grid_extent: float, cells_per_axis: int, weight) -> MatrixMeasure:
    """Standard Gaussian density discretized to atoms at cell centers, times a weight matrix.

    Atom weight = (density at cell center) * (cell volume) * weight; the total
    mass converges to the unit Gaussian mass times the weight as the
    resolution grows.
    """
    weight = as_cmatrix(weight, "weight")
    if cells_per_axis < 8:
        raise InputError("cells_per_axis must be >= 8")
    if grid_extent <= 0:
        raise InputError("grid_extent must be positive")
    step = 2.0 * grid_extent / cells_per_axis
    centers_1d = -grid_extent + step * (np.arange(cells_per_axis) + 0.5)
    grids = np.meshgrid(*([centers_1d] * n), indexing="ij")
    centers = np.stack(grids, axis=-1).reshape(-1, n)
    dens = (_TWO_PI) ** (-n / 2) * np.exp(-0.5 * np.sum(centers**2, axis=1))
    masses = dens * step**n
    weights = masses[:, None, None] * weight
    return MatrixMeasure(
        n=n,
        m=weight.shape[0],
        locations=centers,
        weights=weights.astype(np.complex128),
        provenance=f"gaussian-grid(extent={grid_extent:g}, cells={cells_per_axis})",
    )


def gaussian_ball_mass(mu: MatrixMeasure, radius: float) -> np.ndarray:
    """mu(closed ball of given radius around 0) summed over atoms."""
    inside = np.linalg.norm(mu.locations, axis=1) <= radius
    return mu.weights[inside].sum(axis=0)


# ---------------------------------------------------------------------------
# Forward Bochner-type check
# ---------------------------------------------------------------------------


def bochner_function(mu: MatrixMeasure) -> psdfun.MatrixFunction:
    """The transform of mu as a catalog MatrixFunction."""
    return psdfun.make_function("bochner", mu=mu)


def bochner_forward_check(mu: MatrixMeasure, X: psdfun.PointSet, tol: float | None = None) -> Report:
    """For nonnegative mu: the transform is PSD, Hermitian-symmetric, and peaks at 0."""
    nonneg = mu.is_nonnegative(tol)
    if not nonneg.verdict:
        raise InputError(
            f"bochner_forward_check requires a nonnegative measure "
            f"(worst atom min eig {nonneg.min_eigenvalue:.3e})"
        )
    F = bochner_function(mu)
    if tol is None:
        tol = default_tol(F(np.zeros(mu.n))) * max(1, X.N)
    rep = Report(kind="bochner_forward_check", meta={"tol": tol, "N": X.N})

    v = psdfun.psd_function_check(F, X, tol)
    rep.add("gram_psd", v.verdict, min_eig=v.min_eigenvalue)

    minus, plus = F.values(np.concatenate([-X.points, X.points])).reshape(2, X.N, mu.m, mu.m)
    sym = float(op_norms(minus - plus.conj().swapaxes(-1, -2)).max())
    rep.add("symmetry", sym <= tol, defect=sym)

    bound = op_norm(F(np.zeros(mu.n)))
    worst = float(op_norms(plus).max())
    rep.add("bounded_by_value_at_zero", worst <= bound + tol, sup=worst, at_zero=bound)
    return rep


# ---------------------------------------------------------------------------
# Measure catalog
# ---------------------------------------------------------------------------


def appendix_a_measure(grid_extent: float = 8.0, cells_per_axis: int = 1024) -> MatrixMeasure:
    """Gridded standard Gaussian times diag(1, 2) (n = 1)."""
    mu = gaussian_measure(1, grid_extent, cells_per_axis, np.diag([1.0, 2.0]))
    return replace(mu, provenance="appendix_a_measure")


def gaussian_entry_11(m: int = 2, grid_extent: float = 8.0, cells_per_axis: int = 256) -> MatrixMeasure:
    """Gridded Gaussian in the (1,1) entry only; attains the lower multiplier bound."""
    W = np.zeros((m, m))
    W[0, 0] = 1.0
    mu = gaussian_measure(1, grid_extent, cells_per_axis, W)
    return replace(mu, provenance="gaussian_entry_11")


def gaussian_all_entries(m: int = 2, grid_extent: float = 8.0, cells_per_axis: int = 256) -> MatrixMeasure:
    """Gridded Gaussian in every entry; attains the upper multiplier bound."""
    mu = gaussian_measure(1, grid_extent, cells_per_axis, np.ones((m, m)))
    return replace(mu, provenance="gaussian_all_entries")


def point_mass(xi, W, n: int | None = None) -> MatrixMeasure:
    """Single matrix-weighted Dirac atom."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if n is None:
        n = xi.shape[0]
    W = as_cmatrix(W)
    return matrix_measure(n, W.shape[0], [(xi, W)], provenance="point_mass")


def example_4_17_measure(a: float, b: float, c: float, y0, t: float) -> MatrixMeasure:
    """Single atom at t*y0 with weight (2*pi)^{n/2} [[a^t, b^t], [b^t, c^t]]."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    n = y0.shape[0]
    W = (_TWO_PI) ** (n / 2) * np.array([[a**t, b**t], [b**t, c**t]])
    return matrix_measure(n, 2, [(t * y0, W)], provenance="example_4_17_measure")


MEASURE_CATALOG: dict[str, dict] = {
    "appendix_a_measure": {
        "factory": appendix_a_measure,
        "defaults": {"grid_extent": 8.0, "cells_per_axis": 1024},
        "truth": {"nonnegative": True},
        "notes": "gridded standard Gaussian times diag(1,2); its transform is PSD but the"
        " induced multiplier is not positivity preserving",
    },
    "gaussian_entry_11": {
        "factory": gaussian_entry_11,
        "defaults": {"m": 2, "grid_extent": 8.0, "cells_per_axis": 256},
        "truth": {"nonnegative": True},
        "notes": "Gaussian mass in the (1,1) entry only; lower L^1 multiplier bound is attained",
    },
    "gaussian_all_entries": {
        "factory": gaussian_all_entries,
        "defaults": {"m": 2, "grid_extent": 8.0, "cells_per_axis": 256},
        "truth": {"nonnegative": True},
        "notes": "Gaussian mass in every entry; upper L^1 multiplier bound is attained",
    },
    "point_mass": {
        "factory": point_mass,
        "defaults": {"xi": [0.0], "W": np.eye(1)},
        "truth": {},
        "notes": "single matrix-weighted Dirac atom",
    },
    "example_4_17_measure": {
        "factory": example_4_17_measure,
        "defaults": {"a": 2.0, "b": 1.0, "c": 2.0, "y0": [1.0], "t": 1.0},
        "truth": {"nonnegative": True},
        "notes": "single-atom measure whose transform is the Hadamard exponential of the"
        " drift-plus-log family",
    },
}


def make_measure(catalog_id: str, **params) -> MatrixMeasure:
    entry = MEASURE_CATALOG.get(catalog_id)
    if entry is None:
        raise InputError(f"unknown measure id {catalog_id!r}; known: {sorted(MEASURE_CATALOG)}")
    kw = dict(entry["defaults"])
    kw.update(params)
    return entry["factory"](**kw)
