"""Periodic uniform grids for matrix-valued fields and their discrete Fourier calculus.

The torus [-L/2, L/2)^n is sampled at K points per axis (K a power of two);
the dual grid carries frequencies 2*pi*j/L for j in [-K/2, K/2). The forward
transform is normalized so that it approximates
(2*pi)^{-n/2} * integral of e^{-i y.x} f(x) dx via the midpoint rule, which
makes the inverse exact on the grid and preserves the Hilbert-Schmidt L^2
norm between the two cell measures h^n and (2*pi/L)^n.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .matcore import InputError, ResolutionError, as_cmatrix, psd_check

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    n: int
    L: float
    K: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be >= 1")
        if self.L <= 0:
            raise InputError("L must be positive")
        if self.K < 8 or (self.K & (self.K - 1)) != 0:
            raise InputError(f"K must be a power of two >= 8, got {self.K}")

    @property
    def h(self) -> float:
        """Grid spacing L / K."""
        return self.L / self.K

    def axis_points(self) -> np.ndarray:
        return -self.L / 2 + self.h * np.arange(self.K)

    def axis_freqs(self) -> np.ndarray:
        """Dual frequencies in FFT standard order."""
        return _TWO_PI / self.L * np.fft.fftfreq(self.K, d=1.0 / self.K)

    def _mesh(self, axis_vals: np.ndarray) -> np.ndarray:
        grids = np.meshgrid(*([axis_vals] * self.n), indexing="ij")
        return np.stack(grids, axis=-1)

    def points(self) -> np.ndarray:
        """Physical coordinates, shape (K,)*n + (n,)."""
        return self._mesh(self.axis_points())

    def freq_points(self) -> np.ndarray:
        """Dual-grid coordinates in FFT order, shape (K,)*n + (n,)."""
        return self._mesh(self.axis_freqs())

    def cell_volume(self, domain: str = "x") -> float:
        return self.h**self.n if domain == "x" else (_TWO_PI / self.L) ** self.n

    def index_of(self, x) -> tuple:
        """Nearest grid index of a physical point after periodic wrap."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.rint((x + self.L / 2) / self.h).astype(int) % self.K
        return tuple(int(i) for i in idx)


@dataclass
class GridField:
    """Sampled C^{m x m}-valued function on a grid (or its transform on the dual grid)."""

    spec: GridSpec
    m: int
    values: np.ndarray  # shape (K,)*n + (m, m)
    domain: str = "x"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.spec.K,) * self.spec.n + (self.m, self.m)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != expected:
            raise InputError(f"field values must have shape {expected}, got {vals.shape}")
        if not np.isfinite(vals).all():
            raise InputError("field values must be finite")
        if self.domain not in ("x", "freq"):
            raise InputError("domain must be 'x' or 'freq'")
        self.values = vals

    def copy_with(self, values: np.ndarray, domain: str | None = None) -> "GridField":
        return GridField(
            spec=self.spec,
            m=self.m,
            values=values,
            domain=self.domain if domain is None else domain,
            meta=dict(self.meta),
        )

    def at(self, x) -> np.ndarray:
        """Value at the nearest grid point to x (periodic wrap)."""
        return self.values[self.spec.index_of(x)]

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1, self.m, self.m)


def constant_field(spec: GridSpec, A) -> GridField:
    A = as_cmatrix(A)
    vals = np.broadcast_to(A, (spec.K,) * spec.n + A.shape).copy()
    return GridField(spec=spec, m=A.shape[0], values=vals)


def field_from_function(spec: GridSpec, m: int, fn) -> GridField:
    """Sample a map R^n -> C^{m x m} on the grid; fn maps points (P, n) to values (P, m, m)."""
    vals = np.asarray(fn(spec.points().reshape(-1, spec.n)), dtype=np.complex128)
    return GridField(spec=spec, m=m, values=vals.reshape((spec.K,) * spec.n + (m, m)))


@functools.lru_cache(maxsize=8)
def _alternating_phase(spec: GridSpec) -> np.ndarray:
    """(-1)^(j1+...+jn) over the grid, shaped to broadcast against field values.

    Cached per grid and shared by every transform on it, hence read-only.
    """
    ph = np.ones(1)
    signs = (-1.0) ** np.arange(spec.K)
    for ax in range(spec.n):
        shape = [1] * spec.n
        shape[ax] = spec.K
        ph = ph * signs.reshape(shape)
    ph = ph.reshape(ph.shape + (1, 1))
    ph.flags.writeable = False
    return ph


def dft(f: GridField) -> GridField:
    """Forward transform onto the dual grid (FFT order)."""
    if f.domain != "x":
        raise InputError("dft expects a physical-domain field")
    spec = f.spec
    axes = tuple(range(spec.n))
    scale = (_TWO_PI) ** (-spec.n / 2) * spec.h**spec.n
    vals = scale * _alternating_phase(spec) * np.fft.fftn(f.values, axes=axes)
    return f.copy_with(vals, domain="freq")


def idft(g: GridField) -> GridField:
    """Exact inverse of dft."""
    if g.domain != "freq":
        raise InputError("idft expects a dual-grid field")
    spec = g.spec
    axes = tuple(range(spec.n))
    scale = (_TWO_PI) ** (-spec.n / 2) * spec.h**spec.n
    vals = np.fft.ifftn(_alternating_phase(spec) * g.values / scale, axes=axes)
    return g.copy_with(vals, domain="x")


def translate(f: GridField, cells) -> GridField:
    """Shift by whole grid cells: (L_v f)(x) = f(x - v) with v = cells * h."""
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    out = np.roll(f.values, shift=tuple(cells), axis=tuple(range(f.spec.n)))
    return f.copy_with(out)


# ---------------------------------------------------------------------------
# Norms of fields
# ---------------------------------------------------------------------------


def hs_l2_norm(f: GridField) -> float:
    """L^2 norm with the pointwise Hilbert-Schmidt norm and the domain's cell measure."""
    vol = f.spec.cell_volume(f.domain)
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * vol))


def lp_norm(f: GridField, p: float) -> float:
    """Discrete L^p norm of x -> ||f(x)||_op."""
    flat = f.flat()
    op = np.linalg.svd(flat, compute_uv=False)[:, 0]
    vol = f.spec.cell_volume(f.domain)
    if p == np.inf:
        return float(op.max())
    return float((np.sum(op**p) * vol) ** (1.0 / p))


def triple_norm_1(f: GridField) -> float:
    """Sum over entries (j,k) of the L^1 norms of f_jk."""
    vol = f.spec.cell_volume(f.domain)
    flat = f.flat()
    return float(np.sum(np.abs(flat)) * vol)


def triple_norm_2(f: GridField) -> float:
    """Sum over entries (j,k) of the L^2 norms of f_jk."""
    vol = f.spec.cell_volume(f.domain)
    flat = f.flat()
    per_entry = np.sqrt(np.sum(np.abs(flat) ** 2, axis=0) * vol)
    return float(per_entry.sum())


def triple_norm_inf(f: GridField) -> float:
    """max over entries (j,k) of sup_x |f_jk(x)|."""
    return float(np.abs(f.values).max())


def sup_op_norm(f: GridField) -> float:
    """sup_x ||f(x)||_op over the grid."""
    return float(np.linalg.svd(f.flat(), compute_uv=False)[:, 0].max())


# ---------------------------------------------------------------------------
# Pointwise positivity scans
# ---------------------------------------------------------------------------


def min_eig_scan(f: GridField) -> tuple[np.ndarray, np.ndarray]:
    """Per grid point: minimal eigenvalue of the Hermitian part, and hermiticity defect."""
    flat = f.flat()
    herm = (flat + flat.conj().transpose(0, 2, 1)) / 2
    skew = (flat - flat.conj().transpose(0, 2, 1)) / 2
    min_eigs = np.linalg.eigvalsh(herm)[:, 0]
    defects = np.abs(np.linalg.eigvalsh(1j * skew)).max(axis=1)
    shape = f.values.shape[: f.spec.n]
    return min_eigs.reshape(shape), defects.reshape(shape)


def is_psd_valued(f: GridField, tol: float) -> bool:
    min_eigs, defects = min_eig_scan(f)
    return bool(min_eigs.min() >= -tol and defects.max() <= tol)


# ---------------------------------------------------------------------------
# Smooth cutoffs and mollifiers
# ---------------------------------------------------------------------------


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 at u<=0, 1 at u>=1, C^2 across both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def cutoff_profile(r: np.ndarray, radius: float, eps: float) -> np.ndarray:
    """1 for r <= radius, 0 for r >= radius + eps, quintic ramp in between."""
    return 1.0 - _smoothstep((np.asarray(r, dtype=float) - radius) / eps)


def bump_field(spec: GridSpec, m: int, radius: float, eps: float, D) -> GridField:
    """Smooth compactly supported PSD probe h_eps(|x|) * D."""
    D = as_cmatrix(D, "D")
    if D.shape[0] != m:
        raise InputError(f"D must be {m}x{m}")
    if not psd_check(D).verdict:
        raise InputError("D must be PSD")
    if radius <= 0 or eps <= 0:
        raise InputError("radius and eps must be positive")
    if radius + eps >= spec.L / 2:
        raise InputError(f"support radius {radius + eps} must stay below L/2 = {spec.L / 2}")
    r = np.linalg.norm(spec.points(), axis=-1)
    profile = cutoff_profile(r, radius, eps)
    vals = profile[..., None, None] * D
    return GridField(spec=spec, m=m, values=vals)


def _wrapped_displacements(spec: GridSpec) -> np.ndarray:
    """|displacement| for each index offset, wrapped to [-L/2, L/2), shape (K,)*n."""
    d = spec.h * np.arange(spec.K)
    d = (d + spec.L / 2) % spec.L - spec.L / 2
    grids = np.meshgrid(*([d] * spec.n), indexing="ij")
    return np.linalg.norm(np.stack(grids, axis=-1), axis=-1)


def mollifier_kernel(spec: GridSpec, eps: float) -> np.ndarray:
    """Nonnegative C^2 kernel supported in |x| <= eps with unit grid mass.

    Returned in index-offset order (offset 0 first), ready for FFT convolution.
    """
    if eps <= spec.h:
        raise ResolutionError(
            f"mollifier radius {eps} must exceed the grid spacing {spec.h}",
            min_samples=2 * spec.K,
        )
    r = _wrapped_displacements(spec)
    w = cutoff_profile(r, 0.0, eps)
    mass = w.sum() * spec.cell_volume("x")
    return w / mass


def mollify(f: GridField, eps: float) -> GridField:
    """Convolve each entry with the normalized mollifier; preserves PSD-valuedness."""
    if f.domain != "x":
        raise InputError("mollify expects a physical-domain field")
    spec = f.spec
    kernel = mollifier_kernel(spec, eps)
    axes = tuple(range(spec.n))
    k_hat = np.fft.fftn(kernel)[..., None, None]
    out = np.fft.ifftn(np.fft.fftn(f.values, axes=axes) * k_hat, axes=axes)
    return f.copy_with(out * spec.cell_volume("x"))


# ---------------------------------------------------------------------------
# Binary field format: header (n, m, L, K, dtype code) + row-major payload
# ---------------------------------------------------------------------------

_MAGIC = b"MPSDFLD1"
_HEADER = struct.Struct("<IIdIB")


def save_field(f: GridField, path: str, dtype: str = "complex128") -> None:
    if dtype not in ("complex64", "complex128"):
        raise InputError("dtype must be complex64 or complex128")
    code = 0 if dtype == "complex64" else 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(f.spec.n, f.m, f.spec.L, f.spec.K, code))
        fh.write(np.ascontiguousarray(f.values.astype(dtype)).tobytes())


def load_field(path: str) -> GridField:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise InputError(f"{path}: not a grid-field file")
        n, m, L, K, code = _HEADER.unpack(fh.read(_HEADER.size))
        dtype = np.complex64 if code == 0 else np.complex128
        payload = np.frombuffer(fh.read(), dtype=dtype)
    expected = K**n * m * m
    if payload.size != expected:
        raise InputError(f"{path}: payload has {payload.size} values, expected {expected}")
    values = payload.astype(np.complex128).reshape((K,) * n + (m, m))
    return GridField(spec=GridSpec(n=n, L=L, K=K), m=m, values=values)
