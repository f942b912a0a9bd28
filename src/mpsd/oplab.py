"""Discretized Fourier multiplier laboratory.

The operator under study sends a grid field f to (f^ F)^v: transform, then
pointwise RIGHT multiplication of the row vector of Fourier data by the
symbol F on the dual grid (f^ on the left), then the inverse transform. All
continuum statements hold here "within discretization error"; every report
records the grid (n, L, K) it was produced on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridField,
    GridSpec,
    bump_field,
    cutoff_profile,
    dft,
    idft,
    is_psd_valued,
    min_eig_scan,
    sup_op_norm,
    triple_norm_1,
    triple_norm_2,
    triple_norm_inf,
)
from .matcore import (
    InputError,
    Report,
    ResolutionError,
    as_cmatrix,
    default_tol,
    op_norm,
    psd_check,
)
from .measures import MatrixMeasure, appendix_a_measure, convolve, entrywise_variation
from .psdfun import MatrixFunction, hadamard_exp_function

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Multiplier symbols
# ---------------------------------------------------------------------------


class MultiplierSymbol:
    """A bounded symbol xi -> C^{m x m}, evaluatable on the dual grid.

    Wraps a vectorized evaluator over points of shape (P, n).
    """

    def __init__(self, m: int, evaluator, label: str = ""):
        self.m = m
        self.label = label
        self._evaluator = evaluator
        # Evaluated values per grid. Held by the symbol, so they are freed with it.
        self._cache: dict[GridSpec, np.ndarray] = {}

    def on_grid(self, spec: GridSpec) -> np.ndarray:
        """Symbol values over the dual grid (FFT order), shape (K,)*n + (m, m).

        Evaluated once per grid and cached on the symbol; the returned array
        is shared between calls and therefore read-only.
        """
        vals = self._cache.get(spec)
        if vals is None:
            pts = spec.freq_points().reshape(-1, spec.n)
            raw = np.asarray(self._evaluator(pts), dtype=np.complex128)
            if not raw.flags.owndata:
                # A view (a broadcast constant, a transpose) of memory the
                # evaluator may still hold and change.
                raw = raw.copy()
            vals = raw.reshape((spec.K,) * spec.n + (self.m, self.m))
            if not np.isfinite(vals).all():
                raise InputError(f"symbol {self.label or ''} is unbounded on the dual grid")
            vals.flags.writeable = False
            self._cache[spec] = vals
        return vals

    def adjoint(self) -> "MultiplierSymbol":
        """Pointwise conjugate transpose of the symbol."""
        ev = self._evaluator
        return MultiplierSymbol(
            self.m,
            evaluator=lambda pts: np.asarray(ev(pts)).conj().swapaxes(-1, -2),
            label=f"{self.label}*",
        )


def symbol_from_function(F: MatrixFunction) -> MultiplierSymbol:
    return MultiplierSymbol(F.m, evaluator=F.values, label=F.catalog_id or "function")


def symbol_from_measure(mu: MatrixMeasure) -> MultiplierSymbol:
    return MultiplierSymbol(
        mu.m, evaluator=lambda pts: mu.fourier(pts), label=f"transform({mu.provenance or 'measure'})"
    )


def constant_symbol(A) -> MultiplierSymbol:
    A = as_cmatrix(A)
    return MultiplierSymbol(
        A.shape[0], evaluator=lambda pts: np.broadcast_to(A, (len(pts),) + A.shape), label="constant"
    )


def scalar_symbol(g, m: int) -> MultiplierSymbol:
    """Scalar multiplier g(xi) times the identity (always positivity preserving
    when g is the transform of a nonnegative scalar measure)."""

    def ev(pts):
        vals = np.asarray(g(pts), dtype=np.complex128).reshape(len(pts), 1, 1)
        return vals * np.eye(m)

    return MultiplierSymbol(m, evaluator=ev, label="scalar*I")


def apply_multiplier(F: MultiplierSymbol, f: GridField) -> GridField:
    """(f^ F)^v with f^ on the left of the pointwise product."""
    if F.m != f.m:
        raise InputError(f"symbol dimension {F.m} != field dimension {f.m}")
    fhat = dft(f)
    prod = fhat.values @ F.on_grid(f.spec)
    return idft(fhat.copy_with(prod))


def sup_symbol_op_norm(F: MultiplierSymbol, spec: GridSpec) -> float:
    """sup over the dual grid of the pointwise operator norm of the symbol."""
    vals = F.on_grid(spec).reshape(-1, F.m, F.m)
    return float(np.linalg.svd(vals, compute_uv=False)[:, 0].max())


# ---------------------------------------------------------------------------
# Operator norm estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str
    iterations: int = 0
    residual: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
        }


def _hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


def l2_multiplier_norm(
    F: MultiplierSymbol,
    spec: GridSpec,
    seed: int = 0,
    max_iterations: int = 500,
    residual_target: float = 1e-8,
) -> tuple[NormEstimate, NormEstimate]:
    """Two independent estimates of the operator norm on HS-valued L^2 fields.

    (a) the dual-grid supremum of the pointwise operator norm of the symbol;
    (b) power iteration on G -> adjoint-apply(apply(G)) in the Hilbert-Schmidt
    inner product. The two agree because right multiplication by F(xi) on
    HS-normed matrices has operator norm ||F(xi)||.
    """
    sup_est = NormEstimate(value=sup_symbol_op_norm(F, spec), method="supremum")

    rng = np.random.default_rng(seed)
    shape = (spec.K,) * spec.n + (F.m, F.m)
    G = GridField(
        spec=spec, m=F.m, values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    adj = F.adjoint()
    lam = 0.0
    residual = np.inf
    iters = 0
    for iters in range(1, max_iterations + 1):
        NG = apply_multiplier(adj, apply_multiplier(F, G))
        gg = _hs_inner(G.values, G.values).real
        lam_prev = lam
        lam = _hs_inner(G.values, NG.values).real / gg
        residual = float(
            np.linalg.norm((NG.values - lam * G.values).ravel())
            / max(abs(lam) * math.sqrt(gg), 1e-300)
        )
        G = G.copy_with(NG.values / np.linalg.norm(NG.values.ravel()))
        if residual < residual_target:
            break
        # Clustered top eigenvalues keep the residual large long after the
        # Rayleigh quotient has stabilized; stop once the value settles.
        if iters > 10 and abs(lam - lam_prev) <= 1e-12 * abs(lam):
            break
    power_est = NormEstimate(
        value=float(np.sqrt(max(lam, 0.0))),
        method="power_iteration",
        iterations=iters,
        residual=residual,
    )
    return sup_est, power_est


def right_mult_norm(A) -> float:
    """Operator norm of right multiplication B -> B A on HS-normed matrices.

    Materialized as the m^2 x m^2 block-diagonal matrix with diagonal blocks
    A^T; its largest singular value must equal ||A||_op.
    """
    A = as_cmatrix(A)
    m = A.shape[0]
    K_A = np.kron(np.eye(m), A.T)
    value = float(np.linalg.norm(K_A, 2))
    reference = op_norm(A)
    if abs(value - reference) > 1e-10 * max(1.0, reference):
        raise RuntimeError(
            f"right-multiplication norm {value} disagrees with ||A||_op {reference}"
        )
    return value


# ---------------------------------------------------------------------------
# Positivity preservation probes
# ---------------------------------------------------------------------------


def positivity_probe(F: MultiplierSymbol, test_fields, tol: float | None = None) -> Report:
    """Apply the multiplier to PSD-valued probes and scan every output point.

    Smooth compactly supported PSD bumps suffice as probes; failure at any
    grid point disproves positivity preservation (on this grid), while a pass
    only means "no violation found by these probes".
    """
    test_fields = list(test_fields)
    rep = Report(kind="positivity_probe", meta={})
    worst = {"min_eig": np.inf, "defect": 0.0, "location": None, "probe": None}
    for i, f in enumerate(test_fields):
        if tol is None:
            tol = 1e-9 * max(1.0, sup_op_norm(f))
        if not is_psd_valued(f, tol):
            raise InputError(f"test field {i} is not PSD-valued within tol={tol}")
        out = apply_multiplier(F, f)
        mins, defects = min_eig_scan(out)
        idx = np.unravel_index(np.argmin(mins), mins.shape)
        if mins[idx] < worst["min_eig"]:
            worst.update(
                min_eig=float(mins[idx]),
                location=[float(v) for v in np.atleast_1d(f.spec.points()[idx])],
                probe=i,
            )
        worst["defect"] = max(worst["defect"], float(defects.max()))
    rep.meta.update({"tol": tol, "probes": len(test_fields)})
    ok = worst["min_eig"] >= -tol and worst["defect"] <= tol
    rep.add(
        "outputs_psd_valued",
        ok,
        worst_min_eig=worst["min_eig"],
        worst_defect=worst["defect"],
        worst_location=worst["location"],
        worst_probe=worst["probe"],
    )
    return rep


# ---------------------------------------------------------------------------
# Counterexample experiments
# ---------------------------------------------------------------------------


def appendix_a_counterexample(
    spec: GridSpec,
    eps: float,
    measure_extent: float = 8.0,
    measure_cells: int = 1024,
) -> Report:
    """Nonnegative measure whose multiplier is not positivity preserving.

    The measure is the gridded standard Gaussian times A = diag(1, 2); the
    probe is the unit-ball cutoff times M = [[3, 1], [1, 3]]. The output at 0
    approaches (2*pi)^{-1/2} * gaussian_ball_mass(1) * (M A) as eps decreases,
    and M A = [[3, 2], [1, 6]] is not even self-adjoint.
    """
    if spec.n != 1:
        raise InputError("the counterexample experiment is built for n = 1")
    if spec.h > eps / 3:
        needed = 1
        while needed < 3 * spec.L / eps:
            needed *= 2
        raise ResolutionError(
            f"grid spacing {spec.h:.4g} too coarse for eps={eps:g}; need K >= {needed}",
            min_samples=needed,
        )
    if 1.0 + eps >= spec.L / 2:
        raise InputError("torus too small for the unit-ball probe")

    M = np.array([[3.0, 1.0], [1.0, 3.0]])
    A = np.diag([1.0, 2.0])
    mu = appendix_a_measure(measure_extent, measure_cells)
    probe = bump_field(spec, 2, radius=1.0, eps=eps, D=M)
    out = apply_multiplier(symbol_from_measure(mu), probe)
    Y = out.at(np.zeros(1))

    ball = math.erf(1.0 / math.sqrt(2.0))
    limit = _TWO_PI ** (-0.5) * ball * (M @ A)

    tol = default_tol(Y)
    verdict = psd_check(Y, tol)
    ratio = Y[0, 1] / Y[1, 0]
    rel_err = float((np.abs(Y - limit) / np.abs(limit)).max())

    rep = Report(
        kind="appendix_a_counterexample",
        meta={
            "grid": {"n": spec.n, "L": spec.L, "K": spec.K},
            "eps": eps,
            "tol": tol,
            "output_at_zero": Y,
            "limit": limit,
            "expected_failure": True,
        },
    )
    rep.add("offdiagonal_ratio_near_2", abs(ratio.real - 2.0) <= 0.1 and abs(ratio.imag) < 0.01,
            ratio=ratio)
    rep.add("hermiticity_defect_large", verdict.hermiticity_defect > 10 * tol,
            defect=verdict.hermiticity_defect)
    rep.add("output_not_psd", not verdict.verdict, verdict=verdict.verdict,
            min_eig=verdict.min_eigenvalue)
    rep.add("entrywise_limit_within_5pct", rel_err <= 0.05, relative_error=rel_err)
    rep.meta["observed_failure"] = not verdict.verdict
    return rep


def appendix_a_diagonal_control(spec: GridSpec, eps: float, measure_cells: int = 1024) -> Report:
    """Same experiment with M replaced by I: diagonal weights commute, probe passes."""
    if spec.n != 1:
        raise InputError("the counterexample experiment is built for n = 1")
    mu = appendix_a_measure(8.0, measure_cells)
    probe = bump_field(spec, 2, radius=1.0, eps=eps, D=np.eye(2))
    rep = positivity_probe(symbol_from_measure(mu), [probe])
    rep.kind = "appendix_a_diagonal_control"
    out = apply_multiplier(symbol_from_measure(mu), probe)
    Y = out.at(np.zeros(1))
    limit = _TWO_PI ** (-0.5) * math.erf(1.0 / math.sqrt(2.0)) * np.diag([1.0, 2.0])
    rep.add(
        "diagonal_limit_within_5pct",
        float(np.abs(Y - limit).max() / np.abs(limit).max()) <= 0.05,
        output_at_zero=Y,
        limit=limit,
    )
    return rep


def theorem_4_12_witness(
    F: MatrixFunction,
    t: float,
    spec: GridSpec,
    D=None,
    width: float | None = None,
    tol: float | None = None,
) -> Report:
    """Search for a grid point where exp_H(tF)(-i nabla) breaks positivity.

    The probe is a wide Gaussian bell times a strictly positive diagonal D
    with distinct first two entries (D S is then never self-adjoint for
    Hermitian S with S_12 != 0). The bell is compactly supported to machine
    precision yet spectrally negligible at the Nyquist frequency, so a
    violation above threshold is genuine rather than band-limitation ringing
    of a hard cutoff. Status is "witness_found" or "inconclusive"; absence of
    a grid witness never certifies positivity preservation.
    """
    m = F.m
    if D is None:
        D = np.diag(np.arange(1.0, m + 1.0))
    D = as_cmatrix(D, "D")
    if not psd_check(D).verdict:
        raise InputError("D must be PSD")
    if width is None:
        width = spec.L / 12
    sym = symbol_from_function(hadamard_exp_function(F, t))
    probe = separable_gaussian_field(spec, m, width, D)
    out = apply_multiplier(sym, probe)
    if tol is None:
        tol = 1e-9 * max(1.0, sup_op_norm(out))
    mins, defects = min_eig_scan(out)
    score = np.maximum(-mins, defects)
    idx = np.unravel_index(np.argmax(score), score.shape)
    found = bool(score[idx] > 10 * tol)
    status = "witness_found" if found else "inconclusive"
    rep = Report(
        kind="theorem_4_12_witness",
        meta={
            "grid": {"n": spec.n, "L": spec.L, "K": spec.K},
            "t": t,
            "tol": tol,
            "status": status,
            "observed_failure": found,
        },
    )
    rep.add(
        "witness_search",
        True,
        status=status,
        worst_min_eig=float(mins[idx]),
        worst_defect=float(defects[idx]),
        location=[float(v) for v in np.atleast_1d(spec.points()[idx])],
    )
    return rep


def trace_positivity_check(
    F: MatrixFunction, t: float, probes, tol: float | None = None
) -> Report:
    """Trace nonnegativity of exp_H(tF)(-i nabla) applied to PSD probes.

    For conditionally PSD F the trace of the output is nonnegative at every
    point; a negative trace disproves conditional positivity of F.
    """
    sym = symbol_from_function(hadamard_exp_function(F, t))
    rep = Report(kind="trace_positivity_check", meta={"t": t})
    min_trace = np.inf
    worst = {"probe": None, "location": None}
    max_imag = 0.0
    for i, f in enumerate(probes):
        if tol is None:
            tol = 1e-9 * max(1.0, sup_op_norm(f))
        if not is_psd_valued(f, tol):
            raise InputError(f"probe {i} is not PSD-valued within tol={tol}")
        out = apply_multiplier(sym, f)
        traces = np.trace(out.values, axis1=-2, axis2=-1)
        max_imag = max(max_imag, float(np.abs(traces.imag).max()))
        idx = np.unravel_index(np.argmin(traces.real), traces.real.shape)
        if traces.real[idx] < min_trace:
            min_trace = float(traces.real[idx])
            worst = {
                "probe": i,
                "location": [float(v) for v in np.atleast_1d(f.spec.points()[idx])],
            }
    rep.meta["tol"] = tol
    rep.add(
        "trace_nonnegative",
        min_trace >= -tol,
        min_trace=min_trace,
        max_imag=max_imag,
        worst_probe=worst["probe"],
        worst_location=worst["location"],
    )
    return rep


# ---------------------------------------------------------------------------
# Multiplier norm bounds with sharpness witnesses
# ---------------------------------------------------------------------------


def separable_gaussian_field(
    spec: GridSpec, m: int, width: float, matrix, modulation=None, center=None
) -> GridField:
    """Gaussian bell exp(-d(x,c)^2 / (2 w^2)) times a constant matrix.

    The displacement is wrapped to the torus so the sampled profile is
    continuous across the boundary; an optional plane-wave modulation
    e^{i xi0 . x} concentrates the transform near xi0.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    pts = spec.points()
    center = np.zeros(spec.n) if center is None else np.asarray(center, dtype=float)
    delta = (pts - center + spec.L / 2) % spec.L - spec.L / 2
    r2 = np.sum(delta**2, axis=-1)
    profile = np.exp(-0.5 * r2 / width**2).astype(np.complex128)
    if modulation is not None:
        xi0 = np.asarray(modulation, dtype=float)
        profile = profile * np.exp(1j * (pts @ xi0))
    return GridField(spec=spec, m=m, values=profile[..., None, None] * matrix)


def gaussian_probe_family(
    spec: GridSpec, m: int, count: int, seed: int, width_range=(0.5, 2.0)
) -> list[GridField]:
    """PSD-valued Gaussian bell probes with seeded widths, centers, and directions.

    Gaussian bells vanish to machine precision at the torus boundary and are
    spectrally negligible at the Nyquist frequency, so positivity scans of
    multiplier outputs are free of band-limitation artifacts.
    """
    rng = np.random.default_rng(seed)
    probes = [separable_gaussian_field(spec, m, sum(width_range) / 2, np.eye(m))]
    while len(probes) < count:
        G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        D = G.conj().T @ G
        D = D / op_norm(D)
        w = rng.uniform(*width_range)
        center = rng.uniform(-spec.L / 10, spec.L / 10, size=spec.n)
        probes.append(separable_gaussian_field(spec, m, w, D, center=center))
    return probes


def _entry_matrix(m: int, j: int, k: int) -> np.ndarray:
    E = np.zeros((m, m), dtype=np.complex128)
    E[j, k] = 1.0
    return E


def l1_norm_bounds_check(
    mu: MatrixMeasure,
    spec: GridSpec,
    probe_family_size: int = 6,
    seed: int = 0,
    slack_frac: float = 0.1,
) -> Report:
    """Sampled entrywise-L^1 operator norm of the multiplier of mu against its
    two-sided entrywise-variation bounds.

    The operator acts as (2*pi)^{-n/2} T_mu. Sampled ratios are lower bounds
    for the true norm, which lies in [(2*pi)^{-n/2} N(mu), m (2*pi)^{-n/2} N(mu)].
    The targeted probe family (narrow nonnegative bumps placed in one entry)
    attains the lower end whenever the atoms are separated relative to the
    narrowest width; the uniform m^{-2} family attains the upper end for
    measures with equal entrywise variations.
    """
    rng = np.random.default_rng(seed)
    m = mu.m
    scale = _TWO_PI ** (-spec.n / 2)
    N_mu = entrywise_variation(mu)
    lower, upper = scale * N_mu, m * scale * N_mu

    entry_sums = np.abs(mu.weights).sum(axis=0)
    p, q = np.unravel_index(np.argmax(entry_sums), entry_sums.shape)

    probes: list[tuple[str, GridField]] = []
    for w in (1.0, 0.3, 0.1, 0.05):
        if w < 2 * spec.h:
            continue
        probes.append(
            (f"targeted(w={w:g},entry=(0,{p}))",
             separable_gaussian_field(spec, m, w, _entry_matrix(m, 0, p)))
        )
    for w in (1.0, 0.3):
        probes.append(
            (f"uniform(w={w:g})",
             separable_gaussian_field(spec, m, w, np.full((m, m), 1.0 / m**2)))
        )
    for i in range(probe_family_size):
        Wr = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        width = rng.uniform(0.2, 1.5)
        center = rng.uniform(-spec.L / 8, spec.L / 8, size=spec.n)
        probes.append(
            (f"random_{i}", separable_gaussian_field(spec, m, width, Wr, center=center))
        )

    best_ratio, best_name = 0.0, None
    all_within_upper = True
    worst_upper_excess = -np.inf
    for name, phi in probes:
        Tphi = convolve(mu, phi)
        ratio = scale * triple_norm_1(Tphi) / triple_norm_1(phi)
        if ratio > best_ratio:
            best_ratio, best_name = ratio, name
        excess = ratio - upper * (1 + 1e-6)
        worst_upper_excess = max(worst_upper_excess, excess)
        all_within_upper = all_within_upper and excess <= 0

    rep = Report(
        kind="l1_norm_bounds_check",
        meta={
            "grid": {"n": spec.n, "L": spec.L, "K": spec.K},
            "seed": seed,
            "entrywise_variation": N_mu,
            "lower_bound": lower,
            "upper_bound": upper,
            "best_probe": best_name,
        },
    )
    rep.add("lower_sharpness", best_ratio >= lower * (1 - slack_frac), estimate=best_ratio,
            lower=lower)
    rep.add("upper_bound", all_within_upper, worst_excess=worst_upper_excess, upper=upper)
    return rep


def l2_triple_norm_bounds_check(
    F: MultiplierSymbol,
    spec: GridSpec,
    probe_family_size: int = 6,
    seed: int = 0,
    slack_frac: float = 0.1,
) -> Report:
    """Sampled entrywise-L^2 operator norm of a multiplier against its
    two-sided entrywise-sup bounds.

    The reference value is the entrywise sup norm of the symbol over the dual
    grid; sampled ratios must stay below m times it, and the targeted family
    (a bump in one entry, modulated to concentrate its transform at the
    maximizing frequency) approaches it from below.
    """
    rng = np.random.default_rng(seed)
    m = F.m
    vals = F.on_grid(spec)
    tinf = float(np.abs(vals).max())
    idx = np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape)
    grid_idx, (p, q) = idx[:-2], idx[-2:]
    xi_star = np.atleast_1d(spec.freq_points()[grid_idx])

    probes: list[tuple[str, GridField]] = []
    for w in (2.0, 4.0, 8.0):
        if w > spec.L / 4:
            continue
        probes.append(
            (f"targeted(w={w:g},entry=(0,{p}),xi*={xi_star})",
             separable_gaussian_field(spec, m, w, _entry_matrix(m, 0, p), modulation=xi_star))
        )
    probes.append(
        ("uniform", separable_gaussian_field(spec, m, 4.0, np.full((m, m), 1.0 / m**2),
                                             modulation=xi_star))
    )
    for i in range(probe_family_size):
        Wr = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        width = rng.uniform(0.5, 4.0)
        xi0 = rng.uniform(-2.0, 2.0, size=spec.n)
        probes.append(
            (f"random_{i}", separable_gaussian_field(spec, m, width, Wr, modulation=xi0))
        )

    best_ratio, best_name = 0.0, None
    all_within_upper = True
    worst_upper_excess = -np.inf
    for name, phi in probes:
        out = apply_multiplier(F, phi)
        ratio = triple_norm_2(out) / triple_norm_2(phi)
        if ratio > best_ratio:
            best_ratio, best_name = ratio, name
        excess = ratio - m * tinf * (1 + 1e-6)
        worst_upper_excess = max(worst_upper_excess, excess)
        all_within_upper = all_within_upper and excess <= 0

    rep = Report(
        kind="l2_triple_norm_bounds_check",
        meta={
            "grid": {"n": spec.n, "L": spec.L, "K": spec.K},
            "seed": seed,
            "entrywise_sup": tinf,
            "upper_bound": m * tinf,
            "best_probe": best_name,
        },
    )
    rep.add("lower_sharpness", best_ratio >= tinf * (1 - slack_frac), estimate=best_ratio,
            lower=tinf)
    rep.add("upper_bound", all_within_upper, worst_excess=worst_upper_excess, upper=m * tinf)
    return rep


# ---------------------------------------------------------------------------
# Exponential-kernel bound and the positivity-preserving a-priori bounds
# ---------------------------------------------------------------------------


def exponential_kernel_field(spec: GridSpec, a: float) -> GridField:
    """Scalar kernel prod_l exp(-a |x_l|) sampled on the grid (m = 1)."""
    if a <= 0:
        raise InputError("a must be positive")
    pts = spec.points()
    vals = np.exp(-a * np.abs(pts)).prod(axis=-1).astype(np.complex128)
    return GridField(spec=spec, m=1, values=vals[..., None, None])


def k_a_bound_check(a: float, F: MultiplierSymbol, spec: GridSpec, kernel_tol: float = 1e-3) -> Report:
    """Exponential-kernel smoothing bound with c_m = m.

    Verifies that the transform of the kernel has L^1 norm (2*pi)^{n/2} (its
    transform is positive, so the integral telescopes to the kernel value at
    0), and that smoothing the symbol through it keeps the sup operator norm
    within m^2 times the symbol's.
    """
    k = exponential_kernel_field(spec, a)
    khat = dft(k)
    k1 = float(np.abs(khat.values).sum() * spec.cell_volume("freq"))
    target = _TWO_PI ** (spec.n / 2)

    sym_vals = F.on_grid(spec)
    prod = khat.values * sym_vals  # k^ is scalar, so this is (M_a^ F) pointwise
    smoothed = idft(GridField(spec=spec, m=F.m, values=prod, domain="freq"))
    value = sup_op_norm(smoothed)
    bound = F.m**2 * sup_symbol_op_norm(F, spec)

    rep = Report(
        kind="k_a_bound_check",
        meta={"grid": {"n": spec.n, "L": spec.L, "K": spec.K}, "a": a},
    )
    rep.add("kernel_transform_l1", abs(k1 - target) <= kernel_tol, value=k1, target=target)
    rep.add("smoothed_sup_bound", value <= bound * (1 + 1e-9) + 1e-12, value=value, bound=bound)
    return rep


def positivity_preserving_sup_bounds_check(
    F: MultiplierSymbol, probes, tol: float | None = None
) -> Report:
    """A-priori sup bounds for positivity preserving multipliers, c_m = m.

    Probes must be compactly supported with max-entry norm <= 1. PSD-valued
    probes are held to the factor 2 m^4 bound; all probes to the factor
    8 m^6 bound.
    """
    m = F.m
    rep = Report(kind="positivity_preserving_sup_bounds", meta={})
    for i, f in enumerate(probes):
        if triple_norm_inf(f) > 1 + 1e-12:
            raise InputError(f"probe {i} must satisfy sup max-entry norm <= 1")
        spec = f.spec
        fnorm = sup_symbol_op_norm(F, spec)
        out = apply_multiplier(F, f)
        value = triple_norm_inf(out)
        psd = is_psd_valued(f, tol if tol is not None else 1e-9 * max(1.0, sup_op_norm(f)))
        if psd:
            rep.add(f"probe_{i}_psd_bound", value <= 2 * m**4 * fnorm + 1e-12, value=value,
                    bound=2 * m**4 * fnorm)
        rep.add(f"probe_{i}_general_bound", value <= 8 * m**6 * fnorm + 1e-12, value=value,
                bound=8 * m**6 * fnorm)
    return rep


# ---------------------------------------------------------------------------
# Mollifier recovery and the Hadamard semigroup derivative
# ---------------------------------------------------------------------------


def _mollifier_transform_1d(eps: float, z: np.ndarray, oversample: int = 512) -> np.ndarray:
    """q(z) = integral of e^{-i z u} phi_eps(u) du for the normalized C^2 bump phi_eps."""
    u = np.linspace(-eps, eps, oversample, endpoint=False) + eps / oversample
    w = cutoff_profile(np.abs(u), 0.0, eps)
    du = 2 * eps / oversample
    w = w / (w.sum() * du)
    return np.exp(-1j * np.outer(z, u)) @ w * du


def mollifier_recovery_check(
    mu: MatrixMeasure, spec: GridSpec, x_list, eps_list
) -> Report:
    """Pointwise recovery of the transform of a nonnegative measure.

    Applying the multiplier to the matched window field
    f_{eps,x}(y) = (2*pi)^{-n/2} e^{-i (x-y).x} q_eps(x-y) I_m (with q_eps the
    transform of a mollifier) evaluates, at x, a mollified sample of the
    symbol, which converges to (2*pi)^{-n/2} mu^(x) as eps decreases.
    """
    if spec.n != 1:
        raise InputError("recovery experiment is built for n = 1")
    if not mu.is_nonnegative().verdict:
        raise InputError("measure must be nonnegative")
    for eps in eps_list:
        if eps <= spec.h:
            raise ResolutionError(
                f"eps={eps:g} is below the grid spacing {spec.h:g}", min_samples=2 * spec.K
            )
    sym = symbol_from_measure(mu)
    y = spec.points()[..., 0]
    rep = Report(
        kind="mollifier_recovery_check",
        meta={"grid": {"n": spec.n, "L": spec.L, "K": spec.K}, "eps_list": list(eps_list)},
    )
    for x in x_list:
        x = float(np.atleast_1d(x)[0])
        x_snap = float(spec.axis_points()[spec.index_of([x])[0]])
        target = _TWO_PI ** (-0.5) * mu.fourier(np.array([x_snap]))
        errors = []
        for eps in eps_list:
            z = x_snap - y
            q = _mollifier_transform_1d(eps, z)
            profile = _TWO_PI ** (-0.5) * np.exp(-1j * z * x_snap) * q
            f = GridField(
                spec=spec, m=mu.m, values=profile[..., None, None] * np.eye(mu.m)
            )
            out = apply_multiplier(sym, f)
            errors.append(op_norm(out.at([x_snap]) - target))
        rep.add(
            f"recovery_at_x={x_snap:g}",
            errors[-1] <= errors[0] * (1 + 1e-9),
            errors=errors,
            final_error=errors[-1],
        )
    return rep


def hadamard_derivative_check(
    F: MatrixFunction, t: float, f: GridField, h: float
) -> Report:
    """Semigroup derivative identity for the Hadamard exponential multiplier.

    Central finite differences of s -> exp_H(sF)(-i nabla) f at s = t are
    compared against the multiplier with symbol exp_H(tF) o F (entrywise
    product); the discrepancy must shrink like h^2 between steps h and h/2.
    """
    if h <= 0 or h >= t:
        raise InputError("h must satisfy 0 < h < t")

    def exp_times_F(X):
        A = F.values(X)
        return np.exp(t * A) * A

    analytic_fun = MatrixFunction(
        n=F.n,
        m=F.m,
        evaluator=exp_times_F,
        catalog_id="exp_H(tF) o F",
    )
    ana = apply_multiplier(symbol_from_function(analytic_fun), f)

    def numeric(step: float) -> np.ndarray:
        up = apply_multiplier(symbol_from_function(hadamard_exp_function(F, t + step)), f)
        dn = apply_multiplier(symbol_from_function(hadamard_exp_function(F, t - step)), f)
        return (up.values - dn.values) / (2 * step)

    disc_h = float(np.abs(numeric(h) - ana.values).max())
    disc_h2 = float(np.abs(numeric(h / 2) - ana.values).max())
    scale = max(float(np.abs(ana.values).max()), 1.0)

    rep = Report(kind="hadamard_derivative_check", meta={"t": t, "h": h})
    if disc_h <= 1e-12 * scale:
        rep.add("second_order", True, disc_h=disc_h, disc_h2=disc_h2, ratio=None,
                note="finite difference exact to roundoff")
    else:
        ratio = disc_h / max(disc_h2, 1e-300)
        rep.add("second_order", 2.5 <= ratio <= 6.5, disc_h=disc_h, disc_h2=disc_h2, ratio=ratio)
    return rep
