"""Matrix-valued functions on R^n: block Grams, (conditional) positivity tests,
Schoenberg-shifted Grams, Hadamard-exponential semigroups, and growth bounds.

All verdicts on functions are necessarily finite: a check runs over a given
point set and means "no violation found at these points", never a proof of
positivity over all of R^n. Point sets are explicit inputs and random ones
carry a mandatory seed, so every verdict is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matcore import (
    InputError,
    PsdVerdict,
    Report,
    as_cmatrices,
    as_cmatrix,
    cpsd_check,
    default_tol,
    hadamard_exp,
    min_eigenvalues,
    op_norm,
    op_norms,
    psd_check,
)

# Declared metadata keys for MatrixFunction.properties.
HERMITIAN_SYMMETRIC = "hermitian_symmetric"  # F(-x) = F(x)*
CPSD_CLAIMED = "cpsd_claimed"
PSD_CLAIMED = "psd_claimed"


@dataclass(frozen=True)
class MatrixFunction:
    """An evaluatable map R^n -> C^{m x m} with declared symmetry metadata.

    The evaluator works on batches: points of shape (P, n) in, values of
    shape (P, m, m) out.
    """

    n: int
    m: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    catalog_id: str | None = None
    properties: frozenset = frozenset()

    def values(self, X) -> np.ndarray:
        """F at each row of X, shape (P, m, m), validated once for the batch.

        An error names the first point whose value is not a finite square
        matrix.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise InputError(f"points have shape {X.shape}, expected (P, {self.n})")
        label = self.catalog_id or "function"
        V = np.asarray(self.evaluator(X), dtype=np.complex128)
        if V.shape[:-2] in ((), (len(X),)):
            # The name formats an array repr, so it is built only to raise.
            V = as_cmatrices(V, name=lambda i: f"{label}({X[i]})")
        if V.shape != (len(X), self.m, self.m):
            raise InputError(
                f"{label}: evaluator returned shape {V.shape}, expected ({len(X)}, {self.m}, {self.m})"
            )
        return V

    def __call__(self, x) -> np.ndarray:
        """F at one point: the one-point form of values."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.n,):
            raise InputError(f"point has shape {x.shape}, expected ({self.n},)")
        return self.values(x[None])[0]

    def claims(self, prop: str) -> bool:
        return prop in self.properties


@dataclass(frozen=True)
class PointSet:
    """A finite list of points in R^n."""

    n: int
    points: np.ndarray  # (N, n) float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != self.n or pts.shape[0] < 1:
            raise InputError(f"points must have shape (N>=1, {self.n}), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise InputError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def N(self) -> int:
        return self.points.shape[0]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "points": self.points.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PointSet":
        try:
            return cls(n=int(obj["n"]), points=np.asarray(obj["points"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed point-set JSON: {exc}") from exc


def random_point_set(n: int, N: int, radius: float, seed: int) -> PointSet:
    """Seeded uniform sample from the cube [-radius, radius]^n."""
    rng = np.random.default_rng(seed)
    return PointSet(n=n, points=rng.uniform(-radius, radius, size=(N, n)))


@dataclass(frozen=True)
class BlockGram:
    """The mN x mN matrix with (p,q) block F(x_p - x_q)."""

    m: int
    N: int
    matrix: np.ndarray

    @property
    def blocks(self) -> np.ndarray:
        """The blocks as an (N, N, m, m) view: blocks[p, q] = block(p, q)."""
        return self.matrix.reshape(self.N, self.m, self.N, self.m).swapaxes(1, 2)

    def block(self, p: int, q: int) -> np.ndarray:
        return self.blocks[p, q]


def gram(F: MatrixFunction, X: PointSet) -> BlockGram:
    """Assemble the block Gram matrix of F over the point set."""
    if F.n != X.n:
        raise InputError(f"dimension mismatch: function n={F.n}, points n={X.n}")
    N, m = X.N, F.m
    D = X.points[:, None, :] - X.points[None, :, :]  # D[p, q] = x_p - x_q
    blocks = F.values(D.reshape(N * N, X.n)).reshape(N, N, m, m)
    return BlockGram(m=m, N=N, matrix=blocks.swapaxes(1, 2).reshape(N * m, N * m))


def _shifted(G: BlockGram, vals: np.ndarray) -> BlockGram:
    """G with F(x_p) + F(x_q)* taken from each block (p,q), given vals[p] = F(x_p)."""
    # Indexed (p, i, q, j) like the Gram matrix: F(x_p)_ij + conj(F(x_q)_ji).
    shift = vals[:, :, None, :] + vals.conj().transpose(2, 0, 1)[None]
    return BlockGram(m=G.m, N=G.N, matrix=G.matrix - shift.reshape(G.matrix.shape))


def schoenberg_gram(F: MatrixFunction, X: PointSet) -> BlockGram:
    """Shifted Gram with (p,q) block F(x_p - x_q) - F(x_p) - F(x_q)*."""
    return _shifted(gram(F, X), F.values(X.points))


def psd_function_check(F: MatrixFunction, X: PointSet, tol: float | None = None) -> PsdVerdict:
    """PSD test of the block Gram of F over X."""
    return psd_check(gram(F, X).matrix, tol)


def _symmetry_defect(G: BlockGram) -> float:
    """max over sampled differences x of ||F(-x) - F(x)*||_op, from the Gram of F:
    F(-(x_p - x_q)) is block (q, p)."""
    B = G.blocks
    return float(op_norms(B.swapaxes(0, 1) - B.conj().swapaxes(-1, -2)).max())


def cpsd_function_check(F: MatrixFunction, X: PointSet, tol: float | None = None) -> Report:
    """Conditional PSD test of F over X.

    Two sub-checks: (alpha) the symmetry F(-x) = F(x)* on all sampled
    differences, and (beta) the Gram quadratic form restricted to the single
    linear constraint sum_{p,j} c_{p,j} = 0 on C^{mN} is nonnegative.
    """
    G = gram(F, X)
    return _cpsd_report(G, default_tol(G.matrix) if tol is None else tol)


def _cpsd_report(G: BlockGram, tol: float) -> Report:
    """cpsd_function_check on the Gram of F over X."""
    defect = _symmetry_defect(G)
    # The quadratic form only sees the Hermitian part of the Gram.
    v = cpsd_check((G.matrix + G.matrix.conj().T) / 2, tol)

    rep = Report(kind="cpsd_function_check", meta={"tol": tol, "N": G.N, "m": G.m})
    rep.add("symmetry", defect <= tol, defect=defect)
    rep.add(
        "constrained_psd",
        v.verdict,
        min_eig=v.min_eigenvalue,
        witness=v.witness,
        constraint="sum of all mN coordinates is zero",
    )
    return rep


def weak_cpsd_check(
    F: MatrixFunction, X: PointSet, directions, tol: float | None = None
) -> Report:
    """Directional conditional PSD test.

    For each unit direction f, the scalar N x N matrix {(f, F(x_p - x_q) f)}
    is tested for conditional positivity with the scalar constraint
    sum_p c_p = 0. Verdict is the conjunction over directions.
    """
    G = gram(F, X)
    if tol is None:
        tol = default_tol(G.matrix)
    rep = Report(kind="weak_cpsd_check", meta={"tol": tol, "N": X.N, "m": F.m})
    for i, f in enumerate(directions):
        f = np.asarray(f, dtype=np.complex128).ravel()
        if f.shape != (F.m,):
            raise InputError(f"direction {i} has shape {f.shape}, expected ({F.m},)")
        if abs(np.linalg.norm(f) - 1.0) > 1e-8:
            raise InputError(f"direction {i} must be unit-norm")
        S = (f.conj()[None, None, None, :] @ G.blocks @ f[:, None])[..., 0, 0]
        herm_defect = op_norm((S - S.conj().T) / 2)
        if herm_defect > tol:
            rep.add(f"direction_{i}", False, defect=herm_defect, reason="non-Hermitian scalar Gram")
            continue
        v = cpsd_check(S, tol)
        rep.add(f"direction_{i}", v.verdict, min_eig=v.min_eigenvalue, witness=v.witness)
    return rep


def hadamard_exp_function(F: MatrixFunction, t: float) -> MatrixFunction:
    """Pointwise Hadamard exponential x -> exp_H(t F(x))."""
    if t < 0:
        raise InputError("t must be nonnegative")
    props = set()
    if F.claims(HERMITIAN_SYMMETRIC):
        props.add(HERMITIAN_SYMMETRIC)
    if F.claims(CPSD_CLAIMED):
        props.add(PSD_CLAIMED)
    return MatrixFunction(
        n=F.n,
        m=F.m,
        evaluator=lambda X: hadamard_exp(F.values(X), t),
        catalog_id=f"exp_H({t:g}*{F.catalog_id or 'F'})",
        properties=frozenset(props),
    )


def f0_nonpositive(F: MatrixFunction, tol: float | None = None) -> PsdVerdict:
    """Check F(0) <= 0 via the PSD test of -F(0)."""
    return psd_check(-F(np.zeros(F.n)), tol)


def schoenberg_equivalence_report(
    F: MatrixFunction, X: PointSet, t_grid, tol: float | None = None
) -> Report:
    """Cross-check the three Schoenberg-type conditions on a point set.

    (i) conditional positivity of F, (ii) positivity of exp_H(tF) for each t
    in t_grid, (iii) when F(0) <= 0, positivity of the shifted Gram. The
    consistency flags record (i) <=> all-of-(ii) and (i) and F(0)<=0 => (iii);
    an inconsistency at tolerance is reported, never silently repaired.

    F is sampled once, at the N^2 differences: the Gram of exp_H(tF) is
    hadamard_exp of F's Gram, bit for bit, since the exponential is entrywise.
    """
    G = gram(F, X)
    if tol is None:
        tol = default_tol(G.matrix)
    rep = Report(kind="schoenberg_equivalence", meta={"tol": tol, "t_grid": list(t_grid)})

    cpsd_rep = _cpsd_report(G, tol)
    cond_i = cpsd_rep.passed
    rep.add("cpsd", True, verdict=cond_i, detail=cpsd_rep.checks)

    exp_verdicts = []
    for t in t_grid:
        if t < 0:
            raise InputError("t must be nonnegative")
        v = psd_check(hadamard_exp(G.matrix, t), tol)
        exp_verdicts.append(v.verdict)
        rep.add(f"exp_psd_t={t:g}", True, verdict=v.verdict, min_eig=v.min_eigenvalue)
    cond_ii = all(exp_verdicts)

    f0_ok = f0_nonpositive(F, tol).verdict
    cond_iii = None
    if f0_ok:
        v = psd_check(_shifted(G, F.values(X.points)).matrix, tol)
        cond_iii = v.verdict
        rep.add("shifted_gram_psd", True, verdict=v.verdict, min_eig=v.min_eigenvalue)

    rep.add("consistency_i_iff_ii", cond_i == cond_ii, cpsd=cond_i, exp_all=cond_ii)
    if f0_ok:
        rep.add(
            "consistency_i_implies_iii",
            (not cond_i) or bool(cond_iii),
            cpsd=cond_i,
            shifted=cond_iii,
        )
    rep.meta["f0_nonpositive"] = f0_ok
    return rep


def growth_bound_estimate(
    F: MatrixFunction, radii, samples_per_radius: int, seed: int
) -> Report:
    """Sampled quadratic growth ratio sup ||F(x)|| / (1 + |x|^2) against the
    local constant C' = sup_{|y| <= 2} ||F(y)||."""
    rng = np.random.default_rng(seed)
    n = F.n

    def sphere_sample(r: float) -> np.ndarray:
        u = rng.standard_normal(n)
        u /= max(np.linalg.norm(u), 1e-300)
        return r * u

    local = [np.zeros(n)]
    local += [sphere_sample(2.0 * rng.uniform() ** (1.0 / n)) for _ in range(256)]
    local += [sphere_sample(2.0) for _ in range(64)]
    c_prime = float(op_norms(F.values(np.array(local))).max())

    far = [sphere_sample(float(r)) for r in radii for _ in range(samples_per_radius)]
    far = np.reshape(far, (-1, n))
    ratios = op_norms(F.values(far)) / (1.0 + (far[:, None, :] @ far[:, :, None])[:, 0, 0])
    ratio_sup, worst_x = 0.0, np.zeros(n)
    if ratios.max(initial=0.0) > 0.0:
        i = int(np.argmax(ratios))
        ratio_sup, worst_x = float(ratios[i]), far[i]
    rep = Report(
        kind="growth_bound_estimate",
        meta={"seed": seed, "radii": [float(r) for r in radii]},
    )
    rep.add(
        "ratio_within_local_bound",
        ratio_sup <= c_prime * (1 + 1e-9) + 1e-12,
        ratio_sup=ratio_sup,
        c_prime=c_prime,
        worst_x=worst_x,
    )
    return rep


def lemma_4_13_check(F: MatrixFunction, pairs, tol: float | None = None) -> Report:
    """Necessary inequalities for a conditionally PSD F with F(0) <= 0.

    Per pair (x, y), in operator norm with slack tol:
      (a) F(0) - 2 Re F(x) >= 0,
      (b) ||F(0) - 2 Re F(x)|| <= 2 ||F(x)||,
      (c) ||F(x-y) - F(x) - F(y)*|| <= 2 ||F(x)||^{1/2} ||F(y)||^{1/2},
      (d) ||F(x+y)||^{1/2} <= ||F(x)||^{1/2} + ||F(y)||^{1/2}.
    Violations are reported, signalling that the conditional-positivity claim
    is false; no exception is raised.
    """
    pairs = list(pairs)
    F0 = F(np.zeros(F.n))
    if tol is None:
        tol = default_tol(F0)
    rep = Report(kind="lemma_4_13_check", meta={"tol": tol, "pairs": len(pairs)})
    expected = (len(pairs), 2, F.n)
    try:
        P = np.asarray(pairs, dtype=float)
    except ValueError as exc:  # ragged or non-numeric pairs
        raise InputError(f"pairs do not form one numeric array, expected shape {expected}: {exc}") from None
    # Points of R^1 may be given as scalars.
    if pairs and P.shape != expected and not (F.n == 1 and P.shape == expected[:2]):
        raise InputError(f"pairs have shape {P.shape}, expected shape {expected}")
    x, y = P.reshape(expected).swapaxes(0, 1)
    Fx, Fy, Fdiff, Fsum = F.values(np.concatenate([x, y, x - y, x + y])).reshape(4, -1, F.m, F.m)

    nx, ny = op_norms(Fx), op_norms(Fy)
    shifted = F0 - 2 * ((Fx + Fx.conj().swapaxes(-1, -2)) / 2)
    cross = op_norms(Fdiff - Fx - Fy.conj().swapaxes(-1, -2))
    worst = {
        "shifted_nonneg": min_eigenvalues(shifted).min(initial=0.0),
        "re_bound": (op_norms(shifted) - 2 * nx).max(initial=0.0),
        "cross_bound": (cross - 2 * np.sqrt(nx) * np.sqrt(ny)).max(initial=0.0),
        "subadditive": (np.sqrt(op_norms(Fsum)) - np.sqrt(nx) - np.sqrt(ny)).max(initial=0.0),
    }
    rep.add("shifted_nonneg", worst["shifted_nonneg"] >= -tol, worst_min_eig=worst["shifted_nonneg"])
    rep.add("re_bound", worst["re_bound"] <= tol, worst_excess=worst["re_bound"])
    rep.add("cross_bound", worst["cross_bound"] <= tol, worst_excess=worst["cross_bound"])
    rep.add("subadditive", worst["subadditive"] <= tol, worst_excess=worst["subadditive"])
    return rep


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A named constructor with analytically certain ground-truth properties."""

    id: str
    factory: Callable[..., MatrixFunction]
    defaults: dict
    truth: dict
    notes: str

    def make(self, **params) -> MatrixFunction:
        kw = dict(self.defaults)
        kw.update(params)
        return self.factory(**kw)


def _example_2_13(n: int = 1) -> MatrixFunction:
    A = np.log(0.5) * np.eye(2, dtype=np.complex128)
    return MatrixFunction(
        n=n,
        m=2,
        evaluator=lambda X: np.broadcast_to(A, (len(X), 2, 2)),
        catalog_id="example_2_13",
        properties=frozenset({HERMITIAN_SYMMETRIC}),
    )


def _remark_4_5b(s: float = 1.0) -> MatrixFunction:
    if s <= 0:
        raise InputError("s must be positive")
    S = np.array([[0.0, 1j * s], [-1j * s, 0.0]], dtype=np.complex128)
    return MatrixFunction(
        n=1,
        m=2,
        evaluator=lambda X: (1j * X[:, 0])[:, None, None] * S,
        catalog_id="remark_4_5b",
        properties=frozenset({HERMITIAN_SYMMETRIC}),
    )


def _example_4_17_i(a: float, b: float, c: float, y0) -> MatrixFunction:
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if min(a, b, c) <= 0 or a * c < b * b:
        raise InputError("requires a, b, c > 0 with a*c >= b^2")
    L = np.log(np.array([[a, b], [b, c]], dtype=np.complex128))

    def ev(X):
        # Stacked 1 x n products keep each x . y0 bit-identical to a per-point x @ y0.
        drift = -1j * (X[:, None, :] @ y0)[:, 0]
        return drift[:, None, None] * np.ones((2, 2)) + L

    return MatrixFunction(
        n=y0.shape[0],
        m=2,
        evaluator=ev,
        catalog_id="example_4_17_i",
        properties=frozenset({HERMITIAN_SYMMETRIC, CPSD_CLAIMED}),
    )


def _example_4_17_ii(generator: dict, m: int, n: int | None = None) -> MatrixFunction:
    """Scalar conditionally-PSD generator times the all-ones m x m matrix.

    The generator combines the analytically certain families
    alpha + i (beta . x) - (x . (A x)) with real alpha, real beta, and PSD A.
    """
    alpha = float(generator.get("const", 0.0))
    lin = generator.get("linear")
    quad = generator.get("quadratic")
    if n is None:
        if lin is not None:
            n = len(lin)
        elif quad is not None:
            n = len(quad)
        else:
            n = 1
    beta = np.zeros(n) if lin is None else np.atleast_1d(np.asarray(lin, dtype=float))
    if beta.shape != (n,):
        raise InputError("linear coefficient dimension mismatch")
    A = np.zeros((n, n)) if quad is None else np.asarray(quad, dtype=float)
    if A.shape != (n, n):
        raise InputError("quadratic coefficient must be n x n")
    if quad is not None and not psd_check(A.astype(complex)).verdict:
        raise InputError("quadratic coefficient must be PSD")
    H = np.ones((m, m), dtype=np.complex128)

    def ev(X):
        # Stacked 1 x n products keep each value bit-identical to per-point
        # beta @ x and x @ (A @ x); X @ beta or an einsum round differently.
        lin = (X[:, None, :] @ beta)[:, 0]
        quad = (X[:, None, :] @ (A @ X[:, :, None]))[:, 0, 0]
        g0 = alpha + 1j * lin - quad
        return g0[:, None, None] * H

    return MatrixFunction(
        n=n,
        m=m,
        evaluator=ev,
        catalog_id="example_4_17_ii",
        properties=frozenset({HERMITIAN_SYMMETRIC, CPSD_CLAIMED}),
    )


def _constant(A, n: int = 1) -> MatrixFunction:
    A = as_cmatrix(A)
    props = {HERMITIAN_SYMMETRIC} if op_norm(A - A.conj().T) < 1e-12 else set()
    if psd_check(A).verdict:
        props |= {PSD_CLAIMED, CPSD_CLAIMED}
    elif op_norm(A - A.conj().T) < 1e-12 and cpsd_check(A).verdict:
        props.add(CPSD_CLAIMED)
    return MatrixFunction(
        n=n,
        m=A.shape[0],
        evaluator=lambda X: np.broadcast_to(A, (len(X),) + A.shape),
        catalog_id="constant",
        properties=frozenset(props),
    )


def _bochner(mu) -> MatrixFunction:
    """Transform of a nonnegative atomic measure; positive semidefinite by construction."""
    props = {HERMITIAN_SYMMETRIC, PSD_CLAIMED, CPSD_CLAIMED} if mu.is_nonnegative().verdict else set()
    return MatrixFunction(
        n=mu.n,
        m=mu.m,
        evaluator=mu.fourier,
        catalog_id="bochner",
        properties=frozenset(props),
    )


CATALOG: dict[str, CatalogEntry] = {
    "example_2_13": CatalogEntry(
        id="example_2_13",
        factory=_example_2_13,
        defaults={"n": 1},
        truth={
            "cpsd": False,
            "weak_cpsd": True,
            "psd": False,
            "f0_nonpositive": True,
            "hermitian_symmetric": True,
        },
        notes="constant log(1/2) * I_2; weakly conditionally PSD but not conditionally PSD",
    ),
    "remark_4_5b": CatalogEntry(
        id="remark_4_5b",
        factory=_remark_4_5b,
        defaults={"s": 1.0},
        truth={
            "cpsd": False,
            "psd": False,
            "f0_nonpositive": True,
            "hermitian_symmetric": True,
            "shifted_gram_zero": True,
        },
        notes="F(x) = i x S with S_{12} = i s; shifted Gram vanishes identically yet F is not conditionally PSD",
    ),
    "example_4_17_i": CatalogEntry(
        id="example_4_17_i",
        factory=_example_4_17_i,
        defaults={"a": 2.0, "b": 1.0, "c": 2.0, "y0": [1.0]},
        truth={"cpsd": True, "hermitian_symmetric": True},
        notes="2x2 drift-plus-log family, conditionally PSD whenever a*c >= b^2",
    ),
    "example_4_17_ii": CatalogEntry(
        id="example_4_17_ii",
        factory=_example_4_17_ii,
        defaults={"generator": {"quadratic": [[1.0]]}, "m": 2},
        truth={"cpsd": True, "hermitian_symmetric": True},
        notes="scalar conditionally-PSD generator alpha + i(beta.x) - x.(Ax) times the all-ones matrix",
    ),
    "constant": CatalogEntry(
        id="constant",
        factory=_constant,
        defaults={"A": [[0.0]], "n": 1},
        truth={},
        notes="constant matrix; positivity properties inherited from the matrix itself",
    ),
    "bochner": CatalogEntry(
        id="bochner",
        factory=_bochner,
        defaults={},
        truth={"psd": True, "cpsd": True},
        notes="Fourier transform of a nonnegative atomic matrix measure (positive semidefinite)",
    ),
}


def make_function(catalog_id: str, **params) -> MatrixFunction:
    entry = CATALOG.get(catalog_id)
    if entry is None:
        raise InputError(f"unknown catalog id {catalog_id!r}; known: {sorted(CATALOG)}")
    return entry.make(**params)


@dataclass(frozen=True)
class DefaultCase:
    """A concrete catalog instantiation with pinned parameters and ground truth."""

    label: str
    function: MatrixFunction
    f0_nonpositive: bool

    @property
    def cpsd(self) -> bool:
        """Whether the function is conditionally PSD, as its properties declare."""
        return self.function.claims(CPSD_CLAIMED)


def default_cases() -> list[DefaultCase]:
    """The standard battery used by the verification suite (m <= 4, n <= 3)."""
    ones_m2 = np.ones((2, 2))
    return [
        DefaultCase("example_2_13", make_function("example_2_13"), f0_nonpositive=True),
        DefaultCase("remark_4_5b(s=1)", make_function("remark_4_5b", s=1.0), f0_nonpositive=True),
        DefaultCase(
            "example_4_17_i(2,1,2)",
            make_function("example_4_17_i", a=2.0, b=1.0, c=2.0, y0=[1.0]),
            f0_nonpositive=False,
        ),
        DefaultCase(
            "example_4_17_i(0.5,0.5,0.5)_n2",
            make_function("example_4_17_i", a=0.5, b=0.5, c=0.5, y0=[1.0, -0.5]),
            f0_nonpositive=True,
        ),
        DefaultCase(
            "example_4_17_ii(quadratic)_m3",
            make_function("example_4_17_ii", generator={"quadratic": np.eye(1).tolist()}, m=3),
            f0_nonpositive=True,
        ),
        DefaultCase(
            "example_4_17_ii(mixed)_m4_n3",
            make_function(
                "example_4_17_ii",
                generator={
                    "const": -0.5,
                    "linear": [1.0, 0.0, -1.0],
                    "quadratic": np.diag([1.0, 0.5, 2.0]).tolist(),
                },
                m=4,
            ),
            f0_nonpositive=True,
        ),
        DefaultCase("constant(-ones)", make_function("constant", A=-ones_m2, n=1), f0_nonpositive=True),
        DefaultCase(
            "constant(ones_3x3)_n2",
            make_function("constant", A=np.ones((3, 3)), n=2),
            f0_nonpositive=False,
        ),
    ]
