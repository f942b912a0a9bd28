"""The verification suite: every headline property and counterexample, runnable end to end.

Each criterion function takes a master seed and returns a Report whose
`passed` field means "the computation behaved exactly as predicted" - for
counterexamples that means the expected failure occurred. All randomness is
derived from the seed, so reports are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField, GridSpec, dft, hs_l2_norm, idft
from .matcore import Report, hadamard_exp, op_norm, psd_check
from .measures import (
    convolve,
    entrywise_variation,
    gaussian_all_entries,
    gaussian_entry_11,
    matrix_measure,
)
from .oplab import (
    appendix_a_counterexample,
    apply_multiplier,
    gaussian_probe_family,
    k_a_bound_check,
    l1_norm_bounds_check,
    l2_multiplier_norm,
    l2_triple_norm_bounds_check,
    positivity_preserving_sup_bounds_check,
    positivity_probe,
    right_mult_norm,
    scalar_symbol,
    separable_gaussian_field,
    symbol_from_measure,
    theorem_4_12_witness,
    trace_positivity_check,
)
from .psdfun import (
    cpsd_function_check,
    default_cases,
    gram,
    growth_bound_estimate,
    lemma_4_13_check,
    make_function,
    random_point_set,
    schoenberg_gram,
    weak_cpsd_check,
)

TWO_PI = 2.0 * np.pi
T_GRID = (0.01, 0.1, 1.0, 10.0)


def _rand_point_sets(n: int, count: int, seed: int, max_points: int = 6, radius: float = 3.0):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        N = int(rng.integers(1, max_points + 1))
        sub = int(rng.integers(0, 2**31))
        sets.append(random_point_set(n, N, radius, seed=sub))
    return sets


def _grid_snapped_measure(spec: GridSpec, m: int, count: int, rng):
    locs = spec.axis_points()[rng.choice(spec.K, size=count, replace=False)]
    atoms = [
        (np.array([l]), rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        for l in locs
    ]
    return matrix_measure(1, m, atoms)


def criterion_example_2_13(seed: int) -> Report:
    """Entrywise exponential of the log-half diagonal: values, spectrum, and the
    split verdicts that separate the two conditional-positivity notions."""
    rep = Report(kind="example_2_13", meta={"seed": seed})
    A = np.log(0.5) * np.eye(2)
    E = hadamard_exp(A)
    expected = np.array([[0.5, 1.0], [1.0, 0.5]])
    rep.add("exp_values", np.abs(E - expected).max() <= 1e-12, matrix=E)
    eigs = np.sort(np.linalg.eigvalsh(E.real))
    rep.add("eigenvalues", np.abs(eigs - np.array([-0.5, 1.5])).max() <= 1e-12,
            eigenvalues=eigs)
    F = make_function("example_2_13")
    X = random_point_set(1, 4, 2.0, seed=seed)
    crep = cpsd_function_check(F, X)
    witness = crep.check("constrained_psd")["witness"]
    rep.add("cpsd_false_with_witness", (not crep.passed) and witness is not None,
            min_eig=crep.check("constrained_psd")["min_eig"])
    directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
    rep.add("weak_cpsd_true", weak_cpsd_check(F, X, directions).passed)
    return rep


def criterion_schoenberg_suite(seed: int) -> Report:
    """Conditional positivity against entrywise-exponential positivity over the catalog."""
    rep = Report(kind="schoenberg_suite", meta={"seed": seed, "t_grid": list(T_GRID)})
    for case_index, case in enumerate(default_cases()):
        F = case.function
        if case.cpsd:
            worst = np.inf
            for X in _rand_point_sets(F.n, 50, seed + 1000 * case_index):
                G = gram(F, X).matrix
                for t in T_GRID:
                    v = psd_check(hadamard_exp(G, t), tol=1e-8)
                    worst = min(worst, v.min_eigenvalue)
            rep.add(f"psd_exp[{case.label}]", worst >= -1e-8, worst_min_eig=worst)
        else:
            found = None
            grams = [gram(F, X).matrix for X in _rand_point_sets(F.n, 10, seed + 1)]
            for t in T_GRID:
                for i, G in enumerate(grams):
                    v = psd_check(hadamard_exp(G, t), tol=1e-8)
                    if not v.verdict:
                        found = {"t": t, "point_set": i, "min_eig": v.min_eigenvalue,
                                 "direction": v.witness}
                        break
                if found:
                    break
            rep.add(f"violation_witness[{case.label}]", found is not None, witness=found)
    return rep


def criterion_remark_4_5b(seed: int) -> Report:
    """Shifted Gram vanishes while the plain Gram form goes negative."""
    s = 1.0
    F = make_function("remark_4_5b", s=s)
    rep = Report(kind="remark_4_5b", meta={"seed": seed, "s": s})
    X = random_point_set(1, 6, 5.0, seed=seed)
    G = schoenberg_gram(F, X).matrix
    rep.add("shifted_gram_zero", np.abs(G).max() < 1e-14, max_entry=float(np.abs(G).max()))
    from .psdfun import PointSet

    X2 = PointSet(n=1, points=[[1.0], [0.0]])
    G2 = gram(F, X2).matrix
    c = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex)
    form = complex(c.conj() @ G2 @ c)
    rep.add("witness_quadratic_form", abs(form - (-2.0 * s)) <= 1e-12, form=form,
            expected=-2.0 * s)
    return rep


def criterion_shifted_gram_psd(seed: int) -> Report:
    """Shifted Grams of conditionally PSD functions with nonpositive origin value."""
    rep = Report(kind="shifted_gram_psd", meta={"seed": seed})
    for case in default_cases():
        if not (case.cpsd and case.f0_nonpositive):
            continue
        worst = np.inf
        for X in _rand_point_sets(case.function.n, 50, seed + 2):
            v = psd_check(schoenberg_gram(case.function, X).matrix, tol=1e-8)
            worst = min(worst, v.min_eigenvalue)
        rep.add(f"shifted_psd[{case.label}]", worst >= -1e-8, worst_min_eig=worst)
    return rep


def criterion_appendix_a(seed: int) -> Report:
    spec = GridSpec(n=1, L=40.0, K=4096)
    return appendix_a_counterexample(spec, eps=0.05)


def criterion_right_mult_and_l2_norm(seed: int) -> Report:
    """Right-multiplication norm identity and the two-route multiplier norm."""
    rep = Report(kind="right_mult_and_l2_norm", meta={"seed": seed})
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        worst = max(worst, abs(right_mult_norm(A) - op_norm(A)))
    rep.add("right_mult_norm_identity", worst <= 1e-10, worst_gap=worst)

    spec = GridSpec(n=1, L=40.0, K=512)
    worst_rel = 0.0
    for i in range(10):
        mu = _grid_snapped_measure(spec, 3, count=int(rng.integers(2, 6)), rng=rng)
        sup_e, pow_e = l2_multiplier_norm(symbol_from_measure(mu), spec, seed=seed + i)
        worst_rel = max(worst_rel, abs(sup_e.value - pow_e.value) / sup_e.value)
    rep.add("supremum_vs_power_iteration", worst_rel <= 0.02, worst_relative_gap=worst_rel)
    return rep


def criterion_l1_bounds(seed: int) -> Report:
    """Entrywise-L^1 multiplier bounds: random measures inside, witnesses sharp."""
    rep = Report(kind="l1_bounds", meta={"seed": seed})
    spec = GridSpec(n=1, L=40.0, K=1024)
    rng = np.random.default_rng(seed)
    scale = TWO_PI ** (-0.5)

    upper_ok = True
    for trial in range(20):
        m = int(rng.integers(1, 4))
        count = int(rng.integers(2, 6))
        locs = rng.choice(np.arange(-12.0, 12.5, 2.5), size=count, replace=False)
        atoms = [
            (np.array([l]), rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            for l in locs
        ]
        mu = matrix_measure(1, m, atoms)
        sub = l1_norm_bounds_check(mu, spec, seed=seed + trial)
        upper_ok = upper_ok and sub.check("upper_bound")["passed"]
    rep.add("random_measures_within_upper", upper_ok)

    mu0 = gaussian_entry_11(m=2)
    sub0 = l1_norm_bounds_check(mu0, spec, seed=seed)
    est0 = sub0.check("lower_sharpness")["estimate"]
    rep.add("corner_gaussian_lower_sharpness",
            est0 >= 0.9 * scale * entrywise_variation(mu0), estimate=est0)

    m = 2
    mu1 = gaussian_all_entries(m=m)
    sub1 = l1_norm_bounds_check(mu1, spec, seed=seed)
    est1 = sub1.check("lower_sharpness")["estimate"]
    rep.add("full_gaussian_upper_sharpness",
            est1 >= 0.9 * m * scale * entrywise_variation(mu1), estimate=est1)
    return rep


def criterion_l2_bounds(seed: int) -> Report:
    """Entrywise-L^2 multiplier bounds: corner and all-ones symbols are sharp."""
    rep = Report(kind="l2_bounds", meta={"seed": seed})
    spec = GridSpec(n=1, L=40.0, K=512)
    from .oplab import constant_symbol

    F0 = constant_symbol(np.array([[1.0, 0.0], [0.0, 0.0]]))
    sub0 = l2_triple_norm_bounds_check(F0, spec, seed=seed)
    est0 = sub0.check("lower_sharpness")["estimate"]
    rep.add("corner_symbol_within_5pct", abs(est0 - 1.0) <= 0.05, estimate=est0)

    m = 2
    F1 = constant_symbol(np.ones((m, m)))
    sub1 = l2_triple_norm_bounds_check(F1, spec, seed=seed)
    est1 = sub1.check("lower_sharpness")["estimate"]
    rep.add("all_ones_upper_sharpness", est1 >= 0.9 * m, estimate=est1)

    rng = np.random.default_rng(seed)
    both_ok = True
    for i in range(5):
        mu = _grid_snapped_measure(spec, 3, count=3, rng=rng)
        sub = l2_triple_norm_bounds_check(symbol_from_measure(mu), spec, seed=seed + i)
        both_ok = both_ok and sub.check("upper_bound")["passed"]
    rep.add("random_symbols_within_bounds", both_ok)
    return rep


def criterion_trace_condition(seed: int) -> Report:
    """Trace nonnegativity of the exponential multiplier: holds iff conditionally PSD."""
    rep = Report(kind="trace_condition", meta={"seed": seed})
    probe_cache: dict[int, list[GridField]] = {}
    spec = GridSpec(n=1, L=40.0, K=256)

    def probes_for(m: int):
        if m not in probe_cache:
            probe_cache[m] = gaussian_probe_family(spec, m, 10, seed=seed + m)
        return probe_cache[m]

    for case in default_cases():
        F = case.function
        if F.n != 1:
            continue
        if case.cpsd:
            worst = np.inf
            for t in (0.5, 1.0, 2.0):
                sub = trace_positivity_check(F, t, probes_for(F.m), tol=1e-8)
                worst = min(worst, sub.check("trace_nonnegative")["min_trace"])
            rep.add(f"trace_nonneg[{case.label}]", worst >= -1e-8, worst_min_trace=worst)

    F0 = make_function("remark_4_5b", s=1.0)
    found = None
    for t in (0.25, 0.5, 1.0):
        sub = trace_positivity_check(F0, t, probes_for(2), tol=1e-8)
        entry = sub.check("trace_nonnegative")
        if not entry["passed"]:
            found = {"t": t, "min_trace": entry["min_trace"],
                     "location": entry["worst_location"], "probe": entry["worst_probe"]}
            break
    rep.add("non_cpsd_trace_fails", found is not None, witness=found)
    return rep


def criterion_theorem_4_12(seed: int) -> Report:
    """The exponential multiplier of a matrix function is never positivity preserving
    (m >= 2), while the scalar case is."""
    rep = Report(kind="theorem_4_12", meta={"seed": seed})
    spec = GridSpec(n=1, L=40.0, K=1024)
    F2 = make_function("example_4_17_i", a=2.0, b=1.0, c=2.0, y0=[1.0])

    sub = theorem_4_12_witness(F2, t=1.0, spec=spec, D=np.diag([1.0, 2.0]))
    rep.add("matrix_witness_found", sub.meta["status"] == "witness_found",
            detail=sub.check("witness_search"))

    sub_id = theorem_4_12_witness(F2, t=1.0, spec=spec, D=np.eye(2))
    rep.add("identity_direction_inconclusive", sub_id.meta["status"] == "inconclusive")

    Fs = make_function("example_4_17_ii", generator={"quadratic": [[0.5]]}, m=1)
    sub_s = theorem_4_12_witness(Fs, t=1.0, spec=spec)
    rep.add("scalar_control_inconclusive", sub_s.meta["status"] == "inconclusive")

    t = 1.0
    g = lambda pts: np.exp(-t * np.sum(pts**2, axis=-1))
    probes = gaussian_probe_family(spec, 1, 5, seed=seed)
    rep.add("scalar_gaussian_probe_passes",
            positivity_probe(scalar_symbol(g, 1), probes, tol=1e-10).passed)
    return rep


def criterion_kernel_bound(seed: int) -> Report:
    """Exponential-kernel transform mass and the smoothing bound on random symbols."""
    rep = Report(kind="kernel_bound", meta={"seed": seed})
    spec = GridSpec(n=1, L=80.0, K=4096)
    from .oplab import constant_symbol

    sub = k_a_bound_check(1.0, constant_symbol(np.eye(2)), spec, kernel_tol=1e-3)
    rep.add("kernel_transform_l1", sub.check("kernel_transform_l1")["passed"],
            value=sub.check("kernel_transform_l1")["value"])

    rng = np.random.default_rng(seed)
    small = GridSpec(n=1, L=80.0, K=1024)
    all_ok = True
    for _ in range(10):
        m = int(rng.integers(1, 4))
        mu = _grid_snapped_measure(small, m, count=int(rng.integers(2, 5)), rng=rng)
        sub = k_a_bound_check(rng.uniform(0.5, 2.0), symbol_from_measure(mu), small)
        all_ok = all_ok and sub.check("smoothed_sup_bound")["passed"]
    rep.add("smoothing_bound_random_symbols", all_ok)
    return rep


def criterion_sup_bounds(seed: int) -> Report:
    """A-priori sup bounds for the diagonal positivity-preserving family."""
    rep = Report(kind="sup_bounds", meta={"seed": seed})
    spec = GridSpec(n=1, L=40.0, K=256)
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3):
        width = float(rng.uniform(0.5, 1.5))
        g = lambda pts, w=width: np.exp(-0.5 * w * np.sum(pts**2, axis=-1))
        sym = scalar_symbol(g, m)
        probes = []
        for f in gaussian_probe_family(spec, m, 4, seed=seed + m):
            peak = float(np.abs(f.values).max())
            probes.append(f.copy_with(f.values / peak))
        G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        G = G / (np.abs(G).max() + 1e-12)
        probes.append(separable_gaussian_field(spec, m, 1.0, G))
        sub = positivity_preserving_sup_bounds_check(sym, probes)
        rep.add(f"bounds_m={m}", sub.passed)
    return rep


def criterion_growth_and_inequalities(seed: int) -> Report:
    """Quadratic growth and the four necessary inequalities on seeded pairs."""
    rep = Report(kind="growth_and_inequalities", meta={"seed": seed})
    rng = np.random.default_rng(seed)
    for case in default_cases():
        if not (case.cpsd and case.f0_nonpositive):
            continue
        F = case.function
        pairs = [
            (rng.uniform(-5, 5, F.n), rng.uniform(-5, 5, F.n)) for _ in range(200)
        ]
        sub = lemma_4_13_check(F, pairs, tol=1e-8)
        rep.add(f"inequalities[{case.label}]", sub.passed)
        growth = growth_bound_estimate(
            F, radii=(1.0, 10.0, 100.0, 1000.0), samples_per_radius=32, seed=seed
        )
        rep.add(f"growth[{case.label}]", growth.passed,
                ratio_sup=growth.check("ratio_within_local_bound")["ratio_sup"],
                c_prime=growth.check("ratio_within_local_bound")["c_prime"])
    return rep


def criterion_cross_module_oracle(seed: int) -> Report:
    """Multiplier route equals the scaled convolution route for atomic measures."""
    rep = Report(kind="cross_module_oracle", meta={"seed": seed})
    spec = GridSpec(n=1, L=20.0, K=512)
    rng = np.random.default_rng(seed)
    scale = TWO_PI ** (-0.5)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 4))
        mu = _grid_snapped_measure(spec, m, count=int(rng.integers(1, 7)), rng=rng)
        shape = (spec.K, m, m)
        f = GridField(spec=spec, m=m,
                      values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        lhs = apply_multiplier(symbol_from_measure(mu), f)
        rhs = convolve(mu, f)
        rel = float(np.abs(lhs.values - scale * rhs.values).max() / np.abs(lhs.values).max())
        worst = max(worst, rel)
    rep.add("multiplier_equals_scaled_convolution", worst <= 1e-6, worst_relative_error=worst)
    return rep


def criterion_transform_pair(seed: int) -> Report:
    """Inverse exactness and norm preservation of the discrete transform pair."""
    rep = Report(kind="transform_pair", meta={"seed": seed})
    rng = np.random.default_rng(seed)
    for K in (64, 256, 1024, 4096):
        spec = GridSpec(n=1, L=40.0, K=K)
        shape = (K, 2, 2)
        f = GridField(spec=spec, m=2,
                      values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        back = idft(dft(f))
        round_err = float(np.abs(back.values - f.values).max())
        a, b = hs_l2_norm(f), hs_l2_norm(dft(f))
        rep.add(f"roundtrip_K={K}", round_err <= 1e-12, error=round_err)
        rep.add(f"plancherel_K={K}", abs(a - b) <= 1e-10 * a, gap=abs(a - b))
    return rep


CRITERIA = [
    ("example_2_13", criterion_example_2_13),
    ("schoenberg_suite", criterion_schoenberg_suite),
    ("remark_4_5b", criterion_remark_4_5b),
    ("shifted_gram_psd", criterion_shifted_gram_psd),
    ("appendix_a", criterion_appendix_a),
    ("right_mult_and_l2_norm", criterion_right_mult_and_l2_norm),
    ("l1_bounds", criterion_l1_bounds),
    ("l2_bounds", criterion_l2_bounds),
    ("trace_condition", criterion_trace_condition),
    ("theorem_4_12", criterion_theorem_4_12),
    ("kernel_bound", criterion_kernel_bound),
    ("sup_bounds", criterion_sup_bounds),
    ("growth_and_inequalities", criterion_growth_and_inequalities),
    ("cross_module_oracle", criterion_cross_module_oracle),
    ("transform_pair", criterion_transform_pair),
]


def run_all(seed: int = 7) -> list[tuple[str, Report]]:
    return [(name, fn(seed)) for name, fn in CRITERIA]
