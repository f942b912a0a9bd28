"""Multiplier laboratory: operator identities, norm bounds, counterexample experiments."""

import math

import numpy as np
import pytest

from mpsd.grid import GridField, GridSpec, bump_field, translate
from mpsd.matcore import InputError, ResolutionError, op_norm
from mpsd.measures import (
    appendix_a_measure,
    gaussian_all_entries,
    gaussian_entry_11,
    gaussian_measure,
    matrix_measure,
    point_mass,
)
from mpsd.oplab import (
    MultiplierSymbol,
    apply_multiplier,
    appendix_a_counterexample,
    appendix_a_diagonal_control,
    constant_symbol,
    gaussian_probe_family,
    hadamard_derivative_check,
    k_a_bound_check,
    l1_norm_bounds_check,
    l2_multiplier_norm,
    l2_triple_norm_bounds_check,
    mollifier_recovery_check,
    positivity_preserving_sup_bounds_check,
    positivity_probe,
    right_mult_norm,
    scalar_symbol,
    separable_gaussian_field,
    symbol_from_function,
    symbol_from_measure,
    theorem_4_12_witness,
    trace_positivity_check,
)
from mpsd.psdfun import MatrixFunction, make_function

TWO_PI = 2.0 * np.pi


def rand_field(spec, m, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.K,) * spec.n + (m, m)
    return GridField(
        spec=spec, m=m, values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def grid_snapped_measure(spec, m, count, seed):
    rng = np.random.default_rng(seed)
    locs = spec.axis_points()[rng.choice(spec.K, size=count, replace=False)]
    atoms = [
        (np.array([l]), rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        for l in locs
    ]
    return matrix_measure(1, m, atoms)


class TestApplyMultiplier:
    def test_identity_symbol(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        f = rand_field(spec, 2, seed=1)
        out = apply_multiplier(constant_symbol(np.eye(2)), f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-13)

    def test_constant_symbol_right_multiplies(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        f = rand_field(spec, 2, seed=2)
        A = np.array([[1.0, 2.0], [3j, 0.5]])
        out = apply_multiplier(constant_symbol(A), f)
        np.testing.assert_allclose(out.values, f.values @ A, atol=1e-12)

    def test_measure_symbol_matches_convolution(self):
        # Cross-module oracle: the multiplier of a transform equals the
        # scaled convolution operator for grid-snapped atoms.
        from mpsd.measures import convolve

        spec = GridSpec(n=1, L=20.0, K=512)
        mu = grid_snapped_measure(spec, 2, count=5, seed=3)
        f = rand_field(spec, 2, seed=4)
        lhs = apply_multiplier(symbol_from_measure(mu), f)
        rhs = convolve(mu, f)
        scale = TWO_PI ** (-0.5)
        err = np.abs(lhs.values - scale * rhs.values).max()
        assert err <= 1e-6 * np.abs(lhs.values).max()

    def test_composition_is_pointwise_product(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        f = rand_field(spec, 2, seed=5)
        rng = np.random.default_rng(6)
        Fv = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
        Gv = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
        # Each evaluator ignores the points and returns its values in FFT order.
        F = MultiplierSymbol(2, evaluator=lambda pts: Fv)
        G = MultiplierSymbol(2, evaluator=lambda pts: Gv)
        GF = MultiplierSymbol(2, evaluator=lambda pts: Gv @ Fv)
        lhs = apply_multiplier(F, apply_multiplier(G, f))
        rhs = apply_multiplier(GF, f)
        assert np.abs(lhs.values - rhs.values).max() < 1e-10

    def test_left_matrix_linearity(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        f = rand_field(spec, 2, seed=7)
        A = np.array([[0.0, 1.0], [1j, 2.0]])
        sym = symbol_from_measure(grid_snapped_measure(spec, 2, count=3, seed=8))
        lhs = apply_multiplier(sym, f.copy_with(A @ f.values))
        rhs = apply_multiplier(sym, f)
        np.testing.assert_allclose(lhs.values, A @ rhs.values, atol=1e-12)

    def test_commutes_with_grid_translation(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        f = rand_field(spec, 2, seed=9)
        sym = symbol_from_measure(grid_snapped_measure(spec, 2, count=3, seed=10))
        lhs = apply_multiplier(sym, translate(f, 7))
        rhs = translate(apply_multiplier(sym, f), 7)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)

    def test_two_dimensional_multiplier_matches_convolution(self):
        from mpsd.measures import convolve, matrix_measure

        spec = GridSpec(n=2, L=16.0, K=32)
        ax = spec.axis_points()
        atoms = [
            (np.array([ax[4], ax[20]]), np.array([[1.0, 0.5j], [0.0, 2.0]])),
            (np.array([ax[10], ax[10]]), np.eye(2)),
        ]
        mu = matrix_measure(2, 2, atoms)
        f = rand_field(spec, 2, seed=12)
        lhs = apply_multiplier(symbol_from_measure(mu), f)
        rhs = convolve(mu, f)
        scale = TWO_PI ** (-2 / 2)
        err = np.abs(lhs.values - scale * rhs.values).max()
        assert err <= 1e-10 * np.abs(lhs.values).max()

    def test_two_dimensional_positivity_probe(self):
        from mpsd.measures import gaussian_measure

        spec = GridSpec(n=2, L=16.0, K=32)
        mu = gaussian_measure(2, 4.0, 16, np.eye(2))
        probes = gaussian_probe_family(spec, 2, 3, seed=13, width_range=(0.8, 1.2))
        assert positivity_probe(symbol_from_measure(mu), probes, tol=1e-8).passed


def counting_symbol(m=2):
    """A symbol whose evaluator records each call; values depend on the points."""
    calls = []

    def ev(pts):
        calls.append(len(pts))
        return np.exp(-pts[:, :1, None] ** 2) * np.eye(m)

    return MultiplierSymbol(m, evaluator=ev, label="counted"), calls


class TestSymbolOnGrid:
    def test_evaluated_once_per_grid(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        sym, calls = counting_symbol()
        first = sym.on_grid(spec)
        f = rand_field(spec, 2, seed=40)
        apply_multiplier(sym, f)
        second = sym.on_grid(spec)
        assert calls == [64]
        assert second is first
        np.testing.assert_array_equal(first[:, 0, 0], np.exp(-spec.axis_freqs() ** 2))

    def test_cached_values_are_read_only(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        sym, _ = counting_symbol()
        vals = sym.on_grid(spec)
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0, 0, 0] = 1.0

    def test_other_grid_gets_fresh_values(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        other = GridSpec(n=2, L=8.0, K=16)
        sym, calls = counting_symbol()
        a = sym.on_grid(spec)
        b = sym.on_grid(other)
        assert calls == [64, 256]
        assert b.shape == (16, 16, 2, 2)
        np.testing.assert_array_equal(b[:, :, 0, 0],
                                      np.exp(-other.freq_points()[..., 0] ** 2))
        assert sym.on_grid(spec) is a and sym.on_grid(other) is b
        assert calls == [64, 256]

    def test_evaluator_view_is_copied(self):
        # A view of storage the evaluator keeps is copied before caching, so a
        # later change to that storage cannot reach the cached values.
        spec = GridSpec(n=1, L=16.0, K=64)
        store = np.ones((2 * spec.K, 1, 1), dtype=np.complex128)
        sym = MultiplierSymbol(1, evaluator=lambda pts: store[: len(pts)])
        vals = sym.on_grid(spec)
        store[:] = 5.0
        np.testing.assert_array_equal(vals, np.ones((spec.K, 1, 1)))
        assert store.flags.writeable

    def test_unbounded_symbol_raises_on_every_call(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        calls = []

        def ev(pts):
            calls.append(1)
            return 1.0 / pts[:, :1, None] * np.eye(2)  # infinite at frequency 0

        sym = MultiplierSymbol(2, evaluator=ev, label="pole")
        for attempt in (1, 2):
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(InputError, match="unbounded"):
                sym.on_grid(spec)
            assert len(calls) == attempt

    def test_adjoint_of_cached_symbol(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        A = np.array([[1.0, 2.0], [3j, 0.5]])
        sym = constant_symbol(A)
        sym.on_grid(spec)
        adj = sym.adjoint().on_grid(spec)
        np.testing.assert_array_equal(adj, np.broadcast_to(A.conj().T, adj.shape))
        assert not adj.flags.writeable


class TestL2MultiplierNorm:
    def test_constant_symbol_gives_op_norm(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        A = np.array([[1.0, 2.0], [0.0, 1j]])
        sup_e, pow_e = l2_multiplier_norm(constant_symbol(A), spec, seed=1)
        assert sup_e.value == pytest.approx(op_norm(A), rel=1e-12)
        assert pow_e.value == pytest.approx(op_norm(A), rel=1e-6)

    def test_scalar_symbol_gives_sup(self):
        spec = GridSpec(n=1, L=16.0, K=128)
        g = lambda pts: 1.0 / (1.0 + np.sum(pts**2, axis=-1))
        sup_e, pow_e = l2_multiplier_norm(scalar_symbol(g, 1), spec, seed=2)
        assert sup_e.value == pytest.approx(1.0, rel=1e-12)
        assert pow_e.value == pytest.approx(1.0, rel=0.02)

    def test_random_smooth_symbols_agree_within_2pct(self):
        spec = GridSpec(n=1, L=40.0, K=512)
        for seed in range(3):
            mu = grid_snapped_measure(spec, 3, count=4, seed=20 + seed)
            sup_e, pow_e = l2_multiplier_norm(symbol_from_measure(mu), spec, seed=seed)
            assert abs(sup_e.value - pow_e.value) <= 0.02 * sup_e.value


class TestRightMultNorm:
    def test_diagonal(self):
        assert right_mult_norm(np.diag([1.0, 2.0])) == pytest.approx(2.0)

    def test_nilpotent(self):
        assert right_mult_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_hundred_random_matrices(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            assert right_mult_norm(A) == pytest.approx(op_norm(A), abs=1e-10)


class TestPositivityProbe:
    def test_scalar_gaussian_times_identity_passes(self):
        spec = GridSpec(n=1, L=40.0, K=256)
        mu = gaussian_measure(1, 6.0, 128, np.eye(2))
        probes = gaussian_probe_family(spec, 2, 4, seed=1)
        assert positivity_probe(symbol_from_measure(mu), probes, tol=1e-8).passed

    def test_appendix_a_symbol_fails_on_paper_probe(self):
        spec = GridSpec(n=1, L=40.0, K=4096)
        mu = appendix_a_measure(8.0, 512)
        probe = bump_field(spec, 2, radius=1.0, eps=0.05, D=np.array([[3.0, 1.0], [1.0, 3.0]]))
        rep = positivity_probe(symbol_from_measure(mu), [probe], tol=1e-8)
        assert not rep.passed
        assert rep.check("outputs_psd_valued")["worst_defect"] > 0.1

    def test_scalar_exponential_of_cpsd_generator_passes(self):
        # m = 1: exp(t G) with G(xi) = -xi^2 is the transform of a nonnegative
        # measure, hence positivity preserving.
        spec = GridSpec(n=1, L=40.0, K=256)
        t = 0.7
        g = lambda pts: np.exp(-t * np.sum(pts**2, axis=-1))
        probes = gaussian_probe_family(spec, 1, 4, seed=2)
        assert positivity_probe(scalar_symbol(g, 1), probes, tol=1e-10).passed

    def test_rejects_non_psd_probe(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        bad = separable_gaussian_field(spec, 2, 1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InputError):
            positivity_probe(constant_symbol(np.eye(2)), [bad])


class TestAppendixACounterexample:
    def test_acceptance_parameters(self):
        spec = GridSpec(n=1, L=40.0, K=4096)
        rep = appendix_a_counterexample(spec, eps=0.05)
        assert rep.passed  # all expectation checks hold
        ratio = rep.check("offdiagonal_ratio_near_2")["ratio"]
        assert 1.9 <= ratio.real <= 2.1
        assert not rep.check("output_not_psd")["verdict"]
        assert rep.check("entrywise_limit_within_5pct")["relative_error"] <= 0.05
        assert rep.meta["observed_failure"]

    def test_under_resolved_grid_raises(self):
        spec = GridSpec(n=1, L=40.0, K=64)
        with pytest.raises(ResolutionError) as err:
            appendix_a_counterexample(spec, eps=0.05)
        assert err.value.min_samples is not None and err.value.min_samples > 64

    def test_diagonal_weights_commute(self):
        spec = GridSpec(n=1, L=40.0, K=2048)
        rep = appendix_a_diagonal_control(spec, eps=0.1, measure_cells=256)
        assert rep.passed


class TestTheorem412Witness:
    SPEC = GridSpec(n=1, L=40.0, K=1024)

    def test_witness_found_for_distinct_diagonal(self):
        F = make_function("example_4_17_i", a=2.0, b=1.0, c=2.0, y0=[1.0])
        rep = theorem_4_12_witness(F, t=1.0, spec=self.SPEC, D=np.diag([1.0, 2.0]))
        assert rep.meta["status"] == "witness_found"
        entry = rep.check("witness_search")
        # The single transform atom sits at t*y0 = 1; the violation is the
        # non-hermiticity of D W there, of size |d1 - d2| |W_12| / 2 = 0.5.
        assert entry["worst_defect"] == pytest.approx(0.5, abs=0.01)
        assert abs(entry["location"][0] - 1.0) < 0.1

    def test_identity_direction_is_inconclusive(self):
        F = make_function("example_4_17_i", a=2.0, b=1.0, c=2.0, y0=[1.0])
        rep = theorem_4_12_witness(F, t=1.0, spec=self.SPEC, D=np.eye(2))
        assert rep.meta["status"] == "inconclusive"

    def test_scalar_case_is_inconclusive(self):
        F = make_function("example_4_17_ii", generator={"quadratic": [[0.5]]}, m=1)
        rep = theorem_4_12_witness(F, t=1.0, spec=self.SPEC)
        assert rep.meta["status"] == "inconclusive"


class TestTracePositivity:
    SPEC = GridSpec(n=1, L=40.0, K=256)

    def test_cpsd_function_passes(self):
        F = make_function("example_4_17_i", a=2.0, b=1.0, c=2.0, y0=[1.0])
        probes = gaussian_probe_family(self.SPEC, 2, 10, seed=5)
        for t in (0.5, 1.0, 2.0):
            rep = trace_positivity_check(F, t, probes, tol=1e-8)
            assert rep.passed, f"t={t}: {rep.check('trace_nonnegative')['min_trace']}"

    def test_non_cpsd_function_fails(self):
        F = make_function("remark_4_5b", s=1.0)
        probes = gaussian_probe_family(self.SPEC, 2, 10, seed=5)
        rep = trace_positivity_check(F, 0.5, probes, tol=1e-8)
        entry = rep.check("trace_nonnegative")
        assert not rep.passed
        assert entry["min_trace"] < -1e-3
        assert entry["worst_location"] is not None

    def test_scalar_trace_coincides_with_positivity(self):
        # For m = 1 the trace of the output is the output itself, so the
        # trace condition and the positivity probe agree.
        t = 0.5
        g = lambda pts: np.exp(-t * np.sum(pts**2, axis=-1))
        F = make_function("example_4_17_ii", generator={"quadratic": [[1.0]]}, m=1)
        probes = gaussian_probe_family(self.SPEC, 1, 5, seed=6)
        trace_rep = trace_positivity_check(F, t, probes, tol=1e-10)
        probe_rep = positivity_probe(scalar_symbol(g, 1), probes, tol=1e-10)
        assert trace_rep.passed == probe_rep.passed is True


class TestL1NormBounds:
    SPEC = GridSpec(n=1, L=40.0, K=1024)
    SCALE = TWO_PI ** (-0.5)

    def test_corner_gaussian_attains_lower_bound(self):
        mu = gaussian_entry_11(m=2)
        rep = l1_norm_bounds_check(mu, self.SPEC, seed=1)
        entry = rep.check("lower_sharpness")
        assert rep.passed
        assert entry["estimate"] >= 0.9 * self.SCALE * 1.0
        # The operator only populates one output column: the estimate equals
        # the lower bound itself.
        assert entry["estimate"] == pytest.approx(self.SCALE, rel=1e-6)

    def test_full_gaussian_attains_upper_bound(self):
        m = 2
        mu = gaussian_all_entries(m=m)
        rep = l1_norm_bounds_check(mu, self.SPEC, seed=2)
        assert rep.passed
        assert rep.check("lower_sharpness")["estimate"] >= 0.9 * m * self.SCALE
        assert rep.check("upper_bound")["passed"]

    def test_identity_point_mass(self):
        mu = point_mass([0.0], np.eye(2))
        rep = l1_norm_bounds_check(mu, self.SPEC, seed=3)
        assert rep.check("lower_sharpness")["estimate"] == pytest.approx(self.SCALE, rel=1e-9)

    def test_random_separated_measures_respect_bounds(self):
        rng = np.random.default_rng(40)
        for trial in range(5):
            m = int(rng.integers(2, 4))
            count = int(rng.integers(2, 5))
            locs = rng.choice(np.arange(-12, 13, 3.0), size=count, replace=False)
            atoms = [
                (np.array([l]), rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
                for l in locs
            ]
            mu = matrix_measure(1, m, atoms)
            rep = l1_norm_bounds_check(mu, self.SPEC, seed=50 + trial)
            assert rep.passed, f"trial {trial}"


class TestL2TripleNormBounds:
    SPEC = GridSpec(n=1, L=40.0, K=512)

    def test_corner_symbol_attains_lower_bound(self):
        F0 = constant_symbol(np.array([[1.0, 0.0], [0.0, 0.0]]))
        rep = l2_triple_norm_bounds_check(F0, self.SPEC, seed=1)
        assert rep.passed
        assert rep.check("lower_sharpness")["estimate"] == pytest.approx(1.0, rel=0.05)

    def test_all_ones_symbol_attains_upper_bound(self):
        m = 2
        F1 = constant_symbol(np.ones((m, m)))
        rep = l2_triple_norm_bounds_check(F1, self.SPEC, seed=2)
        assert rep.passed
        assert rep.check("lower_sharpness")["estimate"] >= 0.9 * m

    def test_scalar_case_bounds_coincide(self):
        g = lambda pts: 1.0 / (1.0 + np.sum(pts**2, axis=-1))
        rep = l2_triple_norm_bounds_check(scalar_symbol(g, 1), self.SPEC, seed=3)
        assert rep.passed
        assert rep.check("lower_sharpness")["estimate"] == pytest.approx(1.0, rel=0.1)

    def test_random_smooth_symbols_respect_bounds(self):
        for seed in range(3):
            spec = self.SPEC
            mu = grid_snapped_measure(spec, 3, count=3, seed=60 + seed)
            rep = l2_triple_norm_bounds_check(symbol_from_measure(mu), spec, seed=seed)
            assert rep.check("upper_bound")["passed"]


class TestKaBound:
    def test_kernel_transform_l1_norm(self):
        spec = GridSpec(n=1, L=80.0, K=4096)
        rep = k_a_bound_check(1.0, constant_symbol(np.eye(2)), spec)
        entry = rep.check("kernel_transform_l1")
        assert entry["passed"]
        assert entry["value"] == pytest.approx(math.sqrt(TWO_PI), abs=1e-3)

    def test_identity_symbol_holds_with_unit_factor(self):
        spec = GridSpec(n=1, L=80.0, K=1024)
        rep = k_a_bound_check(1.0, constant_symbol(np.eye(2)), spec)
        entry = rep.check("smoothed_sup_bound")
        assert entry["passed"]
        assert entry["value"] == pytest.approx(1.0, abs=1e-3)

    def test_random_bounded_symbols(self):
        spec = GridSpec(n=1, L=80.0, K=1024)
        for seed in range(3):
            mu = grid_snapped_measure(spec, 2, count=3, seed=70 + seed)
            rep = k_a_bound_check(0.5, symbol_from_measure(mu), spec)
            assert rep.check("smoothed_sup_bound")["passed"]


class TestPositivityPreservingSupBounds:
    def test_gaussian_identity_family(self):
        spec = GridSpec(n=1, L=40.0, K=256)
        mu = gaussian_measure(1, 6.0, 128, np.eye(2))
        sym = symbol_from_measure(mu)
        psd_probe = separable_gaussian_field(
            spec, 2, 1.0, np.array([[1.0, 0.4], [0.4, 1.0]]) / 1.4
        )
        general_probe = separable_gaussian_field(
            spec, 2, 0.8, np.array([[0.3, 0.9j], [0.1, -0.5]])
        )
        rep = positivity_preserving_sup_bounds_check(sym, [psd_probe, general_probe])
        assert rep.passed
        names = [c["name"] for c in rep.checks]
        assert "probe_0_psd_bound" in names
        assert "probe_1_psd_bound" not in names  # sign-indefinite probe: only the general bound

    def test_scalar_case_factor_two(self):
        spec = GridSpec(n=1, L=40.0, K=256)
        mu = gaussian_measure(1, 6.0, 128, np.eye(1))
        probe = separable_gaussian_field(spec, 1, 1.0, np.eye(1))
        rep = positivity_preserving_sup_bounds_check(symbol_from_measure(mu), [probe])
        entry = rep.check("probe_0_psd_bound")
        assert entry["passed"]
        assert entry["bound"] == pytest.approx(2 * entry["bound"] / 2)  # c_1 = 1: bound is 2 ||F||

    def test_rejects_oversized_probe(self):
        spec = GridSpec(n=1, L=40.0, K=256)
        probe = separable_gaussian_field(spec, 1, 1.0, 3.0 * np.eye(1))
        with pytest.raises(InputError):
            positivity_preserving_sup_bounds_check(constant_symbol(np.eye(1)), [probe])


class TestMollifierRecovery:
    SPEC = GridSpec(n=1, L=40.0, K=1024)

    def test_point_mass_recovers_exactly(self):
        W = np.array([[2.0, 1.0], [1.0, 2.0]])
        mu = point_mass([0.0], math.sqrt(TWO_PI) * W)
        rep = mollifier_recovery_check(mu, self.SPEC, x_list=[0.0, 1.5], eps_list=[1.6, 0.8, 0.4])
        assert rep.passed
        for entry in rep.checks:
            assert max(entry["errors"]) < 1e-12

    def test_gridded_gaussian_errors_decrease(self):
        mu = gaussian_measure(1, 8.0, 512, np.eye(1))
        rep = mollifier_recovery_check(mu, self.SPEC, x_list=[0.0], eps_list=[1.6, 0.8, 0.4, 0.2])
        errors = rep.checks[0]["errors"]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_appendix_a_measure_recovers_analytic_transform(self):
        mu = appendix_a_measure(8.0, 512)
        rep = mollifier_recovery_check(mu, self.SPEC, x_list=[0.0], eps_list=[0.8, 0.4, 0.2])
        assert rep.checks[0]["final_error"] <= 1e-3
        # Cross-check the measure transform against the closed Gaussian form.
        analytic = TWO_PI ** (-0.5) * np.diag([1.0, 2.0])
        assert op_norm(mu.fourier(np.zeros(1)) - analytic) < 1e-6

    def test_rejects_signed_measure(self):
        mu = point_mass([0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InputError):
            mollifier_recovery_check(mu, self.SPEC, x_list=[0.0], eps_list=[0.5])


class TestHadamardDerivative:
    SPEC = GridSpec(n=1, L=40.0, K=256)

    def test_zero_function(self):
        F = make_function("constant", A=np.zeros((2, 2)), n=1)
        f = separable_gaussian_field(self.SPEC, 2, 1.0, np.eye(2))
        rep = hadamard_derivative_check(F, t=1.0, f=f, h=1e-3)
        assert rep.passed

    def test_constant_symbol_closed_form(self):
        A = np.array([[0.2, -0.3], [0.1, 0.4]])
        F = make_function("constant", A=A, n=1)
        f = separable_gaussian_field(self.SPEC, 2, 1.0, np.eye(2))
        t = 1.3
        rep = hadamard_derivative_check(F, t=t, f=f, h=1e-3)
        assert rep.passed
        # Analytic route equals f . (exp_H(tA) o A) pointwise.
        from mpsd.matcore import hadamard_exp, hadamard_product

        D = hadamard_product(hadamard_exp(A, t), A)
        expected = f.values @ D
        sym = symbol_from_function(
            make_function("constant", A=D, n=1)
        )
        np.testing.assert_allclose(apply_multiplier(sym, f).values, expected, atol=1e-12)

    def test_second_order_ratio(self):
        F = make_function("example_4_17_i", a=2.0, b=1.0, c=2.0, y0=[1.0])
        f = separable_gaussian_field(self.SPEC, 2, 1.0, np.array([[1.0, 0.2], [0.2, 0.5]]))
        rep = hadamard_derivative_check(F, t=1.0, f=f, h=1e-3)
        entry = rep.check("second_order")
        assert entry["passed"]
        assert entry["ratio"] == pytest.approx(4.0, rel=0.2)

    def test_invalid_value_of_F_names_F_and_point(self):
        # F is evaluated once per point, through its own checks, so a NaN
        # value is reported against F rather than the derived symbol.
        calls = []

        def ev(X):
            calls.append(X[:, 0].copy())
            V = np.broadcast_to(np.eye(2, dtype=complex), (len(X), 2, 2)).copy()
            V[X[:, 0] > 1.0] = np.nan
            return V

        F = MatrixFunction(n=1, m=2, evaluator=ev, catalog_id="nan_above_one")
        f = separable_gaussian_field(GridSpec(n=1, L=8.0, K=16), 2, 1.0, np.eye(2))
        with pytest.raises(InputError, match=r"^nan_above_one\(\[.*\]\): entries must be finite") as exc:
            hadamard_derivative_check(F, t=1.0, f=f, h=1e-3)
        named = float(str(exc.value).split("[")[1].split("]")[0])
        assert named > 1.0
        assert calls[-1].max() > 1.0
        points = np.concatenate(calls)
        assert len(points) == len(set(points.tolist()))
