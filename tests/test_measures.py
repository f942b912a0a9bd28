"""Atomic matrix measures: variation, transforms, convolution, duality, Gaussians."""

import math

import numpy as np
import pytest

from mpsd import measures
from mpsd.grid import GridField, GridSpec, constant_field, is_psd_valued, lp_norm
from mpsd.matcore import InputError, op_norm
from mpsd.measures import (
    bochner_forward_check,
    convolve,
    duality_pairing,
    entrywise_variation,
    gaussian_ball_mass,
    gaussian_measure,
    make_measure,
    matrix_measure,
    measure_from_json_dict,
    point_mass,
    variation,
)
from mpsd.psdfun import PointSet, random_point_set

TWO_PI = 2.0 * np.pi

# Exact Gaussian ball masses from the error-function oracle.
ERF_1 = math.erf(1.0 / math.sqrt(2.0))  # 0.6826894921370859


def small_spec(K=64, L=16.0):
    return GridSpec(n=1, L=L, K=K)


def random_field(spec, m, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.K,) * spec.n + (m, m)
    return GridField(
        spec=spec, m=m, values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


class TestConstructionAndVariation:
    def test_single_identity_atom(self):
        mu = point_mass([0.0], np.eye(2))
        assert variation(mu) == pytest.approx(1.0)

    def test_two_diagonal_atoms(self):
        mu = matrix_measure(
            1, 2, [([0.0], np.diag([1.0, 0.0])), ([1.0], np.diag([0.0, 3.0]))]
        )
        assert variation(mu) == pytest.approx(4.0)

    def test_gridded_gaussian_has_unit_mass(self):
        mu = gaussian_measure(1, 8.0, 4096, np.eye(1))
        total = mu.weights.sum(axis=0)[0, 0].real
        assert total == pytest.approx(math.erf(8.0 / math.sqrt(2.0)), abs=1e-12)
        assert variation(mu) == pytest.approx(1.0, abs=1e-6)

    def test_duplicate_atoms_merge(self):
        mu = matrix_measure(1, 1, [([2.0], np.eye(1)), ([2.0], 3 * np.eye(1))])
        assert mu.atom_count == 1
        assert mu.weights[0, 0, 0] == pytest.approx(4.0)

    def test_entrywise_variation_examples(self):
        assert entrywise_variation(
            point_mass([0.0], np.array([[1.0, -2.0], [3.0, 4.0]]))
        ) == pytest.approx(4.0)
        assert entrywise_variation(make_measure("gaussian_entry_11")) == pytest.approx(
            1.0, abs=1e-6
        )
        assert entrywise_variation(make_measure("gaussian_all_entries")) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_json_round_trip(self):
        mu = matrix_measure(
            2, 2, [([0.5, -1.0], np.array([[1.0, 1j], [-1j, 2.0]])), ([0.0, 0.0], np.eye(2))]
        )
        back = measure_from_json_dict(mu.to_json_dict())
        np.testing.assert_allclose(back.locations, mu.locations)
        np.testing.assert_allclose(back.weights, mu.weights)


class TestNonnegativity:
    def test_identity_atoms(self):
        mu = matrix_measure(1, 2, [([0.0], np.eye(2)), ([1.0], np.eye(2))])
        assert mu.is_nonnegative().verdict

    def test_appendix_a_measure(self):
        assert make_measure("appendix_a_measure", cells_per_axis=64).is_nonnegative().verdict

    def test_indefinite_atom(self):
        v = point_mass([0.0], np.array([[1.0, 2.0], [2.0, 1.0]])).is_nonnegative()
        assert not v.verdict
        assert v.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


class TestFourierTransform:
    def test_atom_at_origin_gives_constant(self):
        W = np.array([[2.0, 1j], [-1j, 1.0]])
        mu = point_mass([0.0, 0.0], TWO_PI ** (2 / 2) * W)
        for x in (np.zeros(2), np.array([1.0, -2.0])):
            np.testing.assert_allclose(mu.fourier(x), W, atol=1e-14)

    def test_example_4_17_measure_matches_hadamard_exponential(self):
        a, b, c, t = 2.0, 1.0, 2.0, 0.8
        mu = measures.example_4_17_measure(a, b, c, [1.0], t)
        assert mu.is_nonnegative().verdict
        for x in (0.0, 0.7, -2.3):
            V = mu.fourier(np.array([x]))
            phase = np.exp(-1j * t * x)
            expected = phase * np.array([[a**t, b**t], [b**t, c**t]])
            np.testing.assert_allclose(V, expected, atol=1e-13)

    def test_value_at_zero_is_scaled_total_mass(self):
        rng = np.random.default_rng(20)
        atoms = [
            (rng.uniform(-3, 3, 1), rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for _ in range(5)
        ]
        mu = matrix_measure(1, 2, atoms)
        expected = TWO_PI ** (-0.5) * mu.weights.sum(axis=0)
        np.testing.assert_allclose(mu.fourier(np.zeros(1)), expected, atol=1e-13)

    def test_linearity_and_symmetry(self):
        rng = np.random.default_rng(21)
        G1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        mu = matrix_measure(
            1, 2, [([1.0], G1.conj().T @ G1), ([-0.5], np.eye(2))]
        )
        for x in (0.3, 1.9):
            x = np.array([x])
            np.testing.assert_allclose(
                mu.fourier(-x), mu.fourier(x).conj().T, atol=1e-13
            )
        # |mu^(x)| is bounded by the scaled total variation.
        xs = rng.uniform(-5, 5, size=(40, 1))
        vals = mu.fourier(xs)
        sup = max(op_norm(V) for V in vals)
        assert sup <= TWO_PI ** (-0.5) * variation(mu) + 1e-12


class TestConvolve:
    def test_dirac_at_origin_is_identity(self):
        spec = small_spec()
        f = random_field(spec, 2, seed=22)
        out = convolve(point_mass([0.0], np.eye(2)), f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-14)

    def test_single_atom_shifts_and_multiplies(self):
        spec = small_spec()
        f = random_field(spec, 2, seed=23)
        W = np.array([[1.0, 2.0], [0.0, 1j]])
        shift_cells = 12
        xi = shift_cells * spec.h
        out = convolve(point_mass([xi], W), f)
        expected = np.roll(f.values, shift_cells, axis=0) @ W
        np.testing.assert_allclose(out.values, expected, atol=1e-14)

    def test_scalar_identity_measure_preserves_psd_fields(self):
        spec = small_spec()
        rng = np.random.default_rng(24)
        shape = (spec.K, 2, 2)
        G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        psd_vals = G.conj().transpose(0, 2, 1) @ G
        f = GridField(spec=spec, m=2, values=psd_vals)
        sigma = matrix_measure(
            1, 2, [([spec.h * k], 0.25 * np.eye(2)) for k in (-3, 0, 2, 9)]
        )
        out = convolve(sigma, f)
        assert is_psd_valued(out, tol=1e-10)

    def test_lp_contraction_bound(self):
        spec = small_spec()
        f = random_field(spec, 2, seed=25)
        rng = np.random.default_rng(26)
        atoms = [
            (rng.uniform(-4, 4, 1), rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for _ in range(4)
        ]
        mu = matrix_measure(1, 2, atoms)
        out = convolve(mu, f)
        for p in (1.0, 2.0):
            assert lp_norm(out, p) <= variation(mu) * lp_norm(f, p) * (1 + 1e-12)

    def test_out_of_range_atom_flagged(self):
        spec = small_spec(K=64, L=16.0)
        f = random_field(spec, 1, seed=27)
        out = convolve(point_mass([40.0], np.eye(1)), f)
        assert out.meta.get("wrapped_atoms") == 1

    def test_commutes_with_translation(self):
        from mpsd.grid import translate

        spec = small_spec()
        f = random_field(spec, 2, seed=28)
        mu = matrix_measure(1, 2, [([0.75], np.array([[1.0, 1j], [0.0, 2.0]]))])
        lhs = convolve(mu, translate(f, 5))
        rhs = translate(convolve(mu, f), 5)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-13)

    def test_left_matrix_linearity(self):
        spec = small_spec()
        f = random_field(spec, 2, seed=29)
        A = np.array([[0.0, 1.0], [2.0, 1j]])
        mu = matrix_measure(1, 2, [([0.5], np.array([[1.0, 0.5], [1j, 1.0]]))])
        lhs = convolve(mu, f.copy_with(A @ f.values))
        rhs = convolve(mu, f)
        np.testing.assert_allclose(lhs.values, A @ rhs.values, atol=1e-13)


def convolve_reference(mu, f):
    """One np.roll and one (K,)*n + (m, m) @ (m, m) product per atom."""
    spec = f.spec
    out = np.zeros_like(f.values)
    wrapped = 0
    for xi, W in zip(mu.locations, mu.weights):
        wrapped += bool(np.any(np.abs(xi) > spec.L / 2))
        cells = np.rint(xi / spec.h).astype(int)
        out += np.roll(f.values, shift=tuple(cells), axis=tuple(range(spec.n))) @ W
    return out, wrapped


class TestConvolveAgainstReference:
    @pytest.mark.parametrize("layout", ["c", "fortran", "transposed"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n, K, count", [(1, 64, 300), (2, 16, 40)])
    def test_matches_per_atom_loop(self, n, K, m, count, layout):
        spec = GridSpec(n=n, L=8.0, K=K)
        rng = np.random.default_rng(100 * n + m)
        # Locations span twice the torus, so many atoms wrap; the last two
        # are distinct points that snap to the same cell.
        locs = list(rng.uniform(-spec.L, spec.L, size=(count, n)))
        cell = spec.h * rng.integers(-K // 2, K // 2, size=n)
        locs += [cell + 0.1 * spec.h, cell - 0.2 * spec.h]
        mu = matrix_measure(n, m, [
            (x, rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) for x in locs
        ])
        assert mu.atom_count == count + 2
        f = random_field(spec, m, seed=n + 10 * m)
        # Field values need not be C-ordered (GridField keeps the layout).
        if layout == "fortran":
            f = GridField(spec, m, values=np.asfortranarray(f.values))
        elif layout == "transposed":
            f = GridField(spec, m, values=f.values.swapaxes(-1, -2))
        out = convolve(mu, f)
        expected, wrapped = convolve_reference(mu, f)
        assert wrapped > 0
        assert out.meta == {"wrapped_atoms": wrapped}
        err = np.abs(out.values - expected).max() / np.abs(expected).max()
        assert err <= 1e-13


class TestDualityPairing:
    def test_identity_field_traces_weight(self):
        spec = small_spec()
        f = constant_field(spec, np.eye(2))
        W = np.array([[1.0, 5.0], [2.0, -3.0]])
        assert duality_pairing(f, point_mass([0.5], W)) == pytest.approx(np.trace(W))

    def test_nonneg_pairing_of_psd_field(self):
        spec = small_spec()
        rng = np.random.default_rng(30)
        shape = (spec.K, 2, 2)
        G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = GridField(spec=spec, m=2, values=G.conj().transpose(0, 2, 1) @ G)
        mu = gaussian_measure(1, 4.0, 32, np.array([[1.0, 0.5], [0.5, 1.0]]))
        val = duality_pairing(f, mu)
        assert abs(val.imag) < 1e-10
        assert val.real >= -1e-10

    def test_linear_in_field(self):
        spec = small_spec()
        f, g = random_field(spec, 2, seed=31), random_field(spec, 2, seed=32)
        mu = matrix_measure(1, 2, [([1.0], np.array([[1.0, 1j], [2.0, 0.0]]))])
        a, b = 2.0 - 1j, 0.5
        combo = f.copy_with(a * f.values + b * g.values)
        lhs = duality_pairing(combo, mu)
        rhs = a * duality_pairing(f, mu) + b * duality_pairing(g, mu)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGaussianMeasure:
    def test_total_mass_matches_erf_oracle(self):
        mu = gaussian_measure(1, 8.0, 4096, np.eye(1))
        assert variation(mu) == pytest.approx(1.0, abs=1e-6)

    def test_ball_mass_matches_erf_oracle(self):
        mu = gaussian_measure(1, 8.0, 4096, np.eye(1))
        mass = gaussian_ball_mass(mu, 1.0)[0, 0].real
        assert mass == pytest.approx(ERF_1, abs=1e-4)
        assert mass == pytest.approx(0.682689, abs=1e-4)

    def test_weighted_version_is_appendix_measure(self):
        mu = gaussian_measure(1, 8.0, 64, np.diag([1.0, 2.0]))
        ref = make_measure("appendix_a_measure", cells_per_axis=64)
        np.testing.assert_allclose(mu.weights, ref.weights)
        assert mu.is_nonnegative().verdict

    def test_requires_enough_cells(self):
        with pytest.raises(InputError):
            gaussian_measure(1, 8.0, 4, np.eye(1))


class TestBochnerForward:
    def test_gridded_gaussian_with_psd_weight(self):
        W = np.array([[2.0, 1.0 + 1j], [1.0 - 1j, 3.0]])
        mu = gaussian_measure(1, 6.0, 128, W)
        rep = bochner_forward_check(mu, random_point_set(1, 5, 3.0, seed=33))
        assert rep.passed

    def test_single_atom_at_origin(self):
        mu = point_mass([0.0], np.array([[1.0, 0.5], [0.5, 1.0]]))
        rep = bochner_forward_check(mu, random_point_set(1, 4, 2.0, seed=34))
        assert rep.passed

    def test_example_4_17_measure_passes(self):
        mu = measures.example_4_17_measure(2.0, 1.0, 2.0, [1.0], t=1.0)
        rep = bochner_forward_check(mu, random_point_set(1, 5, 3.0, seed=35))
        assert rep.passed

    def test_rejects_signed_measure(self):
        mu = point_mass([0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InputError):
            bochner_forward_check(mu, PointSet(n=1, points=[[0.0]]))
