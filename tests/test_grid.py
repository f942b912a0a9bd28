"""Grid discretization: transform pair, norms, cutoffs, mollifiers, binary IO."""

import numpy as np
import pytest

from mpsd.grid import (
    GridField,
    GridSpec,
    bump_field,
    constant_field,
    dft,
    field_from_function,
    hs_l2_norm,
    idft,
    is_psd_valued,
    load_field,
    min_eig_scan,
    mollify,
    save_field,
    translate,
    triple_norm_1,
    triple_norm_2,
    triple_norm_inf,
)
from mpsd.matcore import InputError, ResolutionError


def random_field(spec, m, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.K,) * spec.n + (m, m)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridField(spec=spec, m=m, values=vals)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            GridSpec(n=1, L=10.0, K=7)
        with pytest.raises(InputError):
            GridSpec(n=1, L=10.0, K=48)
        with pytest.raises(InputError):
            GridSpec(n=1, L=-1.0, K=64)

    def test_points_and_freqs(self):
        spec = GridSpec(n=1, L=16.0, K=16)
        x = spec.axis_points()
        assert x[0] == -8.0 and x[1] - x[0] == pytest.approx(1.0)
        xi = spec.axis_freqs()
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(2 * np.pi / 16.0)
        assert xi.min() == pytest.approx(-2 * np.pi / 16.0 * 8)

    def test_index_of_wraps(self):
        spec = GridSpec(n=1, L=16.0, K=16)
        assert spec.index_of([0.0]) == (8,)
        assert spec.index_of([-8.0]) == (0,)
        assert spec.index_of([8.0]) == (0,)  # wraps around


class TestTransformPair:
    @pytest.mark.parametrize("K", [64, 256, 1024, 4096])
    def test_round_trip_identity(self, K):
        spec = GridSpec(n=1, L=40.0, K=K)
        f = random_field(spec, 2, seed=K)
        back = idft(dft(f))
        assert np.abs(back.values - f.values).max() < 1e-12

    @pytest.mark.parametrize("K", [64, 256, 1024, 4096])
    def test_plancherel_hs_norm(self, K):
        spec = GridSpec(n=1, L=40.0, K=K)
        f = random_field(spec, 3, seed=K + 1)
        a, b = hs_l2_norm(f), hs_l2_norm(dft(f))
        assert abs(a - b) <= 1e-10 * a

    def test_round_trip_2d(self):
        spec = GridSpec(n=2, L=20.0, K=32)
        f = random_field(spec, 2, seed=99)
        back = idft(dft(f))
        assert np.abs(back.values - f.values).max() < 1e-12
        assert abs(hs_l2_norm(f) - hs_l2_norm(dft(f))) < 1e-10 * hs_l2_norm(f)

    def test_gaussian_pair_closed_form(self):
        # exp(-x^2/2) transforms to exp(-xi^2/2) under this normalization.
        spec = GridSpec(n=1, L=40.0, K=1024)
        x = spec.axis_points()
        vals = np.exp(-0.5 * x**2)[:, None, None].astype(complex)
        f = GridField(spec=spec, m=1, values=vals)
        g = dft(f)
        xi = spec.axis_freqs()
        expected = np.exp(-0.5 * xi**2)
        assert np.abs(g.values[:, 0, 0] - expected).max() < 1e-6

    def test_constant_field_spectrum_concentrates_at_zero(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        g = dft(constant_field(spec, 2.0 * np.eye(2)))
        mags = np.abs(g.values[:, 0, 0])
        assert mags[0] > 1.0
        assert mags[1:].max() < 1e-12

    def test_domain_discipline(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        f = random_field(spec, 1, seed=3)
        with pytest.raises(InputError):
            idft(f)
        with pytest.raises(InputError):
            dft(dft(f))


class TestNorms:
    def test_triple_norms_against_direct_sums(self):
        spec = GridSpec(n=1, L=8.0, K=16)
        f = random_field(spec, 2, seed=4)
        h = spec.h
        flat = f.values
        t1 = sum(np.abs(flat[:, j, k]).sum() * h for j in range(2) for k in range(2))
        t2 = sum(
            np.sqrt((np.abs(flat[:, j, k]) ** 2).sum() * h) for j in range(2) for k in range(2)
        )
        assert triple_norm_1(f) == pytest.approx(t1)
        assert triple_norm_2(f) == pytest.approx(t2)
        assert triple_norm_inf(f) == pytest.approx(np.abs(flat).max())


class TestBumpField:
    def test_center_value_and_support(self):
        spec = GridSpec(n=1, L=40.0, K=512)
        f = bump_field(spec, 2, radius=3.0, eps=1.0, D=np.eye(2))
        np.testing.assert_allclose(f.at([0.0]), np.eye(2), atol=1e-15)
        r = np.abs(spec.axis_points())
        outside = f.values[r >= 4.0 + spec.h]
        assert np.abs(outside).max() == 0.0
        inside = f.values[r <= 3.0 - spec.h]
        np.testing.assert_allclose(inside, np.broadcast_to(np.eye(2), inside.shape), atol=1e-15)

    def test_psd_valued(self):
        spec = GridSpec(n=1, L=40.0, K=256)
        D = np.array([[3.0, 1.0], [1.0, 3.0]])
        f = bump_field(spec, 2, radius=1.0, eps=0.5, D=D)
        assert is_psd_valued(f, tol=1e-12)

    def test_rejects_non_psd_direction(self):
        spec = GridSpec(n=1, L=40.0, K=256)
        with pytest.raises(InputError):
            bump_field(spec, 2, radius=1.0, eps=0.5, D=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_oversized_support(self):
        spec = GridSpec(n=1, L=10.0, K=256)
        with pytest.raises(InputError):
            bump_field(spec, 1, radius=4.0, eps=2.0, D=np.eye(1))


class TestMollify:
    def test_constant_psd_field_unchanged(self):
        spec = GridSpec(n=1, L=16.0, K=128)
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        f = constant_field(spec, A)
        out = mollify(f, eps=0.5)
        assert np.abs(out.values - f.values).max() < 1e-10

    def test_smoothed_indicator_stays_psd(self):
        spec = GridSpec(n=1, L=16.0, K=256)
        x = spec.axis_points()
        indic = (np.abs(x) <= 2.0).astype(complex)
        f = GridField(spec=spec, m=2, values=indic[:, None, None] * np.eye(2))
        out = mollify(f, eps=0.4)
        mins, defects = min_eig_scan(out)
        assert mins.min() >= -1e-12
        assert defects.max() <= 1e-12

    def test_l2_convergence_as_radius_shrinks(self):
        spec = GridSpec(n=1, L=16.0, K=512)
        x = spec.axis_points()
        vals = np.exp(-0.5 * x**2)[:, None, None].astype(complex)
        f = GridField(spec=spec, m=1, values=vals)
        errs = []
        for eps in (1.6, 0.8, 0.4, 0.2):
            out = mollify(f, eps)
            errs.append(hs_l2_norm(f.copy_with(out.values - f.values)))
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_too_small_radius_raises(self):
        spec = GridSpec(n=1, L=16.0, K=64)
        f = constant_field(spec, np.eye(1))
        with pytest.raises(ResolutionError):
            mollify(f, eps=spec.h / 2)


class TestTranslateAndIO:
    def test_translate_matches_roll(self):
        spec = GridSpec(n=1, L=8.0, K=32)
        f = random_field(spec, 2, seed=5)
        np.testing.assert_array_equal(translate(f, 3).values, np.roll(f.values, 3, axis=0))

    @pytest.mark.parametrize("dtype", ["complex64", "complex128"])
    def test_save_load_round_trip(self, tmp_path, dtype):
        spec = GridSpec(n=2, L=8.0, K=16)
        f = random_field(spec, 2, seed=6)
        path = str(tmp_path / "field.bin")
        save_field(f, path, dtype=dtype)
        g = load_field(path)
        assert g.spec == spec and g.m == 2
        tol = 1e-6 if dtype == "complex64" else 0.0
        np.testing.assert_allclose(g.values, f.values, atol=tol, rtol=tol)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a field")
        with pytest.raises(InputError):
            load_field(str(path))


class TestFieldFromFunction:
    def test_matches_pointwise_evaluation(self):
        spec = GridSpec(n=1, L=8.0, K=32)
        f = field_from_function(spec, 1, lambda P: np.cos(P[:, 0])[:, None, None] + 0j)
        x = spec.axis_points()
        np.testing.assert_allclose(f.values[:, 0, 0], np.cos(x), atol=1e-15)
