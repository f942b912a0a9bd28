"""Matrix-valued function layer: Grams, positivity checks, Schoenberg machinery, catalog."""

import dataclasses

import numpy as np
import pytest

from mpsd import measures
from mpsd.matcore import InputError, RangeError, op_norm, psd_check
from mpsd.psdfun import (
    CPSD_CLAIMED,
    MatrixFunction,
    PointSet,
    cpsd_function_check,
    default_cases,
    f0_nonpositive,
    gram,
    growth_bound_estimate,
    hadamard_exp_function,
    lemma_4_13_check,
    make_function,
    psd_function_check,
    random_point_set,
    schoenberg_equivalence_report,
    schoenberg_gram,
    weak_cpsd_check,
)

LOG_HALF = np.log(0.5)


def two_points():
    return PointSet(n=1, points=[[1.0], [0.0]])


class TestGram:
    def test_constant_function_tiles_blocks(self):
        A = np.array([[1.0, 2.0], [2.0, 5.0]])
        F = make_function("constant", A=A, n=1)
        G = gram(F, two_points())
        for p in range(2):
            for q in range(2):
                np.testing.assert_array_equal(G.block(p, q), A)
        # PSD A tiled over blocks stays PSD.
        assert psd_check(G.matrix).verdict

    def test_single_point_gives_value_at_zero(self):
        F = make_function("example_2_13")
        G = gram(F, PointSet(n=1, points=[[3.0]]))
        np.testing.assert_allclose(G.matrix, LOG_HALF * np.eye(2))

    def test_remark_4_5b_blocks(self):
        s = 1.0
        F = make_function("remark_4_5b", s=s)
        G = gram(F, two_points())
        S = np.array([[0.0, 1j * s], [-1j * s, 0.0]])
        np.testing.assert_allclose(G.block(0, 0), np.zeros((2, 2)))
        np.testing.assert_allclose(G.block(1, 1), np.zeros((2, 2)))
        np.testing.assert_allclose(G.block(0, 1), 1j * S)
        np.testing.assert_allclose(G.block(1, 0), -1j * S)

    def test_dimension_mismatch(self):
        F = make_function("example_2_13", n=2)
        with pytest.raises(InputError):
            gram(F, two_points())

    def test_translation_invariance(self):
        F = make_function("example_4_17_i")
        X = random_point_set(1, 5, 3.0, seed=42)
        Xv = PointSet(n=1, points=X.points + 7.5)
        np.testing.assert_allclose(gram(F, X).matrix, gram(F, Xv).matrix, atol=1e-12)

    def test_gram_hermitian_iff_function_symmetric(self):
        X = random_point_set(1, 4, 2.0, seed=43)
        sym = make_function("example_4_17_i")  # F(-x) = F(x)*
        G = gram(sym, X).matrix
        assert np.abs(G - G.conj().T).max() < 1e-12
        M = np.array([[1.0, 2.0], [0.0, 1.0]])  # e^{ix} M breaks the symmetry
        asym = MatrixFunction(
            n=1, m=2, evaluator=lambda X: np.exp(1j * X[:, 0])[:, None, None] * M
        )
        H = gram(asym, X).matrix
        assert np.abs(H - H.conj().T).max() > 0.1


class TestMatrixFunctionValidation:
    """The error text names the function and the point, exactly as before the
    name became lazy."""

    def test_nan_value_message(self):
        F = MatrixFunction(n=1, m=2, evaluator=lambda x: np.full((2, 2), np.nan),
                           catalog_id="nan_fn")
        with pytest.raises(InputError) as exc:
            F([0.5])
        assert str(exc.value) == "nan_fn([0.5]): entries must be finite (no NaN/Inf)"

    def test_non_square_value_message(self):
        F = MatrixFunction(n=2, m=2, evaluator=lambda x: np.ones((2, 3)))
        with pytest.raises(InputError) as exc:
            F([1.0, -2.5])
        assert str(exc.value) == "function([ 1.  -2.5]): expected a square matrix, got shape (2, 3)"


class TestBatchedValues:
    """F.values maps points (P, n) to values (P, m, m), checked once per batch.
    tests/test_properties.py checks it against the one-point form F(x)."""

    def test_first_bad_point_is_named(self):
        def ev(X):
            V = np.zeros((len(X), 2, 2))
            V[X[:, 0] > 1.0] = np.inf
            return V

        F = MatrixFunction(n=1, m=2, evaluator=ev, catalog_id="inf_fn")
        with pytest.raises(InputError) as exc:
            F.values(np.array([[0.0], [0.5], [1.5], [2.5]]))
        assert str(exc.value) == "inf_fn([1.5]): entries must be finite (no NaN/Inf)"

    def test_wrong_batch_length_rejected(self):
        F = MatrixFunction(n=1, m=2, evaluator=lambda X: np.zeros((len(X) + 1, 2, 2)),
                           catalog_id="long")
        with pytest.raises(InputError, match=r"^long: evaluator returned shape \(4, 2, 2\), expected \(3, 2, 2\)$"):
            F.values(np.zeros((3, 1)))

    def test_per_point_evaluator_rejected(self):
        # A single matrix for a batch of points is not silently repeated.
        F = MatrixFunction(n=1, m=2, evaluator=lambda X: np.eye(2))
        with pytest.raises(InputError, match=r"expected \(25, 2, 2\)"):
            gram(F, random_point_set(1, 5, 1.0, seed=1))

    def test_wrong_m_rejected(self):
        F = MatrixFunction(n=1, m=3, evaluator=lambda X: np.zeros((len(X), 2, 2)))
        with pytest.raises(InputError, match=r"expected \(2, 3, 3\)"):
            F.values(np.zeros((2, 1)))

    def test_points_shape_checked(self):
        F = make_function("example_2_13", n=2)
        with pytest.raises(InputError, match=r"points have shape \(3,\), expected \(P, 2\)"):
            F.values(np.zeros(3))

    def test_exp_function_reports_nan_of_F(self):
        # The exponential evaluates F through its own checks, so the error
        # names F and the point, not an anonymous matrix.
        F = MatrixFunction(n=1, m=2, evaluator=lambda X: np.full((len(X), 2, 2), np.nan),
                           catalog_id="nan_fn")
        with pytest.raises(InputError) as exc:
            hadamard_exp_function(F, 1.0)([0.5])
        assert str(exc.value) == "nan_fn([0.5]): entries must be finite (no NaN/Inf)"

    def test_exp_function_overflow_raises_range_error(self):
        # remark_4_5b has F(x)_{21} = s x, so exp_H(F) overflows at x = 800 only.
        E = hadamard_exp_function(make_function("remark_4_5b", s=1.0), 1.0)
        with pytest.raises(RangeError, match=r"overflow at entry \(1,1,0\)"):
            E.values(np.array([[0.0], [800.0]]))
        with pytest.raises(RangeError):
            E([800.0])


class TestPsdFunctionCheck:
    def test_identity_constant(self):
        F = make_function("constant", A=np.eye(2), n=1)
        assert psd_function_check(F, random_point_set(1, 4, 5.0, seed=1)).verdict

    def test_transform_of_nonnegative_measure(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            atoms = []
            for _ in range(4):
                G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                atoms.append((rng.uniform(-2, 2, size=2), G.conj().T @ G))
            mu = measures.matrix_measure(2, 2, atoms)
            F = measures.bochner_function(mu)
            X = random_point_set(2, 5, 4.0, seed=100 + trial)
            v = psd_function_check(F, X)
            assert v.verdict, f"trial {trial}: min eig {v.min_eigenvalue}"

    def test_exponential_of_example_2_13_fails(self):
        F = hadamard_exp_function(make_function("example_2_13"), 1.0)
        v = psd_function_check(F, two_points())
        assert not v.verdict
        assert v.min_eigenvalue < -0.4

    def test_restriction_monotonicity(self):
        # PSD on a point set implies PSD on each subset (principal submatrix).
        mu = measures.gaussian_measure(1, 6.0, 64, np.array([[2.0, 1.0], [1.0, 1.0]]))
        F = measures.bochner_function(mu)
        X = random_point_set(1, 6, 4.0, seed=3)
        assert psd_function_check(F, X).verdict
        sub = PointSet(n=1, points=X.points[:3])
        assert psd_function_check(F, sub).verdict


class TestCpsdFunctionCheck:
    def test_example_4_17_i_passes(self):
        F = make_function("example_4_17_i", a=2.0, b=1.0, c=2.0, y0=[1.0])
        for seed in (1, 2, 3):
            X = random_point_set(1, 5, 3.0, seed=seed)
            assert cpsd_function_check(F, X).passed

    def test_remark_4_5b_fails_with_quadratic_form_oracle(self):
        s = 1.0
        F = make_function("remark_4_5b", s=s)
        X = two_points()
        rep = cpsd_function_check(F, X)
        assert not rep.passed
        # Quadratic form at c = (0, 1, -1, 0): the flattened sum vanishes and
        # the form equals -(x1 - x2) * 2 s * c2^2 = -2s.
        G = gram(F, X).matrix
        c = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex)
        assert abs(c.sum()) == 0.0
        form = np.real(c.conj() @ G @ c)
        assert form == pytest.approx(-2.0 * s, abs=1e-12)

    def test_constant_cpsd_function(self):
        F = make_function("constant", A=-np.ones((2, 2)), n=1)
        X = random_point_set(1, 4, 2.0, seed=5)
        assert cpsd_function_check(F, X).passed

    def test_witness_satisfies_constraint(self):
        F = make_function("example_2_13")
        rep = cpsd_function_check(F, two_points())
        assert not rep.passed
        witness = np.asarray(rep.check("constrained_psd")["witness"])
        assert abs(witness.sum()) < 1e-10
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)


class TestWeakCpsd:
    DIRECTIONS = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / np.sqrt(2),
        np.array([1.0, 1j]) / np.sqrt(2),
    ]

    def test_example_2_13_weak_but_not_cpsd(self):
        F = make_function("example_2_13")
        X = random_point_set(1, 5, 2.0, seed=6)
        assert weak_cpsd_check(F, X, self.DIRECTIONS).passed
        assert not cpsd_function_check(F, X).passed

    def test_cpsd_implies_weak(self):
        X = random_point_set(1, 4, 2.0, seed=7)
        for case in default_cases():
            if case.cpsd and case.function.n == 1 and case.function.m == 2:
                assert weak_cpsd_check(case.function, X, self.DIRECTIONS).passed

    def test_rejects_non_unit_direction(self):
        F = make_function("example_2_13")
        with pytest.raises(InputError):
            weak_cpsd_check(F, two_points(), [np.array([2.0, 0.0])])


class TestSchoenbergGram:
    def test_remark_4_5b_shifted_gram_vanishes(self):
        F = make_function("remark_4_5b", s=1.0)
        X = random_point_set(1, 6, 5.0, seed=8)
        G = schoenberg_gram(F, X).matrix
        assert np.abs(G).max() < 1e-14

    def test_zero_at_origin_single_point(self):
        F = make_function("example_4_17_ii", generator={"quadratic": [[1.0]]}, m=2)
        G = schoenberg_gram(F, PointSet(n=1, points=[[0.0]]))
        assert np.abs(G.matrix).max() < 1e-15

    def test_cpsd_with_nonpositive_origin_gives_psd_shift(self):
        for case in default_cases():
            if not (case.cpsd and case.f0_nonpositive):
                continue
            X = random_point_set(case.function.n, 4, 2.0, seed=9)
            v = psd_check(schoenberg_gram(case.function, X).matrix, tol=1e-8)
            assert v.verdict, f"{case.label}: min eig {v.min_eigenvalue}"


class TestHadamardExpFunction:
    def test_t_zero_gives_all_ones(self):
        F = make_function("example_4_17_i")
        E = hadamard_exp_function(F, 0.0)
        np.testing.assert_array_equal(E(np.array([2.0])), np.ones((2, 2)))

    def test_negative_t_rejected(self):
        with pytest.raises(InputError):
            hadamard_exp_function(make_function("example_4_17_i"), -1.0)

    def test_example_4_17_entry_closed_form(self):
        a, b, c, t = 2.0, 1.0, 2.0, 0.7
        F = make_function("example_4_17_i", a=a, b=b, c=c, y0=[1.0])
        E = hadamard_exp_function(F, t)
        for x in (0.3, -1.2):
            V = E(np.array([x]))
            assert V[0, 0] == pytest.approx(a**t * np.exp(-1j * t * x), abs=1e-12)
            assert V[0, 1] == pytest.approx(b**t * np.exp(-1j * t * x), abs=1e-12)
            assert V[1, 1] == pytest.approx(c**t * np.exp(-1j * t * x), abs=1e-12)

    def test_pointwise_exponent_law(self):
        F = make_function("example_4_17_i")
        G = make_function("example_2_13")
        FplusG = MatrixFunction(
            n=1, m=2, evaluator=lambda x: F.evaluator(x) + G.evaluator(x), catalog_id="sum"
        )
        t = 0.9
        Et = hadamard_exp_function(FplusG, t)
        Ef, Eg = hadamard_exp_function(F, t), hadamard_exp_function(G, t)
        for x in ([0.5], [-2.0]):
            x = np.array(x)
            np.testing.assert_allclose(Et(x), Ef(x) * Eg(x), rtol=1e-12)


class TestSchoenbergEquivalence:
    T_GRID = (0.01, 0.1, 1.0, 10.0)

    def test_cpsd_case_consistent(self):
        F = make_function("example_4_17_i", a=2.0, b=1.0, c=2.0, y0=[1.0])
        X = random_point_set(1, 5, 3.0, seed=10)
        rep = schoenberg_equivalence_report(F, X, self.T_GRID)
        assert rep.check("cpsd")["verdict"]
        assert all(rep.check(f"exp_psd_t={t:g}")["verdict"] for t in self.T_GRID)
        assert rep.passed

    def test_remark_4_5b_shifted_without_cpsd(self):
        # Condition (iii) holds while (i) fails: the converse implication is false.
        F = make_function("remark_4_5b", s=1.0)
        X = two_points()
        rep = schoenberg_equivalence_report(F, X, self.T_GRID)
        assert not rep.check("cpsd")["verdict"]
        assert rep.meta["f0_nonpositive"]
        assert rep.check("shifted_gram_psd")["verdict"]
        assert rep.check("consistency_i_iff_ii")["passed"]
        assert rep.check("consistency_i_implies_iii")["passed"]

    def test_example_2_13_fails_both_sides(self):
        F = make_function("example_2_13")
        X = two_points()
        rep = schoenberg_equivalence_report(F, X, self.T_GRID)
        assert not rep.check("cpsd")["verdict"]
        assert not rep.check("exp_psd_t=1")["verdict"]
        assert rep.check("consistency_i_iff_ii")["passed"]

    def test_negative_t_rejected(self):
        with pytest.raises(InputError, match="t must be nonnegative"):
            schoenberg_equivalence_report(make_function("example_4_17_i"), two_points(), [1.0, -0.5])

    @pytest.mark.parametrize(
        "catalog_id, params, f0_nonpositive",
        [
            ("example_4_17_ii", {"generator": {"quadratic": [[1.0]]}, "m": 2}, True),
            ("example_4_17_i", {}, False),
        ],
    )
    def test_report_samples_F_once(self, catalog_id, params, f0_nonpositive):
        F = make_function(catalog_id, **params)
        seen = []

        def counted(X):
            seen.append(len(X))
            return F.evaluator(X)

        N = 6
        X = random_point_set(1, N, 3.0, seed=11)
        rep = schoenberg_equivalence_report(dataclasses.replace(F, evaluator=counted), X, self.T_GRID)
        assert rep.meta["f0_nonpositive"] == f0_nonpositive
        # The N^2 differences and F(0); the shifted Gram adds the N points.
        assert sum(seen) == N * N + 1 + (N if f0_nonpositive else 0)


class TestGrowthBound:
    RADII = (0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0)

    def test_quadratic_generator_ratio_approaches_m(self):
        m = 3
        F = make_function("example_4_17_ii", generator={"quadratic": [[1.0]]}, m=m)
        rep = growth_bound_estimate(F, self.RADII, samples_per_radius=16, seed=11)
        entry = rep.check("ratio_within_local_bound")
        assert entry["passed"]
        # ||F(x)||_op = m |x|^2, so the sampled ratio tends to m from below.
        assert entry["ratio_sup"] == pytest.approx(m, rel=1e-3)
        assert entry["ratio_sup"] <= entry["c_prime"] * (1 + 1e-9)

    def test_constant_function_bounded_by_norm(self):
        A = -np.ones((2, 2))
        F = make_function("constant", A=A, n=1)
        rep = growth_bound_estimate(F, self.RADII, samples_per_radius=8, seed=12)
        assert rep.check("ratio_within_local_bound")["ratio_sup"] <= op_norm(A) + 1e-12

    def test_linear_growth_ratio_decays(self):
        F = make_function("example_4_17_i")
        rep = growth_bound_estimate(F, (1000.0,), samples_per_radius=8, seed=13)
        assert rep.check("ratio_within_local_bound")["ratio_sup"] < 0.05


class TestLemma413:
    def test_trivial_pair_at_origin(self):
        F = make_function("example_4_17_ii", generator={"quadratic": [[1.0]]}, m=2)
        rep = lemma_4_13_check(F, [(np.zeros(1), np.zeros(1))])
        assert rep.passed

    def test_quadratic_generator_random_pairs(self):
        F = make_function("example_4_17_ii", generator={"quadratic": [[2.0]]}, m=3)
        rng = np.random.default_rng(14)
        pairs = [(rng.uniform(-5, 5, 1), rng.uniform(-5, 5, 1)) for _ in range(100)]
        assert lemma_4_13_check(F, pairs, tol=1e-8).passed

    def test_remark_4_5b_satisfies_inequality_family(self):
        # The matrix real part of i x S vanishes identically, so all four
        # necessary inequalities hold even though the function is not
        # conditionally PSD (they are necessary, not sufficient).
        F = make_function("remark_4_5b", s=1.0)
        x = np.array([2.0])
        Fx = F(x)
        assert op_norm(Fx + Fx.conj().T) < 1e-15
        rng = np.random.default_rng(15)
        pairs = [(rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)) for _ in range(50)]
        assert lemma_4_13_check(F, pairs, tol=1e-8).passed

    def test_scalar_and_empty_pairs_accepted_in_one_dimension(self):
        F = make_function("example_4_17_ii", generator={"quadratic": [[1.0]]}, m=2)
        assert lemma_4_13_check(F, [(0.5, -1.0)]).passed
        assert lemma_4_13_check(F, []).passed

    def test_wrong_dimension_pair_rejected_with_expected_shape(self):
        F = make_function("example_4_17_i", a=0.5, b=0.5, c=0.5, y0=[1.0, -0.5])
        z2, z3 = np.zeros(2), np.zeros(3)
        with pytest.raises(InputError, match=r"^pairs have shape \(2, 2, 3\), expected shape \(2, 2, 2\)$"):
            lemma_4_13_check(F, [(z3, z3), (z3, z3)])
        for ragged in ([(z2, z2), (z3, z3)], [(z2, z2), (z2, z3)]):
            with pytest.raises(InputError, match=r"expected shape \(2, 2, 2\)"):
                lemma_4_13_check(F, ragged)


class TestCatalog:
    def test_unknown_id(self):
        with pytest.raises(InputError):
            make_function("nope")

    def test_example_4_17_i_validates_parameters(self):
        with pytest.raises(InputError):
            make_function("example_4_17_i", a=1.0, b=5.0, c=1.0, y0=[1.0])

    def test_declared_properties(self):
        F = make_function("example_4_17_i")
        assert F.claims(CPSD_CLAIMED)
        assert not make_function("example_2_13").claims(CPSD_CLAIMED)

    def test_f0_sign_ground_truth(self):
        for case in default_cases():
            assert f0_nonpositive(case.function).verdict == case.f0_nonpositive, case.label

    def test_default_cases_cpsd_ground_truth(self):
        for case in default_cases():
            X = random_point_set(case.function.n, 4, 2.0, seed=16)
            assert cpsd_function_check(case.function, X, tol=1e-8).passed == case.cpsd, case.label
