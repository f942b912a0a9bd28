"""Core matrix layer: positivity verdicts, norms, Hadamard calculus, splits."""

import numpy as np
import pytest

from mpsd.matcore import (
    InputError,
    NormKind,
    RangeError,
    contraction_factor_check,
    cpsd_check,
    default_tol,
    hadamard_exp,
    hadamard_product,
    hermitian_split,
    matrix_from_json_dict,
    matrix_norm,
    matrix_to_json_dict,
    min_eigenvalues,
    op_norm,
    psd_check,
)

LOG_HALF = np.log(0.5)


def rand_matrix(rng, m):
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def rand_hermitian(rng, m):
    A = rand_matrix(rng, m)
    return (A + A.conj().T) / 2


class TestPsdCheck:
    def test_all_ones_is_psd_with_zero_min_eig(self):
        H2 = np.ones((2, 2))
        v = psd_check(H2, tol=1e-10)
        assert v.verdict
        assert abs(v.min_eigenvalue) < 1e-12

    def test_zero_matrix(self):
        v = psd_check(np.zeros((3, 3)))
        assert v.verdict
        assert v.min_eigenvalue == 0.0

    def test_half_ones_half_has_negative_eigenvalue(self):
        A = np.array([[0.5, 1.0], [1.0, 0.5]])
        v = psd_check(A)
        assert not v.verdict
        assert v.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_witness_achieves_min_rayleigh_quotient(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rand_hermitian(rng, 4)
            v = psd_check(A)
            assert np.linalg.norm(v.witness) == pytest.approx(1.0, abs=1e-12)
            q = np.real(v.witness.conj() @ A @ v.witness)
            assert q == pytest.approx(v.min_eigenvalue, abs=1e-10)

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(InputError):
            psd_check(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError):
            psd_check(np.ones((2, 3)))

    def test_min_eigenvalues_of_stack_match_psd_check_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for m in (1, 2, 3, 5):
            A = np.stack([rand_matrix(rng, m) for _ in range(6)])
            expected = [psd_check(a).min_eigenvalue for a in A]
            assert min_eigenvalues(A).tolist() == expected


class TestCpsdCheck:
    def test_zero_matrix(self):
        assert cpsd_check(np.zeros((2, 2))).verdict

    def test_log_half_identity_fails_with_difference_witness(self):
        # Direct evaluation oracle: for c = (1,-1), (c, A c) = 2 ln(1/2) < 0.
        A = LOG_HALF * np.eye(2)
        c = np.array([1.0, -1.0])
        assert c.conj() @ A @ c == pytest.approx(2 * LOG_HALF)
        v = cpsd_check(A)
        assert not v.verdict
        assert v.min_eigenvalue == pytest.approx(LOG_HALF, abs=1e-12)
        w = v.witness / v.witness[0]
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)
        assert abs(v.witness.sum()) < 1e-12

    def test_psd_implies_cpsd(self):
        assert cpsd_check(np.ones((2, 2))).verdict
        rng = np.random.default_rng(7)
        for _ in range(25):
            G = rand_matrix(rng, 4)
            A = G.conj().T @ G
            assert cpsd_check(A).verdict

    def test_requires_hermitian(self):
        with pytest.raises(InputError):
            cpsd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_scalar_case_is_vacuous(self):
        assert cpsd_check(np.array([[-5.0]])).verdict


class TestHadamard:
    def test_product_with_ones_is_identity(self):
        rng = np.random.default_rng(0)
        A = rand_matrix(rng, 3)
        np.testing.assert_array_equal(hadamard_product(A, np.ones((3, 3))), A)

    def test_product_of_diagonals(self):
        out = hadamard_product(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        np.testing.assert_allclose(out, np.diag([10.0, 21.0]))

    def test_product_matches_entry_loop(self):
        rng = np.random.default_rng(1)
        A, B = rand_matrix(rng, 5), rand_matrix(rng, 5)
        expected = np.empty_like(A)
        for j in range(5):
            for k in range(5):
                expected[j, k] = A[j, k] * B[j, k]
        np.testing.assert_allclose(hadamard_product(A, B), expected, rtol=1e-15)

    def test_product_dim_mismatch(self):
        with pytest.raises(InputError):
            hadamard_product(np.eye(2), np.eye(3))

    def test_exp_of_zero_is_all_ones(self):
        np.testing.assert_array_equal(hadamard_exp(np.zeros((3, 3))), np.ones((3, 3)))

    def test_exp_of_log_half_diagonal(self):
        E = hadamard_exp(np.diag([LOG_HALF, LOG_HALF]))
        np.testing.assert_allclose(E, [[0.5, 1.0], [1.0, 0.5]], atol=1e-15)
        eigs = np.sort(np.linalg.eigvalsh(E.real))
        np.testing.assert_allclose(eigs, [-0.5, 1.5], atol=1e-12)

    def test_exp_overflow_reports_index(self):
        with pytest.raises(RangeError, match=r"\(0,1\)"):
            hadamard_exp(np.array([[0.0, 1000.0], [0.0, 0.0]]))

    def test_exp_of_stack_is_entrywise(self):
        A = np.stack([np.zeros((2, 2)), np.diag([LOG_HALF, LOG_HALF])])
        E = hadamard_exp(A, 2.0)
        assert E.shape == (2, 2, 2)
        for i in range(2):
            np.testing.assert_array_equal(E[i], hadamard_exp(A[i], 2.0))

    def test_exp_overflow_in_stack_names_matrix_and_entry(self):
        A = np.zeros((3, 2, 2))
        A[2, 1, 0] = 1000.0
        with pytest.raises(RangeError, match=r"^entrywise exponential overflow at entry \(2,1,0\)$"):
            hadamard_exp(A)

    def test_exp_of_stack_rejects_non_finite_matrix(self):
        # exp(-inf) is a finite 0, so only the input check catches that entry.
        for bad in (np.nan, -np.inf):
            A = np.zeros((3, 2, 2))
            A[1, 0, 0] = bad
            with pytest.raises(InputError, match="entries must be finite"):
                hadamard_exp(A)

    def test_exponent_law(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = rand_matrix(rng, 4)
            s, t = rng.uniform(0.1, 2.0, size=2)
            lhs = hadamard_exp(A, s + t)
            rhs = hadamard_product(hadamard_exp(A, s), hadamard_exp(A, t))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestNorms:
    def test_simple_values(self):
        assert matrix_norm(np.diag([1.0, 2.0]), NormKind.OP) == pytest.approx(2.0)
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert matrix_norm(N, "max") == pytest.approx(1.0)
        assert matrix_norm(N, "op") == pytest.approx(1.0)
        assert matrix_norm(N, "hs") == pytest.approx(1.0)

    def test_norm_inequalities_against_svd_oracle(self):
        # op <= hs <= trace via singular values; max <= op <= m * max; op <= entry_sum.
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            A = rand_matrix(rng, m)
            sv = np.linalg.svd(A, compute_uv=False)
            assert matrix_norm(A, "op") == pytest.approx(sv[0], rel=1e-12)
            assert matrix_norm(A, "hs") == pytest.approx(np.sqrt((sv**2).sum()), rel=1e-12)
            assert matrix_norm(A, "trace") == pytest.approx(sv.sum(), rel=1e-12)
            op, hs, tr = (matrix_norm(A, k) for k in ("op", "hs", "trace"))
            mx, es = matrix_norm(A, "max"), matrix_norm(A, "entry_sum")
            eps = 1e-12 * max(1.0, tr)
            assert op <= hs + eps
            assert hs <= tr + eps
            assert mx <= op + eps
            assert op <= m * mx + eps
            assert op <= es + eps


class TestHermitianSplit:
    def test_psd_input(self):
        rng = np.random.default_rng(4)
        G = rand_matrix(rng, 3)
        A = G.conj().T @ G
        parts = hermitian_split(A)
        np.testing.assert_allclose(parts.re_pos, A, atol=1e-12)
        assert op_norm(parts.re_neg) < 1e-12
        assert op_norm(parts.im) < 1e-14

    def test_purely_imaginary_identity(self):
        parts = hermitian_split(1j * np.eye(2))
        assert op_norm(parts.re) < 1e-15
        np.testing.assert_allclose(parts.im, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(parts.im_pos, np.eye(2), atol=1e-15)

    def test_reassembly_and_operator_norm_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            A = rand_matrix(rng, 5)
            p = hermitian_split(A)
            np.testing.assert_allclose(p.re + 1j * p.im, A, atol=1e-12)
            np.testing.assert_allclose(p.re_pos - p.re_neg, p.re, atol=1e-12)
            np.testing.assert_allclose(p.im_pos - p.im_neg, p.im, atol=1e-12)
            a = op_norm(A) * (1 + 1e-12)
            for part in (p.re_pos, p.re_neg, p.im_pos, p.im_neg):
                assert psd_check(part).verdict
                assert op_norm(part) <= a


class TestContractionFactor:
    def test_identity_block(self):
        rep = contraction_factor_check(np.eye(2), np.eye(2), np.eye(2))
        assert rep.check("block_psd")["verdict"]
        assert rep.check("contraction_norm")["value"] == pytest.approx(1.0)
        assert rep.passed

    def test_non_psd_block_reports_large_contraction(self):
        rep = contraction_factor_check(np.eye(2), 2 * np.eye(2), np.eye(2))
        assert not rep.check("block_psd")["verdict"]
        assert rep.check("contraction_norm")["value"] == pytest.approx(2.0)
        assert rep.passed  # no assertion is triggered when the block is not PSD

    def test_gram_blocks_are_psd_with_contraction(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            G = rand_matrix(rng, 6)
            M = G.conj().T @ G
            M1, X, M2 = M[:3, :3], M[:3, 3:], M[3:, 3:]
            rep = contraction_factor_check(M1, X, M2)
            assert rep.check("block_psd")["verdict"]
            assert rep.check("contraction_norm")["value"] <= 1 + 1e-8
            assert rep.passed

    def test_rectangular_block_sets_the_default_tol(self):
        # ||X||_op = 30 exceeds both corners' norms, so it sets the tolerance.
        X = 5.0 * np.ones((2, 3)) * np.sqrt(2.0 * 3.0)
        rep = contraction_factor_check(np.eye(2), X, np.eye(3))
        assert rep.meta["tol"] == pytest.approx(30e-9, rel=1e-12)

    def test_non_psd_corner_rejected(self):
        with pytest.raises(InputError):
            contraction_factor_check(-np.eye(2), np.eye(2), np.eye(2))

    def test_factorized_contraction_gives_psd_block(self):
        # Reverse direction: X = M1^{1/2} C M2^{1/2} with ||C|| <= 1 forces a PSD block.
        rng = np.random.default_rng(13)
        for _ in range(15):
            G1, G2 = rand_matrix(rng, 3), rand_matrix(rng, 3)
            M1, M2 = G1.conj().T @ G1, G2.conj().T @ G2
            C = rand_matrix(rng, 3)
            C = C / (np.linalg.norm(C, 2) * (1 + rng.uniform(0, 1)))
            w1, V1 = np.linalg.eigh(M1)
            w2, V2 = np.linalg.eigh(M2)
            s1 = (V1 * np.sqrt(np.maximum(w1, 0))) @ V1.conj().T
            s2 = (V2 * np.sqrt(np.maximum(w2, 0))) @ V2.conj().T
            X = s1 @ C @ s2
            rep = contraction_factor_check(M1, X, M2)
            assert rep.check("block_psd")["verdict"]
            assert rep.check("contraction_norm")["value"] <= 1 + 1e-8
            assert rep.passed


class TestLemma22And23Loop:
    """Conditional PSD of A versus PSD of its Hadamard exponentials."""

    T_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0)

    def test_forward_direction(self):
        rng = np.random.default_rng(9)
        found_cpsd = 0
        for _ in range(60):
            A = rand_hermitian(rng, 3)
            if cpsd_check(A).verdict:
                found_cpsd += 1
                for t in self.T_GRID:
                    assert psd_check(hadamard_exp(A, t)).verdict
        # Also exercise structurally conditionally PSD inputs.
        for _ in range(20):
            G = rand_matrix(rng, 4)
            A = G.conj().T @ G
            for t in self.T_GRID:
                assert psd_check(hadamard_exp(A, t)).verdict

    def test_reverse_direction_with_margin(self):
        # A clearly non-cpsd Hermitian matrix must fail PSD at some grid t.
        rng = np.random.default_rng(10)
        for _ in range(40):
            A = rand_hermitian(rng, 3)
            v = cpsd_check(A)
            if v.min_eigenvalue < -1e-2:
                assert any(not psd_check(hadamard_exp(A, t)).verdict for t in self.T_GRID)

    def test_difference_quotient_recovers_generator(self):
        rng = np.random.default_rng(11)
        A = rand_hermitian(rng, 4)
        t = 1e-6
        quotient = (hadamard_exp(A, t) - np.ones((4, 4))) / t
        np.testing.assert_allclose(quotient, A, atol=1e-5)


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        A = rand_matrix(rng, 3)
        np.testing.assert_array_equal(matrix_from_json_dict(matrix_to_json_dict(A)), A)

    def test_malformed(self):
        with pytest.raises(InputError):
            matrix_from_json_dict({"m": 2, "entries": [[[1, 0]]]})

    def test_default_tol_scales(self):
        assert default_tol(np.eye(2)) == pytest.approx(1e-9)
        assert default_tol(100 * np.eye(2)) == pytest.approx(1e-7)

    def test_verdict_wire_format_keys(self):
        v = psd_check(np.ones((2, 2))).to_json_dict()
        assert set(v) == {"verdict", "min_eig", "defect", "witness", "tol"}
        assert all(len(pair) == 2 for pair in v["witness"])
