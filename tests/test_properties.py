"""Property tests: batched evaluation agrees bit for bit with the one-point form,
the Gram of exp_H(tF) is hadamard_exp of F's Gram, and CPSD witnesses lie on
the sum-zero subspace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mpsd.matcore import cpsd_check, hadamard_exp
from mpsd.psdfun import PointSet, default_cases, gram, hadamard_exp_function

CASES = default_cases()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def point_sets(n: int):
    return st.integers(1, 40).flatmap(
        lambda P: arrays(np.float64, (P, n), elements=st.floats(-10.0, 10.0, allow_nan=False))
    )


@pytest.mark.parametrize("exponentiate", [False, True], ids=["F", "exp_H(tF)"])
@pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), t=st.floats(0.0, 10.0))
def test_batch_matches_one_point_form(case, exponentiate, data, t):
    F = hadamard_exp_function(case.function, t) if exponentiate else case.function
    X = data.draw(point_sets(F.n))
    V = F.values(X)
    assert np.array_equal(V, np.stack([F(x) for x in X]))
    for i, x in enumerate(X):
        assert same_bits(V[i], F(x))
    G = gram(F, PointSet(n=F.n, points=X))
    for p in range(len(X)):
        for q in range(len(X)):
            assert same_bits(G.block(p, q), F(X[p] - X[q]))


@pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), t=st.floats(0.0, 10.0))
def test_exp_gram_is_hadamard_exp_of_gram(case, data, t):
    F = case.function
    X = PointSet(n=F.n, points=data.draw(point_sets(F.n)))
    assert same_bits(hadamard_exp(gram(F, X).matrix, t), gram(hadamard_exp_function(F, t), X).matrix)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), m=st.integers(2, 8))
def test_cpsd_witness_is_unit_and_sums_to_zero(data, m):
    parts = data.draw(arrays(np.float64, (2, m, m), elements=st.floats(-10.0, 10.0, allow_nan=False)))
    M = parts[0] + 1j * parts[1]
    w = cpsd_check((M + M.conj().T) / 2).witness
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert abs(w.sum()) <= 1e-12
