"""Property tests: batched evaluation agrees bit for bit with the one-point form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
