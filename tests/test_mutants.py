"""Mutation table for the Gram path: each injected fault must change the verdict
of every criterion listed for it.

A mutant replaces one matcore function in every mpsd module that binds it,
because `psdfun` and `suite` import these names directly. Only the listed
criteria run, at the suite's default seed. A criterion that raises an mpsd
error on a mutant also catches it: `paper-suite` then fails instead of
reporting.
"""

import sys

import numpy as np
import pytest

from mpsd import matcore, suite
from mpsd.matcore import InputError

SEED = 7
CRITERIA = dict(suite.CRITERIA)
# Bound before any patch, since a mutant replaces matcore's own name as well.
HADAMARD_EXP = matcore.hadamard_exp


def matrix_exp(A, t=1.0):
    """The matrix exponential exp(tA) in place of the entrywise one."""
    w, V = np.linalg.eig(t * np.asarray(A, dtype=np.complex128))
    with np.errstate(over="ignore", invalid="ignore"):
        return (V * np.exp(w)[..., None, :]) @ np.linalg.inv(V)


def exp_without_t(A, t=1.0):
    """The entrywise exponential at t = 1, whatever t is asked for."""
    return HADAMARD_EXP(A)


def cpsd_on_full_space(A, tol=None):
    """Positivity on all of C^m in place of the sum-zero subspace."""
    return matcore.psd_check(A, tol)


MUTANTS = [
    pytest.param("hadamard_exp", matrix_exp, ("example_2_13", "schoenberg_suite", "trace_condition"),
                 id="matrix_exp"),
    pytest.param("cpsd_check", cpsd_on_full_space, ("example_2_13", "schoenberg_suite"),
                 id="cpsd_on_full_space"),
    # No criterion compares a value of exp_H(tF) at t != 1 with a known one.
    pytest.param("hadamard_exp", exp_without_t, ("schoenberg_suite", "trace_condition"),
                 id="exp_without_t",
                 marks=pytest.mark.xfail(strict=True, reason="no criterion catches a dropped t")),
]


def patch_everywhere(monkeypatch, name, mutant):
    original = getattr(matcore, name)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "mpsd" or module_name.startswith("mpsd.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, mutant)


def caught(criterion) -> bool:
    try:
        return not CRITERIA[criterion](SEED).passed
    except InputError:
        return True


@pytest.mark.parametrize("name, mutant, criteria", MUTANTS)
def test_mutant_is_caught(monkeypatch, name, mutant, criteria):
    patch_everywhere(monkeypatch, name, mutant)
    assert [c for c in criteria if not caught(c)] == []
