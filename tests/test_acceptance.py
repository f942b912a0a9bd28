"""End-to-end verification suite: one test per headline criterion.

Each test runs the corresponding suite criterion at its stated tolerance,
prints a single pass/fail line (visible under pytest -s or on failure), and
enforces the runtime budgets where one is stated.
"""

import time

import numpy as np

from mpsd import suite

SEED = 7

# Wall-clock budgets in seconds for the criteria that carry one.
TIME_LIMITS = {
    "example_2_13": 1.0,
    "schoenberg_suite": 30.0,
    "appendix_a": 10.0,
    "right_mult_and_l2_norm": 60.0,
    "l1_bounds": 20.0,
    "trace_condition": 10.0,
}


def _run(name):
    fn = dict(suite.CRITERIA)[name]
    start = time.perf_counter()
    rep = fn(SEED)
    elapsed = time.perf_counter() - start
    status = "PASS" if rep.passed else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s)")
    for check in rep.checks:
        if not check["passed"]:
            print(f"    failed: {check}")
    limit = TIME_LIMITS.get(name)
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.2f}s, budget {limit}s"
    return rep


class TestAcceptance:
    def test_01_example_2_13(self):
        rep = _run("example_2_13")
        assert rep.check("exp_values")["passed"]
        assert rep.check("eigenvalues")["passed"]
        assert rep.check("cpsd_false_with_witness")["passed"]
        assert rep.check("weak_cpsd_true")["passed"]

    def test_02_schoenberg_suite(self):
        rep = _run("schoenberg_suite")
        assert rep.passed
        # Both non-conditionally-PSD catalog entries produced a witness.
        witnesses = [c for c in rep.checks if c["name"].startswith("violation_witness")]
        assert len(witnesses) == 2
        for w in witnesses:
            assert w["witness"] is not None

    def test_03_remark_4_5b(self):
        rep = _run("remark_4_5b")
        assert rep.check("shifted_gram_zero")["passed"]
        form = rep.check("witness_quadratic_form")["form"]
        assert abs(complex(form) - (-2.0)) <= 1e-12

    def test_04_shifted_gram_psd(self):
        rep = _run("shifted_gram_psd")
        assert rep.passed
        assert len(rep.checks) >= 4  # every cpsd case with nonpositive origin value

    def test_05_appendix_a(self):
        rep = _run("appendix_a")
        assert rep.passed
        ratio = rep.check("offdiagonal_ratio_near_2")["ratio"]
        assert 1.9 <= np.real(ratio) <= 2.1
        assert rep.check("hermiticity_defect_large")["passed"]
        assert not rep.check("output_not_psd")["verdict"]
        assert rep.check("entrywise_limit_within_5pct")["relative_error"] <= 0.05

    def test_06_right_mult_and_l2_norm(self):
        rep = _run("right_mult_and_l2_norm")
        assert rep.check("right_mult_norm_identity")["worst_gap"] <= 1e-10
        assert rep.check("supremum_vs_power_iteration")["worst_relative_gap"] <= 0.02

    def test_07_l1_bounds(self):
        rep = _run("l1_bounds")
        assert rep.check("random_measures_within_upper")["passed"]
        assert rep.check("corner_gaussian_lower_sharpness")["passed"]
        assert rep.check("full_gaussian_upper_sharpness")["passed"]

    def test_08_l2_bounds(self):
        rep = _run("l2_bounds")
        assert rep.check("corner_symbol_within_5pct")["passed"]
        assert rep.check("all_ones_upper_sharpness")["passed"]
        assert rep.check("random_symbols_within_bounds")["passed"]

    def test_09_trace_condition(self):
        rep = _run("trace_condition")
        assert rep.passed
        assert rep.check("non_cpsd_trace_fails")["witness"] is not None

    def test_10_theorem_4_12(self):
        rep = _run("theorem_4_12")
        assert rep.check("matrix_witness_found")["passed"]
        assert rep.check("identity_direction_inconclusive")["passed"]
        assert rep.check("scalar_control_inconclusive")["passed"]
        assert rep.check("scalar_gaussian_probe_passes")["passed"]

    def test_11_kernel_bound(self):
        rep = _run("kernel_bound")
        assert rep.check("kernel_transform_l1")["passed"]
        assert rep.check("smoothing_bound_random_symbols")["passed"]

    def test_12_sup_bounds(self):
        rep = _run("sup_bounds")
        assert rep.passed

    def test_13_growth_and_inequalities(self):
        rep = _run("growth_and_inequalities")
        assert rep.passed

    def test_14_cross_module_oracle(self):
        rep = _run("cross_module_oracle")
        assert rep.check("multiplier_equals_scaled_convolution")["worst_relative_error"] <= 1e-6

    def test_15_transform_pair(self):
        rep = _run("transform_pair")
        assert rep.passed


def test_suite_is_deterministic():
    from mpsd.matcore import jsonable

    first = {name: jsonable(rep.to_json_dict()) for name, rep in suite.run_all(seed=SEED)}
    second = {name: jsonable(rep.to_json_dict()) for name, rep in suite.run_all(seed=SEED)}
    assert first == second
