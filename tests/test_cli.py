"""Command-line interface: exit codes, report determinism, catalog listing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpsd.cli import main
from mpsd.grid import GridField, GridSpec, load_field, save_field
from mpsd.matcore import matrix_to_json_dict


@pytest.fixture
def ones2(tmp_path):
    path = tmp_path / "ones2.json"
    path.write_text(json.dumps(matrix_to_json_dict(np.ones((2, 2)))))
    return str(path)


@pytest.fixture
def indefinite(tmp_path):
    path = tmp_path / "indef.json"
    path.write_text(json.dumps(matrix_to_json_dict(np.array([[0.5, 1.0], [1.0, 0.5]]))))
    return str(path)


def run(args, capsys=None):
    code = main(args)
    return code


class TestExitCodes:
    def test_cpsd_of_all_ones_exits_zero(self, ones2, tmp_path):
        out = str(tmp_path / "rep.json")
        assert run(["cpsd", "--matrix", ones2, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["result"]["verdict"] is True

    def test_psd_failure_exits_one_with_witness(self, indefinite, tmp_path):
        out = str(tmp_path / "rep.json")
        assert run(["psd", "--matrix", indefinite, "--out", out]) == 1
        doc = json.loads(open(out).read())
        assert doc["result"]["verdict"] is False
        assert doc["result"]["min_eig"] == pytest.approx(-0.5, abs=1e-12)
        assert len(doc["result"]["witness"]) == 2

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["psd", "--matrix", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_required_input_exits_two(self, capsys):
        assert run(["psd"]) == 2

    def test_under_resolved_appendix_a_exits_two(self, tmp_path, capsys):
        assert run(["appendix-a", "--eps", "0.05", "--K", "64"]) == 2
        err = capsys.readouterr().err
        assert "minimum K" in err

    def test_appendix_a_expected_failure_exits_one(self, tmp_path):
        out = str(tmp_path / "rep.json")
        code = run(
            ["appendix-a", "--eps", "0.05", "--K", "4096", "--cells", "256", "--out", out]
        )
        assert code == 1
        doc = json.loads(open(out).read())
        assert doc["result"]["matches_expected"] is True

    def test_thm_4_12_witness_exits_one_and_matches(self, tmp_path):
        out = str(tmp_path / "rep.json")
        code = run(
            ["thm-4-12", "--function", "example_4_17_i", "--t", "1.0", "--K", "1024", "--out", out]
        )
        assert code == 1
        doc = json.loads(open(out).read())
        assert doc["result"]["matches_expected"] is True
        assert doc["result"]["meta"]["status"] == "witness_found"


class TestReports:
    def test_reports_are_byte_identical_for_same_config(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["trace-check", "--function", "example_4_17_i", "--t", "0.5,1.0",
                "--K", "256", "--seed", "11", "--out"]
        assert run(argv + [a]) == 0
        assert run(argv + [b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_and_tol_recorded(self, ones2, tmp_path):
        out = str(tmp_path / "rep.json")
        run(["psd", "--matrix", ones2, "--seed", "123", "--out", out])
        doc = json.loads(open(out).read())
        assert doc["config"]["seed"] == 123
        assert "tol" in doc["config"]

    def test_csv_format(self, ones2, tmp_path):
        out = str(tmp_path / "rep.csv")
        run(["psd", "--matrix", ones2, "--format", "csv", "--out", out])
        lines = open(out).read().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("result.verdict,") for line in lines)

    def test_csv_eigenvalue_scan(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        code = run(["positivity-probe", "--measure", "gaussian", "--extent", "6.0",
                    "--cells", "64", "--K", "128", "--format", "csv", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x0,min_eig,defect"
        assert len(lines) == 1 + 128

    def test_stdout_when_no_out_path(self, ones2, capsys):
        run(["psd", "--matrix", ones2])
        doc = json.loads(capsys.readouterr().out)
        assert doc["subcommand"] == "psd"


class TestPaperSuite:
    def test_paper_suite_exits_zero(self, tmp_path):
        out = str(tmp_path / "suite.json")
        assert run(["paper-suite", "--seed", "7", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["result"]["all_matches_expected"] is True
        names = {entry["name"] for entry in doc["result"]["criteria"]}
        assert "appendix_a" in names and "schoenberg_suite" in names
        assert all(entry["matches_expected"] for entry in doc["result"]["criteria"])


class TestCatalogListing:
    def test_contains_required_ids(self, capsys):
        assert run(["catalog"]) == 0
        doc = json.loads(capsys.readouterr().out)
        ids = {row["id"] for row in doc["result"]["entries"]}
        assert {"example_2_13", "remark_4_5b", "appendix_a_measure"} <= ids
        kinds = {row["id"]: row["kind"] for row in doc["result"]["entries"]}
        assert kinds["appendix_a_measure"] == "measure"


class TestFieldPipeline:
    def test_convolve_and_multiplier_apply_round_trip(self, tmp_path):
        spec = GridSpec(n=1, L=20.0, K=128)
        rng = np.random.default_rng(3)
        f = GridField(
            spec=spec,
            m=2,
            values=rng.standard_normal((128, 2, 2)) + 1j * rng.standard_normal((128, 2, 2)),
        )
        field_in = str(tmp_path / "in.bin")
        save_field(f, field_in)

        # Atoms on exact grid points: the two routes agree to roundoff.
        measure_path = tmp_path / "mu.json"
        atoms = []
        for k, scale_w in ((16, 1.0), (40, 0.5), (100, 2.0)):
            W = scale_w * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            atoms.append({"xi": [float(spec.axis_points()[k])], "W": matrix_to_json_dict(W)})
        measure_path.write_text(json.dumps({"n": 1, "m": 2, "atoms": atoms}))

        conv_out = str(tmp_path / "conv.bin")
        code = run(
            ["convolve", "--measure", str(measure_path),
             "--field", field_in, "--field-out", conv_out, "--out", str(tmp_path / "c.json")]
        )
        assert code == 0
        mult_out = str(tmp_path / "mult.bin")
        code = run(
            ["multiplier-apply", "--measure", str(measure_path),
             "--field", field_in, "--field-out", mult_out, "--out", str(tmp_path / "m.json")]
        )
        assert code == 0
        conv = load_field(conv_out)
        mult = load_field(mult_out)
        scale = (2 * np.pi) ** -0.5
        rel = np.abs(mult.values - scale * conv.values).max() / np.abs(mult.values).max()
        assert rel < 1e-10

    def test_measure_fourier_and_bochner(self, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"n": 1, "points": [[0.0], [1.0], [-1.0]]}))
        out = str(tmp_path / "four.json")
        assert run(
            ["measure-fourier", "--measure", "appendix_a_measure", "--cells", "64",
             "--points", str(pts), "--out", out]
        ) == 0
        doc = json.loads(open(out).read())
        assert len(doc["result"]["values"]) == 3
        assert run(
            ["bochner", "--measure", "appendix_a_measure", "--cells", "64",
             "--points", str(pts)]
        ) == 0


class TestTheoremCommands:
    def test_schoenberg_on_catalog_function(self, tmp_path):
        assert run(
            ["schoenberg", "--function", "example_4_17_i", "--t", "0.1,1.0",
             "--seed", "4", "--out", str(tmp_path / "s.json")]
        ) == 0

    def test_weak_cpsd_split_verdict(self, tmp_path):
        # Weak directional positivity holds while the full conditional check fails.
        assert run(["weak-cpsd", "--function", "example_2_13", "--seed", "5",
                    "--out", str(tmp_path / "w1.json")]) == 0
        assert run(["schoenberg", "--function", "example_2_13", "--t", "1.0", "--seed", "5",
                    "--out", str(tmp_path / "w2.json")]) == 1

    def test_trace_check_fails_for_non_cpsd(self, tmp_path):
        code = run(["trace-check", "--function", "remark_4_5b", "--t", "0.5",
                    "--K", "256", "--out", str(tmp_path / "t.json")])
        assert code == 1

    def test_right_mult_norm(self, ones2, tmp_path):
        out = str(tmp_path / "r.json")
        assert run(["right-mult-norm", "--matrix", ones2, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["result"]["value"] == pytest.approx(2.0)

    def test_k_a_bound_default_symbol(self, tmp_path):
        assert run(["k-a-bound", "--a", "1.0", "--K", "1024", "--L", "80.0",
                    "--out", str(tmp_path / "k.json")]) == 0

    def test_l1_bounds_and_l2_norm(self, tmp_path):
        assert run(["l1-bounds", "--measure", "gaussian_entry_11", "--cells", "128",
                    "--K", "1024", "--out", str(tmp_path / "l1.json")]) == 0
        assert run(["l2-norm", "--function", "example_2_13", "--K", "256",
                    "--out", str(tmp_path / "l2.json")]) == 0

    def test_growth_and_lemma_4_13(self, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps(
            {"id": "example_4_17_ii", "params": {"generator": {"quadratic": [[1.0]]}, "m": 2}}
        ))
        assert run(["growth-bound", "--function", str(fn),
                    "--out", str(tmp_path / "g.json")]) == 0
        assert run(["lemma-4-13", "--function", str(fn),
                    "--out", str(tmp_path / "l.json")]) == 0

    def test_positivity_probe_passes_for_scalar_measure(self, tmp_path):
        assert run(["positivity-probe", "--measure", "gaussian", "--extent", "6.0",
                    "--cells", "64", "--K", "256", "--out", str(tmp_path / "p.json")]) == 0


# Runs in a fresh interpreter: records the BLAS/OpenMP thread variables at the
# moment numpy is first imported, which is when its pools read them.
_THREAD_PROBE = """
import json, os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")])
        return None
sys.meta_path.insert(0, Probe())
import mpsd
print(json.dumps(seen))
"""


class TestThreadCap:
    @pytest.mark.parametrize("env, expected", [
        ({"MPSD_THREADS": "1"}, [["1", "1"]]),
        # An explicit setting wins over MPSD_THREADS.
        ({"MPSD_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, [["1", "2"]]),
    ])
    def test_cap_is_set_before_numpy_loads(self, env, expected):
        base = {k: v for k, v in os.environ.items()
                if k not in ("MPSD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
        src = str(Path(__file__).resolve().parents[1] / "src")
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env={**base, **env},
                              capture_output=True, text=True, timeout=120, check=True)
        assert json.loads(proc.stdout) == expected
