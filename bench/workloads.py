"""The three benchmark workloads.

A workload is built once from the seed (its set-up: generating inputs and
writing input files) and then runs identical passes. One pass is a fixed list
of items; each item is timed by the session and verified outside the timed
region. Every pass of one run does the same work, so work counts recorded by
the tracer repeat exactly from pass to pass.
"""

from __future__ import annotations

import json
import math
import os
import traceback

import numpy as np

from mpsd import cli, grid, matcore, measures, oplab, psdfun, suite

DIGITS_FLOOR = 1e-16


def digits(relative_error: float) -> float:
    """Decimal digits of agreement: -log10 of the error, capped at 16."""
    return -math.log10(max(relative_error, DIGITS_FLOOR))


class SuiteWorkload:
    """`mpsd paper-suite` in-process; each of the 15 criteria is one item."""

    name = "suite"
    min_passes = 2  # two passes with one seed must write byte-identical reports

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.reference: bytes | None = None
        self.reference_entries: dict = {}
        self.worst_l2_gap = 0.0

    def run_pass(self, session, index: int) -> None:
        out = os.path.join(self.workdir, f"suite-{index}.json")
        argv = ["paper-suite", "--seed", str(self.seed), "--out", out]
        original = list(suite.CRITERIA)
        suite.CRITERIA[:] = [(name, session.timed_criterion(name, fn)) for name, fn in original]
        try:
            with session.measuring():
                code = cli.main(argv)
        except Exception:  # a crashed pass fails every criterion it did not finish
            traceback.print_exc()
            code = None
        finally:
            suite.CRITERIA[:] = original
        if code is None or not os.path.exists(out):
            session.fail_unfinished([name for name, _ in original])
            return
        with open(out, "rb") as fh:
            body = fh.read()
        entries = {e["name"]: e for e in json.loads(body)["result"]["criteria"]}
        if self.reference is None:
            self.reference, self.reference_entries = body, entries
        for name, _ in original:
            entry = entries.get(name)
            ok = (entry is not None and entry["matches_expected"]
                  and entry == self.reference_entries.get(name))
            session.verdict(name, ok, f"exit code {code}, byte-identical={body == self.reference}")
            if name == "right_mult_and_l2_norm" and entry is not None:
                for check in entry["report"]["checks"]:
                    if check["name"] == "supremum_vs_power_iteration":
                        self.worst_l2_gap = max(self.worst_l2_gap, check["worst_relative_gap"])

    def accuracy_digits(self) -> float:
        """The multiplier norm by supremum versus by power iteration."""
        return digits(self.worst_l2_gap)


# Point-set sizes, one lattice set and one random set per default case, in
# case order. The two largest random sets go to cases of similar cost, so the
# slowest items of a pass take about the same time.
LATTICE_N = (32, 32, 24, 16, 12, 8, 4, 2)
RANDOM_N = (2, 4, 8, 12, 16, 24, 32, 32)


def lattice_radius(n: int, N: int) -> int:
    """Smallest R whose integer cube {-R..R}^n has at least 2N sites."""
    R = 1
    while (2 * R + 1) ** n < 2 * N:
        R += 1
    return R


class GramWorkload:
    """Schoenberg equivalence report plus weak conditional positivity per point set."""

    name = "gram"
    min_passes = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.items = []
        for case, n_lat, n_rand in zip(psdfun.default_cases(), LATTICE_N, RANDOM_N):
            F = case.function
            R = lattice_radius(F.n, n_lat)
            side = 2 * R + 1
            sites = rng.choice(side**F.n, size=n_lat, replace=False)
            lattice = np.stack(np.unravel_index(sites, (side,) * F.n), axis=-1) - R
            self.items.append((f"{case.label}/lattice/N={n_lat}", case,
                               psdfun.PointSet(n=F.n, points=lattice.astype(float))))
            R = lattice_radius(F.n, n_rand)
            self.items.append((f"{case.label}/random/N={n_rand}", case,
                               psdfun.PointSet(n=F.n, points=rng.uniform(-R, R, (n_rand, F.n)))))
        self.worst_roundoff = 0.0

    def run_pass(self, session, index: int) -> None:
        for label, case, X in self.items:
            F = case.function
            directions = [np.eye(F.m)[j] for j in range(F.m)] + [np.ones(F.m) / np.sqrt(F.m)]
            with session.item(label) as item:
                report = psdfun.schoenberg_equivalence_report(F, X, suite.T_GRID)
                weak = psdfun.weak_cpsd_check(F, X, directions)
            if not item.finished:
                continue
            consistent = all(c["passed"] for c in report.checks
                             if c["name"].startswith("consistency"))
            cpsd = report.check("cpsd")["verdict"]
            ok = consistent and report.passed and (not case.cpsd or (cpsd and weak.passed))
            session.verdict(label, ok, f"consistent={consistent} cpsd={cpsd} weak={weak.passed}")
            if case.cpsd:
                # An analytically conditionally PSD Gram has a constrained minimum
                # eigenvalue >= 0; a negative one is round-off, relative to the
                # Gram norm that sets the tolerance (tol = 1e-9 * max(1, ||G||)).
                detail = {c["name"]: c for c in report.check("cpsd")["detail"]}
                min_eig = detail["constrained_psd"]["min_eig"]
                scale = report.meta["tol"] / 1e-9
                self.worst_roundoff = max(self.worst_roundoff, -min_eig / scale)

    def accuracy_digits(self) -> float:
        """Round-off in the constrained eigenvalue of analytically CPSD Grams."""
        return digits(self.worst_roundoff)


# One job per (n, K, m, atoms). Atom counts run from 2 to 256; the three jobs
# on the 128^2 grid, dominated by the Gaussian probe, are the slowest and take
# about the same time.
SPECTRAL_JOBS = (
    (1, 1024, 1, 2), (1, 1024, 2, 64), (1, 1024, 3, 256),
    (1, 4096, 1, 128), (1, 4096, 2, 16), (1, 4096, 3, 4),
    (2, 64, 1, 64), (2, 64, 2, 32), (2, 64, 3, 8),
    (2, 128, 1, 16), (2, 128, 2, 8), (2, 128, 3, 4),
)
SPECTRAL_L = 40.0


class SpectralWorkload:
    """One-shot multiplier jobs through the CLI on fresh grid-snapped measures."""

    name = "spectral"
    min_passes = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.jobs = []
        for j, (n, K, m, atoms) in enumerate(SPECTRAL_JOBS):
            spec = grid.GridSpec(n=n, L=SPECTRAL_L, K=K)
            prefix = os.path.join(workdir, f"job{j}-")
            cells = rng.choice(K**n, size=atoms, replace=False)
            locs = spec.axis_points()[np.stack(np.unravel_index(cells, (K,) * n), axis=-1)]
            mu = measures.matrix_measure(n, m, [
                (x, rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) for x in locs
            ])
            with open(prefix + "measure.json", "w") as fh:
                json.dump(mu.to_json_dict(), fh)
            with open(prefix + "weight.json", "w") as fh:
                json.dump(matcore.matrix_to_json_dict(np.eye(m)), fh)
            shape = (K,) * n + (m, m)
            field = grid.GridField(spec=spec, m=m, values=rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape))
            grid.save_field(field, prefix + "field.bin")
            probes = []
            for i in range(2 if n == 1 else 1):
                G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                D = G.conj().T @ G
                probe = oplab.separable_gaussian_field(
                    spec, m, rng.uniform(0.5, 2.0), D / matcore.op_norm(D),
                    center=rng.uniform(-SPECTRAL_L / 10, SPECTRAL_L / 10, size=n))
                grid.save_field(probe, prefix + f"probe{i}.bin")
                probes.append(prefix + f"probe{i}.bin")
            # Gaussian atoms two cells apart on grid points: the symbol is the
            # transform of a nonnegative scalar measure acting by exact shifts,
            # so the multiplier preserves positivity on the grid.
            gauss_cells = 16 if n == 1 else 8
            grid_args = ["--n", str(n), "--L", repr(SPECTRAL_L), "--K", str(K)]
            self.jobs.append({
                "label": f"n={n}/K={K}/m={m}/atoms={atoms}",
                "n": n,
                "field": prefix + "field.bin",
                "mult_out": prefix + "mult.bin",
                "conv_out": prefix + "conv.bin",
                "probe_report": prefix + "probe.json",
                "commands": [
                    ["multiplier-apply", "--measure", prefix + "measure.json",
                     "--field", prefix + "field.bin", "--field-out", prefix + "mult.bin",
                     "--out", prefix + "mult.json"] + grid_args,
                    ["convolve", "--measure", prefix + "measure.json",
                     "--field", prefix + "field.bin", "--field-out", prefix + "conv.bin",
                     "--out", prefix + "conv.json"] + grid_args,
                    ["positivity-probe", "--measure", "gaussian", "--weight", prefix + "weight.json",
                     "--cells", str(gauss_cells), "--extent", repr(gauss_cells * spec.h),
                     "--out", prefix + "probe.json"]
                    + [arg for p in probes for arg in ("--field", p)] + grid_args,
                ],
            })
        self.worst_oracle = 0.0

    def run_pass(self, session, index: int) -> None:
        for job in self.jobs:
            for stale in (job["mult_out"], job["conv_out"], job["probe_report"]):
                if os.path.exists(stale):
                    os.remove(stale)
            with session.item(job["label"]) as item:
                codes = [cli.main(argv) for argv in job["commands"]]
            if not item.finished:
                continue
            f = grid.load_field(job["field"])
            lhs = grid.load_field(job["mult_out"]).values
            rhs = grid.load_field(job["conv_out"]).values
            oracle = float(np.abs(lhs - (2 * np.pi) ** (-job["n"] / 2) * rhs).max()
                           / np.abs(lhs).max())
            roundtrip = float(np.abs(grid.idft(grid.dft(f)).values - f.values).max())
            with open(job["probe_report"]) as fh:
                probe_ok = json.load(fh)["result"]["passed"]
            ok = codes == [0, 0, 0] and oracle <= 1e-6 and roundtrip <= 1e-12 and probe_ok
            session.verdict(job["label"], ok, f"exit codes {codes}, oracle {oracle:.2e}, "
                            f"round trip {roundtrip:.2e}, probe passed={probe_ok}")
            self.worst_oracle = max(self.worst_oracle, oracle)

    def accuracy_digits(self) -> float:
        """Multiplier route against the scaled direct convolution route."""
        return digits(self.worst_oracle)


WORKLOADS = {w.name: w for w in (SuiteWorkload, GramWorkload, SpectralWorkload)}
