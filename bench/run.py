"""mpsd benchmark: one client driving the public API in a closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload suite|gram|spectral --seed N --seconds S --trace 0|1

The seed makes the workload's inputs; the program only sees those inputs.
The run repeats identical passes of the workload until the next pass would
end after S seconds (at least two passes), verifies every item's output, and
prints one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
alternates untraced and traced passes and reports per-layer metrics from the
spans of the traced passes, plus the tracing overhead. Spans are written to
.bench_out/ in the checkout. See bench/README.md for the workloads and for
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# One BLAS/OpenMP thread (nproc here is 2): the closed loop has one client, and
# a single thread keeps timings steady on a shared machine. These must be set
# before numpy is first imported.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
# Typical time of one ReferenceKernel run on the 2-vCPU machine the baseline
# was recorded on. Times are scaled to a machine running the kernel this fast.
REFERENCE_S = 0.003
SAMPLE_INTERVAL_S = 0.25  # the kernel runs on a timer this often during a run
WINDOW_S = 1.0  # a pass is scaled by the kernel runs within it and this near it
SETUP_SAMPLES = 5  # kernel runs just before and just after each set-up process


class ReferenceKernel:
    """A fixed numpy kernel that measures the machine's speed.

    It does not call mpsd, so program changes cannot move it. During a run it
    runs on a timer, between two bytecodes of the workload, and its time is
    taken out of the item and pass times. A pass's speed factor is
    REFERENCE_S over the kernel's median time within WINDOW_S of the pass.
    Every run of the kernel is timed the same way, so the factor does not
    depend on how long a pass takes. The shared machine runs through slow and
    fast phases of seconds to minutes that slow the kernel about as much as
    the workloads, so scaled times vary far less than raw wall times (see
    bench/README.md).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.sym = rng.standard_normal((6, 6))
        self.sym += self.sym.T
        self.small = [rng.standard_normal((3, 3)) + 0j for _ in range(50)]
        self.phases = 1j * rng.uniform(-50.0, 50.0, 16384)
        self.field = rng.standard_normal((4096, 3)) + 0j
        self.runs: list[tuple[float, float]] = []  # (start, seconds) of every run

    def sample(self, repeats: int = 1) -> float:
        """Run the kernel `repeats` times; return the median time of one run."""
        np = self.np
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(60):
                np.linalg.eigh(self.sym)
            for a in self.small:
                (a @ a.conj().T).trace()
                np.abs(a).sum()
            np.exp(self.phases)
            np.fft.ifft(np.fft.fft(self.field, axis=0), axis=0)
            self.runs.append((start, time.perf_counter() - start))
        return statistics.median(seconds for _, seconds in self.runs[-repeats:])

    def seconds_since(self, run: int) -> float:
        """Total kernel time from its `run`-th run on."""
        return sum(seconds for _, seconds in self.runs[run:])

    def speed(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of [start, end]."""
        near = [seconds for t, seconds in self.runs if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near or [seconds for _, seconds in self.runs])

    @contextmanager
    def sampling(self):
        """Run the kernel every SAMPLE_INTERVAL_S seconds, from a SIGALRM handler."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        self._timer(SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            self._timer(0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No kernel runs in here: inside a traced pass they would count as span self time."""
        self._timer(0)
        try:
            yield
        finally:
            self._timer(SAMPLE_INTERVAL_S)

    @staticmethod
    def _timer(interval: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)


class Item:
    def __init__(self, label: str):
        self.label = label
        self.seconds: float | None = None
        self.finished = False
        self.ok: bool | None = None


class Session:
    """Times items, holds their verdicts and switches span recording on and off."""

    def __init__(self, kernel: ReferenceKernel):
        self.kernel = kernel
        self.tracer = None  # set for traced passes only
        self.items: list[Item] = []
        self._next_item = 0

    @contextmanager
    def measuring(self):
        """Region whose calls into mpsd are the measured work (traced if tracing)."""
        if self.tracer is None:
            yield
            return
        previous = self.tracer.recording
        self.tracer.recording = True
        try:
            yield
        finally:
            self.tracer.recording = previous

    @contextmanager
    def _timed(self, label: str):
        item = Item(label)
        self.items.append(item)
        span = None
        if self.tracer is not None and self.tracer.recording:
            previous_item, self.tracer.item = self.tracer.item, self._next_item
            span = self.tracer.open_span(label)
        self._next_item += 1
        start, kernel_runs = time.perf_counter(), len(self.kernel.runs)
        try:
            yield item
            item.finished = True
        finally:
            item.seconds = time.perf_counter() - start - self.kernel.seconds_since(kernel_runs)
            if span is not None:
                self.tracer.close_span(span)
                self.tracer.item = previous_item

    @contextmanager
    def item(self, label: str):
        """One measured item; an exception fails the item and the pass goes on."""
        with self.measuring():
            try:
                with self._timed(label) as item:
                    yield item
            except Exception:  # the benchmark counts the failure and continues
                traceback.print_exc()
                self.items[-1].ok = False

    def timed_criterion(self, name: str, fn):
        """Wrap a suite criterion so that it runs as one item."""
        from mpsd.matcore import InputError

        def run(seed):
            with self._timed(f"suite.{name}"):
                try:
                    return fn(seed)
                except InputError as exc:
                    if self.tracer is not None and self.tracer.recording:
                        self.tracer.count_error("suite", exc)
                    raise

        return run

    def verdict(self, label: str, ok: bool, detail: str) -> None:
        for item in self.items:
            if item.label in (label, f"suite.{label}") and item.ok is None:
                item.ok = bool(ok and item.finished)
                if not item.ok:
                    print(f"FAILED {label}: {detail}", file=sys.stderr)
                return
        self.items.append(Item(label))
        self.items[-1].ok = False
        print(f"FAILED {label}: not run ({detail})", file=sys.stderr)

    def fail_unfinished(self, labels) -> None:
        for label in labels:
            self.verdict(label, False, "the pass raised before it finished")


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median (Harrell and Davis, Biometrika 69, 1982).

    A mean of all order statistics, the i-th weighted by the Beta((n+1)/2,
    (n+1)/2) mass over [(i-1)/n, i/n]. A run has only 12-16 items of very
    different sizes; statistics.median follows whichever item sits at the
    middle rank, and on `suite` that is one of three small criteria whose
    times vary most between passes (see bench/README.md for the comparison).
    """
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2
    steps = 64  # midpoint rule per interval; the weights are normalized below

    def mass(lo: float, hi: float) -> float:
        h = (hi - lo) / steps
        return h * sum((t * (1 - t)) ** (a - 1) for t in (lo + (k + 0.5) * h for k in range(steps)))

    weights = [mass(i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def item_stats(items: list[Item]) -> tuple[float, float, int, dict]:
    """Median and p90 of item times in ms, the pooled sample count, and each
    item's median time in ms.

    Every pass repeats the same items, so each item's time is first reduced
    to its median over passes. The median (Harrell-Davis) and the 90th
    percentile are then taken over these per-item medians, so the tail level
    is the same for every run and every program speed.
    """
    by_label: dict[str, list[float]] = {}
    for item in items:
        if item.finished:
            by_label.setdefault(item.label, []).append(item.seconds * 1e3)
    n = sum(len(v) for v in by_label.values())
    if n == 0:  # every item failed; `failed` already says so
        return 0.0, 0.0, 0, {}
    by_item = {label: statistics.median(v) for label, v in by_label.items()}
    medians = list(by_item.values())
    if len(medians) == 1:
        return medians[0], medians[0], n, by_item
    p90 = statistics.quantiles(medians, n=10, method="inclusive")[-1]
    return harrell_davis_median(medians), p90, n, by_item


def cpu_ticks() -> list[int] | None:
    """The machine-wide cpu line of /proc/stat, where the 8th field is steal."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the host took from this machine during the run."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": int(THREADS), "nproc": os.cpu_count(), "seed": seed,
            "python": sys.version.split()[0]}


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import mpsd and build the inputs:
    (scaled by the kernel's speed just before and after each, raw)."""
    kernel = ReferenceKernel()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel.sample(SETUP_SAMPLES)
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                        "--seed", str(args.seed), "--setup-only"], check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * 2 * REFERENCE_S / (before + kernel.sample(SETUP_SAMPLES)))
    return scaled, raw


def layer_metrics(traced: list[dict], untraced_s: list[float], traced_s: list[float]) -> dict:
    """Per-layer metrics of one traced pass: counts from the first traced pass
    (they repeat exactly), times as the median over traced passes."""
    first = traced[0]
    calls, counts = first["calls"], first["counts"]

    def self_s(name):
        return statistics.median(p["self_s"].get(name, 0.0) for p in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("matcore.psd_check", "matcore.hadamard_exp", "psdfun.MatrixFunction.call",
                 "psdfun.gram", "measures.MatrixMeasure.fourier", "measures.convolve",
                 "grid.dft", "grid.idft", "grid.min_eig_scan", "grid.GridField.init",
                 "grid.save_field", "grid.load_field", "oplab.MultiplierSymbol.on_grid",
                 "oplab.apply_multiplier", "oplab.l2_multiplier_norm"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("psdfun.cpsd_function_check", "psdfun.schoenberg_gram",
                 "psdfun.lemma_4_13_check", "psdfun.growth_bound_estimate",
                 "oplab.positivity_probe", "oplab.trace_positivity_check",
                 "oplab.l1_norm_bounds_check", "cli.main"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name, unit in (("matcore.psd_check.dim3_sum", "count"),
                       ("measures.MatrixMeasure.fourier.phase_evals", "count"),
                       ("measures.convolve.atom_passes", "count"),
                       ("grid.dft.bytes_computed", "B"), ("grid.idft.bytes_computed", "B"),
                       ("grid.save_field.bytes", "B"), ("grid.load_field.bytes", "B"),
                       ("oplab.l2_multiplier_norm.iterations", "count"),
                       ("cli.report_bytes", "B")):
        m[name] = (counts.get(name, 0), unit)
    m["grid.min_eig_scan.points"] = (counts.get("grid.min_eig_scan.points", 0), "count")
    m["psdfun.gram.evals_per_block"] = (
        ratio(counts.get("psdfun.gram.evals_in_gram", 0), counts.get("psdfun.gram.blocks", 0)),
        "ratio")
    m["oplab.on_grid.evals_per_apply"] = (
        ratio(calls.get("oplab.MultiplierSymbol.on_grid", 0),
              calls.get("oplab.apply_multiplier", 0)), "ratio")
    m["oplab.l2_multiplier_norm.capped_frac"] = (
        ratio(counts.get("oplab.l2_multiplier_norm.capped", 0),
              calls.get("oplab.l2_multiplier_norm", 0)), "ratio")
    from mpsd.suite import CRITERIA
    from spans import LAYERS

    for criterion, _ in CRITERIA:
        name = f"suite.{criterion}"
        m[f"{name}.s"] = (statistics.median(p["total_s"].get(name, 0.0) for p in traced), "s")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (counts.get(f"{layer}.errors", 0), "count")
    m["trace.spans_per_pass"] = (first["spans"], "count")
    m["trace.untraced_run_s"] = (statistics.median(untraced_s), "s")
    m["trace.traced_run_s"] = (statistics.median(traced_s), "s")
    m["trace.overhead_s"] = (m["trace.traced_run_s"][0] - m["trace.untraced_run_s"][0], "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, SRC)
    try:
        import mpsd  # noqa: F401  (numpy is first imported here)
    except ImportError as exc:
        print(f"error: cannot import mpsd from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            workload_cls(args.seed, workdir)
            return 0
        return run(args, workload_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload_cls, workdir: str) -> int:
    setup_times, setup_wall = measure_setup(args)
    workload = workload_cls(args.seed, workdir)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    kernel = ReferenceKernel()
    session = Session(kernel)
    passes = []  # (start, end, first item, end item, traced) of every pass
    traced_summaries, pass_starts, wall_s, cpu_s = [], [], [], []
    ticks = cpu_ticks()
    start = time.perf_counter()
    with kernel.sampling():
        while True:
            index = len(passes)
            traced = tracer is not None and index % 2 == 1
            session.tracer = tracer if traced else None
            if traced:
                pass_starts.append(len(tracer.spans))
                tracer.install()
            first_item, first_run = len(session.items), len(kernel.runs)
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with kernel.paused() if traced else nullcontext():
                    workload.run_pass(session, index)
            finally:
                t1 = time.perf_counter()
                wall_s.append(t1 - t0 - kernel.seconds_since(first_run))
                cpu_s.append(time.process_time() - cpu0)
                if traced:
                    tracer.uninstall()
            passes.append((t0, t1, first_item, len(session.items), traced))
            if traced:
                traced_summaries.append(tracer.take_pass(pass_starts[-1]))
            if len(passes) >= workload.min_passes and t1 - start + wall_s[-1] > args.seconds:
                break

    speed = [kernel.speed(t0, t1) for t0, t1, *_ in passes]
    pass_s = [wall * factor for wall, factor in zip(wall_s, speed)]
    untraced_items: list[Item] = []
    for (_, _, lo, hi, traced), factor in zip(passes, speed):
        for item in session.items[lo:hi]:
            if item.seconds is not None:
                item.seconds *= factor
        if not traced:
            untraced_items.extend(session.items[lo:hi])
    traced_s = [t for t, p in zip(pass_s, passes) if p[4]]
    untraced_s = [t for t, p in zip(pass_s, passes) if not p[4]]

    attempted = len(session.items)
    failed = sum(1 for item in session.items if not item.ok)
    p50_ms, tail_ms, samples, item_medians = item_stats(untraced_items)
    info = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "passes": len(passes),
        "pass_s": pass_s,
        "pass_wall_s": wall_s,
        "pass_cpu_s": cpu_s,
        "pass_speed_factor": speed,
        "steal_share": steal_share(ticks, cpu_ticks()),
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": setup_wall,
        "item_samples": samples,
        "item_medians_ms": item_medians,
        "item_tail_percentile": 90,
        "failed_frac": failed / attempted,
    }
    if args.workload == "suite":
        info["l2_norm_digits"] = workload.accuracy_digits()

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(untraced_s), "s"),
            "item_p50_ms": (p50_ms, "ms"),
            "item_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "accuracy_digits": (workload.accuracy_digits(), "digits"),
        }
    else:
        metrics = layer_metrics(traced_summaries, untraced_s, traced_s)
        counted = [p["counts"] | {"calls": p["calls"]} for p in traced_summaries]
        info["counts_repeat_across_passes"] = all(c == counted[0] for c in counted)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans_path, pass_starts)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)

    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
