"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the mpsd modules from the
outside. A function is replaced in every module that binds it, because
`oplab`, `suite` and `cli` import names such as `dft` directly; a method is
replaced on its class. Each call inside a measured region records one span
(name, start, end, parent span, item id) and may add computed work counts.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

from mpsd.matcore import InputError

LAYERS = ("matcore", "psdfun", "measures", "grid", "oplab", "suite", "cli")


# Computed work counts. Each takes (counts, args, kwargs, result) and adds the
# work of one call, derived from argument and result sizes.
def _psd_check(c, args, kwargs, result):
    c["matcore.psd_check.dim3_sum"] += len(args[0]) ** 3


def _gram(c, args, kwargs, result):
    c["psdfun.gram.blocks"] += args[1].N ** 2


def _fourier(c, args, kwargs, result):
    mu, x = args[0], args[1]
    points = 1 if getattr(x, "ndim", 1) == 1 else len(x)
    c["measures.MatrixMeasure.fourier.phase_evals"] += points * mu.atom_count


def _convolve(c, args, kwargs, result):
    c["measures.convolve.atom_passes"] += args[0].atom_count


def _transform(name):
    def count(c, args, kwargs, result):
        c[f"grid.{name}.bytes_computed"] += args[0].values.nbytes + result.values.nbytes
    return count


def _min_eig_scan(c, args, kwargs, result):
    c["grid.min_eig_scan.points"] += result[0].size


def _field_io(name):
    def count(c, args, kwargs, result):
        path = args[1] if name == "save_field" else args[0]
        c[f"grid.{name}.bytes"] += os.path.getsize(path)
    return count


def _l2_norm(c, args, kwargs, result):
    cap = kwargs.get("max_iterations", 500)
    iterations = result[1].iterations
    c["oplab.l2_multiplier_norm.iterations"] += iterations
    c["oplab.l2_multiplier_norm.capped"] += iterations >= cap


def _cli_main(c, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            c["cli.report_bytes"] += os.path.getsize(path)


# (layer, owner, attribute, span name, counter). Owner None means a module
# function of the layer; otherwise the attribute is a method of that class.
TARGETS = (
    ("matcore", None, "psd_check", "matcore.psd_check", _psd_check),
    ("matcore", None, "hadamard_exp", "matcore.hadamard_exp", None),
    ("psdfun", "MatrixFunction", "__call__", "psdfun.MatrixFunction.call", None),
    ("psdfun", None, "gram", "psdfun.gram", _gram),
    ("psdfun", None, "schoenberg_gram", "psdfun.schoenberg_gram", None),
    ("psdfun", None, "cpsd_function_check", "psdfun.cpsd_function_check", None),
    ("psdfun", None, "weak_cpsd_check", "psdfun.weak_cpsd_check", None),
    ("psdfun", None, "schoenberg_equivalence_report", "psdfun.schoenberg_equivalence_report",
     None),
    ("psdfun", None, "lemma_4_13_check", "psdfun.lemma_4_13_check", None),
    ("psdfun", None, "growth_bound_estimate", "psdfun.growth_bound_estimate", None),
    ("measures", "MatrixMeasure", "fourier", "measures.MatrixMeasure.fourier", _fourier),
    ("measures", None, "convolve", "measures.convolve", _convolve),
    ("grid", None, "dft", "grid.dft", _transform("dft")),
    ("grid", None, "idft", "grid.idft", _transform("idft")),
    ("grid", None, "min_eig_scan", "grid.min_eig_scan", _min_eig_scan),
    ("grid", "GridField", "__init__", "grid.GridField.init", None),
    ("grid", None, "save_field", "grid.save_field", _field_io("save_field")),
    ("grid", None, "load_field", "grid.load_field", _field_io("load_field")),
    ("oplab", "MultiplierSymbol", "on_grid", "oplab.MultiplierSymbol.on_grid", None),
    ("oplab", None, "apply_multiplier", "oplab.apply_multiplier", None),
    ("oplab", None, "l2_multiplier_norm", "oplab.l2_multiplier_norm", _l2_norm),
    ("oplab", None, "positivity_probe", "oplab.positivity_probe", None),
    ("oplab", None, "trace_positivity_check", "oplab.trace_positivity_check", None),
    ("oplab", None, "l1_norm_bounds_check", "oplab.l1_norm_bounds_check", None),
    ("cli", None, "main", "cli.main", _cli_main),
)


class Tracer:
    """Records spans and counts while `recording` is true and patches are installed."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, item id)
        self.stack: list[int] = []
        self.item = -1
        self.recording = False
        self.counts: defaultdict = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mpsd" or name.startswith("mpsd."))]
        for layer, owner, attr, span_name, count in TARGETS:
            home = sys.modules[f"mpsd.{layer}"]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(original, span_name, layer, count))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span_name, layer, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, layer, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except InputError as exc:
                self.count_error(layer, exc)
                raise
            finally:
                spans[index] = (name, start, clock(), parent, self.item)
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def count_error(self, layer: str, exc: Exception) -> None:
        """Count an error once, in the layer it was first raised from."""
        if not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.counts[f"{layer}.errors"] += 1

    # -- spans recorded by the benchmark itself ------------------------------

    def open_span(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), None, self.stack[-1] if self.stack else -1,
                           self.item))
        self.stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        name, start, _, parent, item = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter_ns(), parent, item)
        self.stack.pop()

    # -- summaries ----------------------------------------------------------

    def take_pass(self, first_span: int) -> dict:
        """Per-name calls, total and self time of spans from `first_span` on,
        plus the computed counts since the last call; resets the counts."""
        spans = self.spans[first_span:]
        child_ns = [0] * len(spans)
        in_gram = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            p = parent - first_span
            if p >= 0:
                child_ns[p] += end - start
                in_gram[i] = in_gram[p] or spans[p][0] == "psdfun.gram"
        calls, total, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
        evals_in_gram = 0
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child_ns[i]
            if in_gram[i] and name == "psdfun.MatrixFunction.call":
                evals_in_gram += 1
        counts = dict(self.counts)
        counts["psdfun.gram.evals_in_gram"] = evals_in_gram
        self.counts.clear()
        return {"calls": dict(calls), "total_s": {k: v / 1e9 for k, v in total.items()},
                "self_s": {k: v / 1e9 for k, v in self_ns.items()}, "counts": counts,
                "spans": len(spans)}

    def write(self, path: str, pass_starts: list[int]) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        bounds = pass_starts + [len(self.spans)]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for i in range(lo, hi):
                    name, start, end, parent, item = self.spans[i]
                    fh.write(json.dumps({"i": i, "name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "item": item, "pass": p}) + "\n")
