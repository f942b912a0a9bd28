"""Command-line front door.

Exit codes: 0 = every check passed, 1 = a mathematical check failed (the
report, including the witness, is still written), 2 = input or usage error.
Counterexample subcommands are expected to exit 1: their reports carry a
"matches_expected" flag stating whether the failure is the predicted one.

Reports are byte-stable: identical configurations (including the seed)
produce identical bytes, and the seed and tolerance are always recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT_ERROR = 2

COUNTEREXAMPLE_COMMANDS = {"appendix-a", "thm-4-12"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpsd",
        description="Matrix-valued positivity toolkit: Schoenberg checks, matrix "
        "measures, and discretized Fourier multipliers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--matrix", help="path to a matrix JSON file")
        p.add_argument("--function", help="catalog id or path to a function JSON file")
        p.add_argument("--measure", help="catalog id, 'gaussian', or path to a measure JSON file")
        p.add_argument("--points", help="path to a point-set JSON file")
        p.add_argument("--field", action="append", help="path to a binary grid-field file")
        p.add_argument("--field-out", help="output path for a binary grid-field")
        p.add_argument("--t", default="1.0", help="comma-separated list of exponents t")
        p.add_argument("--eps", type=float, default=0.05)
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--L", type=float, default=40.0)
        p.add_argument("--K", type=int, default=4096)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--extent", type=float, default=8.0, help="Gaussian builder half-width")
        p.add_argument("--cells", type=int, default=256, help="Gaussian builder cells per axis")
        p.add_argument("--weight", help="matrix JSON path for the Gaussian builder weight")
        p.add_argument("--out", help="report output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    add("psd", "positive semidefiniteness of a matrix")
    add("cpsd", "conditional positive semidefiniteness of a matrix")
    add("gram", "assemble the block Gram matrix of a function over points")
    add("schoenberg", "cross-check conditional positivity against exponential positivity")
    add("weak-cpsd", "directional conditional positivity over points")
    add("measure-fourier", "evaluate the transform of a measure at points")
    add("bochner", "forward transform checks for a nonnegative measure")
    add("convolve", "convolve a measure with a grid field")
    add("multiplier-apply", "apply a multiplier symbol to a grid field")
    add("positivity-probe", "scan multiplier outputs for positivity violations")
    add("l1-bounds", "entrywise-L1 multiplier norm bounds for a measure")
    add("l2-norm", "two-route multiplier operator norm")
    add("appendix-a", "nonnegative measure whose multiplier breaks positivity")
    add("thm-4-12", "witness search against positivity preservation of exp_H(tF)")
    add("trace-check", "trace nonnegativity of the exponential multiplier")
    add("growth-bound", "sampled quadratic growth bound")
    add("lemma-4-13", "necessary inequalities for conditional positivity")
    add("right-mult-norm", "right-multiplication operator norm identity")
    add("k-a-bound", "exponential-kernel transform mass and smoothing bound")
    add("paper-suite", "run every verification criterion and aggregate")
    add("catalog", "list catalog functions and measures")
    return parser


# ---------------------------------------------------------------------------
# Input loading helpers
# ---------------------------------------------------------------------------


def _load_function(arg: str):
    from .matcore import InputError
    from .psdfun import make_function

    if arg is None:
        raise InputError("this subcommand requires --function")
    if os.path.exists(arg):
        with open(arg) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(
                    f"{arg}: invalid JSON at line {exc.lineno}, column {exc.colno}"
                ) from exc
        if not isinstance(obj, dict) or "id" not in obj:
            raise InputError(f"{arg}: function JSON must be an object with 'id' and 'params'")
        return make_function(obj["id"], **obj.get("params", {}))
    return make_function(arg)


def _load_measure(args):
    from .matcore import InputError, load_matrix
    from .measures import MEASURE_CATALOG, gaussian_measure, load_measure, make_measure

    arg = args.measure
    if arg is None:
        raise InputError("this subcommand requires --measure")
    if os.path.exists(arg):
        return load_measure(arg)
    if arg == "gaussian":
        import numpy as np

        weight = load_matrix(args.weight) if args.weight else np.eye(1)
        return gaussian_measure(args.n, args.extent, args.cells, weight)
    if arg in MEASURE_CATALOG:
        kwargs = {}
        if arg in ("appendix_a_measure", "gaussian_entry_11", "gaussian_all_entries"):
            kwargs = {"grid_extent": args.extent, "cells_per_axis": args.cells}
        return make_measure(arg, **kwargs)
    raise InputError(f"--measure {arg!r}: not a file, 'gaussian', or a known catalog id")


def _load_points(args):
    from .matcore import InputError
    from .psdfun import PointSet, random_point_set

    if args.points is None:
        return random_point_set(args.n, 5, 3.0, seed=args.seed)
    with open(args.points) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"{args.points}: invalid JSON at line {exc.lineno}, column {exc.colno}"
            ) from exc
    return PointSet.from_json_dict(obj)


def _grid_spec(args):
    from .grid import GridSpec

    return GridSpec(n=args.n, L=args.L, K=args.K)


def _symbol(args):
    from .matcore import InputError
    from .oplab import symbol_from_function, symbol_from_measure

    if args.function:
        return symbol_from_function(_load_function(args.function))
    if args.measure:
        return symbol_from_measure(_load_measure(args))
    raise InputError("provide a symbol via --function or --measure")


def _t_list(args) -> list[float]:
    from .matcore import InputError

    try:
        return [float(v) for v in str(args.t).split(",") if v != ""]
    except ValueError as exc:
        raise InputError(f"--t must be a comma-separated float list, got {args.t!r}") from exc


def _default_probes(args, spec, m):
    from .grid import load_field
    from .oplab import gaussian_probe_family

    if args.field:
        return [load_field(path) for path in args.field]
    return gaussian_probe_family(spec, m, 10, seed=args.seed)


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (report_payload, math_ok)
# ---------------------------------------------------------------------------


def _run_subcommand(args):
    import numpy as np

    from .matcore import InputError, jsonable, load_matrix, matrix_to_json_dict

    cmd = args.subcommand

    if cmd == "psd":
        from .matcore import psd_check

        if not args.matrix:
            raise InputError("psd requires --matrix")
        v = psd_check(load_matrix(args.matrix), args.tol)
        return v.to_json_dict(), v.verdict

    if cmd == "cpsd":
        from .matcore import cpsd_check

        if not args.matrix:
            raise InputError("cpsd requires --matrix")
        v = cpsd_check(load_matrix(args.matrix), args.tol)
        return v.to_json_dict(), v.verdict

    if cmd == "right-mult-norm":
        from .oplab import right_mult_norm

        if not args.matrix:
            raise InputError("right-mult-norm requires --matrix")
        A = load_matrix(args.matrix)
        from .matcore import op_norm

        value = right_mult_norm(A)
        return {"value": value, "op_norm": op_norm(A)}, True

    if cmd == "gram":
        from .psdfun import gram

        F = _load_function(args.function)
        X = _load_points(args)
        G = gram(F, X)
        herm = float(np.abs(G.matrix - G.matrix.conj().T).max())
        return {
            "m": G.m,
            "N": G.N,
            "matrix": matrix_to_json_dict(G.matrix),
            "hermiticity_defect_max": herm,
        }, True

    if cmd == "schoenberg":
        from .psdfun import schoenberg_equivalence_report

        F = _load_function(args.function)
        X = _load_points(args)
        rep = schoenberg_equivalence_report(F, X, _t_list(args), args.tol)
        # Exit 1 when conditional positivity fails or the equivalences break.
        return rep.to_json_dict(), rep.passed and rep.check("cpsd")["verdict"]

    if cmd == "weak-cpsd":
        from .psdfun import weak_cpsd_check

        F = _load_function(args.function)
        X = _load_points(args)
        directions = [np.eye(F.m)[j] for j in range(F.m)]
        directions.append(np.ones(F.m) / np.sqrt(F.m))
        rep = weak_cpsd_check(F, X, directions, args.tol)
        return rep.to_json_dict(), rep.passed

    if cmd == "measure-fourier":
        mu = _load_measure(args)
        X = _load_points(args)
        values = [matrix_to_json_dict(mu.fourier(x)) for x in X.points]
        return {"points": X.to_json_dict(), "values": values}, True

    if cmd == "bochner":
        from .measures import bochner_forward_check

        mu = _load_measure(args)
        X = _load_points(args)
        rep = bochner_forward_check(mu, X, args.tol)
        return rep.to_json_dict(), rep.passed

    if cmd == "convolve":
        from .grid import load_field, save_field
        from .measures import convolve

        mu = _load_measure(args)
        if not args.field:
            raise InputError("convolve requires --field")
        f = load_field(args.field[0])
        out = convolve(mu, f)
        if args.field_out:
            save_field(out, args.field_out)
        return {
            "field_out": args.field_out,
            "meta": out.meta,
            "output_max_abs": float(np.abs(out.values).max()),
        }, True

    if cmd == "multiplier-apply":
        from .grid import load_field, save_field
        from .oplab import apply_multiplier

        sym = _symbol(args)
        if not args.field:
            raise InputError("multiplier-apply requires --field")
        f = load_field(args.field[0])
        out = apply_multiplier(sym, f)
        if args.field_out:
            save_field(out, args.field_out)
        return {
            "field_out": args.field_out,
            "output_max_abs": float(np.abs(out.values).max()),
        }, True

    if cmd == "positivity-probe":
        from .oplab import apply_multiplier, positivity_probe

        sym = _symbol(args)
        spec = _grid_spec(args)
        probes = _default_probes(args, spec, sym.m)
        rep = positivity_probe(sym, probes, args.tol)
        payload = rep.to_json_dict()
        if args.format == "csv":
            worst = rep.check("outputs_psd_valued")["worst_probe"] or 0
            payload["_scan"] = _eig_scan(apply_multiplier(sym, probes[worst]))
        return payload, rep.passed

    if cmd == "l1-bounds":
        from .oplab import l1_norm_bounds_check

        mu = _load_measure(args)
        rep = l1_norm_bounds_check(mu, _grid_spec(args), seed=args.seed)
        return rep.to_json_dict(), rep.passed

    if cmd == "l2-norm":
        from .oplab import l2_multiplier_norm

        sym = _symbol(args)
        sup_e, pow_e = l2_multiplier_norm(sym, _grid_spec(args), seed=args.seed)
        agree = abs(sup_e.value - pow_e.value) <= 0.02 * max(sup_e.value, 1e-300)
        return {
            "supremum": sup_e.to_json_dict(),
            "power_iteration": pow_e.to_json_dict(),
            "agree_within_2pct": agree,
        }, agree

    if cmd == "appendix-a":
        from .oplab import appendix_a_counterexample

        spec = _grid_spec(args)
        rep = appendix_a_counterexample(spec, eps=args.eps, measure_cells=args.cells)
        payload = rep.to_json_dict()
        payload["matches_expected"] = rep.passed
        if args.format == "csv":
            from .grid import bump_field
            from .measures import appendix_a_measure
            from .oplab import apply_multiplier, symbol_from_measure

            probe = bump_field(spec, 2, radius=1.0, eps=args.eps,
                               D=np.array([[3.0, 1.0], [1.0, 3.0]]))
            mu = appendix_a_measure(8.0, args.cells)
            payload["_scan"] = _eig_scan(apply_multiplier(symbol_from_measure(mu), probe))
        return payload, not rep.meta["observed_failure"]

    if cmd == "thm-4-12":
        from .oplab import theorem_4_12_witness

        F = _load_function(args.function or "example_4_17_i")
        t = _t_list(args)[0]
        rep = theorem_4_12_witness(F, t, _grid_spec(args), tol=args.tol)
        found = rep.meta["status"] == "witness_found"
        payload = rep.to_json_dict()
        payload["matches_expected"] = found if F.m >= 2 else (not found)
        return payload, not found

    if cmd == "trace-check":
        from .oplab import trace_positivity_check

        F = _load_function(args.function)
        spec = _grid_spec(args)
        probes = _default_probes(args, spec, F.m)
        reports = []
        all_ok = True
        for t in _t_list(args):
            rep = trace_positivity_check(F, t, probes, args.tol)
            reports.append({"t": t, "report": rep.to_json_dict()})
            all_ok = all_ok and rep.passed
        return {"per_t": reports, "all_nonnegative": all_ok}, all_ok

    if cmd == "growth-bound":
        from .psdfun import growth_bound_estimate

        F = _load_function(args.function)
        rep = growth_bound_estimate(
            F, radii=(1.0, 10.0, 100.0, 1000.0), samples_per_radius=32, seed=args.seed
        )
        return rep.to_json_dict(), rep.passed

    if cmd == "lemma-4-13":
        from .psdfun import lemma_4_13_check

        F = _load_function(args.function)
        rng = np.random.default_rng(args.seed)
        pairs = [(rng.uniform(-5, 5, F.n), rng.uniform(-5, 5, F.n)) for _ in range(200)]
        rep = lemma_4_13_check(F, pairs, args.tol)
        return rep.to_json_dict(), rep.passed

    if cmd == "k-a-bound":
        from .oplab import constant_symbol, k_a_bound_check

        if args.function or args.measure:
            sym = _symbol(args)
        else:
            sym = constant_symbol(np.eye(2))
        rep = k_a_bound_check(args.a, sym, _grid_spec(args))
        return rep.to_json_dict(), rep.passed

    if cmd == "paper-suite":
        from . import suite

        results = suite.run_all(seed=args.seed)
        entries = []
        all_ok = True
        for name, rep in results:
            entries.append({"name": name, "matches_expected": rep.passed,
                            "report": rep.to_json_dict()})
            all_ok = all_ok and rep.passed
        return {"criteria": entries, "all_matches_expected": all_ok}, all_ok

    if cmd == "catalog":
        from .measures import MEASURE_CATALOG
        from .psdfun import CATALOG

        rows = []
        for entry in CATALOG.values():
            rows.append(
                {
                    "id": entry.id,
                    "kind": "function",
                    "defaults": jsonable(entry.defaults),
                    "truth": entry.truth,
                    "notes": entry.notes,
                }
            )
        for mid, info in MEASURE_CATALOG.items():
            rows.append(
                {
                    "id": mid,
                    "kind": "measure",
                    "defaults": jsonable(
                        {k: v for k, v in info["defaults"].items() if not hasattr(v, "shape")}
                    ),
                    "truth": info["truth"],
                    "notes": info["notes"],
                }
            )
        return {"entries": rows}, True

    raise InputError(f"unknown subcommand {cmd!r}")


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _eig_scan(field) -> dict:
    """Per-gridpoint minimal eigenvalue and hermiticity defect, CSV-ready."""
    from .grid import min_eig_scan

    mins, defects = min_eig_scan(field)
    pts = field.spec.points().reshape(-1, field.spec.n)
    columns = [f"x{i}" for i in range(field.spec.n)] + ["min_eig", "defect"]
    rows = [
        [float(v) for v in p] + [float(a), float(b)]
        for p, a, b in zip(pts, mins.ravel(), defects.ravel())
    ]
    return {"columns": columns, "rows": rows}


def _flatten_csv(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten_csv(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            rows.extend(_flatten_csv(item, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), payload))
    return rows


def _emit(args, document: dict) -> None:
    if args.format == "csv":
        scan = None
        result = document.get("result")
        if isinstance(result, dict):
            scan = result.pop("_scan", None)
        if scan is not None:
            lines = [",".join(scan["columns"])]
            lines.extend(",".join(repr(v) for v in row) for row in scan["rows"])
        else:
            lines = ["key,value"]
            for key, value in _flatten_csv(document):
                text = "" if value is None else str(value)
                if "," in text or '"' in text:
                    text = '"' + text.replace('"', '""') + '"'
                lines.append(f"{key},{text}")
        body = "\n".join(lines) + "\n"
    else:
        body = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from .matcore import InputError, ResolutionError, jsonable

    try:
        payload, math_ok = _run_subcommand(args)
    except ResolutionError as exc:
        hint = f" (required minimum K: {exc.min_samples})" if exc.min_samples else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    document = {
        "subcommand": args.subcommand,
        "config": {
            "seed": args.seed,
            "tol": args.tol,
            "n": args.n,
            "L": args.L,
            "K": args.K,
            "t": args.t,
            "eps": args.eps,
            "inputs": {
                key: getattr(args, key)
                for key in ("matrix", "function", "measure", "points", "field")
                if getattr(args, key)
            },
            "format": args.format,
        },
        "result": jsonable(payload),
    }
    _emit(args, document)
    return EXIT_OK if math_ok else EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
