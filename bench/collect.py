"""Run the benchmark over several seeds and summarize it as a baseline record.

For each workload: one untraced run per seed 1-10, as long as BENCHMARK.json's
run_seconds, summarized per end-to-end metric as median, quartiles and spread
(quartile distance over median), with run_s and setup_s also summarized
unscaled by machine speed; then one traced run on seed 1 for the per-layer
metrics and the tracing overhead.

    python3 bench/collect.py --label seed-commit --out bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("suite", "gram", "spectral")
SEEDS = tuple(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    record = {"label": args.label, "seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs, metrics = [], {}
        for seed in SEEDS:
            info, result = bench(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "passes": info["passes"], "steal_share": info["steal_share"],
                         "item_samples": info["item_samples"],
                         "pass_speed_factor": info["pass_speed_factor"],
                         "raw_run_s": statistics.median(info["pass_wall_s"]),
                         "raw_setup_s": statistics.median(info["setup_wall_s_samples"]),
                         "item_medians_ms": info["item_medians_ms"],
                         **({"l2_norm_digits": info["l2_norm_digits"]}
                            if "l2_norm_digits" in info else {})})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
            record["environment"] = info["environment"] | {"seed": None}
            print(workload, seed, result["correct"], {k: round(m["value"], 4)
                                                      for k, m in result["metrics"].items()},
                  file=sys.stderr, flush=True)
        info, traced = bench(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "runs": runs,
            "end_to_end": {name: {"unit": m["unit"]} | summarize(m["values"])
                           for name, m in metrics.items()},
            "unscaled": {name: summarize([r[f"raw_{name}"] for r in runs])
                         for name in ("run_s", "setup_s")},
            "traced": {"seed": SEEDS[0], "correct": traced["correct"],
                       "counts_repeat_across_passes": info["counts_repeat_across_passes"],
                       "per_layer": {name: m["value"] for name, m in traced["metrics"].items()}},
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
