"""Self-test: the computed work counts of a traced run repeat exactly.

Runs `bench/run.py --trace 1` twice per workload with seed 1 and
compares every per-layer metric that is a count, a byte count or a ratio of
counts (everything but times). Exits 0 when all repeat, 1 otherwise.

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys

from collect import WORKLOADS, bench

TIME_UNITS = {"s", "ms"}


def traced_counts(workload: str) -> dict:
    _, result = bench(workload, 1, seconds=1, trace=1)
    if not result["correct"]:
        raise SystemExit(f"{workload}: the traced run reported incorrect outputs")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIME_UNITS}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        differing = sorted(k for k in first.keys() | second.keys()
                           if first.get(k) != second.get(k))
        nonzero = sum(1 for v in first.values() if v)
        print(f"{workload}: {len(first)} counts ({nonzero} nonzero), "
              f"{'all repeat' if not differing else 'DIFFER: ' + ', '.join(differing)}")
        ok = ok and not differing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
