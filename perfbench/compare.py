"""Compare two sets of benchmark result files, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py --base .perfbench/base/*.json \
        --new .perfbench/results/*.json

Result files come from ``perfbench/run.py``.  For every workload and
end-to-end metric it prints both medians, their ratio, and whether the
new median is worse than the base by more than the metric's bound in
``BENCHMARK.json``.  It refuses to compare results taken on machines
with different CPU counts or CPU affinity: a parallel path measured on
one CPU says nothing about two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> list[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def machine(report: dict) -> tuple:
    return report["env"]["cpu_count"], report["env"]["affinity"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    machines = {machine(report) for report in base + new}
    if len(machines) > 1:
        print("refusing to compare results from different machines "
              f"(cpu_count, affinity): {sorted(machines)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for workload in sorted({r["workload"] for r in base + new}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [
                [r["end_to_end"][name] for r in group
                 if r["workload"] == workload and not r["trace"]]
                for group in (base, new)
            ]
            if not all(values):
                continue
            old, cur = (statistics.median(v) for v in values)
            change = (cur - old) / old if old else 0.0
            if metric["better"] == "higher":
                change = -change
            verdict = "worse" if change > metric["bound"] else "ok"
            worse += verdict == "worse"
            print(f"{workload:6s} {name:12s} base={old:.6g} new={cur:.6g} "
                  f"ratio={cur / old if old else float('nan'):.4f} "
                  f"bound={metric['bound']} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
