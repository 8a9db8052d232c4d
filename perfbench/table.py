"""Print every end-to-end metric by name and unit, one row per workload.

Run from the root of a checkout:

    python3 perfbench/table.py --seed 1 --seconds 25

Each workload runs once through ``run.py`` with tracing off; a workload whose
answers fail their checks is marked in the last column.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import END_TO_END_UNITS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()

    header = ["workload"] + [f"{name} ({unit})" for name, unit in END_TO_END_UNITS.items()]
    header += ["attempted", "failed", "correct"]
    rows = [header]
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = result["metrics"]
        rows.append(
            [workload]
            + [f"{metrics[name]['value']:.4g}" for name in END_TO_END_UNITS]
            + [str(result["attempted"]), str(result["failed"]), str(result["correct"]).lower()]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
