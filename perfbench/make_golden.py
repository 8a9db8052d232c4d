"""Write the golden answers the benchmark checks against.

Run from the repository root as ``python3 perfbench/make_golden.py``.  The
files in ``perfbench/golden`` were written this way at the commit that added
the benchmark; regenerate them only when an answer is meant to change.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, "src")

import workloads  # noqa: E402
from nilorb import delta_verdict, preset_report  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"


def levi_golden() -> dict:
    levis, totals = {}, Counter()
    for system, rank in workloads.RANKS.items():
        for k in range(1, rank + 1):
            for levi in itertools.combinations(range(1, rank + 1), k):
                report = delta_verdict(system, levi)
                levis[f"{system}:{','.join(map(str, levi))}"] = {
                    "verdict": report.verdict,
                    "torus_basis": [list(v) for v in report.torus_basis],
                }
                totals[f"{system} {report.verdict}"] += 1
    presets = {
        name: json.dumps(preset_report(name).to_payload(), sort_keys=True)
        for name in workloads.PRESETS
    }
    return {"levis": levis, "totals": dict(totals), "presets": presets}


def cli_golden() -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("ORBIT_ATLAS_PATH", None)
    out = {}
    for name in workloads.README_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "nilorb"] + workloads.cli_argv(name),
            env=env, capture_output=True, text=True, check=True,
        )
        out[name] = proc.stdout
    return out


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, doc in (("levi_sweep", levi_golden()), ("cli_commands", cli_golden())):
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
