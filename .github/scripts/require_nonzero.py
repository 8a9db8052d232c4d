"""Fail when a traced perfbench run reads 0 on any of the named metrics.

Run from the root of a checkout:

    python .github/scripts/require_nonzero.py WORKLOAD NAME...

It makes one traced run, ``perfbench/run.py --workload WORKLOAD --seed 1
--trace 1 --seconds 2``, prints the value of each NAME from the run's last
line, and exits 1 naming every metric that reads 0.  A dead wrapper or a
renamed function shows up here as a 0, not as a silently empty table.
"""

import json
import subprocess
import sys


def main(argv: list[str]) -> None:
    if len(argv) < 2:
        sys.exit("usage: require_nonzero.py WORKLOAD NAME...")
    workload, names = argv[0], argv[1:]
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1", "--seconds", "2"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    metrics = json.loads(run.stdout.splitlines()[-1])["metrics"]
    for name in names:
        print(name, metrics[name]["value"])
    zero = [name for name in names if not metrics[name]["value"]]
    if zero:
        sys.exit(f"traced metrics of {workload} read 0: {', '.join(zero)}")


if __name__ == "__main__":
    main(sys.argv[1:])
