"""Fail when a traced perfbench run answers wrongly or reads 0 on a named metric.

Run from the root of a checkout:

    python .github/scripts/require_nonzero.py WORKLOAD NAME...

It makes one traced run, ``perfbench/run.py --workload WORKLOAD --seed 1
--trace 1 --seconds 2``, prints the value of each NAME from the run's last
line, and exits 1 unless the run has ``correct`` true and ``failed`` 0,
naming each of the two that does not hold, or naming every metric that reads
0.  A dead wrapper or a renamed function shows up here as a 0, not as a
silently empty table.
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
    record = json.loads(run.stdout.splitlines()[-1])
    metrics = record["metrics"]
    for name in names:
        print(name, metrics[name]["value"])
    wrong = [] if record["correct"] is True else [f"correct is {record['correct']!r}"]
    if record["failed"] != 0:
        wrong.append(f"failed is {record['failed']!r}")
    if wrong:
        sys.exit(f"traced run of {workload} failed: {', '.join(wrong)}")
    zero = [name for name in names if not metrics[name]["value"]]
    if zero:
        sys.exit(f"traced metrics of {workload} read 0: {', '.join(zero)}")


if __name__ == "__main__":
    main(sys.argv[1:])
