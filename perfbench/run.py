"""Benchmark for nilorb: three seeded workloads, checked answers, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload levi_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a separate
run that wraps nilorb's public functions and reports per-layer counts and
self times.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and sample counts, and the whole record is also written
to ``.perfbench_out/``.  Every op runs in a child process started from here,
so this process never imports nilorb while a measured child is alive.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import FUNCTIONS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150

SOURCE_BLOCKS = 12
TRACE_SOURCE_BLOCKS = 2
INTERPRETER_PROBES = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_fraction": "fraction",
}

PER_LAYER_UNITS = {
    f"{layer}.{name}.{kind}": "s" if kind == "self_s" else "count"
    for (layer, name), kinds in FUNCTIONS.items()
    for kind in kinds
}
PER_LAYER_UNITS.update(
    {
        "root_system.build_root_system.s": "s",
        "root_system.coroot_lattice.s": "s",
        "orbit_partitions.rigid_endpoints": "count",
        "orbit_partitions.source_yield": "ratio",
        "orbit_atlas.delta_verdict_in_check.calls": "count",
        "orbit_atlas.delta_verdict_per_check": "ratio",
    }
)
PER_LAYER_UNITS.update({f"selfcheck.criterion_{i}.s": "s" for i in range(1, 10)})
PER_LAYER_UNITS.update({"cli.interpreter_start_ms": "ms", "cli.import_ms": "ms"})
PER_LAYER_UNITS.update({f"cli.main.{name}.s": "s" for name in workloads.COMMANDS})
PER_LAYER_UNITS["trace.overhead_fraction"] = "fraction"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("ORBIT_ATLAS_PATH", None)
    return env


def spawn_worker(request: dict) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), repr(spawned)],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def interpreter_start_ms() -> float:
    times = []
    for _ in range(INTERPRETER_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cli.interpreter_start_ms": interpreter_start_ms(),
    }


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# --- timed runs ---------------------------------------------------------------------


class Tally:
    """Latencies, set-up times and outcome counts of a run.

    Times are kept as measured and scaled by the calibration loop run next
    to them (see calibrate.py); the metrics use the scaled ones, and the run
    record also gives the unscaled ones.
    """

    def __init__(self):
        self.ms, self.raw_ms = [], []
        self.setup_s, self.raw_setup_s = [], []
        self.attempted = self.failed = self.wrong = 0
        self.errors, self.problems = {}, []

    def add_worker(self, result: dict) -> None:
        for ns, scale in zip(result["latencies_ns"], result["scales"]):
            self.raw_ms.append(ns / 1e6)
            self.ms.append(ns / 1e6 * scale)
        self.raw_setup_s.append(result["setup_s"])
        self.setup_s.append(result["setup_s"] * result["setup_scale"])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.wrong += result["wrong"]
        for name, n in result["errors"].items():
            self.errors[name] = self.errors.get(name, 0) + n
        self.problems += result["problems"]

    def timings(self, scaled: bool = True) -> dict:
        ms = self.ms if scaled else self.raw_ms
        return {
            "ops_per_s": len(ms) / (sum(ms) / 1e3),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": statistics.quantiles(ms, n=10)[8],
            "setup_s": statistics.median(self.setup_s if scaled else self.raw_setup_s),
        }

    def metrics(self) -> dict:
        return dict(
            self.timings(),
            peak_rss_mb=peak_child_rss_mb(),
            success_fraction=(self.attempted - self.failed) / self.attempted,
        )

    def samples(self) -> dict:
        # quantiles interpolates, so a p90 between two equal values can come
        # out a rounding error below them
        p90 = self.timings()["op_p90_ms"] * (1 - 1e-9)
        beyond = sum(1 for ms in self.ms if ms >= p90)
        return {"ops": len(self.ms), "at_or_beyond_p90": beyond, "setup": len(self.setup_s)}


def worker_requests(workload: str, seed: int, scratch: Path):
    """Endless stream of worker requests; each worker is a fresh process."""
    if workload == "atlas_faults":
        doc = json.loads((ROOT / workloads.ATLAS_FILE).read_text(encoding="utf-8"))
        flags = workloads.primary_flags(doc)
        flipped = workloads.file_flips(seed, flags)
        files = list(zip(workloads.write_flipped_files(doc, flipped, scratch), flipped))
    worker = 0
    while True:
        if workload == "levi_sweep":
            ops = workloads.levi_ops(seed, worker)
        elif workload == "source_search":
            ops = workloads.source_ops(seed, worker * SOURCE_BLOCKS, SOURCE_BLOCKS)
        else:
            ops = workloads.atlas_ops(seed, worker, flags, files)
        yield {"workload": workload, "ops": ops}
        worker += 1


def run_in_process(workload: str, seed: int, seconds: float, tally: Tally) -> None:
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        deadline = time.monotonic() + seconds
        for request in worker_requests(workload, seed, scratch):
            tally.add_worker(spawn_worker(request))
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# --- traced runs ----------------------------------------------------------------------


def traced_ops(workload: str, seed: int, scratch: Path) -> list:
    """The fixed op list a traced run replays: a count, never a duration,
    decides how much work it does, so its counts repeat exactly."""
    if workload == "source_search":
        return workloads.source_ops(seed, 0, TRACE_SOURCE_BLOCKS)
    return next(worker_requests(workload, seed, scratch))["ops"]


def scaled_ns(result: dict) -> float:
    return sum(ns * k for ns, k in zip(result["latencies_ns"], result["scales"]))


def run_traced(workload: str, seed: int, tally: Tally) -> dict:
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        ops = traced_ops(workload, seed, scratch)
        plain = spawn_worker({"workload": workload, "ops": ops})
        traced = spawn_worker({"workload": workload, "ops": ops, "trace": True})
        cli = [spawn_worker({"workload": "cli_main", "ops": [cmd]}) for cmd in workloads.COMMANDS]
        cold = spawn_worker({"probe": "cold_builds"})
        imports = [spawn_worker({"probe": "import"})["metrics"]["cli.import_ms"] for _ in range(3)]
        criteria = spawn_worker({"probe": "criteria"})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tally.add_worker(traced)
    for result in [plain] + cli:
        tally.wrong += result["wrong"]
        tally.problems += result["problems"]
    if criteria["failed"]:
        tally.problems.append(f"criteria failed: {criteria['failed']}")

    counts = traced["counts"]
    scale = statistics.median(traced["scales"])
    metrics = {}
    for (layer, fn), kinds in FUNCTIONS.items():
        key = f"{layer}.{fn}"
        for kind in kinds:
            if kind == "self_s":
                metrics[f"{key}.self_s"] = traced["self_s"].get(key, 0.0) * scale
            elif kind == "calls":
                metrics[f"{key}.calls"] = counts.get(key, 0)
            else:
                metrics[f"{key}.{kind}"] = counts.get(f"{key}.{kind}", 0)
    endpoints = counts.get("orbit_partitions.rigid_endpoints", 0)
    steps = counts.get("orbit_partitions.inverse_steps", 0)
    checks = counts.get("orbit_atlas.check_consistency", 0)
    in_check = traced["delta_verdict_in_check"]
    metrics["orbit_partitions.rigid_endpoints"] = endpoints
    metrics["orbit_partitions.source_yield"] = endpoints / steps if steps else 0.0
    metrics["orbit_atlas.delta_verdict_in_check.calls"] = in_check
    metrics["orbit_atlas.delta_verdict_per_check"] = in_check / checks if checks else 0.0
    metrics.update(cold["metrics"])
    metrics.update(criteria["metrics"])
    metrics["cli.import_ms"] = statistics.median(imports)
    for cmd, result in zip(workloads.COMMANDS, cli):
        metrics[f"cli.main.{cmd}.s"] = result["latencies_ns"][0] * result["scales"][0] / 1e9
    metrics["trace.overhead_fraction"] = scaled_ns(traced) / scaled_ns(plain) - 1
    # a command that raises or exits with another code than 0 is timed all
    # the same; at the commit that added the benchmark that is the long chain
    failed_commands = {
        cmd: result["errors"] for cmd, result in zip(workloads.COMMANDS, cli) if result["failed"]
    }
    return {"metrics": metrics, "spans": traced["spans"], "failed_commands": failed_commands}


# --- entry point ----------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nilorb" / "__init__.py").is_file():
        print(f"error: no nilorb sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = environment()
    # every process of the run shares one CPU, so the calibration loop and
    # the ops it scales run under the same contention
    env["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    tally = Tally()
    spans = failed_commands = None
    try:
        if args.trace:
            traced = run_traced(args.workload, args.seed, tally)
            metrics, spans = traced["metrics"], traced["spans"]
            failed_commands = traced["failed_commands"]
            metrics["cli.interpreter_start_ms"] = env["cli.interpreter_start_ms"]
            units = PER_LAYER_UNITS
        else:
            run_in_process(args.workload, args.seed, args.seconds, tally)
            metrics = tally.metrics()
            units = END_TO_END_UNITS
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "samples": tally.samples(),
        "unscaled": tally.timings(scaled=False),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_fraction": tally.failed / tally.attempted,
        "wrong_answers": tally.wrong,
        "errors": tally.errors,
        "problems": tally.problems,
        "cli_failed_commands": failed_commands,
    }
    result = {
        "correct": tally.wrong == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(info, result=result, spans=spans), indent=1) + "\n")
    print(f"# {json.dumps(info)}")
    for name, unit in units.items():
        print(f"#   {name} = {metrics[name]!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
