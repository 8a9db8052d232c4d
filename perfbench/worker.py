"""One measured process: set up, run the ops it is given, then check them.

Started by ``run.py`` as ``python3 perfbench/worker.py <spawn time>`` with a
JSON request on stdin; prints one JSON result on stdout.  The spawn time is
the parent's ``time.monotonic()`` just before the start, so set-up time runs
from a fresh interpreter to the first timed op.  Nothing from nilorb is
imported before the request is read, and answers are checked only after the
last timed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import workloads

GOLDEN = Path(__file__).resolve().parent / "golden"


class Clock:
    """Times each op once, with the calibration loop run between ops."""

    def __init__(self):
        self.setup_end = None
        self.loops_ns = []

    def run(self, ops, call):
        """Run each op once; keep (latency in ns, result, exception)."""
        self.setup_end = time.monotonic()
        calibrate.loop_ns()  # the first run warms the interpreter up
        self.loops_ns = [calibrate.loop_ns()]
        clock = time.perf_counter_ns
        out = []
        for op in ops:
            start = clock()
            try:
                result, error = call(op), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                # without its traceback, a RecursionError keeps no frames alive
                result, error = None, exc.with_traceback(None)
            out.append((clock() - start, result, error))
            self.loops_ns.append(calibrate.loop_ns())
        return out

    def scales(self) -> list:
        return calibrate.factors(self.loops_ns)


def _form(x, y) -> int:
    """d times the invariant form on R^d modulo the all-ones line."""
    d = len(x)
    return d * sum(a * b for a, b in zip(x, y)) - sum(x) * sum(y)


def _rigid(parts) -> bool:
    padded = list(parts) + [0]
    return all(a - b <= 1 for a, b in zip(padded, padded[1:]))


def _raised(results) -> list:
    """Every op of levi_sweep and atlas_faults has an answer, so one that
    raises makes the run incorrect, not merely a failed op."""
    errors = Counter(type(e).__name__ for _, _, e in results if e is not None)
    return [f"ops raised {dict(errors)}"] if errors else []


# --- workloads: each returns (results, per-op wrong flags, run-level problems) ----


def levi_sweep(ops, clock):
    from nilorb import build_root_system, coroot_lattice, delta_verdict, preset_report

    systems = {name: build_root_system(name) for name in workloads.RANKS}
    for name in workloads.RANKS:
        coroot_lattice(name)

    def call(op):
        if op[0] == "levi":
            return delta_verdict(op[1], tuple(op[2]))
        return preset_report(op[1])

    results = clock.run(ops, call)

    golden = json.loads((GOLDEN / "levi_sweep.json").read_text(encoding="utf-8"))
    wrong, tally = [], Counter()
    for op, (_, report, error) in zip(ops, results):
        if error is not None:
            wrong.append(False)
            continue
        if op[0] == "levi":
            system, levi = op[1], op[2]
            expected = golden["levis"][f"{system}:{','.join(map(str, levi))}"]
            simples = systems[system].simple_roots
            basis = [list(v) for v in report.torus_basis]
            ok = (
                report.verdict == expected["verdict"]
                and basis == expected["torus_basis"]
                and len(basis) == systems[system].rank - len(levi)
                and all(_form(v, simples[i - 1].coords) == 0 for v in basis for i in levi)
            )
            tally[f"{system} {report.verdict}"] += 1
        else:
            payload = json.dumps(report.to_payload(), sort_keys=True)
            ok = payload == golden["presets"][op[1]]
            if op[1] == "E7:A2+A1":
                ok = ok and any(
                    mc.expected_pairing == 16 and mc.pairing == 18 and mc.matches is False
                    for mc in report.reference.member_checks
                )
        wrong.append(not ok)
    problems = _raised(results)
    if not problems and tally != golden["totals"]:
        problems.append(f"verdict totals {dict(tally)}")
    return results, wrong, problems


def source_search(ops, clock):
    from nilorb import ClassicalOrbit, rigid_special_source

    orbits = [ClassicalOrbit(kind, tuple(parts)) for _, kind, parts in ops]
    results = clock.run(orbits, rigid_special_source)

    wrong = []
    for orbit, (_, source, error) in zip(orbits, results):
        if error is not None:
            wrong.append(False)
            continue
        try:
            replayed = source.script.replay(source.orbit).parts
        except Exception:  # a script that does not replay is a wrong answer
            replayed = None
        wrong.append(
            not (
                workloads.special(source.orbit.parts, orbit.kind)
                and _rigid(source.orbit.parts)
                and all(variant == "i" for _, variant in source.script.steps)
                and replayed == orbit.parts
            )
        )
    return results, wrong, []


def atlas_faults(ops, clock):
    from nilorb import check_consistency, flip_field, load_atlas
    from nilorb.errors import AtlasLoadError

    records = load_atlas()
    baseline = check_consistency(records)  # warms the verdict cache, as C6 does
    index = {record.key: i for i, record in enumerate(records)}

    def flipped(group, label, field):
        i = index[(group, label)]
        mutated = list(records)
        mutated[i] = flip_field(records[i], field)
        return mutated

    calls = []
    for op in ops:
        if op[0] == "accept":
            calls.append((load_atlas, ()))
        elif op[0] == "file":
            calls.append((load_atlas, (op[1],)))
        else:
            calls.append((check_consistency, (flipped(*op[1:]),)))
    results = clock.run(calls, lambda c: c[0](*c[1]))

    def caught(checks):
        return any(not c.passed for c in checks)

    wrong = []
    for op, (_, result, error) in zip(ops, results):
        if error is not None:
            wrong.append(False)
        elif op[0] == "accept":
            wrong.append(result != records)
        elif op[0] == "file":
            wrong.append(not caught(check_consistency(result)))
        else:
            wrong.append(not caught(result))
    # an expected rejection is a correct answer, not a failed op
    results = [
        (lat, res, None if op[0] == "file" and isinstance(err, AtlasLoadError) else err)
        for op, (lat, res, err) in zip(ops, results)
    ]
    problems = _raised(results)
    if caught(baseline):
        problems.append("packaged atlas fails C1-C7")
    return results, wrong, problems


class UnexpectedExit(Exception):
    """A CLI op that exited with a code other than 0 and printed no answer."""


def cli_main(ops, clock):
    from nilorb.cli import main

    def call(name):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(workloads.cli_argv(name))
        return code, buffer.getvalue()

    results = clock.run(ops, call)
    golden = json.loads((GOLDEN / "cli_commands.json").read_text(encoding="utf-8"))
    outcomes = [
        "failed" if error else cli_outcome(name, *result, golden)
        for name, (_, result, error) in zip(ops, results)
    ]
    results = [
        (lat, res, err or (UnexpectedExit(res[0]) if outcome == "failed" else None))
        for (lat, res, err), outcome in zip(results, outcomes)
    ]
    return results, [outcome == "wrong" for outcome in outcomes], []


def cli_outcome(name, code, stdout, golden) -> str:
    """"ok", "wrong" for printed output that is not the right answer, or
    "failed" for an unexpected exit code with nothing wrong printed.

    The right answer is the golden stdout; the long chain has no golden at
    the commit that added the benchmark, so its answer is replayed instead.
    """
    if name != workloads.LONG_CHAIN_COMMAND:
        right = stdout == golden[name]
    else:
        right = _replays(stdout)
    if right and code == 0:
        return "ok"
    return "wrong" if stdout.strip() and not right else "failed"


def _replays(stdout) -> bool:
    if not stdout.strip():
        return False
    from nilorb import ClassicalOrbit, StepScript

    try:
        payload = json.loads(stdout)["payload"]
        kind, source = payload["type"], tuple(payload["source"])
        script = StepScript(tuple((n, v) for n, v in payload["script"]))
        replayed = script.replay(ClassicalOrbit(kind, source)).parts
    except Exception:  # an answer that does not parse or replay is wrong
        return False
    return (
        workloads.special(source, kind)
        and _rigid(source)
        and all(v == "i" for _, v in script.steps)
        and replayed == tuple(payload["parts"])
    )


WORKLOADS = {
    "levi_sweep": levi_sweep,
    "source_search": source_search,
    "atlas_faults": atlas_faults,
    "cli_main": cli_main,
}


# --- single-purpose probes ------------------------------------------------------------


def probe_cold_builds():
    from nilorb import build_root_system, coroot_lattice

    t0 = time.perf_counter()
    for name in workloads.RANKS:
        build_root_system(name)
    t1 = time.perf_counter()
    for name in workloads.RANKS:
        coroot_lattice(name)
    t2 = time.perf_counter()
    return {"root_system.build_root_system.s": t1 - t0, "root_system.coroot_lattice.s": t2 - t1}, []


def probe_import():
    t0 = time.perf_counter()
    import nilorb.cli  # noqa: F401

    return {"cli.import_ms": (time.perf_counter() - t0) * 1e3}, []


def probe_criteria():
    from nilorb.selfcheck import CRITERION_IDS, run_criterion

    out, failed = {}, []
    for cid in CRITERION_IDS:
        t0 = time.perf_counter()
        result = run_criterion(cid)
        out[f"selfcheck.criterion_{cid}.s"] = time.perf_counter() - t0
        if not result.passed:
            failed.append(cid)
    return out, failed


PROBES = {"cold_builds": probe_cold_builds, "import": probe_import, "criteria": probe_criteria}


def main() -> None:
    spawned = float(sys.argv[1])
    request = json.loads(sys.stdin.read())
    if "probe" in request:
        loops = [calibrate.loop_ns() for _ in range(calibrate.WINDOW)]
        times, failed = PROBES[request["probe"]]()
        loops += [calibrate.loop_ns() for _ in range(calibrate.WINDOW)]
        scale = calibrate.REFERENCE_NS / statistics.median(loops)
        print(json.dumps({"metrics": {k: v * scale for k, v in times.items()}, "failed": failed}))
        return

    tracer = None
    if request.get("trace"):
        import nilorb.cli  # noqa: F401  every module, so the tracer patches them all
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = Clock()
    results, wrong, problems = WORKLOADS[request["workload"]](request["ops"], clock)
    if tracer is not None:
        tracer.uninstall()

    errors = Counter(type(e).__name__ for _, _, e in results if e is not None)
    out = {
        "setup_s": clock.setup_end - spawned,
        # set-up is scaled by the loop runs just after it, taken together
        "setup_scale": calibrate.REFERENCE_NS
        / statistics.median(clock.loops_ns[: calibrate.WINDOW]),
        "latencies_ns": [lat for lat, _, _ in results],
        "scales": clock.scales(),
        "attempted": len(results),
        "failed": sum(1 for (_, _, e), w in zip(results, wrong) if e is not None or w),
        "wrong": sum(wrong),
        "errors": dict(errors),
        "problems": problems,
    }
    if tracer is not None:
        out["counts"] = dict(tracer.counts)
        out["self_s"] = dict(tracer.self_seconds())
        out["delta_verdict_in_check"] = tracer.calls_under(
            "delta_check.delta_verdict", "orbit_atlas.check_consistency"
        )
        out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
