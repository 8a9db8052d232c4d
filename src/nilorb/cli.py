"""Command-line interface: partition calculus, integrality verdicts, atlas
queries and the built-in acceptance self-test.

Output is deterministic: JSON mode serializes with sorted keys and fixed
indentation, so identical inputs produce byte-identical bytes, and the text
mode renders the same payload.  Exit codes follow one convention everywhere:
0 for success, 1 when a consistency or acceptance check fails, a data file
fails validation, memory runs out or the output cannot be written, 2 for
usage and input errors, even when the refusal cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterator
from itertools import islice

from .delta_check import PRESETS, delta_verdict, preset_report
from .errors import (
    AtlasLoadError,
    CapabilityError,
    InputError,
    IntegrityError,
    OrbitNotFoundError,
    StepInapplicableError,
    _Frozen,
    _uncapped,
)
from .orbit_atlas import GROUPS, _check_group, check_consistency, load_atlas, query
from .orbit_partitions import (
    KINDS,
    ClassicalOrbit,
    birational_sources,
    elementary_step,
    is_birationally_rigid,
    is_special,
    is_valid_type,
    rigid_special_source,
)
from .root_system import ROOT_SYSTEM_NAMES, build_root_system
from .selfcheck import run_all

ENV_ATLAS_PATH = "ORBIT_ATLAS_PATH"

__all__ = ["CommandResult", "main"]


class CommandResult(_Frozen):
    __slots__ = ("status", "payload", "diagnostics", "exit_code")
    _defaults = ((), 0)


def _quoted(text: str) -> str:
    """``text`` quoted for an error message, cut to at most 60 characters."""
    return repr(text if len(text) <= 60 else text[:57] + "...")


def _parse_ints(text: str, option: str, expected: str) -> tuple[int, ...]:
    """Comma-separated integers.  The error for a bad entry quotes at most
    the first 60 characters of ``text``, and an entry past Python's digit
    limit for ``int()`` is named as such."""
    shown = _quoted(text)
    values = []
    for chunk in text.split(","):
        try:
            values.append(int(chunk))
        except ValueError:
            digits = chunk.strip().lstrip("+-").replace("_", "")
            limit = sys.get_int_max_str_digits()
            if digits.isdecimal() and len(digits) > limit:
                raise InputError(
                    f"{option} entries may have at most {limit} digits, "
                    f"got one of {len(digits)} digits in {shown}"
                ) from None
            raise InputError(f"{option} must be {expected}, got {shown}") from None
    return tuple(values)


def _parse_n(text: str) -> int:
    values = _parse_ints(text, "--n", "an integer")
    if len(values) != 1:
        raise InputError(f"--n must be an integer, got {_quoted(text)}")
    return values[0]


def _parse_levi(text: str, rank: int) -> tuple[int, ...]:
    if text == "all":
        return tuple(range(1, rank + 1))
    return _parse_ints(text, "--levi", "comma-separated labels or 'all'")


def _atlas_path(args: argparse.Namespace) -> str | None:
    """A given ``--data`` wins over the variable; an empty variable is unset."""
    explicit = getattr(args, "data", None)
    if explicit == "":
        raise InputError("--data must name an atlas file, got ''")
    return explicit or os.environ.get(ENV_ATLAS_PATH) or None


def cmd_partition(args: argparse.Namespace) -> CommandResult:
    n = None if args.n is None else _parse_n(args.n)
    parts = _parse_ints(args.parts, "--parts", "comma-separated integers")
    base = {"type": args.type, "parts": list(parts)}

    if args.action == "validate":
        # a well-formed partition of the wrong parity is an answer, not an error
        return CommandResult("ok", {**base, "valid": is_valid_type(parts, args.type)})

    orbit = ClassicalOrbit(args.type, parts)
    if args.action == "special":
        return CommandResult("ok", {**base, "special": is_special(orbit)})
    if args.action == "rigid":
        return CommandResult("ok", {**base, "birationally_rigid": is_birationally_rigid(orbit)})
    if args.action == "step":
        if n is None:
            raise InputError("'step' needs --n")
        stepped, variant = elementary_step(orbit, n, args.variant)
        # the parts tuple itself: both renderings take a tuple for a list
        return CommandResult("ok", {**base, "n": n, "result": stepped.parts, "variant": variant})
    if args.action == "sources":
        found = birational_sources(orbit)
        return CommandResult(
            "ok",
            {
                **base,
                "sources": [
                    {
                        "parts": list(s.orbit.parts),
                        "script": [[n, v] for n, v in s.script.steps],
                    }
                    for s in found
                ],
            }
        )
    source = rigid_special_source(orbit)  # action == rigid-special-source
    return CommandResult(
        "ok",
        {
            **base,
            "source": list(source.orbit.parts),
            "script": [[n, v] for n, v in source.script.steps],
        }
    )


def cmd_delta(args: argparse.Namespace) -> CommandResult:
    if args.preset is not None:
        if args.system is not None or args.levi is not None:
            raise InputError("give either --preset or --system/--levi, not both")
        report = preset_report(args.preset)
    else:
        if args.system is None or args.levi is None:
            raise InputError("delta needs --preset, or --system together with --levi")
        rank = build_root_system(args.system).rank
        report = delta_verdict(args.system, _parse_levi(args.levi, rank))
    return CommandResult("ok", report.to_payload())


def cmd_atlas(args: argparse.Namespace) -> CommandResult:
    records = load_atlas(_atlas_path(args))

    if args.action == "query":
        if args.group is None or args.label is None:
            raise InputError("'query' needs --group and --label")
        return CommandResult("ok", query(records, args.group, args.label).to_payload())

    if args.action == "list":
        if args.group is not None:
            _check_group(args.group)
        chosen = [r for r in records if args.group is None or r.group == args.group]
        orbits = [{"group": r.group, "label": r.label} for r in chosen]
        return CommandResult("ok", {"count": len(chosen), "orbits": orbits})

    results = check_consistency(records)  # action == check
    all_passed = all(r.passed for r in results)
    return CommandResult(
        "ok",
        {"all_passed": all_passed, "checks": [r.to_payload() for r in results]},
        (),
        0 if all_passed else 1,
    )


def cmd_selftest(args: argparse.Namespace) -> CommandResult:
    results = run_all(_atlas_path(args))
    all_passed = all(r.passed for r in results)
    payload = {
        "all_passed": all_passed,
        "passed": sum(1 for r in results if r.passed),
        "total": len(results),
        "criteria": [r.to_payload() for r in results],
    }
    return CommandResult("ok", payload, (), 0 if all_passed else 1)


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def _is_scalar_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        not isinstance(x, (dict, list)) for x in value
    )


# output is joined this many entries or JSON chunks at a time, so that a long
# list is rendered holding one block of small strings rather than one per entry
_JOIN_BLOCK = 4096
_JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _scalar_list_text(items) -> str:
    return ", ".join(
        ", ".join(map(_scalar_text, items[start : start + _JOIN_BLOCK]))
        for start in range(0, len(items), _JOIN_BLOCK)
    )


def _text_lines(value, indent: int = 0) -> Iterator[str]:
    """Line-oriented rendering of a JSON payload, same key order as the JSON."""
    pad = "  " * indent
    if isinstance(value, dict):
        entries = ((f"{key}:", value[key]) for key in sorted(value))
    else:
        entries = (("-", item) for item in value)
    for head, item in entries:
        if _is_scalar_list(item):
            yield f"{pad}{head} [{_scalar_list_text(item)}]"
        elif isinstance(item, (dict, list)) and item:
            yield pad + head
            yield from _text_lines(item, indent + 1)
        elif isinstance(item, dict):
            yield f"{pad}{head} (empty)"
        else:
            yield f"{pad}{head} {_scalar_text(item)}"


def _selftest_table(payload: dict) -> str:
    lines = ["id  status  criterion", "--  ------  ---------"]
    for item in payload["criteria"]:
        status = "PASS" if item["passed"] else "FAIL"
        lines.append(f"{item['id']:>2}  {status:<6}  {item['name']}")
        lines.append(f"    expected: {item['expected']}")
        lines.append(f"    actual:   {item['actual']}")
        for note in item["notes"]:
            lines.append(f"    note:     {note}")
    lines.append("")
    lines.append(f"{payload['passed']}/{payload['total']} criteria passed")
    return "\n".join(lines)


def _emit(result: CommandResult, json_mode: bool, text: str | None = None) -> None:
    if json_mode:
        document = {
            "status": result.status,
            "payload": result.payload,
            "diagnostics": list(result.diagnostics),
        }
        # written a block of chunks at a time: a long list is never held as
        # one string, nor as one chunk per entry
        chunks = _JSON_ENCODER.iterencode(document)
        for first in chunks:
            sys.stdout.write(first + "".join(islice(chunks, _JOIN_BLOCK - 1)))
        print()
        return
    if result.status == "error":
        print(f"error: {result.payload.get('error', 'unknown error')}", file=sys.stderr)
        suggestions = result.payload.get("suggestions") or []
        if suggestions:
            print("did you mean: " + ", ".join(suggestions), file=sys.stderr)
    else:
        print(text if text is not None else "\n".join(_text_lines(result.payload)))
    for line in result.diagnostics:
        print(f"note: {line}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilorb",
        description=(
            "Exact nilpotent-orbit combinatorics: classical partition calculus, "
            "E7/E8 integrality verdicts, and a checked atlas of exceptional orbits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="classical partition calculus (types B, C, D)")
    p.add_argument(
        "action",
        choices=["validate", "special", "rigid", "step", "sources", "rigid-special-source"],
    )
    p.add_argument("--type", required=True, choices=KINDS)
    p.add_argument("--parts", required=True, help="comma-separated parts, e.g. 3,3,2,2,1,1")
    p.add_argument("--n", default=None, help="step index, for 'step'")
    p.add_argument("--variant", choices=["i", "ii"], default=None, help="force a step variant")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_partition)

    p = sub.add_parser("delta", help="integrality verdict for a Levi in E7 or E8")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--system", choices=ROOT_SYSTEM_NAMES, default=None)
    p.add_argument("--levi", default=None, help="comma-separated simple-root labels, or 'all'")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_delta)

    p = sub.add_parser("atlas", help="query and cross-check the exceptional orbit table")
    p.add_argument("action", choices=["query", "check", "list"])
    p.add_argument("--group", default=None, help=f"{', '.join(GROUPS[:-1])} or {GROUPS[-1]}")
    p.add_argument("--label", default=None, help="orbit label, matched exactly")
    p.add_argument(
        "--data",
        default=None,
        help=f"atlas JSON file (default: ${ENV_ATLAS_PATH} or the packaged data)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_atlas)

    p = sub.add_parser("selftest", help="replay the full acceptance suite")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.handler(args)
    except OrbitNotFoundError as exc:
        result = CommandResult(
            "error", {"error": str(exc), "suggestions": list(exc.suggestions)}, (), 2
        )
    except (InputError, CapabilityError, StepInapplicableError) as exc:
        result = CommandResult("error", {"error": str(exc)}, (), 2)
    except (AtlasLoadError, IntegrityError) as exc:
        result = CommandResult("error", {"error": str(exc)}, (), 1)
    except MemoryError:
        # e.g. `partition step --n` near sys.maxsize: Θ(n) parts do not fit
        result = CommandResult("error", {"error": "out of memory"}, (), 1)

    text = None
    if args.command == "selftest" and result.status == "ok":
        text = _selftest_table(result.payload)
    try:
        # a step's result may hold an int past the cap on printing ints
        _uncapped(_emit, result, args.json, text)
        sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        # the reader left early (`| head`) and needs no word; a full disk or
        # an encoding without the labels' letters gets one line.  Point
        # stdout at devnull so the interpreter's final flush does not raise
        # again
        if not isinstance(exc, BrokenPipeError):
            with contextlib.suppress(OSError):  # stderr may be the full one
                print(f"error: cannot write output: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return result.exit_code or 1
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
