"""Seeded inputs for the three benchmark workloads, and the CLI commands
that a traced run times through ``nilorb.cli.main``.

Nothing here imports nilorb.  The parent process generates the inputs and
starts every measured child; a child started with vfork inherits its
parent's peak resident size, so the parent must stay smaller than any child
it measures.  The few partition predicates needed to draw valid inputs are
therefore restated here from their textbook definitions.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("levi_sweep", "source_search", "atlas_faults")

ATLAS_FILE = Path("src/nilorb/data/exceptional_orbits.json")
PRIMARY_SOURCE_PREFIX = "paper §"


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream per (seed, purpose); string seeds hash stably."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


# --- levi_sweep ------------------------------------------------------------------

RANKS = {"E7": 7, "E8": 8}
PRESETS = ("E7:A2+A1", "E8:A4+2A1")


def levi_ops(seed: int, worker: int) -> list:
    """All 382 nonempty Levi subsets of E7 and E8 plus both presets, in a
    seeded order that differs per worker process."""
    ops = [
        ["levi", system, list(levi)]
        for system, rank in RANKS.items()
        for k in range(1, rank + 1)
        for levi in itertools.combinations(range(1, rank + 1), k)
    ]
    ops += [["preset", name] for name in PRESETS]
    rng_for(seed, "levi", worker).shuffle(ops)
    return ops


# --- source_search ---------------------------------------------------------------

SHALLOW_MAX_TOTAL = 16
# one block of source-search ops: shallow ops are three quarters of the
# stream so that op_p50_ms falls well inside them, deep ops more than a tenth
# so that op_p90_ms falls inside them, and one chain in twenty is deep enough
# to exceed the interpreter's default recursion limit in a recursive search
BLOCK = ("shallow",) * 15 + ("deep",) * 3 + ("chain_short", "chain_long")
DEEP_PARTS = (5, 9)
DEEP_MAX_PART = 29
# a narrow band keeps the deep share of a run's time nearly the same for
# every seed
DEEP_NODES = (800, 1600)
CHAIN_SHORT_STEPS = (500, 750)
CHAIN_LONG_STEPS = (1200, 1500)


def _valid(parts, kind: str) -> bool:
    odd_total = sum(parts) % 2 == 1
    if kind == "B" and not odd_total or kind in "CD" and odd_total:
        return False
    residue = 1 if kind == "C" else 0
    counts = {}
    for p in parts:
        if p % 2 == residue:
            counts[p] = counts.get(p, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


def _transpose(parts):
    return tuple(sum(1 for p in parts if p > k) for k in range(parts[0])) if parts else ()


def special(parts, kind: str) -> bool:
    """Transpose parity: even multiplicity at even (B) or odd (C, D) parts."""
    residue = 0 if kind == "B" else 1
    counts = {}
    for p in _transpose(parts):
        if p % 2 == residue:
            counts[p] = counts.get(p, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


def _partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def shallow_pool() -> list:
    return [
        [kind, list(parts)]
        for total in range(1, SHALLOW_MAX_TOTAL + 1)
        for kind in "BCD"
        for parts in _partitions(total, total)
        if _valid(parts, kind) and special(parts, kind)
    ]


def _search_nodes(parts) -> int:
    # inverse variant-(i) steps lower one gap (trailing zero included) by 2
    # at a time, so a recursive search over them visits prod(gap // 2 + 1)
    # partitions
    nodes = 1
    for k, p in enumerate(parts):
        nxt = parts[k + 1] if k + 1 < len(parts) else 0
        nodes *= (p - nxt) // 2 + 1
    return nodes


def _deep(rng: random.Random) -> list:
    while True:
        k = rng.randint(*DEEP_PARTS)
        # the smallest part, then gaps of at least 2 up to the largest
        steps = [rng.randint(1, 6)] + [rng.randint(2, 6) for _ in range(k - 1)]
        parts = list(itertools.accumulate(steps))[::-1]
        kind = rng.choice("BCD")
        if (
            parts[0] <= DEEP_MAX_PART
            and DEEP_NODES[0] <= _search_nodes(parts) <= DEEP_NODES[1]
            and _valid(parts, kind)
            and special(parts, kind)
        ):
            return [kind, parts]


def _chain(rng: random.Random, steps_range) -> list:
    # one large part, or two equal ones, with a small valid tail; every
    # inverse step lowers the large parts by 2, so the search goes `steps` deep
    while True:
        steps = rng.randint(*steps_range)
        kind = rng.choice("BCD")
        large = [2 * steps + rng.randint(0, 1)] * rng.choice((1, 2))
        parts = large + rng.choice(([], [1], [1, 1], [2, 2]))
        if _valid(parts, kind) and special(parts, kind):
            return [kind, parts]


def source_ops(seed: int, first_block: int, blocks: int) -> list:
    """Blocks ``first_block ..`` of the seeded source-search stream.

    Each op is ``[shape, kind, parts]``.  No input repeats within one call
    while it asks for fewer shallow inputs than the pool holds: shallow
    inputs walk a seeded permutation of the pool, and drawn inputs are
    redrawn on a clash.
    """
    pool = shallow_pool()
    rng_for(seed, "shallow").shuffle(pool)
    ops, seen = [], set()
    shallow_index = first_block * BLOCK.count("shallow")
    for b in range(first_block, first_block + blocks):
        rng = rng_for(seed, "block", b)
        block = list(BLOCK)
        rng.shuffle(block)
        for shape in block:
            while True:
                if shape == "shallow":
                    kind, parts = pool[shallow_index % len(pool)]
                    shallow_index += 1
                elif shape == "deep":
                    kind, parts = _deep(rng)
                elif shape == "chain_short":
                    kind, parts = _chain(rng, CHAIN_SHORT_STEPS)
                else:
                    kind, parts = _chain(rng, CHAIN_LONG_STEPS)
                key = (kind, tuple(parts))
                if key not in seen:
                    break
            seen.add(key)
            ops.append([shape, kind, parts])
    return ops


# --- atlas_faults ----------------------------------------------------------------

FILE_FLIPS = 24


def primary_flags(doc: dict) -> list:
    """(group, label, field) of every flag whose provenance cites the paper."""
    return [
        [rec["group"], rec["label"], field]
        for rec in doc["records"]
        for field, source in sorted(rec["provenance"].items())
        if source.startswith(PRIMARY_SOURCE_PREFIX)
    ]


def write_flipped_files(doc: dict, flags: list, directory: Path) -> list:
    """One atlas file per flag, identical to the packaged one but for that
    flag; returns the paths in the order of ``flags``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, (group, label, field) in enumerate(flags):
        mutated = json.loads(json.dumps(doc))
        for rec in mutated["records"]:
            if rec["group"] == group and rec["label"] == label:
                rec[field] = not rec[field]
        path = directory / f"flip-{index:03d}.json"
        path.write_text(json.dumps(mutated, ensure_ascii=False), encoding="utf-8")
        paths.append(str(path))
    return paths


def file_flips(seed: int, flags: list) -> list:
    """The flags a run flips in files rather than in memory."""
    return rng_for(seed, "atlas-files").sample(flags, FILE_FLIPS)


def atlas_ops(seed: int, worker: int, flags: list, files: list) -> list:
    """One accept load, a load of each ``(path, flag)`` flipped file and every
    in-memory flip, in an order that differs per worker process."""
    ops = [["accept"]]
    ops += [["file", path] + flag for path, flag in files]
    ops += [["memory"] + flag for flag in flags]
    rng_for(seed, "atlas", worker).shuffle(ops)
    return ops


# --- cli commands ----------------------------------------------------------------

# the README's example commands, each under a metric-safe name
README_COMMANDS = {
    "partition_special": ["partition", "special", "--type", "D", "--parts", "3,3,2,2,1,1"],
    "partition_rigid": ["partition", "rigid", "--type", "C", "--parts", "4,2"],
    "partition_step": ["partition", "step", "--type", "C", "--parts", "1,1", "--n", "1"],
    "partition_sources": ["partition", "sources", "--type", "C", "--parts", "4,4"],
    "partition_rigid_special_source": [
        "partition", "rigid-special-source", "--type", "B", "--parts", "5,3,1",
    ],
    "delta_E7_A2_A1": ["delta", "--preset", "E7:A2+A1"],
    "delta_E8_A4_2A1": ["delta", "--preset", "E8:A4+2A1"],
    "delta_E7_levi_1_2_6": ["delta", "--system", "E7", "--levi", "1,2,6"],
    "delta_E8_levi_all": ["delta", "--system", "E8", "--levi", "all"],
    "atlas_query": ["atlas", "query", "--group", "E8", "--label", "A_4+2A_1"],
    "atlas_list": ["atlas", "list", "--group", "G2"],
    "atlas_check": ["atlas", "check"],
    "selftest": ["selftest"],
}
LONG_CHAIN_COMMAND = "partition_rigid_special_source_C2400"
COMMANDS = dict(
    README_COMMANDS,
    **{LONG_CHAIN_COMMAND: ["partition", "rigid-special-source", "--type", "C", "--parts", "2400"]},
)


def cli_argv(name: str) -> list:
    return COMMANDS[name] + ["--json"]

