"""Partition calculus for classical nilpotent orbits (types B, C, D).

An orbit is a partition subject to the usual parity constraints:

* B: partition of an odd total, even parts with even multiplicity;
* C: partition of an even total, odd parts with even multiplicity;
* D: partition of an even total, even parts with even multiplicity.

Type A is supported by the validity predicate (every partition qualifies)
but excluded from the step calculus below, which is a B/C/D matter.

Elementary steps grow an orbit by 2n in two shapes: variant (i) adds 2 to
each of the first n parts, variant (ii) adds 2 to the first n-1 parts and 1
to parts n and n+1.  Missing parts count as zeros, so both variants may
lengthen the partition.  Variant (ii) is only available where variant (i)
lands outside the valid partition set; this asymmetry is what makes the step
relation deterministic enough to replay.  The inverses are not a second
rule: a candidate source is the orbit with a step's increments removed, and
it counts only when the forward rule maps it back.  Variant-(i) inverses
touch one gap each, so the birationally rigid source is a closed formula in
the gaps (see :func:`birational_sources`).

A D-partition with all parts even corresponds to two orbits exchanged by an
outer symmetry; the calculus here never needs to tell them apart, and
``ClassicalOrbit.is_very_even`` merely flags the situation.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import islice
from operator import lt, sub

from .errors import InputError, IntegrityError, StepInapplicableError, _Frozen, _uncapped
from .errors import _is_int, _items

KINDS = ("B", "C", "D")

__all__ = [
    "KINDS",
    "ClassicalOrbit",
    "StepScript",
    "InverseStep",
    "BirationalSource",
    "is_valid_type",
    "is_special",
    "elementary_step",
    "inverse_steps",
    "is_birationally_rigid",
    "birational_sources",
    "rigid_special_source",
    "partitions_of",
]


def _check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = _items(parts, "a partition")
    prev = None
    for p in parts:
        if type(p) is not int and not _is_int(p):
            raise InputError(f"partition parts must be integers, got {_uncapped(repr, p)}")
        if p <= 0:
            raise InputError(f"partition parts must be positive, got {_uncapped(str, p)}")
        if prev is not None and p > prev:
            raise InputError(f"partition must be nonincreasing, got {_uncapped(str, parts)}")
        prev = p
    return parts


def _parity_multiplicities_even(parts: Sequence[int], residue: int) -> bool:
    counts: dict[int, int] = {}
    for p in parts:
        if p % 2 == residue:
            counts[p] = counts.get(p, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


def is_valid_type(parts: Sequence[int], kind: str) -> bool:
    """Whether the partition satisfies the type-``kind`` parity constraints."""
    parts = _check_partition(parts)
    if kind == "A":
        return True
    if kind == "B":
        return sum(parts) % 2 == 1 and _parity_multiplicities_even(parts, 0)
    if kind == "C":
        return sum(parts) % 2 == 0 and _parity_multiplicities_even(parts, 1)
    if kind == "D":
        return sum(parts) % 2 == 0 and _parity_multiplicities_even(parts, 0)
    raise InputError(f"unknown type {_uncapped(repr, kind)}; expected one of A, B, C, D")


class ClassicalOrbit(_Frozen):
    """A validated nilpotent orbit of type B, C or D."""

    __slots__ = ("kind", "parts")

    def __init__(self, kind: str, parts: tuple[int, ...]):
        if kind not in KINDS:
            raise InputError(f"orbit kind must be one of {KINDS}, got {_uncapped(repr, kind)}")
        parts = _items(parts, "a partition")
        if not is_valid_type(parts, kind):  # checks the parts once, before their parity
            raise InputError(f"{_uncapped(repr, parts)} is not a valid type-{kind} partition")
        self._fill(kind, parts)

    @property
    def is_very_even(self) -> bool:
        return self.kind == "D" and all(p % 2 == 0 for p in self.parts)

    def __repr__(self) -> str:
        # a step can leave a part past the cap on printing ints
        return f"ClassicalOrbit({self.kind!r}, {_uncapped(repr, self.parts)})"


_SPECIAL_RESIDUE = {"B": 0, "C": 1, "D": 1}


def _gaps(parts: tuple[int, ...]) -> list[int]:
    """g_n = p_n - p_{n+1} for n = 1..L, the trailing zero counted."""
    return list(map(sub, parts, parts[1:] + (0,)))


def _special_gaps(kind: str, gaps: list[int]) -> bool:
    """The specialness test of :func:`is_special` on an orbit's gaps."""
    # g_k sits at index k - 1: even k are the odd indices
    return not any(map((1).__and__, gaps[1 - _SPECIAL_RESIDUE[kind] :: 2]))


def is_special(orbit: ClassicalOrbit) -> bool:
    """Specialness via the transpose-parity test, read off the gaps.

    The transpose partition must have even multiplicities at even parts for
    type B, and at odd parts for types C and D.  The transpose has
    multiplicity g_k at k, so the test needs the gaps only: O(L) for L parts
    rather than O(p_1 * L) for building the transpose.
    """
    return _special_gaps(orbit.kind, _gaps(orbit.parts))


def _moved(
    parts: tuple[int, ...], n: int, variant: str, sign: int
) -> tuple[int, ...] | None:
    """``parts`` with a variant-``variant`` step at ``n`` added (sign 1) or
    removed (sign -1), missing parts counted as zeros; None when the result
    is not a partition.  The step is applied to one list in place, so a step
    of any length builds that list and the result tuple and nothing more."""
    ii = variant == "ii"
    moved = [0] * max(len(parts), n + ii)
    moved[: len(parts)] = parts
    two = 2 * sign
    for k in range(n - ii):
        moved[k] += two
    if ii:
        moved[n - 1] += sign
        moved[n] += sign
    if moved[-1] < 0 or any(map(lt, moved, islice(moved, 1, None))):
        return None
    while moved and moved[-1] == 0:
        moved.pop()
    return tuple(moved)


def _orbit_or_none(kind: str, parts: tuple[int, ...]) -> ClassicalOrbit | None:
    """The orbit, or None when the type refuses ``parts``."""
    try:
        return ClassicalOrbit(kind, parts)
    except InputError:
        return None


def elementary_step(
    orbit: ClassicalOrbit, n: int, variant: str | None = None
) -> tuple[ClassicalOrbit, str]:
    """Grow the orbit by 2n.  Returns the new orbit and the variant applied.

    With ``variant=None`` the canonical rule decides: variant (i) whenever its
    result is a valid partition of the orbit's type, else variant (ii), else
    StepInapplicableError.  Passing an explicit variant enforces the same
    legality rule, so a recorded script cannot replay a step that the rule
    would not have chosen.
    """
    if isinstance(n, int) and abs(n) > sys.maxsize:
        # no list can be that long; refuse before building one, and name the
        # size of n rather than its digits, which may run to thousands
        raise InputError(
            f"step index must be a positive integer no larger than sys.maxsize = "
            f"{sys.maxsize}, got an integer of {n.bit_length()} bits"
        )
    if not _is_int(n) or n < 1:
        raise InputError(f"step index must be a positive integer, got {_uncapped(repr, n)}")
    if variant not in (None, "i", "ii"):
        raise InputError(f"variant must be 'i' or 'ii', got {_uncapped(repr, variant)}")

    # both forward moves are partitions by construction, so the one check the
    # constructor runs can only refuse their parity
    first = _moved(orbit.parts, n, "i", 1)
    stepped = _orbit_or_none(orbit.kind, first)
    if variant in (None, "i"):
        if stepped is not None:
            return stepped, "i"
        if variant == "i":
            raise StepInapplicableError(
                f"variant i at n={n} leaves type {orbit.kind}: {_uncapped(repr, first)}"
            )
    if stepped is None:
        second = _orbit_or_none(orbit.kind, _moved(orbit.parts, n, "ii", 1))
        if second is not None:
            return second, "ii"
        raise StepInapplicableError(
            f"no variant applies to {_uncapped(repr, orbit.parts)} at n={n} in type {orbit.kind}"
        )
    raise StepInapplicableError(
        f"variant ii at n={n} is not legal: variant i already applies"
    )


class InverseStep(_Frozen):
    __slots__ = ("source", "n", "variant")


def inverse_steps(orbit: ClassicalOrbit) -> tuple[InverseStep, ...]:
    """All (source, n, variant) whose elementary step reproduces ``orbit``.

    Each candidate source is ``orbit`` with the step's increments removed;
    it is kept when it is a valid orbit of the same type and
    elementary_step(source, n) == (orbit, variant), so the forward rule alone
    decides which variant is legal.  Listed with n ascending and variant (i)
    before (ii).
    """
    found = []
    for n in range(1, len(orbit.parts) + 1):
        for variant in ("i", "ii"):
            parts = _moved(orbit.parts, n, variant, -1)
            source = None if parts is None else _orbit_or_none(orbit.kind, parts)
            if source is not None and elementary_step(source, n) == (orbit, variant):
                found.append(InverseStep(source, n, variant))
    return tuple(found)


def is_birationally_rigid(orbit: ClassicalOrbit) -> bool:
    """No consecutive gap exceeds 1, the implicit trailing zero included."""
    return all(g <= 1 for g in _gaps(orbit.parts))


class StepScript(_Frozen):
    """A replayable sequence of elementary steps, outermost first."""

    __slots__ = ("steps",)

    def replay(self, source: ClassicalOrbit) -> ClassicalOrbit:
        current = source
        for n, variant in self.steps:
            current, _ = elementary_step(current, n, variant)
        return current


class BirationalSource(_Frozen):
    __slots__ = ("orbit", "script")


# Distinct sources are few: selftest criterion 6 meets 112 in its 985 special
# orbits.  256 holds all of them twice over and bounds the memory a long
# stream of distinct sources can pin.
_SOURCE_CACHE_SIZE = 256

# A search loop can build p_1 / 2 steps before it meets an odd gap that
# refuses the orbit; past this first part the O(L) gap test runs first.
_PRETEST_PART = 1 << 12


@lru_cache(maxsize=_SOURCE_CACHE_SIZE)
def _source(kind: str, parts: tuple[int, ...]) -> tuple[ClassicalOrbit, bool]:
    """The validated source orbit ``(kind, parts)`` and whether it is special,
    built and checked once per distinct key and then shared.  A source the
    type rejects raises InputError on every call: lru_cache stores no
    exceptions."""
    source = ClassicalOrbit(kind, parts)
    return source, is_special(source)


def _descend(
    orbit: ClassicalOrbit, gaps: list[int], tested: int = -1
) -> tuple[BirationalSource, bool] | None:
    """The gap-parity source of ``orbit`` with its script, and whether the
    source is special (see :func:`birational_sources`): one loop over
    ``reversed(gaps)`` sums the gap parities into the source's parts and
    appends the steps, then one ``_source`` lookup.  Given ``tested``, the
    type's ``_SPECIAL_RESIDUE``, the loop also runs :func:`is_special`'s test
    on each g_n with n = ``tested`` mod 2: None at an odd one, not special."""
    # the script has sum floor(g_n / 2) <= p_1 / 2 steps: past _PRETEST_PART
    # refuse an orbit that is not special before building any, then one
    # asking for more than a list holds, naming the count's bit size
    if orbit.parts and orbit.parts[0] > _PRETEST_PART:
        if tested >= 0 and not _special_gaps(orbit.kind, gaps):
            return None
        count = sum(g >> 1 for g in gaps)
        if count > sys.maxsize:
            raise InputError(
                f"a step script must have at most sys.maxsize = {sys.maxsize} steps, "
                f"got a count of {count.bit_length()} bits"
            )
    parts: list[int] = []
    steps: list[tuple[int, str]] = []
    part, n = 0, len(gaps)
    for g in reversed(gaps):
        if g & 1:
            if n & 1 == tested:
                return None
            part += 1
        if part:
            parts.append(part)
        # only a gap of 2 or more adds steps: one tuple (n, "i"), floor(g_n / 2) times
        if g > 1:
            steps += [(n, "i")] * (g >> 1)
        n -= 1
    # rigid by construction (every gap is 0 or 1); the type is the calculus's
    # promise, so a source outside it is an integrity fault, not bad input
    try:
        source, special = _source(orbit.kind, tuple(parts[::-1]))
    except InputError as exc:
        raise IntegrityError(f"gap-parity source of {orbit!r}: {exc}") from None
    return BirationalSource(source, StepScript(tuple(steps))), special


def birational_sources(orbit: ClassicalOrbit) -> tuple[BirationalSource, ...]:
    """The birationally rigid orbit reaching ``orbit`` by variant-(i) steps.

    Write g_n = p_n - p_{n+1} for the gaps of the L parts, trailing zero
    counted.  An inverse variant-(i) step at n is legal whenever g_n >= 2 and
    lowers g_n by 2, leaving every other gap alone (at g_n = 2 it merges two
    blocks of one parity, so even multiplicities stay even).  So the source
    is the partition whose gaps are g_n mod 2: its parts are the suffix sums
    of those parities, zeros stripped.  Descending by the smallest legal n
    each time gives the script, outermost first: floor(g_n / 2) copies of
    ``(n, "i")`` for n = L down to 1.  The copies for one n are one shared
    tuple, so a source costs O(L) objects plus one tuple of
    sum floor(g_n / 2) references, not a fresh tuple per step.  A call makes
    one loop over the gaps, from g_L down, for the parts and the script both,
    and one cached lookup: each distinct source orbit is built and checked
    once per ``(kind, parts)`` and then shared, so equal sources are the same
    object.  A birationally rigid orbit is its own source with an empty
    script.  The result is a 1-tuple.  A script of more than ``sys.maxsize``
    steps is refused with InputError.  No lower bound is set: the script
    holds one reference per step, so a count near 10**9 needs tens of
    gigabytes and can end in MemoryError.
    """
    return (_descend(orbit, _gaps(orbit.parts))[0],)


def rigid_special_source(orbit: ClassicalOrbit) -> BirationalSource:
    """The special birationally rigid source of a special orbit.

    The source is the gap-parity reduction of :func:`birational_sources`;
    the gap argument there makes it unique.  A call reads the orbit's gaps
    once, in one loop that tests specialness while it builds the source and
    its script, and looks the source up once in the per-``(kind, parts)``
    cache, which also holds whether the source is special; so each distinct
    source is built and checked once and then shared.  Past a first part of
    4096 the test runs before the loop: an input not special builds no script.
    Raises InputError when the input is not special, and IntegrityError when
    the source is not special (the calculus promises it is).
    """
    found = _descend(orbit, _gaps(orbit.parts), _SPECIAL_RESIDUE[orbit.kind])
    if found is None:
        raise InputError(f"{orbit!r} is not special")
    if not found[1]:
        raise IntegrityError(f"birationally rigid source of {orbit!r} is not special")
    return found[0]


def partitions_of(total: int) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total``, largest part first, lexicographically
    descending.

    A loop, so a partition of many parts costs no stack: the next partition
    drops the trailing 1s, lowers the last part above 1 by one, and refills
    what that freed with parts no larger than the lowered one.
    """
    if not _is_int(total):
        raise InputError(f"partition total must be an integer, got {_uncapped(repr, total)}")
    if total < 0:
        raise InputError(f"cannot partition {_uncapped(str, total)}")
    if total == 0:
        yield ()
        return
    cap = total
    parts: list[int] = []
    free = total
    while True:
        count, rest = divmod(free, cap)
        parts += [cap] * count
        if rest:
            parts.append(rest)
        yield tuple(parts)
        free = 1
        while parts[-1] == 1:
            parts.pop()
            if not parts:
                return
            free += 1
        cap = parts[-1] - 1
        parts[-1] = cap
