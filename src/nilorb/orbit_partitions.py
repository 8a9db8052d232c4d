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
relation and its inverses deterministic enough to replay.

A D-partition with all parts even corresponds to two orbits exchanged by an
outer symmetry; the calculus here never needs to tell them apart, and
``ClassicalOrbit.is_very_even`` merely flags the situation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import InputError, IntegrityError, StepInapplicableError

KINDS = ("B", "C", "D")

__all__ = [
    "KINDS",
    "ClassicalOrbit",
    "StepScript",
    "InverseStep",
    "BirationalSource",
    "is_valid_type",
    "transpose",
    "is_special",
    "elementary_step",
    "inverse_steps",
    "is_birationally_rigid",
    "has_codim4_boundary",
    "birational_sources",
    "rigid_special_source",
    "partitions_of",
]


def _check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    out = []
    prev = None
    for p in parts:
        if isinstance(p, bool) or not isinstance(p, int):
            raise InputError(f"partition parts must be integers, got {p!r}")
        if p <= 0:
            raise InputError(f"partition parts must be positive, got {p}")
        if prev is not None and p > prev:
            raise InputError(f"partition must be nonincreasing, got {tuple(parts)}")
        prev = p
        out.append(p)
    return tuple(out)


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
    raise InputError(f"unknown type {kind!r}; expected one of A, B, C, D")


def transpose(parts: Sequence[int]) -> tuple[int, ...]:
    parts = _check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > k) for k in range(parts[0]))


@dataclass(frozen=True)
class ClassicalOrbit:
    """A validated nilpotent orbit of type B, C or D."""

    kind: str
    parts: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"orbit kind must be one of {KINDS}, got {self.kind!r}")
        parts = _check_partition(self.parts)
        object.__setattr__(self, "parts", parts)
        if not is_valid_type(parts, self.kind):
            raise InputError(
                f"{tuple(parts)} is not a valid type-{self.kind} partition"
            )

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def is_very_even(self) -> bool:
        return self.kind == "D" and all(p % 2 == 0 for p in self.parts)

    def __repr__(self) -> str:
        return f"ClassicalOrbit({self.kind!r}, {self.parts!r})"


_SPECIAL_RESIDUE = {"B": 0, "C": 1, "D": 1}


def is_special(orbit: ClassicalOrbit) -> bool:
    """Specialness via the transpose-parity test.

    The transpose partition must have even multiplicities at even parts for
    type B, and at odd parts for types C and D.
    """
    return _parity_multiplicities_even(
        transpose(orbit.parts), _SPECIAL_RESIDUE[orbit.kind]
    )


def _padded(parts: tuple[int, ...], length: int) -> list[int]:
    return list(parts) + [0] * max(0, length - len(parts))


def _strip(parts: Sequence[int]) -> tuple[int, ...]:
    out = list(parts)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _variant_i_parts(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    grown = _padded(parts, n)
    for k in range(n):
        grown[k] += 2
    return _strip(grown)


def _variant_ii_parts(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    grown = _padded(parts, n + 1)
    for k in range(n - 1):
        grown[k] += 2
    grown[n - 1] += 1
    grown[n] += 1
    return _strip(grown)


def elementary_step(
    orbit: ClassicalOrbit, n: int, variant: Optional[str] = None
) -> tuple[ClassicalOrbit, str]:
    """Grow the orbit by 2n.  Returns the new orbit and the variant applied.

    With ``variant=None`` the canonical rule decides: variant (i) whenever its
    result is a valid partition of the orbit's type, else variant (ii), else
    StepInapplicableError.  Passing an explicit variant enforces the same
    legality rule, so a recorded script cannot replay a step that the rule
    would not have chosen.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"step index must be a positive integer, got {n!r}")
    if variant not in (None, "i", "ii"):
        raise InputError(f"variant must be 'i' or 'ii', got {variant!r}")

    first = _variant_i_parts(orbit.parts, n)
    first_ok = is_valid_type(first, orbit.kind)
    if variant in (None, "i"):
        if first_ok:
            return ClassicalOrbit(orbit.kind, first), "i"
        if variant == "i":
            raise StepInapplicableError(
                f"variant i at n={n} leaves type {orbit.kind}: {first}"
            )
    if not first_ok:
        second = _variant_ii_parts(orbit.parts, n)
        if is_valid_type(second, orbit.kind):
            return ClassicalOrbit(orbit.kind, second), "ii"
        raise StepInapplicableError(
            f"no variant applies to {orbit.parts} at n={n} in type {orbit.kind}"
        )
    raise StepInapplicableError(
        f"variant ii at n={n} is not legal: variant i already applies"
    )


@dataclass(frozen=True)
class InverseStep:
    source: ClassicalOrbit
    n: int
    variant: str


def inverse_steps(orbit: ClassicalOrbit) -> tuple[InverseStep, ...]:
    """All (source, n, variant) whose elementary step reproduces ``orbit``.

    Listed with n ascending and variant (i) before (ii).  Each returned entry
    round-trips: elementary_step(source, n) == (orbit, variant).
    """
    parts = orbit.parts
    length = len(parts)
    found = []
    for n in range(1, length + 1):
        nxt = parts[n] if n < length else 0
        if parts[n - 1] >= 2 and parts[n - 1] - 2 >= nxt:
            src = _strip(tuple(p - 2 for p in parts[:n]) + parts[n:])
            if is_valid_type(src, orbit.kind):
                found.append(
                    InverseStep(ClassicalOrbit(orbit.kind, src), n, "i")
                )
        if n < length:
            cand = [p for p in parts]
            for k in range(n - 1):
                cand[k] -= 2
            cand[n - 1] -= 1
            cand[n] -= 1
            if all(x >= 0 for x in cand) and all(
                cand[k] >= cand[k + 1] for k in range(len(cand) - 1)
            ):
                src = _strip(cand)
                if is_valid_type(src, orbit.kind):
                    # variant ii only fires where variant i would not
                    if not is_valid_type(_variant_i_parts(src, n), orbit.kind):
                        found.append(
                            InverseStep(ClassicalOrbit(orbit.kind, src), n, "ii")
                        )
    return tuple(found)


def is_birationally_rigid(orbit: ClassicalOrbit) -> bool:
    """No consecutive gap exceeds 1, the implicit trailing zero included."""
    parts = orbit.parts
    for k in range(len(parts)):
        nxt = parts[k + 1] if k + 1 < len(parts) else 0
        if parts[k] - nxt > 1:
            return False
    return True


# Whether every boundary degeneration sits in codimension at least 4.  For
# B/C/D partitions this coincides with the no-gap-above-1 condition that
# characterizes birational rigidity; both names are kept because the two
# properties are conceptually distinct and only happen to agree here.
has_codim4_boundary = is_birationally_rigid


@dataclass(frozen=True)
class StepScript:
    """A replayable sequence of elementary steps, outermost first."""

    steps: tuple[tuple[int, str], ...]

    def replay(self, source: ClassicalOrbit) -> ClassicalOrbit:
        current = source
        for n, variant in self.steps:
            current, _ = elementary_step(current, n, variant)
        return current


@dataclass(frozen=True)
class BirationalSource:
    orbit: ClassicalOrbit
    script: StepScript


def birational_sources(orbit: ClassicalOrbit) -> tuple[BirationalSource, ...]:
    """The birationally rigid orbit reaching ``orbit`` by variant-(i) steps.

    An inverse variant-(i) step at n lowers the gap p_n - p_{n+1} (trailing
    zero counted) by 2 and leaves every other gap alone.  So every descent
    ends at the same rigid orbit, the one whose gaps are the input's gaps
    mod 2, and one walk finds it: at each point take the smallest n with an
    inverse variant-(i) step, until none is left.  The orbit itself comes
    back with an empty script when it is already birationally rigid.  The
    result is a 1-tuple, with the script outermost first.
    """
    current = orbit
    steps: list[tuple[int, str]] = []
    while True:
        step = next((s for s in inverse_steps(current) if s.variant == "i"), None)
        if step is None:
            break
        steps.append((step.n, "i"))
        current = step.source
    if not is_birationally_rigid(current):
        raise IntegrityError(f"variant-(i) descent from {orbit!r} ends at {current!r}")
    return (BirationalSource(current, StepScript(tuple(reversed(steps)))),)


def rigid_special_source(orbit: ClassicalOrbit) -> BirationalSource:
    """The special birationally rigid source of a special orbit.

    The source is the end of the one variant-(i) walk in
    :func:`birational_sources`; the gap argument there makes it unique.
    Raises InputError when the input is not special, and IntegrityError when
    the source is not special (the calculus promises it is).
    """
    if not is_special(orbit):
        raise InputError(f"{orbit!r} is not special")
    (source,) = birational_sources(orbit)
    if not is_special(source.orbit):
        raise IntegrityError(f"birationally rigid source of {orbit!r} is not special")
    return source


def partitions_of(total: int, largest: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total``, largest part first, lexicographically
    descending."""
    if total < 0:
        raise InputError(f"cannot partition {total}")
    if total == 0:
        yield ()
        return
    cap = total if largest is None else min(largest, total)
    for first in range(cap, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest
