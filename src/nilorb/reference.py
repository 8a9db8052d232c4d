"""Recorded reference values for the two worked presets.

These tables hold independently recorded values for the E7 A2+A1 and
E8 A4+2A1 computations: the semisimple element h, the roots pairing to 1
against it, the weight kappa, sample members of the central torus lattice
with their expected kappa-pairings, and the final verdict.  The delta report
machinery compares its own output against them and surfaces any mismatch
rather than hiding it; one recorded pairing is known not to match the exact
recomputation and its fixture says so.

Coordinate tuples are raw representatives; comparisons happen in the quotient.
"""

from __future__ import annotations

from typing import Optional

from .exact_linalg import _Frozen

__all__ = ["TorusMemberFixture", "WorkedExample", "WORKED_EXAMPLES"]


class TorusMemberFixture(_Frozen):
    """A vector expected to lie in the central torus lattice (mod all-ones),
    with its recorded kappa-pairing."""

    __slots__ = ("coords", "expected_pairing", "note")

    def __init__(self, coords: tuple[int, ...], expected_pairing: Optional[int] = None, note: str = ""):
        self._fill(coords, expected_pairing, note)


class WorkedExample(_Frozen):
    __slots__ = ("preset", "system", "levi_indices", "h", "roots_pairing_one", "kappa",
                 "torus_members", "verdict", "torus_rank")

    def __init__(self, preset: str, system: str, levi_indices: tuple[int, ...], h: tuple[int, ...],
                 roots_pairing_one: tuple[tuple[int, ...], ...], kappa: tuple[int, ...],
                 torus_members: tuple[TorusMemberFixture, ...], verdict: str, torus_rank: int):
        self._fill(preset, system, levi_indices, h, roots_pairing_one, kappa, torus_members,
                   verdict, torus_rank)


_E7_EXAMPLE = WorkedExample(
    preset="E7:A2+A1",
    system="E7",
    levi_indices=(1, 2, 6),
    h=(2, 0, -2, 0, 0, 1, -1, 0),
    roots_pairing_one=(
        (1, 0, 0, 0, 0, -1, 0, 0),
        (0, 1, 0, 0, 0, 0, -1, 0),
        (0, 0, 0, 1, 0, 0, -1, 0),
        (0, 0, 0, 0, 1, 0, -1, 0),
        (0, 0, 0, 0, 0, 0, -1, 1),
        (1, 1, 0, 0, 0, 0, 1, 1),
        (1, 0, 0, 1, 0, 0, 1, 1),
        (1, 0, 0, 0, 1, 0, 1, 1),
        (1, 0, 1, 0, 0, 1, 0, 1),
        (0, 1, 0, 1, 0, 1, 0, 1),
        (0, 1, 0, 0, 1, 1, 0, 1),
        (0, 0, 0, 1, 1, 1, 0, 1),
    ),
    kappa=(5, 4, 1, 4, 4, 3, -1, 8),
    torus_members=(
        TorusMemberFixture((1, 1, 1, 0, 0, 0, 0, -3), -14),
        TorusMemberFixture((0, 0, 0, 0, -1, -1, -1, 3), 18),
        TorusMemberFixture((0, 0, 0, 0, 0, -1, -1, 2), 14),
        TorusMemberFixture(
            (0, 0, 0, 0, 0, 0, 0, 4),
            16,
            note=(
                "recorded pairing disagrees with exact recomputation in these "
                "coordinates (which yields 18); kept as recorded, unresolved"
            ),
        ),
    ),
    verdict="integral",
    torus_rank=4,
)

_E8_EXAMPLE = WorkedExample(
    preset="E8:A4+2A1",
    system="E8",
    levi_indices=(1, 2, 3, 4, 7, 8),
    h=(4, 2, 0, -2, -4, 1, 2, 0, 0),
    roots_pairing_one=(
        (0, 0, 0, 0, 0, 1, 0, -1, 0),
        (0, 0, 0, 0, 0, 1, 0, 0, -1),
        (0, 1, 0, 0, 0, -1, 0, 0, 0),
        (1, 1, 0, 0, 1, 0, 0, 0, 0),
        (1, 0, 0, 0, 1, 0, 1, 0, 0),
        (1, 0, 1, 1, 0, 0, 0, 0, 0),
        (1, 0, 0, 1, 0, 0, 0, 1, 0),
        (0, 1, 1, 0, 0, 0, 0, 1, 0),
        (0, 1, 0, 1, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, 0, 1, 1, 0),
        (0, 0, -1, 0, 0, 0, 0, -1, -1),
        (-1, 0, 0, 0, -1, 0, 0, 0, -1),
        (0, -1, 0, -1, 0, 0, 0, 0, -1),
        (0, 0, 0, -1, 0, 0, -1, 0, -1),
    ),
    kappa=(2, 2, 1, 0, 0, 0, 1, 0, -6),
    torus_members=(
        TorusMemberFixture((1, 1, 1, 1, 1, 0, 0, 0, -5), 35),
        TorusMemberFixture((1, 1, 1, 1, 1, 1, 0, 0, -3), 23),
    ),
    verdict="non-integral",
    torus_rank=2,
)

WORKED_EXAMPLES: dict[str, WorkedExample] = {
    ex.preset: ex for ex in (_E7_EXAMPLE, _E8_EXAMPLE)
}
