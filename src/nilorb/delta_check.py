"""Integrality criterion for a distinguished weight against a central torus.

Given a Levi subsystem L of E7 or E8, the pipeline is:

1. h: the sum of the positive coroots of L.  Every root of the system has
   norm 2 (checked once when the system is built), so each coroot is its
   root and h is one column sum of L's raw root coordinates.  L's members are
   the positive roots whose support bitmask lies inside L's labels.
2. The positive roots beta with pairing(h, beta-coroot) == 1.  h is paired
   with the simple coroots once; each positive coroot is the same integer
   combination of simple coroots as its root is of simple roots, so its
   pairing is the dot product of the root's coefficient row with those
   values.
3. kappa: the sum of those roots, again one column sum of raw coordinates.
4. The central torus lattice of L: coroot-lattice vectors orthogonal to every
   simple root of L.  In simple-coroot coordinates this is the integer kernel
   of L's rows of the Cartan matrix, of rank rank(system) - rank(L), read
   off one HNF of the transposed rows; each kernel vector maps to ambient
   coordinates as the same combination of the simple roots' canonical
   representatives (last coordinate zero), and the image is made canonical
   as a lattice basis.
5. Verdict: "integral" iff kappa pairs to an even integer with every basis
   vector of that lattice.  The parity test is basis-independent (an integer
   unimodular change of basis maps even pairing vectors to even pairing
   vectors in both directions), and kappa may be replaced by any
   representative modulo all-ones without changing any pairing.

Two presets carry recorded reference values; their reports embed a
field-by-field comparison, including one recorded torus pairing that is known
to disagree with the exact recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError, IntegrityError
from .exact_linalg import LatticeBasis, _kernel_rows
from .reference import WORKED_EXAMPLES, WorkedExample
from .root_system import (
    LeviSubsystem,
    QuotientVector,
    RootSystem,
    _form,
    build_root_system,
    cartan_matrix,
    lattice_contains_mod_ones,
    levi_subsystem,
    pair,
)

Pairing = Union[int, Fraction]

PRESETS: dict[str, tuple[str, tuple[int, ...]]] = {
    "E7:A2+A1": ("E7", (1, 2, 6)),
    "E8:A4+2A1": ("E8", (1, 2, 3, 4, 7, 8)),
}

__all__ = [
    "PRESETS",
    "MemberCheck",
    "ReferenceComparison",
    "DeltaReport",
    "principal_h",
    "roots_pairing_one",
    "kappa_weight",
    "central_torus_lattice",
    "delta_verdict",
    "preset_report",
]


def _coordinate_sum(vectors: Sequence[QuotientVector], dim: int) -> QuotientVector:
    """Sum of the vectors, one raw-coordinate column sum and one
    QuotientVector; the raw coordinates equal those of repeated ``+``."""
    return QuotientVector(tuple(map(sum, zip(*(v.coords for v in vectors)))) or (0,) * dim)


def principal_h(levi: LeviSubsystem) -> QuotientVector:
    """Sum of the positive coroots of the Levi subsystem."""
    if not levi.positive_roots:
        raise InputError("levi subsystem has no positive roots; h is undefined")
    return _coordinate_sum(levi.positive_roots, levi.system.ambient_dim)


def roots_pairing_one(rs: RootSystem, h: QuotientVector) -> tuple[QuotientVector, ...]:
    """Positive roots whose coroot pairs to exactly 1 against h, in the
    system's enumeration order.

    h is paired with the simple coroots once; each positive coroot is the
    same integer combination of simple coroots as its root is of simple
    roots, so its pairing is a dot product with the root's coefficient row.
    """
    on_simples = [pair(h, alpha) for alpha in rs.simple_roots]
    return tuple(
        root
        for root, row in zip(rs.positive_roots, rs.coefficient_rows)
        if sum(map(mul, row, on_simples)) == 1
    )


def kappa_weight(rs: RootSystem, h: QuotientVector) -> QuotientVector:
    """Sum of the positive roots whose coroot pairs to exactly 1 against h.

    ``delta_verdict`` no longer calls this; it sums the same roots in place.
    It is kept as a public helper and as the tests' oracle for that sum.
    """
    return _coordinate_sum(roots_pairing_one(rs, h), rs.ambient_dim)


def central_torus_lattice(levi: LeviSubsystem) -> LatticeBasis:
    """Lattice of coroot-lattice vectors centralizing the Levi.

    In simple-coroot coordinates c, the vector sum(c_j * alpha_j) pairs with
    the simple root alpha_i as row i of the Cartan matrix applied to c, so the
    torus is the integer kernel of the Levi's Cartan rows.  That kernel is
    mapped to ambient coordinates through the simple roots' canonical
    representatives, whose last coordinate is zero, which matches how
    quotient vectors canonicalize for display.
    """
    rs = levi.system
    cartan = cartan_matrix(rs)
    transposed = [[cartan[i - 1][j] for i in levi.indices] for j in range(rs.rank)]
    ambient_columns = list(zip(*(a.canonical_coords for a in rs.simple_roots)))
    ambient = tuple(
        tuple(sum(map(mul, coeffs, column)) for column in ambient_columns)
        for coeffs in _kernel_rows(transposed, levi.rank)
    )
    result = LatticeBasis(rs.ambient_dim, ambient)

    expected_rank = rs.rank - levi.rank
    if result.rank != expected_rank:
        raise IntegrityError(
            f"torus lattice rank {result.rank}, expected {expected_rank}"
        )
    return result


@dataclass(frozen=True)
class MemberCheck:
    """One reference torus vector re-verified against the computed lattice."""

    coords: tuple[int, ...]
    in_lattice: bool
    pairing: Pairing
    expected_pairing: Optional[int] = None
    note: str = ""

    @property
    def matches(self) -> Optional[bool]:
        if self.expected_pairing is None:
            return None
        return self.pairing == self.expected_pairing


@dataclass(frozen=True)
class ReferenceComparison:
    preset: str
    h_matches: bool
    roots_match: bool
    kappa_matches: bool
    verdict_matches: bool
    torus_rank_matches: bool
    member_checks: tuple[MemberCheck, ...]

    @property
    def clean(self) -> bool:
        """True when every comparison, including member pairings, agrees."""
        return (
            self.h_matches
            and self.roots_match
            and self.kappa_matches
            and self.verdict_matches
            and self.torus_rank_matches
            and all(mc.in_lattice for mc in self.member_checks)
            and all(mc.matches is not False for mc in self.member_checks)
        )


@dataclass(frozen=True, eq=False)
class DeltaReport:
    system: str
    levi_indices: tuple[int, ...]
    h: QuotientVector
    roots_pairing_one: tuple[QuotientVector, ...]
    kappa: QuotientVector
    torus_basis: tuple[tuple[int, ...], ...]
    pairings: tuple[Pairing, ...]
    verdict: str
    reference: Optional[ReferenceComparison] = None

    @property
    def is_integral(self) -> bool:
        return self.verdict == "integral"

    @property
    def torus_rank(self) -> int:
        return len(self.torus_basis)

    def to_payload(self) -> dict:
        """JSON-ready dictionary with canonical coordinate representatives."""

        def scalar(x: Pairing):
            return x if isinstance(x, int) else str(x)

        payload = {
            "system": self.system,
            "levi": list(self.levi_indices),
            "h": list(self.h.canonical_coords),
            "roots_pairing_one": [list(r.canonical_coords) for r in self.roots_pairing_one],
            "kappa": list(self.kappa.canonical_coords),
            "torus_basis": [list(v) for v in self.torus_basis],
            "pairings": [scalar(p) for p in self.pairings],
            "verdict": self.verdict,
        }
        if self.reference is not None:
            payload["reference"] = {
                "preset": self.reference.preset,
                "h_matches": self.reference.h_matches,
                "roots_match": self.reference.roots_match,
                "kappa_matches": self.reference.kappa_matches,
                "verdict_matches": self.reference.verdict_matches,
                "torus_rank_matches": self.reference.torus_rank_matches,
                "clean": self.reference.clean,
                "member_checks": [
                    {
                        "coords": list(mc.coords),
                        "in_lattice": mc.in_lattice,
                        "pairing": scalar(mc.pairing),
                        "expected_pairing": mc.expected_pairing,
                        "matches": mc.matches,
                        "note": mc.note,
                    }
                    for mc in self.reference.member_checks
                ],
            }
        return payload


def _verdict(pairings: Iterable[Pairing]) -> str:
    ok = all(isinstance(p, int) and p % 2 == 0 for p in pairings)
    return "integral" if ok else "non-integral"


def delta_verdict(system: str, levi_indices: Iterable[int]) -> DeltaReport:
    """Run the full criterion for a Levi given by simple-root labels."""
    rs = build_root_system(system)
    levi = levi_subsystem(rs, tuple(levi_indices))
    h = principal_h(levi)
    roots = roots_pairing_one(rs, h)
    kap = _coordinate_sum(roots, rs.ambient_dim)
    torus = central_torus_lattice(levi)
    pairings = tuple(_form(kap.coords, v) for v in torus.vectors)
    return DeltaReport(
        system=rs.name,
        levi_indices=levi.indices,
        h=h,
        roots_pairing_one=roots,
        kappa=kap,
        torus_basis=torus.vectors,
        pairings=pairings,
        verdict=_verdict(pairings),
    )


def _compare(report: DeltaReport, example: WorkedExample) -> ReferenceComparison:
    torus = LatticeBasis(report.h.dim, report.torus_basis)
    checks = []
    for fixture in example.torus_members:
        member = QuotientVector(fixture.coords)
        checks.append(
            MemberCheck(
                coords=fixture.coords,
                in_lattice=lattice_contains_mod_ones(torus, member),
                pairing=pair(report.kappa, member),
                expected_pairing=fixture.expected_pairing,
                note=fixture.note,
            )
        )
    return ReferenceComparison(
        preset=example.preset,
        h_matches=report.h == QuotientVector(example.h),
        roots_match=set(report.roots_pairing_one)
        == {QuotientVector(t) for t in example.roots_pairing_one},
        kappa_matches=report.kappa == QuotientVector(example.kappa),
        verdict_matches=report.verdict == example.verdict,
        torus_rank_matches=report.torus_rank == example.torus_rank,
        member_checks=tuple(checks),
    )


def preset_report(preset: str) -> DeltaReport:
    """delta_verdict for a named preset, with the reference comparison filled in."""
    if preset not in PRESETS:
        raise InputError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    system, indices = PRESETS[preset]
    report = delta_verdict(system, indices)
    return replace(report, reference=_compare(report, WORKED_EXAMPLES[preset]))
