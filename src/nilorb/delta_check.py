"""Integrality criterion for a distinguished weight against a central torus.

Given a Levi subsystem L of E7 or E8, the pipeline is:

1. h: the sum of the positive coroots of L.  Every root of the system has
   norm 2 (implied by the build's bijection check), so each coroot is its
   root and h is one column sum of L's raw root coordinates.  L's members are
   the positive roots whose support bitmask lies inside L's labels.
2. The positive roots beta with pairing(h, beta-coroot) == 1.  h is paired
   with the simple coroots once, scaled by the ambient dimension d so that
   nothing is divided: alpha's dot product with d * h - sum(h) * ones.
   Each positive coroot is the same integer combination of simple coroots
   as its root is of simple roots, and the growth tree reaches every root
   from a parent by adding one simple root, so each scaled pairing is the
   parent's plus one of those; a root is kept when its sum equals d.
3. kappa: the sum of those roots, again one column sum of raw coordinates.
4. The central torus lattice of L: coroot-lattice vectors orthogonal to every
   simple root of L, of rank rank(system) - rank(L).  These are the
   coroot-lattice vectors in the span of the fundamental coweights omega_j
   for labels j outside L.  The system stores each omega_j's smallest
   multiple in the coroot lattice (the coroot lattice has index 1 in the
   coweight lattice for E8 and 2 for E7, checked when the system is built),
   so the torus generators are combinations of stored vectors, in the simple
   roots' canonical ambient coordinates (last coordinate zero).  One HNF
   makes them a canonical lattice basis.
5. Verdict: "integral" iff kappa pairs to an even integer with every basis
   vector of that lattice; the pairings are one batch, with sum(kappa) taken
   once.  The parity test is basis-independent (an integer unimodular change
   of basis maps even pairing vectors to even pairing vectors in both
   directions), and kappa may be replaced by any representative modulo
   all-ones without changing any pairing.

Two presets carry recorded reference values; their reports embed a
field-by-field comparison, including one recorded torus pairing that is known
to disagree with the exact recomputation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import InputError, IntegrityError, _Frozen, _uncapped
from .exact_linalg import LatticeBasis, lattice_contains
from .reference import WORKED_EXAMPLES, WorkedExample
from .root_system import (
    LeviSubsystem,
    QuotientVector,
    RootSystem,
    Scalar,
    _over,
    _scaled_forms,
    build_root_system,
    levi_subsystem,
    pair,
)

PRESETS: dict[str, tuple[str, tuple[int, ...]]] = {
    name: (example.system, example.levi_indices) for name, example in WORKED_EXAMPLES.items()
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
    return QuotientVector(tuple(map(sum, zip(*[v.coords for v in vectors]))) or (0,) * dim)


def principal_h(levi: LeviSubsystem) -> QuotientVector:
    """Sum of the positive coroots of the Levi subsystem."""
    if not levi.positive_roots:
        raise InputError("levi subsystem has no positive roots; h is undefined")
    return _coordinate_sum(levi.positive_roots, levi.system.ambient_dim)


def roots_pairing_one(rs: RootSystem, h: QuotientVector) -> tuple[QuotientVector, ...]:
    """Positive roots whose coroot pairs to exactly 1 against h, in the
    system's enumeration order.

    h is paired with the simple coroots once, scaled by d =
    ``rs.ambient_dim`` so nothing is divided.  Each positive coroot is the
    same integer combination of simple coroots as its root is of simple
    roots, so along the system's growth tree a root's scaled pairing is its
    parent's plus the one simple root's; the root pairs to 1 iff that is d.
    """
    d = rs.ambient_dim
    if h.dim != d:
        raise InputError(f"dimension mismatch: {h.dim} vs {d}")
    on_simples = _scaled_forms(h.coords, [alpha.coords for alpha in rs.simple_roots])
    # a simple root's parent -1 reads the extra last slot, which stays 0
    pairings = [0] * (len(rs.positive_roots) + 1)
    for child, parent, k in rs.growth:
        pairings[child] = pairings[parent] + on_simples[k]
    return tuple([root for root, p in zip(rs.positive_roots, pairings) if p == d])


def kappa_weight(rs: RootSystem, h: QuotientVector) -> QuotientVector:
    """Sum of the positive roots whose coroot pairs to exactly 1 against h.

    This is the weight kappa of the integrality criterion, as a public
    helper; the tests use it as their oracle for the kappa of each report.
    """
    return _coordinate_sum(roots_pairing_one(rs, h), rs.ambient_dim)


def central_torus_lattice(levi: LeviSubsystem) -> LatticeBasis:
    """Lattice of coroot-lattice vectors centralizing the Levi.

    A coroot-lattice vector x is sum(<x, alpha_j> * omega_j) over the
    fundamental coweights, so it centralizes the Levi iff it lies in the
    span of the omega_j for labels j outside the Levi.  The system stores
    each m_j * omega_j, m_j the order of omega_j modulo the coroot lattice;
    every m_j is 1 or 2, and the omega_j of order 2 all fall in one class.
    The torus is therefore generated by omega_j for each j of order 1, by
    2 * omega_j0 for the first j0 of order 2, and by omega_j + omega_j0 for
    every other j of order 2, all outside the Levi.  The vectors are in the
    simple roots' canonical ambient coordinates (last coordinate zero),
    which matches how quotient vectors canonicalize for display.
    """
    rs = levi.system
    inside = set(levi.indices)
    generators = []
    first_order_two = None
    for j, (m, v) in enumerate(rs.coweights, start=1):
        if j in inside:
            continue
        if m == 2:
            if first_order_two is None:
                first_order_two = v
            else:
                # the build checked that this half-sum is integral
                v = tuple((a + b) // 2 for a, b in zip(v, first_order_two))
        generators.append(v)
    result = LatticeBasis(rs.ambient_dim, tuple(generators))

    expected_rank = rs.rank - levi.rank
    if result.rank != expected_rank:
        raise IntegrityError(
            f"torus lattice rank {result.rank}, expected {expected_rank}"
        )
    return result


class MemberCheck(_Frozen):
    """One reference torus vector re-verified against the computed lattice."""

    __slots__ = ("coords", "in_lattice", "pairing", "expected_pairing", "note")
    _defaults = (None, "")

    @property
    def matches(self) -> bool | None:
        if self.expected_pairing is None:
            return None
        return self.pairing == self.expected_pairing


class ReferenceComparison(_Frozen):
    __slots__ = ("preset", "h_matches", "roots_match", "kappa_matches", "verdict_matches",
                 "torus_rank_matches", "member_checks")

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


class DeltaReport(_Frozen):
    __slots__ = ("system", "levi_indices", "h", "roots_pairing_one", "kappa", "torus_basis",
                 "pairings", "verdict", "reference")
    _defaults = (None,)
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def torus_rank(self) -> int:
        return len(self.torus_basis)

    def to_payload(self) -> dict:
        """JSON-ready dictionary with canonical coordinate representatives."""

        def scalar(x: Scalar):
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
        ref = self.reference
        if ref is not None:
            payload["reference"] = dict(zip(ref._fields, ref._field_values(ref))) | {
                "clean": ref.clean,
                "member_checks": [
                    dict(zip(mc._fields, mc._field_values(mc)))
                    | {"coords": list(mc.coords), "pairing": scalar(mc.pairing),
                       "matches": mc.matches}
                    for mc in ref.member_checks
                ],
            }
        return payload


def _verdict(pairings: Iterable[Scalar]) -> str:
    ok = all([isinstance(p, int) and p % 2 == 0 for p in pairings])
    return "integral" if ok else "non-integral"


def delta_verdict(system: str, levi_indices: Iterable[int]) -> DeltaReport:
    """Run the full criterion for a Levi given by simple-root labels."""
    rs = build_root_system(system)
    levi = levi_subsystem(rs, levi_indices)
    h = principal_h(levi)
    roots = roots_pairing_one(rs, h)
    kap = _coordinate_sum(roots, rs.ambient_dim)
    torus = central_torus_lattice(levi)
    pairings = tuple([_over(n, rs.ambient_dim) for n in _scaled_forms(kap.coords, torus.vectors)])
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
    # a member may slide along the all-ones line, so the lattice takes it in
    d = report.h.dim
    torus = LatticeBasis(d, report.torus_basis + ((1,) * d,))
    checks = []
    for fixture in example.torus_members:
        checks.append(
            MemberCheck(
                coords=fixture.coords,
                in_lattice=lattice_contains(torus, fixture.coords) is not None,
                pairing=pair(report.kappa, QuotientVector(fixture.coords)),
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
    if not isinstance(preset, str) or preset not in PRESETS:  # a list is unhashable
        raise InputError(
            f"unknown preset {_uncapped(repr, preset)}; available: {', '.join(sorted(PRESETS))}"
        )
    r = delta_verdict(*PRESETS[preset])
    # every field but the last, the reference, which delta_verdict leaves unset
    return DeltaReport(*r._field_values(r)[:-1], _compare(r, WORKED_EXAMPLES[preset]))
