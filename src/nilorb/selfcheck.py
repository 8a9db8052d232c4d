"""Built-in acceptance suite: nine numbered criteria, rerun from scratch.

Each criterion recomputes something the package promises (a root count, a
worked integrality verdict, a partition property, a consistency sweep, an
oracle comparison) and checks it against frozen expectations.  Nothing here
trusts cached test results; a criterion that cannot finish is reported as a
failure, never skipped.

The registry is consumed twice: the ``selftest`` CLI subcommand renders it as
a pass/fail table, and the acceptance test module asserts each criterion
individually.  Randomized criteria use fixed seeds so reruns are
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Sequence
from operator import mul

from .delta_check import preset_report
from .errors import InputError, StepInapplicableError, _Frozen, _uncapped
from .exact_linalg import IntMatrix, LatticeBasis, kernel_lattice, lattice_contains
from .orbit_atlas import (
    check_consistency,
    flip_field,
    load_atlas,
    paper_provenanced_fields,
)
from .orbit_partitions import (
    KINDS,
    ClassicalOrbit,
    InverseStep,
    elementary_step,
    inverse_steps,
    is_birationally_rigid,
    is_special,
    is_valid_type,
    partitions_of,
    rigid_special_source,
)
from .root_system import QuotientVector, build_root_system, diagram_arms, pair

__all__ = ["CriterionResult", "CRITERION_IDS", "run_criterion", "run_all"]

_STEP_SEED = 74207281
_LATTICE_SEED = 57885161


class CriterionResult(_Frozen):
    """Outcome of one acceptance criterion, with comparable summaries."""

    __slots__ = ("criterion_id", "name", "passed", "expected", "actual", "notes")
    _defaults = ((),)

    def to_payload(self) -> dict:
        return {
            "id": self.criterion_id,
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected,
            "actual": self.actual,
            "notes": list(self.notes),
        }


def _root_system_criterion(
    system: str,
    expected_positive: int,
    expected_rank: int,
    expected_arms: tuple[int, ...],
    required_simples: tuple[tuple[int, ...], ...] = (),
) -> tuple:
    rs = build_root_system(system)
    n_pos = len(rs.positive_roots)
    n_simple = len(rs.simple_roots)
    bad_norms = sum(1 for r in rs.positive_roots if pair(r, r) != 2)
    arms = diagram_arms(rs.cartan)
    simple_set = set(rs.simple_roots)
    missing = [v for v in required_simples if QuotientVector(v) not in simple_set]

    expected = (
        f"{expected_positive} positive roots; {expected_rank} simple roots; "
        f"diagram arms {expected_arms}; every root of squared length 2"
    )
    if required_simples:
        expected += f"; simples include {list(required_simples)}"
    actual = (
        f"{n_pos} positive roots; {n_simple} simple roots; "
        f"diagram arms {arms}; {bad_norms} roots of wrong length"
    )
    if required_simples:
        actual += f"; missing simples {missing}" if missing else "; required simples present"

    passed = (
        n_pos == expected_positive
        and n_simple == expected_rank
        and bad_norms == 0
        and arms == expected_arms
        and not missing
    )
    return passed, expected, actual


def _criterion_e7_roots(atlas_path: str | None) -> tuple:
    return _root_system_criterion("E7", 63, 7, (3, 2, 1))


def _criterion_e8_roots(atlas_path: str | None) -> tuple:
    # epsilon_7 - epsilon_8 and epsilon_6 + epsilon_7 + epsilon_8 in R^9
    return _root_system_criterion(
        "E8",
        120,
        8,
        (4, 2, 1),
        required_simples=(
            (0, 0, 0, 0, 0, 0, 1, -1, 0),
            (0, 0, 0, 0, 0, 1, 1, 1, 0),
        ),
    )


def _criterion_e7_preset(atlas_path: str | None) -> tuple:
    report = preset_report("E7:A2+A1")
    ref = report.reference
    members = ref.member_checks
    agreeing, flagged = members[:3], members[3]

    sub = {
        "h": ref.h_matches,
        "root-count": len(report.roots_pairing_one) == 12,
        "root-set": ref.roots_match,
        "kappa": ref.kappa_matches,
        "members-in-lattice": all(mc.in_lattice for mc in members),
        "member-pairings": tuple(mc.pairing for mc in agreeing) == (-14, 18, 14)
        and all(mc.matches is True for mc in agreeing),
        "even-pairings": all(isinstance(p, int) and p % 2 == 0 for p in report.pairings),
        "verdict": report.verdict == "integral",
        # the fourth recorded value is wrong on purpose; it must surface as a
        # flagged mismatch with the recomputed value, not silently pass
        "flagged-discrepancy": flagged.expected_pairing == 16
        and flagged.pairing == 18
        and flagged.matches is False
        and bool(flagged.note),
    }
    failing = [k for k, ok in sub.items() if not ok]
    expected = (
        "h=(2,0,-2,0,0,1,-1,0); 12 roots pair 1 with h; "
        "kappa=(5,4,1,4,4,3,-1,8) mod all-ones; recorded members pair -14, 18, 14; "
        "all torus pairings even; verdict integral; "
        "fourth recorded pairing 16 flagged against recomputed 18"
    )
    actual = (
        f"h={report.h.coords}; {len(report.roots_pairing_one)} roots pair 1; "
        f"member pairings {tuple(mc.pairing for mc in members)}; "
        f"torus pairings {report.pairings}; verdict {report.verdict}"
    )
    notes = [f"flagged member {flagged.coords}: {flagged.note}"]
    if failing:
        notes.append(f"failing sub-checks: {', '.join(failing)}")
    return not failing, expected, actual, tuple(notes)


def _criterion_e8_preset(atlas_path: str | None) -> tuple:
    report = preset_report("E8:A4+2A1")
    ref = report.reference
    sub = {
        "h": ref.h_matches,
        "root-count": len(report.roots_pairing_one) == 14,
        "root-set": ref.roots_match,
        "kappa": ref.kappa_matches,
        "members": all(mc.in_lattice and mc.matches is True for mc in ref.member_checks),
        "member-pairings": tuple(mc.pairing for mc in ref.member_checks) == (35, 23),
        "torus-rank": report.torus_rank == 2,
        "verdict": report.verdict == "non-integral",
        "reference-clean": ref.clean,
    }
    failing = [k for k, ok in sub.items() if not ok]
    expected = (
        "h=(4,2,0,-2,-4,1,2,0,0); 14 roots pair 1 with h, matching the recorded "
        "set; kappa=(2,2,1,0,0,0,1,0,-6) mod all-ones; both recorded members in "
        "the rank-2 torus lattice with pairings 35, 23; verdict non-integral"
    )
    actual = (
        f"h={report.h.coords}; {len(report.roots_pairing_one)} roots pair 1; "
        f"member pairings {tuple(mc.pairing for mc in ref.member_checks)}; "
        f"torus rank {report.torus_rank}; verdict {report.verdict}"
    )
    notes = (f"failing sub-checks: {', '.join(failing)}",) if failing else ()
    return not failing, expected, actual, notes


def _criterion_classical_fixtures(atlas_path: str | None) -> tuple:
    small = ClassicalOrbit("D", (2, 2) + (1,) * 10)
    medium = ClassicalOrbit("D", (3, 3, 2, 2, 1, 1))
    gapped = ClassicalOrbit("C", (4, 2))

    facts = {
        "D(2^2 1^10) special": is_special(small),
        "D(2^2 1^10) birationally rigid": is_birationally_rigid(small),
        "D(3^2 2^2 1^2) special": is_special(medium),
        "D(3^2 2^2 1^2) birationally rigid": is_birationally_rigid(medium),
        "C(4,2) not birationally rigid": not is_birationally_rigid(gapped),
    }
    failing = [k for k, ok in facts.items() if not ok]
    expected = (
        "D(2^2 1^10) and D(3^2 2^2 1^2) valid, special and birationally rigid; "
        "C(4,2) valid but not birationally rigid"
    )
    actual = "; ".join(f"{k}: {ok}" for k, ok in facts.items())
    return not failing, expected, actual


def _criterion_rigid_sources(atlas_path: str | None) -> tuple:
    checked = 0
    failures = []
    for total in range(1, 21):
        partitions = tuple(partitions_of(total))  # one enumeration for all three types
        for kind in KINDS:
            for parts in partitions:
                if not is_valid_type(parts, kind):
                    continue
                orbit = ClassicalOrbit(kind, parts)
                if not is_special(orbit):
                    continue
                checked += 1
                source = rigid_special_source(orbit)
                problems = []
                if not is_special(source.orbit):
                    problems.append("source not special")
                if not is_birationally_rigid(source.orbit):
                    problems.append("source not birationally rigid")
                if any(variant != "i" for _, variant in source.script.steps):
                    problems.append("script uses a variant other than i")
                # replay through elementary_step so every intermediate is
                # validated and the forced-variant rule is enforced
                try:
                    final = source.script.replay(source.orbit)
                except Exception as exc:
                    problems.append(f"replay failed: {exc}")
                    final = None
                if final is not None and final.parts != orbit.parts:
                    problems.append(f"replay reached {final.parts}")
                if problems:
                    failures.append(f"{kind}{parts}: {'; '.join(problems)}")
    expected = (
        "every special B/C/D orbit with total at most 20 yields a special, "
        "birationally rigid source whose variant-i script replays to the input"
    )
    actual = f"{checked} special orbits checked; {len(failures)} failures"
    return checked > 0 and not failures, expected, actual, tuple(failures[:5])


def _criterion_step_semantics(atlas_path: str | None) -> tuple:
    failures = []

    stepped, variant = elementary_step(ClassicalOrbit("C", (1, 1)), 1)
    if stepped.parts != (2, 2) or variant != "ii":
        failures.append(f"step((1,1), C, n=1) gave ({stepped.parts}, {variant})")
    if is_valid_type((3, 1), "C"):
        failures.append("(3,1) should not be a valid C partition")
    try:
        elementary_step(ClassicalOrbit("C", (1, 1)), 1, variant="i")
        failures.append("forcing variant i at ((1,1), C, n=1) did not raise")
    except StepInapplicableError:
        pass

    by_total = [tuple(partitions_of(total)) for total in range(1, 13)]
    pool = [
        ClassicalOrbit(kind, parts)
        for kind in KINDS
        for partitions in by_total
        for parts in partitions
        if is_valid_type(parts, kind)
    ]
    rng = random.Random(_STEP_SEED)
    recovered = 0
    attempts = 0
    while recovered < 200 and attempts < 4000:
        attempts += 1
        orbit = rng.choice(pool)
        n = rng.randint(1, 4)
        try:
            result, applied = elementary_step(orbit, n)
        except StepInapplicableError:
            continue
        if InverseStep(orbit, n, applied) in inverse_steps(result):
            recovered += 1
        else:
            failures.append(f"no inverse recovers {orbit!r} at n={n} ({applied})")
    if recovered < 200:
        failures.append(f"only {recovered} round-trips completed")

    expected = (
        "step((1,1), C, n=1) = ((2,2), ii) with the variant-i candidate (3,1) "
        "type-invalid; 200 seeded step/inverse round-trips recover the source"
    )
    actual = (
        f"step gave ({stepped.parts}, {variant}); "
        f"{recovered} round-trips recovered; {len(failures)} failures"
    )
    return not failures, expected, actual, tuple(failures[:5])


def _criterion_atlas(atlas_path: str | None) -> tuple:
    records = load_atlas(atlas_path)

    delta_calls: list[tuple[str, tuple[int, ...]]] = []

    def counting_runner(group: str, indices: tuple[int, ...]) -> str:
        from .orbit_atlas import _cached_delta_verdict

        delta_calls.append((group, indices))
        return _cached_delta_verdict(group, indices)

    results = check_consistency(records, delta_runner=counting_runner)
    failed = [r for r in results if not r.passed]
    e1_size = sum(1 for r in records if r.in_e1)
    wired = set(delta_calls) == {("E7", (1, 2, 6)), ("E8", (1, 2, 3, 4, 7, 8))}

    flips = 0
    undetected = []
    for idx, record in enumerate(records):
        for fieldname in paper_provenanced_fields(record):
            mutated = list(records)
            mutated[idx] = flip_field(record, fieldname)
            flips += 1
            if all(c.passed for c in check_consistency(mutated)):
                undetected.append(f"{record.group}:{record.label}.{fieldname}")

    problems = []
    if failed:
        problems.append("checks failed: " + ", ".join(r.check_id for r in failed))
    if e1_size != 6:
        problems.append(f"e1 cardinality {e1_size}")
    if not wired:
        problems.append(f"delta cross-check exercised {sorted(set(delta_calls))}")
    if flips == 0:
        problems.append("no primary-source flags to flip")
    if undetected:
        problems.append(f"{len(undetected)} undetected flips")

    expected = (
        "all seven checks pass; e1 has 6 members; the delta cross-check runs "
        "both stored Levi descriptors; every flipped primary-source flag "
        "trips at least one check"
    )
    actual = (
        f"{len(results) - len(failed)}/{len(results)} checks pass; e1 size {e1_size}; "
        f"delta calls {sorted(set(delta_calls))}; "
        f"{flips} flag flips, {len(undetected)} undetected"
    )
    notes = tuple(undetected[:5]) + tuple(f"{r.check_id}: {r.details}" for r in failed[:3])
    return not problems, expected, actual, notes


def _combinations(basis: LatticeBasis, coeffs: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """For each coefficient row c, the lattice vector sum(c_k * v_k) over the
    basis vectors v_k, summed in plain integers so that the oracle runs none
    of the layer it checks."""
    columns = [[v[j] for v in basis.vectors] for j in range(basis.ambient_dim)]
    return [tuple(sum(map(mul, c, column)) for column in columns) for c in coeffs]


def _box_search(basis: LatticeBasis, radius: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    # brute force: every coefficient tuple with entries in [-radius, radius],
    # keyed by the lattice vector it gives (a basis is independent, so each
    # vector has one tuple)
    box = list(itertools.product(range(-radius, radius + 1), repeat=basis.rank))
    return dict(zip(_combinations(basis, box), box))


def _criterion_lattice_oracle(atlas_path: str | None) -> tuple:
    rng = random.Random(_LATTICE_SEED)
    radius = 4
    kernel_vectors = 0
    probes = 0
    failures = []
    for index in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        basis = kernel_lattice(IntMatrix.from_rows(rows))
        if basis.ambient_dim != 6:
            dim = basis.ambient_dim
            failures.append(f"matrix {index}: kernel basis in dimension {dim}, expected 6")
        for v in basis.vectors:
            kernel_vectors += 1
            image = [sum(map(mul, row, v)) for row in rows]
            if any(image):
                failures.append(f"matrix {index}: kernel vector {v} maps to {image}")

        in_box = _box_search(basis, radius)
        candidates = []
        for _ in range(3):
            coeffs = [rng.randint(-radius, radius) for _ in range(basis.rank)]
            (member,) = _combinations(basis, [coeffs])
            candidates.append(member)
            jolt = rng.randrange(basis.ambient_dim)
            candidates.append(
                tuple(x + (1 if j == jolt else 0) for j, x in enumerate(member))
            )
        for cand in candidates:
            probes += 1
            claimed = lattice_contains(basis, cand)
            brute = in_box.get(cand)
            if brute is not None and claimed != brute:
                failures.append(f"matrix {index}: {cand} found by search, claim {claimed}")
            if brute is None and claimed is not None and all(
                abs(c) <= radius for c in claimed
            ):
                failures.append(f"matrix {index}: {cand} claimed in-box, search missed it")
            if claimed is not None and (
                len(claimed) != basis.rank or _combinations(basis, [claimed]) != [cand]
            ):
                failures.append(f"matrix {index}: certificate fails for {cand}")

    expected = (
        "100 random 4x6 matrices with entries in [-9,9]: every kernel basis "
        "vector maps to zero; membership verdicts agree with brute-force "
        "search over the coefficient box [-4,4]"
    )
    actual = (
        f"100 matrices; {kernel_vectors} kernel vectors verified; "
        f"{probes} membership probes; {len(failures)} disagreements"
    )
    return not failures, expected, actual, tuple(failures[:5])


# criteria in report order: id -> (name, runner).  Every runner takes the
# atlas path, which all but the atlas criterion ignore, and returns (passed,
# expected, actual[, notes]); run_criterion adds the id and the name.
_CRITERIA: dict[str, tuple[str, Callable[[str | None], tuple]]] = {
    "1": ("e7-root-system", _criterion_e7_roots),
    "2": ("e8-root-system", _criterion_e8_roots),
    "3": ("e7-preset-replay", _criterion_e7_preset),
    "4": ("e8-preset-replay", _criterion_e8_preset),
    "5": ("classical-fixtures", _criterion_classical_fixtures),
    "6": ("rigid-source-exhaustive", _criterion_rigid_sources),
    "7": ("step-semantics", _criterion_step_semantics),
    "8": ("atlas-consistency", _criterion_atlas),
    "9": ("lattice-oracle", _criterion_lattice_oracle),
}

CRITERION_IDS = tuple(_CRITERIA)


def _lookup(criterion_id: str) -> tuple[str, Callable[[str | None], tuple]]:
    try:
        return _CRITERIA[criterion_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise InputError(
            f"unknown criterion {_uncapped(repr, criterion_id)}; "
            f"expected one of {', '.join(map(repr, CRITERION_IDS))}"
        ) from None


def run_criterion(criterion_id: str, atlas_path: str | None = None) -> CriterionResult:
    """Run one criterion.  A crash inside a criterion becomes a failed result
    carrying the exception text, so the suite always reports all nine."""
    name, runner = _lookup(criterion_id)
    try:
        return CriterionResult(criterion_id, name, *runner(atlas_path))
    except Exception as exc:
        return CriterionResult(
            criterion_id=criterion_id,
            name=name,
            passed=False,
            expected="criterion completes and passes",
            actual=f"raised {type(exc).__name__}: {exc}",
        )


def run_all(atlas_path: str | None = None) -> tuple[CriterionResult, ...]:
    return tuple(run_criterion(cid, atlas_path) for cid in CRITERION_IDS)
