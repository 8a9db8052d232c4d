"""Partition calculus tests.

Small-rank orbit tables (Sp4, SO5, SO7) are asserted by hand first; the step
relation is then pinned by worked examples and closed under exhaustive
roundtrips up to moderate sizes.
"""

import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb import orbit_partitions
from nilorb.errors import InputError, IntegrityError, StepInapplicableError
from nilorb.orbit_partitions import (
    KINDS,
    BirationalSource,
    ClassicalOrbit,
    InverseStep,
    StepScript,
    birational_sources,
    elementary_step,
    has_codim4_boundary,
    inverse_steps,
    is_birationally_rigid,
    is_special,
    is_valid_type,
    partitions_of,
    rigid_special_source,
    transpose,
)


def orbit(kind, *parts):
    return ClassicalOrbit(kind, tuple(parts))


def valid_orbits(kind, total):
    return [
        ClassicalOrbit(kind, p) for p in partitions_of(total) if is_valid_type(p, kind)
    ]


# --- validity and transpose -----------------------------------------------------

def test_validity_small_cases():
    assert is_valid_type((4,), "C")
    assert is_valid_type((2, 2), "C")
    assert not is_valid_type((3, 1), "C")
    assert is_valid_type((3, 1), "A")
    assert is_valid_type((5,), "B")
    assert not is_valid_type((4, 1), "B")
    assert is_valid_type((2, 2, 1), "B")
    assert is_valid_type((3, 3), "D")
    assert not is_valid_type((4, 2), "D")
    assert is_valid_type((), "C") and is_valid_type((), "D")
    assert not is_valid_type((), "B")  # zero is even


def test_validity_rejects_malformed_input():
    with pytest.raises(InputError):
        is_valid_type((1, 2), "C")
    with pytest.raises(InputError):
        is_valid_type((0,), "C")
    with pytest.raises(InputError):
        is_valid_type((2, 2), "E")


def test_transpose_cases_and_involution():
    assert transpose((3, 2, 2)) == (3, 3, 1)
    assert transpose((5, 3, 1)) == (3, 2, 2, 1, 1)
    assert transpose(()) == ()
    for total in range(0, 13):
        for p in partitions_of(total):
            assert sum(transpose(p)) == total
            assert transpose(transpose(p)) == p


def test_orbit_validation():
    with pytest.raises(InputError):
        ClassicalOrbit("C", (3, 1))
    with pytest.raises(InputError):
        ClassicalOrbit("A", (2, 1))
    assert orbit("D", 3, 3).size == 6
    assert orbit("D", 2, 2).is_very_even
    assert not orbit("D", 3, 3).is_very_even
    assert not orbit("C", 2, 2).is_very_even


def test_orbit_messages_and_repr_print_parts_past_the_int_print_cap():
    # a step can leave a part one digit past the cap on printing ints; the
    # orbit's refusals, its repr and the source search's refusal are built
    # whole all the same, and the cap is left as it was found
    before = sys.get_int_max_str_digits()
    cap = before or 4300
    big, text = 10**cap + 1, "1" + "0" * (cap - 1) + "1"
    with pytest.raises(InputError) as exc:
        ClassicalOrbit("C", (3, big))
    assert str(exc.value) == f"partition must be nonincreasing, got (3, {text})"
    with pytest.raises(InputError) as exc:
        ClassicalOrbit("C", (-big,))
    assert str(exc.value) == f"partition parts must be positive, got -{text}"
    assert repr(orbit("C", big, big)) == f"ClassicalOrbit('C', ({text}, {text}))"
    # gaps (1, 0, big): g_1 is odd, so the orbit is not special in type C
    with pytest.raises(InputError) as exc:
        rigid_special_source(orbit("C", big + 1, big, big))
    above = text[:-1] + "2"
    assert str(exc.value) == f"ClassicalOrbit('C', ({above}, {text}, {text})) is not special"
    assert sys.get_int_max_str_digits() == before


def test_construction_checks_the_parts_once(monkeypatch):
    calls = []
    check = orbit_partitions._check_partition

    def counting(parts):
        calls.append(parts)
        return check(parts)

    monkeypatch.setattr(orbit_partitions, "_check_partition", counting)
    for kind, parts in (("C", (4, 2)), ("B", (5, 3, 1)), ("D", (3, 3, 2, 2, 1, 1)), ("C", ())):
        calls.clear()
        assert ClassicalOrbit(kind, list(parts)).parts == parts
        assert len(calls) == 1, (kind, parts)
    # the kind is checked first, then the parts, then their parity
    for kind, parts, message in (
        ("A", (1, 2), "orbit kind must be one of"),
        ("C", (1, 2), r"partition must be nonincreasing, got \(1, 2\)"),
        ("C", (2, True), "partition parts must be integers, got True"),
        ("C", (3, 0), "partition parts must be positive, got 0"),
        ("C", (3, 1), r"\(3, 1\) is not a valid type-C partition"),
    ):
        with pytest.raises(InputError, match=message):
            ClassicalOrbit(kind, parts)


# --- specialness -----------------------------------------------------------------

def test_sp4_special_orbits():
    by_parts = {o.parts: is_special(o) for o in valid_orbits("C", 4)}
    assert by_parts == {
        (4,): True,
        (2, 2): True,
        (2, 1, 1): False,
        (1, 1, 1, 1): True,
    }


def test_so5_special_orbits():
    by_parts = {o.parts: is_special(o) for o in valid_orbits("B", 5)}
    assert by_parts == {
        (5,): True,
        (3, 1, 1): True,
        (2, 2, 1): False,
        (1, 1, 1, 1, 1): True,
    }


def test_so7_minimal_orbit_is_not_special():
    assert not is_special(orbit("B", 2, 2, 1, 1, 1))
    assert is_special(orbit("B", 3, 2, 2))
    assert is_special(orbit("B", 7))


# parts of the transpose that need an even multiplicity in each type
_SPECIAL_RESIDUE = {"B": 0, "C": 1, "D": 1}


def transpose_special(o: ClassicalOrbit) -> bool:
    """Specialness from the transpose itself: the multiplicity of every
    transpose part of the type's residue is even."""
    counts = Counter(transpose(o.parts))
    return all(c % 2 == 0 for k, c in counts.items() if k % 2 == _SPECIAL_RESIDUE[o.kind])


def test_gap_parity_specialness_matches_the_transpose_oracle_up_to_total_26():
    checked = 0
    for kind in ("B", "C", "D"):
        for total in range(1 if kind == "B" else 0, 27, 2):
            for o in valid_orbits(kind, total):
                assert is_special(o) == transpose_special(o), o
                checked += 1
    assert checked == 5006


def test_specialness_of_a_huge_part_needs_no_transpose():
    # the transpose of (10**9 + 1,) has a billion parts
    assert is_special(orbit("B", 10**9 + 1))
    assert is_special(orbit("C", 10**9, 10**9))
    assert not is_special(orbit("C", 10**9, 1, 1))


# --- elementary steps --------------------------------------------------------------

def test_variant_i_with_padding():
    grown, variant = elementary_step(orbit("C"), 1)
    assert (grown.parts, variant) == ((2,), "i")
    grown, variant = elementary_step(orbit("C", 2), 2)
    assert (grown.parts, variant) == ((4, 2), "i")


def test_variant_ii_fires_only_when_variant_i_fails():
    grown, variant = elementary_step(orbit("C", 1, 1), 1)
    assert (grown.parts, variant) == ((2, 2), "ii")
    grown, variant = elementary_step(orbit("B", 2, 2, 1), 1)
    assert (grown.parts, variant) == ((3, 3, 1), "ii")
    grown, variant = elementary_step(orbit("B", 1), 2)
    assert (grown.parts, variant) == ((3, 1, 1), "ii")


def test_forced_variant_legality():
    with pytest.raises(StepInapplicableError):
        elementary_step(orbit("C", 2), 1, variant="ii")  # variant i applies
    with pytest.raises(StepInapplicableError):
        elementary_step(orbit("C", 1, 1), 1, variant="i")  # lands outside type C
    grown, variant = elementary_step(orbit("C", 1, 1), 1, variant="ii")
    assert (grown.parts, variant) == ((2, 2), "ii")


def test_step_argument_validation():
    with pytest.raises(InputError):
        elementary_step(orbit("C", 2), 0)
    with pytest.raises(InputError):
        elementary_step(orbit("C", 2), 1, variant="x")


def test_step_index_past_sys_maxsize_is_refused_before_any_list():
    # no list can have more than sys.maxsize entries, so such an n is refused
    # up front (no OverflowError from [2] * n) and its digits are not echoed
    for n in (sys.maxsize + 1, 10**30, -(10**30), 10**5000):
        with pytest.raises(InputError, match="no larger than sys.maxsize") as exc:
            elementary_step(orbit("C", 1, 1), n)
        assert len(str(exc.value)) < 200


def test_a_step_past_the_int_print_cap_keeps_its_answer_and_messages():
    # big has the most digits str() prints by default; a step adds one more,
    # and both its result and its refusals are still built whole
    before = sys.get_int_max_str_digits()
    cap = before or 4300
    big = 10**cap - 1
    assert elementary_step(orbit("C", big, big), 1) == (orbit("C", big + 1, big + 1), "ii")
    with pytest.raises(StepInapplicableError) as exc:
        elementary_step(orbit("C", big, big), 1, variant="i")
    assert str(exc.value) == f"variant i at n=1 leaves type C: (1{'0' * (cap - 1)}1, {'9' * cap})"
    with pytest.raises(InputError, match="is not a valid type-C partition"):
        orbit("C", big + 2, big)
    assert sys.get_int_max_str_digits() == before


def test_a_long_step_peaks_at_one_list_and_its_result():
    # the step is applied to one list in place and checked without a copy:
    # no increments list, padding list, slice or second copy of n entries
    start = orbit("C", 1, 1)
    tracemalloc.start()
    try:
        grown, variant = elementary_step(start, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert variant == "i" and grown.parts == (3, 3) + (2,) * 199_998
    assert peak <= 2.5 * sys.getsizeof(grown.parts)


def test_step_grows_size_by_2n():
    for kind, parts in (("C", (2, 2)), ("B", (3, 1, 1)), ("D", (3, 3))):
        o = ClassicalOrbit(kind, parts)
        for n in range(1, 5):
            try:
                grown, _ = elementary_step(o, n)
            except StepInapplicableError:
                continue
            assert grown.size == o.size + 2 * n


def test_a_step_checks_each_candidate_once(monkeypatch):
    calls = []
    check = orbit_partitions._check_partition

    def counting(parts):
        calls.append(parts)
        return check(parts)

    monkeypatch.setattr(orbit_partitions, "_check_partition", counting)
    # variant i lands at once; variant ii first checks the refused variant-i
    # candidate; a forced variant ii checks variant i's to refuse the force
    for o, n, variant, candidates in (
        (orbit("C", 2), 2, None, [(4, 2)]),
        (orbit("C", 1, 1), 1, None, [(3, 1), (2, 2)]),
        (orbit("B", 2, 2, 1), 1, "ii", [(4, 2, 1), (3, 3, 1)]),
        (orbit("C", 1, 1), 1, "i", [(3, 1)]),
        (orbit("C", 2), 1, "ii", [(4,)]),
    ):
        calls.clear()
        try:
            elementary_step(o, n, variant)
        except StepInapplicableError:
            pass
        assert calls == candidates, (o, n, variant)


# --- inverse steps -----------------------------------------------------------------

def test_inverse_steps_of_c_44():
    inv = inverse_steps(orbit("C", 4, 4))
    assert {(s.source.parts, s.n, s.variant) for s in inv} == {
        ((3, 3), 1, "ii"),
        ((2, 2), 2, "i"),
    }


def test_inverse_steps_of_b_311():
    inv = inverse_steps(orbit("B", 3, 1, 1))
    assert {(s.source.parts, s.n, s.variant) for s in inv} == {
        ((1, 1, 1), 1, "i"),
        ((1,), 2, "ii"),
    }


def test_inverse_steps_roundtrip_exhaustive():
    for kind in ("B", "C", "D"):
        totals = range(1 if kind == "B" else 2, 11, 2)
        for total in totals:
            for o in valid_orbits(kind, total):
                for step in inverse_steps(o):
                    grown, variant = elementary_step(step.source, step.n)
                    assert grown == o
                    assert variant == step.variant


def test_forward_steps_are_recovered_by_inverse_exhaustive():
    for kind in ("B", "C", "D"):
        totals = range(1 if kind == "B" else 2, 9, 2)
        for total in totals:
            for o in valid_orbits(kind, total):
                for n in range(1, len(o.parts) + 3):
                    try:
                        grown, variant = elementary_step(o, n)
                    except StepInapplicableError:
                        continue
                    entries = {
                        (s.source.parts, s.n, s.variant)
                        for s in inverse_steps(grown)
                    }
                    assert (o.parts, n, variant) in entries


def _strip(parts):
    out = list(parts)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _variant_i_parts(parts, n):
    grown = list(parts) + [0] * max(0, n - len(parts))
    for k in range(n):
        grown[k] += 2
    return _strip(grown)


def reference_inverse_steps(orbit: ClassicalOrbit) -> tuple[InverseStep, ...]:
    """Inverse steps built by hand: the variant (i) and (ii) candidates are
    written out, and the step rule is restated as their legality tests."""
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


def test_inverse_steps_match_the_hand_built_oracle_up_to_total_24():
    checked = 0
    for kind in ("B", "C", "D"):
        for total in range(1 if kind == "B" else 0, 25, 2):
            for o in valid_orbits(kind, total):
                assert inverse_steps(o) == reference_inverse_steps(o), o
                checked += 1
    assert checked == 3357


# --- rigidity and boundary ------------------------------------------------------------

def test_rigidity_cases():
    assert is_birationally_rigid(orbit("C"))
    assert is_birationally_rigid(orbit("C", 1, 1))
    assert not is_birationally_rigid(orbit("C", 2, 2))
    assert is_birationally_rigid(orbit("C", 2, 1, 1))
    assert not is_birationally_rigid(orbit("B", 3, 2, 2))
    assert is_birationally_rigid(orbit("B", 2, 2, 1, 1, 1))


def test_boundary_predicate_agrees_on_partitions():
    for kind in ("B", "C", "D"):
        for total in range(1 if kind == "B" else 2, 11, 2):
            for o in valid_orbits(kind, total):
                assert has_codim4_boundary(o) == is_birationally_rigid(o)


# --- birational sources -----------------------------------------------------------------

def test_sources_of_c_44():
    sources = birational_sources(orbit("C", 4, 4))
    assert [s.orbit.parts for s in sources] == [()]
    assert sources[0].script.steps == ((2, "i"), (2, "i"))
    assert sources[0].script.replay(sources[0].orbit) == orbit("C", 4, 4)


def test_sources_of_b_311():
    sources = birational_sources(orbit("B", 3, 1, 1))
    assert [s.orbit.parts for s in sources] == [(1, 1, 1)]
    assert sources[0].script.replay(orbit("B", 1, 1, 1)) == orbit("B", 3, 1, 1)


@pytest.fixture
def cold_sources():
    """The source cache, empty at the start and emptied again at the end, so
    that no entry built under a test's patches outlives the test."""
    orbit_partitions._source.cache_clear()
    yield orbit_partitions._source
    orbit_partitions._source.cache_clear()


def test_source_outside_the_type_is_an_integrity_fault(monkeypatch, cold_sources):
    # a source the type rejects is the calculus's fault, not bad input
    target = orbit("C", 4, 4)
    # a cached ("C", ()) source would skip the patched check: warm the cache
    # and see it hit, then empty it before the patch (the fixture empties it
    # again afterwards)
    birational_sources(target)
    birational_sources(target)
    assert cold_sources.cache_info().hits == 1
    cold_sources.cache_clear()
    monkeypatch.setattr(orbit_partitions, "is_valid_type", lambda parts, kind: parts != ())
    with pytest.raises(IntegrityError):
        birational_sources(target)


def test_a_rejected_source_raises_on_every_call(monkeypatch, cold_sources):
    # lru_cache stores no exceptions, so a second call checks again
    monkeypatch.setattr(orbit_partitions, "is_valid_type", lambda parts, kind: parts != ())
    for _ in range(2):
        with pytest.raises(IntegrityError, match=r"source of ClassicalOrbit\('C', \(4, 4\)\)"):
            rigid_special_source(orbit("C", 4, 4))
    assert cold_sources.cache_info().currsize == 0


def test_a_source_that_is_not_special_is_an_integrity_fault(monkeypatch, cold_sources):
    # the source's specialness is read from the cache, which stores the
    # patched answer; the fixture drops that entry afterwards
    monkeypatch.setattr(orbit_partitions, "is_special", lambda o: o.parts != ())
    for _ in range(2):
        with pytest.raises(IntegrityError, match=r"\('C', \(4, 4\)\) is not special"):
            rigid_special_source(orbit("C", 4, 4))
    assert cold_sources.cache_info().misses == 1


def test_each_distinct_source_is_checked_once(monkeypatch, cold_sources):
    specials = [
        o
        for kind in KINDS
        for total in range(13)
        for o in valid_orbits(kind, total)
        if is_special(o)
    ]
    orbits = specials + specials[::-1]
    distinct = {(o.kind, gap_parity_reduction(o.parts)) for o in orbits}
    assert len(distinct) < len(specials)  # sources repeat even in one pass
    calls = []
    check = orbit_partitions._check_partition

    def counting(parts):
        calls.append(parts)
        return check(parts)

    monkeypatch.setattr(orbit_partitions, "_check_partition", counting)
    results = [rigid_special_source(o) for o in orbits]
    assert len(calls) == len(distinct)
    assert cold_sources.cache_info().misses == len(distinct)
    # equal sources are one shared object
    assert len({id(r.orbit) for r in results}) == len(distinct)


def test_a_script_past_sys_maxsize_is_refused_before_any_list():
    # no list holds more than sys.maxsize steps, so such a script is refused
    # up front (no OverflowError from [step] * count) and the count's digits
    # are not echoed.  The second orbit's two gaps each ask for 2**62 steps:
    # neither alone is past sys.maxsize, their sum is.
    for o in (orbit("C", 10**20), orbit("C", 2**64, 2**63), orbit("B", 10**5000 + 1)):
        for search in (birational_sources, rigid_special_source):
            with pytest.raises(InputError, match="at most sys.maxsize") as exc:
                search(o)
            assert str(exc.value).endswith("bits") and len(str(exc.value)) < 200


def test_a_source_search_reads_the_gaps_once_and_looks_the_source_up_once(monkeypatch):
    # a cold lookup builds the source, whose own specialness test reads its
    # gaps: warm the cache first, so the counts below are the search's own
    targets = [orbit("C", 4, 4), orbit("B", 5, 3, 1), orbit("D", 3, 3, 2, 2, 1, 1), orbit("C", 2400)]
    for o in targets:
        rigid_special_source(o)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_gaps", "_source"):
        monkeypatch.setattr(orbit_partitions, name, counted(name, getattr(orbit_partitions, name)))
    for o in targets:
        for search in (rigid_special_source, birational_sources):
            counts.clear()
            search(o)
            assert counts == Counter({"_gaps": 1, "_source": 1}), (search.__name__, o)


def test_rigid_orbit_is_its_own_source():
    sources = birational_sources(orbit("B", 2, 2, 1))
    assert [s.orbit.parts for s in sources] == [(2, 2, 1)]
    assert sources[0].script.steps == ()


def test_sources_are_rigid_sorted_and_replayable():
    for kind in ("B", "C", "D"):
        for total in range(1 if kind == "B" else 2, 13, 2):
            for o in valid_orbits(kind, total):
                sources = birational_sources(o)
                parts_list = [s.orbit.parts for s in sources]
                assert parts_list == sorted(parts_list)
                for s in sources:
                    assert is_birationally_rigid(s.orbit)
                    assert s.script.replay(s.orbit) == o


# --- rigid special source ------------------------------------------------------------------

def test_rigid_special_source_of_b_531():
    result = rigid_special_source(orbit("B", 5, 3, 1))
    assert result.orbit.parts == (1, 1, 1)
    assert result.script.steps == ((2, "i"), (1, "i"))
    assert result.script.replay(result.orbit) == orbit("B", 5, 3, 1)


def test_rigid_special_source_rejects_non_special():
    with pytest.raises(InputError):
        rigid_special_source(orbit("C", 2, 1, 1))


def test_rigid_special_source_exists_for_all_small_special_orbits():
    for kind in ("B", "C", "D"):
        for total in range(1 if kind == "B" else 2, 13, 2):
            for o in valid_orbits(kind, total):
                if not is_special(o):
                    continue
                result = rigid_special_source(o)
                assert is_special(result.orbit)
                assert is_birationally_rigid(result.orbit)
                assert result.script.replay(result.orbit) == o


# --- the walk against the depth-first oracle ------------------------------------------

def dfs_sources(orbit: ClassicalOrbit) -> tuple[BirationalSource, ...]:
    """Birationally rigid orbits reaching ``orbit`` by variant-(i) steps.

    Depth-first over inverse variant-(i) steps with n ascending; the first
    script found per source is kept.  The orbit itself appears (with an empty
    script) when it is already birationally rigid.  Results sort by the
    source partition.
    """
    found: dict[tuple[int, ...], StepScript] = {}
    seen: set[tuple[int, ...]] = set()

    def visit(current: ClassicalOrbit, trail: tuple[tuple[int, str], ...]) -> None:
        if current.parts in seen:
            return
        seen.add(current.parts)
        if is_birationally_rigid(current) and current.parts not in found:
            found[current.parts] = StepScript(trail)
        for step in inverse_steps(current):
            if step.variant != "i":
                continue
            visit(step.source, ((step.n, "i"),) + trail)

    visit(orbit, ())
    return tuple(
        BirationalSource(ClassicalOrbit(orbit.kind, parts), script)
        for parts, script in sorted(found.items())
    )


def gap_parity_reduction(parts):
    """The partition whose gaps p_k - p_{k+1} (trailing zero counted) are
    those of ``parts`` taken mod 2."""
    gaps = [p - q for p, q in zip(parts, parts[1:] + (0,))]
    reduced = [sum(g % 2 for g in gaps[k:]) for k in range(len(gaps))]
    return tuple(p for p in reduced if p)


def test_walk_matches_the_dfs_oracle_up_to_total_26():
    # the zero orbit of types C and D counts too
    checked = 0
    for kind in ("B", "C", "D"):
        for total in range(1 if kind == "B" else 0, 27, 2):
            for o in valid_orbits(kind, total):
                (source,) = birational_sources(o)
                assert (source,) == dfs_sources(o), o
                assert source.orbit.parts == gap_parity_reduction(o.parts), o
                # the descent keeps specialness, so rigid_special_source's
                # IntegrityError on a source that is not special is a guard
                assert is_special(source.orbit) == is_special(o), o
                checked += 1
    assert checked == 5006


def test_cold_and_warm_sources_match_fresh_builds_and_the_dfs_oracle(cold_sources):
    specials = [
        o
        for kind in KINDS
        for total in range(1 if kind == "B" else 0, 21, 2)
        for o in valid_orbits(kind, total)
        if is_special(o)
    ]
    cold = [rigid_special_source(o) for o in specials]
    assert cold_sources.cache_info().hits > 0  # sources repeat within one pass
    warm = [rigid_special_source(o) for o in specials]
    for o, first, second in zip(specials, cold, warm):
        fresh = ClassicalOrbit(o.kind, gap_parity_reduction(o.parts))
        assert first == second and second.orbit is first.orbit, o
        assert first.orbit == fresh and repr(first.orbit) == repr(fresh), o
        assert hash(first.orbit) == hash(fresh), o
        assert is_special(fresh), o
        assert (first,) == dfs_sources(o), o
    assert len(specials) == 987  # criterion 6's 985 and the zero orbits of C and D


def test_long_chain_c_2400():
    target = orbit("C", 2400)
    result = rigid_special_source(target)
    assert result.orbit.parts == ()
    assert result.script.steps == ((1, "i"),) * 1200
    assert type(result.script.steps) is tuple
    assert len({id(s) for s in result.script.steps}) == 1
    assert result.script.replay(result.orbit) == target


def test_b_staircase_of_total_361():
    staircase = orbit("B", *range(37, 0, -2))
    assert staircase.size == 361
    result = rigid_special_source(staircase)
    assert result.orbit.parts == (1,) * 19
    assert result.script.replay(result.orbit) == staircase


# parts whose parity needs an even multiplicity in each type
_PAIRED_RESIDUE = {"B": 0, "C": 1, "D": 0}


@st.composite
def large_orbits(draw):
    """Valid B/C/D orbits of up to 41 parts, valid by construction: a part of
    the paired parity is drawn twice, and a part 1 fixes the total's parity
    for B and D."""
    kind = draw(st.sampled_from(KINDS))
    parts = []
    for value in draw(st.lists(st.integers(1, 60), max_size=20)):
        parts += [value] * (2 if value % 2 == _PAIRED_RESIDUE[kind] else 1)
    if sum(parts) % 2 != (1 if kind == "B" else 0):
        parts.append(1)  # 1 is never a paired part in B or D; C totals are even
    return ClassicalOrbit(kind, tuple(sorted(parts, reverse=True)))


def gaps_of(parts, length):
    padded = tuple(parts) + (0,) * (length - len(parts))
    return [p - q for p, q in zip(padded, padded[1:] + (0,))]


@settings(max_examples=200, deadline=None)
@given(large_orbits())
def test_gap_formula_on_large_orbits(o):
    gaps = gaps_of(o.parts, len(o.parts))
    (source,) = birational_sources(o)
    assert gaps_of(source.orbit.parts, len(o.parts)) == [g % 2 for g in gaps]
    steps = source.script.steps
    assert len(steps) == sum(g // 2 for g in gaps)
    assert all(a[0] >= b[0] for a, b in zip(steps, steps[1:]))
    assert len({id(s) for s in steps}) == len(set(steps))
    assert source.script.replay(source.orbit) == o


# --- partitions_of ---------------------------------------------------------------------------

def test_partition_counts():
    assert sum(1 for _ in partitions_of(6)) == 11
    assert sum(1 for _ in partitions_of(10)) == 42
    assert list(partitions_of(0)) == [()]
    with pytest.raises(InputError):
        list(partitions_of(-1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 14))
def test_partitions_are_valid_and_distinct(total):
    seen = set()
    for p in partitions_of(total):
        assert sum(p) == total
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
        assert p not in seen
        seen.add(p)
