"""The atlas checks, conformance and record parser against their earlier forms.

The oracle functions below are the per-check implementation that
``orbit_atlas`` had before the expectation table and the one-pass checks:
conformance walks the embedded sets flag by flag, each of C1-C7 makes its own
pass through ``_keys_where``, and the parser validates field by field.  They
are kept verbatim (with ``oracle_`` names) so that the fast code must give
the same results, the same messages and the same message order.
"""

import json
import re
import sys
import threading
from pathlib import Path
from typing import Iterable, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilorb import orbit_atlas
from nilorb.errors import AtlasLoadError
from nilorb.orbit_atlas import (
    BIRIGID_FALSE_EXPECTED,
    BIRIGID_TRUE_EXPECTED,
    CODIM4_BOUNDARY_MEMBERS,
    E1_MEMBERS,
    E2_MEMBERS,
    E3_MEMBERS,
    EXTERNAL_SOURCE_PREFIX,
    FLAG_FIELDS,
    GROUPS,
    NULLABLE_FLAGS,
    PRIMARY_SOURCE_PREFIX,
    RIGID_FALSE_EXPECTED,
    RIGID_TRUE_EXPECTED,
    SMOOTH_LOCUS_FAILURES,
    SPECIAL_TRUE_EXPECTED,
    _RECORD_KEYS,
    CheckResult,
    ExceptionalOrbitRecord,
    _cached_delta_verdict,
    _parse_record,
    check_consistency,
    default_atlas_text,
    flip_field,
    load_atlas,
    paper_provenanced_fields,
)

Key = tuple[str, str]

# --- oracle: the per-flag conformance walk ------------------------------------

ORACLE_PAPER_EXPECTATIONS: dict[str, tuple[frozenset, frozenset, bool]] = {
    "in_e1": (E1_MEMBERS, frozenset(), True),
    "in_e2": (E2_MEMBERS, frozenset(), True),
    "in_e3": (E3_MEMBERS, frozenset(), True),
    "codim4_boundary": (CODIM4_BOUNDARY_MEMBERS, frozenset(), True),
    "fails_smooth_locus_codim4": (SMOOTH_LOCUS_FAILURES, frozenset(), True),
    "is_special": (SPECIAL_TRUE_EXPECTED, frozenset(), False),
    "is_rigid": (RIGID_TRUE_EXPECTED, RIGID_FALSE_EXPECTED, False),
    "is_birationally_rigid": (BIRIGID_TRUE_EXPECTED, BIRIGID_FALSE_EXPECTED, False),
}


def _fmt(key: Key) -> str:
    return f"{key[0]}:{key[1]}"


def oracle_conformance_issues(records: Iterable[ExceptionalOrbitRecord]) -> list[str]:
    """Primary-source flags that disagree with the embedded expectations."""
    issues = []
    for record in records:
        for field in paper_provenanced_fields(record):
            value = record.flag(field)
            true_set, false_set, exhaustive = ORACLE_PAPER_EXPECTATIONS[field]
            if record.key in true_set:
                expected: Optional[bool] = True
            elif exhaustive:
                expected = False
            elif record.key in false_set:
                expected = False
            else:
                issues.append(
                    f"{_fmt(record.key)}: {field} cites the primary source but no "
                    f"expectation is embedded for it"
                )
                continue
            if value != expected:
                issues.append(
                    f"{_fmt(record.key)}: {field}={value} contradicts embedded "
                    f"expectation {expected}"
                )
    return issues


# --- oracle: one pass per check -----------------------------------------------

def _keys_where(records, predicate) -> set[Key]:
    return {r.key for r in records if predicate(r)}


def _set_mismatch(actual: set, expected: frozenset) -> str:
    extra = sorted(_fmt(k) for k in actual - expected)
    gone = sorted(_fmt(k) for k in expected - actual)
    bits = []
    if extra:
        bits.append(f"unexpected: {', '.join(extra)}")
    if gone:
        bits.append(f"missing: {', '.join(gone)}")
    return "; ".join(bits)


def oracle_check_consistency(records, delta_runner=None) -> tuple[CheckResult, ...]:
    runner = delta_runner or _cached_delta_verdict
    results = []

    # C1: birationally rigid orbits failing smooth-locus codim 4 are exactly e1
    both = _keys_where(
        records,
        lambda r: r.is_birationally_rigid is True
        and r.fails_smooth_locus_codim4 is True,
    )
    e1 = _keys_where(records, lambda r: r.in_e1)
    problems = []
    if both != e1:
        extra = sorted(_fmt(k) for k in both ^ e1)
        problems.append(f"set mismatch at: {', '.join(extra)}")
    if len(e1) != 6:
        problems.append(f"e1 has {len(e1)} members, expected 6")
    results.append(
        CheckResult("C1", "e1-characterization", not problems, "; ".join(problems))
    )

    # C2: the non-rigid birationally rigid orbits form the expected quadruple
    quad = _keys_where(
        records,
        lambda r: r.is_birationally_rigid is True and r.is_rigid is False,
    )
    detail = "" if quad == RIGID_FALSE_EXPECTED else _set_mismatch(quad, RIGID_FALSE_EXPECTED)
    results.append(
        CheckResult("C2", "nonrigid-birigid-quadruple", quad == RIGID_FALSE_EXPECTED, detail)
    )

    # C3: rigidity forces birational rigidity record by record
    violations = sorted(
        _fmt(r.key)
        for r in records
        if r.is_rigid is True and r.is_birationally_rigid is not True
    )
    results.append(
        CheckResult(
            "C3",
            "rigid-implies-birigid",
            not violations,
            f"violated by: {', '.join(violations)}" if violations else "",
        )
    )

    # C4: smooth-locus failures match the embedded 13-element list
    smooth = _keys_where(records, lambda r: r.fails_smooth_locus_codim4 is True)
    detail = "" if smooth == SMOOTH_LOCUS_FAILURES else _set_mismatch(smooth, SMOOTH_LOCUS_FAILURES)
    results.append(
        CheckResult("C4", "smooth-locus-failures", smooth == SMOOTH_LOCUS_FAILURES, detail)
    )

    # C5: codimension-4 boundary orbits match the embedded 36-element list
    c4 = _keys_where(records, lambda r: r.codim4_boundary is True)
    detail = "" if c4 == CODIM4_BOUNDARY_MEMBERS else _set_mismatch(c4, CODIM4_BOUNDARY_MEMBERS)
    results.append(
        CheckResult("C5", "codim4-boundary-list", c4 == CODIM4_BOUNDARY_MEMBERS, detail)
    )

    # C6: integrality verdicts agree with e2/e3 membership where a Levi is given
    problems = []
    for record in records:
        if record.levi_descriptor is None:
            continue
        expected = "non-integral" if (record.in_e2 or record.in_e3) else "integral"
        try:
            got = runner(record.group, tuple(record.levi_descriptor))
        except Exception as exc:  # surface, never mask, a broken descriptor
            problems.append(f"{_fmt(record.key)}: {exc}")
            continue
        if got != expected:
            problems.append(
                f"{_fmt(record.key)}: verdict {got}, e-membership implies {expected}"
            )
    results.append(
        CheckResult("C6", "delta-verdict-cross-check", not problems, "; ".join(problems))
    )

    # C7: e-list coherence plus conformance with the embedded expectations
    problems = []
    for record in records:
        if sum((record.in_e1, record.in_e2, record.in_e3)) > 1:
            problems.append(f"{_fmt(record.key)}: in more than one e-list")
        if (record.in_e2 or record.in_e3) and record.is_special is not True:
            problems.append(f"{_fmt(record.key)}: e2/e3 member not marked special")
    for name, expected in (("e1", E1_MEMBERS), ("e2", E2_MEMBERS), ("e3", E3_MEMBERS)):
        actual = _keys_where(records, lambda r, n=name: getattr(r, f"in_{n}"))
        if actual != expected:
            problems.append(f"{name} members: {_set_mismatch(actual, expected)}")
    problems.extend(oracle_conformance_issues(records))
    results.append(
        CheckResult("C7", "e-list-coherence", not problems, "; ".join(problems))
    )

    return tuple(results)


# --- oracle: the field-by-field record parser ---------------------------------

_REQUIRED_KEYS = (
    "group",
    "label",
    "is_special",
    "is_rigid",
    "is_birationally_rigid",
    "codim4_boundary",
    "fails_smooth_locus_codim4",
    "in_e1",
    "in_e2",
    "in_e3",
    "levi_descriptor",
    "provenance",
)
_ALLOWED_KEYS = frozenset(_REQUIRED_KEYS) | {"comment"}
_LEVI_RANK = {"E7": 7, "E8": 8}


def _as_flag(raw: dict, key: str, nullable: bool):
    value = raw[key]
    if value is None:
        if not nullable:
            raise AtlasLoadError(f"field {key!r} must be a boolean", record=raw)
        return None
    if not isinstance(value, bool):
        raise AtlasLoadError(f"field {key!r} must be a boolean or null", record=raw)
    return value


def oracle_parse_record(raw: object) -> ExceptionalOrbitRecord:
    if not isinstance(raw, dict):
        raise AtlasLoadError(f"record entries must be objects, got {type(raw).__name__}")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise AtlasLoadError(f"unknown record fields: {sorted(unknown)}", record=raw)
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise AtlasLoadError(f"missing record fields: {missing}", record=raw)

    group = raw["group"]
    label = raw["label"]
    if group not in GROUPS:
        raise AtlasLoadError(f"unknown group {group!r}", record=raw)
    if not isinstance(label, str) or not label:
        raise AtlasLoadError("label must be a non-empty string", record=raw)

    flags = {name: _as_flag(raw, name, name in NULLABLE_FLAGS) for name in FLAG_FIELDS}

    levi = raw["levi_descriptor"]
    if levi is not None:
        if group not in _LEVI_RANK:
            raise AtlasLoadError(
                f"levi_descriptor is only meaningful for {sorted(_LEVI_RANK)}",
                record=raw,
            )
        if (
            not isinstance(levi, list)
            or not levi
            or any(not isinstance(i, int) or isinstance(i, bool) for i in levi)
        ):
            raise AtlasLoadError("levi_descriptor must be a list of integers", record=raw)
        if list(levi) != sorted(set(levi)) or levi[0] < 1 or levi[-1] > _LEVI_RANK[group]:
            raise AtlasLoadError(
                f"levi_descriptor must be strictly increasing within 1..{_LEVI_RANK[group]}",
                record=raw,
            )
        levi = tuple(levi)

    prov_raw = raw["provenance"]
    if not isinstance(prov_raw, dict):
        raise AtlasLoadError("provenance must be an object", record=raw)
    for field, source in prov_raw.items():
        if field not in FLAG_FIELDS:
            raise AtlasLoadError(f"provenance for unknown field {field!r}", record=raw)
        if not isinstance(source, str) or not (
            source.startswith(PRIMARY_SOURCE_PREFIX)
            or source.startswith(EXTERNAL_SOURCE_PREFIX)
        ):
            raise AtlasLoadError(
                f"provenance for {field!r} must start with "
                f"{PRIMARY_SOURCE_PREFIX!r} or {EXTERNAL_SOURCE_PREFIX!r}",
                record=raw,
            )
    documented = set(prov_raw)
    stated = {name for name, value in flags.items() if value is not None}
    if documented != stated:
        raise AtlasLoadError(
            f"provenance keys {sorted(documented)} must match the non-null flags "
            f"{sorted(stated)}",
            record=raw,
        )

    comment = raw.get("comment")
    if comment is not None and (not isinstance(comment, str) or not comment):
        raise AtlasLoadError("comment must be a non-empty string", record=raw)

    if flags["is_rigid"] is True and flags["is_birationally_rigid"] is not True:
        raise AtlasLoadError(
            "is_rigid true requires is_birationally_rigid true", record=raw
        )

    return ExceptionalOrbitRecord(
        group=group,
        label=label,
        levi_descriptor=levi,
        provenance=tuple(sorted(prov_raw.items())),
        comment=comment,
        **flags,
    )


def oracle_load_atlas(path) -> tuple[ExceptionalOrbitRecord, ...]:
    if path is None:
        text = default_atlas_text()
        origin = "packaged atlas"
    else:
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise AtlasLoadError(f"cannot read atlas file {p}: {exc}") from exc
        origin = str(p)

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AtlasLoadError(f"{origin}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"records"}:
        raise AtlasLoadError(f"{origin}: top level must be an object with a 'records' list")
    if not isinstance(doc["records"], list):
        raise AtlasLoadError(f"{origin}: 'records' must be a list")

    records = []
    seen: set[Key] = set()
    for raw in doc["records"]:
        record = oracle_parse_record(raw)
        if record.key in seen:
            raise AtlasLoadError(f"duplicate orbit {_fmt(record.key)}")
        seen.add(record.key)
        records.append(record)

    issues = oracle_conformance_issues(records)
    if issues:
        raise AtlasLoadError(
            f"{origin}: data contradicts embedded expectations: " + "; ".join(issues[:5])
        )
    return tuple(records)


# --- comparisons ----------------------------------------------------------------

ATLAS = load_atlas()
RAW_RECORDS = json.loads(default_atlas_text())["records"]
PRIMARY_FLIPS = [
    (index, field)
    for index, record in enumerate(ATLAS)
    for field in paper_provenanced_fields(record)
]
BOOLEAN_FLAGS = [
    (index, field)
    for index, record in enumerate(ATLAS)
    for field in FLAG_FIELDS
    if isinstance(getattr(record, field), bool)
]


def payloads(results):
    return [r.to_payload() for r in results]


def flipped(records, flips):
    mutated = list(records)
    for index, field in flips:
        mutated[index] = flip_field(mutated[index], field)
    return mutated


def rebuilt(record, **changes):
    """A new record, through the constructor, with the fields of ``record``
    in ``_RECORD_KEYS`` order and ``changes`` in place of some of them."""
    names = _RECORD_KEYS + ("comment",)
    assert changes.keys() <= set(names)
    return ExceptionalOrbitRecord(*(changes.get(name, getattr(record, name)) for name in names))


def row_conformance(records):
    """The conformance issues of the records' rows, in record order; a plain
    record's row has no rare parts, so none."""
    rows = [record._check_row for record in records]
    return [issue for row in rows if row.rare is not None for issue in row.rare.conformance]


def joins_a_lane(record):
    """Whether the record sets a flag that C1-C7 compare as a key set; the
    smooth-locus failures hold C1's birationally rigid ones."""
    return bool(
        record.fails_smooth_locus_codim4 is True
        or record.codim4_boundary is True
        or record.in_e1 or record.in_e2 or record.in_e3
        or (record.is_birationally_rigid is True and record.is_rigid is False)
    )


def assert_same_checks(records):
    # fresh copies start with no cached row; the second comparison reads the
    # rows the first one cached on those same objects
    fresh = [rebuilt(record) for record in records]
    for _ in range(2):
        assert payloads(check_consistency(fresh)) == payloads(oracle_check_consistency(fresh))
        assert row_conformance(fresh) == oracle_conformance_issues(fresh)


def test_packaged_atlas_matches_oracle():
    assert_same_checks(ATLAS)
    assert all(r.passed for r in check_consistency(ATLAS))


def test_every_single_flip_matches_oracle():
    assert len(PRIMARY_FLIPS) == 376
    for flip in PRIMARY_FLIPS:
        assert_same_checks(flipped(ATLAS, [flip]))
    # flags cited to an external source too
    for flip in BOOLEAN_FLAGS:
        assert_same_checks(flipped(ATLAS, [flip]))


@settings(max_examples=300, deadline=None)
@given(
    flips=st.lists(st.sampled_from(BOOLEAN_FLAGS), min_size=2, max_size=6),
    order=st.permutations(range(len(ATLAS))),
)
def test_random_multi_flips_match_oracle(flips, order):
    mutated = flipped(ATLAS, flips)
    assert_same_checks([mutated[i] for i in order])


def test_whole_column_flips_match_oracle():
    # every boolean value of one flag negated at once, records in reverse, so
    # each check has many members to list and to sort
    for field in FLAG_FIELDS:
        flips = [(index, name) for index, name in BOOLEAN_FLAGS if name == field]
        assert_same_checks(flipped(ATLAS, flips)[::-1])


E8_A4_2A1 = next(i for i, r in enumerate(ATLAS) if r.key == ("E8", "A_4+2A_1"))


@pytest.mark.parametrize(
    "records",
    [
        [],
        [*ATLAS, ATLAS[E8_A4_2A1]],
        [*ATLAS, flip_field(ATLAS[0], paper_provenanced_fields(ATLAS[0])[0])],
    ],
    ids=["empty", "one-record-repeated", "two-records-of-one-key"],
)
def test_lists_the_loader_never_makes_match_oracle(records):
    # the checks union keys into sets and keep record order, so a repeated key
    # counts once in a set but each of its rows adds its own messages and C6 calls
    for ordered in (records, records[::-1]):
        assert payloads(check_consistency(ordered)) == payloads(oracle_check_consistency(ordered))
        assert_same_checks(ordered)


def outcome(function, records):
    try:
        return "returned", function(records)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def test_primary_citation_of_an_unknown_field_matches_oracle():
    record = ATLAS[1]
    provenance = tuple(sorted({**dict(record.provenance), "no_such_flag": "paper §1"}.items()))
    records = [ATLAS[0], rebuilt(record, provenance=provenance)]
    expected = outcome(oracle_conformance_issues, records)
    assert expected[0] == "raised"
    assert outcome(row_conformance, records) == expected
    assert outcome(check_consistency, records) == outcome(oracle_check_consistency, records)


def test_injected_runner_results_match_oracle():
    def liar(group, indices):
        return "non-integral"

    def broken(group, indices):
        raise RuntimeError("torus misbehaved")

    for runner in (liar, broken):
        assert payloads(check_consistency(ATLAS, delta_runner=runner)) == payloads(
            oracle_check_consistency(ATLAS, delta_runner=runner)
        )


def test_unlisted_keys_and_uncovered_fields_match_oracle():
    # a key no embedded set names, and a non-exhaustive flag cited to the paper
    # where no set gives an expectation
    record = ATLAS[0]
    renamed = rebuilt(record, label="X_9", in_e1=True)
    provenance = tuple(sorted({**dict(record.provenance), "is_rigid": "paper §9"}.items()))
    uncovered = rebuilt(record, provenance=provenance)
    # five copies of the atlas under new labels, with one flip per lane in
    # the last copy and some of its records repeated: the new keys that join
    # a lane take slots far past the table's 56, so C1's lane mask spans a
    # long union
    copies = [[rebuilt(r, label=f"{r.label} #{n}") for r in ATLAS] for n in range(5)]
    last = copies[-1]
    fields = (  # one flag moving each lane, in lane order
        "is_birationally_rigid", "is_rigid", "fails_smooth_locus_codim4", "codim4_boundary",
        "in_e1", "in_e2", "in_e3",
    )
    for lane, field in enumerate(fields):
        index = next(i for i in range(7 * lane, len(last)) if isinstance(getattr(last[i], field), bool))
        last[index] = flip_field(last[index], field)
    large = [r for copy in copies for r in copy] + last[::9]
    assert len(large) == 322
    cases = ([renamed], [uncovered], [renamed, uncovered], list(ATLAS) + [renamed], large)
    for records in cases:
        assert_same_checks(records)
    stray = {r.key for r in large if r.key not in orbit_atlas._KEYS and joins_a_lane(r)}
    assert len(stray) >= 200
    assert any("no expectation is embedded" in i for i in row_conformance([uncovered]))


def test_threads_checking_new_keys_never_share_a_slot():
    # eight threads check lists under labels no other thread uses, then the
    # same new labels in every thread; each call numbers the slots of its own
    # new keys, so no thread can hand another one a slot
    def work(thread):
        for name in (f"T{thread}", "shared"):
            for step in range(3):
                records = [rebuilt(r, label=f"{r.label} {name}.{step}") for r in ATLAS]
                records[thread] = flip_field(records[thread], "in_e1")
                got, want = check_consistency(records), oracle_check_consistency(records)
                outcomes[thread].append(payloads(got) == payloads(want))

    outcomes = [[] for _ in range(8)]
    threads = [threading.Thread(target=work, args=(thread,)) for thread in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [[True] * 6] * 8


def test_checking_renamed_atlases_grows_no_module_table():
    # every renamed key that joins a lane fails a check and takes a slot for
    # that call only; no table of the module may grow with the keys it meets
    def sizes():
        return {
            name: len(value)
            for name, value in vars(orbit_atlas).items()
            if isinstance(value, (dict, list, set))
            and not name.startswith("__")
            and name != "_last_accepted"
        }

    before = sizes()
    for n in range(200):
        records = [rebuilt(r, label=f"{r.label} ~{n}") for r in ATLAS]
        assert payloads(check_consistency(records)) == payloads(oracle_check_consistency(records))
    assert sizes() == before


def load_outcome(load, path):
    try:
        return "loaded", load(path)
    except AtlasLoadError as exc:
        return "refused", str(exc)


def test_flipped_file_refusal_matches_oracle(tmp_path):
    target = tmp_path / "flipped.json"
    for index, field in PRIMARY_FLIPS:
        doc = {"records": [dict(raw) for raw in RAW_RECORDS]}
        doc["records"][index][field] = not doc["records"][index][field]
        target.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        outcome = load_outcome(load_atlas, target)
        assert outcome[0] == "refused", (index, field)
        assert outcome == load_outcome(oracle_load_atlas, target)


EXTERNAL_FLIPS = sorted(set(BOOLEAN_FLAGS) - set(PRIMARY_FLIPS))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    primary=st.lists(st.sampled_from(PRIMARY_FLIPS), min_size=6, max_size=12, unique=True).filter(
        lambda flips: len({index for index, _ in flips}) > 1
    ),
    external=st.lists(st.sampled_from(EXTERNAL_FLIPS), max_size=4, unique=True),
)
def test_multi_flip_file_refusal_matches_oracle_cold_and_warm(tmp_path, cold_atlas, primary, external):
    # issues come in record order across reused and parsed records, and the
    # message keeps the first five
    doc = {"records": [dict(raw) for raw in RAW_RECORDS]}
    for index, field in primary + external:
        doc["records"][index][field] = not doc["records"][index][field]
    target = tmp_path / "flipped.json"
    target.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    expected = load_outcome(oracle_load_atlas, target)
    assert expected[0] == "refused"
    if "data contradicts embedded expectations" in expected[1]:
        assert len(re.findall(r"contradicts embedded expectation (True|False)", expected[1])) == 5
    for warm in (False, True):
        cold_atlas()
        if warm:
            load_atlas()
        assert load_outcome(load_atlas, target) == expected, warm


# --- reuse of the last accepted atlas ---------------------------------------------

def strict_load_outcome(load, path):
    # the refused raw as JSON text, which tells 1 from true and 3.0 from 3
    try:
        return "loaded", load(path)
    except AtlasLoadError as exc:
        raw = exc.record
        return "refused", str(exc), None if raw is None else json.dumps(raw)


def restated(changes):
    """Fresh copies of the packaged raw records with ``changes``, (index,
    key, value) triples, applied."""
    records = json.loads(json.dumps(RAW_RECORDS))
    for index, key, value in changes:
        records[index][key] = value
    return records


def equal_but_retyped():
    """Records that == the packaged ones but are other JSON: a flag restated
    as a number or a null as false (every value of every flag, once), a Levi
    label as a float, or a leading 1 as true."""
    substitute = {True: 1, False: 0, None: False}
    for field in FLAG_FIELDS:
        for value in (True, False, None):
            index = next((i for i, r in enumerate(RAW_RECORDS) if r[field] is value), None)
            if index is not None:
                yield restated([(index, field, substitute[value])])
    for index, raw in enumerate(RAW_RECORDS):
        levi = raw["levi_descriptor"]
        if levi is None:
            continue
        for position in range(len(levi)):
            floats = [float(i) if k == position else i for k, i in enumerate(levi)]
            yield restated([(index, "levi_descriptor", floats)])
        assert levi[0] == 1
        yield restated([(index, "levi_descriptor", [True, *levi[1:]])])


def load_warm_and_oracle(tmp_path, records):
    """Warm the table with the packaged atlas, load ``records`` from a file,
    and require the oracle's outcome; returns the warm table and the outcome."""
    target = tmp_path / "restated.json"
    target.write_text(json.dumps({"records": records}, ensure_ascii=False), encoding="utf-8")
    load_atlas()
    warm = orbit_atlas._last_accepted
    outcome = strict_load_outcome(load_atlas, target)
    assert outcome == strict_load_outcome(oracle_load_atlas, target)
    return warm, outcome


def test_retyped_records_are_refused_as_the_oracle_refuses_them(tmp_path, cold_atlas):
    cases = list(equal_but_retyped())
    assert len(cases) == 18 + 11  # the flags' values, then the Levi labels
    # a primary citation where no expectation is embedded: the edited record
    # is parsed and conformance-checked again
    target = next(i for i, r in enumerate(ATLAS) if r.key == ("G2", "A_1"))
    provenance = {**RAW_RECORDS[target]["provenance"], "is_rigid": "paper §4, restated"}
    cases.append(restated([(target, "provenance", provenance)]))
    for records in cases:
        warm, outcome = load_warm_and_oracle(tmp_path, records)
        assert outcome[0] == "refused"
        # a refused load keeps the table it found and stores none of its raws
        assert orbit_atlas._last_accepted is warm


def test_restated_records_are_loaded_as_the_oracle_loads_them(tmp_path, cold_atlas):
    commented = next(i for i, raw in enumerate(RAW_RECORDS) if "comment" not in raw)
    cited = next(i for i, r in enumerate(ATLAS) if "in_e1" in paper_provenanced_fields(r))
    provenance = {**RAW_RECORDS[cited]["provenance"], "in_e1": "paper §1.2, restated"}
    swapped = list(range(len(RAW_RECORDS)))
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    cases = [
        # (records, indices of the records that must be parsed again)
        (restated([(commented, "comment", None)]), {commented}),
        (restated([(cited, "provenance", provenance)]), {cited}),
        ([RAW_RECORDS[i] for i in swapped], set()),
    ]
    for records, changed in cases:
        warm, outcome = load_warm_and_oracle(tmp_path, records)
        assert outcome[0] == "loaded"
        loaded = outcome[1]
        # an accepted file, packaged or not, replaces the table with its own records
        table = orbit_atlas._last_accepted
        assert table is not warm
        assert [record for _, record in table.values()] == list(loaded)
        assert all(a is b for (_, a), b in zip(table.values(), loaded))
        for index, record in enumerate(loaded):
            assert (record is warm[record.key][1]) is (index not in changed), index
    # the packaged atlas after the edited provenance parses that record again
    assert load_atlas() == ATLAS == oracle_load_atlas(None)


# --- the record parser ------------------------------------------------------------

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from(["", "E7", "G2", "paper §1", "external: x", "hearsay", "A_1"]),
    st.lists(st.integers(-1, 9), max_size=4),
    st.dictionaries(st.sampled_from(FLAG_FIELDS + ("other",)), st.sampled_from(
        ["paper §2", "external: y", "z"]), max_size=3),
)
RECORD_KEYS = _REQUIRED_KEYS + ("comment", "surprise")


def parse_outcome(parse, raw):
    try:
        return "record", parse(raw)
    except AtlasLoadError as exc:
        return "refused", str(exc), exc.record is raw


@settings(max_examples=400, deadline=None)
@given(
    index=st.integers(0, len(RAW_RECORDS) - 1),
    drops=st.lists(st.sampled_from(RECORD_KEYS), max_size=2),
    sets=st.lists(st.tuples(st.sampled_from(RECORD_KEYS), JSON_VALUES), max_size=3),
)
def test_record_parser_matches_oracle(index, drops, sets):
    raw = json.loads(json.dumps(RAW_RECORDS[index]))
    for key in drops:
        raw.pop(key, None)
    for key, value in sets:
        raw[key] = value
    assert parse_outcome(_parse_record, raw) == parse_outcome(oracle_parse_record, raw)


def test_record_parser_matches_oracle_on_packaged_records():
    for raw in RAW_RECORDS:
        assert _parse_record(raw) == oracle_parse_record(raw)
    for raw in (None, [], "record", 3):
        assert parse_outcome(_parse_record, raw) == parse_outcome(oracle_parse_record, raw)
