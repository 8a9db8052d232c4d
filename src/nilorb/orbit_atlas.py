"""Curated atlas of exceptional-group nilpotent orbit data, with checks.

Each record stores per-orbit flags (specialness, rigidity, birational
rigidity, boundary codimension, smooth-locus failure, membership in the three
distinguished e-lists) plus an optional Levi descriptor for the integrality
criterion.  Flags may be null when the curated sources leave them open; every
non-null flag carries a provenance string that names where the value comes
from.  Provenance strings start with either "paper §" (the primary source)
or "external: " (companion tabulations).

The module embeds its own expectations for every primary-source flag: the
e-lists, the smooth-locus failure list, the codimension-4 boundary list, the
rigidity tables and the special-orbit list.  The loader refuses data files
that contradict those expectations, and check C7 re-verifies them on whatever
records it is handed, so a single flipped flag is caught no matter how it
enters.  Checks C1 through C7 then exercise the cross-lemma consistency of
the whole table.

The loader keeps the raw JSON object and the frozen record of every record in
the last atlas it accepted, by key.  A raw record strictly equal to the stored
one (``==``, with every flag the same ``true``/``false``/``null`` object and
every Levi label an ``int``, since JSON's ``1`` equals ``true`` and ``3.0``
equals ``3`` in Python) returns the stored record without being parsed again,
and it skips conformance, which it passed in that atlas and which depends on
nothing but its fields.  Only a successful load replaces what is kept, so it
is always one whole accepted atlas.  Equal records from successive loads are
therefore one shared frozen object; nothing but ``is`` can tell.

At import the embedded sets are folded into one expectation table,
``{(group, label): {field: expected}}``.  A field whose set is exhaustive
(the e-lists, the smooth-locus failures, the codimension-4 boundary) expects
False for every key outside it, including keys the table does not list; the
rigidity and specialness fields expect a value only where a set names the
key.  Conformance looks each record up once and compares its primary-source
flags as one tuple, walking the fields one by one only to word a mismatch.

``check_consistency`` reads one row per record: its key, which of the seven
C1-C7 key sets it joins, whether it is rigid but not birationally rigid, its
e-list problems, its C6 entry and its conformance issues.  The row is cached
on the record the first time a check reads it.  That is sound because records
are frozen and the row depends on nothing but their fields, so a check of a
list that shares records with one already checked derives only the new
records' rows; ``flip_field`` and ``dataclasses.replace`` build new records,
which start with no row.  The delta verdicts of C6 are not part of the row,
so an injected runner is called on every check.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import AtlasLoadError, InputError, OrbitNotFoundError

GROUPS = ("G2", "F4", "E6", "E7", "E8")

PRIMARY_SOURCE_PREFIX = "paper §"
EXTERNAL_SOURCE_PREFIX = "external: "

FLAG_FIELDS = (
    "is_special",
    "is_rigid",
    "is_birationally_rigid",
    "codim4_boundary",
    "fails_smooth_locus_codim4",
    "in_e1",
    "in_e2",
    "in_e3",
)
NULLABLE_FLAGS = FLAG_FIELDS[:5]
# every field a data record must state, in ExceptionalOrbitRecord's field
# order; the record adds an optional comment after them
_RECORD_KEYS = ("group", "label", *FLAG_FIELDS, "levi_descriptor", "provenance")

_LEVI_RANK = {"E7": 7, "E8": 8}

Key = tuple[str, str]

# --- embedded expectations --------------------------------------------------------

E1_MEMBERS: frozenset[Key] = frozenset(
    {
        ("G2", "Ã_1"),
        ("F4", "Ã_2+A_1"),
        ("E7", "(A_3+A_1)'"),
        ("E8", "A_3+A_1"),
        ("E8", "A_5+A_1"),
        ("E8", "D_5(a_1)+A_2"),
    }
)

E2_MEMBERS: frozenset[Key] = frozenset(
    {
        ("E7", "A_4+A_1"),
        ("E8", "A_4+A_1"),
        ("E8", "E_6(a_1)+A_1"),
    }
)

E3_MEMBERS: frozenset[Key] = frozenset({("E8", "A_4+2A_1")})

SMOOTH_LOCUS_FAILURES: frozenset[Key] = E1_MEMBERS | {
    ("F4", "C_3(a_1)"),
    ("E6", "A_3+A_1"),
    ("E7", "D_6(a_2)"),
    ("E8", "D_6(a_2)"),
    ("E8", "E_6(a_3)+A_1"),
    ("E8", "E_7(a_2)"),
    ("E8", "E_7(a_5)"),
}

CODIM4_BOUNDARY_MEMBERS: frozenset[Key] = frozenset(
    {
        ("G2", "A_1"),
        ("F4", "A_1"),
        ("F4", "Ã_1"),
        ("F4", "A_1+Ã_1"),
        ("F4", "A_2+Ã_1"),
        ("E6", "A_1"),
        ("E6", "2A_1"),
        ("E6", "3A_1"),
        ("E6", "A_2+A_1"),
        ("E6", "A_2+2A_1"),
        ("E6", "2A_2+A_1"),
        ("E7", "A_1"),
        ("E7", "2A_1"),
        ("E7", "(3A_1)'"),
        ("E7", "4A_1"),
        ("E7", "A_2+A_1"),
        ("E7", "A_2+2A_1"),
        ("E7", "2A_2+A_1"),
        ("E7", "A_4+A_1"),
        ("E8", "A_1"),
        ("E8", "2A_1"),
        ("E8", "3A_1"),
        ("E8", "4A_1"),
        ("E8", "A_2"),
        ("E8", "A_2+A_1"),
        ("E8", "A_2+2A_1"),
        ("E8", "A_2+3A_1"),
        ("E8", "2A_2+A_1"),
        ("E8", "2A_2+2A_1"),
        ("E8", "A_3+2A_1"),
        ("E8", "A_3+A_2+A_1"),
        ("E8", "2A_3"),
        ("E8", "D_4(a_1)+A_1"),
        ("E8", "A_4+A_1"),
        ("E8", "A_4+2A_1"),
        ("E8", "A_4+A_3"),
    }
)

RIGID_TRUE_EXPECTED: frozenset[Key] = E1_MEMBERS | {
    ("F4", "A_1+Ã_1"),
    ("E6", "A_1"),
    ("E7", "A_1"),
    ("E7", "2A_1"),
    ("E7", "A_2+2A_1"),
    ("E8", "A_1"),
    ("E8", "2A_1"),
    ("E8", "A_2+2A_1"),
}

RIGID_FALSE_EXPECTED: frozenset[Key] = frozenset(
    {
        ("E7", "A_2+A_1"),
        ("E7", "A_4+A_1"),
        ("E8", "A_4+A_1"),
        ("E8", "A_4+2A_1"),
    }
)

BIRIGID_TRUE_EXPECTED: frozenset[Key] = RIGID_TRUE_EXPECTED | RIGID_FALSE_EXPECTED

BIRIGID_FALSE_EXPECTED: frozenset[Key] = (SMOOTH_LOCUS_FAILURES - E1_MEMBERS) | {
    ("E7", "A_3+A_2"),
    ("E7", "D_5(a_1)"),
    ("E8", "A_3+A_2"),
    ("E8", "D_5(a_1)"),
    ("E8", "E_6(a_1)+A_1"),
    ("E8", "E_7(a_3)"),
    ("E8", "E_7(a_4)"),
}

SPECIAL_TRUE_EXPECTED: frozenset[Key] = frozenset(
    {
        ("E7", "A_2+A_1"),
        ("E7", "A_3+A_2"),
        ("E7", "A_4+A_1"),
        ("E7", "D_5(a_1)"),
        ("E8", "A_3+A_2"),
        ("E8", "A_4+A_1"),
        ("E8", "A_4+2A_1"),
        ("E8", "D_5(a_1)"),
        ("E8", "E_6(a_1)+A_1"),
        ("E8", "E_7(a_3)"),
        ("E8", "E_7(a_4)"),
    }
)

# expected value of each primary-source flag: (true set, false set, exhaustive);
# exhaustive means every key outside the true set expects False
_PAPER_EXPECTATIONS: dict[str, tuple[frozenset, frozenset, bool]] = {
    "in_e1": (E1_MEMBERS, frozenset(), True),
    "in_e2": (E2_MEMBERS, frozenset(), True),
    "in_e3": (E3_MEMBERS, frozenset(), True),
    "codim4_boundary": (CODIM4_BOUNDARY_MEMBERS, frozenset(), True),
    "fails_smooth_locus_codim4": (SMOOTH_LOCUS_FAILURES, frozenset(), True),
    "is_special": (SPECIAL_TRUE_EXPECTED, frozenset(), False),
    "is_rigid": (RIGID_TRUE_EXPECTED, RIGID_FALSE_EXPECTED, False),
    "is_birationally_rigid": (BIRIGID_TRUE_EXPECTED, BIRIGID_FALSE_EXPECTED, False),
}


def _expectation_table() -> tuple[dict[Key, dict[str, bool]], dict[str, bool]]:
    """The expectation table, and the row of every key it does not list."""
    unlisted = {
        field: False for field, (_, _, exhaustive) in _PAPER_EXPECTATIONS.items() if exhaustive
    }
    table: dict[Key, dict[str, bool]] = {}
    for field, (true_set, false_set, _) in _PAPER_EXPECTATIONS.items():
        # the true set wins where a key sits in both
        for key in false_set:
            table.setdefault(key, dict(unlisted))[field] = False
        for key in true_set:
            table.setdefault(key, dict(unlisted))[field] = True
    return table, unlisted


_EXPECTED, _UNLISTED_EXPECTED = _expectation_table()

__all__ = [
    "GROUPS",
    "FLAG_FIELDS",
    "PRIMARY_SOURCE_PREFIX",
    "EXTERNAL_SOURCE_PREFIX",
    "E1_MEMBERS",
    "E2_MEMBERS",
    "E3_MEMBERS",
    "SMOOTH_LOCUS_FAILURES",
    "CODIM4_BOUNDARY_MEMBERS",
    "RIGID_TRUE_EXPECTED",
    "RIGID_FALSE_EXPECTED",
    "BIRIGID_TRUE_EXPECTED",
    "BIRIGID_FALSE_EXPECTED",
    "SPECIAL_TRUE_EXPECTED",
    "ExceptionalOrbitRecord",
    "CheckResult",
    "load_atlas",
    "default_atlas_text",
    "query",
    "check_consistency",
    "flip_field",
    "paper_provenanced_fields",
]


@dataclass(frozen=True, eq=True)
class ExceptionalOrbitRecord:
    group: str
    label: str
    is_special: Optional[bool]
    is_rigid: Optional[bool]
    is_birationally_rigid: Optional[bool]
    codim4_boundary: Optional[bool]
    fails_smooth_locus_codim4: Optional[bool]
    in_e1: bool
    in_e2: bool
    in_e3: bool
    levi_descriptor: Optional[tuple[int, ...]]
    provenance: tuple[tuple[str, str], ...]
    comment: Optional[str] = None

    @property
    def key(self) -> Key:
        return (self.group, self.label)

    def flag(self, name: str) -> Optional[bool]:
        if name not in FLAG_FIELDS:
            raise InputError(f"unknown flag field {name!r}")
        return getattr(self, name)

    def __repr__(self) -> str:
        return f"ExceptionalOrbitRecord({self.group}:{self.label})"

    @cached_property
    def _check_row(self) -> _CheckRow:
        # not a dataclass field: fields(), ==, hash and the JSON views skip it
        return _record_row(self)


def _fmt(key: Key) -> str:
    return f"{key[0]}:{key[1]}"


def _primary_fields(provenance: Iterable[tuple[str, str]]) -> tuple[str, ...]:
    return tuple(
        field for field, source in provenance if source.startswith(PRIMARY_SOURCE_PREFIX)
    )


def paper_provenanced_fields(record: ExceptionalOrbitRecord) -> tuple[str, ...]:
    """Flag fields of the record whose provenance cites the primary source."""
    return _primary_fields(record.provenance)


def flip_field(record: ExceptionalOrbitRecord, field: str) -> ExceptionalOrbitRecord:
    """Copy of the record with one boolean flag negated (for fault injection)."""
    value = record.flag(field)
    if not isinstance(value, bool):
        raise InputError(f"cannot flip null flag {field!r} on {record!r}")
    return dataclasses.replace(record, **{field: not value})


# stands in the expected tuple for a field with no embedded expectation; it
# equals no flag value, so such a field always takes the message-writing walk
_NO_EXPECTATION = object()


# 256 is four times the packaged atlas, whose 63 (key, provenance) pairs stay
# cached however many files are loaded; only records a load parses rather than
# reuses, and records checked for the first time, reach this cache, since
# checks read each record's cached row
@lru_cache(maxsize=256)
def _paper_expectation(key: Key, provenance: tuple[tuple[str, str], ...]):
    """(fields, getter, expected) for a record's primary-source flags, or None.

    ``getter(record)`` and ``expected`` are both tuples, or both a single
    value when only one field cites the primary source.
    """
    fields = _primary_fields(provenance)
    if not fields:
        return None
    for field in fields:
        if field not in FLAG_FIELDS:
            raise InputError(f"unknown flag field {field!r}")
    row = _EXPECTED.get(key, _UNLISTED_EXPECTED)
    expected = tuple(row.get(field, _NO_EXPECTATION) for field in fields)
    return fields, attrgetter(*fields), expected if len(fields) > 1 else expected[0]


def _conform(record: ExceptionalOrbitRecord, key: Key, provenance, issues: list) -> None:
    """Append to ``issues`` the record's primary-source flags that disagree
    with the expectation table."""
    entry = _paper_expectation(key, provenance)
    if entry is None:
        return
    fields, getter, expected = entry
    if getter(record) == expected:
        return
    row = _EXPECTED.get(key, _UNLISTED_EXPECTED)
    for field in fields:
        value = getattr(record, field)
        want = row.get(field, _NO_EXPECTATION)
        if want is _NO_EXPECTATION:
            issues.append(
                f"{_fmt(key)}: {field} cites the primary source but no "
                f"expectation is embedded for it"
            )
        elif value != want:
            issues.append(
                f"{_fmt(key)}: {field}={value} contradicts embedded expectation {want}"
            )


def _conformance_issues(records: Iterable[ExceptionalOrbitRecord]) -> list[str]:
    """Primary-source flags that disagree with the embedded expectations."""
    issues: list[str] = []
    for record in records:
        _conform(record, record.key, record.provenance, issues)
    return issues


# --- loading -----------------------------------------------------------------------

_RECORD_KEY_SET = frozenset(_RECORD_KEYS)
_ALLOWED_KEYS = _RECORD_KEY_SET | {"comment"}
_FLAG_SET = frozenset(FLAG_FIELDS)
_SOURCE_PREFIXES = (PRIMARY_SOURCE_PREFIX, EXTERNAL_SOURCE_PREFIX)
_raw_flags = itemgetter(*FLAG_FIELDS)


def _parse_record(raw: object) -> ExceptionalOrbitRecord:
    if not isinstance(raw, dict):
        raise AtlasLoadError(f"record entries must be objects, got {type(raw).__name__}")
    present = raw.keys()
    if not present <= _ALLOWED_KEYS:
        raise AtlasLoadError(
            f"unknown record fields: {sorted(present - _ALLOWED_KEYS)}", record=raw
        )
    if not present >= _RECORD_KEY_SET:
        missing = [k for k in _RECORD_KEYS if k not in raw]
        raise AtlasLoadError(f"missing record fields: {missing}", record=raw)

    group = raw["group"]
    label = raw["label"]
    if group not in GROUPS:
        raise AtlasLoadError(f"unknown group {group!r}", record=raw)
    if not isinstance(label, str) or not label:
        raise AtlasLoadError("label must be a non-empty string", record=raw)

    values = _raw_flags(raw)
    stated = set()
    for name, value in zip(FLAG_FIELDS, values):
        if value is True or value is False:
            stated.add(name)
        elif value is not None:
            raise AtlasLoadError(f"field {name!r} must be a boolean or null", record=raw)
        elif name not in NULLABLE_FLAGS:
            raise AtlasLoadError(f"field {name!r} must be a boolean", record=raw)

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
        if field not in _FLAG_SET:
            raise AtlasLoadError(f"provenance for unknown field {field!r}", record=raw)
        if not isinstance(source, str) or not source.startswith(_SOURCE_PREFIXES):
            raise AtlasLoadError(
                f"provenance for {field!r} must start with "
                f"{PRIMARY_SOURCE_PREFIX!r} or {EXTERNAL_SOURCE_PREFIX!r}",
                record=raw,
            )
    if prov_raw.keys() != stated:
        raise AtlasLoadError(
            f"provenance keys {sorted(prov_raw)} must match the non-null flags "
            f"{sorted(stated)}",
            record=raw,
        )

    comment = raw.get("comment")
    if comment is not None and (not isinstance(comment, str) or not comment):
        raise AtlasLoadError("comment must be a non-empty string", record=raw)

    # values[1] is is_rigid and values[2] is_birationally_rigid (FLAG_FIELDS order)
    if values[1] is True and values[2] is not True:
        raise AtlasLoadError(
            "is_rigid true requires is_birationally_rigid true", record=raw
        )

    # the record's fields run in _RECORD_KEYS order, then the comment
    return ExceptionalOrbitRecord(
        group, label, *values, levi, tuple(sorted(prov_raw.items())), comment
    )


# (raw, record) of every record in the last atlas load_atlas accepted, by key.
# A load reads it once and, only on success, rebinds it to a new table, never
# changing one in place, so concurrent loads each see one whole accepted atlas
_last_accepted: dict[Key, tuple[dict, ExceptionalOrbitRecord]] = {}


def _reused(raw: object, accepted: dict) -> Optional[ExceptionalOrbitRecord]:
    """The accepted record that ``raw`` restates exactly, or None.

    Among JSON values only numbers and booleans compare equal across types,
    so ``==`` plus identical flags and ``int`` Levi labels is strict equality.
    """
    if type(raw) is not dict:
        return None
    group = raw.get("group")
    label = raw.get("label")
    if type(group) is not str or type(label) is not str:
        return None
    entry = accepted.get((group, label))
    if entry is None:
        return None
    stored, record = entry
    if raw != stored or not all(map(is_, _raw_flags(raw), _raw_flags(stored))):
        return None
    levi = raw["levi_descriptor"]
    if levi is not None and not all(type(i) is int for i in levi):
        return None
    return record


def default_atlas_text() -> str:
    return (
        resources.files("nilorb")
        .joinpath("data/exceptional_orbits.json")
        .read_text(encoding="utf-8")
    )


def load_atlas(
    path: Optional[Union[str, Path]] = None,
) -> tuple[ExceptionalOrbitRecord, ...]:
    """Load and validate the atlas; the packaged data file is the default.

    Structural problems, provenance problems, duplicate orbits and
    contradictions with the embedded expectations all raise AtlasLoadError.
    A record strictly equal to one of the last accepted atlas comes back as
    that atlas's record object, neither parsed nor conformance-checked again.
    """
    global _last_accepted
    if path is None:
        text = default_atlas_text()
        origin = "packaged atlas"
    else:
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise AtlasLoadError(f"cannot read atlas file {p}: {exc}") from exc
        origin = str(p)

    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise AtlasLoadError(f"{origin}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise AtlasLoadError(f"{origin}: JSON nested too deeply to parse") from exc
    if not isinstance(doc, dict) or set(doc) != {"records"}:
        raise AtlasLoadError(f"{origin}: top level must be an object with a 'records' list")
    if not isinstance(doc["records"], list):
        raise AtlasLoadError(f"{origin}: 'records' must be a list")

    accepted = _last_accepted
    records = []
    parsed = []  # a reused record passed conformance in the accepted atlas
    table: dict[Key, tuple[dict, ExceptionalOrbitRecord]] = {}
    for raw in doc["records"]:
        record = _reused(raw, accepted)
        if record is None:
            record = _parse_record(raw)
            parsed.append(record)
        key = record.key
        if key in table:
            raise AtlasLoadError(f"duplicate orbit {_fmt(key)}")
        table[key] = (raw, record)
        records.append(record)

    issues = _conformance_issues(parsed)
    if issues:
        raise AtlasLoadError(
            f"{origin}: data contradicts embedded expectations: " + "; ".join(issues[:5])
        )
    _last_accepted = table
    return tuple(records)


def query(
    records: Sequence[ExceptionalOrbitRecord], group: str, label: str
) -> ExceptionalOrbitRecord:
    """Exact lookup by group and orbit label, with suggestions on a miss."""
    if group not in GROUPS:
        raise InputError(f"unknown group {group!r}; expected one of {', '.join(GROUPS)}")
    for record in records:
        if record.group == group and record.label == label:
            return record
    local = [r.label for r in records if r.group == group]
    near = difflib.get_close_matches(label, local, n=5, cutoff=0.3)
    elsewhere = [
        _fmt(r.key) for r in records if r.label == label and r.group != group
    ]
    suggestions = tuple(near + elsewhere)
    hint = f" (did you mean: {', '.join(suggestions)}?)" if suggestions else ""
    raise OrbitNotFoundError(
        f"no orbit {label!r} in {group}{hint}", suggestions=suggestions
    )


# --- consistency checks ---------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    check_id: str
    name: str
    passed: bool
    details: str = ""

    def to_payload(self) -> dict:
        return {
            "id": self.check_id,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


@lru_cache(maxsize=None)
def _cached_delta_verdict(group: str, indices: tuple[int, ...]) -> str:
    from .delta_check import delta_verdict

    return delta_verdict(group, indices).verdict


def _set_mismatch(actual: set, expected: frozenset) -> str:
    extra = sorted(_fmt(k) for k in actual - expected)
    gone = sorted(_fmt(k) for k in expected - actual)
    bits = []
    if extra:
        bits.append(f"unexpected: {', '.join(extra)}")
    if gone:
        bits.append(f"missing: {', '.join(gone)}")
    return "; ".join(bits)


def _set_check(check_id: str, name: str, actual: set, expected: frozenset) -> CheckResult:
    """A check that passes when ``actual`` is exactly ``expected``."""
    passed = actual == expected
    return CheckResult(check_id, name, passed, "" if passed else _set_mismatch(actual, expected))


_row_fields = attrgetter(*_RECORD_KEYS)
# the C1-C7 key sets; a row's ``joins`` are indices into this tuple
_KEY_SETS = ("both", "quad", "smooth", "c4", "e1", "e2", "e3")


class _CheckRow(NamedTuple):
    """What ``check_consistency`` reads from one record."""

    key: Key
    joins: tuple[int, ...]  # the _KEY_SETS the record belongs to
    rigid_not_birigid: bool
    e_problems: tuple[str, ...]
    levi: Optional[tuple]  # the C6 entry (key, levi, expected verdict)
    conformance: tuple[str, ...]


def _record_row(record: ExceptionalOrbitRecord) -> _CheckRow:
    """The record's row; it depends on nothing but the record's fields."""
    (
        group, label, special, rigid, birigid, codim4, fails_smooth,
        in_e1, in_e2, in_e3, levi, provenance,
    ) = _row_fields(record)
    key = (group, label)
    e_problems = []
    if sum((in_e1, in_e2, in_e3)) > 1:
        e_problems.append(f"{_fmt(key)}: in more than one e-list")
    if (in_e2 or in_e3) and special is not True:
        e_problems.append(f"{_fmt(key)}: e2/e3 member not marked special")
    conformance: list[str] = []
    _conform(record, key, provenance, conformance)
    joined = (
        birigid is True and fails_smooth is True,  # both: and failing smooth locus
        birigid is True and rigid is False,  # quad: birationally rigid, not rigid
        fails_smooth is True,  # smooth
        codim4 is True,  # c4
        in_e1,
        in_e2,
        in_e3,
    )
    return _CheckRow(
        key,
        tuple(index for index, member in enumerate(joined) if member),
        birigid is not True and rigid is True,
        tuple(e_problems),
        None
        if levi is None
        else (key, levi, "non-integral" if (in_e2 or in_e3) else "integral"),
        tuple(conformance),
    )


def check_consistency(
    records: Sequence[ExceptionalOrbitRecord], delta_runner=None
) -> tuple[CheckResult, ...]:
    """Run the seven cross-checks; results come back in C1..C7 order.

    One pass unions the records' cached rows into the key sets of all seven
    checks; the checks then compare those sets.

    ``delta_runner(group, indices) -> verdict`` may be injected; the default
    memoizes the exact computation so repeated sweeps stay cheap.
    """
    runner = delta_runner or _cached_delta_verdict
    key_sets: tuple[set[Key], ...] = tuple(set() for _ in _KEY_SETS)
    both, quad, smooth, c4, e1, e2, e3 = key_sets
    rigid_not_birigid = []
    levis = []
    e_problems = []
    conformance: list[str] = []
    for record in records:
        key, joins, breaks_c3, row_e_problems, levi, row_conformance = record._check_row
        for index in joins:
            key_sets[index].add(key)
        if breaks_c3:
            rigid_not_birigid.append(_fmt(key))
        e_problems += row_e_problems
        if levi is not None:
            levis.append(levi)
        conformance += row_conformance

    results = []

    # C1: birationally rigid orbits failing smooth-locus codim 4 are exactly e1
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
    results.append(_set_check("C2", "nonrigid-birigid-quadruple", quad, RIGID_FALSE_EXPECTED))

    # C3: rigidity forces birational rigidity record by record
    violations = sorted(rigid_not_birigid)
    results.append(
        CheckResult(
            "C3",
            "rigid-implies-birigid",
            not violations,
            f"violated by: {', '.join(violations)}" if violations else "",
        )
    )

    # C4: smooth-locus failures match the embedded 13-element list
    results.append(_set_check("C4", "smooth-locus-failures", smooth, SMOOTH_LOCUS_FAILURES))

    # C5: codimension-4 boundary orbits match the embedded 36-element list
    results.append(_set_check("C5", "codim4-boundary-list", c4, CODIM4_BOUNDARY_MEMBERS))

    # C6: integrality verdicts agree with e2/e3 membership where a Levi is given
    problems = []
    for key, levi, expected in levis:
        try:
            got = runner(key[0], tuple(levi))
        except Exception as exc:  # surface, never mask, a broken descriptor
            problems.append(f"{_fmt(key)}: {exc}")
            continue
        if got != expected:
            problems.append(f"{_fmt(key)}: verdict {got}, e-membership implies {expected}")
    results.append(
        CheckResult("C6", "delta-verdict-cross-check", not problems, "; ".join(problems))
    )

    # C7: e-list coherence plus conformance with the embedded expectations
    problems = e_problems
    for name, actual, expected in (
        ("e1", e1, E1_MEMBERS),
        ("e2", e2, E2_MEMBERS),
        ("e3", e3, E3_MEMBERS),
    ):
        if actual != expected:
            problems.append(f"{name} members: {_set_mismatch(actual, expected)}")
    problems.extend(conformance)
    results.append(
        CheckResult("C7", "e-list-coherence", not problems, "; ".join(problems))
    )

    return tuple(results)
