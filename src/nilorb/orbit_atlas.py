"""Curated atlas of exceptional-group nilpotent orbit data, with checks.

Each record stores per-orbit flags (specialness, rigidity, birational
rigidity, boundary codimension, smooth-locus failure, membership in the three
distinguished e-lists) plus an optional Levi descriptor for the integrality
criterion.  Flags may be null when the curated sources leave them open; every
non-null flag carries a provenance string that names where the value comes
from.  Provenance strings start with either "paper §" (the primary source)
or "external: " (companion tabulations).  One ``open`` reads the data file
beside this module, or a given one; a fault raises AtlasLoadError.

The module embeds its own expectations for every primary-source flag: the
e-lists, the smooth-locus failure list, the codimension-4 boundary list, the
rigidity tables and the special-orbit list.  The loader refuses data files
that contradict those expectations, and check C7 reports the same
contradictions on whatever records it is handed, so a single flipped flag is
caught no matter how it enters.  Checks C1 through C7 then exercise the
cross-lemma consistency of the whole table.

The loader keeps the raw JSON object and the frozen record of every record in
the last atlas it accepted, by key.  A raw record strictly equal to the stored
one (``==``, with every flag the same ``true``/``false``/``null`` object and
every Levi label an ``int``, since JSON's ``1`` equals ``true`` and ``3.0``
equals ``3`` in Python) returns the stored record without being parsed again,
with the row it already holds.  Only a successful load replaces what is
kept, so it is always one whole accepted atlas.  Equal records from
successive loads are therefore one shared frozen object; nothing but ``is``
can tell.

Each record has one row, cached on the record the first time the loader or
a check reads it: its key, its bits and its rare parts.  Every orbit key
holds one slot of seven bits, a lane for each key set C1-C7 compare, given
the first time the key is seen and kept for the life of the process; a row's
bits are the lanes it joins, in its key's slot.  Slot order follows first
sight and so the hash seed; no output depends on it.  The rare parts are
whether the record is rigid but not birationally rigid, its e-list problems,
its C6 entry and its conformance issues, gathered in one field that is None
when all four are unset, as for 61 of the 63 packaged records.  The row is the one place conformance
runs, so it runs once per record: the loader refuses a file by its records'
row issues, and C7 reports the same issues.  That is sound because records
are frozen and the row depends on nothing but their fields, so a reload
reuses the accepted records with their rows and a check derives only the
rows of records no load or check has seen; ``flip_field`` and the record
constructor build new records, which start with no row.  The delta verdicts
of C6 are not part of the row, so an injected runner is called on every
check.

A check that passes returns the one shared result of that check, which is
immutable like every ``CheckResult``; only a failing check builds a new
result, with its details.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import count
from operator import is_, itemgetter

from .errors import AtlasLoadError, InputError, OrbitNotFoundError, _Frozen

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

_DATA_FILE = os.path.join(os.path.dirname(__file__), "data", "exceptional_orbits.json")

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

# --- check slots -------------------------------------------------------------------

# a key's lane is bit 7 * slot + lane, with lanes 0 both (birationally rigid
# and failing the smooth locus), 1 quad (birationally rigid, not rigid),
# 2 smooth, 3 c4, 4 e1, 5 e2 and 6 e3
_LANES = 7
_slots: dict[Key, int] = {}
_slot_keys: dict[int, Key] = {}
_next_slot = count()


def _slot(key: Key) -> int:
    """The key's slot; a key seen for the first time takes the next one."""
    slot = _slots.get(key)
    if slot is None:
        # one count hands out the numbers, so two threads never draw the same
        # one; the thread that loses setdefault gives its number back unused
        fresh = next(_next_slot)
        _slot_keys[fresh] = key
        slot = _slots.setdefault(key, fresh)
        if slot != fresh:
            del _slot_keys[fresh]
    return slot


def _lane_bits(keys) -> int:
    """The lane-0 bit of each key's slot."""
    return sum(1 << _LANES * _slot(key) for key in keys)


# expected value of each primary-source flag, as lane-0 bits: (true bits,
# false bits, exhaustive); exhaustive means every key outside the true bits
# expects False
_PAPER_EXPECTATIONS: dict[str, tuple[int, int, bool]] = {
    "in_e1": (_lane_bits(E1_MEMBERS), 0, True),
    "in_e2": (_lane_bits(E2_MEMBERS), 0, True),
    "in_e3": (_lane_bits(E3_MEMBERS), 0, True),
    "codim4_boundary": (_lane_bits(CODIM4_BOUNDARY_MEMBERS), 0, True),
    "fails_smooth_locus_codim4": (_lane_bits(SMOOTH_LOCUS_FAILURES), 0, True),
    "is_special": (_lane_bits(SPECIAL_TRUE_EXPECTED), 0, False),
    "is_rigid": (_lane_bits(RIGID_TRUE_EXPECTED), _lane_bits(RIGID_FALSE_EXPECTED), False),
    "is_birationally_rigid": (
        _lane_bits(BIRIGID_TRUE_EXPECTED), _lane_bits(BIRIGID_FALSE_EXPECTED), False
    ),
}

# the union of a conforming atlas's row bits, lane by lane; lane 0 expects
# e1, since C1 wants both to equal e1 and C7 wants e1 to be E1_MEMBERS
_EXPECTED_BITS = sum(_lane_bits(keys) << lane for lane, keys in enumerate((
    E1_MEMBERS, RIGID_FALSE_EXPECTED, SMOOTH_LOCUS_FAILURES, CODIM4_BOUNDARY_MEMBERS,
    E1_MEMBERS, E2_MEMBERS, E3_MEMBERS,
)))

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


class ExceptionalOrbitRecord(_Frozen):
    # the fields, then a __dict__ that holds only the cached check row
    __slots__ = (*_RECORD_KEYS, "comment", "__dict__")
    _defaults = (None,)

    @property
    def key(self) -> Key:
        return (self.group, self.label)

    def flag(self, name: str) -> bool | None:
        if name not in FLAG_FIELDS:
            raise InputError(f"unknown flag field {name!r}")
        return getattr(self, name)

    def __repr__(self) -> str:
        return f"ExceptionalOrbitRecord({self.group}:{self.label})"

    def to_payload(self) -> dict:
        payload = dict(zip(self._fields, self._field_values(self)))
        levi = self.levi_descriptor
        payload["levi_descriptor"] = list(levi) if levi else None
        payload["provenance"] = dict(self.provenance)
        return payload

    @cached_property
    def _check_row(self) -> _CheckRow:
        # kept in the __dict__, not a field: ==, hash, pickle and the JSON
        # views skip it
        return _record_row(self)


def _fmt(key: Key) -> str:
    return f"{key[0]}:{key[1]}"


def paper_provenanced_fields(record: ExceptionalOrbitRecord) -> tuple[str, ...]:
    """Flag fields of the record whose provenance cites the primary source."""
    return tuple(
        field for field, source in record.provenance if source.startswith(PRIMARY_SOURCE_PREFIX)
    )


def flip_field(record: ExceptionalOrbitRecord, field: str) -> ExceptionalOrbitRecord:
    """Copy of the record with one boolean flag negated (for fault injection)."""
    value = record.flag(field)
    if not isinstance(value, bool):
        raise InputError(f"cannot flip null flag {field!r} on {record!r}")
    values = list(record._field_values(record))
    values[_RECORD_KEYS.index(field)] = not value
    return ExceptionalOrbitRecord(*values)


def _conform(record: ExceptionalOrbitRecord, key: Key, provenance, bit: int) -> list[str]:
    """The record's primary-source flags that disagree with the embedded
    expectations, in provenance order; ``bit`` is the lane-0 bit of the key's slot."""
    issues = []
    for field, source in provenance:
        if not source.startswith(PRIMARY_SOURCE_PREFIX):
            continue
        expectation = _PAPER_EXPECTATIONS.get(field)
        if expectation is None:
            raise InputError(f"unknown flag field {field!r}")
        true_bits, false_bits, exhaustive = expectation
        # the true bits win where a key sits in both
        if true_bits & bit:
            want = True
        elif exhaustive or false_bits & bit:
            want = False
        else:
            issues.append(
                f"{_fmt(key)}: {field} cites the primary source but no "
                f"expectation is embedded for it"
            )
            continue
        value = getattr(record, field)
        if value != want:
            issues.append(
                f"{_fmt(key)}: {field}={value} contradicts embedded expectation {want}"
            )
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


def _reused(raw: object, accepted: dict) -> ExceptionalOrbitRecord | None:
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


def _read_atlas_file(name: str) -> str:
    """The file's UTF-8 text; the one place an atlas file is opened."""
    try:
        with open(name, encoding="utf-8") as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AtlasLoadError(f"cannot read atlas file {name}: {exc}") from exc


def default_atlas_text() -> str:
    """The data file beside this module, read by the one ``open``; faults raise AtlasLoadError."""
    return _read_atlas_file(_DATA_FILE)


def load_atlas(path: str | os.PathLike | None = None) -> tuple[ExceptionalOrbitRecord, ...]:
    """Load and validate the atlas, read by one ``open``; default: the file beside this module.

    Unreadable or non-UTF-8 files, structural and provenance problems, duplicate
    orbits and contradictions with the embedded expectations all raise AtlasLoadError.
    A record strictly equal to one of the last accepted atlas comes back as
    that atlas's record object, not parsed again, with the row that holds its
    conformance issues.
    """
    global _last_accepted
    if path is None:
        text = default_atlas_text()
        origin = "packaged atlas"
    else:
        from pathlib import Path  # only to spell the path in messages: ./a.json as a.json
        origin = str(Path(path))
        text = _read_atlas_file(origin)

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
    issues: list[str] = []
    table: dict[Key, tuple[dict, ExceptionalOrbitRecord]] = {}
    for raw in doc["records"]:
        record = _reused(raw, accepted) or _parse_record(raw)
        key = record.key
        if key in table:
            raise AtlasLoadError(f"duplicate orbit {_fmt(key)}")
        table[key] = (raw, record)
        records.append(record)
        rare = record._check_row.rare
        if rare is not None:
            issues += rare.conformance

    if issues:
        raise AtlasLoadError(
            f"{origin}: data contradicts embedded expectations: " + "; ".join(issues[:5])
        )
    _last_accepted = table
    return tuple(records)


def _check_group(group: str) -> None:
    if group not in GROUPS:
        raise InputError(f"unknown group {group!r}; expected one of {', '.join(GROUPS)}")


def query(
    records: Sequence[ExceptionalOrbitRecord], group: str, label: str
) -> ExceptionalOrbitRecord:
    """Exact lookup by group and orbit label, with suggestions on a miss."""
    _check_group(group)
    for record in records:
        if record.group == group and record.label == label:
            return record
    import difflib  # only a miss needs it, so a load or a hit does not import it

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

class CheckResult(_Frozen):
    __slots__ = ("check_id", "name", "passed", "details")
    _defaults = ("",)

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


# each check's name, in C1-C7 order
_CHECK_NAMES = {
    "C1": "e1-characterization",
    "C2": "nonrigid-birigid-quadruple",
    "C3": "rigid-implies-birigid",
    "C4": "smooth-locus-failures",
    "C5": "codim4-boundary-list",
    "C6": "delta-verdict-cross-check",
    "C7": "e-list-coherence",
}
# the one result of each check that passes, shared by every call
_PASSED = {check_id: CheckResult(check_id, name, True) for check_id, name in _CHECK_NAMES.items()}


def _result(check_id: str, problems: list[str]) -> CheckResult:
    """A check that passes when it found no problems; its details join them."""
    if not problems:
        return _PASSED[check_id]
    return CheckResult(check_id, _CHECK_NAMES[check_id], False, "; ".join(problems))


def _keys_at(bits: int) -> str:
    """The keys whose lane-0 bits are set in ``bits``, formatted, sorted and joined."""
    names = []
    while bits:
        low = bits & -bits
        names.append(_fmt(_slot_keys[(low.bit_length() - 1) // _LANES]))
        bits ^= low
    return ", ".join(sorted(names))


def _lane_mismatch(lane: int, union: int, diff: int, lane0: int) -> list[str]:
    """What the lane of ``union`` has beyond its expected keys and lacks of
    them; empty when ``diff``, the union XOR the expected bits, spares it."""
    moved = (diff >> lane) & lane0
    extra = moved & (union >> lane)
    # a bit of diff outside the union is an expected bit
    gone = moved ^ extra
    bits = []
    if extra:
        bits.append(f"unexpected: {_keys_at(extra)}")
    if gone:
        bits.append(f"missing: {_keys_at(gone)}")
    return bits


# what check_consistency reads from one record: its key, the lanes it joins
# in its key's slot, and its rare parts, None for a plain record
_CheckRow = namedtuple("_CheckRow", "key bits rare")
# whether the record is rigid but not birationally rigid, its e-list problems,
# its C6 entry or None, and its conformance issues
_RareParts = namedtuple("_RareParts", "breaks_c3 e_problems levi conformance")


def _record_row(record: ExceptionalOrbitRecord) -> _CheckRow:
    """The record's row; it depends on nothing but the record's fields."""
    (
        group, label, special, rigid, birigid, codim4, fails_smooth,
        in_e1, in_e2, in_e3, levi, provenance, _comment,
    ) = record._field_values(record)
    key = (group, label)
    shift = _LANES * _slot(key)
    e_problems = []
    if sum((in_e1, in_e2, in_e3)) > 1:
        e_problems.append(f"{_fmt(key)}: in more than one e-list")
    if (in_e2 or in_e3) and special is not True:
        e_problems.append(f"{_fmt(key)}: e2/e3 member not marked special")
    joined = (  # in lane order
        birigid is True and fails_smooth is True,  # both: and failing smooth locus
        birigid is True and rigid is False,  # quad: birationally rigid, not rigid
        fails_smooth is True,  # smooth
        codim4 is True,  # c4
        in_e1,
        in_e2,
        in_e3,
    )
    rare = _RareParts(
        birigid is not True and rigid is True,
        tuple(e_problems),
        None
        if levi is None
        else (key, levi, "non-integral" if (in_e2 or in_e3) else "integral"),
        tuple(_conform(record, key, provenance, 1 << shift)),
    )
    return _CheckRow(
        key,
        sum(1 << lane for lane, member in enumerate(joined) if member) << shift,
        rare if any(rare) else None,
    )


def check_consistency(
    records: Sequence[ExceptionalOrbitRecord], delta_runner=None
) -> tuple[CheckResult, ...]:
    """Run the seven cross-checks; results come back in C1..C7 order.

    One pass ORs the records' cached row bits into one union, seven lanes
    per orbit key, and reads a row's rare parts only where they are set.
    The union XOR the expected bits is 0 for a conforming atlas; otherwise
    only the lanes it touches are decoded into sorted key lists.  A passing
    check's result is one object shared by every call, equal to
    ``CheckResult(check_id, name, True, "")``; a failing check's is new on
    each call.

    ``delta_runner(group, indices) -> verdict`` may be injected; the default
    memoizes the exact computation so repeated sweeps stay cheap.
    """
    runner = delta_runner or _cached_delta_verdict
    union = 0
    rigid_not_birigid = []
    levis = []
    e_problems = []
    conformance: list[str] = []
    for record in records:
        key, bits, rare = record._check_row
        union |= bits
        if rare is not None:
            breaks_c3, row_e_problems, levi, row_conformance = rare
            if breaks_c3:
                rigid_not_birigid.append(_fmt(key))
            e_problems += row_e_problems
            if levi is not None:
                levis.append(levi)
            conformance += row_conformance

    diff = union ^ _EXPECTED_BITS
    # lane 0 of every slot the union or the expected bits reach; 0 when
    # nothing differs, which masks every lane to no mismatch
    slots = (union | _EXPECTED_BITS).bit_length() // _LANES + 1 if diff else 0
    lane0 = ((1 << _LANES * slots) - 1) // ((1 << _LANES) - 1)
    results = []

    # C1: birationally rigid orbits failing smooth-locus codim 4 (lane 0) are
    # exactly e1 (lane 4)
    problems = []
    mismatch = (union ^ union >> 4) & lane0
    if mismatch:
        problems.append(f"set mismatch at: {_keys_at(mismatch)}")
    e1_size = ((union >> 4) & lane0).bit_count() if diff else len(E1_MEMBERS)
    if e1_size != 6:
        problems.append(f"e1 has {e1_size} members, expected 6")
    results.append(_result("C1", problems))

    # C2: the non-rigid birationally rigid orbits form the expected quadruple
    results.append(_result("C2", _lane_mismatch(1, union, diff, lane0)))

    # C3: rigidity forces birational rigidity record by record
    problems = [f"violated by: {', '.join(sorted(rigid_not_birigid))}"] if rigid_not_birigid else []
    results.append(_result("C3", problems))

    # C4: smooth-locus failures match the embedded 13-element list
    results.append(_result("C4", _lane_mismatch(2, union, diff, lane0)))

    # C5: codimension-4 boundary orbits match the embedded 36-element list
    results.append(_result("C5", _lane_mismatch(3, union, diff, lane0)))

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
    results.append(_result("C6", problems))

    # C7: e-list coherence plus conformance with the embedded expectations
    problems = e_problems
    for name, lane in (("e1", 4), ("e2", 5), ("e3", 6)):
        mismatch = _lane_mismatch(lane, union, diff, lane0)
        if mismatch:
            problems.append(f"{name} members: {'; '.join(mismatch)}")
    problems.extend(conformance)
    results.append(_result("C7", problems))

    return tuple(results)
