"""The package's records keep a frozen dataclass's semantics.

The eighteen record classes of every layer, the CLI and selftest are plain
``__slots__`` classes.  Each sample here is compared with its ``dataclasses``
twin from tests/oracles.py: the same ``repr``, the same ``==`` and ``!=``
against every other sample, the same ``hash`` where equality is by value (or
the same ``TypeError`` where a field cannot be hashed), and no assignment or
deletion.
"""

import copy
import inspect
import itertools
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from oracles import TWINS, record_twin

from nilorb.cli import CommandResult
from nilorb.delta_check import PRESETS, preset_report
from nilorb.errors import _fill_factory, _Frozen
from nilorb.exact_linalg import IntMatrix, LatticeBasis
from nilorb.orbit_atlas import (
    _RECORD_KEYS,
    CheckResult,
    ExceptionalOrbitRecord,
    check_consistency,
    flip_field,
    load_atlas,
)
from nilorb.orbit_partitions import ClassicalOrbit, birational_sources, inverse_steps
from nilorb.reference import WORKED_EXAMPLES
from nilorb.root_system import QuotientVector, build_root_system, levi_subsystem
from nilorb.selfcheck import CriterionResult, run_criterion


def samples() -> list:
    out = []
    for preset in sorted(PRESETS):
        report = preset_report(preset)
        out += [report, report.reference, *report.reference.member_checks, report.h, report.kappa]
    # equal fields, separate objects: equal by value, unequal by identity
    out += [preset_report("E7:A2+A1"), preset_report("E7:A2+A1").reference]
    rs = build_root_system("E7")
    out += [rs, levi_subsystem(rs, (1, 2, 6)), levi_subsystem(rs, (6, 2, 1))]
    for example in WORKED_EXAMPLES.values():
        out += [example, *example.torus_members]
    out += [
        IntMatrix(2, 2, (1, 2, 3, 4)),
        IntMatrix.from_rows([[1, 2], [3, 4]]),
        IntMatrix(0, 3, ()),
        LatticeBasis(2, ((1, 1), (0, 3))),
        LatticeBasis(2, ((1, 4), (1, 1), (2, 5))),
        LatticeBasis(2),
        QuotientVector((1, 2, 3)),
        QuotientVector((0, 1, 2)),
        QuotientVector((Fraction(1, 2), Fraction(3, 2))),
    ]
    orbits = [ClassicalOrbit("B", (3, 1, 1)), ClassicalOrbit("C", (4, 4)), ClassicalOrbit("D", [3, 3])]
    # equal fields, separate objects
    out += [*orbits, ClassicalOrbit("C", (4, 4)), ClassicalOrbit("C", (2, 2))]
    (source,) = birational_sources(orbits[1])
    out += [source, source.script, birational_sources(ClassicalOrbit("C", (4, 4)))[0]]
    out += [*inverse_steps(orbits[1])]
    records = load_atlas()
    commented = next(r for r in records if r.comment is not None)
    out += [records[0], records[1], commented, flip_field(commented, "in_e1")]
    out += [*check_consistency(records), *check_consistency([flip_field(records[0], "in_e1")])]
    out += [run_criterion("5"), CriterionResult("0", "none", False, "1", "2", ("a note",))]
    out += [CommandResult("ok", {"count": 0}), CommandResult("error", {"error": "x"}, (), 2)]
    return out


SAMPLES = samples()
MEMO: dict = {}
PAIRS = [(x, record_twin(x, MEMO)) for x in SAMPLES]


def test_samples_cover_every_record_class():
    assert {type(x).__name__ for x in SAMPLES} == set(TWINS)
    assert all(type(twin) is TWINS[type(x).__name__] for x, twin in PAIRS)


def test_repr_matches_the_twin():
    for x, twin in PAIRS:
        assert repr(x) == repr(twin)


def test_equality_matches_the_twin_across_every_pair():
    for (a, ta), (b, tb) in itertools.product(PAIRS, repeat=2):
        assert (a == b) is (ta == tb), (a, b)
        assert (a != b) is (ta != tb), (a, b)


def by_value(twin) -> bool:
    return type(twin).__hash__ is not object.__hash__


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:  # a field, such as a CLI payload, is a dict
        return str(exc)


def test_hash_matches_the_twin():
    for x, twin in PAIRS:
        assert hash_or_error(x) == (hash_or_error(twin) if by_value(twin) else object.__hash__(x)), x


def test_fields_can_be_neither_assigned_nor_deleted():
    for x, twin in PAIRS:
        for name in [*twin.__dataclass_fields__, "extra"]:
            for obj in (x, twin):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)


def test_pickle_round_trip_keeps_repr_and_equality():
    for x, twin in PAIRS:
        back = pickle.loads(pickle.dumps(x))
        assert repr(back) == repr(x)
        if by_value(twin):
            assert back == x and hash_or_error(back) == hash_or_error(x)


def test_defaults_and_keywords_match_the_twin():
    assert repr(LatticeBasis(3)) == repr(TWINS["LatticeBasis"](3))
    keywords = LatticeBasis(ambient_dim=1, vectors=((2,),))
    assert repr(keywords) == "LatticeBasis(ambient_dim=1, vectors=((2,),))"
    fixture = WORKED_EXAMPLES["E7:A2+A1"].torus_members[0]
    assert repr(type(fixture)((1,))) == repr(TWINS["TorusMemberFixture"]((1,)))
    report = preset_report("E8:A4+2A1")
    fields = {name: getattr(report, name) for name in type(report).__slots__ if name != "reference"}
    assert type(report)(**fields).reference is None
    for args in (("C1", "x", True), ("C1", "x", False, "why")):
        assert repr(CheckResult(*args)) == repr(TWINS["CheckResult"](*args))
    args = ("9", "x", True, "1", "1")
    assert repr(CriterionResult(*args)) == repr(TWINS["CriterionResult"](*args))
    assert repr(CommandResult("ok", {})) == repr(TWINS["CommandResult"]("ok", {}))
    assert repr(CommandResult(status="ok", payload={}, exit_code=1)) == (
        "CommandResult(status='ok', payload={}, diagnostics=(), exit_code=1)"
    )
    orbit = ClassicalOrbit(kind="C", parts=[2, 2])
    assert orbit.parts == (2, 2) and repr(orbit) == "ClassicalOrbit('C', (2, 2))"
    record = load_atlas()[0]
    names = _RECORD_KEYS + ("comment",)
    values = [getattr(record, name) for name in names]
    assert ExceptionalOrbitRecord(*values[:-1]).comment is None
    assert ExceptionalOrbitRecord(**dict(zip(names, values))) == record


def test_a_copy_keeps_repr_and_equality():
    for x, twin in PAIRS:
        for back in (copy.copy(x), copy.deepcopy(x)):
            assert repr(back) == repr(x) and type(back) is type(x)
            assert (back == x) is (copy.copy(twin) == twin)


def test_an_atlas_record_pickles_and_compares_without_its_check_row():
    records = load_atlas()
    check_consistency(records)
    record = records[0]
    assert "_check_row" in vars(record)
    for back in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert back == record and hash(back) == hash(record)
        assert "_check_row" not in vars(back)


@pytest.mark.parametrize("cls, args", [(LatticeBasis, (2, ((1, 2), (2, 4)))), (QuotientVector, ((1, 2),))])
def test_a_patched_post_init_counts_each_construction_once(cls, args, monkeypatch):
    # perfbench's tracer counts these constructions by patching the class's
    # __post_init__, so the constructor must call it through self
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    built = [cls(*args) for _ in range(3)]
    assert len(calls) == 3 and all(a is b for a, b in zip(calls, built))


@pytest.mark.parametrize("count", [1, 2, 3, 13])
def test_fill_takes_exactly_one_value_per_field(count):
    # one value too few would leave a slot unset, one too many would be
    # dropped; both are refused, and a private slot takes no value
    class Record(_Frozen):
        __slots__ = (*(f"f{i}" for i in range(count)), "_derived")

        def __init__(self, *values):
            self._fill(*values)

    values = tuple(range(count))
    assert Record._fields == tuple(f"f{i}" for i in range(count))
    assert Record._field_values(Record(*values)) == values
    for wrong in (values[:-1], values + (count,)):
        with pytest.raises(TypeError, match="_fill"):
            Record(*wrong)


def parameters(cls) -> list:
    """Each constructor parameter's name, kind and default, in order."""
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def test_each_constructor_takes_the_twins_parameters():
    # every class has built a sample, so each record without an __init__ of
    # its own now has its bound _fill in that place
    for cls in {type(x) for x in SAMPLES}:
        params = parameters(cls)
        assert params == parameters(TWINS[cls.__name__]), cls
        required = [p for p in params if p[2] is inspect.Parameter.empty]
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*range(len(required) - 1))


def throwaway(count: int) -> type:
    """A new record class of ``count`` fields, the last with a default."""

    class Record(_Frozen):
        __slots__ = tuple(f"f{i}" for i in range(count))
        _defaults = (-1,)

    return Record


def test_fill_is_compiled_once_per_field_count_and_then_shared():
    # no package record has 21 or 22 fields
    counts = (21, 22, 21, 22, 21, 22)
    before = _fill_factory.cache_info()
    for count in counts:
        cls = throwaway(count)
        # the first record may come by keywords, the last field by its default
        record = cls(**{f"f{i}": i for i in range(count - 1)})
        assert cls._field_values(record) == (*range(count - 1), -1)
        assert cls.__init__ is cls._fill
        assert cls(*range(count)) == cls(*range(count - 1), count - 1)
    after = _fill_factory.cache_info()
    compiled = after.misses - before.misses
    assert compiled == after.currsize - before.currsize <= 2
    assert after.hits - before.hits == len(counts) - compiled
    # every package record has built a sample; only the four that check
    # their values keep an __init__ of their own
    records = {type(x) for x in SAMPLES}
    own = {cls.__name__ for cls in records if cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"}
    assert own == {"IntMatrix", "LatticeBasis", "QuotientVector", "ClassicalOrbit"}
    assert all(cls.__init__ is cls._fill for cls in records if cls.__name__ not in own)


def test_threads_that_build_a_new_class_together_bind_one_fill():
    # eight threads, more than the cores, build the first records of each
    # new class at once; each class binds one _fill, its __init__ too
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in (24, 25, 24, 25):
            cls = throwaway(count)
            start = threading.Barrier(8)
            built = []

            def build():
                start.wait(timeout=10)
                built.append(cls(*range(count)))

            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(built) == 8 and all(cls._field_values(r) == tuple(range(count)) for r in built)
            assert cls.__init__ is cls._fill
    finally:
        sys.setswitchinterval(interval)
