"""The Levi stack's records keep a frozen dataclass's semantics.

The ten record classes of ``exact_linalg``, ``reference``, ``root_system``
and ``delta_check`` are plain ``__slots__`` classes.  Each sample here is
compared with its ``dataclasses`` twin from tests/oracles.py: the same
``repr``, the same ``==`` and ``!=`` against every other sample, the same
``hash`` where equality is by value, and no assignment or deletion.
"""

import itertools
import pickle
from fractions import Fraction

import pytest
from oracles import TWINS, record_twin

from nilorb.delta_check import PRESETS, preset_report
from nilorb.exact_linalg import IntMatrix, LatticeBasis
from nilorb.reference import WORKED_EXAMPLES
from nilorb.root_system import QuotientVector, build_root_system, levi_subsystem


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


def test_hash_matches_the_twin():
    for x, twin in PAIRS:
        assert hash(x) == (hash(twin) if by_value(twin) else object.__hash__(x)), x


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
            assert back == x and hash(back) == hash(x)


def test_defaults_and_keywords_match_the_twin():
    assert repr(LatticeBasis(3)) == repr(TWINS["LatticeBasis"](3))
    keywords = LatticeBasis(ambient_dim=1, vectors=((2,),))
    assert repr(keywords) == "LatticeBasis(ambient_dim=1, vectors=((2,),))"
    fixture = WORKED_EXAMPLES["E7:A2+A1"].torus_members[0]
    assert repr(type(fixture)((1,))) == repr(TWINS["TorusMemberFixture"]((1,)))
    report = preset_report("E8:A4+2A1")
    fields = {name: getattr(report, name) for name in type(report).__slots__ if name != "reference"}
    assert type(report)(**fields).reference is None


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
