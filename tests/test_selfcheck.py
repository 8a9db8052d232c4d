"""Criterion table behaviour: ids, names, unknown ids and the crash path."""

import pytest

from nilorb import selfcheck
from nilorb.errors import InputError
from nilorb.selfcheck import CRITERION_IDS, criterion_name, run_criterion

NAMES = (
    "e7-root-system",
    "e8-root-system",
    "e7-preset-replay",
    "e8-preset-replay",
    "classical-fixtures",
    "rigid-source-exhaustive",
    "step-semantics",
    "atlas-consistency",
    "lattice-oracle",
)


def test_ids_and_names_in_report_order():
    assert CRITERION_IDS == tuple(str(i) for i in range(1, 10))
    assert tuple(criterion_name(cid) for cid in CRITERION_IDS) == NAMES


def test_unknown_criterion_rejected():
    for bad in ("0", "10", "", "e7-root-system"):
        with pytest.raises(InputError):
            criterion_name(bad)
        with pytest.raises(InputError):
            run_criterion(bad)


def test_unknown_criterion_message_lists_the_string_ids():
    # the ids are strings, so the int 8 is unknown; the message must say why
    expected = "unknown criterion 8; expected one of '1', '2', '3', '4', '5', '6', '7', '8', '9'"
    for call in (criterion_name, run_criterion):
        with pytest.raises(InputError) as caught:
            call(8)
        assert str(caught.value) == expected


def test_result_carries_id_and_name():
    result = run_criterion("5")
    assert (result.criterion_id, result.name, result.passed) == ("5", "classical-fixtures", True)


def test_crash_becomes_a_named_failure(monkeypatch):
    def boom(preset):
        raise RuntimeError("injected")

    monkeypatch.setattr(selfcheck, "preset_report", boom)
    result = run_criterion("3")
    assert (result.criterion_id, result.name, result.passed) == ("3", "e7-preset-replay", False)
    assert result.actual == "raised RuntimeError: injected"
