"""Criterion table behaviour: ids, names, unknown ids and the crash path."""

import pytest

from nilorb import selfcheck
from nilorb.errors import InputError
from nilorb.exact_linalg import IntMatrix
from nilorb.selfcheck import CRITERION_IDS, run_criterion

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
    assert tuple(selfcheck._CRITERIA[cid][0] for cid in CRITERION_IDS) == NAMES


def test_unknown_criterion_rejected():
    for bad in ("0", "10", "", "e7-root-system", None, ["1"]):
        with pytest.raises(InputError):
            run_criterion(bad)


def test_unknown_criterion_message_lists_the_string_ids():
    # the ids are strings, so the int 8 is unknown; the message must say why
    expected = "unknown criterion 8; expected one of '1', '2', '3', '4', '5', '6', '7', '8', '9'"
    with pytest.raises(InputError) as caught:
        run_criterion(8)
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


def test_lattice_oracle_fails_a_kernel_basis_of_the_wrong_dimension(monkeypatch):
    # a kernel_lattice that drops each matrix's last column: every image of
    # its 5-vectors still sums to zero over the first five columns, so only
    # the dimension check tells it from the true kernel
    kernel = selfcheck.kernel_lattice

    def short_kernel(m):
        return kernel(IntMatrix.from_rows([row[:-1] for row in m.to_rows()]))

    monkeypatch.setattr(selfcheck, "kernel_lattice", short_kernel)
    result = run_criterion("9")
    assert (result.criterion_id, result.passed) == ("9", False)
    assert "kernel basis in dimension 5, expected 6" in result.notes[0]
