"""CLI behavior: dispatch, exit codes, deterministic output, data overrides."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracles import reference_text_lines

from nilorb.cli import _selftest_table, main
from nilorb.orbit_atlas import default_atlas_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


def corrupt_atlas_file(tmp_path):
    """A copy of the packaged atlas with one primary-source flag negated."""
    doc = json.loads(default_atlas_text())
    for rec in doc["records"]:
        if rec["group"] == "E8" and rec["label"] == "A_4+2A_1":
            rec["in_e3"] = False
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# --- partition -----------------------------------------------------------------


def test_partition_special(capsys):
    code, doc, _ = run_json(capsys, "partition", "special", "--type", "D", "--parts", "3,3,2,2,1,1")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["special"] is True


def test_partition_rigid_gap_two(capsys):
    code, doc, _ = run_json(capsys, "partition", "rigid", "--type", "C", "--parts", "4,2")
    assert code == 0
    assert doc["payload"]["birationally_rigid"] is False


def test_partition_step_falls_back_to_variant_ii(capsys):
    code, doc, _ = run_json(capsys, "partition", "step", "--type", "C", "--parts", "1,1", "--n", "1")
    assert code == 0
    assert doc["payload"]["result"] == [2, 2]
    assert doc["payload"]["variant"] == "ii"


def test_partition_step_forced_variant_refused(capsys):
    code, _, err = run_cli(
        capsys, "partition", "step", "--type", "C", "--parts", "1,1", "--n", "1", "--variant", "i"
    )
    assert code == 2
    assert "variant i" in err


@pytest.mark.parametrize("json_mode", [False, True])
def test_partition_step_past_the_int_print_cap(capsys, json_mode):
    # --parts entries may have as many digits as str() prints by default, and
    # a step adds one more: the result is printed whole, a refusal is one line
    before = sys.get_int_max_str_digits()
    cap = before or 4300
    nines, bigger = "9" * cap, "1" + "0" * (cap - 1) + "1"
    flags = ["--json"] if json_mode else []
    code, out, err = run_cli(
        capsys, "partition", "step", "--type", "B", "--parts", nines, "--n", "1", *flags
    )
    assert (code, err) == (0, "")
    if json_mode:
        assert json.loads(out, parse_int=str)["payload"]["result"] == [bigger]
    else:
        assert f"result: [{bigger}]" in out.splitlines()
    code, out, err = run_cli(
        capsys, "partition", "step", "--type", "C", "--parts", f"{nines},{nines}", "--n", "1",
        "--variant", "i", *flags,
    )
    message = f"variant i at n=1 leaves type C: ({bigger}, {nines})"
    assert code == 2
    if json_mode:
        assert (json.loads(out)["payload"]["error"], err) == (message, "")
    else:
        assert (out, err) == ("", f"error: {message}\n")
    assert sys.get_int_max_str_digits() == before


def test_partition_step_without_n(capsys):
    code, _, err = run_cli(capsys, "partition", "step", "--type", "C", "--parts", "2,2")
    assert code == 2
    assert "--n" in err


def test_partition_validate_parity_failure_is_an_answer(capsys):
    code, doc, _ = run_json(capsys, "partition", "validate", "--type", "C", "--parts", "1,1,1")
    assert code == 0
    assert doc["payload"]["valid"] is False


def test_partition_malformed_parts(capsys):
    code, _, err = run_cli(capsys, "partition", "validate", "--type", "C", "--parts", "2,3")
    assert code == 2
    assert "nonincreasing" in err
    code, _, err = run_cli(capsys, "partition", "special", "--type", "B", "--parts", "x")
    assert code == 2
    # a long malformed list is quoted only in part
    code, _, err = run_cli(capsys, "partition", "special", "--type", "C", "--parts", "1," * 1000 + "x")
    assert code == 2
    assert "--parts must be comma-separated integers, got '1,1,1," in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "special", "--type", "C", "--parts", "9" * 5000],
        ["partition", "special", "--type", "C", "--parts", "4,2," + "9" * 5000],
        ["delta", "--system", "E7", "--levi", "1," + "9" * 5000],
    ],
)
def test_integer_past_the_digit_limit_is_named(capsys, argv):
    # int() refuses strings of more than sys.get_int_max_str_digits() digits;
    # that is a size limit, not a malformed list, and the echo stays short
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"at most {sys.get_int_max_str_digits()} digits" in err
    assert "5000 digits" in err
    assert "comma-separated" not in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "special", "--type", "C", "--parts", "3,x"],
        ["partition", "step", "--type", "C", "--parts", "1,1", "--n", "x"],
        ["delta", "--system", "E7", "--levi", "1,x"],
    ],
)
def test_a_malformed_entry_is_refused_without_the_digit_cap_api(capsys, monkeypatch, argv):
    # Python 3.10.0 to 3.10.6 have no cap on int() and neither sys function
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "n, phrase",
    [
        ("9" * 5000, f"at most {sys.get_int_max_str_digits()} digits"),
        ("1" + "0" * 30, f"no larger than sys.maxsize = {sys.maxsize}"),
        ("1,2", "--n must be an integer, got '1,2'"),
    ],
)
def test_partition_step_n_is_one_bounded_integer(capsys, n, phrase):
    # neither echoes a 5000-digit value nor reaches [2] * n with n = 10^30
    # (an OverflowError)
    code, out, err = run_cli(capsys, "partition", "step", "--type", "C", "--parts", "1,1", "--n", n)
    assert code == 2
    assert out == ""
    assert phrase in err
    assert err.count("\n") == 1 and len(err) < 300
    assert "Traceback" not in err


@pytest.mark.parametrize("action", ["sources", "rigid-special-source"])
@pytest.mark.parametrize("json_mode", [False, True])
def test_a_source_script_past_sys_maxsize_is_one_error_line(capsys, action, json_mode):
    # (10^20,) has one gap of 10^20, so its script would need 5 * 10^19
    # steps, more than sys.maxsize: refused before any list, not an
    # OverflowError from [step] * count
    argv = ("partition", action, "--type", "C", "--parts", "1" + "0" * 20)
    message = f"a step script must have at most sys.maxsize = {sys.maxsize} steps, got a count of 66 bits"
    if json_mode:
        code, doc, err = run_json(capsys, *argv)
        assert (code, err) == (2, "")
        assert doc == {"status": "error", "payload": {"error": message}, "diagnostics": []}
    else:
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # an --n below sys.maxsize can still need more memory than there is;
    # stand in for that allocation rather than attempt it
    def exhausted(orbit, n, variant=None):
        raise MemoryError

    monkeypatch.setattr("nilorb.cli.elementary_step", exhausted)
    argv = ("partition", "step", "--type", "C", "--parts", "1,1", "--n", "1000000000")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: out of memory\n")
    code, doc, err = run_json(capsys, *argv)
    assert code == 1 and err == ""
    assert doc == {"status": "error", "payload": {"error": "out of memory"}, "diagnostics": []}


def test_partition_invalid_orbit_rejected_outside_validate(capsys):
    # (1,1,1) has odd total, so it is not a C orbit; 'special' must refuse it
    code, _, err = run_cli(capsys, "partition", "special", "--type", "C", "--parts", "1,1,1")
    assert code == 2
    assert "not a valid" in err


def test_partition_sources_script(capsys):
    code, doc, _ = run_json(capsys, "partition", "sources", "--type", "C", "--parts", "4,4")
    assert code == 0
    assert {"parts": [], "script": [[2, "i"], [2, "i"]]} in doc["payload"]["sources"]


def test_partition_rigid_special_source(capsys):
    code, doc, _ = run_json(
        capsys, "partition", "rigid-special-source", "--type", "B", "--parts", "5,3,1"
    )
    assert code == 0
    assert doc["payload"]["source"] == [1, 1, 1]
    assert doc["payload"]["script"] == [[2, "i"], [1, "i"]]


def test_partition_long_chain_c_2400(capsys):
    code, doc, _ = run_json(
        capsys, "partition", "rigid-special-source", "--type", "C", "--parts", "2400"
    )
    assert code == 0
    assert doc["payload"]["source"] == []
    assert len(doc["payload"]["script"]) == 1200


def test_partition_special_of_a_huge_part(capsys):
    # the transpose of (1000000001,) has a billion parts; specialness must
    # not build it
    start = time.perf_counter()
    code, doc, _ = run_json(capsys, "partition", "special", "--type", "B", "--parts", "1000000001")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert doc["payload"]["special"] is True
    assert elapsed < 0.5


# --- delta ---------------------------------------------------------------------


def test_delta_preset_e7(capsys):
    code, doc, _ = run_json(capsys, "delta", "--preset", "E7:A2+A1")
    assert code == 0
    payload = doc["payload"]
    assert payload["verdict"] == "integral"
    assert len(payload["roots_pairing_one"]) == 12
    reference = payload["reference"]
    assert reference["clean"] is False  # the known recorded-pairing mismatch
    flagged = [mc for mc in reference["member_checks"] if mc["matches"] is False]
    assert len(flagged) == 1 and flagged[0]["expected_pairing"] == 16


def test_delta_preset_e8(capsys):
    code, doc, _ = run_json(capsys, "delta", "--preset", "E8:A4+2A1")
    assert code == 0
    payload = doc["payload"]
    assert payload["verdict"] == "non-integral"
    member_pairings = [mc["pairing"] for mc in payload["reference"]["member_checks"]]
    assert member_pairings == [35, 23]


def test_delta_json_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "delta", "--preset", "E8:A4+2A1", "--json")
    _, out2, _ = run_cli(capsys, "delta", "--preset", "E8:A4+2A1", "--json")
    assert out1 == out2


def test_delta_explicit_levi_matches_preset(capsys):
    _, via_preset, _ = run_json(capsys, "delta", "--preset", "E7:A2+A1")
    _, explicit, _ = run_json(capsys, "delta", "--system", "E7", "--levi", "1,2,6")
    preset_payload = dict(via_preset["payload"])
    preset_payload.pop("reference")
    assert explicit["payload"] == preset_payload


def test_delta_full_levi_is_vacuously_integral(capsys):
    code, doc, _ = run_json(capsys, "delta", "--system", "E7", "--levi", "all")
    assert code == 0
    assert doc["payload"]["verdict"] == "integral"
    assert doc["payload"]["torus_basis"] == []


def test_delta_argument_validation(capsys):
    code, _, _ = run_cli(capsys, "delta")
    assert code == 2
    code, _, _ = run_cli(capsys, "delta", "--preset", "E7:A2+A1", "--system", "E7", "--levi", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "delta", "--system", "E7", "--levi", "0,3")
    assert code == 2
    code, _, err = run_cli(capsys, "delta", "--system", "E8", "--levi", "1,two")
    assert code == 2
    assert err == "error: --levi must be comma-separated labels or 'all', got '1,two'\n"


def test_delta_unknown_preset_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["delta", "--preset", "E9:X"])
    assert excinfo.value.code == 2


# --- atlas ---------------------------------------------------------------------


def test_atlas_query_record(capsys):
    code, doc, _ = run_json(capsys, "atlas", "query", "--group", "E8", "--label", "A_4+2A_1")
    assert code == 0
    payload = doc["payload"]
    assert payload["in_e3"] is True
    assert payload["levi_descriptor"] == [1, 2, 3, 4, 7, 8]
    assert payload["provenance"]["in_e3"].startswith("paper §")
    _, out, _ = run_cli(capsys, "atlas", "query", "--group", "E8", "--label", "A_4+2A_1")
    assert "levi_descriptor: [1, 2, 3, 4, 7, 8]\n" in out


def test_atlas_query_not_found_suggests(capsys):
    code, doc, _ = run_json(capsys, "atlas", "query", "--group", "E8", "--label", "A4+2A1")
    assert code == 2
    assert doc["status"] == "error"
    assert "A_4+2A_1" in doc["payload"]["suggestions"]
    # text mode: nothing on stdout, the error and then the suggestions on stderr
    code, out, err = run_cli(capsys, "atlas", "query", "--group", "E8", "--label", "A_4+2A_2x")
    suggestions = "A_4+2A_1, A_4+A_3, A_4+A_1, A_3+A_2, A_3+2A_1"
    assert (code, out) == (2, "")
    assert err == (
        f"error: no orbit 'A_4+2A_2x' in E8 (did you mean: {suggestions}?)\n"
        f"did you mean: {suggestions}\n"
    )


def test_atlas_query_unknown_group(capsys):
    code, _, err = run_cli(capsys, "atlas", "query", "--group", "E9", "--label", "A_1")
    assert code == 2
    assert "unknown group" in err


def test_atlas_check_shipped_data(capsys):
    code, doc, _ = run_json(capsys, "atlas", "check")
    assert code == 0
    assert doc["payload"]["all_passed"] is True
    assert [c["id"] for c in doc["payload"]["checks"]] == [f"C{i}" for i in range(1, 8)]


def test_atlas_check_missing_record_fails_checks(capsys, tmp_path):
    doc = json.loads(default_atlas_text())
    doc["records"] = [
        r for r in doc["records"] if (r["group"], r["label"]) != ("G2", "Ã_1")
    ]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    code, out, _ = run_json(capsys, "atlas", "check", "--data", str(path))
    assert code == 1
    failed = {c["id"] for c in out["payload"]["checks"] if not c["passed"]}
    assert "C1" in failed  # e1 loses a member


def test_atlas_check_contradictory_data_refused_at_load(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "atlas", "check", "--data", corrupt_atlas_file(tmp_path))
    assert code == 1
    assert doc["status"] == "error"
    assert "contradicts" in doc["payload"]["error"]


def test_atlas_list_filter_and_validation(capsys):
    code, doc, _ = run_json(capsys, "atlas", "list", "--group", "G2")
    assert code == 0
    assert doc["payload"]["count"] == 2
    code, _, _ = run_cli(capsys, "atlas", "list", "--group", "XX")
    assert code == 2


@pytest.mark.parametrize("action", [("list",), ("query", "--label", "A_1")])
def test_atlas_unknown_group_is_one_usage_error(capsys, action):
    # list and query share one group check, and so one message
    code, out, err = run_cli(capsys, "atlas", *action, "--group", "E9")
    assert (code, out) == (2, "")
    assert err == "error: unknown group 'E9'; expected one of G2, F4, E6, E7, E8\n"


@pytest.mark.parametrize("via", ["--data", "ORBIT_ATLAS_PATH"])
@pytest.mark.parametrize(
    "content",
    [
        default_atlas_text().encode("utf-8").replace("Ã".encode("utf-8"), b"\xff", 1),
        b"[" * 200_000,
    ],
    ids=["not-utf8", "deep-nesting"],
)
def test_atlas_check_unreadable_file_is_one_line_error(
    capsys, tmp_path, monkeypatch, via, content
):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = ["atlas", "check"]
    if via == "--data":
        argv += ["--data", str(path)]
    else:
        monkeypatch.setenv(via, str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_atlas_env_var_and_data_precedence(capsys, tmp_path, monkeypatch):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    monkeypatch.setenv("ORBIT_ATLAS_PATH", str(broken))

    code, doc, _ = run_json(capsys, "atlas", "check")
    assert code == 1
    assert doc["status"] == "error"

    good = tmp_path / "good.json"
    good.write_text(default_atlas_text(), encoding="utf-8")
    code, doc, _ = run_json(capsys, "atlas", "check", "--data", str(good))
    assert code == 0
    assert doc["payload"]["all_passed"] is True


@pytest.mark.parametrize("action", ["list", "check", "query"])
def test_an_empty_data_flag_is_refused_not_read_as_unset(capsys, tmp_path, monkeypatch, action):
    # the variable names a valid file, so ignoring the flag would exit 0
    other = tmp_path / "other.json"
    other.write_text(default_atlas_text(), encoding="utf-8")
    monkeypatch.setenv("ORBIT_ATLAS_PATH", str(other))
    code, out, err = run_cli(capsys, "atlas", action, "--group", "G2", "--label", "A_1", "--data", "")
    assert (code, out) == (2, "")
    assert err == "error: --data must name an atlas file, got ''\n"


def test_an_empty_atlas_variable_counts_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("ORBIT_ATLAS_PATH", "")
    code, doc, _ = run_json(capsys, "atlas", "list", "--group", "G2")
    assert (code, doc["payload"]["count"]) == (0, 2)


def test_atlas_query_payload_is_the_raw_record(capsys):
    records = json.loads(default_atlas_text())["records"]
    assert len(records) == 63
    for raw in records:
        code, doc, _ = run_json(
            capsys, "atlas", "query", "--group", raw["group"], "--label", raw["label"]
        )
        assert code == 0
        assert doc["payload"] == {"comment": None, **raw}


# --- selftest ------------------------------------------------------------------


def test_selftest_passes_and_prints_table(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "9/9 criteria passed" in out
    assert "expected:" in out and "actual:" in out


def test_selftest_corrupted_atlas_names_failing_criterion(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORBIT_ATLAS_PATH", corrupt_atlas_file(tmp_path))
    code, doc, _ = run_json(capsys, "selftest")
    assert code == 1
    by_id = {c["id"]: c for c in doc["payload"]["criteria"]}
    assert by_id["8"]["passed"] is False
    assert by_id["8"]["name"] == "atlas-consistency"
    assert doc["payload"]["passed"] == 8


def test_selftest_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "selftest", "--json")
    _, out2, _ = run_cli(capsys, "selftest", "--json")
    assert out1 == out2


# --- entry point ----------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nilorb", "partition", "special", "--type", "D", "--parts", "2,2,1,1", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["special"] is True


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["selftest"],
        ["atlas", "list"],
        ["delta", "--preset", "E7:A2+A1", "--json"],
    ],
)
def test_closed_stdout_exits_1_without_traceback(argv, unbuffered):
    # the read end is closed before the child starts, as after `| head -n 0`;
    # buffered stdout fails at the flush, unbuffered stdout at the first print
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nilorb", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


# --- README commands against the benchmark's golden stdout ------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def readme_commands() -> dict:
    # perfbench/workloads.py imports no nilorb, so loading it by path is cheap
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.README_COMMANDS


def test_readme_commands_match_the_golden_stdout(capsys):
    golden = json.loads((PERFBENCH / "golden" / "cli_commands.json").read_text(encoding="utf-8"))
    commands = readme_commands()
    assert sorted(commands) == sorted(golden) and len(golden) == 13
    for name, argv in commands.items():
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0, name
        assert out == golden[name], name


def test_readme_commands_in_text_mode_match_the_reference_renderer(capsys):
    # the text stdout of each README command is its golden JSON payload as
    # the reference renderer in tests/oracles.py prints it; selftest prints
    # its table instead
    golden = json.loads((PERFBENCH / "golden" / "cli_commands.json").read_text(encoding="utf-8"))
    commands = readme_commands()
    assert len(commands) == 13
    for name, argv in commands.items():
        payload = json.loads(golden[name])["payload"]
        if name == "selftest":
            expected = _selftest_table(payload)
        else:
            expected = "\n".join(reference_text_lines(payload))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), name
        assert out == expected + "\n", name
