"""Atlas loading, querying and consistency-check tests.

The fault-injection sweep at the bottom is the load-bearing guarantee: every
primary-source flag on every record, when silently negated, must trip at
least one consistency check.
"""

import inspect
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb import orbit_atlas
from nilorb.errors import AtlasLoadError, InputError, OrbitNotFoundError
from nilorb.orbit_atlas import (
    _RECORD_KEYS,
    CODIM4_BOUNDARY_MEMBERS,
    E1_MEMBERS,
    E2_MEMBERS,
    E3_MEMBERS,
    SMOOTH_LOCUS_FAILURES,
    CheckResult,
    ExceptionalOrbitRecord,
    check_consistency,
    default_atlas_text,
    flip_field,
    load_atlas,
    paper_provenanced_fields,
    query,
)

CHECK_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


@pytest.fixture(scope="module")
def atlas():
    return load_atlas()


def write_atlas(tmp_path, doc):
    target = tmp_path / "atlas.json"
    target.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return target


def raw_doc():
    return json.loads(default_atlas_text())


# --- loading ---------------------------------------------------------------------

def package_copy(tmp_path) -> tuple[Path, dict]:
    """A copy of the package named ``nilorb_copy`` under ``tmp_path``, and an
    environment whose path finds it before the real package."""
    package = Path(orbit_atlas.__file__).parent
    copy = tmp_path / "nilorb_copy"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(package.parent)]))
    return copy, env


def test_a_renamed_copy_of_the_package_reads_its_own_data_file(tmp_path):
    # the copy is importable beside nilorb under another name; it must read
    # the data file it carries, not nilorb's
    copy, env = package_copy(tmp_path)
    data = copy / "data" / "exceptional_orbits.json"
    text = data.read_text(encoding="utf-8")
    edited = text.replace('"A_4+2A_1"', '"A_4+2A_1, edited"', 1)
    assert edited != text
    data.write_text(edited, encoding="utf-8")
    code = (
        "import sys\nfrom nilorb_copy.orbit_atlas import default_atlas_text\n"
        "sys.stdout.buffer.write(default_atlas_text().encode('utf-8'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stdout.decode("utf-8") == edited


@pytest.mark.parametrize("fault", ["missing", "not-utf8"])
def test_a_fault_in_the_packaged_data_file_is_one_error_line(tmp_path, fault):
    # the packaged file is read as a given path is, so a missing or non-UTF-8
    # data file ends atlas check and selftest in AtlasLoadError, not a traceback
    copy, env = package_copy(tmp_path)
    data = copy / "data" / "exceptional_orbits.json"
    if fault == "missing":
        data.unlink()
    else:
        data.write_bytes(data.read_bytes().replace("Ã".encode("utf-8"), b"\xff", 1))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-S", "-m", "nilorb_copy", *argv],
            capture_output=True, text=True, env=env,
        )

    check = run("atlas", "check")
    assert (check.returncode, check.stdout) == (1, "")
    assert check.stderr.startswith(f"error: cannot read atlas file {data}: ")
    assert check.stderr.count("\n") == 1 and "Traceback" not in check.stderr

    selftest = run("selftest", "--json")
    assert selftest.returncode == 1 and "Traceback" not in selftest.stderr
    criteria = json.loads(selftest.stdout)["payload"]["criteria"]
    (atlas_criterion,) = [c for c in criteria if c["id"] == "8"]
    assert atlas_criterion["passed"] is False
    assert atlas_criterion["actual"].startswith(
        f"raised AtlasLoadError: cannot read atlas file {data}: "
    )


@pytest.mark.parametrize(
    "given, shown", [("./missing.json", "missing.json"), ("a//missing.json", "a/missing.json")]
)
def test_a_given_path_is_named_as_pathlib_spells_it(tmp_path, monkeypatch, given, shown):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(AtlasLoadError) as exc:
        load_atlas(given)
    assert str(exc.value) == (
        f"cannot read atlas file {shown}: [Errno 2] No such file or directory: '{shown}'"
    )


def test_a_path_with_a_nul_byte_cannot_be_read(tmp_path):
    # open() refuses such a name with ValueError, not OSError
    for path in ("a\x00b", tmp_path / "a\x00b"):
        with pytest.raises(AtlasLoadError, match="^cannot read atlas file .*: embedded null byte$"):
            load_atlas(path)


def test_default_atlas_shape(atlas):
    assert len(atlas) == 63
    by_group = {}
    for r in atlas:
        by_group[r.group] = by_group.get(r.group, 0) + 1
    assert by_group == {"G2": 2, "F4": 6, "E6": 9, "E7": 14, "E8": 32}


def test_explicit_path_load_matches_default(tmp_path, atlas):
    target = write_atlas(tmp_path, raw_doc())
    assert load_atlas(target) == atlas


def test_missing_file_raises():
    with pytest.raises(AtlasLoadError):
        load_atlas("/nonexistent/atlas.json")


def test_malformed_json_raises(tmp_path):
    target = tmp_path / "atlas.json"
    target.write_text("{not json", encoding="utf-8")
    with pytest.raises(AtlasLoadError):
        load_atlas(target)


def test_wrong_top_level_raises(tmp_path):
    with pytest.raises(AtlasLoadError):
        load_atlas(write_atlas(tmp_path, [{"group": "G2"}]))
    with pytest.raises(AtlasLoadError):
        load_atlas(write_atlas(tmp_path, {"records": [], "extra": 1}))


def test_unknown_field_rejected(tmp_path):
    doc = raw_doc()
    doc["records"][0]["surprise"] = True
    with pytest.raises(AtlasLoadError) as exc:
        load_atlas(write_atlas(tmp_path, doc))
    assert "surprise" in str(exc.value)
    assert exc.value.record is not None


def test_missing_field_rejected(tmp_path):
    doc = raw_doc()
    del doc["records"][0]["in_e1"]
    with pytest.raises(AtlasLoadError):
        load_atlas(write_atlas(tmp_path, doc))


def test_record_fields_run_in_record_key_order():
    # the parser builds records positionally and a check's row builder
    # unpacks them positionally, both in _RECORD_KEYS order
    names = tuple(inspect.signature(ExceptionalOrbitRecord).parameters)
    assert names == _RECORD_KEYS + ("comment",)
    record = ExceptionalOrbitRecord(*names)
    assert tuple(getattr(record, name) for name in names) == names


def test_duplicate_orbit_rejected(tmp_path):
    doc = raw_doc()
    doc["records"].append(dict(doc["records"][0]))
    with pytest.raises(AtlasLoadError) as exc:
        load_atlas(write_atlas(tmp_path, doc))
    assert "duplicate" in str(exc.value)


def test_bad_provenance_prefix_rejected(tmp_path):
    doc = raw_doc()
    doc["records"][0]["provenance"]["in_e1"] = "hearsay"
    with pytest.raises(AtlasLoadError):
        load_atlas(write_atlas(tmp_path, doc))
    # provenance is for flags only, not for any other record field
    doc = raw_doc()
    doc["records"][0]["provenance"]["label"] = "paper §2.3 proof"
    with pytest.raises(AtlasLoadError, match="provenance for unknown field 'label'"):
        load_atlas(write_atlas(tmp_path, doc))


def test_provenance_must_track_non_null_flags(tmp_path):
    doc = raw_doc()
    # provenance entry for a null flag
    rec = next(r for r in doc["records"] if r["is_special"] is None)
    rec["provenance"]["is_special"] = "paper §2.3 proof"
    with pytest.raises(AtlasLoadError):
        load_atlas(write_atlas(tmp_path, doc))
    doc = raw_doc()
    # non-null flag without provenance
    del doc["records"][0]["provenance"]["codim4_boundary"]
    with pytest.raises(AtlasLoadError):
        load_atlas(write_atlas(tmp_path, doc))


def test_rigid_without_birigid_rejected(tmp_path):
    doc = raw_doc()
    rec = next(r for r in doc["records"] if r["is_rigid"] is True)
    rec["is_birationally_rigid"] = None
    del rec["provenance"]["is_birationally_rigid"]
    with pytest.raises(AtlasLoadError) as exc:
        load_atlas(write_atlas(tmp_path, doc))
    assert "is_rigid" in str(exc.value)


def test_levi_descriptor_validation(tmp_path):
    doc = raw_doc()
    rec = next(r for r in doc["records"] if r["group"] == "G2")
    rec["levi_descriptor"] = [1]
    with pytest.raises(AtlasLoadError):
        load_atlas(write_atlas(tmp_path, doc))
    doc = raw_doc()
    rec = next(r for r in doc["records"] if r["levi_descriptor"] is not None)
    rec["levi_descriptor"] = [0, 2]
    with pytest.raises(AtlasLoadError):
        load_atlas(write_atlas(tmp_path, doc))


def test_tampered_flag_rejected_at_load(tmp_path):
    doc = raw_doc()
    rec = next(r for r in doc["records"] if r["group"] == "G2" and r["label"] == "Ã_1")
    rec["in_e1"] = False
    with pytest.raises(AtlasLoadError) as exc:
        load_atlas(write_atlas(tmp_path, doc))
    assert "contradicts" in str(exc.value)


@pytest.mark.parametrize(
    "content, phrase",
    [
        (default_atlas_text().encode("utf-8").replace(b"\xc3\x83", b"\xff", 1), "cannot read"),
        (b"[" * 200_000, "nested too deeply"),
        (b'{"records": [' + b"1" * 5000 + b"]}", "not valid JSON"),  # past int()'s digit limit
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_unreadable_file_rejected(tmp_path, content, phrase):
    target = tmp_path / "atlas.json"
    target.write_bytes(content)
    with pytest.raises(AtlasLoadError) as exc:
        load_atlas(target)
    assert phrase in str(exc.value)


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 10),
    st.floats(allow_nan=True),
    st.text(max_size=6),
    st.lists(st.integers(-1, 9), max_size=4),
    st.dictionaries(st.text(max_size=4), st.one_of(st.booleans(), st.text(max_size=4)), max_size=3),
)
BAD_UTF8 = (b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80", b"\xf0\x9f")


@st.composite
def mutated_atlas_bytes(draw):
    """The packaged atlas with keys dropped or retyped, then perhaps truncated
    or spliced with bytes that are not UTF-8."""
    doc = raw_doc()
    records = doc["records"]
    for _ in range(draw(st.integers(0, 3))):
        raw = records[draw(st.integers(0, len(records) - 1))]
        key = draw(st.sampled_from(sorted(raw) + ["surprise"]))
        if draw(st.booleans()):
            raw.pop(key, None)
        else:
            raw[key] = draw(JSON_VALUES)
    top = draw(st.sampled_from(["keep", "list", "extra", "records"]))
    if top == "list":
        doc = records
    elif top == "extra":
        doc["extra"] = draw(JSON_VALUES)
    elif top == "records":
        doc["records"] = draw(JSON_VALUES)
    data = json.dumps(doc, ensure_ascii=draw(st.booleans())).encode("utf-8")
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_UTF8)) + data[at:]
    return data


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "atlas.json"


@settings(max_examples=150, deadline=None)
@given(data=mutated_atlas_bytes())
def test_loader_returns_records_or_atlas_load_error(fuzz_file, data):
    fuzz_file.write_bytes(data)
    try:
        records = load_atlas(fuzz_file)
    except AtlasLoadError:
        return
    assert isinstance(records, tuple)
    assert all(isinstance(r, ExceptionalOrbitRecord) for r in records)


# --- record content ----------------------------------------------------------------

def test_e_lists_match_embedded_sets(atlas):
    assert {r.key for r in atlas if r.in_e1} == E1_MEMBERS
    assert {r.key for r in atlas if r.in_e2} == E2_MEMBERS
    assert {r.key for r in atlas if r.in_e3} == E3_MEMBERS


def test_embedded_list_sizes(atlas):
    assert len(E1_MEMBERS) == 6
    assert len(SMOOTH_LOCUS_FAILURES) == 13
    assert len(CODIM4_BOUNDARY_MEMBERS) == 36
    assert {r.key for r in atlas if r.fails_smooth_locus_codim4} == SMOOTH_LOCUS_FAILURES
    assert {r.key for r in atlas if r.codim4_boundary} == CODIM4_BOUNDARY_MEMBERS


def test_e2_e3_members_are_special(atlas):
    for r in atlas:
        if r.in_e2 or r.in_e3:
            assert r.is_special is True, r


def test_levi_descriptors_present(atlas):
    with_levi = {r.key: r.levi_descriptor for r in atlas if r.levi_descriptor}
    assert with_levi == {
        ("E7", "A_2+A_1"): (1, 2, 6),
        ("E8", "A_4+2A_1"): (1, 2, 3, 4, 7, 8),
    }


def test_dedup_comment_is_recorded(atlas):
    record = query(atlas, "E8", "D_4(a_1)+A_1")
    assert record.comment and "twice" in record.comment


def test_provenance_access(atlas):
    record = query(atlas, "E8", "A_4+2A_1")
    provenance = dict(record.provenance)
    assert provenance["in_e3"] == "paper §1.2"
    assert provenance["is_special"] == "paper §2.3 proof"
    assert "nonexistent" not in provenance
    assert "is_rigid" in paper_provenanced_fields(record)


# --- query ------------------------------------------------------------------------

def test_query_hit(atlas):
    record = query(atlas, "E7", "A_2+A_1")
    assert record.is_special is True
    assert record.is_rigid is False
    assert record.is_birationally_rigid is True


def test_query_miss_suggests(atlas):
    with pytest.raises(OrbitNotFoundError) as exc:
        query(atlas, "E8", "A4+2A1")
    assert "A_4+2A_1" in exc.value.suggestions


def test_query_miss_points_at_other_groups(atlas):
    with pytest.raises(OrbitNotFoundError) as exc:
        query(atlas, "G2", "E_7(a_4)")
    assert "E8:E_7(a_4)" in exc.value.suggestions


def test_query_unknown_group(atlas):
    with pytest.raises(InputError):
        query(atlas, "E9", "A_1")


def test_query_with_a_label_that_is_not_a_string_is_input_error(atlas):
    # a miss hands the label to difflib, which cannot read an int; the label
    # is refused first, and an int past the print cap is printed whole
    before = sys.get_int_max_str_digits()
    for label, shown in ((10, "10"), (None, "None"), (10**5000, "1" + "0" * 5000)):
        with pytest.raises(InputError) as exc:
            query(atlas, "E8", label)
        assert str(exc.value) == f"orbit label must be a string, got {shown}"
    assert sys.get_int_max_str_digits() == before


# --- checks -----------------------------------------------------------------------

def test_all_checks_pass_on_default_atlas(atlas):
    results = check_consistency(atlas)
    assert tuple(r.check_id for r in results) == CHECK_IDS
    assert all(r.passed for r in results), [
        (r.check_id, r.details) for r in results if not r.passed
    ]


def test_checks_are_order_independent(atlas):
    forward = check_consistency(atlas)
    backward = check_consistency(tuple(reversed(atlas)))
    assert [(r.check_id, r.passed) for r in forward] == [
        (r.check_id, r.passed) for r in backward
    ]


HASHSEED_PAYLOAD = """
import json
from nilorb import orbit_atlas
from nilorb.orbit_atlas import check_consistency, flip_field, load_atlas, paper_provenanced_fields
records = list(load_atlas())
flips = [(i, f) for i, r in enumerate(records) for f in paper_provenanced_fields(r)]
for index, field in flips[::7]:
    records[index] = flip_field(records[index], field)
print(json.dumps([r.to_payload() for r in check_consistency(records)], ensure_ascii=False))
print(json.dumps(orbit_atlas._KEYS, ensure_ascii=False))
"""


def test_check_output_does_not_depend_on_the_hash_seed(tmp_path):
    # the embedded keys take their slots in sorted order, not in the
    # frozensets' order, which the hash seed changes; neither the slot table
    # nor the sorted messages may change with the seed
    doc = raw_doc()
    fields = ("codim4_boundary", "fails_smooth_locus_codim4", "in_e1", "in_e2", "in_e3")
    for index, raw in enumerate(doc["records"][::4]):
        field = fields[index % len(fields)]
        if raw[field] is not None:
            raw[field] = not raw[field]
            raw["provenance"][field] = "external: re-cited, so the loader accepts the flip"
    for raw in doc["records"]:
        if raw["group"] in ("G2", "F4") and raw["label"] == "A_1":
            raw["is_rigid"] = not raw["is_rigid"]
    target = write_atlas(tmp_path, doc)
    package_parent = str(Path(orbit_atlas.__file__).parent.parent)
    outputs = []
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_parent)
        payload = subprocess.run(
            [sys.executable, "-c", HASHSEED_PAYLOAD], capture_output=True, env=env
        )
        check = subprocess.run(
            [sys.executable, "-m", "nilorb", "atlas", "check", "--json", "--data", str(target)],
            capture_output=True, env=env,
        )
        assert payload.returncode == 0, payload.stderr
        assert (check.returncode, check.stderr) == (1, b"")
        results, slot_order = payload.stdout.splitlines()
        outputs.append((results, check.stdout, slot_order))
    assert len({(results, check) for results, check, _ in outputs}) == 1
    assert len({slot_order for _, _, slot_order in outputs}) == 1
    failed = [c["id"] for c in json.loads(outputs[0][0]) if not c["passed"]]
    assert failed == list(CHECK_IDS)
    shown = json.loads(outputs[0][1])["payload"]["checks"]
    assert [c["id"] for c in shown if not c["passed"]] == ["C1", "C2", "C4", "C5", "C7"]


@pytest.mark.parametrize("command", [("atlas", "check"), ("selftest",)], ids="-".join)
def test_the_packaged_check_and_selftest_print_the_same_bytes_under_two_hash_seeds(command):
    package_parent = str(Path(orbit_atlas.__file__).parent.parent)
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_parent)
        run = subprocess.run(
            [sys.executable, "-m", "nilorb", *command, "--json"], capture_output=True, env=env
        )
        assert run.returncode == 0 and b"Traceback" not in run.stderr, run.stderr
        runs.append(run.stdout)
    assert runs[0] == runs[1] and json.loads(runs[0])


def test_c6_uses_injected_runner(atlas):
    calls = []

    def liar(group, indices):
        calls.append((group, indices))
        return "non-integral"

    results = {r.check_id: r for r in check_consistency(atlas, delta_runner=liar)}
    assert ("E7", (1, 2, 6)) in calls
    assert ("E8", (1, 2, 3, 4, 7, 8)) in calls
    assert not results["C6"].passed
    assert "E7:A_2+A_1" in results["C6"].details


def test_c6_surfaces_runner_errors(atlas):
    def broken(group, indices):
        raise RuntimeError("torus misbehaved")

    results = {r.check_id: r for r in check_consistency(atlas, delta_runner=broken)}
    assert not results["C6"].passed
    assert "torus misbehaved" in results["C6"].details


def test_flip_field_requires_boolean(atlas):
    record = query(atlas, "G2", "A_1")
    with pytest.raises(InputError):
        flip_field(record, "is_special")  # null there
    with pytest.raises(InputError):
        flip_field(record, "no_such_flag")


def test_e1_flip_breaks_two_checks(atlas):
    target = query(atlas, "G2", "Ã_1")
    mutated = tuple(
        flip_field(r, "in_e1") if r.key == target.key else r for r in atlas
    )
    results = {r.check_id: r for r in check_consistency(mutated)}
    assert not results["C1"].passed
    assert not results["C7"].passed


def test_a_passing_check_returns_one_shared_result(atlas):
    names = (
        "e1-characterization",
        "nonrigid-birigid-quadruple",
        "rigid-implies-birigid",
        "smooth-locus-failures",
        "codim4-boundary-list",
        "delta-verdict-cross-check",
        "e-list-coherence",
    )
    first, second = check_consistency(atlas), check_consistency(atlas)
    for a, b, check_id, name in zip(first, second, CHECK_IDS, names, strict=True):
        assert a is b and a == CheckResult(check_id, name, True, "")


def test_a_failing_check_builds_a_new_result_on_every_call(atlas):
    shared = check_consistency(atlas)
    target = query(atlas, "G2", "Ã_1")
    mutated = tuple(
        flip_field(r, "in_e1") if r.key == target.key else r for r in atlas
    )
    first, second = check_consistency(mutated), check_consistency(mutated)
    assert [r.check_id for r in first if not r.passed] == ["C1", "C7"]
    for a, b, passing in zip(first, second, shared):
        if a.passed:
            assert a is b is passing
        else:
            assert a is not b and a == b


def test_only_two_packaged_rows_have_rare_parts(atlas):
    # the rare parts are the C3 break, the e-list problems, the C6 entry and
    # the conformance issues; only the two records with a Levi have any
    rare = [r.key for r in atlas if r._check_row.rare is not None]
    assert len(atlas) == 63
    assert rare == [("E7", "A_2+A_1"), ("E8", "A_4+2A_1")]


def test_every_primary_flag_flip_is_caught(atlas):
    # the full fault-injection sweep: each paper-cited flag on each record
    flips = 0
    for target in atlas:
        for field in paper_provenanced_fields(target):
            mutated = tuple(
                flip_field(r, field) if r.key == target.key else r for r in atlas
            )
            results = check_consistency(mutated)
            assert any(not c.passed for c in results), (target.key, field)
            flips += 1
    assert flips > 300  # the sweep really covered the table


def test_each_record_row_is_built_once(monkeypatch, cold_atlas):
    builds = []
    build = orbit_atlas._record_row

    def counting(record):
        builds.append(record.key)
        return build(record)

    monkeypatch.setattr(orbit_atlas, "_record_row", counting)
    # a cold load builds every record's row, for its conformance issues
    records = load_atlas()
    assert sorted(builds) == sorted(r.key for r in records) and len(builds) == 63
    assert all("_check_row" in vars(r) for r in records)
    builds.clear()
    # a reload of the same file reuses the records with their rows, and
    # checks read those rows
    assert all(a is b for a, b in zip(load_atlas(), records))
    check_consistency(records)
    assert builds == []

    flipped = []
    for index, record in enumerate(records):
        for field in paper_provenanced_fields(record):
            mutated = list(records)
            mutated[index] = flip_field(record, field)
            assert "_check_row" not in vars(mutated[index])
            flipped.append(mutated)
    assert len(flipped) == 376
    for _ in range(2):
        for mutated in flipped:
            check_consistency(mutated)
    # each flipped copy's row once, in the first round
    assert len(builds) == 376

    # the cached row is no field: a record with its row equals, hashes,
    # pickles and serializes as a copy without one
    names = tuple(inspect.signature(type(records[0])).parameters)
    assert names == _RECORD_KEYS + ("comment",)
    for record in records:
        copy = type(record)(*(getattr(record, name) for name in names))
        back = pickle.loads(pickle.dumps(record))
        assert "_check_row" in vars(record)
        assert "_check_row" not in vars(copy) and "_check_row" not in vars(back)
        assert copy == record == back and hash(copy) == hash(record) == hash(back)
        assert copy.to_payload() == record.to_payload()
    # an emptied table makes the load fresh: new records, equal to the old
    cold_atlas()
    cold = load_atlas()
    assert not any(a is b for a, b in zip(cold, records))
    assert records == cold and hash(records) == hash(cold)
