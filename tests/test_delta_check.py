"""Integrality pipeline tests.

The two presets have every intermediate frozen: h, the pairing-one root set,
kappa, the canonical torus basis, the basis pairings, and the verdict.  On
top of that, invariance properties that the criterion silently relies on are
exercised directly (basis independence, representative independence,
orthogonality, and saturation of the torus lattice in a small box).
"""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    COWEIGHT_ORDERS,
    check_echelon_against_reference,
    coefficient_table,
    lattice_contains_mod_ones,
    mat_mul,
    qadd,
    qv,
)

from nilorb import delta_check, exact_linalg, root_system
from nilorb.delta_check import (
    PRESETS,
    central_torus_lattice,
    delta_verdict,
    kappa_weight,
    preset_report,
    principal_h,
    roots_pairing_one,
)
from nilorb.errors import InputError, IntegrityError
from nilorb.exact_linalg import IntMatrix, LatticeBasis, kernel_lattice, lattice_contains
from nilorb.root_system import (
    LeviSubsystem,
    QuotientVector,
    RootSystem,
    build_root_system,
    coroot,
    coroot_lattice,
    levi_subsystem,
    pair,
)


# --- E7 preset ------------------------------------------------------------------

def test_e7_h_and_root_count():
    rs = build_root_system("E7")
    levi = levi_subsystem(rs, (1, 2, 6))
    h = principal_h(levi)
    assert h == qv(2, 0, -2, 0, 0, 1, -1, 0)
    roots = roots_pairing_one(rs, h)
    assert len(roots) == 12
    assert qv(1, 0, 0, 0, 0, -1, 0, 0) in roots
    assert qv(0, 0, 0, 0, 0, 0, -1, 1) in roots
    assert qv(0, 0, 0, 1, 1, 1, 0, 1) in roots


def test_e7_kappa():
    rs = build_root_system("E7")
    h = principal_h(levi_subsystem(rs, (1, 2, 6)))
    assert kappa_weight(rs, h) == qv(5, 4, 1, 4, 4, 3, -1, 8)


def test_e7_torus_basis_and_verdict():
    report = delta_verdict("E7", (1, 2, 6))
    assert report.torus_basis == (
        (1, 1, 1, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 1, 0),
        (0, 0, 0, 0, 2, 1, 1, 0),
        (0, 0, 0, 0, 0, 2, 2, 0),
    )
    assert report.pairings == (0, -4, -4, -10)
    assert report.verdict == "integral"
    assert report.torus_rank == 4


def test_e7_reference_comparison_flags_the_known_mismatch():
    report = preset_report("E7:A2+A1")
    ref = report.reference
    assert ref is not None
    assert ref.h_matches and ref.roots_match and ref.kappa_matches
    assert ref.verdict_matches and ref.torus_rank_matches
    assert [mc.in_lattice for mc in ref.member_checks] == [True] * 4
    assert [mc.pairing for mc in ref.member_checks] == [-14, 18, 14, 18]
    assert [mc.matches for mc in ref.member_checks] == [True, True, True, False]
    assert ref.member_checks[3].expected_pairing == 16
    assert ref.member_checks[3].note
    assert not ref.clean


# --- E8 preset ------------------------------------------------------------------

def test_e8_h_and_root_count():
    rs = build_root_system("E8")
    levi = levi_subsystem(rs, (1, 2, 3, 4, 7, 8))
    h = principal_h(levi)
    assert h == qv(4, 2, 0, -2, -4, 1, 2, 0, 0)
    roots = roots_pairing_one(rs, h)
    assert len(roots) == 14
    assert qv(0, 0, 0, 0, 0, 1, 0, -1, 0) in roots
    assert qv(0, 0, -1, 0, 0, 0, 0, -1, -1) in roots


def test_roots_pairing_one_refuses_an_h_of_the_other_system():
    # the one dimension check in front of the raw-coordinate pairings
    h7 = principal_h(levi_subsystem(build_root_system("E7"), (1, 2, 6)))
    with pytest.raises(InputError, match=r"^dimension mismatch: 8 vs 9$"):
        roots_pairing_one(build_root_system("E8"), h7)


def test_e8_kappa_matches_reference_mod_ones():
    rs = build_root_system("E8")
    h = principal_h(levi_subsystem(rs, (1, 2, 3, 4, 7, 8)))
    kap = kappa_weight(rs, h)
    assert kap.coords == (8, 8, 7, 6, 6, 6, 7, 6, 0)
    assert kap == qv(2, 2, 1, 0, 0, 0, 1, 0, -6)


def test_e8_torus_basis_and_verdict():
    report = delta_verdict("E8", (1, 2, 3, 4, 7, 8))
    assert report.torus_basis == (
        (2, 2, 2, 2, 2, 1, 2, 2, 0),
        (0, 0, 0, 0, 0, 2, -1, -1, 0),
    )
    assert report.pairings == (12, -1)
    assert report.verdict == "non-integral"
    assert report.torus_rank == 2


def test_e8_reference_comparison_is_clean():
    report = preset_report("E8:A4+2A1")
    ref = report.reference
    assert ref is not None
    assert ref.clean
    assert [mc.pairing for mc in ref.member_checks] == [35, 23]
    assert [mc.in_lattice for mc in ref.member_checks] == [True, True]


# --- structural properties ---------------------------------------------------------

def test_principal_h_rejects_empty_levi():
    rs = build_root_system("E7")
    with pytest.raises(InputError):
        principal_h(levi_subsystem(rs, ()))


def test_unknown_preset_rejected():
    with pytest.raises(InputError):
        preset_report("E6:A1")


def test_torus_rank_complements_levi_rank():
    cases = [("E7", (1,)), ("E7", (3, 5)), ("E7", (1, 2, 6)), ("E8", (2, 4, 6, 8))]
    for name, levi_idx in cases:
        rs = build_root_system(name)
        torus = central_torus_lattice(levi_subsystem(rs, levi_idx))
        assert torus.rank == rs.rank - len(levi_idx)


def test_a_torus_of_the_wrong_rank_is_an_integrity_error():
    # E7 with a coweight table whose seven entries are one order-1 vector:
    # outside a rank-1 Levi they span a lattice of rank 1, not 6
    rs = build_root_system("E7")
    (_, v), *_ = rs.coweights
    bad = RootSystem(*rs._field_values(rs)[:-1], ((1, v),) * 7)
    with pytest.raises(IntegrityError, match="torus lattice rank 1, expected 6"):
        central_torus_lattice(levi_subsystem(bad, (1,)))


def test_full_levi_gives_trivial_torus_and_vacuous_verdict():
    report = delta_verdict("E7", tuple(range(1, 8)))
    assert report.torus_basis == ()
    assert report.pairings == ()
    assert report.verdict == "integral"


def test_torus_vectors_centralize_the_levi():
    for preset, (name, levi_idx) in PRESETS.items():
        rs = build_root_system(name)
        levi = levi_subsystem(rs, levi_idx)
        torus = central_torus_lattice(levi)
        lattice = coroot_lattice(name)
        for v in torus.vectors:
            w = QuotientVector(v)
            assert lattice_contains_mod_ones(lattice, w)
            for root in levi.positive_roots:
                assert pair(root, w) == 0


def assert_e7_torus_saturated_in_small_box(levi_idx):
    # every box vector meeting all defining constraints must already lie in
    # the computed lattice; a finite-index error would show up here
    rs = build_root_system("E7")
    torus = central_torus_lattice(levi_subsystem(rs, levi_idx))
    simples = [rs.simple_roots[i - 1] for i in levi_idx]
    hits = 0
    for cand in itertools.product((-1, 0, 1), repeat=7):
        v = cand + (0,)
        if sum(v) % 4 != 0:
            continue
        w = QuotientVector(v)
        if any(pair(a, w) != 0 for a in simples):
            continue
        hits += 1
        assert lattice_contains(torus, v) is not None, v
    assert hits > 1  # the box is not vacuous


def test_e7_torus_lattice_is_saturated_in_small_box():
    assert_e7_torus_saturated_in_small_box((1, 2, 6))


def test_e7_torus_lattice_is_saturated_with_every_order_two_coweight_outside():
    # labels 1, 3 and 7 are the coweights of order 2 modulo the coroot
    # lattice; all three lie outside this Levi, so the torus needs the
    # half-sums omega_3 + omega_1 and omega_7 + omega_1, not just 2 * omega_j
    assert_e7_torus_saturated_in_small_box((2, 4, 5, 6))


def test_verdict_is_basis_independent():
    rng = random.Random(29)
    for preset, (name, levi_idx) in PRESETS.items():
        report = delta_verdict(name, levi_idx)
        vectors = [list(v) for v in report.torus_basis]
        n = len(vectors)
        for _ in range(30):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-2, 2)
            vectors[i] = [a + q * b for a, b in zip(vectors[i], vectors[j])]
        pairings = [pair(report.kappa, QuotientVector(tuple(v))) for v in vectors]
        same = all(isinstance(p, int) and p % 2 == 0 for p in pairings)
        assert same == (report.verdict == "integral")


def test_kappa_representative_does_not_change_pairings():
    report = delta_verdict("E8", (1, 2, 3, 4, 7, 8))
    shifted = qadd(report.kappa, QuotientVector((1,) * 9))
    for v, expected in zip(report.torus_basis, report.pairings):
        assert pair(shifted, QuotientVector(v)) == expected


def test_payload_is_json_ready_and_stable():
    report = preset_report("E8:A4+2A1")
    payload = report.to_payload()
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert json.dumps(report.to_payload(), indent=2, sort_keys=True) == text
    assert payload["verdict"] == "non-integral"
    assert payload["kappa"] == [8, 8, 7, 6, 6, 6, 7, 6, 0]
    assert payload["reference"]["clean"] is True


# --- golden oracle over every Levi ------------------------------------------------

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "levi_sweep.json"


def test_every_levi_matches_the_golden_sweep():
    # the golden file was written by the ambient-coordinate construction, so
    # it is an independent oracle for the Cartan-kernel torus stage
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    totals = Counter()
    for key, expected in golden["levis"].items():
        system, labels = key.split(":")
        report = delta_verdict(system, tuple(int(i) for i in labels.split(",")))
        assert report.verdict == expected["verdict"], key
        assert [list(v) for v in report.torus_basis] == expected["torus_basis"], key
        totals[f"{system} {report.verdict}"] += 1
    assert len(golden["levis"]) == 382
    assert totals == Counter(golden["totals"]) == Counter(
        {"E7 integral": 94, "E7 non-integral": 33, "E8 integral": 151, "E8 non-integral": 104}
    )
    for preset, payload in golden["presets"].items():
        assert json.dumps(preset_report(preset).to_payload(), sort_keys=True) == payload


# --- ambient-coordinate oracle for the table-based stages --------------------------
#
# The stages as they ran before the integer tables: every coroot checked and
# added as a QuotientVector, pairings through ``pair``, the torus through
# ``kernel_lattice``, and Levi members found by scanning coefficients.  The
# coefficients come from the descent in tests/oracles.py, each pairing is a
# dot product with them, and the torus is the integer kernel of the Levi's
# Cartan rows, so nothing here reads the growth tree, the support masks or
# the stored fundamental coweights.


def oracle_levi_members(rs, indices):
    allowed = set(indices)
    table = coefficient_table(rs)
    return tuple(
        root
        for root in rs.positive_roots
        if all(c == 0 or (k + 1) in allowed for k, c in enumerate(table[root]))
    )


def oracle_principal_h(levi):
    zero = QuotientVector((0,) * levi.system.ambient_dim)
    return qadd(zero, *(coroot(root) for root in levi.positive_roots))


def oracle_roots_pairing_one(rs, h):
    on_simples = [pair(h, coroot(alpha)) for alpha in rs.simple_roots]
    table = coefficient_table(rs)
    return tuple(
        r
        for r in rs.positive_roots
        if sum(c * v for c, v in zip(table[r], on_simples)) == 1
    )


def oracle_central_torus_lattice(levi):
    rs = levi.system
    cartan = rs.cartan
    rows = [cartan[i - 1] for i in levi.indices]
    coeffs = kernel_lattice(IntMatrix.from_rows(rows, cols=rs.rank))
    simples = IntMatrix.from_rows([a.coords for a in rs.simple_roots])
    ambient = mat_mul(IntMatrix.from_rows(coeffs.vectors, cols=rs.rank), simples)
    result = LatticeBasis(rs.ambient_dim, tuple(ambient.to_rows()))
    if result.rank != rs.rank - levi.rank:
        raise IntegrityError("torus lattice rank")
    return result


def all_levis():
    for name, rank in (("E7", 7), ("E8", 8)):
        for k in range(1, rank + 1):
            yield from ((name, idx) for idx in itertools.combinations(range(1, rank + 1), k))


def test_each_verdict_runs_one_untracked_hnf_and_no_tracked_one(monkeypatch):
    # the canonical torus basis is the only HNF left on the verdict path
    build_root_system("E7")
    build_root_system("E8")
    calls = Counter()
    echelon = exact_linalg._echelon

    def counting(h, cols):
        # a row wider than cols carries columns, as the transform of an HNF does
        calls[any(len(row) > cols for row in h)] += 1
        return echelon(h, cols)

    monkeypatch.setattr(exact_linalg, "_echelon", counting)
    levis = list(all_levis())
    for name, idx in levis:
        delta_verdict(name, idx)
    assert calls == Counter({False: len(levis)})


def test_echelon_matches_the_reference_kernel_on_every_torus(monkeypatch):
    # the torus generators of each Levi, reduced plain and with the identity
    # appended by the one loop, and untracked and tracked by the reference
    # kernel; h and u must be identical, not merely span one lattice
    build_root_system("E7")
    build_root_system("E8")
    echelon = exact_linalg._echelon
    seen = []

    def compared(h, cols):
        check_echelon_against_reference(echelon, h, cols)
        seen.append(len(h))
        return echelon(h, cols)

    monkeypatch.setattr(exact_linalg, "_echelon", compared)
    levis = list(all_levis())
    for name, idx in levis:
        central_torus_lattice(levi_subsystem(build_root_system(name), idx))
    assert len(seen) == len(levis) == 382


def test_table_stages_match_the_ambient_oracle_on_every_levi():
    checked = 0
    for name, idx in all_levis():
        rs = build_root_system(name)
        levi = levi_subsystem(rs, idx)
        assert levi.positive_roots == oracle_levi_members(rs, idx), idx
        oracle_levi = LeviSubsystem(rs, idx, oracle_levi_members(rs, idx))

        h = oracle_principal_h(oracle_levi)
        roots = oracle_roots_pairing_one(rs, h)
        kappa = qadd(QuotientVector((0,) * rs.ambient_dim), *roots)
        torus = oracle_central_torus_lattice(oracle_levi)
        pairings = tuple(pair(kappa, QuotientVector(v)) for v in torus.vectors)
        ok = all(isinstance(p, int) and p % 2 == 0 for p in pairings)
        verdict = "integral" if ok else "non-integral"

        assert principal_h(levi).coords == h.coords, idx
        assert [r.coords for r in roots_pairing_one(rs, h)] == [r.coords for r in roots], idx
        assert kappa_weight(rs, h).coords == kappa.coords, idx
        assert central_torus_lattice(levi) == torus, idx

        report = delta_verdict(name, idx)
        assert report.h.coords == h.coords, idx
        assert [r.coords for r in report.roots_pairing_one] == [r.coords for r in roots], idx
        assert report.kappa.coords == kappa.coords, idx
        assert report.torus_basis == torus.vectors, idx
        assert report.pairings == pairings, idx
        assert all(type(p) is int for p in report.pairings), idx
        assert report.verdict == verdict, idx
        checked += 1
    assert checked == 382


# --- the verdict as a parity of kappa's simple-root coefficients --------------------
#
# kappa pairs with the fundamental coweight omega_j to its alpha_j
# coefficient c_j.  The torus of L is spanned by omega_j for the order-1
# labels j outside L, by 2 omega_j for the order-2 ones, and by
# omega_j + omega_j0 for two order-2 ones, so its evenness is a parity of the
# c_j.  The coefficients come from the descent in tests/oracles.py, and the
# orders are written out there, so nothing here reads the growth tree or the
# stored coweights.


def test_verdict_is_a_parity_of_kappa_coefficients_on_every_levi():
    tables = {name: coefficient_table(build_root_system(name)) for name in COWEIGHT_ORDERS}
    verdicts = Counter()
    for name, idx in all_levis():
        report = delta_verdict(name, idx)
        rows = [tables[name][root] for root in report.roots_pairing_one]
        c = [sum(row[j] for row in rows) for j in range(len(COWEIGHT_ORDERS[name]))]
        outside = [j for j in range(len(c)) if j + 1 not in idx]
        order_two = [j for j in outside if COWEIGHT_ORDERS[name][j] == 2]
        odd = [j for j in outside if COWEIGHT_ORDERS[name][j] == 1 and c[j] % 2]
        odd += [j for j in order_two[1:] if (c[j] + c[order_two[0]]) % 2]
        assert report.verdict == ("non-integral" if odd else "integral"), (name, idx)
        verdicts[report.verdict] += 1
    assert sum(verdicts.values()) == 382 and set(verdicts) == {"integral", "non-integral"}


# --- d-scaled pairings against the divided form ---------------------------------------


@st.composite
def systems_and_fraction_h(draw):
    """A system and an h with Fraction coordinates over denominators 1, 2, 3
    and d: a random Levi's h or zero, shifted along all-ones, plus either
    nothing or a coordinate-wise offset."""
    rs = build_root_system(draw(st.sampled_from(("E7", "E8"))))
    d = rs.ambient_dim
    fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, d)))
    levi = draw(st.lists(st.integers(1, rs.rank), unique=True, max_size=rs.rank))
    base = principal_h(levi_subsystem(rs, levi)).coords if levi else (0,) * d
    shift = draw(fractions)
    offset = draw(st.one_of(st.just((0,) * d), st.lists(fractions, min_size=d, max_size=d)))
    return rs, QuotientVector(tuple(b + shift + e for b, e in zip(base, offset)))


@settings(max_examples=150, deadline=None)
@given(systems_and_fraction_h())
def test_scaled_pairings_pick_the_roots_that_pair_to_one(system_and_h):
    rs, h = system_and_h
    expected = tuple(root for root in rs.positive_roots if pair(h, root) == 1)
    assert roots_pairing_one(rs, h) == expected


def test_every_torus_pairing_is_the_divided_form_in_value_and_type():
    checked = 0
    for name, idx in all_levis():
        report = delta_verdict(name, idx)
        expected = [pair(report.kappa, QuotientVector(v)) for v in report.torus_basis]
        assert list(report.pairings) == expected, (name, idx)
        assert [type(p) for p in report.pairings] == [type(p) for p in expected], (name, idx)
        checked += 1
    assert checked == 382


def test_one_verdict_builds_one_levi_two_vectors_one_lattice_and_pairs_nothing(monkeypatch):
    # the traced metrics count these constructions and calls; a second path
    # for the verdict that skipped them would read 0 there
    build_root_system("E7")
    build_root_system("E8")
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in (QuotientVector, LatticeBasis):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(LeviSubsystem, "__init__", counted("LeviSubsystem", LeviSubsystem.__init__))
    for module in (root_system, delta_check):
        monkeypatch.setattr(module, "pair", counted("pair", pair))
    for name, idx in (("E7", (1, 2, 6)), ("E8", (1, 2, 3, 4, 6, 8)), ("E8", (5,))):
        counts.clear()
        delta_verdict(name, idx)
        assert counts == Counter({"LeviSubsystem": 1, "QuotientVector": 2, "LatticeBasis": 1})


def test_a_preset_comparison_builds_one_lattice_for_all_its_members(monkeypatch):
    # the torus, then the torus plus the all-ones line, asked once per member
    build_root_system("E7")
    build_root_system("E8")
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(LatticeBasis, "__post_init__", counted("LatticeBasis", LatticeBasis.__post_init__))
    monkeypatch.setattr(delta_check, "lattice_contains", counted("lattice_contains", lattice_contains))
    for preset, members in (("E7:A2+A1", 4), ("E8:A4+2A1", 2)):
        counts.clear()
        report = preset_report(preset)
        assert len(report.reference.member_checks) == members
        assert counts == Counter({"LatticeBasis": 2, "lattice_contains": members}), preset
