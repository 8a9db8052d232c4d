"""Root system construction tests.

The simple roots and their labels are asserted against values worked out by
hand from the defining coordinate families; nothing here trusts the
derivation code it is checking.
"""

import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decompose, derive_simple_roots, qadd, reference_simple_roots

from nilorb import root_system
from nilorb.errors import CapabilityError, InputError, IntegrityError
from nilorb.delta_check import delta_verdict
from nilorb.exact_linalg import IntMatrix, LatticeBasis, lattice_contains
from nilorb.orbit_partitions import partitions_of
from nilorb.root_system import (
    QuotientVector,
    build_root_system,
    coroot,
    diagram_arms,
    coroot_lattice,
    lattice_contains_mod_ones,
    levi_subsystem,
    pair,
)


def qv(*coords):
    return QuotientVector(tuple(coords))


def eps_diff(dim, i, j):
    c = [0] * dim
    c[i - 1], c[j - 1] = 1, -1
    return QuotientVector(tuple(c))


def growth_rows(rs):
    """Coefficient rows rebuilt from the growth tree: a simple root's row is
    its unit row, and every other row is its parent's plus one in column k."""
    rows = [None] * len(rs.positive_roots)
    for child, parent, k in rs.growth:
        row = [0] * rs.rank if parent == -1 else list(rows[parent])
        row[k] += 1
        rows[child] = tuple(row)
    return tuple(rows)


# --- quotient vectors ----------------------------------------------------------

def test_ones_is_zero_in_quotient():
    zero = qv(0, 0, 0, 0, 0, 0, 0, 0)
    assert qv(1, 1, 1, 1, 1, 1, 1, 1) == zero
    assert qv(1, 1, 1, 1, 1, 1, 1, 0) != zero


def test_equality_mod_ones():
    a = qv(2, 0, 0, 0, 0, 0, 0, 0)
    b = qv(1, -1, -1, -1, -1, -1, -1, -1)
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical_coords == (2, 0, 0, 0, 0, 0, 0, 0)


def test_fractional_shift_is_still_equal():
    a = qv(Fraction(1, 2), 0, 0)
    b = qadd(a, QuotientVector((Fraction(1, 3),) * 3))
    assert a == b


SCALARS = st.one_of(
    st.integers(-60, 60), st.fractions(min_value=-60, max_value=60, max_denominator=12)
)


@settings(max_examples=100, deadline=None)
@given(coords=st.lists(SCALARS, min_size=1, max_size=9), shift=SCALARS)
def test_a_shift_along_all_ones_is_the_same_quotient_vector(coords, shift):
    a = QuotientVector(tuple(coords))
    b = QuotientVector(tuple(c + shift for c in coords))
    assert a == b and hash(a) == hash(b)
    canon = a.canonical_coords
    assert canon == tuple(c - coords[-1] for c in coords)
    # the same values of the same types, so the same repr
    assert repr(b) == repr(a) == f"QuotientVector({canon!r})"
    assert b.canonical_coords == canon and canon[-1] == 0
    assert all(type(c) is int for c in canon if Fraction(c).denominator == 1)


def test_coordinate_and_dim_checks():
    a = qv(1, 0, -1)
    with pytest.raises(InputError):
        pair(a, qv(1, 0))
    with pytest.raises(InputError):
        QuotientVector((1.5, 0))
    with pytest.raises(InputError, match="empty coordinate tuple"):
        QuotientVector(())


# --- the pairing ----------------------------------------------------------------

def test_pair_small_cases():
    a = eps_diff(8, 1, 2)
    b = eps_diff(8, 2, 3)
    assert pair(a, a) == 2
    assert pair(a, b) == -1
    assert pair(a, eps_diff(8, 3, 4)) == 0


def test_pair_returns_fraction_when_non_integral():
    x = qv(1, 0, 0, 0, 0, 0, 0, 0)
    assert pair(x, x) == Fraction(7, 8)
    # Fraction coordinates, against the form in direct Fraction arithmetic;
    # an integral value still comes back as an int
    half = Fraction(1, 2)
    for xs, ys in [
        ((half, 0, -half), (1, 2, 0)),
        ((half, half, 0), (half, -half, 0)),
        ((Fraction(1, 3), 0, 0, 0), (Fraction(3, 2), 0, 0, 0)),
    ]:
        direct = sum(map(mul, xs, ys)) - sum(xs) * sum(ys) / len(xs)
        got = pair(qv(*xs), qv(*ys))
        assert got == direct
        assert type(got) is (int if direct.denominator == 1 else Fraction)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=8, max_size=8),
    st.lists(st.integers(-5, 5), min_size=8, max_size=8),
    st.integers(-4, 4),
)
def test_pair_descends_to_quotient(xs, ys, t):
    x = QuotientVector(tuple(xs))
    y = QuotientVector(tuple(ys))
    shifted = QuotientVector(tuple(c + t for c in xs))
    assert pair(shifted, y) == pair(x, y)
    assert pair(x, y) == pair(y, x)


# --- construction ----------------------------------------------------------------

def test_unknown_system_rejected():
    for bad in ("E6", "F4", "G2", "A1", "e7", ""):
        with pytest.raises(CapabilityError):
            build_root_system(bad)


def test_positive_root_counts():
    assert len(build_root_system("E7").positive_roots) == 63
    assert len(build_root_system("E8").positive_roots) == 120


def test_all_roots_have_norm_two_and_selfdual_coroot():
    for name in ("E7", "E8"):
        rs = build_root_system(name)
        for r in rs.positive_roots:
            assert pair(r, r) == 2
            assert coroot(r) == r


def test_coroot_rejects_wrong_norm():
    with pytest.raises(InputError):
        coroot(qv(1, 0, 0, 0, 0, 0, 0, 0))


def test_build_is_cached():
    assert build_root_system("E7") is build_root_system("E7")


def test_e7_simple_roots_and_labels():
    rs = build_root_system("E7")
    expected = [eps_diff(8, i, i + 1) for i in range(1, 7)]
    expected.append(qv(0, 0, 0, 0, 1, 1, 1, 1))
    assert list(rs.simple_roots) == expected


def test_e8_simple_roots_and_labels():
    rs = build_root_system("E8")
    expected = [eps_diff(9, i, i + 1) for i in range(1, 8)]
    expected.append(qv(0, 0, 0, 0, 0, 1, 1, 1, 0))
    assert list(rs.simple_roots) == expected


def test_e8_sum_detection_works_in_quotient():
    # raw coordinates suggest this root is simple; in the quotient it is the
    # sum of two triples, so it must not be derived as simple
    rs = build_root_system("E8")
    r = qv(-1, -1, 0, 0, 0, 0, 0, 0, -1)
    assert r in rs.positive_roots
    assert r == qv(0, 0, 1, 1, 1, 1, 1, 1, 0)
    assert r not in rs.simple_roots
    s = qadd(qv(0, 0, 1, 1, 1, 0, 0, 0, 0), qv(0, 0, 0, 0, 0, 1, 1, 1, 0))
    assert s == r


def test_cartan_matrices_have_e_series_shape():
    for name, branch, arms in (("E7", 4, (3, 2, 1)), ("E8", 5, (4, 2, 1))):
        rs = build_root_system(name)
        cm = rs.cartan
        n = rs.rank
        for i in range(n):
            assert cm[i][i] == 2
            for j in range(n):
                if i != j:
                    assert cm[i][j] in (0, -1)
                    assert cm[i][j] == cm[j][i]
        degrees = [sum(1 for j in range(n) if j != i and cm[i][j] == -1) for i in range(n)]
        assert degrees.count(3) == 1
        assert degrees[branch - 1] == 3
        # walking away from the branch vertex yields the advertised arm lengths
        neighbors = {
            i: [j for j in range(n) if j != i and cm[i][j] == -1] for i in range(n)
        }
        lengths = []
        for start in neighbors[branch - 1]:
            length, prev, cur = 1, branch - 1, start
            while True:
                nxt = [v for v in neighbors[cur] if v != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            lengths.append(length)
        assert sorted(lengths, reverse=True) == list(arms)


def simply_laced(n, bonds):
    """Cartan matrix with 2 on the diagonal and -1 on each listed bond."""
    cm = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        cm[i][j] = cm[j][i] = -1
    return cm


D5_BONDS = [(0, 1), (1, 2), (2, 3), (2, 4)]


def test_diagram_arms_of_t_shaped_trees():
    e7 = simply_laced(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
    e8 = simply_laced(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)])
    assert diagram_arms(e7) == (3, 2, 1)
    assert diagram_arms(e8) == (4, 2, 1)
    assert diagram_arms(simply_laced(5, D5_BONDS)) == (2, 1, 1)


def test_diagram_arms_rejects_other_shapes():
    chain = simply_laced(7, [(i, i + 1) for i in range(6)])
    two_branches = simply_laced(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    cycle = simply_laced(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # a bond seen from one end only: read row-wise, it still looks like D5
    non_symmetric = simply_laced(5, D5_BONDS)
    non_symmetric[0][1] = 0
    # an extra doubly-laced edge between two leaves of D5
    double_bond = simply_laced(5, D5_BONDS)
    double_bond[3][4] = double_bond[4][3] = -2
    for cm in (chain, two_branches, cycle, non_symmetric, double_bond):
        assert diagram_arms(cm) is None


def test_build_checks_the_diagram_shape(monkeypatch):
    build_root_system.cache_clear()
    dim, count, _, generate = root_system._REALIZATIONS["E7"]
    monkeypatch.setitem(root_system._REALIZATIONS, "E7", (dim, count, (2, 2, 2), generate))
    try:
        with pytest.raises(IntegrityError):
            build_root_system("E7")
    finally:
        build_root_system.cache_clear()


# --- the build against the quotient-vector oracle ------------------------------------
#
# tests/oracles.py holds the quotient-vector build that the integer-tuple build
# replaced: every pairwise sum as a QuotientVector, then coefficients peeled
# off by descent through pair().  The fast build is checked against it here.


def oracle_fields(name):
    """The RootSystem fields the quotient-vector build gives."""
    ambient_dim, _, _, generate = root_system._REALIZATIONS[name]
    positives = tuple(generate())
    simples = derive_simple_roots(positives, ambient_dim - 1)
    pos_set = set(positives)
    table = {root: decompose(root, simples, pos_set) for root in positives}
    cartan = tuple(tuple(pair(a, b) for b in simples) for a in simples)
    rows = tuple(table[root] for root in positives)
    masks = tuple(sum(1 << i for i, c in enumerate(row) if c) for row in rows)
    return positives, simples, table, cartan, rows, masks


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_build_matches_the_quotient_vector_oracle(name):
    positives, simples, table, cartan, rows, masks = oracle_fields(name)
    rs = build_root_system(name)
    # QuotientVector equality is modulo the all-ones line; compare the raw
    # coordinates too, since coroot_lattice and the torus check read them
    assert [r.coords for r in rs.positive_roots] == [r.coords for r in positives]
    assert [r.coords for r in rs.simple_roots] == [r.coords for r in simples]
    assert list(zip(rs.positive_roots, growth_rows(rs))) == list(table.items())
    assert rs.cartan == cartan
    assert all(type(x) is int for row in rs.cartan for x in row)
    assert growth_rows(rs) == rows
    assert rs.support_masks == masks


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_early_exit_simple_roots_match_the_pairwise_oracle(name):
    ambient_dim, _, _, generate = root_system._REALIZATIONS[name]
    canon = [r.canonical_coords for r in generate()]
    rank = ambient_dim - 1
    expected = reference_simple_roots(canon, rank)
    assert root_system.derive_simple_roots(canon, rank) == expected
    rng = random.Random(104729)
    for _ in range(5):
        order = rng.sample(canon, len(canon))
        assert root_system.derive_simple_roots(order, rank) == expected
    # without one root the sets change: some composites lose their only
    # decomposition; both searches must agree on the outcome there too
    for dropped in rng.sample(range(len(canon)), 6):
        rest = canon[:dropped] + canon[dropped + 1:]
        outcomes = []
        for derive in (root_system.derive_simple_roots, reference_simple_roots):
            try:
                outcomes.append(derive(rest, rank))
            except IntegrityError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# --- every guard in the build is reachable --------------------------------------------


def e7_raw():
    return [r.coords for r in root_system._positive_roots_e7()]


# The A7 chain e1-e2, ..., e7-e8 with three sums added: e1-e3 = a1 + a2,
# e3-e5 = a3 + a4 and e1-e5 = (e1-e3) + (e3-e5).  All have norm 2, seven
# are simple, but e1-e5 is one simple root away from no member of the set,
# so the growth loop never reaches it.
UNREACHABLE = [eps_diff(8, i, i + 1).coords for i in range(1, 8)] + [
    eps_diff(8, i, j).coords for i, j in ((1, 3), (3, 5), (1, 5))
]

GUARDS = {
    "wrong count": (e7_raw()[:-1], 63, "enumerated 62 positive roots, expected 63"),
    # the first root again in place of the last, shifted along the all-ones
    # line: other raw coordinates, same quotient vector
    "duplicate": (
        e7_raw()[:-1] + [tuple(c + 1 for c in e7_raw()[0])],
        63,
        "repeats a root",
    ),
    "wrong norm": (e7_raw()[:-1] + [(1, 1, 0, 0, 0, 0, 0, 0)], 63, "root of wrong norm"),
    "simple count": (
        [eps_diff(8, i, i + 1).coords for i in range(1, 7)],
        6,
        "derived 6 simple roots, expected rank 7",
    ),
    "unreached": (UNREACHABLE, len(UNREACHABLE), "1 positive roots are not reached"),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_build_refuses_a_broken_realization(guard, monkeypatch):
    coords, count, message = GUARDS[guard]

    def generate():
        return [QuotientVector(c) for c in coords]

    monkeypatch.setitem(root_system._REALIZATIONS, "E7", (8, count, (3, 2, 1), generate))
    build_root_system.cache_clear()
    try:
        with pytest.raises(IntegrityError, match=message):
            build_root_system("E7")
    finally:
        build_root_system.cache_clear()


def test_coefficients_recombine_every_positive_root():
    for name in ("E7", "E8"):
        rs = build_root_system(name)
        columns = list(zip(*(alpha.coords for alpha in rs.simple_roots)))
        for root, coeffs in zip(rs.positive_roots, growth_rows(rs)):
            assert all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs)
            acc = QuotientVector(tuple(sum(map(mul, coeffs, column)) for column in columns))
            assert acc == root


def test_simple_roots_have_unit_coefficient_vectors():
    rs = build_root_system("E8")
    rows = dict(zip(rs.positive_roots, growth_rows(rs)))
    for k, alpha in enumerate(rs.simple_roots):
        assert rows[alpha] == tuple(1 if i == k else 0 for i in range(rs.rank))


def test_non_root_is_not_a_positive_root():
    rs = build_root_system("E7")
    assert qv(1, 1, 0, 0, 0, 0, 0, 0) not in rs.positive_roots


# --- the growth tree and the fundamental coweights ------------------------------------


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_growth_tree_reaches_every_root_once_from_an_earlier_parent(name):
    rs = build_root_system(name)
    assert sorted(child for child, _, _ in rs.growth) == list(range(len(rs.positive_roots)))
    reached = set()
    for child, parent, k in rs.growth:
        alpha = rs.simple_roots[k].canonical_coords
        if parent == -1:
            expected = alpha
        else:
            assert parent in reached, (child, parent)
            expected = tuple(map(add, rs.positive_roots[parent].canonical_coords, alpha))
        assert rs.positive_roots[child].canonical_coords == expected, (child, parent, k)
        reached.add(child)


COWEIGHT_ORDERS = {"E7": (2, 1, 2, 1, 1, 1, 2), "E8": (1,) * 8}


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_stored_coweights_are_primitive_coroot_lattice_multiples(name):
    rs = build_root_system(name)
    lattice = coroot_lattice(name)
    assert tuple(m for m, _ in rs.coweights) == COWEIGHT_ORDERS[name]
    for j, (m, v) in enumerate(rs.coweights):
        w = QuotientVector(v)
        assert w.coords == w.canonical_coords
        assert [pair(w, alpha) for alpha in rs.simple_roots] == [m * (i == j) for i in range(rs.rank)]
        assert lattice_contains_mod_ones(lattice, w)
        # a proper fraction v/d of a canonical vector is integral only when d
        # divides every entry, and then it must lie outside the lattice
        g = math.gcd(*v)
        for d in range(2, g + 1):
            if g % d == 0:
                assert not lattice_contains_mod_ones(lattice, QuotientVector(tuple(x // d for x in v))), (j, d)


def test_a_cold_build_takes_each_coweight_from_one_kernel_lattice(monkeypatch):
    calls = Counter()
    kernel = root_system.kernel_lattice

    def counting(m):
        calls[m.cols] += 1
        return kernel(m)

    monkeypatch.setattr(root_system, "kernel_lattice", counting)
    build_root_system.cache_clear()
    try:
        orders = {name: tuple(m for m, _ in build_root_system(name).coweights) for name in ("E7", "E8")}
    finally:
        build_root_system.cache_clear()
    assert calls == Counter({7: 7, 8: 8})
    assert orders == COWEIGHT_ORDERS


def patched_e7_cartan(drop):
    """E7's Cartan matrix with the bond between labels ``drop`` removed."""
    cartan = [list(row) for row in build_root_system("E7").cartan]
    i, j = (label - 1 for label in drop)
    cartan[i][j] = cartan[j][i] = 0
    return cartan


@pytest.mark.parametrize(
    "drop, message",
    [
        # E6 + A1: the E6 coweights have order 3 modulo the coroot lattice
        ((1, 2), "has order 3"),
        # D6 + A1: every order is 1 or 2, but the order-2 coweights fall in
        # more than one class
        ((5, 6), "are not in the coroot lattice"),
    ],
)
def test_coweights_refuse_a_coroot_lattice_of_index_above_two(drop, message):
    simples = [a.canonical_coords for a in build_root_system("E7").simple_roots]
    with pytest.raises(IntegrityError, match=message):
        root_system._coweights(patched_e7_cartan(drop), simples)


# --- levi subsystems --------------------------------------------------------------

def test_levi_e7_a2_plus_a1():
    rs = build_root_system("E7")
    levi = levi_subsystem(rs, (1, 2, 6))
    assert levi.rank == 3
    expected = {
        eps_diff(8, 1, 2),
        eps_diff(8, 2, 3),
        eps_diff(8, 1, 3),
        eps_diff(8, 6, 7),
    }
    assert set(levi.positive_roots) == expected


def test_levi_e8_a4_plus_2a1():
    rs = build_root_system("E8")
    levi = levi_subsystem(rs, (1, 2, 3, 4, 7, 8))
    assert levi.rank == 6
    assert len(levi.positive_roots) == 12
    a4_part = {eps_diff(9, i, j) for i, j in itertools.combinations(range(1, 6), 2)}
    assert a4_part <= set(levi.positive_roots)
    assert eps_diff(9, 7, 8) in levi.positive_roots
    assert qv(0, 0, 0, 0, 0, 1, 1, 1, 0) in levi.positive_roots


def test_levi_validation():
    rs = build_root_system("E7")
    with pytest.raises(InputError):
        levi_subsystem(rs, (0,))
    with pytest.raises(InputError):
        levi_subsystem(rs, (8,))
    with pytest.raises(InputError):
        levi_subsystem(rs, (1, 1))
    assert levi_subsystem(rs, ()).positive_roots == ()


def test_full_levi_recovers_all_positives():
    rs = build_root_system("E7")
    levi = levi_subsystem(rs, tuple(range(1, 8)))
    assert set(levi.positive_roots) == set(rs.positive_roots)


# --- coroot lattices ---------------------------------------------------------------

def test_e7_coroot_lattice_is_sum_divisible_by_four():
    basis = coroot_lattice("E7")
    rng = random.Random(11)
    for _ in range(200):
        v = tuple(rng.randint(-5, 5) for _ in range(8))
        member = lattice_contains(basis, v) is not None
        assert member == (sum(v) % 4 == 0), v


def test_e8_coroot_lattice_is_sum_divisible_by_three():
    basis = coroot_lattice("E8")
    rng = random.Random(12)
    for _ in range(200):
        v = tuple(rng.randint(-5, 5) for _ in range(9))
        member = lattice_contains(basis, v) is not None
        assert member == (sum(v) % 3 == 0), v


def test_ones_lies_in_both_coroot_lattices():
    assert lattice_contains(coroot_lattice("E7"), (1,) * 8) is not None
    assert lattice_contains(coroot_lattice("E8"), (1,) * 9) is not None


def test_membership_mod_ones():
    basis = coroot_lattice("E7")
    assert lattice_contains_mod_ones(basis, qv(5, 4, 1, 4, 4, 3, -1, 8))
    assert not lattice_contains_mod_ones(basis, qv(1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InputError):
        lattice_contains_mod_ones(basis, qv(Fraction(1, 2), 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InputError, match="dimension mismatch: 9 vs 8"):
        lattice_contains_mod_ones(basis, qv(1, 0, 0, 0, 0, 0, 0, 0, 0))


# more digits than str() prints by default
HUGE = 10**5000


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: levi_subsystem(build_root_system("E7"), (HUGE,)), id="levi-index"),
        pytest.param(lambda: levi_subsystem(build_root_system("E7"), (HUGE, HUGE)), id="levi-duplicate"),
        pytest.param(lambda: delta_verdict("E7", (1, HUGE)), id="delta-verdict"),
        pytest.param(lambda: coroot(qv(HUGE, 0)), id="coroot"),
        pytest.param(lambda: LatticeBasis(-HUGE), id="lattice-dim"),
        pytest.param(lambda: IntMatrix(-HUGE, 1, ()), id="matrix-dim"),
        pytest.param(lambda: IntMatrix(1, 1, (Fraction(HUGE),)), id="matrix-entry"),
        pytest.param(lambda: IntMatrix(1, 1, (1,)).row(HUGE), id="matrix-row"),
        pytest.param(lambda: next(partitions_of(-HUGE)), id="partitions-of"),
    ],
)
def test_an_integer_past_the_print_cap_is_refused_by_a_typed_error(call):
    # the message prints the integer whole, not a bare ValueError from str()
    before = sys.get_int_max_str_digits()
    with pytest.raises(InputError) as info:
        call()
    assert len(str(info.value)) > 5000
    assert sys.get_int_max_str_digits() == before
