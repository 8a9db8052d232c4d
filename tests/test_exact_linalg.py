"""Tests for exact_linalg.

Oracles live at the top and are deliberately naive: a fraction-free Bareiss
determinant, and brute-force enumerations of kernel vectors and lattice
membership over small coefficient boxes.  The fast implementations must agree
with them on every randomized instance.
"""

import itertools
import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import check_echelon_against_reference, mat_mul

from nilorb.errors import InputError
from nilorb.exact_linalg import (
    IntMatrix,
    LatticeBasis,
    _echelon,
    hermite_normal_form,
    kernel_lattice,
    lattice_contains,
)
from nilorb.orbit_partitions import ClassicalOrbit, partitions_of
from nilorb.root_system import QuotientVector


# --- oracles -----------------------------------------------------------------

def det_bareiss(rows):
    """Fraction-free determinant; exact for integer matrices."""
    n = len(rows)
    a = [list(map(Fraction, r)) for r in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return int(sign * a[n - 1][n - 1])


def kernel_by_search(m: IntMatrix, box: int = 3) -> set:
    """All kernel vectors of m with coordinates in [-box, box]."""
    found = set()
    for cand in itertools.product(range(-box, box + 1), repeat=m.cols):
        if all(
            sum(m.entries[i * m.cols + j] * cand[j] for j in range(m.cols)) == 0
            for i in range(m.rows)
        ):
            found.add(cand)
    return found


def member_by_search(gens, v, box: int = 4):
    """Does some integer combination of gens with |coeff| <= box equal v?"""
    if not gens:
        return all(x == 0 for x in v)
    for coeffs in itertools.product(range(-box, box + 1), repeat=len(gens)):
        acc = [0] * len(v)
        for c, g in zip(coeffs, gens):
            for j in range(len(v)):
                acc[j] += c * g[j]
        if tuple(acc) == tuple(v):
            return True
    return False


def is_hnf_shape(h: IntMatrix) -> bool:
    pivots = []
    seen_zero_row = False
    for i in range(h.rows):
        row = h.row(i)
        pc = next((j for j, x in enumerate(row) if x), -1)
        if pc < 0:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False  # zero rows must trail
        if pivots and pc <= pivots[-1][1]:
            return False  # pivot columns strictly increase
        if row[pc] <= 0:
            return False
        pivots.append((i, pc))
    for (i, pc) in pivots:
        p = h.row(i)[pc]
        for k in range(i):
            if not 0 <= h.row(k)[pc] < p:
                return False
        for k in range(i + 1, h.rows):
            if h.row(k)[pc] != 0:
                return False
    return True


# --- IntMatrix basics --------------------------------------------------------

def test_from_rows_and_accessors():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.row(1) == (4, 5, 6)
    assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]
    for i in (-1, 2):
        with pytest.raises(InputError, match=f"row index {i} out of range"):
            m.row(i)
    with pytest.raises(InputError, match="explicit column count disagrees"):
        IntMatrix.from_rows([[1, 2, 3]], cols=2)


@pytest.mark.parametrize("index", [True, "a", 0.0])
def test_a_row_index_is_an_integer(index):
    # True once read row 1, "a" failed the comparison and 0.0 the slice
    with pytest.raises(InputError, match=f"^row index {index} out of range$"):
        IntMatrix(2, 1, (1, 2)).row(index)


def test_empty_matrix_needs_explicit_cols():
    m = IntMatrix.from_rows([], cols=3)
    assert (m.rows, m.cols) == (0, 3)
    h, u = hermite_normal_form(m)
    assert h.rows == 0 and u.rows == 0


def test_rejects_ragged_and_nonint():
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1, 2.0]])
    with pytest.raises(InputError):
        IntMatrix.from_rows([[True, 0]])


def test_mat_mul_matches_by_hand():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[5, 6], [7, 8]])
    assert mat_mul(a, b).to_rows() == [[19, 22], [43, 50]]
    with pytest.raises(InputError):
        mat_mul(a, IntMatrix.from_rows([[1, 2, 3]]))


# --- HNF ---------------------------------------------------------------------

def test_hnf_collapses_dependent_rows():
    m = IntMatrix.from_rows([[2, 4], [4, 8]])
    h, u = hermite_normal_form(m)
    assert h.to_rows() == [[2, 4], [0, 0]]
    assert mat_mul(u, m).to_rows() == h.to_rows()


def test_hnf_of_identity_is_identity():
    m = IntMatrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    h, u = hermite_normal_form(m)
    assert h.to_rows() == m.to_rows()
    assert u.to_rows() == m.to_rows()


def test_hnf_reduces_above_pivot():
    m = IntMatrix.from_rows([[1, 7], [0, 3]])
    h, _ = hermite_normal_form(m)
    # entry above the second pivot must land in [0, 3)
    assert h.to_rows() == [[1, 1], [0, 3]]


def test_hnf_handles_negative_entries():
    m = IntMatrix.from_rows([[-2, 4], [6, -8]])
    h, u = hermite_normal_form(m)
    assert is_hnf_shape(h)
    assert mat_mul(u, m).to_rows() == h.to_rows()
    assert abs(det_bareiss(u.to_rows())) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_hnf_properties(rows):
    m = IntMatrix.from_rows(rows, cols=3)
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m).to_rows() == h.to_rows()
    assert abs(det_bareiss(u.to_rows())) == 1
    assert is_hnf_shape(h)


kernel_inputs = st.integers(0, 6).flatmap(
    lambda cols: st.tuples(
        st.lists(
            st.lists(st.integers(-40, 40), min_size=cols, max_size=cols), min_size=0, max_size=7
        ),
        st.just(cols),
    )
)


@settings(max_examples=300, deadline=None)
@given(kernel_inputs)
def test_echelon_matches_the_reference_kernel(matrix):
    # same pivots, same floor quotients: identical h and u, not just equal
    # lattices, with u carried in the appended identity columns
    rows, cols = matrix
    check_echelon_against_reference(_echelon, rows, cols)


@pytest.mark.parametrize(
    "rows, cols",
    [
        # two rows tied at |x| = 1 with opposite signs: the first is the pivot
        ([[3, 5], [-1, 2], [1, 7]], 2),
        ([[1, 4, 0], [-1, 2, 5], [2, 1, 1]], 3),
        # a 1 that follows a 2
        ([[2, 3], [1, 1], [4, 9]], 2),
        ([[5, 0, 1], [2, 1, 4], [-1, 3, 3], [1, 2, 2]], 3),
        # the column's only unit sits in the last row
        ([[4, 1], [6, 0], [-1, 5]], 2),
        ([[0, 2], [3, 1], [2, 2], [1, 0]], 2),
    ],
)
def test_echelon_at_a_unit_pivot_matches_the_reference_kernel(rows, cols):
    # the pivot scan stops at the first |x| = 1; untracked and with the
    # identity appended, h and u must be the reference kernel's
    check_echelon_against_reference(_echelon, rows, cols)


# --- kernels -----------------------------------------------------------------

def test_kernel_of_sum_functional():
    k = kernel_lattice(IntMatrix.from_rows([[1, 1]]))
    assert k.rank == 1
    (v,) = k.vectors
    assert v in ((1, -1), (-1, 1))


def test_kernel_diagonal_relations():
    m = IntMatrix.from_rows([[2, -2, 0], [0, 1, -1]])
    k = kernel_lattice(m)
    assert k.rank == 1
    assert lattice_contains(k, (1, 1, 1)) is not None


def test_kernel_of_injective_map_is_trivial():
    m = IntMatrix.from_rows([[1, 0], [0, 1], [3, 5]])
    assert kernel_lattice(m).rank == 0


def test_kernel_of_zero_matrix_is_everything():
    m = IntMatrix.from_rows([[0, 0, 0]])
    k = kernel_lattice(m)
    assert k.rank == 3
    assert lattice_contains(k, (7, -2, 5)) is not None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_kernel_vs_bruteforce(rows):
    m = IntMatrix.from_rows(rows, cols=3)
    k = kernel_lattice(m)
    for v in k.vectors:
        assert all(
            sum(m.entries[i * m.cols + j] * v[j] for j in range(m.cols)) == 0
            for i in range(m.rows)
        )
    # every small kernel vector must be reachable from the computed basis
    for cand in kernel_by_search(m, box=2):
        assert lattice_contains(k, cand) is not None, cand


matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), min_size=0, max_size=5
    ).map(lambda rows: (rows, cols))
)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_kernel_is_annihilated_and_has_complementary_rank(matrix):
    rows, cols = matrix
    m = IntMatrix.from_rows(rows, cols=cols)
    h, _ = hermite_normal_form(m)
    rank = sum(1 for i in range(h.rows) if any(h.row(i)))
    k = kernel_lattice(m)
    assert k.rank == cols - rank
    for v in k.vectors:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_lattice_basis_is_the_nonzero_hnf_rows(matrix):
    rows, cols = matrix
    h, _ = hermite_normal_form(IntMatrix.from_rows(rows, cols=cols))
    nonzero = tuple(h.row(i) for i in range(h.rows) if any(h.row(i)))
    assert LatticeBasis(cols, tuple(map(tuple, rows))).vectors == nonzero


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=4),
    st.sampled_from([True, False, 1.0, 2.5]),
    st.data(),
)
def test_every_entry_is_checked_on_the_way_in(rows, bad, data):
    # the HNF trusts its own results; every entry a caller hands in is still checked
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, 2))
    spoiled = [list(row) for row in rows]
    spoiled[i][j] = bad
    with pytest.raises(InputError):
        IntMatrix.from_rows(spoiled)
    with pytest.raises(InputError):
        LatticeBasis(3, tuple(map(tuple, spoiled)))
    with pytest.raises(InputError):
        lattice_contains(LatticeBasis(3, ()), spoiled[i])
    ragged = [list(row) for row in rows] + [rows[i][:j]]
    with pytest.raises(InputError):
        IntMatrix.from_rows(ragged)
    with pytest.raises(InputError):
        LatticeBasis(3, tuple(map(tuple, ragged)))


# --- what each checked constructor accepts ---------------------------------------

class Two(IntEnum):
    TWO = 2


_ENTRY = "matrix entries must be plain integers, got {!r}"
_PART = "partition parts must be integers, got {!r}"

# each row: a constructor around one scalar, reading that scalar back, and the
# message for True, for 1.0 and for Fraction(4, 2) (None: accepted)
ENTRY_CHECKS = {
    "QuotientVector": (
        lambda x: QuotientVector((x, 0)).coords[0],
        ("coordinates must be numbers, got True", "coordinates must be int or Fraction, got 1.0", None),
    ),
    "IntMatrix": (lambda x: IntMatrix(1, 1, (x,)).entries[0], (_ENTRY,) * 3),
    "IntMatrix.from_rows": (lambda x: IntMatrix.from_rows([[x]]).entries[0], (_ENTRY,) * 3),
    "LatticeBasis": (lambda x: LatticeBasis(1, ((x,),)).vectors[0][0], (_ENTRY,) * 3),
    "lattice_contains": (
        lambda x: lattice_contains(LatticeBasis(1, ((1,),)), (x,))[0],
        (_ENTRY,) * 3,
    ),
    "ClassicalOrbit": (lambda x: ClassicalOrbit("C", (x,)).parts[0], (_PART,) * 3),
}


@pytest.mark.parametrize("name", sorted(ENTRY_CHECKS))
def test_entry_checks_accept_ints_and_refuse_the_rest(name):
    # a plain int takes the short path; everything else meets the full chain
    build, messages = ENTRY_CHECKS[name]
    assert build(2) == 2 and type(build(2)) is int
    assert build(Two.TWO) == 2
    for value, message in zip((True, 1.0, Fraction(4, 2)), messages):
        if message is None:
            # an integral Fraction becomes an int
            assert build(value) == 2 and type(build(value)) is int
            continue
        with pytest.raises(InputError) as excinfo:
            build(value)
        assert str(excinfo.value) == message.format(value)


def test_an_int_enum_is_an_integer_in_every_layer():
    # each is used as given; a type(x) is int test once refused all three
    m = IntMatrix(Two.TWO, 1, (1, 2))
    assert m.rows is Two.TWO and m.to_rows() == [[1], [2]]
    basis = LatticeBasis(Two.TWO, ((1, 0),))
    assert basis.ambient_dim is Two.TWO and basis.vectors == ((1, 0),)
    assert list(partitions_of(Two.TWO)) == [(2,), (1, 1)]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix(True, 1, (1,)), "row count must be a nonnegative integer, got True"),
        (lambda: IntMatrix(1, 1.0, (1,)), "column count must be a nonnegative integer, got 1.0"),
        (lambda: IntMatrix(-1, 0, ()), "row count must be a nonnegative integer, got -1"),
        (lambda: IntMatrix(2, 1, (1,)), "expected 2 entries, got 1"),
        (lambda: LatticeBasis(True, ((1,),)), "ambient dimension must be a nonnegative integer, got True"),
        (lambda: LatticeBasis(2.0, ()), "ambient dimension must be a nonnegative integer, got 2.0"),
        (lambda: LatticeBasis(-1), "ambient dimension must be a nonnegative integer, got -1"),
    ],
)
def test_dimensions_must_be_plain_nonnegative_ints(build, message):
    with pytest.raises(InputError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_matrix_entries_are_stored_as_a_hashable_tuple():
    m = IntMatrix(1, 2, [3, 4])
    assert m.entries == (3, 4) and type(m.entries) is tuple
    assert hash(m) == hash(IntMatrix(1, 2, (3, 4)))


# --- lattice bases and membership ---------------------------------------------

def test_basis_canonicalizes_generating_set():
    a = LatticeBasis(2, ((1, 1), (0, 3)))
    b = LatticeBasis(2, ((1, 4), (1, 1), (2, 5)))
    assert a == b
    assert a.rank == 2


def test_membership_certificate_recombines():
    basis = LatticeBasis(2, ((1, 1), (0, 3)))
    cert = lattice_contains(basis, (2, 5))
    assert cert == (2, 1)
    combo = [0, 0]
    for c, g in zip(cert, basis.vectors):
        combo[0] += c * g[0]
        combo[1] += c * g[1]
    assert tuple(combo) == (2, 5)


def test_membership_rejects_off_lattice():
    basis = LatticeBasis(2, ((2, 0), (0, 2)))
    assert lattice_contains(basis, (1, 0)) is None
    assert lattice_contains(basis, (2, 1)) is None
    assert lattice_contains(basis, (2, 2)) == (1, 1)


def test_membership_in_empty_lattice():
    basis = LatticeBasis(3, ())
    assert basis.rank == 0
    assert lattice_contains(basis, (0, 0, 0)) == ()
    assert lattice_contains(basis, (0, 1, 0)) is None


def test_dimension_mismatch_raises():
    basis = LatticeBasis(2, ((1, 0),))
    with pytest.raises(InputError):
        lattice_contains(basis, (1, 0, 0))
    with pytest.raises(InputError):
        LatticeBasis(2, ((1, 0, 0),))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        min_size=0,
        max_size=3,
    ),
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
)
def test_membership_vs_bruteforce(gens, target):
    basis = LatticeBasis(3, tuple(tuple(g) for g in gens))
    cert = lattice_contains(basis, tuple(target))
    if cert is not None:
        combo = [0, 0, 0]
        for c, g in zip(cert, basis.vectors):
            for j in range(3):
                combo[j] += c * g[j]
        assert combo == target
    else:
        # certified absent: no small combination of the generators hits it
        assert not member_by_search(basis.vectors, target, box=5)


def test_randomized_unimodular_invariance():
    rng = random.Random(7)
    base = [(2, 0, 1), (0, 3, 1)]
    lat = LatticeBasis(3, tuple(base))
    for _ in range(25):
        # random invertible integer recombination of the generators
        a, b = list(base[0]), list(base[1])
        for _ in range(6):
            q = rng.randint(-3, 3)
            if rng.random() < 0.5:
                a = [x + q * y for x, y in zip(a, b)]
            else:
                b = [x + q * y for x, y in zip(b, a)]
        assert LatticeBasis(3, (tuple(a), tuple(b))) == lat
