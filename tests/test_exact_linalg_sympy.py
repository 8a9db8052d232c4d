"""sympy as a differential oracle for the Hermite normal form and the kernel.

sympy's ``hermite_normal_form`` is column-style: the columns of its answer are
a basis of the lattice the input's columns span.  So the row lattice of ``m``
is compared with the column lattice of sympy's HNF of ``m``'s transpose.
Membership on both sides is decided by sympy's exact rational solve, not by
``lattice_contains``.  The kernel lattice is pinned down by sympy's rank,
nullspace and Smith invariants: the integer kernel is the one saturated
lattice of full rank inside the rational kernel.  sympy is not a declared
dependency; without it this module is skipped.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from nilorb.exact_linalg import IntMatrix, hermite_normal_form, kernel_lattice  # noqa: E402

matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=1, max_size=5
    ).map(lambda rows: (rows, cols))
)


def columns(vectors, dim):
    """A dim x len(vectors) sympy matrix with the vectors as its columns."""
    return sympy.Matrix(dim, len(vectors), lambda i, j: vectors[j][i])


def in_column_lattice(basis, v) -> bool:
    """Whether ``v`` is an integer combination of the columns of ``basis``,
    which must be linearly independent."""
    v = sympy.Matrix(list(v))
    if basis.cols == 0:
        return v.is_zero_matrix
    x = (basis.T * basis).solve(basis.T * v)
    return basis * x == v and all(c.is_integer for c in x)


def same_lattice(ours, theirs, dim) -> bool:
    """Lattice equality of two independent generating sets, by mutual
    membership."""
    a, b = columns(ours, dim), columns(theirs, dim)
    return all(in_column_lattice(b, v) for v in ours) and all(
        in_column_lattice(a, v) for v in theirs
    )


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_hnf_row_lattice_matches_sympy(matrix):
    rows, cols = matrix
    m = IntMatrix.from_rows(rows, cols=cols)
    h, u = hermite_normal_form(m)
    ours = [h.row(i) for i in range(h.rows) if any(h.row(i))]
    reference = sympy_hnf(sympy.Matrix(rows).T)
    theirs = [tuple(reference.col(j)) for j in range(reference.cols)]
    assert len(ours) == len(theirs) == sympy.Matrix(rows).rank()
    assert same_lattice(ours, theirs, cols)
    assert abs(sympy.Matrix(u.to_rows()).det()) == 1
    assert sympy.Matrix(u.to_rows()) * sympy.Matrix(rows) == sympy.Matrix(h.to_rows())


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_kernel_lattice_matches_sympy(matrix):
    rows, cols = matrix
    m = sympy.Matrix(rows)
    ours = list(kernel_lattice(IntMatrix.from_rows(rows, cols=cols)).vectors)
    # the integer kernel: annihilated by m, of full rank in the rational
    # kernel, and saturated (every invariant factor of its basis is 1)
    assert all((m * sympy.Matrix(v)).is_zero_matrix for v in ours)
    assert len(ours) == cols - m.rank()
    if ours:
        assert set(invariant_factors(columns(ours, cols), domain=sympy.ZZ)) == {1}
    # sympy's rational kernel, cleared of denominators, lies in it
    for v in m.nullspace():
        scale = math.lcm(*(int(c.q) for c in v))
        assert in_column_lattice(columns(ours, cols), v * scale)
