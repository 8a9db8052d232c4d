"""Exact integer linear algebra: Hermite normal form, kernel lattices, membership.

Everything here runs on Python's arbitrary-precision integers.  No floating
point enters any computation; a wrong answer cannot hide behind rounding, and
fixed-width overflow cannot occur.

Conventions.  Matrices are row-major and immutable.  The Hermite normal form
used throughout is the *row-style* one: row operations only, pivot entries
positive, entries above a pivot reduced into [0, pivot), zero rows collected at
the bottom.  Lattices are sets of integer row vectors closed under addition;
a :class:`LatticeBasis` always stores the canonical HNF basis of its lattice,
so two equal lattices compare equal structurally.  One elimination loop does
all of it: the transform of :func:`hermite_normal_form` rides in identity
columns appended to the rows, and the integer kernel is read off that
transform.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InputError, _Frozen, _uncapped

Vector = tuple[int, ...]

__all__ = [
    "IntMatrix",
    "LatticeBasis",
    "hermite_normal_form",
    "kernel_lattice",
    "lattice_contains",
    "mat_mul",
]


def _as_int(value: object) -> int:
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"matrix entries must be plain integers, got {_uncapped(repr, value)}")
    return value


def _as_dim(value: object, what: str) -> int:
    if type(value) is not int or value < 0:
        raise InputError(f"{what} must be a nonnegative integer, got {_uncapped(repr, value)}")
    return value


class IntMatrix(_Frozen):
    """An immutable rows x cols integer matrix (row-major entries)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        rows, cols = _as_dim(rows, "row count"), _as_dim(cols, "column count")
        entries = tuple(map(_as_int, entries))
        if len(entries) != rows * cols:
            raise InputError(f"expected {rows * cols} entries, got {len(entries)}")
        self._fill(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        # entries are checked once, by the constructor
        rows = [tuple(row) for row in rows]
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise InputError("ragged rows")
            if cols is not None and cols != width:
                raise InputError("explicit column count disagrees with row width")
            cols = width
        elif cols is None:
            cols = 0
        flat = tuple(x for row in rows for x in row)
        return cls(len(rows), cols, flat)

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise InputError(f"row index {_uncapped(str, i)} out of range")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product a @ b."""
    if a.cols != b.rows:
        raise InputError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    rows = []
    b_rows = b.to_rows()
    for i in range(a.rows):
        arow = a.row(i)
        acc = [0] * b.cols
        for k, coeff in enumerate(arow):
            if coeff:
                brow = b_rows[k]
                for j in range(b.cols):
                    acc[j] += coeff * brow[j]
        rows.append(acc)
    return IntMatrix.from_rows(rows, cols=b.cols)


def _echelon(h: list[list[int]], cols: int) -> None:
    """Bring the rows ``h`` to row-style Hermite normal form in place.

    Pivots are sought only in the first ``cols`` columns, and every row
    operation acts on the whole row, so columns past ``cols`` are carried
    along: rows with the identity appended come back holding the unimodular
    transform there.  Entries must already be checked integers.  Each column
    runs Euclid on the rows from the pivot row down: the first row of least
    absolute value becomes the pivot and the others drop by floor quotients
    of it; the scan for that row stops at a unit, as none is smaller.  A
    changed row is rebuilt as a new list, so callers read the result from
    ``h``, not from row objects they held before the call.
    """
    n = len(h)
    r = 0
    for c in range(cols):
        if r == n:
            break
        # Euclid on column c, rows r..end, until at most one nonzero survives.
        while True:
            i0 = -1
            least = 0
            for i in range(r, n):
                x = h[i][c]
                if x:
                    x = abs(x)
                    if i0 < 0 or x < least:
                        i0, least = i, x
                        if x == 1:
                            break
            if i0 < 0:
                break
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
            prow = h[r]
            if prow[c] < 0:
                prow = h[r] = [-a for a in prow]
            pivot = prow[c]
            reduced_all = True
            for i in range(r + 1, n):
                row = h[i]
                if row[c]:
                    q = row[c] // pivot
                    row = h[i] = [a - q * b for a, b in zip(row, prow)]
                    if row[c]:
                        reduced_all = False
            if reduced_all:
                break
        prow = h[r]
        pivot = prow[c]
        if pivot == 0:
            continue
        for i in range(r):
            q = h[i][c] // pivot
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], prow)]
        r += 1


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(h, u)`` with ``u`` unimodular and ``u @ m == h``.  Pivots are
    positive, entries above each pivot lie in [0, pivot), and zero rows sit at
    the bottom.  Zero and empty matrices are legal inputs.
    """
    n, cols = m.rows, m.cols
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.to_rows())]
    _echelon(rows, cols)
    h = tuple(x for row in rows for x in row[:cols])
    u = tuple(x for row in rows for x in row[cols:])
    return IntMatrix(n, cols, h), IntMatrix(n, n, u)


def _pivot_column(row: Vector) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return -1


class LatticeBasis(_Frozen):
    """Canonical basis of an integer lattice inside Z^ambient_dim.

    The constructor accepts any finite generating set (dependent or redundant
    vectors included) and stores the unique row-HNF basis of the lattice they
    generate, so structural equality coincides with lattice equality.
    """

    __slots__ = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, vectors: tuple[Vector, ...] = ()):
        self.__post_init__()
        _as_dim(ambient_dim, "ambient dimension")
        rows = []
        for v in vectors:
            row = [x if type(x) is int else _as_int(x) for x in v]
            if len(row) != ambient_dim:
                raise InputError(
                    f"vector length {len(row)} does not match ambient dimension {ambient_dim}"
                )
            rows.append(row)
        _echelon(rows, ambient_dim)
        self._fill(ambient_dim, tuple([tuple(row) for row in rows if any(row)]))

    def __post_init__(self):
        """Stores nothing: perfbench's tracer counts constructions by wrapping it."""

    @property
    def rank(self) -> int:
        return len(self.vectors)


def kernel_lattice(m: IntMatrix) -> LatticeBasis:
    """Canonical basis of the integer kernel {x in Z^cols : m @ x == 0}: the
    lattice of the transform rows that clear rows of hnf(m^T)."""
    h, u = hermite_normal_form(m.transpose())
    return LatticeBasis(m.cols, tuple(u.row(i) for i in range(h.rows) if not any(h.row(i))))


def lattice_contains(basis: LatticeBasis, v: Sequence[int]) -> Vector | None:
    """Decide membership of ``v`` in the lattice, with certificate.

    Returns the unique integer coefficient vector ``c`` with
    ``sum(c[i] * basis.vectors[i]) == v``, or None if ``v`` is not in the
    lattice.  Back-substitution over the HNF pivots; exact divisibility at a
    pivot is both necessary and sufficient because later rows vanish there.
    """
    coords = [_as_int(x) for x in v]
    if len(coords) != basis.ambient_dim:
        raise InputError(
            f"vector length {len(coords)} does not match ambient dimension {basis.ambient_dim}"
        )
    coeffs = []
    for row in basis.vectors:
        pc = _pivot_column(row)
        q, rem = divmod(coords[pc], row[pc])
        if rem:
            return None
        coeffs.append(q)
        if q:
            for j in range(basis.ambient_dim):
                coords[j] -= q * row[j]
    if any(coords):
        return None
    return tuple(coeffs)
