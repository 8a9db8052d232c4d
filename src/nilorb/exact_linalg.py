"""Exact integer linear algebra: Hermite normal form, kernel lattices, membership.

Everything here runs on Python's arbitrary-precision integers.  No floating
point enters any computation; a wrong answer cannot hide behind rounding, and
fixed-width overflow cannot occur.

Conventions.  Matrices are row-major and immutable.  The Hermite normal form
used throughout is the *row-style* one: row operations only, pivot entries
positive, entries above a pivot reduced into [0, pivot), zero rows collected at
the bottom.  Lattices are sets of integer row vectors closed under addition;
a :class:`LatticeBasis` always stores the canonical HNF basis of its lattice,
so two equal lattices compare equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InputError

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
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"matrix entries must be plain integers, got {value!r}")
    return value


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix (row-major entries)."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [tuple(_as_int(x) for x in row) for row in rows]
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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise InputError(f"row index {i} out of range")
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


def _negate(row: list[int]) -> None:
    for j in range(len(row)):
        row[j] = -row[j]


def _submul(target: list[int], source: list[int], q: int) -> None:
    if q:
        for j in range(len(target)):
            target[j] -= q * source[j]


def _echelon(h: list[list[int]], cols: int, track: bool) -> Optional[list[list[int]]]:
    """Bring the rows ``h`` to row-style Hermite normal form in place.

    With ``track`` the unimodular transform ``u`` (``u @ original == h``) is
    built alongside and returned; without it only ``h`` changes.  Entries
    must already be checked integers.
    """
    n = len(h)
    u = [[int(i == j) for j in range(n)] for i in range(n)] if track else None
    r = 0
    for c in range(cols):
        if r == n:
            break
        # Euclid on column c, rows r..end, until at most one nonzero survives.
        while True:
            live = [i for i in range(r, n) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                if track:
                    u[r], u[i0] = u[i0], u[r]
            if h[r][c] < 0:
                _negate(h[r])
                if track:
                    _negate(u[r])
            reduced_all = True
            for i in range(r + 1, n):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    _submul(h[i], h[r], q)
                    if track:
                        _submul(u[i], u[r], q)
                    if h[i][c]:
                        reduced_all = False
            if reduced_all:
                break
        if h[r][c] == 0:
            continue
        pivot = h[r][c]
        for i in range(r):
            q = h[i][c] // pivot
            _submul(h[i], h[r], q)
            if track:
                _submul(u[i], u[r], q)
        r += 1
    return u


def _flat(rows: list[list[int]]) -> tuple[int, ...]:
    return tuple(x for row in rows for x in row)


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(h, u)`` with ``u`` unimodular and ``u @ m == h``.  Pivots are
    positive, entries above each pivot lie in [0, pivot), and zero rows sit at
    the bottom.  Zero and empty matrices are legal inputs.
    """
    h = m.to_rows()
    u = _echelon(h, m.cols, track=True)
    return IntMatrix(m.rows, m.cols, _flat(h)), IntMatrix(m.rows, m.rows, _flat(u))


def _kernel_rows(transposed: list[list[int]], width: int) -> list[Vector]:
    """Basis of the integer kernel {x : m @ x == 0} of the matrix m whose
    transpose has the rows ``transposed``, each ``width`` entries long.

    The rows of the unimodular transform that clear rows of hnf(m^T) form a
    basis of the kernel; the kernel of an integer matrix is a saturated
    sublattice, so this basis is primitive.  It is not canonical, and
    ``transposed`` is overwritten by its HNF.
    """
    u = _echelon(transposed, width, track=True)
    return [tuple(u[i]) for i, row in enumerate(transposed) if not any(row)]


def _pivot_column(row: Vector) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return -1


@dataclass(frozen=True)
class LatticeBasis:
    """Canonical basis of an integer lattice inside Z^ambient_dim.

    The constructor accepts any finite generating set (dependent or redundant
    vectors included) and stores the unique row-HNF basis of the lattice they
    generate, so structural equality coincides with lattice equality.
    """

    ambient_dim: int
    vectors: tuple[Vector, ...] = field(default=())

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise InputError("ambient dimension must be nonnegative")
        rows = []
        for v in self.vectors:
            row = [_as_int(x) for x in v]
            if len(row) != self.ambient_dim:
                raise InputError(
                    f"vector length {len(row)} does not match ambient dimension {self.ambient_dim}"
                )
            rows.append(row)
        _echelon(rows, self.ambient_dim, track=False)
        object.__setattr__(self, "vectors", tuple(tuple(row) for row in rows if any(row)))

    @property
    def rank(self) -> int:
        return len(self.vectors)


def kernel_lattice(m: IntMatrix) -> LatticeBasis:
    """Canonical basis of the integer kernel {x in Z^cols : m @ x == 0}."""
    return LatticeBasis(m.cols, tuple(_kernel_rows(m.transpose().to_rows(), m.rows)))


def lattice_contains(basis: LatticeBasis, v: Sequence[int]) -> Optional[Vector]:
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
