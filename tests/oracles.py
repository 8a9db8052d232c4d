"""Slow, independent twins of fast code paths, shared by the tests.

Most of this is the quotient-vector build that the integer-tuple build
replaced: every pairwise sum as a QuotientVector, then coefficients peeled
off by descent through ``pair()``.  Nothing here reads the growth tree, the
support masks or the stored coweights, so the fast build always has an
independent slow twin.  ``QuotientVector`` has no arithmetic of its own; the
helpers below add and subtract raw coordinates, which is what its operators
did.

``reference_echelon`` is the HNF kernel as it was before it rebuilt rows:
a ``min`` pivot search and in-place row updates.
"""

import itertools
from functools import lru_cache
from typing import Optional, Sequence

from nilorb.errors import IntegrityError
from nilorb.root_system import QuotientVector, pair


def qadd(*vectors: QuotientVector) -> QuotientVector:
    """Sum of equal-length vectors, raw coordinate by raw coordinate."""
    return QuotientVector(tuple(map(sum, zip(*(v.coords for v in vectors)))))


def qsub(a: QuotientVector, b: QuotientVector) -> QuotientVector:
    return QuotientVector(tuple(x - y for x, y in zip(a.coords, b.coords)))


def is_zero(v: QuotientVector) -> bool:
    """Whether v is a multiple of the all-ones vector."""
    return not any(v.canonical_coords)


def derive_simple_roots(positive_roots: Sequence[QuotientVector], rank: int) -> tuple[QuotientVector, ...]:
    """Simple roots from first principles, in a deterministic label order.

    A positive root is simple iff it is not the sum of two positive roots.
    The sum test runs in the quotient; over raw coordinates some composites
    would masquerade as simple.  Labels sort by support size of the canonical
    representative, then by descending lexicographic order, which lines the
    difference roots up as an A-chain followed by the branch root.
    """
    pos_set = set(positive_roots)
    composite = set()
    for a, b in itertools.combinations_with_replacement(positive_roots, 2):
        s = qadd(a, b)
        if s in pos_set:
            composite.add(s)
    simples = [r for r in positive_roots if r not in composite]
    if len(simples) != rank:
        raise IntegrityError(
            f"derived {len(simples)} simple roots, expected rank {rank}"
        )

    def label_key(v: QuotientVector):
        canon = v.canonical_coords
        support = sum(1 for c in canon if c != 0)
        return (support, tuple(-c for c in canon))

    return tuple(sorted(simples, key=label_key))


def decompose(root: QuotientVector, simples: Sequence[QuotientVector], pos_set) -> tuple[int, ...]:
    """Coefficients of a positive root over ``simples``, peeled off by
    descent; valid for norm-2 positive roots."""
    coeffs = [0] * len(simples)
    current = root
    for _ in range(4 * len(pos_set)):
        if is_zero(current):
            return tuple(coeffs)
        for idx, alpha in enumerate(simples):
            if pair(current, alpha) > 0:
                rest = qsub(current, alpha)
                if is_zero(rest) or rest in pos_set:
                    coeffs[idx] += 1
                    current = rest
                    break
        else:
            break
    raise IntegrityError(f"descent failed to decompose {root!r}")


@lru_cache(maxsize=None)
def coefficient_table(rs) -> dict:
    """Each positive root of a built system mapped to its coefficients over
    the system's labeled simple roots, found by descent."""
    pos_set = set(rs.positive_roots)
    return {root: decompose(root, rs.simple_roots, pos_set) for root in rs.positive_roots}


# --- the HNF kernel before rows were rebuilt -------------------------------------

def _negate(row: list[int]) -> None:
    for j in range(len(row)):
        row[j] = -row[j]


def _submul(target: list[int], source: list[int], q: int) -> None:
    if q:
        for j in range(len(target)):
            target[j] -= q * source[j]


def reference_echelon(h: list[list[int]], cols: int, track: bool) -> Optional[list[list[int]]]:
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
