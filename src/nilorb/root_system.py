"""E7 and E8 root systems in quotient coordinates, with exact pairing.

Both systems are realized inside R^d modulo the line spanned by the all-ones
vector: E7 uses d = 8, E8 uses d = 9, and the rank is d - 1 in each case.
Vectors are compared modulo rational multiples of the all-ones vector, and the
bilinear form is the standard dot product corrected so that it descends to the
quotient.  All arithmetic is integer or Fraction; nothing is approximated.

Simple roots are not hard-coded.  The build works on the canonical
representatives (last coordinate 0), which are integer tuples in both
realizations and add like the quotient vectors they stand for.  With every
root of norm 2, <2 rho, alpha> = 2 ht(alpha) for 2 rho the sum of the
positive roots (Humphreys, Introduction to Lie Algebras and Representation
Theory, 10.2), so the simple roots are the positive roots that pair to 2
with 2 rho: one pass picks them, and a deterministic rule labels them.  The
build has two guards.  The first is that their Cartan matrix passes
:func:`diagram_arms` with the arm lengths of the E-series tree, which also
fixes their count; that function is the one diagram-shape check in the
package, and ``selftest`` criteria 1 and 2 call it too.  From the matrix
alone the positive roots then grow as coefficient rows by root strings, one
simple root at a time, and each such step is kept as the system's growth
tree.  The second guard is that these grown roots, mapped through the simple
roots, are exactly the enumerated ones.  It proves the picked simple roots
right, and it implies the count, that no root repeats, that every root has
norm 2 (which the 2 rho rule assumed) and that every root is reached.  The
build also stores, per label, the smallest multiple of the fundamental
coweight that lies in the coroot lattice, each the generator of
``exact_linalg.kernel_lattice`` of the Cartan rows other than its label; the
central-torus stage of the delta check combines these instead of solving a
kernel per Levi.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .errors import CapabilityError, InputError, IntegrityError, _Frozen, _is_int, _items, _uncapped
from .exact_linalg import IntMatrix, LatticeBasis, kernel_lattice

Scalar = int | Fraction

__all__ = [
    "ROOT_SYSTEM_NAMES",
    "QuotientVector",
    "RootSystem",
    "LeviSubsystem",
    "build_root_system",
    "pair",
    "coroot",
    "diagram_arms",
    "coroot_lattice",
    "levi_subsystem",
]


def _normalize(value) -> Scalar:
    if isinstance(value, bool):
        raise InputError(f"coordinates must be numbers, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise InputError(f"coordinates must be int or Fraction, got {value!r}")


class QuotientVector(_Frozen):
    """A vector in R^d considered modulo rational multiples of all-ones.

    Only the coordinates are stored.  The canonical representative, whose
    last coordinate is zero, is computed on read for ``repr``.  Equality and
    hashing read the coordinates minus the last one in place, so two raw
    coordinate tuples that differ by a multiple of the all-ones vector
    compare equal.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Scalar, ...]):
        self.__post_init__()
        coords = _items(coords, "coordinates")
        coords = tuple([c if type(c) is int else _normalize(c) for c in coords])
        if not coords:
            raise InputError("empty coordinate tuple")
        self._fill(coords)

    def __post_init__(self):
        """Stores nothing: perfbench's tracer counts constructions by wrapping it."""

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def canonical_coords(self) -> tuple[Scalar, ...]:
        coords = self.coords
        t = coords[-1]
        return coords if t == 0 else tuple(_normalize(c - t) for c in coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuotientVector):
            return NotImplemented
        # equal canonical coordinates: a_i - b_i is one shift for every i
        a, b = self.coords, other.coords
        t = a[-1] - b[-1]
        return len(a) == len(b) and all(x - y == t for x, y in zip(a, b))

    def __hash__(self) -> int:
        # an integral Fraction hashes as its int, so no normalising is needed
        t = self.coords[-1]
        return hash(tuple([c - t for c in self.coords]))

    def __repr__(self) -> str:
        return f"QuotientVector({_uncapped(repr, self.canonical_coords)})"


def pair(x: QuotientVector, y: QuotientVector):
    """The invariant form: dot(x, y) - sum(x) * sum(y) / d.

    Well-defined on the quotient: replacing x by x + t*ones changes neither
    term's difference.  Returns int when the value is integral, Fraction
    otherwise.
    """
    if x.dim != y.dim:
        raise InputError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return _over(_scaled_forms(x.coords, (y.coords,))[0], x.dim)


def _scaled_forms(x: Sequence[Scalar], ys: Iterable[Sequence[Scalar]]) -> list:
    """d * pair(x, y) for each y, exactly: y's dot product with d * x - sum(x) * ones."""
    d, sx = len(x), sum(x)
    shifted = [d * c - sx for c in x]
    return [sum(map(mul, shifted, y)) for y in ys]


def _over(num, d: int):
    """num / d, an int when integral and a Fraction otherwise."""
    if isinstance(num, int):
        q, r = divmod(num, d)
        return q if r == 0 else Fraction(num, d)
    value = num / d
    return int(value) if value.denominator == 1 else value


def coroot(root: QuotientVector) -> QuotientVector:
    """Coroot of a root: the root itself, as every E7/E8 root has norm 2
    (implied by the build's bijection check).  The argument's norm is checked."""
    if pair(root, root) != 2:
        raise InputError(f"not a norm-2 root: {_uncapped(repr, root)}")
    return root


def _positive_roots_e7() -> list[QuotientVector]:
    roots = []
    for i, j in itertools.combinations(range(7), 2):
        c = [0] * 8
        c[i], c[j] = 1, -1
        roots.append(QuotientVector(tuple(c)))
    for j in range(7):
        c = [0] * 8
        c[7], c[j] = 1, -1
        roots.append(QuotientVector(tuple(c)))
    for i, j, k in itertools.combinations(range(7), 3):
        c = [0] * 8
        c[i] = c[j] = c[k] = c[7] = 1
        roots.append(QuotientVector(tuple(c)))
    return roots


def _positive_roots_e8() -> list[QuotientVector]:
    roots = []
    for i, j in itertools.combinations(range(9), 2):
        c = [0] * 9
        c[i], c[j] = 1, -1
        roots.append(QuotientVector(tuple(c)))
    for i, j, k in itertools.combinations(range(8), 3):
        c = [0] * 9
        c[i] = c[j] = c[k] = 1
        roots.append(QuotientVector(tuple(c)))
    for i, j in itertools.combinations(range(8), 2):
        c = [0] * 9
        c[i] = c[j] = c[8] = -1
        roots.append(QuotientVector(tuple(c)))
    return roots


# name -> (ambient dimension, diagram arms, generator)
_REALIZATIONS = {
    "E7": (8, (3, 2, 1), _positive_roots_e7),
    "E8": (9, (4, 2, 1), _positive_roots_e8),
}
ROOT_SYSTEM_NAMES = tuple(_REALIZATIONS)


def _grow(cartan: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], int | None, int]]:
    """Positive roots as coefficient rows, grown by root strings from
    ``cartan``, with C[i][j] = <alpha_i^vee, alpha_j>.

    Simple root k starts as unit row k.  Row b gains simple root k iff
    p > <alpha_k^vee, b>, where p counts b - alpha_k, b - 2 alpha_k, ...
    already reached.  The result lists the steps ``(row, parent, k)`` in
    the order the roots are reached, ``parent`` an index into the list (None
    for a simple root), so every parent comes before its children; the loop
    walks the same list it appends to.  Finite for a finite-type matrix.
    """
    rank = len(cartan)
    steps = [(tuple(int(i == k) for i in range(rank)), None, k) for k in range(rank)]
    reached = {row for row, _, _ in steps}
    for parent, (row, _, _) in enumerate(steps):
        for k, pairings in enumerate(cartan):
            head, c, tail = row[:k], row[k], row[k + 1:]
            p = 0
            while head + (c - p - 1,) + tail in reached:
                p += 1
            child = head + (c + 1,) + tail
            if p > sum(map(mul, pairings, row)) and child not in reached:
                reached.add(child)
                steps.append((child, parent, k))
    return steps


def _coweights(
    cartan: Sequence[Sequence[int]], simples: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(m_j, m_j * omega_j)`` for each label j, omega_j the fundamental
    coweight, in the ambient coordinates of ``simples``.

    m_j * omega_j is the primitive integer vector in the kernel of the
    Cartan rows other than j, signed so that it pairs to m_j > 0 with simple
    root j; m_j is the order of omega_j modulo the coroot lattice.  The torus
    stage assumes that lattice has index at most 2 in the coweight lattice:
    every m_j is 1 or 2, and every sum omega_j + omega_k of two coweights of
    order 2 is a coroot-lattice vector.  ``IntegrityError`` if not.
    """
    rank = len(cartan)
    multiples = []
    for j in range(rank):
        others = IntMatrix.from_rows([row for i, row in enumerate(cartan) if i != j], cols=rank)
        (v,) = kernel_lattice(others).vectors
        m = sum(map(mul, cartan[j], v))
        if m < 0:
            m, v = -m, tuple(-x for x in v)
        if m not in (1, 2):
            raise IntegrityError(
                f"fundamental coweight {j + 1} has order {m} modulo the coroot lattice"
            )
        multiples.append((m, v))
    order_two = [(j, v) for j, (m, v) in enumerate(multiples) if m == 2]
    for (j, a), (k, b) in itertools.combinations(order_two, 2):
        if any((x + y) % 2 for x, y in zip(a, b)):
            raise IntegrityError(
                f"fundamental coweights {j + 1} + {k + 1} are not in the coroot lattice"
            )
    columns = list(zip(*simples))
    return tuple((m, tuple(sum(map(mul, v, column)) for column in columns)) for m, v in multiples)


class RootSystem(_Frozen):
    """A built root system: positives, labeled simples, and the Cartan matrix
    of the labeled simples.

    ``support_masks`` is aligned with ``positive_roots``: bit i - 1 of
    ``support_masks[k]`` is set iff simple root i occurs in root k.
    ``growth`` holds one step ``(child, parent, k)`` per positive root, as
    indices into ``positive_roots``: the child is the parent plus simple root
    k (0-based), parent -1 marks a simple root, and every parent comes before
    its children.  ``coweights[j - 1]`` is ``(m_j, m_j * omega_j)`` for
    label j: the order m_j in {1, 2} of the fundamental coweight omega_j
    modulo the coroot lattice, and that coroot-lattice multiple in canonical
    ambient coordinates (last coordinate 0).  ``levi_subsystem`` reads the
    masks and the delta stages read ``growth`` and ``coweights``.  Every root
    has norm 2, implied by the build's bijection check, so each coroot has the same
    coefficients as its root.
    """

    __slots__ = ("name", "ambient_dim", "rank", "positive_roots", "simple_roots", "cartan",
                 "support_masks", "growth", "coweights")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self) -> str:
        return f"RootSystem({self.name}, {len(self.positive_roots)} positive roots)"


def diagram_arms(cartan: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Arm lengths, longest first, of a T-shaped simply-laced Dynkin diagram.

    Returns None unless the Cartan matrix is symmetric with diagonal 2 and
    off-diagonal entries in {0, -1}, and the bond graph is a connected tree
    with exactly one degree-3 vertex and no higher degree.
    """
    n = len(cartan)
    for i in range(n):
        if cartan[i][i] != 2:
            return None
        for j in range(n):
            if i != j and (cartan[i][j] not in (0, -1) or cartan[i][j] != cartan[j][i]):
                return None
    adj = {i: [j for j in range(n) if j != i and cartan[i][j] == -1] for i in range(n)}
    centers = [i for i in range(n) if len(adj[i]) == 3]
    if len(centers) != 1 or any(len(adj[i]) > 3 for i in range(n)):
        return None
    arms = []
    for start in adj[centers[0]]:
        length = 1
        prev, cur = centers[0], start
        while True:
            onward = [k for k in adj[cur] if k != prev]
            if not onward:
                break
            if len(onward) > 1:
                return None
            prev, cur = cur, onward[0]
            length += 1
        arms.append(length)
    if sum(arms) + 1 != n:
        return None
    return tuple(sorted(arms, reverse=True))


def build_root_system(name: str) -> RootSystem:
    """Construct and validate a root system by name ("E7" or "E8"), once per name."""
    if not isinstance(name, str) or name not in _REALIZATIONS:  # a list is unhashable
        raise CapabilityError(
            f"unsupported root system {_uncapped(repr, name)}; "
            f"available: {', '.join(ROOT_SYSTEM_NAMES)}"
        )
    return _built(name)


@lru_cache(maxsize=None)
def _built(name: str) -> RootSystem:
    ambient_dim, expected_arms, generate = _REALIZATIONS[name]
    rank = ambient_dim - 1
    positives = tuple(generate())
    canon = tuple(r.canonical_coords for r in positives)
    # the simple roots pair to 2 with 2 rho, labeled by support size, then descending
    two_rho = tuple(map(sum, zip(*canon)))
    simple_canon = tuple(sorted(
        (t for t, n in zip(canon, _scaled_forms(two_rho, canon)) if n == 2 * ambient_dim),
        key=lambda t: (len(t) - t.count(0), tuple(-c for c in t)),
    ))
    cartan = tuple(
        tuple(_over(n, ambient_dim) for n in _scaled_forms(a, simple_canon)) for a in simple_canon
    )
    # the shape guard, which fixes the count and so keeps growth finite
    if diagram_arms(cartan) != expected_arms:
        raise IntegrityError(f"{name}: derived diagram has the wrong shape")

    # the bijection check: the enumeration is exactly the roots the Cartan matrix grows
    steps = _grow(cartan)
    grown = []
    for _, parent, k in steps:
        alpha = simple_canon[k]
        grown.append(alpha if parent is None else tuple(map(add, grown[parent], alpha)))
    missing, extra = Counter(canon) - Counter(grown), Counter(grown) - Counter(canon)
    if missing or extra:
        raise IntegrityError(
            f"{name}: {missing.total()} enumerated roots are not grown and "
            f"{extra.total()} grown roots are not enumerated"
        )

    index = {t: k for k, t in enumerate(canon)}
    simples = tuple(positives[index[t]] for t in simple_canon)
    growth = tuple(
        (index[t], -1 if p is None else index[grown[p]], k) for t, (_, p, k) in zip(grown, steps)
    )
    rows = dict(zip(grown, (row for row, _, _ in steps)))
    masks = tuple(sum(1 << i for i, c in enumerate(rows[t]) if c) for t in canon)
    coweights = _coweights(cartan, simple_canon)
    return RootSystem(name, ambient_dim, rank, positives, simples, cartan, masks, growth, coweights)


class LeviSubsystem(_Frozen):
    """Positive roots supported on a subset of simple-root labels."""

    __slots__ = ("system", "indices", "positive_roots")
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def rank(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"LeviSubsystem({self.system.name}, indices={self.indices})"


def levi_subsystem(rs: RootSystem, indices: Iterable[int]) -> LeviSubsystem:
    """Sub-root-system of positives whose simple support lies in ``indices``.

    Indices are 1-based simple-root labels.
    """
    idx = _items(indices, "levi indices")
    # each label's type and range first: a duplicate check on a list would not hash
    for i in idx:
        if type(i) is not int and not _is_int(i) or not 1 <= i <= rs.rank:
            raise InputError(f"levi index {_uncapped(repr, i)} out of range 1..{rs.rank}")
    if len(set(idx)) != len(idx):
        raise InputError(f"duplicate levi indices: {_uncapped(str, idx)}")
    outside = ~sum([1 << (i - 1) for i in idx])
    members = tuple(
        [root for root, mask in zip(rs.positive_roots, rs.support_masks) if not mask & outside]
    )
    return LeviSubsystem(rs, tuple(sorted(idx)), members)


def coroot_lattice(name: str) -> LatticeBasis:
    """Integer span of all coroots, as a lattice in the ambient Z^d."""
    rs = build_root_system(name)
    return LatticeBasis(rs.ambient_dim, tuple([r.coords for r in rs.positive_roots]))
