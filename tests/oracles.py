"""Slow, independent twins of fast code paths, shared by the tests.

Most of this is the quotient-vector build that the integer-tuple build
replaced: the simple roots as the positive roots that are no pairwise sum,
then coefficients peeled off by descent through ``pair()``.  Nothing here
reads the growth tree, the support masks or the stored coweights, so the
fast build always has an independent slow twin.  ``QuotientVector`` has no
arithmetic of its own; the helpers below add and subtract raw coordinates,
which is what its operators did.

``reference_echelon`` is the HNF kernel as it was before it rebuilt rows:
a ``min`` pivot search and in-place row updates, with the transform ``u`` as
a second matrix beside ``h``.  ``reference_simple_roots`` is the one
simple-root oracle: the pairwise search the build's 2 rho rule replaced, as
it was before it stopped at the first hit, on canonical integer tuples.

``record_twin`` maps a record of the package to a ``dataclasses`` twin
with the same fields, defaults and ``eq`` flag, for the record semantics
the plain ``__slots__`` classes must keep.

``reference_text_lines`` is the CLI's text renderer as it was before one
loop served dict entries and list items: a branch for each, spelling out
the same per-entry rules twice.

``mat_mul`` is the exact matrix product the HNF tests check U·M = H with;
no code of the package multiplies matrices.  ``lattice_contains_mod_ones``
is lattice membership up to the all-ones line, one augmented lattice per
vector, and ``transpose`` the conjugate partition the specialness oracle
counts multiplicities in; the package asks neither.
``reference_partitions_of`` is ``partitions_of`` as it was before it became
a loop: the recursion on the first part, which fixes the order the loop
must keep.
"""

import dataclasses
import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Optional, Sequence

from nilorb.cli import _is_scalar_list, _scalar_list_text, _scalar_text
from nilorb.errors import InputError, IntegrityError
from nilorb.exact_linalg import IntMatrix, LatticeBasis, lattice_contains
from nilorb.orbit_partitions import _check_partition
from nilorb.root_system import QuotientVector, pair


def qv(*coords) -> QuotientVector:
    return QuotientVector(tuple(coords))


def qadd(*vectors: QuotientVector) -> QuotientVector:
    """Sum of equal-length vectors, raw coordinate by raw coordinate."""
    return QuotientVector(tuple(map(sum, zip(*(v.coords for v in vectors)))))


def qsub(a: QuotientVector, b: QuotientVector) -> QuotientVector:
    return QuotientVector(tuple(x - y for x, y in zip(a.coords, b.coords)))


def is_zero(v: QuotientVector) -> bool:
    """Whether v is a multiple of the all-ones vector."""
    return not any(v.canonical_coords)


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


# for each simple-root label j, the least m with m * omega_j in the coroot
# lattice; written out, so that no test reads them from the stored coweights
COWEIGHT_ORDERS = {"E7": (2, 1, 2, 1, 1, 1, 2), "E8": (1,) * 8}


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


def check_echelon_against_reference(echelon, rows: list[list[int]], cols: int) -> None:
    """Assert that ``echelon(h, cols)`` gives the rows of
    ``reference_echelon(..., track=False)`` on ``rows``, and, on ``rows``
    with the identity appended, ``reference_echelon(..., track=True)``'s
    ``h`` in the first ``cols`` columns and its ``u`` in the rest, row by
    row.  ``rows`` is not changed."""
    fast = [list(row) for row in rows]
    slow = [list(row) for row in rows]
    echelon(fast, cols)
    assert reference_echelon(slow, cols, False) is None
    assert fast == slow
    n = len(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    slow = [list(row) for row in rows]
    u = reference_echelon(slow, cols, True)
    echelon(augmented, cols)
    assert [row[:cols] for row in augmented] == slow
    assert [row[cols:] for row in augmented] == u


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product a @ b."""
    if a.cols != b.rows:
        raise InputError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    columns = b.transpose()
    return IntMatrix.from_rows(
        [[sum(map(mul, a.row(i), columns.row(j))) for j in range(b.cols)] for i in range(a.rows)],
        cols=b.cols,
    )


def lattice_contains_mod_ones(basis: LatticeBasis, vector: QuotientVector) -> bool:
    """Membership in the lattice spanned by ``basis`` and the all-ones vector.

    This is the right containment test for quotient vectors: a representative
    is free to slide along the all-ones line.
    """
    if not all(isinstance(c, int) for c in vector.coords):
        raise InputError(f"lattice membership needs integer coordinates: {vector!r}")
    if vector.dim != basis.ambient_dim:
        raise InputError(f"dimension mismatch: {vector.dim} vs {basis.ambient_dim}")
    augmented = LatticeBasis(basis.ambient_dim, basis.vectors + ((1,) * basis.ambient_dim,))
    return lattice_contains(augmented, tuple(vector.coords)) is not None


def transpose(parts: Sequence[int]) -> tuple[int, ...]:
    parts = _check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > k) for k in range(parts[0]))


# --- simple roots from every pairwise sum ------------------------------------------

def reference_simple_roots(positive_roots: Sequence[tuple[int, ...]], rank: int) -> tuple[tuple[int, ...], ...]:
    """The simple roots as the positive roots that are no sum of two, on
    canonical integer tuples: the composites are the set of all pairwise sums."""
    pos_set = set(positive_roots)
    composite = {
        s
        for a, b in itertools.combinations(positive_roots, 2)
        if (s := tuple(map(add, a, b))) in pos_set
    }
    simples = [r for r in positive_roots if r not in composite]
    if len(simples) != rank:
        raise IntegrityError(
            f"derived {len(simples)} simple roots, expected rank {rank}"
        )

    def label_key(canon: tuple[int, ...]):
        support = sum(1 for c in canon if c != 0)
        return (support, tuple(-c for c in canon))

    return tuple(sorted(simples, key=label_key))


# --- partitions by recursion on the first part -------------------------------------

def reference_partitions_of(total: int, largest: Optional[int] = None):
    """All partitions of ``total``, largest part first, lexicographically
    descending: each first part from the cap down, then the partitions of
    the rest with no part above it."""
    if total < 0:
        raise InputError(f"cannot partition {total}")
    if total == 0:
        yield ()
        return
    cap = total if largest is None else min(largest, total)
    for first in range(cap, 0, -1):
        for rest in reference_partitions_of(total - first, first):
            yield (first,) + rest


# --- frozen-dataclass twins of the package's records -------------------------------

def _twin_canon(self) -> tuple:
    t = self.coords[-1]
    shifted = (c - t for c in self.coords)
    return tuple(int(c) if isinstance(c, Fraction) and c.denominator == 1 else c for c in shifted)


_QUOTIENT_VECTOR = {
    "__post_init__": lambda self: object.__setattr__(self, "canon", _twin_canon(self)),
    "__eq__": lambda self, other: (
        self.canon == other.canon if type(other) is type(self) else NotImplemented
    ),
    "__hash__": lambda self: hash(self.canon),
    "__repr__": lambda self: f"QuotientVector({self.canon!r})",
}

# class name -> (eq flag, fields as names or (name, default), extra namespace)
_TWIN_SPECS = {
    "IntMatrix": (True, ("rows", "cols", "entries"), {}),
    "LatticeBasis": (True, ("ambient_dim", ("vectors", ())), {}),
    "TorusMemberFixture": (True, ("coords", ("expected_pairing", None), ("note", "")), {}),
    "WorkedExample": (
        True,
        ("preset", "system", "levi_indices", "h", "roots_pairing_one", "kappa",
         "torus_members", "verdict", "torus_rank"),
        {},
    ),
    "QuotientVector": (False, ("coords",), _QUOTIENT_VECTOR),
    "RootSystem": (
        False,
        ("name", "ambient_dim", "rank", "positive_roots", "simple_roots", "cartan",
         "support_masks", "growth", "coweights"),
        {"__repr__": lambda self: f"RootSystem({self.name}, {len(self.positive_roots)} positive roots)"},
    ),
    "LeviSubsystem": (
        False,
        ("system", "indices", "positive_roots"),
        {"__repr__": lambda self: f"LeviSubsystem({self.system.name}, indices={self.indices})"},
    ),
    "MemberCheck": (
        True,
        ("coords", "in_lattice", "pairing", ("expected_pairing", None), ("note", "")),
        {},
    ),
    "ReferenceComparison": (
        True,
        ("preset", "h_matches", "roots_match", "kappa_matches", "verdict_matches",
         "torus_rank_matches", "member_checks"),
        {},
    ),
    "DeltaReport": (
        False,
        ("system", "levi_indices", "h", "roots_pairing_one", "kappa", "torus_basis",
         "pairings", "verdict", ("reference", None)),
        {},
    ),
    "ClassicalOrbit": (
        True,
        ("kind", "parts"),
        {"__repr__": lambda self: f"ClassicalOrbit({self.kind!r}, {self.parts!r})"},
    ),
    "InverseStep": (True, ("source", "n", "variant"), {}),
    "StepScript": (True, ("steps",), {}),
    "BirationalSource": (True, ("orbit", "script"), {}),
    "ExceptionalOrbitRecord": (
        True,
        ("group", "label", "is_special", "is_rigid", "is_birationally_rigid",
         "codim4_boundary", "fails_smooth_locus_codim4", "in_e1", "in_e2", "in_e3",
         "levi_descriptor", "provenance", ("comment", None)),
        {"__repr__": lambda self: f"ExceptionalOrbitRecord({self.group}:{self.label})"},
    ),
    "CheckResult": (True, ("check_id", "name", "passed", ("details", "")), {}),
    "CriterionResult": (
        True,
        ("criterion_id", "name", "passed", "expected", "actual", ("notes", ())),
        {},
    ),
    "CommandResult": (
        True,
        ("status", "payload", ("diagnostics", ()), ("exit_code", 0)),
        {},
    ),
}


def _twin_field(spec):
    if isinstance(spec, str):
        return spec
    name, default = spec
    return (name, object, dataclasses.field(default=default))


TWINS = {
    name: dataclasses.make_dataclass(
        name, [_twin_field(f) for f in fields], namespace=namespace, frozen=True, eq=eq
    )
    for name, (eq, fields, namespace) in _TWIN_SPECS.items()
}


def record_twin(value, memo: Optional[dict] = None):
    """The twin of a record, with nested records and tuples of them twinned
    too; the same record always maps to the same twin."""
    memo = {} if memo is None else memo
    if isinstance(value, tuple):
        return tuple(record_twin(v, memo) for v in value)
    twin_cls = TWINS.get(type(value).__name__)
    if twin_cls is None or not type(value).__module__.startswith("nilorb."):
        return value
    if id(value) not in memo:
        values = (record_twin(getattr(value, f.name), memo) for f in dataclasses.fields(twin_cls))
        memo[id(value)] = twin_cls(*values)
    return memo[id(value)]


def reference_text_lines(value, indent: int = 0):
    """Line-oriented rendering of a JSON payload, same key order as the JSON."""
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if _is_scalar_list(item):
                yield f"{pad}{key}: [{_scalar_list_text(item)}]"
            elif isinstance(item, (dict, list)) and item:
                yield f"{pad}{key}:"
                yield from reference_text_lines(item, indent + 1)
            elif isinstance(item, (dict, list)):
                yield f"{pad}{key}: (empty)"
            else:
                yield f"{pad}{key}: {_scalar_text(item)}"
    elif isinstance(value, list):
        for item in value:
            if _is_scalar_list(item):
                yield f"{pad}- [{_scalar_list_text(item)}]"
            elif isinstance(item, (dict, list)):
                yield f"{pad}-"
                yield from reference_text_lines(item, indent + 1)
            else:
                yield f"{pad}- {_scalar_text(item)}"
