"""Slow, independent twins of fast code paths, shared by the tests.

Most of this is the quotient-vector build that the integer-tuple build
replaced: every pairwise sum as a QuotientVector, then coefficients peeled
off by descent through ``pair()``.  Nothing here reads the growth tree, the
support masks or the stored coweights, so the fast build always has an
independent slow twin.  ``QuotientVector`` has no arithmetic of its own; the
helpers below add and subtract raw coordinates, which is what its operators
did.

``reference_echelon`` is the HNF kernel as it was before it rebuilt rows:
a ``min`` pivot search and in-place row updates, with the transform ``u`` as
a second matrix beside ``h``.  ``reference_simple_roots``
is the simple-root search as it was before it stopped at the first hit: the
set of every pairwise sum.

``record_twin`` maps a record of the package to a ``dataclasses`` twin
with the same fields, defaults and ``eq`` flag, for the record semantics
the plain ``__slots__`` classes must keep.

``reference_text_lines`` is the CLI's text renderer as it was before one
loop served dict entries and list items: a branch for each, spelling out
the same per-entry rules twice.
"""

import dataclasses
import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Optional, Sequence

from nilorb.cli import _is_scalar_list, _scalar_list_text, _scalar_text
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


# --- simple roots from every pairwise sum ------------------------------------------

def reference_simple_roots(positive_roots: Sequence[tuple[int, ...]], rank: int) -> tuple[tuple[int, ...], ...]:
    """``derive_simple_roots`` on canonical integer tuples as it was before
    the early-exit search: the composites are the set of all pairwise sums."""
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
