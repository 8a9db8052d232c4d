"""Exception types, and the base of the records, shared across the package."""

from __future__ import annotations


class NilorbError(Exception):
    """Base class for package-specific errors."""


class InputError(NilorbError, ValueError):
    """Caller input is malformed or mismatched (dimensions, labels, ranges)."""


class CapabilityError(NilorbError):
    """The request is valid but outside the supported range of this build."""


class IntegrityError(NilorbError):
    """An internal consistency guarantee failed; indicates a bug or corrupt data."""


class StepInapplicableError(NilorbError):
    """Neither variant of the elementary induction step yields a valid partition."""


class AtlasLoadError(NilorbError):
    """Atlas data is malformed or contradicts the embedded reference tables."""

    def __init__(self, message: str, record: object = None):
        super().__init__(message)
        self.record = record


class OrbitNotFoundError(NilorbError):
    """No atlas record matches the requested (group, label)."""

    def __init__(self, message: str, suggestions: tuple[str, ...] = ()):
        super().__init__(message)
        self.suggestions = suggestions


class _Frozen:
    """Base of the package's immutable records, in place of a frozen dataclass.

    A subclass lists its fields, in order, as ``__slots__`` and sets each once
    in ``__init__`` with ``object.__setattr__``.  ``repr``, ``==`` and ``hash``
    follow the field tuple as a frozen dataclass's do; a record compared by
    identity sets ``__eq__ = object.__eq__`` and ``__hash__ = object.__hash__``.
    ``copy`` and ``pickle`` rebuild a record by calling its class on the fields.
    A record that keeps a derived value beside its fields, in a further slot or
    a ``__dict__``, overrides these methods so that the value stays out of
    them.  The base lives here, in the one module every layer imports, so that
    no layer loads ``dataclasses`` or another layer for its records.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())
