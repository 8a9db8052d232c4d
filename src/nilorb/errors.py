"""Exception types, and the base of the records, shared across the package."""

from __future__ import annotations

from operator import attrgetter


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

    A subclass's fields are its public slots, in ``__slots__`` order.  A slot
    whose name starts with ``_``, such as a derived value or the ``__dict__``
    that holds a cached one, is no field.  ``repr``, ``==`` and ``hash``
    follow the field tuple as a frozen dataclass's do; a record compared by
    identity sets ``__eq__ = object.__eq__`` and ``__hash__ =
    object.__hash__``.  ``copy`` and ``pickle`` rebuild a record by calling
    its class on the fields.  The base lives here, in the one module every
    layer imports, so that no layer loads ``dataclasses`` or another layer
    for its records.

    ``__init__`` sets each field once, by ``_fill`` through ``_setters``,
    the class's slot setters.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        get = attrgetter(*fields)
        # _field_values(record) is the field tuple, a 1-tuple for one field
        cls._field_values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def _fill(self, *values) -> None:
        for store, value in zip(self._setters, values):
            store(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._field_values(self)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._field_values(self))
        )
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._field_values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values(self))
