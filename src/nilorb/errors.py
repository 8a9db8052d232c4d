"""Exception types, and the base of the records, shared across the package."""

from __future__ import annotations

import sys
from _thread import allocate_lock
from functools import lru_cache
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


def _uncapped(call, *args):
    """``call(*args)`` with no cap on the digits of an int turned to text.

    A step can carry a part one digit past ``sys.get_int_max_str_digits()``;
    its messages and printed result are built whole all the same.  The cap
    is interpreter-wide, and it is restored afterwards.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no cap before 3.10.7
        return call(*args)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return call(*args)
    finally:
        sys.set_int_max_str_digits(cap)


@lru_cache(maxsize=None)
def _fill_factory(count: int):
    """The factory that closes ``_fill(self, v0, ..)``, which stores each
    ``v_i`` by the setter ``_s_i``, named apart from every field, over the
    setters; compiled for the first record with ``count`` fields, then shared."""
    names = range(count)
    source = (
        f"def factory({', '.join(f'_s{i}' for i in names)}):\n"
        f"    def _fill(self{''.join(f', v{i}' for i in names)}):\n"
        + "".join(f"        _s{i}(self, v{i})\n" for i in names)
        + "    return _fill\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["factory"]


_BINDING = allocate_lock()  # held while a class binds its _fill, so it binds one once


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

    Each field is set once, by ``_fill``, compiled once per field count as
    ``collections.namedtuple`` compiles its ``__new__``: one direct
    slot-setter call per field, with no ``*values``, ``zip`` or loop.  A
    class binds its setters when it builds its first record, and names the
    parameters after its fields in a copy of the code, not a second compile.
    A class that checks its values calls ``self._fill`` once in its
    ``__init__``; any other class defines none and is built by ``_fill``, by
    position or keyword, with ``_defaults`` as the defaults of its trailing
    fields, as in ``namedtuple(defaults=...)``.  A wrong number of values
    raises TypeError, so no slot is left unset.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._fill = _Frozen._first_fill
        if "__init__" not in vars(cls):
            cls.__init__ = _Frozen._first_fill
        get = attrgetter(*fields)
        # _field_values(record) is the field tuple, a 1-tuple for one field
        cls._field_values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def _first_fill(self, *values, **named) -> None:
        """Bind the class's ``_fill`` in this method's place, and as its
        ``__init__`` where that is this method, then store the values; so a
        process compiles only the field counts of the records it builds."""
        cls = type(self)
        with _BINDING:
            if cls._fill is _Frozen._first_fill:  # not bound by another thread
                fields = cls._fields
                fill = _fill_factory(len(fields))(*(getattr(cls, name).__set__ for name in fields))
                fill.__code__ = fill.__code__.replace(co_varnames=("self", *fields))
                fill.__qualname__ = f"{cls.__qualname__}._fill"
                fill.__defaults__ = cls._defaults
                if cls.__init__ is _Frozen._first_fill:
                    cls.__init__ = fill
                cls._fill = fill
        cls._fill(self, *values, **named)

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
