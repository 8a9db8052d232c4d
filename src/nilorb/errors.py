"""Exceptions and helpers every layer shares: ``_Frozen``, ``_is_int``, ``_items``, ``_uncapped``."""

from __future__ import annotations

import sys
from _thread import RLock
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


def _is_int(value: object) -> bool:
    """An ``int`` that is not a ``bool``; an ``IntEnum`` is one."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def _items(values, what: str) -> tuple:
    """``tuple(values)``, uncopied if a tuple; InputError if ``iter(values)`` raises TypeError."""
    if type(values) is tuple:
        return values
    try:
        iterator = iter(values)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {_uncapped(repr, values)}") from None
    return tuple(iterator)


_UNCAPPING = RLock()  # held while the cap is lifted; a guarded repr nests


def _uncapped(call, *args):
    """``call(*args)`` with no cap on the digits of an int turned to text.

    A step can carry a part one digit past ``sys.get_int_max_str_digits()``,
    and a caller can pass such an int where a name is expected; its messages
    and printed result are built whole all the same.  The cap is
    interpreter-wide: one thread at a time lifts it, so none reads the
    lifted cap as the one to restore.
    """
    with _UNCAPPING:
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return call(*args)
        finally:
            sys.set_int_max_str_digits(cap)


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

    Each field is set once, by ``_fill``, which each class compiles once,
    when the class is made, from its own field names, as
    ``collections.namedtuple`` compiles its ``__new__``: one direct
    slot-setter call per field, with no ``*values``, ``zip`` or loop.  The
    compile costs import time only, 20-130 us a class by its field count.
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
        # the setters are globals _s_<field>; no field starts with _, so none clashes
        namespace = {f"_s_{name}": getattr(cls, name).__set__ for name in fields}
        exec(f"def _fill(self, {', '.join(fields)}):\n"
             + "".join(f"    _s_{name}(self, {name})\n" for name in fields), namespace)
        fill = namespace["_fill"]
        fill.__qualname__ = f"{cls.__qualname__}._fill"
        fill.__defaults__ = cls._defaults
        cls._fill = fill
        if "__init__" not in vars(cls):
            cls.__init__ = fill
        get = attrgetter(*fields)
        # _field_values(record) is the field tuple, a 1-tuple for one field
        cls._field_values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._field_values(self)

    def __repr__(self) -> str:
        # join runs the generator, so each value's repr is made uncapped
        fields = _uncapped(", ".join, (
            f"{name}={value!r}" for name, value in zip(self._fields, self._field_values(self))
        ))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._field_values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values(self))
