"""Immutable records: the one base of the package's value classes.

A subclass declares its fields as class annotations, in order. `Record`
gives it:

- no assignment or deletion of attributes (AttributeError); a class that
  validates in its own `__init__` ends it with `super().__init__` of the
  checked field values;
- field-wise `__eq__` (records of the same class only) and `__hash__`, or,
  for a class declared with `eq=False`, identity equality (unless the class
  defines its own);
- the repr `Name(field=value, ...)`;
- construction by position only, one value a field in field order, for a
  class with no `__init__` of its own; a keyword or a wrong count of
  values is a TypeError;
- `_of(*values)`, a record of field values in field order, stored without
  running the class's `__init__`, through the same store as `__init__`;
- `_require(value, what)`, the value if it is an instance of the class,
  else InputError("<what> must be of type <Class>, not <type>").

Outside input is checked once: a class's constructor, and the decoders
that call it, check what arrives from a caller or a file. What the package
derives from data it has already checked (a Hermite kernel basis, an exact
product B^T G B, the conjugate of a checked period point, the columns of a
model spectrum) is stored through `_of`, so it is not checked again. A
function given a checked record checks only that it is one, by `_require`
alone: every report refuses a spectrum that is not an EquivariantSpectrum,
and the continuation engine checks none of the arrays it reads from one.

The field names are read once, when the class is made, and the methods are
shared: no code is generated per class, so a record costs about what a
plain class costs at import.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import InputError

_store = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # the field values, as a tuple past one field; a plain callable
        # attribute, so it is called as self._values(self)
        cls._values = attrgetter(*cls._fields)
        if not eq:
            for name in ("__eq__", "__hash__"):
                if name not in cls.__dict__:
                    setattr(cls, name, getattr(object, name))

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                "%s takes the fields %s by position; got %d values"
                % (type(self).__name__, fields, len(values))
            )
        # one store per field: reading self.__dict__ here would give every
        # record a materialized dict, whose attribute loads are slower
        for name, value in zip(fields, values):
            _store(self, name, value)

    @classmethod
    def _of(cls, *values):
        """The record of these field values, in field order, built without
        the class's `__init__`: only for data the package derived from data
        it has already checked."""
        self = object.__new__(cls)
        Record.__init__(self, *values)
        return self

    @classmethod
    def _require(cls, value, what: str):
        """`value` if it is a `cls`, else an InputError naming `what`."""
        if not isinstance(value, cls):
            kinds = (what, cls.__name__, type(value).__name__)
            raise InputError("%s must be of type %s, not %s" % kinds)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(
            "cannot assign to %r of an immutable %s" % (name, type(self).__name__)
        )

    def __delattr__(self, name):
        raise AttributeError(
            "cannot delete %r of an immutable %s" % (name, type(self).__name__)
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )
