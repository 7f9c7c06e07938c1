"""Immutable records, written out rather than generated.

Each value class of the package (a model spec, a parameter set, a contrast,
an effect set, a report row) is a :class:`Record`. Its ``FIELDS`` name its
fields in constructor order. A record that only stores its fields uses the
shared ``Record.__init__``, which binds positional and then keyword
arguments to ``FIELDS`` and raises ``TypeError`` as a written-out signature
would. A record that checks, converts or defaults a field has its own
``__init__``, which stores each field with :func:`_set`. Either way,
assigning or deleting a field afterwards raises ``AttributeError``. A
record compares and hashes by identity; a :class:`ValueRecord` compares and
hashes by the values of its fields.

``inspect.signature`` of a record class lists its fields in order: for the
shared ``__init__`` the ``__signature__`` descriptor builds that signature
from ``FIELDS`` when asked, and for a record's own ``__init__`` it gives
None, so ``inspect`` reads that ``__init__``, defaults included. Defining a
record class generates and compiles no code, as a ``dataclasses``
decoration does each time its module is imported.
"""

from operator import attrgetter

__all__ = ["Record", "ValueRecord"]

# stores a field from a record's __init__, past the refusing __setattr__
_set = object.__setattr__


class _FieldSignature:
    """``__signature__`` of a record class: its fields in order, when the class
    uses the shared ``Record.__init__``; otherwise None, which makes
    ``inspect`` read the class's own ``__init__``."""

    def __get__(self, instance, owner):
        if owner.__init__ is not Record.__init__:
            return None
        from inspect import Parameter, Signature  # only when asked: inspect is slow to import

        return Signature([Parameter(name, Parameter.POSITIONAL_OR_KEYWORD)
                          for name in owner.FIELDS])


def _bind_error(cls, args, kwargs) -> TypeError:
    """The error of binding ``args`` and ``kwargs`` to ``cls.FIELDS``: the one
    the signature of those fields gives."""
    try:
        cls.__signature__.bind(*args, **kwargs)
    except TypeError as exc:
        return TypeError(f"{cls.__qualname__}(): {exc}")


class Record:
    """An immutable record: the base of every value class in the package."""

    __slots__ = ()
    FIELDS = ()  # the field names, in constructor order
    __signature__ = _FieldSignature()

    def __init__(self, *args, **kwargs):
        names = self.FIELDS
        if len(args) + len(kwargs) != len(names):
            raise _bind_error(type(self), args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise _bind_error(type(self), args, kwargs)
            _set(self, name, kwargs[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through __init__, which checks it again
        return type(self), tuple(self._asdict().values())

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def _replace(self, **changes):
        """A record of the same class with some fields changed, checked again."""
        return type(self)(**{**self._asdict(), **changes})


class ValueRecord(Record):
    """A record equal to another of its class whose fields are equal, and
    hashed by its fields, so that it can key a cache."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.FIELDS)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))
