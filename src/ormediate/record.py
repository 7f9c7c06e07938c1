"""Immutable records, written out rather than generated.

Each value class of the package (a model spec, a parameter set, a contrast,
an effect set, a report row) is a :class:`Record`. Its ``FIELDS`` name its
fields in constructor order, and its own ``__init__`` checks them and stores
each with :func:`_set`, since assigning or deleting a field afterwards
raises ``AttributeError``. A record compares and hashes by identity; a
:class:`ValueRecord` compares and hashes by the values of its fields.
Defining a record class generates and compiles no code, as a
``dataclasses`` decoration does each time its module is imported.
"""

from operator import attrgetter

__all__ = ["Record", "ValueRecord"]

# stores a field from a record's __init__, past the refusing __setattr__
_set = object.__setattr__


class Record:
    """An immutable record: the base of every value class in the package."""

    __slots__ = ()
    FIELDS = ()  # the field names, in constructor order

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
