"""The base class of the package's immutable records."""


class Record:
    """An immutable value with the fields named in ``_fields``.

    Two records are equal when they are of one class and their fields are
    equal; against any other object ``==`` returns ``NotImplemented``.  The
    hash is that of the field tuple, so a record with a dict field has none,
    and the repr reads ``Name(field=value, ...)``.  A subclass's
    ``__init__`` sets every attribute through ``__dict__`` (or, with
    ``__slots__``, with ``object.__setattr__``); afterwards assigning or
    deleting any attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
