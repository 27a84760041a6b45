"""Plain value classes: fields, constructor, equality and repr from `__slots__`.

A subclass names its fields in `__slots__`, in constructor order, and may
give defaults for trailing fields in `_defaults`:

    class CheckResult(Record):
        __slots__ = ("name", "ok", "detail")
        _defaults = {"detail": ""}

It gets the constructor `CheckResult(name, ok, detail="")` (positional or
keyword arguments), equality of the field values between instances of the
same class, and the repr `CheckResult(name='x', ok=True, detail='')`.  A
`Record` is mutable and unhashable; a `FrozenRecord` refuses assignment
with `AttributeError` and hashes the tuple of its field values.  These are
the semantics of the standard library's data classes (plain and frozen),
without that module's import or the code it generates per class.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        if not isinstance(fields, tuple):
            raise TypeError(f"{cls.__name__}.__slots__ must be a tuple of field names")
        if len(fields) == 1:
            get_one = attrgetter(fields[0])
            get = lambda obj: (get_one(obj),)  # noqa: E731
        elif fields:
            get = attrgetter(*fields)
        else:
            get = lambda obj: ()  # noqa: E731
        cls._fields = fields
        cls._values = staticmethod(get)  # obj -> tuple of its field values
        cls.__match_args__ = fields

    def __init__(self, *args, **kwargs):
        fields, defaults = self._fields, self._defaults
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes at most {len(fields)} positional arguments "
                            f"({len(args)} given)")
        setter = object.__setattr__
        for field, value in zip(fields, args):
            setter(self, field, value)
        missing = []
        for field in fields[len(args):]:
            if field in kwargs:
                setter(self, field, kwargs.pop(field))
            elif field in defaults:
                setter(self, field, defaults[field])
            else:
                missing.append(field)
        for field in kwargs:
            if field in fields:
                raise TypeError(f"{name}() got multiple values for {field!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
        if missing:
            raise TypeError(f"{name}() missing arguments {missing}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values(self) == other._values(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        values = self._values(self)
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, values))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values(self)


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __hash__(self):
        return hash(self._values(self))
