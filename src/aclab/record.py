"""Frozen records: the base class of aclab's small immutable value types.

A subclass lists its fields as class annotations, in constructor order
(inherited ones first), and gives a default as a class attribute.  It gets

  * a constructor taking the fields by position or keyword, which calls
    ``__post_init__`` for the subclass's own checks;
  * ``==`` only against an instance of the same class, on the compared
    fields (all of them unless ``compare=`` names some), and a hash equal to
    ``hash`` of the tuple of those fields;
  * the repr ``Name(field=value, ...)``;
  * an ``AttributeError`` on any assignment or deletion.

A class built often writes its own plain ``__init__``, which is kept: it
sets each field with ``setfield(self, name, value)``.  (Writing to
``self.__dict__`` builds faster but reads slower: it replaces CPython's
compact attribute storage with a full dict.)  Nothing here compiles code at
run time, so defining a record costs no more than defining its class.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Record:
    def __init_subclass__(cls, compare: tuple[str, ...] | None = None) -> None:
        fields: dict[str, None] = {}
        for klass in reversed(cls.__mro__):
            fields.update(dict.fromkeys(klass.__dict__.get("__annotations__", ())))
        cls._fields = tuple(fields)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        compared = cls._fields if compare is None else compare
        key = attrgetter(*compared) if compared else lambda rec: ()
        single = len(compared) == 1

        def __eq__(self: Record, other: object) -> bool:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self: Record) -> int:
            return hash((key(self),) if single else key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            # Keywords, defaults, or a wrong count: the TypeErrors a def raises.
            clash = kwargs.keys() - set(names[len(args):])
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or clash or len(values) < len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            setfield(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
