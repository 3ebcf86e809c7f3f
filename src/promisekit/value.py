"""Immutable value classes, written without ``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect``, and each class it builds has
its methods generated and compiled when its module is imported: that cost a
``pml`` process more than its analysis of a small model.  ``Value`` writes
those methods once, for every class.

A subclass lists its fields, in order, in ``__slots__``, followed by
``"_hash"`` (below) and by ``"__dict__"`` where a
``functools.cached_property`` needs somewhere to keep its value; neither
holds a field.  Assignment is refused, so its own ``__init__`` writes each
slot through the slot's own descriptor: ``_setters`` holds the ``__set__``
of each slot but ``__dict__``, in ``__slots__`` order, and the constructor
unpacks it once, as in ``set_name, set_scope, set_hash = self._setters``,
then calls ``set_name(self, name)``.  That skips the checks and the
argument tuple of ``object.__setattr__``.  A subclass that declares no
``__slots__`` of its own gets the same descriptors.  In return it has:

- ``==`` that holds between objects of the same class whose compared fields
  are equal, and a ``hash`` that agrees with it;
- a ``repr`` such as ``Parameter(name='w', scope='')``;
- ``AttributeError`` on setting or deleting any attribute;
- ``copy``, ``deepcopy`` and ``pickle``, through its constructor.

Two class keywords leave fields out: ``hidden`` from equality, hash and
repr, ``uncompared`` from equality and hash only.

A value shared across a request, such as a term, a condition or a body, is
hashed again and again.  Such a class declares the slot ``"_hash"``, and its
constructor ends with ``set_hash(self, hash(self._key(self)))``: the hash
is computed once, and ``hash()`` only reads the slot.  So a field that
cannot be hashed is refused at construction.  A copy or an unpickled
value goes through the constructor and computes its own hash, so no hash
crosses processes.  The other classes, hashed once or never, compute the
hash on each call.
"""
from __future__ import annotations

from operator import attrgetter


class Value:
    """Base of promisekit's immutable value classes."""

    __slots__ = ()

    def __init_subclass__(
        cls, hidden: tuple[str, ...] = (), uncompared: tuple[str, ...] = ()
    ) -> None:
        super().__init_subclass__()
        fields = tuple(name for name in cls.__slots__ if name not in ("_hash", "__dict__"))
        cls.__match_args__ = cls._fields = fields
        cls._setters = tuple(
            getattr(cls, name).__set__ for name in cls.__slots__ if name != "__dict__"
        )
        cls._shown = tuple(name for name in fields if name not in hidden)
        # One field gives the value itself, more give a tuple: either way
        # equal keys hash alike.
        cls._key = attrgetter(*(name for name in cls._shown if name not in uncompared))
        if "_hash" in cls.__slots__:
            cls.__hash__ = Value._stored_hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def _stored_hash(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)
