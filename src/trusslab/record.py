"""Frozen records: immutable values made of named fields.

Fields are the bases' fields, then the class's own annotations; class
attributes named after the last fields are their defaults.  Records
compare and hash by their field tuple, print as `Name(field=value, ...)`
and refuse assignment.  `__post_init__` may check or normalise fields,
writing through `object.__setattr__`.  No code is generated per class.

`memoized` runs a pure function of an immutable record once per value
(Michie, "Memo functions and machine learning", Nature 1968): equal
records find one memo through one weak index, as hash-consing shares
equal values (Filliâtre and Conchon, "Type-safe modular hash-consing",
ML 2006).  The index holds each memo weakly, so a memo lives while any
record of its value holds it.
"""

from __future__ import annotations

import weakref
from functools import update_wrapper


class Record:
    FIELDS = ()
    # Caches, not fields: the hash, and the results of memoized functions
    # of this value by function, shared with the live records equal to it.
    _hash = None
    _memo = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.FIELDS = cls._fields()
        required = len(fields)
        while required and hasattr(cls, fields[required - 1]):
            required -= 1
        cls._required = required

    @classmethod
    def _fields(cls) -> tuple:
        """The bases' fields, then the names this class annotates."""
        own = cls.__dict__.get("__annotations__", {})
        return cls.FIELDS + tuple(name for name in own if name not in cls.FIELDS)

    def __init__(self, *args, **kwargs) -> None:
        fields = self.FIELDS
        # Positional arguments that leave out only defaulted fields bind as
        # they are: a field not in the instance reads its class default.
        if kwargs or not self._required <= len(args) <= len(fields):
            args = self._bind(args, kwargs)
        # Set one by one, the fields stay in the instance's inline values:
        # no per-instance dict is made, and attribute reads stay fast.
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value from the arguments and the defaults, or TypeError."""
        fields = cls.FIELDS
        values = dict(zip(fields, args))
        repeated = values.keys() & kwargs.keys()
        values.update(kwargs)
        missing = [name for name in fields[:cls._required] if name not in values]
        if len(args) > len(fields) or repeated or missing or values.keys() - set(fields):
            raise TypeError(f"{cls.__name__} takes ({', '.join(fields)}); got {len(args)} "
                            f"positional, keywords {sorted(kwargs)}, missing {missing}")
        return [values[name] if name in values else getattr(cls, name) for name in fields]

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._values()))
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({pairs})"

    def __getstate__(self) -> dict:
        """The fields, without the caches: copies and pickles start with none."""
        return {name: value for name, value in vars(self).items() if name in self.FIELDS}

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class _Memo(dict):
    """The results of memoized functions of one value, by function."""

    __slots__ = ("__weakref__",)


# The memo of each value by (type, field values), while a record holds it:
# no record is kept alive, and the memo outlives the record that made it.
_MEMOS = weakref.WeakValueDictionary()


def memoized(fn):
    """fn(record), computed once per record value and kept with it.

    fn must be a pure function of the record's fields.  A record's first
    memoized call adopts the memo of its value, so equal records share
    results however they were built.  A memo lives while any record
    equal to it holds it, and equality, hash, repr, copy and pickle
    leave it out.  An exception is not kept.
    """
    def once(rec):
        memo = rec._memo
        if memo is None:
            memo = _MEMOS.setdefault((type(rec), rec._values()), _Memo())
            object.__setattr__(rec, "_memo", memo)
        if fn in memo:
            return memo[fn]
        out = memo[fn] = fn(rec)
        return out

    return update_wrapper(once, fn)
