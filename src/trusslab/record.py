"""Frozen records: immutable values made of named fields.

Fields are the bases' fields, then the class's own annotations; class
attributes named after the last fields are their defaults.  Records
compare and hash by their field tuple, print as `Name(field=value, ...)`
and refuse assignment.  `__post_init__` may check or normalise fields,
writing through `object.__setattr__`.  No code is generated per class.

`memoized` runs a pure function of immutable values once per value
of its arguments (Michie, "Memo functions and machine learning", Nature
1968): the memo sits on the first argument, and equal first arguments
find one memo through one weak index, as hash-consing shares equal
values (Filliâtre and Conchon, "Type-safe modular hash-consing", ML
2006).  A value reaches the index through `_values()`, the field values
it is rebuilt from, and its cached hash; records do, and so do the
linear maps of `linmap`, whose kernels are memoized here too.  The
index holds each memo weakly, so a memo lives while any value equal to
its first argument holds it.
"""

from __future__ import annotations

import weakref
from functools import update_wrapper


class Record:
    FIELDS = ()
    # Caches, not fields: the hash, and the results of memoized functions
    # of this value, shared with the live records equal to it.
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
    """The results of memoized functions of one value, by (function, other arguments)."""

    __slots__ = ("__weakref__",)


class _Key(tuple):
    """A value's key in the index, (type, field values, hash): it compares
    as a tuple, hashes by the value's own cached hash, and references the
    field values, not the value, so field values that do not hash may
    stand in it."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self[2]


# The memo of each value by _Key, while a value holds it: no value is
# kept alive, and the memo outlives the value that made it.
_MEMOS = weakref.WeakValueDictionary()


def memoized(fn):
    """fn(first, *rest), computed once per value of first and of rest.

    fn must be a pure function of the values of its arguments.  The
    result is kept in the memo of first under (the memoized function,
    *rest).  The first memoized call on a value adopts the memo of its
    value, so equal values share results however they were built.  A
    memo lives while any value equal to it holds it, with the results
    and the other arguments it keeps, and equality, hash, repr, copy
    and pickle leave it out.  An exception is not kept.
    """
    def once(first, *rest):
        memo = getattr(first, "_memo", None)  # a slot is unset before the first call
        if memo is None:
            key = _Key((type(first), first._values(), hash(first)))
            memo = _MEMOS.setdefault(key, _Memo())
            object.__setattr__(first, "_memo", memo)
        key = (once, *rest)
        if key in memo:
            return memo[key]
        out = memo[key] = fn(first, *rest)
        return out

    return update_wrapper(once, fn)
