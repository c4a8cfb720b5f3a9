"""Frozen records: immutable values made of named fields.

Fields are the bases' fields, then the class's own annotations; class
attributes named after the last fields are their defaults.  Records
compare and hash by their field tuple, print as `Name(field=value, ...)`
and refuse assignment.  `__post_init__` may check or normalise fields,
writing through `object.__setattr__`.  No code is generated per class.

`memoized` keeps a function's result on the record it was computed
from, so a pure function of an immutable record runs once per instance
(Michie, "Memo functions and machine learning", Nature 1968).
"""

from __future__ import annotations

from functools import update_wrapper


class Record:
    FIELDS = ()
    # Results of memoized functions of this instance, by function; not a field.
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
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({pairs})"

    def __getstate__(self) -> dict:
        """The fields, without the memo: copies and pickles start with none."""
        return {name: value for name, value in vars(self).items() if name != "_memo"}

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def _memo_of(rec: Record) -> dict:
    memo = rec._memo
    if memo is None:
        memo = {}
        object.__setattr__(rec, "_memo", memo)
    return memo


def memoized(fn):
    """fn(record), computed once per record instance and kept on it.

    fn must be a pure function of the record's fields.  The result lives
    and dies with the instance, as no global cache holds it, and is not a
    field, so equality, hash, repr, copy and pickle leave it out.  An
    equal record built apart computes its own.  An exception is not
    kept.  `preset(record, value)` stores value as fn(record) where it is
    known to be that, so that what is memoized on value is shared.
    """
    def once(rec):
        memo = _memo_of(rec)
        if fn in memo:
            return memo[fn]
        out = memo[fn] = fn(rec)
        return out

    def preset(rec, value) -> None:
        _memo_of(rec)[fn] = value

    once.preset = preset
    return update_wrapper(once, fn)
