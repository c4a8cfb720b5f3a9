"""Frozen records: immutable values made of named fields.

Fields are the bases' fields, then the class's own annotations; class
attributes named after the last fields are their defaults.  Records
compare and hash by their field tuple, print as `Name(field=value, ...)`
and refuse assignment.  `__post_init__` may check or normalise fields,
writing through `object.__setattr__`.  No code is generated per class.
"""

from __future__ import annotations


class Record:
    FIELDS = ()

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

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__
