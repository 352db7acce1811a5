"""``Record``, the frozen base of the package's validating records.

It does what ``@dataclass(frozen=True)`` did for them without generating and
compiling methods at import.  A subclass's fields are its annotations, in
order, and a class attribute of the same name is that field's default.
``__init__`` binds the arguments to the fields, then calls
``self.__post_init__()``, looked up on the instance so that a patched
``__post_init__`` runs.  Assigning or deleting any attribute raises
``AttributeError``; ``__post_init__`` stores a normalised value with
``object.__setattr__``, and ``functools.cached_property`` writes the instance
``__dict__`` directly.  Instances compare and hash by their field values,
or by identity for a subclass declared with ``eq=False`` (one with an array
field, whose ``==`` is elementwise).
"""


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
        if (
            len(args) > len(fields)
            or values.keys() != set(fields)
            or kwargs.keys() & fields[: len(args)]
        ):
            raise TypeError(
                f"{type(self).__qualname__}() takes {fields} with defaults"
                f" {self._defaults}, got {len(args)} positional arguments and"
                f" keywords {list(kwargs)}"
            )
        vars(self).update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
