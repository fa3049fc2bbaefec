"""Immutable value classes, built without the standard library's dataclasses.

``@record`` makes a class with annotated fields behave as
``dataclasses.dataclass(frozen=True)`` would, for what this package uses of
it: the fields are the class's own annotations, in order, with the class
attribute of the same name as the default; ``field(...)`` adds a default
factory or leaves a field out of ``==``, ``hash`` and ``repr``.  The
generated ``__init__`` sets each field with ``object.__setattr__`` and then
calls ``__post_init__`` where the class has one.  ``==`` answers only for
the same class (``NotImplemented`` otherwise), the hash is that of the tuple
of the compared fields, assigning or deleting an attribute raises
``AttributeError``, and ``repr`` reads ``Name(field=value, ...)``.

The only compiled code is one ``__init__`` per class; the other methods are
closures, where the standard routine compiles five or six functions and
imports ``inspect`` and ``ast``, a large share of a command's start-up.
"""

from operator import attrgetter

_MISSING = object()


class field:
    """A field with a default factory, or left out of ``==``/``hash``/``repr``."""

    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, compare=True, repr=True):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def _frozen_setattr(self, name, value):  # pragma: no cover - guards frozen records
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):  # pragma: no cover - guards frozen records
    raise AttributeError(f"cannot delete field {name!r}")


def _tuple_getter(names):
    """``self -> (self.n1, self.n2, ...)``, a tuple for any count of names
    (``attrgetter`` alone returns the bare value for one name)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


def record(cls):
    """``cls`` as a frozen value class over its annotated fields."""
    params, body, compared, shown = [], [], [], []
    env = {"_set": object.__setattr__, "_MISSING": _MISSING}
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        elif spec.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        value = name
        if spec.default_factory is not _MISSING:
            env[f"_factory_{name}"] = spec.default_factory
            params.append(f"{name}=_MISSING")
            value = f"_factory_{name}() if {name} is _MISSING else {name}"
        elif spec.default is not _MISSING:
            env[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"    _set(self, {name!r}, {value})\n")
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(name)
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body) or '    pass'}", env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    key = _tuple_getter(compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        text = ", ".join(f"{n}={getattr(self, n)!r}" for n in shown)
        return f"{self.__class__.__qualname__}({text})"

    cls.__init__ = init
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
