"""Value classes without ``dataclasses``, which compiles six methods per
frozen class and imports ``inspect``.  Each class here compiles only its
``__init__``; the other methods are shared, read the class's field
tuples, and give the equality, hashes and reprs ``dataclasses`` gives.
Unsupported: inheritance, ``InitVar``, keyword-only fields, ``__match_args__``."""

from operator import attrgetter
from types import SimpleNamespace

_MISSING, _FACTORY = object(), object()  # no default; the field's factory makes it


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen value."""


def field(*, default=_MISSING, default_factory=_MISSING, init=True, repr=True, compare=True,
          hash=None) -> SimpleNamespace:
    return SimpleNamespace(name=None, **locals())


def fields(value) -> tuple[SimpleNamespace, ...]:
    return value.__value_fields__


def asdict(value) -> dict:
    return {f.name: getattr(value, f.name) for f in value.__value_fields__}


def replace(value, /, **changes):
    kept = {f.name: getattr(value, f.name) for f in value.__value_fields__ if f.init}
    return value.__class__(**kept | changes)


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    compared = self.__value_compared__
    return compared(self) == compared(other)


def _hash(self):
    return hash(self.__value_hashed__(self))


def _hash_one(self):  # attrgetter of one name returns the value, not a tuple
    return hash((self.__value_hashed__(self),))


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__value_shown__)
    return f"{self.__class__.__qualname__}({shown})"


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _setstate(self, state):  # (None, slot values), set past the frozen __setattr__
    for name, value in state[1].items():
        object.__setattr__(self, name, value)


def _init(cls, fs: tuple[SimpleNamespace, ...]):
    # The one compiled function.  An init=False field is made by its
    # factory or set by __post_init__.
    env, params, lines = {"_set": object.__setattr__, "_FACTORY": _FACTORY}, [], []
    for f in fs:
        name, default = f.name, f"_dflt_{f.name}"
        if f.default_factory is not _MISSING:
            env[default] = f.default_factory
            value = f"{default}() if {name} is _FACTORY else {name}" if f.init else f"{default}()"
            params += [f"{name}=_FACTORY"] if f.init else []
        elif f.init:
            env[default], value = f.default, name
            params.append(name if f.default is _MISSING else f"{name}={default}")
        else:
            continue
        lines.append(f"_set(self, {name!r}, {value})")  # past a frozen __setattr__
    lines += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(lines), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return env["__init__"]


def dataclass(cls=None, /, *, frozen: bool = False, slots: bool = False):
    """``dataclasses.dataclass``, bare or with ``frozen`` and ``slots``."""
    if cls is None:
        return lambda cls: dataclass(cls, frozen=frozen, slots=slots)
    fs = []
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        if str(annotation).startswith(("ClassVar", "typing.ClassVar")):
            continue
        f = cls.__dict__.get(name, _MISSING)
        fs.append(f if isinstance(f, SimpleNamespace) else field(default=f))
        fs[-1].name = name
        if fs[-1].default is not _MISSING:
            setattr(cls, name, fs[-1].default)
        elif name in cls.__dict__:
            delattr(cls, name)
    fs = tuple(fs)
    compared = [f.name for f in fs if f.compare]
    if len(compared) == 1:  # a getter of one name returns no tuple: add one the sides share
        compared.append("__class__")
    hashed = [f.name for f in fs if (f.compare if f.hash is None else f.hash)]
    cls.__value_fields__, cls.__value_shown__ = fs, tuple(f.name for f in fs if f.repr)
    cls.__value_compared__, cls.__value_hashed__ = attrgetter(*compared), attrgetter(*hashed)
    cls.__init__, cls.__repr__, cls.__eq__ = _init(cls, fs), _repr, _eq
    cls.__hash__ = (_hash if len(hashed) > 1 else _hash_one) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    if not slots:
        return cls
    names = tuple(f.name for f in fs)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__", *names)}
    body.update(__slots__=names, __setstate__=_setstate)  # copy and pickle restore through it
    remade = type(cls)(cls.__name__, cls.__bases__, body)
    remade.__qualname__ = cls.__qualname__
    return remade
