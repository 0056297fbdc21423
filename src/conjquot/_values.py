"""Value classes without ``dataclasses`` (six methods per frozen class, and
``inspect``).  One ``exec`` per class compiles its ``__init__``, ``__eq__``,
``__repr__`` and, if frozen, ``__hash__``; the frozen ``__setattr__`` and
``__delattr__`` and the slotted ``__setstate__`` are shared: they read nothing
per class.  Unsupported: inheritance, ``InitVar``, keyword-only fields, ``__match_args__``."""

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


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _setstate(self, state):  # (None, slot values), set past the frozen __setattr__
    for name, value in state[1].items():
        object.__setattr__(self, name, value)


def _compile(cls, fs: tuple[SimpleNamespace, ...], frozen: bool) -> None:
    # The class's one exec.  An init=False field is made by its factory or
    # set by __post_init__.
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
        lines.append(f" _set(self, {name!r}, {value})")  # past a frozen __setattr__
    lines += [" self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    compared = "".join(f"{{0}}.{f.name}," for f in fs if f.compare)
    hashed = "".join(f"self.{f.name}," for f in fs if (f.compare if f.hash is None else f.hash))
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fs if f.repr)
    exec("\n".join([
        f"def __init__(self, {', '.join(params)}):", *lines,
        "def __eq__(self, other):",
        " if other.__class__ is self.__class__:",
        f"  return ({compared.format('self')}) == ({compared.format('other')})",
        " return NotImplemented",
        "def __repr__(self):",
        ' return f"{self.__class__.__qualname__}(' + shown + ')"',
        f"def __hash__(self): return hash(({hashed}))" if frozen else "__hash__ = None",
    ]), env)
    for name in ("__init__", "__eq__", "__repr__", "__hash__"):
        setattr(cls, name, env[name])
        if env[name]:  # a mutable class's __hash__ is None
            env[name].__qualname__ = f"{cls.__qualname__}.{name}"


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
    cls.__value_fields__ = fs = tuple(fs)
    _compile(cls, fs, frozen)
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    if not slots:
        return cls
    names = tuple(f.name for f in fs)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__", *names)}
    body.update(__slots__=names, __setstate__=_setstate, __qualname__=cls.__qualname__)
    return type(cls)(cls.__name__, cls.__bases__, body)  # copy and pickle restore through _setstate
