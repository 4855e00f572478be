"""Exception hierarchy shared across the package, the frame of its count-headed text formats, and its records.

`TOL_PROFILE_ENV` names the environment variable that selects the
tolerance preset.  It lives here, in the one layer the CLI imports at its
top, so that `--help` can print it and `--version` run without loading
`tolerances` and numpy.

`_count_headed` reads the comments, blank lines and count line that the
graph and matrix text formats share; it lives here, with the FormatError it
raises, so that reading a matrix imports no graph code.

`_record` makes a class one of the package's result records, in place of
`@dataclass(eq=False)`, or of `@dataclass(frozen=True)` as
`_record(frozen=True)`.  A record is a dataclass: `dataclasses.dataclass`
binds its fields with no generated method, so `fields`, `asdict`, `replace`,
`is_dataclass`, `__match_args__`, `__dataclass_params__`, the class
attributes and every message are those of the decorator it replaces
(tests/test_records.py).  What it saves is generated code, which costs a
CLI process milliseconds to compile: every record shares one `__repr__`,
the frozen ones one `__eq__` and `__hash__` over the compared fields and
one guard against assigning and deleting attributes, and a class's
`__init__` is generated the first time an instance is built, as that of a
field-less `dataclasses.make_dataclass` subclass, and bound on the class.
After that an instance builds as fast as with the decorator.  Before it,
`inspect.signature` reads `(*args, **kwargs)`.  A record defines none of
the methods above itself, has no `hash=` field, and is not subclassed.
"""

from reprlib import recursive_repr

__all__ = [
    "EdmSphereError",
    "SpectralError",
    "PreconditionError",
    "ConsistencyError",
    "FormatError",
]

TOL_PROFILE_ENV = "EDM_SPHERE_TOL_PROFILE"


class EdmSphereError(Exception):
    """Base class for all library-specific failures."""


class SpectralError(EdmSphereError, RuntimeError):
    """The eigensolver failed to converge (never silent garbage)."""


class PreconditionError(EdmSphereError, ValueError):
    """The input is outside an operation's stated domain."""


class ConsistencyError(EdmSphereError, RuntimeError):
    """An internal verification failed: the result would contradict theory.

    Raised instead of returning silently-wrong output, e.g. when a constructed
    matrix fails its own certificate or a decomposition's block count
    disagrees with the spectral multiplicity.  Usually indicates tolerance or
    input trouble, not a bug in the caller.
    """


class FormatError(EdmSphereError, ValueError):
    """A text or JSON artifact could not be parsed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _count_headed(text: str, what: str, least: int) -> tuple:
    """The frame of the count-headed text formats, graphs' and `matrixio`'s: (n, the later lines).

    ``#`` starts a comment anywhere on a line, and lines blank without it
    are skipped; the first other line holds the count, named `what`, an
    integer >= `least` (0 or 1).  The later lines come as (line number,
    stripped line) pairs.  FormatError on empty input or a bad count line.
    """
    lines = ((lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip()))
    lineno, head = next(lines, (None, None))
    if head is None:
        raise FormatError(f"empty input: no {what} found")
    try:
        n = int(head)
    except ValueError:
        raise FormatError(f"expected {what}, got {head!r}", lineno) from None
    if n < least:
        raise FormatError(f"{what} must be {'positive' if least else 'nonnegative'}, got {n}", lineno)
    return n, lines


def _record(cls=None, /, *, frozen: bool = False):
    """Make cls a dataclass record, equal and hashed by identity, or by its compared fields when frozen."""
    if cls is None:
        return lambda cls: _record(cls, frozen=frozen)
    from dataclasses import dataclass, make_dataclass

    def __init__(self, *args, **kwargs):  # until the first instance: generate cls's own, bind it and run it
        cls.__init__ = make_dataclass(cls.__name__, [], bases=(cls,), repr=False, eq=False, frozen=frozen,
                                      namespace={"__module__": cls.__module__, "__doc__": cls.__doc__}).__init__
        cls.__init__(self, *args, **kwargs)

    dataclass(cls, init=False, repr=False, eq=False)  # binds the fields and generates no method
    params = cls.__dataclass_params__
    params.init, params.repr, params.eq, params.frozen = True, True, frozen, frozen
    cls.__init__, cls.__repr__ = __init__, _repr
    if frozen:
        cls.__eq__, cls.__hash__, cls.__setattr__, cls.__delattr__ = _eq, _hash, _frozen, _frozen
    return cls


@recursive_repr()
def _repr(self) -> str:
    shown = (f"{f.name}={getattr(self, f.name)!r}" for f in self.__dataclass_fields__.values() if f.repr)
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _key(record) -> tuple:
    return tuple(getattr(record, f.name) for f in record.__dataclass_fields__.values() if f.compare)


def _eq(self, other):
    return _key(self) == _key(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_key(self))


def _frozen(self, name, *value):
    """`__setattr__` (given a value) and `__delattr__` of a frozen record."""
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
