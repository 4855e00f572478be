"""Exception hierarchy shared across the package, and the frame of its count-headed text formats.

`_count_headed` reads the comments, blank lines and count line that the
graph and matrix text formats share; it lives here, with the FormatError it
raises, so that reading a matrix imports no graph code.
"""

__all__ = [
    "EdmSphereError",
    "SpectralError",
    "PreconditionError",
    "ConsistencyError",
    "FormatError",
]


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
