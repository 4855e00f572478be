"""Matrix file formats shared by the library and the CLI.

Text format: first non-comment line holds the order ``n``, followed by ``n``
lines of ``n`` whitespace-separated decimal floats.  ``#`` starts a comment
anywhere on a line.  Comments, blank lines and the order line are read as
the graph format reads its node count (`errors._count_headed`).  A JSON
alternative ``{"n": int, "rows": [[...], ...]}`` is accepted
interchangeably; the loader sniffs for a leading ``{``.

Floats are written with Python's shortest round-trip repr, so write/read is
bit-exact for doubles and output bytes are deterministic.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError, _count_headed

__all__ = [
    "parse_matrix_text",
    "parse_matrix_json",
    "parse_matrix",
    "load_matrix",
    "format_matrix_text",
]


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the text matrix format; raises FormatError with line numbers."""
    n, lines = _count_headed(text, "matrix order", 1)
    rows: list[list[float]] = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != n:
            raise FormatError(f"expected {n} entries, got {len(parts)}", lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise FormatError(f"bad float: {exc}", lineno) from None
        if len(rows) > n:
            raise FormatError(f"more than {n} rows", lineno)
    if len(rows) != n:
        raise FormatError(f"expected {n} rows, found {len(rows)}")
    return np.array(rows, dtype=float)


def parse_matrix_json(text: str) -> np.ndarray:
    """Parse the {"n": ..., "rows": ...} JSON matrix form."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise FormatError('JSON matrix must be an object with keys "n" and "rows"')
    n = obj["n"]
    rows = obj["rows"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:  # JSON true loads as an int
        raise FormatError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError('"rows" must be a rectangular array of numbers')
    for row in rows:
        for x in row:
            if type(x) not in (int, float):  # JSON true is an int, "4" a string, null None
                raise FormatError(
                    f'"rows" must be a rectangular array of numbers, not booleans, strings or null: got {x!r}'
                )
    try:
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise FormatError('"rows" must be a rectangular array of numbers') from None
    if M.shape != (n, n):
        raise FormatError(f'"rows" has shape {M.shape}, expected ({n}, {n})')
    return M


def parse_matrix(text: str) -> np.ndarray:
    """Dispatch on content: JSON if the first non-space char is '{', text otherwise."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def format_matrix_text(M: np.ndarray, comment: str | None = None) -> str:
    """Render a matrix in the text format (round-trip exact floats)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    lines = []
    if comment:
        lines.extend(f"# {part}" for part in comment.splitlines())
    lines.append(str(n))
    lines.extend(" ".join(map(repr, row)) for row in M.tolist())
    return "\n".join(lines) + "\n"
