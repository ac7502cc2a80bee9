"""Helpers for the line-oriented ASCII formats: comment stripping, the
`<kind> <size>...` header line, and the `u v` edge line."""

from __future__ import annotations

from typing import Callable

from .errors import CapExceeded, FormatError

# The one size cap for text and generated instances: the most any header
# declares for each of its sizes (checked before anything is allocated),
# the most cotree edges a multigraph file has, and the most vertices and
# extra edges a generated instance has.  So every file pivotkit writes
# parses back.
HEADER_CAP = 1000


def content_lines(text: str) -> list[str]:
    """Strip blank lines and `#` comment lines, returning the rest."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def read_header(lines: list[str], kind: str, *names: str) -> list[int]:
    """The sizes that the header `<kind> <size>...` (lines[0]) declares.

    One size per name; each must be a non-negative integer, and one over
    HEADER_CAP raises CapExceeded naming it.
    """
    if not lines:
        raise FormatError(f"empty {kind} document")
    head = lines[0].split()
    try:
        sizes = [int(s) for s in head[1:]]
    except ValueError:
        sizes = []
    if head[0] != kind or len(sizes) != len(names) or min(sizes) < 0:
        raise FormatError(f"bad {kind} header: {lines[0]!r}")
    for size, name in zip(sizes, names):
        if size > HEADER_CAP:
            raise CapExceeded(f"{size} {name} exceeds the header cap {HEADER_CAP}")
    return sizes


def read_edges(lines: list[str], add: Callable[[int, int], object]) -> None:
    """Call add(u, v) for each `u v` line; a bad line is a FormatError."""
    for line in lines:
        try:
            u, v = map(int, line.split())
            add(u, v)
        except (ValueError, IndexError) as exc:
            raise FormatError(f"bad edge line: {line!r}") from exc
