"""Helpers for the line-oriented ASCII formats: comment stripping, the
`<kind> <size>...` header line, and the `u v` edge line."""

from __future__ import annotations

from itertools import chain, filterfalse
from operator import methodcaller
from typing import Callable, Iterator

from .errors import CapExceeded, FormatError

# The one size cap for text and generated instances: the most any header
# declares for each of its sizes (checked before anything is allocated),
# the most cotree edges a multigraph file has, and the most vertices and
# extra edges a generated instance has.  So every file pivotkit writes
# parses back.
HEADER_CAP = 1000


def _blocks(text: str) -> Iterator[str]:
    """Consecutive slices of text, each about 4,096 characters long and
    ending at a line end, so that each splits into whole lines."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + 4096) + 1 or len(text)
        yield text[start:stop]
        start = stop


def content_lines(text: str) -> Iterator[str]:
    """The stripped lines of text that are neither blank nor `#` comments,
    one at a time: text is split a block at a time, so that its lines are
    never all held at once."""
    lines = map(str.strip, chain.from_iterable(map(str.splitlines, _blocks(text))))
    return filterfalse(methodcaller("startswith", "#"), filter(None, lines))


def read_header(lines: Iterator[str], kind: str, *names: str) -> list[int]:
    """The sizes that the header `<kind> <size>...`, the next of lines, declares.

    One size per name; each must be a non-negative integer, and one over
    HEADER_CAP raises CapExceeded naming it.
    """
    line = next(lines, None)
    if line is None:
        raise FormatError(f"empty {kind} document")
    head = line.split()
    try:
        sizes = [int(s) for s in head[1:]]
    except ValueError:
        sizes = []
    if head[0] != kind or len(sizes) != len(names) or min(sizes) < 0:
        raise FormatError(f"bad {kind} header: {line!r}")
    for size, name in zip(sizes, names):
        if size > HEADER_CAP:
            raise CapExceeded(f"{size} {name} exceeds the header cap {HEADER_CAP}")
    return sizes


def read_edges(lines: Iterator[str], add: Callable[[int, int], object]) -> None:
    """Call add(u, v) for each `u v` line; a bad line is a FormatError."""
    for line in lines:
        try:
            u, v = map(int, line.split())
            add(u, v)
        except (ValueError, IndexError) as exc:
            raise FormatError(f"bad edge line: {line!r}") from exc
