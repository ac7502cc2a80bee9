"""Cut-rank of vertex bipartitions and rank-connectivity certification.

The cut-rank of (X, V-X) is the GF(2) rank of the adjacency matrix
between the two sides.  A graph is k-rank-connected when no partition
(A, B) with |A|, |B| >= l has cut-rank below l, for any l in 1..k-1;
every graph is therefore 1-rank-connected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from .errors import SubsetCapExceeded
from .gf2 import rank_bits
from .graph import Graph

HARD_SUBSET_CAP = 24
_ENV_CAP = "PIVOTKIT_MAX_SUBSET_N"


def subset_cap() -> int:
    """The enumeration cap: 24 vertices, lowerable via PIVOTKIT_MAX_SUBSET_N.

    Raises ValueError when the variable is set to anything but a
    positive integer.
    """
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return HARD_SUBSET_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{_ENV_CAP} must be a positive integer, got {raw!r}")
    return min(cap, HARD_SUBSET_CAP)


@dataclass(frozen=True)
class Separation:
    """A witness that a graph is not k-rank-connected for some k > order."""

    side_x: tuple[int, ...]
    order: int
    cutrank_value: int


def cut_rank(g: Graph, x_set: Iterable[int]) -> int:
    """GF(2) rank of the adjacency matrix between x_set and its complement."""
    xs = set(x_set)
    comp = (1 << g.n) - 1
    for v in xs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
        comp ^= 1 << v
    return rank_bits([g.adj[u] & comp for u in xs])


def _smaller_sides(n: int) -> Iterator[tuple[int, ...]]:
    """One side of every split of range(n) into two nonempty parts.

    The side is the smaller one, and a balanced split is given by the
    side holding 0.  Sizes ascend; subsets of one size come in
    lexicographic order.
    """
    for size in range(1, n // 2 + 1):
        if 2 * size == n:
            for rest in combinations(range(1, n), size - 1):
                yield (0,) + rest
        else:
            yield from combinations(range(n), size)


def first_separation(n: int, k: int,
                     value: Callable[[tuple[int, ...], int], int]
                     ) -> Optional[tuple[tuple[int, ...], int]]:
    """The first X with value(X) < l <= |X|, |V-X| for some l in 1..k-1.

    The witness has the least order l, then the least size, then comes
    first lexicographically; its value is l - 1.  A single pass visits
    each split once, keeping only the best witness so far.
    ``value(X, lim)`` must return the true value when that is below
    ``lim`` and any number >= ``lim`` otherwise; ``lim`` only falls as
    witnesses are found.  Returns (X, value) or None.
    """
    top = k - 1  # a new witness must have a value below top
    if top < 1:
        return None
    best = None
    for subset in _smaller_sides(n):
        lim = min(len(subset), top)
        r = value(subset, lim)
        if r < lim:
            best, top = (subset, r), r
            if r == 0:
                break
    return best


def find_low_rank_separation(g: Graph, k: int) -> Optional[Separation]:
    """First separation of rank l for some l in 1..k-1, or None.

    The witness X has the least order l, then the least size |X| (only
    the smaller side, by the X <-> V-X symmetry; a balanced split by
    the side holding vertex 0), then is lexicographically first, so it
    is deterministic.  Each cut-rank is computed once and only up to
    the least order still open, and nothing is stored per subset, so
    memory does not grow with 2^n.  Raises SubsetCapExceeded when the
    vertex count is over the enumeration cap.
    """
    n = g.n
    cap = subset_cap()
    if n > cap:
        raise SubsetCapExceeded(f"{n} vertices exceeds the subset cap {cap}")
    adj = g.adj
    full = (1 << n) - 1

    def capped_cut_rank(subset: tuple[int, ...], lim: int) -> int:
        comp = full
        for v in subset:
            comp ^= 1 << v
        return rank_bits([adj[u] & comp for u in subset], lim)

    found = first_separation(n, k, capped_cut_rank)
    if found is None:
        return None
    subset, value = found
    return Separation(subset, value + 1, value)
