"""Cut-rank of vertex bipartitions and rank-connectivity certification.

The cut-rank of (X, V-X) is the GF(2) rank of the adjacency matrix
between the two sides.  A graph is k-rank-connected when no partition
(A, B) with |A|, |B| >= l has cut-rank below l, for any l in 1..k-1;
every graph is therefore 1-rank-connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import SubsetCapExceeded
from .gf2 import rank_bits
from .graph import Graph

SUBSET_CAP = 24  # the most vertices or elements a subset search enumerates


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


def first_separation(n: int, k: int,
                     value: Callable[[list[int], int, int], int]
                     ) -> Optional[tuple[tuple[int, ...], int]]:
    """The first X with value(X) < l <= |X|, |V-X| for some l in 1..k-1.

    The witness has the least order l, then the least size, then comes
    first lexicographically; its value is l - 1.  X is the smaller side,
    and a balanced split is given by the side holding 0.
    ``value(members, out_mask, lim)`` must return min(the rank of the
    members' part on the columns in ``out_mask``, lim), monotone in both
    arguments; with ``out_mask`` the complement of X it is X's value.
    The walk is depth-first over sorted prefixes P, sizes ascending,
    with lim = min(size, least order still open).  Every vertex below
    P's last one and outside P is outside each completion of P, so
    value(P, those vertices, lim) >= lim rules out the whole subtree
    (a prefix shorter than lim, whose rank is below it, is not ranked);
    lim only falls, so pruning never hides the first witness.  Memory
    is O(n): the current prefix, nothing per subset.  Returns
    (X, value) or None.
    """
    top = k - 1  # a new witness must have a value below top
    if top < 1:
        return None
    full = (1 << n) - 1
    best = None
    members: list[int] = []

    def extend(mask: int, lo: int, size: int) -> bool:
        """Walk the completions of members; True once a value-0 witness is found."""
        nonlocal best, top
        depth = len(members) + 1
        for v in range(lo, 1 if depth == 1 and 2 * size == n else n - size + depth):
            bit = 1 << v
            members.append(v)
            lim = min(size, top)
            if depth == size:
                r = value(members, full ^ mask ^ bit, lim)
                if r < lim:
                    best, top = (tuple(members), r), r
                    if r == 0:
                        return True
            elif (depth < lim or value(members, (bit - 1) ^ mask, lim) < lim) \
                    and extend(mask | bit, v + 1, size):
                return True
            members.pop()
        return False

    for size in range(1, n // 2 + 1):
        if extend(0, 0, size):
            break
    return best


def find_low_rank_separation(g: Graph, k: int) -> Optional[Separation]:
    """First separation of rank l for some l in 1..k-1, or None.

    The witness X has the least order l, then the least size |X| (only
    the smaller side, by the X <-> V-X symmetry; a balanced split by
    the side holding vertex 0), then is lexicographically first, so it
    is deterministic.  The search is ``first_separation`` with
    value(P, out, lim) = rank_bits of P's rows masked to out, stopped at
    lim: a submatrix of P's cut matrix, so a prefix whose rank already
    reaches lim prunes every split it starts.  Ranks are computed only
    up to the least order still open, memory is O(n), and the witness
    is that of the full scan.  Raises SubsetCapExceeded when the vertex
    count is over the enumeration cap.
    """
    n = g.n
    if n > SUBSET_CAP:
        raise SubsetCapExceeded(f"{n} vertices exceeds the subset cap {SUBSET_CAP}")
    adj = g.adj

    def capped_cut_rank(members: list[int], out: int, lim: int) -> int:
        return rank_bits([adj[u] & out for u in members], lim)

    found = first_separation(n, k, capped_cut_rank)
    if found is None:
        return None
    subset, value = found
    return Separation(subset, value + 1, value)
