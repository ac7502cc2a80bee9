"""Cut-rank of vertex bipartitions and rank-connectivity certification.

The cut-rank of (X, V-X) is the GF(2) rank of the adjacency matrix
between the two sides.  A graph is k-rank-connected when no partition
(A, B) with |A|, |B| >= l has cut-rank below l, for any l in 1..k-1;
every graph is therefore 1-rank-connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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


def find_low_rank_separation(g: Graph, k: int) -> Optional[Separation]:
    """First separation of rank l for some l in 1..k-1, or None.

    The witness X has the least order l, then the least size |X| (only
    the smaller side, by the X <-> V-X symmetry; a balanced split by
    the side holding vertex 0), then is lexicographically first, so it
    is deterministic; its cut-rank is l - 1.  The walk is depth-first
    over sorted prefixes P, sizes ascending, with lim = min(size, least
    order still open), and ranks are computed only up to lim.  Every
    vertex below P's last one and outside P is outside each completion
    of P, so P's rows on those columns are a submatrix of every
    completion's cut matrix, and two bounds follow.  Before sibling v
    joins the members M, M's rows on the columns below v and outside M
    are ranked: every completion of M + v' with v' >= v keeps those
    columns on its other side, so once their rank reaches lim the
    sibling loop ends, leaves included.  That elimination is then
    continued with v's row, which gives the rank of M + v on the same
    columns, and once it reaches lim the subtree below M + v is pruned
    (a prefix shorter than lim, whose rank is below it, is not ranked).
    lim only falls, so neither bound hides the first witness, which is
    that of the full scan.  Memory is the current prefix and one
    elimination state of at most lim rows per frame of the walk, which
    is at most n/2 frames deep, so O(n k) rows in all; nothing is kept per
    subset.  Raises SubsetCapExceeded when the vertex count is over the
    enumeration cap.
    """
    n = g.n
    if n > SUBSET_CAP:
        raise SubsetCapExceeded(f"{n} vertices exceeds the subset cap {SUBSET_CAP}")
    top = k - 1  # a new witness must have a cut-rank below top
    if top < 1:
        return None
    adj = g.adj
    full = (1 << n) - 1
    best = None
    members: list[int] = []

    def extend(mask: int, lo: int, size: int) -> bool:
        """Walk the completions of members; True once a rank-0 witness is found."""
        nonlocal best, top
        depth = len(members) + 1
        for v in range(lo, 1 if depth == 1 and 2 * size == n else n - size + depth):
            bit = 1 << v
            cols = (bit - 1) ^ mask  # outside every completion of members + v', v' >= v
            lim = min(size, top)
            lead: dict[int, int] = {}
            if depth > lim and rank_bits([adj[u] & cols for u in members], lim, lead) == lim:
                break
            members.append(v)
            if depth == size:
                out = full ^ mask ^ bit
                r = rank_bits([adj[u] & out for u in members], lim)
                if r < lim:
                    best, top = Separation(tuple(members), r + 1, r), r
                    if r == 0:
                        return True
            elif (depth < lim  # lead holds the members' rows only when depth > lim
                  or rank_bits([adj[u] & cols for u in members] if depth == lim
                               else [adj[v] & cols], lim, lead) < lim) \
                    and extend(mask | bit, v + 1, size):
                return True
            members.pop()
        return False

    for size in range(1, n // 2 + 1):
        if extend(0, 0, size):
            break
    return best
