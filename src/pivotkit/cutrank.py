"""Cut-rank of vertex bipartitions and rank-connectivity certification.

The cut-rank of (X, V-X) is the GF(2) rank of the adjacency matrix
between the two sides.  A graph is k-rank-connected when no partition
(A, B) with |A|, |B| >= l has cut-rank below l, for any l in 1..k-1;
every graph is therefore 1-rank-connected.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import SubsetCapExceeded
from .gf2 import rank_bits
from .graph import Graph

SUBSET_CAP = 24  # the most vertices or elements a subset search enumerates


class Separation(NamedTuple):
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
    over sorted prefixes, the members M, sizes ascending, with lim =
    min(size, least order still open).  Each frame keeps one echelon of
    M's rows on the columns outside M, keyed by lowest bit, so the rank
    of those rows on any set of columns below a vertex v is the number
    of lowest bits below v.  Every vertex below v and outside M is
    outside each completion of M + v' with v' >= v, so M's rows on those
    columns are a submatrix of every such completion's cut matrix: once
    their rank reaches lim the sibling loop ends, leaves included (the
    child frame's first sibling makes the same test for M + v, so it
    prunes the subtree below M + v).  A leaf's cut-rank is the size of
    its echelon.  lim only falls, so the bound never hides the first
    witness, which is that of the full scan.  Memory is one echelon of
    at most n/2 rows per frame of the walk, which is at most n/2 frames
    deep; nothing is kept per subset.  Raises SubsetCapExceeded when the
    vertex count is over the enumeration cap.
    """
    n = g.n
    if n > SUBSET_CAP:
        raise SubsetCapExceeded(f"{n} vertices exceeds the subset cap {SUBSET_CAP}")
    top = k - 1  # a new witness must have a cut-rank below top
    if top < 1:
        return None
    adj = g.adj
    best = None

    def extend(rows: dict[int, int], mask: int, lo: int, size: int) -> bool:
        """Walk the completions of the members in mask; True once a rank-0
        witness is found.  rows is an echelon of their rows on the columns
        outside mask, one row per lowest bit (a one-bit mask, never in
        mask); a row's bits in mask are stale, and are masked off where the
        row is used."""
        nonlocal best, top
        depth = mask.bit_count() + 1
        leads = sum(rows)
        for v in range(lo, 1 if depth == 1 and 2 * size == n else n - size + depth):
            bit = 1 << v
            lim = min(size, top)
            if (leads & (bit - 1)).bit_count() >= lim:
                break
            grown = mask | bit
            keep = ~grown
            child = dict(rows)
            for row in (child.pop(bit, 0), adj[v]):
                row &= keep
                while row:
                    low = row & -row
                    if low not in child:
                        child[low] = row
                        break
                    row = (row ^ child[low]) & keep
            if depth < size:
                if extend(child, grown, v + 1, size):
                    return True
            elif len(child) < lim:
                r = len(child)
                side = tuple(u for u in range(v + 1) if grown >> u & 1)
                best, top = Separation(side, r + 1, r), r
                if r == 0:
                    return True
        return False

    for size in range(1, n // 2 + 1):
        if extend({}, 0, 0, size):
            break
    return best
