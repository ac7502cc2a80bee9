"""Simple graphs, bipartite graphs, and small-scale subgraph predicates.

Vertices are 0..n-1.  Adjacency is kept as one bitmask per vertex, which
keeps the exhaustive searches in this package fast without numpy.  A
bipartite graph is its biadjacency BitMatrix: the rows are side A and
the columns side B.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from typing import Iterable, NamedTuple, Optional

from ._text import content_lines, read_edges, read_header
from .gf2 import BitMatrix


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _deleted(adj: list[int], v: int) -> list[int]:
    """The rows without vertex v, the vertices above v relabelled down by one."""
    low = (1 << v) - 1
    return [(row & low) | (row >> (v + 1) << v) for row in adj[:v] + adj[v + 1:]]


def _bfs(adj: list[int], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first walk over adjacency bitmasks from root.

    Returns the visiting order, which holds exactly the vertices reached,
    and each vertex's parent: -1 for the root and for every vertex not
    reached.  Neighbours are visited in ascending label.
    """
    parent = [-1] * len(adj)
    order = [root]
    seen = 1 << root
    for v in order:
        fresh = adj[v] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            w = low.bit_length() - 1
            parent[w] = v
            order.append(w)
            fresh ^= low
    return order, parent


class Graph:
    """A simple undirected graph on vertices 0..n-1 (no loops)."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.adj = [0] * n
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: {u},{v}")
        if u == v:
            raise ValueError("loops are not allowed")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_list(self) -> list[tuple[int, int]]:
        """The edges (u, v) with u < v, by u and then by v."""
        edges = []
        for u, row in enumerate(self.adj):
            row >>= u + 1
            while row:
                low = row & -row
                edges.append((u, u + low.bit_length()))
                row ^= low
        return edges

    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v, relabelling vertices above v down by one."""
        if not (0 <= v < self.n):
            raise ValueError("vertex out of range")
        g = Graph(self.n - 1)
        g.adj = _deleted(self.adj, v)
        return g

    def key(self) -> tuple:
        return (self.n, tuple(self.adj))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])


class DegreeStats(NamedTuple):
    min_degree: int
    max_degree: int
    average_degree: Fraction


class BicliqueWitness(NamedTuple):
    """A complete bipartite subgraph: the s-set lives on `s_side`."""

    s_side: str  # "A" or "B"
    s_set: tuple[int, ...]
    t_set: tuple[int, ...]


def bipartite_complement(g: BitMatrix) -> BitMatrix:
    """Flip every cross pair; an involution on bipartite graphs."""
    full = (1 << g.ncols) - 1
    return BitMatrix(g.nrows, g.ncols, [r ^ full for r in g.rows])


def _search_biclique(masks: list[int], s: int, t: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The lexicographically first s rows sharing at least t columns, and
    the first t of those.  Rows are picked depth first; a prefix that
    already shares fewer than t columns is not extended."""
    candidates = [i for i, m in enumerate(masks) if m.bit_count() >= t]
    if len(candidates) < s:
        return None
    # Positions in candidates, and common[d]: the columns the first d share.
    picked, common, k = [], [-1], 0
    while len(picked) < s:
        if k > len(candidates) - s + len(picked):  # too few candidates left
            if not picked:
                return None
            k = picked.pop() + 1
            common.pop()
            continue
        both = common[-1] & masks[candidates[k]]
        if both.bit_count() >= t:
            picked.append(k)
            common.append(both)
        k += 1
    return tuple(candidates[k] for k in picked), tuple(islice(_bits(common[-1]), t))


def find_complete_bipartite(g: BitMatrix, s: int, t: int) -> Optional[BicliqueWitness]:
    """Search for a K_{s,t} subgraph, trying both side orientations.

    Returns None when no such subgraph exists.  s and t are symmetric
    (K_{s,t} and K_{t,s} are the same graph), so they are normalized.
    """
    if s < 1 or t < 1:
        raise ValueError("biclique sides must be positive")
    if s > t:
        s, t = t, s
    hit = _search_biclique(g.rows, s, t)
    if hit:
        return BicliqueWitness("A", hit[0], hit[1])
    hit = _search_biclique(g.transpose().rows, s, t)
    if hit:
        return BicliqueWitness("B", hit[0], hit[1])
    return None


def is_c4_free(g: Graph) -> bool:
    """True iff no two distinct vertices share two or more neighbours."""
    for u in range(g.n):
        au = g.adj[u]
        for v in range(u + 1, g.n):
            if (au & g.adj[v]).bit_count() >= 2:
                return False
    return True


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(_bfs(g.adj, 0)[0]) == g.n


def shape(g: Graph) -> tuple[tuple[int, ...], bool]:
    """The sorted sizes of g's components, and whether g is bipartite.

    One breadth-first walk by levels per component, from its least
    vertex: the next level is the union of the level's rows less the
    vertices reached.  Every edge of a component joins a level to itself
    or to the next, and an edge inside a level closes an odd cycle;
    without one, the levels of even and odd depth are the two sides.
    """
    adj, sizes, odd = g.adj, [], 0
    left = (1 << g.n) - 1
    while left:
        reached = level = left & -left
        while level:
            nxt, rest = 0, level
            while rest:
                low = rest & -rest
                row = adj[low.bit_length() - 1]
                nxt |= row
                odd |= row & level
                rest ^= low
            level = nxt & ~reached
            reached |= level
        left ^= reached
        sizes.append(reached.bit_count())
    sizes.sort()
    return tuple(sizes), not odd


def distance_hereditary(g: Graph) -> bool:
    """Whether g is distance-hereditary: every connected induced
    subgraph keeps g's distances.

    Bandelt and Mulder (JCTB 41, 1986): g is distance-hereditary exactly
    when deleting isolated vertices, pendant vertices and one of each
    pair of twins (equal open or equal closed neighbourhoods) leaves at
    most one vertex, and any such deletion keeps the answer.  Each pass
    deletes every vertex of degree at most 1 and every vertex whose
    neighbourhood, open or closed, equals one a kept vertex had earlier
    in the pass.  An open neighbourhood never equals a closed one, and
    one recorded before a deletion matches only when the deleted vertex
    was not in it, so each match is a pair of twins; a pass that deletes
    nothing has checked every pair.
    """
    adj, left = g.adj, (1 << g.n) - 1
    pruned = True
    while pruned and left & (left - 1):
        pruned, kept = False, set()  # the neighbourhoods of kept vertices
        for v in _bits(left):
            row = adj[v] & left
            closed = row | 1 << v
            if row & (row - 1) == 0 or row in kept or closed in kept:
                left ^= 1 << v
                pruned = True
            else:
                kept.add(row)
                kept.add(closed)
    return left & (left - 1) == 0


def _local_vertex_connectivity(net: list[int], s: int, t: int, cutoff: int) -> int:
    """Max internally vertex-disjoint s-t paths in net, stopping at cutoff."""
    res = list(net)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cutoff:
        parent = _bfs(res, source)[1]
        if parent[sink] == -1:
            break
        b = sink
        while b != source:
            a = parent[b]
            res[a] ^= 1 << b
            res[b] ^= 1 << a
            b = a
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Size of a minimum vertex cut; n-1 for complete graphs.

    Exact at desk scale (intended for n <= 20).  Runs unit-capacity
    max-flows only over the Esfahanian-Hakimi pairs (Networks 14, 1984):
    with v the least vertex of minimum degree, v against each
    non-neighbour, then each non-adjacent pair of v's neighbours.  A
    minimum cut either misses v, and separates it from a non-neighbour,
    or holds v, and then separates two of its neighbours.  The cutoff
    starts at deg(v), an upper bound on the answer.
    """
    n = g.n
    if n <= 1 or not is_connected(g):
        return 0
    degs = [a.bit_count() for a in g.adj]
    best = min(degs)
    v = degs.index(best)
    if best == n - 1:
        return best
    # Node-split network, in(u) = 2u and out(u) = 2u + 1, with unit arcs
    # in(u) -> out(u) and out(u) -> in(w) for each edge.  No arc's reverse
    # is an arc, so the residual network is one successor mask per node
    # and pushing a unit along a -> b moves bit b of a to bit a of b.
    net = []
    for u, mask in enumerate(g.adj):
        net += [1 << (2 * u + 1), sum(1 << (2 * w) for w in _bits(mask))]
    near = g.adj[v]
    pairs = [(v, w) for w in _bits(((1 << n) - 1) ^ near ^ (1 << v))]
    pairs += [(x, y) for x, y in combinations(_bits(near), 2) if not g.adj[x] >> y & 1]
    for s, t in pairs:
        if best == 1:  # the least value of a connected graph
            break
        best = _local_vertex_connectivity(net, s, t, best)
    return best


def degree_stats(g) -> DegreeStats:
    """Exact min/max/average degree of a Graph or a bipartite BitMatrix."""
    if isinstance(g, BitMatrix):
        degs = ([r.bit_count() for r in g.rows]
                + [c.bit_count() for c in g.transpose().rows])
    else:
        degs = [g.degree(v) for v in range(g.n)]
    if not degs:
        return DegreeStats(0, 0, Fraction(0))
    return DegreeStats(min(degs), max(degs), Fraction(sum(degs), len(degs)))


def format_graph(g: Graph) -> str:
    """The graph's text, each edge under its lower end, built one string
    per row so that its peak memory stays within a few times the
    output's length."""
    above = ((u, a >> u + 1 << u + 1) for u, a in enumerate(g.adj))
    rows = (f"{u} " + f"\n{u} ".join(map(str, _bits(a))) for u, a in above if a)
    return "\n".join([f"graph {g.n}", *rows, ""])


def parse_graph(text: str) -> Graph:
    lines = content_lines(text)
    n, = read_header(lines, "graph", "vertices")
    g = Graph(n)
    read_edges(lines, g.add_edge)
    return g


def format_bigraph(g: BitMatrix) -> str:
    """The bigraph's text, built one string per row so that its peak
    memory stays within a few times the output's length."""
    rows = (f"{i} " + f"\n{i} ".join(map(str, _bits(row))) for i, row in enumerate(g.rows) if row)
    return "\n".join([f"bigraph {g.nrows} {g.ncols}", *rows, ""])


def parse_bigraph(text: str) -> BitMatrix:
    lines = content_lines(text)
    m = BitMatrix(*read_header(lines, "bigraph", "vertices on one side", "vertices on one side"))
    read_edges(lines, lambda u, v: m.set(u, v, 1))
    return m
