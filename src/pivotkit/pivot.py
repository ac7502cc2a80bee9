"""The graph pivot operation, pivot orbits, and pivot-minor search.

Pivoting an edge xy partitions the other neighbours of x and y into
three regions (private to x, private to y, common), complements all
edges between distinct regions, and swaps the labels x and y.  The
searches here work on labeled graphs and deduplicate states by a
canonical form, so they are exact at small scale.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .cutrank import SUBSET_CAP
from .errors import CapExceeded, NotAnEdge, OrbitBudgetExceeded, SearchBudgetExceeded
from .graph import Graph, _deleted, distance_hereditary, shape


def _pivoted(adj: list[int], x: int, y: int) -> list[int]:
    """pivot's rows for the graph with rows adj and the edge xy, unchecked."""
    ax, ay = adj[x], adj[y]
    xy = (1 << x) | (1 << y)
    v1 = ax & ~ay & ~(1 << y)
    v2 = ay & ~ax & ~(1 << x)
    v3 = ax & ay
    rows = adj[:]
    for region, flip in ((v1, v2 | v3 | xy), (v2, v1 | v3 | xy), (v3, v1 | v2)):
        while region:
            low = region & -region
            rows[low.bit_length() - 1] ^= flip
            region ^= low
    rows[x], rows[y] = ay ^ xy, ax ^ xy
    return rows


def _graph(rows: list[int]) -> Graph:
    """The graph with adjacency rows rows, which it keeps."""
    g = Graph(0)
    g.n, g.adj = len(rows), rows
    return g


def pivot(g: Graph, x: int, y: int) -> Graph:
    """Pivot the edge xy; raises NotAnEdge when xy is not an edge.

    Only the rows of x, y and their neighbours change; any other row is
    adjacent to neither.  With V1, V2 and V3 the neighbours private to x,
    private to y and common, a row in one region flips its bits in the
    other two, a V1 or V2 row also swaps its bits x and y, which differ
    there, and rows x and y are exchanged with those bits swapped.
    """
    if x == y or not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
        raise NotAnEdge(f"({x},{y}) is not an edge")
    return _graph(_pivoted(g.adj, x, y))


def _check_host(g: Graph) -> None:
    """Raise CapExceeded when g has more vertices than SUBSET_CAP."""
    if g.n > SUBSET_CAP:
        raise CapExceeded(f"{g.n} vertices exceeds the cap {SUBSET_CAP}")


def pivot_orbit(g: Graph, max_size: int) -> list[Graph]:
    """Breadth-first closure of g under pivoting over all edges.

    Raises OrbitBudgetExceeded as soon as the orbit grows past max_size,
    saying how many graphs were found and how deep, ValueError when
    max_size < 1, and CapExceeded when g has more than SUBSET_CAP
    vertices.  Graphs are labeled; the orbit is returned in discovery
    order.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    _check_host(g)
    seen = {tuple(g.adj)}
    order = [g]
    depth = [0]
    for h, d in zip(order, depth):  # the loop also visits the graphs appended below
        for u, v in h.edge_list():
            rows = _pivoted(h.adj, u, v)
            if (k := tuple(rows)) not in seen:
                seen.add(k)
                if len(seen) > max_size:
                    raise OrbitBudgetExceeded(max_size, len(seen), d + 1)
                order.append(_graph(rows))
                depth.append(d + 1)
    return order


def _refine(adj: list[int], cells: list[int], queue: list[int]) -> list[int]:
    """Split an ordered partition until it is equitable, by splitter cells.

    Cells and splitters are vertex masks.  Each splitter S, in queue
    order, splits every cell by the number of neighbours in S of its
    vertices; the pieces replace the cell in place, in ascending count,
    and join the queue, so the one cell V with splitter V splits into the
    degree classes.  Returns the partition once the queue is used up or
    every cell is a singleton.
    """
    n = len(adj)
    for s in queue:  # the loop also visits the pieces appended below
        if len(cells) == n:
            break
        out: list[int] = []
        if s & (s - 1) == 0:  # the 78 pivot-search bench queries take 5-8% more CPU without it
            row = adj[s.bit_length() - 1]
            for c in cells:
                hit = c & row
                if hit and hit != c:
                    out += (c ^ hit, hit)
                    queue += (c ^ hit, hit)
                else:
                    out.append(c)
            cells = out
            continue
        for c in cells:
            if c & (c - 1) == 0:  # and 3-6% more without this skip
                out.append(c)
                continue
            pieces: dict[int, int] = {}  # count in S -> vertices with it
            rest = c
            while rest:
                low = rest & -rest
                k = (adj[low.bit_length() - 1] & s).bit_count()
                pieces[k] = pieces.get(k, 0) | low
                rest ^= low
            if len(pieces) == 1:
                out.append(c)
                continue
            split = [pieces[k] for k in sorted(pieces)]
            out += split
            queue += split
        cells = out
    return cells


def _twin_swaps(adj: list[int]) -> list[tuple[list[int], int]]:
    """Transpositions of twins, as (vertex map, its fixed points).

    Twins have equal open or equal closed neighbourhoods, so swapping two
    of them fixes every other vertex and is an automorphism.  The swaps of
    consecutive members of a twin class generate all its permutations.
    """
    n = len(adj)
    swaps = []
    for rows in (adj, [row | 1 << v for v, row in enumerate(adj)]):
        last: dict[int, int] = {}  # neighbourhood -> its latest vertex
        for v, row in enumerate(rows):
            u = last.get(row)
            if u is not None:
                auto = list(range(n))
                auto[u], auto[v] = v, u
                swaps.append((auto, ((1 << n) - 1) ^ (1 << u) ^ (1 << v)))
            last[row] = v
    return swaps


def _fixing(autos: list[tuple[list[int], int]], path: int) -> list[list[int]]:
    """The maps among (vertex map, its fixed points) that fix every vertex
    of the mask path, the individualized vertices: only those map one
    child's subtree onto another's."""
    return [a for a, fixed in autos if path & ~fixed == 0]


def canonical_form(g: Graph, automorphisms: Optional[list[list[int]]] = None) -> tuple:
    """A canonical key, (n, least leaf code), by individualization-refinement.

    Keys are equal exactly when graphs are isomorphic; the integer values
    may differ between versions of this function.  The ordered partition
    of the vertices, held as masks, starts as one cell, V, which splitter
    V splits by degree, and is refined by splitter cells until equitable.
    Then each vertex of the first smallest cell with more than one vertex
    gets a cell of its own just before the rest of that cell, and the
    search recurses with that vertex as the only splitter: the parent
    partition is already equitable.  A leaf, where all cells are
    singletons, codes the adjacency matrix with rows and columns in cell
    order: the rows are stacked in that order into one integer, and for
    the vertex v in cell i, column v is gathered into column i through a
    mask of bit 0 of every row.  Automorphisms fixing the
    individualized vertices prune children in one orbit; they come from
    equal leaf codes and, before the first branch, from transpositions of
    twins (McKay, "Practical graph isomorphism", 1981; McKay and Piperno,
    "Practical graph isomorphism II", J. Symb. Comput. 2014).  When an
    ``automorphisms`` list is given, every map found is appended to it,
    the twin transpositions and the equal-leaf maps, as a list a with
    vertex v sent to a[v]; each is an automorphism of g.
    """
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    cells = _refine(adj, [full], [full]) if n else []
    autos = _twin_swaps(adj) if len(cells) < n else []
    ones = ((1 << n * n) - 1) // full if n else 0  # bit 0 of every n-bit row
    best = best_order = None

    def search(cells: list[int], path: int) -> None:
        nonlocal best, best_order
        if len(cells) == n:
            order, rows = [], 0
            for c in cells:
                v = c.bit_length() - 1
                order.append(v)
                rows = rows << n | adj[v]
            code = 0
            for i, v in enumerate(order):  # column v of rows becomes column i
                code |= (rows >> v & ones) << i
            if best is None or code < best:
                best, best_order = code, order
            elif code == best:
                auto, fixed = [0] * n, 0
                for u, v in zip(best_order, order):
                    auto[u] = v
                    if u == v:
                        fixed |= 1 << u
                autos.append((auto, fixed))
            return
        sizes = [c.bit_count() if c & (c - 1) else n + 1 for c in cells]
        i = sizes.index(min(sizes))  # the first smallest cell of two or more
        cell = todo = cells[i]
        seen = 0  # orbits of the children searched so far
        while todo:
            b = todo & -todo
            search(_refine(adj, cells[:i] + [b, cell ^ b] + cells[i + 1:], [b]), path | b)
            seen |= b
            if todo & ~seen:
                # Automorphisms fixing the path map b's subtree onto its images'.
                fixing = _fixing(autos, path)
                stack = [b.bit_length() - 1]
                while stack:
                    u = stack.pop()
                    for a in fixing:
                        if not seen >> a[u] & 1:
                            seen |= 1 << a[u]
                            stack.append(a[u])
            todo &= ~seen

    search(cells, 0)
    if automorphisms is not None:
        automorphisms += (auto for auto, _ in autos)
    return (n, best)


def _orbit_firsts(g: Graph, autos: list[list[int]], deletions: bool) -> list[tuple[int, int]]:
    """The search steps from g that come first within their orbit under
    the group the maps generate, as pairs: (u, v) with u < v pivots the
    edge uv, in edge_list() order, and then, when deletions are allowed,
    (v, v) deletes v.

    Successors in one orbit of automorphisms of g are isomorphic, so only
    the first of them can reach a new class: the edge first in
    edge_list() order (pivoting xy and yx gives one graph) and the least
    vertex.  Taking vertex v as the pair (v, v) lets one closure over
    unordered pairs find both kinds of orbit.  Without maps every step
    is kept.
    """
    pairs = g.edge_list()
    if deletions:
        pairs += [(v, v) for v in range(g.n)]
    if not autos:  # the pivot-search bench takes 2-5% more CPU without it
        return pairs
    keep, met = [], set()
    for pair in pairs:
        if pair in met:
            continue
        keep.append(pair)
        met.add(pair)
        stack = [pair]
        while stack:
            u, v = stack.pop()
            for a in autos:
                x, y = a[u], a[v]
                image = (x, y) if x <= y else (y, x)
                if image not in met:
                    met.add(image)
                    stack.append(image)
    return keep


def is_pivot_minor(h: Graph, g: Graph, budget: int) -> tuple[bool, Optional[list[tuple]]]:
    """Decide whether h is reachable from g by pivots and vertex deletions.

    Breadth-first search over canonical forms with a node budget; raises
    SearchBudgetExceeded when the budget runs out (result unknown, which
    is deliberately distinct from False), ValueError when budget < 1, and
    CapExceeded, before any search, when g has more than SUBSET_CAP
    vertices.
    On success, returns the witness sequence of ("pivot", x, y) /
    ("delete", v) steps, each in the labels of the intermediate graph it
    applies to.  A state is expanded by one pivot per orbit of its edges
    and one deletion per orbit of its vertices, under the automorphisms
    canonical_form found while labelling it: the edge first in
    edge_list() order and the least vertex of each orbit.  A later member
    of an orbit has the first member's form, which is seen by then.  Each
    labelled graph is canonicalised at most once: a repeat (pivoting an
    edge back gives the parent) was matched or seen already.

    A state can still reach h only when it passes two host rules.  By
    the shape rule, its shape (graph.shape: its sorted component sizes
    and whether it is bipartite) is h's when it has as many vertices as
    h; with more, it is not bipartite when h is not, and its largest
    component has at least as many vertices as h's largest, 0 for a
    graph with no vertex.  By the distance-hereditary rule, it is not
    distance-hereditary (graph.distance_hereditary) when h is not.  A
    pivot keeps the cut-rank function (Oum, "Rank-width and
    vertex-minors", JCTB 95, 2005), so it keeps the vertex set of every
    component; it is an involution that maps bipartite graphs to
    bipartite graphs.  A deletion keeps a graph bipartite and only
    shrinks components.  The distance-hereditary graphs are the graphs
    of rank-width at most 1, and rank-width does not rise under pivots
    or deletions (Oum 2005), so both keep a graph distance-hereditary.
    A state with as many vertices as h is expanded only by pivots, so no
    state reachable from one that fails a rule is a copy of h.  The rules
    are tested on g once, before any form: a host that fails them answers
    False at once.  A deletion successor is tested before its form: one
    with as many vertices as h when it is met, a larger one when it is
    dequeued.  One that fails stays met, but gets no form and is neither
    queued nor expanded.  A pivot successor passes when its parent does
    and is not tested.  A state that reaches h is generated only from one
    that also reaches h, so among those states the FIFO order and which
    are met and seen are unchanged: the answer and the witness are those
    of the search that expands every successor, from at most its
    expansions.

    Successors wait in one FIFO queue.  An entry holds its parent, the
    parent's path and its step, as the pair _orbit_firsts gives.  One
    builder makes every successor: its adjacency rows are looked up among
    the met labelled graphs as a tuple, and only one not met becomes a
    Graph, is tested when it comes from a deletion, and is canonicalised
    with a maps list.  One with as many vertices as h is built when it is
    met, a larger one when it is dequeued.  The search returns at the
    first met whose form is h's, forming the witness from the path then,
    and queues any other in its parent's place with its graph, form and
    maps.  Entries leave the queue in the order they were made, so
    skipping a labelled repeat there keeps the first of each labelled
    graph, as skipping it when met would.  A dequeued state whose class is
    seen is dropped; otherwise its class is added and it is expanded, so
    seen counts the expansions.  When they pass the budget the search
    stops at once, reporting the labelled graphs it has built.  Every
    queue entry comes from one of at most budget expansions, so at most
    1 + budget * (n + n(n-1)/2) entries, labelled keys and built graphs
    are held for an n-vertex g, and the budget caps memory as well as time.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    _check_host(g)
    if h.n > g.n:
        return False, None
    h_shape = shape(h)
    h_bipartite, h_largest = h_shape[1], max(h_shape[0], default=0)
    h_dh = distance_hereditary(h)

    def can_host(s: Graph) -> bool:
        """Whether the state s passes the shape rule and the
        distance-hereditary rule for h."""
        sizes, bipartite = s_shape = shape(s)
        if s.n == h.n:
            fits = s_shape == h_shape
        else:
            fits = (h_bipartite or not bipartite) and sizes[-1] >= h_largest
        return fits and (h_dh or not distance_hereditary(s))

    if not can_host(g):
        return False, None
    target = canonical_form(h)
    autos: list[list[int]] = []
    start_key = canonical_form(g, autos)
    if start_key == target:
        return True, []
    seen: set = set()
    met = {tuple(g.adj)}  # labelled graphs; the tuple's length is the vertex count

    def build(cur: Graph, u: int, v: int) -> Optional[tuple]:
        """cur's successor by (u, v), its form and maps; None if met or ruled out."""
        rows = _pivoted(cur.adj, u, v) if u != v else _deleted(cur.adj, v)
        if (labelled := tuple(rows)) in met:
            return None
        met.add(labelled)
        nxt = _graph(rows)
        if u == v and not can_host(nxt):
            return None
        maps: list[list[int]] = []
        return nxt, canonical_form(nxt, maps), maps

    queue = deque([(None, [], None, (g, start_key, autos))])
    while queue:
        parent, path, step, state = queue.popleft()
        if state is None and (state := build(parent, *step)) is None:
            continue
        cur, k, autos = state
        if k in seen:
            continue
        seen.add(k)
        path = path + [step] if step else path
        if len(seen) > budget:
            raise SearchBudgetExceeded(budget, budget, len(met), len(path))
        for u, v in _orbit_firsts(cur, autos, cur.n > h.n):
            # A successor of h's size is built when met, so the search returns at
            # the first copy of h met; building all when dequeued takes twice as long.
            if cur.n - (u == v) > h.n:
                queue.append((cur, path, (u, v), None))
            elif (state := build(cur, u, v)) is not None:
                if state[1] == target:
                    return True, [("pivot", x, y) if x != y else ("delete", y)
                                  for x, y in path + [(u, v)]]
                queue.append((None, path, (u, v), state))
    return False, None
