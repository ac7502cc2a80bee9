"""The graph pivot operation, pivot orbits, and pivot-minor search.

Pivoting an edge xy partitions the other neighbours of x and y into
three regions (private to x, private to y, common), complements all
edges between distinct regions, and swaps the labels x and y.  The
searches here work on labeled graphs and deduplicate states by a
canonical form, so they are exact at small scale.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .errors import NotAnEdge, OrbitBudgetExceeded, SearchBudgetExceeded
from .graph import Graph, _bits


def pivot(g: Graph, x: int, y: int) -> Graph:
    """Pivot the edge xy; raises NotAnEdge when xy is not an edge."""
    if x == y or not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
        raise NotAnEdge(f"({x},{y}) is not an edge")
    ax, ay = g.adj[x], g.adj[y]
    v1 = ax & ~ay & ~(1 << y)
    v2 = ay & ~ax & ~(1 << x)
    v3 = ax & ay
    adj = list(g.adj)
    for p_mask, q_mask in ((v1, v2), (v2, v3), (v3, v1)):
        for u in _bits(p_mask):
            adj[u] ^= q_mask
        for w in _bits(q_mask):
            adj[w] ^= p_mask
    # Swap the labels x and y: exchange rows, then bits x and y in every row.
    adj[x], adj[y] = adj[y], adj[x]
    for u in range(g.n):
        row = adj[u]
        bx, by = (row >> x) & 1, (row >> y) & 1
        if bx != by:
            row ^= (1 << x) | (1 << y)
        adj[u] = row
    out = Graph(g.n)
    out.adj = adj
    return out


def pivot_orbit(g: Graph, max_size: int) -> list[Graph]:
    """Breadth-first closure of g under pivoting over all edges.

    Raises OrbitBudgetExceeded as soon as the orbit grows past max_size,
    and ValueError when max_size < 1.  Graphs are labeled; the orbit is
    returned in discovery order.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    seen = {g.key()}
    order = [g]
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for u, v in h.edge_list():
                p = pivot(h, u, v)
                k = p.key()
                if k not in seen:
                    seen.add(k)
                    if len(seen) > max_size:
                        raise OrbitBudgetExceeded(f"orbit exceeds {max_size}")
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    return order


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Refine a colouring until the number of classes stops growing.

    A signature is a colour and the multiset of neighbour colours, packed
    into one integer (the colour above a count per colour, each field
    wide enough for n - 1); new colours rank the distinct signatures.
    """
    n, classes = len(colors), len(set(colors))
    width = n.bit_length()
    while classes < n:
        weights = [1 << (width * c) for c in colors]
        top = width * (max(colors) + 1)
        sigs = [(c << top) + sum(map(weights.__getitem__, nb)) for c, nb in zip(colors, nbrs)]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranks[s] for s in sigs]
        if len(ranks) == classes:
            break
        classes = len(ranks)
    return colors


def canonical_form(g: Graph) -> tuple:
    """A canonical key, (n, least leaf code), by individualization-refinement.

    Keys are equal exactly when graphs are isomorphic.  Starting from
    degrees, refine; then, for each vertex of the first smallest class
    with more than one vertex, give it its own colour just before the
    rest of its class and recurse.  A leaf, where all colours differ,
    codes the adjacency upper triangle in colour order.  Equal leaf codes
    give automorphisms, which prune children in one orbit (McKay and
    Piperno, "Practical graph isomorphism II", J. Symb. Comput. 2014).
    """
    n, adj = g.n, g.adj
    nbrs = [list(_bits(row)) for row in adj]
    best = best_order = None
    autos: list[tuple[list[int], int]] = []  # (vertex map, its fixed points)

    def search(colors: list[int], path: int) -> None:
        nonlocal best, best_order
        colors = _refine(nbrs, colors)
        if len(set(colors)) == n:
            order = sorted(range(n), key=colors.__getitem__)
            code = 0
            for j, v in enumerate(order):
                for u in order[:j]:
                    code = (code << 1) | ((adj[v] >> u) & 1)
            if best is None or code < best:
                best, best_order = code, order
            elif code == best:
                auto = [v for _, v in sorted(zip(best_order, order))]
                autos.append((auto, sum(1 << u for u in range(n) if auto[u] == u)))
            return
        sizes = Counter(colors)
        target = min((k, c) for c, k in sizes.items() if k > 1)[1]
        doubled = [2 * c + 1 for c in colors]  # room below each class
        seen: set[int] = set()  # orbits of the children searched so far
        for v in range(n):
            if colors[v] == target and v not in seen:
                doubled[v] -= 1
                search(doubled, path | (1 << v))
                doubled[v] += 1
                # Automorphisms fixing the path map v's subtree onto its images'.
                fixing = [a for a, fixed in autos if path & ~fixed == 0]
                stack = [v]
                while stack:
                    u = stack.pop()
                    if u not in seen:
                        seen.add(u)
                        stack.extend(a[u] for a in fixing)

    search([len(nb) for nb in nbrs], 0)
    return (n, best)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: equal vertex counts and canonical forms."""
    return g1.n == g2.n and canonical_form(g1) == canonical_form(g2)


def is_pivot_minor(h: Graph, g: Graph, budget: int) -> tuple[bool, Optional[list[tuple]]]:
    """Decide whether h is reachable from g by pivots and vertex deletions.

    Breadth-first search over canonical forms with a node budget; raises
    SearchBudgetExceeded when the budget runs out (result unknown, which
    is deliberately distinct from False), and ValueError when budget < 1.
    On success, returns the witness sequence of ("pivot", x, y) /
    ("delete", v) steps, each in the labels of the intermediate graph it
    applies to.  Each labelled graph is canonicalised at most once: a
    repeat (pivoting an edge back gives the parent) was matched or seen
    already.  At most 1 + budget * (n + n(n-1)/2) labelled keys are kept
    for an n-vertex g, so the budget caps memory as well as time.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if h.n > g.n:
        return False, None
    target = canonical_form(h)
    start_key = canonical_form(g)
    if g.n == h.n and start_key == target:
        return True, []
    seen = {start_key}
    met = {g.key()}
    frontier: list[tuple[Graph, list[tuple]]] = [(g, [])]
    expanded = depth = 0
    while frontier:
        nxt: list[tuple[Graph, list[tuple]]] = []
        for cur, path in frontier:
            expanded += 1
            if expanded > budget:
                raise SearchBudgetExceeded(budget, expanded - 1, len(seen), depth)
            succs: list[tuple[Graph, tuple]] = []
            for u, v in cur.edge_list():
                succs.append((pivot(cur, u, v), ("pivot", u, v)))
            if cur.n > h.n:
                for v in range(cur.n):
                    succs.append((cur.delete_vertex(v), ("delete", v)))
            for nxt_g, step in succs:
                if (labelled := nxt_g.key()) in met:
                    continue
                met.add(labelled)
                k = canonical_form(nxt_g)
                if k in seen:
                    continue
                seen.add(k)
                new_path = path + [step]
                if nxt_g.n == h.n and k == target:
                    return True, new_path
                nxt.append((nxt_g, new_path))
        frontier = nxt
        depth += 1
    return False, None
