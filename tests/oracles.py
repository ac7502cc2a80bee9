"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they validate: rank by row-space
enumeration, biclique search by subset-pair enumeration, cycles by edge
subset scanning, and fundamental matrices by GF(2) incidence solving.
``first_biclique`` is the earlier K_{s,t} search, which tries every
s-subset of rows in combinations order.
``blow_up`` builds the blown-up graphs that ``gen_c6_blowup_example``'s
fundamental graphs are compared with.
The separation searches are the earlier multi-pass versions: one pass
per order over a memo of every value, with a cut-rank that re-indexes
the complement columns bit by bit.  ``first_separation`` is the
earlier single pass, which ranks every smaller side once.  The matroid
connectivity function is the earlier one, ranking two submatrices of D
copied bit by bit.
The pivot is the earlier three-pass one: it complements each pair of
regions in turn, then exchanges rows x and y and swaps bits x and y in
every row.  The canonical form is the earlier one: the least adjacency
code over every ordering that lists the colour-refinement classes as
blocks, tried by backtracking.  The pivot-minor search is the earlier BFS,
which builds and canonicalises every successor (here with that
canonical form and that pivot), and the pivot orbit is the earlier
closure, which keeps one frontier list per level.  Distance-hereditary
graphs are tested by the definition, comparing the distances of every
connected induced subgraph with the whole graph's.
The tree split and its checker are the earlier set-based ones, which
build a Graph per part and test it by BFS.  Vertex connectivity is the
earlier all-pairs one, a max-flow on a freshly built network for every
non-adjacent pair; circuits are the earlier power-set scan, which XORs
the columns of [I|D] over every element subset.
"""

from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Optional

from pivotkit.cutrank import SUBSET_CAP, Separation
from pivotkit.errors import (ElementNotFound, GroundSetTooLarge, NotAnEdge, NotATree,
                             OrbitBudgetExceeded, SearchBudgetExceeded, SubsetCapExceeded,
                             TreeTooSmall)
from pivotkit.gf2 import BitMatrix, rank, rank_bits
from pivotkit.graph import Graph, _bfs, _bits, is_connected
from pivotkit.matroid import CIRCUIT_ENUM_CAP, BinaryMatroid, MultiGraph
from pivotkit.structure import Edge, SplitEdge, SplitVertex, TreeSplit


def rank_by_span(m: BitMatrix) -> int:
    """log2 of the row-space size, enumerated explicitly."""
    span = {0}
    for row in m.rows:
        span |= {row ^ v for v in span}
    size = len(span)
    return size.bit_length() - 1


def biclique_by_enumeration(g: BitMatrix, s: int, t: int) -> bool:
    """Exhaustive subset-pair search for K_{s,t} in either orientation
    of the bipartite graph with biadjacency matrix g."""
    for (p, q) in ((s, t), (t, s)):
        if p > g.nrows or q > g.ncols:
            continue
        for rows in combinations(range(g.nrows), p):
            for cols in combinations(range(g.ncols), q):
                if all(g.get(i, j) for i in rows for j in cols):
                    return True
    return False


def first_biclique(g: BitMatrix, s: int, t: int):
    """The earlier K_{s,t} search: the first s-subset of rows, in
    combinations order, whose common neighbourhood has at least t
    columns, then the same over the columns; (side, s-set, first t of
    the other side) or None."""
    if s > t:
        s, t = t, s
    for side, masks in (("A", g.rows), ("B", g.transpose().rows)):
        candidates = [i for i, m in enumerate(masks) if m.bit_count() >= t]
        for subset in combinations(candidates, s):
            inter = -1
            for i in subset:
                inter &= masks[i]
            if inter.bit_count() >= t:
                cols = [j for j in range(inter.bit_length()) if inter >> j & 1]
                return side, subset, tuple(cols[:t])
    return None


def blow_up(g: Graph, k: int) -> Graph:
    """Replace each vertex by k independent copies, joining copies of
    adjacent vertices completely; vertex u's copies are uk..uk+k-1."""
    if k < 1:
        raise ValueError("blow-up factor must be at least 1")
    out = Graph(g.n * k)
    for u, v in g.edge_list():
        for a in range(k):
            for b in range(k):
                out.add_edge(u * k + a, v * k + b)
    return out


def multigraph_cycles(mg: MultiGraph) -> frozenset[frozenset[str]]:
    """All edge sets of cycles: connected subsets with every vertex of
    degree exactly 2 (a loop alone is a cycle)."""
    edges = mg.edges
    out = set()
    for r in range(1, len(edges) + 1):
        for subset in combinations(edges, r):
            deg: dict[int, int] = {}
            for _, u, v in subset:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            # connectivity over the touched vertices
            verts = list(deg)
            adj = {v: set() for v in verts}
            for _, u, v in subset:
                adj[u].add(v)
                adj[v].add(u)
            seen = {verts[0]}
            stack = [verts[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == len(verts):
                out.add(frozenset(label for label, _, _ in subset))
    return frozenset(out)


def fundamental_matrix_by_solving(mg: MultiGraph, tree: frozenset[str]):
    """Fundamental matrix via GF(2) incidence-matrix solving.

    Each non-tree edge's column equals a unique XOR combination of the
    tree-edge incidence columns; that combination is its cycle row set.
    Returns (BitMatrix, tree labels, cotree labels) matching the order
    convention of pivotkit.matroid.graphic_matroid's rep, basis and
    nonbasis.
    """
    tree_labels = [lab for lab, _, _ in mg.edges if lab in tree]
    cotree_labels = [lab for lab, _, _ in mg.edges if lab not in tree]
    by_label = mg.edge_by_label()

    def incidence(label: str) -> int:
        u, v = by_label[label]
        if u == v:
            return 0
        return (1 << u) | (1 << v)

    d = BitMatrix(len(tree_labels), len(cotree_labels))
    nt = len(tree_labels)
    for j, lab in enumerate(cotree_labels):
        # Gaussian elimination on [tree columns | target] over GF(2).
        rows = [(incidence(t_lab), 1 << i) for i, t_lab in enumerate(tree_labels)]
        target, combo = incidence(lab), 0
        for col in range(mg.n):
            pivot_idx = None
            for idx, (vec, _) in enumerate(rows):
                if (vec >> col) & 1:
                    pivot_idx = idx
                    break
            if pivot_idx is None:
                continue
            pvec, pcombo = rows.pop(pivot_idx)
            if (target >> col) & 1:
                target ^= pvec
                combo ^= pcombo
            rows = [(v ^ pvec, c ^ pcombo) if (v >> col) & 1 else (v, c)
                    for v, c in rows]
        assert target == 0, "non-tree edge not in the tree's span"
        for i in range(nt):
            if (combo >> i) & 1:
                d.set(i, j, 1)
    return d, tree_labels, cotree_labels


def multigraph_minor(mg: MultiGraph, deletions: set[str], contractions: set[str]) -> MultiGraph:
    """Graph minor: delete edges, then contract edges by merging ends.

    Contracting a loop just removes it, matching the matroid convention.
    """
    merge = list(range(mg.n))

    def find(x: int) -> int:
        while merge[x] != x:
            merge[x] = merge[merge[x]]
            x = merge[x]
        return x

    by_label = mg.edge_by_label()
    for lab in contractions:
        u, v = by_label[lab]
        ru, rv = find(u), find(v)
        if ru != rv:
            merge[max(ru, rv)] = min(ru, rv)
    roots = sorted({find(v) for v in range(mg.n)})
    new_id = {r: i for i, r in enumerate(roots)}
    edges = []
    for lab, u, v in mg.edges:
        if lab in deletions or lab in contractions:
            continue
        edges.append((lab, new_id[find(u)], new_id[find(v)]))
    return MultiGraph(len(roots), edges)


def _cut_rank_mask(g: Graph, mask: int) -> int:
    comp = [v for v in range(g.n) if not (mask >> v) & 1]
    rows = []
    m = mask
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        au = g.adj[u]
        bits = 0
        for idx, v in enumerate(comp):
            bits |= ((au >> v) & 1) << idx
        rows.append(bits)
    return rank_bits(rows)


def find_low_rank_separation(g: Graph, k: int) -> Optional[Separation]:
    """First separation of rank l for some l in 1..k-1, or None.

    Enumerates l ascending, then |X| ascending (only the smaller side,
    by the X <-> V-X symmetry), then subsets lexicographically, so the
    returned witness is deterministic.  Raises SubsetCapExceeded when
    the vertex count is over the enumeration cap.
    """
    n = g.n
    if n > SUBSET_CAP:
        raise SubsetCapExceeded(f"{n} vertices exceeds the subset cap {SUBSET_CAP}")
    # Cache cut-ranks: each partition is visited once per l.
    cache: dict[int, int] = {}

    def cr(mask: int) -> int:
        val = cache.get(mask)
        if val is None:
            val = _cut_rank_mask(g, mask)
            cache[mask] = val
        return val

    for order in range(1, k):
        if 2 * order > n:
            break  # both sides must have at least `order` vertices
        for size in range(order, n // 2 + 1):
            for subset in combinations(range(n), size):
                if 2 * size == n and subset[0] != 0:
                    continue  # balanced splits are enumerated once
                mask = 0
                for v in subset:
                    mask |= 1 << v
                value = cr(mask)
                if value < order:
                    return Separation(subset, order, value)
    return None


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


def submatrix(m: BitMatrix, row_idx: Iterable[int], col_idx: Iterable[int]) -> BitMatrix:
    cols = list(col_idx)
    rows = []
    for i in row_idx:
        src = m.rows[i]
        bits = 0
        for k, j in enumerate(cols):
            bits |= ((src >> j) & 1) << k
        rows.append(bits)
    return BitMatrix(len(rows), len(cols), rows)


def connectivity_lambda(m: BinaryMatroid, x_set: Iterable[str]) -> int:
    """The connectivity function: rk(D[X_B, Y_C]) + rk(D[Y_B, X_C])."""
    xs = set(x_set)
    ground = m.ground()
    for e in xs:
        if e not in ground:
            raise ElementNotFound(e)
    xb = [i for i, b in enumerate(m.basis) if b in xs]
    yb = [i for i, b in enumerate(m.basis) if b not in xs]
    xc = [j for j, c in enumerate(m.nonbasis) if c in xs]
    yc = [j for j, c in enumerate(m.nonbasis) if c not in xs]
    return rank(submatrix(m.rep, xb, yc)) + rank(submatrix(m.rep, yb, xc))


def is_k_connected(m: BinaryMatroid, k: int) -> tuple[bool, Optional[frozenset[str]]]:
    """Whether lambda(X) >= l for every X with |X|, |E-X| >= l, l < k.

    Returns (True, None) or (False, witness X).  The witness is the
    first failure in the deterministic enumeration (l ascending, |X|
    ascending over the smaller side, elements in sorted label order).
    """
    elements = m.element_order()
    ne = len(elements)
    if ne > SUBSET_CAP:
        raise SubsetCapExceeded(f"{ne} elements exceeds the subset cap {SUBSET_CAP}")
    cache: dict[frozenset[str], int] = {}

    def lam(xs: frozenset[str]) -> int:
        val = cache.get(xs)
        if val is None:
            val = connectivity_lambda(m, xs)
            cache[xs] = val
        return val

    for order in range(1, k):
        if 2 * order > ne:
            break
        for size in range(order, ne // 2 + 1):
            for subset in combinations(elements, size):
                if 2 * size == ne and subset[0] != elements[0]:
                    continue
                xs = frozenset(subset)
                if lam(xs) < order:
                    return False, xs
    return True, None


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


def _refine_colors(g: Graph) -> list[int]:
    """Iterated neighbour-colour refinement; returns a colour per vertex."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sigs = []
        for v in range(g.n):
            nb = tuple(sorted(colors[w] for w in _bits(g.adj[v])))
            sigs.append((colors[v], nb))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_form(g: Graph) -> tuple:
    """A canonical key: minimum adjacency encoding over all vertex
    orderings consistent with colour refinement."""
    n = g.n
    if n == 0:
        return (0, 0)
    colors = _refine_colors(g)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    groups = [classes[c] for c in sorted(classes)]

    best: Optional[int] = None
    # Backtracking over orderings that list each colour class as a block,
    # pruning by comparing the partial upper-triangle encoding.
    order: list[int] = []

    def encode_prefix(full_check: bool) -> Optional[int]:
        nonlocal best
        code = 0
        pos = 0
        k = len(order)
        for j in range(1, k):
            vj = order[j]
            for i in range(j):
                code = (code << 1) | ((g.adj[vj] >> order[i]) & 1)
                pos += 1
        return code

    def rec(gi: int, remaining: list[list[int]]):
        nonlocal best
        if gi == len(groups):
            code = encode_prefix(True)
            if best is None or code < best:
                best = code
            return
        group = remaining[gi]
        for perm in permutations(sorted(group)):
            order.extend(perm)
            # Prune: compare prefix against the corresponding prefix of best.
            if best is not None:
                k = len(order)
                bits_here = k * (k - 1) // 2
                total = n * (n - 1) // 2
                prefix = encode_prefix(False)
                if prefix > (best >> (total - bits_here)):
                    del order[len(order) - len(perm):]
                    continue
            rec(gi + 1, remaining)
            del order[len(order) - len(perm):]

    rec(0, groups)
    return (n, best)


def pivot_orbit(g: Graph, max_size: int) -> list[Graph]:
    """Breadth-first closure of g under pivoting over all edges, one
    frontier list per level (here with the earlier pivot)."""
    seen = {g.key()}
    order = [g]
    frontier = [g]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for h in frontier:
            for u, v in h.edge_list():
                p = pivot(h, u, v)
                k = p.key()
                if k not in seen:
                    seen.add(k)
                    if len(seen) > max_size:
                        raise OrbitBudgetExceeded(max_size, len(seen), depth)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    return order


def is_pivot_minor(h: Graph, g: Graph, budget: int) -> tuple[bool, Optional[list[tuple]]]:
    """Decide whether h is reachable from g by pivots and vertex deletions.

    Breadth-first search over canonical forms with a node budget; raises
    SearchBudgetExceeded when the budget runs out (result unknown, which
    is deliberately distinct from False), and ValueError when budget < 1;
    its ``stored`` figure counts the graphs it keeps, one per class met.
    On success, returns the witness sequence of ("pivot", x, y) /
    ("delete", v) steps, each in the labels of the intermediate graph it
    applies to.
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


def _levels(adj: list[int], mask: int, v: int) -> list[int]:
    """The distance levels from v, as vertex masks, in the subgraph
    induced on mask."""
    levels, reached, level = [], 1 << v, 1 << v
    while level:
        levels.append(level)
        nxt = 0
        for u in _bits(level):
            nxt |= adj[u]
        level = nxt & mask & ~reached
        reached |= level
    return levels


def distance_hereditary(g: Graph) -> bool:
    """Whether g is distance-hereditary, by the definition: in every
    connected induced subgraph, each vertex's distance levels are g's
    restricted to the subgraph."""
    full = (1 << g.n) - 1
    whole = [_levels(g.adj, full, v) for v in range(g.n)]
    for s in range(1, full + 1):
        if sum(_levels(g.adj, s, (s & -s).bit_length() - 1)) != s:
            continue  # not connected
        for v in _bits(s):
            if any(level != w & s for level, w in zip(_levels(g.adj, s, v), whole[v])):
                return False
    return True


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _check_is_tree(t: Graph) -> None:
    if t.n == 0 or t.num_edges() != t.n - 1 or not is_connected(t):
        raise NotATree("expected a connected acyclic graph")


def _rooted(t: Graph, root: int):
    parent = [-1] * t.n
    order = [root]
    seen = 1 << root
    for v in order:
        mask = t.adj[v] & ~seen
        while mask:
            low = mask & -mask
            w = low.bit_length() - 1
            mask ^= low
            seen |= low
            parent[w] = v
            order.append(w)
    depth = [0] * t.n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    return parent, depth, order


def _subtree_edges(t: Graph, parent: list[int], order: list[int], v: int) -> set[Edge]:
    """Edges of the subtree hanging below v (descendants of v)."""
    desc = {v}
    out: set[Edge] = set()
    for w in order:
        if w != v and parent[w] in desc:
            desc.add(w)
            out.add(_norm_edge(parent[w], w))
    return out


def split_tree(t: Graph, s: int) -> TreeSplit:
    """Split a tree with at least 5s edges per the fixed recipe.

    Ties break deterministically: the root is vertex 0, the deepest
    qualifying vertex with the least label wins, and branches are
    grouped greedily in ascending child label.
    """
    if s < 1:
        raise ValueError("s must be positive")
    _check_is_tree(t)
    m = t.num_edges()
    if m < 5 * s:
        raise TreeTooSmall(f"{m} edges < 5s = {5 * s}")
    root = 0
    parent, depth, order = _rooted(t, root)
    # Subtree edge counts: |E(T(v))| = descendants of v.
    sub = [0] * t.n
    for w in reversed(order):
        if w != root:
            sub[parent[w]] += sub[w] + 1
    best = root
    for v in range(t.n):
        if sub[v] >= s and (depth[v], -v) > (depth[best], -best):
            best = v
    v = best
    if sub[v] >= 3 * s:
        children = sorted(w for w in range(t.n) if parent[w] == v)
        branches = []
        for c in children:
            b = _subtree_edges(t, parent, order, c)
            b.add(_norm_edge(v, c))
            branches.append(b)
        groups: list[set[Edge]] = []
        cur: set[Edge] = set()
        for b in branches:
            cur |= b
            if len(cur) >= s:
                groups.append(cur)
                cur = set()
                if len(groups) == 2:
                    break
        t1, t2 = groups
        all_edges = {_norm_edge(u, w) for u, w in t.edge_list()}
        t3 = all_edges - t1 - t2
        split: TreeSplit = SplitVertex(v, frozenset(t1), frozenset(t2), frozenset(t3))
    else:
        p = parent[v]
        below = frozenset(_subtree_edges(t, parent, order, v))
        all_edges = {_norm_edge(u, w) for u, w in t.edge_list()}
        above = frozenset(all_edges - below - {_norm_edge(p, v)})
        split = SplitEdge(_norm_edge(p, v), above, below)
    problem = tree_split_problem(t, s, split)
    if problem is not None:
        raise RuntimeError(f"internal split invalid: {problem}")
    return split


def _edges_form_subtree(edges: frozenset[Edge]) -> bool:
    if not edges:
        return False
    verts = sorted({v for e in edges for v in e})
    pos = {v: i for i, v in enumerate(verts)}
    g = Graph(len(verts))
    for u, w in edges:
        g.add_edge(pos[u], pos[w])
    return g.num_edges() == g.n - 1 and is_connected(g)


def tree_split_problem(t: Graph, s: int, split: TreeSplit):
    """Validate a TreeSplit against its invariants; None when valid."""
    all_edges = {_norm_edge(u, w) for u, w in t.edge_list()}
    if isinstance(split, SplitEdge):
        e = split.edge
        if e not in all_edges:
            return f"{e} is not a tree edge"
        if split.side_a | split.side_b | {e} != all_edges or split.side_a & split.side_b:
            return "sides do not partition the remaining edges"
        for side in (split.side_a, split.side_b):
            if len(side) < s:
                return f"a side has {len(side)} < s edges"
            if not _edges_form_subtree(side):
                return "a side is not a subtree"
        if _vertices(split.side_a) & _vertices(split.side_b):
            return "the two sides share a vertex"
        return None
    if isinstance(split, SplitVertex):
        parts = (split.t1, split.t2, split.t3)
        for part in parts:
            if len(part) < s:
                return f"a subtree has {len(part)} < s edges"
            if not part <= all_edges:
                return "a subtree uses non-tree edges"
            if not _edges_form_subtree(part):
                return "a part is not a subtree"
        for i in range(3):
            for j in range(i + 1, 3):
                if parts[i] & parts[j]:
                    return "subtrees share an edge"
                if _vertices(parts[i]) & _vertices(parts[j]) != {split.vertex}:
                    return "subtrees must meet exactly at the split vertex"
        return None
    return f"not a TreeSplit: {split!r}"


def _vertices(edges: frozenset[Edge]) -> set[int]:
    return {v for e in edges for v in e}


def _local_vertex_connectivity(g: Graph, s: int, t: int, cutoff: int) -> int:
    """Max internally vertex-disjoint s-t paths, stopping at cutoff."""
    # Node-split network, in(v) = 2v and out(v) = 2v + 1, with unit arcs
    # in(v) -> out(v) and out(u) -> in(w) for each edge.  No arc's reverse
    # is an arc, so the residual network is one successor mask per node
    # and pushing a unit along a -> b moves bit b of a to bit a of b.
    res = []
    for v, mask in enumerate(g.adj):
        res.append(1 << (2 * v + 1))
        res.append(sum(1 << (2 * w) for w in _bits(mask)))
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

    Exact at desk scale (intended for n <= 20): runs a unit-capacity
    max-flow between every non-adjacent vertex pair.
    """
    n = g.n
    if n <= 1:
        return 0
    if all(a.bit_count() == n - 1 for a in g.adj):
        return n - 1
    if not is_connected(g):
        return 0
    best = n - 1
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                best = min(best, _local_vertex_connectivity(g, u, v, best))
                if best == 0:
                    return 0
    return best


def circuits(m: BinaryMatroid) -> frozenset[frozenset[str]]:
    """All minimal dependent subsets of the ground set.

    Enumerates the GF(2) null space of [I|D] over all element subsets,
    then keeps the inclusion-minimal zero-sum sets.  Capped at 16
    elements.
    """
    elements = list(m.basis) + list(m.nonbasis)
    ne = len(elements)
    if ne > CIRCUIT_ENUM_CAP:
        raise GroundSetTooLarge(f"{ne} elements exceeds cap {CIRCUIT_ENUM_CAP}")
    cols = [1 << i for i in range(len(m.basis))]
    cols += [sum(m.rep.get(i, j) << i for i in range(len(m.basis)))
             for j in range(len(m.nonbasis))]
    # xs[S] = XOR of the columns indexed by subset S.
    xs = [0] * (1 << ne)
    zero_sets = []
    for s in range(1, 1 << ne):
        low = s & -s
        xs[s] = xs[s ^ low] ^ cols[low.bit_length() - 1]
        if xs[s] == 0:
            zero_sets.append(s)
    zero_sets.sort(key=int.bit_count)
    minimal: list[int] = []
    for s in zero_sets:
        if not any(c & s == c for c in minimal):
            minimal.append(s)
    out = set()
    for s in minimal:
        out.add(frozenset(elements[i] for i in range(ne) if (s >> i) & 1))
    return frozenset(out)
