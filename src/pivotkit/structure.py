"""Constructive decompositions: tree splitting, constant-block
partitions of low-rank matrices, and the block-density check.

split_tree follows a fixed recipe: root the tree at its least vertex,
walk to the deepest vertex whose subtree still has at least s edges,
and either group that vertex's branches into three edge-disjoint
subtrees or cut the edge to its parent.  Every output is validated
once against the type invariants before it is returned.  free_trees
enumerates the trees of one order up to isomorphism.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from .errors import NotATree, PartitionInvalid, TreeTooSmall
from .gf2 import BitMatrix
from .graph import Graph, _bfs, _bits

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class SplitEdge(NamedTuple):
    """A tree edge whose removal leaves two components of >= s edges."""

    edge: Edge
    side_a: frozenset[Edge]
    side_b: frozenset[Edge]


class SplitVertex(NamedTuple):
    """Three edge-disjoint subtrees of >= s edges meeting only at v."""

    vertex: int
    t1: frozenset[Edge]
    t2: frozenset[Edge]
    t3: frozenset[Edge]


TreeSplit = Union[SplitEdge, SplitVertex]


class BlockPartition(NamedTuple):
    """Row/column classes under which every block is constant.

    ``blocks`` has one row per row class and one column per column
    class; bit j of row i is the value of block (i, j).  In mode
    "matrix" that is the block's entry; in mode "graph-pair" it is the
    block's entry of g1 ^ g2.
    """

    mode: str
    row_classes: tuple[tuple[int, ...], ...]
    col_classes: tuple[tuple[int, ...], ...]
    blocks: BitMatrix


def _rooted_tree(t: Graph):
    """Parent, depth and BFS order of t rooted at vertex 0.

    t is a tree exactly when the BFS reaches all n vertices and t has
    n - 1 edges; otherwise NotATree is raised.
    """
    n = t.n
    if n == 0:
        raise NotATree("expected a connected acyclic graph")
    order, parent = _bfs(t.adj, 0)
    if len(order) != n or t.num_edges() != n - 1:
        raise NotATree("expected a connected acyclic graph")
    depth = [0] * n
    for w in order[1:]:
        depth[w] = depth[parent[w]] + 1
    return parent, depth, order


def split_tree(t: Graph, s: int) -> TreeSplit:
    """Split a tree with at least 5s edges per the fixed recipe.

    Ties break deterministically: the root is vertex 0, the deepest
    qualifying vertex with the least label wins, and branches are
    grouped greedily in ascending child label.  Subtrees are vertex
    masks of descendants; an edge set is the edges from those vertices
    to their parents.  The result is checked once, by the same checker
    as tree_split_problem, and RuntimeError is raised if it fails.
    """
    if s < 1:
        raise ValueError("s must be positive")
    parent, depth, order = _rooted_tree(t)
    m = t.n - 1
    if m < 5 * s:
        raise TreeTooSmall(f"{m} edges < 5s = {5 * s}")
    # desc[v]: vertex mask of the subtree below v, which has
    # popcount - 1 edges.
    desc = [1 << v for v in range(t.n)]
    for w in reversed(order[1:]):
        desc[parent[w]] |= desc[w]
    # order is by depth, so a later qualifying vertex is as deep or deeper.
    v = 0
    for w in order:
        if desc[w].bit_count() > s and (depth[w] > depth[v] or w < v):
            v = w
    up = [_norm_edge(p, w) for w, p in enumerate(parent)]  # w's edge to its parent
    all_edges = set(up[1:])  # the root, vertex 0, has no parent
    if desc[v].bit_count() > 3 * s:
        # The branch at child c is the up-edges of desc[c].
        groups: list[frozenset[Edge]] = []
        cur = 0
        for c in _bits(t.adj[v] & desc[v]):
            cur |= desc[c]
            if cur.bit_count() >= s:
                groups.append(frozenset([up[w] for w in order if cur >> w & 1]))
                cur = 0
                if len(groups) == 2:
                    break
        t1, t2 = groups
        split: TreeSplit = SplitVertex(v, t1, t2, frozenset(all_edges - t1 - t2))
    else:
        mask = desc[v] ^ (1 << v)
        below = frozenset([up[w] for w in order if mask >> w & 1])
        split = SplitEdge(up[v], frozenset(all_edges - below - {up[v]}), below)
    problem = _split_problem(all_edges, s, split)
    if problem is not None:
        raise RuntimeError(f"internal split invalid: {problem}")
    return split


def tree_split_problem(t: Graph, s: int, split: TreeSplit):
    """Validate a TreeSplit of t; None when valid, else the first problem.

    A t that is not a tree is a problem in itself.  Otherwise the split
    goes to the checker that split_tree runs on its own output.
    """
    try:
        parent, _, order = _rooted_tree(t)
    except NotATree:
        return "t is not a tree"
    return _split_problem({_norm_edge(parent[w], w) for w in order[1:]}, s, split)


def _vertex_mask(edges) -> int:
    mask = 0
    for u, w in edges:
        mask |= 1 << u | 1 << w
    return mask


def _split_problem(all_edges: set[Edge], s: int, split: TreeSplit):
    """Check split against the tree with edge set all_edges.

    A part is tested only once it is known to lie in the tree, and an
    edge subset of a tree is a forest, so it is a subtree exactly when
    its vertex mask has one bit more than it has edges.
    """
    if isinstance(split, SplitEdge):
        e, a, b = split.edge, split.side_a, split.side_b
        if e not in all_edges:
            return f"{e} is not a tree edge"
        if a | b | {e} != all_edges or a & b:
            return "sides do not partition the remaining edges"
        masks = []
        for side in (a, b):
            if len(side) < s:
                return f"a side has {len(side)} < s edges"
            masks.append(_vertex_mask(side))
            if masks[-1].bit_count() != len(side) + 1:
                return "a side is not a subtree"
        if masks[0] & masks[1]:
            return "the two sides share a vertex"
        return None
    if isinstance(split, SplitVertex):
        parts = (split.t1, split.t2, split.t3)
        masks = []
        for part in parts:
            if len(part) < s:
                return f"a subtree has {len(part)} < s edges"
            if not part <= all_edges:
                return "a subtree uses non-tree edges"
            masks.append(_vertex_mask(part))
            if masks[-1].bit_count() != len(part) + 1:
                return "a part is not a subtree"
        at = 1 << split.vertex if split.vertex >= 0 else -1
        for i in range(3):
            for j in range(i + 1, 3):
                if parts[i] & parts[j]:
                    return "subtrees share an edge"
                if masks[i] & masks[j] != at:
                    return "subtrees must meet exactly at the split vertex"
        return None
    return f"not a TreeSplit: {split!r}"


def free_trees(order: int):
    """Yield one tree per isomorphism class on `order` vertices.

    The Wright–Richmond–Odlyzko–McKay enumeration (SIAM J. Comput. 15,
    1986) over canonical level sequences, stepped by Beyer–Hedetniemi
    successors as in networkx's nonisomorphic_trees: the same trees, in
    the same order, with vertex i at position i of the level sequence.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if order == 1:
        yield Graph(1)
    if order < 2:
        return
    # Start at the path rooted at its centre.
    layout = list(range(order // 2 + 1)) + list(range(1, (order + 1) // 2))
    while layout is not None:
        layout = _next_free_tree(layout)
        if layout is not None:
            yield _layout_graph(layout)
            layout = _next_rooted_tree(layout)


def _layout_graph(layout: list[int]) -> Graph:
    """The tree of a level sequence: each vertex's parent is the latest
    vertex before it one level up."""
    g = Graph(len(layout))
    adj = g.adj
    last = [0] * len(layout)
    for i in range(1, len(layout)):
        level = layout[i]
        p = last[level - 1]
        adj[i] |= 1 << p
        adj[p] |= 1 << i
        last[level] = i
    return g


def _next_rooted_tree(layout: list[int], p: int | None = None):
    """Beyer–Hedetniemi successor of a rooted level sequence; None after
    the last.  p, when given, is the position to advance."""
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_layout(layout: list[int]):
    """The root's first subtree (levels less one) and the tree without it."""
    m = next((i for i in range(2, len(layout)) if layout[i] == 1), len(layout))
    return [x - 1 for x in layout[1:m]], [0] + layout[m:]


def _next_free_tree(layout: list[int]):
    """The first level sequence from layout on that is a free tree's
    canonical one: the root's first subtree is lower than the rest, or
    as high and no larger, and at equal size not later in order."""
    left, rest = _split_layout(layout)
    lh, rh = max(left), max(rest)
    if lh < rh or lh == rh and (len(left), left) <= (len(rest), rest):
        return layout
    p = len(left)
    out = _next_rooted_tree(layout, p)
    if layout[p] > 2:
        h = max(_split_layout(out)[0])
        out[-(h + 1):] = range(1, h + 2)
    return out


def _group_indices(keys: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Indices with equal keys, one class each, in order of first appearance."""
    classes: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return tuple(map(tuple, classes.values()))


def constant_block_partition(c: BitMatrix) -> BlockPartition:
    """Group equal rows and equal columns; every block is constant.

    The number of classes on each side is at most 2^rank(c), since all
    rows (columns) lie in the row (column) space.
    """
    rows, cols = _group_indices(c.rows), _group_indices(c.transpose().rows)
    # A block's value is its first row's bit in its first column.
    bit = {cc[0]: 1 << j for j, cc in enumerate(cols)}  # a class's first column -> its block bit
    firsts = sum(1 << col for col in bit)
    blocks = [sum(bit[col] for col in _bits(c.rows[rc[0]] & firsts)) for rc in rows]
    return BlockPartition("matrix", rows, cols, BitMatrix(len(rows), len(cols), blocks))


def perturbation_partition(g1: BitMatrix, g2: BitMatrix) -> BlockPartition:
    """Partition both sides so each block of g1 equals the matching
    block of g2 or its bipartite complement.

    The class counts are at most 2^p where p is the rank of the
    biadjacency difference g1 ^ g2, which raises DimensionMismatch when
    the shapes differ.
    """
    return constant_block_partition(g1 ^ g2)._replace(mode="graph-pair")


def reconstruct_from_partition(g2: BitMatrix, bp: BlockPartition) -> BitMatrix:
    """Rebuild g1 from g2 plus a graph-pair BlockPartition's blocks: each
    row of g2 is XORed with one mask per row class, the columns of its
    blocks marked complement.  PartitionInvalid when bp's classes or its
    blocks' shape do not fit g2."""
    if bp.mode != "graph-pair":
        raise ValueError("expected a graph-pair partition")
    _validate_partition(bp.row_classes, g2.nrows, "row")
    _validate_partition(bp.col_classes, g2.ncols, "column")
    if (bp.blocks.nrows, bp.blocks.ncols) != (len(bp.row_classes), len(bp.col_classes)):
        raise PartitionInvalid("expected one value per block")
    col_masks = [sum(1 << j for j in cc) for cc in bp.col_classes]
    rows = list(g2.rows)
    for rc, values in zip(bp.row_classes, bp.blocks.rows):
        mask = 0
        for j in _bits(values):
            mask |= col_masks[j]
        for i in rc:
            rows[i] ^= mask
    return BitMatrix(g2.nrows, g2.ncols, rows)


def _validate_partition(classes, size: int, what: str) -> None:
    seen: set[int] = set()
    for cls in classes:
        if not cls:
            raise PartitionInvalid(f"empty {what} class")
        for i in cls:
            if not (0 <= i < size) or i in seen:
                raise PartitionInvalid(f"{what} classes do not partition 0..{size - 1}")
            seen.add(i)
    if len(seen) != size:
        raise PartitionInvalid(f"{what} classes do not cover 0..{size - 1}")


def check_struct_density(g: BitMatrix, row_classes, col_classes, s: int) -> bool:
    """Whether average degree of g is at most 10 * n^2 * s, where n is
    the larger class count.  Exact integer arithmetic throughout.

    The caller asserts that every block is a graphic fundamental graph
    or the bipartite complement of one; only the density conclusion is
    checked here.
    """
    if s < 1:
        raise ValueError("s must be positive")
    _validate_partition(row_classes, g.nrows, "row")
    _validate_partition(col_classes, g.ncols, "column")
    n = max(len(row_classes), len(col_classes))
    # The average degree is 2|E| / (rows + columns), compared in integers.
    edges = sum(row.bit_count() for row in g.rows)
    return 2 * edges <= 10 * n * n * s * (g.nrows + g.ncols)


def format_tree_split(split: TreeSplit) -> str:
    def fmt(edges: frozenset[Edge]) -> str:
        return " ".join(f"{u}-{v}" for u, v in sorted(edges))

    if isinstance(split, SplitEdge):
        lines = [f"split edge {split.edge[0]} {split.edge[1]}",
                 f"side1 {fmt(split.side_a)}",
                 f"side2 {fmt(split.side_b)}"]
    else:
        lines = [f"split vertex {split.vertex}",
                 f"tree1 {fmt(split.t1)}",
                 f"tree2 {fmt(split.t2)}",
                 f"tree3 {fmt(split.t3)}"]
    return "\n".join(lines) + "\n"


def format_block_partition(bp: BlockPartition) -> str:
    """Text form; the mode names a block's values 0 and 1.  It is built
    one string per row class so that its peak memory stays within a few
    times the output's length."""
    words = {"matrix": ("zero", "one"), "graph-pair": ("equal", "complement")}[bp.mode]
    ncols = bp.blocks.ncols
    lines = [f"blockpartition {bp.mode} {len(bp.row_classes)} {len(bp.col_classes)}"]
    lines += (f"rowclass {i} " + " ".join(map(str, rc)) for i, rc in enumerate(bp.row_classes))
    lines += (f"colclass {j} " + " ".join(map(str, cc)) for j, cc in enumerate(bp.col_classes))
    lines += ("\n".join(f"block {i} {j} {words[row >> j & 1]}" for j in range(ncols))
              for i, row in enumerate(bp.blocks.rows) if ncols)
    return "\n".join([*lines, ""])
