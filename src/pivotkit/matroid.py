"""Binary matroids: representations, basis exchange, circuits, minors,
graphic/cographic constructions, and the connectivity function.

A matroid is kept as a basis-indexed representation [I|D]: the basis
labels index the rows of D and the remaining labels its columns.
Exchanging a basis element for a non-basis one is a matrix pivot plus a
label swap, and leaves the circuits unchanged.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Callable, Iterable, Optional, Sequence

from ._text import HEADER_CAP, content_lines, read_header
from .errors import (CapExceeded, ElementNotFound, FormatError, GroundSetTooLarge,
                     NotASpanningTree, NotConnected, PivotOnZero,
                     SubsetCapExceeded)
from .gf2 import BitMatrix, format_matrix, matrix_pivot, rank_bits, read_matrix
from .graph import Graph
from .cutrank import SUBSET_CAP, find_low_rank_separation

CIRCUIT_ENUM_CAP = 16


class MultiGraph:
    """A labeled multigraph; parallel edges and loops are allowed."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[str, int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.edges: list[tuple[str, int, int]] = []
        seen = set()
        for label, u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: {label}")
            if label in seen:
                raise ValueError(f"duplicate edge label: {label}")
            seen.add(label)
            self.edges.append((label, u, v))

    def edge_by_label(self) -> dict[str, tuple[int, int]]:
        return {label: (u, v) for label, u, v in self.edges}

    def is_connected(self) -> bool:
        # Fewer than n - 1 edges cannot connect n vertices; counting first
        # keeps a huge vertex count from reaching the per-vertex walk.
        return self.n <= len(self.edges) + 1 and -1 not in _walk(self.n, self.edges)[1]

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={len(self.edges)})"


def _walk(n: int, edges: list[tuple[str, int, int]]):
    """Breadth-first walk from vertex 0 over labelled edges.

    Returns (parent, depth, parent_edge); depth is -1 at every vertex
    not reached, and parent_edge[w] is the index in edges of the edge
    from w to its parent.  Each vertex lists the indices of its edges
    rather than a bitmask of its neighbours: a multigraph has no vertex
    cap, and n masks take O(n^2) bits.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, (_, u, v) in enumerate(edges):
        adj[u].append(i)
        adj[v].append(i)
    parent = [-1] * n
    depth = [-1] * n
    parent_edge = [-1] * n
    order = []
    if n:
        depth[0] = 0
        order.append(0)
    for v in order:
        for i in adj[v]:
            _, a, b = edges[i]
            w = a ^ b ^ v  # the other end; v itself for a loop
            if depth[w] == -1:
                parent[w] = v
                depth[w] = depth[v] + 1
                parent_edge[w] = i
                order.append(w)
    return parent, depth, parent_edge


class BinaryMatroid:
    """Ground set = basis + nonbasis labels; rep is the D of [I|D]."""

    __slots__ = ("basis", "nonbasis", "rep")

    def __init__(self, basis: Sequence[str], nonbasis: Sequence[str], rep: BitMatrix):
        basis = tuple(basis)
        nonbasis = tuple(nonbasis)
        if len(basis) != rep.nrows or len(nonbasis) != rep.ncols:
            raise ValueError("representation shape does not match label counts")
        if len({*basis, *nonbasis}) != len(basis) + len(nonbasis):
            raise ValueError("element labels must be distinct")
        self.basis = basis
        self.nonbasis = nonbasis
        self.rep = rep

    def ground(self) -> frozenset[str]:
        return frozenset(self.basis) | frozenset(self.nonbasis)

    def row_of(self, x: str) -> int:
        try:
            return self.basis.index(x)
        except ValueError:
            raise ElementNotFound(f"{x!r} is not a basis element") from None

    def col_of(self, y: str) -> int:
        try:
            return self.nonbasis.index(y)
        except ValueError:
            raise ElementNotFound(f"{y!r} is not a non-basis element") from None

    def element_order(self) -> list[str]:
        return sorted(self.ground())

    def element_graph(self) -> Graph:
        """The fundamental graph as a Graph over sorted element labels."""
        order = self.element_order()
        pos = {e: i for i, e in enumerate(order)}
        g = Graph(len(order))
        for i, b in enumerate(self.basis):
            row = self.rep.rows[i]
            for j, c in enumerate(self.nonbasis):
                if (row >> j) & 1:
                    g.add_edge(pos[b], pos[c])
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatroid):
            return NotImplemented
        return (self.basis, self.nonbasis, self.rep) == (other.basis, other.nonbasis, other.rep)

    def __repr__(self) -> str:
        return f"BinaryMatroid(|B|={len(self.basis)}, |E-B|={len(self.nonbasis)})"


def graphic_matroid(g: MultiGraph, t: frozenset[str]) -> BinaryMatroid:
    """The matroid on E(g) whose basis is the spanning tree t, given as
    the set of its edge labels; labels keep their order in g.edges.

    D, the tree-edge x non-tree-edge cycle membership matrix, is built by
    tree-path traversal: the cycle closed by a non-tree edge consists of
    the tree edges on the path between its endpoints.  A loop yields a
    zero column.

    One walk over the tree edges both validates the tree and roots it.
    A valid tree spans g, so g itself is walked only once the tree is
    rejected, to raise NotConnected ahead of any tree problem.  Tree
    labels are then checked in sorted order, so the problem reported
    does not depend on the hash seed.
    """
    tree = [e for e in g.edges if e[0] in t]
    cotree = [e for e in g.edges if e[0] not in t]
    # n - 1 known edges that reach every vertex hold no loop.  They are
    # counted before the walk, which takes a list per vertex.
    if not (len(tree) == len(t) == max(g.n - 1, 0)
            and -1 not in (walk := _walk(g.n, tree))[1]):
        if not g.is_connected():
            raise NotConnected("multigraph is not connected")
        by_label = g.edge_by_label()
        for label in sorted(t):
            if label not in by_label:
                raise NotASpanningTree(f"unknown tree edge label: {label}")
            u, v = by_label[label]
            if u == v:
                raise NotASpanningTree(f"tree edge {label} is a loop")
        if len(t) != max(g.n - 1, 0):
            raise NotASpanningTree(
                f"tree has {len(t)} edges, expected {g.n - 1}")
        raise NotASpanningTree("tree edges do not span every vertex")
    parent, depth, row_of = walk
    rows = [0] * len(tree)
    for j, (_, u, v) in enumerate(cotree):
        bit = 1 << j
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            rows[row_of[u]] |= bit
            u = parent[u]
    return BinaryMatroid([e[0] for e in tree], [e[0] for e in cotree],
                         BitMatrix(len(rows), len(cotree), rows))


def _dual(m: BinaryMatroid) -> BinaryMatroid:
    """M*: the same fundamental graph with its sides swapped."""
    return BinaryMatroid(m.nonbasis, m.basis, m.rep.transpose())


def cographic_matroid(g: MultiGraph, t: frozenset[str]) -> BinaryMatroid:
    """The dual of the graphic matroid: basis = non-tree edges."""
    return _dual(graphic_matroid(g, t))


def change_basis(m: BinaryMatroid, x: str, y: str) -> BinaryMatroid:
    """Exchange basis element x for non-basis y; circuits are preserved.

    Raises PivotOnZero when the (x, y) entry is 0, in which case
    basis - x + y is not a basis.
    """
    i = m.row_of(x)
    j = m.col_of(y)
    if m.rep.get(i, j) != 1:
        raise PivotOnZero(f"{x},{y}: entry is 0, not a basis exchange")
    rep = matrix_pivot(m.rep, i, j)
    basis = list(m.basis)
    nonbasis = list(m.nonbasis)
    basis[i], nonbasis[j] = y, x
    return BinaryMatroid(basis, nonbasis, rep)


def circuits(m: BinaryMatroid) -> frozenset[frozenset[str]]:
    """All minimal dependent subsets of the ground set.

    Enumerates the cycle space of [I|D], the GF(2) null space, as the
    XORs of the |E-B| fundamental circuits (2^|E-B| sets), then keeps
    the inclusion-minimal nonempty sets.  Capped at 16 elements.
    """
    elements = list(m.basis) + list(m.nonbasis)
    ne = len(elements)
    if ne > CIRCUIT_ENUM_CAP:
        raise GroundSetTooLarge(f"{ne} elements exceeds cap {CIRCUIT_ENUM_CAP}")
    r = len(m.basis)
    zero_sets = [0]
    for j, col in enumerate(m.rep.transpose().rows):
        fundamental = 1 << (r + j) | col
        zero_sets += [s ^ fundamental for s in zero_sets]
    zero_sets.sort(key=int.bit_count)
    minimal: list[int] = []
    for s in zero_sets[1:]:
        if not any(c & s == c for c in minimal):
            minimal.append(s)
    out = set()
    for s in minimal:
        out.add(frozenset(elements[i] for i in range(ne) if (s >> i) & 1))
    return frozenset(out)


def _contract(m: BinaryMatroid, e: str) -> BinaryMatroid:
    """Drop e's row once e is in the basis, which a non-basis element
    enters with its least-labeled partner.  A loop (zero column) has no
    partner; it is a coloop of the dual, contracted there."""
    if e in m.nonbasis:
        col = m.rep.transpose().rows[m.col_of(e)]
        if col == 0:
            return _dual(_contract(_dual(m), e))
        m = change_basis(m, min(b for i, b in enumerate(m.basis) if (col >> i) & 1), e)
    i = m.row_of(e)
    rows = m.rep.rows[:i] + m.rep.rows[i + 1:]
    return BinaryMatroid(m.basis[:i] + m.basis[i + 1:], m.nonbasis,
                         BitMatrix(len(rows), m.rep.ncols, rows))


def minor(m: BinaryMatroid, deletions: Iterable[str], contractions: Iterable[str]) -> BinaryMatroid:
    """Delete and contract elements; circuits match the matroid minor.

    Contractions run first, in sorted label order.  Deleting e from M is
    contracting e in the dual M*, so the deletions are then contracted,
    in sorted label order, in the dual, which is dualized back.
    """
    dels = set(deletions)
    cons = set(contractions)
    if dels & cons:
        raise ValueError("deletions and contractions must be disjoint")
    ground = m.ground()
    for e in sorted(dels | cons):
        if e not in ground:
            raise ElementNotFound(f"unknown element {e!r}")
    for e in sorted(cons):
        m = _contract(m, e)
    if dels:
        m = _dual(m)
        for e in sorted(dels):
            m = _contract(m, e)
        m = _dual(m)
    return m


def connectivity_kernel(m: BinaryMatroid) -> Callable[[int], int]:
    """The connectivity function of m on element masks.

    Bit i of a mask is element i of ``element_order()``.  The returned
    ``lam(x)`` is lambda(X) = rk(D[X_B, W_C]) + rk(D[W_B, X_C]) with W
    the complement of X.  Each row of D is stored once as a mask over
    element positions, so a row of X_B masked with w is a row of
    D[X_B, W_C] and no submatrix is built.  Both terms come from one
    elimination over the rows of X_B masked with w and of W_B masked
    with x: the first lie in W_C and the second in X_C, which are
    disjoint, so the rank of all of them is the sum.
    """
    pos = {e: i for i, e in enumerate(m.element_order())}
    rows = [(sum(1 << pos[c] for j, c in enumerate(m.nonbasis) if row >> j & 1), 1 << pos[b])
            for row, b in zip(m.rep.rows, m.basis)]
    full = (1 << len(pos)) - 1

    def lam(x: int) -> int:
        w = full ^ x
        return rank_bits([row & w if x & bit else row & x for row, bit in rows])

    return lam


def connectivity_lambda(m: BinaryMatroid, x_set: Iterable[str]) -> int:
    """The connectivity function: rk(D[X_B, Y_C]) + rk(D[Y_B, X_C]).

    Raises ElementNotFound for the least label outside the ground set;
    the value comes from ``connectivity_kernel`` on the mask of x_set.
    """
    pos = {e: i for i, e in enumerate(m.element_order())}
    x = 0
    for e in sorted(x_set):
        if e not in pos:
            raise ElementNotFound(f"unknown element {e!r}")
        x |= 1 << pos[e]
    return connectivity_kernel(m)(x)


def is_k_connected(m: BinaryMatroid, k: int) -> tuple[bool, Optional[frozenset[str]]]:
    """Whether lambda(X) >= l for every X with |X|, |E-X| >= l, l < k.

    Returns (True, None) or (False, witness X).  lambda(X) is the
    cut-rank of X in the fundamental graph (Oum, JCTB 95, 2005), so this
    is ``find_low_rank_separation`` on ``element_graph()`` with the
    witness in labels: l ascending, then |X| ascending over the smaller
    side, then elements in sorted label order.  Raises
    SubsetCapExceeded over the element cap.
    """
    elements = m.element_order()
    if len(elements) > SUBSET_CAP:
        raise SubsetCapExceeded(f"{len(elements)} elements exceeds the subset cap {SUBSET_CAP}")
    sep = find_low_rank_separation(m.element_graph(), k)
    if sep is None:
        return True, None
    return False, frozenset(elements[i] for i in sep.side_x)


def format_multigraph(g: MultiGraph, t: frozenset[str], provenance: str | None = None) -> str:
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append(f"multigraph {g.n}")
    for label, u, v in g.edges:
        kind = "tree" if label in t else "cotree"
        lines.append(f"{u} {v} {kind} {label}")
    return "\n".join(lines) + "\n"


def parse_multigraph(text: str) -> tuple[MultiGraph, frozenset[str]]:
    lines = content_lines(text)
    n, = read_header(lines, "multigraph", "vertices")
    edges = []
    tree_labels = set()
    cotree = 0
    for line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[2] not in ("tree", "cotree"):
            raise FormatError(f"bad multigraph edge line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad multigraph edge line: {line!r}") from exc
        edges.append((parts[3], u, v))
        if parts[2] == "tree":
            tree_labels.add(parts[3])
        else:
            cotree += 1
    # Tree lines need no cap: more than n - 1 are not a spanning tree.
    if cotree > HEADER_CAP:
        raise CapExceeded(f"{cotree} cotree edges exceeds the header cap {HEADER_CAP}")
    try:
        mg = MultiGraph(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return mg, frozenset(tree_labels)


def format_matroid(m: BinaryMatroid) -> str:
    lines = ["basis " + " ".join(m.basis) if m.basis else "basis",
             "nonbasis " + " ".join(m.nonbasis) if m.nonbasis else "nonbasis"]
    return "\n".join(lines) + "\n" + format_matrix(m.rep)


def parse_matroid(text: str) -> BinaryMatroid:
    lines = content_lines(text)
    head = list(islice(lines, 3))
    if len(head) < 3:
        raise FormatError("matroid document too short")
    basis = head[0].split()
    nonbasis = head[1].split()
    if basis.pop(0) != "basis" or nonbasis.pop(0) != "nonbasis":
        raise FormatError("matroid document must start with basis/nonbasis lines")
    rep = read_matrix(chain([head[2]], lines))
    try:
        return BinaryMatroid(basis, nonbasis, rep)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
