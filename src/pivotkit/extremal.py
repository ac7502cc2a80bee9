"""Instance generators: the two tight constructions and seeded random
multigraphs with a spanning tree.

Random trees use the Prüfer-sequence encoding driven by Python's
Mersenne Twister (random.Random(seed)), so instances are reproducible
from (generator, parameters, seed) alone.
"""

from __future__ import annotations

import heapq
import random
from typing import NamedTuple

from ._text import HEADER_CAP
from .errors import CapExceeded
from .gf2 import BitMatrix
from .matroid import MultiGraph, format_multigraph, graphic_matroid


def _check_cap(what: str, size: int) -> None:
    """Cap an instance's vertices and extra edges before any list is built."""
    if size > HEADER_CAP:
        raise CapExceeded(f"{size} {what} exceeds the instance cap {HEADER_CAP}")


class Instance(NamedTuple):
    """A multigraph with a spanning tree, the set of its edge labels, and
    its fundamental graph, whose biadjacency rows are the tree edges."""

    multigraph: MultiGraph
    tree: frozenset[str]
    fundamental: BitMatrix
    provenance: str


def _make_instance(mg: MultiGraph, tree: frozenset[str], provenance: str) -> Instance:
    return Instance(mg, tree, graphic_matroid(mg, tree).rep, provenance)


def format_instance(inst: Instance) -> str:
    return format_multigraph(inst.multigraph, inst.tree, f"gen {inst.provenance}")


def gen_ktt_example(t: int) -> Instance:
    """A path of t-1 tree edges with t-1 parallel end-to-end edges.

    Planar by construction; its fundamental graph is K_{t-1,t-1}: every
    non-tree edge closes a cycle through the whole path.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    _check_cap("vertices", t)
    edges = [(f"t{i}", i, i + 1) for i in range(t - 1)]
    edges += [(f"f{i}", 0, t - 1) for i in range(t - 1)]
    mg = MultiGraph(t, edges)
    return _make_instance(mg, frozenset(f"t{i}" for i in range(t - 1)), f"ktt t={t}")


def gen_c6_blowup_example(s: int) -> Instance:
    """A three-legged spider with parallel edges between the leg tips.

    Each leg has s-1 tree edges; each pair of tips is joined by s-1
    parallel non-tree edges, so each non-tree edge's cycle uses exactly
    the two legs it connects.  Planar by construction; the fundamental
    graph is the (s-1)-blow-up of the 6-cycle.
    """
    if s < 2:
        raise ValueError("s must be at least 2")
    leg = s - 1
    n = 1 + 3 * leg
    _check_cap("vertices", n)
    # Leg i is the path 0, i*leg + 1, ..., (i + 1)*leg, so the tips are leg, 2leg, 3leg.
    tips = ((leg, 2 * leg), (2 * leg, 3 * leg), (leg, 3 * leg))
    edges = [(f"t{k}", 0 if k % leg == 0 else k, k + 1) for k in range(3 * leg)]
    edges += [(f"f{i}", *tips[i // leg]) for i in range(3 * leg)]
    tree = frozenset(f"t{k}" for k in range(3 * leg))
    return _make_instance(MultiGraph(n, edges), tree, f"c6blowup s={s}")


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniformly random labeled tree via a random Prüfer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def gen_random_instance(n: int, extra_edges: int, seed: int,
                        allow_loops: bool = False) -> Instance:
    """A random labeled tree plus uniformly sampled extra edges.

    Parallel edges are permitted; loops only when allow_loops is set
    (loops make isolated fundamental-graph vertices, which dilute
    degree statistics).  Deterministic per seed.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if extra_edges < 0:
        raise ValueError("extra_edges must be non-negative")
    _check_cap("vertices", n)
    _check_cap("extra edges", extra_edges)
    rng = random.Random(seed)
    edges = [(f"t{i}", u, v) for i, (u, v) in enumerate(_random_tree_edges(n, rng))]
    for i in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u and not allow_loops:
            v = rng.randrange(n)
        edges.append((f"f{i}", u, v))
    return _make_instance(MultiGraph(n, edges), frozenset(f"t{i}" for i in range(n - 1)),
                          f"random n={n} extra={extra_edges} seed={seed}")
