"""The three benchmark workloads: seeded schedules, unit runners and checks.

Each workload is a closed loop with one caller.  A run is a sequence of
rounds; every round has the same composition (the same cells), and the
seed only chooses which pooled input fills each cell and the order of
the units inside the round.  Inputs come from finite pools so that every
unit's expected output can be pinned in ``pins.json`` (see ``pin.py``).

A workload object provides:

* ``ROUND_S``: nominal seconds per round; a run of S seconds is
  round(S / ROUND_S) rounds;
* ``CALIBRATION``: the calibration loop that scales its times (see run.py);
* ``pool()``: every unit spec the schedule can draw, for pinning;
* ``rounds(rng)``: an endless iterator of rounds (lists of specs);
* ``warmup()``: the cheap spec run once, untimed, before timing;
* ``key(spec)``: the spec's name in ``pins.json``;
* ``prepare(spec)``: the generated input, built outside the unit's timer;
* ``run(inputs)``: the timed call into pivotkit, returning its raw output;
* ``record(raw)``: the JSON form of the output that is pinned;
* ``trials(raw)``: verdicts the unit produced (campaign trials, else 1);
* ``recheck(inputs, raw)``: an independent re-check of any witness,
  returning an error string or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re

import networkx as nx

import pivotkit
import pivotkit.cli

# --- generated inputs -------------------------------------------------------


def gnp(n: int, p: float, label: str) -> pivotkit.Graph:
    """Seeded G(n, p); the label seeds the generator (str seeds are stable)."""
    rng = random.Random(label)
    g = pivotkit.Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def deck(rng: random.Random, size: int):
    """Endless draws from range(size), each pass a fresh shuffle, so a run
    repeats an input only after it has drawn every other one."""
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


def _to_nx(g: pivotkit.Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if g.has_edge(u, v))
    return h


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) by plain elimination, independent of pivotkit.gf2."""
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot_row = max(rows)
        top = pivot_row.bit_length() - 1
        rows = [r ^ pivot_row if (r >> top) & 1 else r for r in rows if r != pivot_row]
        rows = [r for r in rows if r]
        rank += 1
    return rank


# --- campaigns --------------------------------------------------------------

_TRIALS_RE = re.compile(r"^trials_run=(\d+)$", re.MULTILINE)


class Campaigns:
    """Every campaign at its defaults through ``pivotkit check``, in process.

    The acceptance-scale verdict run: time spreads over matroid, cutrank,
    gf2, graph, structure, extremal, verify and cli, and nothing calls
    canonical_form.
    """

    SEEDS = 32  # campaign seeds 0..31 are pinned
    ROUND_S = 1.6  # about one round's duration on the reference machine
    CALIBRATION = "arithmetic"

    def __init__(self):
        self.names = pivotkit.verify.campaign_names()

    def pool(self):
        return [(name, s) for name in self.names for s in range(self.SEEDS)]

    def rounds(self, rng: random.Random):
        seeds = {name: deck(rng, self.SEEDS) for name in self.names}
        while True:
            specs = [(name, next(seeds[name])) for name in self.names]
            rng.shuffle(specs)
            yield specs

    def warmup(self):
        return ("pivot-matroid", 0)

    @staticmethod
    def key(spec) -> str:
        return f"{spec[0]}/seed{spec[1]}"

    def prepare(self, spec):
        return ["check", spec[0], "--seed", str(spec[1])]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pivotkit.cli.run_cli(argv)
        return code, out.getvalue()

    def record(self, raw):
        code, text = raw
        return [code, hashlib.sha256(text.encode("ascii")).hexdigest()]

    def trials(self, raw) -> int:
        match = _TRIALS_RE.search(raw[1])
        return int(match.group(1)) if match else 0

    def recheck(self, argv, raw):
        return None  # the report bytes are compared through their pinned hash


# --- certify ----------------------------------------------------------------


class Certify:
    """``find_low_rank_separation(g, k)`` on seeded G(n, p).

    Dense graphs (p = 0.5) make full scans that mostly return None; sparse
    graphs (p = 0.08) mostly have an isolated vertex or a small component,
    so an order-1 witness stops the scan at once.  A round holds every
    (n, k) dense cell and one sparse query per n, so the median unit is a
    dense n = 14 scan rather than the gap between the two modes, and in a
    four-round run the tail unit is a dense n = 16 scan.
    """

    NS = (14, 16, 18)
    KS = (3, 4)
    DENSE, SPARSE = 0.5, 0.08
    GRAPHS = 16  # graph seeds 0..15 per (n, p) are pinned
    ROUND_S = 6.5
    CALIBRATION = "arithmetic"

    def pool(self):
        return [(n, p, s, k) for n in self.NS for p in (self.DENSE, self.SPARSE)
                for s in range(self.GRAPHS) for k in self.KS]

    def rounds(self, rng: random.Random):
        graphs = {(n, p): deck(rng, self.GRAPHS) for n in self.NS
                  for p in (self.DENSE, self.SPARSE)}
        while True:
            specs = [(n, self.DENSE, next(graphs[n, self.DENSE]), k)
                     for n in self.NS for k in self.KS]
            specs += [(n, self.SPARSE, next(graphs[n, self.SPARSE]), rng.choice(self.KS))
                      for n in self.NS]
            rng.shuffle(specs)
            yield specs

    def warmup(self):
        return (14, self.DENSE, 0, 3)

    @staticmethod
    def key(spec) -> str:
        n, p, s, k = spec
        return f"n{n}/p{p}/g{s}/k{k}"

    def prepare(self, spec):
        n, p, s, k = spec
        return gnp(n, p, f"certify/n{n}/p{p}/g{s}"), k

    def run(self, inputs):
        g, k = inputs
        return pivotkit.find_low_rank_separation(g, k)

    def record(self, sep):
        if sep is None:
            return None
        return [list(sep.side_x), sep.order, sep.cutrank_value]

    def trials(self, raw) -> int:
        return 1

    def recheck(self, inputs, sep):
        if sep is None:
            return None
        g, k = inputs
        xs = set(sep.side_x)
        comp = [v for v in range(g.n) if v not in xs]
        rows = [sum(1 << i for i, v in enumerate(comp) if g.has_edge(u, v)) for u in sorted(xs)]
        value = _gf2_rank(rows)
        if not (value == sep.cutrank_value < sep.order < k):
            return f"witness cut-rank {value}, reported {sep.cutrank_value}, order {sep.order}"
        if min(len(xs), len(comp)) < sep.order:
            return f"witness sides {len(xs)}/{len(comp)} below order {sep.order}"
        return None


# --- pivot-search -----------------------------------------------------------


def _k44() -> pivotkit.Graph:
    return pivotkit.Graph(8, [(i, 4 + j) for i in range(4) for j in range(4)])


class PivotSearch:
    """``is_pivot_minor(H, G, budget)`` with H in {C5, P5, C6}.

    Hosts are seeded G(8, 0.5) and the symmetric C8 and K_{4,4}, where
    colour refinement cannot split classes (canonical_form's worst case).
    The mix has "yes" answers (early stop) and "no" answers (full state
    space); the budget lets every pooled query answer.  A round holds one
    random host and both symmetric hosts, each against every H, so the
    median and tail units are C8 queries, whose inputs never change.
    """

    PATTERNS = {"C5": lambda: pivotkit.Graph.cycle(5),
                "P5": lambda: pivotkit.Graph.path(5),
                "C6": lambda: pivotkit.Graph.cycle(6)}
    SYMMETRIC = {"C8": lambda: pivotkit.Graph.cycle(8), "K44": _k44}
    HOSTS = 24  # G(8, 0.5) hosts 0..23 are pinned
    BUDGET = 20000
    # A round takes about 6 s, but runs are sized as if it took 4.4 s: six
    # rounds put 18 K_{4,4} queries in a run, so the tail (the 11th
    # largest unit) sits mid-cluster instead of at its lower edge.
    ROUND_S = 4.4
    CALIBRATION = "orderings"

    def _hosts(self):
        return list(self.SYMMETRIC) + [f"gnp{s}" for s in range(self.HOSTS)]

    def pool(self):
        return [(h, host) for h in self.PATTERNS for host in self._hosts()]

    def rounds(self, rng: random.Random):
        random_hosts = deck(rng, self.HOSTS)
        while True:
            hosts = list(self.SYMMETRIC) + [f"gnp{next(random_hosts)}"]
            specs = [(h, host) for h in self.PATTERNS for host in hosts]
            rng.shuffle(specs)
            yield specs

    def warmup(self):
        return ("C5", "gnp0")

    @staticmethod
    def key(spec) -> str:
        return f"{spec[0]}/{spec[1]}"

    def prepare(self, spec):
        h, host = spec
        if host in self.SYMMETRIC:
            g = self.SYMMETRIC[host]()
        else:
            g = gnp(8, 0.5, f"pivot-search/{host}")
        return self.PATTERNS[h](), g

    def run(self, inputs):
        h, g = inputs
        return pivotkit.is_pivot_minor(h, g, self.BUDGET)

    def record(self, raw):
        found, steps = raw
        return [found, None if steps is None else [list(step) for step in steps]]

    def trials(self, raw) -> int:
        return 1

    def recheck(self, inputs, raw):
        found, steps = raw
        if not found:
            return None
        h, g = inputs
        cur = g
        for step in steps:
            cur = pivotkit.pivot(cur, step[1], step[2]) if step[0] == "pivot" \
                else cur.delete_vertex(step[1])
        if not nx.is_isomorphic(_to_nx(cur), _to_nx(h)):
            return "replayed witness is not isomorphic to H"
        return None


WORKLOADS = {"campaigns": Campaigns, "certify": Certify, "pivot-search": PivotSearch}
