"""Property-testing campaigns against brute-force oracles.

Each campaign generates instances (random per seed, or exhaustive),
evaluates a hypothesis, and asserts the matching conclusion.  Trials
whose hypothesis fails are counted as vacuous rather than as passes.
Every violation is recorded with a fully serialized witness that can be
replayed independently of the original run.  Reports are bit-identical
across runs with the same (name, params, seed); elapsed time is kept on
the report object but deliberately excluded from the serialization.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from ._text import content_lines
from .cutrank import find_low_rank_separation, subset_cap
from .errors import CapExceeded, FormatError, UnknownCampaign
from .extremal import Instance, format_instance, gen_c6_blowup_example, gen_ktt_example, gen_random_instance
from .gf2 import BitMatrix, format_matrix, parse_matrix, rank, rank_bits
from .graph import (BiGraph, Graph, bipartite_complement, degree_stats,
                    find_complete_bipartite, format_bigraph, format_graph,
                    is_c4_free, parse_bigraph, parse_graph, vertex_connectivity)
from .matroid import (CIRCUIT_ENUM_CAP, BinaryMatroid, change_basis, circuits,
                      connectivity_kernel, connectivity_lambda, format_matroid,
                      graphic_matroid, is_k_connected, parse_matroid,
                      parse_multigraph)
from .pivot import pivot
from .structure import (block_partition_is_constant, check_struct_density,
                        constant_block_partition, perturbation_partition,
                        free_trees, reconstruct_from_partition,
                        split_tree)

VACUOUS_WARN_FRACTION = 0.9


@dataclass
class CampaignReport:
    name: str
    params: dict
    seed: int
    trials_run: int = 0
    vacuous: int = 0
    violations: list = field(default_factory=list)  # list of witness dicts
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def vacuous_warning(self) -> bool:
        return self.trials_run > 0 and self.vacuous / self.trials_run > VACUOUS_WARN_FRACTION


def _embed(text: str) -> str:
    return text.strip().replace("\n", ";")


def _unembed(blob: str) -> str:
    return blob.replace(";", "\n") + "\n"


def format_report(report: CampaignReport) -> str:
    lines = ["PASS" if report.passed else "FAIL",
             f"name={report.name}",
             f"seed={report.seed}"]
    for key in sorted(report.params):
        lines.append(f"param.{key}={report.params[key]}")
    lines.append(f"trials_run={report.trials_run}")
    lines.append(f"vacuous={report.vacuous}")
    if report.vacuous_warning:
        lines.append("vacuous_warning=1")
    lines.append(f"violations={len(report.violations)}")
    for w in report.violations:
        parts = [f"witness name={w['name']}"]
        for key in sorted(w):
            if key in ("name", "data"):
                continue
            parts.append(f"{key}={w[key]}")
        parts.append(f"data={w['data']}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    lines = content_lines(text)
    if not lines or lines[0] not in ("PASS", "FAIL"):
        raise FormatError("report must start with PASS or FAIL")
    out = {"summary": lines[0], "fields": {}, "witnesses": []}
    for line in lines[1:]:
        if line.startswith("witness "):
            body = line[len("witness "):]
            head, sep, data = body.partition(" data=")
            if not sep:
                raise FormatError(f"witness line without data: {line!r}")
            w = {"data": data}
            for token in head.split():
                key, _, value = token.partition("=")
                w[key] = value
            out["witnesses"].append(w)
        else:
            key, _, value = line.partition("=")
            out["fields"][key] = value
    return out


# --- per-campaign single-instance checks (shared by run and replay) ---

def _check_fun(inst: Instance, s: int, t: int, bound_offset: int):
    """Violation dict, "vacuous", or None (pass)."""
    h = inst.fundamental
    if find_complete_bipartite(h, s, t) is not None:
        return "vacuous"
    bound = max(2 * s - 2, t - 1) + bound_offset
    if degree_stats(h).min_degree > bound:
        return {"s": s, "t": t, "bound_offset": bound_offset,
                "data": _embed(format_instance(inst))}
    return None


def _check_cofun(inst: Instance, s: int, bound_offset: int):
    h = bipartite_complement(inst.fundamental)
    if find_complete_bipartite(h, s, s) is not None:
        return "vacuous"
    bound = 5 * s - 1 + bound_offset
    if degree_stats(h).min_degree > bound:
        return {"s": s, "bound_offset": bound_offset,
                "data": _embed(format_instance(inst))}
    return None


def _check_tree(tree: Graph, s: int):
    # split_tree validates its own output and raises when it is invalid.
    try:
        split_tree(tree, s)
    except Exception as exc:  # any failure to split is a violation
        return {"s": s, "reason": type(exc).__name__,
                "data": _embed(format_graph(tree))}
    return None


def _check_struct_density(h: BiGraph, row_classes, col_classes, s: int):
    if find_complete_bipartite(h, s, s) is not None:
        return "vacuous"
    if not check_struct_density(h, row_classes, col_classes, s):
        return {"s": s,
                "rows": "|".join(",".join(map(str, c)) for c in row_classes),
                "cols": "|".join(",".join(map(str, c)) for c in col_classes),
                "data": _embed(format_bigraph(h))}
    return None


def _check_rankconn(g: Graph):
    if not is_c4_free(g):
        return "vacuous"
    k = vertex_connectivity(g)
    sep = find_low_rank_separation(g, k + 1)
    if sep is not None:
        return {"k": k, "data": _embed(format_graph(g))}
    return None


def _check_pert(c: BitMatrix, d1: BitMatrix):
    bp = constant_block_partition(c)
    p = rank(c)
    ok = (len(bp.row_classes) <= 2 ** p
          and len(bp.col_classes) <= 2 ** p
          and block_partition_is_constant(c, bp))
    if ok:
        g1, g2 = BiGraph(d1), BiGraph(d1 ^ c)
        bp2 = perturbation_partition(g1, g2)
        ok = (len(bp2.row_classes) <= 2 ** p
              and len(bp2.col_classes) <= 2 ** p
              and reconstruct_from_partition(g2, bp2) == g1)
    if not ok:
        return {"data": _embed(format_matrix(c)) + "&" + _embed(format_matrix(d1))}
    return None


def _check_pivot_matroid(m: BinaryMatroid, x: str, y: str):
    m2 = change_basis(m, x, y)
    order = m.element_order()
    pos = {e: i for i, e in enumerate(order)}
    expected = pivot(m.element_graph(), pos[x], pos[y])
    ok = circuits(m) == circuits(m2) and m2.element_graph() == expected
    if not ok:
        return {"x": x, "y": y, "data": _embed(format_matroid(m))}
    return None


def _check_conn_equiv(m: BinaryMatroid, k_max: int):
    # lambda(X) = lambda(E-X) (swap the two rank terms) and cut-rank(X) =
    # cut-rank(V-X) (transpose the symmetric adjacency), so the masks
    # without the top element cover every split once.
    lam = connectivity_kernel(m)
    g = m.element_graph()
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    for x in range(1 << max(n - 1, 0)):
        comp = full ^ x
        if lam(x) != rank_bits([adj[u] & comp for u in range(n) if x >> u & 1]):
            return {"k_max": k_max, "data": _embed(format_matroid(m))}
    # Both searches return a least-order witness, so one call each at
    # k_max answers every k in 1..k_max: a side is k-connected exactly
    # when k <= its order, taken as k_max when it has no witness.
    _, witness = is_k_connected(m, k_max)
    m_order = k_max if witness is None else connectivity_lambda(m, witness) + 1
    sep = find_low_rank_separation(g, k_max)
    g_order = k_max if sep is None else sep.order
    if m_order != g_order:
        return {"k_max": k_max, "data": _embed(format_matroid(m))}
    return None


def _check_avg_exists(g: Graph, k: int):
    if not is_c4_free(g) or degree_stats(g).average_degree < 4 * k:
        return "vacuous"
    n = g.n
    for size in range(n, 0, -1):
        for keep in combinations(range(n), size):
            sub = g
            for v in sorted(set(range(n)) - set(keep), reverse=True):
                sub = sub.delete_vertex(v)
            if degree_stats(sub).average_degree < k + 1:
                continue
            if find_low_rank_separation(sub, k + 2) is None:
                return None
    return {"k": k, "data": _embed(format_graph(g))}


# --- campaign runners ---

def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def _random_matroid(rng: random.Random, max_elements: int) -> BinaryMatroid:
    nr = rng.randint(1, max(1, min(5, max_elements - 1)))
    nc = rng.randint(1, max(1, max_elements - nr))
    rep = BitMatrix(nr, nc, [rng.randrange(1 << nc) for _ in range(nr)])
    labels = [f"e{i}" for i in range(nr + nc)]
    return BinaryMatroid(labels[:nr], labels[nr:], rep)


def _parse_instance_spec(spec: str) -> Instance:
    """Generator spec strings: ktt:<t>, c6blowup:<s>, random:<n>:<extra>:<seed>."""
    parts = spec.split(":")
    if parts[0] == "ktt" and len(parts) == 2:
        return gen_ktt_example(int(parts[1]))
    if parts[0] == "c6blowup" and len(parts) == 2:
        return gen_c6_blowup_example(int(parts[1]))
    if parts[0] == "random" and len(parts) == 4:
        return gen_random_instance(int(parts[1]), int(parts[2]), int(parts[3]))
    raise ValueError(f"bad instance spec: {spec!r}")


def _instances_for(params: dict, rng: random.Random):
    specs = params.get("instances")
    if specs:
        for spec in specs:
            yield _parse_instance_spec(spec)
        return
    for _ in range(params["trials"]):
        n = rng.randint(2, params["max_tree_vertices"])
        extra = rng.randint(0, params["max_extra"])
        yield gen_random_instance(n, extra, rng.randrange(2 ** 32))


def _tally(report: CampaignReport, outcome) -> None:
    report.trials_run += 1
    if outcome == "vacuous":
        report.vacuous += 1
    elif outcome is not None:
        outcome["name"] = report.name
        report.violations.append(outcome)


def _run_fun(report: CampaignReport, rng: random.Random) -> None:
    p = report.params
    for inst in _instances_for(p, rng):
        _tally(report, _check_fun(inst, p["s"], p["t"], p["bound_offset"]))


def _run_cofun(report: CampaignReport, rng: random.Random) -> None:
    p = report.params
    for inst in _instances_for(p, rng):
        _tally(report, _check_cofun(inst, p["s"], p["bound_offset"]))


def _run_tree(report: CampaignReport, rng: random.Random) -> None:
    max_edges = report.params["max_edges"]
    if max_edges < 5:
        raise ValueError(f"tree-lemma: max_edges must be at least 5, got {max_edges}")
    if max_edges > 12:
        raise CapExceeded("tree-lemma enumerates trees with at most 12 edges")
    # A legal s needs 5s <= edges, so trees start at 5 edges.
    for order in range(6, max_edges + 2):
        for tree in free_trees(order):
            edges = order - 1
            s = 1
            while 5 * s <= edges:
                _tally(report, _check_tree(tree, s))
                s += 1


def _run_struct_density(report: CampaignReport, rng: random.Random) -> None:
    p = report.params
    for _ in range(p["trials"]):
        inst = gen_random_instance(rng.randint(3, 8), rng.randint(1, 6),
                                   rng.randrange(2 ** 32))
        h = inst.fundamental
        if rng.random() < 0.5:
            h = bipartite_complement(h)
        if h.na == 0 or h.nb == 0:
            _tally(report, "vacuous")
            continue
        row_classes = _random_partition(rng, h.na, p["classes"])
        col_classes = _random_partition(rng, h.nb, p["classes"])
        _tally(report, _check_struct_density(h, row_classes, col_classes, p["s"]))


def _random_partition(rng: random.Random, size: int, classes: int):
    assignment = [rng.randrange(classes) for _ in range(size)]
    out = []
    for c in range(classes):
        members = tuple(i for i, a in enumerate(assignment) if a == c)
        if members:
            out.append(members)
    return tuple(out)


def _run_rankconn(report: CampaignReport, rng: random.Random) -> None:
    p = report.params
    if p["n_max"] < 4:
        raise ValueError(f"rankconn-lemma: n_max must be at least 4, got {p['n_max']}")
    if p["n_max"] > 10:
        raise CapExceeded("rankconn-lemma caps graphs at 10 vertices")
    for _ in range(p["trials"]):
        n = rng.randint(4, p["n_max"])
        prob = rng.uniform(0.1, 0.45)
        g = None
        for _ in range(50):  # rejection sampling for C4-freeness
            cand = _random_graph(rng, n, prob)
            if is_c4_free(cand):
                g = cand
                break
        if g is None:
            _tally(report, "vacuous")
            continue
        _tally(report, _check_rankconn(g))


def _run_pert(report: CampaignReport, rng: random.Random) -> None:
    p = report.params
    size = p["size"]
    for _ in range(p["trials"]):
        target_rank = rng.randint(0, p["max_rank"])
        left = BitMatrix(size, target_rank,
                         [rng.randrange(1 << target_rank) if target_rank else 0
                          for _ in range(size)])
        right = BitMatrix(target_rank, size,
                          [rng.randrange(1 << size) for _ in range(target_rank)])
        rows = []
        for i in range(size):
            acc = 0
            for k in range(target_rank):
                if left.get(i, k):
                    acc ^= right.rows[k]
            rows.append(acc)
        c = BitMatrix(size, size, rows)
        d1 = BitMatrix(size, size, [rng.randrange(1 << size) for _ in range(size)])
        _tally(report, _check_pert(c, d1))


def _check_max_elements(max_elements: int, cap: int, name: str) -> None:
    if max_elements < 2:
        raise ValueError(f"{name}: max_elements must be at least 2, got {max_elements}")
    if max_elements > cap:
        raise CapExceeded(f"{name} caps matroids at {cap} elements")


def _run_pivot_matroid(report: CampaignReport, rng: random.Random) -> None:
    p = report.params
    _check_max_elements(p["max_elements"], CIRCUIT_ENUM_CAP, report.name)
    for _ in range(p["trials"]):
        m = _random_matroid(rng, p["max_elements"])
        ones = [(i, j) for i in range(len(m.basis)) for j in range(len(m.nonbasis))
                if m.rep.get(i, j)]
        if not ones:
            _tally(report, "vacuous")
            continue
        i, j = ones[rng.randrange(len(ones))]
        _tally(report, _check_pivot_matroid(m, m.basis[i], m.nonbasis[j]))


def _run_conn_equiv(report: CampaignReport, rng: random.Random) -> None:
    p = report.params
    if p["k_max"] < 1:
        raise ValueError(f"conn-equiv: k_max must be at least 1, got {p['k_max']}")
    _check_max_elements(p["max_elements"], subset_cap(), report.name)
    for _ in range(p["trials"]):
        m = _random_matroid(rng, p["max_elements"])
        _tally(report, _check_conn_equiv(m, p["k_max"]))


def _run_avg_exists(report: CampaignReport, rng: random.Random) -> None:
    p = report.params
    if p["n_max"] > 12 or p["k"] != 1:
        raise CapExceeded("avg-exists runs only at k=1 with at most 12 vertices")
    for _ in range(p["trials"]):
        n = rng.randint(5, p["n_max"])
        g = _random_graph(rng, n, rng.uniform(0.3, 0.7))
        _tally(report, _check_avg_exists(g, p["k"]))


_CAMPAIGNS = {
    "fun-lemma": (_run_fun,
                  {"s": 2, "t": 3, "trials": 500, "max_tree_vertices": 10,
                   "max_extra": 6, "bound_offset": 0, "instances": None}),
    "cofun-lemma": (_run_cofun,
                    {"s": 2, "trials": 500, "max_tree_vertices": 10,
                     "max_extra": 6, "bound_offset": 0, "instances": None}),
    "tree-lemma": (_run_tree, {"max_edges": 11}),
    "struct-density": (_run_struct_density, {"s": 2, "classes": 2, "trials": 200}),
    "rankconn-lemma": (_run_rankconn, {"trials": 1000, "n_max": 8}),
    "pert-partition": (_run_pert, {"trials": 200, "size": 8, "max_rank": 4}),
    "pivot-matroid": (_run_pivot_matroid, {"trials": 200, "max_elements": 10}),
    "conn-equiv": (_run_conn_equiv, {"trials": 100, "max_elements": 10, "k_max": 4}),
    "avg-exists": (_run_avg_exists, {"trials": 25, "n_max": 12, "k": 1}),
}


def campaign_names() -> list[str]:
    return sorted(_CAMPAIGNS)


def run_campaign(name: str, params: dict | None = None, seed: int = 0) -> CampaignReport:
    """Run a named campaign; deterministic per (name, params, seed)."""
    if name not in _CAMPAIGNS:
        raise UnknownCampaign(name)
    runner, defaults = _CAMPAIGNS[name]
    merged = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r} for campaign {name}")
        merged[key] = value
    if merged.get("trials", 1) < 1:
        raise ValueError(f"{name}: trials must be at least 1, got {merged['trials']}")
    report = CampaignReport(name=name, params=merged, seed=seed)
    start = time.monotonic()
    runner(report, random.Random(seed))
    report.elapsed = time.monotonic() - start
    return report


# --- replay ---

def _instance_from_witness(w: dict) -> Instance:
    mg, tree = parse_multigraph(_unembed(w["data"]))
    fundamental = graphic_matroid(mg, tree).fundamental_graph()
    return Instance(mg, tree, fundamental, "replayed")


def _replay_fun(w: dict) -> bool:
    out = _check_fun(_instance_from_witness(w), int(w["s"]), int(w["t"]),
                     int(w["bound_offset"]))
    return isinstance(out, dict)


def _replay_cofun(w: dict) -> bool:
    out = _check_cofun(_instance_from_witness(w), int(w["s"]), int(w["bound_offset"]))
    return isinstance(out, dict)


def _replay_tree(w: dict) -> bool:
    return isinstance(_check_tree(parse_graph(_unembed(w["data"])), int(w["s"])), dict)


def _replay_struct_density(w: dict) -> bool:
    h = parse_bigraph(_unembed(w["data"]))
    rows = tuple(tuple(int(x) for x in c.split(",")) for c in w["rows"].split("|"))
    cols = tuple(tuple(int(x) for x in c.split(",")) for c in w["cols"].split("|"))
    return isinstance(_check_struct_density(h, rows, cols, int(w["s"])), dict)


def _replay_rankconn(w: dict) -> bool:
    return isinstance(_check_rankconn(parse_graph(_unembed(w["data"]))), dict)


def _replay_pert(w: dict) -> bool:
    blob_c, blob_d = w["data"].split("&")
    return isinstance(_check_pert(parse_matrix(_unembed(blob_c)),
                                  parse_matrix(_unembed(blob_d))), dict)


def _replay_pivot_matroid(w: dict) -> bool:
    m = parse_matroid(_unembed(w["data"]))
    return isinstance(_check_pivot_matroid(m, w["x"], w["y"]), dict)


def _replay_conn_equiv(w: dict) -> bool:
    m = parse_matroid(_unembed(w["data"]))
    return isinstance(_check_conn_equiv(m, int(w["k_max"])), dict)


def _replay_avg_exists(w: dict) -> bool:
    return isinstance(_check_avg_exists(parse_graph(_unembed(w["data"])), int(w["k"])), dict)


_REPLAYERS = {
    "fun-lemma": _replay_fun,
    "cofun-lemma": _replay_cofun,
    "tree-lemma": _replay_tree,
    "struct-density": _replay_struct_density,
    "rankconn-lemma": _replay_rankconn,
    "pert-partition": _replay_pert,
    "pivot-matroid": _replay_pivot_matroid,
    "conn-equiv": _replay_conn_equiv,
    "avg-exists": _replay_avg_exists,
}


def replay_witness(w: dict) -> bool:
    """Re-run a serialized witness; True when the violation re-triggers."""
    name = w.get("name")
    if name not in _REPLAYERS:
        raise UnknownCampaign(str(name))
    return _REPLAYERS[name](w)


def replay_report(text: str) -> list[tuple[dict, bool]]:
    parsed = parse_report(text)
    return [(w, replay_witness(w)) for w in parsed["witnesses"]]
