"""Per-layer tracing of pivotkit from outside the package.

Each traced public function is replaced by a wrapper in every loaded
``pivotkit`` module namespace that holds it; ``from .x import f`` copies
the binding, so rebinding only the defining module would miss callers.
The wrapper records a span (function, start, end, parent span, unit id)
in flat arrays kept in memory; ``write_spans`` dumps them when the run
ends.  A span's self time is its duration minus the time its child spans
cover; time spent in untraced helpers counts toward the nearest traced
caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter

# The layers are pivotkit's modules; these are the public functions per layer.
LAYERS = {
    "gf2": ("rank_bits",),
    "graph": ("vertex_connectivity", "is_c4_free", "find_complete_bipartite", "degree_stats"),
    "pivot": ("canonical_form", "pivot", "is_pivot_minor"),
    "cutrank": ("cut_rank", "find_low_rank_separation"),
    "matroid": ("connectivity_lambda", "is_k_connected", "circuits", "change_basis"),
    "structure": ("split_tree", "tree_split_problem"),
    "extremal": ("gen_random_instance",),
    "verify": ("run_campaign",),
    "cli": ("run_cli",),
}

FUNCTIONS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# Functions that call other traced functions, so total time differs from self time.
NESTED = {"cutrank.cut_rank", "cutrank.find_low_rank_separation", "pivot.is_pivot_minor",
          "matroid.connectivity_lambda", "matroid.is_k_connected", "verify.run_campaign",
          "cli.run_cli"}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.fid = array("H")
        self.parent = array("q")
        self.unit_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.unit = -1
        self.witness_spans = array("q")  # find_low_rank_separation spans that found one
        self.campaign_tallies: list[tuple[int, int]] = []  # (trials_run, vacuous)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for fid, qualified in enumerate(FUNCTIONS):
            mod, fn = qualified.split(".")
            original = getattr(importlib.import_module(f"pivotkit.{mod}"), fn)
            on_result = {"cutrank.find_low_rank_separation": self._note_witness,
                         "verify.run_campaign": self._note_campaign}.get(qualified)
            wrapper = self._wrap(fid, original, on_result)
            for name, module in list(sys.modules.items()):
                if name != "pivotkit" and not name.startswith("pivotkit."):
                    continue
                if getattr(module, fn, None) is original:
                    setattr(module, fn, wrapper)
                    self._restore.append((module, fn, original))

    def uninstall(self) -> None:
        while self._restore:
            module, fn, original = self._restore.pop()
            setattr(module, fn, original)

    def _note_witness(self, idx: int, sep) -> None:
        if sep is not None:
            self.witness_spans.append(idx)

    def _note_campaign(self, idx: int, report) -> None:
        self.campaign_tallies.append((report.trials_run, report.vacuous))

    def _wrap(self, fid: int, fn, on_result):
        fids, parents, units = self.fid, self.parent, self.unit_of
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            units.append(tracer.unit)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(idx, result)
            return result

        return functools.update_wrapper(traced, fn)

    def layer_times(self, units_per_pass: int):
        """Per traced pass and function: (calls, self seconds, total seconds).

        Total time counts only spans with no enclosing span of the same
        function, so a function nested in itself is not counted twice.
        """
        n = len(self.start)
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        passes = max(self.unit_of) // units_per_pass + 1 if n else 1
        nf = len(FUNCTIONS)
        calls = [[0] * nf for _ in range(passes)]
        self_s = [[0.0] * nf for _ in range(passes)]
        total_s = [[0.0] * nf for _ in range(passes)]
        for i in range(n):
            f = fid[i]
            p = self.unit_of[i] // units_per_pass
            dur = end[i] - start[i]
            calls[p][f] += 1
            self_s[p][f] += dur - child[i]
            a = parent[i]
            while a >= 0 and fid[a] != f:
                a = parent[a]
            if a < 0:
                total_s[p][f] += dur
        return calls, self_s, total_s

    def write_spans(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tfunction\tparent\tunit\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{FUNCTIONS[self.fid[i]]}\t{self.parent[i]}\t"
                         f"{self.unit_of[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n")
