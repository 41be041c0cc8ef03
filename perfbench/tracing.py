"""Span tracing for the traced benchmark run.

``install`` rebinds every public function of the circshell layer modules
(and the two constructors ``Graph.from_edges`` and
``Complex.from_facets``) to a wrapper that records one span per call:
name, start, end and the span that was open when it started.  The
program's source is not touched; the wrappers replace module attributes
in every circshell module that binds the function, so calls through
``from .x import f`` bindings are seen too.  ``install`` returns a
function that puts the originals back.

Spans live in flat arrays while the run lasts and are written out once,
at the end.  Counts that only the call's arguments or result know (facets
enumerated, search nodes, matrix cells) are taken at the same boundary.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("graphs", "complexes", "kernels", "checkers", "homology", "suites")

# Metric stem -> span names, or name prefixes ending in ".".  A stem's
# time sums the outermost spans of its names only, so nested calls
# (faces_by_dim inside boundary_matrices, alpha_py inside alpha) are not
# counted twice.
GROUPS = {
    "graphs.build": ("graphs.",),
    "complexes.ind": ("complexes.independence_complex",),
    "complexes.from_facets": ("complexes.Complex.from_facets",),
    "kernels.scan": ("kernels.alpha_product_failures", "kernels.alpha_product_scan_py"),
    "kernels.product_adj": ("kernels.product_adj_py",),
    "kernels.alpha_py": ("kernels.alpha_py",),
    "kernels.alpha": ("kernels.alpha", "kernels.alpha_py"),
    "checkers.vd": ("checkers.vertex_decomposition",),
    "checkers.shelling": ("checkers.shelling",),
    "checkers.verify": ("checkers.verify_shelling", "checkers.verify_shed_tree"),
    "homology.cm": ("homology.is_cohen_macaulay",),
    "homology.faces": ("homology.all_faces", "homology.faces_by_dim"),
    "homology.boundary": ("homology.boundary_matrices",),
    "homology.rank_mod_p": ("homology.rank_mod_p",),
    "homology.exact_rank": ("homology.exact_rank", "homology.smith_invariant_factors"),
}


class Tracer:
    """In-memory span store plus the counters observed at span boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, qualname: str, fn: Callable, observe: Callable | None) -> Callable:
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, start, end, open_ = (
            self.name, self.parent, self.start, self.end, self._open)
        clock = self.clock
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        """Write the spans as a NumPy archive, one column per field."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            np.savez(fh, names=np.array(self.names), name=np.array(self.name),
                     parent=np.array(self.parent), start=np.array(self.start),
                     end=np.array(self.end))

    def layer_metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer times, calls, self times and the observed counts."""
        stems = list(GROUPS)
        bits = []
        for qual in self.names:
            b = 0
            for g, stem in enumerate(stems):
                if any(qual == m or (m.endswith(".") and qual.startswith(m))
                       for m in GROUPS[stem]):
                    b |= 1 << g
            bits.append(b)
        layer_of = [LAYERS.index(q.split(".", 1)[0]) for q in self.names]

        n = len(self.start)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        inherited = [0] * n
        child_s = [0.0] * n
        group_s = [0.0] * len(stems)
        group_calls = [0] * len(stems)
        top_s = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child_s[p] += dur
                inherited[i] = inh = inherited[p] | bits[name[p]]
            else:
                inh = 0
                top_s += dur
            fresh = bits[name[i]] & ~inh
            while fresh:
                g = (fresh & -fresh).bit_length() - 1
                fresh &= fresh - 1
                group_s[g] += dur
                group_calls[g] += 1
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            self_s[layer_of[name[i]]] += end[i] - start[i] - child_s[i]

        t = dict(zip(stems, group_s))
        calls = dict(zip(stems, group_calls))
        c = self.counts
        m = {
            "graphs.build_s": t["graphs.build"],
            "complexes.ind_s": t["complexes.ind"],
            "complexes.ind_calls": calls["complexes.ind"],
            "complexes.facets_enumerated": c["facets_enumerated"],
            "complexes.from_facets_s": t["complexes.from_facets"],
            "complexes.from_facets_calls": calls["complexes.from_facets"],
            "kernels.scan_s": t["kernels.scan"],
            "kernels.product_adj_s": t["kernels.product_adj"],
            "kernels.alpha_py_s": t["kernels.alpha_py"],
            "kernels.alpha_calls": calls["kernels.alpha"],
            "kernels.pairs_per_s": _ratio(c["scan_pairs"], t["kernels.scan"]),
            "checkers.vd_s": t["checkers.vd"],
            "checkers.vd_nodes": c["vd_nodes"],
            "checkers.vd_memo_hits": c["vd_memo_hits"],
            "checkers.vd_memo_hit_ratio": _ratio(c["vd_memo_hits"], c["vd_nodes"]),
            "checkers.vd_nodes_per_s": _ratio(c["vd_nodes"], t["checkers.vd"]),
            "checkers.shelling_s": t["checkers.shelling"],
            "checkers.shelling_nodes": c["shelling_nodes"],
            "checkers.shelling_memo_hits": c["shelling_memo_hits"],
            "checkers.verify_s": t["checkers.verify"],
            "checkers.verify_calls": calls["checkers.verify"],
            "homology.cm_s": t["homology.cm"],
            "homology.faces_s": t["homology.faces"],
            "homology.boundary_s": t["homology.boundary"],
            "homology.boundary_calls": calls["homology.boundary"],
            "homology.rank_mod_p_s": t["homology.rank_mod_p"],
            "homology.rank_mod_p_calls": calls["homology.rank_mod_p"],
            "homology.rank_mod_p_cells": c["rank_mod_p_cells"],
            "homology.exact_rank_s": t["homology.exact_rank"],
            "homology.exact_rank_calls": calls["homology.exact_rank"],
            "homology.escalation_ratio": _ratio(
                calls["homology.exact_rank"], calls["homology.rank_mod_p"]),
            "homology.largest_matrix_cells": c["largest_matrix_cells"],
            "harness.self_s": traced_wall_s - top_s,
            "tracing.spans": n,
        }
        for layer, s in zip(LAYERS, self_s):
            m[f"{layer}.self_s"] = s
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _search_stats(prefix: str) -> Callable:
    def observe(counts, args, result):
        counts[f"{prefix}_nodes"] += result.stats["nodes"]
        counts[f"{prefix}_memo_hits"] += result.stats["memo_hits"]
    return observe


def _matrix_cells(rank_mod_p: bool) -> Callable:
    def observe(counts, args, result):
        cells = args[0].rows * args[0].cols
        if rank_mod_p:
            counts["rank_mod_p_cells"] += cells
        counts["largest_matrix_cells"] = max(counts["largest_matrix_cells"], cells)
    return observe


def _facets(counts, args, result):
    counts["facets_enumerated"] += len(result.facets)


def _scan_pairs(counts, args, result):
    counts["scan_pairs"] += len(args[0]) ** 2


OBSERVERS = {
    "complexes.independence_complex": _facets,
    "checkers.vertex_decomposition": _search_stats("vd"),
    "checkers.shelling": _search_stats("shelling"),
    "homology.rank_mod_p": _matrix_cells(True),
    "homology.exact_rank": _matrix_cells(False),
    "kernels.alpha_product_failures": _scan_pairs,
}

# constructors that every layer calls; other methods stay unwrapped
STATIC_CONSTRUCTORS = (("graphs", "Graph", "from_edges"),
                       ("complexes", "Complex", "from_facets"))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions of every layer; returns the undo function."""
    modules = {layer: sys.modules[f"circshell.{layer}"] for layer in LAYERS}
    bindings = [m for name, m in sys.modules.items()
                if name == "circshell" or name.startswith("circshell.")]
    undo: list[tuple[object, str, object]] = []

    def rebind(original, wrapped):
        for m in bindings:
            for attr, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, attr, value))
                    setattr(m, attr, wrapped)

    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            qual = f"{layer}.{attr}"
            rebind(fn, tracer.wrap(qual, fn, OBSERVERS.get(qual)))
    for layer, cls_name, attr in STATIC_CONSTRUCTORS:
        cls = getattr(modules[layer], cls_name)
        original = vars(cls)[attr]
        qual = f"{layer}.{cls_name}.{attr}"
        undo.append((cls, attr, original))
        setattr(cls, attr, staticmethod(tracer.wrap(qual, original.__func__, None)))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
