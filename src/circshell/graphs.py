"""Finite simple graphs: circulants, lexicographical products, expansions.

Vertices are always ``0..n-1``.  Edges are stored as a frozenset of
sorted pairs, with cached bitmask adjacency rows for the search code.

Labelling contracts (relied on by tests and certificates):

* ``lex_product(G, H)``: product vertex ``(i, j)`` becomes ``i + G.n * j``.
* ``expansion(G, sizes)``: the j-th copy of vertex ``i`` (1-based ``j``)
  becomes ``sum(sizes[:i]) + (j - 1)``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


def _is_int(x: object) -> bool:
    """Whether ``x`` is an int and not a bool (JSON ``true`` reads as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertex set ``0..n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        norm = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"loop at vertex {a} not allowed")
            norm.add((min(a, b), max(a, b)))
        return Graph(n, frozenset(norm))

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Row ``v`` is the bitmask of neighbours of ``v``."""
        adj = [0] * self.n
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return tuple(adj)

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def degree(self, v: int) -> int:
        return self.adjacency_masks[v].bit_count()

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edge_list()]})

    @staticmethod
    def from_json(text: str) -> "Graph":
        obj = json.loads(text)
        n, edges = obj["n"], obj["edges"]
        if not _is_int(n) or not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
                for e in edges):
            raise ValueError("a graph needs an int 'n' and 'edges' of [int, int] pairs")
        return Graph.from_edges(n, [tuple(e) for e in edges])

    def to_dot(self) -> str:
        """Graphviz source with vertices pinned on a circle."""
        lines = ["graph G {", "  layout=neato;", "  node [shape=circle];"]
        r = max(1.0, self.n / 4.0)
        for v in range(self.n):
            t = 2.0 * math.pi * v / self.n if self.n else 0.0
            x, y = r * math.sin(t), r * math.cos(t)
            lines.append(f'  {v} [pos="{x:.4f},{y:.4f}!"];')
        for a, b in self.edge_list():
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CirculantSpec:
    """Circulant description ``C_n(S)``, normalised so that
    ``S`` is a sorted tuple of distances in ``1..n//2``.

    Normalisation folds each shift ``d`` to ``min(d mod n, n - d mod n)``
    and drops zeros, so equal specs describe equal graphs.
    """

    n: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"circulant modulus must be at least 1, got {self.n}")
        folded = set()
        for d in self.shifts:
            d = d % self.n if self.n else 0
            d = min(d, self.n - d)
            if d:
                folded.add(d)
        object.__setattr__(self, "shifts", tuple(sorted(folded)))

    @property
    def name(self) -> str:
        return f"C{self.n}({','.join(map(str, self.shifts))})"

    @staticmethod
    def parse(text: str) -> "CirculantSpec":
        """Parse shorthand like ``C16(1,4,8)`` or ``C7()``."""
        m = re.fullmatch(r"\s*[Cc](\d+)\(([\d,\s]*)\)\s*", text)
        if not m:
            raise ValueError(f"not a circulant shorthand: {text!r}")
        n = int(m.group(1))
        body = m.group(2).strip()
        shifts = tuple(int(s) for s in body.split(",")) if body else ()
        return CirculantSpec(n, shifts)


def circulant(spec: CirculantSpec) -> Graph:
    """The circulant graph: ``i ~ j`` iff ``min(|i-j| mod n, n-|i-j| mod n)`` is a shift."""
    n = spec.n
    edges = set()
    for d in spec.shifts:
        for i in range(n):
            j = (i + d) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(n, edges)


def complete(m: int) -> Graph:
    if m < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {m}")
    return Graph.from_edges(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def edgeless(n: int) -> Graph:
    return Graph.from_edges(n, [])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return circulant(CirculantSpec(n, (1,)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges) + [(a + g.n, b + g.n) for a, b in h.edges]
    return Graph.from_edges(g.n + h.n, edges)


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographical product G[H]: ``(w,x) ~ (y,z)`` iff ``w ~ y`` in G,
    or ``w == y`` and ``x ~ z`` in H.  Vertex ``(i, j)`` is ``i + g.n * j``.
    """
    edges = []
    for a, b in g.edges:
        for x in range(h.n):
            for z in range(h.n):
                edges.append((a + g.n * x, b + g.n * z))
    for x, z in h.edges:
        for i in range(g.n):
            edges.append((i + g.n * x, i + g.n * z))
    return Graph.from_edges(g.n * h.n, edges)


def expansion(g: Graph, sizes: tuple[int, ...]) -> Graph:
    """Clique expansion: vertex ``i`` blows up into a clique of ``sizes[i]``
    vertices, and blobs of adjacent vertices are completely joined.
    """
    if len(sizes) != g.n:
        raise ValueError(f"need {g.n} blob sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError("blob sizes must be at least 1")
    offsets = [0] * g.n
    for i in range(1, g.n):
        offsets[i] = offsets[i - 1] + sizes[i - 1]
    total = offsets[-1] + sizes[-1] if g.n else 0
    blobs = [range(o, o + s) for o, s in zip(offsets, sizes)]
    # in range, loop-free and sorted as built: a < b inside a blob, and
    # blob i lies below blob j for every edge (i, j), i < j, of g
    edges: set[tuple[int, int]] = set()
    for blob in blobs:
        edges.update(itertools.combinations(blob, 2))
    for i, j in g.edges:
        edges.update(itertools.product(blobs[i], blobs[j]))
    return Graph(total, frozenset(edges))


def circulant_lex_connection(s1: CirculantSpec, s2: CirculantSpec) -> CirculantSpec:
    """Connection set of ``C_n(S1)[C_m(S2)]`` as a circulant on ``n*m`` vertices.

    A distance ``d`` joins two product vertices when its residue mod ``n``
    is a shift of the outer circulant, or when ``n`` divides ``d`` and
    ``d/n`` reduces to a shift of the inner one.
    """
    n, m = s1.n, s2.n
    outer = set(s1.shifts) | {n - d for d in s1.shifts}
    inner = set(s2.shifts) | {m - d for d in s2.shifts}
    shifts = []
    for d in range(1, n * m // 2 + 1):
        if d % n in outer:
            shifts.append(d)
        elif d % n == 0 and (d // n) % m in inner:
            shifts.append(d)
    return CirculantSpec(n * m, tuple(shifts))
