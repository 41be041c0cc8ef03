"""Finite simple graphs: circulants, lexicographical products, expansions.

Vertices are always ``0..n-1``.  A graph stores only its adjacency
rows, one neighbour bitmask per vertex (``Graph.adjacency_masks``); its
edge list is derived from them.

Labelling contracts (relied on by tests and certificates):

* ``lex_product(G, H)``: product vertex ``(i, j)`` becomes ``i + G.n * j``.
* ``expansion(G, sizes)``: the j-th copy of vertex ``i`` (1-based ``j``)
  becomes ``sum(sizes[:i]) + (j - 1)``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import kernels

MAX_VERTICES = 4096  # the most vertices a graph or complex from outside input may have


def _is_int(x: object) -> bool:
    """Whether ``x`` is an int and not a bool (JSON ``true`` reads as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on ``0..n-1``; row ``v`` of ``adjacency_masks``
    is the bitmask of the neighbours of ``v``.  Nothing is validated:
    outside input goes through ``from_edges`` or ``from_json``."""

    n: int
    adjacency_masks: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        # bounded before the rows are allocated
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
        adj = [0] * n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"loop at vertex {a} not allowed")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return Graph(n, tuple(adj))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges ``(a, b)``, ``a < b``, in ascending order: rows in
        order, and each row's neighbours above ``a`` from its low bit up."""
        out = []
        for a, row in enumerate(self.adjacency_masks):
            m = row >> (a + 1) << (a + 1)
            while m:
                low = m & -m
                out.append((a, low.bit_length() - 1))
                m ^= low
        return tuple(out)

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.n and b >= 0 and bool(self.adjacency_masks[a] >> b & 1)

    def degree(self, v: int) -> int:
        return self.adjacency_masks[v].bit_count()

    def edge_list(self) -> list[tuple[int, int]]:
        return list(self.edges)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]})

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
        if self.n > MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {self.n}")
        folded = set()
        for d in self.shifts:
            d = d % self.n
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
    # row i is row 0 rotated by i; no shift is 0 mod n, so no loops
    n = spec.n
    full = (1 << n) - 1
    row0 = 0
    for d in spec.shifts:
        row0 |= 1 << d | 1 << (n - d)
    return Graph(n, tuple(((row0 << i) | (row0 >> (n - i))) & full for i in range(n)))


def complete(m: int) -> Graph:
    if m < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {m}")
    full = (1 << m) - 1
    return Graph(m, tuple(full ^ (1 << v) for v in range(m)))


def edgeless(n: int) -> Graph:
    return Graph.from_edges(n, ())


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return circulant(CirculantSpec(n, (1,)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """``g`` on ``0..g.n-1`` beside ``h`` shifted up by ``g.n``."""
    return Graph(g.n + h.n,
                 g.adjacency_masks + tuple(m << g.n for m in h.adjacency_masks))


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographical product G[H]: ``(w,x) ~ (y,z)`` iff ``w ~ y`` in G,
    or ``w == y`` and ``x ~ z`` in H.  Vertex ``(i, j)`` is ``i + g.n * j``.
    """
    return Graph(g.n * h.n, tuple(kernels.product_adj_py(
        g.n, list(g.adjacency_masks), h.n, list(h.adjacency_masks))))


def expansion(g: Graph, sizes: tuple[int, ...]) -> Graph:
    """Clique expansion: vertex ``i`` blows up into a clique of ``sizes[i]``
    vertices, and blobs of adjacent vertices are completely joined: a
    vertex's row is its blob minus itself plus its base's neighbours' blobs.
    """
    if len(sizes) != g.n:
        raise ValueError(f"need {g.n} blob sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError("blob sizes must be at least 1")
    blobs, total = [], 0  # blobs[i]: the vertex mask of blob i
    for s in sizes:
        blobs.append(((1 << s) - 1) << total)
        total += s
    adj = []
    for i, row in enumerate(g.adjacency_masks):
        around = 0
        while row:
            low = row & -row
            around |= blobs[low.bit_length() - 1]
            row ^= low
        blob = blobs[i]
        m = blob
        while m:
            low = m & -m
            adj.append((blob ^ low) | around)
            m ^= low
    return Graph(total, tuple(adj))


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
