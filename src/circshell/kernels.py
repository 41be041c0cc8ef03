"""Branch-and-bound independence-number kernels on big-integer bitmasks.

A graph is passed as ``n`` and its adjacency rows, one int mask per
vertex; masks have no width limit.  ``alpha`` is the independence
number and ``alpha_product_failures`` scans a list of graphs for pairs
violating alpha(G[H]) = alpha(G) * alpha(H).

``alpha_py`` bounds each search node by a greedy cover of its candidate
set by cliques, as the colour bounds of the maximum-clique searches
MCQ (Tomita and Seki, 2003) and BBMC (San Segundo et al., 2011) do on
the complement graph.  The bound is sound because an independent set
meets a clique in at most one vertex, so candidates covered by k cliques
add at most k vertices.  Branching runs through the cover from its last
class to its first; the vertices still to be tried at any point lie in
the classes up to the current one, so once that class cannot beat the
best set found, no later branch of the node can either.  The best set
starts as a first-fit independent set at the root, so a root whose
cover already meets it is done without branching.

``product_adj_py`` builds the rows of G[H] from two parts, one per
factor: G's rows blown up over H's copies, and H's rows spread at
G's stride.  A part depends on one factor and the other's vertex count
only, so the scan makes each factor's parts once per vertex count and
each product with one OR per row.

``alpha_product_failures`` decides the pairs through their isomorphism
classes: a relabelling of G or of H relabels G[H] without changing any
of the three independence numbers, so one product search per ordered
pair of classes decides every labelled pair of those classes.  Graphs
are grouped by ``_iso_key``, the least tuple of adjacency rows over the
relabellings that list the vertices by ascending degree: a canonical
form over the degree partition, the first cell refinement of McKay and
Piperno's canonical labelling ("Practical graph isomorphism, II", 2014).
"""

from __future__ import annotations

import importlib.util
import time
from itertools import permutations, product
from math import factorial
from operator import or_

# Exists only for the benchmark's environment record.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None

_DEADLINE_PROBE = 32  # branch frames, pivots, columns, face sets or graphs between deadline checks
_KEY_ORDERINGS = 720  # 6!: a graph with more degree-sorted orderings keys by its own rows


class BudgetError(RuntimeError):
    """A budgeted computation ran out of wall-clock time."""


def backend() -> str:
    """Always ``"python"``; kept only for the benchmark's environment record."""
    return "python"


def alpha_py(n: int, adj: list[int], *, deadline: float | None = None) -> int:
    """Independence number by branch and bound on bitmask adjacency.

    Each node holds a chosen count ``size`` and a candidate mask ``P``.
    Take step: a candidate with at most one candidate neighbour is taken
    without branching, and its closed neighbourhood leaves ``P``.  This
    is exact: if a maximum independent set avoids such a vertex ``u``, it
    holds ``u``'s only neighbour (or it would not be maximum), and
    swapping that neighbour for ``u`` gives one of the same size.  The
    step runs until no such candidate is left; a take lowers the degree
    only of the removed neighbour's neighbours, so only they are looked
    at again.

    Then ``P`` is covered greedily by cliques: class ``k`` starts from
    the lowest uncovered candidate and keeps adding the lowest uncovered
    candidate adjacent to all of the class so far.  An independent set
    meets each class at most once, so ``size + k`` bounds the node when
    ``k`` classes cover ``P``.  The node branches on the covered vertices
    from last to first: including ``v`` leaves ``P`` minus ``v``'s
    closed neighbourhood, and ``v`` then leaves ``P``.  Before ``v`` of
    class ``c`` is tried, ``P`` holds only vertices of classes ``1..c``,
    so nothing below the node, ``v``'s branch included, beats
    ``size + c``; once that is no more than the best found, the node is
    done.

    The best found starts, after the root's take step, as the root's
    taken vertices plus a first-fit independent set of its candidates
    (lowest candidate first).  It is a real independent set, so the
    search stays exact, and a root whose cover already meets it pushes
    no frame.

    The search is one loop over a stack of ``[size, P, order]`` branch
    frames, at most alpha deep.  With ``deadline`` set,
    :class:`BudgetError` is raised once ``time.monotonic()`` passes it,
    read on entry, at the first branch frame and every
    ``_DEADLINE_PROBE``-th.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetError("independence number search ran out of budget")
    best = -1  # below any set until the root's incumbent is in
    frames = 0  # branch frames pushed so far
    stack = []  # [size, P, order] frames; order lists (vertex bit, class)
    size, p = 0, (1 << n) - 1
    while True:
        # take step; m holds the candidates still to look at
        m = p
        while m:
            b = m & -m
            m ^= b
            nb = adj[b.bit_length() - 1] & p
            if nb & (nb - 1) == 0:  # at most one candidate neighbour
                p &= ~(b | nb)
                size += 1
                if nb:  # its neighbour's neighbours lost a candidate neighbour
                    m = (m | adj[nb.bit_length() - 1]) & p
        if best < 0:  # the root: start from the taken vertices plus a first fit
            best = size
            q = p
            while q:
                b = q & -q
                q &= ~(b | adj[b.bit_length() - 1])
                best += 1
        if p:
            order = []
            u, k = p, 0
            while u:
                k += 1
                q = u
                while q:
                    b = q & -q
                    u ^= b
                    q &= adj[b.bit_length() - 1]
                    order.append((b, k))
            if size + k > best:
                if (deadline is not None and frames % _DEADLINE_PROBE == 0
                        and time.monotonic() > deadline):
                    raise BudgetError("independence number search ran out of budget")
                frames += 1
                stack.append([size, p, order])
        elif size > best:
            best = size
        # the next branch: the last untried vertex of the innermost live frame
        while stack:
            frame = stack[-1]
            order = frame[2]
            if order:
                b, c = order.pop()
                if frame[0] + c > best:
                    p = frame[1]
                    frame[1] = p ^ b
                    size, p = frame[0] + 1, p & ~(adj[b.bit_length() - 1] | b)
                    break
            stack.pop()
        else:
            return best


def _blown_rows(ng: int, adjg: list[int], nh: int) -> list[int]:
    """G's part of every row of G[H]: row ``i`` repeated in every H-copy,
    listed once per copy, in product vertex order ``i + ng*j``."""
    rep = 0  # bit 0 of every H-copy
    for j in range(nh):
        rep |= 1 << (ng * j)
    return [a * rep for a in adjg] * nh


def _spread_rows(ng: int, adjh: list[int]) -> list[int]:
    """H's part of every row of G[H]: row ``j`` spread at stride ``ng`` and
    shifted to column ``i``, in product vertex order ``i + ng*j``."""
    rows = []
    for a in adjh:
        spread = 0
        while a:
            low = a & -a
            spread |= 1 << (ng * (low.bit_length() - 1))
            a ^= low
        rows.extend(spread << i for i in range(ng))
    return rows


def product_adj_py(ng: int, adjg: list[int], nh: int, adjh: list[int]) -> list[int]:
    """Adjacency masks of the lexicographical product, vertex (i,j) -> i + ng*j.

    Row ``(i, j)`` is one OR: G's row ``i`` repeated in every H-copy, plus
    H's row ``j`` spread at stride ``ng`` and shifted to column ``i``.
    """
    return list(map(or_, _blown_rows(ng, adjg, nh), _spread_rows(ng, adjh)))


def alpha(n: int, adj: list[int], *, deadline: float | None = None) -> int:
    """Independence number of a graph given as bitmask adjacency rows.

    :class:`BudgetError` once ``time.monotonic()`` passes ``deadline``.
    """
    return alpha_py(n, adj, deadline=deadline)


def _iso_key(n: int, adj: list[int]) -> tuple[int, ...]:
    """Rows of a relabelled copy of the graph, equal for isomorphic graphs.

    The vertices are split into cells by degree, cells in ascending
    degree order; the key is the least tuple of rows over the
    relabellings that list the cells in that order, permuting only
    within each cell.  An isomorphism maps each cell onto the cell of
    the same degree, so isomorphic graphs range over the same relabelled
    copies and get the same key.  The key is always the rows of a
    relabelled copy, so equal keys mean isomorphic graphs.  A graph whose
    cells allow more than ``_KEY_ORDERINGS`` orderings keys by its own
    rows, which may leave isomorphic graphs apart but never joins two
    that are not.
    """
    cells: dict[int, list[int]] = {}
    for v, a in enumerate(adj):
        cells.setdefault(a.bit_count(), []).append(v)
    groups = [cells[d] for d in sorted(cells)]
    count = 1
    for g in groups:
        count *= factorial(len(g))
    if count > _KEY_ORDERINGS:
        return tuple(adj)
    nbrs = [[u for u in range(n) if a >> u & 1] for a in adj]
    bit = [0] * n  # the new bit of each old vertex
    get = bit.__getitem__
    best = None
    for parts in product(*map(permutations, groups)):
        order = sum(parts, ())  # the old vertex at each new position
        for k, v in enumerate(order):
            bit[v] = 1 << k
        rows = tuple([sum(map(get, nbrs[v])) for v in order])
        if best is None or rows < best:
            best = rows
    return best


def alpha_product_failures(ns: list[int], adjs: list[list[int]], *,
                           deadline: float | None = None) -> list[tuple[int, int]]:
    """Pairs (gi, hi) where alpha multiplicativity fails over the given graphs.

    Every ordered pair of the given graphs is decided, and the failing
    ones are returned in pair order.  The expected result is the empty
    list; any entry is a counterexample to alpha(G[H]) = alpha(G) *
    alpha(H).

    Lemma: isomorphisms pi from G onto G' and sigma from H onto H' give
    the isomorphism (i, j) -> (pi i, sigma j) from G[H] onto G'[H'].
    In G[H], (i, j) ~ (k, l) iff i ~ k in G, or i = k and j ~ l in H;
    pi keeps i ~ k and i = k, and sigma keeps j ~ l.  So alpha(G[H]),
    alpha(G) and alpha(H), and with them whether the pair fails, depend
    only on the isomorphism classes of G and H.

    The graphs are grouped by ``_iso_key``; equal keys are rows of
    relabelled copies of one graph, so every group lies inside one
    isomorphism class.  A class the key splits into two groups costs a
    second search, never a wrong verdict.  The first graph of each group
    stands for it: ``alpha_py`` runs once per representative for alpha(G)
    and once per ordered pair of representatives on the true rows of
    their product, so alpha(G[H]) is always searched, never derived from
    the factors.  A failing pair of groups is reported as every labelled
    pair (gi, hi) of its two groups.

    Each product is built as ``product_adj_py`` builds it, from G's part
    and H's part; a part depends on one factor and the other factor's
    vertex count only, so each representative's parts are made once per
    distinct vertex count, not once per pair.

    With ``deadline`` set, :class:`BudgetError` is raised once
    ``time.monotonic()`` passes it, read on entry and every
    ``_DEADLINE_PROBE``-th graph while keying; it also goes to every
    ``alpha_py`` call, so the scan stops inside a search too.
    """
    group: dict[tuple[int, ...], int] = {}  # key -> group number
    reps: list[tuple[int, list[int]]] = []  # the first graph of each group
    of: list[int] = []  # the group of each graph
    for i, (n, a) in enumerate(zip(ns, adjs)):
        if (deadline is not None and i % _DEADLINE_PROBE == 0
                and time.monotonic() > deadline):
            raise BudgetError("independence number scan ran out of budget")
        c = group.setdefault(_iso_key(n, a), len(reps))
        if c == len(reps):
            reps.append((n, a))
        of.append(c)
    alphas = [alpha_py(n, a, deadline=deadline) for n, a in reps]
    sizes = {n for n, _ in reps}
    blown = {m: [_blown_rows(n, a, m) for n, a in reps] for m in sizes}
    spread = {m: [_spread_rows(m, a) for _, a in reps] for m in sizes}
    bad: list[list[int]] = [[] for _ in reps]  # failing H-groups of each G-group
    for cg, (ng, _) in enumerate(reps):
        spread_g = spread[ng]
        for ch, (nh, _) in enumerate(reps):
            padj = list(map(or_, blown[nh][cg], spread_g[ch]))
            if alpha_py(ng * nh, padj, deadline=deadline) != alphas[cg] * alphas[ch]:
                bad[cg].append(ch)
    if not any(bad):
        return []
    members: list[list[int]] = [[] for _ in reps]
    for i, c in enumerate(of):
        members[c].append(i)
    return [(gi, hi) for gi, cg in enumerate(of)
            for hi in sorted(h for ch in bad[cg] for h in members[ch])]
