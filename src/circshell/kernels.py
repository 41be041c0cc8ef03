"""Branch-and-bound independence-number kernels on big-integer bitmasks.

A graph is passed as ``n`` and its adjacency rows, one int mask per
vertex; masks have no width limit.  ``alpha`` is the independence
number and ``alpha_product_failures`` scans a list of graphs for pairs
violating alpha(G[H]) = alpha(G) * alpha(H).
"""

from __future__ import annotations

import importlib.util

# Exists only for the benchmark's environment record.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def backend() -> str:
    """Always ``"python"``; kept only for the benchmark's environment record."""
    return "python"


def alpha_py(n: int, adj: list[int]) -> int:
    """Independence number by branch and bound on bitmask adjacency.

    Degree-<=1 reduction: an available vertex with at most one available
    neighbour is taken without branching, and its closed neighbourhood is
    removed.  This is exact: if a maximum independent set avoids such a
    vertex ``u``, it holds ``u``'s only neighbour (or it would not be
    maximum), and swapping that neighbour for ``u`` gives an independent
    set of the same size.  Otherwise the search branches on a
    maximum-degree vertex of the remaining subgraph; the bound
    ``chosen + popcount(remaining)`` prunes hopeless branches.
    """
    best = 0
    # stack of (candidate-set mask, chosen count)
    stack = [((1 << n) - 1, 0)]
    while stack:
        avail, size = stack.pop()
        while True:
            if size + avail.bit_count() <= best:
                break
            if not avail:
                best = size
                break
            # reduce the first vertex of degree <= 1, else find one of
            # maximum degree to branch on
            v, vdeg = -1, -1
            m = avail
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                d = (adj[u] & avail).bit_count()
                if d <= 1:
                    avail &= ~(low | adj[u])
                    size += 1
                    break
                if d > vdeg:
                    v, vdeg = u, d
            else:
                vbit = 1 << v
                # exclude v now; defer the include-v branch
                stack.append((avail & ~(vbit | adj[v]), size + 1))
                avail &= ~vbit
    return best


def product_adj_py(ng: int, adjg: list[int], nh: int, adjh: list[int]) -> list[int]:
    """Adjacency masks of the lexicographical product, vertex (i,j) -> i + ng*j.

    Row ``(i, j)`` is one OR: G's row ``i`` repeated in every H-copy, plus
    H's row ``j`` spread at stride ``ng`` and shifted to column ``i``.
    """
    rep = 0  # bit 0 of every H-copy
    for j in range(nh):
        rep |= 1 << (ng * j)
    gblow = [a * rep for a in adjg]
    adj = []
    for a in adjh:
        spread = 0
        while a:
            low = a & -a
            spread |= 1 << (ng * (low.bit_length() - 1))
            a ^= low
        adj.extend(gblow[i] | (spread << i) for i in range(ng))
    return adj


def alpha(n: int, adj: list[int]) -> int:
    """Independence number of a graph given as bitmask adjacency rows."""
    return alpha_py(n, adj)


def alpha_product_failures(ns: list[int], adjs: list[list[int]]) -> list[tuple[int, int]]:
    """Pairs (gi, hi) where alpha multiplicativity fails over the given graphs.

    Every ordered pair of the given graphs is checked.  The expected
    result is the empty list; any entry is a counterexample to
    alpha(G[H]) = alpha(G) * alpha(H).
    """
    alphas = [alpha_py(n, a) for n, a in zip(ns, adjs)]
    bad = []
    for gi, (ng, adjg) in enumerate(zip(ns, adjs)):
        for hi, (nh, adjh) in enumerate(zip(ns, adjs)):
            padj = product_adj_py(ng, adjg, nh, adjh)
            if alpha_py(ng * nh, padj) != alphas[gi] * alphas[hi]:
                bad.append((gi, hi))
    return bad
