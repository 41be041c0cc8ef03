"""The independence-number kernels and the product scan against oracles."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from circshell import complexes, kernels
from circshell.graphs import (Graph, circulant, CirculantSpec, complete, disjoint_union,
                              lex_product)
from circshell.suites import labeled_graphs


def graphs_strategy(nmax=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, nmax))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(n, picked)

    return build()


@settings(max_examples=150, deadline=None)
@given(graphs_strategy(6))
def test_alpha_python_matches_oracle(g):
    assert kernels.alpha_py(g.n, list(g.adjacency_masks)) == oracles.alpha_naive(g)


def test_alpha_circulant_values():
    # known independence numbers along the C_{4s}(1,s,2s) family
    for name, want in [("C16(1,4,8)", 4), ("C20(1,5,10)", 5), ("C24(1,6,12)", 6)]:
        g = circulant(CirculantSpec.parse(name))
        assert kernels.alpha(g.n, list(g.adjacency_masks)) == want


def test_alpha_of_the_empty_graph_is_zero():
    assert kernels.alpha(0, []) == 0


def test_product_scan_finds_no_failures_small():
    gs = []
    for n in range(1, 4):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            gs.append(Graph.from_edges(
                n, [pairs[t] for t in range(len(pairs)) if (bits >> t) & 1]))
    ns = [g.n for g in gs]
    adjs = [list(g.adjacency_masks) for g in gs]
    assert kernels.alpha_product_failures(ns, adjs) == []


def test_product_scan_reports_planted_failure(monkeypatch):
    # the identity is a theorem, so the reporting path is unreachable with
    # honest inputs; fake the single-graph alpha to prove failures surface
    real = kernels.alpha_py

    def skewed(n, adj, *, deadline=None):
        value = real(n, adj, deadline=deadline)
        return value + (1 if n == 4 else 0)  # lie about the products only

    monkeypatch.setattr(kernels, "alpha_py", skewed)
    g = complete(2)
    ns = [g.n, g.n]
    adjs = [list(g.adjacency_masks)] * 2
    bad = kernels.alpha_product_failures(ns, adjs)
    assert bad == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_product_adj_matches_graph_product():
    g = Graph.from_edges(3, [(0, 1)])
    h = Graph.from_edges(2, [(0, 1)])
    built = kernels.product_adj_py(
        g.n, list(g.adjacency_masks), h.n, list(h.adjacency_masks))
    want = oracles.lex_product_naive(g, h)
    assert built == list(want.adjacency_masks)
    assert lex_product(g, h) == want


def _random_graph(rng, n, p):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p])


def _check_product(g, h):
    """``product_adj_py`` and ``lex_product`` against the edge-list product."""
    want = oracles.lex_product_naive(g, h)
    rows = kernels.product_adj_py(
        g.n, list(g.adjacency_masks), h.n, list(h.adjacency_masks))
    assert rows == list(want.adjacency_masks), (g, h)
    assert lex_product(g, h) == want, (g, h)


def test_product_adj_matches_lex_product_all_pairs_upto_3():
    gs = [g for n in range(4) for g in labeled_graphs(n)]
    for g in gs:
        for h in gs:
            _check_product(g, h)


def test_product_adj_matches_lex_product_sampled_upto_5():
    rng = random.Random(1505)
    for _ in range(400):
        g = _random_graph(rng, rng.randint(1, 5), rng.random())
        h = _random_graph(rng, rng.randint(1, 5), rng.random())
        _check_product(g, h)


def _alpha_py(g):
    return kernels.alpha_py(g.n, list(g.adjacency_masks))


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_alpha_py_paths():
    for n in range(1, 13):
        g = _path(n)
        assert _alpha_py(g) == oracles.alpha_naive(g) == (n + 1) // 2


def test_alpha_py_forests():
    rng = random.Random(2009)
    for _ in range(60):
        n = rng.randint(1, 12)
        # random recursive tree, then cut some edges to get a forest
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        g = Graph.from_edges(n, edges)
        assert _alpha_py(g) == oracles.alpha_naive(g), g


def test_alpha_py_pendant_and_isolated_vertices():
    rng = random.Random(1980)
    for _ in range(60):
        core = _random_graph(rng, rng.randint(1, 7), rng.random())
        n = rng.randint(core.n, 12)
        edges = set(core.edges)
        # each extra vertex hangs off an earlier vertex, or stays isolated
        for v in range(core.n, n):
            if rng.random() < 0.7:
                edges.add((rng.randrange(v), v))
        g = Graph.from_edges(n, edges)
        assert _alpha_py(g) == oracles.alpha_naive(g), g


def test_alpha_py_small_products():
    rng = random.Random(42)
    small = [g for n in range(1, 4) for g in labeled_graphs(n)]
    for _ in range(80):
        g = rng.choice(small)
        h = rng.choice([x for x in small if g.n * x.n <= 10])
        # a pendant edge beside the product makes the reduction fire at the root
        for prod in (lex_product(g, h), disjoint_union(lex_product(g, h), _path(2))):
            assert _alpha_py(prod) == oracles.alpha_naive(prod), (g, h)


def _alpha_brute(n, adj):
    """Size of the largest independent set, over every vertex subset ``s``:
    ``s`` is independent when ``s`` without its low bit is and that bit's
    row misses the rest."""
    ok = [True] * (1 << n)
    best = 0
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        ok[s] = ok[rest] and not adj[low.bit_length() - 1] & rest
        if ok[s]:
            best = max(best, s.bit_count())
    return best


def test_alpha_py_matches_brute_force_on_every_graph_upto_6():
    count = 0
    for n in range(7):
        for g in labeled_graphs(n):
            adj = list(g.adjacency_masks)
            assert kernels.alpha_py(n, adj) == _alpha_brute(n, adj), g
            count += n > 0
    assert count == 33_867


def _agrees_with_degree_bb(g):
    adj = list(g.adjacency_masks)
    assert kernels.alpha_py(g.n, adj) == oracles.alpha_degree_bb(g.n, adj), g


def test_alpha_py_matches_degree_bb_on_sampled_products():
    rng = random.Random(2003)
    sample = [_random_graph(rng, rng.randint(1, 5), rng.random()) for _ in range(30)]
    for g in sample:
        for h in sample:
            _agrees_with_degree_bb(lex_product(g, h))


def test_alpha_py_matches_degree_bb_on_circulants_and_their_products():
    for s in range(4, 9):
        _agrees_with_degree_bb(circulant(CirculantSpec.parse(f"C{4 * s}(1,{s},{2 * s})")))
    c16 = circulant(CirculantSpec.parse("C16(1,4,8)"))
    for m in range(2, 6):  # 32 to 80 vertices: the last masks pass 64 bits
        _agrees_with_degree_bb(lex_product(c16, complete(m)))


def test_alpha_py_matches_degree_bb_on_random_graphs():
    rng = random.Random(2011)
    for n in (30, 40, 50):
        for p in (0.05, 0.1, 0.2, 0.4):
            for _ in range(3):
                _agrees_with_degree_bb(_random_graph(rng, n, p))


def test_alpha_py_edgeless_and_complete():
    assert kernels.alpha_py(0, []) == 0
    for n in range(1, 70, 7):
        assert kernels.alpha_py(n, [0] * n) == n
        assert _alpha_py(complete(n)) == 1


def test_alpha_honours_the_deadline():
    g = circulant(CirculantSpec.parse("C16(1,4,8)"))  # no vertex of degree <= 1
    with pytest.raises(kernels.BudgetError):
        kernels.alpha(g.n, list(g.adjacency_masks), deadline=time.monotonic() - 1)
    assert complexes.BudgetError is kernels.BudgetError
    with pytest.raises(kernels.BudgetError):
        complexes.alpha(g, deadline=time.monotonic() - 1)
    assert complexes.alpha(g, deadline=time.monotonic() + 60) == 4
