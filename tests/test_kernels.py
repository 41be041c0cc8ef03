"""The independence-number kernels and the product scan against oracles."""

import random
import time
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from circshell import complexes, kernels
from circshell.graphs import (Graph, _blown_rows, _spread_rows, circulant, CirculantSpec,
                              complete, disjoint_union, lex_product)
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


def _iso_classes(gs):
    """The isomorphism class of each graph, numbered in order of first
    appearance, by ``isomorphic_naive`` against each class's first graph."""
    firsts, of = [], []
    for g in gs:
        c = next((k for k, f in enumerate(firsts) if oracles.isomorphic_naive(f, g)),
                 len(firsts))
        if c == len(firsts):
            firsts.append(g)
        of.append(c)
    return of


# non-isomorphic pairs alike in vertex and edge counts (2K2, P3 + K1) and in
# degree sequence (P5, K3 + K2): a key that merged either pair would be caught
TRAPS = [Graph.from_edges(4, [(0, 1), (2, 3)]), Graph.from_edges(4, [(0, 1), (1, 2)]),
         Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
         Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])]


def test_product_scan_runs_alpha_on_the_true_products(monkeypatch):
    real = kernels.alpha_py
    calls = []

    def recorder(n, adj, *, deadline=None):
        calls.append(tuple(adj))
        return real(n, adj, deadline=deadline)

    monkeypatch.setattr(kernels, "alpha_py", recorder)
    rng = random.Random(1099)
    sample = [oracles.random_graph(rng, rng.randint(1, 5), rng.random()) for _ in range(25)]
    small = [g for n in range(1, 4) for g in labeled_graphs(n)]
    for gs, k in ((small, 7), (sample + TRAPS, 16)):
        calls.clear()
        assert kernels.alpha_product_failures(
            [g.n for g in gs], [list(g.adjacency_masks) for g in gs]) == []
        of = _iso_classes(gs)
        assert max(of) + 1 == k
        # one call per class on one of its graphs, then one per ordered
        # pair of classes, each on the true product of two of the graphs
        assert len(calls) == k + k * k
        rows = {}
        for gi, g in enumerate(gs):
            rows.setdefault(tuple(g.adjacency_masks), []).append(gi)
        assert sorted(of[rows[c][0]] for c in calls[:k]) == list(range(k))
        products = {}
        for gi, g in enumerate(gs):
            for hi, h in enumerate(gs):
                prod = tuple(oracles.lex_product_naive(g, h).adjacency_masks)
                products.setdefault(prod, []).append((gi, hi))
        searched = set()
        for c in calls[k:]:
            assert c in products
            searched.update((of[gi], of[hi]) for gi, hi in products[c])
        # every labelled pair is isomorphic, factor by factor, to a searched one
        assert searched == {(of[gi], of[hi]) for gi in range(len(gs))
                            for hi in range(len(gs))}


def test_product_scan_reports_every_labelled_pair_of_a_failing_class_pair(monkeypatch):
    real = kernels.alpha_py

    def skewed(n, adj, *, deadline=None):
        return real(n, adj, deadline=deadline) + (1 if n == 6 else 0)  # P3[K2], K2[P3]

    monkeypatch.setattr(kernels, "alpha_py", skewed)
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    p3_again = Graph.from_edges(3, [(0, 2), (1, 2)])  # the middle vertex is 2
    gs = [p3, complete(2), p3_again]
    bad = kernels.alpha_product_failures(
        [g.n for g in gs], [list(g.adjacency_masks) for g in gs])
    assert bad == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_product_scan_matches_a_per_pair_reference_across_isomorphic_copies(monkeypatch):
    rng = random.Random(3030)
    base = [oracles.random_graph(rng, rng.randint(1, 5), rng.random())
            for _ in range(8)] + TRAPS
    gs = base + [oracles.relabelled(rng.choice(base), rng) for _ in range(8)]
    rng.shuffle(gs)
    assert max(_iso_classes(gs)) + 1 < len(gs)
    real = kernels.alpha_py

    def lie(n, value):  # n and alpha are kept by relabelling, so copies get the same lie
        return 1 if (n + value) % 4 == 1 else 0

    def reference(g, skew):
        value = oracles.alpha_degree_bb(g.n, list(g.adjacency_masks))
        return value + skew * lie(g.n, value)

    for skew in (0, 1):
        def alpha(n, adj, *, deadline=None):
            value = real(n, adj, deadline=deadline)
            return value + skew * lie(n, value)

        monkeypatch.setattr(kernels, "alpha_py", alpha)
        want = [(gi, hi) for gi, g in enumerate(gs) for hi, h in enumerate(gs)
                if reference(oracles.lex_product_naive(g, h), skew)
                != reference(g, skew) * reference(h, skew)]
        assert bool(want) == bool(skew) and len(want) < len(gs) ** 2
        assert kernels.alpha_product_failures(
            [g.n for g in gs], [list(g.adjacency_masks) for g in gs]) == want


def _check_product(g, h):
    """The rows ``alpha_product_failures`` ORs from ``_blown_rows`` of G and
    ``_spread_rows`` of H, and ``lex_product``, against the edge-list product."""
    want = oracles.lex_product_naive(g, h)
    rows = list(map(or_, _blown_rows(g.n, g.adjacency_masks, h.n),
                    _spread_rows(g.n, h.adjacency_masks)))
    assert rows == list(want.adjacency_masks), (g, h)
    assert lex_product(g, h) == want, (g, h)


def test_product_adj_matches_graph_product():
    _check_product(Graph.from_edges(3, [(0, 1)]), Graph.from_edges(2, [(0, 1)]))


def test_product_adj_matches_lex_product_all_pairs_upto_3():
    gs = [g for n in range(4) for g in labeled_graphs(n)]
    for g in gs:
        for h in gs:
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
        core = oracles.random_graph(rng, rng.randint(1, 7), rng.random())
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
    sample = [oracles.random_graph(rng, rng.randint(1, 5), rng.random()) for _ in range(30)]
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
                _agrees_with_degree_bb(oracles.random_graph(rng, n, p))


def test_alpha_py_edgeless_and_complete():
    assert kernels.alpha_py(0, []) == 0
    for n in range(1, 70, 7):
        assert kernels.alpha_py(n, [0] * n) == n
        assert _alpha_py(complete(n)) == 1


def test_alpha_py_beats_a_first_fit_incumbent_below_alpha():
    # K_{2,3} with the 2-side at 0 and 1: no vertex has degree <= 1, first
    # fit takes 0 and 1, and the 3-side is the maximum independent set
    g = Graph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert _alpha_py(g) == 3 == oracles.alpha_naive(g)


def test_alpha_reads_the_deadline_on_entry():
    # no search on a complete graph branches, so only the entry read can stop it
    past = time.monotonic() - 1
    with pytest.raises(kernels.BudgetError):
        kernels.alpha(3, list(complete(3).adjacency_masks), deadline=past)
    ks = [complete(n) for n in range(1, 6)]
    with pytest.raises(kernels.BudgetError):
        kernels.alpha_product_failures(
            [g.n for g in ks], [list(g.adjacency_masks) for g in ks], deadline=past)


def test_alpha_honours_the_deadline():
    g = circulant(CirculantSpec.parse("C16(1,4,8)"))  # no vertex of degree <= 1
    with pytest.raises(kernels.BudgetError):
        kernels.alpha(g.n, list(g.adjacency_masks), deadline=time.monotonic() - 1)
    assert complexes.BudgetError is kernels.BudgetError
    with pytest.raises(kernels.BudgetError):
        complexes.alpha(g, deadline=time.monotonic() - 1)
    assert complexes.alpha(g, deadline=time.monotonic() + 60) == 4
