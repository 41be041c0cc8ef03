"""Graph constructors, circulant specs, products, expansions, and formats."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circshell.graphs import (
    CirculantSpec,
    Graph,
    circulant,
    circulant_lex_connection,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    expansion,
    lex_product,
)
from circshell.suites import labeled_graphs

import oracles


# --- Graph basics ----------------------------------------------------------


def test_from_edges_normalizes_and_validates():
    g = Graph.from_edges(3, [(2, 0), (0, 1)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.has_edge(2, 0) and g.has_edge(1, 0)
    assert not g.has_edge(1, 2)
    assert g.degree(0) == 2 and g.degree(2) == 1
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])


def test_adjacency_masks():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert list(g.adjacency_masks) == [0b0010, 0b0101, 0b0010, 0b0000]


def test_a_graph_is_its_vertex_count_and_adjacency_rows():
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adjacency_masks"]
    g = Graph(3, (0b110, 0b001, 0b001))
    assert g.edges == ((0, 1), (0, 2)) and g == Graph.from_edges(3, [(2, 0), (1, 0)])
    assert not g.has_edge(0, 3) and not g.has_edge(3, 0) and not g.has_edge(-1, 0)


def test_json_round_trip_and_sorted_edges_over_every_graph_upto_5():
    for n in range(6):
        for g in labeled_graphs(n):
            edges = g.edge_list()
            assert edges == sorted(edges) and all(a < b for a, b in edges)
            assert Graph.from_json(g.to_json()) == g


def test_json_round_trip_sorted():
    g = Graph.from_edges(4, [(3, 1), (2, 0), (0, 1)])
    obj = json.loads(g.to_json())
    assert obj == {"n": 4, "edges": [[0, 1], [0, 2], [1, 3]]}
    assert Graph.from_json(g.to_json()) == g


def test_dot_output_shape():
    dot = cycle(4).to_dot()
    assert dot.startswith("graph")
    assert "0 -- 1;" in dot and "0 -- 3;" in dot
    assert "pos=" in dot  # circular layout pins


# --- circulant specs -------------------------------------------------------


def test_spec_normalizes_shifts():
    # 15 ≡ -1 (mod 16) folds to 1; 20 folds to 4; 0 mod n drops
    assert CirculantSpec(16, (15, 20, 16, 1)) == CirculantSpec(16, (1, 4))
    assert CirculantSpec(16, (15, 20, 16, 1)).shifts == (1, 4)
    assert CirculantSpec(5, (3, 4)).shifts == (1, 2)


def test_spec_rejects_bad_modulus():
    with pytest.raises(ValueError):
        CirculantSpec(0, ())
    with pytest.raises(ValueError):
        CirculantSpec(-4, (1,))


def test_spec_name_and_parse():
    spec = CirculantSpec(16, (8, 4, 1))
    assert spec.name == "C16(1,4,8)"
    assert CirculantSpec.parse("C16(1,4,8)") == spec
    assert CirculantSpec.parse(" c5( 1 , 2 ) ") == CirculantSpec(5, (1, 2))
    assert CirculantSpec.parse("C3()") == CirculantSpec(3, ())
    with pytest.raises(ValueError):
        CirculantSpec.parse("K5")
    with pytest.raises(ValueError):
        CirculantSpec.parse("C16(1,4,8")


def test_circulant_examples():
    assert circulant(CirculantSpec(5, (1,))) == cycle(5)
    # C16(1,4,8) is 5-regular with 40 edges (shift 8 is self-paired)
    g = circulant(CirculantSpec(16, (1, 4, 8)))
    assert len(g.edges) == 40
    assert all(g.degree(v) == 5 for v in range(16))


@given(st.integers(1, 12))
def test_full_shift_set_gives_complete_graph(n):
    spec = CirculantSpec(n, tuple(range(1, n // 2 + 1)))
    assert circulant(spec) == complete(n)


def test_complete_edgeless_cycle():
    assert complete(1) == Graph.from_edges(1, [])
    assert len(complete(5).edges) == 10
    assert edgeless(4).edges == ()
    assert len(cycle(3).edges) == 3
    with pytest.raises(ValueError):
        complete(0)
    with pytest.raises(ValueError):
        cycle(2)


# --- products and expansions -----------------------------------------------


def test_lex_product_labels_and_edges():
    # vertex (i, j) of G[H] is labelled i + n_G * j
    g = Graph.from_edges(2, [(0, 1)])  # K2
    h = edgeless(2)
    p = lex_product(g, h)
    assert p.n == 4
    # all pairs with different G-coordinate are edges; H contributes none
    assert p.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_lex_product_not_commutative():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    k2 = complete(2)
    assert lex_product(p4, k2) != lex_product(k2, p4)


def test_disjoint_union_shifts_labels():
    g = disjoint_union(complete(2), complete(2))
    assert g.n == 4 and g.edges == ((0, 1), (2, 3))


def test_expansion_examples():
    p2 = complete(2)
    # doubling one endpoint of an edge gives a triangle
    g = expansion(p2, (2, 1))
    assert g.n == 3 and len(g.edges) == 3
    with pytest.raises(ValueError):
        expansion(p2, (1,))
    with pytest.raises(ValueError):
        expansion(p2, (0, 1))


def test_expansion_identity():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert expansion(g, (1, 1, 1, 1)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.data())
def test_expansion_by_constant_matches_lex_with_complete(n, m, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(n, picked)
    ge = expansion(g, (m,) * n)
    gp = lex_product(g, complete(m))
    # expansion labels x_{i,j} -> i*m + (j-1); product labels (i,j) -> i + n*j
    relabel = {}
    for i in range(n):
        for j in range(m):
            relabel[i * m + j] = i + n * j
    remapped = Graph.from_edges(
        gp.n, [(relabel[a], relabel[b]) for a, b in ge.edges])
    assert remapped == gp


# --- circulant connection-set formula ---------------------------------------


def test_connection_formula_examples():
    # frozen from an independent brute-force product computation
    cases = [
        ((4, (1,)), (2, (1,)), (8, (1, 3, 4))),
        ((2, (1,)), (2, (1,)), (4, (1, 2))),
        ((2, (1,)), (2, ()), (4, (1,))),
        ((5, (1,)), (3, (1,)), (15, (1, 4, 5, 6))),
    ]
    for (n1, s1), (n2, s2), (nm, sm) in cases:
        got = circulant_lex_connection(CirculantSpec(n1, s1), CirculantSpec(n2, s2))
        assert got == CirculantSpec(nm, sm), (n1, s1, n2, s2, got)


def _all_specs(nmax):
    from itertools import combinations
    out = []
    for n in range(1, nmax + 1):
        half = range(1, n // 2 + 1)
        for r in range(n // 2 + 1):
            out.extend(CirculantSpec(n, c) for c in combinations(half, r))
    return out


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 7) for m in range(1, 7)])
def test_connection_formula_matches_brute_force(n, m):
    from itertools import combinations
    for r1 in range(n // 2 + 1):
        for s1 in combinations(range(1, n // 2 + 1), r1):
            for r2 in range(m // 2 + 1):
                for s2 in combinations(range(1, m // 2 + 1), r2):
                    a, b = CirculantSpec(n, s1), CirculantSpec(m, s2)
                    built = circulant(circulant_lex_connection(a, b))
                    direct = lex_product(circulant(a), circulant(b))
                    assert built == direct, (a, b)


# --- constructors against edge-list oracles --------------------------------


_SMALL = [g for n in range(5) for g in labeled_graphs(n)]


def test_circulant_and_complete_match_their_edge_lists():
    for spec in _all_specs(12):
        n, shifts = spec.n, spec.shifts
        want = Graph.from_edges(n, [
            (i, j) for i, j in itertools.combinations(range(n), 2)
            if min((j - i) % n, (i - j) % n) in shifts])
        assert circulant(spec) == want, spec
    for m in range(1, 9):
        assert complete(m) == Graph.from_edges(
            m, list(itertools.combinations(range(m), 2)))


def test_disjoint_union_matches_its_edge_list_for_every_pair_upto_4():
    for g, h in itertools.product(_SMALL, repeat=2):
        want = Graph.from_edges(
            g.n + h.n, list(g.edges) + [(a + g.n, b + g.n) for a, b in h.edges])
        assert disjoint_union(g, h) == want, (g, h)


def test_expansion_matches_its_edge_list_for_every_graph_upto_4():
    for g in _SMALL:
        for sizes in itertools.product((1, 2, 3), repeat=g.n):
            assert expansion(g, sizes) == oracles.expansion_naive(g, sizes), (g, sizes)
