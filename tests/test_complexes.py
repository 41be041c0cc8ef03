"""Simplicial complexes, independence complexes, links, and deletions."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from circshell.complexes import (
    Complex,
    _tuple_of,
    alpha,
    deletion,
    expansion_complex,
    independence_complex,
    link,
)
from circshell.graphs import Graph, complete, cycle, edgeless, expansion


def _p4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def graphs_strategy(nmax=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, nmax))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(n, picked)

    return build()


# --- construction ----------------------------------------------------------


def test_from_facets_sorts_canonically():
    d = Complex.from_facets(4, [(3, 1), (2, 0)])
    assert d.facets == ((0, 2), (1, 3))
    assert d.dim == 1 and d.is_pure()


def test_from_facets_rejects_containment():
    with pytest.raises(ValueError):
        Complex.from_facets(3, [(0,), (0, 1)])
    with pytest.raises(ValueError):
        Complex.from_facets(3, [(0, 1), (1, 0)])


def test_from_facets_reports_containment_across_sizes():
    # a non-pure family: each facet is tested against the larger ones only
    with pytest.raises(ValueError, match=r"facet \(1, 3\) is contained in facet \(0, 1, 3\)"):
        Complex.from_facets(5, [(2, 4), (1, 3), (0, 1, 3), (4,)])
    with pytest.raises(ValueError, match=r"facet \(4,\) is contained in facet \(2, 4\)"):
        Complex.from_facets(5, [(2, 4), (0, 1, 3), (4,)])
    with pytest.raises(ValueError, match=r"facet \(0, 2\) duplicates facet \(0, 2\)"):
        Complex.from_facets(5, [(1, 3, 4), (0, 2), (2, 0), (1,)])
    d = Complex.from_facets(5, [(2, 4), (0, 1, 3), (1, 2), (0, 4)])
    assert d.facets == ((0, 4), (1, 2), (2, 4), (0, 1, 3))


def test_from_facets_validates():
    with pytest.raises(ValueError):
        Complex.from_facets(2, [(0, 2)])
    with pytest.raises(ValueError):
        Complex.from_facets(2, [(0, 0)])


def test_from_facets_reads_each_face_once():
    d = Complex.from_facets(3, [iter((0, 1)), iter((2,))])
    assert d.facets == ((2,), (0, 1))
    with pytest.raises(ValueError, match="repeated"):
        Complex.from_facets(3, [iter((1, 1))])


def test_void_and_empty_distinction():
    void = Complex.from_facets(3, [])
    irrelevant = Complex.from_facets(3, [()])
    assert void.is_void and void.dim is None and void.facets == ()
    assert not irrelevant.is_void and irrelevant.dim == -1
    assert irrelevant.facets == ((),)
    assert void.is_pure() and irrelevant.is_pure()
    assert void != irrelevant


def test_f_vector_and_faces():
    d = Complex.from_facets(4, [(0, 1), (1, 2), (3,)])
    # faces: {}, 0, 1, 2, 3, 01, 12
    assert d.f_vector() == {-1: 1, 0: 4, 1: 2}
    assert d.has_face((0, 1)) and d.has_face(()) and not d.has_face((0, 2))
    assert d.vertices() == (0, 1, 2, 3)


def test_json_round_trip():
    d = Complex.from_facets(4, [(1, 3), (0, 2)])
    obj = json.loads(d.to_json())
    assert obj == {"n": 4, "facets": [[0, 2], [1, 3]]}
    assert Complex.from_json(d.to_json()) == d


# --- independence complexes --------------------------------------------------


def test_ind_p4_facets():
    assert independence_complex(_p4()).facets == ((0, 2), (0, 3), (1, 3))


def test_ind_c5_facets():
    d = independence_complex(cycle(5))
    assert d.facets == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))


def test_ind_edge_cases():
    # no vertices: the complex whose only face is the empty set
    assert independence_complex(Graph.from_edges(0, [])).facets == ((),)
    # complete graph: vertices only
    assert independence_complex(complete(3)).facets == ((0,), (1,), (2,))
    # edgeless graph: one big simplex
    assert independence_complex(edgeless(3)).facets == ((0, 1, 2),)


@settings(max_examples=200, deadline=None)
@given(graphs_strategy(5))
def test_ind_matches_subset_oracle(g):
    got = {frozenset(f) for f in independence_complex(g).facets}
    assert got == oracles.maximal_independent_sets(g)


def test_ind_matches_subset_oracle_larger():
    # a couple of fixed larger instances past the property-test sizes
    import random
    rng = random.Random(7)
    for n in (8, 10, 12):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, rng.sample(pairs, len(pairs) // 3))
        got = {frozenset(f) for f in independence_complex(g).facets}
        assert got == oracles.maximal_independent_sets(g)


def test_ind_equals_validated_construction():
    # Bron-Kerbosch facets skip the containment check; every graph with
    # n <= 5 must give what the validating constructor gives
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                d = independence_complex(Graph.from_edges(n, edges))
                assert d == Complex.from_facets(n, d.facets)
                assert list(d.facets) == sorted(d.facets, key=lambda t: (len(t), t))
                assert d.facets == tuple(map(_tuple_of, d.facet_masks))


def test_expansion_complex_equals_bron_kerbosch_on_the_expansion_graph():
    pairs_checked = 0
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                g = Graph.from_edges(n, edges)
                ind_g = independence_complex(g)
                for s in itertools.product((1, 2, 3), repeat=n):
                    got = expansion_complex(ind_g, s)
                    assert got == independence_complex(expansion(g, s)), (g, s)
                    assert list(got.facets) == sorted(got.facets,
                                                      key=lambda t: (len(t), t))
                    assert got.facets == tuple(map(_tuple_of, got.facet_masks))
                    assert got.is_flag is True
                    assert len(got.facets) == sum(
                        math.prod(s[v] for v in f) for f in ind_g.facets)
                    pairs_checked += 1
    assert pairs_checked == 5422
    # the flag mark is exact for any input, not only for Ind(G)
    hollow = Complex.from_facets(3, [(0, 1), (1, 2), (0, 2)])
    got = expansion_complex(hollow, (2, 1, 1))
    assert got.is_flag is Complex.from_facets(4, got.facets).is_flag is False
    ind_p3 = independence_complex(Graph.from_edges(3, [(0, 1), (1, 2)]))
    for bad in [(1, 1), (1, 1, 1, 1), (1, 0, 1), (2, -1, 1)]:
        with pytest.raises(ValueError):
            expansion_complex(ind_p3, bad)


def test_rotation_invariant():
    assert independence_complex(cycle(5)).rotation_invariant
    assert not independence_complex(_p4()).rotation_invariant
    assert not Complex.from_facets(1, [(0,)]).rotation_invariant  # n = 1
    assert Complex.from_facets(4, [(0, 2), (1, 3)]).rotation_invariant
    assert not Complex.from_facets(4, [(0, 2), (1, 2)]).rotation_invariant


def test_reflection_invariant():
    assert independence_complex(cycle(7)).reflection_invariant
    # v -> -v (mod 7) takes {0, 1, 3} to {0, 4, 6}, a rotation of {0, 2, 3}
    fano = Complex.from_facets(7, [[(v + r) % 7 for v in (0, 1, 3)] for r in range(7)])
    assert fano.rotation_invariant and not fano.reflection_invariant
    assert not Complex.from_facets(4, [(0, 1), (2,)]).reflection_invariant
    assert Complex.from_facets(4, [(0, 2), (1, 3)]).reflection_invariant
    assert Complex.from_facets(1, [(0,)]).reflection_invariant  # n = 1


def test_is_flag():
    # every independence complex is flag: independence_complex presets
    # the property, and the clique test agrees on the same facets
    for n in range(0, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(
                n, [pairs[t] for t in range(len(pairs)) if (bits >> t) & 1])
            d = independence_complex(g)
            assert d.is_flag is Complex.from_facets(g.n, d.facets).is_flag is True, g
    assert Complex.from_facets(4, [(0, 2), (1, 3)]).is_flag
    assert Complex.from_facets(3, [(0, 1, 2)]).is_flag  # a simplex
    assert Complex.from_facets(6, [(0, 1), (4,)]).is_flag  # unused vertices
    assert Complex.from_facets(2, [()]).is_flag
    assert not Complex.from_facets(2, []).is_flag  # void
    # each has a clique of its 1-skeleton that is not a face
    assert not Complex.from_facets(3, [(0, 1), (1, 2), (0, 2)]).is_flag
    assert not Complex.from_facets(
        4, list(itertools.combinations(range(4), 3))).is_flag
    assert not Complex.from_facets(
        5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)]).is_flag
    assert not Complex.from_facets(4, [(0, 1, 2), (0, 3), (1, 3), (2, 3)]).is_flag


@settings(max_examples=150, deadline=None)
@given(graphs_strategy(5))
def test_alpha_matches_dim(g):
    d = independence_complex(g)
    assert alpha(g) == oracles.alpha_naive(g)
    assert alpha(g) == (d.dim if d.dim is not None else -1) + 1


# --- purity ------------------------------------------------------------------


def _well_covered_naive(g):
    sets = oracles.maximal_independent_sets(g)
    return len({len(s) for s in sets}) <= 1


def test_purity_equivalence_exhaustive_n4():
    for n in range(0, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(
                n, [pairs[t] for t in range(len(pairs)) if (bits >> t) & 1])
            assert independence_complex(g).is_pure() == _well_covered_naive(g)


@settings(max_examples=100, deadline=None)
@given(graphs_strategy(5))
def test_purity_equivalence_sampled(g):
    assert independence_complex(g).is_pure() == _well_covered_naive(g)


# --- links and deletions -----------------------------------------------------


def test_link_examples():
    d = independence_complex(cycle(5))
    assert link(d, (0,)).facets == ((2,), (3,))
    assert link(d, ()) == d
    assert link(d, (0, 2)).facets == ((),)


def test_link_rejects_non_face():
    d = independence_complex(cycle(5))
    with pytest.raises(ValueError):
        link(d, (0, 1))


def test_deletion_examples():
    d = independence_complex(cycle(5))
    assert deletion(d, 0).facets == ((1, 3), (1, 4), (2, 4))
    # deleting the only vertex of a point leaves the empty-face complex
    point = Complex.from_facets(1, [(0,)])
    assert deletion(point, 0).facets == ((),)
    with pytest.raises(ValueError):
        deletion(d, 5)


def test_deletion_remaximalizes():
    d = Complex.from_facets(3, [(0, 1), (1, 2)])
    # dropping 2 trims (1,2) to (1,), swallowed by (0,1)
    assert deletion(d, 2).facets == ((0, 1),)
