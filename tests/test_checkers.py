"""Shelling search, vertex decomposition, and the independent verifiers."""

import itertools
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circshell.checkers import (
    CheckOutcome,
    NotPureError,
    ShedLeaf,
    ShedNode,
    ShellingCertificate,
    certificate_from_json,
    certificate_to_json,
    shelling,
    shelling_from_shed_tree,
    verify_shed_tree,
    verify_shelling,
    vertex_decomposition,
)
from circshell.complexes import Complex, expansion_complex, independence_complex
from circshell.graphs import Graph, circulant, CirculantSpec, complete, cycle, lex_product
from circshell.homology import cm_verdict
from circshell.suites import labeled_graphs

import oracles


def _ind_p4():
    return independence_complex(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))


def _ind_c5():
    return independence_complex(cycle(5))


def _two_disjoint_edges():
    return Complex.from_facets(4, [(0, 2), (1, 3)])


def _moebius():
    # rotation-invariant, and not flag: its 1-skeleton is K_5
    return Complex.from_facets(
        5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)])


def _small_pure_ind():
    """Every pure Ind(G) with n <= 5 (387 complexes, at most 6 facets)."""
    return [d for n in range(1, 6) for g in labeled_graphs(n)
            if (d := independence_complex(g)).is_pure()]


def graphs_strategy(nmax=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, nmax))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(n, picked)

    return build()


# --- verify_shelling ----------------------------------------------------------


def test_verify_shelling_p4_good_and_bad():
    d = _ind_p4()  # facets (0,2), (0,3), (1,3)
    assert verify_shelling(d, ShellingCertificate((0, 1, 2)))
    assert not verify_shelling(d, ShellingCertificate((0, 2, 1)))


def test_verify_shelling_rejects_malformed():
    d = _ind_p4()
    with pytest.raises(ValueError):
        verify_shelling(d, ShellingCertificate((0, 1)))  # wrong length
    with pytest.raises(ValueError):
        verify_shelling(d, ShellingCertificate((0, 1, 1)))  # repeat
    with pytest.raises(ValueError):
        verify_shelling(d, ShellingCertificate((0, 1, 3)))  # out of range


def test_verify_shelling_requires_pure():
    d = Complex.from_facets(3, [(0, 1), (2,)])
    with pytest.raises(NotPureError):
        verify_shelling(d, ShellingCertificate((0, 1)))


def test_verify_shelling_matches_naive_order_check():
    # seeded random facet orders of every small pure Ind(G), scored by the
    # textbook condition; most orders of the larger complexes are rejected
    rng = random.Random(6)
    verdicts = {True: 0, False: 0}
    for d in _small_pure_ind():
        s = len(d.facets)
        for _ in range(6):
            order = tuple(rng.sample(range(s), s))
            want = oracles.is_shelling_order([d.facets[i] for i in order])
            assert verify_shelling(d, ShellingCertificate(order)) is want, (d, order)
            verdicts[want] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_verify_shelling_trivial_sizes():
    assert verify_shelling(Complex.from_facets(2, [(0, 1)]),
                           ShellingCertificate((0,)))
    assert verify_shelling(Complex.from_facets(1, []), ShellingCertificate(()))


# --- shelling search -----------------------------------------------------------


def test_shelling_yes_cases():
    for d in (_ind_p4(), _ind_c5()):
        out = shelling(d)
        assert out.verdict == "yes"
        assert verify_shelling(d, out.certificate)


def test_shelling_milestones_need_no_backtracking():
    # one node per placed facet plus the root: the large-complex
    # candidate order shells the paper's circulants without undoing
    limit = sys.getrecursionlimit()
    for name, nodes in (("C16(1,4,8)", 81), ("C20(1,5,10)", 245),
                        ("C24(1,6,12)", 729), ("C28(1,7,14)", 2189)):
        d = independence_complex(circulant(CirculantSpec.parse(name)))
        out = shelling(d)
        assert out.verdict == "yes"
        assert out.stats["nodes"] == nodes
        assert verify_shelling(d, out.certificate)
        # the search is a loop, so it leaves the limit alone
        assert sys.getrecursionlimit() == limit


def test_shelling_never_touches_the_recursion_limit(monkeypatch):
    # C28(1,7,14) places 2,188 facets, one path entry each: no depth of
    # the search is a Python stack depth
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit})")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    d = independence_complex(circulant(CirculantSpec.parse("C28(1,7,14)")))
    out = shelling(d)
    assert out.verdict == "yes" and out.stats["nodes"] == 2189
    assert verify_shelling(d, out.certificate)


def test_searches_leave_no_reference_cycles():
    # with the collector off, whatever a search leaves in a cycle stays
    # until gc.collect() finds it: neither search may leave any
    import gc
    d = independence_complex(circulant(CirculantSpec.parse("C24(1,6,12)")))
    gc.collect()
    gc.disable()
    try:
        assert shelling(d).verdict == "yes"
        assert gc.collect() == 0
        assert vertex_decomposition(d).verdict == "no"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shelling_peak_memory_stays_small_on_c28():
    # the path is one entry per placed facet, 2,189 long here, and an
    # entry keeps one 2,188-bit legal set and a short undo list
    import tracemalloc
    d = independence_complex(circulant(CirculantSpec.parse("C28(1,7,14)")))
    tracemalloc.start()
    try:
        out = shelling(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.verdict == "yes" and out.stats["nodes"] == 2189
    assert peak < 3.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_shelling_trivial_cases():
    void = Complex.from_facets(2, [])
    assert shelling(void).verdict == "yes"
    assert shelling(void).certificate.order == ()
    point = Complex.from_facets(2, [(0,)])
    assert shelling(point).verdict == "yes"
    assert shelling(point).certificate.order == (0,)


def test_shelling_no_for_disconnected_ridges():
    out = shelling(_two_disjoint_edges())
    assert out.verdict == "no"


def test_shelling_no_by_exhaustion():
    # Moebius band on 5 vertices: ridge graph is a 5-cycle (connected), so
    # the refutation must come from exhausting every prefix, and it is
    # genuinely non-shellable (homotopy equivalent to a circle)
    d = _moebius()
    out = shelling(d)
    assert out.verdict == "no"
    assert out.stats.get("reason") != "ridge graph disconnected"


def test_shelling_matches_brute_force_on_every_small_pure_ind():
    # every pure Ind(G) with n <= 5: at most 6 facets, so all orders are tried
    small = _small_pure_ind()
    for d in small:
        out = shelling(d)
        assert out.verdict == ("yes" if oracles.shellable_naive(d.facets) else "no"), d
        if out.verdict == "yes":
            assert verify_shelling(d, out.certificate), d
    assert len(small) == 387


def test_shelling_requires_pure():
    with pytest.raises(NotPureError):
        shelling(Complex.from_facets(3, [(0, 1), (2,)]))


def test_shelling_timeout_reports_unknown():
    d = independence_complex(circulant(CirculantSpec.parse("C24(1,6,12)")))
    limit = sys.getrecursionlimit()
    out = shelling(d, budget_s=0.0)
    assert sys.getrecursionlimit() == limit
    assert out.verdict == "unknown"
    assert out.certificate is None
    assert out.stats.get("reason") == "budget exhausted"


def test_shelling_certificate_round_trip():
    cert = ShellingCertificate((2, 0, 1))
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert isinstance(again, ShellingCertificate)
    assert again.order == (2, 0, 1)
    assert json.loads(text) == {"order": [2, 0, 1]}


# --- vertex decomposition -------------------------------------------------------


def test_vd_c5_tree_shape():
    d = _ind_c5()
    out = vertex_decomposition(d)
    assert out.verdict == "yes"
    t = out.certificate
    assert isinstance(t, ShedNode) and t.vertex == 0
    assert verify_shed_tree(d, t)


def test_vd_base_cases():
    # a root of at most one facet is one leaf node of the search loop
    for d, kind in ((Complex.from_facets(2, []), "void"),
                    (Complex.from_facets(2, [()]), "empty-face"),
                    (Complex.from_facets(3, [(0, 1, 2)]), "simplex")):
        out = vertex_decomposition(d)
        assert out.verdict == "yes" and out.certificate == ShedLeaf(kind)
        assert (out.stats["nodes"], out.stats["memo_hits"],
                out.stats["forced"]) == (1, 0, 0)
        assert verify_shed_tree(d, out.certificate)


def _points(n):
    return Complex.from_facets(n, [(v,) for v in range(n)])


def test_vd_never_touches_the_recursion_limit(monkeypatch):
    # 1,200 isolated points: the shed tree is 1,200 levels deep, past the
    # default limit, and the search, the verifier and the derived
    # shelling order each walk it in a loop
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit})")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    d = _points(1200)
    out = vertex_decomposition(d)
    assert out.verdict == "yes"
    assert out.stats["nodes"] == 2399 and out.stats["forced"] == 1199
    assert verify_shed_tree(d, out.certificate)
    assert verify_shelling(d, shelling_from_shed_tree(d, out.certificate))


def _chain(depth, vertex, bottom):
    """A shed tree shedding ``vertex(i)`` at depth i, with the link {()}
    at every level and ``bottom`` below the last deletion."""
    t = bottom
    for i in reversed(range(depth)):
        t = ShedNode(vertex(i), t, ShedLeaf("empty-face"))
    return t


def _preorder(t):
    """The shed vertices and leaf kinds of ``t`` in preorder, read with an
    explicit stack (``==`` on deep trees recurses)."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, ShedLeaf):
            out.append(t.kind)
        else:
            out.append(t.vertex)
            stack += (t.link, t.deletion)
    return out


def test_map_tree_handles_a_tree_deeper_than_the_recursion_limit():
    from circshell.checkers import _map_tree
    n = 7
    depth = sys.getrecursionlimit() + 100
    moved = _map_tree(_chain(depth, lambda i: i % n, ShedLeaf("simplex")), -1, 3, n)
    want = _chain(depth, lambda i: (3 - i) % n, ShedLeaf("simplex"))
    assert _preorder(moved) == _preorder(want)


def test_verify_shed_tree_judges_trees_deeper_than_the_recursion_limit():
    # the search sheds the points 1, 2, ... in turn, down to the simplex
    # {0}; the walk is a loop, so a wrong bottom is found, not given up on
    depth = sys.getrecursionlimit() + 100
    d = _points(depth + 1)
    good = _chain(depth, lambda i: i + 1, ShedLeaf("simplex"))
    assert _preorder(vertex_decomposition(d).certificate) == _preorder(good)
    assert verify_shed_tree(d, good)
    for bottom in (ShedLeaf("void"),
                   ShedNode(0.5, ShedLeaf("void"), ShedLeaf("empty-face"))):
        assert not verify_shed_tree(d, _chain(depth, lambda i: i + 1, bottom))


def test_vd_matches_definition_on_small_complexes():
    # every small pure Ind(G) (all flag), then complexes given by their
    # facets: the Moebius band and the boundaries of a triangle and of a
    # tetrahedron, none of them flag, and two disjoint edges
    others = [
        _moebius(),
        Complex.from_facets(3, [(0, 1), (1, 2), (0, 2)]),
        Complex.from_facets(4, list(itertools.combinations(range(4), 3))),
        _two_disjoint_edges(),
    ]
    verdicts = {"yes": 0, "no": 0}
    for d in _small_pure_ind() + others:
        out = vertex_decomposition(d)
        assert out.verdict == ("yes" if oracles.vd_naive(d.facets) else "no"), d
        if out.verdict == "yes":
            assert verify_shed_tree(d, out.certificate), d
        verdicts[out.verdict] += 1
    assert [vertex_decomposition(d).verdict for d in others] == ["no", "yes", "yes", "no"]
    assert verdicts["yes"] > 0 and verdicts["no"] > 0


def test_vd_milestones_search_stats():
    # the memo is keyed by dihedral class, so these counts pin the key,
    # the candidate order and the forced vertices
    limit = sys.getrecursionlimit()
    for name, nodes, hits in (("C16(1,4,8)", 254, 130),
                              ("C20(1,5,10)", 2117, 984)):
        d = independence_complex(circulant(CirculantSpec.parse(name)))
        out = vertex_decomposition(d)
        assert out.verdict == "no"
        assert out.stats["rotations"] is True
        assert (out.stats["nodes"], out.stats["memo_hits"]) == (nodes, hits)
        assert sys.getrecursionlimit() == limit


def _vd_totals(ds):
    nodes = hits = 0
    for d in ds:
        out = vertex_decomposition(d)
        nodes += out.stats["nodes"]
        hits += out.stats["memo_hits"]
    return len(ds), nodes, hits


def test_vd_search_totals_on_small_and_expansion_complexes():
    # Leaves go through the search loop's entry step like every node, and
    # are counted there, so these totals pin
    # the search's shape over many small inputs: every pure Ind(G) with
    # n <= 6, and every complex the expansion suite searches (each pure
    # Ind(G) with n <= 5 and its expansions by vectors in {1, 2}^n)
    chain = [d for n in range(1, 7) for g in labeled_graphs(n)
             if (d := independence_complex(g)).is_pure()]
    assert _vd_totals(chain) == (7332, 61360, 278)
    expansion = []
    for n in range(1, 6):
        for g in labeled_graphs(n):
            d = independence_complex(g)
            if d.is_pure():
                expansion.append(d)
                expansion.extend(expansion_complex(d, s) for s in
                                 itertools.product((1, 2), repeat=n))
    assert _vd_totals(expansion) == (12085, 180285, 5529)


def _has_twin_or_pendant(g):
    rows = [m | 1 << v for v, m in enumerate(g.adjacency_masks)]
    return len(set(rows)) < len(rows) or any(r.bit_count() == 2 for r in rows)


def test_vd_with_forced_vertices_matches_definition_upto_6():
    # every pure Ind(G) with n <= 6 whose graph has a closed twin or a
    # pendant: its root, and any node like it, tries one forced vertex
    verdicts = {"yes": 0, "no": 0}
    for n in range(1, 7):
        for g in labeled_graphs(n):
            d = independence_complex(g)
            if not d.is_pure() or not _has_twin_or_pendant(g):
                continue
            out = vertex_decomposition(d)
            assert out.verdict == ("yes" if oracles.vd_naive(d.facets) else "no"), g
            if out.verdict == "yes":
                assert verify_shed_tree(d, out.certificate), g
            # a root refused for its ridge graph is never searched
            assert out.stats["forced"] > 0 or out.stats["nodes"] == 0, g
            verdicts[out.verdict] += 1
    assert verdicts == {"yes": 4244, "no": 630}


def test_a_pendant_forces_its_neighbour_not_itself():
    # edges 0-2 and 1-3: vertex 0 is a pendant of the lowest label, and
    # the first candidate of the plain search (it sheds, as does each
    # vertex of this 4-cycle); the rule forces its neighbour 2 instead
    d = independence_complex(Graph.from_edges(4, [(0, 2), (1, 3)]))
    out = vertex_decomposition(d)
    assert out.verdict == "yes" and out.certificate.vertex == 2
    assert verify_shed_tree(d, out.certificate)
    assert out.stats["forced"] >= 1


def test_non_flag_roots_force_nothing():
    for d in (_moebius(), Complex.from_facets(3, [(0, 1), (1, 2), (0, 2)])):
        assert vertex_decomposition(d).stats["forced"] == 0


@pytest.mark.parametrize("m", [2, 3])
def test_vd_refutes_c16_lex_complete_within_5s(m):
    # C16(1,4,8)[K_m]: every vertex has a closed twin; the search that
    # forces nothing does not finish in 120 s
    d = independence_complex(
        lex_product(circulant(CirculantSpec.parse("C16(1,4,8)")), complete(m)))
    out = vertex_decomposition(d, budget_s=5.0)
    assert out.verdict == "no" and out.stats["forced"] > 0


def test_vd_two_disjoint_edges_no():
    # pure VD implies shellable, which needs a connected ridge graph, so
    # the root is refused before any node is searched
    out = vertex_decomposition(_two_disjoint_edges())
    assert out.verdict == "no" and out.certificate is None
    assert out.stats["nodes"] == 0
    assert out.stats["reason"] == "ridge graph disconnected"


def test_ridge_connected_matches_the_oracle_and_decides_both_refusals():
    # every pure Ind(G) with n <= 6, every expansion of one with n <= 4
    # by sizes in {1, 2}^n, and complexes given by their facets: RP^2,
    # the Moebius band, two disjoint edges, one facet, {()} and the void
    ds = []
    for n in range(1, 7):
        for g in labeled_graphs(n):
            d = independence_complex(g)
            if d.is_pure():
                ds.append(d)
                if n <= 4:
                    ds.extend(expansion_complex(d, s)
                              for s in itertools.product((1, 2), repeat=n))
    rp2 = Complex.from_facets(6, [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)])
    ds += [rp2, _moebius(), _two_disjoint_edges(), Complex.from_facets(3, [(0, 2)]),
           Complex.from_facets(3, [()]), Complex.from_facets(3, [])]
    split = 0
    for d in ds:
        connected = oracles.ridge_connected_naive(d.facets)
        assert d.ridge_connected == connected, d.facets
        split += not connected
        for out in (shelling(d), vertex_decomposition(d)):
            refused = (out.verdict == "no" and out.stats["nodes"] == 0
                       and out.stats.get("reason") == "ridge graph disconnected")
            assert refused == (not connected), d.facets
    assert (len(ds), split) == (7868, 947)


def test_vd_requires_pure():
    with pytest.raises(NotPureError):
        vertex_decomposition(Complex.from_facets(3, [(0, 1), (2,)]))


def test_vd_timeout_reports_unknown():
    d = independence_complex(circulant(CirculantSpec.parse("C20(1,5,10)")))
    limit = sys.getrecursionlimit()
    out = vertex_decomposition(d, budget_s=0.0)
    assert sys.getrecursionlimit() == limit
    assert out.verdict == "unknown"


def test_vd_budget_is_honoured_while_it_runs():
    # C28(1,7,14): a search of several seconds against a 0.5 s budget
    d = independence_complex(circulant(CirculantSpec.parse("C28(1,7,14)")))
    limit = sys.getrecursionlimit()
    started = time.monotonic()
    out = vertex_decomposition(d, budget_s=0.5)
    assert time.monotonic() - started < 2.0
    assert sys.getrecursionlimit() == limit
    assert out.verdict == "unknown"
    assert out.stats["reason"] == "budget exhausted" and out.stats["nodes"] > 0
    # the deadline is read every 256 nodes, leaves settled inline included,
    # so a spent budget stops the search at its 256th node
    out = vertex_decomposition(d, budget_s=0.0)
    assert out.verdict == "unknown" and out.stats["nodes"] == 256


def test_shelling_budget_is_honoured_while_it_backtracks():
    # C32(1,8,16), 6,560 facets, is the first family member whose
    # shelling search backtracks; unbudgeted it runs for minutes
    d = independence_complex(circulant(CirculantSpec.parse("C32(1,8,16)")))
    limit = sys.getrecursionlimit()
    started = time.monotonic()
    out = shelling(d, budget_s=0.5)
    assert time.monotonic() - started < 2.0
    assert sys.getrecursionlimit() == limit
    assert out.verdict == "unknown"
    assert out.stats["reason"] == "budget exhausted" and out.stats["memo_hits"] > 0


def _rotation_invariant(d):
    return {tuple(sorted((v + 1) % d.n for v in f)) for f in d.facets} == set(d.facets)


def test_vd_rotation_memo_agrees_with_relabelled_plain_memo():
    # Decomposability survives relabelling, so the rotation-keyed memo on
    # Ind(G) and the plain memo on a relabelled copy must agree.
    swap = {0: 1, 1: 0}  # not a rotation once n >= 3
    plain_runs = 0
    for n in range(2, 13):
        half = range(1, n // 2 + 1)
        for r in range(len(half) + 1):
            for conn in itertools.combinations(half, r):
                d = independence_complex(circulant(CirculantSpec(n, conn)))
                if not d.is_pure():
                    continue
                moved = Complex.from_facets(
                    n, [[swap.get(v, v) for v in f] for f in d.facets])
                rot = vertex_decomposition(d)
                plain = vertex_decomposition(moved)
                assert rot.stats["rotations"] is True
                # K_n and edgeless graphs stay rotation-invariant under any swap
                assert plain.stats["rotations"] is _rotation_invariant(moved)
                assert rot.verdict == plain.verdict != "unknown"
                if rot.verdict == "yes":
                    assert verify_shed_tree(d, rot.certificate)
                    assert verify_shed_tree(moved, plain.certificate)
                plain_runs += not plain.stats["rotations"]
    assert plain_runs > 0


def _reflected_tree(t, n):
    # the shed tree with every vertex v moved to -v (mod n)
    if isinstance(t, ShedLeaf):
        return t
    return ShedNode(-t.vertex % n, _reflected_tree(t.deletion, n),
                    _reflected_tree(t.link, n))


def test_dihedral_reduction_agrees_with_randomly_relabelled_copies():
    # A seeded random relabelling of Ind(C_n(S)) is rotation-invariant
    # only for K_n and edgeless graphs, so the copy otherwise runs the
    # plain VD memo and checks every link in Reisner's test.  Verdicts
    # must agree, and a yes tree, moved by the reflection v -> -v, must
    # still shed the circulant's own complex.
    rng = random.Random(2015)
    plain_runs = trees = 0
    for n in range(1, 13):
        half = range(1, n // 2 + 1)
        for r in range(len(half) + 1):
            for conn in itertools.combinations(half, r):
                d = independence_complex(circulant(CirculantSpec(n, conn)))
                perm = list(range(n))
                rng.shuffle(perm)
                moved = Complex.from_facets(
                    n, [[perm[v] for v in f] for f in d.facets])
                assert d.reflection_invariant
                assert cm_verdict(d)[0] == cm_verdict(moved)[0] != "unknown"
                plain_runs += not moved.rotation_invariant
                if not d.is_pure():
                    continue
                sym, plain = vertex_decomposition(d), vertex_decomposition(moved)
                assert sym.stats["rotations"] is (n > 1)
                assert sym.verdict == plain.verdict != "unknown"
                if sym.verdict == "yes":
                    assert verify_shed_tree(d, sym.certificate)
                    assert verify_shed_tree(d, _reflected_tree(sym.certificate, n))
                    trees += 1
    assert plain_runs > 0 and trees > 0


def test_vd_rotation_invariant_non_flag_complex_runs_plain_keys():
    d = _moebius()
    assert d.rotation_invariant and not d.is_flag
    moved = Complex.from_facets(5, [[{0: 1, 1: 0}.get(v, v) for v in f]
                                    for f in d.facets])
    out, again = vertex_decomposition(d), vertex_decomposition(moved)
    assert out.stats["rotations"] is False
    assert out.verdict == again.verdict == "no"


def test_vd_certificate_round_trip():
    d = _ind_c5()
    out = vertex_decomposition(d)
    text = certificate_to_json(out.certificate)
    again = certificate_from_json(text)
    assert verify_shed_tree(d, again)
    obj = json.loads(text)
    assert obj["shed"] == 0 and "del" in obj and "link" in obj


def test_a_shed_tree_node_missing_a_key_is_a_value_error():
    void = {"leaf": "void"}
    for obj in ({"shed": 0}, {}, {"shed": 0, "del": void},
                {"shed": 0, "del": void, "link": {"shed": 1, "link": void}}):
        with pytest.raises(ValueError, match="needs the keys 'shed', 'del' and 'link'"):
            certificate_from_json(json.dumps(obj))


def test_verify_shed_tree_rejects_wrong_trees():
    d = _ind_c5()
    good = vertex_decomposition(d).certificate
    # claiming a leaf at the root is wrong for a 5-facet complex
    assert not verify_shed_tree(d, ShedLeaf("simplex"))
    assert not verify_shed_tree(d, ShedLeaf("void"))
    # swapping deletion and link subtrees breaks the dimension bookkeeping
    swapped = ShedNode(good.vertex, good.link, good.deletion)
    assert not verify_shed_tree(d, swapped)
    # shedding a vertex that is not a face
    assert not verify_shed_tree(d, ShedNode(7, good.deletion, good.link))
    # ... even when its deletion (the whole complex) and link (void) check
    assert not verify_shed_tree(d, ShedNode(7, good, ShedLeaf("void")))
    # a vertex outside 0..n-1 is refused before its bit is built
    assert not verify_shed_tree(d, ShedNode(-1, good.deletion, good.link))
    assert not verify_shed_tree(d, ShedNode(10**13, good.deletion, good.link))
    assert not verify_shed_tree(d, ShedNode(0.5, good.deletion, good.link))
    assert not verify_shed_tree(d, ShedNode("0", good.deletion, good.link))


def test_verify_shed_tree_rejects_a_non_pure_complex():
    # purity is checked at the root only, so a non-pure complex needs its
    # own case: Ind(P3) has facets {0,2} and {1}
    d = independence_complex(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert d.facets == ((1,), (0, 2))
    for kind in ("simplex", "void", "empty-face"):
        assert not verify_shed_tree(d, ShedLeaf(kind))
    # shedding 1 leaves the simplex {0,2} and the link {()}: each part is
    # a leaf, but the node is not pure
    assert not verify_shed_tree(
        d, ShedNode(1, ShedLeaf("simplex"), ShedLeaf("empty-face")))
    # the search's tree for a pure complex on the same vertices
    pure = independence_complex(Graph.from_edges(3, [(0, 1)]))
    tree = vertex_decomposition(pure).certificate
    assert verify_shed_tree(pure, tree)
    assert not verify_shed_tree(d, tree)


def _subtrees(t, path=()):
    """Every subtree of ``t`` with its path of "deletion"/"link" steps."""
    yield path, t
    if isinstance(t, ShedNode):
        yield from _subtrees(t.deletion, path + ("deletion",))
        yield from _subtrees(t.link, path + ("link",))


def _replace(t, path, new):
    if not path:
        return new
    if path[0] == "deletion":
        return ShedNode(t.vertex, _replace(t.deletion, path[1:], new), t.link)
    return ShedNode(t.vertex, t.deletion, _replace(t.link, path[1:], new))


def _mutants(t, n, rng):
    """At a leaf: each other leaf kind, and a node on a random vertex with
    two copies of the leaf below it (shedding a vertex of a simplex, which
    only the deletion's dimension rules out).  At a node: the vertex
    replaced by -1, by n and by a random other vertex, the subtrees
    swapped, and the node replaced by each leaf."""
    kinds = ("simplex", "void", "empty-face")
    for path, sub in _subtrees(t):
        if isinstance(sub, ShedLeaf):
            news = [ShedLeaf(k) for k in kinds if k != sub.kind]
            news.append(ShedNode(rng.randrange(n), sub, sub))
        else:
            other = (sub.vertex + 1 + rng.randrange(n - 1)) % n
            news = [ShedNode(v, sub.deletion, sub.link) for v in (-1, n, other)]
            news.append(ShedNode(sub.vertex, sub.link, sub.deletion))
            news.extend(ShedLeaf(k) for k in kinds)
        for new in news:
            yield _replace(t, path, new)


def test_verify_shed_tree_matches_the_complex_based_oracle():
    # every VD certificate of a small pure Ind(G), and mutants of each
    rng = random.Random(8)
    certified = 0
    seen = {True: 0, False: 0}
    for d in _small_pure_ind():
        out = vertex_decomposition(d)
        if out.verdict != "yes":
            continue
        certified += 1
        index = {m: i for i, m in enumerate(d.facet_masks)}
        for t in [out.certificate, *_mutants(out.certificate, d.n, rng)]:
            want = oracles.shed_tree_ok_naive(d.facets, t)
            assert verify_shed_tree(d, t) is want, (d, t)
            cert = shelling_from_shed_tree(d, t)
            assert (cert is not None) is want, (d, t)
            if want:
                naive = oracles.shed_order_naive(list(d.facet_masks), t)
                assert cert.order == tuple(index[m] for m in naive), (d, t)
                assert verify_shelling(d, cert), (d, t)
            seen[want] += 1
    assert certified == 339
    assert seen[True] > certified and seen[False] > 0


def test_shed_tree_oracle_remaximalises_the_deletion():
    # the hollow triangle, which is not flag: shedding 0 trims 01 and 02
    # to the points 1 and 2, which 12 swallows, so the deletion is the
    # edge 12, of the triangle's dimension; the link is the points 1, 2
    d = Complex.from_facets(3, [(0, 1), (0, 2), (1, 2)])
    simplex = ShedLeaf("simplex")
    good = ShedNode(0, simplex, ShedNode(1, simplex, ShedLeaf("empty-face")))
    assert oracles.shed_tree_ok_naive(d.facets, good) and verify_shed_tree(d, good)
    # the link has two facets, so it is no simplex
    bad = ShedNode(0, simplex, simplex)
    assert not oracles.shed_tree_ok_naive(d.facets, bad)
    assert not verify_shed_tree(d, bad)


# --- shellable but not vertex-decomposable ---------------------------------------


def test_c16_separates_shellable_from_vd():
    d = independence_complex(circulant(CirculantSpec.parse("C16(1,4,8)")))
    sh = shelling(d)
    assert sh.verdict == "yes"
    assert verify_shelling(d, sh.certificate)
    assert vertex_decomposition(d).verdict == "no"


# --- implication on random pure instances ----------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs_strategy(5))
def test_vd_implies_shellable_sampled(g):
    d = independence_complex(g)
    if not d.is_pure():
        return
    vd = vertex_decomposition(d)
    sh = shelling(d)
    if vd.verdict == "yes":
        assert sh.verdict == "yes"
        assert verify_shed_tree(d, vd.certificate)
        assert verify_shelling(d, sh.certificate)
        assert verify_shelling(d, shelling_from_shed_tree(d, vd.certificate))


def test_every_small_shed_tree_gives_a_shelling():
    # Provan-Billera: the deletion's shelling, then x joined to each facet
    # of the link's shelling, on every VD Ind(G) with n <= 6
    derived = 0
    for n in range(1, 7):
        for g in labeled_graphs(n):
            d = independence_complex(g)
            if not d.is_pure():
                continue
            vd = vertex_decomposition(d)
            if vd.verdict == "yes":
                assert verify_shelling(d, shelling_from_shed_tree(d, vd.certificate)), g
                derived += 1
    assert derived == 6434


def test_shelling_from_shed_tree_small_cases():
    d = _ind_c5()
    tree = vertex_decomposition(d).certificate
    cert = shelling_from_shed_tree(d, tree)
    assert sorted(cert.order) == list(range(5)) and verify_shelling(d, cert)
    # leaves: a simplex and {()} are one facet, the void complex none
    for facets, kind in (([(0, 1, 2)], "simplex"), ([()], "empty-face"),
                         ([], "void")):
        d = Complex.from_facets(3, facets)
        assert vertex_decomposition(d).certificate == ShedLeaf(kind)
        assert shelling_from_shed_tree(d, ShedLeaf(kind)).order == tuple(
            range(len(facets)))
    # a rejected tree gives no order: shedding 0 from two disjoint edges
    # leaves a deletion that is not pure (the edge 13 and the vertex 2),
    # though the tree splits the facets into a permutation
    d = _two_disjoint_edges()
    bad = ShedNode(0, ShedLeaf("simplex"), ShedLeaf("simplex"))
    assert not verify_shed_tree(d, bad)
    assert shelling_from_shed_tree(d, bad) is None
    # so does a non-pure complex, whatever the tree
    d = Complex.from_facets(3, [(0, 1), (2,)])
    assert shelling_from_shed_tree(d, ShedLeaf("simplex")) is None


@settings(max_examples=80, deadline=None)
@given(graphs_strategy(5))
def test_search_verdicts_are_stable(g):
    # same complex, same outcome: the searches must be deterministic
    d = independence_complex(g)
    if not d.is_pure():
        return
    a1, a2 = shelling(d), shelling(d)
    assert a1.verdict == a2.verdict
    if a1.verdict == "yes":
        assert a1.certificate.order == a2.certificate.order
    b1, b2 = vertex_decomposition(d), vertex_decomposition(d)
    assert b1.verdict == b2.verdict
