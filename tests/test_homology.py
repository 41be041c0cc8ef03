"""Boundary matrices, Smith normal form, reduced homology, Cohen-Macaulayness."""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circshell
import oracles
from circshell.complexes import Complex, independence_complex
from circshell.graphs import Graph, circulant, CirculantSpec, complete, cycle
from circshell.homology import (
    BoundaryMatrix,
    BudgetError,
    FaceLimitError,
    all_faces,
    boundary_matrices,
    cm_verdict,
    exact_rank,
    faces_by_dim,
    is_cohen_macaulay,
    rank_gf2,
    reduced_homology,
    smith_invariant_factors,
)
from circshell.suites import labeled_graphs

RP2 = Complex.from_facets(6, [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
])

MOEBIUS = Complex.from_facets(
    5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)])


def graphs_strategy(nmax=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, nmax))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(n, picked)

    return build()


def complexes_strategy(nmax=5):
    @st.composite
    def build(draw):
        g = draw(graphs_strategy(nmax))
        return independence_complex(g)

    return build()


# --- faces and boundary matrices ---------------------------------------------


def test_all_faces_counts():
    d = Complex.from_facets(3, [(0, 1, 2)])
    assert len(all_faces(d)) == 8  # every subset including the empty face


def test_face_walk_matches_the_naive_oracle():
    # every Ind(G) with n <= 5, non-pure ones included: the walk's smaller
    # facets join it at their own size
    cases = [independence_complex(g) for n in range(1, 6) for g in labeled_graphs(n)]
    assert len(cases) == 1099
    cases += [RP2, MOEBIUS, Complex.from_facets(4, [(0, 1), (1, 2), (3,)])]
    assert sum(not d.is_pure() for d in cases) == 713
    for d in cases:
        faces = oracles.faces_naive(d.facets)
        assert all_faces(d) == sorted(sum(1 << v for v in f) for f in faces), d
        by_dim = {}
        for f in sorted(faces):
            by_dim.setdefault(len(f) - 1, []).append(f)
        assert faces_by_dim(d) == by_dim, d
        assert d.f_vector() == {i: len(fs) for i, fs in by_dim.items()}, d
        got = {i: (m.rows, m.cols, m.entries) for i, m in boundary_matrices(d).items()}
        assert got == oracles.boundary_naive(d.facets), d


def test_face_cap_enforced():
    d = independence_complex(complete(4))
    with pytest.raises(FaceLimitError):
        all_faces(d, cap=3)


def _assert_boundary_squared_zero(d):
    mats = boundary_matrices(d)
    for i in sorted(mats):
        if i + 1 not in mats:
            continue
        lo, hi = mats[i], mats[i + 1]
        prod = {}
        for r2, c2, v2 in lo.entries:
            for r, c, v in hi.entries:
                if c2 == r:
                    prod[(r2, c)] = prod.get((r2, c), 0) + v2 * v
        assert all(v == 0 for v in prod.values())


def test_boundary_squared_is_zero_triangle():
    _assert_boundary_squared_zero(Complex.from_facets(3, [(0, 1, 2)]))


def test_boundary_signs_triangle():
    d = Complex.from_facets(3, [(0, 1, 2)])
    mats = boundary_matrices(d)
    # faces per dim, lex-sorted: [-1]: (); [0]: (0),(1),(2);
    # [1]: (0,1),(0,2),(1,2); [2]: (0,1,2)
    assert (mats[0].rows, mats[0].cols) == (1, 3)
    assert all(v == 1 for _, _, v in mats[0].entries)
    assert (mats[2].rows, mats[2].cols) == (3, 1)
    # d(012) = (12) - (02) + (01)
    assert sorted(mats[2].entries) == [(0, 0, 1), (1, 0, -1), (2, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(complexes_strategy(5))
def test_boundary_squared_is_zero(d):
    if d.is_void:
        return
    _assert_boundary_squared_zero(d)


# --- Smith normal form ---------------------------------------------------------


def test_snf_small_examples():
    m = BoundaryMatrix(2, 2, ((0, 0, 2), (1, 1, 3)))
    assert smith_invariant_factors(m) == [1, 6]
    m = BoundaryMatrix(2, 3, ((0, 0, 4), (1, 1, 6)))
    assert smith_invariant_factors(m) == [2, 12]
    assert smith_invariant_factors(BoundaryMatrix(3, 3, ())) == []
    # unit pivots are set aside; the gcd/lcm pass over 2, 3, 4 adds a unit
    m = BoundaryMatrix(5, 5, ((0, 0, 2), (1, 1, 1), (2, 2, 3), (3, 3, 1),
                              (4, 4, 4)))
    assert smith_invariant_factors(m) == [1, 1, 1, 2, 12]


def test_snf_divisibility_chain():
    import random
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = []
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.6:
                    entries.append((r, c, rng.randint(-9, 9)))
        factors = smith_invariant_factors(
            BoundaryMatrix(rows, cols, tuple(entries)))
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0, factors
        # rank agrees with the exact rational oracle
        assert len(factors) == oracles.rank_fraction(
            rows, cols, {(r, c): v for r, c, v in entries})


def _gf2_columns(mat: BoundaryMatrix) -> list[int]:
    """The columns of ``mat`` mod 2, each as an integer of row bits."""
    cols = [0] * mat.cols
    for r, c, v in mat.entries:
        if v % 2:
            cols[c] ^= 1 << r
    return cols


@settings(max_examples=50, deadline=None)
@given(complexes_strategy(4))
def test_rank_gf2_matches_exact_rank(d):
    # no complex on at most 4 vertices has 2-torsion
    if d.is_void:
        return
    for mat in boundary_matrices(d).values():
        assert rank_gf2(_gf2_columns(mat)) == exact_rank(mat)


def test_rank_gf2_matches_dense_reference():
    import random
    rng = random.Random(2)
    # even entries vanish mod 2 but not over the integers
    values = [2, -2, 4, 1, -1, 3, -3, 5, 6, -7]
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        entries = {(r, c): rng.choice(values)
                   for r in range(rows) for c in range(cols)
                   if rng.random() < 0.5}
        mat = BoundaryMatrix(
            rows, cols, tuple((r, c, v) for (r, c), v in entries.items()))
        assert rank_gf2(_gf2_columns(mat)) == oracles.rank_mod_p_naive(
            rows, cols, entries, 2)
    # the bound is sound but not exact: [[2]] has rational rank 1
    mat = BoundaryMatrix(1, 1, ((0, 0, 2),))
    assert rank_gf2(_gf2_columns(mat)) == 0
    assert exact_rank(mat) == 1


def test_import_does_not_load_numpy():
    # the GF(2) filter is pure Python: importing the package and its CLI
    # in a fresh interpreter must not pull numpy in
    src = str(Path(circshell.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import circshell.cli; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_long_kernels_honour_a_passed_deadline():
    d = independence_complex(circulant(CirculantSpec.parse("C24(1,6,12)")))
    top = boundary_matrices(d)[5]
    assert (top.rows, top.cols) == (1944, 728)
    passed = time.monotonic() - 1.0
    with pytest.raises(BudgetError):
        rank_gf2(_gf2_columns(top), deadline=passed)
    with pytest.raises(BudgetError):
        smith_invariant_factors(top, deadline=passed)
    with pytest.raises(BudgetError):
        exact_rank(top, deadline=passed)


def test_face_enumeration_honours_a_passed_deadline():
    d = independence_complex(circulant(CirculantSpec.parse("C24(1,6,12)")))
    passed = time.monotonic() - 1.0
    with pytest.raises(BudgetError):
        all_faces(d, deadline=passed)
    with pytest.raises(BudgetError):
        boundary_matrices(d, deadline=passed)
    # The walk of the largest faces comes before the first link.  Past
    # the cap it would end in the face-cap error, so an out-of-budget
    # reason shows the budget stopped the walk first.
    verdict, reason, counts = cm_verdict(d, cap=1000, budget_s=0.0)
    assert verdict == "unknown"
    assert "budget" in reason
    assert counts["links"] == 0


def test_cm_budget_is_honoured_while_it_runs():
    # the deadline passes while the test is working, not before it
    # starts, and the verdict still comes back within a small factor
    d = independence_complex(circulant(CirculantSpec.parse("C32(1,8,16)")))
    started = time.monotonic()
    verdict, reason, _ = cm_verdict(d, budget_s=0.5)
    assert verdict == "unknown" and "budget" in reason
    assert time.monotonic() - started < 2.0


# --- reduced homology -----------------------------------------------------------


def test_simplex_homology_trivial():
    for k in (1, 2, 3, 4):
        prof = reduced_homology(Complex.from_facets(k, [tuple(range(k))]))
        assert all(v == 0 for v in prof.betti.values())
        assert prof.torsion == {}


def test_empty_face_complex_homology():
    prof = reduced_homology(Complex.from_facets(2, [()]))
    assert prof.betti == {-1: 1}


def test_void_complex_rejected():
    with pytest.raises(ValueError):
        reduced_homology(Complex.from_facets(2, []))


def test_ind_k2_two_points():
    prof = reduced_homology(independence_complex(complete(2)))
    assert prof.betti == {-1: 0, 0: 1}


def test_ind_c5_is_circle():
    prof = reduced_homology(independence_complex(cycle(5)))
    assert prof.betti == {-1: 0, 0: 0, 1: 1}
    assert prof.torsion == {}


def test_moebius_band_is_circle():
    prof = reduced_homology(MOEBIUS)
    assert prof.betti == {-1: 0, 0: 0, 1: 1, 2: 0}
    assert prof.betti == oracles.betti_naive(MOEBIUS.facets)
    assert prof.torsion == {}


def test_projective_plane_torsion():
    prof = reduced_homology(RP2)
    assert all(v == 0 for v in prof.betti.values())
    assert prof.betti == oracles.betti_naive(RP2.facets)
    assert prof.torsion == {1: (2,)}


def test_profile_json_shape():
    obj = reduced_homology(RP2).to_obj()
    assert obj == {"betti": {"-1": 0, "0": 0, "1": 0, "2": 0},
                   "torsion": {"1": [2]}}


@settings(max_examples=80, deadline=None)
@given(complexes_strategy(5))
def test_betti_matches_fraction_oracle(d):
    if d.is_void:
        return
    prof = reduced_homology(d)
    naive = oracles.betti_naive(d.facets)
    assert {i: b for i, b in prof.betti.items()} == naive


@settings(max_examples=80, deadline=None)
@given(complexes_strategy(5))
def test_euler_characteristic_identity(d):
    if d.is_void:
        return
    prof = reduced_homology(d)
    f = d.f_vector()
    euler_f = sum((-1) ** i * c for i, c in f.items())
    euler_b = sum((-1) ** i * b for i, b in prof.betti.items())
    assert euler_f == euler_b


# --- Cohen-Macaulayness ----------------------------------------------------------


def test_cm_examples():
    assert is_cohen_macaulay(independence_complex(cycle(5)))
    assert is_cohen_macaulay(Complex.from_facets(3, [(0, 1, 2)]))
    assert is_cohen_macaulay(Complex.from_facets(2, [()]))
    # non-pure path P3: never Cohen-Macaulay
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert not is_cohen_macaulay(independence_complex(p3))
    # void complex: not Cohen-Macaulay by convention here
    assert not is_cohen_macaulay(Complex.from_facets(2, []))
    # dimension <= 0 is always Cohen-Macaulay when pure
    assert is_cohen_macaulay(Complex.from_facets(3, [(0,), (1,), (2,)]))


def test_cm_connectivity_requirement():
    # two disjoint edges: pure, 1-dimensional, disconnected, so not CM
    assert not is_cohen_macaulay(Complex.from_facets(4, [(0, 2), (1, 3)]))


def test_moebius_band_not_cm():
    # H~_1 of the whole complex is nonzero below its dimension...
    # the band is 2-dimensional with betti_1 = 1, so Reisner fails at the
    # empty face already
    assert not is_cohen_macaulay(MOEBIUS)


def test_rp2_is_cm_over_q():
    # torsion only: all rational betti below the top dimension vanish
    assert is_cohen_macaulay(RP2)


def _cm_naive(d):
    """Reisner criterion checked with the exact Fraction oracle on all faces."""
    if d.is_void or not d.is_pure():
        return False
    k = d.dim + 1
    for face in sorted(oracles.faces_naive(d.facets)):
        trimmed = [tuple(v for v in f if v not in face)
                   for f in d.facets if set(face) <= set(f)]
        betti = oracles.betti_naive(tuple(trimmed))
        top = k - len(face) - 1
        for i, b in betti.items():
            if i < top and b != 0:
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(complexes_strategy(5))
def test_cm_matches_fraction_oracle(d):
    assert is_cohen_macaulay(d) == _cm_naive(d)


def _counts_add_up(counts):
    # every link examined is settled by exactly one of the three steps
    return counts["links"] == (
        counts["cones"] + counts["connectivity"] + counts["ranked"])


def test_cm_matches_fraction_oracle_on_every_small_pure_ind():
    checked = 0
    for n in range(1, 6):
        for g in labeled_graphs(n):
            d = independence_complex(g)
            if not d.is_pure():
                continue
            verdict, reason, counts = cm_verdict(d)
            assert reason is None and _counts_add_up(counts), d
            assert is_cohen_macaulay(d) == (verdict == "yes") == _cm_naive(d), d
            checked += 1
    assert checked == 387


def test_cm_walks_only_faces_below_the_ridges():
    # the faces of at most k - 2 vertices, larger first and ascending
    # within a size: the order of a sorted walk over every face
    for d in [independence_complex(g) for n in range(1, 6)
              for g in labeled_graphs(n)] + [RP2, MOEBIUS]:
        if not d.is_pure() or d.dim < 1:
            continue
        k = d.dim + 1
        want = [m for m in sorted(all_faces(d), key=lambda m: -m.bit_count())
                if m.bit_count() <= k - 2]
        levels = [sorted(level) for level in d.face_levels(k - 2)]
        assert [m for level in levels for m in level] == want, d
    # the cap counts faces walked: Ind(C5) has 11 faces, of which only
    # the empty face has a link of dimension >= 1
    d = independence_complex(cycle(5))
    assert len(all_faces(d)) == 11
    assert cm_verdict(d, cap=1)[0] == "yes"
    verdict, reason, _ = cm_verdict(d, cap=0)
    assert verdict == "unknown" and "more than 0 faces" in reason


def _cone(d):
    """The cone over ``d`` with apex ``d.n``."""
    return Complex.from_facets(d.n + 1, [f + (d.n,) for f in d.facets])


# an annulus: outer triangle 0 1 2, inner triangle 3 4 5
ANNULUS = Complex.from_facets(6, [
    (0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)])


def test_cm_fails_on_a_disconnected_vertex_link():
    # two triangles sharing vertex 0: lk(0) is two disjoint edges
    d = Complex.from_facets(5, [(0, 1, 2), (0, 3, 4)])
    assert _cm_naive(d) is False
    verdict, _, counts = cm_verdict(d)
    assert verdict == "no"
    assert counts["connectivity"] == 1 and counts["ranked"] == 0


def test_cm_fails_on_a_disconnected_pure_2_complex():
    # every vertex link is one edge; the empty face's link, the whole
    # complex, is 2-dimensional and has two components
    d = Complex.from_facets(6, [(0, 1, 2), (3, 4, 5)])
    assert _cm_naive(d) is False
    verdict, _, counts = cm_verdict(d)
    assert verdict == "no"
    assert counts["connectivity"] == 1 and counts["ranked"] == 0


@pytest.mark.parametrize("base", [MOEBIUS, ANNULUS], ids=["moebius", "annulus"])
def test_cm_fails_on_a_connected_2_dimensional_link_with_a_loop(base):
    # the apex's link is the base: connected, with H~_1 of rank 1
    assert oracles.betti_naive(base.facets) == {-1: 0, 0: 0, 1: 1, 2: 0}
    d = _cone(base)
    assert _cm_naive(d) is False
    verdict, _, counts = cm_verdict(d)
    assert verdict == "no"
    # rank d_2 over GF(2) leaves H~_1 nonzero, so it is taken exactly too
    assert counts["ranked"] == 1 and counts["escalations"] >= 1
    assert counts["largest_matrix"] == [base.f_vector()[1], base.f_vector()[2]]


def test_cm_passes_on_cones():
    # a disc (the cone over the pentagon Ind(C5)) and the cone over RP^2
    disc = _cone(independence_complex(cycle(5)))
    verdict, _, counts = cm_verdict(disc)
    assert verdict == "yes" and _cm_naive(disc)
    assert counts["cones"] >= 1 and counts["ranked"] == 0
    assert _counts_add_up(counts)
    # lk(apex) = RP^2 is ranked; its H~_1 = Z/2 is zero over the
    # rationals but not over GF(2), so rank d_2 is taken exactly once
    verdict, _, counts = cm_verdict(_cone(RP2))
    assert verdict == "yes"
    assert counts["ranked"] == 1 and counts["escalations"] == 1
    assert _counts_add_up(counts)


def test_cm_c16():
    d = independence_complex(circulant(CirculantSpec.parse("C16(1,4,8)")))
    assert is_cohen_macaulay(d)


def test_cm_orbit_path_agrees_with_relabelled_copy():
    # Reisner's criterion survives relabelling: checking one link per
    # rotation orbit of Ind(G) must agree with checking every link of a
    # copy whose labels 0 and 1 are swapped
    swap = {0: 1, 1: 0}  # not a rotation once n >= 3
    # two triangles sharing vertex 3: only lk(3), two disjoint edges,
    # fails, and vertex 3 is not least in its rotation orbit
    assert not is_cohen_macaulay(Complex.from_facets(5, [(0, 1, 3), (2, 3, 4)]))
    checked = plain_runs = 0
    for n in range(2, 13):
        half = range(1, n // 2 + 1)
        for r in range(len(half) + 1):
            for conn in itertools.combinations(half, r):
                d = independence_complex(circulant(CirculantSpec(n, conn)))
                if not d.is_pure():
                    continue
                moved = Complex.from_facets(
                    n, [[swap.get(v, v) for v in f] for f in d.facets])
                assert d.rotation_invariant
                assert is_cohen_macaulay(d) == is_cohen_macaulay(moved)
                checked += d.dim >= 1  # below that no link is examined
                # K_n and edgeless graphs stay rotation-invariant under any swap
                plain_runs += not moved.rotation_invariant
    assert checked == 132 and plain_runs > 0


def _orbit_links(d, maps):
    """Distinct links of the faces of at most dim - 1 vertices that are
    least, as masks, among their images under ``maps`` (vertex maps)."""
    def mask(face):
        return sum(1 << v for v in face)

    links = set()
    for face in oracles.faces_naive(d.facets):
        if len(face) >= d.dim:
            continue
        if any(mask(g(v) for v in face) < mask(face) for g in maps):
            continue
        links.add(frozenset(frozenset(f) - set(face) for f in d.facets
                            if set(face) <= set(f)))
    return len(links)


def _chiral_cm_case(d):
    # rotation-invariant, but neither reflection-invariant nor flag: the
    # orbit path must use the rotations only, and agree with a copy
    # relabelled so that it is not rotation-invariant
    n = d.n
    assert d.rotation_invariant and not d.reflection_invariant and not d.is_flag
    swap = {0: 1, 1: 0}
    moved = Complex.from_facets(n, [[swap.get(v, v) for v in f] for f in d.facets])
    assert not moved.rotation_invariant
    verdict, _, counts = cm_verdict(d)
    assert verdict == cm_verdict(moved)[0] != "unknown"
    return verdict, counts


def test_cm_uses_rotations_only_on_developments_of_013_mod_7():
    d = Complex.from_facets(7, [[(v + r) % 7 for v in (0, 1, 3)] for r in range(7)])
    verdict, counts = _chiral_cm_case(d)
    # lk(0) is three disjoint edges, and vertex 0 stands for every vertex
    # under rotations and reflections alike
    assert verdict == "no" and counts["links"] == 1


def test_cm_chiral_complex_checks_one_link_per_rotation_orbit():
    # every 5-subset of Z_8 but the rotations of {0,1,2,3,5}: its triangles
    # {0,1,3} and {0,2,3} are reflections of each other in distinct
    # rotation orbits, so reflections would check fewer links
    chiral = {frozenset((v + r) % 8 for v in (0, 1, 2, 3, 5)) for r in range(8)}
    d = Complex.from_facets(8, [f for f in itertools.combinations(range(8), 5)
                                if frozenset(f) not in chiral])
    verdict, counts = _chiral_cm_case(d)
    rotations = [lambda v, r=r: (v + r) % 8 for r in range(1, 8)]
    reflections = [lambda v, r=r: (r - v) % 8 for r in range(8)]
    assert verdict == "yes"
    assert counts["links"] == _orbit_links(d, rotations) == 13
    assert _orbit_links(d, rotations + reflections) < 13
