"""Acceptance criteria, one test per criterion.

Each test prints exactly one ``CRITERION k: PASS`` line on success (visible
with ``pytest -s``; the ``pytest -v`` listing itself gives the per-criterion
pass/fail status either way) and carries its own wall-clock budget where the
criterion specifies one.
"""

import time

from circshell.checkers import (
    shelling,
    verify_shed_tree,
    verify_shelling,
    vertex_decomposition,
)
from circshell.complexes import independence_complex
from circshell.graphs import circulant, CirculantSpec, cycle
from circshell.homology import boundary_matrices, reduced_homology
from circshell.suites import RunConfig, labeled_graphs, run_suite


def _ind(name):
    return independence_complex(circulant(CirculantSpec.parse(name)))


def test_criterion_1_c16_shellable_with_verified_cert_and_vd_refuted():
    """C16(1,4,8): shelling found and re-verified; vertex decomposability
    exhaustively refuted; both within 30 minutes."""
    start = time.monotonic()
    d = _ind("C16(1,4,8)")
    sh = shelling(d)
    assert sh.verdict == "yes"
    assert verify_shelling(d, sh.certificate)
    vd = vertex_decomposition(d)
    assert vd.verdict == "no"
    elapsed = time.monotonic() - start
    assert elapsed < 1800, f"budget blown: {elapsed:.0f}s"
    print(f"CRITERION 1: PASS — C16 shellable=yes (certificate verified), "
          f"vd=no (exhausted), {elapsed:.1f}s")


def test_criterion_2_deep_milestones():
    """C20(1,5,10) not vertex-decomposable; C24(1,6,12) Cohen-Macaulay but
    not vertex-decomposable; the paper's family members C16(1,4,8)[K2],
    C16(1,4,8)[K3] and C16(1,4,8)[K4] shellable and Cohen-Macaulay but not
    vertex-decomposable."""
    start = time.monotonic()
    report = run_suite("paper-milestones", RunConfig(deep=True))
    assert report.passed, (report.failures, report.unknowns)
    verdicts = {r["instance"]: r["verdicts"] for r in report.records}
    assert verdicts["C20(1,5,10) vd"]["vd"] == "no"
    assert verdicts["C24(1,6,12) vd"]["vd"] == "no"
    assert verdicts["C24(1,6,12) cm"]["cm"] == "yes"
    for m in (2, 3, 4):
        name = f"C16(1,4,8)[K{m}]"
        assert verdicts[f"{name} shellable"]["shellable"] == "yes"
        assert verdicts[f"{name} vd"]["vd"] == "no"
        assert verdicts[f"{name} cm"]["cm"] == "yes"
    stats = {r["instance"]: r.get("stats") for r in report.records}
    # one link per dihedral orbit; none needs an exact rank
    assert stats["C24(1,6,12) cm"]["cm"]["links"] == 72
    assert stats["C24(1,6,12) cm"]["cm"]["escalations"] == 0
    print(f"CRITERION 2: PASS — C20 vd=no, C24 vd=no, C24 cm=yes, "
          f"C16[K2], C16[K3] and C16[K4] shellable=yes vd=no cm=yes, "
          f"{time.monotonic() - start:.1f}s")


def test_criterion_3_purity_transfer_exhaustive():
    """Ind(G[H]) purity matches factor purity on every labeled pair with
    up to 4 vertices per factor, within 5 minutes."""
    start = time.monotonic()
    report = run_suite("topp-volkmann", RunConfig())
    elapsed = time.monotonic() - start
    assert report.passed and not report.failures
    assert report.total >= 75 * 75
    assert elapsed < 300, f"budget blown: {elapsed:.0f}s"
    print(f"CRITERION 3: PASS — {report.total} pairs, 0 failures, {elapsed:.1f}s")


def test_criterion_4_alpha_multiplicative_exhaustive():
    """alpha(G[H]) = alpha(G) alpha(H) over every ordered pair of labeled
    graphs with up to 5 vertices, within 5 minutes."""
    start = time.monotonic()
    report = run_suite("alpha-product", RunConfig())
    elapsed = time.monotonic() - start
    assert report.passed and not report.failures
    assert report.total == 1099 ** 2
    assert elapsed < 300, f"budget blown: {elapsed:.0f}s"
    print(f"CRITERION 4: PASS — {report.total} pairs, 0 failures, {elapsed:.1f}s")


def test_criterion_5_nonshellable_grid():
    """Ind(G[H]) refused shellability for every G with an edge and every
    incomplete H (n <= 4 each), with no exceptions raised."""
    report = run_suite("nonshellable", RunConfig())
    assert report.passed and not report.failures and not report.unknowns
    assert report.total == 5041
    print(f"CRITERION 5: PASS — {report.total} products, all non-shellable")


def test_criterion_6_expansion_grid():
    """Clique expansions with entries in {1,2} over all labeled graphs
    n <= 5: vertex decomposability transfers both ways, shellability
    forward, with no exceptions."""
    report = run_suite("expansion", RunConfig())
    assert report.passed and not report.failures and not report.unknowns
    assert report.total == sum(
        2 ** n * c for n, c in ((1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)))
    print(f"CRITERION 6: PASS — {report.total} expansions, 0 violations")


def test_criterion_7_circulant_product_formula():
    """The closed-form connection set reproduces the lexicographical
    product for every pair of circulants with n, m <= 8."""
    report = run_suite("circulant-product", RunConfig())
    assert report.passed and not report.failures
    assert report.total == 2025
    print(f"CRITERION 7: PASS — {report.total} circulant pairs, edge-exact")


def test_criterion_8_implication_chain_with_certificates():
    """Over every well-covered graph on up to 6 vertices: vertex
    decomposability implies shellability implies Cohen-Macaulayness, and
    every positive verdict carries a certificate the independent verifier
    accepts."""
    report = run_suite("chain", RunConfig())
    assert report.passed and not report.failures and not report.unknowns
    assert report.total == 33867
    counts = next(n for n in report.notes if "counts" in n)
    print(f"CRITERION 8: PASS — {report.total} graphs; {counts}")


def test_criterion_9_homology_invariants_and_c5_profile():
    """Boundary-squared-zero and the Euler identity hold on every profile
    computed over the n <= 5 corpus, and Ind(C5) has reduced Betti
    numbers (0, 1)."""
    checked = 0
    for n in range(1, 6):
        for g in labeled_graphs(n):
            d = independence_complex(g)
            mats = boundary_matrices(d)
            for i in sorted(mats):
                if i + 1 not in mats:
                    continue
                lo, hi = mats[i], mats[i + 1]
                by_col: dict[int, list[tuple[int, int]]] = {}
                for r2, c2, v2 in lo.entries:
                    by_col.setdefault(c2, []).append((r2, v2))
                prod: dict[tuple[int, int], int] = {}
                for r, c, v in hi.entries:
                    for r2, v2 in by_col.get(r, ()):
                        prod[(r2, c)] = prod.get((r2, c), 0) + v2 * v
                assert all(v == 0 for v in prod.values()), "boundary^2 != 0"
            prof = reduced_homology(d)
            euler_f = sum((-1) ** i * c for i, c in d.f_vector().items())
            euler_b = sum((-1) ** i * b for i, b in prof.betti.items())
            assert euler_f == euler_b, "Euler identity violated"
            checked += 1
    c5 = reduced_homology(independence_complex(cycle(5)))
    assert (c5.betti[0], c5.betti[1]) == (0, 1)
    print(f"CRITERION 9: PASS — {checked} profiles invariant-checked; "
          f"Ind(C5) betti (0, 1)")
