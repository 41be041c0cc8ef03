"""Suite execution, report mechanics, reproducibility, and the explorer."""

import itertools
import json
import random
import re
import sys
import time
import weakref
from pathlib import Path

import pytest

import oracles
from circshell import checkers, graphs, homology, kernels, suites
from circshell.homology import BudgetError
from circshell.complexes import independence_complex
from circshell.graphs import (Graph, circulant, CirculantSpec, complete,
                              disjoint_union, lex_product)
from circshell.suites import (
    RECORD_CAP,
    RunConfig,
    SUITES,
    SuiteReport,
    explore_family,
    labeled_graphs,
    run_suite,
    suite_alpha_product,
    suite_chain,
    suite_main_a,
    suite_paper_milestones,
    suite_topp_volkmann,
)


def test_labeled_graphs_counts():
    # 2^C(n,2) labeled graphs
    assert len(labeled_graphs(1)) == 1
    assert len(labeled_graphs(2)) == 2
    assert len(labeled_graphs(3)) == 8
    assert len(labeled_graphs(4)) == 64
    assert len(labeled_graphs(5)) == 1024


def test_registry_names():
    assert set(SUITES) == {
        "topp-volkmann", "alpha-product", "main-a", "main-bc",
        "nonshellable", "expansion", "circulant-product",
        "paper-milestones", "chain",
    }
    with pytest.raises(KeyError):
        run_suite("no-such-suite", RunConfig())


def test_report_shape_and_config_embedding():
    report = suite_main_a(RunConfig(seed=17))
    assert report.suite == "main-a"
    assert report.passed and not report.failures and not report.unknowns
    assert report.config["seed"] == 17
    obj = report.to_obj()
    assert obj["counts"] == {"failures": 0, "unknowns": 0, "skipped": 0}
    json.dumps(obj)  # must be serialisable as-is


def test_records_sorted_by_instance():
    report = suite_main_a(RunConfig())
    instances = [r["instance"] for r in report.records]
    assert instances == sorted(instances)


def test_aggregation_drops_records_past_cap():
    report = run_suite("chain", RunConfig())
    assert report.total == 33867 > RECORD_CAP
    assert report.aggregated and report.records == []
    assert report.passed
    # the counts are tallied as the records stream by
    assert report.notes[0] == (
        'counts over pure complexes: '
        '{"pure": 7332, "vd": 6434, "shellable": 6434, "cm": 6434}')


def _list_assemble(name, cfg, records, started, *, budgeted=False, notes=(),
                   total=None):
    """Oracle: the report built from every record held in one list."""
    records = sorted(records, key=lambda r: r["instance"])
    count = total if total is not None else len(records)
    failures = [r for r in records if r["status"] == "fail"]
    unknowns = [r for r in records if r["status"] == "unknown"]
    aggregated = count > suites.RECORD_CAP
    return SuiteReport(
        suite=name, config=cfg.to_obj(), total=count,
        passed=not failures and (budgeted or not unknowns),
        elapsed_s=time.monotonic() - started, failures=failures,
        unknowns=unknowns,
        skipped=[r for r in records if r["status"] == "skipped"],
        records=[] if aggregated else records, aggregated=aggregated,
        budgeted=budgeted, notes=list(notes))


def _report_obj(suite, monkeypatch, assemble):
    monkeypatch.setattr(suites, "_assemble", assemble)
    obj = run_suite(suite, RunConfig()).to_obj()
    del obj["elapsed_s"]
    return obj


@pytest.mark.parametrize("cap", [0, 1, 149, 150, 151, RECORD_CAP])
@pytest.mark.parametrize("suite, total", [("main-a", 150), ("main-bc", 774)])
def test_a_streamed_report_equals_a_list_built_one(monkeypatch, suite, total, cap):
    streamed = suites._assemble
    monkeypatch.setattr(suites, "RECORD_CAP", cap)
    want = _report_obj(suite, monkeypatch, _list_assemble)
    got = _report_obj(suite, monkeypatch, streamed)
    assert got == want
    assert got["total"] == total and got["aggregated"] == (total > cap)


def test_failures_survive_aggregation_in_sorted_order(monkeypatch):
    real = checkers.verify_shelling
    # reject the shellings of complexes with an odd number of facets
    monkeypatch.setattr(checkers, "verify_shelling",
                        lambda d, order: len(d.facet_masks) % 2 == 0 and real(d, order))
    monkeypatch.setattr(suites, "RECORD_CAP", 10)
    streamed = suites._assemble
    want = _report_obj("main-bc", monkeypatch, _list_assemble)
    got = _report_obj("main-bc", monkeypatch, streamed)
    assert got == want
    assert got["aggregated"] and got["records"] == [] and not got["passed"]
    failed = [r["instance"] for r in got["failures"]]
    assert failed == sorted(failed) and len(failed) > 10


class _Token:
    """A weakref-able stand-in for what a record holds."""


def test_the_collector_never_holds_more_than_the_cap_of_ok_records():
    alive = weakref.WeakSet()
    failing = {3, RECORD_CAP, 11 * RECORD_CAP, 20 * RECORD_CAP}
    n = 20 * RECORD_CAP + len(failing)
    peak = 0

    def stream():
        nonlocal peak
        for i in range(n):
            token = _Token()
            alive.add(token)
            peak = max(peak, len(alive))
            yield {"instance": f"{i:06d}", "status": "fail" if i in failing else "ok",
                   "token": token}

    count, kept = suites._collect(stream())
    assert count == n
    assert [r["instance"] for r in kept] == [f"{i:06d}" for i in sorted(failing)]
    assert peak <= RECORD_CAP + len(failing) + 1


def test_seeded_samples_reproducible():
    from circshell.suites import topp_volkmann_samples

    a = topp_volkmann_samples(5)
    b = topp_volkmann_samples(5)
    assert [i for i, _, _ in a] == [i for i, _, _ in b]
    assert [(g, h) for _, g, h in a] == [(g, h) for _, g, h in b]
    c = topp_volkmann_samples(6)
    assert [(g, h) for _, g, h in a] != [(g, h) for _, g, h in c]


def test_seeded_suite_reports_embed_seed():
    report = suite_topp_volkmann(RunConfig(seed=5))
    assert report.passed
    assert report.config["seed"] == 5
    assert any("seed=5" in note for note in report.notes)


def test_milestones_fail_on_a_wrong_regression_constant(monkeypatch):
    import circshell.suites as suites_mod
    report = suite_paper_milestones(RunConfig())
    rec = next(r for r in report.records
               if r["instance"] == "C16(1,4,8) regression constants")
    assert rec["status"] == "ok"
    assert rec["verdicts"] == {
        "computed": {"alpha": 4, "facet_count": 80, "edge_count": 40},
        "expected": {"alpha": 4, "edge_count": 40, "facet_count": 80}}
    real = suites_mod._regression_constants

    def wrong(g, ind):
        got = real(g, ind)
        return dict(got, alpha=5) if g.n == 16 else got

    monkeypatch.setattr(suites_mod, "_regression_constants", wrong)
    broken = suite_paper_milestones(RunConfig())
    assert not broken.passed
    assert [r["instance"] for r in broken.failures] == [
        "C16(1,4,8) regression constants"]


def test_milestones_skip_deep_visibly():
    report = suite_paper_milestones(RunConfig())
    skipped = {r["instance"] for r in report.skipped}
    assert skipped == {"C20(1,5,10) vd", "C24(1,6,12) vd", "C24(1,6,12) cm",
                       "C16(1,4,8)[K3] shellable", "C16(1,4,8)[K3] vd",
                       "C16(1,4,8)[K3] cm", "C16(1,4,8)[K4] shellable",
                       "C16(1,4,8)[K4] vd", "C16(1,4,8)[K4] cm"}
    assert report.passed  # skips never fail the fast run


def test_milestones_c16_verdicts():
    report = suite_paper_milestones(RunConfig())
    by_instance = {r["instance"]: r for r in report.records}
    assert by_instance["C16(1,4,8) shellable"]["verdicts"]["shellable"] == "yes"
    assert by_instance["C16(1,4,8) vd"]["verdicts"]["vd"] == "no"
    assert by_instance["C16(1,4,8) pure"]["verdicts"]["pure"] == "yes"
    assert by_instance["C16(1,4,8) vd"]["stats"]["forced"] == 25


def test_milestones_c16_lex_k2_verdicts(tmp_path):
    # C16(1,4,8)[K2] runs by default; its expected verdicts are the
    # product theorem's, and every yes is certified
    report = suite_paper_milestones(RunConfig(out_dir=str(tmp_path)))
    assert report.passed
    by_instance = {r["instance"]: r for r in report.records}
    got = {kind: by_instance[f"C16(1,4,8)[K2] {kind}"]["verdicts"][kind]
           for kind in ("shellable", "vd", "cm")}
    assert got == {"shellable": "yes", "vd": "no", "cm": "yes"}
    assert by_instance["C16(1,4,8)[K2] vd"]["stats"]["forced"] > 0
    d = independence_complex(
        lex_product(circulant(CirculantSpec.parse("C16(1,4,8)")), complete(2)))
    assert len(d.facet_masks) == 1280
    cert = checkers.certificate_from_json(Path(
        by_instance["C16(1,4,8)[K2] shellable"]["stats"]["certificate"]).read_text())
    assert checkers.verify_shelling(d, cert)


def test_family_rejects_small_s():
    with pytest.raises(ValueError):
        explore_family(3, 5, RunConfig())
    with pytest.raises(ValueError):
        explore_family(5, 4, RunConfig())


def test_family_records_and_certificates(tmp_path):
    cfg = RunConfig(timeout_s=120, out_dir=str(tmp_path))
    report = explore_family(4, 4, cfg)
    assert report.budgeted
    rec = report.records[0]
    assert rec["instance"] == "C16(1,4,8)"
    assert rec["verdicts"] == {
        "pure": "yes", "shellable": "yes", "vd": "no", "cm": "yes"}
    assert rec["stats"]["cm"] == {
        "links": 7, "cones": 0, "connectivity": 5, "ranked": 2,
        "escalations": 0, "largest_matrix": [80, 144]}
    cert_path = Path(rec["stats"]["shellable"]["certificate"])
    assert cert_path.exists()
    # the written certificate replays through the independent verifier
    cert = checkers.certificate_from_json(cert_path.read_text())
    d = independence_complex(circulant(CirculantSpec.parse("C16(1,4,8)")))
    assert checkers.verify_shelling(d, cert)


def test_family_records_the_cm_face_cap_reason():
    report = explore_family(4, 4, RunConfig(face_cap=10))
    rec = report.records[0]
    assert rec["status"] == "unknown" and rec["verdicts"]["cm"] == "unknown"
    assert "more than 10 faces" in rec["stats"]["cm"]["reason"]
    assert rec["stats"]["cm"]["links"] == 0  # stopped in the face walk


def test_milestones_record_the_cm_face_cap_reason():
    report = suite_paper_milestones(RunConfig(face_cap=10))
    rec = next(r for r in report.records if r["instance"] == "C16(1,4,8)[K2] cm")
    assert rec["status"] == "unknown" and rec["verdicts"]["cm"] == "unknown"
    assert "more than 10 faces" in rec["stats"]["cm"]["reason"]
    assert rec["stats"]["cm"]["links"] == 0  # stopped in the face walk
    # a default run settles every milestone, so no record carries a reason
    for rec in suite_paper_milestones(RunConfig()).records:
        stats = rec.get("stats", {})
        assert "reason" not in stats.get("cm", stats), rec


def test_family_s7_finishes_within_its_budget(tmp_path):
    limit = sys.getrecursionlimit()
    report = explore_family(7, 7, RunConfig(timeout_s=1.0, out_dir=str(tmp_path)))
    assert sys.getrecursionlimit() == limit
    assert report.elapsed_s < 60
    rec = report.records[0]
    assert rec["instance"] == "C28(1,7,14)"
    assert rec["verdicts"]["shellable"] == "yes"
    assert all(v in ("yes", "no", "unknown") for v in rec["verdicts"].values())
    cert = checkers.certificate_from_json(
        Path(rec["stats"]["shellable"]["certificate"]).read_text())
    d = independence_complex(circulant(CirculantSpec.parse("C28(1,7,14)")))
    assert checkers.verify_shelling(d, cert)


def test_family_budget_exhaustion_is_unknown_not_failure():
    report = explore_family(6, 6, RunConfig(timeout_s=0.05))
    rec = report.records[0]
    assert rec["status"] in ("unknown", "ok")
    assert report.passed  # budgeted suites pass despite unknowns
    verdicts = rec["verdicts"]
    assert verdicts["pure"] == "yes"
    assert all(v in ("yes", "no", "unknown") for v in verdicts.values())
    assert "unknown" in verdicts.values()


def test_chain_records_cm_budget_exhaustion_as_unknown(monkeypatch):
    small = labeled_graphs
    monkeypatch.setattr(suites, "labeled_graphs",
                        lambda n: small(n) if n <= 3 else [])

    def out_of_budget(d, cap, budget_s, stats):
        if budget_s is not None:
            raise BudgetError("out of budget")
        return True

    # cm_verdict runs Reisner's test through this helper, which counts links
    monkeypatch.setattr(homology, "_reisner", out_of_budget)
    report = suite_chain(RunConfig(timeout_s=1.0))
    pure = sum(1 for n in range(1, 4) for g in small(n)
               if independence_complex(g).is_pure())
    assert len(report.unknowns) == pure > 0
    assert not report.failures and not report.passed
    assert all(r["verdicts"]["cm"] == "unknown" for r in report.unknowns)


def test_chain_fails_a_rejected_certificate_even_when_cm_is_unknown(monkeypatch):
    small = labeled_graphs
    monkeypatch.setattr(suites, "labeled_graphs",
                        lambda n: small(n) if n <= 3 else [])
    pure = [independence_complex(g) for n in range(1, 4) for g in small(n)]
    pure = [d for d in pure if d.is_pure()]
    vd_yes = sum(checkers.vertex_decomposition(d).verdict == "yes" for d in pure)

    def out_of_budget(d, cap, budget_s, stats):
        raise BudgetError("out of budget")

    monkeypatch.setattr(homology, "_reisner", out_of_budget)
    monkeypatch.setattr(checkers, "verify_shed_tree", lambda d, tree: False)
    report = suite_chain(RunConfig(timeout_s=1.0))
    rejected = [r for r in report.records
                if r["verdicts"].get("vd") == "certificate rejected"]
    assert len(rejected) == vd_yes > 0
    assert all(r["status"] == "fail" and r["verdicts"]["cm"] == "unknown"
               for r in rejected)
    assert not any(r["verdicts"].get("vd") == "yes" for r in report.records)
    assert report.failures == rejected and not report.passed


@pytest.mark.parametrize("suite", ["family", "paper-milestones"])
def test_a_rejected_shelling_is_recorded_as_a_failure_without_a_certificate(
        tmp_path, monkeypatch, suite):
    monkeypatch.setattr(checkers, "verify_shelling", lambda d, cert: False)
    cfg = RunConfig(out_dir=str(tmp_path))
    if suite == "family":
        report = explore_family(4, 4, cfg)
        rec = report.records[0]
        stats = rec["stats"]["shellable"]
    else:
        report = suite_paper_milestones(cfg)
        rec = next(r for r in report.records
                   if r["instance"] == "C16(1,4,8) shellable")
        stats = rec.get("stats", {})
    assert rec["verdicts"]["shellable"] == "certificate rejected"
    assert rec["status"] == "fail" and rec in report.failures
    assert not report.passed
    assert "certificate" not in stats
    assert not (tmp_path / "certs").exists()


def test_checked_verdicts_reads_shellability_off_a_verified_shed_tree(monkeypatch):
    d = independence_complex(circulant(CirculantSpec.parse("C5(1)")))

    def no_search(d, **kwargs):
        raise AssertionError("the shed tree implies the shelling")

    monkeypatch.setattr(suites, "shelling", no_search)
    assert suites._checked_verdicts(d, RunConfig()) == ("yes", "yes")


def test_checked_verdicts_settles_a_ridge_disconnected_root_without_search(
        monkeypatch):
    # Ind(C4) is two disjoint edges: a complex whose ridge graph is
    # disconnected has no shelling, and the shelling search says so at
    # its root
    d = independence_complex(circulant(CirculantSpec.parse("C4(1)")))
    seen = []

    def recorded(d, **kwargs):
        seen.append(checkers.shelling(d, **kwargs))
        return seen[-1]

    monkeypatch.setattr(suites, "shelling", recorded)
    assert suites._checked_verdicts(d, RunConfig()) == ("no", "no")
    [out] = seen
    assert out.stats["nodes"] == 0
    assert out.stats["reason"] == "ridge graph disconnected"


def test_checked_verdicts_fails_on_a_rejected_shed_tree(monkeypatch):
    # a VD search that lies: the void leaf fits no independence complex
    d = independence_complex(circulant(CirculantSpec.parse("C5(1)")))
    wrong = checkers.ShedLeaf("void")
    assert not checkers.verify_shed_tree(d, wrong)
    # and gives no shelling order, so none is read off it
    assert checkers.shelling_from_shed_tree(d, wrong) is None

    def lying_vd(d, **kwargs):
        return checkers.CheckOutcome("yes", wrong, {})

    monkeypatch.setattr(suites, "vertex_decomposition", lying_vd)
    # shellability is searched and verified on its own
    assert suites._checked_verdicts(d, RunConfig()) == (
        "yes", "certificate rejected")
    monkeypatch.setattr(suites, "labeled_graphs",
                        lambda n: labeled_graphs(n) if n <= 2 else [])
    report = suite_main_a(RunConfig())
    assert len(report.failures) == report.total > 0 and not report.passed


def test_alpha_product_reports_every_failing_pair_sorted(monkeypatch):
    # two pairs, given out of instance order
    monkeypatch.setattr(kernels, "alpha_product_failures",
                        lambda ns, adjs, deadline=None: [(5, 3), (2, 7)])
    report = suite_alpha_product(RunConfig())
    assert not report.passed
    assert report.aggregated and report.records == []
    gs = list(suites._graphs_upto(5))
    want = sorted(f"{gs[g].to_json()} lex {gs[h].to_json()}"
                  for g, h in ((5, 3), (2, 7)))
    assert [r["instance"] for r in report.failures] == want


def test_alpha_product_stops_inside_the_scan_at_its_timeout():
    # the deadline reaches every alpha_py call of the 1,207,801-pair scan
    started = time.monotonic()
    report = run_suite("alpha-product", RunConfig(timeout_s=0.0))
    assert time.monotonic() - started < 5.0
    assert not report.passed and not report.failures
    assert [r["status"] for r in report.unknowns] == ["unknown"]



K2 = '{"n": 2, "edges": [[0, 1]]}'
P3 = '{"n": 3, "edges": [[0, 1], [1, 2]]}'  # Ind(P3) has facets {0, 2} and {1}


def _record(instance, verdicts, note=None):
    rec = {"instance": instance, "status": "ok", "verdicts": verdicts}
    return rec if note is None else dict(rec, note=note)


@pytest.mark.parametrize("suite, expected", [
    ("main-a", [
        _record(f"2 copies of {K2}", {"vd_H": "yes", "vd_kH": "yes",
                                      "shellable_H": "yes", "shellable_kH": "yes"}),
        *(_record(f"{k} copies of {P3}", {"pure_H": False, "pure_kH": False},
                  "non-pure counted as not shellable / not decomposable")
          for k in (2, 3))]),
    ("main-bc", [
        _record(f"{K2} lex K{m}", {"vd_G": "yes", "vd_product": "yes",
                                   "shellable_G": "yes", "shellable_product": "yes"})
        for m in (2, 3)]),
    ("expansion", [
        _record(f"{K2} expand [1, 2]", {"vd_G": "yes", "vd_expansion": "yes",
                                        "shellable_G": "yes",
                                        "shellable_expansion": "yes"}),
        *(_record(f"{P3} expand {s}", {"pure_G": False, "pure_expansion": False},
                  "non-pure on both sides; decomposability not defined")
          for s in ([1, 1, 1], [2, 1, 2], [2, 2, 2]))]),
])
def test_transfer_suite_records(monkeypatch, suite, expected):
    monkeypatch.setattr(suites, "labeled_graphs",
                        lambda n: labeled_graphs(n) if n <= 3 else [])
    report = run_suite(suite, RunConfig())
    assert report.passed and not report.aggregated
    by_instance = {r["instance"]: r for r in report.records}
    for rec in expected:
        assert by_instance[rec["instance"]] == rec
    # main-bc instantiates well-covered G only
    assert any(P3 in i for i in by_instance) == (suite != "main-bc")


def _memo_and_reference(suite, monkeypatch):
    """``suite``'s report over graphs with n <= 4 with its memo, then with
    every labelled instance decided on its own, both without elapsed
    time; and the memo's cost note, taken out of its report."""
    monkeypatch.setattr(suites, "labeled_graphs",
                        lambda n: labeled_graphs(n) if n <= 4 else [])
    got = run_suite(suite, RunConfig()).to_obj()
    monkeypatch.setattr(suites, "_transfer_suite", oracles.transfer_suite_per_instance)
    want = run_suite(suite, RunConfig()).to_obj()
    for obj in (got, want):
        del obj["elapsed_s"]
    return got, want, got["notes"].pop()


@pytest.mark.parametrize("suite", ["expansion", "main-bc", "main-a"])
def test_transfer_suite_memo_matches_a_per_instance_reference(monkeypatch, suite):
    got, want, note = _memo_and_reference(suite, monkeypatch)
    assert got == want and got["passed"]
    decided, total = map(int, re.fullmatch(
        r"(\d+) complexes decided for (\d+) instances: one per isomorphism class",
        note).groups())
    assert total == got["total"] and 0 < decided < total


def _graph_of(d):
    """The graph whose independence complex is the flag complex ``d``."""
    return Graph.from_edges(d.n, [
        (u, v) for u, v in itertools.combinations(range(d.n), 2)
        if not any(f >> u & 1 and f >> v & 1 for f in d.facet_masks)])


def test_a_fault_on_one_class_fails_exactly_that_classes_instances(monkeypatch):
    # K3 + K2 is the expansion of K2 + K1, and of K3 + K1 and of 2K2, at
    # several labellings and blob vectors; a memo that moved the blob
    # sizes wrongly would fail an expansion outside the class, or miss one
    target = disjoint_union(complete(3), complete(2))
    real = checkers.verify_shelling

    def in_class(d):
        return d.n == target.n and oracles.isomorphic_naive(_graph_of(d), target)

    monkeypatch.setattr(checkers, "verify_shelling",
                        lambda d, order: not in_class(d) and real(d, order))
    got, want, _ = _memo_and_reference("expansion", monkeypatch)
    assert got == want and not got["passed"]
    expect = sorted(
        f"{g.to_json()} expand {list(s)}"
        for n in range(1, 5) for g in labeled_graphs(n)
        if independence_complex(g).is_pure()
        for s in itertools.product((1, 2), repeat=n)
        if sum(s) == target.n
        and oracles.isomorphic_naive(oracles.expansion_naive(g, s), target))
    assert [r["instance"] for r in got["failures"]] == expect
    assert len({r["instance"].split(" expand ")[0] for r in got["failures"]}) > 3
    assert all(r["verdicts"]["shellable_expansion"] == "certificate rejected"
               for r in got["failures"])


def test_equal_expansion_keys_mean_isomorphic_expansions():
    # the expansion suite keys G_s by G's key and s moved along G's order;
    # every member of a key's group is checked against its first at n <= 3,
    # a seeded sample at n = 4
    groups = {}
    for n in range(1, 5):
        for g in labeled_graphs(n):
            key, order = graphs._iso_key(g.n, g.adjacency_masks)
            for s in itertools.product((1, 2), repeat=n):
                groups.setdefault((key, tuple(s[v] for v in order)), []).append((g, s))
    pairs = [(group[0], other) for group in groups.values() for other in group[1:]]
    small = [p for p in pairs if p[0][0].n <= 3]
    sample = random.Random(3232).sample([p for p in pairs if p[0][0].n == 4], 120)
    assert len(small) == 32 and len(pairs) == 880
    for (g, s), (h, t) in small + sample:
        assert oracles.isomorphic_naive(oracles.expansion_naive(g, s),
                                        oracles.expansion_naive(h, t)), (g, s, h, t)


def test_expansion_searches_once_per_isomorphism_class(monkeypatch):
    calls = 0
    real = suites.vertex_decomposition

    def counted(d, **kwargs):
        nonlocal calls
        calls += 1
        return real(d, **kwargs)

    monkeypatch.setattr(suites, "vertex_decomposition", counted)
    report = run_suite("expansion", RunConfig())
    assert report.passed and report.total == 33866
    # one per pure class of G and per pure class of (G, s), against 12,085
    # when every labelled instance was searched
    assert calls == 621
    assert report.notes == [
        "1358 complexes decided for 33866 instances: one per isomorphism class"]
