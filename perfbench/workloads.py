"""The four benchmark workloads, their seeded inputs and their known answers.

Every workload is a sequence of *passes*.  A pass is a fixed amount of
work whose verdicts are all checked against answers that live here, not
in the code under test:

* ``milestones`` -- the paper's headline circulants C_{4s}(1,s,2s) for
  s = 4..7, with hard-coded facet counts and verdicts.
* ``chain`` -- every labeled graph with n <= 6 through the VD, shelling
  and Cohen-Macaulay engines and both verifiers, in a seeded order, with
  the verdict counts recorded from the first release of the package.
* ``alpha-scan`` -- the alpha(G[H]) = alpha(G) alpha(H) scan over all
  ordered pairs of a seeded sample of the labeled graphs with n <= 5;
  each pass draws a fresh sample with the population's vertex-count mix.
* ``expansion-suite`` -- ``run_suite("expansion")`` exactly as a user
  runs it.

The verdict percentiles are taken over one interval per unit a user
would wait for: a circulant with all its checks (milestones), a pure
graph through every engine (chain; graphs that are not well-covered only
count in throughput), a scan (alpha-scan), and the suite report
(expansion-suite, since ``run_suite`` exposes no per-instance times).

Passes time themselves on the ``speed.Clock`` they are given, which
reads wall time net of the speed probes; ``run.py`` turns the recorded
intervals into reference-speed times.

Programs are called through their module attributes (``checkers.shelling``
rather than a name imported here), so a tracer that rebinds those
attributes sees every call.
"""

from __future__ import annotations

import itertools
import random
import traceback
from dataclasses import dataclass, field
from typing import Callable

from circshell import checkers, complexes, graphs, homology, kernels, suites
from speed import Clock

# Per-call wall-clock budgets.  A search or CM call that overruns reports
# "unknown" (counted as a failure) instead of hanging the run.
SMALL_CALL_BUDGET_S = 5.0
LARGE_CALL_BUDGET_S = 30.0

# (circulant, facet count, [(property, expected verdict, budget_s)]).
# Facet counts and verdicts are the paper's: C16(1,4,8) is shellable but
# not vertex decomposable, C20(1,5,10) likewise, and C24(1,6,12) is
# Cohen-Macaulay.  Every complex here is pure.
MILESTONES = (
    ("C16(1,4,8)", 80, (("shellable", "yes", SMALL_CALL_BUDGET_S),
                        ("vd", "no", SMALL_CALL_BUDGET_S))),
    ("C20(1,5,10)", 244, (("shellable", "yes", SMALL_CALL_BUDGET_S),
                          ("vd", "no", LARGE_CALL_BUDGET_S),
                          ("cm", "yes", SMALL_CALL_BUDGET_S))),
    ("C24(1,6,12)", 728, (("shellable", "yes", SMALL_CALL_BUDGET_S),
                          ("cm", "yes", LARGE_CALL_BUDGET_S))),
    ("C28(1,7,14)", 2188, (("shellable", "yes", LARGE_CALL_BUDGET_S),)),
)
SMOKE_MILESTONES = (
    ("C16(1,4,8)", 80, (("shellable", "yes", SMALL_CALL_BUDGET_S),
                        ("vd", "no", SMALL_CALL_BUDGET_S))),
)

# Verdict counts over the pure Ind(G), G labeled with n <= nmax vertices,
# recorded with the package's initial commit.
CHAIN_COUNTS = {
    6: {"graphs": 33867, "pure": 7332, "vd": 6434, "shellable": 6434, "cm": 6434},
    5: {"graphs": 1099, "pure": 387, "vd": 339, "shellable": 339, "cm": 339},
}
CHAIN_NMAX, SMOKE_CHAIN_NMAX = 6, 5

ALPHA_NMAX = 5
ALPHA_SAMPLE, SMOKE_ALPHA_SAMPLE = 60, 8

EXPANSION_TOTAL = 33866


@dataclass
class PassResult:
    """Outcome of one pass: its interval, per-verdict intervals and checks.

    Intervals are (start, seconds) on the pass's clock.
    """

    start: float = 0.0
    wall_s: float = 0.0
    verdicts: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0  # verdicts checked (pairs for alpha-scan)
    failed: int = 0
    timings: dict[str, tuple[float, float]] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)


@dataclass(frozen=True)
class Workload:
    """``run_pass`` is timed; ``final_check`` runs after all timing and
    tracing, for answers that need calls the measurement must not see."""

    name: str
    make_inputs: Callable[[int, bool], object]
    run_pass: Callable[[object, Clock], PassResult]
    final_check: Callable[[object], PassResult] | None = None


def labeled_graphs(n: int) -> list[graphs.Graph]:
    """All 2^C(n,2) labeled graphs on 0..n-1, built here from edge lists
    rather than by ``suites.labeled_graphs``, so that the known counts do
    not rest on the code under test."""
    pairs = list(itertools.combinations(range(n), 2))
    return [
        graphs.Graph.from_edges(n, [p for t, p in enumerate(pairs) if bits >> t & 1])
        for bits in range(1 << len(pairs))
    ]


def brute_force_alpha(n: int, adj: tuple[int, ...]) -> int:
    """Independence number by enumerating every vertex subset."""
    best = 0
    for s in range(1 << n):
        if s.bit_count() > best and all(
            not (s >> v & 1) or not (adj[v] & s) for v in range(n)
        ):
            best = s.bit_count()
    return best


def _cm_verdict(d, budget_s: float) -> str:
    try:
        return "yes" if homology.is_cohen_macaulay(d, budget_s=budget_s) else "no"
    except homology.BudgetError:
        return "unknown"


# ---------------------------------------------------------------------------
# milestones
# ---------------------------------------------------------------------------


def milestone_inputs(seed: int, smoke: bool):
    table = SMOKE_MILESTONES if smoke else MILESTONES
    return [(graphs.CirculantSpec.parse(name), facets, checks)
            for name, facets, checks in table]


def _milestone_check(d, kind: str, budget_s: float, res: PassResult, tag: str) -> str:
    if kind == "cm":
        return _cm_verdict(d, budget_s)
    search = checkers.shelling if kind == "shellable" else checkers.vertex_decomposition
    out = search(d, budget_s=budget_s)
    res.stats[f"{tag}_nodes"] = out.stats["nodes"]
    res.stats[f"{tag}_memo_hits"] = out.stats["memo_hits"]
    if not suites._certified(d, out, kind):
        return "certificate rejected"
    return out.verdict


def _milestone(spec, facet_count: int, checks, res: PassResult, clock: Clock) -> None:
    # the facet count is one verdict, each property check another; a
    # wrong complex fails the checks that would have run on it
    res.attempted += 1 + len(checks)
    try:
        d = complexes.independence_complex(graphs.circulant(spec))
        if len(d.facets) != facet_count or not d.is_pure():
            res.fail(f"{spec.name}: {len(d.facets)} facets, pure={d.is_pure()}",
                     1 + len(checks))
            return
    except Exception:
        res.fail(f"{spec.name}: {traceback.format_exc(limit=2)}", 1 + len(checks))
        return
    for kind, expect, budget_s in checks:
        tag = f"c{spec.n}_{kind}"
        t = clock.now()
        try:
            got = _milestone_check(d, kind, budget_s, res, tag)
        except Exception:
            got = "raised: " + traceback.format_exc(limit=2)
        res.timings[f"{tag}_s"] = (t, clock.now() - t)
        if got != expect:
            res.fail(f"{spec.name} {kind}: got {got!r}, expected {expect!r}")


def milestones_pass(inputs, clock: Clock) -> PassResult:
    """One verdict interval per circulant: its complex and all its checks.
    Per-check times go to ``timings`` (``c20_vd_s`` and so on)."""
    res = PassResult(start=clock.now())
    for spec, facet_count, checks in inputs:
        t = clock.now()
        _milestone(spec, facet_count, checks, res, clock)
        res.verdicts.append((t, clock.now() - t))
    res.wall_s = clock.now() - res.start
    return res


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------


def chain_inputs(seed: int, smoke: bool):
    nmax = SMOKE_CHAIN_NMAX if smoke else CHAIN_NMAX
    gs = [g for n in range(1, nmax + 1) for g in labeled_graphs(n)]
    random.Random(seed).shuffle(gs)
    return nmax, gs


def _chain_instance(g, budget_s: float, counts: dict) -> str | None:
    """Run one graph through every engine; an error message, or None if ok."""
    d = complexes.independence_complex(g)
    if not d.is_pure():
        return None
    counts["pure"] += 1
    vd = checkers.vertex_decomposition(d, budget_s=budget_s)
    sh = checkers.shelling(d, budget_s=budget_s)
    cm = _cm_verdict(d, budget_s)
    counts["vd_nodes"] += vd.stats["nodes"]
    counts["vd_memo_hits"] += vd.stats["memo_hits"]
    counts["shelling_nodes"] += sh.stats["nodes"]
    counts["shelling_memo_hits"] += sh.stats["memo_hits"]
    for kind, verdict in (("vd", vd.verdict), ("shellable", sh.verdict), ("cm", cm)):
        counts[kind] += verdict == "yes"
    if "unknown" in (vd.verdict, sh.verdict, cm):
        return f"unknown: vd={vd.verdict} shellable={sh.verdict} cm={cm}"
    if not (suites._certified(d, vd, "vd") and suites._certified(d, sh, "shellable")):
        return "certificate rejected"
    if (vd.verdict == "yes" and sh.verdict != "yes") or (
            sh.verdict == "yes" and cm != "yes"):
        return f"implication broken: vd={vd.verdict} shellable={sh.verdict} cm={cm}"
    return None


def chain_pass(inputs, clock: Clock) -> PassResult:
    nmax, gs = inputs
    res = PassResult()
    counts = dict.fromkeys(("pure", "vd", "shellable", "cm", "vd_nodes",
                            "vd_memo_hits", "shelling_nodes",
                            "shelling_memo_hits"), 0)
    res.start = clock.now()
    for g in gs:
        res.attempted += 1
        pure_before = counts["pure"]
        t = clock.now()
        try:
            err = _chain_instance(g, SMALL_CALL_BUDGET_S, counts)
        except Exception:
            err = "raised: " + traceback.format_exc(limit=2)
        elapsed = clock.now() - t
        if counts["pure"] != pure_before:
            res.verdicts.append((t, elapsed))
        if err is not None:
            res.fail(f"{g.to_json()}: {err}")
    res.wall_s = clock.now() - res.start
    expected = CHAIN_COUNTS[nmax]
    if len(gs) != expected["graphs"]:
        res.fail(f"{len(gs)} graphs, expected {expected['graphs']}")
    for key in ("pure", "vd", "shellable", "cm"):
        if counts[key] != expected[key]:
            res.fail(f"{key} count {counts[key]}, expected {expected[key]}",
                     abs(counts[key] - expected[key]))
    res.stats = counts
    return res


# ---------------------------------------------------------------------------
# alpha-scan
# ---------------------------------------------------------------------------


@dataclass
class AlphaInputs:
    factors: list[graphs.Graph]
    sample_size: int
    rng: random.Random
    sampled: set[int] = field(default_factory=set)


def alpha_inputs(seed: int, smoke: bool) -> AlphaInputs:
    factors = [g for n in range(1, ALPHA_NMAX + 1) for g in labeled_graphs(n)]
    size = SMOKE_ALPHA_SAMPLE if smoke else ALPHA_SAMPLE
    return AlphaInputs(factors, size, random.Random(seed))


def _stratified_sample(rng: random.Random, factors: list, size: int) -> list[int]:
    """Indices of ``size`` factors that keep the population's mix of vertex
    counts (largest remainder), so that scans of any seed cost alike."""
    strata: dict[int, list[int]] = {}
    for i, g in enumerate(factors):
        strata.setdefault(g.n, []).append(i)
    shares = {n: size * len(idx) / len(factors) for n, idx in strata.items()}
    counts = {n: int(x) for n, x in shares.items()}
    for n in sorted(shares, key=lambda n: counts[n] - shares[n])[:size - sum(counts.values())]:
        counts[n] += 1
    return [i for n, idx in strata.items() for i in rng.sample(idx, counts[n])]


def alpha_pass(inputs: AlphaInputs, clock: Clock) -> PassResult:
    picks = _stratified_sample(inputs.rng, inputs.factors, inputs.sample_size)
    inputs.sampled.update(picks)
    sample = [inputs.factors[i] for i in picks]
    ns = [g.n for g in sample]
    adjs = [list(g.adjacency_masks) for g in sample]
    res = PassResult(start=clock.now(), attempted=len(sample) ** 2)
    try:
        bad = kernels.alpha_product_failures(ns, adjs)
    except Exception:
        bad = []
        res.fail("raised: " + traceback.format_exc(limit=2), res.attempted)
    res.wall_s = clock.now() - res.start
    res.verdicts.append((res.start, res.wall_s))
    # alpha(G[H]) = alpha(G) alpha(H) holds for every pair
    for gi, hi in bad:
        res.fail(f"reported failure {sample[gi].to_json()} lex {sample[hi].to_json()}")
    return res


def alpha_final_check(inputs: AlphaInputs) -> PassResult:
    """The scan's empty failure list is only as good as its alphas: check
    the program's alpha of every sampled factor against brute force.  A
    wrong factor taints the 2k-1 pairs of a k-graph sample it lies in."""
    res = PassResult()
    for i in sorted(inputs.sampled):
        g = inputs.factors[i]
        truth = brute_force_alpha(g.n, g.adjacency_masks)
        got = kernels.alpha(g.n, list(g.adjacency_masks))
        if got != truth:
            res.fail(f"alpha {g.to_json()} = {got}, brute force {truth}",
                     2 * inputs.sample_size - 1)
    return res


# ---------------------------------------------------------------------------
# expansion-suite
# ---------------------------------------------------------------------------


def expansion_inputs(seed: int, smoke: bool):
    return suites.RunConfig(timeout_s=SMALL_CALL_BUDGET_S)


def expansion_pass(cfg, clock: Clock) -> PassResult:
    """One suite report is one verdict: run_suite exposes no per-instance times."""
    res = PassResult(start=clock.now(), attempted=EXPANSION_TOTAL)
    try:
        report = suites.run_suite("expansion", cfg)
    except Exception:
        res.fail("raised: " + traceback.format_exc(limit=2), EXPANSION_TOTAL)
        return res
    finally:
        res.wall_s = clock.now() - res.start
        res.verdicts.append((res.start, res.wall_s))
    for rec in report.failures + report.unknowns:
        res.fail(f"{rec['instance']}: {rec['status']} {rec['verdicts']}")
    if report.total != EXPANSION_TOTAL or (not report.passed and not res.failed):
        res.fail(f"total={report.total} passed={report.passed}")
    return res


WORKLOADS = {
    w.name: w
    for w in (
        Workload("milestones", milestone_inputs, milestones_pass),
        Workload("chain", chain_inputs, chain_pass),
        Workload("alpha-scan", alpha_inputs, alpha_pass, alpha_final_check),
        Workload("expansion-suite", expansion_inputs, expansion_pass),
    )
}
