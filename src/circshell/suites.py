"""Named verification suites over exhaustive instance grids, plus the
budgeted explorer for the C_{4s}(1,s,2s) family.

Each suite runs a fixed grid of instances (exhaustive up to the stated
sizes; anything larger is seeded-random sampling with the seed embedded
in the report) and returns a :class:`SuiteReport`.  A suite passes iff
it has zero failures and zero unknowns — except suites declared
*budgeted*, where timed-out instances are listed but do not fail the
run.

Every suite, the explorer and ``circshell check`` decide ``pure``,
``shellable``, ``vd`` and ``cm`` through one check step, :func:`check`.
It re-checks a search's ``yes`` through the independent certificate
verifier, so that a rejected ``yes`` becomes the verdict ``certificate
rejected``, and writes a certified ``yes``'s certificate under
``out_dir/certs`` when it is given an instance name.  ``_status`` turns
a record's verdicts into its status: a rejected certificate fails the
record even when another verdict is ``unknown``.  ``main-a``,
``main-bc`` and ``expansion`` are one loop, :func:`_transfer_suite`,
over different constructions.

Suites yield their records, and past ``RECORD_CAP`` instances a report
lists only failures, unknowns and skipped records; :func:`_collect`
never holds more than ``RECORD_CAP`` ``ok`` records in memory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator

from . import checkers, kernels
from .checkers import shelling, vertex_decomposition
from .complexes import Complex, expansion_complex, independence_complex
from .graphs import (
    MAX_VERTICES,
    CirculantSpec,
    Graph,
    circulant,
    circulant_lex_connection,
    complete,
    disjoint_union,
    lex_product,
)
from .homology import DEFAULT_FACE_CAP, cm_verdict

RECORD_CAP = 2000  # past this many instances a suite keeps only non-ok records

TOPP_VOLKMANN_SAMPLES = 200  # seeded pairs touching 5-vertex factors

FAMILY_DEFAULT_BUDGET_S = 300.0

_REJECTED = "certificate rejected"  # the verdict of a yes its verifier refused


@dataclass(frozen=True)
class RunConfig:
    """Execution knobs shared by checks, suites, and the explorer."""

    timeout_s: float | None = None
    seed: int = 0
    deep: bool = False
    face_cap: int = DEFAULT_FACE_CAP
    out_dir: str | None = None

    def to_obj(self) -> dict:
        return {
            "timeout_s": self.timeout_s,
            "seed": self.seed,
            "deep": self.deep,
            "face_cap": self.face_cap,
        }


@dataclass
class SuiteReport:
    """Outcome of one suite run, machine-readable and self-describing."""

    suite: str
    config: dict
    total: int
    passed: bool
    elapsed_s: float
    failures: list[dict]
    unknowns: list[dict]
    skipped: list[dict]
    records: list[dict]
    aggregated: bool
    budgeted: bool
    notes: list[str] = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "total": self.total,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "counts": {
                "failures": len(self.failures),
                "unknowns": len(self.unknowns),
                "skipped": len(self.skipped),
            },
            "failures": self.failures,
            "unknowns": self.unknowns,
            "skipped": self.skipped,
            "records": self.records,
            "aggregated": self.aggregated,
            "budgeted": self.budgeted,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2)


def _collect(records: Iterable[dict]) -> tuple[int, list[dict]]:
    """Count a stream of records, keeping every failure, unknown and
    skipped record, but ``ok`` records only while the count is within
    ``RECORD_CAP``: no more than that many of them are ever held."""
    count, kept = 0, []
    for rec in records:
        count += 1
        if count == RECORD_CAP + 1:
            kept = [r for r in kept if r["status"] != "ok"]
        if count <= RECORD_CAP or rec["status"] != "ok":
            kept.append(rec)
    return count, kept


def _assemble(
    name: str,
    cfg: RunConfig,
    records: Iterable[dict],
    started: float,
    *,
    budgeted: bool = False,
    notes: Iterable[str] = (),
    total: int | None = None,
) -> SuiteReport:
    """The report of a stream of records, ``total`` instances if given."""
    count, records = _collect(records)
    records.sort(key=lambda r: r["instance"])
    failures = [r for r in records if r["status"] == "fail"]
    unknowns = [r for r in records if r["status"] == "unknown"]
    skipped = [r for r in records if r["status"] == "skipped"]
    count = total if total is not None else count
    aggregated = count > RECORD_CAP
    return SuiteReport(
        suite=name,
        config=cfg.to_obj(),
        total=count,
        passed=not failures and (budgeted or not unknowns),
        elapsed_s=time.monotonic() - started,
        failures=failures,
        unknowns=unknowns,
        skipped=skipped,
        records=[] if aggregated else records,
        aggregated=aggregated,
        budgeted=budgeted,
        notes=list(notes),
    )


# ---------------------------------------------------------------------------
# instance grids
# ---------------------------------------------------------------------------


def labeled_graphs(n: int) -> list[Graph]:
    """All 2^C(n,2) labeled graphs on vertex set 0..n-1."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for bits in range(1 << len(pairs)):
        out.append(
            Graph.from_edges(n, [pairs[t] for t in range(len(pairs)) if (bits >> t) & 1])
        )
    return out


def _graphs_upto(nmax: int) -> Iterator[Graph]:
    for n in range(1, nmax + 1):
        gs = labeled_graphs(n)[::-1]
        while gs:  # popped, so that what a suite caches on a graph goes with it
            yield gs.pop()


def _random_graph(rng: random.Random, n: int) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = rng.getrandbits(len(pairs)) if pairs else 0
    return Graph.from_edges(n, [pairs[t] for t in range(len(pairs)) if (bits >> t) & 1])


def _certified(d: Complex, outcome: checkers.CheckOutcome, kind: str) -> bool:
    """A yes verdict counts only if the independent verifier agrees."""
    if outcome.verdict != "yes":
        return True
    if kind == "shellable":
        return checkers.verify_shelling(d, outcome.certificate)
    return checkers.verify_shed_tree(d, outcome.certificate)


def check(d: Complex, kind: str, cfg: RunConfig,
          instance: str | None = None) -> checkers.CheckOutcome:
    """Decide ``pure``, ``shellable``, ``vd`` or ``cm`` for ``d`` within
    ``cfg.timeout_s`` (and ``cfg.face_cap`` faces for ``cm``).

    A search's ``yes`` stands only once the independent verifier accepts
    its certificate.  Given an ``instance`` name and ``cfg.out_dir``, a
    certified ``yes`` has its certificate written under ``out_dir/certs``
    and the path put into its stats.  ``cm`` puts the reason for an
    ``unknown`` into its stats, as the searches do.
    """
    if kind == "pure":
        return checkers.CheckOutcome("yes" if d.is_pure() else "no", None, {})
    if kind == "cm":
        verdict, reason, counts = cm_verdict(d, cfg.face_cap, budget_s=cfg.timeout_s)
        return checkers.CheckOutcome(
            verdict, None, dict(counts, reason=reason) if reason else counts)
    if kind not in ("shellable", "vd"):
        raise ValueError(f"unknown check kind {kind!r}; one of pure, shellable, vd, cm")
    out = (shelling if kind == "shellable" else vertex_decomposition)(
        d, budget_s=cfg.timeout_s)
    if not _certified(d, out, kind):
        return checkers.CheckOutcome(_REJECTED, None, out.stats)
    if instance is None or cfg.out_dir is None or out.verdict != "yes":
        return out
    digest = hashlib.sha1(f"{instance}:{kind}".encode()).hexdigest()[:10]
    safe = re.sub(r"[^A-Za-z0-9().,_-]+", "_", instance)[:60]
    path = Path(cfg.out_dir) / "certs" / f"{safe}-{kind}-{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(checkers.certificate_to_json(out.certificate))
    out.stats["certificate"] = str(path)
    return out


def _status(verdicts: Collection[str], holds: bool) -> str:
    """A rejected certificate fails the record; otherwise an unknown
    verdict leaves it unknown, and else it is ok iff the claim holds."""
    if _REJECTED in verdicts:
        return "fail"
    if "unknown" in verdicts:
        return "unknown"
    return "ok" if holds else "fail"


def _checked_verdicts(d: Complex, cfg: RunConfig) -> tuple[str, str]:
    """Verified (shellable, vd) verdicts of a pure complex.

    The VD search runs first.  A yes is checked by
    ``shelling_from_shed_tree``, which rechecks the shed tree and reads
    off the shelling order it implies in one walk, or gives ``None``
    when it rejects the tree; that order counts only once
    ``verify_shelling`` accepts it.  Otherwise the shelling search
    answers; it refuses a disconnected ridge graph with no search, as
    the VD search does.
    """
    vd = vertex_decomposition(d, budget_s=cfg.timeout_s)
    if vd.verdict == "yes":
        order = checkers.shelling_from_shed_tree(d, vd.certificate)
        if order is None:
            return check(d, "shellable", cfg).verdict, _REJECTED
        return ("yes" if checkers.verify_shelling(d, order) else _REJECTED), "yes"
    return check(d, "shellable", cfg).verdict, vd.verdict


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def topp_volkmann_samples(seed: int) -> list[tuple[str, Graph, Graph]]:
    """Seeded random factor pairs where at least one factor has 5 vertices."""
    rng = random.Random(seed)
    out = []
    for t in range(TOPP_VOLKMANN_SAMPLES):
        if rng.random() < 0.5:
            ng, nh = 5, rng.randint(1, 5)
        else:
            ng, nh = rng.randint(1, 5), 5
        g = _random_graph(rng, ng)
        h = _random_graph(rng, nh)
        out.append((f"sample[{t}] {g.to_json()} lex {h.to_json()}", g, h))
    return out


def suite_topp_volkmann(cfg: RunConfig) -> SuiteReport:
    """Purity of Ind(G[H]) iff purity of both factors.

    Exhaustive over all labeled pairs with up to 4 vertices per factor,
    plus seeded random pairs involving 5-vertex factors.
    """
    started = time.monotonic()
    factors = [(g, independence_complex(g).is_pure()) for g in _graphs_upto(4)]

    def pairs() -> Iterator[tuple[str, Graph, Graph, bool, bool]]:
        for (g, pg), (h, ph) in itertools.product(factors, repeat=2):
            yield f"{g.to_json()} lex {h.to_json()}", g, h, pg, ph
        for instance, g, h in topp_volkmann_samples(cfg.seed):
            pg = independence_complex(g).is_pure()
            ph = independence_complex(h).is_pure()
            yield instance, g, h, pg, ph

    def records() -> Iterator[dict]:
        for instance, g, h, pg, ph in pairs():
            pp = independence_complex(lex_product(g, h)).is_pure()
            yield {
                "instance": instance,
                "status": "ok" if pp == (pg and ph) else "fail",
                "verdicts": {"pure_product": pp, "pure_G": pg, "pure_H": ph},
            }

    return _assemble(
        "topp-volkmann", cfg, records(), started,
        notes=[f"exhaustive pairs n<=4 plus {TOPP_VOLKMANN_SAMPLES} seeded "
               f"samples at n=5 (seed={cfg.seed})"],
    )


def suite_alpha_product(cfg: RunConfig) -> SuiteReport:
    """alpha(G[H]) = alpha(G) * alpha(H) over all ordered pairs, n <= 5."""
    started = time.monotonic()
    gs = list(_graphs_upto(5))
    ns = [g.n for g in gs]
    adjs = [list(g.adjacency_masks) for g in gs]
    deadline = started + cfg.timeout_s if cfg.timeout_s is not None else None
    try:
        bad = kernels.alpha_product_failures(ns, adjs, deadline=deadline)
    except kernels.BudgetError:  # out of time: one unknown for the scan
        records = [{"instance": "every ordered pair", "status": "unknown",
                    "verdicts": {"alpha_multiplicative": "unknown"}}]
    else:
        records = [{"instance": f"{gs[gi].to_json()} lex {gs[hi].to_json()}",
                    "status": "fail", "verdicts": {"alpha_multiplicative": False}}
                   for gi, hi in bad]
    return _assemble(
        "alpha-product", cfg, records, started,
        total=len(gs) ** 2,
    )


def _transfer_suite(
    name: str,
    cfg: RunConfig,
    nmax: int,
    variants: Callable[[Graph, Complex], Iterable[tuple[str, Complex]]],
    tags: tuple[str, str],
    *,
    both_ways: bool,
    non_pure: str | None,
    notes: Iterable[str] = (),
) -> SuiteReport:
    """Each variant of Ind(G), for every labeled G with n <= nmax, keeps
    the verdicts of Ind(G).

    ``variants(g, ind_g)`` yields ``(instance, complex)`` pairs.  VD must
    match; shellability must match too when ``both_ways``, else only
    carry forward from a ``yes``.  Verdicts are keyed ``vd_<tag>``,
    ``shellable_<tag>`` and ``pure_<tag>``, ``tags`` naming the base and
    its variant.  A non-pure G has only its variants' purity checked,
    noted ``non_pure``, or is skipped when ``non_pure`` is None; a
    non-pure variant of a pure G fails.
    """
    started = time.monotonic()
    vd_key, sh_key, pure_key = (
        [f"{p}_{t}" for t in tags] for p in ("vd", "shellable", "pure"))

    def records() -> Iterator[dict]:
        for g in _graphs_upto(nmax):
            ind_g = independence_complex(g)
            pure_g = ind_g.is_pure()
            if pure_g:
                sh_g, vd_g = _checked_verdicts(ind_g, cfg)
            elif non_pure is None:
                continue
            for instance, ind in variants(g, ind_g):
                if not pure_g:
                    pure = ind.is_pure()
                    yield {
                        "instance": instance,
                        "status": "fail" if pure else "ok",
                        "verdicts": {pure_key[0]: False, pure_key[1]: pure},
                        "note": non_pure,
                    }
                elif not ind.is_pure():
                    yield {
                        "instance": instance,
                        "status": "fail",
                        "verdicts": {pure_key[1]: False},
                        "note": "product of well-covered factors must stay pure",
                    }
                else:
                    sh, vd = _checked_verdicts(ind, cfg)
                    holds = vd == vd_g and (
                        sh == sh_g if both_ways else sh_g != "yes" or sh == "yes")
                    yield {
                        "instance": instance,
                        "status": _status((sh_g, vd_g, sh, vd), holds),
                        "verdicts": {vd_key[0]: vd_g, vd_key[1]: vd,
                                     sh_key[0]: sh_g, sh_key[1]: sh},
                    }

    return _assemble(name, cfg, records(), started, notes=notes)


def suite_main_a(cfg: RunConfig) -> SuiteReport:
    """Shellability/VD of Ind(kH) matches Ind(H) for k <= 3 disjoint copies."""

    def copies(h: Graph, ind_h: Complex) -> Iterable[tuple[str, Complex]]:
        kh = h
        for k in (2, 3):
            kh = disjoint_union(kh, h)
            yield f"{k} copies of {h.to_json()}", independence_complex(kh)

    return _transfer_suite(
        "main-a", cfg, 4, copies, ("H", "kH"), both_ways=True,
        non_pure="non-pure counted as not shellable / not decomposable")


def suite_main_bc(cfg: RunConfig) -> SuiteReport:
    """VD of Ind(G[K_m]) iff VD of Ind(G); shellability carried forward.

    Runs over every labeled well-covered G with n <= 5 and m in {2,3}.
    """

    def products(g: Graph, ind_g: Complex) -> Iterable[tuple[str, Complex]]:
        for m in (2, 3):
            yield (f"{g.to_json()} lex K{m}",
                   independence_complex(lex_product(g, complete(m))))

    return _transfer_suite(
        "main-bc", cfg, 5, products, ("G", "product"), both_ways=False,
        non_pure=None,
        notes=["decomposability transfer is only claimed for well-covered G; "
               "other graphs are not instantiated"])


def suite_nonshellable(cfg: RunConfig) -> SuiteReport:
    """Ind(G[H]) is never shellable when G has an edge and H is incomplete."""
    started = time.monotonic()
    gs = [g for g in _graphs_upto(4) if any(g.adjacency_masks)]
    hs = [h for h in _graphs_upto(4)
          if sum(m.bit_count() for m in h.adjacency_masks) < h.n * (h.n - 1)]

    def records() -> Iterator[dict]:
        for g, h in itertools.product(gs, hs):
            instance = f"{g.to_json()} lex {h.to_json()}"
            ind = independence_complex(lex_product(g, h))
            if not ind.is_pure():
                yield {
                    "instance": instance,
                    "status": "ok",
                    "verdicts": {"shellable": "not-pure"},
                    "note": "non-pure counted as not shellable",
                }
                continue
            sh = check(ind, "shellable", cfg).verdict
            yield {"instance": instance, "status": _status((sh,), sh == "no"),
                   "verdicts": {"shellable": sh}}

    return _assemble(
        "nonshellable", cfg, records(), started,
        notes=["non-pure complexes counted as not shellable"],
    )


def suite_expansion(cfg: RunConfig) -> SuiteReport:
    """Clique expansions preserve VD both ways and shellability forward.

    Exhaustive over labeled graphs with n <= 5 and expansion vectors
    with entries in {1, 2}.  Each Ind(G_s) is built from the facets of
    Ind(G) by ``complexes.expansion_complex`` (an independent set takes at
    most one vertex per blob), not by Bron-Kerbosch on the expansion
    graph; the tests check the two agree.
    """

    def expansions(g: Graph, ind_g: Complex) -> Iterable[tuple[str, Complex]]:
        desc = g.to_json()
        for s in itertools.product((1, 2), repeat=g.n):
            yield f"{desc} expand {list(s)}", expansion_complex(ind_g, s)

    return _transfer_suite(
        "expansion", cfg, 5, expansions, ("G", "expansion"), both_ways=False,
        non_pure="non-pure on both sides; decomposability not defined")


def suite_circulant_product(cfg: RunConfig) -> SuiteReport:
    """Closed-form connection sets match brute-force lex products, n,m <= 8."""
    started = time.monotonic()
    specs: list[CirculantSpec] = []
    for n in range(1, 9):
        half = list(range(1, n // 2 + 1))
        for r in range(len(half) + 1):
            for sub in itertools.combinations(half, r):
                specs.append(CirculantSpec(n, sub))

    def records() -> Iterator[dict]:
        for a, b in itertools.product(specs, specs):
            conn = circulant_lex_connection(a, b)
            ok = circulant(conn) == lex_product(circulant(a), circulant(b))
            yield {
                "instance": f"{a.name} lex {b.name}",
                "status": "ok" if ok else "fail",
                "verdicts": {"connection_set": conn.name, "edge_equal": ok},
            }

    return _assemble("circulant-product", cfg, records(), started)


# --- paper-milestones ------------------------------------------------------

# alpha, edge count and Ind facet count of each milestone circulant
_REGRESSIONS = {
    "C16(1,4,8)": {"alpha": 4, "edge_count": 40, "facet_count": 80},
    "C20(1,5,10)": {"alpha": 5, "edge_count": 50, "facet_count": 244},
    "C24(1,6,12)": {"alpha": 6, "edge_count": 60, "facet_count": 728},
}


def _regression_constants(g: Graph, ind: Complex) -> dict:
    return {"alpha": ind.dim + 1, "facet_count": len(ind.facet_masks),
            "edge_count": len(g.edges)}


def _milestone_graph(name: str) -> Graph:
    """The circulant ``name``, or for ``C..(..)[Km]`` its lex product with K_m."""
    base, _, m = name.partition("[K")
    g = circulant(CirculantSpec.parse(base))
    return lex_product(g, complete(int(m[:-1]))) if m else g


def suite_paper_milestones(cfg: RunConfig) -> SuiteReport:
    """The headline verdicts on C16/C20/C24 and on the paper's family
    C16(1,4,8)[K_m], plus the regression constants of ``_REGRESSIONS``.

    C16(1,4,8) is shellable and Cohen-Macaulay but not vertex
    decomposable, and by the product theorem (``main-bc``) so is every
    C16(1,4,8)[K_m]; those expected verdicts are the theorem's, and the
    engines compute theirs independently.  Fast by default: the deep
    instances (C20 vd, C24 vd, C24 cm and the m = 3 and m = 4 members)
    only run under the deep flag and are reported as skipped otherwise.
    """
    started = time.monotonic()
    records: list[dict] = []
    notes: list[str] = []
    inds: dict[str, Complex] = {}
    for name, expected in _REGRESSIONS.items():
        g = circulant(CirculantSpec.parse(name))
        inds[name] = independence_complex(g)
        got = _regression_constants(g, inds[name])
        records.append({"instance": f"{name} regression constants",
                        "status": "ok" if got == expected else "fail",
                        "verdicts": {"computed": got, "expected": expected}})

    def run_one(name: str, kind: str, expect: str) -> dict:
        if name not in inds:
            inds[name] = independence_complex(_milestone_graph(name))
        out = check(inds[name], kind, cfg, name)
        rec = {"instance": f"{name} {kind}",
               "status": _status((out.verdict,), out.verdict == expect),
               "verdicts": {kind: out.verdict, "expected": expect}}
        if out.stats:
            rec["stats"] = {"cm": out.stats} if kind == "cm" else out.stats
        return rec

    member_checks = [("shellable", "yes"), ("vd", "no"), ("cm", "yes")]
    items = [
        ("C16(1,4,8)", "pure", "yes"),
        ("C16(1,4,8)", "shellable", "yes"),
        ("C16(1,4,8)", "vd", "no"),
    ] + [("C16(1,4,8)[K2]", kind, expect) for kind, expect in member_checks]
    deep_items = [
        ("C20(1,5,10)", "vd", "no"),
        ("C24(1,6,12)", "vd", "no"),
        ("C24(1,6,12)", "cm", "yes"),
    ] + [(f"C16(1,4,8)[K{m}]", kind, expect)
         for m in (3, 4) for kind, expect in member_checks]
    for item in items:
        records.append(run_one(*item))
    if cfg.deep:
        for item in deep_items:
            records.append(run_one(*item))
    else:
        for name, kind, expect in deep_items:
            records.append({
                "instance": f"{name} {kind}",
                "status": "skipped",
                "verdicts": {kind: "skipped", "expected": expect},
                "note": "deep milestone; rerun with --deep",
            })
        notes.append("deep milestones skipped (no --deep)")
    notes.append("C16(1,4,8)[Km] expected verdicts: the product theorem applied "
                 "to C16(1,4,8)")

    return _assemble("paper-milestones", cfg, records, started, notes=notes)


def suite_chain(cfg: RunConfig) -> SuiteReport:
    """VD => shellable => Cohen-Macaulay over all pure Ind(G), n <= 6.

    Every yes verdict must survive its independent certificate verifier.
    The graphs and the yes verdicts are tallied as the records go by.
    """
    started = time.monotonic()
    graphs = 0
    counts = dict.fromkeys(("pure", "vd", "shellable", "cm"), 0)

    def records() -> Iterator[dict]:
        nonlocal graphs
        for g in _graphs_upto(6):
            graphs += 1
            ind = independence_complex(g)
            if not ind.is_pure():  # out of scope here, not missing coverage
                continue
            vd = check(ind, "vd", cfg).verdict
            sh = check(ind, "shellable", cfg).verdict
            cm = check(ind, "cm", cfg).verdict
            verdicts = {"vd": vd, "shellable": sh, "cm": cm}
            holds = (vd != "yes" or sh == "yes") and (sh != "yes" or cm == "yes")
            counts["pure"] += 1
            for kind, verdict in verdicts.items():
                counts[kind] += verdict == "yes"
            yield {"instance": g.to_json(),
                   "status": _status(verdicts.values(), holds),
                   "verdicts": verdicts}

    _, kept = _collect(records())  # the total and counts are known only now
    return _assemble(
        "chain", cfg, kept, started, total=graphs,
        notes=[f"counts over pure complexes: {json.dumps(counts)}",
               "non-well-covered graphs are skipped (chain undefined)"],
    )


def explore_family(s_min: int, s_max: int, cfg: RunConfig) -> SuiteReport:
    """Budgeted survey of Ind(C_{4s}(1,s,2s)) for s in [s_min, s_max].

    Records purity, shellability, vertex decomposability, and
    Cohen-Macaulayness per instance; timeouts are first-class unknowns
    and never failures.  This explorer records evidence; it does not
    settle anything beyond the instances it finishes.
    """
    if s_min < 4:
        raise ValueError(f"family starts at s=4, got s_min={s_min}")
    if s_max < s_min:
        raise ValueError(f"empty range: [{s_min}, {s_max}]")
    if 4 * s_max > MAX_VERTICES:
        raise ValueError(f"C{4 * s_max} at s={s_max}: vertex count must be in 0..{MAX_VERTICES}")
    started = time.monotonic()
    budget = cfg.timeout_s if cfg.timeout_s is not None else FAMILY_DEFAULT_BUDGET_S
    run = replace(cfg, timeout_s=budget)
    records = []
    for s in range(s_min, s_max + 1):
        spec = CirculantSpec(4 * s, (1, s, 2 * s))
        instance = spec.name
        ind = independence_complex(circulant(spec))
        verdicts = {"pure": check(ind, "pure", run).verdict}
        stats: dict[str, dict] = {}
        if verdicts["pure"] == "yes":
            for kind in ("shellable", "vd", "cm"):
                out = check(ind, kind, run, instance)
                verdicts[kind], stats[kind] = out.verdict, out.stats
        else:
            verdicts.update({"shellable": "not-pure", "vd": "not-pure",
                             "cm": "no"})
        records.append({"instance": instance,
                        "status": _status(verdicts.values(), True),
                        "verdicts": verdicts, "stats": stats})
    return _assemble(
        "family", cfg, records, started, budgeted=True,
        notes=[f"per-property budget: {budget}s",
               "unknown means budget exhausted, never refutation"],
    )


SUITES: dict[str, Callable[[RunConfig], SuiteReport]] = {
    "topp-volkmann": suite_topp_volkmann,
    "alpha-product": suite_alpha_product,
    "main-a": suite_main_a,
    "main-bc": suite_main_bc,
    "nonshellable": suite_nonshellable,
    "expansion": suite_expansion,
    "circulant-product": suite_circulant_product,
    "paper-milestones": suite_paper_milestones,
    "chain": suite_chain,
}


def run_suite(name: str, cfg: RunConfig) -> SuiteReport:
    """Execute a named suite; unknown names raise ``KeyError``."""
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return SUITES[name](cfg)
