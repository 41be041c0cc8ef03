"""Command-line interface.

Commands::

    circshell graph <desc> [--dot | --json]
    circshell check <kind> <desc> [options]
    circshell suite <name> [options]
    circshell family <s-min> <s-max> [options]

``<desc>`` is either a circulant shorthand like ``C16(1,4,8)`` or a
JSON object: a graph ``{"n": ..., "edges": [...]}`` or, for the complex
checks, a complex ``{"n": ..., "facets": [...]}``.

Exit codes: 0 when the checked property holds (or the suite passes),
1 when it fails to hold, 2 for unknown verdicts, a yes whose
certificate the independent verifier rejects, unusable input, or
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import checkers, homology, suites
from .complexes import Complex, alpha, independence_complex
from .graphs import CirculantSpec, Graph, circulant

CHECK_KINDS = ("pure", "shellable", "vd", "cm", "alpha", "homology")


def _parse_desc(desc: str) -> Graph | Complex:
    text = desc.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        if "n" not in obj:
            raise ValueError("JSON input needs an 'n' key")
        if "edges" in obj:
            return Graph.from_json(text)
        if "facets" in obj:
            return Complex.from_json(text)
        raise ValueError("JSON input needs an 'edges' or 'facets' key")
    return circulant(CirculantSpec.parse(text))


def _as_complex(item: Graph | Complex) -> Complex:
    return independence_complex(item) if isinstance(item, Graph) else item


def cmd_graph(args: argparse.Namespace) -> int:
    item = _parse_desc(args.desc)
    if not isinstance(item, Graph):
        print("error: 'graph' takes a graph, not a complex", file=sys.stderr)
        return 2
    print(item.to_dot() if args.dot else item.to_json())
    return 0


def run_check(kind: str, item: Graph | Complex, *,
              timeout_s: float | None = None,
              face_cap: int = homology.DEFAULT_FACE_CAP,
              ) -> tuple[str, dict, checkers.ShellingCertificate | checkers.ShedTree | None]:
    """Run one property check; returns (verdict, detail, certificate).

    Verdicts are "yes"/"no"/"unknown", or "certificate rejected" for a
    shellable/vd yes that the independent verifier refuses; the
    certificate is that of a certified yes, else ``None``.  Alpha
    succeeds unless it runs out of time, and homology unless it runs out
    of time or faces; both report their value under "yes".
    """
    if kind == "alpha":
        if not isinstance(item, Graph):
            raise ValueError("alpha is defined on graphs, not complexes")
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        try:
            return "yes", {"alpha": alpha(item, deadline=deadline)}, None
        except homology.BudgetError as e:
            return "unknown", {"reason": str(e)}, None
    d = _as_complex(item)
    if kind == "homology":
        try:
            profile = homology.reduced_homology(d, face_cap, budget_s=timeout_s)
        except (homology.BudgetError, homology.FaceLimitError) as e:
            return "unknown", {"reason": str(e)}, None
        return "yes", {"profile": profile.to_obj()}, None
    out = suites.check(d, kind, suites.RunConfig(timeout_s=timeout_s, face_cap=face_cap))
    detail = {} if kind == "pure" else {"stats": out.stats}
    if kind == "cm" and "reason" in out.stats:  # reported beside the counts
        detail = {"stats": {k: v for k, v in out.stats.items() if k != "reason"},
                  "reason": out.stats["reason"]}
    return out.verdict, detail, out.certificate


def _require_vertices(t: checkers.ShedTree, n: int) -> None:
    """Raise ``ValueError`` if a shed vertex of ``t`` is not in ``0..n-1``."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, checkers.ShedNode):
            if not 0 <= t.vertex < n:
                raise ValueError(f"shed vertex {t.vertex} is not a vertex in 0..{n - 1}")
            stack += (t.deletion, t.link)


def cmd_check(args: argparse.Namespace) -> int:
    item = _parse_desc(args.desc)
    d = None if args.kind == "alpha" else _as_complex(item)

    if args.verify_only:
        if args.kind not in ("shellable", "vd"):
            print("error: --verify-only applies to shellable/vd checks",
                  file=sys.stderr)
            return 2
        cert = checkers.certificate_from_json(Path(args.verify_only).read_text())
        checkers._require_pure(d)
        shellable = args.kind == "shellable"
        if isinstance(cert, checkers.ShellingCertificate) != shellable:
            want = "shelling order" if shellable else "shed tree"
            print(f"error: certificate is not a {want}", file=sys.stderr)
            return 2
        if shellable:
            ok = checkers.verify_shelling(d, cert)  # raises unless a permutation
        else:
            _require_vertices(cert, d.n)
            ok = checkers.verify_shed_tree(d, cert)
        print(f"certificate {'accepted' if ok else 'rejected'}")
        return 0 if ok else 1

    verdict, detail, certificate = run_check(
        args.kind, item if d is None else d,
        timeout_s=args.timeout, face_cap=args.face_cap)

    cert_path = cert_error = None
    if args.certificate and certificate is not None:
        try:
            text = checkers.certificate_to_json(certificate)
        except RecursionError as e:  # the verdict stands; only the file is lost
            cert_error = ("certificate not written: a shed tree's JSON nests one "
                          f"level per shed vertex, too deep to write ({e})")
        else:
            Path(args.certificate).write_text(text)
            cert_path = args.certificate

    if args.json:
        obj = {"kind": args.kind, "instance": args.desc.strip(),
               "verdict": verdict, **detail}
        if cert_path:
            obj["certificate"] = cert_path
        print(json.dumps(obj, indent=2))
    else:
        if args.kind == "alpha" and verdict == "yes":
            print(f"alpha = {detail['alpha']}")
        elif args.kind == "homology" and verdict == "yes":
            print(json.dumps(detail["profile"], indent=2))
        else:
            print(f"{args.kind}: {verdict}")
            for k, v in detail.get("stats", {}).items():
                print(f"  {k}: {v}")
            if detail.get("reason"):
                print(f"  reason: {detail['reason']}")
        if cert_path:
            print(f"certificate written to {cert_path}")
    if cert_error:
        print(f"error: {cert_error}", file=sys.stderr)
        return 2
    return {"yes": 0, "no": 1}.get(verdict, 2)


def _print_suite_summary(report: suites.SuiteReport) -> None:
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}"
          f"{' (budgeted)' if report.budgeted else ''}")
    print(f"  instances: {report.total}   failures: {len(report.failures)}"
          f"   unknowns: {len(report.unknowns)}"
          f"   skipped: {len(report.skipped)}")
    print(f"  elapsed: {report.elapsed_s:.2f}s")
    for note in report.notes:
        print(f"  note: {note}")
    for r in report.failures[:20]:
        print(f"  FAIL {r['instance']}  {json.dumps(r['verdicts'])}")
    if len(report.failures) > 20:
        print(f"  ... {len(report.failures) - 20} more failures")
    for r in report.unknowns[:10]:
        print(f"  UNKNOWN {r['instance']}")
    if len(report.unknowns) > 10:
        print(f"  ... {len(report.unknowns) - 10} more unknowns")
    for r in report.skipped:
        print(f"  SKIPPED {r['instance']}  ({r.get('note', '')})")


def _emit_report(report: suites.SuiteReport, args: argparse.Namespace) -> int:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{report.suite}-report.json"
        path.write_text(report.to_json() + "\n")
    if args.json:
        print(report.to_json())
    else:
        _print_suite_summary(report)
        if args.out:
            print(f"  report written to {Path(args.out) / (report.suite + '-report.json')}")
    return 0 if report.passed else 1


def cmd_suite(args: argparse.Namespace) -> int:
    cfg = suites.RunConfig(
        timeout_s=args.timeout, seed=args.seed, deep=args.deep,
        face_cap=args.face_cap, out_dir=args.out)
    try:
        report = suites.run_suite(args.name, cfg)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2
    return _emit_report(report, args)


def cmd_family(args: argparse.Namespace) -> int:
    cfg = suites.RunConfig(timeout_s=args.timeout, out_dir=args.out)
    report = suites.explore_family(args.s_min, args.s_max, cfg)
    return _emit_report(report, args)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="circshell",
        description="Exact well-coveredness, shellability, vertex "
                    "decomposability, and Cohen-Macaulayness for circulant "
                    "graphs and lexicographical products.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="print a graph as JSON or DOT")
    g.add_argument("desc", help="circulant shorthand or graph JSON")
    fmt = g.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit DOT")
    fmt.add_argument("--json", action="store_true", help="emit JSON (default)")
    g.set_defaults(func=cmd_graph)

    c = sub.add_parser("check", help="decide one property of one instance")
    c.add_argument("kind", choices=CHECK_KINDS)
    c.add_argument("desc", help="circulant shorthand, graph JSON, or complex JSON")
    c.add_argument("--timeout", type=float, default=None, metavar="S")
    c.add_argument("--face-cap", type=int, default=homology.DEFAULT_FACE_CAP,
                   metavar="N", help="max faces to enumerate (homology/cm)")
    c.add_argument("--certificate", metavar="PATH",
                   help="write the certificate JSON on a yes verdict")
    c.add_argument("--verify-only", metavar="PATH",
                   help="skip the search; verify this certificate file")
    c.add_argument("--json", action="store_true", help="machine-readable output")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("suite", help="run a named verification suite")
    s.add_argument("name")
    s.add_argument("--seed", type=int, default=0, metavar="N")
    s.add_argument("--deep", action="store_true",
                   help="include the long-running milestone instances")
    s.add_argument("--timeout", type=float, default=None, metavar="S")
    s.add_argument("--face-cap", type=int, default=homology.DEFAULT_FACE_CAP,
                   metavar="N")
    s.add_argument("--out", metavar="DIR",
                   help="write the report (and certificates) under DIR")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_suite)

    f = sub.add_parser("family", help="survey C_{4s}(1,s,2s) for a range of s")
    f.add_argument("s_min", type=int)
    f.add_argument("s_max", type=int)
    f.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-property budget in seconds (default 300)")
    f.add_argument("--out", metavar="DIR")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_family)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
