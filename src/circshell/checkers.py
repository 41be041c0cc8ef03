"""Exhaustive certificate search for pure shellability and vertex
decomposability, with independent certificate verifiers.

Both properties are decided for *pure* complexes only; non-pure input
raises :class:`NotPureError`.  A ``yes`` verdict always carries a
certificate (facet order / shed tree) that the matching verifier
accepts; a ``no`` verdict means the search space was exhausted.
Searches accept an optional wall-clock budget and report ``unknown``
when it runs out — never ``no``.

Shelling condition used throughout (for the facet order F1,...,Fs):
for all j < i there is x in Fi \\ Fj and k < i with Fi \\ Fk = {x}.
Whether a facet can legally extend a partial order depends only on the
*set* of facets already placed, so dead prefixes are memoised as sets.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Union

from . import complexes
from .complexes import Complex, _rotate_mask

_BUDGET_PROBE = 256  # nodes between deadline checks


class NotPureError(ValueError):
    """Raised when a pure-only checker receives a non-pure complex."""


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class ShellingCertificate:
    """A facet order, as indices into the complex's canonical facet list."""

    order: tuple[int, ...]

    def to_obj(self) -> dict:
        return {"order": list(self.order)}

    @staticmethod
    def from_obj(obj: dict) -> "ShellingCertificate":
        return ShellingCertificate(tuple(int(i) for i in obj["order"]))


@dataclass(frozen=True)
class ShedLeaf:
    """Terminal witness: a simplex, the void complex, or {()}."""

    kind: str  # "simplex" | "void" | "empty-face"

    def to_obj(self) -> dict:
        return {"leaf": self.kind}


@dataclass(frozen=True)
class ShedNode:
    """Shedding vertex with witnesses for its deletion and link."""

    vertex: int
    deletion: "ShedTree"
    link: "ShedTree"

    def to_obj(self) -> dict:
        return {
            "shed": self.vertex,
            "del": self.deletion.to_obj(),
            "link": self.link.to_obj(),
        }


ShedTree = Union[ShedLeaf, ShedNode]


def shed_tree_from_obj(obj: dict) -> ShedTree:
    if "leaf" in obj:
        kind = obj["leaf"]
        if kind not in ("simplex", "void", "empty-face"):
            raise ValueError(f"unknown leaf kind {kind!r}")
        return ShedLeaf(kind)
    return ShedNode(
        int(obj["shed"]),
        shed_tree_from_obj(obj["del"]),
        shed_tree_from_obj(obj["link"]),
    )


def certificate_to_json(cert: Union[ShellingCertificate, ShedTree]) -> str:
    return json.dumps(cert.to_obj())


def certificate_from_json(text: str) -> Union[ShellingCertificate, ShedTree]:
    obj = json.loads(text)
    if "order" in obj:
        return ShellingCertificate.from_obj(obj)
    return shed_tree_from_obj(obj)


@dataclass(frozen=True)
class CheckOutcome:
    """Search result: verdict, certificate when yes, and search stats."""

    verdict: str  # "yes" | "no" | "unknown"
    certificate: Union[ShellingCertificate, ShedTree, None]
    stats: dict


def _require_pure(d: Complex) -> None:
    if not d.is_pure():
        sizes = sorted({len(f) for f in d.facets})
        raise NotPureError(f"complex is not pure: facet sizes {sizes}")


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


# ---------------------------------------------------------------------------
# shellability
# ---------------------------------------------------------------------------


def shelling(d: Complex, *, budget_s: float | None = None) -> CheckOutcome:
    """Search for a shelling order of a pure complex.

    Backtracks over prefixes, placing one facet at a time; a facet may
    be placed iff every already-placed facet sees a singleton-difference
    witness among the placed ones.  Dead prefix *sets* are memoised.
    The first facet ranges over the canonical order; later candidates
    are tried richest witness set first, ties in canonical order.
    """
    _require_pure(d)
    start = time.monotonic()
    masks = d.facet_masks
    s = len(masks)
    if s <= 1:
        cert = ShellingCertificate(tuple(range(s)))
        return CheckOutcome("yes", cert, {"nodes": 0, "memo_hits": 0,
                                          "elapsed_s": 0.0})
    deadline = start + budget_s if budget_s is not None else None

    # ridge data: nbr[i] = bitmask of facets meeting F_i in all but one
    # vertex, diff[i][j] = the single vertex of F_i \ F_j as a bitmask.
    # In a pure complex such a pair shares exactly one ridge (a facet
    # minus one vertex), so grouping facets by ridge finds each pair once.
    on_ridge: dict[int, list[int]] = {}
    for i, m in enumerate(masks):
        mm = m
        while mm:
            b = mm & -mm
            on_ridge.setdefault(m ^ b, []).append(i)
            mm ^= b
    nbr = [0] * s
    diff: list[dict[int, int]] = [dict() for _ in range(s)]
    for ridge, fs in on_ridge.items():
        for a, i in enumerate(fs):
            for j in fs[a + 1:]:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
                diff[i][j] = masks[i] ^ ridge
                diff[j][i] = masks[j] ^ ridge

    # Every facet after the first needs a singleton difference against
    # some earlier one, so the ridge graph must be connected.
    seen = 1
    frontier = [0]
    while frontier:
        seen_new = 0
        for i in frontier:
            seen_new |= nbr[i]
        seen_new &= ~seen
        seen |= seen_new
        frontier = _bit_indices(seen_new)
    if seen != (1 << s) - 1:
        return CheckOutcome("no", None, {
            "nodes": 0, "memo_hits": 0,
            "elapsed_s": time.monotonic() - start,
            "reason": "ridge graph disconnected",
        })

    # cover[1 << v] = facets NOT containing v: placing a singleton
    # witness v satisfies exactly these earlier facets
    union = 0
    for m in masks:
        union |= m
    cover = {}
    for v in _bit_indices(union):
        c = 0
        for i, m in enumerate(masks):
            if not (m >> v) & 1:
                c |= 1 << i
        cover[1 << v] = c

    full = (1 << s) - 1
    dead: set[int] = set()
    order: list[int] = []
    n_masks = [0] * s  # current union of singleton diffs vs placed neighbours
    cov = [0] * s  # union of cover[w] over the witnesses w in n_masks[c]
    nodes = 0
    hits = 0

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * s + 1000))

    def dfs(placed: int) -> bool:
        nonlocal nodes, hits
        nodes += 1
        if deadline is not None and nodes % _BUDGET_PROBE == 0:
            if time.monotonic() > deadline:
                raise _BudgetExceeded
        if placed == full:
            return True
        if placed in dead:
            hits += 1
            return False
        if placed == 0:
            cands = list(range(s))
        else:
            # c is legal iff its witnesses cover every placed facet.
            # Richest witness set first: the candidate whose constraint
            # is loosest rarely needs undoing.  The sort is stable, and a
            # bare int list keeps the frames on the recursion stack small.
            cands = sorted(
                (c for c in range(s)
                 if not (placed >> c) & 1 and not placed & ~cov[c]),
                key=lambda c: -n_masks[c].bit_count())
        for c in cands:
            after = placed | (1 << c)
            order.append(c)
            undo = []
            for t in _bit_indices(nbr[c] & ~after):
                w = diff[t][c]
                undo.append((t, n_masks[t], cov[t]))
                n_masks[t] |= w
                cov[t] |= cover[w]
            if dfs(after):
                return True
            for t, old_n, old_cov in undo:
                n_masks[t] = old_n
                cov[t] = old_cov
            order.pop()
        dead.add(placed)
        return False

    try:
        found = dfs(0)
    except _BudgetExceeded:
        return CheckOutcome("unknown", None, {
            "nodes": nodes, "memo_hits": hits,
            "elapsed_s": time.monotonic() - start,
            "reason": "budget exhausted",
        })
    stats = {
        "nodes": nodes,
        "memo_hits": hits,
        "elapsed_s": time.monotonic() - start,
    }
    if found:
        return CheckOutcome("yes", ShellingCertificate(tuple(order)), stats)
    return CheckOutcome("no", None, stats)


def verify_shelling(d: Complex, cert: ShellingCertificate) -> bool:
    """Check the shelling condition verbatim for the certified order.

    Independent of the search: O(s^2) direct set computations straight
    from the definition.  Malformed permutations are an error.
    """
    _require_pure(d)
    masks = d.facet_masks
    s = len(masks)
    if sorted(cert.order) != list(range(s)):
        raise ValueError(f"certificate is not a permutation of 0..{s - 1}")
    seq = [masks[i] for i in cert.order]
    for i in range(1, s):
        witnesses = 0
        for kk in range(i):
            delta = seq[i] & ~seq[kk]
            if delta.bit_count() == 1:
                witnesses |= delta
        for j in range(i):
            if witnesses & ~seq[j] == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# vertex decomposability
# ---------------------------------------------------------------------------


def _rotate_tree(t: ShedTree, r: int, n: int) -> ShedTree:
    if isinstance(t, ShedLeaf):
        return t
    return ShedNode(
        (t.vertex + r) % n,
        _rotate_tree(t.deletion, r, n),
        _rotate_tree(t.link, r, n),
    )


def vertex_decomposition(
    d: Complex, *, budget_s: float | None = None
) -> CheckOutcome:
    """Search for a shed tree witnessing pure vertex decomposability.

    A vertex x sheds iff some facet avoids x and every facet containing
    x stays inside one of those after dropping x (deletion pure, same
    dimension; the link of a vertex in a pure complex is always pure).
    Candidates are tried in ascending label order; subcomplexes are
    memoised by their exact facet family.  When the facet family is
    invariant under the cyclic rotation v -> v + 1 (mod n), as for every
    circulant's independence complex, memo keys are canonicalised under
    rotation of the ambient labels; ``stats["rotations"]`` says which
    memo ran.  Decomposability does not change under relabelling, so
    either memo gives the same verdict.
    """
    _require_pure(d)
    start = time.monotonic()
    deadline = start + budget_s if budget_s is not None else None
    n = d.n
    root = tuple(sorted(d.facet_masks))
    rotations = d.rotation_invariant
    memo: dict[tuple[int, ...], tuple[bool, ShedTree | None, int]] = {}
    nodes = 0
    hits = 0

    def canonical(fmasks: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Memo key and the rotation that reaches it from ``fmasks``."""
        if not rotations:
            return fmasks, 0
        best, best_r = fmasks, 0
        for r in range(1, n):
            cand = tuple(sorted(_rotate_mask(m, r, n) for m in fmasks))
            if cand < best:
                best, best_r = cand, r
        return best, best_r

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 8000))

    def solve(fmasks: tuple[int, ...]) -> tuple[bool, ShedTree | None]:
        nonlocal nodes, hits
        nodes += 1
        if deadline is not None and nodes % _BUDGET_PROBE == 0:
            if time.monotonic() > deadline:
                raise _BudgetExceeded
        if not fmasks:
            return True, ShedLeaf("void")
        if fmasks == (0,):
            return True, ShedLeaf("empty-face")
        if len(fmasks) == 1:
            return True, ShedLeaf("simplex")
        key, rot = canonical(fmasks)
        if key in memo:
            hits += 1
            ok, tree, stored_rot = memo[key]
            if ok and (rot or stored_rot):
                tree = _rotate_tree(tree, (stored_rot - rot) % n, n)
            return ok, tree
        verts_any = 0
        verts_all = ~0
        for m in fmasks:
            verts_any |= m
            verts_all &= m
        result: tuple[bool, ShedTree | None] = (False, None)
        for x in _bit_indices(verts_any & ~verts_all):
            xb = 1 << x
            with_x = [m & ~xb for m in fmasks if m & xb]
            without = [m for m in fmasks if not m & xb]
            # deletion stays pure of full dimension iff every trimmed
            # facet lands inside a facet that already avoided x
            if not all(any(t | g == g for g in without) for t in with_x):
                continue
            ok_del, tree_del = solve(tuple(sorted(without)))
            if not ok_del:
                continue
            ok_link, tree_link = solve(tuple(sorted(with_x)))
            if not ok_link:
                continue
            result = (True, ShedNode(x, tree_del, tree_link))
            break
        memo[key] = (result[0], result[1], rot)
        return result

    try:
        ok, tree = solve(root)
    except _BudgetExceeded:
        return CheckOutcome("unknown", None, {
            "nodes": nodes, "memo_hits": hits, "rotations": rotations,
            "elapsed_s": time.monotonic() - start,
            "reason": "budget exhausted",
        })
    stats = {
        "nodes": nodes,
        "memo_hits": hits,
        "rotations": rotations,
        "elapsed_s": time.monotonic() - start,
    }
    return CheckOutcome("yes" if ok else "no", tree if ok else None, stats)


def verify_shed_tree(d: Complex, t: ShedTree) -> bool:
    """Recheck a shed tree from scratch using the generic complex ops.

    Recomputes deletion and link at every node and verifies purity,
    dimension preservation, and the leaf base cases.  Malformed trees
    return ``False`` rather than raising.
    """
    try:
        return _verify_tree(d, t)
    except (ValueError, RecursionError):
        return False


def _verify_tree(d: Complex, t: ShedTree) -> bool:
    if isinstance(t, ShedLeaf):
        if t.kind == "void":
            return d.is_void
        if t.kind == "empty-face":
            return d.facets == ((),)
        if t.kind == "simplex":
            return len(d.facets) == 1
        return False
    if not isinstance(t, ShedNode):
        return False
    if not d.is_pure() or not d.has_face((t.vertex,)):
        return False
    del_ = complexes.deletion(d, t.vertex)
    link_ = complexes.link(d, (t.vertex,))
    if not del_.is_pure() or del_.dim != d.dim or not link_.is_pure():
        return False
    return _verify_tree(del_, t.deletion) and _verify_tree(link_, t.link)
