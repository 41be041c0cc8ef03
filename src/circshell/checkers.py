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
import time
from dataclasses import dataclass
from typing import Union

from .complexes import Complex, _least_image, _near
from .graphs import _is_int

_BUDGET_PROBE = 256  # nodes between deadline checks


class NotPureError(ValueError):
    """Raised when a pure-only checker receives a non-pure complex."""


@dataclass(frozen=True)
class ShellingCertificate:
    """A facet order, as indices into the complex's canonical facet list."""

    order: tuple[int, ...]

    def to_obj(self) -> dict:
        return {"order": list(self.order)}

    @staticmethod
    def from_obj(obj: dict) -> "ShellingCertificate":
        order = obj.get("order") if isinstance(obj, dict) else None
        if not isinstance(order, list) or not all(map(_is_int, order)):
            raise ValueError("a shelling order needs an 'order' list of int facet indices")
        return ShellingCertificate(tuple(order))


@dataclass(frozen=True)
class ShedLeaf:
    """Terminal witness: a simplex, the void complex, or {()}."""

    kind: str  # "simplex" | "void" | "empty-face"

    def to_obj(self) -> dict:
        return {"leaf": self.kind}


# the VD search's leaves; a leaf carries nothing but its kind
_VOID = ShedLeaf("void")
_SIMPLEX = ShedLeaf("simplex")
_EMPTY_FACE = ShedLeaf("empty-face")


def _leaf_of(fmasks: list[int]) -> ShedLeaf:
    """The leaf witnessing a family of at most one facet."""
    if not fmasks:
        return _VOID
    return _SIMPLEX if fmasks[0] else _EMPTY_FACE


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
    if not isinstance(obj, dict):
        raise ValueError(f"a shed tree node must be a JSON object, got {obj!r}")
    if "leaf" in obj:
        kind = obj["leaf"]
        if kind not in ("simplex", "void", "empty-face"):
            raise ValueError(f"unknown leaf kind {kind!r}")
        return ShedLeaf(kind)
    if not obj.keys() >= {"shed", "del", "link"}:
        raise ValueError("a shed tree node needs the keys 'shed', 'del' and 'link' "
                         f"(a leaf needs 'leaf'), got {sorted(obj)}")
    if not _is_int(obj["shed"]):
        raise ValueError(f"shed vertex must be an int, got {obj['shed']!r}")
    return ShedNode(
        obj["shed"],
        shed_tree_from_obj(obj["del"]),
        shed_tree_from_obj(obj["link"]),
    )


def certificate_to_json(cert: Union[ShellingCertificate, ShedTree]) -> str:
    return json.dumps(cert.to_obj())


def certificate_from_json(text: str) -> Union[ShellingCertificate, ShedTree]:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a certificate must be a JSON object")
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
        sizes = sorted({m.bit_count() for m in d.facet_masks})
        raise NotPureError(f"complex is not pure: facet sizes {sizes}")


def _ridge_refusal(start: float, **stats) -> CheckOutcome:
    """``no`` for a pure root whose ridge graph is disconnected
    (``Complex.ridge_connected``), with no node searched; ``stats`` are
    a search's own fields beyond nodes and memo hits."""
    return CheckOutcome("no", None, {
        "nodes": 0, "memo_hits": 0, **stats,
        "elapsed_s": time.monotonic() - start,
        "reason": "ridge graph disconnected",
    })


# ---------------------------------------------------------------------------
# shellability
# ---------------------------------------------------------------------------


def shelling(d: Complex, *, budget_s: float | None = None) -> CheckOutcome:
    """Search for a shelling order of a pure complex.

    Backtracks over prefixes, placing one facet at a time; a facet may
    be placed iff every already-placed facet sees a singleton-difference
    witness among the placed ones.  Dead prefix *sets* are memoised.
    The first facet ranges over the canonical order; later candidates
    are tried richest witness set first, ties in canonical order.  Each
    facet after the first meets an earlier one in a ridge, so a root
    whose ridge graph is disconnected (``Complex.ridge_connected``) is
    refused with no search (``nodes == 0``).

    The legal set is kept from node to node rather than rescanned:
    placing c can only add a witness to c's ridge neighbours, so every
    other candidate stays legal iff one of its witnesses lies outside c.
    A node costs one OR per vertex outside c and one update per ridge
    neighbour of c, each on an s-bit integer for s facets, and
    candidates are drawn lazily from per-witness-count bitsets, so no
    node holds a candidate list.

    The search is one loop over an explicit path, with no recursion:
    entry i holds the legal set, the witness bucket being read and the
    undo list of the node that placed ``order[i]``.  The legal set is
    the only s-bit integer an entry keeps: the prefix is one shared
    bitset updated in place, the untried part of a bucket is reread
    above ``order[i]`` after a take-back, and an undo entry is just a
    facet index t, whose witness against c is ``masks[t] & ~masks[c]``
    (ridge neighbours of one size differ in one vertex each way).
    """
    _require_pure(d)
    start = time.monotonic()
    if not d.ridge_connected:
        return _ridge_refusal(start)
    masks = d.facet_masks
    s = len(masks)
    if s <= 1:
        cert = ShellingCertificate(tuple(range(s)))
        return CheckOutcome("yes", cert, {"nodes": 0, "memo_hits": 0,
                                          "elapsed_s": 0.0})
    deadline = start + budget_s if budget_s is not None else None

    # ridge data: nbr[i] = bitmask of facets meeting F_i in all but one
    # vertex.  In a pure complex such a pair shares exactly one ridge (a
    # facet minus one vertex), so grouping facets by ridge finds each
    # pair once.
    on_ridge: dict[int, list[int]] = {}
    on_vertex: dict[int, list[int]] = {}  # 1 << v -> facets holding v
    for i, m in enumerate(masks):
        mm = m
        while mm:
            b = mm & -mm
            on_ridge.setdefault(m ^ b, []).append(i)
            on_vertex.setdefault(b, []).append(i)
            mm ^= b
    nbr = [0] * s
    for fs in on_ridge.values():
        for a, i in enumerate(fs):
            for j in fs[a + 1:]:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    del on_ridge  # the search can be long: drop what it does not need

    full = (1 << s) - 1
    # cover[1 << v] = facets NOT containing v: placing a singleton
    # witness v satisfies exactly these earlier facets.  Each facet
    # clears its bit in the rows of its own k vertices: s * k operations
    # on s-bit integers, where testing every facet for every vertex
    # takes n * s.
    cover = {}
    union = 0
    for b, fs in on_vertex.items():
        c = full
        for i in fs:
            c ^= 1 << i
        cover[b] = c
        union |= b
    del on_vertex

    k = masks[0].bit_count()
    dead: set[int] = set()
    order: list[int] = []
    # Per facet c: n_masks[c] = its witnesses (singleton diffs against
    # placed neighbours) and cov[c] = the union of cover[w] over them.
    # has_w[w] = facets with witness w, by_count[j] = facets with j
    # witnesses.  All four change only when a facet is placed, and are
    # undone with it.
    n_masks = [0] * s
    cov = [0] * s
    has_w = dict.fromkeys(cover, 0)
    by_count = [full] + [0] * k
    nodes = 0
    hits = 0

    placed = 0  # the facets of the current prefix, updated in place
    # path[i] = (legal set, bucket being read, undo list) of the node
    # that placed order[i]; ``legal`` is the legal set of the node being
    # entered
    path: list[tuple[int, int, list[int]]] = []
    legal = full
    while True:
        nodes += 1
        if deadline is not None and nodes % _BUDGET_PROBE == 0:
            if time.monotonic() > deadline:
                return CheckOutcome("unknown", None, {
                    "nodes": nodes, "memo_hits": hits,
                    "elapsed_s": time.monotonic() - start,
                    "reason": "budget exhausted",
                })
        if placed == full:
            break
        back = placed in dead  # take the parent's last facet back at once
        if back:
            hits += 1
        else:
            # Richest witness set first: the candidate whose constraint
            # is loosest rarely needs undoing.
            j, c = k, -1
        while True:
            if back:
                if not path:  # the root is exhausted
                    return CheckOutcome("no", None, {
                        "nodes": nodes, "memo_hits": hits,
                        "elapsed_s": time.monotonic() - start,
                    })
                legal, j, undo = path.pop()
                c = order.pop()
                placed ^= 1 << c
                # each facet in ``undo`` gained its witness against F_c
                for t in undo:
                    tb = 1 << t
                    w = masks[t] & ~masks[c]
                    old = n_masks[t] ^ w
                    n_masks[t] = old
                    has_w[w] ^= tb
                    i = old.bit_count()
                    by_count[i] ^= tb
                    by_count[i + 1] ^= tb
                    cov[t] = 0
                    while old:
                        b = old & -old
                        cov[t] |= cover[b]
                        old ^= b
            # The buckets are as they were when this node was entered, so
            # rereading bucket j above the candidate last tried gives what
            # one read up front would: a stable sort by witness count.
            rest = (by_count[j] & legal) >> (c + 1)
            while not rest and j:
                j, c = j - 1, -1
                rest = by_count[j] & legal
            if rest:
                break
            dead.add(placed)
            back = True
        c += (rest & -rest).bit_length()
        placed |= 1 << c
        # a non-neighbour keeps its witnesses, so it stays legal iff one
        # of them lies outside F_c
        child = 0
        rest = union & ~masks[c]  # spent to 0 below
        while rest:
            w = rest & -rest
            child |= has_w[w]
            rest ^= w
        child &= legal & ~nbr[c]
        undo = []
        todo = nbr[c] & ~placed
        while todo:
            tb = todo & -todo
            todo ^= tb
            t = tb.bit_length() - 1
            old = n_masks[t]
            w = masks[t] & ~masks[c]
            if not old & w:
                undo.append(t)
                n_masks[t] = old | w
                cov[t] |= cover[w]
                has_w[w] |= tb
                i = old.bit_count()
                by_count[i] ^= tb
                by_count[i + 1] ^= tb
            if not placed & ~cov[t]:
                child |= tb
        path.append((legal, j, undo))
        order.append(c)
        legal = child
    return CheckOutcome("yes", ShellingCertificate(tuple(order)), {
        "nodes": nodes, "memo_hits": hits,
        "elapsed_s": time.monotonic() - start,
    })


def verify_shelling(d: Complex, cert: ShellingCertificate) -> bool:
    """Check the shelling condition for the certified order.

    Independent of the search.  Vertex v of F_i is a witness iff the
    ridge F_i - v lies in an earlier facet, i.e. F_i \\ F_j = {v} for
    some j < i.  The order fails at F_i iff some earlier facet contains
    every witness: the AND of the witnesses' bitsets of earlier
    positions is nonzero.  One pass in order, O(s k) ridge lookups and
    ANDs of s-bit integers.  Malformed permutations are an error.
    """
    _require_pure(d)
    masks = d.facet_masks
    s = len(masks)
    if sorted(cert.order) != list(range(s)):
        raise ValueError(f"certificate is not a permutation of 0..{s - 1}")
    ridges: set[int] = set()  # ridges of the facets placed so far
    at = [0] * d.n  # at[v] = positions placed so far whose facet has v
    for pos, i in enumerate(cert.order):
        m = masks[i]
        bit = 1 << pos
        common = bit - 1  # earlier facets holding every witness
        mm = m
        while mm:
            b = mm & -mm
            mm ^= b
            v = b.bit_length() - 1
            r = m ^ b
            if r in ridges:
                common &= at[v]
            else:
                ridges.add(r)
            at[v] |= bit  # ``common`` never holds this position's bit
        if common:
            return False
    return True


# ---------------------------------------------------------------------------
# vertex decomposability
# ---------------------------------------------------------------------------


def _map_tree(t: ShedTree, s: int, r: int, n: int) -> ShedTree:
    """``t`` with every shed vertex ``v`` moved to ``s*v + r (mod n)``,
    built on an explicit stack: a moved vertex, popped once the two
    subtrees pushed above it are built, joins them into a node."""
    done: list[ShedTree] = []  # built subtrees, each deletion below its link
    todo: list[ShedTree | int] = [t]
    while todo:
        u = todo.pop()
        if type(u) is int:
            link = done.pop()
            done[-1] = ShedNode(u, done[-1], link)
            continue
        while isinstance(u, ShedNode):  # down the deletions, stacking links
            todo += ((s * u.vertex + r) % n, u.link)
            u = u.deletion
        done.append(u)
    return done[0]


def _closed_rows(n: int, fmasks: list[int]) -> list[int]:
    """Closed neighbourhoods N[v] in the graph a flag complex is Ind of,
    on the vertices of its facets: ``u ~ v`` iff no facet holds both."""
    verts = 0
    for m in fmasks:
        verts |= m
    return [verts & ~m | 1 << v for v, m in enumerate(_near(n, fmasks))]


def vertex_decomposition(
    d: Complex, *, budget_s: float | None = None
) -> CheckOutcome:
    """Search for a shed tree witnessing pure vertex decomposability.

    Every node of the search is pure: the root is checked, a shedding
    vertex leaves a pure deletion, and a vertex link of a pure complex
    is pure.  So x sheds iff, for each facet F containing x, the ridge
    F - x lies in a second facet (which then avoids x); one pass that
    counts each facet's ridges finds every vertex that fails.
    Candidates are tried in ascending label order.

    The search is one loop, as ``shelling`` is, so a shed tree may be as
    deep as the complex has vertices.  The innermost open node (facets,
    memo key and map, untried candidates, the candidate being tried and
    its deletion tree once found) lives in locals, its ancestors on an
    explicit path.  Every node, the root and the leaves of at most one
    facet included, goes through one entry step that counts it and reads
    the clock at every ``_BUDGET_PROBE``-th node.

    A pure vertex decomposable complex is shellable, so a root whose
    ridge graph is disconnected (``Complex.ridge_connected``) is refused
    with no search (``nodes == 0``), as ``shelling`` refuses it.

    When the complex is flag (see ``Complex.is_flag``) every node is the
    subcomplex induced on its vertex set, so subcomplexes are memoised
    by that vertex mask; other complexes are memoised by their sorted
    facet family.  When a flag complex is also invariant under the
    rotation v -> v + 1 (mod n), as every circulant's independence
    complex is, the key is the least image of the vertex mask under the
    2n maps v -> +-v + r (mod n) (``complexes._least_image``), and a memo
    hit maps the stored tree by the affine map between the two nodes;
    ``stats["rotations"]`` says whether that memo ran.  No reflection
    check is needed: a flag rotation-invariant complex is Ind of the
    circulant G of its non-edges, and every circulant C_n(S) equals
    C_n(-S), so v -> -v is an automorphism of G too.  Decomposability
    does not change under relabelling, so every memo gives the same
    verdict.

    Forced vertices.  A flag root is Ind(G) of the graph G of the pairs
    no facet holds (built once), and the node on vertex mask W is
    Ind(G[W]).  One pass over the closed rows N_W[v] = N(v) & W | v, in
    ascending label order, stops at the first repeated row (a closed
    twin; the later twin is forced) or the first row of two bits (a
    pendant; its neighbour is forced, never the pendant itself).  A node
    with a forced vertex x tries x alone and skips the ridge pass, since
    x sheds; if the deletion or link of x is not decomposable, neither is
    the node.  ``stats["forced"]`` counts these nodes.  Other nodes, and
    every non-flag root, try all candidates.  The cut is sound by the
    lemma below (BW: Björner-Wachs vertex decomposability, which for a
    pure complex coincides with the pure one searched here).

    Lemma.  Let Ind(G) be pure, and let y != x with either
    N[y] = N[x] (T) or N[y] = {x, y} (P).  Then Ind(G) is VD iff
    Ind(G - x) and Ind(G - N[x]) are VD.

    x sheds.  Let S be independent in G - N[x].  Then S + y is
    independent, as N(y) lies in N[x] and y is not in S; and y is in
    N(x), so no face of the link of x is a facet of its deletion.  In a
    pure complex that makes each ridge F - x (x in F) a face, but no
    facet, of the deletion, so it lies in a second facet of size |F|:
    x passes the ridge test, which is why a forced node skips it.

    If.  This is the definition of VD.

    Only if.  Links of VD complexes are VD (Provan-Billera 1980), which
    covers Ind(G - N[x]).  For Ind(G - x), induct on |V| over the first
    shed vertex z of a shed tree of G (there is one: x ~ y, so Ind(G) is
    no simplex).
      - z = x: there is nothing to prove.
      - z = y: under (T), swapping x and y is an automorphism of G, so
        G - x is isomorphic to G - y.  Under (P), y is isolated in G - x,
        so Ind(G - x) = y * Ind(G - N[y]), a cone over a VD complex.
      - z not in {x, y}: the pair survives in G - z.  If x is not in
        N[z], it also survives in G - N[z]: y in N[z] would force z in
        N[y], which lies in N[x].  By induction, (G - z) - x is VD, and
        (G - x) - N[z] is either G - N[z] or (G - N[z]) - x, both VD.
    z sheds in G - x.  Let S be independent in G - x - N[z].  Some w in
    N(z) extends S in G.  If w = x, then S + y is independent.  Either
    y is in N(z), or z's shedding extends S + y by some w' in N(z), and
    w' != x because x ~ y.
    """
    _require_pure(d)
    start = time.monotonic()
    deadline = start + budget_s if budget_s is not None else None
    n = d.n
    flag = d.is_flag
    rotations = flag and d.rotation_invariant
    if not d.ridge_connected:
        return _ridge_refusal(start, forced=0, rotations=rotations)
    root = list(d.facet_masks)
    closed = _closed_rows(n, root) if flag else None
    memo: dict[object, tuple[ShedTree | None, int, int]] = {}
    nodes = 0
    hits = 0
    forced = 0

    # The innermost open node: its facets ``top`` (None until the root
    # opens), memo key and map, untried candidates, the candidate ``xb``
    # being tried and, once found, that candidate's deletion tree.
    top = key = sign = shift = cands = xb = tree_del = None
    path: list[tuple] = []  # the open ancestors of ``top``, outermost first
    fmasks = root  # the node being entered
    while True:
        nodes += 1
        if deadline is not None and nodes % _BUDGET_PROBE == 0:
            if time.monotonic() > deadline:
                return CheckOutcome("unknown", None, {
                    "nodes": nodes, "memo_hits": hits, "forced": forced,
                    "rotations": rotations,
                    "elapsed_s": time.monotonic() - start,
                    "reason": "budget exhausted",
                })
        if len(fmasks) <= 1:
            tree = _leaf_of(fmasks)
        else:
            verts = 0
            for m in fmasks:
                verts |= m
            if rotations:
                # key, and the map v -> s*v + r taking this node to it
                k, s, r = _least_image(verts, n, True)
            elif flag:
                k, s, r = verts, 1, 0
            else:
                k, s, r = tuple(sorted(fmasks)), 1, 0
            got = memo.get(k)
            if got is not None:
                hits += 1
                tree, s0, r0 = got
                if tree is not None and (s0, r0) != (s, r):
                    # the stored node's map, then the inverse of this
                    # node's (u -> s*(u - r)): v -> s0*s*v + s*(r0 - r)
                    tree = _map_tree(tree, s0 * s, s * (r0 - r) % n, n)
            else:
                c = 0
                if closed is not None:
                    # a closed twin (a repeated row of G[W]) or a pendant's
                    # neighbour (a row of two bits) sheds, and is forced
                    rows: set[int] = set()
                    w = verts
                    while w:
                        vb = w & -w
                        w ^= vb
                        row = closed[vb.bit_length() - 1] & verts
                        if row in rows:
                            c = vb
                            break
                        if row.bit_count() == 2:
                            c = row ^ vb
                            break
                        rows.add(row)
                if c:
                    forced += 1
                else:
                    # lone[ridge] = the vertex F - ridge when the ridge
                    # lies in one facet F only (that vertex cannot shed),
                    # 0 when it lies in two or more
                    lone: dict[int, int] = {}
                    for m in fmasks:
                        mm = m
                        while mm:
                            b = mm & -mm
                            ridge = m ^ b
                            lone[ridge] = 0 if ridge in lone else b
                            mm ^= b
                    stuck = 0
                    for b in lone.values():
                        stuck |= b
                    c = verts & ~stuck
                if top is not None:
                    path.append((top, key, sign, shift, cands, xb, tree_del))
                top, key, sign, shift, cands = fmasks, k, s, r, c
                tree = None  # so the first candidate is tried below
        # Hand ``tree`` (a shed tree, or None for no) to the open nodes,
        # until one of them has a node to enter.
        while True:
            if top is None:  # ``tree`` settles the root
                return CheckOutcome("no" if tree is None else "yes", tree, {
                    "nodes": nodes, "memo_hits": hits, "forced": forced,
                    "rotations": rotations,
                    "elapsed_s": time.monotonic() - start,
                })
            if tree is not None:
                if tree_del is None:  # a deletion tree: enter the link
                    tree_del = tree
                    fmasks = [m ^ xb for m in top if m & xb]
                    break
                tree = ShedNode(xb.bit_length() - 1, tree_del, tree)
            elif cands:  # the next candidate, in ascending label order
                xb = cands & -cands
                cands ^= xb
                tree_del = None
                fmasks = [m for m in top if not m & xb]
                break
            memo[key] = (tree, sign, shift)
            if path:
                top, key, sign, shift, cands, xb, tree_del = path.pop()
            else:
                top = None


def verify_shed_tree(d: Complex, t: ShedTree) -> bool:
    """Recheck a shed tree from scratch against Provan-Billera's definition.

    A non-pure complex is rejected.  At every node the shed vertex must
    lie in a facet and the deletion must be pure of the node's facet
    size; every leaf must match its family.  The walk
    (``_walk_shed_tree``) runs once, as one loop over an explicit stack
    of plain lists of facet bitmasks, so no tree is too deep for it; it
    shares no code with the search, and also reads off the order that
    ``shelling_from_shed_tree`` returns.  Malformed trees return
    ``False`` rather than raising.
    """
    return _walk_shed_tree(d, t) is not None


def shelling_from_shed_tree(
    d: Complex, t: ShedTree
) -> ShellingCertificate | None:
    """The shelling order a shed tree implies (Provan-Billera 1980), or
    ``None`` when ``verify_shed_tree`` rejects the tree.

    If x sheds from a pure complex, a shelling of its deletion followed
    by x joined to each facet of a shelling of its link, in that order,
    shells the complex; a simplex or {()} leaf gives its one facet and
    the void leaf none.  The order is read off during the same walk that
    checks the tree, and, like any certificate, counts only once
    ``verify_shelling`` accepts it.
    """
    order = _walk_shed_tree(d, t)
    if order is None:
        return None
    index = {m: i for i, m in enumerate(d.facet_masks)}
    return ShellingCertificate(tuple(index[m] for m in order))


def _walk_shed_tree(d: Complex, t: ShedTree) -> list[int] | None:
    """The facets of ``d`` in the order the shed tree ``t`` gives, or
    ``None`` when ``t`` is not a shed tree of ``d`` (a non-pure complex
    has none).  One loop: a node goes on to its deletion and stacks its
    link, so leaves are met in the order of the recursive definition."""
    family = list(d.facet_masks)
    if len({m.bit_count() for m in family}) > 1:
        return None
    out: list[int] = []
    # ``family``: a pure facet family of the node ``t``; ``above``: the
    # vertices shed on the way down to it through links, joined with each
    # facet of a leaf as it is appended to ``out``; ``links``: the (family,
    # tree, above) of each link still to walk
    above = 0
    links: list[tuple[list[int], ShedTree, int]] = []
    try:
        while True:
            if isinstance(t, ShedLeaf):
                kind = t.kind
                if kind == "void":
                    ok = not family
                elif kind == "empty-face":
                    ok = family == [0]
                elif kind == "simplex":
                    ok = len(family) == 1
                else:
                    return None
                if not ok:
                    return None
                if family:  # one facet at most
                    out.append(family[0] | above)
                if not links:
                    return out
                family, t, above = links.pop()
                continue
            if not isinstance(t, ShedNode) or not 0 <= t.vertex < d.n:
                return None
            xb = 1 << t.vertex
            # The faces avoiding x are the subsets of the facets minus x, so
            # the deletion is pure of the node's size iff every F - x lies in
            # a facet avoiding x, and its facets are then exactly the facets
            # avoiding x: a pure subfamily, as is the link, which drops x from
            # every facet holding it.  So purity needs no check below the root.
            avoid: list[int] = []
            link_: list[int] = []
            for m in family:
                if m & xb:
                    link_.append(m ^ xb)
                else:
                    avoid.append(m)
            if not link_:
                return None
            for r in link_:
                for m in avoid:
                    if r | m == m:
                        break
                else:
                    return None
            links.append((link_, t.link, above | xb))
            family, t = avoid, t.deletion
    except TypeError:  # a shed vertex that is no int
        return None
