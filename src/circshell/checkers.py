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

_BUDGET_PROBE = 256  # search steps between deadline checks


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

    A candidate's legality is tested when it is drawn.  Let W_t be the
    witnesses of F_t against the placed facets, and U_t the facets that
    hold all of W_t (the AND of ``holds[w]`` over W_t): t is legal iff
    no placed facet is in U_t.  U_t is cached until W_t changes or t is
    placed.  Placing c can only add a witness to c's ridge neighbours,
    so a child inherits the candidates its parent found illegal, less
    the neighbours whose W_t grew: every other one keeps its U_t and
    meets one more placed facet.  Past the root a facet with no witness
    has U_t = every facet, so that bucket is not read.  Candidates are
    drawn lazily from per-witness-count bitsets, so no node holds a
    candidate list.

    The search is one loop over an explicit path, with no recursion:
    entry i holds the witness bucket being read, the candidates found
    illegal and the undo list of the node that placed ``order[i]``.  The
    prefix is one shared bitset updated in place, the untried part of a
    bucket is reread above ``order[i]`` after a take-back, and an undo
    entry is just a facet index t, whose witness against c is
    ``masks[t] & ~masks[c]`` (ridge neighbours of one size differ in one
    vertex each way).  The clock is read at every ``_BUDGET_PROBE``-th
    node or legality test, so a budget holds inside a long scan.
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

    # nbr[i] = the facets of each ridge of F_i, F_i among them: every
    # other one meets F_i in all but one vertex, and in a pure complex
    # such a pair shares exactly one ridge, so each appears once.
    # holds[1 << v] = the facets containing v, read off one byte row per
    # vertex.
    on_ridge: dict[int, list[int]] = {}
    nbr: list[list[list[int]]] = []
    rows = [bytearray((s + 7) >> 3) for _ in range(d.n)]
    for i, m in enumerate(masks):
        byte, bit = i >> 3, 1 << (i & 7)
        mine = []
        mm = m
        while mm:
            b = mm & -mm
            fs = on_ridge.setdefault(m ^ b, [])
            fs.append(i)
            mine.append(fs)
            rows[b.bit_length() - 1][byte] |= bit
            mm ^= b
        nbr.append(mine)
    del on_ridge  # the search can be long: drop what it does not need
    holds = {1 << v: int.from_bytes(r, "little") for v, r in enumerate(rows)}
    del rows

    k = masks[0].bit_count()
    dead: set[int] = set()
    order: list[int] = []
    # Per facet t: wit[t] = W_t, and ucache[t] = U_t, or 0 when it is
    # not cached (U_t holds t, so it is never 0).  by_count[j] = the
    # unplaced facets with j witnesses.  They change only when a facet
    # is placed, and are undone with it.
    wit = [0] * s
    ucache = [0] * s
    by_count = [(1 << s) - 1] + [0] * k
    on = bytearray(s)  # on[t] = 1 iff t is placed
    nodes = 0
    hits = 0
    tests = 0

    def outcome(verdict: str, **reason) -> CheckOutcome:
        cert = ShellingCertificate(tuple(order)) if verdict == "yes" else None
        return CheckOutcome(verdict, cert, {
            "nodes": nodes, "memo_hits": hits,
            "elapsed_s": time.monotonic() - start, **reason,
        })

    placed = 0  # the facets of the current prefix, updated in place
    illegal = 0  # the candidates found illegal at the current node
    # path[i] = (bucket being read, illegal set, undo list) of the node
    # that placed order[i]
    path: list[tuple[int, int, list[int]]] = []
    while True:
        nodes += 1
        if (deadline is not None and (nodes + tests) % _BUDGET_PROBE == 0
                and time.monotonic() > deadline):
            return outcome("unknown", reason="budget exhausted")
        if len(order) == s:
            return outcome("yes")
        back = placed in dead  # take the parent's last facet back at once
        if back:
            hits += 1
        else:
            # Richest witness set first: the candidate whose constraint
            # is loosest rarely needs undoing.
            j, c = k, -1
        found = False
        while not found:
            if back:
                if not path:  # the root is exhausted
                    return outcome("no")
                j, illegal, undo = path.pop()
                c = order.pop()
                cb = 1 << c
                placed ^= cb
                on[c] = 0
                by_count[j] |= cb
                # each facet in ``undo`` gained its witness against F_c
                for t in undo:
                    tb = 1 << t
                    old = wit[t] ^ (masks[t] & ~masks[c])
                    wit[t] = old
                    ucache[t] = 0
                    i = old.bit_count()
                    by_count[i] ^= tb
                    by_count[i + 1] ^= tb
            # The buckets are as they were when this node was entered, so
            # rereading bucket j above the candidate last tried gives what
            # one read up front would: a stable sort by witness count.
            low = 1 if placed else 0
            rest = (by_count[j] & ~illegal) >> (c + 1)
            while True:
                while not rest and j > low:
                    j, c = j - 1, -1
                    rest = by_count[j] & ~illegal
                if not rest:
                    break
                step = (rest & -rest).bit_length()
                c += step
                rest >>= step
                if not j:  # the root, where every facet is legal
                    found = True
                    break
                tests += 1
                if (deadline is not None and (nodes + tests) % _BUDGET_PROBE == 0
                        and time.monotonic() > deadline):
                    return outcome("unknown", reason="budget exhausted")
                u = ucache[c]
                if not u:
                    u = -1
                    ws = wit[c]
                    while ws:
                        b = ws & -ws
                        u &= holds[b]
                        ws ^= b
                    ucache[c] = u
                if not placed & u:
                    found = True
                    break
                illegal |= 1 << c
            if not found:
                dead.add(placed)
                back = True
        cb = 1 << c
        placed |= cb
        on[c] = 1
        by_count[j] ^= cb
        ucache[c] = 0
        undo = []
        path.append((j, illegal, undo))
        order.append(c)
        mc = masks[c]
        for fs in nbr[c]:
            for t in fs:
                if on[t]:  # c itself, or an earlier facet
                    continue
                old = wit[t]
                w = masks[t] & ~mc
                if not old & w:
                    undo.append(t)
                    wit[t] = old | w
                    ucache[t] = 0
                    tb = 1 << t
                    i = old.bit_count()
                    by_count[i] ^= tb
                    by_count[i + 1] ^= tb
                    if illegal & tb:  # t may be legal now
                        illegal ^= tb


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


def _cone_tree(t: ShedTree) -> ShedTree:
    """The base's shed tree ``t`` as a tree of a cone over that base:
    every ``empty-face`` leaf becomes a ``simplex`` leaf (the apex), on
    the same explicit stack as ``_map_tree``."""
    done: list[ShedTree] = []
    todo: list[ShedTree | int] = [t]
    while todo:
        u = todo.pop()
        if type(u) is int:
            link = done.pop()
            done[-1] = ShedNode(u, done[-1], link)
            continue
        while isinstance(u, ShedNode):
            todo += (u.vertex, u.link)
            u = u.deletion
        done.append(_SIMPLEX if u.kind == "empty-face" else u)
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
    memo key and map, whether it is a cone, untried candidates, the
    candidate being tried and its deletion tree once found) lives in
    locals, its ancestors on an explicit path.  Every node, the root and
    the leaves of at most one facet included, goes through one entry
    step that counts it and reads the clock at every
    ``_BUDGET_PROBE``-th node.

    A pure vertex decomposable complex is shellable, so a root whose
    ridge graph is disconnected (``Complex.ridge_connected``) is refused
    with no search (``nodes == 0``), as ``shelling`` refuses it.

    Cones.  Each node ANDs its facets, in the pass that ORs them, into
    its apex A: the vertices in every facet.  The node is a cone when
    A != 0, and its base is the node with A dropped from every facet.

    Lemma (Provan-Billera 1980).  A pure cone D = A * B over a base B is
    vertex decomposable iff B is, and a shed tree of B becomes one of D
    when each empty-face leaf becomes a simplex leaf (``_cone_tree``).

    An apex a never sheds: the faces of D avoiding a are the F - a, all
    smaller than the facets, so its deletion is not pure of D's size.
    For x in B, deletion and link commute with the join by A: del_D(x) =
    A * del_B(x) and lk_D(x) = A * lk_B(x), and a ridge (A + F) - x lies
    in a second facet iff F - x does, so x sheds from D iff it sheds from
    B.  The leaf kinds carry over: A * void is void, A * {()} is the
    simplex A, and A joined to a simplex is a simplex; D, holding A, is
    never {()}.  Induction on the vertices of B gives both directions.

    Memo.  The key is taken on the base, so a cone and its base share
    one.  When the complex is flag (see ``Complex.is_flag``) every node
    is the subcomplex induced on its vertex set W, its apex the vertices
    of W with no neighbour in W, and its base the node on W - A; so the
    key is the base's vertex mask.  Other complexes are keyed by their
    base's sorted facet family.  When a flag complex is also invariant
    under the rotation v -> v + 1 (mod n), as every circulant's
    independence complex is, the key is the least image of the base's
    vertex mask under the 2n maps v -> +-v + r (mod n)
    (``complexes._least_image``), and a memo hit maps the stored tree by
    the affine map between the two bases, which a shed tree's vertices
    all lie in; ``stats["rotations"]`` says whether that memo ran.  No
    reflection check is needed: a flag rotation-invariant complex is Ind
    of the circulant G of its non-edges, and every circulant C_n(S)
    equals C_n(-S), so v -> -v is an automorphism of G too.
    Decomposability does not change under relabelling.

    Each entry records whether its node was a cone.  A stored ``no``
    serves every node with its key, and a stored tree a node of its own
    kind; a base's tree serves a cone through ``_cone_tree``.  A cone's
    tree is never handed to a base, since its simplex leaves may stand
    for {()} there: that node is searched, and its entry replaces the
    cone's.  By the lemma every memo hit gives the node's own verdict.

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
    # key -> (tree or None for no, map s and r, whether the node was a cone)
    memo: dict[object, tuple[ShedTree | None, int, int, bool]] = {}
    nodes = 0
    hits = 0
    forced = 0

    # The innermost open node: its facets ``top`` (None until the root
    # opens), memo key and map, whether it is a cone, untried candidates,
    # the candidate ``xb`` being tried and, once found, that candidate's
    # deletion tree.
    top = key = sign = shift = cone = cands = xb = tree_del = None
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
            apex = -1
            for m in fmasks:
                verts |= m
                apex &= m
            if rotations:
                # key, and the map v -> s*v + r taking this node's base to it
                k, s, r = _least_image(verts ^ apex, n, True)
            elif flag:
                k, s, r = verts ^ apex, 1, 0
            else:
                k, s, r = tuple(sorted(m ^ apex for m in fmasks)), 1, 0
            got = memo.get(k)
            # a cone's tree does not serve a base (see the docstring)
            if got is not None and (got[0] is None or apex or not got[3]):
                hits += 1
                tree, s0, r0, was_cone = got
                if tree is not None and (s0, r0) != (s, r):
                    # the stored node's map, then the inverse of this
                    # node's (u -> s*(u - r)): v -> s0*s*v + s*(r0 - r)
                    tree = _map_tree(tree, s0 * s, s * (r0 - r) % n, n)
                if tree is not None and apex and not was_cone:
                    tree = _cone_tree(tree)
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
                    path.append((top, key, sign, shift, cone, cands, xb, tree_del))
                top, key, sign, shift, cone, cands = fmasks, k, s, r, apex != 0, c
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
            memo[key] = (tree, sign, shift, cone)
            if path:
                top, key, sign, shift, cone, cands, xb, tree_del = path.pop()
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
