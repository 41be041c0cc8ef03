"""Independent reference implementations used to cross-check the library.

Everything here is written for obviousness, not speed: plain subset
enumeration and exact Fraction arithmetic.  Test expectations derived
from these oracles are frozen into the test files as literals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from circshell import Graph
from circshell.checkers import ShedLeaf, ShedNode


def independent_sets(g: Graph) -> list[frozenset[int]]:
    """Every independent set of ``g`` by checking all vertex subsets."""
    out = []
    for r in range(g.n + 1):
        for sub in combinations(range(g.n), r):
            if not any(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                out.append(frozenset(sub))
    return out


def lex_product_naive(g: Graph, h: Graph) -> Graph:
    """G[H] from edge lists: ``(w,x) ~ (y,z)`` iff ``w ~ y`` in G, or
    ``w == y`` and ``x ~ z`` in H; vertex ``(i, j)`` is ``i + g.n * j``."""
    edges = []
    for a, b in g.edges:
        for x in range(h.n):
            for z in range(h.n):
                edges.append((a + g.n * x, b + g.n * z))
    for x, z in h.edges:
        for i in range(g.n):
            edges.append((i + g.n * x, i + g.n * z))
    return Graph.from_edges(g.n * h.n, edges)


def isomorphic_naive(g: Graph, h: Graph) -> bool:
    """Whether some bijection of the vertices maps ``g``'s edge set onto
    ``h``'s, trying every bijection."""
    if g.n != h.n:
        return False
    want = {frozenset(e) for e in h.edges}
    return any({frozenset((p[a], p[b])) for a, b in g.edges} == want
               for p in permutations(range(g.n)))


def expansion_naive(g: Graph, sizes) -> Graph:
    """The clique expansion from edge lists: blob ``i`` holds the
    ``sizes[i]`` vertices after blobs ``0 .. i-1``, each blob is a clique
    and blobs of adjacent vertices are completely joined."""
    starts = [sum(sizes[:i]) for i in range(g.n)]
    blobs = [range(o, o + s) for o, s in zip(starts, sizes)]
    edges = [e for blob in blobs for e in combinations(blob, 2)]
    edges += [(a, b) for i, j in g.edges for a in blobs[i] for b in blobs[j]]
    return Graph.from_edges(sum(sizes), edges)


def maximal_independent_sets(g: Graph) -> set[frozenset[int]]:
    """Maximal independent sets via pairwise containment filtering."""
    sets = independent_sets(g)
    return {s for s in sets
            if not any(s < t for t in sets)}


def alpha_naive(g: Graph) -> int:
    """Independence number by exhaustive subset enumeration."""
    return max(len(s) for s in independent_sets(g))


def alpha_degree_bb(n: int, adj: list[int]) -> int:
    """Independence number by the earlier kernel's branch and bound.

    A candidate with at most one candidate neighbour is taken without
    branching; otherwise the search branches on a maximum-degree
    candidate, pruned only by ``chosen + popcount(candidates)``.  Fast
    enough for products of up to 25 vertices, where ``alpha_naive``'s
    subset enumeration is not.
    """
    best = 0
    # stack of (candidate-set mask, chosen count)
    stack = [((1 << n) - 1, 0)]
    while stack:
        avail, size = stack.pop()
        while True:
            if size + avail.bit_count() <= best:
                break
            if not avail:
                best = size
                break
            # reduce the first vertex of degree <= 1, else find one of
            # maximum degree to branch on
            v, vdeg = -1, -1
            m = avail
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                d = (adj[u] & avail).bit_count()
                if d <= 1:
                    avail &= ~(low | adj[u])
                    size += 1
                    break
                if d > vdeg:
                    v, vdeg = u, d
            else:
                vbit = 1 << v
                # exclude v now; defer the include-v branch
                stack.append((avail & ~(vbit | adj[v]), size + 1))
                avail &= ~vbit
    return best


def faces_naive(facets: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """All faces of a complex given by facets, the empty face included."""
    out: set[tuple[int, ...]] = set()
    for f in facets:
        for r in range(len(f) + 1):
            out.update(combinations(f, r))
    return out


def is_shelling_order(order) -> bool:
    """Whether the facet sequence ``order`` is a shelling.

    Textbook condition: for each i > 1, the faces F_j ∩ F_i (j < i)
    generate a complex pure of dimension dim F_i - 1, i.e. every
    maximal one among them has |F_i| - 1 vertices.
    """
    for i in range(1, len(order)):
        meets = {frozenset(order[i]) & frozenset(f) for f in order[:i]}
        if any(len(m) != len(order[i]) - 1 for m in meets
               if not any(m < other for other in meets)):
            return False
    return True


def shellable_naive(facets: tuple[tuple[int, ...], ...]) -> bool:
    """Shellability of a pure complex by trying every facet order."""
    return any(is_shelling_order(order) for order in permutations(facets))


def vd_naive(facets) -> bool:
    """Pure vertex decomposability straight from Provan-Billera's definition.

    A pure complex is vertex decomposable if it is a simplex (the void
    complex and {()} included) or some vertex x has a deletion pure of
    the same dimension and both deletion and link vertex decomposable.
    Faces are frozensets; the deletion's facets are found by discarding
    every face contained in another.  No memo, no shortcut.
    """
    fs = {frozenset(f) for f in facets}
    if len(fs) <= 1:
        return True
    size = len(next(iter(fs)))
    for x in set().union(*fs):
        trimmed = {f - {x} for f in fs}
        deletion = {f for f in trimmed if not any(f < g for g in trimmed)}
        if any(len(f) != size for f in deletion):
            continue
        link = {f - {x} for f in fs if x in f}
        if vd_naive(deletion) and vd_naive(link):
            return True
    return False


def ridge_connected_naive(facets) -> bool:
    """Whether the facets are connected when two are adjacent iff they
    share all but one vertex of each, by a breadth-first search over
    frozensets.  No facets, or one, count as connected."""
    fs = [frozenset(f) for f in facets]
    seen = {0} if fs else set()
    frontier = list(seen)
    while frontier:
        nxt = []
        for i in frontier:
            for j, g in enumerate(fs):
                if j not in seen and len(fs[i] & g) == len(g) - 1 == len(fs[i]) - 1:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == len(fs)


def shed_tree_ok_naive(facets, t) -> bool:
    """Whether ``t`` is a shed tree of the complex with these facets,
    straight from Provan-Billera's definition on frozensets, as
    ``vd_naive`` works.

    A leaf must name the complex: void (no faces), the empty face alone,
    or a simplex (one facet).  A node's complex must be pure and its
    vertex x must lie in a facet; the deletion (the maximal sets among
    the F - x) must be pure of the same dimension and the link (the F - x
    with x in F) pure, and the subtrees must be shed trees of them.
    Malformed trees are rejected rather than raising.
    """
    fs = {frozenset(f) for f in facets}
    if isinstance(t, ShedLeaf):
        if t.kind == "void":
            return not fs
        if t.kind == "empty-face":
            return fs == {frozenset()}
        if t.kind == "simplex":
            return len(fs) == 1
        return False
    if not isinstance(t, ShedNode):
        return False
    x = t.vertex
    sizes = {len(f) for f in fs}
    if len(sizes) != 1 or not any(x in f for f in fs):
        return False
    trimmed = {f - {x} for f in fs}
    deletion = {f for f in trimmed if not any(f < g for g in trimmed)}
    link = {f - {x} for f in fs if x in f}
    if {len(f) for f in deletion} != sizes or len({len(f) for f in link}) != 1:
        return False
    return shed_tree_ok_naive(deletion, t.deletion) and shed_tree_ok_naive(link, t.link)


def shed_order_naive(family: list[int], t) -> list[int]:
    """The facet bitmasks of ``family`` in the order the shed tree ``t``
    gives (Provan-Billera 1980): the order of the deletion's subtree,
    then the shed vertex joined to each facet of the link's.  Each node
    rebuilds its deletion and link as fresh lists and a leaf returns its
    family as it is; the tree is not checked.
    """
    if isinstance(t, ShedLeaf):
        return family
    xb = 1 << t.vertex
    return shed_order_naive([m for m in family if not m & xb], t.deletion) + [
        m | xb
        for m in shed_order_naive([m ^ xb for m in family if m & xb], t.link)]


def dihedral_maps_naive(n: int, facets) -> list:
    """The vertex maps under which Reisner's criterion checks one face per
    orbit: none, unless the facets are fixed by ``v -> v + 1 (mod n)``
    (n > 1); then the rotations ``v -> v + r``, and the reflections
    ``v -> r - v`` too when the facets are also fixed by ``v -> -v``."""
    family = {frozenset(f) for f in facets}

    def fixed(g) -> bool:
        return {frozenset(map(g, f)) for f in family} == family

    if n < 2 or not fixed(lambda v: (v + 1) % n):
        return []
    maps = [lambda v, r=r: (v + r) % n for r in range(1, n)]
    if fixed(lambda v: -v % n):
        maps += [lambda v, r=r: (r - v) % n for r in range(n)]
    return maps


def reisner_links_naive(facets, maps) -> list[tuple[int, ...]]:
    """The distinct links Reisner's criterion examines on a pure complex,
    in the order it examines them, each as the sorted tuple of its facet
    bitmasks.

    Walks every face from ``faces_naive`` and keeps those of at most
    dim - 1 vertices that no vertex map in ``maps`` takes to a smaller
    bitmask, larger faces first and by ascending bitmask within a size.
    Each kept face's link is read from the facets holding it; a link met
    before is dropped.
    """
    def mask(face) -> int:
        return sum(1 << v for v in face)

    fs = [frozenset(f) for f in facets]
    dim = max(map(len, fs)) - 1
    faces = sorted((f for f in faces_naive(facets) if len(f) <= dim - 1),
                   key=lambda f: (-len(f), mask(f)))
    links: list[tuple[int, ...]] = []
    for face in faces:
        if any(mask(map(g, face)) < mask(face) for g in maps):
            continue
        link = tuple(sorted(mask(f - set(face)) for f in fs if f >= set(face)))
        if link not in links:
            links.append(link)
    return links


def rank_fraction(rows: int, cols: int, entries: dict[tuple[int, int], int]) -> int:
    """Matrix rank by Gaussian elimination over exact rationals."""
    mat = [[Fraction(0)] * cols for _ in range(rows)]
    for (i, j), v in entries.items():
        mat[i][j] = Fraction(v)
    rank = 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(rows):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


def rank_mod_p_naive(rows: int, cols: int, entries: dict[tuple[int, int], int],
                     p: int) -> int:
    """Matrix rank over Z/p (p prime) by dense Gaussian elimination."""
    mat = [[0] * cols for _ in range(rows)]
    for (i, j), v in entries.items():
        mat[i][j] = v % p
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def boundary_naive(facets: tuple[tuple[int, ...], ...]) -> dict[int, tuple]:
    """Signed boundary maps of the reduced chain complex, built from scratch.

    Key ``i`` gives ``(rows, cols, entries)`` for the map from i-faces to
    (i-1)-faces: faces ordered lexicographically within each dimension,
    entries ``(row, col, sign)`` column by column, and dropping the t-th
    vertex of a sorted face signed ``(-1) ** t``.
    """
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in sorted(faces_naive(facets)):
        by_dim.setdefault(len(f) - 1, []).append(f)
    mats = {}
    for i in range(0, max(by_dim, default=-1) + 1):
        index = {f: r for r, f in enumerate(by_dim[i - 1])}
        entries = [(index[f[:t] + f[t + 1:]], c, (-1) ** t)
                   for c, f in enumerate(by_dim[i]) for t in range(len(f))]
        mats[i] = (len(index), len(by_dim[i]), tuple(entries))
    return mats


def betti_naive(facets: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """Reduced Betti numbers over the rationals by dense exact linear algebra
    on the boundary maps of ``boundary_naive``."""
    faces = faces_naive(facets)
    ranks = {i: rank_fraction(rows, cols, {(r, c): v for r, c, v in entries})
             for i, (rows, cols, entries) in boundary_naive(facets).items()}
    top = max((len(f) - 1 for f in faces), default=-1)
    return {i: sum(len(f) == i + 1 for f in faces)
            - ranks.get(i, 0) - ranks.get(i + 1, 0)
            for i in range(-1, top + 1)}
