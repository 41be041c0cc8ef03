"""Simplicial complexes presented by their facets, and independence complexes.

A complex on ambient vertex set ``0..n-1`` stores only its facets as
vertex bitmasks (bit ``v`` for vertex ``v``), in the canonical order of
shelling certificates: by size, then lexicographic on the sorted vertex
tuples, which ``Complex.facets`` derives.  Faces are walked one size at
a time from the facets down (``Complex.face_levels``).  Two degenerate
complexes are kept distinct:

* the void complex (no faces at all): ``facets == ()``
* the empty-face complex ``{()}``: ``facets == ((,),)``

Both count as pure.  The independence complex of any graph with at
least zero vertices is never void: the empty set is independent.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from . import kernels
from .kernels import _DEADLINE_PROBE, BudgetError
from .graphs import MAX_VERTICES, Graph, _is_int


def _tuple_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _rotate_mask(m: int, r: int, n: int) -> int:
    """``m`` with every vertex ``v`` moved to ``v + r (mod n)``, 0 <= r < n."""
    return (((m << r) | (m >> (n - r))) & ((1 << n) - 1)) if r else m


def _reflect_mask(m: int, n: int) -> int:
    """``m`` with every vertex ``v`` moved to ``-v (mod n)``."""
    if n < 2:
        return m
    rev = int(format(m, f"0{n}b")[::-1], 2)  # v -> n - 1 - v
    return _rotate_mask(rev, 1, n)


def _least_image(m: int, n: int, reflect: bool) -> tuple[int, int, int]:
    """The least image of ``m`` under the maps ``v -> v + r (mod n)`` and,
    with ``reflect``, ``v -> -v + r (mod n)``, as ``(image, s, r)`` for the
    map ``v -> s*v + r`` that gives it.

    A least image x of a mask that is neither 0 nor full holds vertex 0
    (else x >> 1, a rotation of x, is smaller) and not vertex n - 1 (some
    rotation misses it, and is below 2^(n-1)).  So vertex 0 of x starts a
    run of ones, and only the rotations taking the start of a run of
    ``m``, or of its reflection, to 0 are tried.
    """
    full = (1 << n) - 1
    best, sign, shift = m, 1, 0
    images = [(1, m), (-1, _reflect_mask(m, n))] if reflect else [(1, m)]
    for s, x in images:
        # vertices of x whose predecessor is not in x
        starts = x & ~((x << 1 | x >> (n - 1)) & full)
        while starts:
            b = starts & -starts
            starts ^= b
            p = b.bit_length() - 1
            y = (x >> p | x << (n - p)) & full
            if y < best:
                best, sign, shift = y, s, -p % n
    return best, sign, shift


def _canonical(n: int, masks: Iterable[int]) -> list[int]:
    """Masks of vertices ``< n`` by size, then lexicographic on their tuples.

    Of two sets of one size, the lexicographically smaller holds the least
    vertex where they differ, so its complement's bits, read from vertex 0
    up, are the smaller string.
    """
    full = (1 << n) - 1
    fmt = f"0{n}b"
    lex = sorted(masks, key=lambda m: format(full ^ m, fmt)[::-1])
    return sorted(lex, key=int.bit_count)  # stable: keeps lex within a size


def _from_masks(n: int, masks: Iterable[int]) -> "Complex":
    """Canonical complex of distinct, pairwise incomparable facet masks.

    Trusted: nothing is validated.  For facets that are maximal by
    construction; outside input goes through ``Complex.from_facets``.
    """
    return Complex(n, tuple(_canonical(n, masks)))


def _near(n: int, masks: Iterable[int]) -> list[int]:
    """Row ``v``: the vertices sharing a facet with ``v``, ``v`` included
    when it lies in a facet."""
    near = [0] * n
    for m in masks:
        mm = m
        while mm:
            b = mm & -mm
            near[b.bit_length() - 1] |= m
            mm ^= b
    return near


class FaceLimitError(RuntimeError):
    """Face enumeration exceeded the configured resource cap."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetError("homology computation ran out of budget")


def _probe_faces(walked: int, cap: int | None, deadline: float | None) -> None:
    _check_deadline(deadline)
    if cap is not None and walked > cap:
        raise FaceLimitError(
            f"complex has more than {cap} faces; raise the face cap to proceed")


def _maximal_cliques(nbr: list[int], p: int) -> list[int]:
    """Maximal cliques, as masks, of the graph ``nbr`` restricted to ``p``.

    Bron-Kerbosch with pivoting; ``nbr[v]`` must not contain ``v``.  A
    child's ``(R, P, X)`` depends only on its parent's P and X as its
    vertex is taken, so each node pushes all its children onto one stack.
    """
    cliques = []
    stack = [(0, p, 0)]
    while stack:
        r, p, x = stack.pop()
        m = p | x
        if not m:
            cliques.append(r)
            continue
        # pivot: vertex of P|X with most neighbours inside P, ties to the
        # lowest; a vertex of X can count all of P and one of P all but
        # itself, so the scan stops at the first to reach that bound
        cap = p.bit_count() - (not x)
        pivot, best = -1, -1
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            d = (nbr[u] & p).bit_count()
            if d > best:
                pivot, best = u, d
                if d == cap:
                    break
        cand = p & ~nbr[pivot]
        while cand:
            vbit = cand & -cand
            v = vbit.bit_length() - 1
            cand &= cand - 1
            stack.append((r | vbit, p & nbr[v], x & nbr[v]))
            p &= ~vbit
            x |= vbit
    return cliques


@dataclass(frozen=True)
class Complex:
    """Immutable simplicial complex given by its facets as vertex bitmasks."""

    n: int
    facet_masks: tuple[int, ...]

    @staticmethod
    def from_facets(n: int, faces: Iterable[Iterable[int]]) -> "Complex":
        """Build a complex from its facets; strict containment or
        duplication among them is an error."""
        if not _is_int(n) or not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be an int in 0..{MAX_VERTICES}, got {n!r}")
        masks = []
        for f in faces:
            f = tuple(f)  # read once: ``f`` may be a one-shot iterator
            m = 0
            for v in f:
                if not _is_int(v) or not 0 <= v < n:
                    raise ValueError(f"face {f}: {v!r} is not a vertex in 0..{n - 1}")
                m |= 1 << v
            if m.bit_count() != len(f):
                raise ValueError(f"face {f} has repeated vertices")
            masks.append(m)
        # A facet can lie only in a duplicate or in a strictly larger
        # facet, so a pure family of distinct facets needs no pair test.
        # The pair reported is the first an all-pairs scan in input order
        # would find.
        distinct = set(masks)
        sizes = sorted({m.bit_count() for m in distinct}, reverse=True)
        if len(distinct) < len(masks) or len(sizes) > 1:
            count = Counter(masks)
            larger: dict[int, list[int]] = {}  # size -> the distinct larger facets
            above: list[int] = []
            for k in sizes:
                larger[k] = above
                above = above + [m for m in distinct if m.bit_count() == k]
            for i, m in enumerate(masks):
                if count[m] > 1 or any((m | o) == o for o in larger[m.bit_count()]):
                    o = next(o for j, o in enumerate(masks) if j != i and (m | o) == o)
                    kind = "duplicates" if m == o else "is contained in"
                    raise ValueError(f"facet {_tuple_of(m)} {kind} facet {_tuple_of(o)}")
        return _from_masks(n, masks)

    @cached_property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """The facets as sorted vertex tuples, in the canonical order."""
        return tuple(map(_tuple_of, self.facet_masks))

    @cached_property
    def rotation_invariant(self) -> bool:
        """Whether the facet family is fixed by ``v -> v + 1 (mod n)``, n > 1.

        True for the independence complex of every circulant.  Then the
        link and deletion of a rotated face are the rotated link and
        deletion, so searches may work up to rotation.
        """
        n = self.n
        family = set(self.facet_masks)
        return n > 1 and all(_rotate_mask(m, 1, n) in family for m in family)

    @cached_property
    def reflection_invariant(self) -> bool:
        """Whether the facet family is fixed by ``v -> -v (mod n)``.

        With ``rotation_invariant`` this makes it invariant under every
        map ``v -> +-v + r (mod n)``, the dihedral group.  True for the
        independence complex of every circulant C_n(S), since -S gives the
        same circulant; a rotation-invariant complex that is not flag need
        not be.
        """
        n = self.n
        family = set(self.facet_masks)
        return all(_reflect_mask(m, n) in family for m in family)

    @cached_property
    def is_flag(self) -> bool:
        """Whether every clique of the 1-skeleton is a face.

        Equivalently, the complex is Ind of the graph, on its vertices,
        of the pairs that no facet contains; every independence complex
        is flag.  Then every complex reached from it by vertex deletions
        and vertex links is the subcomplex induced on its own vertex
        set, so that set determines it.  The void complex is not flag.
        """
        verts = 0
        for m in self.facet_masks:
            verts |= m
        nbr = [m & ~(1 << v) for v, m in enumerate(_near(self.n, self.facet_masks))]
        return set(_maximal_cliques(nbr, verts)) == set(self.facet_masks)

    @cached_property
    def ridge_connected(self) -> bool:
        """Whether the ridge graph is connected: facets F and G are
        adjacent when they share a ridge, F - v = G - w.

        A pure complex with a disconnected ridge graph is neither
        shellable (each facet of a shelling after the first meets an
        earlier one in a ridge) nor vertex decomposable (which implies
        shellable, Provan-Billera 1980).  Complexes of at most one facet
        are connected.  One pass over the ridges joins the facets that
        share each one in a union-find.  Each join hangs a root below the
        facet being read, which is thus still a root, so only the root
        of the ridge's first facet is looked up.
        """
        masks = self.facet_masks
        first: dict[int, int] = {}  # ridge -> the first facet holding it
        parent = list(range(len(masks)))
        parts = len(masks)
        for i, m in enumerate(masks):
            mm = m
            while mm:
                b = mm & -mm
                mm ^= b
                j = first.setdefault(m ^ b, i)
                while parent[j] != j:  # path halving
                    parent[j] = parent[parent[j]]
                    j = parent[j]
                if j != i:
                    parent[j] = i
                    parts -= 1
        return parts <= 1

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    @property
    def dim(self) -> int | None:
        """Dimension, ``None`` for the void complex (-1 for ``{()}``)."""
        if self.is_void:
            return None
        return self.facet_masks[-1].bit_count() - 1  # the largest facet is last

    def is_pure(self) -> bool:
        ms = self.facet_masks  # by size: the smallest facet first, the largest last
        return not ms or ms[0].bit_count() == ms[-1].bit_count()

    def face_levels(
        self, top: int, cap: int | None = None, deadline: float | None = None
    ) -> Iterator[set[int]]:
        """The faces of at most ``top`` vertices as bitmasks, one set per
        size from ``top`` down to 0, each built once the caller is done
        with the one above.

        Every face lies in a facet, so the first set is the facets cut down
        to ``top`` vertices and each later one the set above minus a vertex,
        plus the facets of its size.  Raises :class:`FaceLimitError` once
        more than ``cap`` faces have been walked and :class:`BudgetError`
        once ``time.monotonic()`` passes ``deadline``.  The cap is compared
        after each facet or face a set is built from, and the clock read
        at the first of them and every ``_DEADLINE_PROBE``-th after.
        """
        masks = self.facet_masks
        joined, walked, level = len(masks), 0, set()  # masks[joined:] are walked
        limit = float("inf") if cap is None else cap
        built = 0  # facets and faces the sets were built from
        for size in range(top, -1, -1):
            above, level = level, set()
            for p in above:
                mm = p
                while mm:
                    b = mm & -mm
                    level.add(p ^ b)
                    mm ^= b
                if walked + len(level) > limit or not built % _DEADLINE_PROBE:
                    _probe_faces(walked + len(level), cap, deadline)
                built += 1
            while joined and masks[joined - 1].bit_count() >= size:
                joined -= 1
                m = masks[joined]
                if m.bit_count() == size:
                    level.add(m)
                else:
                    bits = [1 << v for v in _tuple_of(m)]
                    level.update(map(sum, itertools.combinations(bits, size)))
                if walked + len(level) > limit or not built % _DEADLINE_PROBE:
                    _probe_faces(walked + len(level), cap, deadline)
                built += 1
            walked += len(level)
            yield level

    def f_vector(self) -> dict[int, int]:
        """Face counts by dimension, including ``f[-1] = 1`` when nonvoid."""
        if self.is_void:
            return {}
        return {self.dim - i: len(level)
                for i, level in enumerate(self.face_levels(self.dim + 1))}

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "facets": [list(f) for f in self.facets]})

    @staticmethod
    def from_json(text: str) -> "Complex":
        obj = json.loads(text)
        facets = obj["facets"]
        if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
            raise ValueError("'facets' must be a list of vertex lists")
        return Complex.from_facets(obj["n"], facets)


def independence_complex(g: Graph) -> Complex:
    """Independence complex Ind(G): faces are the independent vertex sets.

    Facets (maximal independent sets) are enumerated with Bron-Kerbosch
    with pivoting on the complement graph.  The result is marked flag
    (``Complex.is_flag``), as every independence complex is, so no clique
    search runs on its 1-skeleton.
    """
    full = (1 << g.n) - 1
    # neighbourhoods in the complement graph: maximal independent sets of g
    # are exactly the maximal cliques of its complement
    nadj = [full & ~(m | (1 << v)) for v, m in enumerate(g.adjacency_masks)]
    # maximal independent sets are distinct and pairwise incomparable
    d = _from_masks(g.n, _maximal_cliques(nadj, full))
    d.__dict__["is_flag"] = True  # fills the cached property
    return d


def expansion_complex(ind_g: Complex, sizes: tuple[int, ...]) -> Complex:
    """Ind of the clique expansion ``graphs.expansion(g, sizes)``, from Ind(g).

    Blob ``i`` is the ``sizes[i]`` vertices that follow blobs ``0 .. i-1``,
    as ``graphs.expansion`` numbers them.  Every blob is a clique
    whose vertices share one outside neighbourhood, so an independent set
    takes at most one vertex per blob, and the facets are the facets F of
    ``ind_g`` with one vertex chosen from the blob of each v in F.  No
    graph is built and no clique search runs.  The result is flag exactly
    when ``ind_g`` is (no facet holds two vertices of a blob, so the
    cliques of its 1-skeleton are lifts of cliques of ``ind_g``'s), and
    is marked so; for ``ind_g`` from ``independence_complex`` that costs
    no clique search either.
    """
    if len(sizes) != ind_g.n:
        raise ValueError(f"need {ind_g.n} blob sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError("blob sizes must be at least 1")
    blobs, total = [], 0  # blobs[i]: the vertex bits of blob i, ascending
    for s in sizes:
        blobs.append([1 << v for v in range(total, total + s)])
        total += s
    # blob i lies below blob j for i < j, so each choice from a sorted facet
    # is ascending, and sorting the choices by length, then lexicographically,
    # is the canonical order; they are distinct and pairwise incomparable,
    # as a containment between two would project to one between facets
    choices = sorted(choice for f in ind_g.facets
                     for choice in itertools.product(*[blobs[v] for v in f]))
    d = Complex(total, tuple(map(sum, sorted(choices, key=len))))
    d.__dict__["is_flag"] = ind_g.is_flag  # fills the cached property
    return d


def alpha(g: Graph, *, deadline: float | None = None) -> int:
    """Independence number of ``g`` (the dimension of Ind(g) plus one).

    :class:`BudgetError` once ``time.monotonic()`` passes ``deadline``.
    """
    return kernels.alpha(g.n, list(g.adjacency_masks), deadline=deadline)
