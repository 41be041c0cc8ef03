"""Simplicial complexes presented by their facets, and independence complexes.

A complex on ambient vertex set ``0..n-1`` is stored as the canonical
tuple of its facets, each facet a sorted vertex tuple, ordered by
(size, lexicographic).  Two degenerate complexes are kept distinct:

* the void complex (no faces at all): ``facets == ()``
* the empty-face complex ``{()}``: ``facets == ((,),)``

Both count as pure.  The independence complex of any graph with at
least zero vertices is never void: the empty set is independent.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import kernels
from .graphs import Graph


def _mask_of(face: Iterable[int]) -> int:
    m = 0
    for v in face:
        m |= 1 << v
    return m


def _tuple_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _rotate_mask(m: int, r: int, n: int) -> int:
    """``m`` with every vertex ``v`` moved to ``v + r (mod n)``, 0 <= r < n."""
    return (((m << r) | (m >> (n - r))) & ((1 << n) - 1)) if r else m


def _from_masks(n: int, masks: Iterable[int]) -> "Complex":
    """Canonical complex of distinct, pairwise incomparable facet masks.

    Trusted: nothing is validated.  For facets that are maximal by
    construction; outside input goes through ``Complex.from_facets``.
    """
    return _from_tuples(n, map(_tuple_of, masks))


def _from_tuples(n: int, tuples: Iterable[tuple[int, ...]]) -> "Complex":
    """``_from_masks`` for facets already given as sorted vertex tuples."""
    return Complex(n, tuple(sorted(tuples, key=lambda t: (len(t), t))))


class FaceLimitError(RuntimeError):
    """Face enumeration exceeded the configured resource cap."""


class BudgetError(RuntimeError):
    """A budgeted computation ran out of wall-clock time."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetError("homology computation ran out of budget")


def _maximal_cliques(nbr: list[int], p: int) -> list[int]:
    """Maximal cliques, as masks, of the graph ``nbr`` restricted to ``p``.

    Bron-Kerbosch with pivoting; ``nbr[v]`` must not contain ``v``.
    """
    cliques = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            cliques.append(r)
            return
        # pivot: vertex of P|X with most neighbours inside P
        pivot, best = -1, -1
        m = p | x
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            d = (nbr[u] & p).bit_count()
            if d > best:
                pivot, best = u, d
        cand = p & ~nbr[pivot]
        while cand:
            vbit = cand & -cand
            v = vbit.bit_length() - 1
            cand &= cand - 1
            expand(r | vbit, p & nbr[v], x & nbr[v])
            p &= ~vbit
            x |= vbit

    expand(0, p, 0)
    return cliques


@dataclass(frozen=True)
class Complex:
    """Immutable simplicial complex given by its facet list."""

    n: int
    facets: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_facets(
        n: int, faces: Iterable[Iterable[int]], *, maximalize: bool = False
    ) -> "Complex":
        """Build a complex from candidate facets.

        With ``maximalize`` the faces are filtered down to the maximal
        ones; otherwise strict containment or duplication is an error.
        """
        masks = []
        for f in faces:
            f = tuple(f)  # read once: ``f`` may be a one-shot iterator
            fs = sorted(set(f))
            if fs and not (0 <= fs[0] and fs[-1] < n):
                raise ValueError(f"face {fs} out of range for n={n}")
            if len(fs) != len(f):
                raise ValueError(f"face {f} has repeated vertices")
            masks.append(_mask_of(fs))
        if maximalize:
            masks = [
                m
                for i, m in enumerate(masks)
                if not any(
                    (m | o) == o and (m != o or j < i) for j, o in enumerate(masks)
                )
            ]
        else:
            for i, m in enumerate(masks):
                for j, o in enumerate(masks):
                    if i != j and (m | o) == o:
                        kind = "duplicates" if m == o else "is contained in"
                        raise ValueError(
                            f"facet {_tuple_of(m)} {kind} facet {_tuple_of(o)}"
                        )
        return _from_masks(n, set(masks))

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        return tuple(_mask_of(f) for f in self.facets)

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
    def is_flag(self) -> bool:
        """Whether every clique of the 1-skeleton is a face.

        Equivalently, the complex is Ind of the graph, on its vertices,
        of the pairs that no facet contains; every independence complex
        is flag.  Then every complex reached from it by vertex deletions
        and vertex links is the subcomplex induced on its own vertex
        set, so that set determines it.  The void complex is not flag.
        """
        nbr = [0] * self.n
        verts = 0
        for m in self.facet_masks:
            verts |= m
            mm = m
            while mm:
                b = mm & -mm
                nbr[b.bit_length() - 1] |= m
                mm ^= b
        nbr = [m & ~(1 << v) for v, m in enumerate(nbr)]
        return set(_maximal_cliques(nbr, verts)) == set(self.facet_masks)

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int | None:
        """Dimension, ``None`` for the void complex (-1 for ``{()}``)."""
        if self.is_void:
            return None
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    def has_face(self, face: Iterable[int]) -> bool:
        m = _mask_of(face)
        return any((m | fm) == fm for fm in self.facet_masks)

    def vertices(self) -> tuple[int, ...]:
        """Vertices actually used by some face (not the ambient range)."""
        m = 0
        for fm in self.facet_masks:
            m |= fm
        return _tuple_of(m)

    def face_masks(
        self, cap: int | None = None, deadline: float | None = None
    ) -> set[int]:
        """Every face as a bitmask, the empty face included.

        Raises :class:`FaceLimitError` once more than ``cap`` faces appear,
        and :class:`BudgetError` once ``time.monotonic()`` passes
        ``deadline`` (probed once per facet).
        """
        seen: set[int] = set()
        for fm in self.facet_masks:
            _check_deadline(deadline)
            stack = [fm]
            while stack:
                m = stack.pop()
                if m in seen:
                    continue
                seen.add(m)
                if cap is not None and len(seen) > cap:
                    raise FaceLimitError(
                        f"complex has more than {cap} faces; raise the face "
                        f"cap to proceed"
                    )
                mm = m
                while mm:
                    stack.append(m & ~(mm & -mm))
                    mm &= mm - 1
        return seen

    def f_vector(self) -> dict[int, int]:
        """Face counts by dimension, including ``f[-1] = 1`` when nonvoid."""
        counts: dict[int, int] = {}
        for m in self.face_masks():
            d = m.bit_count() - 1
            counts[d] = counts.get(d, 0) + 1
        return counts

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "facets": [list(f) for f in self.facets]})

    @staticmethod
    def from_json(text: str) -> "Complex":
        obj = json.loads(text)
        return Complex.from_facets(obj["n"], obj["facets"])


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
    blobs, total = [], 0
    for s in sizes:
        blobs.append(range(total, total + s))
        total += s
    # blob i lies below blob j for i < j, so each choice from a sorted facet
    # is a sorted tuple; the choices are distinct and pairwise incomparable,
    # as a containment between two would project to one between facets
    d = _from_tuples(total, (choice for f in ind_g.facets
                             for choice in itertools.product(*[blobs[v] for v in f])))
    d.__dict__["is_flag"] = ind_g.is_flag  # fills the cached property
    return d


def alpha(g: Graph) -> int:
    """Independence number of ``g`` (the dimension of Ind(g) plus one)."""
    return kernels.alpha(g.n, list(g.adjacency_masks))


def link(d: Complex, face: Iterable[int]) -> Complex:
    """Link of ``face``: facets are ``F - face`` over facets ``F`` containing it."""
    m = _mask_of(face)
    if not d.has_face(_tuple_of(m)):
        raise ValueError(f"{_tuple_of(m)} is not a face of the complex")
    trimmed = [fm & ~m for fm in d.facet_masks if (m | fm) == fm]
    # facets containing a common face have incomparable remainders
    return Complex.from_facets(d.n, map(_tuple_of, trimmed))


def deletion(d: Complex, v: int) -> Complex:
    """Deletion of vertex ``v``: all faces avoiding ``v``, re-maximalised.

    Facets that contained ``v`` shrink and may or may not stay maximal,
    so the facet family is recomputed rather than filtered.
    """
    if not (0 <= v < d.n):
        raise ValueError(f"vertex {v} out of range for n={d.n}")
    vbit = 1 << v
    kept = [fm & ~vbit for fm in d.facet_masks]
    return Complex.from_facets(d.n, map(_tuple_of, kept), maximalize=True)
