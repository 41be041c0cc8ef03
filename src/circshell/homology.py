"""Exact reduced simplicial homology and the Cohen-Macaulay criterion.

Betti numbers are ranks over the rationals, obtained from integer
Smith normal forms of the boundary matrices (exact arithmetic, no
floating point); torsion invariant factors are reported alongside.
Every boundary matrix and Reisner walk comes from one walk over
vertex bitmasks, ``Complex.face_levels``, with one face cap; a
boundary matrix indexes faces by mask and signs an entry by the number
of face vertices below the dropped one.

``is_cohen_macaulay`` applies Reisner's criterion over the rationals:
every face's link must have vanishing reduced homology strictly below
its dimension.  A cone link passes at once.  H~_0 of any other link
comes from its connected components, grown over the facet bitmasks: a
disconnected link fails, and a connected 1-dimensional link passes
with no faces or matrices built.  For a connected link, rank d_0 = 1
and rank d_1 = f_0 - 1 over every field, so only d_i with i >= 2 are
ranked.  A fast sound filter bounds those Betti numbers via ranks over
GF(2) (an integer matrix's rank over GF(2) never exceeds its rational
rank, so a zero bound is conclusive): the link's face levels are
walked from the top down, each indexed in ascending mask order, and
each column of d_i is one integer of row bits, reduced by XOR against
pivots keyed by their top bit (``rank_gf2``).  Only a nonzero bound,
from 2-torsion or a nonzero rational Betti number, escalates to exact
integer ranks by Smith normal form on the link's ``BoundaryMatrix``.
``cm_verdict`` reports how many links each of these steps settled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

# re-exported: the face walks and the budgeted kernels raise them
from .complexes import BudgetError, FaceLimitError
from .complexes import Complex, _canonical, _check_deadline, _from_masks, _least_image
from .kernels import _DEADLINE_PROBE

DEFAULT_FACE_CAP = 5_000_000


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse signed boundary map from d-faces (columns) to (d-1)-faces."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]  # (row, col, +-1)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers and torsion invariant factors per dimension."""

    betti: dict[int, int]
    torsion: dict[int, tuple[int, ...]]

    def to_obj(self) -> dict:
        return {
            "betti": {str(i): b for i, b in sorted(self.betti.items())},
            "torsion": {str(i): list(t) for i, t in sorted(self.torsion.items())},
        }


def boundary_matrices(
    d: Complex, cap: int = DEFAULT_FACE_CAP, deadline: float | None = None
) -> dict[int, BoundaryMatrix]:
    """Signed boundary matrices of the reduced chain complex.

    Key ``i`` maps i-faces to (i-1)-faces with alternating signs over
    ascending vertex order; ``i`` runs from 0 (vertices to the empty
    face) up to the dimension of the complex.  Faces index rows and
    columns in lexicographic order within a dimension.  Raises
    :class:`BudgetError` once ``time.monotonic()`` passes ``deadline``.
    """
    if d.is_void:
        return {}
    levels = list(d.face_levels(d.dim + 1, cap, deadline))[::-1]
    rows_index: dict[int, int] = {0: 0}  # the empty face
    mats: dict[int, BoundaryMatrix] = {}
    for dim, level in enumerate(levels[1:]):
        cols = _canonical(d.n, level)
        entries = []
        for col, face in enumerate(cols):
            if col % _DEADLINE_PROBE == 0:
                _check_deadline(deadline)
            # dropping the t-th vertex from below has sign (-1)^t
            sign, mm = 1, face
            while mm:
                b = mm & -mm
                entries.append((rows_index[face ^ b], col, sign))
                sign, mm = -sign, mm ^ b
        mats[dim] = BoundaryMatrix(len(rows_index), len(cols), tuple(entries))
        rows_index = {m: i for i, m in enumerate(cols)}
    return mats


# ---------------------------------------------------------------------------
# integer Smith normal form (sparse, smallest-pivot)
# ---------------------------------------------------------------------------


def smith_invariant_factors(
    mat: BoundaryMatrix, deadline: float | None = None
) -> list[int]:
    """Invariant factors of an integer matrix, in divisibility order.

    Sparse fraction-free elimination pivoting on the entry of smallest
    nonzero magnitude (containing coefficient growth), followed by a
    gcd/lcm normalisation pass that enforces d1 | d2 | ... .  Raises
    :class:`BudgetError` once ``time.monotonic()`` passes ``deadline``.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, c, v in mat.entries:
        if v:
            rows.setdefault(r, {})[c] = v
            col_rows.setdefault(c, set()).add(r)

    def addmul_row(dst: int, src: int, q: int) -> None:
        # row[dst] -= q * row[src]
        rd_dst = rows.setdefault(dst, {})
        for c, v in rows[src].items():
            nv = rd_dst.get(c, 0) - q * v
            if nv:
                rd_dst[c] = nv
                col_rows.setdefault(c, set()).add(dst)
            elif c in rd_dst:
                del rd_dst[c]
                col_rows[c].discard(dst)
        if not rd_dst:
            del rows[dst]

    def addmul_col(dst: int, src: int, q: int) -> None:
        # col[dst] -= q * col[src]
        for r in list(col_rows.get(src, ())):
            v = rows[r][src]
            nv = rows[r].get(dst, 0) - q * v
            if nv:
                rows[r][dst] = nv
                col_rows.setdefault(dst, set()).add(r)
            elif dst in rows[r]:
                del rows[r][dst]
                col_rows[dst].discard(r)

    diag: list[int] = []
    while rows:
        if len(diag) % _DEADLINE_PROBE == 0:
            _check_deadline(deadline)
        pr = pc = pv = None
        for r, rd in rows.items():
            for c, v in rd.items():
                if pv is None or abs(v) < abs(pv):
                    pr, pc, pv = r, c, v
                    if abs(v) == 1:
                        break
            if pv is not None and abs(pv) == 1:
                break
        while True:
            restart = False
            for r in [r for r in col_rows.get(pc, ()) if r != pr]:
                q = rows[r][pc] // pv
                if q:
                    addmul_row(r, pr, q)
                if pc in rows.get(r, {}):
                    # remainder is strictly smaller: take it as the pivot
                    pr, pv = r, rows[r][pc]
                    restart = True
                    break
            if restart:
                continue
            for c in [c for c in rows[pr] if c != pc]:
                q = rows[pr][c] // pv
                if q:
                    addmul_col(c, pc, q)
                if c in rows.get(pr, {}):
                    pc, pv = c, rows[pr][c]
                    restart = True
                    break
            if not restart:
                break
        diag.append(abs(pv))
        del rows[pr]
        col_rows[pc].discard(pr)
        if not col_rows[pc]:
            del col_rows[pc]

    # a diagonal form reached by row/column ops need not satisfy the
    # divisibility chain; pairwise gcd/lcm swaps converge to it.  Units
    # divide everything, so only the other entries take part.
    units = [1] * diag.count(1)
    diag = [x for x in diag if x != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = math.gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return units + sorted(diag)


def exact_rank(mat: BoundaryMatrix, deadline: float | None = None) -> int:
    """Rank over the rationals (count of nonzero invariant factors)."""
    return len(smith_invariant_factors(mat, deadline))


def rank_gf2(columns: list[int], deadline: float | None = None) -> int:
    """Rank over GF(2) of the matrix whose columns are the given row bitsets.

    Bit ``r`` of a column is its entry in row ``r`` (an integer entry
    reduced mod 2).  Each column is reduced by XOR against the earlier
    pivot columns, keyed by their top row, until it is zero or its top
    row is new; the rank is the number of pivots.  An integer matrix's
    rank over GF(2) never exceeds its rank over the rationals.  Raises
    :class:`BudgetError` once ``time.monotonic()`` passes ``deadline``.
    """
    pivots: dict[int, int] = {}  # top row + 1 -> pivot column
    for done, col in enumerate(columns):
        if done % _DEADLINE_PROBE == 0:
            _check_deadline(deadline)
        while col:
            top = col.bit_length()
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = col
                break
            col ^= piv
    return len(pivots)


# ---------------------------------------------------------------------------
# profiles and the Cohen-Macaulay test
# ---------------------------------------------------------------------------


def reduced_homology(
    d: Complex, cap: int = DEFAULT_FACE_CAP, budget_s: float | None = None
) -> HomologyProfile:
    """Exact reduced homology profile of a nonvoid complex.

    Raises :class:`FaceLimitError` past ``cap`` faces and, with
    ``budget_s`` set, :class:`BudgetError` when time runs out.
    """
    if d.is_void:
        raise ValueError("the void complex has no homology profile")
    deadline = time.monotonic() + budget_s if budget_s is not None else None
    mats = boundary_matrices(d, cap, deadline)
    factors = {i: smith_invariant_factors(m, deadline) for i, m in mats.items()}
    rank = {i: len(f) for i, f in factors.items()}
    top = d.dim
    betti: dict[int, int] = {}
    for i in range(-1, top + 1):
        f_i = 1 if i == -1 else mats[i].cols  # i-faces index the columns
        betti[i] = f_i - rank.get(i, 0) - rank.get(i + 1, 0)
    torsion = {
        i: tuple(x for x in factors.get(i + 1, []) if x > 1)
        for i in range(-1, top + 1)
        if any(x > 1 for x in factors.get(i + 1, []))
    }
    return HomologyProfile(betti, torsion)


def _cm_stats() -> dict:
    """Zeroed counters for one Cohen-Macaulay test (see ``cm_verdict``)."""
    return {"links": 0, "cones": 0, "connectivity": 0, "ranked": 0,
            "escalations": 0, "largest_matrix": [0, 0]}


def _link_vanishes_below_top(
    facet_masks: tuple[int, ...], n: int, cap: int, deadline: float | None,
    stats: dict,
) -> bool:
    """Reduced rational homology of the pure link is zero below its dim.

    A cone is acyclic.  Otherwise H~_0 comes from connected components,
    grown over the facet masks: a disconnected link fails, and a
    connected 1-dimensional link passes with no faces or matrices built.
    For a connected link of dimension >= 2, rank d_0 = 1 and rank d_1 =
    f_0 - 1 over every field, so only d_i with i >= 2 are ranked: over
    GF(2) first, on columns of row bits built level by level from the
    faces of dim + 1 vertices down to those of 2, and exactly, on
    ``boundary_matrices``, only where a GF(2) bound leaves a Betti number
    nonzero.
    """
    stats["links"] += 1
    apex = ~0
    union = 0
    for m in facet_masks:
        apex &= m
        union |= m
    if apex:
        stats["cones"] += 1
        return True  # cone: acyclic in every dimension
    # the component of the first facet, swept until it stops growing
    reach, grown = facet_masks[0], 0
    while grown != reach:
        grown = reach
        for m in facet_masks:
            if m & reach:
                reach |= m
    ell = facet_masks[0].bit_count() - 1  # links of a pure complex are pure
    if reach != union or ell == 1:
        stats["connectivity"] += 1
        return reach == union
    stats["ranked"] += 1
    # f[i] = number of i-faces; bound[i] = rank of d_i over GF(2), d_i
    # taking the i-faces (columns) to the (i-1)-faces (rows), each level
    # indexed in ascending mask order.  A pure facet family is already
    # in order of size, which is all ``face_levels`` needs.
    f = {0: union.bit_count()}
    exact = {0: 1, 1: f[0] - 1}  # connected: exact over every field
    bound = dict(exact)
    above: list[int] = []
    levels = Complex(n, facet_masks).face_levels(ell + 1, cap, deadline)
    for i, level in zip(range(ell, 0, -1), levels):
        faces = sorted(level)
        f[i] = len(faces)
        if above:
            index = {m: r for r, m in enumerate(faces)}
            columns = []
            for m in above:
                col, mm = 0, m
                while mm:
                    b = mm & -mm
                    col |= 1 << index[m ^ b]
                    mm ^= b
                columns.append(col)
            bound[i + 1] = rank_gf2(columns, deadline)
        above = faces
    for i in range(2, ell + 1):
        rows, cols = stats["largest_matrix"]
        if f[i - 1] * f[i] > rows * cols:
            stats["largest_matrix"] = [f[i - 1], f[i]]
    mats = None
    for i in range(1, ell):
        if f[i] - bound[i] - bound[i + 1] == 0:
            continue  # the GF(2) bound already forces the rational Betti number to 0
        if mats is None:
            # facets of a link are pairwise incomparable, like those of the complex
            mats = boundary_matrices(_from_masks(n, facet_masks), cap, deadline)
        for j in (i, i + 1):
            if j not in exact:
                stats["escalations"] += 1
                exact[j] = exact_rank(mats[j], deadline)
        if f[i] - exact[i] - exact[i + 1] != 0:
            return False
    return True


def is_cohen_macaulay(
    d: Complex, cap: int = DEFAULT_FACE_CAP, budget_s: float | None = None
) -> bool:
    """Reisner's criterion over the rationals.

    True iff ``d`` is nonvoid and every face's link (the empty face
    included) has vanishing reduced rational homology strictly below
    the link's dimension.  Non-pure complexes are never Cohen-Macaulay
    here: facet size gaps already violate the criterion.  A simplex is
    answered at once, as every link of a simplex is a simplex.  With
    ``budget_s`` set, raises :class:`BudgetError` when time runs out.
    Only faces of at most dim - 1 vertices are walked (the others have
    links of dimension <= 0), larger first and ascending within a size,
    and a link met before is not checked again.  ``cap`` bounds the
    faces walked; past it, raises :class:`FaceLimitError`.

    When the facet family is invariant under ``v -> v + 1 (mod n)`` (see
    ``Complex.rotation_invariant``), only the face of least mask in each
    rotation orbit is checked: the link of a rotated face is the rotated
    link, with the same homology.  When it is also invariant under
    ``v -> -v`` (``Complex.reflection_invariant``), as every circulant's
    independence complex is, the orbits are those of the dihedral group
    ``v -> +-v + r``.  The least mask of a nonempty orbit holds vertex 0,
    so only the empty face and the faces F + 0, for F a face of lk(0) of
    at most dim - 2 vertices, are walked, in the same order; F + 0 has
    the link in the complex that F has in lk(0), read off lk(0)'s facets.
    A walked face is checked iff no image that takes a start of a run of
    its vertices to 0 is smaller (``complexes._least_image``).  The cap
    then counts the empty face and the faces of lk(0) walked; any other
    complex walks, and counts, every face of at most dim - 1 vertices,
    the empty face included.
    """
    return _reisner(d, cap, budget_s, _cm_stats())


def _reisner(
    d: Complex, cap: int, budget_s: float | None, stats: dict
) -> bool:
    """``is_cohen_macaulay``, counting the links it examines into ``stats``."""
    if d.is_void or not d.is_pure():
        return False
    top = d.dim
    if top <= 0 or len(d.facet_masks) == 1:
        # links are at most points, whose only condition below dim 0 is
        # a nonvoid vertex set; or every link of a simplex is a simplex
        return True
    deadline = time.monotonic() + budget_s if budget_s is not None else None
    n = d.n
    seen_links: set[tuple[int, ...]] = set()

    def passes(m: int, facets: tuple[int, ...]) -> bool:
        """Whether the link of ``m`` in the facet family ``facets`` passes;
        a link met before passes at once."""
        _check_deadline(deadline)
        link_masks = tuple(sorted(fm & ~m for fm in facets if (m | fm) == fm))
        if link_masks in seen_links:
            return True
        seen_links.add(link_masks)
        return _link_vanishes_below_top(link_masks, n, cap, deadline, stats)

    if not d.rotation_invariant:
        # larger faces first: their links are smaller and fail faster
        for level in d.face_levels(top - 1, cap, deadline):
            for m in sorted(level):
                if not passes(m, d.facet_masks):
                    return False
        return True
    # Every nonempty orbit's least mask holds vertex 0, and a face F + 0
    # has the link in d that F has in lk(0): walk the faces of lk(0).  The
    # empty face, whose link is checked last, counts as walked first.
    reflect = d.reflection_invariant
    lk0 = Complex(n, tuple(fm ^ 1 for fm in d.facet_masks if fm & 1))
    for level in lk0.face_levels(top - 2, cap, deadline, walked=1):
        for m in sorted(level):
            if (_least_image(m | 1, n, reflect)[0] == m | 1
                    and not passes(m, lk0.facet_masks)):
                return False
    return passes(0, d.facet_masks)


def cm_verdict(
    d: Complex, cap: int = DEFAULT_FACE_CAP, budget_s: float | None = None
) -> tuple[str, str | None, dict]:
    """``is_cohen_macaulay`` as ``("yes" | "no" | "unknown", reason, counts)``.

    Running out of budget or walking past ``cap`` faces gives
    ``"unknown"`` with the error's message as the reason; otherwise the
    reason is ``None``.
    ``counts`` says what the test did, up to its verdict or its stop:
    ``links`` examined (one per distinct link), of which ``cones`` were
    cones, ``connectivity`` were settled by their connected components
    and ``ranked`` had boundary matrices ranked; ``escalations`` counts
    exact ranks taken after a nonzero GF(2) bound, and
    ``largest_matrix`` is ``[rows, cols]`` of the largest matrix ranked.
    """
    stats = _cm_stats()
    try:
        ok = _reisner(d, cap, budget_s, stats)
    except (BudgetError, FaceLimitError) as e:
        return "unknown", str(e), stats
    return ("yes" if ok else "no"), None, stats
