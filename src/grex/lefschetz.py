"""Kapranov and Fonarev collections, the primitive block and its fenced
subblocks, and Gram/semiorthogonality verification.

Fonarev's collection takes the minimal upper triangular diagrams and repeats
each one at twists 0 .. o(lambda)-1, both read from `orbits(box)`; the
support partition is the conjugate of the orbit-length multiset.  The
collection and the primitive block are built from a given orbit tuple
(`_fonarev`, `_primitive_block`), so the per-box context of `ktheory` builds
both from its one orbit pass.
Verification in `gram` is data, not control flow: violations are collected
and returned, never raised.

`gram` rests on the invariance

    Ext^*(Sigma^a U*(s), Sigma^b U*(t)) = H^*(Sigma^{a*} (x) Sigma^b (x) O(t-s)),

which depends only on the triple (a, b, t-s).  Fonarev's collection repeats
each weight at many twists, so `gram` groups the objects by weight and reads
each weight pair once, through tests of growing cost on the range
[min, max] of the offsets t-s that the output reads.
- A violations-only call reads only the lower triangle and the diagonal,
  so it reads (a, b) exactly when b's first index is at most a's last.
- `bott._spans_may_live` rejects a pair in O(k) by single terms of its
  Weyl bounds, first on a range that holds for every column weight b: row
  (i, s) of a reads twists t among the objects up to i (or all of them),
  whose prefix min and max bound t-s.  No offset of the pair is computed.
- A pair that passes takes its exact range, from the prefix extrema of its
  column twists by index (`_lower_offset_range`, one bisection per row),
  or in the full table from the extrema of the two weights' twists, with
  no set built over rows x columns, and the same test runs on it.
- Only a pair that passes both computes the Weyl bounds `schur.lr_bounds`
  of dual(a) (x) b and tests its row spans (`bott._row_spans`) on the
  exact range.  A pair with no live span reads zero at every offset: on a
  Fonarev collection, every pair of the lower triangle but the diagonal
  ones.  On G(4,8), 50 of its 100 weight pairs fail the first test, 40 the
  second, and the 10 diagonal pairs pass the row spans; 42 of the 900
  pairs of G(4,11) and 13 535 of the 112 225 of G(9,15) reach the bounds.
- Only a live pair builds its exact offset set and goes to
  `bott._ext_tables`, which cuts its expansion to the live regions and
  resolves the terms by `bott` through one memo for the call.  That is 1300
  (a, b, t-s) triples for the 4900 ordered pairs of G(4,8) in the full table,
  and 70 in the lower triangle.
The single-term test and the row spans only skip pairs; `_ext_tables` still
decides every pair they keep.  `GramResult` carries the counts of this work.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Literal

from .bott import ExtMemo, ExtTable, TwistedSchur, _ext_tables, _row_spans, _spans_may_live
from .diagrams import Box, BoxedDiagram, Orbit, enumerate_diagrams, orbit_of, orbits
from .schur import dualize, lr_bounds

__all__ = [
    "CollectionObject",
    "GramResult",
    "LefschetzCollection",
    "Violation",
    "fenced_block",
    "fonarev",
    "gram",
    "kapranov",
    "primitive_block",
]


@dataclass(frozen=True)
class CollectionObject:
    bundle: TwistedSchur
    block_index: int

    def to_json(self) -> dict:
        return self.bundle.to_json()


@dataclass(frozen=True)
class LefschetzCollection:
    objects: tuple[CollectionObject, ...]
    support_partition: tuple[int, ...]
    box: Box

    def __post_init__(self):
        if sum(self.support_partition) != len(self.objects):
            raise ValueError("support partition does not sum to the object count")
        if any(
            self.support_partition[i] < self.support_partition[i + 1]
            for i in range(len(self.support_partition) - 1)
        ):
            raise ValueError("support partition must be non-increasing")

    def blocks(self) -> list[list[CollectionObject]]:
        out: list[list[CollectionObject]] = [[] for _ in self.support_partition]
        for obj in self.objects:
            out[obj.block_index].append(obj)
        return out

    def to_json(self) -> dict:
        return {
            "box": self.box.to_json(),
            "support_partition": list(self.support_partition),
            "blocks": [[o.to_json() for o in blk] for blk in self.blocks()],
        }


def kapranov(box: Box) -> LefschetzCollection:
    """All Sigma^lam U* for lam in the box, untwisted, in lexicographic order."""
    objs = tuple(
        CollectionObject(TwistedSchur(d.parts, 0, box), 0)
        for d in enumerate_diagrams(box, "all")
    )
    return LefschetzCollection(objs, (len(objs),), box)


def fonarev(box: Box) -> LefschetzCollection:
    """Sigma^lam U*(i) for minimal upper triangular lam and 0 <= i < o(lam),
    ordered by twist block and lexicographically inside each block."""
    return _fonarev(box, orbits(box))


def _fonarev(box: Box, orbs: Sequence[Orbit]) -> LefschetzCollection:
    """`fonarev(box)` from the box's orbits, as `orbits(box)` returns them."""
    objs = []
    support = []
    for i in range(box.n):
        block = [
            CollectionObject(TwistedSchur(orb.representative.parts, i, box), i)
            for orb in orbs
            if i < orb.length
        ]
        if block:
            support.append(len(block))
            objs.extend(block)
    return LefschetzCollection(tuple(objs), tuple(support), box)


def primitive_block(box: Box) -> tuple[CollectionObject, ...]:
    """The full-orbit minimal upper triangular bundles at twist 0."""
    return _primitive_block(box, orbits(box))


def _primitive_block(box: Box, orbs: Sequence[Orbit]) -> tuple[CollectionObject, ...]:
    """`primitive_block(box)` from the box's orbits, as `orbits(box)` returns them."""
    return tuple(
        CollectionObject(TwistedSchur(orb.representative.parts, 0, box), 0)
        for orb in orbs
        if orb.length == box.n
    )


def fenced_block(
    box: Box, mu: BoxedDiagram, side: Literal["plus", "minus"]
) -> tuple[CollectionObject, ...]:
    """Members of the primitive block containing mu (plus) or contained in mu (minus)."""
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if mu.box != box:
        raise ValueError(f"{mu} lives on a different box")
    # the representative is upper triangular, so mu is minimal upper
    # triangular exactly when it is the representative
    orb = orbit_of(mu)
    if orb.representative != mu or orb.length == box.n:
        raise ValueError(f"{mu} is not a short minimal upper triangular diagram")
    out = []
    for obj in primitive_block(box):
        lam = BoxedDiagram(obj.bundle.weight, box)
        keep = lam.contains(mu) if side == "plus" else mu.contains(lam)
        if keep:
            out.append(obj)
    return tuple(out)


@dataclass(frozen=True)
class Violation:
    """A non-vanishing Ext that semiorthogonality forbids."""

    i: int
    j: int
    degree: int
    dim: int

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "degree": self.degree, "dim": self.dim}


@dataclass(frozen=True)
class GramResult:
    """The Gram check's `entries` and `violations`, and counts of its work:
    weight pairs read, pairs that pass the single-term test and reach the
    Weyl bounds, pairs with a live row span, LR expansions, the terms they
    yield, and Bott evaluations.  The counts take no part in equality."""

    entries: tuple[tuple[int, ...], ...]
    violations: tuple[Violation, ...]
    pairs_read: int = field(default=0, compare=False)
    pairs_bounded: int = field(default=0, compare=False)
    pairs_live: int = field(default=0, compare=False)
    lr_expansions: int = field(default=0, compare=False)
    lr_terms: int = field(default=0, compare=False)
    bott_evaluations: int = field(default=0, compare=False)


def _prefix_extrema(cols: list[tuple[int, int]]) -> tuple[list[int], list[int], list[int]]:
    """The indices of an index-sorted list of (index, twist), and the running
    min and max of its twists."""
    twists = [t for _, t in cols]
    return [j for j, _ in cols], list(accumulate(twists, min)), list(accumulate(twists, max))


def _lower_offset_range(
    rows: list[tuple[int, int]], cols: tuple[list[int], list[int], list[int]]
) -> tuple[int, int]:
    """(min, max) of t-s over the (i, s) in rows and the (j, t) of the columns
    `cols` (as `_prefix_extrema` returns them) with j <= i, when the first
    column comes no later than the last row.  The columns a row reads are a
    prefix, so this takes one bisection per row."""
    idx, least, most = cols
    ends = [(p - 1, s) for i, s in rows if (p := bisect_right(idx, i))]
    return min(least[p] - s for p, s in ends), max(most[p] - s for p, s in ends)


def gram(
    objects: tuple[CollectionObject, ...] | list[CollectionObject],
    mode: str = "euler",
    jobs: int = 1,
    *,
    violations_only: bool = False,
) -> GramResult:
    """Euler pairing matrix of an ordered collection.

    In full_ext mode every pair below the diagonal is checked degree by
    degree and the diagonal must be exactly Hom = k; each failure becomes a
    Violation.  Ext^*(Sigma^a U*(s), Sigma^b U*(t)) depends only on
    (a, b, t-s), so each weight pair (a, b) is read once, through three
    tests of growing cost: `bott._spans_may_live` on a range that bounds
    every offset t-s that a reads, then on the exact range of the pair's
    offsets, then the row spans of its Weyl bounds on that range.  Only a
    pair with a live span goes to `bott._ext_tables`, with its exact
    offsets and one memo of Bott outcomes for the call.  `violations_only`
    (full_ext mode) reads only the lower triangle and the diagonal, and
    returns no `entries`.  `jobs` is ignored.
    """
    if mode not in ("euler", "full_ext"):
        raise ValueError(f"mode must be 'euler' or 'full_ext', got {mode!r}")
    if violations_only and mode != "full_ext":
        raise ValueError("violations_only needs mode 'full_ext'")
    bundles = [o.bundle for o in objects]
    box = bundles[0].box if bundles else None
    if any(e.box != box for e in bundles):
        raise ValueError("bundles live on different boxes")
    at: dict[tuple[int, ...], list[tuple[int, int]]] = {}  # weight -> [(index, twist)]
    for i, e in enumerate(bundles):
        at.setdefault(e.weight, []).append((i, e.twist))
    extrema = {b: _prefix_extrema(cols) for b, cols in at.items()}
    twists = {w: (mins[-1], maxs[-1]) for w, (_, mins, maxs) in extrema.items()}
    _, least, most = _prefix_extrema([(i, e.twist) for i, e in enumerate(bundles)])
    memo = ExtMemo()
    read = bounded = live = 0
    tables = {}  # (a, b) -> {t-s: nonzero Ext table}, for every pair with a live span
    for a, rows in at.items():
        dual = dualize(a)
        s_min, s_max = twists[a]
        # a reads the objects up to index `reach`, at offsets t-s in [lo, hi]:
        # row (i, s) reads those up to i, or all of them
        if violations_only:
            reach = rows[-1][0]
            lo, hi = min(least[i] - s for i, s in rows), max(most[i] - s for i, s in rows)
        else:
            reach = len(bundles) - 1
            lo, hi = least[-1] - s_max, most[-1] - s_min
        for b, cols in at.items():
            if cols[0][0] > reach:
                continue
            read += 1
            if not _spans_may_live(box, a, b, lo, hi):
                continue
            if violations_only:
                offsets = _lower_offset_range(rows, extrema[b])
            else:
                t_min, t_max = twists[b]
                offsets = t_min - s_max, t_max - s_min
            if not _spans_may_live(box, a, b, *offsets):
                continue
            bounded += 1
            spans = _row_spans(box, *lr_bounds(dual, b), *offsets)
            if all(first > last for first, last in spans):
                continue
            live += 1
            ts = {t - s for i, s in rows for j, t in cols if not violations_only or j <= i}
            tables[a, b] = _ext_tables(box, a, b, ts, memo)
    entries = ()
    if not violations_only:
        chi = {pair: {t: ext.euler() for t, ext in exts.items()} for pair, exts in tables.items()}
        entries = tuple(
            tuple(chi.get((e.weight, f.weight), {}).get(f.twist - e.twist, 0) for f in bundles)
            for e in bundles
        )
    violations: list[Violation] = []
    if mode == "full_ext":
        for (a, b), exts in tables.items():
            if exts:
                violations += [
                    Violation(i, j, d, ext.dims[d])
                    for i, s in at[a]
                    for j, t in at[b]
                    if j < i and (ext := exts.get(t - s))
                    for d in sorted(ext.dims)
                ]
        for a, rows in at.items():
            hom = tables.get((a, a), {}).get(0, ExtTable())
            bad = [d for d in sorted(set(hom.dims) | {0}) if hom[d] != (d == 0)]
            violations += [Violation(i, i, d, hom[d]) for i, _ in rows for d in bad]
        violations.sort(key=lambda v: (v.i, v.j))
    return GramResult(
        entries=entries,
        violations=tuple(violations),
        pairs_read=read,
        pairs_bounded=bounded,
        pairs_live=live,
        lr_expansions=memo.expansions,
        lr_terms=memo.terms,
        bott_evaluations=len(memo.outcomes),
    )
