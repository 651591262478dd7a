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
each weight pair once, in two steps.
- It takes only the range [min, max] of the offsets t-s that the output
  reads, and tests on it the row spans (`bott._row_spans`) of the Weyl
  bounds `schur.lr_bounds` of dual(a) (x) b.  In the lower triangle the range
  comes from prefix extrema of the column twists by index (`_offset_range`),
  with no set built over rows x columns.  A pair with no live span reads zero
  at every offset: on a Fonarev collection, every pair of the lower triangle
  but the diagonal ones (90 of the 100 weight pairs of G(4,8)).
- Only a live pair builds its exact offset set and goes to
  `bott._ext_tables`, which cuts its expansion to the live regions and
  resolves the terms by `bott` through one memo for the call.  That is 1300
  (a, b, t-s) triples for the 4900 ordered pairs of G(4,8) in the full table,
  and 70 in the lower triangle.
A violations-only call reads only the lower triangle and the diagonal.
`GramResult` carries the counts of this work.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Literal

from .bott import ExtMemo, ExtTable, TwistedSchur, _ext_tables, _row_spans
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
    weight pairs read, pairs with a live row span, LR expansions, the terms
    they yield, and Bott evaluations.  The counts take no part in equality."""

    entries: tuple[tuple[int, ...], ...]
    violations: tuple[Violation, ...]
    pairs_read: int = field(default=0, compare=False)
    pairs_live: int = field(default=0, compare=False)
    lr_expansions: int = field(default=0, compare=False)
    lr_terms: int = field(default=0, compare=False)
    bott_evaluations: int = field(default=0, compare=False)


def _prefix_extrema(cols: list[tuple[int, int]]) -> tuple[list[int], list[int], list[int]]:
    """The indices of an index-sorted list of (index, twist), and the running
    min and max of its twists."""
    twists = [t for _, t in cols]
    return [j for j, _ in cols], list(accumulate(twists, min)), list(accumulate(twists, max))


def _offset_range(
    rows: list[tuple[int, int]], cols: tuple[list[int], list[int], list[int]], lower_only: bool
) -> tuple[int, int] | None:
    """(min, max) of t-s over the (i, s) in rows and the (j, t) of the columns
    `cols` (as `_prefix_extrema` returns them), with j <= i if `lower_only`;
    None if no pair is read.  The columns a row reads are a prefix, so this
    takes one bisection per row."""
    idx, least, most = cols
    if lower_only:
        ends = [(p - 1, s) for i, s in rows if (p := bisect_right(idx, i))]
    else:
        ends = [(len(idx) - 1, s) for _, s in rows]
    if not ends:
        return None
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
    (a, b, t-s), so each weight pair (a, b) is read once: the row spans of
    its Weyl bounds are tested on the range of the offsets t-s it reads, and
    only a pair with a live span goes to `bott._ext_tables`, with its exact
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
    memo = ExtMemo()
    read = live = 0
    tables = {}  # (a, b) -> {t-s: nonzero Ext table}, for every pair read
    for a, rows in at.items():
        dual = dualize(a)
        for b, cols in at.items():
            offsets = _offset_range(rows, extrema[b], violations_only)
            if offsets is None:
                continue
            read += 1
            spans = _row_spans(box, *lr_bounds(dual, b), *offsets)
            if all(first > last for first, last in spans):
                tables[a, b] = {}
                continue
            live += 1
            ts = {t - s for i, s in rows for j, t in cols if not violations_only or j <= i}
            tables[a, b] = _ext_tables(box, a, b, ts, memo)
    entries = ()
    if not violations_only:
        chi = {pair: {t: ext.euler() for t, ext in exts.items()} for pair, exts in tables.items()}
        entries = tuple(
            tuple(chi[e.weight, f.weight].get(f.twist - e.twist, 0) for f in bundles)
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
            hom = tables[a, a].get(0, ExtTable())
            bad = [d for d in sorted(set(hom.dims) | {0}) if hom[d] != (d == 0)]
            violations += [Violation(i, i, d, hom[d]) for i, _ in rows for d in bad]
        violations.sort(key=lambda v: (v.i, v.j))
    return GramResult(
        entries=entries,
        violations=tuple(violations),
        pairs_read=read,
        pairs_live=live,
        lr_expansions=memo.expansions,
        lr_terms=memo.terms,
        bott_evaluations=len(memo.outcomes),
    )
