"""Sheaf cohomology of twisted Schur bundles on G(k,n) by Bott-Borel-Weil.

`bott` is Bott-Borel-Weil in closed form for Sigma^nu U* on G(k,n).  With
v_i = nu_i + n-1-i, the entries v_1 > ... > v_k sit ahead of the tail
n-k-1, ..., 0 of nu + rho, rho = (n-1, ..., 0).  So the bundle is acyclic
exactly when some v_i lies in [0, n-k).  Otherwise, with j = #{v_i >= n-k},
sorting moves the k-j negative v_i past the n-k tail entries: the degree is
(n-k)(k-j), and the GL(n) weight is

    (nu_1, ..., nu_j, (j-k)^{n-k}, nu_{j+1}+n-k, ..., nu_k+n-k).

The generic dot action (padded weight, repeated-entry test, inversion count,
sort) lives only in `tests/oracles.py`, as the reference `bott` is checked
against.

`ext_table` reduces Ext^*(Sigma^a U*(s), Sigma^b U*(t)) to bundle cohomology
through the Littlewood-Richardson expansion of Sigma^dual(a) (x) Sigma^b.
`_ext_tables` is the one routine that does so, for every twist a caller asks
at once: `ext_table` asks for one twist with a fresh memo, and
`lefschetz.gram` for all the twists of a weight pair, with one memo of Bott
outcomes by twisted weight for the whole Gram check.  Before it expands,
`_weyl_twists` reads the row test of `bott` from a box of weights instead of
one weight: given Weyl's bounds `schur.lr_bounds` on the LR support and its
fixed size, it keeps every twist at which some weight of that box could be
non-acyclic.  The other twists are zero without expanding, and a weight pair
left with none is not expanded at all; every (nu, t) of the one expansion
otherwise goes to `bott` through the memo.  Nothing here keeps state between
calls.

`euler_char` is the alternating sum of that table.  Every dimension comes
from the Weyl dimension formula `schur.dimension` of that GL(n) weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .diagrams import Box
from .schur import check_weight, dimension, dualize, lr_bounds, lr_product

__all__ = [
    "TwistedSchur",
    "BottOutcome",
    "ExtTable",
    "bott",
    "ext_table",
    "euler_char",
]


@dataclass(frozen=True)
class TwistedSchur:
    """The bundle Sigma^weight U* (x) O(twist) on the box's Grassmannian."""

    weight: tuple[int, ...]
    twist: int
    box: Box

    def __post_init__(self):
        check_weight(self.weight)
        if len(self.weight) != self.box.k:
            raise ValueError(
                f"weight length {len(self.weight)} does not match k={self.box.k}"
            )

    def reduced(self) -> "TwistedSchur":
        """Equivalent presentation whose weight has last entry 0."""
        m = self.weight[-1]
        if m == 0:
            return self
        return TwistedSchur(tuple(x - m for x in self.weight), self.twist + m, self.box)

    def to_json(self) -> dict:
        return {"weight": list(self.weight), "twist": self.twist}

    def __str__(self):
        w = ",".join(map(str, self.weight))
        return f"S({w})U*({self.twist})"


@dataclass(frozen=True)
class BottOutcome:
    """Acyclic, or a single cohomology degree with its GL(n) weight and dimension.

    Only the dimension feeds downstream computations; the weight is a
    diagnostic label and its dual-vs-standard reading is convention bound.
    """

    degree: Optional[int]
    gln_weight: Optional[tuple[int, ...]]
    dim: int

    @property
    def acyclic(self) -> bool:
        return self.degree is None


_ACYCLIC = BottOutcome(None, None, 0)


class ExtTable:
    """Graded dimensions of an Ext space, stored sparsely by degree."""

    __slots__ = ("dims",)

    def __init__(self, dims: dict[int, int] | None = None):
        self.dims = {d: v for d, v in (dims or {}).items() if v}

    def __getitem__(self, degree: int) -> int:
        return self.dims.get(degree, 0)

    def __eq__(self, other):
        if isinstance(other, ExtTable):
            return self.dims == other.dims
        if isinstance(other, dict):
            return self.dims == {d: v for d, v in other.items() if v}
        return NotImplemented

    def __bool__(self):
        return bool(self.dims)

    def is_zero(self) -> bool:
        return not self.dims

    def euler(self) -> int:
        return sum(v if d % 2 == 0 else -v for d, v in self.dims.items())

    def to_json(self) -> dict[str, int]:
        return {str(d): self.dims[d] for d in sorted(self.dims)}

    def __repr__(self):
        return f"ExtTable({self.dims!r})"


def bott(box: Box, nu: tuple[int, ...]) -> BottOutcome:
    """Cohomology of Sigma^nu U* on G(k,n): at most one non-vanishing degree,
    by the closed form in the module docstring."""
    nu = check_weight(nu)
    k, n, w = box.k, box.n, box.width
    if len(nu) != k:
        raise ValueError(f"weight length {len(nu)} does not match k={k}")
    v = [x + n - 1 - i for i, x in enumerate(nu)]
    # v strictly decreases, so v[j] is its largest entry below n-k
    j = sum(1 for x in v if x >= w)
    if j < k and v[j] >= 0:
        return _ACYCLIC
    gln = nu[:j] + (j - k,) * w + tuple(x + w for x in nu[j:])
    return BottOutcome(w * (k - j), gln, dimension(gln, n))


def _least_twist(breaks: list[int], slack: int) -> int:
    """The least integer d with sum(max(0, x - d) for x in breaks) <= slack,
    for slack >= 0 and breaks not empty."""
    breaks = sorted(breaks, reverse=True)
    total = 0
    for m, x in enumerate(breaks, 1):
        total += x
        # on [breaks[m], breaks[m-1]] the sum is total - m*d
        if m == len(breaks) or total - m * breaks[m] > slack:
            return -((slack - total) // m)


def _weyl_twists(
    box: Box, lower: tuple[int, ...], upper: tuple[int, ...], size: int, lo: int, hi: int
) -> Iterator[int]:
    """The twists d in [lo, hi], ascending, at which some integer vector nu with
    lower <= nu <= upper and |nu| = size passes the row test of `bott` for
    Sigma^nu U*(d): for some j in 0..k, nu_r + d >= r+1-k on the rows r < j and
    nu_r + d <= r-n on the rows r >= j.  Every twist where some weight of that
    box is not acyclic is among them.  For each j they form one interval, cut
    by each row alone and by the sum on each side of j."""
    k = box.k
    tops = [r + 1 - k for r in range(k)]
    bottoms = [r - box.n for r in range(k)]
    below, above = size - sum(lower), sum(upper) - size
    if below < 0 or above < 0 or any(x > y for x, y in zip(lower, upper)):
        return
    # row r < j alone needs d >= tops[r] - upper[r], row r >= j needs
    # d <= bottoms[r] - lower[r]; lasts[j] is the least of the latter
    lasts = [hi] * (k + 1)
    for r in range(k - 1, -1, -1):
        lasts[r] = min(lasts[r + 1], bottoms[r] - lower[r])
    spans = []
    first = lo
    for j in range(k + 1):
        if j > 0:
            first = max(first, tops[j - 1] - upper[j - 1])
        if first > lasts[j]:
            continue
        start, end = first, lasts[j]
        if j > 0:
            # sum of max(lower_r, tops_r - d) over r < j, plus lower beyond, <= size
            start = max(start, _least_twist([tops[r] - lower[r] for r in range(j)], below))
        if j < k:
            # sum of min(upper_r, bottoms_r - d) over r >= j, plus upper before, >= size
            end = min(end, -_least_twist([upper[r] - bottoms[r] for r in range(j, k)], above))
        if start <= end:
            spans.append((start, end))
    d = lo
    for start, end in sorted(spans):
        yield from range(max(d, start), end + 1)
        d = max(d, end + 1)


def _ext_tables(
    box: Box, a: tuple[int, ...], b: tuple[int, ...], ts: Iterable[int], outcomes: dict
) -> dict[int, ExtTable]:
    """{t: Ext^*(Sigma^a U*, Sigma^b U*(t))} for the t in ts where it is not zero.
    One LR expansion of Sigma^dual(a) (x) Sigma^b serves every twist that
    `_weyl_twists` keeps, and none runs if it keeps none; `outcomes` memoizes
    `bott` by twisted weight for as long as the caller keeps it."""
    wanted = set(ts)
    dual = dualize(a)
    lower, upper = lr_bounds(dual, b)
    kept = wanted.intersection(
        _weyl_twists(box, lower, upper, sum(b) - sum(a), min(wanted), max(wanted))
    )
    dims: dict[int, dict[int, int]] = {t: {} for t in kept}
    if kept:
        for nu, mult in lr_product(dual, b).items():
            for t, table in dims.items():
                twisted = tuple(x + t for x in nu)
                outcome = outcomes.get(twisted)
                if outcome is None:
                    outcome = outcomes[twisted] = bott(box, twisted)
                if outcome.dim:
                    table[outcome.degree] = table.get(outcome.degree, 0) + mult * outcome.dim
    return {t: ExtTable(table) for t, table in dims.items() if table}


def ext_table(e: TwistedSchur, f: TwistedSchur) -> ExtTable:
    """Graded dimensions of Ext^*(E, F) for twisted Schur bundles on one box."""
    if e.box != f.box:
        raise ValueError("bundles live on different boxes")
    t = f.twist - e.twist
    return _ext_tables(e.box, e.weight, f.weight, (t,), {}).get(t, ExtTable())


def euler_char(e: TwistedSchur, f: TwistedSchur) -> int:
    """Euler form chi(E, F) = sum (-1)^i dim Ext^i(E, F)."""
    return ext_table(e, f).euler()
