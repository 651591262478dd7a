"""Sheaf cohomology of twisted Schur bundles on G(k,n) by Bott-Borel-Weil.

`bott` is Bott-Borel-Weil in closed form for Sigma^nu U* on G(k,n).  With
v_r = nu_r + n-1-r (rows from 0), the entries v_0 > ... > v_{k-1} sit ahead
of the tail n-k-1, ..., 0 of nu + rho, rho = (n-1, ..., 0).  So the bundle
is acyclic exactly when some v_r lies in [0, n-k).  Otherwise, with
j = #{v_r >= n-k}, sorting moves the k-j negative v_r past the n-k tail
entries: the degree is (n-k)(k-j), and the GL(n) weight is

    (nu_0, ..., nu_{j-1}, (j-k)^{n-k}, nu_j+n-k, ..., nu_{k-1}+n-k).

Read as a test on the twist d of Sigma^nu U*(d), this is the row test:
the bundle is not acyclic exactly when, for some j in 0..k, nu_r + d >= r+1-k
on the rows r < j and nu_r + d <= r-n on the rows r >= j.  Both bounds
strictly increase in r and nu weakly decreases, so only rows j-1 and j
matter: j-k-nu_{j-1} <= d <= j-n-nu_j.  For every weight with
lower <= nu <= upper the same j needs j-k-upper_{j-1} <= d <= j-n-lower_j.
`_row_spans` computes these k+1 intervals in one loop, and both `bott` (on
the one weight nu at d = 0) and the Gram check (on Weyl's bounds) read them.

The Gram check first rejects most weight pairs without the bounds.  For
Sigma^dual(a) (x) Sigma^b, Weyl's bounds are a max (lower) and a min (upper)
of terms b_q - a_p, so any one term bounds them: with d_l = b_l - a_l,
lower_0 = max d and upper_{k-1} = min d exactly, upper_{j-1} is at most both
b_{j-1} - a_{k-1} and b_0 - a_{k-j}, and lower_j is at least both
b_j - a_0 and b_{k-1} - a_{k-1-j}.  On twists [lo, hi], span 0 is live only
if max d <= -n-lo, span k only if min d >= -hi, and a middle span j only if
upper_{j-1} - lower_j >= n-k, upper_{j-1} >= j-k-hi and lower_j <= j-n-lo,
each of which then holds with those terms in place of the bounds.
`_spans_may_live` tests exactly these conditions in O(k), without computing
the O(k^2) bounds: a pair it rejects has every row span empty.

The generic dot action (padded weight, repeated-entry test, inversion count,
sort) lives only in `tests/oracles.py`, as the reference `bott` is checked
against.

`ext_table` reduces Ext^*(Sigma^a U*(s), Sigma^b U*(t)) to bundle cohomology
through the Littlewood-Richardson expansion of Sigma^dual(a) (x) Sigma^b.
`_ext_tables` is the one routine that does so, for every twist a caller asks
at once: `ext_table` asks for one twist with a fresh memo, and
`lefschetz.gram` for the exact offsets of each weight pair whose row spans
are live, with one `ExtMemo` (Bott outcomes by twisted weight, and counts of
the work) for the whole Gram check.

Every nu of the LR support is weakly decreasing, lies in Weyl's bounds
lower <= nu <= upper (`schur.lr_bounds`) and has |nu| = |dual(a)| + |b|,
the degree of the product.  For a twist d in the span of j, `_region_caps`
intersects these facts with the row test of (d, j): the region left has one
cap per row, or is empty.  The cut is exact.  A nu that is not acyclic at d,
with index j, lies in the region of (d, j); so a nu outside every live
region of a twist is acyclic at that twist, and a twist with no live region
reads zero.  The one expansion runs only if some twist keeps a live region,
capped row by row at the largest live cap (`lr_product(..., caps)`), and each
of its terms goes to `bott` through the memo at each such twist.  On the
lower triangle of every Fonarev collection checked (each box with n <= 14
and C(n,k) <= 3003, and G(6,15), G(7,14), G(9,15)), the one live region of
a diagonal pair (a, a) is d = 0, j = k, where |nu| = 0 and nu >= 0 force
nu = 0: its expansion yields that one term, and Hom = k is computed from
it, not assumed.  Nothing here keeps state between calls.

`euler_char` is the alternating sum of that table.  Every dimension comes
from the Weyl dimension formula `schur.dimension` of that GL(n) weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .diagrams import Box
from .schur import check_weight, dimension, dualize, lr_bounds, lr_product

__all__ = [
    "TwistedSchur",
    "BottOutcome",
    "ExtTable",
    "bott",
    "ext_table",
    "euler_char",
    "normal_form",
]


def normal_form(weight: tuple[int, ...], twist: int) -> tuple[tuple[int, ...], int]:
    """Sigma^w U*(t) as Sigma^{w-m} U*(t+m), m = w_{k-1}: the weight ends in 0."""
    if m := weight[-1]:
        return tuple(x - m for x in weight), twist + m
    return weight, twist


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
        """Equivalent presentation whose weight has last entry 0 (`normal_form`)."""
        return TwistedSchur(*normal_form(self.weight, self.twist), self.box)

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


def _row_spans(
    box: Box, lower: tuple[int, ...], upper: tuple[int, ...], lo: int, hi: int
) -> list[tuple[int, int]]:
    """For j = 0..k, the interval (first, last) of twists d in [lo, hi] with
    d >= j-k-upper[j-1] (if j > 0) and d <= j-n-lower[j] (if j < k); empty
    when first > last.  Every d at which Sigma^nu U*(d) is not acyclic, for
    a weight lower <= nu <= upper, lies in the span of its j."""
    k, n = box.k, box.n
    spans = []
    first = lo
    for j in range(k):
        last = j - n - lower[j]
        spans.append((first, last if last < hi else hi))
        first = j + 1 - k - upper[j]
        if first < lo:
            first = lo
    spans.append((first, hi))
    return spans


def _spans_may_live(box: Box, a: tuple[int, ...], b: tuple[int, ...], lo: int, hi: int) -> bool:
    """False when single Weyl terms prove every span of
    `_row_spans(box, *lr_bounds(dualize(a), b), lo, hi)` empty, in O(k);
    True when they cannot (module docstring)."""
    k, n = box.k, box.n
    d = [y - x for x, y in zip(a, b)]
    if max(d) <= -n - lo or min(d) >= -hi:
        return True
    gap = n - k
    a_first, a_last, b_first, b_last = a[0], a[-1], b[0], b[-1]
    for j in range(1, k):
        upper = b[j - 1] - a_last
        lower = b[j] - a_first
        if (
            upper - lower >= gap
            and upper >= j - k - hi
            and lower <= j - n - lo
            and (b_first - a[k - j]) - (b_last - a[k - 1 - j]) >= gap
        ):
            return True
    return False


def bott(box: Box, nu: tuple[int, ...]) -> BottOutcome:
    """Cohomology of Sigma^nu U* on G(k,n): at most one non-vanishing degree,
    by the closed form in the module docstring."""
    nu = check_weight(nu)
    k, w = box.k, box.width
    if len(nu) != k:
        raise ValueError(f"weight length {len(nu)} does not match k={k}")
    # for one weight the spans are disjoint: first_{j+1} - last_j = n-k+1
    for j, (first, last) in enumerate(_row_spans(box, nu, nu, 0, 0)):
        if first <= last:
            gln = nu[:j] + (j - k,) * w + tuple(x + w for x in nu[j:])
            return BottOutcome(w * (k - j), gln, dimension(gln, box.n))
    return _ACYCLIC


def _region_caps(
    box: Box, lower: tuple[int, ...], upper: tuple[int, ...], size: int, d: int, j: int
) -> list[int] | None:
    """Row caps of the region of (d, j), for d in the row span of j: every
    weakly decreasing nu with lower <= nu <= upper and |nu| = size for which
    Sigma^nu U*(d) is not acyclic with index j has nu[r] <= caps[r].  None
    when no such nu exists.

    The row test bounds row j-1 below by j-k-d and row j above by j-n-d.
    Since nu decreases, the first bound holds on every row above j-1 and the
    second on every row below j; the Weyl bounds decrease too, so that is all
    the propagation there is, and inside the span no row is left empty.
    Then the size must lie between the sums of the bounds, and caps each row
    at size minus the lower bounds of the others."""
    above, below = j - box.k - d, j - box.n - d
    lo = [max(x, above) for x in lower[:j]] + list(lower[j:])
    hi = list(upper[:j]) + [min(y, below) for y in upper[j:]]
    least = sum(lo)
    if not least <= size <= sum(hi):
        return None
    return [min(y, size - least + x) for x, y in zip(lo, hi)]


class ExtMemo:
    """`bott` outcomes by twisted weight, shared by the `_ext_tables` calls a
    caller makes, with counts of the work done through it: LR expansions,
    the terms they yield, and Bott evaluations (one per memo entry)."""

    __slots__ = ("outcomes", "expansions", "terms")

    def __init__(self):
        self.outcomes: dict[tuple[int, ...], BottOutcome] = {}
        self.expansions = 0
        self.terms = 0


def _ext_tables(
    box: Box, a: tuple[int, ...], b: tuple[int, ...], ts: Iterable[int], memo: ExtMemo
) -> dict[int, ExtTable]:
    """{t: Ext^*(Sigma^a U*, Sigma^b U*(t))} for the t in ts where it is not zero.
    One LR expansion of Sigma^dual(a) (x) Sigma^b, capped to the live regions
    of its Weyl bounds, serves every twist that has one, and none runs if no
    twist has; every term goes to `bott` through `memo` at each such twist."""
    wanted = set(ts)
    dual = dualize(a)
    lower, upper = lr_bounds(dual, b)
    size = sum(dual) + sum(b)
    caps = None
    kept = set()
    for j, (first, last) in enumerate(_row_spans(box, lower, upper, min(wanted), max(wanted))):
        for d in wanted:
            if not first <= d <= last:
                continue
            row = _region_caps(box, lower, upper, size, d, j)
            if row is not None:
                kept.add(d)
                caps = row if caps is None else [max(x, y) for x, y in zip(caps, row)]
    dims: dict[int, dict[int, int]] = {t: {} for t in kept}
    if kept:
        terms = lr_product(dual, b, tuple(caps))
        memo.expansions += 1
        memo.terms += len(terms)
        outcomes = memo.outcomes
        for nu, mult in terms.items():
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
    return _ext_tables(e.box, e.weight, f.weight, (t,), ExtMemo()).get(t, ExtTable())


def euler_char(e: TwistedSchur, f: TwistedSchur) -> int:
    """Euler form chi(E, F) = sum (-1)^i dim Ext^i(E, F)."""
    return ext_table(e, f).euler()
