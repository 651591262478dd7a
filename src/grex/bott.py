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
`_row_spans` computes these k+1 intervals, and both `bott` (on the one
weight nu at d = 0) and `_ext_tables` (on Weyl's bounds) read them.

The generic dot action (padded weight, repeated-entry test, inversion count,
sort) lives only in `tests/oracles.py`, as the reference `bott` is checked
against.

`ext_table` reduces Ext^*(Sigma^a U*(s), Sigma^b U*(t)) to bundle cohomology
through the Littlewood-Richardson expansion of Sigma^dual(a) (x) Sigma^b.
`_ext_tables` is the one routine that does so, for every twist a caller asks
at once: `ext_table` asks for one twist with a fresh memo, and
`lefschetz.gram` for all the twists of a weight pair, with one memo of Bott
outcomes by twisted weight for the whole Gram check.  Before it expands, it
reads the row spans of Weyl's bounds `schur.lr_bounds` on the LR support:
a twist outside every span is zero without expanding, and a weight pair left
with none is not expanded at all; every (nu, t) of the one expansion
otherwise goes to `bott` through the memo.  Nothing here keeps state between
calls.

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
    return [
        (max(lo, j - k - upper[j - 1]) if j else lo, min(hi, j - n - lower[j]) if j < k else hi)
        for j in range(k + 1)
    ]


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


def _ext_tables(
    box: Box, a: tuple[int, ...], b: tuple[int, ...], ts: Iterable[int], outcomes: dict
) -> dict[int, ExtTable]:
    """{t: Ext^*(Sigma^a U*, Sigma^b U*(t))} for the t in ts where it is not zero.
    One LR expansion of Sigma^dual(a) (x) Sigma^b serves every twist in a row
    span of its Weyl bounds, and none runs if no twist is; `outcomes` memoizes
    `bott` by twisted weight for as long as the caller keeps it."""
    wanted = set(ts)
    dual = dualize(a)
    spans = _row_spans(box, *lr_bounds(dual, b), min(wanted), max(wanted))
    kept = wanted.intersection(d for first, last in spans for d in range(first, last + 1))
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
