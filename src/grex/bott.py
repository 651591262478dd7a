"""Sheaf cohomology of twisted Schur bundles on G(k,n) via the dot action.

`bott` implements the standard algorithm for Sigma^nu U*: append the zero
tail, add rho = (n-1, ..., 0), declare the bundle acyclic on a repeated
entry, and otherwise read the degree off the inversion count and the
cohomology representation off the sorted weight.

`ext_table` reduces Ext^*(Sigma^a U*(s), Sigma^b U*(t)) to bundle cohomology
through the Littlewood-Richardson expansion of Sigma^dual(a) (x) Sigma^b.

`euler_char` is the alternating sum of that table.  Every dimension comes
from the Weyl dimension formula `schur.dimension` of the sorted GL(n) weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagrams import Box
from .schur import check_weight, dimension, dualize, lr_product

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


# Kept on purpose: in the Fonarev G(4,11) Gram check 98 % of the ~210k calls
# hit 4548 keys, and without the cache that stage runs about 3x slower.
_BOTT_CACHE: dict[tuple, BottOutcome] = {}


def bott(box: Box, nu: tuple[int, ...]) -> BottOutcome:
    """Cohomology of Sigma^nu U* on G(k,n): at most one non-vanishing degree."""
    key = (box, nu)
    hit = _BOTT_CACHE.get(key)
    if hit is not None:
        return hit
    check_weight(nu)
    k, n = box.k, box.n
    if len(nu) != k:
        raise ValueError(f"weight length {len(nu)} does not match k={k}")
    rho = range(n - 1, -1, -1)
    gamma = [x + r for x, r in zip(list(nu) + [0] * (n - k), rho)]
    if len(set(gamma)) < n:
        _BOTT_CACHE[key] = _ACYCLIC
        return _ACYCLIC
    inversions = 0
    for i in range(n):
        for j in range(i + 1, n):
            if gamma[i] < gamma[j]:
                inversions += 1
    if inversions > box.dimension:
        raise AssertionError("dot-action degree exceeded dim G(k,n)")
    sorted_gamma = sorted(gamma, reverse=True)
    gln = tuple(g - r for g, r in zip(sorted_gamma, range(n - 1, -1, -1)))
    dim = dimension(gln, n)
    out = BottOutcome(inversions, gln, dim)
    _BOTT_CACHE[key] = out
    return out


def ext_table(e: TwistedSchur, f: TwistedSchur) -> ExtTable:
    """Graded dimensions of Ext^*(E, F) for twisted Schur bundles on one box."""
    if e.box != f.box:
        raise ValueError("bundles live on different boxes")
    box = e.box
    t = f.twist - e.twist
    dims: dict[int, int] = {}
    for nu, mult in lr_product(dualize(e.weight), f.weight).items():
        outcome = bott(box, tuple(x + t for x in nu))
        if not outcome.acyclic:
            d = outcome.degree
            dims[d] = dims.get(d, 0) + mult * outcome.dim
    return ExtTable(dims)


def euler_char(e: TwistedSchur, f: TwistedSchur) -> int:
    """Euler form chi(E, F) = sum (-1)^i dim Ext^i(E, F)."""
    return ext_table(e, f).euler()
