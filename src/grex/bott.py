"""Sheaf cohomology of twisted Schur bundles on G(k,n) via the dot action.

`bott` implements the standard algorithm for Sigma^nu U*: append the zero
tail, add rho = (n-1, ..., 0), declare the bundle acyclic on a repeated
entry, and otherwise read the degree off the inversion count and the
cohomology representation off the sorted weight.

`ext_table` reduces Ext^*(Sigma^a U*(s), Sigma^b U*(t)) to bundle cohomology
through the Littlewood-Richardson expansion of Sigma^dual(a) (x) Sigma^b.

`euler_char` evaluates the same alternating sum through the Weyl dimension
polynomial, which vanishes precisely on the acyclic weights and carries the
degree sign; agreement with the table is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .diagrams import Box
from .schur import check_weight, dualize, lr_product

__all__ = [
    "TwistedSchur",
    "BottOutcome",
    "ExtTable",
    "bott",
    "ext_table",
    "euler_char",
    "schur_euler",
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

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def to_json(self) -> dict[str, int]:
        return {str(d): self.dims[d] for d in sorted(self.dims)}

    def __repr__(self):
        return f"ExtTable({self.dims!r})"


class _EulerCalc:
    """Per-box evaluator of chi(G(k,n), Sigma^v U*) for arbitrary integer weights.

    With gamma_i = v_i + n - i the value factors as
        V(gamma) * prod_i P(gamma_i) * V(rho_tail) / prod_{i<j<=n}(j - i),
    where P(g) = g(g-1)...(g-(n-k)+1); a zero factor is exactly the
    repeated-entry case of the dot action.
    """

    __slots__ = ("k", "n", "cnum", "cden", "ptab", "memo")

    def __init__(self, box: Box):
        self.k, self.n = box.k, box.n
        w = box.width
        num = 1
        for a in range(1, w):
            for b in range(a):
                num *= a - b
        den = 1
        for i in range(self.n):
            for j in range(i + 1, self.n):
                den *= j - i
        self.cnum, self.cden = num, den
        self.ptab: dict[int, int] = {}
        self.memo: dict[tuple[int, ...], int] = {}

    def falling(self, g: int) -> int:
        v = self.ptab.get(g)
        if v is None:
            v = 1
            for a in range(self.n - self.k):
                v *= g - a
            self.ptab[g] = v
        return v

    def chi(self, v: tuple[int, ...]) -> int:
        r = self.memo.get(v)
        if r is not None:
            return r
        k, n = self.k, self.n
        g = [v[i] + n - 1 - i for i in range(k)]
        prod = 1
        for gi in g:
            f = self.falling(gi)
            if f == 0:
                self.memo[v] = 0
                return 0
            prod *= f
        for i in range(k):
            for j in range(i + 1, k):
                prod *= g[i] - g[j]
        q, rem = divmod(prod * self.cnum, self.cden)
        if rem != 0:
            raise AssertionError(f"Weyl dimension of {v} is not an integer")
        self.memo[v] = q
        return q


@lru_cache(maxsize=None)
def _calc(box: Box) -> _EulerCalc:
    return _EulerCalc(box)


def schur_euler(box: Box, v: tuple[int, ...]) -> int:
    """chi(G(k,n), Sigma^v U*) for a weakly decreasing integer weight v."""
    return _calc(box).chi(check_weight(v))


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
    dim = abs(_calc(box).chi(nu))
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
    if e.box != f.box:
        raise ValueError("bundles live on different boxes")
    calc = _calc(e.box)
    t = f.twist - e.twist
    total = 0
    for nu, mult in lr_product(dualize(e.weight), f.weight).items():
        total += mult * calc.chi(tuple(x + t for x in nu))
    return total
