"""Young diagrams in a k x (n-k) box, the Z/n cyclic action and its orbits.

A diagram is stored as a weakly decreasing length-k integer vector with
explicit trailing zeros, so the cyclic rule has no variable-length cases.
The generator of Z/n acts by one step rule on those parts: add a full
column when the first row is short of n-k, and otherwise drop the full first
row and append an empty last row.  n steps give the identity (the step
rotates the diagram's length-n boundary word by one letter), so every orbit
length divides n.  `cyclic_step`, `orbit_of`, `orbit_length` and `orbits`
all apply `_step`, and nothing else encodes the action.

`orbits(box)` is the one classification of the box: one walk per orbit,
sorted by the minimal upper triangular representative lambda, each with its
length o(lambda).  Every minimal, short (o < n) and primitive (o = n)
selection reads it, here and in `lefschetz`, `ktheory` and `staircase`.
`grex report` walks it once per box: the per-box context of `ktheory` keeps
the tuple, and the report's selections read that.  The walk itself is
`_orbits`, over the box's diagrams as given: `orbits(box)` enumerates fresh
ones and keeps nothing, while the context passes its own, so every member
of its orbits is one of the context's diagrams.  `_ascending_parts` lists
the parts of a box in lexicographic order, by one iterative build with no
recursive generator, for `enumerate_diagrams`, `orbits` and the context.

The jump rule of the staircase of a diagram lambda with a full first row is
pure index arithmetic on the parts too (`_jumps`).  In the i-th middle term
Lambda^{c_i} V* (x) Sigma^{mu_i} U*, mu_i keeps the rows of lambda that fit
left of abscissa X = n-k-i and drops the rest onto the path of lambda'(-1),

    mu_i[r] = lambda[r]                      if lambda[r] <= X
              max(X, lambda'(-1)[r])         otherwise,

and c_i = |lambda| - |mu_i|; the tail is `_step(lambda)` at twist -1.
`staircase.build_staircase` builds the complex from it, and the twist T of
`ktheory` its full-first-row columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from operator import ge

__all__ = [
    "Box",
    "BoxedDiagram",
    "Orbit",
    "SELECTIONS",
    "cyclic_step",
    "enumerate_diagrams",
    "is_minimal_upper_triangular",
    "is_strictly_upper_triangular",
    "is_upper_triangular",
    "non_minimal_upper",
    "orbit_length",
    "orbit_of",
    "orbits",
    "residual_rank",
    "theta",
]


@dataclass(frozen=True)
class Box:
    """The ambient k x (n-k) rectangle for G(k,n).

    k == n is tolerated as a degenerate width-0 box (it occurs as the
    ambient box of theta(k, 1)); everything downstream that needs a real
    Grassmannian insists on k < n.
    """

    k: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"invalid box: need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def width(self) -> int:
        return self.n - self.k

    @property
    def dimension(self) -> int:
        """dim G(k,n) = k(n-k)."""
        return self.k * (self.n - self.k)

    def to_json(self) -> dict:
        return {"k": self.k, "n": self.n}

    @staticmethod
    def from_json(data: dict) -> "Box":
        return Box(int(data["k"]), int(data["n"]))


def _check_in_box(p: tuple[int, ...], k: int, width: int) -> None:
    """ValueError unless p is a diagram of the k x width box: k weakly decreasing
    parts in [0, width].  The one in-box test, of `BoxedDiagram` and the twist T."""
    if not (len(p) == k and p[-1] >= 0 and p[0] <= width and all(map(ge, p, p[1:]))):
        if len(p) != k:
            raise ValueError(f"diagram must have exactly {k} parts, got {p}")
        raise ValueError(f"not a diagram in the {k}x{width} box: {p}")


@dataclass(frozen=True)
class BoxedDiagram:
    """A Young diagram inside a box, as a length-k weakly decreasing vector."""

    parts: tuple[int, ...]
    box: Box

    def __post_init__(self):
        _check_in_box(self.parts, self.box.k, self.box.width)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def contains(self, other: "BoxedDiagram") -> bool:
        """Componentwise inclusion of Young diagrams."""
        return all(a >= b for a, b in zip(self.parts, other.parts))

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class Orbit:
    """A cyclic orbit: successive images of the starting diagram."""

    representative: BoxedDiagram
    members: tuple[BoxedDiagram, ...]
    length: int


SELECTIONS = ("all", "upper", "strictly_upper", "minimal_upper", "short_minimal_upper")


def _step(parts: tuple[int, ...], width: int) -> tuple[int, ...]:
    """The one step rule of the Z/n action, on the parts of a diagram."""
    if parts[0] < width:
        return tuple(x + 1 for x in parts)
    return parts[1:] + (0,)


def _jumps(box: Box, lam: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The jump rule: (c_i, mu_i) of the middle terms of the staircase of the
    diagram lam, i = 1..n-k.  ValueError unless lam has a full first row."""
    k, n = box.k, box.n
    if lam[0] != n - k:
        raise ValueError(f"staircase needs a full first row: lambda_1 = {n - k}")
    red = (*(x - 1 for x in lam[1:]), -1)  # the path of lambda'(-1)
    size = sum(lam)
    out = []
    for i, x in enumerate(range(n - k - 1, -1, -1), 1):  # x = n-k-i
        mu = tuple([p if p <= x else x if x > r else r for p, r in zip(lam, red)])
        c = size - sum(mu)
        if not 0 < c < n:
            raise AssertionError(f"box count c_{i} = {c} escaped (0, n)")
        out.append((c, mu))
    return out


def _orbit_parts(parts: tuple[int, ...], width: int) -> list[tuple[int, ...]]:
    """Successive images of parts under `_step`, up to the first return."""
    out = [parts]
    cur = _step(parts, width)
    while cur != parts:
        out.append(cur)
        cur = _step(cur, width)
    return out


def cyclic_step(d: BoxedDiagram) -> BoxedDiagram:
    """One step of the Z/n action: add a full column, or shift when the first row is full."""
    return BoxedDiagram(_step(d.parts, d.box.width), d.box)


def orbit_length(box: Box, parts: tuple[int, ...]) -> int:
    """Orbit length of the diagram with these parts in the box."""
    d = BoxedDiagram(parts, box)
    return len(_orbit_parts(d.parts, box.width))


def orbit_of(d: BoxedDiagram) -> Orbit:
    """The cyclic orbit through d, with the minimal upper triangular representative."""
    return _orbit([BoxedDiagram(p, d.box) for p in _orbit_parts(d.parts, d.box.width)])


def _orbit(members: list[BoxedDiagram]) -> Orbit:
    """The orbit of these members, in walk order, with its representative."""
    rep = min((m for m in members if is_upper_triangular(m)), key=lambda m: m.parts)
    return Orbit(representative=rep, members=tuple(members), length=len(members))


def orbits(box: Box) -> list[Orbit]:
    """The orbits of the cyclic action on all diagrams of the box, sorted by
    representative; each orbit's members start at its smallest diagram."""
    diagrams = enumerate_diagrams(box, "all")
    return list(_orbits(diagrams, {d.parts: i for i, d in enumerate(diagrams)}))


def _orbits(diagrams, index: dict[tuple[int, ...], int]) -> tuple[Orbit, ...]:
    """`orbits` from all diagrams of a box in lexicographic order, `index`
    their positions by parts: every member is one of these objects."""
    width, seen, out = diagrams[0].box.width, bytearray(len(diagrams)), []
    for i, d in enumerate(diagrams):
        if not seen[i]:  # the smallest diagram of a new orbit
            ids = [index[p] for p in _orbit_parts(d.parts, width)]
            for j in ids:
                seen[j] = 1
            out.append(_orbit([diagrams[j] for j in ids]))
    return tuple(sorted(out, key=lambda orb: orb.representative.parts))


def is_upper_triangular(d: BoxedDiagram) -> bool:
    """Lies above the diagonal: k * part_i <= (n-k)(k-i), exact integer test."""
    k, w = d.box.k, d.box.width
    return all(k * d.parts[i] <= w * (k - 1 - i) for i in range(k))


def is_strictly_upper_triangular(d: BoxedDiagram) -> bool:
    """Strict inequality in the first k-1 rows (the last row must be 0)."""
    k, w = d.box.k, d.box.width
    if d.parts[-1] != 0:
        return False
    return all(k * d.parts[i] < w * (k - 1 - i) for i in range(k - 1))


def is_minimal_upper_triangular(d: BoxedDiagram) -> bool:
    """Lexicographically smallest upper triangular member of its orbit."""
    if not is_upper_triangular(d):
        return False
    return orbit_of(d).representative == d


def _ascending_parts(k: int, width: int) -> list[tuple[int, ...]]:
    """All weakly decreasing length-k vectors bounded by width, lex ascending,
    built one leading part at a time: the vectors with leading part v are v
    ahead of the first ends[v] of the shorter ones, those led by at most v."""
    out, ends = [()], [1] * (width + 1)
    for _ in range(k):
        longer = []
        for v in range(width + 1):
            head = (v,)
            longer += [head + rest for rest in out[: ends[v]]]
            ends[v] = len(longer)
        out = longer
    return out


def enumerate_diagrams(box: Box, selection: str = "all") -> list[BoxedDiagram]:
    """All diagrams of the box matching `selection`, in lexicographic order.

    Selections: all, upper, strictly_upper, minimal_upper, short_minimal_upper.
    The last two are the representatives of `orbits(box)`, all or the short ones.
    """
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection {selection!r}; expected one of {SELECTIONS}")
    if selection == "minimal_upper":
        return [orb.representative for orb in orbits(box)]
    if selection == "short_minimal_upper":
        return [orb.representative for orb in orbits(box) if orb.length < box.n]
    out = []
    for parts in _ascending_parts(box.k, box.width):
        d = BoxedDiagram(parts, box)
        if selection == "all":
            out.append(d)
        elif selection == "upper":
            if is_upper_triangular(d):
                out.append(d)
        elif selection == "strictly_upper":
            if is_strictly_upper_triangular(d):
                out.append(d)
    return out


def _moebius(d: int) -> int:
    primes = 0
    x = d
    p = 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            primes += 1
        else:
            p += 1
    if x > 1:
        primes += 1
    return -1 if primes % 2 else 1


def residual_rank(box: Box) -> int:
    """Number of diagrams with short orbit: -sum_{d | gcd(k,n), d>1} mu(d) C(n/d, k/d)."""
    k, n = box.k, box.n
    g = gcd(k, n)
    total = 0
    for d in range(2, g + 1):
        if g % d == 0:
            total += _moebius(d) * comb(n // d, k // d)
    return -total


def theta(k: int, m: int) -> BoxedDiagram:
    """The short diagram ((k-1)(m-1), ..., (m-1), 0) in the k x k(m-1) box."""
    if k < 1 or m < 1:
        raise ValueError("theta needs k >= 1 and m >= 1")
    box = Box(k, k * m)
    return BoxedDiagram(tuple((k - 1 - i) * (m - 1) for i in range(k)), box)


def non_minimal_upper(box: Box) -> list[BoxedDiagram]:
    """Upper triangular diagrams that are not their orbit's representative."""
    return _non_minimal_upper(enumerate_diagrams(box, "all"), orbits(box))


def _non_minimal_upper(diagrams, orbs) -> list[BoxedDiagram]:
    """`non_minimal_upper` from the box's diagrams, in lexicographic order,
    and its orbits."""
    reps = {orb.representative for orb in orbs}
    return [d for d in diagrams if is_upper_triangular(d) and d not in reps]
