"""Staircase resolutions, their twisted variants, the appendix tables for
k = 3, and the fixed G(4,8) sequence.

A staircase for lambda with full first row resolves Sigma^lambda U* by terms
Lambda^{c_i} V* (x) Sigma^{mu_i} U* and the tail Sigma^{lambda'(-1)} U*.  The
jump rule is pure index arithmetic: mu_i keeps the rows of lambda that fit
left of abscissa n-k-i and drops the rest onto the shifted path, i.e.

    mu_i[r] = lambda[r]                      if lambda[r] <= X
              max(X, lambda'(-1)[r])         otherwise,       X = n-k-i.

Only computable necessary conditions of exactness are checked: the
alternating sum of classes vanishes, and consecutive terms admit degree-0
maps.  No differentials are constructed.

`_jumps` is the one jump rule, on plain tuples: `build_staircase` builds its
complex from it, and `_terms` the triples of `k_class_terms` with no complex,
from which the twist T in K_0 is built.  `grex report` checks T itself
(`_twist_columns_exact`): column lam untwisted is a relation exactly when
lam's staircase is K-exact, with sum |coef| at most 2^n <= cap, and all
C(n-1,k-1) columns go to one transposed pass that builds no pairing table
(`ktheory._vanish_batch`).  `is_k_exact` checks one complex against the
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bott import TwistedSchur, ext_table, normal_form
from .diagrams import (
    Box,
    BoxedDiagram,
    _check_in_box,
    _step,
    theta,
)
from .ktheory import _ctx, _vanish_batch, _vanishes, is_zero_combination
from .schur import dimension

__all__ = [
    "MembershipLedger",
    "StaircaseComplex",
    "StaircaseTerm",
    "appendix_table_check",
    "build_staircase",
    "build_theta_staircase",
    "g48_sequence_check",
    "is_k_exact",
    "membership_ledger",
]


@dataclass(frozen=True)
class StaircaseTerm:
    c: int
    mu: BoxedDiagram
    extra_twist: int

    def bundle(self) -> TwistedSchur:
        return TwistedSchur(self.mu.parts, self.extra_twist, self.mu.box)

    def to_json(self) -> dict:
        return {"c": self.c, "mu": list(self.mu.parts), "extra_twist": self.extra_twist}


@dataclass(frozen=True)
class StaircaseComplex:
    box: Box
    head: TwistedSchur
    terms: tuple[StaircaseTerm, ...]
    tail: TwistedSchur

    def k_class_terms(self) -> list[tuple[int, tuple[int, ...], int]]:
        """Signed class coefficients, head first, each with the weight and
        twist of its term; the whole sum must vanish.  ValueError if a term
        lives on another box than the complex."""
        box = self.box
        for e in (self.head, self.tail):
            if e.box != box:
                raise ValueError(f"bundle {e} lives on a different box")
        combo = [(1, self.head.weight, self.head.twist)]
        sign = -1
        for t in self.terms:
            if t.mu.box != box:
                raise ValueError(f"bundle {t.bundle()} lives on a different box")
            combo.append((sign * comb(box.n, t.c), t.mu.parts, t.extra_twist))
            sign = -sign
        combo.append((sign, self.tail.weight, self.tail.twist))
        return combo

    def to_json(self, k_exact: bool | None = None) -> dict:
        if k_exact is None:
            k_exact = is_k_exact(self)
        return {
            "box": self.box.to_json(),
            "head": self.head.to_json(),
            "terms": [t.to_json() for t in self.terms],
            "tail": self.tail.to_json(),
            "k_exact": k_exact,
        }


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


def _terms(box: Box, lam: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """`build_staircase(box, lam).k_class_terms()` from the jump rule on plain
    tuples, with no complex built: lam and each middle mu tested in the box,
    and the tail at twist -1 by the step rule, as `build_staircase` takes it."""
    k, n, width = box.k, box.n, box.width
    _check_in_box(lam, k, width)
    out, sign = [(1, lam, 0)], -1
    for c, mu in _jumps(box, lam):
        _check_in_box(mu, k, width)
        out.append((sign * comb(n, c), mu, 0))
        sign = -sign
    out.append((sign, _step(lam, width), -1))
    return tuple(out)


def build_staircase(box: Box, lam: BoxedDiagram) -> StaircaseComplex:
    """The staircase resolution of Sigma^lam U* for lam with full first row."""
    if lam.box != box:
        raise ValueError(f"{lam} lives on a different box")
    terms = tuple(StaircaseTerm(c, BoxedDiagram(mu, box), 0) for c, mu in _jumps(box, lam.parts))
    return StaircaseComplex(
        box=box,
        head=TwistedSchur(lam.parts, 0, box),
        terms=terms,
        tail=TwistedSchur(_step(lam.parts, box.width), -1, box),
    )


def _twist_columns_exact(box: Box) -> list[tuple[BoxedDiagram, bool]]:
    """Each basis diagram lam with a full first row, in basis order, with
    whether column lam of the twist T untwisted vanishes in K_0: exactly
    when lam's staircase is K-exact (`ktheory` module docstring)."""
    ctx = _ctx(box)
    twist, weights = ctx.twist, ctx.weights
    full = [i for i, w in enumerate(weights) if w[0] == box.width]
    verdicts = _vanish_batch(
        box, [[(1, weights[i], 0), *((-v, weights[j], -1) for j, v in twist[i])] for i in full]
    )
    return [(ctx.diagrams[i], exact) for i, exact in zip(full, verdicts)]


def is_k_exact(sc: StaircaseComplex) -> bool:
    """Whether the alternating sum of the classes of all terms vanishes in K_0:
    the zero test of `is_zero_combination`, read from `k_class_terms`, with
    no bundle built per term."""
    return _vanishes(sc.box, sc.k_class_terms())


@dataclass(frozen=True)
class MembershipLedger:
    """Assignment of middle terms to the blocks fencing the cone of mu."""

    mu: BoxedDiagram
    assignments: tuple[tuple[int, str], ...]
    unassigned: tuple[tuple[int, tuple[int, ...], int], ...]

    @property
    def complete(self) -> bool:
        return not self.unassigned

    def to_json(self) -> dict:
        return {
            "mu": list(self.mu.parts),
            "assignments": [{"term": i, "slot": s} for i, s in self.assignments],
            "unassigned": [
                {"term": i, "weight": list(w), "twist": t} for i, w, t in self.unassigned
            ],
        }


def membership_ledger(
    box: Box, mu: BoxedDiagram, middle: list[tuple[tuple[int, ...], int]]
) -> MembershipLedger:
    """Assign reduced middle terms (weight, twist) to one of the slots

        a_minus, a(-1), ..., a(1 - n/d), a_plus(-n/d),

    where o(mu) = n/d.  A term lands in a slot only if its weight is in the
    primitive block (minimal upper triangular with a full orbit), and
    satisfies the containment the fenced slots demand.
    """
    if mu.box != box:
        raise ValueError(f"{mu} lives on a different box")
    ctx = _ctx(box)
    # n/d; slots span twists 1-n/d .. 0
    period = next(orb.length for orb in ctx.orbits if mu in orb.members)
    primitive = {obj.bundle.weight for obj in ctx.block}
    assignments = []
    unassigned = []
    for idx, (w, t) in enumerate(middle):
        d = BoxedDiagram(w, box)
        slot = None
        if w in primitive:
            if t == 0 and mu.contains(d):
                slot = "a_minus"
            elif -period < t < 0:
                slot = f"a({t})"
            elif t == -period and d.contains(mu):
                slot = "a_plus"
        if slot is None:
            unassigned.append((idx, w, t))
        else:
            assignments.append((idx, slot))
    return MembershipLedger(mu, tuple(assignments), tuple(unassigned))


def build_theta_staircase(k: int, m: int) -> tuple[StaircaseComplex, MembershipLedger]:
    """Staircase for theta(k, m) twisted back into the fundamental window.

    Builds the staircase of theta(m-1), twists everything by O(1-m), and
    renormalizes each term to a box diagram with its residual twist.  Every
    middle diagram must be minimal upper triangular, the representative of
    its orbit; a failure falsifies the construction and raises.
    """
    if k < 2 or m < 2:
        raise ValueError("theta staircase needs k >= 2 and m >= 2")
    th = theta(k, m)
    box = th.box
    lam = BoxedDiagram(tuple(x + (m - 1) for x in th.parts), box)
    raw = build_staircase(box, lam)
    minimal = {orb.representative for orb in _ctx(box).orbits}
    terms = []
    for t in raw.terms:
        weight, twist = normal_form(t.mu.parts, 1 - m)
        alpha = BoxedDiagram(weight, box)
        if alpha not in minimal:
            raise RuntimeError(
                f"theta staircase term {alpha} is not minimal upper triangular"
            )
        terms.append(StaircaseTerm(t.c, alpha, twist))
    head = TwistedSchur(raw.head.weight, raw.head.twist + 1 - m, box).reduced()
    tail = TwistedSchur(raw.tail.weight, raw.tail.twist + 1 - m, box).reduced()
    sc = StaircaseComplex(box=box, head=head, terms=tuple(terms), tail=tail)
    ledger = membership_ledger(
        box, th, [(t.mu.parts, t.extra_twist) for t in terms]
    )
    return sc, ledger


def appendix_table_check(box: Box, a: int, b: int) -> bool:
    """Compare the staircase of (3(m-1), a, b) on G(3,3m) against the
    three-phase table it is supposed to follow."""
    if box.k != 3 or box.n % 3 != 0:
        raise ValueError("the table check only applies to G(3,3m)")
    m = box.n // 3
    w = box.width  # 3(m-1)
    if not (w >= a >= b >= 0):
        raise ValueError(f"(a,b,0)=({a},{b},0) is not a diagram of the box")
    if b < m:
        raise ValueError(f"need b >= m, got b={b} < m={m}")
    if a - b > m - 1:
        raise ValueError(f"need a-b <= m-1, got a-b={a - b}")
    got = [mu for _, mu in _jumps(box, (w, a, b))]
    expected: list[tuple[int, int, int]] = []
    for i in range(1, w - a + 1):
        expected.append((w - i, a, b))
    second = a - 1
    for _ in range(w - a + 1, w - b + 1):
        expected.append((a - 1, second, b))
        second -= 1
    third = b - 1
    for _ in range(w - b + 1, w + 1):
        expected.append((a - 1, b - 1, third))
        third -= 1
    return got == expected


# The ten-term G(4,8) sequence relating Sigma^(2,2)U*(-4) to Sigma^(2,2)U*,
# transcribed term by term.  Each summand is (V-factor weights, bundle weight,
# twist); the V-factors are GL(8) highest weights whose dimensions multiply
# (duals share dimensions, so only the partition shape is recorded).
G48_SEQUENCE = (
    (((), (2, 2, 0, 0), -4),),                                            # S(2,2)U*(-4)
    ((((1,),), (2, 2, 1, 0), -4),),                                       # V (x) S(2,2,1)U*(-4)
    ((((2,),), (1, 1, 0, 0), -3), (((1, 1, 1),), (1, 1, 1, 0), -3)),      # S2V (x) L2U*(-3) + L3V (x) L3U*(-3)
    ((((1,), (1, 1, 1)), (0, 0, 0, 0), -2),),                             # V (x) L3V (x) O(-2)
    ((((1, 1), (1, 1)), (0, 0, 0, 0), -1),),                              # L2V* (x) L2V (x) O(-1)
    ((((1, 1), (1,)), (1, 0, 0, 0), -1), (((2, 2),), (0, 0, 0, 0), 0)),   # L2V (x) V* (x) U*(-1) + S(2,2)V* (x) O
    ((((1, 1),), (2, 0, 0, 0), -1), (((2, 1),), (1, 0, 0, 0), 0)),        # L2V (x) S2U*(-1) + S(2,1)V* (x) U*
    ((((2,),), (1, 1, 0, 0), 0), (((1, 1),), (2, 0, 0, 0), 0)),           # S2V* (x) L2U* + L2V* (x) S2U*
    ((((1,),), (2, 1, 0, 0), 0),),                                        # V* (x) S(2,1)U*
    (((), (2, 2, 0, 0), 0),),                                             # S(2,2)U*
)


@dataclass(frozen=True)
class G48Report:
    k_exact: bool
    adjacency: tuple[bool, ...]
    ledger: MembershipLedger

    @property
    def adjacency_ok(self) -> bool:
        return all(self.adjacency)

    @property
    def all_ok(self) -> bool:
        return self.k_exact and self.adjacency_ok and self.ledger.complete

    def to_json(self) -> dict:
        return {
            "k_exact": self.k_exact,
            "adjacency": list(self.adjacency),
            "ledger": self.ledger.to_json(),
            "pass": self.all_ok,
        }


def _factor_dim(factors: tuple[tuple[int, ...], ...], n: int) -> int:
    d = 1
    for w in factors:
        d *= dimension(w, n)
    return d


def g48_sequence_check() -> G48Report:
    """Check the transcribed G(4,8) sequence: vanishing class sum, degree-0
    maps between consecutive terms, and the cone-membership ledger for
    mu = (2,2,0,0)."""
    box = Box(4, 8)
    combo: list[tuple[int, TwistedSchur]] = []
    for pos, summands in enumerate(G48_SEQUENCE):
        sign = -1 if pos % 2 else 1
        for factors, w, t in summands:
            combo.append((sign * _factor_dim(factors, box.n), TwistedSchur(w, t, box)))
    k_exact = is_zero_combination(box, combo)

    adjacency = []
    for pos in range(len(G48_SEQUENCE) - 1):
        found = False
        for _, wa, ta in G48_SEQUENCE[pos]:
            for _, wb, tb in G48_SEQUENCE[pos + 1]:
                table = ext_table(TwistedSchur(wa, ta, box), TwistedSchur(wb, tb, box))
                if table[0] > 0:
                    found = True
                    break
            if found:
                break
        adjacency.append(found)

    mu = BoxedDiagram((2, 2, 0, 0), box)
    middle = []
    for summands in G48_SEQUENCE[1:-1]:
        for factors, w, t in summands:
            middle.append(normal_form(w, t))
    ledger = membership_ledger(box, mu, middle)
    return G48Report(k_exact=k_exact, adjacency=tuple(adjacency), ledger=ledger)
