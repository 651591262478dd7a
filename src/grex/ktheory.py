"""K_0(G(k,n)) in the Kapranov basis: classes, Euler pairing, mutations,
residual classes, and the fullness determinant.

A class is an integer coordinate vector over the lexicographically ordered
box diagrams.  `class_of` is the generic route: it recovers the coordinates
of any bundle from its Euler pairings against the basis by back-substitution
through the upper uni-triangular Kapranov Gram matrix.

Twisted classes come from the twist T = (x) O(1) instead, whose matrix is pure
combinatorics.  If lam_1 < n-k, then T e_lam = e_{lam+1}.  If lam_1 = n-k, the
staircase resolution of Sigma^lam U*, twisted by O(1), gives

    [Sigma^lam U*(1)] = -sum_{(c, Sigma^mu U*(s))} c e_{mu+s+1}

over its non-head terms, and every mu+s+1 is a box diagram.  So
[Sigma^lam U*(i)] = T^i e_lam for i >= 0.  The staircase checks stay on the
Euler-pairing route below, so they do not verify the twist built from them.

Pairings of the form chi(Sigma^a U*(t), Sigma^kappa U*) with t <= 0 and both
diagrams in the box sit in a single cohomological degree, so they reduce to
LR coefficients weighted by GL(n) dimensions, which sum to a skew Schur
function at the point 1^n.  By the Jacobi-Trudi identity (Macdonald,
*Symmetric Functions*, I.(5.4)), with lam = kappa(-t):

    chi(Sigma^a U*(t), Sigma^kappa U*) = sum_pi c^lam_{a, pi} dim_n(pi)
                                       = s_{lam/a}(1^n)
                                       = det[h_{lam_i - a_j - i + j}(1^n)],

a k x k integer determinant with h_m(1^n) = C(n+m-1, m) and h_m = 0 for
m < 0.  Its agreement with the generic Littlewood-Richardson + dot-action
route is part of the test suite.

Pairings come in rows: row (a, t) holds chi(Sigma^a U*(t), Sigma^kappa U*)
for every basis kappa and is built once; every kappa that does not contain
a + t pairs to 0.  As Sigma^{a+m} U*(t) = Sigma^a U*(t+m), a row is kept
under the normal form of its bundle, the weight ending in 0 (`_Ctx.row`).
A normal form with a positive twist is a translate of the t = 0 row.  The
t = 0 row is one depth-first walk over the kappa containing a, top row
first, carrying one fraction-free (Bareiss) elimination, and every last
row below a node is one dot product with cofactors found from its pivot
rows (`_Ctx.pairing_row`).  For t < 0, entry kappa is s_{(kappa-t)/a}(1^n),
which is entry kappa+1 of the row (a, t+1) whenever kappa_0 < n-k, as then
kappa+1 is in the box.  Lexicographic order puts those kappa first, so
they are gathered from the row one twist up, and the walk visits only the
kappa with a full top row, kappa_0 = n-k.  The Kapranov Gram matrix is the
t = 0 rows, and a combination of bundles is zero in K_0 when the sum of its
rows is, which is what the staircase checks hammer on.

All per-box state lives on one context, `_ctx(box)`, and only the box used
last is kept, so a sweep over many boxes frees each one when it moves on.
The context holds the basis diagrams, the sparse twist matrix, one store of
twisted classes T^i e_lam and the pairing rows.

Inside the module a class is sparse, {basis index: coefficient}: the twist,
the pairing sum x_i G[i][j] y_j over nonzeros and the checked Gram-Schmidt
projection act on that form.  Every residual projector list is a subsequence
of the chain T^j e_lam, lam in the primitive block and j below the longest
short orbit.  Semiorthogonality passes to subsequences, so `residual_report`
checks that chain once, then projects.

The fullness determinant is det of the Fonarev classes T^i e_lam in this
basis.  That matrix is sparse and rich in +-1 entries, so it is eliminated
over Z on +-1 pivots in Markowitz order, which needs no division; whatever
is left without such a pivot goes to the dense fraction-free (Bareiss)
determinant.  Either way the value is the exact integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter, mul

from .bott import TwistedSchur, euler_char
from .diagrams import (
    Box,
    BoxedDiagram,
    enumerate_diagrams,
    orbits,
)
from .lefschetz import fonarev, primitive_block

__all__ = [
    "KClass",
    "ResidualReport",
    "basis",
    "class_of",
    "euler_pairing",
    "fullness_determinant",
    "is_zero_combination",
    "kapranov_gram",
    "mutate_left",
    "residual_report",
    "twist_class",
]

KClass = tuple[int, ...]


class _Ctx:
    """Everything K_0 keeps for one box.  `_ctx` holds one box at a time."""

    def __init__(self, box: Box):
        self.box = box
        self.diagrams = tuple(enumerate_diagrams(box, "all"))
        self.weights = tuple(d.parts for d in self.diagrams)
        self.index = {w: i for i, w in enumerate(self.weights)}
        self.chis: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}  # (a, t) -> row
        self.h = [1]  # h[m] = h_m(1^n) = C(n+m-1, m), grown on demand
        self.shifts: dict[int, itemgetter] = {}  # s -> gather of the translate by s
        # the first basis index with kappa_0 = n-k: C(n,k) - C(n-1,k-1)
        self.tail = self.index[(box.width,) + (0,) * (box.k - 1)]
        self.twisted: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}  # (w, i) -> T^i e_w

    def row(self, a: tuple[int, ...], t: int) -> tuple[int, ...]:
        """chi(Sigma^a U*(t), Sigma^kappa U*) for every basis kappa, in order,
        where a_0 + t and a_0 - a_{k-1} are at most n-k.

        The row is stored once, under the normal form (a - m, t + m),
        m = a_{k-1}.  With s = t + m > 0 it is the row of (a - m, 0)
        translated by s: entry kappa is entry kappa - s of it, and 0 where
        kappa_{k-1} < s, as then kappa does not contain a + t.  With t = 0
        it is walked.

        With t < 0, entry kappa is s_{(kappa-t)/a}(1^n), and so is entry
        kappa+1 of the row (a, t+1) whenever kappa+1 is a box diagram, that
        is, kappa_0 < n-k.  The basis is in lexicographic order, so those
        kappa come first, before `self.tail`: that part is gathered from the
        row one twist up, and only the kappa with kappa_0 = n-k are walked.
        The missing rows of a, from t = 0 or the lowest one stored down to
        t, are built in that order by one loop, so a deep twist needs no
        deep recursion.
        """
        if m := a[-1]:
            a, t = tuple(x - m for x in a), t + m
        r = self.chis.get((a, t))
        if r is None and t > 0:
            r = self.chis[a, t] = self.shift(t)(self.row(a, 0) + (0,))
        elif r is None:
            top = t + 1  # the stored row to gather from; none at top = 1
            while top <= 0 and (a, top) not in self.chis:
                top += 1
            r = self.chis.get((a, top))
            for s in range(top - 1, t - 1, -1):
                w = self.pairing_row(a, s)
                if s < 0:
                    w = self.shift(-1)(r + (0,))[: self.tail] + w[self.tail :]
                r = self.chis[a, s] = w
        return r

    def shift(self, s: int) -> itemgetter:
        """Gathers the translate by s of a row with a 0 appended: entry kappa
        reads entry kappa - s where that is a box diagram, and the appended 0
        otherwise (for s > 0, where kappa_{k-1} < s; for s < 0, where
        kappa_0 - s > n-k)."""
        g = self.shifts.get(s)
        if g is None:
            zero, index = len(self.weights), self.index
            g = self.shifts[s] = itemgetter(
                *(index.get(tuple(x - s for x in w), zero) for w in self.weights)
            )
        return g

    def pairing_row(self, a: tuple[int, ...], t: int) -> tuple[int, ...]:
        """s_{lam/a}(1^n), lam = kappa(-t), over the basis: a in the box with
        a_{k-1} = 0, t <= 0.  For t < 0 and k >= 2 only the kappa with
        kappa_0 = n-k are walked, and the row is 0 before them; `row`
        gathers the others from the row one twist up.

        Walks the kappa containing a + t depth-first, top row first.  Depth i
        adds row i of the Jacobi-Trudi matrix, h_{lam_i - a_j - i + j}, and
        reduces it by Bareiss steps against the pivot rows p_r of the nodes
        above, so its i-th entry is the leading (i+1)-minor: with m = i+1,
        s_{lam_{<m}/a_{<m}}(1^n) for a valid skew shape of at most k < n rows.
        It counts at least one tableau, so no pivoting is needed, and a zero
        pivot raises AssertionError.

        Depth k-1 is the leaves: the last row, kappa_{k-1} from 0 to
        kappa_{k-2}, at consecutive basis indices.  Below one parent the
        determinant is C . x, x the last row and C its cofactors.  C is
        orthogonal to the first k-1 rows, so to every p_r, a combination of
        them that is zero before column r.  C_{k-1} is the last pivot
        p_{k-2}[k-2], so C_{k-2} = -p_{k-2}[k-1], and back substitution gives
        C_r = -(sum_{j>r} p_r[j] C_j) / p_r[r], an exact division as each C_r
        is an integer minor.  The leaves of one parent are then one dot
        product each with slices of h.  Every leaf is s_{lam/a}(1^n) of a
        valid skew shape, so a value below 1, or a division with a
        remainder, raises AssertionError.
        """
        k, n, width = self.box.k, self.box.n, self.box.width
        h = self.h
        for m in range(len(h), width - t + k):
            h.append(h[-1] * (n + m - 1) // m)
        # h_m at hp[m + pad] for every m the walk reads, 0 for m < 0
        pad = width + k
        hp = [0] * pad + h
        off = [x - j for j, x in enumerate(a)]  # a_j - j
        index = self.index
        out = [0] * len(self.weights)
        pivots: list[list[int]] = []  # the reduced rows of the nodes above
        starts = [pad - t - (k - 1) - o for o in off]  # hp index of the last row at kappa = 0

        def leaves(hi: int, prefix: tuple[int, ...]) -> None:
            cof = [0] * (k - 2) + [-pivots[-1][-1], pivots[-1][-2]] if pivots else [1]
            for r in range(k - 3, -1, -1):
                p = pivots[r]
                c, rem = divmod(-sum(map(mul, p[r + 1 :], cof[r + 1 :])), p[r])
                if rem:
                    raise AssertionError(f"inexact cofactor at row {r} for a={a}, t={t}")
                cof[r] = c
            cols = [hp[s : s + hi + 1] for s in starts]
            vals = [sum(map(mul, cof, x)) for x in zip(*cols)]
            if min(vals) < 1:
                raise AssertionError(f"Jacobi-Trudi leaf below 1 for a={a}, t={t}")
            start = index[(*prefix, 0)]
            out[start : start + len(vals)] = vals

        def walk(i: int, lo: int, hi: int, prefix: tuple[int, ...]) -> None:
            if i == k - 1:
                return leaves(hi, prefix)
            for c in range(lo, hi + 1):
                top = pad + c - t - i  # pad + lam_i - i
                x = [hp[top - o] for o in off]
                prev = 1
                for r, p in enumerate(pivots):
                    xr, pr = x[r], p[r]
                    for j in range(r + 1, k):
                        x[j] = (pr * x[j] - xr * p[j]) // prev
                    prev = pr
                if not x[i]:
                    raise AssertionError(f"zero Jacobi-Trudi pivot at row {i} for a={a}, t={t}")
                pivots.append(x)
                walk(i + 1, max(a[i + 1] + t, 0), c, (*prefix, c))
                pivots.pop()

        walk(0, width if t < 0 else a[0], width, ())
        return tuple(out)

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        rows = tuple(self.row(a, 0) for a in self.weights)
        for i, a in enumerate(self.weights):
            if rows[i][i] != 1:
                raise AssertionError(f"Kapranov Gram diagonal is not 1 at {a}")
        return rows

    @cached_property
    def twist(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Column lam: the class of Sigma^lam U*(1) as sparse (row, coefficient) pairs."""
        from .staircase import build_staircase  # staircase imports this module

        index = self.index
        cols = []
        for d in self.diagrams:
            if d.parts[0] < self.box.width:
                cols.append(((index[tuple(x + 1 for x in d.parts)], 1),))
                continue
            col: dict[int, int] = {}
            for coef, e in build_staircase(self.box, d).k_class_combination()[1:]:
                i = index[tuple(x + e.twist + 1 for x in e.weight)]
                col[i] = col.get(i, 0) - coef
            cols.append(tuple(col.items()))
        return tuple(cols)

    def twisted_class(self, w: tuple[int, ...], i: int) -> dict[int, int]:
        """[Sigma^w U*(i)] = T^i e_w as {basis index: coefficient}, for a box
        diagram w and i >= 0.  The dict is the stored one: copy it to change it."""
        if (w, i) not in self.twisted:
            c = {self.index[w]: 1} if i == 0 else self.apply_twist(self.twisted_class(w, i - 1))
            self.twisted[w, i] = c
        return self.twisted[w, i]

    def apply_twist(self, x: dict[int, int]) -> dict[int, int]:
        """The class of x (x) O(1)."""
        out: dict[int, int] = {}
        for j, xj in x.items():
            for i, c in self.twist[j]:
                out[i] = out.get(i, 0) + xj * c
        return {i: v for i, v in out.items() if v}

    def pair(self, x: dict[int, int], y: dict[int, int]) -> int:
        """The Euler form sum x_i G[i][j] y_j over the nonzeros of x and y."""
        total = 0
        for i, xi in x.items():
            gi = self.gram[i]
            total += xi * sum(gi[j] * yj for j, yj in y.items())
        return total

    def check_semiorthogonal(self, projectors: list[dict[int, int]]) -> None:
        """Raise ValueError unless the list is Euler-unitriangular."""
        for i, e in enumerate(projectors):
            if self.pair(e, e) != 1:
                raise ValueError(f"projector {i} is not exceptional (chi(e,e) != 1)")
            for j in range(i + 1, len(projectors)):
                if self.pair(projectors[j], e) != 0:
                    raise ValueError(
                        f"projectors {j} > {i} are not semiorthogonal; check the ordering"
                    )

    def project(self, projectors: list[dict[int, int]], x: dict[int, int]) -> dict[int, int]:
        """Gram-Schmidt x against a checked semiorthogonal list, last projector
        first, and check that the result is left-orthogonal to every projector."""
        y = dict(x)
        for e in reversed(projectors):
            if c := self.pair(e, y):
                for i, v in e.items():
                    y[i] = y.get(i, 0) - c * v
        y = {i: v for i, v in y.items() if v}
        if any(self.pair(e, y) for e in projectors):
            raise AssertionError("mutation lost orthogonality")
        return y

    def sparse(self, x: KClass) -> dict[int, int]:
        """The nonzeros of a coordinate vector over the basis."""
        if len(x) != len(self.weights):
            raise ValueError(f"class has {len(x)} coordinates, the basis has {len(self.weights)}")
        return {i: v for i, v in enumerate(x) if v}

    def dense(self, x: dict[int, int]) -> KClass:
        return tuple(x.get(i, 0) for i in range(len(self.weights)))


@lru_cache(maxsize=1)
def _ctx(box: Box) -> _Ctx:
    return _Ctx(box)


def basis(box: Box) -> tuple[BoxedDiagram, ...]:
    """The Kapranov basis diagrams in lexicographic order."""
    return _ctx(box).diagrams


def kapranov_gram(box: Box) -> tuple[tuple[int, ...], ...]:
    """Gram matrix chi(Sigma^lam U*, Sigma^mu U*) over the basis; unit diagonal."""
    return _ctx(box).gram


def class_of(e: TwistedSchur) -> KClass:
    """Coordinates of [E] in the Kapranov basis via the triangular solve."""
    box = e.box
    ws = _ctx(box).weights
    n = len(ws)
    b = [euler_char(TwistedSchur(w, 0, box), e) for w in ws]
    g = kapranov_gram(box)
    c = [0] * n
    for i in range(n - 1, -1, -1):
        s = b[i]
        gi = g[i]
        for j in range(i + 1, n):
            cj = c[j]
            if cj:
                s -= gi[j] * cj
        c[i] = s
    return tuple(c)


def euler_pairing(box: Box, x: KClass, y: KClass) -> int:
    """Bilinear Euler form x^T G y on coordinate vectors."""
    ctx = _ctx(box)
    return ctx.pair(ctx.sparse(x), ctx.sparse(y))


def twist_class(box: Box, x: KClass) -> KClass:
    """The class of x (x) O(1)."""
    ctx = _ctx(box)
    return ctx.dense(ctx.apply_twist(ctx.sparse(x)))


def mutate_left(box: Box, projectors: list[KClass], x: KClass) -> KClass:
    """Gram-Schmidt x against a semiorthogonal sequence, last projector first.

    Every call rejects a projector list that is not Euler-unitriangular, and
    checks that the result is left-orthogonal to every projector.
    """
    ctx = _ctx(box)
    es = [ctx.sparse(e) for e in projectors]
    ctx.check_semiorthogonal(es)
    return ctx.dense(ctx.project(es, ctx.sparse(x)))


def is_zero_combination(box: Box, terms: list[tuple[int, TwistedSchur]]) -> bool:
    """Whether sum coef * [bundle] vanishes in K_0.

    Tested by summing the pairing rows of the terms: the pairings against
    every basis object determine a class uniquely (the Gram matrix is
    uni-triangular).  Every bundle must live on the box and fit the pairing
    rows (`_Ctx.row`); otherwise ValueError.
    """
    ctx = _ctx(box)
    total = [0] * len(ctx.weights)
    for coef, bundle in terms:
        if bundle.box != box:
            raise ValueError(f"bundle {bundle} lives on a different box")
        if coef == 0:
            continue
        w, t = bundle.weight, bundle.twist
        if max(w[0] + t, w[0] - w[-1]) > box.width:
            raise ValueError(f"bundle {bundle} does not fit the pairing fast path")
        # every kappa containing w + t is lexicographically at least
        # max(w + t, 0), so the row is zero before that basis index
        lo = ctx.index[tuple(max(x + t, 0) for x in w)]
        total[lo:] = [s + coef * v for s, v in zip(total[lo:], ctx.row(w, t)[lo:])]
    return not any(total)


@dataclass(frozen=True)
class ResidualReport:
    """K-theoretic shadow of the residual category of the Fonarev collection."""

    box: Box
    short_diagrams: tuple[tuple[BoxedDiagram, int], ...]
    residual_classes: tuple[KClass, ...]
    residual_gram: tuple[tuple[int, ...], ...]
    tau_orbit_ok: tuple[bool, ...]
    sign_exponents: tuple[int, ...]

    @property
    def gram_is_identity(self) -> bool:
        g = self.residual_gram
        return all(
            g[i][j] == (1 if i == j else 0) for i in range(len(g)) for j in range(len(g))
        )

    @property
    def tau_all_ok(self) -> bool:
        return all(self.tau_orbit_ok)

    def to_json(self) -> dict:
        return {
            "box": self.box.to_json(),
            "residual_rank": len(self.residual_classes),
            "short_diagrams": [list(d.parts) for d, _ in self.short_diagrams],
            "orbit_lengths": [o for _, o in self.short_diagrams],
            "residual_classes": [list(c) for c in self.residual_classes],
            "residual_gram": [list(r) for r in self.residual_gram],
            "residual_gram_is_identity": self.gram_is_identity,
            "tau_orbit_ok": list(self.tau_orbit_ok),
            "sign_exponents": list(self.sign_exponents),
        }


def residual_report(box: Box) -> ResidualReport:
    """Residual classes [F_mu^i], their Gram matrix, and the twisted-mutation orbit.

    For each short minimal diagram mu and 0 <= i < o(mu), [F_mu^i] is the left
    mutation of [Sigma^mu U*(i)] through the classes of the primitive block at
    twists 0..i-1 followed by the mu-contained part of the block at twist i.
    The induced polarization acts as x -> mutate(primitive block, x (x) O(1))
    and must cycle the classes, closing up to the sign (-1)^(k(n-k)/d).
    """
    ctx = _ctx(box)
    block = [obj.bundle.weight for obj in primitive_block(box)]
    shorts = [(orb.representative, orb.length) for orb in orbits(box) if orb.length < box.n]
    o_max = max((o for _, o in shorts), default=0)
    chain = [ctx.twisted_class(w, j) for j in range(o_max) for w in block]
    ctx.check_semiorthogonal(chain)
    sign_exponents = tuple(box.k * (box.n - box.k) // (box.n // o) for _, o in shorts)
    residual: list[dict[int, int]] = []
    tau_ok: list[bool] = []
    for (mu, o), sign_exp in zip(shorts, sign_exponents):
        inside = [w for w in block if mu.contains(BoxedDiagram(w, box))]
        fs = [
            ctx.project(
                chain[: i * len(block)] + [ctx.twisted_class(w, i) for w in inside],
                ctx.twisted_class(mu.parts, i),
            )
            for i in range(o)
        ]
        residual.extend(fs)
        sign = -1 if sign_exp % 2 else 1
        polarized = [ctx.project(chain[: len(block)], ctx.apply_twist(x)) for x in fs]
        tau_ok.append(polarized == fs[1:] + [{j: sign * v for j, v in fs[0].items()}])

    gram = tuple(tuple(ctx.pair(x, y) for y in residual) for x in residual)
    return ResidualReport(
        box=box,
        short_diagrams=tuple(shorts),
        residual_classes=tuple(ctx.dense(x) for x in residual),
        residual_gram=gram,
        tau_orbit_ok=tuple(tau_ok),
        sign_exponents=sign_exponents,
    )


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix: the fallback of
    `_sparse_det` for a remainder without a +-1 entry.

    Overwrites the rows of `m` (and swaps them) with elimination values, so
    callers pass a matrix they do not need again.
    """
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for r in range(n - 1):
        if m[r][r] == 0:
            for rr in range(r + 1, n):
                if m[rr][r]:
                    m[r], m[rr] = m[rr], m[r]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[r][r]
        for i in range(r + 1, n):
            mi, mr = m[i], m[r]
            mir = mi[r]
            for j in range(r + 1, n):
                mi[j] = (pivot * mi[j] - mir * mr[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _unit_pivot(
    rows: list[dict[int, int]],
    cols: dict[int, set[int]],
    row_bucket: list[set[int]],
    col_bucket: list[set[int]],
) -> tuple[int, int] | None:
    """The live +-1 entry (r, c) of least Markowitz count, or None.

    Rows and columns are scanned by live count, lowest first.  Once every
    row and column with fewer than k entries has been seen, any other entry
    costs at least (k-1)^2, so the scan stops there.
    """
    best = None
    least = len(row_bucket) ** 2  # above every count
    for k in range(1, len(row_bucket)):
        if least <= (k - 1) ** 2:
            break
        for c in col_bucket[k]:
            for r in cols[c]:
                if abs(rows[r][c]) == 1:
                    cost = (k - 1) * (len(rows[r]) - 1)
                    if cost < least:
                        best, least = (r, c), cost
                        if not cost:
                            return best
        for r in row_bucket[k]:
            for c, v in rows[r].items():
                if abs(v) == 1:
                    cost = (k - 1) * (len(cols[c]) - 1)
                    if cost < least:
                        best, least = (r, c), cost
                        if not cost:
                            return best
    return best


def _sparse_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant of a square integer matrix given as sparse rows
    {column: entry} over the columns 0..len(rows)-1.  Consumes the dicts.

    Each step pivots on a live entry p = +-1 of least Markowitz count
    (r-1)(c-1), r and c the live entries of its row and column (Markowitz
    1957), and clears its column from each other live row, whose entry
    there is a, by row -= (a p) pivot_row: exact, because 1/p = p.  The
    determinant is the product of the pivots times the sign of the
    row -> column pivot permutation.  If no +-1 entry is left, a freshly
    built dense remainder goes to `_bareiss_det`, so the result is always
    the exact integer.
    """
    n = len(rows)
    cols: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            cols.setdefault(c, set()).add(r)
    if len(cols) < n or not all(rows):  # a zero column or row
        return 0
    row_bucket: list[set[int]] = [set() for _ in range(n + 1)]
    col_bucket: list[set[int]] = [set() for _ in range(n + 1)]
    for r, row in enumerate(rows):
        row_bucket[len(row)].add(r)
    for c, live in cols.items():
        col_bucket[len(live)].add(c)
    pivot_col = list(range(n))
    det = 1
    while pivot := _unit_pivot(rows, cols, row_bucket, col_bucket):
        r, c = pivot
        prow = rows[r]
        row_bucket[len(prow)].discard(r)
        p = prow.pop(c)
        below = cols.pop(c)
        col_bucket[len(below)].discard(c)
        below.discard(r)
        counts = {j: len(cols[j]) for j in prow}
        for j in prow:
            cols[j].discard(r)
        for s in below:
            row = rows[s]
            row_bucket[len(row)].discard(s)
            f = row.pop(c) * p
            for j, v in prow.items():
                x = row.get(j, 0) - f * v
                if x:
                    if j not in row:
                        cols[j].add(s)
                    row[j] = x
                else:
                    del row[j]
                    cols[j].discard(s)
            if not row:
                return 0
            row_bucket[len(row)].add(s)
        for j, m in counts.items():
            live = cols[j]
            if not live:
                return 0
            col_bucket[m].discard(j)
            col_bucket[len(live)].add(j)
        det *= p
        pivot_col[r] = c
    if cols:
        left = sorted(set().union(*cols.values()))
        right = sorted(cols)
        for r, c in zip(left, right):
            pivot_col[r] = c
        det *= _bareiss_det([[rows[r].get(c, 0) for c in right] for r in left])
    for i in range(n):  # the sign of r -> pivot_col[r]; each swap fixes one entry
        while pivot_col[i] != i:
            j = pivot_col[i]
            pivot_col[i], pivot_col[j] = pivot_col[j], j
            det = -det
    return det


def fullness_determinant(box: Box) -> int:
    """det of the Fonarev classes in the Kapranov basis; |det| = 1 certifies
    that the collection spans K_0.

    The classes T^i e_lam are sparse, and a quarter to a half of them are
    basis vectors, so `_sparse_det` takes the determinant (of the transpose,
    which has the same value) by elimination on +-1 pivots.  The result is
    the exact integer, sign included, whether or not its dense fallback runs.
    """
    collection = fonarev(box)
    twisted = _ctx(box).twisted_class
    rows = [dict(twisted(obj.bundle.weight, obj.bundle.twist)) for obj in collection.objects]
    if len(rows) != len(basis(box)):
        raise AssertionError("Fonarev collection size does not match rank of K_0")
    return _sparse_det(rows)
