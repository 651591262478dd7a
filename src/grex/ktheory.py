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
function at the point 1^n (Macdonald, *Symmetric Functions*, I.(5.4)):

    chi(Sigma^a U*(t), Sigma^kappa U*) = sum_pi c^lam_{a, pi} dim_n(pi)
                                       = s_{lam/a}(1^n),   lam = kappa - t.

Pairings come in rows: row (a, t) holds chi(Sigma^a U*(t), Sigma^kappa U*)
for every basis kappa.  As Sigma^{a+m} U*(t) = Sigma^a U*(t+m), a row is
kept under the normal form of its bundle, the weight ending in 0
(`_Ctx.row`).  Skew shapes are translation invariant, so for a normal form
with t >= -1 entry kappa is s_{(kappa+1)/sigma}(1^n), where sigma = a + t + 1
is a diagram of the box one column wider (for t > 0 both sides vanish
unless sigma is inside kappa + 1).

All those rows are one table, G = H^n over the wider box.  By the branching
rule s_{lam/sigma}(x, y) = sum_nu s_{nu/sigma}(x) s_{lam/nu}(y), and as
s_{nu/sigma}(1) is 1 when nu/sigma is a horizontal strip and 0 otherwise,
s_{lam/sigma}(1^n) counts the chains of n horizontal strips from sigma to
lam: entry (sigma, lam) of H^n, where H[sigma, nu] = 1 when
sigma_j <= nu_j <= sigma_{j-1} for every row j (nu_0 bounded by the box).
Each range is fixed once the rows above are, so H is the product of k
one-row suffix sums, top row first: X[sigma] += X[sigma + e_j] over sigma
in reverse lexicographic order.  From the unit rows X[sigma] = e_{sigma-1}
(0 where sigma_{k-1} = 0), n rounds of the k sums leave the row of sigma
in X[sigma], by additions alone (`_Ctx.table`).

X[sigma] is one Python int that packs its row at B bits per field, entry
kappa at bit B kappa.  Every entry, and every partial sum on the way, is at
most M = s_R(1^{n+2k}), R = ((n-k+1)^k): by the branching rule in k more
variables, twice, s_{lam/sigma}(1^n) <= s_lam(1^{n+k}) <= s_R(1^{n+2k}),
as s_sigma(1^k) >= 1 and s_{R/lam}(1^k) >= 1 (R has k rows).  So no field
carries, and a combination of rows with sum |coef| = S has fields of
absolute value at most S M.  When 2^(B-1) > S M its packed sum is 0 exactly
when every field is: the lowest nonzero field kappa leaves a nonzero
remainder mod 2^(B (kappa+1)).  So `is_zero_combination` sums coef times
the packed rows as big integers, widening the table first when its fields
are too narrow.  The first width admits S <= 2^n, which covers the
staircase of every lam with a full first row (coefficients +-1 and
+-C(n, c) for distinct 0 < c < n).  The Kapranov Gram matrix is the t = 0
rows.

A normal form with t <= -2 needs sigma outside the wider box.  Its row is
one Jacobi-Trudi determinant det[h_{lam_i - a_j - i + j}(1^n)] per entry,
lam = kappa - t and h_m(1^n) = C(n+m-1, m), by `_bareiss_det`; it is stored
as one row, and its largest entry joins M in the width test.

All per-box state lives on one context, `_ctx(box)`, and only the box used
last is kept, so a sweep over many boxes frees each one when it moves on.
The context holds the basis diagrams, the sparse twist matrix, one store of
twisted classes T^i e_lam, the packed table and the unpacked rows.

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
from math import comb

from .bott import TwistedSchur, euler_char
from .diagrams import (
    Box,
    BoxedDiagram,
    _ascending_parts,
    enumerate_diagrams,
    orbits,
)
from .lefschetz import fonarev, primitive_block
from .schur import dimension

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


def _normal(a: tuple[int, ...], t: int) -> tuple[tuple[int, ...], int]:
    """Sigma^a U*(t) as Sigma^{a-m} U*(t+m), m = a_{k-1}: the weight ends in 0."""
    if m := a[-1]:
        return tuple(x - m for x in a), t + m
    return a, t


class _Ctx:
    """Everything K_0 keeps for one box.  `_ctx` holds one box at a time."""

    def __init__(self, box: Box):
        self.box = box
        self.diagrams = tuple(enumerate_diagrams(box, "all"))
        self.weights = tuple(d.parts for d in self.diagrams)
        self.index = {w: i for i, w in enumerate(self.weights)}
        self.chis: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}  # (a, t) -> row
        # the sources sigma of the table: the box one column wider
        self.sources = {s: i for i, s in enumerate(_ascending_parts(box.k, box.width + 1))}
        # M, the bound on every table entry, and the field width B in bits
        self.bound = dimension((box.width + 1,) * box.k, box.n + 2 * box.k)
        self.bits = 0
        self.widen(self.bound << box.n)
        self.twisted: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}  # (w, i) -> T^i e_w

    def row(self, a: tuple[int, ...], t: int) -> tuple[int, ...]:
        """chi(Sigma^a U*(t), Sigma^kappa U*) for every basis kappa, in order,
        where a_0 + t and a_0 - a_{k-1} are at most n-k.

        The row is stored once, under the normal form (a', t') of the bundle.
        With t' >= -1 it is entry sigma = a' + t' + 1 of the table G = H^n,
        n rounds of k one-row suffix sums over the box one column wider,
        unpacked: entry kappa is s_{(kappa+1)/sigma}(1^n), at most
        M = s_R(1^{n+2k}) < 2^(B-1), so no B-bit field carries.  With
        t' <= -2 it is one Jacobi-Trudi determinant per entry (`deep_row`).
        """
        a, t = _normal(a, t)
        r = self.chis.get((a, t))
        if r is None:
            if t >= -1:
                # every kappa containing a + t is lexicographically at least
                # max(a + t, 0), so the row is zero before that basis index
                lo = self.index[tuple(max(x + t, 0) for x in a)]
                size = self.bits // 8
                raw = self.packed(a, t).to_bytes(size * len(self.weights), "little")
                r = (0,) * lo + tuple(
                    int.from_bytes(raw[i : i + size], "little")
                    for i in range(lo * size, len(raw), size)
                )
            else:
                r = self.deep_row(a, t)
            self.chis[a, t] = r
        return r

    def deep_row(self, a: tuple[int, ...], t: int) -> tuple[int, ...]:
        """det[h_{lam_i - a_j - i + j}(1^n)], lam = kappa - t, for every basis kappa."""
        n = self.box.n

        def h(m: int) -> int:
            return comb(n + m - 1, m) if m >= 0 else 0

        return tuple(
            _bareiss_det([[h(x - t - y - i + j) for j, y in enumerate(a)] for i, x in enumerate(kappa)])
            for kappa in self.weights
        )

    def packed(self, a: tuple[int, ...], t: int) -> int:
        """The row of a normal form (a, t) packed at the table's width B."""
        if t >= -1:
            return self.table[self.sources[tuple(x + t + 1 for x in a)]]
        size = self.bits // 8
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in self.row(a, t)), "little")

    def widen(self, peak: int) -> None:
        """Make 2^(B-1) > peak with B whole bytes, rebuilding the table if B grows."""
        bits = -(-(peak.bit_length() + 1) // 8) * 8
        if bits > self.bits:
            self.bits = bits
            self.__dict__.pop("table", None)

    @cached_property
    def strips(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each row j, the source pairs (sigma, sigma + e_j), sigma in
        reverse lexicographic order: one suffix sum of H's factorisation."""
        sources = self.sources
        out = []
        for j in range(self.box.k):
            pairs = []
            for s, i in reversed(sources.items()):
                up = sources.get((*s[:j], s[j] + 1, *s[j + 1 :]))
                if up is not None:
                    pairs.append((i, up))
            out.append(tuple(pairs))
        return tuple(out)

    @cached_property
    def table(self) -> list[int]:
        """The packed rows of every sigma of the wider box, at width B."""
        return self.build_table()

    def build_table(self) -> list[int]:
        """X[sigma] = the packed row of sigma at width B: G = H^n by n rounds
        of the k one-row suffix sums, from the unit rows e_{sigma-1}."""
        bits, index = self.bits, self.index
        x = [
            1 << bits * index[tuple(v - 1 for v in s)] if s[-1] else 0 for s in self.sources
        ]
        strips = self.strips
        for _ in range(self.box.n):
            for pairs in strips:
                for i, up in pairs:
                    x[i] += x[up]
        return x

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
    uni-triangular).  The rows are summed packed, as big integers, at a
    field width B with 2^(B-1) > sum |coef| times the largest entry any of
    them can hold, so the total is 0 exactly when every pairing is.  Every
    bundle must live on the box and fit the pairing rows (`_Ctx.row`);
    otherwise ValueError.
    """
    ctx = _ctx(box)
    keys = []
    weight, peak = 0, ctx.bound
    for coef, bundle in terms:
        if bundle.box != box:
            raise ValueError(f"bundle {bundle} lives on a different box")
        if coef == 0:
            continue
        w, t = bundle.weight, bundle.twist
        if max(w[0] + t, w[0] - w[-1]) > box.width:
            raise ValueError(f"bundle {bundle} does not fit the pairing fast path")
        w, t = _normal(w, t)
        if t < -1:
            peak = max(peak, *ctx.row(w, t))
        keys.append((coef, w, t))
        weight += abs(coef)
    ctx.widen(weight * peak)
    return not sum(coef * ctx.packed(w, t) for coef, w, t in keys)


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
