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
[Sigma^lam U*(i)] = T^i e_lam for i >= 0.  `grex report` checks T itself
by the batched zero test below: O(1) acts on K_0 by an automorphism and
the head coefficient is 1, so [Sigma^lam U*] - sum T[kappa, lam]
[Sigma^kappa U*(-1)] vanishes exactly when lam's staircase is K-exact, and
merging terms only lowers its sum |coef|, which stays at most 2^n <= cap.

Pairings of the form chi(Sigma^a U*(t), Sigma^kappa U*) with t <= 0 and both
diagrams in the box sit in a single cohomological degree, so they reduce to
LR coefficients weighted by GL(n) dimensions, which sum to a skew Schur
function at the point 1^n (Macdonald, *Symmetric Functions*, I.(5.4)):

    chi(Sigma^a U*(t), Sigma^kappa U*) = sum_pi c^lam_{a, pi} dim_n(pi)
                                       = s_{lam/a}(1^n),   lam = kappa - t.

Pairings come in rows: row (a, t) holds chi(Sigma^a U*(t), Sigma^kappa U*)
for every basis kappa.  As Sigma^{a+m} U*(t) = Sigma^a U*(t+m), a row is
kept under the normal form of its bundle, the weight ending in 0
(`bott.normal_form`, read by `_Ctx.row`).  Skew shapes are translation
invariant, so for a normal form with t >= -1 entry kappa is
s_{(kappa+1)/sigma}(1^n), where sigma = a + t + 1 is a diagram of the box
one column wider (for t > 0 both sides vanish unless sigma is inside
kappa + 1).

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

X[sigma] is one Python int that packs its row at B bits per field, high
field first: with N = C(n,k) basis diagrams, entry kappa sits at bit
B (N-1-kappa).  Every kappa with kappa + 1 containing sigma contains
max(sigma - 1, 0), so row sigma is zero before the basis index lo of that
diagram, and its int has at most B (N - lo) bits: the zero fields are high
limbs that Python never stores, and every suffix-sum addition and every sum
of rows works on the support alone.

Every field is bounded by M, the largest row sum of G, max_sigma (G 1)[sigma].
It comes from the same n rounds of k suffix sums, run on one small int per
source, 1 where sigma_{k-1} >= 1 and 0 elsewhere (`_Ctx.strip_product`), so
it costs about 1/N of the table.  Every entry is nonnegative, so it is at
most its row's sum, and so at most M.  Every partial sum on the way is at
most its final entry: each strip is I plus a nonnegative matrix, so the
strips still to come can only raise an entry.  So no field carries, and a
combination of rows with sum |coef| = S has fields of absolute value at most
S M.  The width is fixed per box: B is the least whole number of bytes with
2^(B-1) > 2^n M, and the table is built once at it.  A packed sum with
S <= cap = (2^(B-1) - 1) // M is 0 exactly when every field is: the nonzero
field of lowest order, the largest such kappa, leaves a nonzero remainder
mod 2^(B (N-kappa)).

So the one zero test, `_vanishes`, behind `is_zero_combination` and the
staircase checks, reads the row of each term Sigma^w U*(t) by its source
sigma = w + t + 1, the source of its normal form too (`_sources`, the one
term reader, which also refuses a term that does not fit), and sums coef
times the packed rows as big integers when S <= cap and every term is a
table row; cap >= 2^n covers the staircase of every lam with a full first
row (coefficients +-1 and +-C(n, c) for distinct 0 < c < n), and so its
column of T.  Any other combination takes the slow path: its table rows are
merged by source and decoded exactly (`_Ctx.decode`, below), the deep rows
added unpacked, and every field tested.  The Kapranov Gram matrix is the
t = 0 rows.

A batch of relations needs no table.  The build is X = P U, with U the unit
rows and P the product of the updates x[i] += x[up] of `strip_product`.  A
relation c over the sources vanishes exactly when c^T G = (P^T c)^T U is 0,
and row kappa + 1 of U is e_kappa (the rows with sigma_{k-1} = 0 are 0), so
exactly when v = P^T c is 0 at every source kappa + 1.  P^T is the same
updates transposed, v[up] += v[i], in the opposite order: n rounds of the
strips from row k-1 to row 0, each pair list reversed
(`_Ctx.strip_transpose`; the transposition principle, Buergisser, Clausen
and Shokrollahi, *Algebraic Complexity Theory*, 13.1).  `_vanish_batch`
packs relation q in field q at width B, so one pass over C(n+1,k) ints runs
the whole batch.  The packed ints are exact and the pass is linear, so each
one stays sum_q v_q[sigma] 2^(B q), even where a field outgrows 2^(B-1)
part-way through.  Only the final read needs the bound: field q at kappa + 1
is (c_q^T G)[kappa], at most S M < 2^(B-1) in absolute value when
S = sum |coef| <= cap, as above.  So a read is 0 exactly when all its fields
are, and a nonzero read, biased by 2^(B-1) per field and split by one
`to_bytes` as in `decode`, names its failing relations.  A relation with a
deep term or with S > cap is refused.  The report's staircase stage checks
all C(n-1,k-1) full-first-row columns of T in one batch; the calls that
check one relation each (`is_zero_combination`, `is_k_exact`, the theta
staircase, the G(4,8) fixture) and the residual covectors read the table.

A normal form with t <= -2 needs sigma outside the wider box.  Its row is
one Jacobi-Trudi determinant det[h_{lam_i - a_j - i + j}(1^n)] per entry,
lam = kappa - t and h_m(1^n) = C(n+m-1, m), by `_bareiss_det`; it is stored
as one row, unpacked, and its entries may exceed M.

All per-box state lives on one context, `_ctx(box)`, and only the box used
last is kept, so a sweep over many boxes frees each one when it moves on.
The context holds the basis diagrams, the sparse twist matrix, the packed
table and the Jacobi-Trudi rows, the only rows it stores unpacked; each
stage computes the classes T^i e_lam it reads, once per orbit, by the one
twist loop (`_Ctx.twisted_classes`, exact or mod 3).  It also holds the
skeleton that `grex report` verifies, each computed once per box and read
only: `orbits`, the tuple `orbits(box)`; and `fonarev` and `block`, the
Fonarev collection and the primitive block built from that tuple.  It holds
no dense Gram matrix: `kapranov_gram` and `class_of` read Gram row i as the
covector of e_i, as every pairing does.

Inside the module a class is sparse, {basis index: coefficient}: the twist,
the pairing and the checked Gram-Schmidt projection act on that form.  A
pairing reads the Gram rows packed.  Gram row i is the table entry
kappa_i + 1, so the covector x^T G of a class x is one big-integer sum of
coef times packed rows (`covector`), and x^T G y is a dot product over the
nonzeros of y alone.  Each row read checks the unit diagonal in O(1): row i
holds the fields i..N-1 only, so its diagonal field is 1 exactly when the
int has B (N-1-i) + 1 bits.  One reader, `_Ctx.decode`, turns any sum of
distinct table rows into its fields; the covector, an unpacked table row
and the slow path of `_vanishes` all go through it.  The fields may be
negative, so the sum is biased by 2^(B-1) in every field and decoded by
one `to_bytes`.  With sum |coef| = S <= cap, every field is at most
S M < 2^(B-1) in absolute value, so every biased field lies in [0, 2^B):
nothing borrows, and each field is its own value plus 2^(B-1).  A larger S
is decoded in base-D digit levels, each within cap, and recombined exactly.

Every residual projector list is a subsequence of the chain T^j e_lam, lam
in the primitive block and j below the longest short orbit.
Semiorthogonality passes to subsequences, so `residual_report` checks that
chain once, decoding each member's covector once, and then projects by
chain position, reading those covectors; the residual Gram decodes one more
covector per residual class.

The fullness determinant is det of the Fonarev classes T^i e_lam in this
basis, a sparse matrix rich in +-1 entries.  It is eliminated over Z row by
row, in collection order, each row pivoting on its first live +-1 entry, so
no division is needed; a row without one is deferred to the dense
fraction-free (Bareiss) determinant at the end.  On every box measured (all
with n <= 13 under the size guard, G(6,14), G(8,14) and G(5,15)) no Fonarev
row is deferred; that is measured, not proven.

Once `grex report` has checked the Ext groups and T, it needs only the sign.
Let C be the matrix whose rows are the Fonarev classes, so that the Euler
Gram matrix of the collection is G_F = C G_K C^T, with G_K the Kapranov one.
G_K is upper unitriangular: row i holds the fields i..N-1 only, and its
diagonal entry is s_{(kappa+1)/(kappa+1)}(1^n) = 1.  If the staircase stage
passes, column lam of T is the class of Sigma^lam U*(1), so the rows of C
are the classes of the Fonarev objects.  If the Gram stage passes, no Ext
runs from a later object to an earlier one and each object has Hom = k, so
G_F is unitriangular too.  Then det(C)^2 = det G_F / det G_K = 1, and for an
odd prime p the residue of det C mod p, 1 or p - 1, fixes its sign.
`_fullness_sign` takes p = 3.  It reduces T mod 3 once and builds the
classes from it by the same twist loop, one pass per orbit.  By Lucas's
theorem 3 divides C(n, c) unless each base-3 digit of c is at most that of
n, so most middle staircase terms vanish mod 3; for n = 3^a none is left, and T mod 3 is a
signed permutation.  The one elimination loop, `_sparse_det`, then runs on
least absolute residues -1, 0 and 1: every live entry is a pivot, and no
row is deferred.  The report takes this route only when both of those
stages pass.  Otherwise it eliminates over Z, and so it does when the
residue is 0, which would mean the two stages contradict each other.
`grex fullness` and `grex residual` run no Gram stage, so they always
eliminate over Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from math import comb
from operator import add, mul
from struct import Struct

from .bott import TwistedSchur, euler_char, normal_form
from .diagrams import (
    Box,
    BoxedDiagram,
    Orbit,
    _ascending_parts,
    enumerate_diagrams,
    orbits,
    residual_rank,
)
from .lefschetz import CollectionObject, LefschetzCollection, _fonarev, _primitive_block

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
        self.chis: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}  # (a, t <= -2) -> row
        # the sources sigma of the table: the box one column wider
        self.sources = {s: i for i, s in enumerate(_ascending_parts(box.k, box.width + 1))}
        # M, the largest row sum of the table, which bounds every entry and
        # every partial sum of its build (module docstring): the strips
        # applied to the row sums of the unit rows, 1 where sigma_{k-1} >= 1
        # and 0 elsewhere; the field width B, whole bytes with
        # 2^(B-1) > 2^n M; cap, the largest sum |coef| one packed sum holds;
        # and the decoder: the bias 2^(B-1) in each of the N fields, and the
        # Struct that splits N packed fields into their bytes
        self.bound = max(self.strip_product([1 if s[-1] else 0 for s in self.sources]))
        self.bits = -(-((self.bound << box.n).bit_length() + 1) // 8) * 8
        self.cap = ((1 << self.bits - 1) - 1) // self.bound
        size, top = self.bits // 8, len(self.weights)
        self.bias = int.from_bytes((b"\x80" + bytes(size - 1)) * top, "big")
        self.fields = Struct(f"{size}s" * top)

    @cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        """`orbits(box)`: the one orbit pass of the box."""
        return tuple(orbits(self.box))

    @cached_property
    def fonarev(self) -> LefschetzCollection:
        """`fonarev(box)`, from the orbits above."""
        return _fonarev(self.box, self.orbits)

    @cached_property
    def block(self) -> tuple[CollectionObject, ...]:
        """`primitive_block(box)`, from the orbits above."""
        return _primitive_block(self.box, self.orbits)

    def row(self, a: tuple[int, ...], t: int) -> tuple[int, ...]:
        """chi(Sigma^a U*(t), Sigma^kappa U*) for every basis kappa, in order,
        where a_0 + t and a_0 - a_{k-1} are at most n-k.

        It is read under the normal form (a', t') of the bundle.  With
        t' >= -1 it is entry sigma = a' + t' + 1 of the table G = H^n, n
        rounds of k one-row suffix sums over the box one column wider,
        decoded and not stored: entry kappa is s_{(kappa+1)/sigma}(1^n), at
        most the largest row sum M < 2^(B-1), so no B-bit field carries.
        The int holds the fields lo..N-1 only, high field first, and only
        those are converted (`decode`).  With t' <= -2 it is one Jacobi-Trudi
        determinant per entry (`deep_row`), stored once in `chis`.
        """
        a, t = normal_form(a, t)
        if t >= -1:
            return tuple(self.decode([(1, self.packed(a, t))]))
        r = self.chis.get((a, t))
        if r is None:
            r = self.chis[a, t] = self.deep_row(a, t)
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
        """The table row of a normal form (a, t) with t >= -1, packed at width
        B, high field first: entry kappa at bit B (N-1-kappa)."""
        return self.table[_sources(self, [(1, a, t)])[0]]

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
        """X[sigma] = the packed row of sigma at width B: G = H^n applied to
        the unit rows e_{sigma-1}, each at bit B (N-1-index[sigma-1]).  Row
        sigma is zero before the basis index lo of max(sigma - 1, 0) (`row`),
        so X[sigma] < 2^(B (N - lo))."""
        bits, index, top = self.bits, self.index, len(self.weights) - 1
        units = [
            1 << bits * (top - index[tuple(v - 1 for v in s)]) if s[-1] else 0
            for s in self.sources
        ]
        return self.strip_product(units)

    def strip_product(self, x: list[int]) -> list[int]:
        """H^n x, in place: n rounds of the k one-row suffix sums
        x[sigma] += x[sigma + e_j], sigma in reverse lexicographic order, top
        row first.  The table applies it to packed unit rows, the bound to
        one row sum per source."""
        strips = self.strips
        for _ in range(self.box.n):
            for pairs in strips:
                for i, up in pairs:
                    x[i] += x[up]
        return x

    def strip_transpose(self, v: list[int]) -> list[int]:
        """(H^T)^n v, in place: the exact transpose of `strip_product`, its
        updates in the opposite order, each x[i] += x[up] taken as
        v[up] += v[i]: n rounds of the strips from row k-1 to row 0, each
        from its last pair to its first.  `_vanish_batch` applies it to one
        packed field per relation."""
        strips = self.strips[::-1]
        for _ in range(self.box.n):
            for pairs in strips:
                for i, up in reversed(pairs):
                    v[up] += v[i]
        return v

    def gram_packed(self, i: int) -> int:
        """Gram row i packed, read from the table with its unit diagonal checked:
        the row holds the fields i..N-1 only, so its highest field is the
        diagonal, at bit B (N-1-i), and it is 1 exactly when that is the top bit."""
        r = self.packed(self.weights[i], 0)
        if r.bit_length() != self.bits * (len(self.weights) - 1 - i) + 1:
            raise AssertionError(f"Kapranov Gram diagonal is not 1 at {self.weights[i]}")
        return r

    def decode(self, terms: list[tuple[int, int]]) -> list[int]:
        """sum coef * row over (coef, packed row) terms of distinct table rows,
        every field exactly, in basis order.

        One biased sum per level, decoded by one `to_bytes` (module
        docstring).  A level holds sum |coef| <= cap.  Terms above that are
        split into base-D digit levels, D = cap // len(terms) + 1, each with
        sum |digit| <= len(terms) (D - 1) <= cap, and recombined exactly.
        The rows are distinct, so len(terms) <= C(n+1,k) <= 2^n <= cap and
        D >= 2.  A row int of b bits holds the fields lo..N-1 only, where
        lo = N - ceil(b / B), so every field before the least lo of the
        terms is 0, and only the fields from it on are converted.
        """
        top = len(self.weights)
        if not terms:
            return [0] * top
        half = 1 << self.bits - 1
        lo = top - -(-max(r.bit_length() for _, r in terms) // self.bits)
        levels, base = [terms], 1
        if sum(abs(c) for c, _ in terms) > self.cap:
            levels, base = [], self.cap // len(terms) + 1
            while terms:
                level, rest = [], []
                for c, r in terms:
                    q, d = divmod(abs(c), base)
                    if d:
                        level.append((d if c > 0 else -d, r))
                    if q:
                        rest.append((q if c > 0 else -q, r))
                levels.append(level)
                terms = rest
        out = None
        for level in reversed(levels):
            total = sum(c * r for c, r in level) + self.bias
            raw = self.fields.unpack(total.to_bytes(self.fields.size, "big"))
            digits = [v - half for v in map(int.from_bytes, islice(raw, lo, None))]
            out = digits if out is None else [base * v + d for v, d in zip(out, digits)]
        return [0] * lo + out

    def covector(self, x: dict[int, int]) -> list[int]:
        """x^T G, the pairings chi(x, e_kappa) for every basis kappa, in order:
        the `decode` of the packed Gram rows of x, each read once.  The rows
        are distinct, at most C(n,k) <= 2^n <= cap of them, so D >= 2."""
        return self.decode([(c, self.gram_packed(i)) for i, c in x.items()])

    @cached_property
    def twist(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Column lam: the class of Sigma^lam U*(1) as sparse (row, coefficient)
        pairs, from lam's staircase if lam_1 = n-k (`staircase._terms`)."""
        from .staircase import _terms  # staircase imports this module

        box, index = self.box, self.index
        cols = []
        for w in self.weights:
            if w[0] < box.width:
                cols.append(((index[tuple(x + 1 for x in w)], 1),))
                continue
            col: dict[int, int] = {}
            for coef, mu, t in _terms(box, w)[1:]:
                i = index[tuple(x + t + 1 for x in mu)]
                col[i] = col.get(i, 0) - coef
            cols.append(tuple(col.items()))
        return tuple(cols)

    def twisted_classes(
        self, w: tuple[int, ...], count: int, twist=None, modulus: int | None = None
    ) -> list[dict[int, int]]:
        """T^i e_w = [Sigma^w U*(i)] for 0 <= i < count, fresh sparse dicts:
        count - 1 twists; with a modulus, mod it, by the twist given mod it."""
        twist = twist or self.twist
        out = [{self.index[w]: 1}]
        for _ in range(count - 1):
            out.append(_twist_sum(twist, out[-1], modulus))
        return out[:count]

    def check_semiorthogonal(self, projectors: list[dict[int, int]]) -> list[list[int]]:
        """Raise ValueError unless the list is Euler-unitriangular; return the
        covectors of the projectors, each decoded once.

        chi(e_j, e_i) for every j >= i is sum_m c_m cov_j[m] over the
        nonzeros c_m of e_i: one sum of column slices per projector.
        """
        covs = [self.covector(e) for e in projectors]
        cols = {m: [cov[m] for cov in covs] for m in set().union(*projectors)}
        for i, e in enumerate(projectors):
            vals = [0] * (len(projectors) - i)
            for m, c in e.items():
                vals = list(map(add, vals, map(c.__mul__, islice(cols[m], i, None))))
            if vals[0] != 1:
                raise ValueError(f"projector {i} is not exceptional (chi(e,e) != 1)")
            vals[0] = 0
            if any(vals):
                j = next(j for j, v in enumerate(vals) if v)
                raise ValueError(
                    f"projectors {i + j} > {i} are not semiorthogonal; check the ordering"
                )
        return covs

    def project(
        self, projectors: list[dict[int, int]], covectors: list[list[int]], x: dict[int, int]
    ) -> dict[int, int]:
        """Gram-Schmidt x against a checked semiorthogonal list, given the
        covectors of its projectors, last projector first, and check that the
        result is left-orthogonal to every projector."""
        y = dict(x)
        for e, cov in zip(reversed(projectors), reversed(covectors)):
            if c := _dot(cov, y):
                for i, v in e.items():
                    y[i] = y.get(i, 0) - c * v
        y = {i: v for i, v in y.items() if v}
        if any(_dot(cov, y) for cov in covectors):
            raise AssertionError("mutation lost orthogonality")
        return y

    def sparse(self, x: KClass) -> dict[int, int]:
        """The nonzeros of a coordinate vector over the basis."""
        if len(x) != len(self.weights):
            raise ValueError(f"class has {len(x)} coordinates, the basis has {len(self.weights)}")
        return {i: v for i, v in enumerate(x) if v}

    def dense(self, x: dict[int, int]) -> KClass:
        return tuple(x.get(i, 0) for i in range(len(self.weights)))


def _twist_sum(twist, x: dict[int, int], modulus: int | None = None) -> dict[int, int]:
    """T x, its nonzeros, for the columns of a twist matrix as (row,
    coefficient) pairs: the one twist step.  With an odd modulus, its
    nonzero least absolute residues."""
    out: dict[int, int] = {}
    for j, xj in x.items():
        for i, c in twist[j]:
            out[i] = out.get(i, 0) + xj * c
    return _residues(out, modulus) if modulus else {i: v for i, v in out.items() if v}


def _sources(ctx: _Ctx, terms: list[tuple[int, tuple[int, ...], int]]) -> list[int | None]:
    """The table source sigma = w + t + 1 of each (coef, w, t) term
    Sigma^w U*(t), the source of its normal form too, or None for a deep
    term (w_{k-1} + t < -1), whose row is no table entry.  ValueError unless
    every term fits the pairing rows."""
    width, sources, out = ctx.box.width, ctx.sources, []
    for _, w, t in terms:
        if max(w[0] + t, w[0] - w[-1]) > width:
            raise ValueError(f"bundle {TwistedSchur(w, t, ctx.box)} does not fit the pairing rows")
        if w[-1] + t < -1:
            out.append(None)
        else:
            # a term at t = -1, as every column of T but its head, is its own source
            out.append(sources[w if t == -1 else tuple(map((t + 1).__add__, w))])
    return out


def _dot(covector: list[int], y: dict[int, int]) -> int:
    """x^T G y from the covector of x, over the nonzeros of y."""
    return sum(map(mul, map(covector.__getitem__, y), y.values()))


@lru_cache(maxsize=1)
def _ctx(box: Box) -> _Ctx:
    return _Ctx(box)


def basis(box: Box) -> tuple[BoxedDiagram, ...]:
    """The Kapranov basis diagrams in lexicographic order."""
    return _ctx(box).diagrams


def kapranov_gram(box: Box) -> tuple[tuple[int, ...], ...]:
    """Gram matrix chi(Sigma^lam U*, Sigma^mu U*) over the basis, read by `covector`."""
    ctx = _ctx(box)
    return tuple(tuple(ctx.covector({i: 1})) for i in range(len(ctx.weights)))


def class_of(e: TwistedSchur) -> KClass:
    """Coordinates of [E] in the Kapranov basis via the triangular solve:
    c_i = chi(e_i, E) - sum_{j > i} G[i, j] c_j, from the last basis index
    down, each Gram row read through `covector`."""
    box = e.box
    ctx = _ctx(box)
    c: dict[int, int] = {}
    for i in range(len(ctx.weights) - 1, -1, -1):
        b = euler_char(TwistedSchur(ctx.weights[i], 0, box), e)
        if v := b - _dot(ctx.covector({i: 1}), c):
            c[i] = v
    return ctx.dense(c)


def euler_pairing(box: Box, x: KClass, y: KClass) -> int:
    """Bilinear Euler form x^T G y on coordinate vectors."""
    ctx = _ctx(box)
    return _dot(ctx.covector(ctx.sparse(x)), ctx.sparse(y))


def twist_class(box: Box, x: KClass) -> KClass:
    """The class of x (x) O(1)."""
    ctx = _ctx(box)
    return ctx.dense(_twist_sum(ctx.twist, ctx.sparse(x)))


def mutate_left(box: Box, projectors: list[KClass], x: KClass) -> KClass:
    """Gram-Schmidt x against a semiorthogonal sequence, last projector first.

    Every call rejects a projector list that is not Euler-unitriangular, and
    checks that the result is left-orthogonal to every projector.
    """
    ctx = _ctx(box)
    es = [ctx.sparse(e) for e in projectors]
    covs = ctx.check_semiorthogonal(es)
    return ctx.dense(ctx.project(es, covs, ctx.sparse(x)))


def is_zero_combination(box: Box, terms: list[tuple[int, TwistedSchur]]) -> bool:
    """Whether sum coef * [bundle] vanishes in K_0.

    Tested by summing the pairing rows of the terms (`_vanishes`): the
    pairings against every basis object determine a class uniquely (the
    Gram matrix is uni-triangular).  Every bundle must live on the box and
    fit the pairing rows (`_Ctx.row`), whatever its coefficient; otherwise
    ValueError.
    """
    for _, bundle in terms:
        if bundle.box != box:
            raise ValueError(f"bundle {bundle} lives on a different box")
    return _vanishes(box, [(coef, e.weight, e.twist) for coef, e in terms])


def _vanishes(box: Box, terms: list[tuple[int, tuple[int, ...], int]]) -> bool:
    """Whether sum coef * [Sigma^w U*(t)] over the (coef, w, t) terms vanishes
    in K_0: the one zero test, behind `is_zero_combination` and
    `staircase.is_k_exact`, which builds no bundle per term.

    A term with w_{k-1} + t >= -1 is the table row of its source
    sigma = w + t + 1, the source of its normal form too, so no normal form
    is taken.  When every term is a table row and sum |coef| <= cap, the
    rows are summed packed, as big integers, and the total is 0 exactly
    when every pairing is.  Otherwise the table rows are merged by source
    and decoded exactly (`_Ctx.decode`), the deep rows (w_{k-1} + t < -1)
    added unpacked (`_Ctx.row`), and every field tested.  Every term must
    fit the pairing rows, whatever its coefficient; otherwise ValueError.
    """
    ctx = _ctx(box)
    rows, deep, weight = [], [], 0
    for (coef, w, t), i in zip(terms, _sources(ctx, terms)):
        if coef:
            weight += abs(coef)
            if i is None:
                deep.append((coef, w, t))
            else:
                rows.append((coef, i))
    if not deep and weight <= ctx.cap:
        return not sum(coef * ctx.table[i] for coef, i in rows)
    merged: dict[int, int] = {}
    for coef, i in rows:
        merged[i] = merged.get(i, 0) + coef
    total = ctx.decode([(c, ctx.table[i]) for i, c in merged.items() if c])
    for coef, w, t in deep:
        total = list(map(add, total, map(coef.__mul__, ctx.row(w, t))))
    return not any(total)


def _vanish_batch(
    box: Box, relations: list[list[tuple[int, tuple[int, ...], int]]]
) -> list[bool]:
    """For each relation, a list of (coef, w, t) terms, whether
    sum coef * [Sigma^w U*(t)] vanishes in K_0: the verdicts of `_vanishes`,
    from one transposed pass and no table (module docstring).

    Relation q is packed in field q at width B: each coef at bit B q of the
    entry of its source sigma = w + t + 1.  After `strip_transpose`, field q
    of the entry at kappa + 1 is (c_q^T G)[kappa], and the relation vanishes
    exactly when that field is 0 at every basis kappa.  A read is 0 exactly
    when all its fields are; a nonzero read is biased by 2^(B-1) in every
    field and split by one `to_bytes`, which names its failing relations.

    Every term must fit the pairing rows and be a table row
    (w_{k-1} + t >= -1), and every relation must have sum |coef| <= cap,
    whatever its coefficients; otherwise ValueError.
    """
    ctx = _ctx(box)
    sources, bits = ctx.sources, ctx.bits
    v = [0] * len(sources)
    for q, terms in enumerate(relations):
        shift, weight = bits * q, 0
        for (coef, w, t), i in zip(terms, _sources(ctx, terms)):
            if i is None:
                raise ValueError(f"bundle {TwistedSchur(w, t, box)} is not a table row")
            weight += abs(coef)
            v[i] += coef << shift
        if weight > ctx.cap:
            raise ValueError(f"relation {q} has sum |coef| = {weight} > cap = {ctx.cap}")
    ctx.strip_transpose(v)
    size, count = bits // 8, len(relations)
    zero = bytes(size - 1) + b"\x80"  # the field 0 biased by 2^(B-1), little-endian
    bias = int.from_bytes(zero * count, "little")
    failed: set[int] = set()
    for s, r in zip(sources, v):  # the sources with s_{k-1} >= 1 are the kappa + 1
        if r and s[-1]:
            raw = (r + bias).to_bytes(size * count, "little")
            failed.update(q for q in range(count) if raw[q * size : (q + 1) * size] != zero)
    return [q not in failed for q in range(count)]


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

    @property
    def passes(self) -> bool:
        """The verdict of `grex residual` and of the report's residual stage."""
        rank = residual_rank(self.box)
        return self.gram_is_identity and self.tau_all_ok and len(self.residual_classes) == rank

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

    Every projector list is read from one checked chain by position, with the
    covectors its check decoded; the residual Gram decodes one covector per
    residual class.
    """
    ctx = _ctx(box)
    block = [obj.bundle.weight for obj in ctx.block]
    shorts = [(orb.representative, orb.length) for orb in ctx.orbits if orb.length < box.n]
    o_max = max((o for _, o in shorts), default=0)
    chain = [c for level in zip(*(ctx.twisted_classes(w, o_max) for w in block)) for c in level]
    covs = ctx.check_semiorthogonal(chain)
    width = len(block)
    sign_exponents = tuple(box.k * (box.n - box.k) // (box.n // o) for _, o in shorts)
    residual: list[dict[int, int]] = []
    tau_ok: list[bool] = []
    for (mu, o), sign_exp in zip(shorts, sign_exponents):
        inside = [p for p, w in enumerate(block) if mu.contains(BoxedDiagram(w, box))]
        fs = []
        for i, x in enumerate(ctx.twisted_classes(mu.parts, o)):
            # chain positions: the block at twists 0..i-1, then its part inside mu at twist i
            picks = [*range(i * width), *(i * width + p for p in inside)]
            fs.append(ctx.project([chain[q] for q in picks], [covs[q] for q in picks], x))
        residual.extend(fs)
        sign = -1 if sign_exp % 2 else 1
        polarized = [ctx.project(chain[:width], covs[:width], _twist_sum(ctx.twist, x)) for x in fs]
        tau_ok.append(polarized == fs[1:] + [{j: sign * v for j, v in fs[0].items()}])

    gram = tuple(tuple(_dot(c, y) for y in residual) for c in map(ctx.covector, residual))
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
    `_sparse_det` for the rows it deferred.

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


def _sparse_det(rows: list[dict[int, int]], modulus: int | None = None) -> int:
    """Exact determinant, or its residue mod an odd modulus, of a square
    integer matrix given as sparse rows {column: entry} over the columns
    0..len(rows)-1.  Consumes the dicts.

    The rows are taken in the order given.  A row with a live entry p = +-1
    pivots on the first one and clears its column from every other live
    row, whose entry there is a, by row -= (a p) pivot_row: exact, because
    1/p = p.  A row without such an entry is deferred, and stays live.  The
    deferred rows times the unpivoted columns go to `_bareiss_det` at the
    end, so the result is always the exact integer.  The determinant is the
    product of the pivots and that remainder, times the sign of the
    row -> column permutation.

    With an odd modulus, the entries are least absolute residues mod it,
    every updated entry is reduced to one, and so is the result: the
    determinant mod the modulus.  Mod 3 those residues are -1, 0 and 1, so
    every live entry is a pivot and no row is deferred.
    """
    half = modulus // 2 if modulus else 0
    n = len(rows)
    cols: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            cols.setdefault(c, set()).add(r)
    if len(cols) < n or not all(rows):  # a zero column or row
        return 0
    pivot_col = list(range(n))
    deferred = []
    det = 1
    for r, prow in enumerate(rows):
        c = next((c for c, v in prow.items() if v in (1, -1)), None)
        if c is None:
            deferred.append(r)
            continue
        p = prow.pop(c)
        below = cols.pop(c) - {r}
        for j in prow:
            cols[j].discard(r)
        for s in below:
            row = rows[s]
            f = row.pop(c) * p
            for j, v in prow.items():
                x = row.get(j, 0) - f * v
                if modulus:
                    x = (x + half) % modulus - half
                if x:
                    if j not in row:
                        cols[j].add(s)
                    row[j] = x
                else:
                    del row[j]
                    cols[j].discard(s)
            if not row:
                return 0
        det *= p
        pivot_col[r] = c
    if deferred:
        free = sorted(cols)  # the unpivoted columns, as many as deferred rows
        for r, c in zip(deferred, free):
            pivot_col[r] = c
        det *= _bareiss_det([[rows[r].get(c, 0) for c in free] for r in deferred])
    for i in range(n):  # the sign of r -> pivot_col[r]; each swap fixes one entry
        while pivot_col[i] != i:
            j = pivot_col[i]
            pivot_col[i], pivot_col[j] = pivot_col[j], j
            det = -det
    return (det + half) % modulus - half if modulus else det


def _residues(x: dict[int, int], modulus: int) -> dict[int, int]:
    """The nonzero least absolute residues of x mod an odd modulus."""
    half = modulus // 2
    return {i: r for i, v in x.items() if (r := (v + half) % modulus - half)}


def _fonarev_classes(box: Box, modulus: int | None = None) -> list[dict[int, int]]:
    """The Fonarev classes T^i e_lam in collection order, fresh dicts: each
    orbit's o(lam) classes from one twist pass.  With a modulus, T is reduced
    mod it once, and so is every class."""
    ctx = _ctx(box)
    twist = ctx.twist
    if modulus:
        twist = [tuple(_residues(dict(col), modulus).items()) for col in twist]
    lengths = {orb.representative.parts: orb.length for orb in ctx.orbits}
    classes = {w: ctx.twisted_classes(w, o, twist, modulus) for w, o in lengths.items()}
    rows = [classes[obj.bundle.weight][obj.bundle.twist] for obj in ctx.fonarev.objects]
    if len(rows) != len(ctx.diagrams):
        raise AssertionError("Fonarev collection size does not match rank of K_0")
    return rows


def fullness_determinant(box: Box) -> int:
    """det of the Fonarev classes in the Kapranov basis; |det| = 1 certifies
    that the collection spans K_0.

    The classes T^i e_lam, one twist pass per orbit, are kept by nothing
    else, so `_sparse_det` consumes them uncopied.  Sparse, a quarter to a
    half of them basis vectors, they are eliminated on +-1 pivots (as the
    transpose, of the same determinant) in collection order, which the
    no-fallback measurements rest on; the result is exact, sign included,
    fallback or not.
    """
    return _sparse_det(_fonarev_classes(box))


_SIGN_PRIME = 3


def _fullness_sign(box: Box) -> int:
    """det of the Fonarev classes mod 3, as -1, 0 or 1.

    It is the determinant only where det^2 = 1 is known, which the report's
    Gram and staircase verdicts give (module docstring): there it is the
    sign, and 0 means those verdicts contradict each other.  The classes are
    built from T mod 3, where most staircase terms vanish, and eliminated
    in collection order, every live entry a pivot.
    """
    return _sparse_det(_fonarev_classes(box, _SIGN_PRIME), _SIGN_PRIME)
