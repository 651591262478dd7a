"""K_0(G(k,n)) in the Kapranov basis: classes, Euler pairing, mutations,
residual classes, and the fullness determinant.

A class is an integer coordinate vector over the lexicographically ordered
box diagrams.  `class_of` is the generic route: it recovers the coordinates
of any bundle from its Euler pairings against the basis by back-substitution
through the unitriangular Kapranov Gram matrix.

Twisted classes come from the twist T = (x) O(1) instead, whose matrix is pure
combinatorics.  If lam_1 < n-k, then T e_lam = e_{lam+1}.  If lam_1 = n-k, the
staircase resolution of Sigma^lam U*, twisted by O(1), gives

    [Sigma^lam U*(1)] = -sum_{(c, Sigma^mu U*(s))} c e_{mu+s+1}

over its non-head terms, and every mu+s+1 is a box diagram (`_Ctx.twist`,
by the jump rule `diagrams._jumps`).  So [Sigma^lam U*(i)] = T^i e_lam for
i >= 0.  `_Ctx.twist_exact` checks T's C(n-1,k-1) full-first-row columns by
one batched zero test (`_Ctx.vanish_batch`, each column read off T): O(1)
acts on K_0 by an automorphism and the head coefficient is 1, so
[Sigma^lam U*] - sum T[kappa, lam] [Sigma^kappa U*(-1)] vanishes exactly
when lam's staircase is K-exact, and merging terms only lowers its sum
|coef|, which stays at most 2^n.

Pairings of the form chi(Sigma^a U*(t), Sigma^kappa U*) with t <= 0 and both
diagrams in the box sit in a single cohomological degree, so they reduce to
LR coefficients weighted by GL(n) dimensions, which sum to a skew Schur
function at the point 1^n (Macdonald, *Symmetric Functions*, I.(5.4)):

    chi(Sigma^a U*(t), Sigma^kappa U*) = sum_pi c^lam_{a, pi} dim_n(pi)
                                       = s_{lam/a}(1^n),   lam = kappa - t.

Row (a, t) holds chi(Sigma^a U*(t), Sigma^kappa U*) for every basis kappa,
under the normal form of its bundle, the weight ending in 0, as
Sigma^{a+m} U*(t) = Sigma^a U*(t+m) (`bott.normal_form`, read by
`_Ctx.row`).  Skew shapes are translation invariant, so for a normal form
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
in X[sigma], by additions alone (`_Ctx.strip_product`; `_Ctx.units` places
the unit rows, kappa at its source `_Ctx.lift[kappa]` = kappa + 1).

Every entry is at most M, the largest row sum of G, which the same rounds
give from one small int per source, 1 where sigma_{k-1} >= 1: every entry
is nonnegative, and each strip is I plus a nonnegative matrix, so every
partial sum on the way is at most its final entry.  A combination with
sum |coef| = S has fields of absolute value at most S M.  So, packed at
B bits per field, B the least whole number of bytes with 2^(B-1) > S M
(`_width`), a sum is 0 exactly when every field is: the nonzero field of
lowest order leaves a nonzero remainder.

The table (`_Ctx.table`) packs row sigma into one int, entry kappa at bit
B (N-1-kappa), N = C(n,k), at S = 2^n.  Row sigma is zero before the basis
index lo of max(sigma - 1, 0), so its int stops at B (N - lo) bits, and
every sum works on the support alone.  Only the per-call zero test
`_Ctx.vanishes` reads it, behind `is_zero_combination` and `is_k_exact`.
The one term reader `_Ctx.levels` refuses a term that does not fit and puts
each term Sigma^w U*(t) at level 0, at the source sigma = w + t + 1 of its
normal form, or a deep one (below) at its level.  The packed rows times coef
are summed when S <= cap = (2^(B-1) - 1) // M and every term is at level 0;
cap >= 2^n covers the staircase of every lam with a full first row
(coefficients +-1 and +-C(n, c) for distinct 0 < c < n).  Any other
combination takes the slow path, the `_Ctx.pairings` of one transposed pass
below, and every entry of the sum is tested.

Every other reader runs one pass.  The build is X = P U, with U the unit
rows and P the product of the updates x[i] += x[up].  For a column c over
the sources, c^T G = (P^T c)^T U, and row kappa + 1 of U is e_kappa, so
(c^T G)[kappa] is v = P^T c at the source kappa + 1.  P^T is the same
updates transposed, v[up] += v[i], in the opposite order
(`_Ctx.strip_transpose`; the transposition principle, Buergisser, Clausen
and Shokrollahi, *Algebraic Complexity Theory*, 13.1).  `_Ctx.transposed`
packs column q of a batch in field q at the batch's own width.  The packed
ints are exact and the pass is linear, so only the final read needs the
bound, even where a field outgrows 2^(B-1) part-way through; biased by
2^(B-1) per field nothing borrows, and one `to_bytes` and one `Struct`
split a read (`_splitter`).  A batch of one column needs no split
(`_Ctx.pairings` of level 0 alone).  `_Ctx.read` splits the read
of classes x, placed at the sources kappa_i + 1, into the rows
(x^T G)[kappa] and the covectors x^T G.  G is upper unitriangular, so x^T G
is 0 before the least index i of x and x_i at i: one guard per class.

A normal form (a, t) with t <= -2, a deep row, needs sigma outside the
wider box.  (x) O(1) preserves chi, so once T is (x) O(1), with s = -1 - t,

    chi(Sigma^a U*(t), Sigma^kappa U*) = chi(Sigma^a U*(-1), T^s e_kappa),

and row (a, t) is row (a, -1) times T^s, row (a, -1) being the table row of
the source a.  `_Ctx.pairings` reads a combination by levels: the table rows
in field 0 and each deep term in field s at its source a, all in one
transposed pass, then folds the split fields by Horner in T, total =
(...(R_top T + R_{top-1}) T ...) T + R_0, one sparse product by the columns
of T per level.  Its entries may exceed M; they are unpacked ints.  It reads
T only past `_Ctx.check_twist`, the one gate, which `residual_report` passes
too: ValueError names a full-first-row column of T that is not K-exact.

All per-box state lives on one context, `_ctx(box)`, kept for the box used
last alone, and every per-box reader is a method of it that reads no other
context: the basis diagrams, the sparse twist matrix, T's verdicts, the
deep rows that `_Ctx.row` was asked for (`chis`; no stage of `grex report`
stores one, its zero tests fold theirs inside the pass), the table once the
fast path of `_Ctx.vanishes` needs it (no stage of `grex report` does), and the
skeleton that `grex report` verifies, computed once and read only:
`orbits`, the tuple `orbits(box)`, and `fonarev` and `block`, built from
it.
Each stage computes the classes T^i e_lam it reads, once per orbit, by the
one twist loop (`_Ctx.twisted_classes`, exact or mod 3).  No dense Gram
matrix is kept: `kapranov_gram` and `class_of` read the unit classes.

Inside the module a class is sparse, {basis index: coefficient}.  Every
pairing chi(x_q, z) of the classes x_q of one read with a class z is one
packed sum over the nonzeros of z of the read's rows (`_pairer`), whose
entries (x_q^T G)[kappa] are signed and at most S_x M, S_x = max sum |x_q|:
at the width of sum |z| S_x M, each field biased by 2^(B-1) as `_splitter`
unbiases it.  Left mutation is Gram-Schmidt: `_Ctx.check_semiorthogonal`
pairs each projector with the read of all, its Gram column, and checks them
unitriangular; `_project_levels` projects by `_solve`, the one triangular
solve (`class_of` shares it), and `mutate_left` is one level of it.

Every residual projector list is a subsequence of the chain T^b e_v, v in
the primitive block and b below the longest short orbit, level b by level.
(x) O(1) preserves chi, Ext(E(1), F(1)) = Ext(E, F), so once T is (x) O(1)
the twist identity chi(T^b x, T^a y) = chi(T^(b-a) x, y) holds, and the
chain needs the pairings of its |block| classes at level 0 alone.  It is
semiorthogonal exactly when their Gram chi(e_v, e_w) is unitriangular and
chi(T^d e_v, e_w) = 0 for every d >= 1 (`_Ctx.check_chain`), and as
chi(T^a e_w, y) = chi(e_w, T^(-a) y), every projection pairs with the
level-0 classes alone, level by level.  So `residual_report` passes
`_Ctx.check_twist` first.  The residual Gram pairs the
residual classes by one more read, none at rank 0, and the tau-orbit check
compares classes built explicitly.

The fullness determinant is det of the Fonarev classes T^i e_lam in this
basis, a sparse matrix rich in +-1 entries.  It is eliminated over Z row by
row, in collection order, each row pivoting on its first live +-1 entry, so
no division is needed; a row without one is deferred to the dense
fraction-free (Bareiss) determinant at the end.  On every box measured (all
with n <= 13 under the size guard, G(6,14), G(8,14) and G(5,15)) no Fonarev
row is deferred; that is measured, not proven.

Once `grex report` has checked the Ext groups and T, it needs only the sign.
With C the matrix of Fonarev classes, the Euler Gram matrix of the collection
is G_F = C G_K C^T, G_K the Kapranov one, unitriangular.  If the staircase
stage passes, the rows of C are the classes of the Fonarev objects; if the
Gram stage passes, no Ext runs from a later object to an earlier one and
each has Hom = k, so G_F is unitriangular too.  Then det(C)^2 = 1, and the
residue of det C mod an odd prime fixes its sign.  `_fullness_sign` takes 3,
reduces T mod 3 once and builds the classes by the same twist loop
(`_Ctx.fonarev_classes`).  By Lucas's theorem 3 divides C(n, c) unless each
base-3 digit of c is at most that of n, so most middle staircase terms
vanish mod 3 (for n = 3^a, T mod 3 is a signed permutation), and
`_sparse_det` runs on the residues -1, 0 and 1: every live entry is a pivot
(`cli.full_report` says when it is taken).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from math import comb
from struct import Struct

from .bott import TwistedSchur, euler_char, normal_form
from .diagrams import (
    Box, BoxedDiagram, Orbit, _ascending_parts, _check_in_box, _jumps, _step, enumerate_diagrams,
    orbits, residual_rank,
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
        self.lift = [i for i, s in enumerate(self.sources) if s[-1]]  # kappa -> kappa + 1
        # M (module docstring); the table's width B, for sum |coef| = 2^n;
        # and cap, the largest sum |coef| one packed sum of table rows holds
        self.bound = max(self.units(range(len(self.weights)), 0))
        self.bits = _width(self.bound << box.n)
        self.cap = ((1 << self.bits - 1) - 1) // self.bound

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
        where a_0 + t and a_0 - a_{k-1} are at most n-k: the `pairings` of the
        one term.  A table row is one column of one pass, not stored; a deep
        row, row (a', -1) T^s for the normal form (a', t'), s = -1 - t'
        (`levels`), is stored once in `chis`."""
        levels, _ = self.levels([(1, a, t)])
        if len(levels) == 1:
            return tuple(self.pairings(levels))
        key = normal_form(a, t)
        r = self.chis.get(key)
        if r is None:
            r = self.chis[key] = tuple(self.pairings(levels))
        return r

    def levels(self, terms, deep: bool = True) -> tuple[list[list[tuple[int, int]]], int]:
        """The one term reader: the levels of `pairings` for the (coef, w, t)
        terms Sigma^w U*(t), and their sum |coef|.  A term with
        w_{k-1} + t >= -1 is a table row, at level 0 at its source
        sigma = w + t + 1, the source of its normal form too; a deep term
        pairs as row (a, -1), the table row of the source a = w - w_{k-1},
        times T^s, s = -1 - t - w_{k-1} (module docstring), so it goes to
        level s at source a.  ValueError unless every term fits the pairing
        rows, whatever its coefficient, and, without `deep`, is a table row."""
        box, sources, levels, weight = self.box, self.sources, [[]], 0
        for coef, w, t in terms:
            if max(w[0] + t, w[0] - w[-1]) > box.width:
                raise ValueError(f"bundle {TwistedSchur(w, t, box)} does not fit the pairing rows")
            if (s := -1 - t - w[-1]) > 0 and not deep:
                raise ValueError(f"bundle {TwistedSchur(w, t, box)} is not a table row")
            if not coef:
                continue
            weight += abs(coef)
            if s > 0:
                levels.extend([] for _ in range(s + 1 - len(levels)))
                levels[s].append((sources[tuple(x - w[-1] for x in w)], coef))
            else:  # a term at t = -1, as every column of T but its head, is its own source
                levels[0].append((sources[w if t == -1 else tuple(map((t + 1).__add__, w))], coef))
        return levels, weight

    def vanishes(self, terms) -> bool:
        """Whether sum coef * [Sigma^w U*(t)] over the (coef, w, t) terms
        vanishes in K_0: the one per-call zero test, which builds no bundle
        per term.  With no deep term and sum |coef| <= cap it sums the packed
        rows of the table; otherwise it reads the `pairings` of one
        transposed pass (module docstring).  ValueError as `levels` says, or
        when a deep term meets a T that fails `check_twist`."""
        levels, weight = self.levels(terms)
        if len(levels) == 1 and weight <= self.cap:
            return not sum(coef * self.table[i] for i, coef in levels[0])
        return not any(self.pairings(levels))

    def vanish_batch(self, columns: list[list[tuple[int, int]]]) -> list[bool]:
        """For each column of (source, coef) pairs, level 0 of `levels` for a
        relation of terms, whether sum coef * (row of the source) vanishes
        in K_0: the verdicts of `vanishes` from one transposed pass, column q
        in field q, and no table.  A read is 0 exactly when all its fields
        are, and a nonzero one, split, names its failing columns."""
        reads, bits = self.transposed(columns)
        split = _splitter(bits, len(columns))
        failed: set[int] = set()
        for r in reads:
            if r:
                failed.update(q for q, f in enumerate(split(r)) if f)
        return [q not in failed for q in range(len(columns))]

    def pairings(self, levels: list[list[tuple[int, int]]]) -> list[int]:
        """sum_s (c_s^T G) T^s for the columns c_s = levels[s], each a list of
        (source, coef): one `transposed` pass, level s in field s, folded by
        Horner in T, total = (...(R_top T + R_{top-1}) T ...) T + R_0, one
        sparse product per level (module docstring).  Levels past 0 read T,
        so they first pass `check_twist`; level 0 alone needs no split."""
        if len(levels) == 1:
            return self.transposed(levels)[0]
        self.check_twist()
        reads, bits = self.transposed(levels)
        split = _splitter(bits, len(levels))
        fields = list(zip(*map(split, reads)))  # fields[s][kappa]
        twist, total = self.twist, fields.pop()
        while fields:  # total T + R_s, (total T)[kappa] = sum T[m, kappa] total[m]
            out = []
            for r, col in zip(fields.pop(), twist):
                for m, c in col:
                    r += c * total[m]
                out.append(r)
            total = out
        return total

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
        """The packed rows X[sigma], each at width B, which the fast path of
        `vanishes` alone reads: the `units` e_kappa, kappa at bit
        B (N-1-kappa) (module docstring)."""
        return self.units(range(len(self.weights) - 1, -1, -1), self.bits)

    def units(self, kappas, bits: int) -> list[int]:
        """H^n of the unit columns e_kappa, kappas[q] in field q of width
        `bits` at its source kappa + 1: the one forward pass."""
        x = [0] * len(self.sources)
        for q, kappa in enumerate(kappas):
            x[self.lift[kappa]] = 1 << bits * q
        return self.strip_product(x)

    def strip_product(self, x: list[int]) -> list[int]:
        """H^n x, in place: n rounds of the k one-row suffix sums
        x[sigma] += x[sigma + e_j], sigma in reverse lexicographic order."""
        strips = self.strips
        for _ in range(self.box.n):
            for pairs in strips:
                for i, up in pairs:
                    x[i] += x[up]
        return x

    def strip_transpose(self, v: list[int]) -> list[int]:
        """(H^T)^n v, in place: the updates of `strip_product` in the opposite
        order, each x[i] += x[up] taken as v[up] += v[i]."""
        strips = self.strips[::-1]
        for _ in range(self.box.n):
            for pairs in strips:
                for i, up in reversed(pairs):
                    v[up] += v[i]
        return v

    def transposed(self, columns: list[list[tuple[int, int]]]) -> tuple[list[int], int]:
        """The one pass: (H^T)^n of a batch of columns, each a list of
        (source, coef), column q in field q at the width B of S M, S the
        largest sum |coef| of a column (module docstring), read at the
        sources kappa + 1, which come in basis order: one int per basis
        kappa, whose field q is (c_q^T G)[kappa], and B."""
        weight = max((sum(abs(c) for _, c in column) for column in columns), default=0)
        bits = _width(weight * self.bound)
        v = [0] * len(self.sources)
        for q, column in enumerate(columns):
            shift = bits * q
            for i, c in column:
                v[i] += c << shift
        v = self.strip_transpose(v)
        return [v[i] for i in self.lift], bits

    def read(self, xs: list[dict[int, int]]) -> tuple[list[list[int]], list[tuple[int, ...]]]:
        """The rows of one split `transposed` pass of the classes x at the
        sources kappa_i + 1, (x_q^T G)[kappa] in field q of row kappa, and
        the covectors x^T G, in order, each 0 before the least index i of
        its class and x_i at i; AssertionError names kappa_i otherwise."""
        lift = self.lift
        rows, bits = self.transposed([[(lift[i], c) for i, c in x.items()] for x in xs])
        split = _splitter(bits, len(xs))
        for kappa, r in enumerate(rows):  # in place: each packed read is freed as its row is made
            rows[kappa] = split(r)
        covs = list(zip(*rows))
        for x, cov in zip(xs, covs):
            if x and (any(cov[: (i := min(x))]) or cov[i] != x[i]):
                raise AssertionError(f"Kapranov Gram diagonal is not 1 at {self.weights[i]}")
        return rows, covs

    def covector(self, xs: list[dict[int, int]]) -> list[tuple[int, ...]]:
        """x^T G for each class x of the batch, in order, guarded: `read`."""
        return self.read(xs)[1]

    @cached_property
    def twist(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Column lam: the class of Sigma^lam U*(1) as sparse (row, coefficient)
        pairs, from lam's staircase if lam_1 = n-k (module docstring), each
        middle mu tested in the box."""
        box, index, width = self.box, self.index, self.box.width
        cols = []
        for w in self.weights:
            if w[0] < width:
                cols.append(((index[tuple(x + 1 for x in w)], 1),))
                continue
            col: dict[int, int] = {}
            sign = 1
            for c, mu in _jumps(box, w):
                _check_in_box(mu, box.k, width)
                i = index[tuple(x + 1 for x in mu)]
                col[i] = col.get(i, 0) + sign * comb(box.n, c)
                sign = -sign
            i = index[_step(w, width)]
            col[i] = col.get(i, 0) + sign
            cols.append(tuple(col.items()))
        return tuple(cols)

    @cached_property
    def twist_exact(self) -> list[tuple[BoxedDiagram, bool]]:
        """Each basis diagram lam with a full first row, in basis order, with
        whether column lam of T untwisted vanishes in K_0: exactly when lam's
        staircase is K-exact (module docstring)."""
        twist, ws, sources = self.twist, self.weights, self.sources
        full = [i for i, w in enumerate(ws) if w[0] == self.box.width]
        # the head Sigma^lam U* at its source lam + 1, each term of T at t = -1 at its own
        columns = [[(self.lift[i], 1), *((sources[ws[j]], -v) for j, v in twist[i])] for i in full]
        return [(self.diagrams[i], ok) for i, ok in zip(full, self.vanish_batch(columns))]

    def check_twist(self) -> None:
        """The one gate before T is read as (x) O(1), by the twist identity:
        ValueError names the first full-first-row column of T that is not
        K-exact (`twist_exact`)."""
        if bad := [d.parts for d, exact in self.twist_exact if not exact]:
            raise ValueError(f"column {bad[0]} of the twist T is not K-exact: T is not (x) O(1)")

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

    def fonarev_classes(self, modulus: int | None = None) -> list[dict[int, int]]:
        """The Fonarev classes T^i e_lam in collection order, fresh dicts: each
        orbit's o(lam) classes from one twist pass.  With a modulus, T is
        reduced mod it once, and so is every class."""
        twist = self.twist
        if modulus:
            twist = [tuple(_residues(dict(col), modulus).items()) for col in twist]
        lengths = {orb.representative.parts: orb.length for orb in self.orbits}
        classes = {w: self.twisted_classes(w, o, twist, modulus) for w, o in lengths.items()}
        rows = [classes[obj.bundle.weight][obj.bundle.twist] for obj in self.fonarev.objects]
        if len(rows) != len(self.diagrams):
            raise AssertionError("Fonarev collection size does not match rank of K_0")
        return rows

    def pairer(self, xs: list[dict[int, int]]):
        """The `_pairer` of one `read` of the classes x, whose rows are at
        most max sum |x| M in absolute value."""
        weight = max((sum(map(abs, x.values())) for x in xs), default=0)
        return _pairer(self.read(xs)[0], weight * self.bound)

    def check_semiorthogonal(self, projectors: list[dict[int, int]]):
        """Raise ValueError unless the list is Euler-unitriangular; return its
        Gram columns, gram[i][j] = chi(x_j, x_i), and the `pairer` of its one
        read, which paired each x_i to give column i."""
        pair = self.pairer(projectors)
        gram = [pair(x) for x in projectors]
        for i, column in enumerate(gram):
            if column[i] != 1:
                raise ValueError(f"projector {i} is not exceptional (chi(e,e) != 1)")
            if j := next((j for j in range(i + 1, len(column)) if column[j]), 0):
                raise ValueError(f"projectors {j} > {i} are not semiorthogonal; check the ordering")
        return gram, pair

    def check_chain(self, block: list[int], chain: list[list[dict[int, int]]]):
        """Raise ValueError unless the chain, chain[p][b] = T^b e_v with v =
        block[p], is Euler-unitriangular level by level (module docstring):
        the e_v by `check_semiorthogonal`, whose block Gram columns and
        `pairer` it returns, and each T^d e_v, d >= 1, by one packed sum over
        its nonzeros of the `units` of the block, which leave G[kappa, w] in
        field w at each source kappa + 1, at the width of S M, S the largest
        sum |coef| of a chain class."""
        checked = self.check_semiorthogonal([{v: 1} for v in block])
        lift = self.lift
        bits = _width(max(sum(map(abs, y.values())) for ys in chain for y in ys) * self.bound)
        packed = self.units(block, bits)
        for p, ys in enumerate(chain):
            for d, y in enumerate(ys[1:], 1):
                if s := sum(c * packed[lift[m]] for m, c in y.items()):
                    i = next(q for q, f in enumerate(_splitter(bits, len(block))(s)) if f)
                    raise ValueError(
                        f"projectors {d * len(block) + p} > {i} are not semiorthogonal; "
                        "check the ordering"
                    )
        return checked

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


def _width(bound: int) -> int:
    """The least whole number of bytes B, in bits, with 2^(B-1) > bound."""
    return -(-(bound.bit_length() + 1) // 8) * 8


def _splitter(bits: int, count: int):
    """The split of a read of `count` fields at width B into field q, at bit
    B q, for every q in order, by one bias, `to_bytes` and `Struct`."""
    size, half, bias = bits // 8, 1 << bits - 1, _bias(bits, count)
    unpack, little = Struct(f"{size}s" * count).unpack, repeat("little")

    def split(r: int) -> list[int]:
        raw = (r + bias).to_bytes(size * count, "little")
        return [f - half for f in map(int.from_bytes, unpack(raw), little)]

    return split


def _bias(bits: int, count: int) -> int:
    """2^(B-1) in each of `count` fields of width B: the bias of a signed read."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * count, "little")


@lru_cache(maxsize=1)
def _ctx(box: Box) -> _Ctx:
    return _Ctx(box)


def basis(box: Box) -> tuple[BoxedDiagram, ...]:
    """The Kapranov basis diagrams in lexicographic order."""
    return _ctx(box).diagrams


def kapranov_gram(box: Box) -> tuple[tuple[int, ...], ...]:
    """Gram matrix chi(Sigma^lam U*, Sigma^mu U*) over the basis: the
    covectors of the unit classes, from one read."""
    ctx = _ctx(box)
    return tuple(ctx.covector([{i: 1} for i in range(len(ctx.weights))]))


def class_of(e: TwistedSchur) -> KClass:
    """Coordinates of [E] in the Kapranov basis: the c with
    sum_j chi(e_i, e_j) c_j = chi(e_i, E) for every i, by `_solve` on the
    Gram columns, the rows of one read of the unit classes.  The generic LR +
    Bott route, uncached: each call runs one whole transposed pass of the N
    unit classes and N Euler characteristics."""
    box, ctx = e.box, _ctx(e.box)
    gram = ctx.read([{i: 1} for i in range(len(ctx.weights))])[0]
    r = [euler_char(TwistedSchur(w, 0, box), e) for w in ctx.weights]
    return ctx.dense(_solve(gram, r, range(len(r))))


def euler_pairing(box: Box, x: KClass, y: KClass) -> int:
    """Bilinear Euler form x^T G y on coordinate vectors, by the `pairer` of
    x.  Each call runs one whole transposed pass: batch many classes through
    one read."""
    ctx = _ctx(box)
    return ctx.pairer([ctx.sparse(x)])(ctx.sparse(y))[0]


def twist_class(box: Box, x: KClass) -> KClass:
    """The class of x (x) O(1)."""
    ctx = _ctx(box)
    return ctx.dense(_twist_sum(ctx.twist, ctx.sparse(x)))


def mutate_left(box: Box, projectors: list[KClass], x: KClass) -> KClass:
    """Gram-Schmidt x against a semiorthogonal sequence, last projector first.

    Every call rejects a projector list that is not Euler-unitriangular
    (`_Ctx.check_semiorthogonal`), and projects x as one level of
    `_project_levels`, which checks that the result is left-orthogonal to
    every projector.  Each call runs one whole transposed pass: batch many
    classes through one read of the projectors, as `residual_report` does.
    """
    ctx = _ctx(box)
    es = [ctx.sparse(e) for e in projectors]
    gram, pair = ctx.check_semiorthogonal(es)
    x = ctx.sparse(x)
    return ctx.dense(_project_levels(gram, pair, [[e] for e in es], [x], range(len(es))))


def is_zero_combination(box: Box, terms: list[tuple[int, TwistedSchur]]) -> bool:
    """Whether sum coef * [bundle] vanishes in K_0, by `_Ctx.vanishes`: the
    pairings against the basis determine a class, as G is unitriangular.  A
    deep bundle (normal form with t <= -2) pairs as row (a, -1) times T^s, so
    its combination is read in one transposed pass and folded through T once
    T passes `_Ctx.check_twist`.  Every bundle must live on the box and fit
    the pairing rows (`_Ctx.row`), whatever its coefficient, and T must pass
    the gate when a bundle is deep; otherwise ValueError."""
    for _, bundle in terms:
        if bundle.box != box:
            raise ValueError(f"bundle {bundle} lives on a different box")
    return _ctx(box).vanishes([(coef, e.weight, e.twist) for coef, e in terms])


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
        return all(v == (i == j) for i, row in enumerate(g) for j, v in enumerate(row))

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

    The projections rest on the twist identity (module docstring): ValueError
    names a full-first-row column of T that is not K-exact (`_Ctx.check_twist`);
    the residual Gram is one more read."""
    ctx = _ctx(box)
    shorts = [(orb.representative, orb.length) for orb in ctx.orbits if orb.length < box.n]
    sign_exponents = tuple(box.k * (box.n - box.k) // (box.n // o) for _, o in shorts)
    residual: list[dict[int, int]] = []
    tau_ok: list[bool] = []
    if shorts:  # no chain to read otherwise
        ctx.check_twist()
        block = [ctx.index[obj.bundle.weight] for obj in ctx.block]
        chain = [ctx.twisted_classes(ctx.weights[v], max(o for _, o in shorts)) for v in block]
        gram, pair = ctx.check_chain(block, chain)
        every = range(len(block))
    for (mu, o), sign_exp in zip(shorts, sign_exponents):
        inside = [p for p, v in enumerate(block) if mu.contains(ctx.diagrams[v])]
        xs = ctx.twisted_classes(mu.parts, o)
        fs = [_project_levels(gram, pair, chain, xs[: i + 1], inside) for i in range(o)]
        residual.extend(fs)
        sign = -1 if sign_exp % 2 else 1
        polarized = [
            _project_levels(gram, pair, chain, [_twist_sum(ctx.twist, x)], every) for x in fs
        ]
        tau_ok.append(polarized == fs[1:] + [{j: sign * v for j, v in fs[0].items()}])

    # chi(x_i, x_j) at (i, j); no read of no classes
    residual_gram = tuple(zip(*map(ctx.pairer(residual), residual))) if residual else ()
    return ResidualReport(
        box=box,
        short_diagrams=tuple(shorts),
        residual_classes=tuple(ctx.dense(x) for x in residual),
        residual_gram=residual_gram,
        tau_orbit_ok=tuple(tau_ok),
        sign_exponents=sign_exponents,
    )


def _project_levels(gram, pair, chain, xs: list[dict[int, int]], top) -> dict[int, int]:
    """The left projection of x = xs[i], i = len(xs) - 1, onto the checked
    chain[p][b] = T^b x_p of any level-0 classes x_p, given their Gram columns
    and pairer: all x_p at twists 0..i-1, then positions `top` at twist i;
    xs[d] = T^(d-i) x.  From a = i down to 0, with the c_(b,p) of b > a found,
    x - sum c_(b,p) T^b x_p pairs with T^a x_q as z = xs[i-a] -
    sum c_(b,p) T^(b-a) x_p does with x_q (module docstring), and `_solve`
    gives the c_(a,p): Gram-Schmidt, last projector first, as the projection
    is unique.  AssertionError unless z less the level's terms pairs to 0
    with it."""

    def drop(z: dict[int, int], cs: dict[int, int], d: int) -> None:  # z -= sum c_p T^d x_p
        for p, c in cs.items():
            for m, v in chain[p][d].items():
                z[m] = z.get(m, 0) - c * v

    found: list[tuple[int, dict[int, int]]] = []  # (b, {p: c_(b,p)})
    for a in range(len(xs) - 1, -1, -1):
        level = range(len(chain)) if found else top
        z = dict(xs[len(xs) - 1 - a])
        for b, cs in found:
            drop(z, cs, b - a)
        cs = _solve(gram, pair(z), level)
        drop(z, cs, 0)
        found.append((a, cs))
        r = pair(z)
        if any(r[p] for p in level):
            raise AssertionError("mutation lost orthogonality")
    return {m: v for m, v in z.items() if v}


def _solve(gram, r: list[int], level) -> dict[int, int]:
    """The nonzero c_p with sum_q chi(x_p, x_q) c_q = r[p], p and q in level,
    for unitriangular Gram columns gram[q][p] = chi(x_p, x_q): the one
    triangular solve, c_p = r[p] - sum_{q > p} chi(x_p, x_q) c_q, last p first."""
    cs: dict[int, int] = {}
    for p in reversed(level):
        if c := r[p] - sum(gram[q][p] * v for q, v in cs.items()):
            cs[p] = c
    return cs


def _pairer(rows: list[list[int]], bound: int):
    """z -> chi(x_q, z) for every class x_q of a read, from its rows, whose
    entries are at most `bound` in absolute value: one packed sum over the
    nonzeros of z at the width of S bound, S = sum |z|, split.  Each row is
    packed once per width, the widest kept, signed: each field biased by
    2^(B-1), as `_splitter` unbiases it, and the packed bias taken off."""
    count, packed = len(rows[0]), {}
    bits = size = half = bias = 0
    split = None

    def pair(z: dict[int, int]) -> list[int]:
        nonlocal bits, size, half, bias, split
        if len(z) == 1:  # one row, scaled: nothing to pack or split
            ((m, c),) = z.items()
            return [c * v for v in rows[m]]
        if (need := _width(sum(map(abs, z.values())) * bound)) > bits:
            bits, size, half, split = need, need // 8, 1 << need - 1, _splitter(need, count)
            bias = _bias(need, count)
            packed.clear()
        total = 0
        for m, c in z.items():
            if c:
                if (row := packed.get(m)) is None:
                    fields = [(v + half).to_bytes(size, "little") for v in rows[m]]
                    row = packed[m] = int.from_bytes(b"".join(fields), "little") - bias
                total += c * row
        return split(total)

    return pair


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix, the fallback of
    `_sparse_det` for the rows it deferred.  Overwrites and swaps the rows."""
    n = len(m)
    if n == 0:
        return 1
    sign = prev = 1
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

    In the order given, a row with a live entry p = +-1 pivots on the first
    one and clears its column from every other live row, whose entry there
    is a, by row -= (a p) pivot_row: exact, as 1/p = p.  A row without one
    is deferred, and the deferred rows times the unpivoted columns go to
    `_bareiss_det` at the end; the determinant is the product of the pivots
    and that remainder, times the sign of the row -> column permutation.
    With an odd modulus every entry, and the result, is a least absolute
    residue mod it; mod 3 those are -1, 0 and 1, so no row is deferred.
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


def fullness_determinant(box: Box) -> int:
    """det of the Fonarev classes in the Kapranov basis; |det| = 1 certifies
    that the collection spans K_0.  The classes T^i e_lam, kept by nothing
    else, are eliminated uncopied, in collection order (as the transpose, of
    the same determinant), exactly, sign included (module docstring)."""
    return _sparse_det(_ctx(box).fonarev_classes())


_SIGN_PRIME = 3


def _fullness_sign(box: Box) -> int:
    """det of the Fonarev classes mod 3, as -1, 0 or 1: the determinant
    only where the report's Gram and staircase verdicts give det^2 = 1
    (module docstring), and 0 there means those verdicts contradict each
    other."""
    return _sparse_det(_ctx(box).fonarev_classes(_SIGN_PRIME), _SIGN_PRIME)
