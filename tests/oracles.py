"""Brute-force oracles, independent of the library's computation paths.

Characters are handled as explicit monomial sums (dicts exponent -> coeff),
products by convolution, and Schur expansion by repeated subtraction of the
leading term.  Slow and simple on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb

from grex.diagrams import Box


@cache
def ssyt_contents(shape: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the Schur polynomial s_shape(x_1..x_nvars):
    enumerate semistandard tableaux, accumulating content vectors.  Memoized,
    so the returned dict is shared: callers only read it."""
    rows = [r for r in shape if r > 0]
    if any(x < 0 for x in shape):
        raise ValueError("shape must be non-negative")
    if len(rows) > nvars:
        return {}
    cells = []
    for r, width in enumerate(rows):
        for c in range(width):
            cells.append((r, c))
    out: dict[tuple[int, ...], int] = {}
    if not cells:
        return {(0,) * nvars: 1}
    entries: dict[tuple[int, int], int] = {}
    content = [0] * (nvars + 1)

    def go(i: int):
        if i == len(cells):
            key = tuple(content[1:])
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = entries[(r, c - 1)]
        if r > 0:
            above = entries[(r - 1, c)]
            if above + 1 > lo:
                lo = above + 1
        for e in range(lo, nvars + 1):
            entries[(r, c)] = e
            content[e] += 1
            go(i + 1)
            content[e] -= 1
        entries.pop((r, c), None)

    go(0)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def expand_in_schur_basis(poly: dict, nvars: int) -> dict[tuple[int, ...], int]:
    """Write a symmetric polynomial (monomial dict) in the Schur basis by
    stripping the lexicographically leading monomial, which is always a
    partition for a symmetric polynomial."""
    poly = dict(poly)
    out: dict[tuple[int, ...], int] = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise AssertionError(f"leading monomial {lead} is not a partition")
        out[lead] = coeff
        for e, c in ssyt_contents(lead, nvars).items():
            key = tuple(e)
            v = poly.get(key, 0) - coeff * c
            if v:
                poly[key] = v
            else:
                poly.pop(key, None)
    return out


def lr_product_oracle(a: tuple[int, ...], b: tuple[int, ...]) -> dict:
    """Schur expansion of s_a * s_b by polynomial multiplication."""
    k = len(a)
    shift_a = -min(a[-1], 0)
    shift_b = -min(b[-1], 0)
    pa = ssyt_contents(tuple(x + shift_a for x in a), k)
    pb = ssyt_contents(tuple(x + shift_b for x in b), k)
    expansion = expand_in_schur_basis(poly_mul(pa, pb), k)
    s = shift_a + shift_b
    return {tuple(x - s for x in nu): c for nu, c in expansion.items()}


def dimension_oracle(w: tuple[int, ...], m: int) -> int:
    """Representation dimension as a count of semistandard tableaux."""
    shift = -min(w[-1], 0) if w else 0
    return sum(ssyt_contents(tuple(x + shift for x in w), m).values())


def jacobi_trudi_oracle(n: int, a: tuple[int, ...], lam: tuple[int, ...]) -> int:
    """s_{lam/a}(1^n) as det[h_{lam_i - a_j - i + j}(1^n)], one determinant by
    Gaussian elimination over the rationals with row swaps."""
    k = len(lam)
    m = [
        [Fraction(comb(n + d - 1, d)) if (d := lam[i] - a[j] - i + j) >= 0 else Fraction(0)
         for j in range(k)]
        for i in range(k)
    ]
    det = Fraction(1)
    for c in range(k):
        r = next((r for r in range(c, k) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, k):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    if det.denominator != 1:
        raise AssertionError(f"Jacobi-Trudi determinant {det} is not an integer")
    return int(det)


@cache
def gram_oracle(box: Box) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The box diagrams in lexicographic order and the Kapranov Gram matrix
    over them, chi(Sigma^a U*, Sigma^b U*) = s_{b/a}(1^n), one Jacobi-Trudi
    determinant per entry."""
    ws = sorted(
        tuple(reversed(c)) for c in combinations_with_replacement(range(box.n - box.k + 1), box.k)
    )
    return tuple(ws), tuple(tuple(jacobi_trudi_oracle(box.n, a, b) for b in ws) for a in ws)


def covector_oracle(box: Box, x: dict[int, int]) -> tuple[int, ...]:
    """x^T G for a class {basis index: coefficient}, on `gram_oracle`."""
    g = gram_oracle(box)[1]
    return tuple(sum(c * g[i][j] for i, c in x.items()) for j in range(len(g)))


def bott_oracle(box: Box, nu: tuple[int, ...]):
    """Cohomology of Sigma^nu U* by the generic dot action: pad nu with zeros
    to length n, add rho, test for a repeated entry, count inversions and
    sort.  Returns None (acyclic) or (degree, GL(n) weight); the dimension
    is `dimension_oracle` of that weight, a tableau count."""
    k, n = box.k, box.n
    gamma = [nu[i] + (n - 1 - i) for i in range(k)]
    gamma += [n - 1 - i for i in range(k, n)]
    if len(set(gamma)) < n:
        return None
    inv = sum(
        1 for i in range(n) for j in range(i + 1, n) if gamma[i] < gamma[j]
    )
    dom = sorted(gamma, reverse=True)
    return inv, tuple(dom[i] - (n - 1 - i) for i in range(n))


def word_period(box: Box, parts: tuple[int, ...]) -> int:
    """Orbit length of a diagram as the least period, under rotation, of its
    length-n boundary word (1 = horizontal step, 0 = vertical step, from
    bottom left to top right)."""
    word = []
    prev = 0
    for part in reversed(parts):
        word += [1] * (part - prev) + [0]
        prev = part
    word += [1] * (box.width - prev)
    n = box.n
    return next(r for r in range(1, n + 1) if n % r == 0 and word[r:] + word[:r] == word)


def ext_table_oracle(box: Box, a: tuple[int, ...], s: int, b: tuple[int, ...], t: int) -> dict[int, int]:
    """Ext^*(Sigma^a U*(s), Sigma^b U*(t)) from the monomial character of
    Sigma^dual(a) (x) Sigma^b: dot-straighten each monomial at the GL(k)
    level, then run the cohomology oracle on every dominant term."""
    k = len(a)
    # character of the dual representation: negate exponents of s_a
    ca = {tuple(-x for x in e): c for e, c in ssyt_contents(a, k).items()}
    shift_b = -min(b[-1], 0)
    cb = ssyt_contents(tuple(x + shift_b for x in b), k)
    prod = poly_mul(ca, cb)
    rho = tuple(k - 1 - i for i in range(k))
    dominant: dict[tuple[int, ...], int] = {}
    for e, c in prod.items():
        gamma = [e[i] + rho[i] for i in range(k)]
        if len(set(gamma)) < k:
            continue
        inv = sum(
            1 for i in range(k) for j in range(i + 1, k) if gamma[i] < gamma[j]
        )
        dom = sorted(gamma, reverse=True)
        nu = tuple(dom[i] - rho[i] for i in range(k))
        sign = -1 if inv % 2 else 1
        v = dominant.get(nu, 0) + sign * c
        if v:
            dominant[nu] = v
        else:
            dominant.pop(nu, None)
    table: dict[int, int] = {}
    twist = t - s - shift_b
    for nu, c in dominant.items():
        assert c > 0, "straightening must produce non-negative multiplicities"
        outcome = bott_oracle(box, tuple(x + twist for x in nu))
        if outcome is not None:
            deg, weight = outcome
            table[deg] = table.get(deg, 0) + c * dimension_oracle(weight, box.n)
    return {d: v for d, v in table.items() if v}


def residual_oracle(box: Box):
    """Residual classes, their Euler Gram matrix and tau-orbit verdicts on a
    dense route: each bundle's class by `class_of` (LR + Bott), the pairing
    x^T G y with G from `euler_char`, and Gram-Schmidt with the last projector
    first.  A class is kept as a formal combination {(weight, twist): coef} of
    bundles, so twisting it by O(1) raises every twist and needs no K_0 twist
    matrix."""
    from grex.bott import TwistedSchur, euler_char
    from grex.diagrams import enumerate_diagrams, orbit_length
    from grex.ktheory import class_of

    k, n = box.k, box.n
    ws = [d.parts for d in enumerate_diagrams(box, "all")]
    size = len(ws)
    g = [[euler_char(TwistedSchur(a, 0, box), TwistedSchur(b, 0, box)) for b in ws] for a in ws]
    bundle_classes: dict = {}

    def dense(combo: dict) -> list[int]:
        out = [0] * size
        for (w, t), coef in combo.items():
            if (w, t) not in bundle_classes:
                bundle_classes[(w, t)] = class_of(TwistedSchur(w, t, box))
            for i, v in enumerate(bundle_classes[(w, t)]):
                out[i] += coef * v
        return out

    def pair(x: list[int], y: list[int]) -> int:
        return sum(x[i] * g[i][j] * y[j] for i in range(size) for j in range(size))

    def mutate(projectors: list, combo: dict) -> dict:
        combo = dict(combo)
        for p in reversed(projectors):
            c = pair(dense({p: 1}), dense(combo))
            combo[p] = combo.get(p, 0) - c
        return combo

    minimal = enumerate_diagrams(box, "minimal_upper")
    block = [d for d in minimal if orbit_length(box, d.parts) == n]
    residual, tau_ok = [], []
    for mu in minimal:
        o = orbit_length(box, mu.parts)
        if o == n:
            continue
        fs = []
        for i in range(o):
            projectors = [(lam.parts, j) for j in range(i) for lam in block]
            projectors += [(lam.parts, i) for lam in block if mu.contains(lam)]
            fs.append(mutate(projectors, {(mu.parts, i): 1}))
        residual.extend(fs)
        sign = (-1) ** (k * (n - k) // (n // o))
        ends = [dense(f) for f in fs[1:]] + [[sign * v for v in dense(fs[0])]]
        primitive = [(lam.parts, 0) for lam in block]
        tau_ok.append(all(
            dense(mutate(primitive, {(w, t + 1): c for (w, t), c in f.items()})) == end
            for f, end in zip(fs, ends)
        ))
    classes = [dense(f) for f in residual]
    gram = tuple(tuple(pair(x, y) for y in classes) for x in classes)
    return tuple(tuple(c) for c in classes), gram, tuple(tau_ok)


def whole_chain_oracle(box: Box):
    """The residual report by the whole-chain route: one
    `_Ctx.check_semiorthogonal` read of all |block| * o_max chain classes
    T^b e_v, in level order, then each projection by `_Ctx.project`, last
    projector first, against the covectors of that read.  Returns the
    residual classes, their Gram matrix, the tau-orbit verdicts and every
    chain pairing chi(T^b e_v, T^a e_w) with b >= a, keyed (b, v, a, w) by
    twist and block position."""
    from grex.diagrams import BoxedDiagram
    from grex.ktheory import _ctx, _dot, _twist_sum

    ctx = _ctx(box)
    block = [obj.bundle.weight for obj in ctx.block]
    shorts = [(orb.representative, orb.length) for orb in ctx.orbits if orb.length < box.n]
    o_max = max((o for _, o in shorts), default=0)
    chain = [c for level in zip(*(ctx.twisted_classes(w, o_max) for w in block)) for c in level]
    covs = ctx.check_semiorthogonal(chain)[1]
    width = len(block)
    pairs = {
        (j // width, j % width, i // width, i % width): _dot(covs[j], chain[i])
        for j in range(len(chain))
        for i in range(len(chain))
        if j // width >= i // width
    }
    residual, tau_ok = [], []
    for mu, o in shorts:
        inside = [p for p, w in enumerate(block) if mu.contains(BoxedDiagram(w, box))]
        fs = []
        for i, x in enumerate(ctx.twisted_classes(mu.parts, o)):
            picks = [*range(i * width), *(i * width + p for p in inside)]
            fs.append(ctx.project([chain[q] for q in picks], [covs[q] for q in picks], x))
        residual.extend(fs)
        sign = (-1) ** (box.k * (box.n - box.k) // (box.n // o))
        polarized = [ctx.project(chain[:width], covs[:width], _twist_sum(ctx.twist, x)) for x in fs]
        tau_ok.append(polarized == fs[1:] + [{j: sign * v for j, v in fs[0].items()}])
    gram = tuple(tuple(_dot(c, y) for y in residual) for c in ctx.covector(residual))
    return tuple(ctx.dense(x) for x in residual), gram, tuple(tau_ok), pairs


def uncut_gram(objects, mode: str = "euler", violations_only: bool = False):
    """`lefschetz.gram` by the uncut route: the full `lr_product` of each
    weight pair read, then `bott` on every term at every offset read, with no
    Weyl skip and no region cut.  Ext depends only on (a, b, t-s), so each
    weight pair is expanded once and each such triple resolved once;
    everything else is per ordered pair."""
    from grex.bott import ExtTable, bott
    from grex.lefschetz import GramResult, Violation
    from grex.schur import dualize, lr_product

    bundles = [o.bundle for o in objects]
    exts: dict = {}
    expansions: dict = {}

    def ext(e, f):
        key = (e.weight, f.weight, f.twist - e.twist)
        if key not in exts:
            if key[:2] not in expansions:
                expansions[key[:2]] = lr_product(dualize(e.weight), f.weight)
            table: dict[int, int] = {}
            for nu, mult in expansions[key[:2]].items():
                out = bott(e.box, tuple(x + key[2] for x in nu))
                if out.dim:
                    table[out.degree] = table.get(out.degree, 0) + mult * out.dim
            exts[key] = ExtTable(table)
        return exts[key]

    entries = ()
    if not violations_only:
        entries = tuple(tuple(ext(e, f).euler() for f in bundles) for e in bundles)
    violations = []
    if mode == "full_ext":
        for i, e in enumerate(bundles):
            for j in range(i):
                table = ext(e, bundles[j])
                violations += [Violation(i, j, d, table[d]) for d in sorted(table.dims)]
            table = ext(e, e)
            violations += [
                Violation(i, i, d, table[d])
                for d in sorted(set(table.dims) | {0})
                if table[d] != (d == 0)
            ]
    return GramResult(entries=entries, violations=tuple(violations))


def signed_step(box: Box, parts: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """One step of the signed Z/n action: (sign, step(parts)), the sign
    (-1)^(n-k) on a full first row and 1 elsewhere.  Read from
    `diagrams._step` alone; mod p it is the column of T when p divides every
    C(n, c) with 0 < c < n, as for n = p^a."""
    from grex.diagrams import _step

    sign = (-1) ** box.width if parts[0] == box.width else 1
    return sign, _step(parts, box.width)


def signed_step_det(box: Box) -> int:
    """det S, where row (lam, i) of S, over the Fonarev objects in collection
    order, is (-1)^((n-k) f) e_{step^i lam}, f the full first rows among the
    first i steps: a signed permutation matrix, so its determinant is the
    product of the signs times the sign of the permutation."""
    from grex.diagrams import enumerate_diagrams
    from grex.lefschetz import fonarev

    index = {d.parts: i for i, d in enumerate(enumerate_diagrams(box, "all"))}
    det, perm = 1, []
    for obj in fonarev(box).objects:
        parts = obj.bundle.weight
        for _ in range(obj.bundle.twist):
            sign, parts = signed_step(box, parts)
            det *= sign
        perm.append(index[parts])
    if sorted(perm) != list(range(len(index))):
        return 0
    cycles, seen = 0, set()
    for i in range(len(perm)):  # a permutation with c cycles has sign (-1)^(N-c)
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return det * (-1) ** (len(perm) - cycles)
