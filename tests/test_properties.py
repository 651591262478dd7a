"""Property tests on random boxes G(k,n) with n <= 8, on random pairs of
weights, on random object lists and on random sparse integer matrices, and
an exhaustive check, on four boxes, that the Gram check skips only acyclic
twists and cuts only acyclic terms.

Examples are derandomized, so every run draws the same cases.
"""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grex.bott import (
    TwistedSchur,
    _region_caps,
    _row_spans,
    _spans_may_live,
    bott,
    euler_char,
    ext_table,
)
from grex.diagrams import Box, BoxedDiagram, enumerate_diagrams
from grex.lefschetz import CollectionObject, GramResult, gram
from grex.ktheory import (
    _bareiss_det,
    _codec,
    _ctx,
    _Ctx,
    _sparse_det,
    class_of,
    euler_pairing,
    is_zero_combination,
    twist_class,
)
from grex.staircase import build_staircase
from grex.schur import dualize, lr_bounds, lr_product, twist
from oracles import (
    bott_oracle,
    covector_oracle,
    dimension_oracle,
    gram_oracle,
    jacobi_trudi_oracle,
    lr_product_oracle,
    uncut_gram,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def boxes():
    return st.sampled_from([Box(k, n) for n in range(2, 9) for k in range(1, n)])


def bundles(box):
    """Sigma^w U*(t) with w a diagram of the box and -3 <= t <= 3."""
    weights = st.lists(st.integers(0, box.width), min_size=box.k, max_size=box.k)
    return st.builds(
        lambda w, t: TwistedSchur(tuple(sorted(w, reverse=True)), t, box),
        weights,
        st.integers(-3, 3),
    )


@st.composite
def bundle_pairs(draw):
    box = draw(boxes())
    return draw(bundles(box)), draw(bundles(box))


@PROPERTY
@given(bundle_pairs())
def test_serre_duality(pair):
    # Ext^i(E, F) = Ext^{dim - i}(F, E (x) omega)^*, omega = O(-n)
    e, f = pair
    box = e.box
    lhs = ext_table(e, f)
    rhs = ext_table(f, TwistedSchur(e.weight, e.twist - box.n, box))
    assert all(lhs[i] == rhs[box.dimension - i] for i in range(box.dimension + 1))


@PROPERTY
@given(bundle_pairs())
def test_euler_pairing_of_classes(pair):
    e, f = pair
    assert euler_pairing(e.box, class_of(e), class_of(f)) == euler_char(e, f)


@PROPERTY
@given(boxes().flatmap(bundles))
def test_twist_against_generic_route(e):
    box = e.box
    twisted = TwistedSchur(e.weight, e.twist + 1, box)
    assert twist_class(box, class_of(e)) == class_of(twisted)


@st.composite
def weights(draw):
    """A box and a weakly decreasing weight with entries in [-2n, 2n]."""
    box = draw(boxes())
    nu = draw(st.lists(st.integers(-2 * box.n, 2 * box.n), min_size=box.k, max_size=box.k))
    return box, tuple(sorted(nu, reverse=True))


@settings(PROPERTY, max_examples=500)
@given(weights())
def test_bott_against_dot_action(case):
    # the closed form against the generic dot action; dimensions by tableau
    # count only for weights of at most 6 boxes once shifted to end in 0
    box, nu = case
    out = bott(box, nu)
    want = bott_oracle(box, nu)
    if want is None:
        assert out.acyclic
        return
    degree, weight = want
    assert (out.degree, out.gln_weight) == (degree, weight)
    if sum(weight) - box.n * weight[-1] <= 6:
        assert out.dim == dimension_oracle(weight, box.n)


@st.composite
def twist_ranges(draw):
    """A weight of `weights()` and a twist range [lo, hi], possibly empty,
    wide enough to reach past every acyclicity interval of such weights."""
    box, nu = draw(weights())
    lo = draw(st.integers(-4 * box.n, 3 * box.n))
    return box, nu, lo, lo + draw(st.integers(-1, 4 * box.n))


@settings(PROPERTY, max_examples=300)
@given(twist_ranges())
def test_cohomological_twists_against_dot_action(case):
    # on the one-weight box lower = upper = nu the row spans are exact and
    # ascending: read in order of j, they list exactly the twists the dot
    # action calls non-acyclic, each once
    box, nu, lo, hi = case
    want = [d for d in range(lo, hi + 1) if bott_oracle(box, twist(nu, d)) is not None]
    spans = _row_spans(box, nu, nu, lo, hi)
    assert [d for first, last in spans for d in range(first, last + 1)] == want


@st.composite
def weight_pairs(draw):
    """Two weakly decreasing weights of one length k <= 4, entries in [-2, 2]."""
    k = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    return tuple(sorted(draw(entries), reverse=True)), tuple(sorted(draw(entries), reverse=True))


@settings(PROPERTY, max_examples=150)
@given(weight_pairs())
def test_lr_bounds_hold_on_the_oracle_expansion(pair):
    # Weyl's inequalities against the expansion by polynomial multiplication
    alpha, beta = pair
    lower, upper = lr_bounds(alpha, beta)
    for nu in lr_product_oracle(alpha, beta):
        assert sum(nu) == sum(alpha) + sum(beta)
        assert all(lo <= x <= hi for lo, x, hi in zip(lower, nu, upper)), nu


@settings(PROPERTY, max_examples=150)
@given(weight_pairs(), st.data())
def test_capped_lr_product_against_the_oracle(pair, data):
    # the cut core keeps exactly the oracle's terms under the caps, with
    # their multiplicities
    alpha, beta = pair
    caps = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=len(alpha), max_size=len(alpha))))
    want = {
        nu: c
        for nu, c in lr_product_oracle(alpha, beta).items()
        if all(x <= cap for x, cap in zip(nu, caps))
    }
    assert lr_product(alpha, beta, caps) == want


@st.composite
def span_cases(draw):
    """A box with k <= 6 and n <= k+9, two weakly decreasing weights of
    length k with entries in [-2, n-k], and a twist range lo <= hi in
    [-n, 2n].  Near the box, about one pair in ten has every span empty."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 1, k + 9))
    entries = st.lists(st.integers(-2, n - k), min_size=k, max_size=k)
    a = tuple(sorted(draw(entries), reverse=True))
    b = tuple(sorted(draw(entries), reverse=True))
    lo = draw(st.integers(-n, n))
    return Box(k, n), a, b, lo, lo + draw(st.integers(0, n))


@settings(PROPERTY, max_examples=1000)
@given(span_cases())
def test_single_term_test_rejects_only_dead_pairs(case):
    # a pair that single Weyl terms reject has every row span of its Weyl
    # bounds empty; spans 0 and k are decided exactly, by max d and min d
    box, a, b, lo, hi = case
    spans = _row_spans(box, *lr_bounds(dualize(a), b), lo, hi)
    live = [first <= last for first, last in spans]
    if not _spans_may_live(box, a, b, lo, hi):
        assert not any(live)
    d = [y - x for x, y in zip(a, b)]
    assert live[0] == (max(d) <= -box.n - lo)
    assert live[-1] == (min(d) >= -hi)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 8)])
def test_weyl_twists_drop_only_acyclic_twists(k, n):
    # wherever a term of the oracle's a* (x) b, for a pair (a, b) of
    # diagrams, is not acyclic at d by the dot action, d lies in the row span
    # of its index j, and the term lies under the caps of the region (d, j):
    # so a twist outside every span, and a term outside every live region
    # of a twist, are acyclic there
    box = Box(k, n)
    diagrams = [d.parts for d in enumerate_diagrams(box, "all")]
    # the oracle's expansion, once per unordered pair up to determinant
    # twists, and its cohomology, once per twisted weight
    expansions = {}
    cohomology = {}
    for a in diagrams:
        for b in diagrams:
            alpha = dualize(a)
            lower, upper = lr_bounds(alpha, b)
            spans = _row_spans(box, lower, upper, -n, n)
            key = tuple(sorted((twist(alpha, -alpha[-1]), twist(b, -b[-1]))))
            if key not in expansions:
                expansions[key] = lr_product_oracle(*key)
            terms = [twist(nu, alpha[-1] + b[-1]) for nu in expansions[key]]
            regions = {}
            for d in range(-n, n + 1):
                for nu in terms:
                    weight = twist(nu, d)
                    if weight not in cohomology:
                        cohomology[weight] = bott_oracle(box, weight)
                    if (out := cohomology[weight]) is None:
                        continue
                    j = k - out[0] // box.width
                    first, last = spans[j]
                    assert first <= d <= last, (a, b, d)
                    if (d, j) not in regions:
                        size = sum(alpha) + sum(b)
                        regions[d, j] = _region_caps(box, lower, upper, size, d, j)
                    caps = regions[d, j]
                    assert caps is not None, (a, b, d, j)
                    assert all(x <= cap for x, cap in zip(nu, caps)), (a, b, d, nu)


@st.composite
def object_lists(draw):
    """A box with n <= 7 and one to eight objects Sigma^w U*(t) on it, w a
    diagram of the box and -n <= t <= n, up to two of them repeated, in any
    order.  Twists on both sides of 0 make pairs live only in span 0 or
    span k, and offset ranges with hi > 0, which Fonarev orders never reach."""
    box = draw(st.sampled_from([Box(k, n) for n in range(2, 8) for k in range(1, n)]))
    weights = st.lists(st.integers(0, box.width), min_size=box.k, max_size=box.k)
    objects = st.builds(
        lambda w, t: CollectionObject(TwistedSchur(tuple(sorted(w, reverse=True)), t, box), 0),
        weights,
        st.integers(-box.n, box.n),
    )
    distinct = draw(st.lists(objects, min_size=1, max_size=6))
    repeated = draw(st.lists(st.sampled_from(distinct), max_size=2))
    return draw(st.permutations(distinct + repeated))


@settings(PROPERTY, max_examples=150)
@given(object_lists())
def test_gram_against_uncut_route(objects):
    full = uncut_gram(objects, "full_ext")
    assert gram(objects, mode="full_ext") == full
    assert gram(objects, mode="euler") == GramResult(entries=full.entries, violations=())
    lower = gram(objects, mode="full_ext", violations_only=True)
    assert lower == GramResult(entries=(), violations=full.violations)


@st.composite
def rows(draw):
    """A box, a diagram a of it, a twist -3 <= t <= (n-k) - a_0, so that
    a + t fits the box, and a determinant shift -2 <= c <= 2."""
    box = draw(boxes())
    a = tuple(sorted(draw(st.lists(st.integers(0, box.width), min_size=box.k, max_size=box.k)),
                     reverse=True))
    return box, a, draw(st.integers(-3, box.width - a[0])), draw(st.integers(-2, 2))


@PROPERTY
@given(rows())
def test_pairing_row_against_jacobi_trudi(case):
    # every entry is one Jacobi-Trudi determinant for t <= 0, and chi by
    # LR + Bott for t > 0, positive exactly on the kappa with a inside kappa - t
    box, a, t, c = case
    ctx = _ctx(box)
    row = ctx.row(a, t)
    # S^(a+c)U*(t-c) is the same bundle, so it is the same row
    assert ctx.row(tuple(x + c for x in a), t - c) == row
    # the least kappa containing a + t starts the row, which is zero before it
    lo = ctx.index[tuple(max(x + t, 0) for x in a)]
    assert not any(row[:lo]) and row[lo] > 0
    for kappa, got in zip(ctx.weights, row, strict=True):
        lam = tuple(x - t for x in kappa)
        if t > 0:
            assert got == euler_char(TwistedSchur(a, t, box), TwistedSchur(kappa, 0, box))
        else:
            assert got == jacobi_trudi_oracle(box.n, a, lam), (kappa, got)
        assert (got > 0) == all(x <= y for x, y in zip(a, lam)), (kappa, got)


@st.composite
def twisted_rows(draw):
    """A box, a diagram a of it and a twist -4 <= t <= -1."""
    box = draw(boxes())
    a = draw(st.sampled_from([d.parts for d in enumerate_diagrams(box, "all")]))
    return box, a, draw(st.integers(-4, -1))


@PROPERTY
@given(twisted_rows())
def test_twisted_row_from_an_empty_store(case):
    # a fresh context: the row of (a, t) is one column of one transposed
    # pass, or for a normal form (a', t') with t' <= -2 the row (a', -1) of
    # that pass times T^(-1-t')
    box, a, t = case
    ctx = _Ctx(box)
    for kappa, got in zip(ctx.weights, ctx.row(a, t), strict=True):
        assert got == jacobi_trudi_oracle(box.n, a, tuple(x - t for x in kappa)), (kappa, got)


@st.composite
def table_rows(draw):
    """A box with k <= 5 and n <= 10, a diagram a of it and a twist
    -4 <= t <= 2 with a_0 + t <= n-k."""
    box = draw(st.sampled_from([Box(k, n) for n in range(2, 11) for k in range(1, min(n, 6))]))
    a = draw(st.sampled_from([d.parts for d in enumerate_diagrams(box, "all")]))
    return box, a, draw(st.integers(-4, min(2, box.width - a[0])))


@PROPERTY
@given(table_rows())
@example((Box(1, 6), (2,), -1))
@example((Box(1, 7), (0,), 2))
@example((Box(5, 10), (2, 2, 1, 1, 1), -2))
def test_table_rows_against_jacobi_trudi(case):
    # every entry against one Jacobi-Trudi determinant over the rationals;
    # with t > 0 the determinant of lam = kappa - t is 0 unless lam contains a
    box, a, t = case
    ctx = _Ctx(box)
    row = ctx.row(a, t)
    for kappa, got in zip(ctx.weights, row, strict=True):
        assert got == jacobi_trudi_oracle(box.n, a, tuple(x - t for x in kappa)), (kappa, got)
    # a table row, of the source a + t + 1, sums to its R(sigma), and each
    # entry is at most its column sum C(kappa)
    if t + a[-1] >= -1:
        assert sum(row) == ctx.rowsums[ctx.sources[tuple(x + t + 1 for x in a)]]
        assert all(v <= c for v, c in zip(row, ctx.colsums, strict=True))


@st.composite
def combinations(draw):
    """A box, a combination of bundles Sigma^w U*(t), w a diagram of the box
    and -4 <= t <= 1 with w_0 + t <= n-k, coefficients up to 2^200 in size,
    and its negation split differently: each coefficient in two parts, each
    on the bundle with its weight shifted by -2..2 and its twist back, plus
    a multiple of the staircase of a diagram with a full first row, in a
    drawn order."""
    box = draw(boxes())
    diagrams = [d.parts for d in enumerate_diagrams(box, "all")]
    coefs = st.one_of(st.integers(-3, 3), st.integers(-(1 << 200), 1 << 200))
    terms, negation = [], []
    for _ in range(draw(st.integers(1, 6))):
        w = draw(st.sampled_from(diagrams))
        t = draw(st.integers(-4, min(1, box.width - w[0])))
        c, part = draw(coefs), draw(coefs)
        terms.append((c, TwistedSchur(w, t, box)))
        for p in (part, c - part):
            m = draw(st.integers(-2, 2))
            negation.append((-p, TwistedSchur(tuple(x + m for x in w), t - m, box)))
    lam = draw(st.sampled_from([w for w in diagrams if w[0] == box.width]))
    s = draw(coefs)
    sc = build_staircase(box, BoxedDiagram(lam, box))
    negation += [(s * c, TwistedSchur(w, t, box)) for c, w, t in sc.k_class_terms()]
    return box, terms, draw(st.permutations(negation))


@lru_cache(maxsize=None)
def oracle_row(box, w, t):
    """chi(Sigma^w U*(t), Sigma^kappa U*) for every basis kappa, each one
    Jacobi-Trudi determinant of s_{(kappa - t)/w}(1^n) by the oracle."""
    return tuple(jacobi_trudi_oracle(box.n, w, tuple(x - t for x in d.parts))
                 for d in enumerate_diagrams(box, "all"))


def dense_sum(box, combo):
    """sum coef * oracle row over the terms, each row keyed by its weight
    shifted to end in 0, as a skew shape is translation invariant."""
    total = [0] * len(oracle_row(box, (0,) * box.k, 0))
    for c, e in combo:
        row = oracle_row(box, tuple(x - e.weight[-1] for x in e.weight), e.twist + e.weight[-1])
        total = [x + c * y for x, y in zip(total, row)]
    return total


@PROPERTY
@given(combinations())
@example((Box(1, 2), [(2**100 + i, TwistedSchur((1,), 0, Box(1, 2))) for i in range(20)],
          [(-(20 * 2**100 + 190), TwistedSchur((1,), 0, Box(1, 2)))]))
def test_zero_combination_against_dense_rows(case):
    # the combination, the combination plus its negation (zero), and that
    # with one coefficient moved by 1 (nonzero), against the dense oracle
    # rows; the example's 20 copies of one row, far past cap, are one
    # column of one transposed pass, whose one field needs no split
    box, terms, negation = case
    zero = terms + negation
    nonzero = [(zero[0][0] + 1, zero[0][1]), *zero[1:]]
    assert not any(dense_sum(box, zero)) and any(dense_sum(box, nonzero))
    for combo in (terms, zero, nonzero):
        assert is_zero_combination(box, combo) == (not any(dense_sum(box, combo)))


@st.composite
def relation_batches(draw):
    """A box and a batch of 1 to 6 relations of table rows (w_{k-1} + t >= -1):
    the staircase of a diagram with a full first row times -1, 0, 1 or a
    factor that puts its sum |coef| far past the table's cap, plus up to
    three terms and their negations on shifted weights, in a drawn order,
    and in about half of them one coefficient moved by 1."""
    box = draw(boxes())
    diagrams = [d.parts for d in enumerate_diagrams(box, "all")]
    full = [BoxedDiagram(w, box) for w in diagrams if w[0] == box.width]
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        s = draw(st.sampled_from([-1, 0, 1, 2**200 + 1, -(2**300)]))
        sc = build_staircase(box, draw(st.sampled_from(full)))
        terms = [(s * c, w, t) for c, w, t in sc.k_class_terms()]
        for _ in range(draw(st.integers(0, 3))):
            w = draw(st.sampled_from(diagrams))
            t = draw(st.integers(-1 - w[-1], box.width - w[0]))
            c, m = draw(st.integers(-3, 3)), draw(st.integers(-2, 2))
            terms += [(c, w, t), (-c, tuple(x + m for x in w), t - m)]
        terms = draw(st.permutations(terms))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(terms) - 1))
            c, w, t = terms[i]
            terms[i] = (c + draw(st.sampled_from([-1, 1])), w, t)
        batch.append(terms)
    return box, batch


def _big_staircases():
    """G(2,4): the staircase of (2,1) times 2^300, once as it is and once
    with its head moved by 1, beside the staircase itself."""
    box = Box(2, 4)
    terms = build_staircase(box, BoxedDiagram((2, 1), box)).k_class_terms()
    big = [(c << 300, w, t) for c, w, t in terms]
    return box, [big, [(big[0][0] + 1, *big[0][1:]), *big[1:]], terms]


@PROPERTY
@given(relation_batches())
@example(_big_staircases())
def test_vanish_batch_against_dense_rows(case):
    # each verdict of the one transposed pass against the dense oracle rows
    # and against the per-call route, relation by relation, within the
    # table's cap or far past it: a nonzero field neither hides nor spills
    # into its neighbours
    box, batch = case
    oracle = [
        not any(dense_sum(box, [(c, TwistedSchur(w, t, box)) for c, w, t in r])) for r in batch
    ]
    ctx = _ctx(box)
    columns = [ctx.levels(r)[0] for r in batch]  # table rows: level 0 alone
    assert all(len(levels) == 1 for levels in columns)
    assert ctx.vanish_batch([levels[0] for levels in columns]) == oracle
    assert [ctx.vanishes(r) for r in batch] == oracle


@st.composite
def table_sums(draw):
    """A box with n <= 10 and a combination of table rows within the
    table's cap: the staircase of a diagram with a full first row with +-1
    planted on one term, the sign that keeps it within cap, or up to six
    terms whose coefficients share cap, some beside their negation on a
    shifted weight."""
    box = draw(st.sampled_from([Box(k, n) for n in range(2, 11) for k in range(1, n)]))
    cap = _ctx(box).cap
    diagrams = [d.parts for d in enumerate_diagrams(box, "all")]
    if draw(st.booleans()):
        full = [BoxedDiagram(w, box) for w in diagrams if w[0] == box.width]
        terms = list(build_staircase(box, draw(st.sampled_from(full))).k_class_terms())
        i = draw(st.integers(0, len(terms) - 1))
        c, w, t = terms[i]
        d = draw(st.sampled_from([-1, 1]))
        if sum(abs(v) for v, _, _ in terms) - abs(c) + abs(c + d) > cap:
            d = -d
        terms[i] = (c + d, w, t)
        return box, terms
    count = draw(st.integers(1, 6))
    terms = []
    for _ in range(count):
        w = draw(st.sampled_from(diagrams))
        t = draw(st.integers(-1 - w[-1], box.width - w[0]))
        c = draw(st.integers(-(cap // (2 * count)), cap // (2 * count)))
        terms.append((c, w, t))
        if draw(st.booleans()):
            m = draw(st.integers(-w[-1], 2))
            terms.append((-c, tuple(x + m for x in w), t - m))
    return box, draw(st.permutations(terms))


def _one_field(box, pick):
    """The basis combination whose pairings are v e_kappa, for the field
    kappa of the table that `pick` (min or max) takes by its column sum, so
    its width, and the largest v within cap: the dual class of kappa,
    solved on the oracle's Gram matrix, times v."""
    ctx = _ctx(box)
    kappa = pick(range(len(ctx.colsums)), key=ctx.colsums.__getitem__)
    ws, g = gram_oracle(box)
    x = []
    for j in range(len(ws)):
        x.append((j == kappa) - sum(x[m] * g[m][j] for m in range(j)))
    v = ctx.cap // sum(map(abs, x))
    assert v >= 1
    return box, [(v * c, w, 0) for c, w in zip(x, ws) if c]


@PROPERTY
@given(table_sums())
@example(_one_field(Box(1, 4), min))
@example(_one_field(Box(2, 10), max))
def test_table_sums_against_the_transposed_read(case):
    # the fast path of `_Ctx.vanishes`, one packed sum of table rows at
    # per-column widths, against the transposed read of the same level 0:
    # a planted +-1 is never hidden, and no field spills into its
    # neighbours, the narrowest and the widest alike
    box, terms = case
    ctx = _ctx(box)
    levels, weight = ctx.levels(terms)
    assert len(levels) == 1 and weight <= ctx.cap
    assert ctx.vanishes(terms) == (not any(ctx.pairings(levels)))


@st.composite
def class_batches(draw):
    """A box and a batch of 1 to 6 classes {basis index: coefficient}: zero
    classes, classes with small coefficients, and classes whose sum |coef|
    is far past the table's cap, in a drawn order."""
    box = draw(boxes())
    top = len(enumerate_diagrams(box, "all")) - 1
    small, huge = st.integers(-3, 3), st.integers(-(2**300), 2**300)
    classes = st.one_of(
        st.just({}),
        st.dictionaries(st.integers(0, top), small, max_size=6),
        st.dictionaries(st.integers(0, top), st.one_of(small, huge), min_size=1, max_size=6),
    )
    batch = draw(st.lists(classes, min_size=1, max_size=6))
    return box, [{i: c for i, c in x.items() if c} for x in batch]


@PROPERTY
@given(class_batches())
@example((Box(3, 6), [{}, {0: 2**300, 19: -1}, {5: 1}, {}, {5: -(2**200), 0: 3}]))
@example((Box(2, 4), []))
def test_covector_batch_against_oracle(case):
    # one batched read, at the batch's own width, against x^T G on the
    # oracle's Gram matrix, class by class, in the order given; the
    # leading-term guard passes on every honest read, and the read's rows
    # are the transpose, one field per class at every basis kappa
    box, batch = case
    ctx = _ctx(box)
    oracle = [covector_oracle(box, x) for x in batch]
    assert ctx.weights == gram_oracle(box)[0]
    assert ctx.covector(batch) == oracle
    assert ctx.read(batch)[0] == [[c[kappa] for c in oracle] for kappa in range(len(ctx.weights))]


@st.composite
def packed_sums(draw):
    """A width B in {8, 16, 24, 64}, a field count from 0 to 6, one list of
    fields below 2^(B-1) in size, and a signed sum of up to four such lists
    whose every field stays below 2^(B-1): each field below 2^(B-1) / S, S
    the sum |coef| of the sum."""
    bits, count = draw(st.sampled_from([8, 16, 24, 64])), draw(st.integers(0, 6))
    top = (1 << bits - 1) - 1
    coefs = draw(st.lists(st.integers(-3, 3), max_size=4))
    small = top // max(1, sum(map(abs, coefs)))

    def fields(bound):
        return st.lists(st.integers(-bound, bound), min_size=count, max_size=count)

    return bits, count, draw(fields(top)), [(c, draw(fields(small))) for c in coefs]


def _edges(bits, count):
    """Fields at +-(2^(B-1) - 1), packed alone and reached by a sum."""
    vs = [(-1) ** q * ((1 << bits - 1) - 1) for q in range(count)]
    return bits, count, vs, [(-1, vs), (2, vs)]


@PROPERTY
@given(packed_sums())
@example(_edges(8, 6))
@example(_edges(16, 2))
@example(_edges(24, 5))
@example(_edges(64, 3))
@example((8, 1, [1 << 100], [(3, [-(1 << 200)]), (-1, [1 << 90])]))
def test_codec_splits_what_it_packs(case):
    # split(pack(vs)) == vs, and a signed sum of packed ints whose fields
    # stay below 2^(B-1) splits to the sum of their fields, none borrowing
    # from its neighbour; one field is its own int, at any size
    bits, count, vs, terms = case
    pack, split = _codec(bits, count)
    assert split(pack(vs)) == vs
    total = [sum(c * v[q] for c, v in terms) for q in range(count)]
    assert split(sum(c * pack(v) for c, v in terms)) == total


@st.composite
def sparse_matrices(draw):
    """Square matrices up to 7 x 7, mostly zero, some entries not +-1."""
    n = draw(st.integers(0, 7))
    entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(PROPERTY, max_examples=300)
@given(sparse_matrices())
def test_sparse_det_against_bareiss(m):
    rows = [{j: v for j, v in enumerate(row) if v} for row in m]
    assert _sparse_det(rows) == _bareiss_det([list(row) for row in m])


@settings(PROPERTY, max_examples=300)
@given(sparse_matrices())
def test_sparse_det_mod_3_against_bareiss(m):
    rows = [{j: r for j, v in enumerate(row) if (r := (v + 1) % 3 - 1)} for row in m]
    assert _sparse_det(rows, 3) == (_bareiss_det([list(row) for row in m]) + 1) % 3 - 1
