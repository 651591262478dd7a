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

from grex.bott import TwistedSchur, _region_caps, _row_spans, bott, euler_char, ext_table
from grex.diagrams import Box, BoxedDiagram, enumerate_diagrams
from grex.lefschetz import CollectionObject, GramResult, gram
from grex.ktheory import (
    _bareiss_det,
    _ctx,
    _Ctx,
    _sparse_det,
    _vanish_batch,
    _vanishes,
    class_of,
    euler_pairing,
    is_zero_combination,
    twist_class,
)
from grex.staircase import build_staircase
from grex.schur import dualize, lr_bounds, lr_product, twist
from oracles import (
    bott_oracle,
    dimension_oracle,
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
    """A box with n <= 7 and one to eight objects Sigma^w U*(t) on it, in any
    order, repeats allowed."""
    box = draw(st.sampled_from([Box(k, n) for n in range(2, 8) for k in range(1, n)]))
    bundle_list = draw(st.lists(bundles(box), min_size=1, max_size=8))
    return [CollectionObject(e, 0) for e in bundle_list]


@settings(PROPERTY, max_examples=80)
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
    # a fresh context: the row of (a, t) is read from a table built for it,
    # or made by determinants for a normal form with t <= -2
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
    # a table row is at most M, and the first field width holds 2^n times M
    if t + a[-1] >= -1:
        assert max(row) <= ctx.bound and ctx.bound << box.n < 1 << ctx.bits - 1


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
    # rows; the example's 20 copies of one row, far past cap, end only
    # because the terms are merged by row before the digit levels
    box, terms, negation = case
    zero = terms + negation
    nonzero = [(zero[0][0] + 1, zero[0][1]), *zero[1:]]
    assert not any(dense_sum(box, zero)) and any(dense_sum(box, nonzero))
    for combo in (terms, zero, nonzero):
        assert is_zero_combination(box, combo) == (not any(dense_sum(box, combo)))


@st.composite
def relation_batches(draw):
    """A box and a batch of 1 to 6 relations of table rows (w_{k-1} + t >= -1):
    the staircase of a diagram with a full first row times -1, 0 or 1, plus
    up to three terms and their negations on shifted weights, in a drawn
    order, and in about half of them one coefficient moved by 1."""
    box = draw(boxes())
    diagrams = [d.parts for d in enumerate_diagrams(box, "all")]
    full = [BoxedDiagram(w, box) for w in diagrams if w[0] == box.width]
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        s = draw(st.integers(-1, 1))
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


@PROPERTY
@given(relation_batches())
def test_vanish_batch_against_dense_rows(case):
    # each verdict of the one transposed pass against the dense oracle rows
    # and against the table route, relation by relation: a nonzero field
    # neither hides nor spills into its neighbours
    box, batch = case
    assert all(sum(abs(c) for c, _, _ in r) <= _ctx(box).cap for r in batch)
    oracle = [
        not any(dense_sum(box, [(c, TwistedSchur(w, t, box)) for c, w, t in r])) for r in batch
    ]
    assert _vanish_batch(box, batch) == oracle
    assert [_vanishes(box, r) for r in batch] == oracle


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
