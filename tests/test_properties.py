"""Property tests on random boxes G(k,n) with n <= 8, on random pairs of
weights and on random sparse integer matrices, and an exhaustive check, on
four boxes, that the Gram check skips only acyclic twists.

Examples are derandomized, so every run draws the same cases.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grex.bott import TwistedSchur, _row_spans, bott, euler_char, ext_table
from grex.diagrams import Box, enumerate_diagrams
from grex.ktheory import _bareiss_det, _ctx, _Ctx, _sparse_det, class_of, euler_pairing, twist_class
from grex.schur import dualize, lr_bounds, twist
from oracles import bott_oracle, dimension_oracle, jacobi_trudi_oracle, lr_product_oracle

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


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 8)])
def test_weyl_twists_drop_only_acyclic_twists(k, n):
    # wherever the row spans drop d for a pair (a, b) of diagrams, every
    # term of the oracle's a* (x) b is acyclic at d by the dot action
    box = Box(k, n)
    diagrams = [d.parts for d in enumerate_diagrams(box, "all")]
    # the oracle's expansion, once per unordered pair up to determinant twists
    expansions = {}
    for a in diagrams:
        for b in diagrams:
            alpha = dualize(a)
            spans = _row_spans(box, *lr_bounds(alpha, b), -n, n)
            kept = {d for first, last in spans for d in range(first, last + 1)}
            key = tuple(sorted((twist(alpha, -alpha[-1]), twist(b, -b[-1]))))
            if key not in expansions:
                expansions[key] = lr_product_oracle(*key)
            terms = [twist(nu, alpha[-1] + b[-1]) for nu in expansions[key]]
            for d in range(-n, n + 1):
                if d not in kept:
                    assert all(bott_oracle(box, twist(nu, d)) is None for nu in terms), (a, b, d)


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
    # S^(a+c)U*(t-c) is the same bundle, so it is the same stored row
    assert ctx.row(tuple(x + c for x in a), t - c) is row
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
