"""Property tests on random boxes G(k,n) with n <= 8.

Examples are derandomized, so every run draws the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from grex.bott import TwistedSchur, euler_char, ext_table
from grex.diagrams import Box
from grex.ktheory import class_of, euler_pairing, twist_class

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
