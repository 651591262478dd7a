"""GL(k) weight arithmetic: twists, duals, Littlewood-Richardson products,
and the Weyl dimension formula in exact integer arithmetic.

Weights are plain weakly decreasing integer tuples; expansions are
dicts mapping weight tuples to positive multiplicities.
"""

from __future__ import annotations

from operator import ge

__all__ = ["twist", "dualize", "lr_product", "lr_bounds", "dimension", "check_weight"]


def check_weight(w: tuple[int, ...]) -> tuple[int, ...]:
    w = tuple(w)
    if not all(map(ge, w, w[1:])):
        raise ValueError(f"weight is not weakly decreasing: {w}")
    return w


def twist(w: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Add t to every entry (tensoring by the t-th power of the determinant)."""
    return tuple(x + t for x in w)


def dualize(w: tuple[int, ...]) -> tuple[int, ...]:
    """Highest weight of the dual representation: (-w_k, ..., -w_1)."""
    return tuple(-x for x in reversed(w))


def _lr_core(
    alpha: tuple[int, ...], beta: tuple[int, ...], k: int, caps: tuple[int, ...] | None = None
) -> dict:
    """LR expansion of two non-negative weights of length k.

    Enumerates chains of horizontal strips (one strip per entry of the
    content) subject to the lattice condition
      (# cells of entry e in rows <= r)  <=  (# cells of entry e-1 in rows <= r-1),
    which is the prefix condition on the reverse reading word.

    With `caps`, only the terms nu with nu[r] <= caps[r] on every row are
    returned, each with its full multiplicity: rows only grow along a chain,
    so a chain is cut as soon as a row passes its cap.
    """
    if sum(beta) > sum(alpha):
        alpha, beta = beta, alpha
    out: dict[tuple[int, ...], int] = {}
    if caps is None:
        caps = (sum(alpha) + sum(beta),) * k
    elif any(x > c for x, c in zip(alpha, caps)):
        return out

    def add_level(level: int, shape: tuple[int, ...], prevcum: tuple[int, ...]):
        if level == k or beta[level] == 0:
            out[shape] = out.get(shape, 0) + 1
            return
        size = beta[level]
        acc = list(shape)
        newcum = [0] * (k + 1)

        def place(r: int, rem: int, cumcur: int):
            if r == k:
                if rem == 0:
                    add_level(level + 1, tuple(acc), tuple(newcum))
                return
            hi = caps[r] - shape[r]
            if rem < hi:
                hi = rem
            if r > 0:
                gap = shape[r - 1] - shape[r]
                if gap < hi:
                    hi = gap
            if level > 0:
                room = prevcum[r] - cumcur
                if room < hi:
                    hi = room
            base = shape[r]
            for a in range(hi, -1, -1):
                acc[r] = base + a
                newcum[r + 1] = cumcur + a
                place(r + 1, rem - a, cumcur + a)
            acc[r] = base

        # entries of this level sit in rows >= level
        newcum[: level + 1] = [0] * (level + 1)
        place(level, size, 0)

    add_level(0, alpha, (0,) * (k + 1))
    return out


def lr_product(
    a: tuple[int, ...], b: tuple[int, ...], caps: tuple[int, ...] | None = None
) -> dict[tuple[int, ...], int]:
    """Expansion of Sigma^a (x) Sigma^b into GL(k) irreducibles.

    Entries may be negative; both factors are shifted into non-negative range
    by determinant twists and every output is shifted back.  `caps`, off by
    default, keeps only the terms nu with nu[r] <= caps[r] (see `_lr_core`).
    """
    a, b = check_weight(a), check_weight(b)
    if len(a) != len(b):
        raise ValueError(f"weights of different lengths: {a} vs {b}")
    sa = -a[-1] if a[-1] < 0 else 0
    sb = -b[-1] if b[-1] < 0 else 0
    s = sa + sb
    if caps is not None:
        caps = twist(caps, s)
    core = _lr_core(twist(a, sa), twist(b, sb), len(a), caps)
    return {twist(nu, -s): c for nu, c in core.items()} if s else core


def lr_bounds(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Weyl's bounds (lower, upper) on the support of `lr_product(a, b)`.

    Every nu in it has lower[r] <= nu[r] <= upper[r] and |nu| = |a| + |b|, where

        upper[r] = min over i + j = r of a[i] + b[j],
        lower[r] = max over i + j = r + k - 1 of a[i] + b[j],

    indices from 0: Weyl's inequalities, a subset of Horn's (Fulton, Eigenvalues,
    invariant factors, highest weights, and Schubert calculus, Bull. AMS 37,
    2000).  Both bounds are weakly decreasing.
    """
    k = len(a)
    lower, upper = [], []
    for r in range(k):
        hi = a[0] + b[r]
        for i in range(1, r + 1):
            if a[i] + b[r - i] < hi:
                hi = a[i] + b[r - i]
        upper.append(hi)
        lo = a[r] + b[k - 1]
        for i in range(r + 1, k):
            if a[i] + b[r + k - 1 - i] > lo:
                lo = a[i] + b[r + k - 1 - i]
        lower.append(lo)
    return tuple(lower), tuple(upper)


def dimension(w: tuple[int, ...], m: int) -> int:
    """Weyl dimension of the GL(m) irreducible with highest weight w.

    Short weights are padded with zeros; padding a weight whose last entry is
    negative is rejected (twist it into range first).
    """
    w = check_weight(w)
    if m < len(w):
        raise ValueError(f"m={m} is smaller than the weight length {len(w)}")
    if m > len(w) and w and w[-1] < 0:
        raise ValueError("cannot zero-pad a weight with negative entries; twist first")
    full = list(w) + [0] * (m - len(w))
    num = 1
    den = 1
    end = 0  # past the run of entries equal to full[i]
    for i in range(m):
        if end <= i:
            end = i + 1
            while end < m and full[end] == full[i]:
                end += 1
        # a pair of equal entries gives (j - i) / (j - i): skip both products
        for j in range(end, m):
            num *= full[i] - full[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r != 0:
        raise AssertionError(f"Weyl dimension of {w} for GL({m}) is not an integer")
    return q
