"""GL(k) weight arithmetic: twists, duals, Littlewood-Richardson products,
and the Weyl dimension formula in exact integer arithmetic.

Weights are plain weakly decreasing integer tuples; expansions are
dicts mapping weight tuples to positive multiplicities.
"""

from __future__ import annotations

__all__ = ["twist", "dualize", "lr_product", "dimension", "check_weight"]


def check_weight(w: tuple[int, ...]) -> tuple[int, ...]:
    w = tuple(w)
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise ValueError(f"weight is not weakly decreasing: {w}")
    return w


def twist(w: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Add t to every entry (tensoring by the t-th power of the determinant)."""
    return tuple(x + t for x in w)


def dualize(w: tuple[int, ...]) -> tuple[int, ...]:
    """Highest weight of the dual representation: (-w_k, ..., -w_1)."""
    return tuple(-x for x in reversed(w))


# Finished expansions of lr_product, keyed by its checked argument pair and
# already shifted back, so each distinct pair is expanded and re-twisted once.
# lr_product hands out copies, so callers never see or mutate a cached dict.
_LR_CACHE: dict[tuple, dict] = {}


def _lr_core(alpha: tuple[int, ...], beta: tuple[int, ...], k: int) -> dict:
    """LR expansion of two non-negative weights of length k.

    Enumerates chains of horizontal strips (one strip per entry of the
    content) subject to the lattice condition
      (# cells of entry e in rows <= r)  <=  (# cells of entry e-1 in rows <= r-1),
    which is the prefix condition on the reverse reading word.
    """
    if sum(beta) > sum(alpha):
        alpha, beta = beta, alpha
    out: dict[tuple[int, ...], int] = {}

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


def lr_product(a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Expansion of Sigma^a (x) Sigma^b into GL(k) irreducibles.

    Entries may be negative; both factors are shifted into non-negative range
    by determinant twists and every output is shifted back.
    """
    a, b = check_weight(a), check_weight(b)
    cached = _LR_CACHE.get((a, b))
    if cached is None:
        if len(a) != len(b):
            raise ValueError(f"weights of different lengths: {a} vs {b}")
        sa = -a[-1] if a[-1] < 0 else 0
        sb = -b[-1] if b[-1] < 0 else 0
        core = _lr_core(twist(a, sa), twist(b, sb), len(a))
        s = sa + sb
        cached = {twist(nu, -s): c for nu, c in core.items()} if s else core
        _LR_CACHE[(a, b)] = cached
    return dict(cached)


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
    for i in range(m):
        for j in range(i + 1, m):
            num *= full[i] - full[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r != 0:
        raise AssertionError(f"Weyl dimension of {w} for GL({m}) is not an integer")
    return q
