"""Kapranov and Fonarev collections, the primitive block and its fenced
subblocks, and Gram/semiorthogonality verification.

Fonarev's collection takes the minimal upper triangular diagrams and repeats
each one at twists 0 .. o(lambda)-1; the support partition is the conjugate
of the orbit-length multiset.  Verification in `gram` is data, not control
flow: violations are collected and returned, never raised.

`gram` rests on the invariance

    Ext^*(Sigma^a U*(s), Sigma^b U*(t)) = H^*(Sigma^{a*} (x) Sigma^b (x) O(t-s)),

which depends only on the triple (a, b, t-s).  Fonarev's collection repeats
each weight at many twists, so `gram` computes one Ext table per distinct
triple (1300 tables for the 7385 ordered pairs of G(4,8)) and reads every
pair from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .bott import TwistedSchur, ext_table
from .diagrams import Box, BoxedDiagram, enumerate_diagrams, orbit_length

__all__ = [
    "CollectionObject",
    "GramResult",
    "LefschetzCollection",
    "Violation",
    "fenced_block",
    "fonarev",
    "gram",
    "kapranov",
    "primitive_block",
]


@dataclass(frozen=True)
class CollectionObject:
    bundle: TwistedSchur
    block_index: int

    def to_json(self) -> dict:
        return self.bundle.to_json()


@dataclass(frozen=True)
class LefschetzCollection:
    objects: tuple[CollectionObject, ...]
    support_partition: tuple[int, ...]
    box: Box

    def __post_init__(self):
        if sum(self.support_partition) != len(self.objects):
            raise ValueError("support partition does not sum to the object count")
        if any(
            self.support_partition[i] < self.support_partition[i + 1]
            for i in range(len(self.support_partition) - 1)
        ):
            raise ValueError("support partition must be non-increasing")

    def blocks(self) -> list[list[CollectionObject]]:
        out: list[list[CollectionObject]] = [[] for _ in self.support_partition]
        for obj in self.objects:
            out[obj.block_index].append(obj)
        return out

    def to_json(self) -> dict:
        return {
            "box": self.box.to_json(),
            "support_partition": list(self.support_partition),
            "blocks": [[o.to_json() for o in blk] for blk in self.blocks()],
        }


def kapranov(box: Box) -> LefschetzCollection:
    """All Sigma^lam U* for lam in the box, untwisted, in lexicographic order."""
    objs = tuple(
        CollectionObject(TwistedSchur(d.parts, 0, box), 0)
        for d in enumerate_diagrams(box, "all")
    )
    return LefschetzCollection(objs, (len(objs),), box)


def fonarev(box: Box) -> LefschetzCollection:
    """Sigma^lam U*(i) for minimal upper triangular lam and 0 <= i < o(lam),
    ordered by twist block and lexicographically inside each block."""
    minimal = enumerate_diagrams(box, "minimal_upper")
    lengths = [orbit_length(box, d.parts) for d in minimal]
    objs = []
    support = []
    for i in range(box.n):
        block = [
            CollectionObject(TwistedSchur(d.parts, i, box), i)
            for d, o in zip(minimal, lengths)
            if i < o
        ]
        if block:
            support.append(len(block))
            objs.extend(block)
    return LefschetzCollection(tuple(objs), tuple(support), box)


def primitive_block(box: Box) -> tuple[CollectionObject, ...]:
    """The full-orbit minimal upper triangular bundles at twist 0."""
    return tuple(
        CollectionObject(TwistedSchur(d.parts, 0, box), 0)
        for d in enumerate_diagrams(box, "minimal_upper")
        if orbit_length(box, d.parts) == box.n
    )


def fenced_block(
    box: Box, mu: BoxedDiagram, side: Literal["plus", "minus"]
) -> tuple[CollectionObject, ...]:
    """Members of the primitive block containing mu (plus) or contained in mu (minus)."""
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    from .diagrams import is_minimal_upper_triangular

    if not is_minimal_upper_triangular(mu) or orbit_length(box, mu.parts) == box.n:
        raise ValueError(f"{mu} is not a short minimal upper triangular diagram")
    out = []
    for obj in primitive_block(box):
        lam = BoxedDiagram(obj.bundle.weight, box)
        keep = lam.contains(mu) if side == "plus" else mu.contains(lam)
        if keep:
            out.append(obj)
    return tuple(out)


@dataclass(frozen=True)
class Violation:
    """A non-vanishing Ext that semiorthogonality forbids."""

    i: int
    j: int
    degree: int
    dim: int

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "degree": self.degree, "dim": self.dim}


@dataclass(frozen=True)
class GramResult:
    entries: tuple[tuple[int, ...], ...]
    ordering: tuple[CollectionObject, ...]
    violations: tuple[Violation, ...]
    mode: str

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "entries": [list(r) for r in self.entries],
            "violations": [v.to_json() for v in self.violations],
        }


def gram(
    objects: tuple[CollectionObject, ...] | list[CollectionObject],
    mode: str = "euler",
    jobs: int = 1,
) -> GramResult:
    """Euler pairing matrix of an ordered collection.

    In full_ext mode every pair below the diagonal is checked degree by
    degree and the diagonal must be exactly Hom = k; each failure becomes a
    Violation.  Ext^*(Sigma^a U*(s), Sigma^b U*(t)) depends only on
    (a, b, t-s), so one Ext table is computed per distinct triple and every
    pair with that triple reads it.  `jobs` is accepted and ignored.
    """
    if mode not in ("euler", "full_ext"):
        raise ValueError(f"mode must be 'euler' or 'full_ext', got {mode!r}")
    objects = tuple(objects)
    bundles = [o.bundle for o in objects]
    box = bundles[0].box if bundles else None
    if any(e.box != box for e in bundles):
        raise ValueError("bundles live on different boxes")
    keys = [[(e.weight, f.weight, f.twist - e.twist) for f in bundles] for e in bundles]
    table = {
        (a, b, t): ext_table(TwistedSchur(a, 0, box), TwistedSchur(b, t, box))
        for a, b, t in dict.fromkeys(key for row in keys for key in row)
    }
    chi = {key: t.euler() for key, t in table.items()}
    entries = tuple(tuple(chi[key] for key in row) for row in keys)
    violations: list[Violation] = []
    if mode == "full_ext":
        for i, row in enumerate(keys):
            for j in range(i):
                dims = table[row[j]].dims
                for d in sorted(dims):
                    violations.append(Violation(i, j, d, dims[d]))
            hom = table[row[i]]
            for d in sorted(set(hom.dims) | {0}):
                if hom[d] != (d == 0):
                    violations.append(Violation(i, i, d, hom[d]))
    return GramResult(
        entries=entries,
        ordering=objects,
        violations=tuple(violations),
        mode=mode,
    )
