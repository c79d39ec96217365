"""Finite-dimensional algebras presented by a labeled basis and a
multiplication table over the rationals.

Elements are sparse dicts {basis index: coefficient}, each coefficient in
the plain exact form of `echelon.plain`: an int when integral, a Fraction
otherwise.  Path, gentle and trivial-extension algebras therefore multiply
in Python ints.  The product x*y is read right to left: y acts first, so
nonzero products require the source vertex of x to equal the target vertex
of y.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .echelon import plain
from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction

    from .ratmat import RatMatrix

Element = dict[int, "int | Fraction"]
"""Sparse algebra element: basis index to a nonzero plain exact coefficient."""


class BasisElement(Record):
    label: str
    source: str
    target: str
    degree: int = 0


class SCAlgebra:
    """Associative unital algebra with a complete set of primitive
    orthogonal idempotents, one per vertex.

    mult maps (i, j) to the expansion of basis[i]*basis[j]; absent pairs
    multiply to zero. Instances are treated as immutable after construction.
    The constructor checks only that the table's indices are in range;
    verify() checks the algebra laws. The builders and trivial_extension
    satisfy the laws by construction and do not call it (see their
    modules), so an algebra built by hand should be verified before use.
    """

    __slots__ = ("vertices", "basis", "idempotents", "mult")

    def __init__(
        self,
        vertices: tuple[str, ...],
        basis: tuple[BasisElement, ...],
        idempotents: tuple[int, ...],
        mult: Mapping[tuple[int, int], Mapping[int, object]],
    ) -> None:
        self.vertices = tuple(vertices)
        self.basis = tuple(basis)
        self.idempotents = tuple(idempotents)
        dim = len(self.basis)
        if len(self.idempotents) != len(self.vertices):
            raise ValueError("need exactly one idempotent per vertex")
        if any(not (0 <= e < dim) for e in self.idempotents):
            raise ValueError("idempotent index out of range")
        table: dict[tuple[int, int], Element] = {}
        for (i, j), row in mult.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product key {(i, j)} out of range")
            clean: Element = {}
            for k, c in row.items():
                if not (0 <= k < dim):
                    raise ValueError(f"product of ({i},{j}) hits bad index {k}")
                f = plain(c)
                if f:
                    clean[k] = f
            if clean:
                table[(i, j)] = clean
        self.mult = table
        if len({b.label for b in self.basis}) != dim:
            raise ValueError("duplicate basis label")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def unit(self) -> Element:
        return {e: 1 for e in self.idempotents}

    def product(self, i: int, j: int) -> Element:
        return dict(self.mult.get((i, j), ()))

    def multiply(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for j, cy in y.items():
            for i, cx in x.items():
                row = self.mult.get((i, j))
                if not row:
                    continue
                f = cx * cy
                for k, c in row.items():
                    v = out.get(k, 0) + f * c
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
        return out

    def idempotent_index(self, vertex: str) -> int:
        return self.idempotents[self.vertices.index(vertex)]

    def verify(self) -> None:
        """Check every algebra law on the nose; raises ValueError on failure.

        Covered: idempotent laws, unit, source/target compatibility of the
        table, degree additivity, and associativity on all basis triples.
        Only the triples where the table lets a side be nonzero are
        multiplied out, so the cost follows the table, not dim^3.
        """
        basis = self.basis
        dim = len(basis)
        for v, e in zip(self.vertices, self.idempotents):
            b = basis[e]
            if b.source != v or b.target != v or b.degree != 0:
                raise ValueError(f"idempotent for {v!r} has wrong endpoints or degree")
        for a, ea in zip(self.vertices, self.idempotents):
            for b, eb in zip(self.vertices, self.idempotents):
                expected = {ea: 1} if a == b else {}
                if self.product(ea, eb) != expected:
                    raise ValueError(f"idempotents {a!r}, {b!r} violate orthogonality")
        for k, b in enumerate(basis):
            if self.product(self.idempotent_index(b.target), k) != {k: 1}:
                raise ValueError(f"left unit law fails on {b.label!r}")
            if self.product(k, self.idempotent_index(b.source)) != {k: 1}:
                raise ValueError(f"right unit law fails on {b.label!r}")
        for (i, j), row in self.mult.items():
            bi, bj = basis[i], basis[j]
            if bi.source != bj.target:
                raise ValueError(
                    f"nonzero product {bi.label!r}*{bj.label!r} of non-composable pair")
            for k in row:
                bk = basis[k]
                if bk.source != bj.source or bk.target != bi.target:
                    raise ValueError(
                        f"product {bi.label!r}*{bj.label!r} leaves its Hom space")
                if bk.degree != bi.degree + bj.degree:
                    raise ValueError(
                        f"product {bi.label!r}*{bj.label!r} breaks degree additivity")
        # a triple can only fail where a side can be nonzero: some m in
        # b_i*b_j has b_m*b_k in the table, or some l in b_j*b_k has b_i*b_l
        # there; each i's triples go in sorted (j, k) order, so the first
        # failure is the one a scan of all triples would report
        mult = self.mult
        right_of: list[list[int]] = [[] for _ in range(dim)]
        producers: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
        for (j, k), row in mult.items():
            right_of[j].append(k)
            for l in row:
                producers[l].append((j, k))
        for i in range(dim):
            triples: set[tuple[int, int]] = set()
            for l in right_of[i]:
                # (b_i*b_l)*b_k with k to the right of some m in b_i*b_l
                for m in mult[(i, l)]:
                    triples.update((l, k) for k in right_of[m])
                # b_i*(b_j*b_k) with l in b_j*b_k
                triples.update(producers[l])
            for j, k in sorted(triples):
                left = self.multiply(mult.get((i, j), {}), {k: 1})
                right = self.multiply({i: 1}, mult.get((j, k), {}))
                if left != right:
                    raise ValueError(
                        f"associativity fails on "
                        f"({basis[i].label!r}, {basis[j].label!r}, {basis[k].label!r})")


def cartan_matrix(a: SCAlgebra) -> RatMatrix:
    """C[j][i] = number of basis elements from vertex i to vertex j."""
    from .ratmat import RatMatrix

    index = {v: k for k, v in enumerate(a.vertices)}
    n = len(a.vertices)
    counts = [[0] * n for _ in range(n)]
    for b in a.basis:
        counts[index[b.target]][index[b.source]] += 1
    return RatMatrix(counts)
