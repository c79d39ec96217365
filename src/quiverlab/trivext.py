"""Trivial extension of an algebra by its linear dual.

TA = A + DA with DA square-zero, (a,f)(b,g) = (ab, a.g + f.b) where
(a.g)(x) = g(xa) and (f.b)(x) = f(bx). The dual of a basis element from
i to j lives from j to i; with A in degree 0 the dual of a degree-g
element sits in degree 1-g, so TA is graded with DA in degree 1.

TA inherits A's laws, so trivial_extension does not call
SCAlgebra.verify. DA is an A-bimodule because A is associative:
((a.g).b)(x) = g(bxa) = (a.(g.b))(x), and likewise for two elements of A
acting on one side. With that and DA*DA = 0, both groupings of a triple
(a,f)(b,g)(c,h) give (abc, ab.h + a.g.c + f.bc). A's idempotents act on
DA through the reversed endpoints, so they stay orthogonal and sum to
TA's unit, and the endpoints and degrees of the duals add as above. An
input that breaks a law of A passes it on unchecked: verify a hand-built
algebra before extending it.

The dual of the element labelled x is labelled x + s, with s the shortest
of ^*, ^**, ^***, ... that turns no label of A into another label of A.
One suffix for every dual keeps the labels distinct, so T(T(A)) can be
built too, and a base with no ^* label gets the labels x^*.
"""
from __future__ import annotations

from .scalgebra import BasisElement, Element, SCAlgebra


def trivial_extension(a: SCAlgebra) -> SCAlgebra:
    d = a.dim
    labels = {b.label for b in a.basis}
    suffix = "^*"
    while any(b.label + suffix in labels for b in a.basis):
        suffix += "*"
    basis = list(a.basis)
    for b in a.basis:
        basis.append(BasisElement(b.label + suffix, b.target, b.source, 1 - b.degree))
    mult: dict[tuple[int, int], Element] = {
        key: dict(row) for key, row in a.mult.items()
    }
    for (m, x), row in a.mult.items():
        # row expands b_m * b_x; it drives both dual actions:
        # b_x . dual(b_k) picks up dual(b_m), and dual(b_k) . b_m picks up dual(b_x)
        for k, c in row.items():
            mult.setdefault((x, d + k), {})[d + m] = c
            mult.setdefault((d + k, m), {})[d + x] = c
    return SCAlgebra(a.vertices, tuple(basis), a.idempotents, mult)
