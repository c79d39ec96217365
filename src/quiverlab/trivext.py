"""Trivial extension of an algebra by its linear dual.

TA = A + DA with DA square-zero, (a,f)(b,g) = (ab, a.g + f.b) where
(a.g)(x) = g(xa) and (f.b)(x) = f(bx). The dual of a basis element from
i to j lives from j to i; with A in degree 0 the dual of a degree-g
element sits in degree 1-g, so TA is graded with DA in degree 1.
"""
from __future__ import annotations

from fractions import Fraction

from .scalgebra import BasisElement, Element, SCAlgebra


def trivial_extension(a: SCAlgebra) -> SCAlgebra:
    d = a.dim
    basis = list(a.basis)
    for b in a.basis:
        basis.append(BasisElement(f"{b.label}^*", b.target, b.source, 1 - b.degree))
    mult: dict[tuple[int, int], Element] = {
        key: dict(row) for key, row in a.mult.items()
    }
    for (m, x), row in a.mult.items():
        # row expands b_m * b_x; it drives both dual actions:
        # b_x . dual(b_k) picks up dual(b_m), and dual(b_k) . b_m picks up dual(b_x)
        for k, c in row.items():
            mult.setdefault((x, d + k), {})[d + m] = c
            mult.setdefault((d + k, m), {})[d + x] = c
    ta = SCAlgebra(a.vertices, tuple(basis), a.idempotents, mult)
    ta.verify()
    return ta


def dual_pairing(ta: SCAlgebra, x: Element, y: Element) -> int | Fraction:
    """Symmetric form ((a,f),(b,g)) -> f(b) + g(a) on a trivial extension.

    Assumes the layout produced by trivial_extension: basis element d+k is
    dual to basis element k, where d is the dimension of the original algebra.
    """
    if ta.dim % 2:
        raise ValueError("not a trivial extension basis layout")
    d = ta.dim // 2
    total = 0
    for i, c in x.items():
        partner = i - d if i >= d else i + d
        other = y.get(partner)
        if other:
            total += c * other
    return total


def is_symmetric_form_associative(ta: SCAlgebra) -> bool:
    """Check <xy, z> = <x, yz> on all basis triples."""
    dim = ta.dim
    for i in range(dim):
        for j in range(dim):
            ij = ta.mult.get((i, j), {})
            for k in range(dim):
                jk = ta.mult.get((j, k), {})
                left = dual_pairing(ta, ij, {k: 1})
                right = dual_pairing(ta, {i: 1}, jk)
                if left != right:
                    return False
    return True
