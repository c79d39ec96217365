"""Exact vectors and the package's one sparse echelon.

An exact number is kept in its plain form: an int when integral, a Fraction
only where a denominator appears.  TrackedEchelon grows an echelon basis of
sparse vectors, scaling between ints rather than dividing, so the syzygies
and tops of the resolution engine and the Krylov blocks behind the
characteristic and minimal polynomials stay in ints when their inputs are
integral.  `fractions` is imported only where a denominator can appear: by
plain on an input that is neither an int nor a Fraction, and by insert when
a relation's scale does not divide it exactly.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Vector = tuple["int | Fraction", ...]
"""Exact vector: each entry an int when integral, else a Fraction."""


def plain(value) -> int | Fraction:
    """value as an exact number: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if getattr(value, "denominator", None) == 1:  # a bool or an integral Fraction
        return value.numerator
    from fractions import Fraction

    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def vector(values: Iterable) -> Vector:
    return tuple(map(plain, values))


def l1_norm(vec: Sequence) -> int | Fraction:
    return sum(v if v >= 0 else -v for v in vec)


UNTRACKED = (1, None)
"""The entry of a one-term row that carries no expression."""


class TrackedEchelon:
    """Sparse echelon basis that can report how an inserted vector reduced.

    Vectors and expressions are sparse dicts.  The expression, usually a
    unit dict naming the input, is reduced alongside its vector, so a vector
    that vanishes yields the exact relation among the inputs.  Each stored
    row is keyed by its largest coordinate, its lead, and never re-reduced:
    reducing a vector's lead by the row stored there only brings in smaller
    coordinates.  Rows are not divided by their lead; between ints a step
    scales the vector instead, so integral inputs keep int rows.

    pivots maps each lead to its entry, in the order the entries were made;
    there are as many as the rank.  An entry is a row (vec, expr), both
    dicts or expr None, or a one-term entry: (c, u) for the row c*e_lead
    whose expression is exactly {u: 1}, or UNTRACKED for a one-term row
    with no expression.  The reduction stores every such row in its
    one-term form and reads an entry as the row it stands for; no other
    module reads or writes the entries.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, tuple] = {}

    def insert(self, vec: dict, expr: dict):
        """Reduce vec; return the expression if it vanished, else keep it.

        The returned relation has coefficient 1 on the inserted expression
        and is supported on earlier independent inputs; its values are in
        plain form.  A vector kept as c*e_k with the expression {u: 1} is
        stored as the entry (c, u).  Consumes both arguments: vec and expr
        are mutated in place and may be stored as a pivot row, so callers
        pass fresh dicts.
        """
        scale = self._reduce(vec, expr)
        if scale is None:
            return None
        if all(type(v) is int and not v % scale for v in expr.values()):
            return expr if scale == 1 else {k: v // scale for k, v in expr.items()}
        from fractions import Fraction

        return {k: plain(Fraction(v, scale)) for k, v in expr.items()}

    def add(self, vec: dict) -> bool:
        """Insert without tracking; True when vec enlarged the span.

        No expression is kept or reduced.  Rows stored here carry none, so
        a tracked echelon, one whose relations are read, grows by insert
        alone.
        """
        return self._reduce(vec, None) is None

    def _reduce(self, vec: dict, expr: dict | None):
        """The reduction behind insert and add, expr reduced alongside vec
        unless it is None.

        Stores vec, and returns None, when it is independent of the rows:
        a one-term c*e_k as (c, u) when expr is exactly {u: 1} and as
        UNTRACKED when expr is None, any other vec as (vec, expr).
        Otherwise returns the factor the ints were scaled by.
        """
        pivots = self.pivots
        scale = 1
        while vec:
            lead = max(vec)
            row = pivots.get(lead)
            if row is None:
                if len(vec) == 1 and expr is None:
                    pivots[lead] = UNTRACKED
                elif len(vec) == 1 and len(expr) == 1 and 1 in expr.values():
                    pivots[lead] = (vec[lead], *expr)
                else:
                    pivots[lead] = (vec, expr)
                return None
            pvec, pexpr = row
            one = type(pvec) is not dict
            if one and (pexpr is None or expr is None):
                del vec[lead]  # subtracting a one-term row leaves nothing to track
                continue
            val, plead = vec[lead], pvec if one else pvec[lead]
            if plead == 1:
                c = val
            elif plead == -1:
                c = -val
            elif type(val) is int and type(plead) is int:
                # vec <- f*vec - c*row with f*val == c*plead
                g = math.gcd(val, plead)
                f, c = plead // g, val // g
                if f < 0:
                    f, c = -f, -c
                if f != 1:
                    scale *= f
                    for k in vec:
                        vec[k] *= f
                    if expr is not None:
                        for k in expr:
                            expr[k] *= f
            else:
                c = val / plead
            if one:
                del vec[lead]
                s = expr.get(pexpr, 0) - c
                if s:
                    expr[pexpr] = s
                else:
                    del expr[pexpr]
                continue
            for k, pv in pvec.items():
                s = vec.get(k, 0) - c * pv
                if s:
                    vec[k] = s
                else:
                    del vec[k]
            if pexpr and expr is not None:
                for k, pv in pexpr.items():
                    s = expr.get(k, 0) - c * pv
                    if s:
                        expr[k] = s
                    else:
                        del expr[k]
        return scale

    def rank(self) -> int:
        """The number of leads, the dimension of the span."""
        return len(self.pivots)

    def untrack(self) -> None:
        """Drop every row's expression.  Relations that later inserts return
        then hold modulo the span so far and name later inputs alone."""
        self.pivots = {lead: (vec, None) if type(vec) is dict and len(vec) > 1 else UNTRACKED
                       for lead, (vec, _) in self.pivots.items()}
