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

string_traces reads the trace of every simple over T(A) of a gentle A off
string modules, with no linear algebra: T(A) is symmetric special
biserial, so each syzygy of a simple is one string module, and its peaks
give the next.  trivext runs it on every gentle presentation with
relations; a relation-free job never loads this module.
"""
from __future__ import annotations

from functools import cache
from itertools import islice
from typing import TYPE_CHECKING

from .scalgebra import BasisElement, Element, SCAlgebra

if TYPE_CHECKING:
    from .betti import ResolutionTrace


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


def _arms(t: SCAlgebra) -> tuple[dict, list, list]:
    """The arms of every P(t) of t, certified: the arm of each arrow a as
    (vertex of each element, arrow into each element), the arrows that
    start the arms of each vertex, two with None for a missing one, and
    dim P(t) of each vertex."""
    pos = {v: p for p, v in enumerate(t.vertices)}
    idem = set(t.idempotents)
    basis, mult = t.basis, t.mult
    inner = set()  # the non-idempotents that lie in a product of two
    for (i, j), row in mult.items():
        if i not in idem and j not in idem:
            inner.update(row)
    leaving: list[list[int]] = [[] for _ in t.vertices]
    above: list[set[int]] = [set() for _ in t.vertices]  # P(t) minus e_t
    for m, b in enumerate(basis):
        if m not in idem:
            above[pos[b.source]].add(m)
            if m not in inner:
                leaving[pos[b.source]].append(m)
    arms: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for p, firsts in enumerate(leaving):
        name = t.vertices[p]
        if len(firsts) > 2:
            raise RuntimeError(f"P({name}) has more than two arms")
        met, socles = [], set()
        for a in firsts:
            x, elements, vertices, arrows = a, [], [], [a]
            while True:
                if x in elements:
                    raise RuntimeError(f"the arm of {basis[a].label} meets {basis[x].label} twice")
                elements.append(x)
                vertices.append(pos[basis[x].target])
                step = [b for b in leaving[vertices[-1]] if (b, x) in mult]
                if not step:
                    break
                if len(step) > 1 or len(mult[(step[0], x)]) > 1:
                    raise RuntimeError(f"{basis[x].label} has two continuations")
                (x,) = mult[(step[0], x)]
                arrows.append(step[0])
            met += elements[:-1]
            socles.add(x)
            arms[a] = (tuple(vertices), tuple(arrows))
        if len(socles) > 1 or any(basis[s].target != name for s in socles):
            raise RuntimeError(f"the arms of P({name}) end in no one socle element at {name}")
        met += socles
        if len(met) != len(above[p]) or set(met) != above[p]:
            raise RuntimeError(f"P({name}) minus e_{name} is not its arms, each met once")
    tops = [(*firsts, None, None)[:2] for firsts in leaving]
    return arms, tops, [len(rad) + 1 for rad in above]


def string_traces(
    t: SCAlgebra, steps: int = 40, dim_cap: int = 100000
) -> list[ResolutionTrace]:
    """Every simple's resolution trace over a symmetric special biserial t,
    in vertex order, read off string modules.

    t is T(A) of a gentle A here, a Brauer graph algebra (Schroll, J.
    Algebra 444, 2015); its arrows are the non-idempotent basis elements
    that lie in no product of two.  The arm of P(t) that starts with the
    arrow a keeps taking the one arrow whose product with the path so far
    is nonzero, until none is; t being symmetric, both arms of P(t) end
    in its socle, at t.  A string module is a list of peaks
    (left arm, l, right arm, r, top): the peak's top at a vertex t, and
    the first l and r elements of two arms of P(t), named by their first
    arrows, None for the missing arm of a uniserial P(t).  Neighbours share
    a valley: the last element of the left one's right prefix is the last
    of the right one's left prefix.  S_t is the one peak with both
    prefixes empty.

    Omega of a string (Butler and Ringel, Comm. Algebra 15, 1987) is a
    string with these peaks, in order:
    - the continuation of the left end below l of the first peak: its top
      one step further down, its right arm the rest of that arm down to the
      socle, and its left arm the other arm at its top, at prefix 0;
    - one peak per valley, at the valley's vertex, with the rest of the
      left peak's right arm and the rest of the right peak's left arm,
      each down to its socle;
    - the mirror continuation of the right end.
    A continuation that is only the socle is dropped when the piece on the
    other side of that socle is a peak, whose arm holds it; otherwise Omega
    is the simple at that socle.  dim P_n is the sum of dim P(top) over the
    peaks of Omega^n(S), and _betti_trace applies the engine's stop rules,
    so the bytes printed are the engine's.

    The walk certifies its premise and raises RuntimeError where it fails:
    P(t) minus e_t is exactly the basis elements of its arms, each met
    once, both arms end in one socle element, at t, and no element has two
    continuations.  Each syzygy's dimension is checked against the one its
    string has.
    """
    from .betti import _betti_trace

    arms, tops, proj = _arms(t)
    ids: dict[tuple, int] = {}  # each peak met, and its number
    peaks: list[tuple] = []
    sizes: list[int] = []  # each peak's dimension, 1 + l + r
    covers: list[int] = []  # dim P(top) of each peak

    def peak(x: int | None, l: int, y: int | None, r: int, top: int) -> int:
        key = (x, l, y, r, top)
        number = ids.get(key)
        if number is None:
            number = ids[key] = len(peaks)
            peaks.append(key)
            sizes.append(1 + l + r)
            covers.append(proj[top])
        return number

    def below(a: int, prefix: int) -> tuple[int, int | None, int]:
        """The rest of the arm a under its first prefix elements: its top's
        vertex, the arm that holds the rest under that top, and its length,
        None and 0 at a bare socle."""
        vertices, arrows = arms[a]
        rest = len(arrows) - prefix - 1
        return vertices[prefix], arrows[prefix + 1] if rest else None, rest

    def other(p: int, a: int) -> int | None:
        first, second = tops[p]
        return second if first == a else first

    @cache
    def valley(i: int, j: int) -> int:
        """The peak of Omega at the valley between the peaks i and j."""
        *_, y, r, _ = peaks[i]
        top, left, left_rest = below(y, r - 1)
        _, right, right_rest = below(peaks[j][0], peaks[j][1] - 1)
        return peak(left, left_rest, right, right_rest, top)

    def syzygy(string: list[int]) -> list[int]:
        (x, l, *_), (*_, y, r, _) = peaks[string[0]], peaks[string[-1]]
        out, bare = [], None
        if x is not None:
            top, arm, rest = below(x, l)
            if arm is None:
                bare = top
            else:
                out.append(peak(other(top, arm), 0, arm, rest, top))
        out += map(valley, string, islice(string, 1, None))
        if y is not None:
            top, arm, rest = below(y, r)
            if arm is None:
                bare = top
            else:
                out.append(peak(arm, rest, other(top, arm), 0, top))
        return out or [peak(tops[bare][0], 0, tops[bare][1], 0, bare)]

    def trace(p: int) -> ResolutionTrace:
        string = [peak(tops[p][0], 0, tops[p][1], 0, p)]

        def advance(dim: int) -> int:
            nonlocal string
            string = syzygy(string)
            if sum(map(sizes.__getitem__, string)) - len(string) + 1 != dim:
                raise RuntimeError("a syzygy's string has the wrong dimension")
            return sum(map(covers.__getitem__, string))

        return _betti_trace(proj[p], advance, steps, dim_cap)

    return [trace(p) for p in range(len(t.vertices))]

