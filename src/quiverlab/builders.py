"""Builders for path algebras, gentle algebras, and canonical algebras.

One construction over the paths of a quiver serves all three: path
algebras take every path, gentle algebras leave out the paths through a
length-2 monomial relation, and canonical algebras take the paths of the
two-pole star quiver with each extra full arm rewritten through the first
two. Path labels concatenate arrow ids right to left, so "ba" is a
followed by b.

The tables satisfy the algebra laws by construction, so no builder calls
SCAlgebra.verify; the tests run it on every builder's output. The product
of two basis paths is their concatenation, or zero where the junction is
a length-2 relation. A triple of paths concatenates to the same path in
either grouping, and either grouping is zero exactly when one of its two
junctions is a relation, so the table is associative. The trivial paths
are orthogonal idempotents summing to the unit, and endpoints and degrees
add along a concatenation. Rewrites keep all of this under the
precondition in _monomial_algebra.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .quiver import Arrow, Quiver, acyclic_order, has_oriented_cycle, quiver_from_data
from .record import Record, read_json
from .scalgebra import BasisElement, Element, SCAlgebra

if TYPE_CHECKING:
    from fractions import Fraction

    from .serre import CanonicalSpec

Chain = tuple[str, ...]
"""A path as its arrow ids in application order; () stands for a trivial path."""


def _monomial_algebra(q: Quiver, relations: set[tuple[str, str]],
                      rewrites: dict[Chain, dict[Chain, int | Fraction]]) -> SCAlgebra:
    """Basis = paths of q with no relation (first, second) as a subpath,
    less the paths that rewrites maps to combinations of basis paths.

    A product that lands on a rewritten path is written as its
    combination. The table is associative when every rewritten path, and
    every path in its combination, runs from the rewritten path's source, a
    vertex with no incoming arrow, to its target, a vertex with no outgoing
    arrow, as canonical's full arms do: then a rewritten path is never a
    factor of a basis path, and a product with a path of a combination is
    zero unless the other factor is an idempotent, in either grouping.
    Degrees stay additive when the paths of each combination have the
    rewritten path's degree. The caller guarantees that there are finitely
    many paths.
    """
    arrows = {a.id: a for a in q.arrows}
    allowed = {a.id: [b.id for b in q.arrows
                      if b.source == a.target and (a.id, b.id) not in relations]
               for a in q.arrows}
    # paths as (source vertex, arrow ids in application order), grown by length
    paths: list[tuple[str, Chain]] = [(v, ()) for v in q.vertices]
    level = [(a.source, (a.id,)) for a in q.arrows]
    while level:
        paths.extend(level)
        level = [(source, chain + (b,)) for source, chain in level
                 for b in allowed[chain[-1]]]
    paths = [path for path in paths if path[1] not in rewrites]
    basis = []
    index: dict[Chain, int] = {}
    trivial: dict[str, int] = {}
    by_source: dict[str, list[tuple[int, Chain]]] = {v: [] for v in q.vertices}
    for k, (source, chain) in enumerate(paths):
        if chain:
            basis.append(BasisElement("".join(reversed(chain)), source,
                                      arrows[chain[-1]].target,
                                      sum(arrows[x].degree for x in chain)))
            index[chain] = k
        else:
            basis.append(BasisElement(f"e{source}", source, source, 0))
            trivial[source] = k
        by_source[source].append((k, chain))
    rewritten = {chain: {index[p]: c for p, c in combination.items()}
                 for chain, combination in rewrites.items()}
    mult: dict[tuple[int, int], Element] = {}
    for j, (src_y, ay) in enumerate(paths):
        for i, ax in by_source[basis[j].target]:
            if ay and ax and (ay[-1], ax[0]) in relations:
                continue
            combined = ay + ax
            if not combined:
                mult[(i, j)] = {trivial[src_y]: 1}
            elif combined in index:
                mult[(i, j)] = {index[combined]: 1}
            else:
                mult[(i, j)] = rewritten[combined]
    return SCAlgebra(q.vertices, tuple(basis), tuple(trivial[v] for v in q.vertices), mult)


def path_algebra(q: Quiver) -> SCAlgebra:
    """Path algebra of an acyclic quiver; basis = all paths."""
    acyclic_order(q)  # refuses an oriented cycle
    return _monomial_algebra(q, set(), {})


class GentlePresentation(Record):
    """Quiver plus length-2 monomial relations (first applied, second applied).

    Validates the gentle axioms: at most two arrows in and out of each
    vertex, and for each arrow at most one relational and at most one
    non-relational continuation on either side.
    """

    quiver: Quiver
    relations: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        arrows = {a.id: a for a in self.quiver.arrows}
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("duplicate relation")
        for first, second in self.relations:
            if first not in arrows or second not in arrows:
                raise ValueError(f"relation ({first!r}, {second!r}) names an unknown arrow")
            if arrows[first].target != arrows[second].source:
                raise ValueError(f"relation ({first!r}, {second!r}) is not composable")
        for v in self.quiver.vertices:
            if sum(1 for a in self.quiver.arrows if a.source == v) > 2:
                raise ValueError(f"more than two arrows out of vertex {v!r}")
            if sum(1 for a in self.quiver.arrows if a.target == v) > 2:
                raise ValueError(f"more than two arrows into vertex {v!r}")
        rel = set(self.relations)
        for a in arrows.values():
            succ = [b for b in arrows.values() if b.source == a.target]
            if sum(1 for b in succ if (a.id, b.id) in rel) > 1:
                raise ValueError(f"arrow {a.id!r} has two relational continuations")
            if sum(1 for b in succ if (a.id, b.id) not in rel) > 1:
                raise ValueError(f"arrow {a.id!r} has two plain continuations")
            pred = [b for b in arrows.values() if b.target == a.source]
            if sum(1 for b in pred if (b.id, a.id) in rel) > 1:
                raise ValueError(f"arrow {a.id!r} has two relational predecessors")
            if sum(1 for b in pred if (b.id, a.id) not in rel) > 1:
                raise ValueError(f"arrow {a.id!r} has two plain predecessors")


def gentle_algebra(pres: GentlePresentation) -> SCAlgebra:
    """Gentle algebra; basis = paths avoiding every relation."""
    q = pres.quiver
    rel = set(pres.relations)
    # the continuation graph must be acyclic, else relation-free paths
    # grow without bound
    comp = Quiver(tuple(a.id for a in q.arrows) or ("?",),
                  tuple(Arrow(f"{a.id}->{b.id}", a.id, b.id)
                        for a in q.arrows for b in q.arrows
                        if b.source == a.target and (a.id, b.id) not in rel))
    if has_oriented_cycle(comp):
        raise ValueError("presentation is infinite-dimensional: some cycle avoids every relation")
    return _monomial_algebra(q, rel, {})


def parse_gentle(document: str) -> GentlePresentation:
    """Parse a quiver JSON document with an optional "relations" list.

    A malformed one is a "malformed quiver document", as trivext, which
    cannot tell a gentle document apart before decoding it, calls it.
    """
    return gentle_from_data(read_json(document, "quiver document"))


def gentle_from_data(data: object) -> GentlePresentation:
    """The gentle presentation of a decoded document, as parse_gentle reads it."""
    q = quiver_from_data(data)
    raw = data.get("relations", [])
    if not isinstance(raw, list):
        raise ValueError("'relations' must be a list of arrow id pairs")
    relations = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"relation must be a pair of arrow ids, got {entry!r}")
        relations.append((str(entry[0]), str(entry[1])))
    return GentlePresentation(q, tuple(relations))


def canonical_algebra(spec: CanonicalSpec) -> SCAlgebra:
    """Canonical algebra: the path algebra of the two-pole star quiver
    modulo the canonical relations.

    Vertices are 0, the arm interiors i_j, and inf. Arm i's k-th arrow runs
    from stop k - 1 to stop k and has id x{i}_{p_i-k+1}, so the full arm
    reads x{i}_1 .. x{i}_{p_i}, right to left, from 0 to inf. The t - 2
    relations leave the full paths a two-dimensional space: the full arm-1
    and arm-2 paths are basis elements, and for i >= 3 the full arm-i path
    rewrites to (arm 2) - lambda_i * (arm 1).
    """
    vertices = ["0"]
    arrows = []
    arms = []
    for i, p in enumerate(spec.weights, start=1):
        stops = ["0", *(f"{i}_{k}" for k in range(1, p)), "inf"]
        vertices.extend(stops[1:-1])
        arm = tuple(f"x{i}_{p - k + 1}" for k in range(1, p + 1))
        arrows.extend(Arrow(x, stops[k], stops[k + 1]) for k, x in enumerate(arm))
        arms.append(arm)
    vertices.append("inf")
    rewrites = {arm: {arms[1]: 1, arms[0]: -lam}
                for arm, lam in zip(arms[2:], spec.lambdas)}
    return _monomial_algebra(Quiver(tuple(vertices), tuple(arrows)), set(), rewrites)
