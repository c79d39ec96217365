"""Builders for path algebras, gentle algebras, and canonical algebras.

All three produce verified SCAlgebra values over the rationals. Path
labels concatenate arrow ids right to left, so "ba" is a followed by b.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .quiver import Arrow, Quiver, has_oriented_cycle, quiver_from_data
from .ratmat import vector
from .record import Record
from .scalgebra import BasisElement, Element, SCAlgebra


def _path_label(arrows: tuple[Arrow, ...]) -> str:
    return "".join(a.id for a in reversed(arrows))


def _monomial_algebra(q: Quiver, relations: set[tuple[str, str]]) -> SCAlgebra:
    """Basis = paths of q with no relation (first, second) as a subpath.

    The caller guarantees that there are finitely many such paths.
    """
    allowed = {a.id: [b for b in q.arrows
                      if b.source == a.target and (a.id, b.id) not in relations]
               for a in q.arrows}
    # paths as (source vertex, arrows in application order), grown by length
    paths: list[tuple[str, tuple[Arrow, ...]]] = [(v, ()) for v in q.vertices]
    level = [(a.source, (a,)) for a in q.arrows]
    while level:
        paths.extend(level)
        level = [(source, chain + (b,)) for source, chain in level
                 for b in allowed[chain[-1].id]]
    basis = []
    index: dict[tuple[Arrow, ...], int] = {}
    trivial: dict[str, int] = {}
    for k, (source, chain) in enumerate(paths):
        if chain:
            basis.append(BasisElement(_path_label(chain), source, chain[-1].target,
                                      sum(a.degree for a in chain)))
            index[chain] = k
        else:
            basis.append(BasisElement(f"e{source}", source, source, 0))
            trivial[source] = k
    mult: dict[tuple[int, int], Element] = {}
    for j, (src_y, ay) in enumerate(paths):
        end_y = ay[-1].target if ay else src_y
        for i, (src_x, ax) in enumerate(paths):
            if src_x != end_y:
                continue
            if ay and ax and (ay[-1].id, ax[0].id) in relations:
                continue
            combined = ay + ax
            k = index[combined] if combined else trivial[src_y]
            mult[(i, j)] = {k: 1}
    algebra = SCAlgebra(q.vertices, tuple(basis),
                        tuple(trivial[v] for v in q.vertices), mult)
    algebra.verify()
    return algebra


def path_algebra(q: Quiver) -> SCAlgebra:
    """Path algebra of an acyclic quiver; basis = all paths."""
    if has_oriented_cycle(q):
        raise ValueError("quiver has an oriented cycle; its path algebra is infinite-dimensional")
    return _monomial_algebra(q, set())


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
    return _monomial_algebra(q, rel)


def parse_gentle(document: str) -> GentlePresentation:
    """Parse a quiver JSON document with an optional "relations" list."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed gentle document: {exc}") from exc
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


class CanonicalSpec(Record):
    """Weight sequence p_1..p_t with scalars for the arms beyond the second.

    The first two arms carry the implicit normalization; lambdas[i] belongs
    to arm i+3 and must be nonzero, all pairwise distinct.
    """

    weights: tuple[int, ...]
    lambdas: tuple[int | Fraction, ...] = ()

    def __post_init__(self) -> None:
        if len(self.weights) < 2:
            raise ValueError("at least two weights are required")
        if any(not isinstance(p, int) or p < 1 for p in self.weights):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "lambdas", vector(self.lambdas))
        if len(self.lambdas) != len(self.weights) - 2:
            raise ValueError("need exactly one lambda per arm beyond the second")
        if any(x == 0 for x in self.lambdas):
            raise ValueError("lambdas must be nonzero")
        if len(set(self.lambdas)) != len(self.lambdas):
            raise ValueError("lambdas must be pairwise distinct")


def parse_canonical_spec(document: str) -> CanonicalSpec:
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed canonical spec: {exc}") from exc
    if not isinstance(data, dict) or "weights" not in data:
        raise ValueError("canonical spec must be a JSON object with a 'weights' list")
    weights = tuple(data["weights"])
    lambdas = tuple(data.get("lambdas", ()))
    return CanonicalSpec(weights, lambdas)


def canonical_algebra(spec: CanonicalSpec) -> SCAlgebra:
    """Canonical algebra on the two-pole star quiver.

    Vertices are 0, the arm interiors i_j, and inf. Arm i consists of
    p_i arrows x{i}_1 .. x{i}_{p_i} composing right to left into a path
    from 0 to inf. The space of full paths is two-dimensional: the full
    arm-1 and arm-2 paths are basis elements, and for i >= 3 the full
    arm-i path rewrites to (arm 2) - lambda_i * (arm 1).
    """
    weights = spec.weights
    t = len(weights)

    def vertex(i: int, pos: int) -> str:
        if pos == 0:
            return "0"
        if pos == weights[i - 1]:
            return "inf"
        return f"{i}_{pos}"

    def seg_label(i: int, s: int, e: int) -> str:
        p = weights[i - 1]
        return "".join(f"x{i}_{p - k + 1}" for k in range(e, s, -1))

    vertices = ["0"]
    for i in range(1, t + 1):
        vertices.extend(f"{i}_{j}" for j in range(1, weights[i - 1]))
    vertices.append("inf")

    basis = [BasisElement(f"e{v}", v, v, 0) for v in vertices]
    trivial = {v: k for k, v in enumerate(vertices)}
    seg_index: dict[tuple[int, int, int], int] = {}
    for i in range(1, t + 1):
        p = weights[i - 1]
        for s in range(p):
            for e in range(s + 1, p + 1):
                if (s, e) == (0, p):
                    continue
                seg_index[(i, s, e)] = len(basis)
                basis.append(BasisElement(seg_label(i, s, e), vertex(i, s), vertex(i, e), 0))
    full_one = len(basis)
    basis.append(BasisElement(seg_label(1, 0, weights[0]), "0", "inf", 0))
    full_two = len(basis)
    basis.append(BasisElement(seg_label(2, 0, weights[1]), "0", "inf", 0))

    def full_expansion(i: int) -> Element:
        if i == 1:
            return {full_one: 1}
        if i == 2:
            return {full_two: 1}
        return {full_two: 1, full_one: -spec.lambdas[i - 3]}

    mult: dict[tuple[int, int], Element] = {}
    for v, ev in trivial.items():
        mult[(ev, ev)] = {ev: 1}
    for k in list(seg_index.values()) + [full_one, full_two]:
        b = basis[k]
        mult[(trivial[b.target], k)] = {k: 1}
        mult[(k, trivial[b.source])] = {k: 1}
    for (i, s1, e1), x in seg_index.items():
        for (j, s2, e2), y in seg_index.items():
            if i != j or s1 != e2:
                continue
            p = weights[i - 1]
            if (s2, e1) == (0, p):
                mult[(x, y)] = dict(full_expansion(i))
            else:
                mult[(x, y)] = {seg_index[(i, s2, e1)]: 1}
    algebra = SCAlgebra(tuple(vertices), tuple(basis),
                        tuple(trivial[v] for v in vertices), mult)
    algebra.verify()
    return algebra
