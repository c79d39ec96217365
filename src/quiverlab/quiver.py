"""Quiver data model, Tits form, the finite/affine/indefinite trichotomy,
and K0Arithmetic, the package's one arithmetic of K_0, for a path algebra
kQ and for a canonical algebra read off its weights, all in ints, with
CoxeterMap, its Coxeter transformation as a linear map for cyclo; ratmat
is imported only by the functions that return a RatMatrix."""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .record import Record, read_json

if TYPE_CHECKING:
    from .ratmat import RatMatrix


class Arrow(Record):
    id: str
    source: str
    target: str
    degree: int = 0


class Quiver(Record):
    """Finite directed multigraph; loops and parallel arrows are allowed."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex identifier")
        ids = [a.id for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow id")
        known = set(self.vertices)
        for a in self.arrows:
            if a.source not in known:
                raise ValueError(f"arrow {a.id!r} references unknown vertex {a.source!r}")
            if a.target not in known:
                raise ValueError(f"arrow {a.id!r} references unknown vertex {a.target!r}")

    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def components(self) -> list[list[int]]:
        """The vertex positions of each connected component, each list
        increasing and the lists by their least position (union-find)."""
        index = self.vertex_index()
        root = list(range(len(self.vertices)))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        for a in self.arrows:
            root[find(index[a.source])] = find(index[a.target])
        parts: dict[int, list[int]] = {}
        for v in range(len(root)):
            parts.setdefault(find(v), []).append(v)
        return list(parts.values())

    @property
    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def reversed(self) -> "Quiver":
        flipped = tuple(Arrow(a.id, a.target, a.source, a.degree) for a in self.arrows)
        return Quiver(self.vertices, flipped)


class QuiverType(Record):
    """Trichotomy verdict; radical_vector is present exactly for affine type."""

    kind: str
    radical_vector: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "affine", "indefinite"):
            raise ValueError(f"unknown quiver type {self.kind!r}")
        if (self.radical_vector is not None) != (self.kind == "affine"):
            raise ValueError("radical vector is present exactly for affine type")


def _ident(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"identifier must be a string or integer, got {value!r}")


def parse_quiver(document: str) -> Quiver:
    """Parse the JSON quiver format; arrow degrees default to 0."""
    return quiver_from_data(read_json(document, "quiver document"))


def quiver_from_data(data: object) -> Quiver:
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("quiver document must be a JSON object with a 'vertices' list")
    raw_vertices = data["vertices"]
    raw_arrows = data.get("arrows", [])
    if not isinstance(raw_vertices, list) or not isinstance(raw_arrows, list):
        raise ValueError("'vertices' and 'arrows' must be lists")
    vertices = tuple(_ident(v) for v in raw_vertices)
    arrows = []
    for entry in raw_arrows:
        if not isinstance(entry, dict):
            raise ValueError(f"arrow entry must be an object, got {entry!r}")
        missing = {"id", "from", "to"} - entry.keys()
        if missing:
            raise ValueError(f"arrow entry is missing {sorted(missing)}")
        degree = entry.get("degree", 0)
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError(f"arrow degree must be an integer, got {degree!r}")
        arrows.append(Arrow(_ident(entry["id"]), _ident(entry["from"]),
                            _ident(entry["to"]), degree))
    return Quiver(vertices, tuple(arrows))


def _tits_rows(q: Quiver) -> list[list[int]]:
    """The rows of 2T, as tits_matrix describes; a loop subtracts 1 twice."""
    index = q.vertex_index()
    n = len(q.vertices)
    rows = [[0] * i + [2] + [0] * (n - i - 1) for i in range(n)]
    for a in q.arrows:
        i, j = index[a.source], index[a.target]
        rows[i][j] -= 1
        rows[j][i] -= 1
    return rows


def tits_matrix(q: Quiver) -> RatMatrix:
    """Doubled symmetric Tits matrix 2T, kept integral.

    Diagonal 2 - 2*#loops(v); off-diagonal -(#arrows between the pair,
    either direction). The quadratic form is q(x) = (1/2) x^T (2T) x.
    """
    from .ratmat import RatMatrix

    return RatMatrix(_tits_rows(q))


def classify_quiver(q: Quiver) -> QuiverType:
    """Finite iff 2T is positive definite, affine iff semidefinite with kernel.

    Decided in ints by one fraction-free symmetric elimination of the rows
    of 2T.  Each step takes the first active vertex p with a positive
    diagonal d as pivot, and replaces each active row i with a = 2T[i][p]
    != 0 by (d*row_i - a*row_p) / gcd(d, a), divided again by its content
    on the active columns: a positive multiple of its Schur-complement row,
    so every diagonal keeps its sign.  A negative diagonal means indefinite,
    and an active block with zero diagonal semidefinite when it vanishes.
    The radical is read off the triangular pivot rows by back-substitution
    in ints from the one free vertex.  Orientation and arrow degrees play
    no role.
    """
    if not q.is_connected:
        raise ValueError("classification requires a connected quiver")
    rows = _tits_rows(q)
    n = len(rows)
    active, pivots = list(range(n)), []
    while active:
        if any(rows[i][i] < 0 for i in active):
            return QuiverType("indefinite")
        p = next((i for i in active if rows[i][i] > 0), None)
        if p is None:
            if any(rows[i][j] for i in active for j in active):
                return QuiverType("indefinite")
            break
        row, d = rows[p], rows[p][p]
        active.remove(p)
        pivots.append(p)
        support = [j for j in active if row[j]]
        for i in support:
            work = rows[i]
            g = math.gcd(d, work[p])
            scale, f = d // g, work[p] // g
            if scale != 1:
                for j in active:
                    work[j] *= scale
            for j in support:
                work[j] -= f * row[j]
            content = math.gcd(*(work[j] for j in active))
            if content > 1:
                for j in active:
                    work[j] //= content
    if not active:
        return QuiverType("finite")
    if len(active) != 1:
        raise RuntimeError("affine Tits kernel is not one-dimensional")
    x = [int(v == active[0]) for v in range(n)]
    for p in reversed(pivots):  # row p is stale only on earlier pivots, still 0 in x
        s = sum(rows[p][j] * x[j] for j in range(n) if j != p)
        scale = rows[p][p] // math.gcd(s, rows[p][p])
        x = [v * scale for v in x]
        x[p] = -s * scale // rows[p][p]
    if any(v < 0 for v in x):
        raise RuntimeError("affine radical vector is not positive")
    g = math.gcd(*x)
    return QuiverType("affine", tuple(v // g for v in x))


def classify_components(q: Quiver) -> list[tuple[list[int], QuiverType]]:
    """Each component's positions, as components gives them, with the type
    classify_quiver finds for the sub-quiver they span, in their order."""
    found = []
    for part in q.components():
        inside = {q.vertices[v] for v in part}
        sub = Quiver(tuple(q.vertices[v] for v in part),
                     tuple(a for a in q.arrows if a.source in inside))
        found.append((part, classify_quiver(sub)))
    return found


def topological_order(q: Quiver) -> list[int] | None:
    """The vertex positions with the source of every arrow before its
    target, or None when Q has an oriented cycle (Kahn's algorithm)."""
    index = q.vertex_index()
    n = len(q.vertices)
    pending = [0] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    for a in q.arrows:
        succs[index[a.source]].append(index[a.target])
        pending[index[a.target]] += 1
    order = [v for v in range(n) if not pending[v]]
    for v in order:  # grows while it is walked
        for t in succs[v]:
            pending[t] -= 1
            if not pending[t]:
                order.append(t)
    return order if len(order) == n else None


def has_oriented_cycle(q: Quiver) -> bool:
    return topological_order(q) is None


def acyclic_order(q: Quiver) -> list[int]:
    """topological_order of Q; ValueError when kQ is infinite-dimensional."""
    order = topological_order(q)
    if order is None:
        raise ValueError("quiver has an oriented cycle; its path algebra is infinite-dimensional")
    return order


class K0Arithmetic:
    """Integer arithmetic of K_0(A), for A = kQ of an acyclic quiver Q or
    the canonical algebra of a weight sequence (canonical).

    A is given by weighted edges (s, t, w), sorted by the place of s in a
    topological order, with C^(-1) = I - W for W[t][s] = w; C is the
    Cartan matrix, C[t][s] = dim e_t A e_s, the weighted count of the paths
    from s to t.  For kQ, w counts the arrows s -> t, parallel ones merged.
    E = C^(-T) = I - W^T, <x, y> = x^T E y is the Euler form, and
    Phi = -C^T C^(-1) is the Coxeter transformation, the class of tau.
    Every product is a pass over the edges, and matrix reads a matrix off
    one column by column; nothing is inverted.
    """

    def __init__(self, q: Quiver):
        order = acyclic_order(q)
        rank = {v: k for k, v in enumerate(order)}
        pos = q.vertex_index()
        counts: dict[tuple[int, int], int] = {}
        for a in q.arrows:
            edge = pos[a.source], pos[a.target]
            counts[edge] = counts.get(edge, 0) + 1
        self.n = len(order)
        self.edges = sorted(((s, t, w) for (s, t), w in counts.items()),
                            key=lambda edge: rank[edge[0]])

    @classmethod
    def canonical(cls, weights: tuple[int, ...]) -> K0Arithmetic:
        """K_0 of the canonical algebra of weights p_1..p_t, in the vertex
        order of builders.canonical_algebra: 0, the stops of each arm in
        turn, inf, itself a topological order.

        Each arm's arrows are edges of weight 1.  The t - 2 relations cut
        the t full paths 0 -> inf down to a plane, so one more edge 0 -> inf
        of weight 2 - t, left out when t = 2, makes C[inf][0] = 2: C^(-1) is
        I - N for the arrow counts N with t - 2 added at (inf, 0) (Ringel,
        LNM 1099, 1984).  The scalars lambda do not enter.
        """
        n = 2 + sum(p - 1 for p in weights)
        edges, stop = [], 1
        for p in weights:
            stops = [0, *range(stop, stop + p - 1), n - 1]
            edges.extend((s, t, 1) for s, t in zip(stops, stops[1:]))
            stop += p - 1
        if len(weights) != 2:
            edges.append((0, n - 1, 2 - len(weights)))
        k0 = cls.__new__(cls)
        k0.n, k0.edges = n, sorted(edges)
        return k0

    def unit(self, i: int) -> list[int]:
        return [int(x == i) for x in range(self.n)]

    def paths(self, x: list[int]) -> list[int]:
        """C x: y = x + W y, read source by source in topological order."""
        y = list(x)
        for s, t, w in self.edges:
            y[t] += w * y[s]
        return y

    def euler(self, x: list[int]) -> list[int]:
        """E x."""
        y = list(x)
        for s, t, w in self.edges:
            y[s] -= w * x[t]
        return y

    def inverse(self, c: list[int]) -> list[int]:
        """Phi^(-1) c = -C E c, the class of tau^(-1)."""
        return [-y for y in self.paths(self.euler(c))]

    def forward(self, c: list[int]) -> list[int]:
        """Phi c = -C^T (I - W) c, the class of tau: z = (I - W) c, then
        y = z + W^T y, read in the reverse order."""
        z = list(c)
        for s, t, w in self.edges:
            z[t] -= w * c[s]
        for s, t, w in reversed(self.edges):
            z[s] += w * z[t]
        return [-y for y in z]

    def rows(self, apply) -> list[tuple[int, ...]]:
        """The rows of the matrix of the map apply, C for paths, Phi for
        forward, in ints: its columns are the images of the unit vectors."""
        return list(zip(*(apply(self.unit(j)) for j in range(self.n))))

    def matrix(self, apply) -> RatMatrix:
        """rows(apply) as a RatMatrix."""
        from .ratmat import RatMatrix

        return RatMatrix(self.rows(apply))


class CoxeterMap:
    """Phi of a K0Arithmetic as the linear map cyclo walks: rows, is_square
    and apply, each apply one forward pass in ints, so no matrix is built.
    It hashes by identity, so cyclo's last Krylov walk is kept for this
    object."""

    __slots__ = ("k0",)
    is_square = True

    def __init__(self, k0: K0Arithmetic):
        self.k0 = k0

    @property
    def rows(self) -> int:
        return self.k0.n

    def apply(self, vec) -> tuple[int, ...]:
        return tuple(self.k0.forward(vec))


def cartan_path_algebra(q: Quiver) -> RatMatrix:
    """Cartan matrix of the path algebra: C[j][i] = #paths from i to j.

    Column i is the dimension vector of the projective at vertex i.
    """
    k0 = K0Arithmetic(q)
    return k0.matrix(k0.paths)


def coxeter_matrix(c: RatMatrix) -> RatMatrix:
    """Coxeter transformation -C^T C^{-1} of any Cartan matrix, on column vectors."""
    if not c.is_square:
        raise ValueError("Cartan matrix must be square")
    return -(c.T * c.inverse())
